//! Property-based tests of the tensor algebra.

use proptest::prelude::*;

use mamdr_tensor::Tensor;

/// Strategy: a matrix with the given dims and bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec([rows, cols], data))
}

/// Strategy: small matrix dims.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..6, 1usize..6, 1usize..6)
}

proptest! {
    #[test]
    fn matmul_is_associative((m, k, n) in dims(), p in 1usize..5, seed in 0u64..1000) {
        let mut rng = mamdr_tensor::rng::seeded(seed);
        let a = Tensor::randn(&mut rng, [m, k], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [k, n], 0.0, 1.0);
        let c = Tensor::randn(&mut rng, [n, p], 0.0, 1.0);
        let left = a.gemm(&b, false, false).gemm(&c, false, false);
        let right = a.gemm(&b.gemm(&c, false, false), false, false);
        prop_assert!(left.max_abs_diff(&right) < 1e-3);
    }

    #[test]
    fn matmul_distributes_over_add((m, k, n) in dims(), seed in 0u64..1000) {
        let mut rng = mamdr_tensor::rng::seeded(seed);
        let a = Tensor::randn(&mut rng, [m, k], 0.0, 1.0);
        let b1 = Tensor::randn(&mut rng, [k, n], 0.0, 1.0);
        let b2 = Tensor::randn(&mut rng, [k, n], 0.0, 1.0);
        let lhs = a.gemm(&b1.add(&b2), false, false);
        let rhs = a.gemm(&b1, false, false).add(&a.gemm(&b2, false, false));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn transpose_respects_matmul((m, k, n) in dims(), seed in 0u64..1000) {
        // (A @ B)ᵀ = Bᵀ @ Aᵀ
        let mut rng = mamdr_tensor::rng::seeded(seed);
        let a = Tensor::randn(&mut rng, [m, k], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [k, n], 0.0, 1.0);
        let lhs = a.gemm(&b, false, false).transpose();
        let rhs = b.transpose().gemm(&a.transpose(), false, false);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn concat_slice_roundtrip(a in matrix(3, 4), b in matrix(3, 2)) {
        let cat = Tensor::concat_cols(&[&a, &b]);
        prop_assert_eq!(cat.slice_cols(0, 4), a);
        prop_assert_eq!(cat.slice_cols(4, 2), b);
    }

    #[test]
    fn gather_scatter_is_adjoint(
        ids in proptest::collection::vec(0u32..8, 1..12),
        seed in 0u64..1000,
    ) {
        // <gather(T, ids), G> == <T, scatter(G, ids)> for all T, G —
        // the defining property of the embedding backward rule.
        let mut rng = mamdr_tensor::rng::seeded(seed);
        let table = Tensor::randn(&mut rng, [8, 3], 0.0, 1.0);
        let g = Tensor::randn(&mut rng, [ids.len(), 3], 0.0, 1.0);
        let lhs = table.gather_rows(&ids).dot(&g) as f64;
        let mut scattered = Tensor::zeros([8, 3]);
        scattered.scatter_add_rows(&ids, &g);
        let rhs = table.dot(&scattered) as f64;
        prop_assert!((lhs - rhs).abs() < 1e-3, "{} vs {}", lhs, rhs);
    }

    #[test]
    fn softmax_rows_is_distribution(m in matrix(4, 5)) {
        let s = m.softmax_rows();
        prop_assert!(s.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        for i in 0..4 {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(m in matrix(3, 4), shift in -5.0f32..5.0) {
        let shifted = m.map(|x| x + shift);
        prop_assert!(m.softmax_rows().max_abs_diff(&shifted.softmax_rows()) < 1e-4);
    }

    #[test]
    fn row_broadcasts_match_manual(m in matrix(3, 4), row in matrix(1, 4)) {
        let row_flat = row.clone().reshape([4]);
        let added = m.add_row_broadcast(&row_flat);
        for i in 0..3 {
            for j in 0..4 {
                prop_assert!((added.at(i, j) - (m.at(i, j) + row.at(0, j))).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn sum_rows_and_cols_agree_with_total(m in matrix(4, 3)) {
        let total = m.sum();
        prop_assert!((m.sum_rows().sum() - total).abs() < 1e-3);
        prop_assert!((m.sum_cols().sum() - total).abs() < 1e-3);
    }

    #[test]
    fn axpy_matches_add_scale(a in matrix(2, 3), b in matrix(2, 3), alpha in -3.0f32..3.0) {
        let mut via_axpy = a.clone();
        via_axpy.axpy(alpha, &b);
        let via_ops = a.add(&b.scale(alpha));
        prop_assert!(via_axpy.max_abs_diff(&via_ops) < 1e-4);
    }

    #[test]
    fn norm_triangle_inequality(a in matrix(2, 4), b in matrix(2, 4)) {
        prop_assert!(a.add(&b).norm() <= a.norm() + b.norm() + 1e-4);
    }
}
