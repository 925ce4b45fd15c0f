//! Row-sparse gather gradients against the dense rule they replace.
//!
//! Random graphs gather from two tables, repeat ids within a gather and
//! gather the same table several times; the upstream adjoint of every
//! gather is drawn directly (signed zeros and subnormals included). The
//! densified row gradient must equal, bit for bit, a zeroed table that
//! receives `scatter_add_rows` of each gather's adjoint in reverse node
//! order — the rule `Tape::backward` used when it materialised tables.

use mamdr_autodiff::Tape;
use mamdr_tensor::Tensor;
use proptest::prelude::*;

const ROWS: usize = 6;
const DIM: usize = 3;
const MAX_IDS: usize = 9;

/// An upstream adjoint entry: ordinary values plus the ones a careless
/// accumulation gets wrong (`−0.0` where `0.0 + (−0.0) = +0.0` is
/// expected, and subnormals).
fn upstream() -> impl Strategy<Value = f32> {
    prop_oneof![
        -2.0f32..2.0,
        -2.0f32..2.0,
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::from_bits(1)),
        Just(-f32::from_bits(1)),
        Just(f32::MIN_POSITIVE / 8.0),
        Just(-f32::MIN_POSITIVE / 3.0),
    ]
}

/// `(table, ids, adjoint pool)` per gather, in recording order; the first
/// `ids.len() × DIM` pool entries are that gather's adjoint rows.
fn gathers() -> impl Strategy<Value = Vec<(usize, Vec<u32>, Vec<f32>)>> {
    proptest::collection::vec(
        (
            0usize..2,
            proptest::collection::vec(0u32..ROWS as u32, 1..=MAX_IDS),
            proptest::collection::vec(upstream(), MAX_IDS * DIM),
        ),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn row_gradients_match_zeroed_table_scatter_bit_for_bit(gathers in gathers()) {
        let tables = [Tensor::zeros([ROWS, DIM]), Tensor::ones([ROWS, DIM])];
        let adjoint = |ids: &[u32], pool: &[f32]| {
            Tensor::from_vec([ids.len(), DIM], pool[..ids.len() * DIM].to_vec())
        };
        // loss = Σ_g Σ gather_g ⊙ w_g: the adjoint reaching gather_g is
        // 1.0 · w_g, which is w_g exactly.
        let mut tape = Tape::new();
        let mut loss = None;
        for (t, ids, pool) in &gathers {
            let e = tape.gather_param(*t, &tables[*t], ids);
            let w = tape.leaf(adjoint(ids, pool));
            let y = tape.mul(e, w);
            let s = tape.sum_all(y);
            loss = Some(loss.map_or(s, |l| tape.add(l, s)));
        }
        let grads = tape.backward(loss.unwrap());

        for t in 0..2 {
            let mut reference = Tensor::zeros([ROWS, DIM]);
            let mut first_seen: Vec<u32> = Vec::new();
            for (_, ids, pool) in gathers.iter().rev().filter(|g| g.0 == t) {
                reference.scatter_add_rows(ids, &adjoint(ids, pool));
                for &id in ids {
                    if !first_seen.contains(&id) {
                        first_seen.push(id);
                    }
                }
            }
            let Some(rows) = grads.rows(t) else {
                prop_assert!(first_seen.is_empty(), "table {} gathered but has no gradient", t);
                continue;
            };
            prop_assert_eq!(rows.ids(), &first_seen[..], "table {} id order", t);
            let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(
                bits(&rows.to_dense()),
                bits(&reference),
                "table {} differs from the scatter-add reference",
                t
            );
        }
    }
}
