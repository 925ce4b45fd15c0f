//! Criterion micro-benchmarks of the tensor kernels the training loops
//! spend their time in (matmul at CTR-model sizes, gather/scatter,
//! softmax, flat-vector axpy).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mamdr_tensor::rng::seeded;
use mamdr_tensor::Tensor;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &(m, k, n) in &[(128usize, 80usize, 64usize), (128, 64, 32), (256, 128, 64)] {
        let mut rng = seeded(1);
        let a = Tensor::randn(&mut rng, [m, k], 0.0, 1.0);
        let b = Tensor::randn(&mut rng, [k, n], 0.0, 1.0);
        group.bench_function(format!("{m}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(a.gemm(&b, false, false)))
        });
    }
    group.finish();
}

fn bench_gather_scatter(c: &mut Criterion) {
    let mut rng = seeded(2);
    let table = Tensor::randn(&mut rng, [10_000, 16], 0.0, 1.0);
    let ids: Vec<u32> = (0..256u32).map(|i| (i * 37) % 10_000).collect();
    c.bench_function("gather_256x16", |b| b.iter(|| black_box(table.gather_rows(&ids))));
    let src = Tensor::ones([256, 16]);
    c.bench_function("scatter_add_256x16", |b| {
        b.iter(|| {
            let mut grad = Tensor::zeros([10_000, 16]);
            grad.scatter_add_rows(&ids, &src);
            black_box(grad)
        })
    });
}

fn bench_softmax_and_axpy(c: &mut Criterion) {
    let mut rng = seeded(3);
    let m = Tensor::randn(&mut rng, [256, 64], 0.0, 1.0);
    c.bench_function("softmax_rows_256x64", |b| b.iter(|| black_box(m.softmax_rows())));
    let x: Vec<f32> = (0..100_000).map(|i| i as f32).collect();
    c.bench_function("flat_axpy_100k", |b| {
        b.iter(|| {
            let mut y = vec![0.0f32; 100_000];
            mamdr_nn::vecmath::axpy(&mut y, 0.5, &x);
            black_box(y)
        })
    });
}

criterion_group!(benches, bench_matmul, bench_gather_scatter, bench_softmax_and_axpy);
criterion_main!(benches);
