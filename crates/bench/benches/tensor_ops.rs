//! Substrate microbenchmarks: GEMM variants, im2col lowering and the channel
//! slicing/concatenation operators that the composition baselines are built
//! from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsx_tensor::conv::im2col;
use dsx_tensor::matmul::{matmul_blocked, matmul_naive, matmul_parallel};
use dsx_tensor::Tensor;
use std::hint::black_box;

fn bench_gemm_variants(c: &mut Criterion) {
    let (m, k, n) = (96usize, 128usize, 96usize);
    let a = Tensor::randn(&[m, k], 1).into_vec();
    let b = Tensor::randn(&[k, n], 2).into_vec();
    let mut group = c.benchmark_group("gemm_variants");
    group.sample_size(10);
    group.bench_function("naive", |bch| {
        bch.iter(|| black_box(matmul_naive(black_box(&a), black_box(&b), m, k, n)))
    });
    group.bench_function("blocked", |bch| {
        bch.iter(|| black_box(matmul_blocked(black_box(&a), black_box(&b), m, k, n)))
    });
    group.bench_function("parallel", |bch| {
        bch.iter(|| black_box(matmul_parallel(black_box(&a), black_box(&b), m, k, n)))
    });
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    group.sample_size(10);
    for hw in [16usize, 32] {
        let input = Tensor::randn(&[4, 16, hw, hw], 3);
        group.bench_function(BenchmarkId::from_parameter(hw), |b| {
            b.iter(|| black_box(im2col(black_box(&input), 3, 1, 1)))
        });
    }
    group.finish();
}

fn bench_channel_ops(c: &mut Criterion) {
    let input = Tensor::randn(&[8, 64, 16, 16], 4);
    let mut group = c.benchmark_group("channel_ops");
    group.sample_size(10);
    group.bench_function("narrow_cyclic", |b| {
        b.iter(|| black_box(input.narrow_channels_cyclic(black_box(48), 32)))
    });
    group.bench_function("cat_channels_x4", |b| {
        let parts = input.split_channels(4);
        let refs: Vec<&Tensor> = parts.iter().collect();
        b.iter(|| black_box(Tensor::cat_channels(black_box(&refs))))
    });
    group.bench_function("repeat_channels_x4", |b| {
        b.iter(|| black_box(input.repeat_channels(4)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm_variants,
    bench_im2col,
    bench_channel_ops
);
criterion_main!(benches);
