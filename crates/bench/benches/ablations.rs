//! Ablation benches for ADAPT's design parameters (`docs/policies.md`):
//! monitoring-interval length, number of sampled sets, and the Least-priority bypass ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use experiments::ablation;

const SCALE: experiments::ExperimentScale = adapt_bench::BENCH_SCALE;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    group.bench_function("interval_length_sweep", |b| {
        b.iter(|| black_box(ablation::interval_sweep(SCALE, 1).len()))
    });
    group.bench_function("sampled_sets_sweep", |b| {
        b.iter(|| black_box(ablation::sampled_sets_sweep(SCALE, 1).len()))
    });
    group.bench_function("bypass_ratio_sweep", |b| {
        b.iter(|| black_box(ablation::bypass_ratio_sweep(SCALE, 1).len()))
    });
    group.bench_function("priority_range_sweep", |b| {
        b.iter(|| black_box(ablation::priority_range_sweep(SCALE, 1).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
