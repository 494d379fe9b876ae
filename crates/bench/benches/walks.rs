//! Microbenchmarks for the random-walk machinery, including the paper's
//! key efficiency claim: post-generation truncation vs regenerating
//! walks per seed set (Direct Generation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use vom_datasets::{twitter_mask_like, ReplicaParams};
use vom_walks::{Lambda, WalkEstimator, WalkGenerator};

fn generation(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.001, 3));
    let cand = ds.instance.candidate(0);
    let gen = WalkGenerator::new(&cand.graph, &cand.stubbornness, 20);
    let mut group = c.benchmark_group("walk_generation");
    group.sample_size(10);
    for lambda in [50usize, 150] {
        group.bench_with_input(BenchmarkId::new("per_node", lambda), &lambda, |b, &l| {
            b.iter(|| std::hint::black_box(gen.generate_per_node(&Lambda::Uniform(l), 7)))
        });
    }
    group.finish();
}

/// The ablation the paper motivates in §V-B: adding one seed by
/// truncation is orders of magnitude cheaper than regenerating the walks
/// with the seed baked in.
fn truncation_vs_regeneration(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.001, 3));
    let cand = ds.instance.candidate(0);
    let gen = WalkGenerator::new(&cand.graph, &cand.stubbornness, 20);
    let arena = Arc::new(gen.generate_per_node(&Lambda::Uniform(150), 7));
    let mut group = c.benchmark_group("seed_update");
    group.sample_size(10);
    group.bench_function("post_generation_truncation", |b| {
        b.iter_batched(
            || WalkEstimator::new(Arc::clone(&arena), &cand.initial),
            |mut est| {
                est.add_seed(3);
                std::hint::black_box(est.estimate(0))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("direct_regeneration", |b| {
        b.iter(|| {
            let a = gen.generate_direct(&Lambda::Uniform(150), &[3], 7);
            std::hint::black_box(a.num_walks())
        })
    });
    group.finish();
}

fn gain_scans(c: &mut Criterion) {
    let ds = twitter_mask_like(&ReplicaParams::at_scale(0.001, 3));
    let cand = ds.instance.candidate(0);
    let gen = WalkGenerator::new(&cand.graph, &cand.stubbornness, 20);
    let arena = gen.generate_per_node(&Lambda::Uniform(150), 7);
    let est = WalkEstimator::new(Arc::new(arena), &cand.initial);
    let mut group = c.benchmark_group("greedy_scans");
    group.sample_size(10);
    group.bench_function("cumulative_gains", |b| {
        b.iter(|| std::hint::black_box(est.cumulative_gains(None)))
    });
    group.bench_function("pair_deltas", |b| {
        b.iter(|| std::hint::black_box(est.pair_deltas().len()))
    });
    group.finish();
}

criterion_group!(benches, generation, truncation_vs_regeneration, gain_scans);
criterion_main!(benches);
