//! Micro-benchmarks of the worker-selection pipeline: PMF fitting,
//! Gaussian accumulation, and the full knowledge-model build, both from
//! scratch and over a warm `KnowledgeBasis` (what a planner pays per
//! rebuild).

use cp_core::worker_selection::{
    accumulate_scores, observed_matrix, KnowledgeBasis, KnowledgeModel, PmfModel, PmfParams,
};
use cp_core::Config;
use cp_crowd::CrowdObserve;
use criterion::{criterion_group, criterion_main, Criterion};
use crowdplanner::sim::{Scale, SimWorld};
use std::hint::black_box;

fn bench_worker_selection(c: &mut Criterion) {
    // The crowd the `crowd_city` benchmark workload serves with.
    let world = SimWorld::build(Scale::Medium, 42).expect("world");
    let platform = world.platform(200, 30, 13);
    let cfg = Config::default();
    let obs = observed_matrix(&platform, &world.landmarks, &cfg);
    let n = platform.population().len();
    let m = world.landmarks.len();
    let model = PmfModel::fit(&obs, n, m, &PmfParams::default());
    let dense = model.densify(&obs);

    let mut group = c.benchmark_group("worker_selection");
    group.sample_size(20);
    group.bench_function("observed_matrix", |bench| {
        bench.iter(|| observed_matrix(black_box(&platform), &world.landmarks, &cfg))
    });
    group.bench_function("pmf_fit", |bench| {
        bench.iter(|| PmfModel::fit(black_box(&obs), n, m, &PmfParams::default()))
    });
    group.bench_function("gaussian_accumulate", |bench| {
        bench.iter(|| accumulate_scores(&world.landmarks, black_box(&dense), cfg.eta_dis))
    });
    group.bench_function("knowledge_model_full", |bench| {
        bench.iter(|| KnowledgeModel::build(black_box(&platform), &world.landmarks, &cfg))
    });
    let basis = KnowledgeBasis::new(platform.population(), &world.landmarks, cfg.eta_dis);
    group.bench_function("knowledge_model_warm_basis", |bench| {
        bench.iter(|| {
            let (_, histories) = black_box(&platform).history_snapshot();
            basis.model(&histories, &cfg)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_worker_selection);
criterion_main!(benches);
