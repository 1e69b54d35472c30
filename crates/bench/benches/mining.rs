//! Micro-benchmarks of a cold miss's per-request mining on the Large
//! city (the `cold_mine` benchmark world): the two web services' A*
//! searches, the trip index a world builds once, and the locality scan
//! `World::origin_artifacts` runs per origin. Each iteration covers
//! `ODS` requests, so divide the reported time by `ODS` for one.

use cp_mining::{FastestRouteService, ShortestRouteService, TripIndex};
use cp_roadnet::NodeId;
use criterion::{criterion_group, criterion_main, Criterion};
use crowdplanner::sim::{Scale, SimWorld};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Requests per iteration.
const ODS: usize = 256;

fn bench_mining(c: &mut Criterion) {
    let world = SimWorld::build(Scale::Large, 42).expect("world");
    let graph = &world.city.graph;
    let trips = &world.trips.trips;
    let n = graph.node_count() as u32;
    let mut rng = SmallRng::seed_from_u64(7);
    let ods: Vec<(NodeId, NodeId)> = (0..ODS)
        .map(|_| {
            (
                NodeId(rng.random_range(0..n)),
                NodeId(rng.random_range(0..n)),
            )
        })
        .collect();
    let mining = world.service_world();

    let mut group = c.benchmark_group("mining");
    group.sample_size(20);
    group.bench_function("ws_pair_256_ods", |bench| {
        bench.iter(|| {
            for &(from, to) in &ods {
                let _ = black_box(ShortestRouteService.route(graph, from, to));
                let _ = black_box(FastestRouteService.route(graph, from, to));
            }
        })
    });
    group.bench_function("trip_index_build", |bench| {
        bench.iter(|| TripIndex::build(black_box(graph), trips))
    });
    group.bench_function("origin_artifacts_build_256_origins", |bench| {
        bench.iter(|| {
            for &(from, _) in &ods {
                black_box(mining.origin_artifacts(from));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mining);
criterion_main!(benches);
