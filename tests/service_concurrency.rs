//! Concurrency integration test for the serving layer: ≥1k requests
//! fanned across ≥4 worker threads on a `Scale::Small` world must
//! produce (a) internally consistent statistics — every request served
//! from exactly one of {truth store, dedup, fresh resolution} — and
//! (b) exactly the routes the sequential baseline produces, for every
//! request, at every thread count.

use cp_roadnet::Path;
use cp_service::{
    Platform, PlatformConfig, Request, Served, ServedRoute, ServiceConfig, ServiceError,
    StatsSnapshot, World,
};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use std::sync::Arc;

/// Serves `requests` on a fresh uncoalesced platform with `workers`
/// resident workers over one strict-deterministic machine city: every
/// request is submitted (waiting for queue space) before the first
/// ticket is joined. Returns the results in request order and the
/// city's statistics after the drain.
fn serve_on_platform(
    sw: &Arc<World>,
    workers: usize,
    requests: &[Request],
) -> (Vec<Result<ServedRoute, ServiceError>>, StatsSnapshot) {
    let platform = Platform::start(PlatformConfig {
        workers,
        batch: None,
        ..PlatformConfig::default()
    });
    let city = platform.register_city(Arc::clone(sw), ServiceConfig::strict_deterministic());
    let tickets: Vec<_> = requests
        .iter()
        .map(|&req| platform.submit_blocking(Request { city, ..req }))
        .collect();
    let results = tickets
        .into_iter()
        .map(|t| t.and_then(|t| t.wait()))
        .collect();
    let snap = platform.city_stats(city).expect("registered");
    platform.shutdown();
    (results, snap)
}

/// A skewed request stream: `distinct` OD/time keys, each repeated
/// `repeats` times, deterministically interleaved (runs of repeats are
/// spread out, so identical requests land on different workers).
fn skewed_stream(world: &SimWorld, distinct: usize, repeats: usize) -> Vec<Request> {
    let ods = world.request_stream(distinct, 2, 1234);
    let mut requests = Vec::with_capacity(distinct * repeats);
    for round in 0..repeats {
        for (i, &(from, to)) in ods.iter().enumerate() {
            // Same key every round: bucket-stable departure per OD.
            let hour = 7.0 + (i % 4) as f64;
            let _ = round;
            requests.push(Request::new(from, to, TimeOfDay::from_hours(hour)));
        }
    }
    requests
}

#[test]
fn concurrent_service_is_consistent_and_deterministic() {
    let world = SimWorld::build(Scale::Small, 5).expect("world");
    let sw = world.service_world();
    let distinct = 125;
    let repeats = 10;
    let requests = skewed_stream(&world, distinct, repeats);
    assert!(requests.len() >= 1000, "need ≥1k requests");

    // Sequential baseline: one worker.
    let (baseline, base_snap) = serve_on_platform(&sw, 1, &requests);
    let baseline: Vec<Path> = baseline
        .into_iter()
        .map(|r| r.expect("sequential request must succeed").path)
        .collect();
    assert!(base_snap.is_consistent());
    assert_eq!(base_snap.requests, requests.len() as u64);
    assert_eq!(base_snap.errors, 0);
    // One resolution per distinct key; everything else reused.
    assert_eq!(base_snap.resolved, distinct as u64);
    assert_eq!(
        base_snap.truth_hits + base_snap.dedup_hits,
        (requests.len() - distinct) as u64
    );

    for workers in [4usize, 8] {
        let (results, snap) = serve_on_platform(&sw, workers, &requests);
        assert_eq!(snap.requests, requests.len() as u64, "workers = {workers}");
        assert_eq!(snap.errors, 0, "workers = {workers}");
        // The accounting invariant: hits + dedups + resolutions == requests.
        assert!(snap.is_consistent(), "workers = {workers}: {snap:?}");
        // Exactly one resolution per distinct key: admission dedup
        // attaches each duplicate of a queued or running miss to it, and
        // the leader's truth check inside its run closes the completion
        // race.
        assert_eq!(snap.resolved, distinct as u64, "workers = {workers}");
        assert_eq!(
            snap.truth_hits + snap.dedup_hits,
            (requests.len() - distinct) as u64,
            "workers = {workers}"
        );
        assert!(snap.latency.count == requests.len() as u64);

        // Determinism: every request's route equals the sequential one.
        for (i, result) in results.iter().enumerate() {
            let served = result.as_ref().expect("request must succeed");
            assert_eq!(
                served.path, baseline[i],
                "workers = {workers}, request {i}: route differs from sequential baseline"
            );
        }
    }
}

#[test]
fn dedup_collapses_a_thundering_herd() {
    let world = SimWorld::build(Scale::Small, 9).expect("world");
    let sw = world.service_world();
    // 400 identical requests, 8 workers, one key: exactly one resolution;
    // every other request is a dedup follower or a truth hit.
    let (from, to) = world.request_stream(1, 3, 7)[0];
    let requests: Vec<Request> = (0..400)
        .map(|_| Request::new(from, to, TimeOfDay::from_hours(8.0)))
        .collect();
    let (results, snap) = serve_on_platform(&sw, 8, &requests);
    let first_path = &results[0].as_ref().unwrap().path;
    for r in &results {
        let served = r.as_ref().unwrap();
        assert_eq!(&served.path, first_path);
        assert!(matches!(
            served.served,
            Served::TruthHit | Served::Deduplicated | Served::Resolved(_)
        ));
    }
    assert_eq!(snap.requests, 400);
    assert_eq!(snap.resolved, 1, "single flight for a single key");
    assert_eq!(snap.truth_hits + snap.dedup_hits, 399);
    assert!(snap.is_consistent());
}
