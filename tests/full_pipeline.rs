//! Cross-crate integration tests: the full CrowdPlanner pipeline on a
//! seeded world, exercising every module boundary at once.

use crowdplanner::prelude::*;
use crowdplanner::sim::{Scale, SimWorld};

fn world() -> SimWorld {
    SimWorld::build(Scale::Small, 1234).expect("world builds")
}

fn planner(w: &SimWorld, seed: u64) -> CrowdPlanner {
    planner_with(w, seed, Config::default())
}

fn planner_with(w: &SimWorld, seed: u64, cfg: Config) -> CrowdPlanner {
    let desk = w.shared_crowd(120, 15, seed, cfg.eta_quota);
    w.owned_planner(desk, cfg).expect("planner builds")
}

#[test]
fn every_request_gets_a_valid_route() {
    let w = world();
    let mut p = planner(&w, 1);
    for (a, b) in w.request_stream(25, 3, 42) {
        let oracle = w.oracle(a, b).expect("oracle");
        let rec = p
            .handle_request(a, b, TimeOfDay::from_hours(9.0), &oracle)
            .expect("request resolves");
        if rec.resolution == Resolution::ReusedTruth {
            // Reuse may serve a stored route whose endpoints lie within the
            // reuse radius of the request (that's its purpose).
            let cfg = p.config();
            let g = &w.city.graph;
            assert!(g.position(rec.path.source()).distance(&g.position(a)) <= cfg.reuse_radius);
            assert!(
                g.position(rec.path.destination()).distance(&g.position(b)) <= cfg.reuse_radius
            );
        } else {
            assert_eq!(rec.path.source(), a);
            assert_eq!(rec.path.destination(), b);
        }
        assert!(rec.path.is_simple(), "recommended routes are simple paths");
        assert!(rec.confidence >= 0.0 && rec.confidence <= 1.0);
    }
    let s = p.stats();
    assert_eq!(s.requests, 25);
    assert_eq!(
        s.reuse_hits + s.agreements + s.confident + s.crowd_tasks + s.fallbacks,
        25,
        "every request accounted for exactly once"
    );
}

#[test]
fn pipeline_is_deterministic() {
    let w = world();
    let run = || {
        let mut p = planner(&w, 7);
        let mut out = Vec::new();
        for (a, b) in w.request_stream(10, 3, 9) {
            let oracle = w.oracle(a, b).unwrap();
            let rec = p
                .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
                .unwrap();
            out.push((
                rec.path.nodes().to_vec(),
                rec.resolution,
                rec.questions_asked,
            ));
        }
        out
    };
    assert_eq!(run(), run(), "same seeds, same answers");
}

#[test]
fn truth_store_grows_and_serves_repeats() {
    let w = world();
    let mut p = planner(&w, 3);
    let reqs = w.request_stream(8, 3, 5);
    for &(a, b) in &reqs {
        let oracle = w.oracle(a, b).unwrap();
        p.handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
    }
    let truths_after_first_pass = p.truths().len();
    assert_eq!(truths_after_first_pass, 8);
    // Second pass: everything is a reuse hit.
    for &(a, b) in &reqs {
        let oracle = w.oracle(a, b).unwrap();
        let rec = p
            .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
        assert_eq!(rec.resolution, Resolution::ReusedTruth);
    }
    assert_eq!(
        p.truths().len(),
        truths_after_first_pass,
        "no duplicate truths"
    );
    assert_eq!(p.stats().reuse_hits, 8);
}

#[test]
fn crowd_costs_are_bounded_by_config() {
    let w = world();
    // Force the crowd on everything.
    let cfg = Config {
        agreement_similarity: 1.0,
        agreement_quorum: 1.0,
        eta_confidence: 1.0,
        reuse_radius: 0.0,
        ..Config::default()
    };
    let mut p = planner_with(&w, 11, cfg.clone());
    for (a, b) in w.request_stream(12, 3, 13) {
        let oracle = w.oracle(a, b).unwrap();
        let rec = p
            .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
        assert!(rec.workers_asked <= cfg.k_workers);
    }
}

#[test]
fn rewards_flow_to_participating_workers() {
    let w = world();
    let cfg = Config {
        agreement_similarity: 1.0,
        agreement_quorum: 1.0,
        eta_confidence: 1.0,
        reuse_radius: 0.0,
        ..Config::default()
    };
    let mut p = planner_with(&w, 17, cfg);
    let mut crowd_seen = false;
    for (a, b) in w.request_stream(12, 3, 19) {
        let oracle = w.oracle(a, b).unwrap();
        let rec = p
            .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
        if rec.resolution == Resolution::Crowd {
            crowd_seen = true;
        }
    }
    if crowd_seen {
        let earned: f64 = p
            .desk()
            .population()
            .ids()
            .map(|wk| p.desk().points(wk))
            .sum();
        assert!(earned > 0.0, "crowd work must be rewarded");
    }
    // Quotas must be fully released after resolution.
    for wk in p.desk().population().ids() {
        assert_eq!(p.desk().outstanding(wk), 0);
    }
    assert!(
        p.desk().desk_stats().is_drained(),
        "every reservation settled exactly once"
    );
}

#[test]
fn no_eligible_workers_falls_back_instead_of_failing() {
    let w = world();
    let cfg = Config {
        agreement_similarity: 1.0,
        agreement_quorum: 1.0,
        eta_confidence: 1.0,
        reuse_radius: 0.0,
        task_deadline: 0.01,
        eta_time: 0.999,
        ..Config::default()
    };
    let desk = w.shared_crowd(5, 0, 23, cfg.eta_quota);
    let mut p = w.owned_planner(desk, cfg).unwrap();
    let (a, b) = w.request_stream(1, 4, 29)[0];
    let oracle = w.oracle(a, b).unwrap();
    let rec = p
        .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
        .unwrap();
    assert_eq!(rec.resolution, Resolution::Fallback);
    assert_eq!(rec.workers_asked, 0);
}

#[test]
fn accuracy_beats_worst_single_source() {
    // A sanity-level end-to-end accuracy claim kept deliberately loose so
    // it stays robust across seeds: the full system must clearly beat the
    // weakest source (WS-Shortest, which ignores driver preference
    // entirely).
    let w = world();
    let mut p = planner(&w, 31);
    let reqs = w.request_stream(30, 4, 37);
    let mining = w.service_world();
    let mut full = 0usize;
    let mut shortest = 0usize;
    for &(a, b) in &reqs {
        let oracle = w.oracle(a, b).unwrap();
        let rec = p
            .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
        if w.is_best(&rec.path) {
            full += 1;
        }
        let cands = mining.candidates(a, b, TimeOfDay::from_hours(8.0));
        if let Some(c) = cands
            .iter()
            .find(|c| c.source == SourceKind::ShortestWebService)
        {
            if w.is_best(&c.path) {
                shortest += 1;
            }
        }
    }
    assert!(
        full > shortest,
        "full system ({full}/30) must beat WS-Shortest ({shortest}/30)"
    );
}
