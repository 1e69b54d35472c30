//! E9 — end-to-end system comparison.
//!
//! Paper hook: the conclusion — "the CrowdPlanner system can always give
//! users the best routes", outperforming every individual source and the
//! machine-only pipeline. Expected shape:
//! any single source < machine-only TR ≤ full CrowdPlanner.

use crate::common::{header, row};
use cp_core::Config;
use cp_mining::SourceKind;
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};

/// Runs E9.
pub fn run(fast: bool) {
    let world = SimWorld::build(Scale::Medium, 13).expect("world");
    let n_req = if fast { 30 } else { 120 };
    let requests = world.request_stream(n_req, 6, 31);
    let departure = TimeOfDay::from_hours(8.0);

    header(
        "E9: accuracy of every system on the same request set",
        &["system", "accuracy", "crowd questions", "crowd tasks"],
    );

    // Single sources.
    let mining = world.service_world();
    let mut hits = [0usize; 5];
    for &(a, b) in &requests {
        for c in mining.candidates(a, b, departure) {
            if world.is_best(&c.path) {
                let i = SourceKind::ALL.iter().position(|&s| s == c.source).unwrap();
                hits[i] += 1;
            }
        }
    }
    for (i, s) in SourceKind::ALL.iter().enumerate() {
        row(&[
            s.name().to_string(),
            format!("{:.1}%", 100.0 * hits[i] as f64 / requests.len() as f64),
            "0".into(),
            "0".into(),
        ]);
    }

    // Machine-only TR (crowd unreachable: impossible deadline).
    let machine_cfg = Config {
        task_deadline: 0.1,
        eta_time: 0.999,
        ..Config::default()
    };
    let tiny = world.shared_crowd(1, 0, 1, machine_cfg.eta_quota);
    let mut machine = world.owned_planner(tiny, machine_cfg).expect("planner");
    let mut m_hits = 0usize;
    for &(a, b) in &requests {
        let oracle = world.oracle(a, b).expect("oracle");
        let rec = machine
            .handle_request(a, b, departure, &oracle)
            .expect("request");
        if world.is_best(&rec.path) {
            m_hits += 1;
        }
    }
    row(&[
        "machine-only TR".into(),
        format!("{:.1}%", 100.0 * m_hits as f64 / requests.len() as f64),
        "0".into(),
        "0".into(),
    ]);

    // Full CrowdPlanner.
    let full_cfg = Config::default();
    let desk = world.shared_crowd(200, 30, 13, full_cfg.eta_quota);
    let mut full = world.owned_planner(desk, full_cfg).expect("planner");
    let mut f_hits = 0usize;
    for &(a, b) in &requests {
        let oracle = world.oracle(a, b).expect("oracle");
        let rec = full
            .handle_request(a, b, departure, &oracle)
            .expect("request");
        if world.is_best(&rec.path) {
            f_hits += 1;
        }
    }
    let s = full.stats();
    row(&[
        "full CrowdPlanner".into(),
        format!("{:.1}%", 100.0 * f_hits as f64 / requests.len() as f64),
        format!("{}", s.total_questions),
        format!("{}", s.crowd_attempts),
    ]);

    // Oracle ceiling: is the best route among the candidates at all?
    let mut ceiling = 0usize;
    for &(a, b) in &requests {
        if mining
            .candidates(a, b, departure)
            .iter()
            .any(|c| world.is_best(&c.path))
        {
            ceiling += 1;
        }
    }
    row(&[
        "candidate-set ceiling".into(),
        format!("{:.1}%", 100.0 * ceiling as f64 / requests.len() as f64),
        "-".into(),
        "-".into(),
    ]);
}
