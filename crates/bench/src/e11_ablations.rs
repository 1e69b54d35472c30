//! E11 — ablations of CrowdPlanner's design choices.
//!
//! Not a paper experiment (see the root README's *Substitutions* table):
//! several mechanisms are worth isolating. Each row disables or degrades exactly one
//! mechanism and reruns the end-to-end workload of E9.

use crate::common::{header, row};
use cp_core::Config;
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};

fn run_system(world: &SimWorld, cfg: Config, n_req: usize) -> (f64, usize, usize) {
    let desk = world.shared_crowd(200, 30, 13, cfg.eta_quota);
    let mut planner = world.owned_planner(desk, cfg).expect("planner");
    let requests = world.request_stream(n_req, 6, 31);
    let mut hits = 0usize;
    for &(a, b) in &requests {
        let oracle = world.oracle(a, b).expect("oracle");
        let rec = planner
            .handle_request(a, b, TimeOfDay::from_hours(8.0), &oracle)
            .expect("request");
        if world.is_best(&rec.path) {
            hits += 1;
        }
    }
    let s = planner.stats();
    (
        100.0 * hits as f64 / requests.len() as f64,
        s.total_questions,
        s.crowd_attempts,
    )
}

/// Runs E11.
pub fn run(fast: bool) {
    let world = SimWorld::build(Scale::Medium, 13).expect("world");
    let n_req = if fast { 30 } else { 100 };

    header(
        "E11: one-mechanism-at-a-time ablations (end-to-end workload)",
        &["variant", "accuracy", "crowd questions", "crowd tasks"],
    );

    let variants: Vec<(&str, Config)> = vec![
        ("full system (defaults)", Config::default()),
        (
            "no agreement shortcut",
            Config {
                agreement_similarity: 1.0,
                agreement_quorum: 1.0,
                ..Config::default()
            },
        ),
        (
            "no early stop (ask everyone)",
            Config {
                eta_stop: 1.0,
                ..Config::default()
            },
        ),
        (
            "no verdict floor (always trust the crowd)",
            Config {
                verdict_floor: 0.0,
                ..Config::default()
            },
        ),
        (
            "fewer workers (k = 3)",
            Config {
                k_workers: 3,
                ..Config::default()
            },
        ),
        (
            "more workers (k = 15)",
            Config {
                k_workers: 15,
                ..Config::default()
            },
        ),
        (
            "narrow knowledge radius (η_dis = 500 m)",
            Config {
                eta_dis: 500.0,
                ..Config::default()
            },
        ),
        (
            "low-rank PMF (d = 2)",
            Config {
                pmf_dims: 2,
                ..Config::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let (acc, questions, tasks) = run_system(&world, cfg, n_req);
        row(&[
            name.to_string(),
            format!("{acc:.1}%"),
            format!("{questions}"),
            format!("{tasks}"),
        ]);
    }
}
