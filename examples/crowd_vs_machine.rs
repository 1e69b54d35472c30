//! Crowd vs machine: how much does crowdsourcing actually help?
//!
//! Compares three systems on the same request set:
//!  * each single source alone (the paper's §I motivation);
//!  * machine-only TR (agreement + confidence, crowd disabled);
//!  * full CrowdPlanner (TR + CR).
//!
//! ```sh
//! cargo run --release --example crowd_vs_machine
//! ```

use crowdplanner::prelude::*;
use crowdplanner::sim::{Scale, SimWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = SimWorld::build(Scale::Medium, 13)?;
    let requests = world.request_stream(80, 6, 31);
    let departure = TimeOfDay::from_hours(8.0);

    // --- Single sources ---
    let mining = world.service_world();
    let mut source_hits: std::collections::HashMap<SourceKind, usize> =
        std::collections::HashMap::new();
    for &(a, b) in &requests {
        for c in mining.candidates(a, b, departure) {
            if world.is_best(&c.path) {
                *source_hits.entry(c.source).or_insert(0) += 1;
            }
        }
    }
    println!(
        "=== single-source accuracy over {} requests ===",
        requests.len()
    );
    for s in SourceKind::ALL {
        println!(
            "  {:<12}: {:>5.1}%",
            s.name(),
            100.0 * source_hits.get(&s).copied().unwrap_or(0) as f64 / requests.len() as f64
        );
    }

    // --- Machine-only (TR): crowd disabled by giving it zero workers ---
    let empty_desk = {
        let pop = WorkerPopulation::generate(
            &world.city.graph,
            &PopulationParams {
                workers: 1,
                ..PopulationParams::default()
            },
            1,
        );
        std::sync::Arc::new(SharedCrowd::new(
            Platform::new(pop, AnswerModel::default(), 1),
            5,
        ))
    };
    let mut machine = world.owned_planner(
        empty_desk,
        Config {
            // An unanswerable deadline disables the crowd: every contested
            // request falls back to the best machine guess.
            task_deadline: 0.1,
            eta_time: 0.999,
            ..Config::default()
        },
    )?;

    // --- Full system ---
    let cfg = Config::default();
    let desk = world.shared_crowd(200, 15, 13, cfg.eta_quota);
    let mut full = world.owned_planner(desk, cfg)?;

    let mut machine_correct = 0usize;
    let mut full_correct = 0usize;
    for &(a, b) in &requests {
        let oracle = world.oracle(a, b)?;
        let m = machine.handle_request(a, b, departure, &oracle)?;
        if world.is_best(&m.path) {
            machine_correct += 1;
        }
        let f = full.handle_request(a, b, departure, &oracle)?;
        if world.is_best(&f.path) {
            full_correct += 1;
        }
    }

    println!("\n=== system accuracy ===");
    println!(
        "  machine-only TR : {:>5.1}%  (fallbacks {})",
        100.0 * machine_correct as f64 / requests.len() as f64,
        machine.stats().fallbacks
    );
    println!(
        "  full CrowdPlanner: {:>5.1}%  (crowd tasks {}, {:.1} questions/task)",
        100.0 * full_correct as f64 / requests.len() as f64,
        full.stats().crowd_tasks,
        full.stats().total_questions as f64 / full.stats().crowd_tasks.max(1) as f64
    );
    println!(
        "\ncrowdsourcing lifted accuracy by {:.1} percentage points",
        100.0 * (full_correct as f64 - machine_correct as f64) / requests.len() as f64
    );
    Ok(())
}
