//! Shared helpers for the experiment harness.

use cp_core::LandmarkRoute;
use cp_roadnet::LandmarkId;
use crowdplanner::sim::SimWorld;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Prints a table header plus an underline.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n### {title}");
    let row = cols.join(" | ");
    println!("| {row} |");
    let sep: Vec<String> = cols.iter().map(|c| "-".repeat(c.len().max(3))).collect();
    println!("| {} |", sep.join(" | "));
}

/// Prints a table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Deterministic RNG for an experiment.
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0xB5AD_4ECE_DA1C_E2A9)
}

/// Synthetic landmark-selection instances: `n` routes over `m` landmarks,
/// each landmark on each route with probability 1/2, significances uniform.
/// Returns `(routes, significance)`; instances whose route pairs collide
/// are regenerated.
pub fn random_selection_instance(
    n: usize,
    m: usize,
    rng: &mut SmallRng,
) -> (Vec<LandmarkRoute>, Vec<f64>) {
    loop {
        let sigs: Vec<f64> = (0..m).map(|_| rng.random_range(0.01..1.0)).collect();
        let routes: Vec<LandmarkRoute> = (0..n)
            .map(|_| {
                LandmarkRoute::new(
                    (0..m)
                        .filter(|_| rng.random_bool(0.5))
                        .map(|i| LandmarkId(i as u32))
                        .collect(),
                )
            })
            .collect();
        let distinct = {
            let mut ok = true;
            for i in 0..n {
                for j in i + 1..n {
                    if routes[i].same_landmark_set(&routes[j]) {
                        ok = false;
                    }
                }
            }
            ok
        };
        if distinct {
            return (routes, sigs);
        }
    }
}

/// Candidate landmark-routes for a request, deduplicated at landmark level.
pub fn calibrated_candidates(
    world: &SimWorld,
    mining: &cp_mining::World,
    from: cp_roadnet::NodeId,
    to: cp_roadnet::NodeId,
    departure: cp_traj::TimeOfDay,
) -> Vec<LandmarkRoute> {
    let cands = mining.candidates(from, to, departure);
    let distinct = cp_mining::distinct_candidates(&cands);
    let mut out: Vec<LandmarkRoute> = Vec::new();
    for (p, _) in distinct {
        let lr =
            LandmarkRoute::from_path(&world.city.graph, &world.landmarks, &p, &world.calibration);
        if out.iter().all(|r| !r.same_landmark_set(&lr)) {
            out.push(lr);
        }
    }
    out
}
