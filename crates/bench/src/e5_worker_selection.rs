//! E5 — worker-selection strategies: how accurate are the chosen workers?
//!
//! Paper hook: §IV selects "the most eligible workers to answer the
//! questions with high accuracy", and the rated-voting scheme avoids the
//! narrow-specialist bias of plain score sums. Expected shape:
//! random < sum-of-scores top-k < rated-voting top-k < omniscient oracle.

use crate::common::{calibrated_candidates, header, rng, row};
use cp_core::taskgen::{SelectionAlgorithm, SelectionProblem};
use cp_core::worker_selection::KnowledgeModel;
use cp_core::Config;
use cp_crowd::WorkerId;
use cp_roadnet::LandmarkId;
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use rand::RngExt;

/// Runs E5.
pub fn run(fast: bool) {
    let world = SimWorld::build(Scale::Medium, 13).expect("world");
    let platform = world.platform(200, 30, 13);
    let cfg = Config::default();
    let knowledge = KnowledgeModel::build(&platform, &world.landmarks, &cfg);
    let mining = world.service_world();
    let model = *platform.answer_model();
    let n_req = if fast { 20 } else { 80 };
    let requests = world.request_stream(n_req, 6, 53);
    let departure = TimeOfDay::from_hours(8.0);
    let k = cfg.k_workers;
    let mut r = rng(5);

    // Accumulated-score sum top-k (the biased baseline the paper
    // explicitly argues against in §IV-C).
    let sum_top_k = |qs: &[LandmarkId]| -> Vec<WorkerId> {
        let mut scored: Vec<(WorkerId, f64)> = platform
            .population()
            .ids()
            .map(|w| {
                let s: f64 = qs
                    .iter()
                    .map(|&l| knowledge.accumulated.get(w.index(), l.index()))
                    .sum();
                (w, s)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        scored.into_iter().take(k).map(|(w, _)| w).collect()
    };

    let mut totals: Vec<(f64, usize)> = vec![(0.0, 0); 4]; // random, sum, voting, oracle
    for &(a, b) in &requests {
        let routes = calibrated_candidates(&world, &mining, a, b, departure);
        if routes.len() < 2 {
            continue;
        }
        let Ok(problem) = SelectionProblem::prepare(&routes, &world.significance) else {
            continue;
        };
        let Ok(sel) = SelectionAlgorithm::Greedy.run(&problem, 2_000_000) else {
            continue;
        };
        let qs = sel.landmarks;

        let mean_acc = |workers: &[WorkerId]| -> f64 {
            let mut acc = 0.0;
            let mut n = 0;
            for &w in workers {
                for &l in &qs {
                    acc += model.accuracy(platform.population(), w, world.landmarks.get(l));
                    n += 1;
                }
            }
            acc / n.max(1) as f64
        };

        // Random k.
        let random: Vec<WorkerId> = (0..k)
            .map(|_| WorkerId(r.random_range(0..platform.population().len() as u32)))
            .collect();
        // Sum-score top-k.
        let sums = sum_top_k(&qs);
        // Rated-voting top-k (the paper's scheme).
        let voting = cp_core::worker_selection::select_workers(&platform, &knowledge, &qs, &cfg)
            .unwrap_or_default();
        // Oracle: truly best-k by latent accuracy.
        let oracle: Vec<WorkerId> = {
            let mut scored: Vec<(WorkerId, f64)> = platform
                .population()
                .ids()
                .map(|w| {
                    let s: f64 = qs
                        .iter()
                        .map(|&l| model.accuracy(platform.population(), w, world.landmarks.get(l)))
                        .sum();
                    (w, s)
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            scored.into_iter().take(k).map(|(w, _)| w).collect()
        };

        for (i, ws) in [&random, &sums, &voting, &oracle].iter().enumerate() {
            if !ws.is_empty() {
                totals[i].0 += mean_acc(ws);
                totals[i].1 += 1;
            }
        }
    }

    header(
        "E5: mean worker accuracy on the task's question landmarks",
        &["strategy", "tasks", "mean accuracy"],
    );
    let names = [
        "random k",
        "sum-score top-k",
        "rated voting top-k (paper)",
        "omniscient oracle",
    ];
    for (i, name) in names.iter().enumerate() {
        row(&[
            name.to_string(),
            format!("{}", totals[i].1),
            format!("{:.3}", totals[i].0 / totals[i].1.max(1) as f64),
        ]);
    }
}
