//! E4 — number of questions asked: ID3 ordering vs naive orderings.
//!
//! Paper hook: §III-C orders questions with ID3 "so that the expected
//! number of issued questions is as small as possible". Expected shape:
//! ID3 ≤ significance-order adaptive ≤ fixed order (= library size), with
//! the gap widening as the candidate count grows.

use crate::common::{calibrated_candidates, header, row};
use cp_core::taskgen::{build_question_tree, QuestionNode, SelectionAlgorithm, SelectionProblem};
use cp_core::LandmarkRoute;
use cp_roadnet::LandmarkId;
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};

/// Adaptive tree that always asks the highest-significance splitting
/// question (no information-gain reasoning) — the naive baseline.
fn sig_order_expected(
    routes: &[LandmarkRoute],
    questions: &[(LandmarkId, f64)],
    subset: &[usize],
    depth: f64,
) -> f64 {
    if subset.len() <= 1 {
        return depth * subset.len() as f64;
    }
    // Questions arrive significance-sorted; take the first that splits.
    for (qi, &(l, _)) in questions.iter().enumerate() {
        let yes: Vec<usize> = subset
            .iter()
            .copied()
            .filter(|&i| routes[i].contains(l))
            .collect();
        if yes.is_empty() || yes.len() == subset.len() {
            continue;
        }
        let no: Vec<usize> = subset
            .iter()
            .copied()
            .filter(|&i| !routes[i].contains(l))
            .collect();
        let rest: Vec<(LandmarkId, f64)> = questions
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != qi)
            .map(|(_, &q)| q)
            .collect();
        return sig_order_expected(routes, &rest, &yes, depth + 1.0)
            + sig_order_expected(routes, &rest, &no, depth + 1.0);
    }
    depth * subset.len() as f64
}

fn max_depth_of(n: &QuestionNode) -> usize {
    match n {
        QuestionNode::Ask { yes, no, .. } => 1 + max_depth_of(yes).max(max_depth_of(no)),
        _ => 0,
    }
}

/// Runs E4.
pub fn run(fast: bool) {
    let world = SimWorld::build(Scale::Medium, 17).expect("world");
    let mining = world.service_world();
    let n_req = if fast { 40 } else { 200 };
    let requests = world.request_stream(n_req, 6, 47);
    let departure = TimeOfDay::from_hours(8.0);

    // Bucket tasks by candidate count n.
    let mut by_n: std::collections::BTreeMap<usize, Vec<(f64, f64, f64, usize)>> =
        std::collections::BTreeMap::new();
    for &(a, b) in &requests {
        let routes = calibrated_candidates(&world, &mining, a, b, departure);
        let n = routes.len();
        if n < 2 {
            continue;
        }
        let Ok(problem) = SelectionProblem::prepare(&routes, &world.significance) else {
            continue;
        };
        let Ok(sel) = SelectionAlgorithm::Greedy.run(&problem, 2_000_000) else {
            continue;
        };
        let questions: Vec<(LandmarkId, f64)> = sel
            .landmarks
            .iter()
            .map(|&l| (l, world.significance[l.index()]))
            .collect();
        let weights = vec![1.0; n];
        let tree = build_question_tree(&routes, &weights, &questions);
        let id3 = tree.expected_questions(&weights);
        let all: Vec<usize> = (0..n).collect();
        let sig = sig_order_expected(&routes, &questions, &all, 0.0) / n as f64;
        let fixed = questions.len() as f64;
        by_n.entry(n)
            .or_default()
            .push((id3, sig, fixed, max_depth_of(&tree.root)));
    }

    header(
        "E4: expected questions per task (uniform route prior)",
        &[
            "n candidates",
            "tasks",
            "ID3",
            "significance-order",
            "fixed order",
            "ID3 worst case",
        ],
    );
    for (n, v) in by_n {
        let m = v.len() as f64;
        row(&[
            format!("{n}"),
            format!("{}", v.len()),
            format!("{:.2}", v.iter().map(|x| x.0).sum::<f64>() / m),
            format!("{:.2}", v.iter().map(|x| x.1).sum::<f64>() / m),
            format!("{:.2}", v.iter().map(|x| x.2).sum::<f64>() / m),
            format!("{:.2}", v.iter().map(|x| x.3 as f64).sum::<f64>() / m),
        ]);
    }
}
