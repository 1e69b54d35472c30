//! Survey designer: a deep dive into task generation.
//!
//! Shows, for one contested request: the candidate routes of each source,
//! the beneficial landmarks, the selections made by BruteForce / ILS /
//! GreedySelect, and the ID3 question tree with its expected question
//! count versus naive orderings.
//!
//! ```sh
//! cargo run --release --example survey_designer
//! ```

use cp_core::taskgen::{build_question_tree, QuestionNode, SelectionAlgorithm, SelectionProblem};
use crowdplanner::prelude::*;
use crowdplanner::sim::{Scale, SimWorld};

fn print_tree(node: &QuestionNode, indent: usize, world: &SimWorld) {
    let pad = "  ".repeat(indent);
    match node {
        QuestionNode::Leaf { route } => println!("{pad}-> candidate #{route}"),
        QuestionNode::Dead => println!("{pad}-> (no candidate matches)"),
        QuestionNode::Ask { landmark, yes, no } => {
            let lm = world.landmarks.get(*landmark);
            println!(
                "{pad}Q: do you drive past landmark {} ({:?}, significance {:.2})?",
                landmark.0,
                lm.category,
                world.significance[landmark.index()]
            );
            println!("{pad} yes:");
            print_tree(yes, indent + 1, world);
            println!("{pad} no:");
            print_tree(no, indent + 1, world);
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = SimWorld::build(Scale::Small, 23)?;
    let mining = world.service_world();

    // Find a request where the sources genuinely disagree.
    let mut chosen = None;
    for (a, b) in world.request_stream(200, 5, 77) {
        let cands = mining.candidates(a, b, TimeOfDay::from_hours(8.0));
        let distinct = distinct_candidates(&cands);
        if distinct.len() >= 3 {
            chosen = Some((a, b, cands, distinct));
            break;
        }
    }
    let (a, b, cands, distinct) = chosen.expect("some request must be contested");
    println!("request: node {} -> node {}\n", a.0, b.0);

    println!("=== candidates ===");
    for c in &cands {
        println!(
            "  {:<12} {:>5.0} m, {:>4.0} s, {} lights",
            c.source.name(),
            c.path.length(&world.city.graph),
            c.path.travel_time(&world.city.graph),
            c.path.traffic_lights(&world.city.graph)
        );
    }
    println!(
        "  -> {} distinct routes after deduplication",
        distinct.len()
    );

    // Calibrate to landmark-based routes.
    let mut routes = Vec::new();
    for (path, srcs) in &distinct {
        let lr = LandmarkRoute::from_path(
            &world.city.graph,
            &world.landmarks,
            path,
            &world.calibration,
        );
        println!(
            "  candidate #{} ({:?}): {} landmarks on route",
            routes.len(),
            srcs.iter().map(|s| s.name()).collect::<Vec<_>>(),
            lr.len()
        );
        routes.push(lr);
    }

    let problem = SelectionProblem::prepare(&routes, &world.significance)?;
    println!(
        "\n=== landmark selection ===\nbeneficial landmarks: {} | k in [{}, {}]",
        problem.items().len(),
        problem.k_min(),
        problem.k_max()
    );
    for alg in SelectionAlgorithm::ALL {
        let sel = alg.run(&problem, usize::MAX)?;
        println!(
            "  {:<12}: {:?} (mean significance {:.3})",
            alg.name(),
            sel.landmarks.iter().map(|l| l.0).collect::<Vec<_>>(),
            sel.value
        );
    }

    // Build and show the ID3 tree for the greedy selection.
    let sel = SelectionAlgorithm::Greedy.run(&problem, usize::MAX)?;
    let questions: Vec<(LandmarkId, f64)> = sel
        .landmarks
        .iter()
        .map(|&l| (l, world.significance[l.index()]))
        .collect();
    let weights = vec![1.0; routes.len()];
    let tree = build_question_tree(&routes, &weights, &questions);
    println!("\n=== ID3 question tree ===");
    print_tree(&tree.root, 0, &world);
    println!(
        "\nexpected questions (ID3)    : {:.2}",
        tree.expected_questions(&weights)
    );

    // Compare with naive orderings: a fixed significance-descending chain
    // asks every question regardless of answers.
    println!(
        "fixed-order upper bound     : {:.2} (ask all selected questions)",
        questions.len() as f64
    );
    println!(
        "information-theoretic floor : {:.2} (log2 of {} candidates)",
        (routes.len() as f64).log2(),
        routes.len()
    );
    Ok(())
}
