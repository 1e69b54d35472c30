//! Property-based tests over the combinatorial core: whatever the inputs,
//! the paper's invariants must hold.

use cp_core::taskgen::{build_question_tree, SelectionAlgorithm, SelectionProblem};
use cp_core::{is_discriminative, LandmarkRoute};
use crowdplanner::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Random landmark routes: `n` routes over `m` landmarks, as membership
/// bitmasks (so set semantics are exact by construction).
fn routes_strategy(n: usize, m: usize) -> impl Strategy<Value = Vec<LandmarkRoute>> {
    proptest::collection::vec(proptest::collection::vec(any::<bool>(), m), n).prop_map(
        move |masks| {
            masks
                .into_iter()
                .map(|mask| {
                    LandmarkRoute::new(
                        mask.iter()
                            .enumerate()
                            .filter(|&(_, &b)| b)
                            .map(|(i, _)| LandmarkId(i as u32))
                            .collect(),
                    )
                })
                .collect()
        },
    )
}

fn sigs_strategy(m: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every algorithm's selection is discriminative, within the paper's
    /// size bounds, and never beats the exhaustive optimum.
    #[test]
    fn selection_invariants(
        routes in routes_strategy(4, 10),
        sigs in sigs_strategy(10),
    ) {
        let Ok(problem) = SelectionProblem::prepare(&routes, &sigs) else {
            // Identical/unseparable routes: correctly rejected.
            return Ok(());
        };
        let brute = SelectionAlgorithm::BruteForce.run(&problem, usize::MAX).unwrap();
        for alg in SelectionAlgorithm::ALL {
            let sel = alg.run(&problem, usize::MAX).unwrap();
            prop_assert!(is_discriminative(&routes, &sel.landmarks), "{}", alg.name());
            prop_assert!(sel.landmarks.len() >= problem.k_min());
            prop_assert!(sel.landmarks.len() <= problem.k_max());
            prop_assert!(sel.value <= brute.value + 1e-9, "{} beat the optimum", alg.name());
            // The reported value must match the landmarks reported.
            let recompute: f64 = sel
                .landmarks
                .iter()
                .map(|l| sigs[l.index()])
                .sum::<f64>() / sel.landmarks.len() as f64;
            prop_assert!((recompute - sel.value).abs() < 1e-9);
        }
        // GreedySelect's pruning is lossless: exact optimum.
        let greedy = SelectionAlgorithm::Greedy.run(&problem, usize::MAX).unwrap();
        prop_assert!((greedy.value - brute.value).abs() < 1e-9);
    }

    /// ID3 trees isolate every route under truthful answers, never ask a
    /// question twice on one path, and respect the library bound.
    #[test]
    fn question_tree_invariants(
        routes in routes_strategy(5, 9),
        sigs in sigs_strategy(9),
    ) {
        let Ok(problem) = SelectionProblem::prepare(&routes, &sigs) else {
            return Ok(());
        };
        let Ok(sel) = SelectionAlgorithm::Greedy.run(&problem, usize::MAX) else {
            return Ok(());
        };
        let questions: Vec<(LandmarkId, f64)> = sel
            .landmarks
            .iter()
            .map(|&l| (l, sigs[l.index()]))
            .collect();
        let weights = vec![1.0; routes.len()];
        let tree = build_question_tree(&routes, &weights, &questions);
        for (i, r) in routes.iter().enumerate() {
            let mut asked = Vec::new();
            let (got, path) = tree.walk_answers(|l| {
                asked.push(l);
                r.contains(l)
            });
            prop_assert_eq!(got, Some(i));
            prop_assert_eq!(&asked, &path);
            // No repeated questions on one walk.
            let mut dedup = asked.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), asked.len());
            prop_assert!(asked.len() <= questions.len());
        }
        let e = tree.expected_questions(&weights);
        prop_assert!(e <= questions.len() as f64 + 1e-9);
        prop_assert!(e >= (routes.len() as f64).log2() - 1e-9);
    }

    /// Discriminative-set monotonicity: supersets of discriminative sets
    /// stay discriminative; subsets of non-discriminative sets stay
    /// non-discriminative.
    #[test]
    fn discriminative_monotonicity(
        routes in routes_strategy(3, 8),
        mask in proptest::collection::vec(any::<bool>(), 8),
        extra in 0u32..8,
    ) {
        let selection: Vec<LandmarkId> = mask
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| LandmarkId(i as u32))
            .collect();
        if is_discriminative(&routes, &selection) {
            let mut bigger = selection.clone();
            if !bigger.contains(&LandmarkId(extra)) {
                bigger.push(LandmarkId(extra));
            }
            prop_assert!(is_discriminative(&routes, &bigger));
        } else if !selection.is_empty() {
            let smaller = &selection[..selection.len() - 1];
            // Removing an element can only lose separation power…
            // unless the removed element separated nothing, in which
            // case both verdicts agree. Either way the smaller set can
            // never *gain* discriminativeness:
            prop_assert!(!is_discriminative(&routes, smaller) || routes.len() < 2);
        }
    }
}

/// Two Small serving worlds, built once and shared by every proptest
/// case (world generation dominates the cost of a case).
fn shared_worlds() -> &'static [Arc<World>; 2] {
    static WORLDS: OnceLock<[Arc<World>; 2]> = OnceLock::new();
    WORLDS.get_or_init(|| {
        let build = |seed: u64| {
            let world = crowdplanner::sim::SimWorld::build(crowdplanner::sim::Scale::Small, seed)
                .expect("world");
            world.service_world()
        };
        [build(5), build(9)]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the request mix — including departures hugging the
    /// midnight bucket wrap — routes served through a multi-city
    /// `Platform` are identical to each registered city's standalone
    /// sequential `RouteService` under `strict_deterministic`.
    #[test]
    fn platform_matches_single_city_service(
        raw in proptest::collection::vec(
            (0u32..60, 0u32..59, 0.0f64..86_400.0, 0usize..2),
            1..32,
        ),
        near_midnight in proptest::collection::vec(
            (0u32..60, 0u32..59, -2.0f64..2.0, 0usize..2),
            0..8,
        ),
    ) {
        let worlds = shared_worlds();
        // Distinct endpoints by construction; fold the near-midnight
        // extras in (seconds offset around the day wrap).
        let requests: Vec<(usize, Request)> = raw
            .iter()
            .map(|&(a, b, t, c)| (c, a, b, t))
            .chain(near_midnight.iter().map(|&(a, b, dt, c)| {
                (c, a, b, (TimeOfDay::DAY + dt).rem_euclid(TimeOfDay::DAY))
            }))
            .map(|(c, a, b, t)| {
                let to = if b >= a { b + 1 } else { b };
                (c, Request::new(NodeId(a), NodeId(to), TimeOfDay::new(t)))
            })
            .collect();

        // Sequential per-city baselines.
        let cfg = ServiceConfig::strict_deterministic();
        let mut expected = Vec::with_capacity(requests.len());
        {
            let services: Vec<RouteService> = worlds
                .iter()
                .map(|w| RouteService::new(Arc::clone(w), cfg.clone()))
                .collect();
            let mut resolvers: Vec<MachineResolver> = worlds
                .iter()
                .map(|w| MachineResolver::new(w.graph_arc(), cfg.core.clone()))
                .collect();
            for &(c, req) in &requests {
                expected.push(
                    services[c]
                        .handle(req, &mut resolvers[c])
                        .expect("baseline")
                        .path,
                );
            }
        }

        // The same stream through one platform.
        let platform = ServingPlatform::start(PlatformConfig {
            city_weight: 1,
            workers: 3,
            queue_capacity: 64,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let ids: Vec<CityId> = worlds
            .iter()
            .map(|w| platform.register_city(Arc::clone(w), cfg.clone()))
            .collect();
        let batch: Vec<Request> = requests
            .iter()
            .map(|&(c, mut req)| {
                req.city = ids[c];
                req
            })
            .collect();
        let tickets: Vec<_> = batch
            .iter()
            .map(|&req| platform.submit_blocking(req).expect("admitted"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait().expect("platform request must succeed");
            prop_assert_eq!(
                &served.path,
                &expected[i],
                "request {} differs from its city's sequential baseline",
                i
            );
        }
        for id in ids {
            prop_assert!(platform.city_stats(id).expect("registered").is_consistent());
        }
        let snap = platform.stats();
        prop_assert!(snap.is_consistent());
        platform.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Path metrics and route agreement are well-behaved on arbitrary
    /// generated cities.
    #[test]
    fn routing_invariants(seed in 0u64..500) {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let g = &city.graph;
        let a = NodeId((seed % 60) as u32);
        let b = NodeId(((seed * 7 + 13) % 60) as u32);
        if a == b {
            return Ok(());
        }
        let short = cp_roadnet::routing::dijkstra_path(g, a, b, cp_roadnet::routing::distance_cost(g)).unwrap();
        let fast = cp_roadnet::routing::dijkstra_path(g, a, b, cp_roadnet::routing::time_cost(g)).unwrap();
        // Metric optimality cross-checks.
        prop_assert!(short.length(g) <= fast.length(g) + 1e-9);
        prop_assert!(fast.travel_time(g) <= short.travel_time(g) + 1e-9);
        // Jaccard similarity is symmetric and bounded.
        let j1 = edge_jaccard(g, &short, &fast);
        let j2 = edge_jaccard(g, &fast, &short);
        prop_assert!((j1 - j2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j1));
        prop_assert!((edge_jaccard(g, &short, &short) - 1.0).abs() < 1e-12);
    }

    /// Calibration produces duplicate-free sequences of nearby landmarks,
    /// monotone in the anchor radius.
    #[test]
    fn calibration_invariants(seed in 0u64..200) {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), seed);
        let g = &city.graph;
        let path = cp_roadnet::routing::dijkstra_path(
            g, NodeId(0), NodeId(59), cp_roadnet::routing::distance_cost(g)).unwrap();
        let narrow = calibrate_path(g, &lms, &path, &CalibrationParams { anchor_radius: 100.0 });
        let wide = calibrate_path(g, &lms, &path, &CalibrationParams { anchor_radius: 250.0 });
        for id in &narrow {
            prop_assert!(wide.contains(id), "narrow ⊆ wide");
        }
        let mut d = wide.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), wide.len(), "no duplicates");
    }
}
