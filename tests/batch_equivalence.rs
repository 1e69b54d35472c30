//! Batch-equivalence property tests (the PR's acceptance bar): under
//! `strict_deterministic` geometry and the pure `MachineResolver`,
//! serving a hot-spot request batch through the fused
//! `RouteService::serve_coalesced` path must produce **byte-identical
//! routes and truth-store contents** to serving the same requests one
//! at a time — across batch sizes 1..32, through the batching
//! `Platform` dispatcher at multiple worker counts, and — the PR-5
//! additions — with cross-bucket fusion, a **warm cross-batch
//! `MiningArtifactCache`** (including a mid-stream mining-state
//! generation bump) and the **adaptive** dispatch window.

mod common;
use common::{assert_same_truths, requests_from, sequential_baseline, sim};

use cp_service::{
    BatchConfig, MachineResolver, Platform, PlatformConfig, RouteService, ServiceConfig, Ticket,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One `serve_coalesced` call (any batch size in 1..32) returns the
    /// sequential routes and deposits the sequential truths.
    #[test]
    fn coalesced_batch_is_byte_identical_to_sequential(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 1..32),
    ) {
        let requests = requests_from(&picks);
        if requests.is_empty() {
            return Ok(());
        }
        let (baseline, expected) = sequential_baseline(&requests);

        let sw = sim().service_world();
        let cfg = ServiceConfig::strict_deterministic();
        let service = RouteService::new(Arc::clone(&sw), cfg.clone());
        let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
        let results = service.serve_coalesced(&requests, &mut resolver);
        prop_assert_eq!(results.len(), requests.len());
        for (i, res) in results.iter().enumerate() {
            let served = res.as_ref().expect("batched request must succeed");
            prop_assert_eq!(&served.path, &expected[i], "request {}", i);
        }
        let snap = service.stats();
        prop_assert!(snap.is_consistent(), "{:?}", snap);
        prop_assert_eq!(snap.requests, requests.len() as u64);
        assert_same_truths(&baseline, &service, &requests)?;
    }

    /// The batching platform dispatcher (runs dequeued by origin cell)
    /// serves byte-identical routes at 1 and 4 workers.
    #[test]
    fn batching_platform_is_byte_identical_to_sequential(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 1..32),
    ) {
        let requests = requests_from(&picks);
        if requests.is_empty() {
            return Ok(());
        }
        let (_, expected) = sequential_baseline(&requests);
        let sw = sim().service_world();
        for workers in [1usize, 4] {
            let platform = Platform::start(PlatformConfig {
                workers,
                city_weight: 1,
                queue_capacity: 64,
                maintenance: None,
                batch: Some(BatchConfig::adaptive(8, Duration::from_millis(2))),
                durability: None,
                chaos: None,
            });
            let id = platform.register_city(
                Arc::clone(&sw),
                ServiceConfig::strict_deterministic(),
            );
            let tickets: Vec<Ticket> = requests
                .iter()
                .map(|&r| {
                    let mut req = r;
                    req.city = id;
                    platform.submit_blocking(req).expect("admitted")
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let served = ticket.wait().expect("served");
                prop_assert_eq!(
                    &served.path, &expected[i],
                    "workers {}, request {}", workers, i
                );
            }
            let snap = platform.stats();
            prop_assert!(snap.is_consistent(), "{:?}", snap);
            // Every request was dispatched, or — a duplicate whose truth
            // was stored before it was submitted — served at submit, or —
            // a duplicate of a queued or running request — attached to it.
            prop_assert_eq!(
                snap.batched_requests + snap.unbatched_requests + snap.served_inline + snap.deduped,
                requests.len() as u64
            );
            prop_assert!(snap.aggregate.is_consistent(), "{:?}", snap.aggregate);
            platform.shutdown();
        }
    }

    /// The weighted two-city scheduler preserves byte-identity: two
    /// cities over the same world with uneven DRR weights (3:1), the
    /// same request stream submitted to both interleaved — every city's
    /// routes and truth store must match the sequential baseline
    /// exactly. DRR reorders dispatch *across* cities, never the
    /// within-city semantics.
    #[test]
    fn weighted_two_city_platform_is_byte_identical_to_sequential(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 1..32),
    ) {
        let requests = requests_from(&picks);
        if requests.is_empty() {
            return Ok(());
        }
        let (baseline, expected) = sequential_baseline(&requests);
        let sw = sim().service_world();
        for workers in [1usize, 4] {
            let platform = Platform::start(PlatformConfig {
                workers,
                city_weight: 1,
                queue_capacity: 128,
                maintenance: None,
                batch: Some(BatchConfig::adaptive(8, Duration::from_millis(2))),
                durability: None,
                chaos: None,
            });
            let heavy = platform.register_city(
                Arc::clone(&sw),
                ServiceConfig::strict_deterministic(),
            );
            let light = platform.register_city(
                Arc::clone(&sw),
                ServiceConfig::strict_deterministic(),
            );
            prop_assert!(platform.set_city_weight(heavy, 3));
            // The same stream into both cities, interleaved one by one.
            let mut heavy_tickets = Vec::new();
            let mut light_tickets = Vec::new();
            for &r in &requests {
                for (city, tickets) in
                    [(heavy, &mut heavy_tickets), (light, &mut light_tickets)]
                {
                    let mut req = r;
                    req.city = city;
                    tickets.push(platform.submit_blocking(req).expect("admitted"));
                }
            }
            for (city, tickets) in [(heavy, heavy_tickets), (light, light_tickets)] {
                for (i, ticket) in tickets.into_iter().enumerate() {
                    let served = ticket.wait().expect("served");
                    prop_assert_eq!(
                        &served.path, &expected[i],
                        "city {}, workers {}, request {}", city, workers, i
                    );
                }
            }
            let snap = platform.stats();
            prop_assert!(snap.is_consistent(), "{:?}", snap);
            prop_assert_eq!(snap.per_city.len(), 2);
            prop_assert_eq!(snap.per_city[heavy.index()].weight, 3);
            prop_assert_eq!(snap.per_city[light.index()].weight, 1);
            for row in &snap.per_city {
                prop_assert_eq!(row.admitted, requests.len() as u64);
                prop_assert_eq!(row.rejected_busy, 0);
            }
            // Each city's truth store is entry-wise identical to the
            // sequential baseline, weights notwithstanding.
            assert_same_truths(
                &baseline,
                &platform.city_service(heavy).expect("registered"),
                &requests,
            )?;
            assert_same_truths(
                &baseline,
                &platform.city_service(light).expect("registered"),
                &requests,
            )?;
            platform.shutdown();
        }
    }

    /// Cross-bucket fusion over a warm cross-batch artifact cache stays
    /// byte-identical to sequential serving: the request stream is split
    /// into several coalesced batches served on ONE service (so later
    /// batches hit artifacts earlier batches cached), with a mining-
    /// state generation bump between two of them (cached artifacts must
    /// invalidate, not corrupt).
    #[test]
    fn warm_artifact_cache_with_generation_bump_is_byte_identical(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 2..32),
        split in 1usize..31,
        bump_first in any::<bool>(),
    ) {
        let requests = requests_from(&picks);
        if requests.len() < 2 {
            return Ok(());
        }
        let (baseline, expected) = sequential_baseline(&requests);

        let sw = sim().service_world();
        let cfg = ServiceConfig::strict_deterministic();
        let service = RouteService::new(Arc::clone(&sw), cfg.clone());
        let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
        let cut = split % (requests.len() - 1) + 1;
        let (first, second) = requests.split_at(cut);
        let mut results = service.serve_coalesced(first, &mut resolver);
        if bump_first {
            // Invalidate every cached artifact mid-stream; the second
            // batch must rebuild (and still match the baseline).
            sw.bump_generation();
        }
        results.extend(service.serve_coalesced(second, &mut resolver));
        prop_assert_eq!(results.len(), requests.len());
        for (i, res) in results.iter().enumerate() {
            let served = res.as_ref().expect("batched request must succeed");
            prop_assert_eq!(&served.path, &expected[i], "request {}", i);
        }
        let snap = service.stats();
        prop_assert!(snap.is_consistent(), "{:?}", snap);
        prop_assert!(
            snap.artifact_hits + snap.artifact_misses >= 1,
            "mining must flow through the artifact cache: {:?}", snap
        );
        if bump_first {
            prop_assert_eq!(snap.artifact_hits, 0,
                "a bumped generation admits no stale hit");
        }
        assert_same_truths(&baseline, &service, &requests)?;
    }

    /// The adaptive dispatcher (cell-keyed runs spanning time buckets,
    /// controller moving the window) serves byte-identical routes at 1
    /// and 4 workers.
    #[test]
    fn adaptive_platform_is_byte_identical_to_sequential(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 1..32),
    ) {
        let requests = requests_from(&picks);
        if requests.is_empty() {
            return Ok(());
        }
        let (_, expected) = sequential_baseline(&requests);
        let sw = sim().service_world();
        for workers in [1usize, 4] {
            let platform = Platform::start(PlatformConfig {
                workers,
                city_weight: 1,
                queue_capacity: 64,
                maintenance: None,
                batch: Some(BatchConfig::adaptive(8, Duration::from_millis(2))),
                durability: None,
                chaos: None,
            });
            let id = platform.register_city(
                Arc::clone(&sw),
                ServiceConfig::strict_deterministic(),
            );
            let tickets: Vec<Ticket> = requests
                .iter()
                .map(|&r| {
                    let mut req = r;
                    req.city = id;
                    platform.submit_blocking(req).expect("admitted")
                })
                .collect();
            for (i, ticket) in tickets.into_iter().enumerate() {
                let served = ticket.wait().expect("served");
                prop_assert_eq!(
                    &served.path, &expected[i],
                    "workers {}, request {}", workers, i
                );
            }
            let snap = platform.stats();
            prop_assert!(snap.is_consistent(), "{:?}", snap);
            prop_assert!(snap.aggregate.is_consistent(), "{:?}", snap.aggregate);
            platform.shutdown();
        }
    }
}
