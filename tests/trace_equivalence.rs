//! Trace-equivalence property tests (the observability PR's acceptance
//! bar): span-level tracing is *pure observation*. Under
//! `strict_deterministic` geometry and the pure `MachineResolver`,
//! serving any hot-spot request stream with tracing at **every level**
//! (`Off`, `Counters`, `Sampled`) must produce **byte-identical routes
//! and truth-store contents** to untraced sequential serving — through
//! the fused `serve_coalesced` path and through the batching `Platform`
//! dispatcher at 1 and 4 workers. Companion unit tests pin down the
//! exact reconciliation between per-stage histogram counts and the
//! request counters on a sequential machine-resolved workload.

mod common;
use common::{assert_same_truths, requests_from, sequential_baseline, sim};

use cp_service::{
    BatchConfig, MachineResolver, Platform, PlatformConfig, RouteService, ServiceConfig, Stage,
    Ticket, TraceConfig,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The three instrumentation levels under test. `every: 1` samples every
/// call, so any non-empty workload must land traces in the ring.
fn trace_levels() -> [TraceConfig; 3] {
    [
        TraceConfig::Off,
        TraceConfig::counters(),
        TraceConfig::sampled(1, 64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `serve_coalesced` under every tracing level returns the untraced
    /// sequential routes and deposits the sequential truths; sampled
    /// tracing additionally lands complete traces in the ring.
    #[test]
    fn traced_coalesced_serving_is_byte_identical(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 1..32),
    ) {
        let requests = requests_from(&picks);
        if requests.is_empty() {
            return Ok(());
        }
        let (baseline, expected) = sequential_baseline(&requests);
        for level in trace_levels() {
            let sw = sim().service_world();
            let mut cfg = ServiceConfig::strict_deterministic();
            cfg.trace = level;
            let service = RouteService::new(Arc::clone(&sw), cfg.clone());
            let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
            let results = service.serve_coalesced(&requests, &mut resolver);
            prop_assert_eq!(results.len(), requests.len());
            for (i, res) in results.iter().enumerate() {
                let served = res.as_ref().expect("traced request must succeed");
                prop_assert_eq!(
                    &served.path, &expected[i],
                    "level {:?}, request {}", level, i
                );
            }
            let snap = service.stats();
            prop_assert!(snap.is_consistent(), "level {:?}: {:?}", level, snap);
            if level.enabled() {
                // Every resolution committed a truth and was attributed.
                let commits = snap.stages[Stage::Commit.index()].count;
                prop_assert_eq!(commits, snap.resolved, "level {:?}", level);
            } else {
                prop_assert!(snap.stages.iter().all(|s| s.count == 0));
            }
            if level.samples() {
                let traces = service.tracer().samples();
                prop_assert!(!traces.is_empty(), "every=1 must sample");
                for trace in &traces {
                    let attributed: Duration =
                        trace.spans.iter().map(|&(_, d)| d).sum();
                    prop_assert!(
                        attributed <= trace.total + Duration::from_millis(1),
                        "disjoint spans cannot exceed the sojourn: {:?}",
                        trace
                    );
                }
            }
            assert_same_truths(&baseline, &service, &requests)?;
        }
    }

    /// The batching platform dispatcher serves byte-identical routes at
    /// 1 and 4 workers under every tracing level, and the merged
    /// aggregate (stage histograms included) stays consistent.
    #[test]
    fn traced_platform_is_byte_identical(
        picks in proptest::collection::vec((0usize..2, 0usize..12, 0usize..3), 1..24),
    ) {
        let requests = requests_from(&picks);
        if requests.is_empty() {
            return Ok(());
        }
        let (_, expected) = sequential_baseline(&requests);
        let sw = sim().service_world();
        for workers in [1usize, 4] {
            for level in trace_levels() {
                let platform = Platform::start(PlatformConfig {
                    workers,
                    city_weight: 1,
                    queue_capacity: 64,
                    maintenance: None,
                    batch: Some(BatchConfig::adaptive(8, Duration::from_millis(2))),
                    durability: None,
                    chaos: None,
                });
                let mut cfg = ServiceConfig::strict_deterministic();
                cfg.trace = level;
                let id = platform.register_city(Arc::clone(&sw), cfg);
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
                        "workers {}, level {:?}, request {}", workers, level, i
                    );
                }
                let snap = platform.stats();
                prop_assert!(snap.is_consistent(), "{:?}", snap);
                prop_assert!(snap.aggregate.is_consistent(), "{:?}", snap.aggregate);
                if level.enabled() {
                    // Every dispatched job's queue wait was attributed;
                    // a truth hit served at submit and a duplicate
                    // attached at admission never queued.
                    prop_assert_eq!(
                        snap.aggregate.stages[Stage::QueueWait.index()].count,
                        snap.admitted - snap.served_inline - snap.deduped
                    );
                }
                let report = platform.trace_report();
                if level.samples() {
                    prop_assert!(report.total_traces() >= 1);
                    prop_assert!(report.to_json().contains("\"traces\""));
                }
                platform.shutdown();
            }
        }
    }
}

/// Per-stage histogram counts reconcile exactly with the request
/// counters on a sequential, machine-resolved, counter-traced workload:
/// one truth lookup per in-run dedup leader, one mined OD per truth miss,
/// one mining span per mined OD, one machine-resolve span and one
/// commit per resolution.
#[test]
fn counter_histograms_reconcile_with_request_counters() {
    let sw = sim().service_world();
    let mut cfg = ServiceConfig::strict_deterministic();
    cfg.trace = TraceConfig::counters();
    let service = RouteService::new(Arc::clone(&sw), cfg.clone());
    let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
    let requests = requests_from(&[(0, 0, 0), (0, 1, 0), (1, 2, 1), (0, 0, 0), (1, 3, 2)]);
    assert!(!requests.is_empty());
    for &req in &requests {
        service.handle(req, &mut resolver).expect("served");
    }
    let snap = service.stats();
    assert!(snap.is_consistent(), "{snap:?}");
    let stage = |s: Stage| snap.stages[s.index()].count;
    // Sequential handles: every request leads its own flight, and every
    // leader looks the truth store up once.
    let leaders = snap.requests;
    assert_eq!(stage(Stage::TruthLookup), leaders);
    assert_eq!(snap.cache_misses, leaders - snap.truth_hits);
    assert_eq!(stage(Stage::Mining), snap.cache_misses);
    assert_eq!(stage(Stage::ResolveMachine), snap.resolved);
    assert_eq!(stage(Stage::ResolveCrowd), 0);
    assert_eq!(stage(Stage::Commit), snap.resolved);
    // No platform queue in this sequential run.
    assert_eq!(stage(Stage::QueueWait), 0);
    // Stage totals never exceed the end-to-end service time they are
    // carved out of (mean × count reconstructs the total sojourn, ±1 ns
    // of integer-division rounding per request).
    let attributed: Duration = snap.stages.iter().map(|s| s.total).sum();
    let sojourn = snap.latency.mean.mul_f64(snap.latency.count as f64)
        + Duration::from_nanos(snap.latency.count);
    assert!(attributed <= sojourn, "{snap:?}");
}

/// An untraced service keeps every stage histogram empty (the disabled
/// path records nothing), while the same workload under counters fills
/// them — guarding against accidental always-on instrumentation.
#[test]
fn disabled_tracing_records_no_stages() {
    let sw = sim().service_world();
    let cfg = ServiceConfig::strict_deterministic();
    assert!(!cfg.trace.enabled(), "tracing must default to off");
    let service = RouteService::new(Arc::clone(&sw), cfg.clone());
    let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
    for &req in &requests_from(&[(0, 0, 0), (1, 1, 1)]) {
        service.handle(req, &mut resolver).expect("served");
    }
    let snap = service.stats();
    assert!(snap.requests >= 1);
    assert!(snap.stages.iter().all(|s| s.count == 0), "{snap:?}");
    assert!(snap.locks.iter().all(|l| l.waits == 0), "{snap:?}");
    assert!(service.tracer().samples().is_empty());
}
