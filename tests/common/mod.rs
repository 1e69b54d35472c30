//! Helpers shared by the integration suites (each test binary uses a
//! subset, hence the blanket `dead_code` allowance).
#![allow(dead_code)]

use cp_core::Config;
use cp_roadnet::NodeId;
use cp_service::{CityId, MachineResolver, Request, RouteService, ServiceConfig};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One shared world: building the road network, trips and mining state
/// dominates test time, and every test treats it as read-only.
pub fn sim() -> &'static SimWorld {
    static SIM: OnceLock<SimWorld> = OnceLock::new();
    SIM.get_or_init(|| SimWorld::build(Scale::Small, 5).expect("world"))
}

/// A config that pushes every request through the crowd: no agreement
/// shortcut, no confidence shortcut, no reuse.
pub fn crowd_forcing_config() -> Config {
    let mut cfg = Config::default();
    cfg.agreement_similarity = 1.0;
    cfg.agreement_quorum = 1.0;
    cfg.eta_confidence = 1.0;
    cfg.reuse_radius = 0.0;
    cfg.reuse_time_window = 0.0;
    cfg
}

/// A store's contents as comparable bytes, in sequence order.
pub fn truth_sig(svc: &RouteService) -> Vec<(u64, u32, u32, u64, u64, Vec<u32>)> {
    svc.truths()
        .export()
        .into_iter()
        .map(|(seq, e)| {
            (
                seq,
                e.from.0,
                e.to.0,
                e.departure.0.to_bits(),
                e.confidence.to_bits(),
                e.path.edges().iter().map(|id| id.0).collect(),
            )
        })
        .collect()
}

/// Materialises a pick list into a hot-spot request stream: two shared
/// origins (so origin-cell groups actually form), a destination pool,
/// and a few departure buckets; duplicates are likely by construction.
pub fn requests_from(picks: &[(usize, usize, usize)]) -> Vec<Request> {
    let sim = sim();
    let origins: Vec<_> = sim
        .request_stream(2, 2, 777)
        .into_iter()
        .map(|(from, _)| from)
        .collect();
    let dests: Vec<_> = sim
        .request_stream(12, 2, 778)
        .into_iter()
        .map(|(_, to)| to)
        .collect();
    picks
        .iter()
        .map(|&(o, d, h)| {
            Request::new(
                origins[o % origins.len()],
                dests[d % dests.len()],
                TimeOfDay::from_hours(7.0 + (h % 3) as f64),
            )
        })
        .filter(|r| r.from != r.to)
        .collect()
}

/// An endless stream of distinct keys on `city`, each a truth miss the
/// first time a strict-deterministic city serves it: every ordered pair
/// of distinct nodes departing in bucket `first_bucket`, then
/// `first_bucket + 2`, and so on. Streams started on buckets of
/// different parity share no key.
pub fn fresh_misses(city: CityId, first_bucket: u32) -> impl Iterator<Item = Request> {
    let n = sim().graph_arc().node_count() as u32;
    let cfg = ServiceConfig::strict_deterministic();
    let (width, buckets) = (
        cfg.time_bucket_s,
        (TimeOfDay::DAY / cfg.time_bucket_s) as u32,
    );
    (first_bucket..buckets).step_by(2).flat_map(move |bucket| {
        let departure = TimeOfDay::new((bucket as f64 + 0.5) * width);
        (0..n).flat_map(move |from| {
            (0..n)
                .filter(move |&to| to != from)
                .map(move |to| Request::to_city(city, NodeId(from), NodeId(to), departure))
        })
    })
}

/// Serves `requests` one at a time on a fresh strict service and
/// returns (service, per-request paths).
pub fn sequential_baseline(requests: &[Request]) -> (RouteService, Vec<cp_roadnet::Path>) {
    let sw = sim().service_world();
    let cfg = ServiceConfig::strict_deterministic();
    let service = RouteService::new(Arc::clone(&sw), cfg.clone());
    let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
    let paths = requests
        .iter()
        .map(|&r| service.handle(r, &mut resolver).expect("baseline").path)
        .collect();
    (service, paths)
}

/// Asserts both services hold byte-identical truth-store contents for
/// the given request set: same entry count, and the entry every request
/// resolves to (exact key under strict geometry) carries the same path.
pub fn assert_same_truths(
    a: &RouteService,
    b: &RouteService,
    requests: &[Request],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.truths().len(), b.truths().len());
    let graph = a.world().graph();
    let core = &a.config().core;
    for req in requests {
        let dep = a.canonical_departure(req);
        let ea = a.truths().lookup(graph, req.from, req.to, dep, core);
        let eb = b.truths().lookup(graph, req.from, req.to, dep, core);
        match (ea, eb) {
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.path, y.path);
                prop_assert_eq!(x.from, y.from);
                prop_assert_eq!(x.to, y.to);
            }
            (None, None) => {}
            (x, y) => prop_assert!(
                false,
                "truth presence differs: {} vs {}",
                x.is_some(),
                y.is_some()
            ),
        }
    }
    Ok(())
}
