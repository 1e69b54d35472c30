//! Unified candidate-route generation (paper §II-B1, "route generation
//! component": "two types of candidate routes, the one provided by web
//! services … and the one generated from historical trajectories by using
//! popular route mining algorithms, i.e., MPR, LDR and MFP").

use crate::ldr::{
    expert_habit_tree, expert_modal_exact, fastest_fallback_tree, local_driver_route,
    local_support, origin_local_indices, pick_expert, LdrParams,
};
use crate::mfp::{frequency_discounted_tree, most_frequent_path, MfpParams};
use crate::mpr::{most_popular_route, popularity_tree, MprParams};
use crate::transfer::TransferNetwork;
use crate::webservice::{FastestRouteService, ShortestRouteService};
use cp_roadnet::routing::DijkstraResult;
use cp_roadnet::{NodeId, Path, RoadGraph, RoadNetError};
use cp_traj::{DriverId, TimeOfDay, Trip};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Where a candidate route came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Distance-optimising web service.
    ShortestWebService,
    /// Time-optimising web service.
    FastestWebService,
    /// Most Popular Route miner.
    Mpr,
    /// Local-Driver Route miner.
    Ldr,
    /// Most Frequent Path miner.
    Mfp,
}

impl SourceKind {
    /// All sources in presentation order.
    pub const ALL: [SourceKind; 5] = [
        SourceKind::ShortestWebService,
        SourceKind::FastestWebService,
        SourceKind::Mpr,
        SourceKind::Ldr,
        SourceKind::Mfp,
    ];

    /// Human-readable name, used by the experiment harness tables.
    pub fn name(self) -> &'static str {
        match self {
            SourceKind::ShortestWebService => "WS-Shortest",
            SourceKind::FastestWebService => "WS-Fastest",
            SourceKind::Mpr => "MPR",
            SourceKind::Ldr => "LDR",
            SourceKind::Mfp => "MFP",
        }
    }
}

/// A candidate route and its provenance.
#[derive(Debug, Clone)]
pub struct CandidateRoute {
    /// Which provider produced it.
    pub source: SourceKind,
    /// The route.
    pub path: Path,
}

/// Generates the full candidate set for route requests, holding the
/// pre-built all-day transfer network so repeated requests are cheap.
pub struct CandidateGenerator<'a> {
    graph: &'a RoadGraph,
    trips: &'a [Trip],
    transfer: TransferNetwork,
    /// MPR parameters.
    pub mpr: MprParams,
    /// MFP parameters.
    pub mfp: MfpParams,
    /// LDR parameters.
    pub ldr: LdrParams,
}

impl<'a> CandidateGenerator<'a> {
    /// Builds the generator (aggregates the transfer network once).
    pub fn new(graph: &'a RoadGraph, trips: &'a [Trip]) -> Self {
        CandidateGenerator {
            graph,
            trips,
            transfer: TransferNetwork::build(graph, trips, None),
            mpr: MprParams::default(),
            mfp: MfpParams::default(),
            ldr: LdrParams::default(),
        }
    }

    /// The underlying all-day transfer network.
    pub fn transfer_network(&self) -> &TransferNetwork {
        &self.transfer
    }

    /// Historical-trip support near this OD pair (how much data backs the
    /// miners here) — consumed by route evaluation.
    pub fn od_support(&self, from: NodeId, to: NodeId) -> usize {
        local_support(self.graph, self.trips, from, to, &self.ldr)
    }

    /// Produces one candidate per available source. Sources that cannot
    /// route the request (disconnected etc.) are silently skipped; the
    /// result is empty only if no source can connect the pair.
    pub fn candidates(
        &self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
    ) -> Vec<CandidateRoute> {
        generate_candidates(
            self.graph,
            self.trips,
            &self.transfer,
            &self.mpr,
            &self.mfp,
            &self.ldr,
            from,
            to,
            departure,
        )
    }
}

/// Produces one candidate per available source from explicitly supplied
/// world parts — the ownership-free core behind
/// [`CandidateGenerator::candidates`], usable by callers that hold the
/// graph and trips behind shared pointers instead of borrows (the
/// serving layer's owned worlds). Sources that cannot route the request
/// are silently skipped; the result is empty only if no source can
/// connect the pair.
pub fn generate_candidates(
    graph: &RoadGraph,
    trips: &[Trip],
    transfer: &TransferNetwork,
    mpr: &MprParams,
    mfp: &MfpParams,
    ldr: &LdrParams,
    from: NodeId,
    to: NodeId,
    departure: TimeOfDay,
) -> Vec<CandidateRoute> {
    let mut out = Vec::with_capacity(SourceKind::ALL.len());
    if let Ok(p) = ShortestRouteService.route(graph, from, to) {
        out.push(CandidateRoute {
            source: SourceKind::ShortestWebService,
            path: p,
        });
    }
    if let Ok(p) = FastestRouteService.route(graph, from, to) {
        out.push(CandidateRoute {
            source: SourceKind::FastestWebService,
            path: p,
        });
    }
    if let Ok(p) = most_popular_route(graph, transfer, from, to, mpr) {
        out.push(CandidateRoute {
            source: SourceKind::Mpr,
            path: p,
        });
    }
    if let Ok(p) = local_driver_route(graph, trips, from, to, ldr) {
        out.push(CandidateRoute {
            source: SourceKind::Ldr,
            path: p,
        });
    }
    if let Ok(p) = most_frequent_path(graph, trips, from, to, departure, mfp) {
        out.push(CandidateRoute {
            source: SourceKind::Mfp,
            path: p,
        });
    }
    out
}

/// The time-invariant share of one origin's candidate mining, computed
/// once and reusable for **any** destination, **any** time bucket and
/// **any** later batch:
///
/// * the full MPR popularity expansion (all-day transfer network);
/// * the LDR origin-side locality scan (trip indices whose source is
///   near the origin), with stage-3 habit trees memoised per expert and
///   the stage-4 fastest-fallback tree memoised once (both lazily,
///   behind mutexes, so a shared `Arc<OriginArtifacts>` keeps absorbing
///   work from concurrent workers);
/// * per-period MFP expansions memoised by departure bits (the caller
///   supplies the period-filtered transfer network; the O(|trips|)
///   aggregation itself is shared *across* origins, not stored here).
///
/// All expansions are exhaustive ([`shortest_path_tree`] with no stop
/// target), trading a bounded amount of extra settle work for
/// destination-set independence — the property that lets one artifact
/// outlive the batch that built it. Every path reconstructed from these
/// trees is byte-identical to the per-request miners (single-target
/// searches are settle-order prefixes of exhaustive ones).
///
/// [`shortest_path_tree`]: cp_roadnet::routing::shortest_path_tree
pub struct OriginArtifacts {
    origin: NodeId,
    /// Exhaustive `-ln P(e)` popularity expansion.
    mpr_tree: DijkstraResult,
    /// Indices into the trip history whose source endpoint is local to
    /// the origin (order-preserving).
    origin_local: Vec<u32>,
    /// Lazily-built exhaustive habit trees, one per local expert.
    habit: Mutex<HashMap<DriverId, Arc<DijkstraResult>>>,
    /// Lazily-built exhaustive fastest-fallback tree.
    fastest: Mutex<Option<Arc<DijkstraResult>>>,
    /// Lazily-built exhaustive MFP expansions, keyed by departure bits.
    mfp_trees: Mutex<HashMap<u64, Arc<DijkstraResult>>>,
}

impl OriginArtifacts {
    /// Builds the eager artifacts (popularity tree + locality scan) for
    /// one origin; the per-expert and per-period trees fill in lazily as
    /// destinations are served.
    pub fn build(
        graph: &RoadGraph,
        trips: &[Trip],
        transfer: &TransferNetwork,
        mpr: &MprParams,
        ldr: &LdrParams,
        origin: NodeId,
    ) -> Self {
        OriginArtifacts {
            origin,
            mpr_tree: popularity_tree(graph, transfer, origin, mpr),
            origin_local: origin_local_indices(graph, trips, origin, ldr),
            habit: Mutex::new(HashMap::new()),
            fastest: Mutex::new(None),
            mfp_trees: Mutex::new(HashMap::new()),
        }
    }

    /// The origin these artifacts answer for.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    fn mpr(&self, graph: &RoadGraph, to: NodeId) -> Result<Path, RoadNetError> {
        let from = self.origin;
        if to == from {
            return Err(RoadNetError::NoPath { from, to });
        }
        self.mpr_tree
            .path_to(graph, to)
            .ok_or(RoadNetError::NoPath { from, to })
    }

    fn ldr(
        &self,
        graph: &RoadGraph,
        trips: &[Trip],
        params: &LdrParams,
        to: NodeId,
    ) -> Result<Path, RoadNetError> {
        let from = self.origin;
        if to == from {
            return Err(RoadNetError::NoPath { from, to });
        }
        // Destination-side half of the locality filter over the shared
        // origin-side subset (order-preserving ⇒ reproduces the
        // per-request `local_trips` exactly).
        let tp = graph.position(to);
        let r2 = params.endpoint_radius * params.endpoint_radius;
        let local: Vec<&Trip> = self
            .origin_local
            .iter()
            .map(|&i| &trips[i as usize])
            .filter(|t| graph.position(t.path.destination()).distance_sq(&tp) <= r2)
            .collect();
        let Some(expert) = pick_expert(&local) else {
            let tree = {
                let mut slot = self.fastest.lock().expect("artifact memo poisoned");
                Arc::clone(slot.get_or_insert_with(|| Arc::new(fastest_fallback_tree(graph, from))))
            };
            return tree
                .path_to(graph, to)
                .ok_or(RoadNetError::NoPath { from, to });
        };
        if let Some(path) = expert_modal_exact(graph, &local, expert, from, to) {
            return Ok(path);
        }
        let tree =
            {
                let mut memo = self.habit.lock().expect("artifact memo poisoned");
                Arc::clone(memo.entry(expert).or_insert_with(|| {
                    Arc::new(expert_habit_tree(graph, trips, expert, from, params))
                }))
            };
        tree.path_to(graph, to)
            .ok_or(RoadNetError::NoPath { from, to })
    }

    fn mfp(
        &self,
        graph: &RoadGraph,
        params: &MfpParams,
        period_tn: &TransferNetwork,
        departure: TimeOfDay,
        to: NodeId,
    ) -> Result<Path, RoadNetError> {
        let from = self.origin;
        if to == from {
            return Err(RoadNetError::NoPath { from, to });
        }
        let tree = {
            let mut memo = self.mfp_trees.lock().expect("artifact memo poisoned");
            Arc::clone(memo.entry(departure.0.to_bits()).or_insert_with(|| {
                Arc::new(frequency_discounted_tree(graph, period_tn, from, params))
            }))
        };
        tree.path_to(graph, to)
            .ok_or(RoadNetError::NoPath { from, to })
    }
}

impl std::fmt::Debug for OriginArtifacts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OriginArtifacts")
            .field("origin", &self.origin)
            .field("origin_local", &self.origin_local.len())
            .finish_non_exhaustive()
    }
}

/// Produces one query's candidate set from cached per-origin artifacts
/// plus the period-filtered transfer network for its departure —
/// byte-identical to [`generate_candidates`] over the same inputs
/// (same sources, same paths, same order).
///
/// Contract: `artifacts` was built for `(graph, trips, transfer, mpr,
/// ldr)` with `artifacts.origin() == the query origin`, and `period_tn`
/// is `TransferNetwork::build(graph, trips, Some((departure,
/// mfp.period_half_width)))` — the departure-bits memo inside the
/// artifact assumes the period network is a pure function of the
/// departure.
pub fn candidates_from_artifacts(
    graph: &RoadGraph,
    trips: &[Trip],
    mfp: &MfpParams,
    ldr: &LdrParams,
    artifacts: &OriginArtifacts,
    period_tn: &TransferNetwork,
    to: NodeId,
    departure: TimeOfDay,
) -> Vec<CandidateRoute> {
    let from = artifacts.origin;
    // Assembly order must match `generate_candidates` exactly.
    let mut out = Vec::with_capacity(SourceKind::ALL.len());
    if let Ok(p) = ShortestRouteService.route(graph, from, to) {
        out.push(CandidateRoute {
            source: SourceKind::ShortestWebService,
            path: p,
        });
    }
    if let Ok(p) = FastestRouteService.route(graph, from, to) {
        out.push(CandidateRoute {
            source: SourceKind::FastestWebService,
            path: p,
        });
    }
    if let Ok(p) = artifacts.mpr(graph, to) {
        out.push(CandidateRoute {
            source: SourceKind::Mpr,
            path: p,
        });
    }
    if let Ok(p) = artifacts.ldr(graph, trips, ldr, to) {
        out.push(CandidateRoute {
            source: SourceKind::Ldr,
            path: p,
        });
    }
    if let Ok(p) = artifacts.mfp(graph, mfp, period_tn, departure, to) {
        out.push(CandidateRoute {
            source: SourceKind::Mfp,
            path: p,
        });
    }
    out
}

/// Deduplicates candidates into distinct paths, remembering every source
/// that proposed each path. Order follows first appearance.
pub fn distinct_candidates(candidates: &[CandidateRoute]) -> Vec<(Path, Vec<SourceKind>)> {
    let mut out: Vec<(Path, Vec<SourceKind>)> = Vec::new();
    for c in candidates {
        if let Some(entry) = out.iter_mut().find(|(p, _)| *p == c.path) {
            entry.1.push(c.source);
        } else {
            out.push((c.path.clone(), vec![c.source]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    fn setup() -> (cp_roadnet::City, cp_traj::TripDataset) {
        let city = generate_city(&CityParams::small(), 41).unwrap();
        let ds = generate_trips(&city.graph, &TripGenParams::default(), 41).unwrap();
        (city, ds)
    }

    #[test]
    fn produces_all_five_sources() {
        let (city, ds) = setup();
        let gen = CandidateGenerator::new(&city.graph, &ds.trips);
        let cs = gen.candidates(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        assert_eq!(cs.len(), 5);
        let kinds: Vec<SourceKind> = cs.iter().map(|c| c.source).collect();
        for k in SourceKind::ALL {
            assert!(kinds.contains(&k), "missing {k:?}");
        }
        for c in &cs {
            assert_eq!(c.path.source(), NodeId(0));
            assert_eq!(c.path.destination(), NodeId(59));
        }
    }

    #[test]
    fn distinct_candidates_merges_agreeing_sources() {
        let (city, ds) = setup();
        let gen = CandidateGenerator::new(&city.graph, &ds.trips);
        let cs = gen.candidates(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let distinct = distinct_candidates(&cs);
        assert!(!distinct.is_empty());
        assert!(distinct.len() <= cs.len());
        let total: usize = distinct.iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, cs.len(), "every source accounted for exactly once");
        // No duplicate paths remain.
        for i in 0..distinct.len() {
            for j in i + 1..distinct.len() {
                assert_ne!(distinct[i].0, distinct[j].0);
            }
        }
    }

    #[test]
    fn shared_artifacts_answer_any_destination_byte_identically() {
        let (city, ds) = setup();
        let g = &city.graph;
        // One artifact per origin built up front, destinations and
        // departures chosen afterwards — the cross-batch reuse contract.
        // Covers a second origin, duplicate queries (answered from the
        // lazy memos the first query filled), the degenerate same-node
        // query, a driven OD (LDR's stage-2 replay), several departures
        // through one artifact (the `mfp_trees` departure-bits memo), and
        // an empty history (every LDR answer from the shared fastest tree).
        let deps = [7.0, 8.0, 9.0].map(TimeOfDay::from_hours);
        let driven = &ds.trips[0].path;
        for trips in [&ds.trips[..], &[]] {
            let gen = CandidateGenerator::new(g, trips);
            let periods = deps.map(|dep| {
                TransferNetwork::build(g, trips, Some((dep, gen.mfp.period_half_width)))
            });
            for (from, tos) in [
                (NodeId(0), &[59u32, 31, 59, 7, 44, 0][..]),
                (NodeId(12), &[47, 7, 47]),
                (driven.source(), &[driven.destination().0]),
            ] {
                let art = OriginArtifacts::build(
                    g,
                    trips,
                    gen.transfer_network(),
                    &gen.mpr,
                    &gen.ldr,
                    from,
                );
                for &b in tos {
                    for (&dep, period) in deps.iter().zip(&periods) {
                        let got = candidates_from_artifacts(
                            g,
                            trips,
                            &gen.mfp,
                            &gen.ldr,
                            &art,
                            period,
                            NodeId(b),
                            dep,
                        );
                        let want = gen.candidates(from, NodeId(b), dep);
                        assert_eq!(got.len(), want.len(), "{from:?} to {b} at {dep:?}");
                        for (x, y) in got.iter().zip(&want) {
                            assert_eq!(x.source, y.source, "{from:?} to {b} at {dep:?}");
                            assert_eq!(x.path, y.path, "{from:?} to {b} at {dep:?}");
                        }
                        // The same-node query yields no candidates on either path.
                        assert_eq!(got.is_empty(), NodeId(b) == from);
                    }
                }
            }
        }
    }

    #[test]
    fn od_support_is_monotone_in_radius() {
        let (city, ds) = setup();
        let mut gen = CandidateGenerator::new(&city.graph, &ds.trips);
        let narrow = {
            gen.ldr.endpoint_radius = 100.0;
            gen.od_support(NodeId(0), NodeId(59))
        };
        let wide = {
            gen.ldr.endpoint_radius = 2000.0;
            gen.od_support(NodeId(0), NodeId(59))
        };
        assert!(wide >= narrow);
    }

    #[test]
    fn source_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            SourceKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), SourceKind::ALL.len());
    }
}
