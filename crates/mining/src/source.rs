//! Candidate routes and their sources (paper §II-B1, "route generation
//! component": "two types of candidate routes, the one provided by web
//! services … and the one generated from historical trajectories by using
//! popular route mining algorithms, i.e., MPR, LDR and MFP").
//!
//! [`World`](crate::World) mines them, either from scratch or from an
//! origin's cached [`OriginArtifacts`]: resumable searches plus the LDR
//! locality scan, which reads the world's [`TripIndex`] instead of the
//! whole trip history.

use crate::ldr::{expert_modal_exact, pick_expert, HabitTree, LdrParams, TripIndex};
use crate::mfp::{discounted_path, MfpParams};
use crate::mpr::{popularity_path, MprParams};
use crate::transfer::TransferNetwork;
use cp_roadnet::routing::{time_cost, ResumableTree};
use cp_roadnet::{NodeId, Path, RoadGraph};
use cp_traj::{DriverId, TimeOfDay, Trip};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// One origin's share of candidate mining, reusable for **any**
/// destination, **any** time bucket and **any** later batch:
///
/// * the LDR origin-side locality scan (trip indices whose source is
///   near the origin), the only work
///   [`World::origin_artifacts`](crate::World::origin_artifacts) does: a
///   walk over the [`TripIndex`] grid cells near the origin;
/// * the MPR popularity search over the all-day transfer network;
/// * one MFP search per departure, keyed by departure bits (the caller
///   supplies the period-filtered transfer network; the O(|trips|)
///   aggregation itself is shared *across* origins, not stored here);
/// * one LDR stage-3 habit search per local expert, and one stage-4
///   fastest-fallback search.
///
/// Every search is a [`ResumableTree`], created on first use, that
/// settles only as far as the destinations asked for so far and resumes
/// for the next one. A single-use search thus costs about half an
/// exhaustive one, and a reused one never settles a node twice. Every
/// path is byte-identical to the per-request miners, because each
/// resumption settles a prefix of the same settle order.
///
/// Costs are supplied when a search resumes, not stored: the world that
/// built an artifact answers every query on it
/// ([`World::artifact_candidates`](crate::World::artifact_candidates)),
/// so all of them pass that world's transfer networks and miner
/// parameters. Each search sits behind its own mutex, and the
/// per-expert and per-departure maps are never locked while a search
/// settles, so a shared `Arc<OriginArtifacts>` keeps absorbing work from
/// concurrent workers.
pub struct OriginArtifacts {
    origin: NodeId,
    /// The world's trip index: destination positions for LDR's
    /// destination-side filter, driver lists for its habit counts.
    index: Arc<TripIndex>,
    /// Indices into the trip history whose source endpoint is local to
    /// the origin (order-preserving).
    origin_local: Vec<u32>,
    /// The `-ln P(e)` popularity search.
    mpr: OnceLock<Mutex<ResumableTree>>,
    /// Habit searches, one per local expert.
    habit: Mutex<HashMap<DriverId, Arc<Mutex<HabitTree>>>>,
    /// The fastest-fallback search.
    fastest: OnceLock<Mutex<ResumableTree>>,
    /// MFP searches, keyed by departure bits.
    mfp: Mutex<HashMap<u64, Arc<Mutex<ResumableTree>>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("artifact search poisoned")
}

/// The search memoised under `key`. On a miss `make` runs outside the map
/// lock; if another thread inserted first, its search is kept (both
/// start with nothing settled).
fn memo<K: Eq + Hash, T>(
    map: &Mutex<HashMap<K, Arc<Mutex<T>>>>,
    key: K,
    make: impl FnOnce() -> T,
) -> Arc<Mutex<T>> {
    if let Some(search) = lock(map).get(&key) {
        return Arc::clone(search);
    }
    let made = Arc::new(Mutex::new(make()));
    Arc::clone(lock(map).entry(key).or_insert(made))
}

impl OriginArtifacts {
    /// Runs the locality scan for one origin over `index`, which must
    /// index the trips every later query passes. Every search starts on
    /// first use and settles only as far as the destinations served.
    pub(crate) fn build(
        graph: &RoadGraph,
        index: &Arc<TripIndex>,
        ldr: &LdrParams,
        origin: NodeId,
    ) -> Self {
        OriginArtifacts {
            origin,
            index: Arc::clone(index),
            origin_local: index.sources_near(&graph.position(origin), ldr.endpoint_radius),
            mpr: OnceLock::new(),
            habit: Mutex::new(HashMap::new()),
            fastest: OnceLock::new(),
            mfp: Mutex::new(HashMap::new()),
        }
    }

    /// The origin these artifacts answer for.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Whether these artifacts were built over `index`.
    pub(crate) fn is_over(&self, index: &Arc<TripIndex>) -> bool {
        Arc::ptr_eq(&self.index, index)
    }

    fn search<'a>(
        &self,
        slot: &'a OnceLock<Mutex<ResumableTree>>,
        graph: &RoadGraph,
    ) -> MutexGuard<'a, ResumableTree> {
        lock(slot.get_or_init(|| Mutex::new(ResumableTree::new(graph, self.origin))))
    }

    pub(crate) fn mpr(
        &self,
        graph: &RoadGraph,
        transfer: &TransferNetwork,
        params: &MprParams,
        to: NodeId,
    ) -> Option<Path> {
        popularity_path(
            graph,
            transfer,
            &mut self.search(&self.mpr, graph),
            to,
            params,
        )
    }

    pub(crate) fn ldr(
        &self,
        graph: &RoadGraph,
        trips: &[Trip],
        params: &LdrParams,
        to: NodeId,
    ) -> Option<Path> {
        // Destination-side half of the locality filter over the shared
        // origin-side subset (order-preserving ⇒ reproduces the
        // per-request `local_trips` exactly).
        let tp = graph.position(to);
        let r2 = params.endpoint_radius * params.endpoint_radius;
        let local: Vec<&Trip> = self
            .origin_local
            .iter()
            .filter(|&&i| self.index.destination(i).distance_sq(&tp) <= r2)
            .map(|&i| &trips[i as usize])
            .collect();
        let Some(expert) = pick_expert(&local) else {
            return self
                .search(&self.fastest, graph)
                .path_to(graph, to, time_cost(graph));
        };
        if let Some(path) = expert_modal_exact(graph, &local, expert, self.origin, to) {
            return Some(path);
        }
        let habit = memo(&self.habit, expert, || {
            HabitTree::new(graph, trips, &self.index, expert, self.origin)
        });
        let mut habit = lock(&habit);
        habit.path_to(graph, to, params)
    }

    pub(crate) fn mfp(
        &self,
        graph: &RoadGraph,
        params: &MfpParams,
        period_tn: &TransferNetwork,
        departure: TimeOfDay,
        to: NodeId,
    ) -> Option<Path> {
        let tree = memo(&self.mfp, departure.0.to_bits(), || {
            ResumableTree::new(graph, self.origin)
        });
        let mut tree = lock(&tree);
        discounted_path(graph, period_tn, &mut tree, to, params)
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
    use crate::World;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    fn setup() -> (cp_roadnet::City, cp_traj::TripDataset) {
        let city = generate_city(&CityParams::small(), 41).unwrap();
        let ds = generate_trips(&city.graph, &TripGenParams::default(), 41).unwrap();
        (city, ds)
    }

    fn world() -> World {
        let (city, ds) = setup();
        World::new(city.graph, ds.trips)
    }

    #[test]
    fn produces_all_five_sources() {
        let cs = world().candidates(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
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
        let cs = world().candidates(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
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
        // One artifact per origin built up front, destinations and
        // departures chosen afterwards — the cross-batch reuse contract.
        // Covers a second origin, duplicate queries (answered from the
        // lazy memos the first query filled), the degenerate same-node
        // query, a driven OD (LDR's stage-2 replay), several departures
        // through one artifact (the `mfp_trees` departure-bits memo), and
        // an empty history (every LDR answer from the shared fastest tree).
        let deps = [7.0, 8.0, 9.0].map(TimeOfDay::from_hours);
        let driven = &ds.trips[0].path;
        for trips in [ds.trips.clone(), Vec::new()] {
            let world = World::new(city.graph.clone(), trips);
            let periods = deps.map(|dep| world.period_network(dep));
            for (from, tos) in [
                (NodeId(0), &[59u32, 31, 59, 7, 44, 0][..]),
                (NodeId(12), &[47, 7, 47]),
                (driven.source(), &[driven.destination().0]),
            ] {
                let art = world.origin_artifacts(from);
                for &b in tos {
                    for (&dep, period) in deps.iter().zip(&periods) {
                        let got = world.artifact_candidates(&art, period, NodeId(b), dep);
                        let want = world.candidates(from, NodeId(b), dep);
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
    fn concurrent_resumes_of_one_shared_artifact_match_generate_candidates() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hasher;
        use std::sync::Barrier;
        let (city, ds) = setup();
        let driven = ds.trips[0].path.source();
        let world = World::new(city.graph, ds.trips);
        let g = world.graph();
        let deps = [7.0, 8.0, 12.5, 17.0].map(TimeOfDay::from_hours);
        let periods = deps.map(|dep| world.period_network(dep));
        for from in [NodeId(0), driven] {
            // Four workers share one artifact; each asks every
            // (destination, departure) pair in its own shuffled order, so
            // the searches are resumed by whichever worker gets there
            // first, in interleaved orders. The barrier releases them
            // together, so they contend from the first query on.
            let art = Arc::new(world.origin_artifacts(from));
            let start = Barrier::new(4);
            std::thread::scope(|s| {
                for worker in 0..4u64 {
                    let (art, world, periods, start) = (Arc::clone(&art), &world, &periods, &start);
                    s.spawn(move || {
                        let mut queries: Vec<(u32, usize)> = (0..g.node_count() as u32)
                            .flat_map(|b| (0..deps.len()).map(move |d| (b, d)))
                            .collect();
                        queries.sort_by_key(|q| {
                            let mut h = DefaultHasher::new();
                            (worker, q).hash(&mut h);
                            h.finish()
                        });
                        start.wait();
                        for (b, d) in queries {
                            let got =
                                world.artifact_candidates(&art, &periods[d], NodeId(b), deps[d]);
                            let want = world.candidates(from, NodeId(b), deps[d]);
                            let view = |cs: &[CandidateRoute]| -> Vec<_> {
                                cs.iter().map(|c| (c.source, c.path.clone())).collect()
                            };
                            assert_eq!(view(&got), view(&want), "{from:?} to {b} at {d}");
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn source_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            SourceKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), SourceKind::ALL.len());
    }
}
