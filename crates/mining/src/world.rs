//! One city's mining world: the only way to mine candidates.
//!
//! [`World`] bundles a city's road graph, its historical trips and the
//! state derived from them once (the all-day [`TransferNetwork`] and the
//! [`TripIndex`]), under miner parameters no caller can change. It has
//! no lifetime parameters, so an `Arc<World>` is a self-contained,
//! `'static` handle that planners, serving workers and resolvers share.
//!
//! It mines on two paths with the same answer:
//! [`World::candidates`] mines one request from scratch and is the
//! reference; [`World::artifact_candidates`] serves from an origin's
//! [`OriginArtifacts`], built by [`World::origin_artifacts`], plus the
//! period network of [`World::period_network`]. Because the world owns
//! the networks and parameters both paths read, every query on one
//! artifact passes the same ones.

use crate::ldr::{local_driver_route, LdrParams, TripIndex};
use crate::mfp::{most_frequent_path, MfpParams};
use crate::mpr::{most_popular_route, MprParams};
use crate::source::{CandidateRoute, OriginArtifacts, SourceKind};
use crate::transfer::TransferNetwork;
use crate::webservice::{FastestRouteService, ShortestRouteService};
use cp_roadnet::{NodeId, Path, RoadGraph};
use cp_traj::{TimeOfDay, Trip};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One city's complete, self-owned mining world: road graph, trip
/// history and the mining state built from them.
///
/// Construction aggregates the all-day transfer network once (the
/// expensive part of candidate mining) and indexes the trips for the
/// serving path's LDR locality scan and habit counts. Every miner runs
/// under its default parameters.
pub struct World {
    graph: Arc<RoadGraph>,
    trips: Vec<Trip>,
    transfer: TransferNetwork,
    trip_index: Arc<TripIndex>,
    mpr: MprParams,
    mfp: MfpParams,
    ldr: LdrParams,
    /// Mining-state generation (see [`World::generation`]).
    generation: AtomicU64,
}

/// One candidate per source that found a path, in
/// [`SourceKind::ALL`] order.
fn assemble(paths: [Option<Path>; 5]) -> Vec<CandidateRoute> {
    SourceKind::ALL
        .into_iter()
        .zip(paths)
        .filter_map(|(source, path)| path.map(|path| CandidateRoute { source, path }))
        .collect()
}

impl World {
    /// Builds a world from owned parts (aggregates the transfer network
    /// and indexes the trips once).
    pub fn new(graph: RoadGraph, trips: Vec<Trip>) -> Self {
        let transfer = TransferNetwork::build(&graph, &trips, None);
        let trip_index = Arc::new(TripIndex::build(&graph, &trips));
        World {
            graph: Arc::new(graph),
            trips,
            transfer,
            trip_index,
            mpr: MprParams::default(),
            mfp: MfpParams::default(),
            ldr: LdrParams::default(),
            generation: AtomicU64::new(0),
        }
    }

    /// The mining-state generation: a version counter every derived
    /// mining cache (the serving layer's artifact cache, notably) tags
    /// its entries with. It starts at 0 and only moves via
    /// [`World::bump_generation`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advances the mining-state generation, so every cache tagged with
    /// an older one re-derives its artifacts and period networks instead
    /// of serving them. Nothing a world mines from can change today (its
    /// trips and miner parameters are fixed at construction), so only
    /// invalidation tests and the serving layer's generation-churn fault
    /// call it; a world that learns to ingest new trips must call it
    /// after each change. Returns the new generation.
    pub fn bump_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The road graph.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// A shared handle to the road graph (for resolvers that must own
    /// their world view, e.g. on a resident worker pool).
    pub fn graph_arc(&self) -> Arc<RoadGraph> {
        Arc::clone(&self.graph)
    }

    /// Produces one candidate route per available source, mining the
    /// request from scratch: the reference the artifact path must match.
    /// Sources that cannot route the request (disconnected, or `from ==
    /// to`) are skipped; the result is empty only if no source can
    /// connect the pair.
    pub fn candidates(
        &self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
    ) -> Vec<CandidateRoute> {
        let (graph, trips) = (&*self.graph, &self.trips[..]);
        assemble([
            ShortestRouteService.route(graph, from, to).ok(),
            FastestRouteService.route(graph, from, to).ok(),
            most_popular_route(graph, &self.transfer, from, to, &self.mpr).ok(),
            local_driver_route(graph, trips, from, to, &self.ldr).ok(),
            most_frequent_path(graph, trips, from, to, departure, &self.mfp).ok(),
        ])
    }

    /// Builds one origin's mining artifacts: the LDR locality scan over
    /// this world's trip index, plus MPR, MFP, habit and fastest searches
    /// that start on first use and settle only as far as the
    /// destinations served. The serving layer's artifact cache shares
    /// them across buckets and batches.
    pub fn origin_artifacts(&self, origin: NodeId) -> OriginArtifacts {
        OriginArtifacts::build(&self.graph, &self.trip_index, &self.ldr, origin)
    }

    /// Builds the period-filtered transfer network for `departure`
    /// under this world's MFP half-width — the departure-dependent,
    /// origin-independent half of candidate mining.
    pub fn period_network(&self, departure: TimeOfDay) -> TransferNetwork {
        TransferNetwork::build(
            &self.graph,
            &self.trips,
            Some((departure, self.mfp.period_half_width)),
        )
    }

    /// Produces one query's candidate set from an origin's `artifacts`,
    /// byte-identical to [`World::candidates`] for `(artifacts.origin(),
    /// to, departure)`: same sources, same paths, same order.
    ///
    /// `artifacts` must come from this world's
    /// [`World::origin_artifacts`] (checked), and `period` must be
    /// [`World::period_network`] for `departure`: the artifact's MFP
    /// search is memoised by departure, which assumes the period network
    /// is a pure function of it.
    pub fn artifact_candidates(
        &self,
        artifacts: &OriginArtifacts,
        period: &TransferNetwork,
        to: NodeId,
        departure: TimeOfDay,
    ) -> Vec<CandidateRoute> {
        assert!(
            artifacts.is_over(&self.trip_index),
            "artifacts were built by another world"
        );
        let (graph, from) = (&*self.graph, artifacts.origin());
        let shortest = ShortestRouteService.route(graph, from, to).ok();
        let fastest = FastestRouteService.route(graph, from, to).ok();
        if to == from {
            return assemble([shortest, fastest, None, None, None]);
        }
        assemble([
            shortest,
            fastest,
            artifacts.mpr(graph, &self.transfer, &self.mpr, to),
            artifacts.ldr(graph, &self.trips, &self.ldr, to),
            artifacts.mfp(graph, &self.mfp, period, departure, to),
        ])
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("nodes", &self.graph.node_count())
            .field("trips", &self.trips.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn small(seed: u64) -> World {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), seed).unwrap();
        World::new(city.graph, trips.trips)
    }

    /// Small and Medium worlds for four seeds each, plus Large ones in
    /// optimised builds. The Medium and Large trip histories have the
    /// simulation presets' sizes.
    fn worlds() -> &'static [(String, World)] {
        static WORLDS: OnceLock<Vec<(String, World)>> = OnceLock::new();
        WORLDS.get_or_init(|| {
            let medium = TripGenParams {
                drivers: 900,
                trips_per_driver: 20,
                heterogeneity: 0.12,
                ..TripGenParams::default()
            };
            let large = TripGenParams {
                drivers: 800,
                trips_per_driver: 12,
                ..TripGenParams::default()
            };
            let mut scales = vec![
                ("small", CityParams::small(), TripGenParams::default()),
                ("medium", CityParams::medium(), medium),
            ];
            if cfg!(not(debug_assertions)) {
                scales.push(("large", CityParams::large(), large));
            }
            let mut out = Vec::new();
            for (name, city_params, trip_params) in scales {
                for seed in [41, 7, 42, 1009] {
                    let city = generate_city(&city_params, seed).unwrap();
                    let trips = generate_trips(&city.graph, &trip_params, seed).unwrap();
                    out.push((
                        format!("{name} seed {seed}"),
                        World::new(city.graph, trips.trips),
                    ));
                }
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// On every world, one origin's artifacts answer a run of
        /// destinations and departures (repeats included) exactly like
        /// mining each query from scratch: same sources, paths and order.
        #[test]
        fn artifact_candidates_equal_world_candidates(
            origin in 0.0f64..1.0,
            queries in proptest::collection::vec((0.0f64..1.0, 0.0f64..24.0), 2..5),
        ) {
            for (name, world) in worlds() {
                let nodes = world.graph().node_count();
                let at = |f: f64| NodeId((f * nodes as f64) as u32);
                let from = at(origin);
                let art = world.origin_artifacts(from);
                // The first query comes back last, answered from the memos.
                for &(to, hours) in queries.iter().chain(&queries[..1]) {
                    let (to, dep) = (at(to), TimeOfDay::from_hours(hours));
                    let period = world.period_network(dep);
                    let view = |cs: Vec<CandidateRoute>| -> Vec<_> {
                        cs.into_iter().map(|c| (c.source, c.path)).collect()
                    };
                    prop_assert_eq!(
                        view(world.artifact_candidates(&art, &period, to, dep)),
                        view(world.candidates(from, to, dep)),
                        "{} from {:?} to {:?} at {}h", name, from, to, hours
                    );
                }
            }
        }
    }

    #[test]
    fn generation_starts_at_zero_and_bumps_monotonically() {
        let world = small(7);
        assert_eq!(world.generation(), 0);
        assert_eq!(world.bump_generation(), 1);
        assert_eq!(world.bump_generation(), 2);
        assert_eq!(world.generation(), 2);
    }

    #[test]
    fn world_artifacts_answer_like_world_candidates() {
        let world = small(7);
        let dep = TimeOfDay::from_hours(8.0);
        let art = world.origin_artifacts(NodeId(0));
        let period = world.period_network(dep);
        for b in [59u32, 31, 47] {
            let got = world.artifact_candidates(&art, &period, NodeId(b), dep);
            let want = world.candidates(NodeId(0), NodeId(b), dep);
            assert_eq!(got.len(), want.len());
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.source, y.source);
                assert_eq!(x.path, y.path);
            }
        }
    }

    #[test]
    #[should_panic(expected = "artifacts were built by another world")]
    fn artifacts_of_another_world_are_refused() {
        let (one, other) = (small(7), small(7));
        let art = other.origin_artifacts(NodeId(0));
        let dep = TimeOfDay::from_hours(8.0);
        one.artifact_candidates(&art, &one.period_network(dep), NodeId(59), dep);
    }
}
