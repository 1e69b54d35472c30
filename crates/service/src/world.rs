//! Owned serving worlds and city identities.
//!
//! The paper's pipeline borrows its world (`&RoadGraph`, `&[Trip]`),
//! which pins every service object to one stack frame. A resident
//! multi-city platform needs worlds it can *own* and share: [`World`]
//! bundles a city's road graph, its historical trips and the pre-built
//! mining state (transfer network + miner parameters) behind `Arc`s, so
//! an `Arc<World>` is a self-contained, `'static`, cheaply clonable
//! handle that worker threads, services and resolvers can all hold
//! simultaneously.
//!
//! [`CityId`] names a world registered on a
//! [`Platform`](crate::Platform); requests carry it so the platform can
//! route each one to the right per-city service instance.

#[cfg(doc)]
use cp_mining::CandidateGenerator;
use cp_mining::{
    generate_candidates, CandidateRoute, LdrParams, MfpParams, MprParams, OriginArtifacts,
    TransferNetwork, TripIndex,
};
use cp_roadnet::{NodeId, RoadGraph};
use cp_traj::{TimeOfDay, Trip};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identity of a city registered on a [`Platform`](crate::Platform).
///
/// Ids are dense registration indexes (`0, 1, 2, …` in registration
/// order). A standalone [`RouteService`](crate::RouteService) serves
/// whatever requests it is handed and never inspects the city field;
/// [`CityId::LOCAL`] is the conventional value for single-city use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CityId(pub u32);

impl CityId {
    /// The conventional id for single-city (platform-free) requests.
    pub const LOCAL: CityId = CityId(0);

    /// The dense registration index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "city#{}", self.0)
    }
}

/// One city's complete, self-owned serving world: road graph, trip
/// history and pre-built candidate-mining state.
///
/// Construction aggregates the all-day transfer network once (the
/// expensive part of candidate mining), exactly like
/// [`CandidateGenerator::new`], and indexes the trips for the serving
/// path's LDR locality scan and habit counts; afterwards
/// [`World::candidates`] is a pure function of the request. `World` has
/// no lifetime parameters — wrap it in an `Arc` and share it freely.
pub struct World {
    graph: Arc<RoadGraph>,
    trips: Arc<Vec<Trip>>,
    transfer: Arc<TransferNetwork>,
    trip_index: Arc<TripIndex>,
    /// MPR parameters.
    pub mpr: MprParams,
    /// MFP parameters.
    pub mfp: MfpParams,
    /// LDR parameters.
    pub ldr: LdrParams,
    /// Mining-state generation (see [`World::generation`]).
    generation: AtomicU64,
}

impl World {
    /// Builds a world from owned parts (aggregates the transfer network
    /// and indexes the trips once).
    pub fn new(graph: RoadGraph, trips: Vec<Trip>) -> Self {
        Self::from_arcs(Arc::new(graph), Arc::new(trips))
    }

    /// Builds a world from already-shared parts without cloning them.
    pub fn from_arcs(graph: Arc<RoadGraph>, trips: Arc<Vec<Trip>>) -> Self {
        let transfer = Arc::new(TransferNetwork::build(&graph, &trips, None));
        let trip_index = Arc::new(TripIndex::build(&graph, &trips));
        World {
            graph,
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
    /// mining cache (the serving layer's
    /// [`MiningArtifactCache`](crate::MiningArtifactCache), notably)
    /// tags its entries with. It starts at 0 and only moves via
    /// [`World::bump_generation`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Advances the mining-state generation, invalidating every cached
    /// artifact tagged with an older one. Call after mutating anything
    /// candidate mining reads (miner parameters, or — once worlds learn
    /// to ingest new trips — the trip history / transfer network), so
    /// caches re-derive instead of serving stale expansions. Returns the
    /// new generation.
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

    /// The historical trips.
    pub fn trips(&self) -> &[Trip] {
        &self.trips
    }

    /// A shared handle to the historical trips (for owned planners that
    /// must hold their world view, e.g. on a resident worker pool).
    pub fn trips_arc(&self) -> Arc<Vec<Trip>> {
        Arc::clone(&self.trips)
    }

    /// The pre-built all-day transfer network.
    pub fn transfer_network(&self) -> &TransferNetwork {
        &self.transfer
    }

    /// A shared handle to the pre-built transfer network, so per-worker
    /// crowd planners reuse this world's mining state instead of
    /// re-aggregating it.
    pub fn transfer_arc(&self) -> Arc<TransferNetwork> {
        Arc::clone(&self.transfer)
    }

    /// Produces one candidate route per available source — identical
    /// output to [`CandidateGenerator::candidates`] over the same graph,
    /// trips and parameters.
    pub fn candidates(
        &self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
    ) -> Vec<CandidateRoute> {
        generate_candidates(
            &self.graph,
            &self.trips,
            &self.transfer,
            &self.mpr,
            &self.mfp,
            &self.ldr,
            from,
            to,
            departure,
        )
    }

    /// Builds the time-invariant mining artifacts for one origin: the
    /// LDR locality scan over this world's trip index, plus MPR, MFP,
    /// habit and fastest searches that
    /// start on first use and settle only as far as the destinations
    /// served. The serving layer's artifact cache shares them across
    /// buckets and batches.
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
    use cp_mining::CandidateGenerator;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    #[test]
    fn world_candidates_match_borrowed_generator() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let generator = CandidateGenerator::new(&city.graph, &trips.trips);
        let world = World::new(city.graph.clone(), trips.trips.clone());
        let dep = TimeOfDay::from_hours(8.0);
        for (a, b) in [(0u32, 59u32), (5, 54), (12, 47)] {
            let borrowed = generator.candidates(NodeId(a), NodeId(b), dep);
            let owned = world.candidates(NodeId(a), NodeId(b), dep);
            assert_eq!(borrowed.len(), owned.len());
            for (x, y) in borrowed.iter().zip(&owned) {
                assert_eq!(x.source, y.source);
                assert_eq!(x.path, y.path);
            }
        }
    }

    #[test]
    fn generation_starts_at_zero_and_bumps_monotonically() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let world = World::new(city.graph, trips.trips);
        assert_eq!(world.generation(), 0);
        assert_eq!(world.bump_generation(), 1);
        assert_eq!(world.bump_generation(), 2);
        assert_eq!(world.generation(), 2);
    }

    #[test]
    fn world_artifacts_answer_like_world_candidates() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let world = World::new(city.graph, trips.trips);
        let dep = TimeOfDay::from_hours(8.0);
        let art = world.origin_artifacts(NodeId(0));
        let period = world.period_network(dep);
        for b in [59u32, 31, 47] {
            let got = cp_mining::candidates_from_artifacts(
                world.graph(),
                world.trips(),
                world.transfer_network(),
                &world.mpr,
                &world.mfp,
                &world.ldr,
                &art,
                &period,
                NodeId(b),
                dep,
            );
            let want = world.candidates(NodeId(0), NodeId(b), dep);
            assert_eq!(got.len(), want.len());
            for (x, y) in got.iter().zip(&want) {
                assert_eq!(x.source, y.source);
                assert_eq!(x.path, y.path);
            }
        }
    }

    #[test]
    fn world_is_send_sync_and_static() {
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<World>();
        assert_shareable::<CityId>();
    }

    #[test]
    fn city_id_display_and_index() {
        assert_eq!(CityId(3).to_string(), "city#3");
        assert_eq!(CityId(3).index(), 3);
        assert_eq!(CityId::LOCAL, CityId(0));
    }
}
