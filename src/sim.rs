//! Simulation-world helpers shared by examples, integration tests and the
//! experiment harness.
//!
//! A [`SimWorld`] bundles everything the paper's evaluation environment
//! provides: a city, landmarks with HITS-inferred significance, a driver
//! population with trip histories, and LBSN check-ins. The consensus
//! driver preference defines the ground-truth best route per OD pair, so
//! experiments can measure accuracy exactly.

use cp_core::{Config, CoreError, CrowdPlanner};
use cp_crowd::{AnswerModel, CrowdDesk, Platform, PopulationParams, SharedCrowd, WorkerPopulation};
use cp_roadnet::{
    generate_city, generate_landmarks, City, CityParams, LandmarkGenParams, LandmarkId,
    LandmarkSet, NodeId, Path, RoadGraph, RoadNetError,
};
use cp_service::{CrowdServing, OracleFactory, World};
use cp_traj::{
    calibrate_path, generate_checkins, generate_trips, infer_significance, CalibrationParams,
    CheckIn, CheckInGenParams, DriverPreference, SignificanceParams, TripDataset, TripGenParams,
};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Scale presets for simulation worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 60-intersection city, 200 drivers — unit-test sized.
    Small,
    /// 400-intersection city, 400 drivers — example/integration sized.
    Medium,
    /// 1600-intersection city, 800 drivers — benchmark sized.
    Large,
}

/// A fully-generated simulation world.
pub struct SimWorld {
    /// The city.
    pub city: City,
    /// Landmarks (with latent fame driving the check-in generator).
    pub landmarks: LandmarkSet,
    /// HITS-inferred landmark significance, indexed by [`LandmarkId`].
    pub significance: Vec<f64>,
    /// Driver population + trip histories.
    pub trips: TripDataset,
    /// LBSN check-ins.
    pub checkins: Vec<CheckIn>,
    /// Calibration settings used throughout.
    pub calibration: CalibrationParams,
    /// Seed the world was built from.
    pub seed: u64,
    /// Lazily built shared handles (each clones the underlying data at
    /// most once, no matter how many planners/desks/factories are built
    /// from this world).
    arcs: SharedHandles,
}

/// One-time `Arc` copies of the world's owned data.
#[derive(Default)]
struct SharedHandles {
    graph: OnceLock<Arc<RoadGraph>>,
    landmarks: OnceLock<Arc<LandmarkSet>>,
    significance: OnceLock<Arc<Vec<f64>>>,
    world: OnceLock<Arc<World>>,
}

impl SimWorld {
    /// Builds a world at the given scale, deterministically from `seed`.
    pub fn build(scale: Scale, seed: u64) -> Result<SimWorld, RoadNetError> {
        let (city_params, lm_count, trip_params, checkin_params) = match scale {
            Scale::Small => (
                CityParams::small(),
                120,
                TripGenParams::default(),
                CheckInGenParams::default(),
            ),
            Scale::Medium => (
                CityParams::medium(),
                300,
                TripGenParams {
                    drivers: 900,
                    trips_per_driver: 20,
                    heterogeneity: 0.12,
                    ..TripGenParams::default()
                },
                CheckInGenParams {
                    users: 300,
                    ..CheckInGenParams::default()
                },
            ),
            Scale::Large => (
                CityParams::large(),
                800,
                TripGenParams {
                    drivers: 800,
                    trips_per_driver: 12,
                    ..TripGenParams::default()
                },
                CheckInGenParams {
                    users: 600,
                    ..CheckInGenParams::default()
                },
            ),
        };
        let city = generate_city(&city_params, seed)?;
        let landmarks = generate_landmarks(
            &city.graph,
            &LandmarkGenParams {
                count: lm_count,
                ..LandmarkGenParams::default()
            },
            seed,
        );
        let trips = generate_trips(&city.graph, &trip_params, seed)?;
        let checkins = generate_checkins(&city.graph, &landmarks, &checkin_params, seed);
        let calibration = CalibrationParams::default();
        let significance = infer_significance(
            &city.graph,
            &landmarks,
            &checkins,
            &trips,
            &calibration,
            &SignificanceParams::default(),
        );
        Ok(SimWorld {
            city,
            landmarks,
            significance,
            trips,
            checkins,
            calibration,
            seed,
            arcs: SharedHandles::default(),
        })
    }

    /// The ground-truth best route for an OD pair: the consensus
    /// experienced-driver preference.
    pub fn ground_truth_route(&self, from: NodeId, to: NodeId) -> Result<Path, RoadNetError> {
        DriverPreference::consensus().preferred_route(&self.city.graph, from, to)
    }

    /// The crowd-knowledge oracle for an OD pair: answers "does the best
    /// route pass landmark l?" from the ground truth.
    pub fn oracle(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<impl Fn(LandmarkId) -> bool + '_, RoadNetError> {
        let truth = self.ground_truth_route(from, to)?;
        let on_route: HashSet<LandmarkId> =
            calibrate_path(&self.city.graph, &self.landmarks, &truth, &self.calibration)
                .into_iter()
                .collect();
        Ok(move |l: LandmarkId| on_route.contains(&l))
    }

    /// Whether `path` matches the ground-truth best route for its own
    /// endpoints, using the calibrated landmark view (the paper's notion
    /// of route identity at human resolution).
    pub fn is_best(&self, path: &Path) -> bool {
        let Ok(truth) = self.ground_truth_route(path.source(), path.destination()) else {
            return false;
        };
        if *path == truth {
            return true;
        }
        // Landmark-level identity: indistinguishable to a human.
        let a = calibrate_path(&self.city.graph, &self.landmarks, path, &self.calibration);
        let b = calibrate_path(&self.city.graph, &self.landmarks, &truth, &self.calibration);
        a == b
    }

    /// Packages this world's graph and trips into an owned, shareable
    /// serving world for the `cp-service` layer (clones both once; the
    /// returned `Arc<World>` is self-contained and `'static`, ready for
    /// `RouteService::new` or `Platform::register_city`).
    pub fn service_world(&self) -> Arc<World> {
        Arc::new(World::new(
            self.city.graph.clone(),
            self.trips.trips.clone(),
        ))
    }

    /// A shared handle to this world's road graph (the graph is cloned
    /// once, on first call; later calls clone the `Arc`).
    pub fn graph_arc(&self) -> Arc<RoadGraph> {
        Arc::clone(
            self.arcs
                .graph
                .get_or_init(|| Arc::new(self.city.graph.clone())),
        )
    }

    /// A shared handle to this world's landmarks (cloned once, cached).
    pub fn landmarks_arc(&self) -> Arc<LandmarkSet> {
        Arc::clone(
            self.arcs
                .landmarks
                .get_or_init(|| Arc::new(self.landmarks.clone())),
        )
    }

    /// A shared handle to this world's significance scores (cloned once,
    /// cached).
    pub fn significance_arc(&self) -> Arc<Vec<f64>> {
        Arc::clone(
            self.arcs
                .significance
                .get_or_init(|| Arc::new(self.significance.clone())),
        )
    }

    /// Builds an owned, `Send + 'static` [`CrowdPlanner`] over this
    /// world, resolving its crowd tasks through `desk`. Every planner
    /// built from one `SimWorld` shares one mining [`World`] (built on
    /// the first call).
    pub fn owned_planner(
        &self,
        desk: Arc<dyn CrowdDesk>,
        cfg: Config,
    ) -> Result<CrowdPlanner, CoreError> {
        let world = self.arcs.world.get_or_init(|| self.service_world());
        CrowdPlanner::new(
            Arc::clone(world),
            self.landmarks_arc(),
            self.significance_arc(),
            desk,
            cfg,
        )
    }

    /// Builds a warmed-up, `Arc`-shareable crowd desk for this world: a
    /// [`SharedCrowd`] whose per-worker outstanding-task count is hard
    /// capped at `max_outstanding` across all concurrent resolvers.
    pub fn shared_crowd(
        &self,
        workers: usize,
        warmup_rounds: usize,
        seed: u64,
        max_outstanding: u32,
    ) -> Arc<SharedCrowd> {
        Arc::new(SharedCrowd::new(
            self.platform(workers, warmup_rounds, seed),
            max_outstanding,
        ))
    }

    /// The ground-truth oracle factory for crowd-backed serving: owned
    /// (`'static`), it recomputes the consensus best route per request
    /// and answers "does it pass landmark l?".
    pub fn oracle_factory(&self) -> GroundTruthOracle {
        GroundTruthOracle {
            graph: self.graph_arc(),
            landmarks: self.landmarks_arc(),
            calibration: self.calibration,
        }
    }

    /// Bundles everything [`cp_service::Platform::register_city_crowd`]
    /// needs to serve this world with crowd-backed resolution on the
    /// resident pool.
    pub fn crowd_serving(
        &self,
        workers: usize,
        warmup_rounds: usize,
        seed: u64,
        max_outstanding: u32,
    ) -> CrowdServing {
        let shared = self.shared_crowd(workers, warmup_rounds, seed, max_outstanding);
        CrowdServing::new(
            self.landmarks_arc(),
            self.significance_arc(),
            Arc::clone(&shared) as Arc<dyn CrowdDesk>,
            Arc::new(self.oracle_factory()),
        )
        // The same desk, as its stateful side: platform snapshots then
        // capture the crowd (history, rewards, RNG) and its answers
        // reach the WAL when durability is on.
        .with_persist(shared)
    }

    /// Builds a warmed-up crowd platform for this world.
    pub fn platform(&self, workers: usize, warmup_rounds: usize, seed: u64) -> Platform {
        let pop = WorkerPopulation::generate(
            &self.city.graph,
            &PopulationParams {
                workers,
                ..PopulationParams::default()
            },
            seed,
        );
        let mut platform = Platform::new(pop, AnswerModel::default(), seed);
        platform.warm_up(&self.landmarks, warmup_rounds);
        platform
    }

    /// Deterministic pseudo-random OD pairs with both endpoints distinct,
    /// at least `min_grid_dist` grid cells apart (so requests are real
    /// journeys, not next-door hops).
    pub fn request_stream(
        &self,
        count: usize,
        min_grid_dist: usize,
        seed: u64,
    ) -> Vec<(NodeId, NodeId)> {
        let rows = self.city.params.rows;
        let cols = self.city.params.cols;
        let mut out = Vec::with_capacity(count);
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        while out.len() < count {
            let a = (next() as usize) % (rows * cols);
            let b = (next() as usize) % (rows * cols);
            if a == b {
                continue;
            }
            let (ar, ac) = (a / cols, a % cols);
            let (br, bc) = (b / cols, b % cols);
            if ar.abs_diff(br) + ac.abs_diff(bc) < min_grid_dist {
                continue;
            }
            out.push((NodeId(a as u32), NodeId(b as u32)));
        }
        out
    }
}

/// Owned [`OracleFactory`]: stands in for the crowd's latent collective
/// knowledge by deriving, per request, which landmarks the
/// consensus-driver best route passes. Self-contained (`Arc` graph +
/// landmarks), so crowd-backed cities on a resident serving pool can
/// share one instance.
pub struct GroundTruthOracle {
    graph: Arc<RoadGraph>,
    landmarks: Arc<LandmarkSet>,
    calibration: CalibrationParams,
}

impl OracleFactory for GroundTruthOracle {
    fn oracle_for(&self, from: NodeId, to: NodeId) -> Box<dyn Fn(LandmarkId) -> bool + '_> {
        let on_route: HashSet<LandmarkId> = DriverPreference::consensus()
            .preferred_route(&self.graph, from, to)
            .map(|truth| {
                calibrate_path(&self.graph, &self.landmarks, &truth, &self.calibration)
                    .into_iter()
                    .collect()
            })
            .unwrap_or_default();
        Box::new(move |l| on_route.contains(&l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_world_builds() {
        let w = SimWorld::build(Scale::Small, 5).unwrap();
        assert_eq!(w.city.graph.node_count(), 60);
        assert_eq!(w.landmarks.len(), 120);
        assert_eq!(w.significance.len(), 120);
        assert!(!w.trips.trips.is_empty());
        assert!(!w.checkins.is_empty());
    }

    #[test]
    fn ground_truth_is_its_own_best() {
        let w = SimWorld::build(Scale::Small, 5).unwrap();
        let p = w.ground_truth_route(NodeId(0), NodeId(59)).unwrap();
        assert!(w.is_best(&p));
    }

    #[test]
    fn oracle_consistent_with_truth() {
        let w = SimWorld::build(Scale::Small, 5).unwrap();
        let oracle = w.oracle(NodeId(0), NodeId(59)).unwrap();
        let truth = w.ground_truth_route(NodeId(0), NodeId(59)).unwrap();
        let on = calibrate_path(&w.city.graph, &w.landmarks, &truth, &w.calibration);
        for l in w.landmarks.ids() {
            assert_eq!(oracle(l), on.contains(&l));
        }
    }

    #[test]
    fn request_stream_respects_distance() {
        let w = SimWorld::build(Scale::Small, 5).unwrap();
        let reqs = w.request_stream(50, 4, 9);
        assert_eq!(reqs.len(), 50);
        for (a, b) in reqs {
            assert_ne!(a, b);
            let (ar, ac) = w.city.grid_of(a);
            let (br, bc) = w.city.grid_of(b);
            assert!(ar.abs_diff(br) + ac.abs_diff(bc) >= 4);
        }
    }

    #[test]
    fn oracle_factory_matches_borrowed_oracle() {
        let w = SimWorld::build(Scale::Small, 5).unwrap();
        let factory = w.oracle_factory();
        let owned = factory.oracle_for(NodeId(0), NodeId(59));
        let borrowed = w.oracle(NodeId(0), NodeId(59)).unwrap();
        for l in w.landmarks.ids() {
            assert_eq!(owned(l), borrowed(l));
        }
    }

    #[test]
    fn owned_planner_serves_through_shared_desk() {
        let w = SimWorld::build(Scale::Small, 5).unwrap();
        let desk = w.shared_crowd(120, 10, 5, 5);
        let mut planner = w
            .owned_planner(desk.clone() as Arc<dyn CrowdDesk>, Config::default())
            .unwrap();
        let oracle = w.oracle(NodeId(0), NodeId(59)).unwrap();
        let rec = planner
            .handle_request(
                NodeId(0),
                NodeId(59),
                cp_traj::TimeOfDay::from_hours(8.0),
                &oracle,
            )
            .unwrap();
        assert_eq!(rec.path.source(), NodeId(0));
        assert!(desk.desk_stats().is_drained());
    }

    #[test]
    fn deterministic() {
        let a = SimWorld::build(Scale::Small, 11).unwrap();
        let b = SimWorld::build(Scale::Small, 11).unwrap();
        assert_eq!(a.significance, b.significance);
        assert_eq!(a.trips.trips.len(), b.trips.trips.len());
    }
}
