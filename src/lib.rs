//! # CrowdPlanner
//!
//! A crowd-based route recommendation system — an open-source reproduction
//! of *CrowdPlanner: A Crowd-Based Route Recommendation System*
//! (Han Su et al., ICDE 2014; arXiv:1309.2687).
//!
//! Given an origin, a destination and a departure time, CrowdPlanner:
//!
//! 1. tries to **reuse a verified truth** from earlier requests;
//! 2. collects candidate routes from **five sources** — two simulated web
//!    map services (shortest / fastest) and three popular-route miners
//!    (MPR, LDR, MFP) over historical trajectories;
//! 3. lets the machine decide when candidates **agree** or when nearby
//!    verified truths make one candidate **confident**;
//! 4. otherwise runs a **crowdsourcing task**: a small, significant,
//!    discriminative set of landmark questions (ILS / GreedySelect),
//!    ordered by an ID3 tree, is answered by the top-k eligible workers
//!    (familiarity scores + PMF + Gaussian accumulation + rated voting),
//!    with early stopping and rewards.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`roadnet`] | road graph, synthetic city, routing, landmarks |
//! | [`traj`] | driver preferences, trips, calibration, check-ins, HITS significance |
//! | [`mining`] | MPR / MFP / LDR miners + simulated web services; the mining `World` |
//! | [`crowd`] | simulated worker population, answers, response times |
//! | [`core`] | task generation, worker selection, truth reuse, orchestration |
//! | [`service`] | multi-city serving platform: owned worlds, submit/poll tickets with admission control, bounded sharded truth store, dedup at admission, cross-run mining-artifact cache |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use crowdplanner::prelude::*;
//! use std::sync::Arc;
//!
//! // Build a small world.
//! let city = generate_city(&CityParams::small(), 7).unwrap();
//! let landmarks = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 7);
//! let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
//! let checkins = generate_checkins(&city.graph, &landmarks, &CheckInGenParams::default(), 7);
//! let significance = infer_significance(
//!     &city.graph, &landmarks, &checkins, &trips,
//!     &CalibrationParams::default(), &SignificanceParams::default());
//!
//! // Crowd platform behind a shared, quota-capped desk: at most 5
//! // concurrently outstanding tasks per worker, no matter how many
//! // planners share it.
//! let population = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), 7);
//! let mut platform = Platform::new(population, AnswerModel::default(), 7);
//! platform.warm_up(&landmarks, 5);
//! let desk: Arc<dyn CrowdDesk> = Arc::new(SharedCrowd::new(platform, 5));
//!
//! // The server: owned and `Send + 'static` — movable onto any thread.
//! // It mines candidates from one shared mining world.
//! let world = Arc::new(World::new(city.graph.clone(), trips.trips.clone()));
//! let mut planner = CrowdPlanner::new(
//!     world, Arc::new(landmarks.clone()), Arc::new(significance), desk,
//!     Config::default()).unwrap();
//!
//! // Ground-truth oracle for the simulated crowd.
//! let consensus = DriverPreference::consensus()
//!     .preferred_route(&city.graph, NodeId(0), NodeId(59)).unwrap();
//! let on_route: std::collections::HashSet<LandmarkId> = calibrate_path(
//!     &city.graph, &landmarks, &consensus, &CalibrationParams::default())
//!     .into_iter().collect();
//!
//! let rec = planner.handle_request(
//!     NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0),
//!     &|l| on_route.contains(&l)).unwrap();
//! assert_eq!(rec.path.source(), NodeId(0));
//! ```

pub use cp_core as core;
pub use cp_crowd as crowd;
pub use cp_mining as mining;
pub use cp_roadnet as roadnet;
pub use cp_service as service;
pub use cp_traj as traj;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use cp_core::{
        Config, CoreError, CrowdPlanner, EarlyStop, Evaluation, KnowledgeModel, LandmarkRoute,
        Recommendation, Resolution, SelectionAlgorithm, StopDecision, SystemStats, Task,
        TruthEntry, TruthStore,
    };
    pub use cp_crowd::{
        AnswerModel, AnswerTally, CrowdDesk, CrowdObserve, DeskStats, Platform, PopulationParams,
        QuotaExhausted, Reservation, SharedCrowd, Worker, WorkerId, WorkerPopulation,
    };
    pub use cp_mining::{
        distinct_candidates, CandidateRoute, LdrParams, MfpParams, MprParams, SourceKind,
        TransferNetwork,
    };
    pub use cp_roadnet::{
        edge_jaccard, generate_city, generate_landmarks, City, CityParams, Landmark,
        LandmarkCategory, LandmarkGenParams, LandmarkId, LandmarkSet, NodeId, Path, Point,
        RoadClass, RoadGraph,
    };
    pub use cp_service::{
        CityId, CrowdCost, CrowdResolver, CrowdServing, MachineResolver, MaintenanceConfig,
        MaintenanceReport, OracleFactory, PlatformConfig, PlatformSnapshot, Request, Resolver,
        RouteService, Served, ServedRoute, ServiceConfig, ServiceError, ShardedTruthStore,
        StatsSnapshot, Ticket, World,
    };
    // `cp_crowd::Platform` (the crowdsourcing worker platform) already
    // owns the bare name in this prelude; the multi-city serving
    // platform is re-exported under an unambiguous alias.
    pub use cp_service::Platform as ServingPlatform;
    pub use cp_traj::{
        calibrate_path, generate_checkins, generate_trips, infer_significance, CalibrationParams,
        CheckInGenParams, DriverId, DriverPreference, SignificanceParams, TimeOfDay, TripDataset,
        TripGenParams,
    };
}

pub mod sim;
