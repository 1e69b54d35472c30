//! Pluggable request resolution.
//!
//! The executor owns everything shared (truth shards, mining
//! artifacts); what *resolving a miss* means is a per-worker strategy
//! behind the [`Resolver`] trait:
//!
//! * [`MachineResolver`] — the machine-only pipeline (agreement
//!   clustering, then the best-machine-guess fallback ranked by learned
//!   source priors). It is a **pure function** of the world and the
//!   request, which is what makes the concurrent service bit-for-bit
//!   deterministic and is the right default for throughput serving;
//! * [`CrowdResolver`] — the full paper pipeline including crowd tasks,
//!   wrapping one owned [`CrowdPlanner`] per worker. The planner is
//!   `Send + 'static` (it holds `Arc` world handles and an
//!   `Arc<dyn CrowdDesk>`), so crowd resolution runs on the resident
//!   [`Platform`](crate::Platform) pool — register a crowd-backed city
//!   with [`Platform::register_city_crowd`](crate::Platform::register_city_crowd).
//!   All of a city's resolvers share one desk, whose reserve → ask →
//!   commit protocol caps every worker's concurrently outstanding
//!   tasks; contention surfaces in the service statistics
//!   (`crowd_quota_rejections`, `crowd_starved`).
//!
//! Crowd outcomes depend on the shared desk's answer history, so a crowd
//! resolver trades determinism-under-concurrency for paper fidelity.

use crate::error::ServiceError;
use cp_core::{
    evaluate_candidates, Config, CrowdPlanner, Evaluation, Resolution, SourceReliability,
    TruthStore,
};
use cp_mining::CandidateRoute;
use cp_roadnet::{LandmarkId, NodeId, Path, RoadGraph};
use cp_traj::TimeOfDay;
use std::sync::Arc;

/// Crowd-side cost and contention observed while resolving one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrowdCost {
    /// Questions answered by all workers for this request.
    pub questions: u64,
    /// Workers who participated.
    pub workers: u64,
    /// Worker reservations refused at the shared desk's cap while
    /// serving this request.
    pub quota_rejections: u64,
    /// Whether the crowd was needed but *every* reservation was refused
    /// (the request fell back to the machine's best guess).
    pub starved: bool,
}

/// A freshly resolved route.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The recommended route.
    pub path: Path,
    /// How the pipeline decided.
    pub resolution: Resolution,
    /// Confidence of the decision.
    pub confidence: f64,
    /// Crowd cost/contention, when a crowd pipeline resolved the
    /// request (`None` for machine-only resolvers).
    pub crowd: Option<CrowdCost>,
}

/// Resolves a request the shared layers could not serve.
pub trait Resolver {
    /// Resolves `(from, to, departure)` given the pre-mined `candidates`
    /// (possibly from the shared cache). Implementations may ignore the
    /// candidates and run their own pipeline.
    fn resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[CandidateRoute],
    ) -> Result<Resolved, ServiceError>;
}

/// Boxed resolvers resolve by delegation, so trait objects (the
/// platform's worker-local `Box<dyn Resolver + Send>`) plug into the
/// same generic executor paths as concrete resolvers.
impl<R: Resolver + ?Sized> Resolver for Box<R> {
    fn resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[CandidateRoute],
    ) -> Result<Resolved, ServiceError> {
        (**self).resolve(from, to, departure, candidates)
    }
}

/// Machine-only resolution: agreement, else best machine guess ranked by
/// the paper-prior source reliability. Deterministic: identical inputs
/// always produce identical routes, independent of call order or thread
/// interleaving.
///
/// Owns its graph handle (`Arc<RoadGraph>`), so it is `'static` and can
/// live on a resident platform worker as easily as on a caller's stack.
#[derive(Debug)]
pub struct MachineResolver {
    graph: Arc<RoadGraph>,
    cfg: Config,
    /// Evaluation runs against an empty store so the outcome cannot
    /// depend on mutable shared state (the executor's *sharded* store
    /// already handled reuse before resolution).
    no_truths: TruthStore,
    priors: SourceReliability,
}

impl MachineResolver {
    /// Creates a resolver over a shared graph handle with the given
    /// thresholds (see [`World::graph_arc`](crate::World::graph_arc)).
    pub fn new(graph: Arc<RoadGraph>, cfg: Config) -> Self {
        MachineResolver {
            graph,
            cfg,
            no_truths: TruthStore::new(),
            priors: SourceReliability::default(),
        }
    }
}

impl Resolver for MachineResolver {
    fn resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        _departure: TimeOfDay,
        candidates: &[CandidateRoute],
    ) -> Result<Resolved, ServiceError> {
        if candidates.is_empty() {
            return Err(ServiceError::NoCandidates);
        }
        match evaluate_candidates(
            &self.graph,
            candidates,
            &self.no_truths,
            from,
            to,
            &self.cfg,
        ) {
            Evaluation::Agreement { path, supporters } => Ok(Resolved {
                path,
                resolution: Resolution::Agreement,
                confidence: supporters as f64 / candidates.len() as f64,
                crowd: None,
            }),
            Evaluation::Confident { path, confidence } => Ok(Resolved {
                path,
                resolution: Resolution::Confident,
                confidence,
                crowd: None,
            }),
            Evaluation::Undecided { confidences } => {
                // Best machine guess: highest confidence, ties broken by
                // the source's prior reliability, then by candidate
                // order (which is fixed by the generator).
                let mut best = 0usize;
                let mut best_score = (f64::NEG_INFINITY, f64::NEG_INFINITY);
                for (i, c) in candidates.iter().enumerate() {
                    let score = (confidences[i], self.priors.best_of(&[c.source]));
                    if score.0 > best_score.0 || (score.0 == best_score.0 && score.1 > best_score.1)
                    {
                        best = i;
                        best_score = score;
                    }
                }
                Ok(Resolved {
                    path: candidates[best].path.clone(),
                    resolution: Resolution::Fallback,
                    confidence: self.cfg.eta_confidence * 0.5,
                    crowd: None,
                })
            }
        }
    }
}

/// Supplies the per-request crowd-knowledge oracle: `oracle_for(from,
/// to)` returns the "does the best route pass landmark l?" closure the
/// simulated workers noisily report.
///
/// `Send + Sync` replaces the old closure-generic parameter, so a
/// factory can be shared (`Arc<dyn OracleFactory>`) by every resolver on
/// the resident pool. Any `Fn(NodeId, NodeId) -> impl Fn(LandmarkId) ->
/// bool` closure implements it via the blanket impl.
pub trait OracleFactory: Send + Sync {
    /// Builds the oracle for one request.
    fn oracle_for(&self, from: NodeId, to: NodeId) -> Box<dyn Fn(LandmarkId) -> bool + '_>;
}

impl<F, O> OracleFactory for F
where
    F: Fn(NodeId, NodeId) -> O + Send + Sync,
    O: Fn(LandmarkId) -> bool + 'static,
{
    fn oracle_for(&self, from: NodeId, to: NodeId) -> Box<dyn Fn(LandmarkId) -> bool + '_> {
        Box::new(self(from, to))
    }
}

/// Full-pipeline resolution through one owned [`CrowdPlanner`]
/// (typically one per platform worker, all sharing the city's crowd
/// desk), with the crowd's latent knowledge supplied by an
/// [`OracleFactory`].
///
/// Owned and `Send + 'static`: registerable on the resident
/// [`Platform`](crate::Platform) pool (see
/// [`Platform::register_city_crowd`](crate::Platform::register_city_crowd))
/// as well as usable directly with
/// [`RouteService::serve_coalesced`](crate::RouteService::serve_coalesced).
pub struct CrowdResolver {
    planner: CrowdPlanner,
    oracle_for: Arc<dyn OracleFactory>,
    fail_when_starved: bool,
}

impl CrowdResolver {
    /// Wraps an owned planner and a shared oracle factory.
    pub fn new(planner: CrowdPlanner, oracle_for: Arc<dyn OracleFactory>) -> Self {
        CrowdResolver {
            planner,
            oracle_for,
            fail_when_starved: false,
        }
    }

    /// When enabled, a request whose crowd task is entirely
    /// quota-starved (every reservation refused) fails with
    /// [`ServiceError::CrowdStarved`] instead of silently serving the
    /// machine's fallback guess — callers that prefer shedding over
    /// degraded answers can retry or re-route.
    pub fn fail_when_starved(mut self, fail: bool) -> Self {
        self.fail_when_starved = fail;
        self
    }

    /// The wrapped planner (its private truth store and statistics).
    pub fn planner(&self) -> &CrowdPlanner {
        &self.planner
    }
}

impl Resolver for CrowdResolver {
    fn resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[CandidateRoute],
    ) -> Result<Resolved, ServiceError> {
        let before = self.planner.stats().clone();
        let oracle = self.oracle_for.oracle_for(from, to);
        // The executor already probed the shared truth store and mined
        // the candidate set from the same shared mining state; the
        // planner runs only machine evaluation and the crowd. Its
        // private store holds a subset of the shared one (every truth it
        // records is committed there before the next job), so probing
        // it again could only find what the executor just missed.
        let rec = self
            .planner
            .resolve_with_candidates(from, to, departure, candidates, &|l| oracle(l))
            .map_err(ServiceError::Core)?;
        let after = self.planner.stats();
        let starved = after.starved_tasks > before.starved_tasks;
        let quota_rejections = (after.quota_rejections - before.quota_rejections) as u64;
        if starved && self.fail_when_starved {
            return Err(ServiceError::CrowdStarved { quota_rejections });
        }
        Ok(Resolved {
            path: rec.path,
            resolution: rec.resolution,
            confidence: rec.confidence,
            crowd: Some(CrowdCost {
                questions: rec.questions_asked as u64,
                workers: rec.workers_asked as u64,
                quota_rejections,
                starved,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use cp_crowd::{
        AnswerModel, CrowdDesk, Platform, PopulationParams, SharedCrowd, WorkerPopulation,
    };
    use cp_roadnet::{generate_city, generate_landmarks, CityParams, LandmarkGenParams};
    use cp_traj::{generate_checkins, CalibrationParams, TripGenParams};
    use cp_traj::{generate_trips, infer_significance, CheckInGenParams, SignificanceParams};

    #[test]
    fn machine_resolver_is_deterministic_and_endpoint_correct() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let world = World::new(city.graph.clone(), trips.trips);
        let graph = world.graph_arc();
        let mut r1 = MachineResolver::new(Arc::clone(&graph), Config::default());
        let mut r2 = MachineResolver::new(Arc::clone(&graph), Config::default());
        let dep = TimeOfDay::from_hours(8.0);
        for (a, b) in [(0u32, 59u32), (5, 54), (12, 47)] {
            let cands = world.candidates(NodeId(a), NodeId(b), dep);
            let x = r1.resolve(NodeId(a), NodeId(b), dep, &cands).unwrap();
            let y = r2.resolve(NodeId(a), NodeId(b), dep, &cands).unwrap();
            assert_eq!(x.path, y.path);
            assert_eq!(x.resolution, y.resolution);
            assert_eq!(x.crowd, None, "machine resolution reports no crowd cost");
            assert_eq!(x.path.source(), NodeId(a));
            assert_eq!(x.path.destination(), NodeId(b));
            assert!(matches!(
                x.resolution,
                Resolution::Agreement | Resolution::Confident | Resolution::Fallback
            ));
        }
    }

    #[test]
    fn machine_resolver_rejects_empty_candidates() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let mut r = MachineResolver::new(Arc::new(city.graph), Config::default());
        assert!(matches!(
            r.resolve(NodeId(0), NodeId(1), TimeOfDay::from_hours(8.0), &[]),
            Err(ServiceError::NoCandidates)
        ));
    }

    fn crowd_fixture(seed: u64) -> (Arc<World>, CrowdResolver, Arc<SharedCrowd>) {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let landmarks = generate_landmarks(&city.graph, &LandmarkGenParams::default(), seed);
        let trips = generate_trips(&city.graph, &TripGenParams::default(), seed).unwrap();
        let checkins =
            generate_checkins(&city.graph, &landmarks, &CheckInGenParams::default(), seed);
        let significance = infer_significance(
            &city.graph,
            &landmarks,
            &checkins,
            &trips,
            &CalibrationParams::default(),
            &SignificanceParams::default(),
        );
        let world = Arc::new(World::new(city.graph.clone(), trips.trips.clone()));
        let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), seed);
        let mut platform = Platform::new(pop, AnswerModel::default(), seed);
        platform.warm_up(&landmarks, 10);
        let desk = Arc::new(SharedCrowd::new(platform, 5));
        let planner = CrowdPlanner::new(
            Arc::clone(&world),
            Arc::new(landmarks),
            Arc::new(significance),
            Arc::clone(&desk) as Arc<dyn CrowdDesk>,
            Config::default(),
        )
        .unwrap();
        // Oracle: "the landmark's id is even" — deterministic latent
        // knowledge good enough for resolver plumbing tests.
        let factory: Arc<dyn OracleFactory> =
            Arc::new(|_from: NodeId, _to: NodeId| |l: LandmarkId| l.0.is_multiple_of(2));
        let resolver = CrowdResolver::new(planner, factory);
        (world, resolver, desk)
    }

    #[test]
    fn crowd_resolver_is_send_static_and_reports_crowd_cost() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<CrowdResolver>();

        let (world, mut resolver, desk) = crowd_fixture(7);
        let dep = TimeOfDay::from_hours(8.0);
        let candidates = world.candidates(NodeId(0), NodeId(59), dep);
        let rec = resolver
            .resolve(NodeId(0), NodeId(59), dep, &candidates)
            .unwrap();
        assert_eq!(rec.path.source(), NodeId(0));
        assert_eq!(rec.path.destination(), NodeId(59));
        let cost = rec.crowd.expect("crowd resolution reports its cost");
        assert!(!cost.starved);
        assert!(desk.desk_stats().is_drained());
        assert_eq!(resolver.planner().stats().requests, 1);
    }
}
