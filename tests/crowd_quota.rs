//! Crowd-quota integration tests (this PR's acceptance bar).
//!
//! 1. A **crowd-backed city on the resident `Platform` pool** (not the
//!    closed-batch `serve`) serves concurrent submits from 8 client
//!    threads. All of the city's per-worker planners share one
//!    [`SharedCrowd`] desk wrapped in a spy that records per-worker
//!    outstanding high-water marks and reservation settlement counts.
//!    Invariants proved:
//!      * no worker's outstanding count ever exceeds `max_outstanding`
//!        (spy high-water + the desk's own exact high-water);
//!      * every granted reservation is committed or released exactly
//!        once, and zero reservations are leaked after the drain.
//! 2. A proptest that the owned, desk-based `CrowdPlanner` answers
//!    **byte-identically** to the pre-redesign direct-platform
//!    behaviour (an uncapped `SharedCrowd::new(platform, u32::MAX)`
//!    preserves the old borrowed planner's unconditional
//!    `assign`/`finish` calls verbatim) on a single
//!    thread — the reserve → ask → commit protocol and the `Arc`-owned
//!    world handles change nothing about the paper pipeline's output.
//! 3. A proptest that the **served** crowd ladder (the platform's shared
//!    truth store, then `CrowdPlanner::resolve_with_candidates` on a
//!    worker) serves what the **standalone** paper ladder
//!    (`CrowdPlanner::handle_request`) serves over an identically seeded
//!    crowd, repeats included.

mod common;
use common::{crowd_forcing_config, sim};

use cp_core::{Config, Resolution};
use cp_crowd::{
    AnswerTally, CrowdDesk, CrowdObserve, DeskStats, QuotaExhausted, SharedCrowd, WorkerId,
    WorkerPopulation,
};
use cp_roadnet::{Landmark, LandmarkId};
use cp_service::{CrowdServing, Platform, PlatformConfig, Request, Served, ServiceConfig, Ticket};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A desk that delegates everything to a [`SharedCrowd`] while
/// independently recording what it observes: per-worker outstanding
/// high-water marks sampled right after each grant, and
/// grant/reject/commit/release tallies.
struct SpyDesk {
    inner: Arc<SharedCrowd>,
    high_water: Mutex<Vec<u32>>,
    granted: AtomicU64,
    rejected: AtomicU64,
    committed: AtomicU64,
    released: AtomicU64,
}

impl SpyDesk {
    fn new(inner: Arc<SharedCrowd>) -> Self {
        let n = inner.population().len();
        SpyDesk {
            inner,
            high_water: Mutex::new(vec![0; n]),
            granted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            released: AtomicU64::new(0),
        }
    }
}

impl CrowdObserve for SpyDesk {
    fn population(&self) -> &WorkerPopulation {
        self.inner.population()
    }

    fn worker_history(&self, worker: WorkerId) -> Vec<(LandmarkId, AnswerTally)> {
        self.inner.worker_history(worker)
    }

    fn response_times(&self, worker: WorkerId) -> Vec<f64> {
        self.inner.response_times(worker)
    }

    fn outstanding(&self, worker: WorkerId) -> u32 {
        self.inner.outstanding(worker)
    }

    fn points(&self, worker: WorkerId) -> f64 {
        self.inner.points(worker)
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }
}

impl CrowdDesk for SpyDesk {
    fn max_outstanding(&self) -> u32 {
        self.inner.max_outstanding()
    }

    fn try_reserve(&self, worker: WorkerId) -> Result<(), QuotaExhausted> {
        match self.inner.try_reserve(worker) {
            Ok(()) => {
                self.granted.fetch_add(1, Ordering::Relaxed);
                // Sampled after the grant: may momentarily read a
                // sibling's concurrent changes, but can never read past
                // the cap if the desk enforces it correctly.
                let seen = self.inner.outstanding(worker);
                let mut hw = self.high_water.lock().unwrap();
                hw[worker.index()] = hw[worker.index()].max(seen);
                Ok(())
            }
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn ask(&self, worker: WorkerId, landmark: &Landmark, truth: bool) -> (bool, f64) {
        self.inner.ask(worker, landmark, truth)
    }

    fn award(&self, worker: WorkerId, points: f64) {
        self.inner.award(worker, points);
    }

    fn commit(&self, worker: WorkerId) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.inner.commit(worker);
    }

    fn release(&self, worker: WorkerId) {
        self.released.fetch_add(1, Ordering::Relaxed);
        self.inner.release(worker);
    }

    fn desk_stats(&self) -> DeskStats {
        self.inner.desk_stats()
    }
}

#[test]
fn eight_clients_one_shared_crowd_never_oversubscribe_a_worker() {
    const MAX_OUTSTANDING: u32 = 2;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 3;

    let world = SimWorld::build(Scale::Small, 5).expect("world");
    let shared = Arc::new(SharedCrowd::new(world.platform(64, 10, 5), MAX_OUTSTANDING));
    let spy = Arc::new(SpyDesk::new(Arc::clone(&shared)));

    let platform = Platform::start(PlatformConfig {
        city_weight: 1,
        workers: 4,
        queue_capacity: 64,
        maintenance: None,
        batch: None,
        durability: None,
        chaos: None,
    });
    let mut service_cfg = ServiceConfig::default();
    service_cfg.core = crowd_forcing_config();
    let id = platform
        .register_city_crowd(
            world.service_world(),
            service_cfg,
            CrowdServing::new(
                world.landmarks_arc(),
                world.significance_arc(),
                Arc::clone(&spy) as Arc<dyn CrowdDesk>,
                Arc::new(world.oracle_factory()),
            ),
        )
        .expect("crowd city registers");

    // Distinct OD pairs so neither the sharded truth store nor dedup
    // at admission short-circuits the crowd pipeline.
    let ods = world.request_stream(CLIENTS * PER_CLIENT, 2, 99);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let platform = &platform;
            let ods = &ods;
            s.spawn(move || {
                let mut tickets: Vec<Ticket> = Vec::new();
                for i in 0..PER_CLIENT {
                    let (from, to) = ods[c * PER_CLIENT + i];
                    let req = Request::to_city(id, from, to, TimeOfDay::from_hours(7.0 + i as f64));
                    tickets.push(platform.submit_blocking(req).expect("admitted"));
                }
                for t in tickets {
                    t.wait().expect("crowd-backed request serves");
                }
            });
        }
    });

    let snap = platform.city_stats(id).expect("registered");
    assert!(snap.is_consistent(), "{snap:?}");
    assert_eq!(snap.requests, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.errors, 0);
    assert!(
        snap.crowd_workers > 0,
        "crowd-forced requests must engage workers: {snap:?}"
    );
    platform.shutdown();

    // The quota invariant: throughout the concurrent run, no worker ever
    // held more than MAX_OUTSTANDING tasks — by the spy's sampling and
    // by the desk's exact in-lock bookkeeping.
    let spy_hw = spy.high_water.lock().unwrap();
    for w in spy.population().ids() {
        assert!(
            spy_hw[w.index()] <= MAX_OUTSTANDING,
            "worker {w:?} observed above the cap"
        );
        assert!(
            shared.high_water(w) <= MAX_OUTSTANDING,
            "worker {w:?} exceeded the cap in exact bookkeeping"
        );
        assert_eq!(shared.outstanding(w), 0, "worker {w:?} leaked quota");
    }

    // Every reservation settled exactly once, none leaked after drain.
    let granted = spy.granted.load(Ordering::Relaxed);
    let committed = spy.committed.load(Ordering::Relaxed);
    let released = spy.released.load(Ordering::Relaxed);
    assert!(granted > 0, "the crowd was never consulted");
    assert_eq!(
        granted,
        committed + released,
        "every reservation is committed or released exactly once"
    );
    let stats = shared.desk_stats();
    assert!(stats.is_drained(), "{stats:?}");
    assert_eq!(stats.reserved, granted);
    assert_eq!(
        stats.quota_rejected,
        spy.rejected.load(Ordering::Relaxed),
        "spy and desk disagree on rejections"
    );
    // Desk contention is mirrored into the serving statistics.
    assert_eq!(snap.crowd_quota_rejections, stats.quota_rejected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The owned planner over a `SharedCrowd` (reserve → ask → commit,
    /// capped) answers byte-identically to the pre-redesign
    /// direct-platform behaviour (an uncapped desk) on a single thread:
    /// identical platform seeds ⇒ identical paths, resolutions,
    /// confidences and crowd costs for every request.
    #[test]
    fn owned_planner_matches_direct_desk_byte_for_byte(
        seed in 0u64..500,
        picks in proptest::collection::vec((0usize..30, 0.0f64..24.0), 1..6),
    ) {
        let world = SimWorld::build(Scale::Small, 1234).expect("world");
        let cfg = Config::default();
        // max_outstanding ≥ η_#q: single-threaded, selection's quota
        // filter fires before the cap ever can, so the protocols only
        // differ in bookkeeping.
        let shared: Arc<dyn CrowdDesk> =
            Arc::new(SharedCrowd::new(world.platform(64, 10, seed), cfg.eta_quota));
        let direct: Arc<dyn CrowdDesk> =
            Arc::new(SharedCrowd::new(world.platform(64, 10, seed), u32::MAX));
        let mut a = world.owned_planner(shared, cfg.clone()).expect("planner");
        let mut b = world.owned_planner(direct, cfg).expect("planner");

        let ods = world.request_stream(30, 3, 777);
        for &(i, hours) in &picks {
            let (from, to) = ods[i];
            let t = TimeOfDay::from_hours(hours);
            let oracle = world.oracle(from, to).expect("oracle");
            let ra = a.handle_request(from, to, t, &oracle).expect("request");
            let rb = b.handle_request(from, to, t, &oracle).expect("request");
            prop_assert_eq!(ra.path.nodes(), rb.path.nodes());
            prop_assert_eq!(ra.resolution, rb.resolution);
            prop_assert_eq!(ra.confidence.to_bits(), rb.confidence.to_bits());
            prop_assert_eq!(ra.questions_asked, rb.questions_asked);
            prop_assert_eq!(ra.workers_asked, rb.workers_asked);
        }
        prop_assert_eq!(a.stats().quota_rejections, 0);
        prop_assert!(a.desk().desk_stats().is_drained());
        prop_assert!(b.desk().desk_stats().is_drained());
    }

    /// The served crowd ladder equals the standalone paper ladder. One
    /// platform worker over a crowd city (so one planner, fed in
    /// submission order) and a standalone planner over an identically
    /// seeded desk see the same requests at the same canonical
    /// departures: every path matches, every resolution matches with a
    /// served `TruthHit` standing for the standalone `ReusedTruth`, and
    /// every crowd resolution costs the same questions and workers.
    #[test]
    fn served_crowd_ladder_matches_the_standalone_paper_ladder(
        seed in 0u64..500,
        picks in proptest::collection::vec((0usize..5, 0usize..2), 1..10),
    ) {
        let world = sim();
        let mut cfg = ServiceConfig::strict_deterministic();
        cfg.core = crowd_forcing_config();
        let platform = Platform::start(PlatformConfig {
            workers: 1,
            batch: None,
            ..PlatformConfig::default()
        });
        let id = platform
            .register_city_crowd(
                world.service_world(),
                cfg.clone(),
                world.crowd_serving(64, 10, seed, cfg.core.eta_quota),
            )
            .expect("crowd city registers");
        let service = platform.city_service(id).expect("registered");
        let desk: Arc<dyn CrowdDesk> = world.shared_crowd(64, 10, seed, cfg.core.eta_quota);
        let mut planner = world.owned_planner(desk, cfg.core.clone()).expect("planner");

        let ods = world.request_stream(5, 2, 41);
        let mut resolved: Vec<Request> = Vec::new();
        for &(i, h) in &picks {
            let (from, to) = ods[i];
            let req = Request::to_city(id, from, to, TimeOfDay::from_hours(7.0 + h as f64));
            let before = platform.city_stats(id).expect("registered");
            let served = platform.submit_blocking(req).expect("admitted").wait();
            let after = platform.city_stats(id).expect("registered");
            let oracle = world.oracle(from, to).expect("oracle");
            let departure = service.canonical_departure(&req);
            let alone = planner.handle_request(from, to, departure, &oracle);
            let (served, alone) = match (served, alone) {
                (Ok(s), Ok(a)) => (s, a),
                (s, a) => {
                    prop_assert_eq!(s.is_ok(), a.is_ok(), "{:?} vs {:?}", s, a);
                    continue;
                }
            };
            prop_assert_eq!(served.path.nodes(), alone.path.nodes());
            let kind = match served.served {
                Served::TruthHit => Resolution::ReusedTruth,
                Served::Resolved(r) => r,
                Served::Deduplicated => unreachable!("one worker, one request at a time"),
            };
            prop_assert_eq!(kind, alone.resolution);
            if resolved.contains(&req) {
                prop_assert_eq!(kind, Resolution::ReusedTruth);
            } else {
                prop_assert!(kind != Resolution::ReusedTruth, "first time: {:?}", kind);
                resolved.push(req);
            }
            prop_assert_eq!(
                after.crowd_questions - before.crowd_questions,
                alone.questions_asked as u64
            );
            prop_assert_eq!(
                after.crowd_workers - before.crowd_workers,
                alone.workers_asked as u64
            );
        }
        platform.shutdown();
    }
}

#[test]
fn quota_starved_city_with_strict_shedding_surfaces_crowd_starved() {
    let world = SimWorld::build(Scale::Small, 5).expect("world");
    let shared = Arc::new(SharedCrowd::new(world.platform(32, 10, 5), 1));
    // Saturate every worker up-front: reservations can never be granted.
    for w in shared.population().ids().collect::<Vec<WorkerId>>() {
        shared.try_reserve(w).unwrap();
    }
    let platform = Platform::start(PlatformConfig {
        city_weight: 1,
        workers: 2,
        queue_capacity: 16,
        maintenance: None,
        batch: None,
        durability: None,
        chaos: None,
    });
    let mut service_cfg = ServiceConfig::default();
    service_cfg.core = crowd_forcing_config();
    let mut crowd = CrowdServing::new(
        world.landmarks_arc(),
        world.significance_arc(),
        Arc::clone(&shared) as Arc<dyn CrowdDesk>,
        Arc::new(world.oracle_factory()),
    );
    crowd.fail_when_starved = true;
    let id = platform
        .register_city_crowd(world.service_world(), service_cfg, crowd)
        .expect("registers");

    let ods = world.request_stream(6, 2, 55);
    let mut starved = 0usize;
    for (i, &(from, to)) in ods.iter().enumerate() {
        let req = Request::to_city(id, from, to, TimeOfDay::from_hours(7.0 + i as f64));
        match platform.submit_blocking(req).expect("admitted").wait() {
            Err(cp_service::ServiceError::CrowdStarved { .. }) => starved += 1,
            // Requests whose candidates collapse to one landmark route
            // (or find no eligible workers) legitimately fall back
            // before any reservation is attempted.
            Ok(served) => assert_ne!(
                served.served,
                cp_service::Served::Resolved(cp_core::Resolution::Crowd),
                "a saturated desk cannot produce crowd verdicts"
            ),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let snap = platform.city_stats(id).expect("registered");
    assert_eq!(snap.errors, starved as u64);
    // Starvation is observable in the serving statistics even though
    // the starved requests never produced a route. (No reservations
    // bounce: selection, clamped to the desk cap, recognises the
    // saturation up front.)
    assert_eq!(snap.crowd_starved, starved as u64);
    platform.shutdown();
    assert!(
        starved > 0,
        "a fully saturated desk must shed at least one request"
    );
    // Selection (clamped to the desk cap) recognised saturation up
    // front, so no reservation beyond the saturating ones was ever
    // attempted — and none leaked.
    let stats = shared.desk_stats();
    assert_eq!(stats.reserved as usize, shared.population().len());
    assert_eq!(stats.committed + stats.released, 0);
}
