//! Chaos-engine and graceful-degradation acceptance tests.
//!
//! 1. **Breaker lifecycle** — under a total crowd no-show storm the
//!    per-city circuit breaker trips to machine-only serving (zero
//!    `CrowdStarved` surfaced while tripped), half-opens to probe the
//!    crowd, re-trips while the storm lasts, and recovers to `Closed`
//!    once the faults stop.
//! 2. **Runtime offboarding mid-firehose** — `deregister_city` under a
//!    racing submission storm: every in-flight ticket resolves exactly
//!    once, every queued ticket sheds with the terminal
//!    `CityOffboarded` error, later submissions are rejected, the
//!    sibling city is untouched, and every platform ledger balances.
//! 3. **Exactly-once under every fault class** (proptest) — random
//!    seeds × {1, 4} workers with *all seven* fault sites firing at
//!    once (plus durability, so write I/O errors hit a real WAL):
//!    every ticket terminates, `completed == admitted`, and the
//!    snapshot equations hold.
//! 4. **Byte-identity under non-failing faults** — a machine-only city
//!    serving one FIFO stream produces a truth store byte-identical to
//!    a healthy run when only slow/stalled workers and generation
//!    churn are injected: chaos may cost latency, never answers.

mod common;
use common::{crowd_forcing_config, sim as world, truth_sig};

use cp_crowd::CrowdDesk;
use cp_service::{
    BreakerConfig, BreakerState, ChaosConfig, CrowdServing, DurabilityConfig, FaultPlan,
    FsyncPolicy, Platform, PlatformConfig, Request, ServedRoute, ServiceConfig, ServiceError,
    Ticket,
};
use cp_traj::TimeOfDay;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Joins a ticket with a hard no-lost-ticket deadline: under fault
/// injection every admitted request must still reach a terminal state.
fn join_terminal(t: Ticket, what: &str) -> Result<ServedRoute, ServiceError> {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !t.is_done() {
        assert!(
            Instant::now() < deadline,
            "lost ticket: {what} never reached a terminal state"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    t.wait()
}

fn chaos_platform(workers: usize, chaos: Option<ChaosConfig>) -> Platform {
    Platform::start(PlatformConfig {
        workers,
        queue_capacity: 1024,
        city_weight: 1,
        maintenance: None,
        batch: None,
        durability: None,
        chaos,
    })
}

/// Trip on a crowd no-show storm, serve machine-only while open (zero
/// starvation errors surfaced), probe half-open, recover when healthy.
#[test]
fn breaker_trips_degrades_probes_and_recovers() {
    let sim = world();
    // Chaos present but quiet: the storm is switched on live below.
    let platform = chaos_platform(1, Some(ChaosConfig::new(1).with_plan(FaultPlan::none())));

    let shared = sim.shared_crowd(48, 10, 7, 4);
    let mut service_cfg = ServiceConfig::default();
    service_cfg.core = crowd_forcing_config();
    let mut serving = CrowdServing::new(
        sim.landmarks_arc(),
        sim.significance_arc(),
        Arc::clone(&shared) as Arc<dyn CrowdDesk>,
        Arc::new(sim.oracle_factory()),
    )
    .with_breaker(BreakerConfig {
        window: 8,
        trip_ratio: 0.5,
        min_samples: 4,
        open_serves: 4,
    });
    // Strict shedding: a starved crowd resolve surfaces as an error, so
    // "zero starvation errors while tripped" is observable from outside.
    serving.fail_when_starved = true;
    let id = platform
        .register_city_crowd(sim.service_world(), service_cfg, serving)
        .expect("crowd city registers");

    // Distinct OD pairs so neither the truth store nor single-flight
    // short-circuits the crowd pipeline (and the breaker's window).
    let ods = sim.request_stream(200, 2, 1234);
    let mut next = 0usize;
    let mut serve_one = |tag: &str| -> Result<ServedRoute, ServiceError> {
        let (from, to) = ods[next];
        next += 1;
        let req = Request::to_city(id, from, to, TimeOfDay::from_hours(8.0));
        join_terminal(platform.submit_blocking(req).expect("admitted"), tag)
    };

    // Phase 1 — healthy: crowd serves, breaker stays closed.
    for _ in 0..4 {
        serve_one("healthy crowd serve").expect("healthy serve");
    }
    let b = platform.city_breaker(id).expect("city has a breaker");
    assert_eq!(b.state, BreakerState::Closed);
    assert_eq!((b.trips, b.probes, b.recoveries), (0, 0, 0));

    // Phase 2 — storm: every crowd reservation is refused. Window
    // evidence accumulates (surfacing some CrowdStarved), then trips;
    // the tripping request itself degrades to the machine answer.
    assert!(platform.set_chaos_plan(FaultPlan {
        crowd_no_show: 1.0,
        ..FaultPlan::none()
    }));
    let mut starved_before_trip = 0u64;
    let mut tripped = false;
    for _ in 0..100 {
        match serve_one("storm-phase serve") {
            Ok(_) => {}
            Err(ServiceError::CrowdStarved { .. }) => starved_before_trip += 1,
            Err(e) => panic!("unexpected error under no-show storm: {e:?}"),
        }
        if platform.city_breaker(id).expect("breaker").state == BreakerState::Open {
            tripped = true;
            break;
        }
    }
    assert!(tripped, "a total no-show storm must trip the breaker");
    assert!(
        starved_before_trip >= 1,
        "window evidence comes from surfaced starvation before the trip"
    );
    let at_trip = platform.city_breaker(id).expect("breaker");
    assert!(at_trip.trips >= 1);
    assert!(
        platform.chaos_stats().expect("chaos on").crowd_no_shows > 0,
        "injections are counted per site"
    );

    // Phase 3 — tripped, storm still raging: every request serves OK
    // (machine-only; failed half-open probes re-trip and degrade too).
    for _ in 0..12 {
        serve_one("tripped serve")
            .expect("a tripped breaker must never surface a starvation error");
    }
    let open = platform.city_breaker(id).expect("breaker");
    assert!(
        open.machine_serves > at_trip.machine_serves,
        "open breaker serves machine-only: {open:?}"
    );
    assert!(open.probes >= 1, "the breaker must half-open and probe");
    assert!(open.trips > at_trip.trips, "failed probes re-trip");
    assert_eq!(open.recoveries, 0);

    // Phase 4 — storm over: machine serves drain the open budget, the
    // next probe succeeds, the breaker closes and counts a recovery.
    assert!(platform.set_chaos_plan(FaultPlan::none()));
    let mut recovered = false;
    for _ in 0..50 {
        serve_one("recovery-phase serve").expect("healthy serve");
        if platform.city_breaker(id).expect("breaker").state == BreakerState::Closed {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "a healthy crowd must close the breaker again");
    let healed = platform.city_breaker(id).expect("breaker");
    assert!(healed.recoveries >= 1, "{healed:?}");

    // Closed again: the crowd is genuinely back in the loop.
    for _ in 0..3 {
        serve_one("post-recovery serve").expect("crowd serve");
    }
    let snap = platform.stats();
    assert!(snap.is_consistent(), "{snap:?}");
    let row = snap.per_city.iter().find(|c| c.city == id).expect("row");
    assert!(row.breaker.is_some(), "breaker observables reach snapshots");
    platform.shutdown();
}

/// `deregister_city` under a racing submission firehose: exactly-once
/// for in-flight work, terminal sheds for the queue, clean ledgers.
#[test]
fn deregister_city_mid_firehose_never_loses_a_ticket() {
    let sim = world();
    // Every dispatch sleeps a little (and some stall): the queue stays
    // deep while the firehose runs, so the drain has real work to shed.
    let platform = chaos_platform(
        2,
        Some(ChaosConfig::new(3).with_plan(FaultPlan {
            slow_worker: 1.0,
            stall_worker: 0.25,
            ..FaultPlan::none()
        })),
    );
    let a = platform.register_city(sim.service_world(), ServiceConfig::default());
    let b = platform.register_city(sim.service_world(), ServiceConfig::default());

    const N: usize = 240;
    let ods = sim.request_stream(N + 1, 2, 77);
    let (tickets_a, tickets_b, rejected_in_flight, shed) = std::thread::scope(|s| {
        let submitter = s.spawn(|| {
            let mut ta = Vec::new();
            let mut tb = Vec::new();
            let mut rejected = 0u64;
            for (i, &(from, to)) in ods[..N].iter().enumerate() {
                let city = if i % 2 == 0 { a } else { b };
                let req = Request::to_city(city, from, to, TimeOfDay::from_hours(8.0));
                match platform.submit(req) {
                    Ok(t) if city == a => ta.push(t),
                    Ok(t) => tb.push(t),
                    Err(ServiceError::CityOffboarded(c)) => {
                        assert_eq!(c, a, "only the deregistered city rejects");
                        rejected += 1;
                    }
                    Err(e) => panic!("unexpected admission error: {e:?}"),
                }
            }
            (ta, tb, rejected)
        });

        // Pull the plug once city A has a real backlog.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            assert!(Instant::now() < deadline, "backlog never built");
            let snap = platform.stats();
            let depth_a = snap
                .per_city
                .iter()
                .find(|c| c.city == a)
                .map_or(0, |c| c.queue_depth);
            if depth_a >= 10 {
                break;
            }
            std::thread::yield_now();
        }
        let shed = platform.deregister_city(a).expect("registered city");
        let (ta, tb, rejected) = submitter.join().expect("submitter");
        (ta, tb, rejected, shed)
    });
    assert!(shed > 0, "the drain must have shed a non-empty queue");

    // City A: every ticket terminates — served exactly once (in-flight
    // at drain time) or shed with the terminal offboarding error.
    let mut shed_errors = 0u64;
    for t in tickets_a {
        match join_terminal(t, "city-A ticket") {
            Ok(_) => {}
            Err(ServiceError::CityOffboarded(c)) => {
                assert_eq!(c, a);
                shed_errors += 1;
            }
            Err(e) => panic!("city-A tickets either serve or shed: {e:?}"),
        }
    }
    assert_eq!(
        shed_errors, shed,
        "exactly the drained jobs shed with the terminal error"
    );
    // City B: completely untouched by its sibling's offboarding.
    for t in tickets_b {
        join_terminal(t, "city-B ticket").expect("sibling city serves everything");
    }

    // Late traffic: rejected at admission, not enqueued.
    let (from, to) = ods[N];
    assert!(matches!(
        platform.submit(Request::to_city(a, from, to, TimeOfDay::from_hours(9.0))),
        Err(ServiceError::CityOffboarded(_))
    ));
    assert_eq!(platform.city_offboarded(a), Some(true));
    assert_eq!(platform.city_offboarded(b), Some(false));
    assert!(platform.city_service(a).is_none(), "offboarded ⇒ 404");
    assert!(platform.city_service(b).is_some());
    assert_eq!(platform.deregister_city(a), Some(0), "idempotent");

    let snap = platform.stats();
    assert!(snap.is_consistent(), "{snap:?}");
    assert_eq!(snap.shed, shed);
    assert_eq!(snap.rejected_offboarded, rejected_in_flight + 1);
    assert_eq!(
        snap.completed,
        snap.admitted - snap.shed,
        "workers fulfilled everything that was not shed"
    );
    let row_a = snap.per_city.iter().find(|c| c.city == a).expect("row");
    assert!(row_a.offboarded);
    assert_eq!(row_a.shed, shed);
    assert_eq!(row_a.queue_depth, 0);
    platform.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// All seven fault classes at once, random seeds, 1 or 4 workers,
    /// durability on (so WAL write errors hit a real writer): every
    /// ticket terminates, `completed == admitted`, ledgers balance.
    #[test]
    fn exactly_once_under_every_fault_class(
        seed in any::<u64>(),
        worker_pick in 0usize..2,
    ) {
        let workers = if worker_pick == 0 { 1 } else { 4 };
        let sim = world();
        let dir = std::env::temp_dir().join(format!(
            "cp_chaos_{}_{seed:x}_{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan {
            crowd_no_show: 0.3,
            crowd_slow_answer: 0.3,
            slow_worker: 0.15,
            stall_worker: 0.05,
            resolver_panic: 0.05,
            durability_io_error: 0.25,
            generation_churn: 0.1,
        };
        let platform = Platform::start(PlatformConfig {
            workers,
            queue_capacity: 256,
            city_weight: 1,
            maintenance: None,
            batch: None,
            durability: Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
            chaos: Some(ChaosConfig::new(seed).with_plan(plan)),
        });
        let shared = sim.shared_crowd(48, 10, seed ^ 0xA5A5, 4);
        let mut service_cfg = ServiceConfig::default();
        service_cfg.core = crowd_forcing_config();
        let serving = CrowdServing::new(
            sim.landmarks_arc(),
            sim.significance_arc(),
            Arc::clone(&shared) as Arc<dyn CrowdDesk>,
            Arc::new(sim.oracle_factory()),
        )
        .with_breaker(BreakerConfig::default());
        let id = platform
            .register_city_crowd(sim.service_world(), service_cfg, serving)
            .expect("crowd city registers");

        const REQUESTS: usize = 48;
        let ods = sim.request_stream(REQUESTS, 2, seed ^ 0x51F7);
        let tickets: Vec<Ticket> = ods
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| {
                let req =
                    Request::to_city(id, from, to, TimeOfDay::from_hours(6.0 + (i % 12) as f64));
                platform.submit_blocking(req).expect("admitted")
            })
            .collect();

        let mut served = 0u64;
        let mut panicked = 0u64;
        for t in tickets {
            match join_terminal(t, "fault-injected request") {
                Ok(_) => served += 1,
                // The only fault class that legitimately surfaces: a
                // contained resolver panic (the breaker absorbs crowd
                // starvation, the retry loop absorbs WAL I/O errors).
                Err(ServiceError::ResolverPanicked) => panicked += 1,
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e:?}"))),
            }
        }
        prop_assert_eq!(served + panicked, REQUESTS as u64);

        let snap = platform.stats();
        prop_assert!(snap.is_consistent(), "{:?}", &snap);
        prop_assert_eq!(snap.admitted, REQUESTS as u64);
        prop_assert_eq!(snap.completed, REQUESTS as u64, "exactly-once fulfilment");
        prop_assert_eq!(snap.queue_depth, 0);
        let chaos = snap.chaos.expect("chaos on");
        prop_assert!(
            chaos.total_injected() > 0,
            "these rates over {} crowd-forced requests must inject",
            REQUESTS
        );
        platform.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Non-failing faults (slow/stalled workers, generation churn) may cost
/// latency but must not change a single served byte: a machine city's
/// truth store matches the healthy run's exactly, sequence numbers
/// included (one worker ⇒ FIFO commit order on both sides).
#[test]
fn non_failing_faults_leave_truth_store_byte_identical() {
    fn machine_run(chaos: Option<ChaosConfig>) -> Vec<(u64, u32, u32, u64, u64, Vec<u32>)> {
        let sim = world();
        let platform = chaos_platform(1, chaos);
        let id = platform.register_city(sim.service_world(), ServiceConfig::default());
        let ods = sim.request_stream(60, 2, 4242);
        let tickets: Vec<Ticket> = ods
            .iter()
            .enumerate()
            .map(|(i, &(from, to))| {
                let req =
                    Request::to_city(id, from, to, TimeOfDay::from_hours(6.0 + (i % 12) as f64));
                platform.submit_blocking(req).expect("admitted")
            })
            .collect();
        for t in tickets {
            join_terminal(t, "machine request").expect("machine city serves");
        }
        let sig = truth_sig(&platform.city_service(id).expect("registered"));
        platform.shutdown();
        sig
    }

    let healthy = machine_run(None);
    assert!(!healthy.is_empty(), "the healthy run must commit truths");
    let chaotic = machine_run(Some(ChaosConfig::new(9).with_plan(FaultPlan {
        slow_worker: 0.4,
        stall_worker: 0.1,
        generation_churn: 0.3,
        ..FaultPlan::none()
    })));
    assert_eq!(
        chaotic, healthy,
        "chaos that only delays must never change served bytes"
    );
}
