//! Fairness under asymmetric load (this PR's acceptance bar): a hot
//! city firehosing its own sharded queue — and carrying a *larger* DRR
//! weight — must not starve a cold city's trickle. The weighted
//! deficit-round-robin dispatcher grants the hot city its quantum but
//! rotates to the cold city's backlog every cycle, so the cold city's
//! p99 sojourn stays within a constant factor of its solo baseline,
//! and per-city admission means the firehose sheds `Busy` against its
//! own queue only.

mod common;
use common::{fresh_misses, sim};

use cp_service::{BatchConfig, CityId, Platform, PlatformConfig, Request, ServiceConfig};
use cp_traj::TimeOfDay;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cold-city probes per measurement (each joined before the next, so
/// the cold queue never holds more than one job — `Busy` is impossible
/// unless admission leaks across cities).
const COLD_PROBES: usize = 40;

/// Fairness bound: loaded p99 ≤ `K` × solo p99 — with an absolute
/// floor, so scheduler-tick noise on a loaded CI box cannot flake the
/// ratio when the solo baseline is tens of microseconds.
const K: u32 = 20;
const FLOOR: Duration = Duration::from_millis(250);

fn p99(mut sojourns: Vec<Duration>) -> Duration {
    sojourns.sort();
    sojourns[(sojourns.len() * 99 / 100).min(sojourns.len() - 1)]
}

/// One platform, two cities over the same world, the hot city favoured
/// 4:1 — even a heavier hot tenant must not starve the cold deficit.
fn build(workers: usize) -> (Platform, CityId, CityId) {
    let sw = sim().service_world();
    let platform = Platform::start(PlatformConfig {
        workers,
        city_weight: 1,
        queue_capacity: 64,
        maintenance: None,
        batch: Some(BatchConfig::adaptive(8, Duration::from_millis(1))),
        durability: None,
        chaos: None,
    });
    let hot = platform.register_city(
        std::sync::Arc::clone(&sw),
        ServiceConfig::strict_deterministic(),
    );
    let cold = platform.register_city(sw, ServiceConfig::strict_deterministic());
    assert!(platform.set_city_weight(hot, 4));
    (platform, hot, cold)
}

/// Runs the cold trickle — submit, join, measure — and returns the
/// per-probe sojourns. Every submit must be admitted: the cold queue
/// has capacity at each one.
fn cold_trickle(platform: &Platform, cold: CityId) -> Vec<Duration> {
    sim()
        .request_stream(COLD_PROBES, 2, 97)
        .into_iter()
        .filter(|(from, to)| from != to)
        .map(|(from, to)| {
            let t0 = Instant::now();
            let ticket = platform
                .submit(Request::to_city(cold, from, to, TimeOfDay::from_hours(8.0)))
                .expect("a cold city with queue capacity must never shed");
            ticket.wait().expect("served");
            t0.elapsed()
        })
        .collect()
}

#[test]
fn cold_city_p99_is_bounded_while_hot_city_saturates() {
    for workers in [2usize, 8] {
        // Solo baseline: the trickle with the platform otherwise idle.
        let (platform, _hot, cold) = build(workers);
        let solo = cold_trickle(&platform, cold);
        platform.shutdown();

        // Loaded: two firehose threads keep the hot queue pinned at
        // capacity for the whole measurement. Each submits its own
        // stream of never-repeating keys, advanced only once a key is
        // admitted: a repeat would be a truth hit, served at submit
        // without ever queueing.
        let (platform, hot, cold) = build(workers);
        let stop = AtomicBool::new(false);
        let (loaded, hot_busy_during_trickle) = std::thread::scope(|scope| {
            for first_bucket in [0u32, 1] {
                let platform = &platform;
                let stop = &stop;
                scope.spawn(move || {
                    let mut keys = fresh_misses(hot, first_bucket);
                    let mut next = keys.next().expect("a key");
                    let mut tickets = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        if let Ok(t) = platform.submit(next) {
                            tickets.push(t);
                            next = keys.next().expect("more keys than the test admits");
                        }
                    }
                    for t in tickets {
                        let _ = t.wait();
                    }
                });
            }
            // Let the firehose establish its backlog before probing.
            std::thread::sleep(Duration::from_millis(50));
            let busy_before = platform.stats().per_city[hot.index()].rejected_busy;
            let sojourns = cold_trickle(&platform, cold);
            let busy_after = platform.stats().per_city[hot.index()].rejected_busy;
            stop.store(true, Ordering::Relaxed);
            (sojourns, busy_after - busy_before)
        });

        let snap = platform.stats();
        assert!(snap.is_consistent(), "workers {workers}: {snap:?}");
        let hot_row = &snap.per_city[hot.index()];
        let cold_row = &snap.per_city[cold.index()];
        assert!(
            hot_row.admitted > loaded.len() as u64,
            "the firehose must outpace the trickle: {snap:?}"
        );
        assert!(
            hot_busy_during_trickle > 0,
            "workers {workers}: the hot queue never filled while the cold \
             trickle ran, so fairness was not measured under saturation: {snap:?}"
        );
        assert_eq!(
            cold_row.rejected_busy, 0,
            "cold-city sheds while its queue had capacity: {snap:?}"
        );
        assert_eq!(cold_row.admitted, loaded.len() as u64);
        assert_eq!(hot_row.weight, 4);
        assert_eq!(cold_row.weight, 1);
        platform.shutdown();

        let bound = (p99(solo.clone()) * K).max(FLOOR);
        let observed = p99(loaded.clone());
        assert!(
            observed <= bound,
            "workers {workers}: cold p99 {observed:?} exceeds bound {bound:?} \
             (solo p99 {:?})",
            p99(solo)
        );
    }
}
