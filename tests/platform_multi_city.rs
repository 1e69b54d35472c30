//! Multi-city platform integration test (the PR's acceptance bar):
//! two cities registered on one `Platform`, concurrent `submit` traffic
//! from four client threads against both, asserting
//!
//! (a) per-city statistics invariants hold,
//! (b) every served route is byte-identical to the same city's
//!     standalone sequential `RouteService` baseline under
//!     `strict_deterministic`, and
//! (c) `shutdown()` drains gracefully with every admitted ticket
//!     resolved exactly once.

use cp_service::{
    CityId, MachineResolver, Platform, PlatformConfig, Request, RouteService, ServiceConfig,
    ServiceError, Ticket,
};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use std::sync::{Arc, Mutex};

/// A skewed per-city stream: `distinct` OD/time keys × `repeats`.
fn city_stream(world: &SimWorld, distinct: usize, repeats: usize, seed: u64) -> Vec<Request> {
    let ods = world.request_stream(distinct, 2, seed);
    let mut requests = Vec::with_capacity(distinct * repeats);
    for _round in 0..repeats {
        for (i, &(from, to)) in ods.iter().enumerate() {
            let hour = 7.0 + (i % 4) as f64;
            requests.push(Request::new(from, to, TimeOfDay::from_hours(hour)));
        }
    }
    requests
}

#[test]
fn two_cities_four_client_threads_deterministic_drain() {
    let worlds = [
        SimWorld::build(Scale::Small, 5).expect("world A"),
        SimWorld::build(Scale::Small, 9).expect("world B"),
    ];
    let service_worlds = [worlds[0].service_world(), worlds[1].service_world()];
    let per_city: Vec<Vec<Request>> = vec![
        city_stream(&worlds[0], 60, 5, 1234),
        city_stream(&worlds[1], 60, 5, 4321),
    ];

    // Standalone sequential baselines, one per city.
    let mut baselines: Vec<Vec<cp_roadnet::Path>> = Vec::new();
    for (sw, requests) in service_worlds.iter().zip(&per_city) {
        let cfg = ServiceConfig::strict_deterministic();
        let service = RouteService::new(Arc::clone(sw), cfg.clone());
        let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
        baselines.push(
            requests
                .iter()
                .map(|&r| service.handle(r, &mut resolver).expect("baseline").path)
                .collect(),
        );
    }

    // One platform, both cities, a pool smaller than the client count.
    let platform = Platform::start(PlatformConfig {
        city_weight: 1,
        workers: 3,
        queue_capacity: 64,
        maintenance: None,
        batch: None,
        durability: None,
        chaos: None,
    });
    let ids: Vec<CityId> = service_worlds
        .iter()
        .map(|sw| platform.register_city(Arc::clone(sw), ServiceConfig::strict_deterministic()))
        .collect();
    assert_eq!(ids, vec![CityId(0), CityId(1)]);

    // The interleaved global stream: (city index, request index).
    let mixed: Vec<(usize, usize)> = {
        let mut mixed = Vec::new();
        let longest = per_city.iter().map(Vec::len).max().unwrap();
        for i in 0..longest {
            for (c, requests) in per_city.iter().enumerate() {
                if i < requests.len() {
                    mixed.push((c, i));
                }
            }
        }
        mixed
    };

    // Four client threads submit round-robin slices concurrently and
    // join their own tickets.
    let results: Mutex<Vec<Option<Result<cp_roadnet::Path, ServiceError>>>> =
        Mutex::new(vec![None; mixed.len()]);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let platform = &platform;
            let mixed = &mixed;
            let per_city = &per_city;
            let ids = &ids;
            let results = &results;
            s.spawn(move || {
                let mut tickets: Vec<(usize, Ticket)> = Vec::new();
                for (slot, &(c, i)) in mixed.iter().enumerate() {
                    if slot % 4 != t {
                        continue;
                    }
                    let mut req = per_city[c][i];
                    req.city = ids[c];
                    // Blocking submission: the queue is smaller than the
                    // stream, so clients ride the backpressure instead
                    // of shedding.
                    let ticket = platform.submit_blocking(req).expect("admitted");
                    assert_eq!(ticket.city(), ids[c]);
                    tickets.push((slot, ticket));
                }
                let mut out = Vec::with_capacity(tickets.len());
                for (slot, ticket) in tickets {
                    out.push((slot, ticket.wait().map(|served| served.path)));
                }
                let mut results = results.lock().unwrap();
                for (slot, res) in out {
                    assert!(
                        results[slot].replace(res).is_none(),
                        "ticket {slot} resolved twice"
                    );
                }
            });
        }
    });

    // (b) Byte-identical to each city's sequential baseline.
    let results = results.into_inner().unwrap();
    assert_eq!(results.len(), mixed.len());
    for (slot, &(c, i)) in mixed.iter().enumerate() {
        let path = results[slot]
            .as_ref()
            .expect("every ticket resolved exactly once")
            .as_ref()
            .expect("request must succeed");
        assert_eq!(
            *path, baselines[c][i],
            "city {c}, request {i}: differs from its standalone sequential baseline"
        );
    }

    // (a) Per-city stats invariants.
    for (c, id) in ids.iter().enumerate() {
        let snap = platform.city_stats(*id).expect("registered city");
        assert!(snap.is_consistent(), "city {c}: {snap:?}");
        assert_eq!(snap.requests, per_city[c].len() as u64, "city {c}");
        assert_eq!(snap.errors, 0, "city {c}");
        // Exactly one resolution per distinct key, everything else
        // served by reuse or dedup.
        assert_eq!(snap.resolved, 60, "city {c}");
        assert_eq!(
            snap.truth_hits + snap.dedup_hits,
            (per_city[c].len() - 60) as u64,
            "city {c}"
        );
    }
    let agg = platform.stats();
    assert!(agg.is_consistent());
    assert_eq!(agg.admitted, mixed.len() as u64);
    assert_eq!(agg.rejected_busy, 0, "blocking submission never sheds");
    assert_eq!(
        agg.aggregate.requests,
        per_city.iter().map(Vec::len).sum::<usize>() as u64
    );

    // (c) Graceful drain: every ticket has been joined, so every
    // admitted job completed exactly once; shutdown must then return
    // (workers join) without hanging.
    assert_eq!(agg.completed, agg.admitted);
    platform.shutdown();
}

#[test]
fn shutdown_drains_unjoined_tickets_exactly_once() {
    // Submit a burst, join nothing, shut down immediately: the drain
    // must still resolve every admitted ticket exactly once.
    let world = SimWorld::build(Scale::Small, 5).expect("world");
    let sw = world.service_world();
    let platform = Platform::start(PlatformConfig {
        city_weight: 1,
        workers: 4,
        queue_capacity: 512,
        maintenance: None,
        batch: None,
        durability: None,
        chaos: None,
    });
    let id = platform.register_city(Arc::clone(&sw), ServiceConfig::strict_deterministic());
    let requests = city_stream(&world, 40, 3, 77);
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|&r| {
            let mut req = r;
            req.city = id;
            platform.submit_blocking(req).expect("admitted")
        })
        .collect();
    let admitted = platform.stats().admitted;
    assert_eq!(admitted, requests.len() as u64);
    platform.shutdown();
    for (i, ticket) in tickets.iter().enumerate() {
        assert!(ticket.is_done(), "ticket {i} left unresolved by the drain");
        assert!(ticket.try_wait().unwrap().is_ok(), "ticket {i} failed");
    }
}

/// The shared condvars under churn. For 1, 2 and 4 workers and one- to
/// four-slot queues: three cities weighted 3:1:1, two submitter threads
/// per city alternating `submit` and `submit_blocking`, the third city
/// deregistered mid-run, and shutdown with jobs still queued. Every
/// city's blocked submitters park on the one `not_full` condvar, so
/// they are woken by pops of any city and by the offboarding. Every
/// mid-run snapshot must balance, every ticket must resolve exactly
/// once, and no blocked submitter may hang. (Shutdown with submitters
/// still parked needs crate-internal access; the platform unit test
/// `shutdown_wakes_submitters_blocked_on_every_city` covers it.)
#[test]
fn shared_condvars_wake_blocked_submitters_through_pops_offboarding_and_drain() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let worlds: Vec<SimWorld> = [5, 9, 13]
        .into_iter()
        .map(|seed| SimWorld::build(Scale::Small, seed).expect("world"))
        .collect();
    let streams: Vec<Vec<Request>> = worlds
        .iter()
        .zip(100u64..)
        .map(|(world, seed)| city_stream(world, 24, 1, seed))
        .collect();
    let gone = CityId(2);
    for workers in [1, 2, 4] {
        for capacity in 1..=4 {
            let platform = Platform::start(PlatformConfig {
                workers,
                queue_capacity: capacity,
                ..PlatformConfig::default()
            });
            let ids: Vec<CityId> = worlds
                .iter()
                .map(|w| {
                    platform.register_city(w.service_world(), ServiceConfig::strict_deterministic())
                })
                .collect();
            assert_eq!(ids[2], gone);
            for (&id, weight) in ids.iter().zip([3, 1, 1]) {
                assert!(platform.set_city_weight(id, weight));
            }
            let finished = AtomicUsize::new(0);
            let tickets: Vec<Ticket> = std::thread::scope(|s| {
                let submitters: Vec<_> = (0..6)
                    .map(|t| {
                        let (platform, finished) = (&platform, &finished);
                        let (city, stream) = (ids[t % 3], &streams[t % 3]);
                        s.spawn(move || {
                            let mut tickets = Vec::new();
                            for (i, &req) in stream.iter().enumerate().skip(t / 3).step_by(2) {
                                let req = Request { city, ..req };
                                let submitted = if i % 4 < 2 {
                                    platform.submit_blocking(req)
                                } else {
                                    platform.submit(req)
                                };
                                match submitted {
                                    Ok(ticket) => tickets.push(ticket),
                                    Err(ServiceError::Busy) => {}
                                    Err(ServiceError::CityOffboarded(c)) if c == gone => {}
                                    Err(e) => panic!("unexpected rejection: {e}"),
                                }
                            }
                            finished.fetch_add(1, Ordering::Relaxed);
                            tickets
                        })
                    })
                    .collect();
                // Offboard the third city once it has admitted some
                // work, checking the ledger throughout.
                let mut offboarded = false;
                while finished.load(Ordering::Relaxed) < submitters.len() {
                    let snap = platform.stats();
                    assert!(snap.is_consistent(), "{snap:?}");
                    if !offboarded && snap.per_city[2].admitted >= 4 {
                        platform.deregister_city(gone).expect("registered");
                        offboarded = true;
                    }
                    std::thread::yield_now();
                }
                if !offboarded {
                    platform.deregister_city(gone).expect("registered");
                }
                submitters
                    .into_iter()
                    .flat_map(|h| h.join().expect("submitter"))
                    .collect()
            });
            let snap = platform.stats();
            assert!(snap.is_consistent(), "{snap:?}");
            assert_eq!(snap.admitted, tickets.len() as u64);
            assert!(snap.per_city[2].offboarded);
            platform.shutdown();
            // The drain resolved whatever was still queued; `wait`
            // consumes each ticket, so each result is taken once.
            let label = format!("{workers} workers, {capacity} slots");
            let mut completed = 0u64;
            for ticket in tickets {
                assert!(ticket.is_done(), "{label}: a ticket outlived the drain");
                let city = ticket.city();
                match ticket.wait() {
                    Ok(_) => completed += 1,
                    Err(ServiceError::CityOffboarded(c)) if c == gone && city == gone => {}
                    Err(e) => panic!("{label}: ticket for {city} failed: {e}"),
                }
            }
            // Shed tickets resolve with the offboarding error; every
            // other admitted ticket completed.
            assert_eq!(completed + snap.shed, snap.admitted, "{label}: {snap:?}");
        }
    }
}
