//! The two-city serving platform behind the `cp-gateway` HTTP edge — the
//! one runnable HTTP server in the tree.
//!
//! Two cities share one platform: a Medium "metro" and a Small
//! "satellite town". Each city has its own bounded ingress queue;
//! `--metro-weight <n>` (default 4) sets the metro's weighted-DRR
//! dispatch quantum. The platform is built once and served on
//! `127.0.0.1:8080` (`--http <addr>` overrides the bind address) —
//! `GET /route`, `/stats`, `/trace`, `/healthz`. The process shuts down
//! **gracefully**: type `stop` (or close stdin) and the gateway drains
//! its connections before the platform drains its queue. Load
//! generation and latency measurement live in `benchmark/` (`wire_mix`
//! drives this same edge), not here.
//!
//! With `--crowd`, both cities are registered **crowd-backed** (the
//! owned `CrowdResolver` pipeline on the resident pool): each city's
//! resolvers share one quota-capped `SharedCrowd` desk.
//!
//! With `--batch`, workers dequeue each request together with up to 15
//! already-queued requests sharing its `(city, origin cell)` and mine
//! the run through shared per-origin artifacts.
//!
//! With `--trace`, cities register with sampled span tracing enabled and
//! `GET /trace` carries per-stage attribution and sampled request traces.
//!
//! With `--snapshot-dir <dir>`, the platform runs with durability on:
//! committed resolutions stream into a write-ahead log under `<dir>`,
//! existing state (snapshot + WAL) is **recovered on startup**, and a
//! checkpoint (snapshot + log truncation) is written on clean exit —
//! kill the process, restart, and the truth store and crowd answer
//! history are intact.
//!
//! With `--chaos <seed>`, the platform runs its seeded chaos engine
//! (the standard plan: 10% crowd no-shows + 1% slow workers) and crowd
//! cities get a circuit breaker; `/stats` carries the injected-fault
//! counts and `/healthz` the per-city breaker states.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serve_city               # machine-only, 127.0.0.1:8080
//! cargo run --release --example serve_city -- --crowd    # crowd-backed
//! cargo run --release --example serve_city -- --batch    # + origin-cell coalescing
//! cargo run --release --example serve_city -- --trace    # + stage attribution on /trace
//! cargo run --release --example serve_city -- --http 127.0.0.1:0 --snapshot-dir /tmp/cp  # durable
//! cargo run --release --example serve_city -- --crowd --chaos 7  # + fault injection
//! ```

use cp_gateway::{Gateway, GatewayConfig};
use cp_service::{
    BatchConfig, BreakerConfig, ChaosConfig, DurabilityConfig, Platform, PlatformConfig,
    ServiceConfig, TraceConfig,
};
use crowdplanner::sim::{Scale, SimWorld};
use std::time::{Duration, Instant};

/// Builds the shared two-city platform, honouring the
/// resolution/batching/tracing flags; returns it with the metro's id.
fn build_platform(
    metro: &SimWorld,
    metro_world: &std::sync::Arc<cp_service::World>,
    town: &SimWorld,
    town_world: &std::sync::Arc<cp_service::World>,
    workers: usize,
    crowd: bool,
    batch: bool,
    trace: bool,
    metro_weight: u32,
    snapshot_dir: Option<&std::path::Path>,
    chaos_seed: Option<u64>,
) -> (Platform, cp_service::CityId) {
    let platform = Platform::start(PlatformConfig {
        workers,
        city_weight: 1,
        queue_capacity: 512,
        maintenance: None,
        batch: batch.then(|| BatchConfig::adaptive(16, Duration::from_millis(2))),
        durability: snapshot_dir.map(DurabilityConfig::new),
        chaos: chaos_seed.map(ChaosConfig::new),
    });
    let service_cfg = || {
        let mut cfg = ServiceConfig::default();
        if trace {
            // Counters on every request, one full trace per 64
            // requests kept in a 32-entry ring per city.
            cfg.trace = TraceConfig::sampled(64, 32);
        }
        cfg
    };
    let register = |sim: &SimWorld, world: &std::sync::Arc<cp_service::World>, seed: u64| {
        if crowd {
            // 200 workers per city behind a shared desk; at most 3
            // concurrently outstanding tasks per human worker. Under
            // chaos the city also gets a circuit breaker, so injected
            // no-show storms degrade it to machine-only instead of
            // hammering a failing crowd.
            let mut serving = sim.crowd_serving(200, 15, seed, 3);
            if chaos_seed.is_some() {
                serving = serving.with_breaker(BreakerConfig::default());
            }
            platform
                .register_city_crowd(world.clone(), service_cfg(), serving)
                .expect("crowd serving inputs are valid")
        } else {
            platform.register_city(world.clone(), service_cfg())
        }
    };
    let metro_id = register(metro, metro_world, 42);
    register(town, town_world, 7);
    // The metro is expected to carry most requests; give it a matching
    // DRR quantum so a saturated platform serves the two queues roughly
    // in proportion to their traffic instead of strictly alternating.
    // The town keeps weight 1 — the deficit guarantees it can never be
    // starved, whatever the metro's weight.
    assert!(platform.set_city_weight(metro_id, metro_weight));
    (platform, metro_id)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let crowd = args.iter().any(|a| a == "--crowd");
    let batch = args.iter().any(|a| a == "--batch");
    let trace = args.iter().any(|a| a == "--trace");
    // `--metro-weight <n>`: the metro's DRR dispatch weight (the town
    // stays at 1). Defaults to 4.
    let metro_weight: u32 = args
        .iter()
        .position(|a| a == "--metro-weight")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--metro-weight takes an integer"))
        .unwrap_or(4);
    // `--http <addr>` overrides the bind address.
    let addr: String = args
        .iter()
        .position(|a| a == "--http")
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:8080".to_string());
    // `--snapshot-dir <dir>`: durability on, recover on startup,
    // checkpoint on clean exit.
    let snapshot_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--snapshot-dir")
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .map(std::path::PathBuf::from);
    // `--chaos <seed>`: run the seeded chaos engine (standard fault
    // plan); the seed defaults to 7 so `--chaos` alone is reproducible
    // too.
    let chaos_seed: Option<u64> = args.iter().position(|a| a == "--chaos").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(|v| v.parse().expect("--chaos takes an integer seed"))
            .unwrap_or(7)
    });
    let t0 = Instant::now();
    println!("building worlds (Medium metro + Small satellite)…");
    let metro = SimWorld::build(Scale::Medium, 42).expect("metro world");
    let town = SimWorld::build(Scale::Small, 7).expect("town world");
    let metro_world = metro.service_world();
    let town_world = town.service_world();
    println!(
        "  metro: {} intersections, {} trips; town: {} intersections; built in {:.1?}\n",
        metro.city.graph.node_count(),
        metro.trips.trips.len(),
        town.city.graph.node_count(),
        t0.elapsed()
    );

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);

    let (platform, metro_id) = build_platform(
        &metro,
        &metro_world,
        &town,
        &town_world,
        workers,
        crowd,
        batch,
        trace,
        metro_weight,
        snapshot_dir.as_deref(),
        chaos_seed,
    );
    // Warm restart: if the snapshot dir already holds state from a
    // previous run, load it before opening the edge.
    if let Some(dir) = &snapshot_dir {
        match platform.recover_from(dir) {
            Ok(report) => {
                if report.truths_restored + report.truths_replayed > 0
                    || report.answers_replayed > 0
                {
                    println!(
                        "recovered from {}: {} truths from the snapshot, {} replayed \
                         from the log ({} answers replayed)",
                        dir.display(),
                        report.truths_restored,
                        report.truths_replayed,
                        report.answers_replayed
                    );
                }
            }
            Err(e) => eprintln!("recovery from {} failed: {e}; serving cold", dir.display()),
        }
    }
    let platform = std::sync::Arc::new(platform);
    let gw = Gateway::start(
        std::sync::Arc::clone(&platform),
        GatewayConfig {
            addr,
            handler_threads: workers,
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds");
    let (from, to) = metro.request_stream(1, 4, 777)[0];
    println!("serving on http://{}", gw.local_addr());
    println!(
        "  GET /route?city={}&o={}&d={}&t=8  — plan a route",
        metro_id.0, from.0, to.0
    );
    println!("  GET /stats                        — gateway + platform counters");
    println!("  GET /trace                        — span-level trace report");
    println!("  GET /healthz                      — liveness");
    println!("type \"stop\" (or close stdin) for a graceful shutdown.");
    // Graceful shutdown: block on stdin instead of parking forever.
    // A "stop"/"quit" line — or EOF, so piped deployments can just
    // close the handle — drains the edge before the platform.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {
                let cmd = line.trim();
                if cmd.eq_ignore_ascii_case("stop") || cmd.eq_ignore_ascii_case("quit") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    println!("draining the gateway…");
    gw.shutdown();
    if let Some(dir) = &snapshot_dir {
        match platform.checkpoint() {
            Ok(watermark) => println!(
                "checkpointed to {} (WAL watermark {watermark})",
                dir.display()
            ),
            Err(e) => eprintln!("checkpoint failed: {e}"),
        }
    }
    // The joined gateway released its handle; either way `Drop`
    // drains the platform.
    match std::sync::Arc::try_unwrap(platform) {
        Ok(platform) => platform.shutdown(),
        Err(platform) => drop(platform),
    }
    println!("done.");
}
