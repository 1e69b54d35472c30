//! Allocation-overhead guard for the tracing subsystem: with
//! `TraceConfig::Off` the instrumentation must add **zero** allocations
//! to the serve path, and `Counters` must stay allocation-identical to
//! `Off` (histograms are fixed atomic arrays; only `Sampled` may
//! allocate, for its event buffers and ring).
//!
//! Measured with a counting `#[global_allocator]` over a warm
//! truth-hit workload (the hottest serve path: no mining, no
//! resolution). The counter is process-global, so the window is made
//! exact by quiescence: this file holds exactly one `#[test]` (no
//! sibling test's allocations bleed in), and each leg has only its own
//! serving threads alive and busy while `COUNTING` is set.

use cp_roadnet::NodeId;
use cp_service::{
    ChaosConfig, DurabilityConfig, FaultPlan, FsyncPolicy, MachineResolver, Platform,
    PlatformConfig, Request, RouteService, Served, ServiceConfig, TraceConfig,
};
use cp_traj::TimeOfDay;
use crowdplanner::sim::{Scale, SimWorld};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocations (and reallocations) while `COUNTING` is set;
/// delegates all memory management to the system allocator.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serves `rounds` warm truth-hit requests under the given tracing level
/// and returns how many allocations the counted window saw. The first
/// requests resolve and commit outside the window; the counted handles
/// all hit the truth store, so the workload is deterministic and
/// identical across levels.
fn warm_truth_hit_allocs(sim: &SimWorld, trace: TraceConfig, rounds: usize) -> u64 {
    let sw = sim.service_world();
    let mut cfg = ServiceConfig::strict_deterministic();
    cfg.trace = trace;
    let service = RouteService::new(Arc::clone(&sw), cfg.clone());
    let mut resolver = MachineResolver::new(sw.graph_arc(), cfg.core);
    let req = Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
    // Warm: resolve + commit once, then a few hits to settle any lazy
    // one-time allocation anywhere on the path.
    for _ in 0..4 {
        service.handle(req, &mut resolver).expect("warmup");
    }
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut outcomes = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        outcomes.push(service.handle(req, &mut resolver).expect("warm hit"));
    }
    COUNTING.store(false, Ordering::SeqCst);
    for served in outcomes {
        assert_eq!(served.served, Served::TruthHit);
    }
    ALLOCS.load(Ordering::SeqCst)
}

/// Serves `rounds` warm truth-hit requests through a single-worker
/// `Platform` — optionally with durability configured — and returns the
/// counted window's allocations. Warm hits never reach a commit site,
/// so an idle durability runtime must leave the count untouched.
fn platform_truth_hit_allocs(
    sim: &SimWorld,
    durability: Option<DurabilityConfig>,
    chaos: Option<ChaosConfig>,
    rounds: usize,
) -> u64 {
    let platform = Platform::start(PlatformConfig {
        city_weight: 1,
        workers: 1,
        queue_capacity: 16,
        maintenance: None,
        batch: None,
        durability,
        chaos,
    });
    let id = platform.register_city(sim.service_world(), ServiceConfig::strict_deterministic());
    let req = Request::to_city(id, NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
    for _ in 0..4 {
        platform
            .submit_blocking(req)
            .expect("admitted")
            .wait()
            .expect("warmup");
    }
    // The warm-up's one commit is appended asynchronously: without this
    // barrier the `cp-durable-writer` thread's encode-and-append
    // allocations (1–5 of them) land inside the counted window whenever
    // it lags the three warm hits. After the ack it only blocks on its
    // channel; every other background thread of earlier legs was joined
    // by `shutdown`.
    platform.sync_durable();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let mut outcomes = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        outcomes.push(
            platform
                .submit_blocking(req)
                .expect("admitted")
                .wait()
                .expect("warm hit"),
        );
    }
    COUNTING.store(false, Ordering::SeqCst);
    for served in outcomes {
        assert_eq!(served.served, Served::TruthHit);
    }
    platform.shutdown();
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn disabled_tracing_adds_zero_allocations_to_the_serve_path() {
    let sim = SimWorld::build(Scale::Small, 5).expect("world");
    const ROUNDS: usize = 64;
    let off = warm_truth_hit_allocs(&sim, TraceConfig::Off, ROUNDS);
    let counters = warm_truth_hit_allocs(&sim, TraceConfig::counters(), ROUNDS);
    let sampled = warm_truth_hit_allocs(&sim, TraceConfig::sampled(1, ROUNDS), ROUNDS);
    // `Off` is the untraced baseline; `Counters` must match it exactly —
    // per-stage histograms are pre-sized atomic arrays and lock timing
    // is try-lock-first, so neither may touch the allocator.
    assert_eq!(
        counters, off,
        "counter tracing must not allocate on the serve path"
    );
    // Sampling pays for what it keeps: event buffers and ring entries.
    assert!(
        sampled > off,
        "sampling every call must allocate for its traces (off={off}, sampled={sampled})"
    );

    // The durability guard: whether the commit log is off or merely
    // idle (configured, but warm hits never commit), the platform serve
    // path must allocate identically — the off path is a single atomic
    // load, and the sink is only ever consulted at commit sites.
    let dir = std::env::temp_dir().join(format!("cp_alloc_guard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plat_off = platform_truth_hit_allocs(&sim, None, None, ROUNDS);
    let plat_on = platform_truth_hit_allocs(
        &sim,
        Some(DurabilityConfig::new(&dir).with_fsync(FsyncPolicy::Never)),
        None,
        ROUNDS,
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        plat_on, plat_off,
        "an idle durability runtime must not allocate on the warm serve path"
    );

    // The chaos guard: an armed chaos engine whose fault plan is all
    // zeros must be invisible to the warm serve path — `roll` bails on
    // the rate check before touching anything, so the count must match
    // the chaos-free platform exactly.
    let plat_quiet_chaos = platform_truth_hit_allocs(
        &sim,
        None,
        Some(ChaosConfig::new(7).with_plan(FaultPlan::none())),
        ROUNDS,
    );
    assert_eq!(
        plat_quiet_chaos, plat_off,
        "a zero-rate chaos engine must not allocate on the warm serve path"
    );
}
