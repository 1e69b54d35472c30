//! Deterministic fault injection ("chaos") and the graceful-degradation
//! machinery it exercises.
//!
//! The platform's tests and benches historically ran against a *healthy*
//! world; the paper's crowdsourced operating regime is anything but —
//! workers no-show, answers trickle in, machines stall, disks hiccup.
//! This module makes those failures first-class, reproducible inputs:
//!
//! * [`ChaosConfig`] / [`FaultPlan`] — a seeded schedule of fault
//!   probabilities, hung off [`PlatformConfig::chaos`]. Off by default;
//!   the off path is **allocation- and clock-free** (a `None` check at
//!   every seam, guarded by the counting-allocator test in
//!   `tests/trace_overhead.rs`), mirroring `TraceConfig` and
//!   `DurabilityConfig`.
//! * Injection seams reuse the machinery built for *real* failures:
//!   crowd no-shows surface as [`QuotaExhausted`] refusals on the
//!   [`CrowdDesk`] reserve path (exactly how a saturated human worker
//!   already presents), injected resolver panics unwind into the worker
//!   pool's existing containment, and injected WAL write errors exercise
//!   the durability writer's bounded retry loop.
//! * Every draw is deterministic: site `s` keeps its own draw counter
//!   `n`, and the decision is a pure function `splitmix64(seed ⊕ salt(s)
//!   ⊕ mix(n)) < rate`. Two runs with the same seed, plan and per-site
//!   arrival orders inject the same schedule; thread interleaving only
//!   permutes *which* request absorbs a given fault, never how many
//!   faults a site injects per N draws.
//! * `CrowdBreaker` (crate-private; configure with [`BreakerConfig`]) —
//!   the per-city crowd circuit breaker: a sliding
//!   window of crowd outcomes trips to machine-only resolution when the
//!   starvation/no-show rate crosses a threshold, then half-open-probes
//!   its way back. Trips/probes/recoveries are counted and surfaced per
//!   city in [`PlatformSnapshot`] (and the gateway's `/stats` and
//!   `/healthz`).
//!
//! [`PlatformConfig::chaos`]: crate::platform::PlatformConfig
//! [`PlatformSnapshot`]: crate::platform::PlatformSnapshot

use crate::error::ServiceError;
use crate::json::{self, JsonObject};
use crate::resolver::{MachineResolver, Resolved, Resolver};
use cp_crowd::{
    AnswerTally, CrowdDesk, CrowdObserve, DeskStats, QuotaExhausted, WorkerId, WorkerPopulation,
};
use cp_mining::CandidateRoute;
use cp_roadnet::{Landmark, LandmarkId, NodeId};
use cp_traj::TimeOfDay;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Per-fault-class injection probabilities, each in `[0, 1]` per draw at
/// that class's seam. All-zero means "chaos plumbing active, nothing
/// injected" — useful for flipping faults on at runtime via
/// [`Platform::set_chaos_plan`](crate::platform::Platform::set_chaos_plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// A crowd worker silently never picks the task up: the desk's
    /// reserve is refused as if the worker's quota were exhausted.
    pub crowd_no_show: f64,
    /// A crowd answer arrives, but late: the reported response time is
    /// inflated by the configured penalty.
    pub crowd_slow_answer: f64,
    /// A platform worker dispatches slowly (short injected sleep).
    pub slow_worker: f64,
    /// A platform worker stalls (long injected sleep).
    pub stall_worker: f64,
    /// A resolver panics mid-request (contained by the worker pool; the
    /// ticket fails with `ResolverPanicked`, the pool survives).
    pub resolver_panic: f64,
    /// A durability WAL append transiently fails (recovered by the
    /// writer's bounded retry-with-backoff).
    pub durability_io_error: f64,
    /// The world's generation is bumped under load (invalidating the
    /// mining-artifact cache mid-stream).
    pub generation_churn: f64,
}

impl FaultPlan {
    /// No faults at any site.
    pub const fn none() -> Self {
        FaultPlan {
            crowd_no_show: 0.0,
            crowd_slow_answer: 0.0,
            slow_worker: 0.0,
            stall_worker: 0.0,
            resolver_panic: 0.0,
            durability_io_error: 0.0,
            generation_churn: 0.0,
        }
    }

    /// The standard bench/demo plan: 10 % crowd no-shows + 1 % slow
    /// workers — the regime the ISSUE's acceptance bar measures.
    pub const fn standard() -> Self {
        FaultPlan {
            crowd_no_show: 0.10,
            slow_worker: 0.01,
            ..FaultPlan::none()
        }
    }

    /// Every rate clamped into `[0, 1]` (NaN becomes 0).
    pub fn clamped(self) -> Self {
        let c = |r: f64| if r.is_nan() { 0.0 } else { r.clamp(0.0, 1.0) };
        FaultPlan {
            crowd_no_show: c(self.crowd_no_show),
            crowd_slow_answer: c(self.crowd_slow_answer),
            slow_worker: c(self.slow_worker),
            stall_worker: c(self.stall_worker),
            resolver_panic: c(self.resolver_panic),
            durability_io_error: c(self.durability_io_error),
            generation_churn: c(self.generation_churn),
        }
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::CrowdNoShow => self.crowd_no_show,
            FaultSite::CrowdSlowAnswer => self.crowd_slow_answer,
            FaultSite::SlowWorker => self.slow_worker,
            FaultSite::StallWorker => self.stall_worker,
            FaultSite::ResolverPanic => self.resolver_panic,
            FaultSite::DurabilityIo => self.durability_io_error,
            FaultSite::GenerationChurn => self.generation_churn,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Seeded, deterministic fault-injection configuration
/// (`PlatformConfig::chaos`). `None` (the default) keeps the platform's
/// serve path allocation- and clock-identical to a chaos-free build.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Root seed for every per-site decision stream.
    pub seed: u64,
    /// Per-class injection rates.
    pub plan: FaultPlan,
}

impl ChaosConfig {
    /// The standard plan ([`FaultPlan::standard`]) under `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            plan: FaultPlan::standard(),
        }
    }

    /// Replaces the fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// The injection seams, one deterministic decision stream each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Crowd reserve refused (worker never shows).
    CrowdNoShow,
    /// Crowd answer delayed.
    CrowdSlowAnswer,
    /// Worker dispatch slowed.
    SlowWorker,
    /// Worker dispatch stalled.
    StallWorker,
    /// Resolver panic.
    ResolverPanic,
    /// Durability WAL write error.
    DurabilityIo,
    /// World generation bump under load.
    GenerationChurn,
}

impl FaultSite {
    /// Number of fault sites.
    pub const COUNT: usize = 7;
    /// Every site, in index order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::CrowdNoShow,
        FaultSite::CrowdSlowAnswer,
        FaultSite::SlowWorker,
        FaultSite::StallWorker,
        FaultSite::ResolverPanic,
        FaultSite::DurabilityIo,
        FaultSite::GenerationChurn,
    ];

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultSite::CrowdNoShow => 0,
            FaultSite::CrowdSlowAnswer => 1,
            FaultSite::SlowWorker => 2,
            FaultSite::StallWorker => 3,
            FaultSite::ResolverPanic => 4,
            FaultSite::DurabilityIo => 5,
            FaultSite::GenerationChurn => 6,
        }
    }

    /// Stable site name (JSON keys, demo columns).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CrowdNoShow => "crowd_no_show",
            FaultSite::CrowdSlowAnswer => "crowd_slow_answer",
            FaultSite::SlowWorker => "slow_worker",
            FaultSite::StallWorker => "stall_worker",
            FaultSite::ResolverPanic => "resolver_panic",
            FaultSite::DurabilityIo => "durability_io_error",
            FaultSite::GenerationChurn => "generation_churn",
        }
    }

    /// Decorrelates the site's stream from every other site's.
    fn salt(self) -> u64 {
        // Arbitrary fixed odd constants; any distinct values work.
        const SALTS: [u64; FaultSite::COUNT] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0xD6E8_FEB8_6659_FD93,
            0xA076_1D64_95FD_46F1,
            0xE703_7ED1_A0B4_28DB,
            0x8EBC_6AF0_9C88_C6E3,
        ];
        SALTS[self.index()]
    }
}

/// `splitmix64` finalizer: a high-quality 64-bit mix, `std`-only.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Injected sleep for a `slow_worker` fault.
pub(crate) const SLOW_WORKER_DELAY: Duration = Duration::from_micros(200);
/// Injected sleep for a `stall_worker` fault.
pub(crate) const STALL_WORKER_DELAY: Duration = Duration::from_millis(2);
/// Seconds added to a `crowd_slow_answer` fault's reported response time.
const CROWD_SLOW_PENALTY_S: f64 = 30.0;
/// How many leading attempts an injected WAL fault fails before the
/// writer's retry succeeds (so the retry loop, not just the error
/// counter, is exercised).
pub(crate) const DURABILITY_FAIL_ATTEMPTS: u32 = 1;

/// Shared runtime state of an active chaos engine: per-site rates
/// (retunable live), draw cursors and injected-fault counters. All
/// atomics — a draw is two relaxed atomic ops and a multiply, no locks.
pub(crate) struct ChaosState {
    seed: u64,
    /// Per-site rate, stored as `f64::to_bits` for lock-free retuning.
    rates: [AtomicU64; FaultSite::COUNT],
    /// Per-site deterministic stream position.
    draws: [AtomicU64; FaultSite::COUNT],
    /// Per-site injected-fault counts.
    injected: [AtomicU64; FaultSite::COUNT],
}

impl ChaosState {
    pub(crate) fn new(cfg: &ChaosConfig) -> Self {
        let state = ChaosState {
            seed: cfg.seed,
            rates: std::array::from_fn(|_| AtomicU64::new(0)),
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        state.set_plan(cfg.plan);
        state
    }

    /// Retunes every site's rate (live; takes effect on the next draw).
    pub(crate) fn set_plan(&self, plan: FaultPlan) {
        let plan = plan.clamped();
        for site in FaultSite::ALL {
            self.rates[site.index()].store(plan.rate(site).to_bits(), Relaxed);
        }
    }

    /// Draws the site's next deterministic decision; counts a hit.
    pub(crate) fn roll(&self, site: FaultSite) -> bool {
        let rate = f64::from_bits(self.rates[site.index()].load(Relaxed));
        if rate <= 0.0 {
            return false;
        }
        let n = self.draws[site.index()].fetch_add(1, Relaxed);
        let z = splitmix64(self.seed ^ site.salt() ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
        // Top 53 bits → uniform in [0, 1).
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        let hit = u < rate;
        if hit {
            self.injected[site.index()].fetch_add(1, Relaxed);
        }
        hit
    }

    /// Point-in-time injected-fault counts.
    pub(crate) fn snapshot(&self) -> ChaosSnapshot {
        let c = |s: FaultSite| self.injected[s.index()].load(Relaxed);
        ChaosSnapshot {
            seed: self.seed,
            crowd_no_shows: c(FaultSite::CrowdNoShow),
            crowd_slow_answers: c(FaultSite::CrowdSlowAnswer),
            slow_workers: c(FaultSite::SlowWorker),
            stalled_workers: c(FaultSite::StallWorker),
            resolver_panics: c(FaultSite::ResolverPanic),
            durability_io_errors: c(FaultSite::DurabilityIo),
            generation_bumps: c(FaultSite::GenerationChurn),
        }
    }
}

/// Point-in-time injected-fault counts, folded into
/// [`PlatformSnapshot`](crate::platform::PlatformSnapshot),
/// `trace_report()` and the gateway's `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// The engine's root seed (reproduce a run by reusing it).
    pub seed: u64,
    /// Crowd reserves refused by injection.
    pub crowd_no_shows: u64,
    /// Crowd answers delayed by injection.
    pub crowd_slow_answers: u64,
    /// Worker dispatches slowed by injection.
    pub slow_workers: u64,
    /// Worker dispatches stalled by injection.
    pub stalled_workers: u64,
    /// Resolver panics injected.
    pub resolver_panics: u64,
    /// WAL write errors injected.
    pub durability_io_errors: u64,
    /// Generation bumps injected.
    pub generation_bumps: u64,
}

impl ChaosSnapshot {
    /// Total faults injected across every site.
    pub fn total_injected(&self) -> u64 {
        self.crowd_no_shows
            + self.crowd_slow_answers
            + self.slow_workers
            + self.stalled_workers
            + self.resolver_panics
            + self.durability_io_errors
            + self.generation_bumps
    }

    /// The counters as a JSON object, left open so `/stats` can append
    /// its derived `total_injected`.
    pub fn to_json(&self) -> JsonObject {
        json::object()
            .field("seed", self.seed)
            .field("crowd_no_shows", self.crowd_no_shows)
            .field("crowd_slow_answers", self.crowd_slow_answers)
            .field("slow_workers", self.slow_workers)
            .field("stalled_workers", self.stalled_workers)
            .field("resolver_panics", self.resolver_panics)
            .field("durability_io_errors", self.durability_io_errors)
            .field("generation_bumps", self.generation_bumps)
    }
}

// ---------------------------------------------------------------------------
// Crowd-side injection: the desk decorator.
// ---------------------------------------------------------------------------

/// [`CrowdDesk`] decorator injecting crowd no-shows (refused reserves)
/// and slow answers (inflated response times). Installed around a crowd
/// city's desk when the platform runs with chaos active; everything else
/// delegates to the wrapped desk.
pub(crate) struct ChaosDesk {
    inner: Arc<dyn CrowdDesk>,
    chaos: Arc<ChaosState>,
}

impl ChaosDesk {
    pub(crate) fn new(inner: Arc<dyn CrowdDesk>, chaos: Arc<ChaosState>) -> Self {
        ChaosDesk { inner, chaos }
    }
}

impl CrowdObserve for ChaosDesk {
    fn population(&self) -> &WorkerPopulation {
        self.inner.population()
    }

    fn worker_history(&self, worker: WorkerId) -> Vec<(LandmarkId, AnswerTally)> {
        self.inner.worker_history(worker)
    }

    fn response_times(&self, worker: WorkerId) -> Vec<f64> {
        self.inner.response_times(worker)
    }

    fn response_time_stats(&self, worker: WorkerId) -> (usize, f64) {
        self.inner.response_time_stats(worker)
    }

    fn selection_snapshot(&self) -> Vec<(u32, usize, f64)> {
        self.inner.selection_snapshot()
    }

    fn history_snapshot(&self) -> (u64, Vec<Vec<(LandmarkId, AnswerTally)>>) {
        self.inner.history_snapshot()
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

impl CrowdDesk for ChaosDesk {
    fn max_outstanding(&self) -> u32 {
        self.inner.max_outstanding()
    }

    fn try_reserve(&self, worker: WorkerId) -> Result<(), QuotaExhausted> {
        // A no-show presents exactly like a saturated worker: the
        // reserve is refused, the caller skips to the next candidate,
        // and a fully refused task degrades/starves through the same
        // paths a real quota storm exercises.
        if self.chaos.roll(FaultSite::CrowdNoShow) {
            return Err(QuotaExhausted {
                worker,
                outstanding: self.inner.outstanding(worker),
                max_outstanding: self.inner.max_outstanding(),
            });
        }
        self.inner.try_reserve(worker)
    }

    fn ask(&self, worker: WorkerId, landmark: &Landmark, truth: bool) -> (bool, f64) {
        let (answer, rt) = self.inner.ask(worker, landmark, truth);
        if self.chaos.roll(FaultSite::CrowdSlowAnswer) {
            return (answer, rt + CROWD_SLOW_PENALTY_S);
        }
        (answer, rt)
    }

    fn award(&self, worker: WorkerId, points: f64) {
        self.inner.award(worker, points);
    }

    fn commit(&self, worker: WorkerId) {
        self.inner.commit(worker);
    }

    fn release(&self, worker: WorkerId) {
        self.inner.release(worker);
    }

    fn desk_stats(&self) -> DeskStats {
        self.inner.desk_stats()
    }
}

// ---------------------------------------------------------------------------
// Resolver-side injection: the panic wrapper.
// ---------------------------------------------------------------------------

/// Resolver wrapper injecting panics (contained by the worker pool's
/// `catch_unwind`; the ticket fails with `ResolverPanicked`, the worker
/// discards the resolver and rebuilds it lazily — the same path a *real*
/// resolver bug takes).
pub(crate) struct ChaosResolver {
    inner: Box<dyn Resolver + Send>,
    chaos: Arc<ChaosState>,
}

impl ChaosResolver {
    pub(crate) fn new(inner: Box<dyn Resolver + Send>, chaos: Arc<ChaosState>) -> Self {
        ChaosResolver { inner, chaos }
    }
}

impl Resolver for ChaosResolver {
    fn resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[CandidateRoute],
    ) -> Result<Resolved, ServiceError> {
        if self.chaos.roll(FaultSite::ResolverPanic) {
            panic!("chaos: injected resolver panic");
        }
        self.inner.resolve(from, to, departure, candidates)
    }
}

// ---------------------------------------------------------------------------
// Graceful degradation: the per-city crowd circuit breaker.
// ---------------------------------------------------------------------------

/// Circuit-breaker tuning for a crowd-backed city
/// (`CrowdServing::breaker`). Count-based (no clocks): deterministic
/// under test, and the open→half-open transition cannot stall when
/// traffic stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Sliding window of recent crowd outcomes the trip decision reads.
    pub window: usize,
    /// Failure fraction within the window that trips the breaker.
    pub trip_ratio: f64,
    /// Minimum outcomes in the window before a trip is possible.
    pub min_samples: usize,
    /// Machine-only serves after a trip before the breaker half-opens
    /// and probes the crowd again.
    pub open_serves: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 16,
            trip_ratio: 0.5,
            min_samples: 8,
            open_serves: 8,
        }
    }
}

impl BreakerConfig {
    /// Clamps every knob into its sane range.
    pub fn normalized(self) -> Self {
        let window = self.window.max(1);
        BreakerConfig {
            window,
            trip_ratio: if self.trip_ratio.is_nan() {
                1.0
            } else {
                self.trip_ratio.clamp(0.0, 1.0)
            },
            min_samples: self.min_samples.clamp(1, window),
            open_serves: self.open_serves.max(1),
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: crowd resolution.
    Closed,
    /// Tripped: machine-only resolution.
    Open,
    /// Probing: one request is testing the crowd; the rest serve
    /// machine-only.
    HalfOpen,
}

impl BreakerState {
    /// Stable name (JSON, demo columns).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Point-in-time breaker observables, surfaced per city in
/// [`PlatformSnapshot`](crate::platform::PlatformSnapshot) (and the
/// gateway's `/stats` + `/healthz`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Closed→open transitions (including failed probes re-opening).
    pub trips: u64,
    /// Half-open probes sent through the crowd.
    pub probes: u64,
    /// Successful probes closing the breaker.
    pub recoveries: u64,
    /// Requests served machine-only because the breaker was not closed.
    pub machine_serves: u64,
    /// Failures currently in the sliding window.
    pub window_failures: u32,
    /// Outcomes currently in the sliding window.
    pub window_samples: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Closed,
    Open { remaining: u64 },
    HalfOpen { probing: bool },
}

struct BreakerWindow {
    gate: Gate,
    /// Recent crowd outcomes, `true` = starvation-class failure.
    outcomes: VecDeque<bool>,
    failures: usize,
}

/// How the breaker routes one request.
pub(crate) enum BreakerRoute {
    /// Closed: full crowd resolution.
    Crowd,
    /// Half-open: this request is the probe.
    Probe,
    /// Open (or probe already in flight): machine-only.
    Machine,
}

/// Per-city crowd circuit breaker. Shared (`Arc`) between every worker's
/// breaker resolver and the snapshot path.
pub(crate) struct CrowdBreaker {
    cfg: BreakerConfig,
    window: Mutex<BreakerWindow>,
    trips: AtomicU64,
    probes: AtomicU64,
    recoveries: AtomicU64,
    machine_serves: AtomicU64,
}

impl CrowdBreaker {
    pub(crate) fn new(cfg: BreakerConfig) -> Self {
        let cfg = cfg.normalized();
        CrowdBreaker {
            window: Mutex::new(BreakerWindow {
                gate: Gate::Closed,
                outcomes: VecDeque::with_capacity(cfg.window),
                failures: 0,
            }),
            cfg,
            trips: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            machine_serves: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerWindow> {
        // A poisoned breaker mutex must not cascade: the window is plain
        // counters, valid whatever happened to the panicking holder.
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Routes the next request.
    pub(crate) fn admit(&self) -> BreakerRoute {
        let mut w = self.lock();
        loop {
            match w.gate {
                Gate::Closed => return BreakerRoute::Crowd,
                Gate::Open { remaining } if remaining > 0 => {
                    w.gate = Gate::Open {
                        remaining: remaining - 1,
                    };
                    self.machine_serves.fetch_add(1, Relaxed);
                    return BreakerRoute::Machine;
                }
                Gate::Open { .. } => {
                    w.gate = Gate::HalfOpen { probing: false };
                }
                Gate::HalfOpen { probing: false } => {
                    w.gate = Gate::HalfOpen { probing: true };
                    self.probes.fetch_add(1, Relaxed);
                    return BreakerRoute::Probe;
                }
                Gate::HalfOpen { probing: true } => {
                    self.machine_serves.fetch_add(1, Relaxed);
                    return BreakerRoute::Machine;
                }
            }
        }
    }

    /// Records one crowd outcome (`failed` = starvation-class).
    pub(crate) fn record(&self, probe: bool, failed: bool) {
        let mut w = self.lock();
        if probe {
            if failed {
                self.trips.fetch_add(1, Relaxed);
                w.gate = Gate::Open {
                    remaining: self.cfg.open_serves,
                };
            } else {
                self.recoveries.fetch_add(1, Relaxed);
                w.gate = Gate::Closed;
                w.outcomes.clear();
                w.failures = 0;
            }
            return;
        }
        w.outcomes.push_back(failed);
        if failed {
            w.failures += 1;
        }
        while w.outcomes.len() > self.cfg.window {
            if w.outcomes.pop_front() == Some(true) {
                w.failures -= 1;
            }
        }
        // Only a closed breaker trips from window evidence (a concurrent
        // crowd outcome may land after another worker already tripped).
        if w.gate == Gate::Closed
            && w.outcomes.len() >= self.cfg.min_samples
            && w.failures as f64 >= self.cfg.trip_ratio * w.outcomes.len() as f64
        {
            self.trips.fetch_add(1, Relaxed);
            w.gate = Gate::Open {
                remaining: self.cfg.open_serves,
            };
        }
    }

    /// Whether the breaker is currently not closed (requests degrade to
    /// machine-only).
    pub(crate) fn is_degraded(&self) -> bool {
        self.lock().gate != Gate::Closed
    }

    /// Point-in-time observables.
    pub(crate) fn snapshot(&self) -> BreakerSnapshot {
        let w = self.lock();
        BreakerSnapshot {
            state: match w.gate {
                Gate::Closed => BreakerState::Closed,
                Gate::Open { .. } => BreakerState::Open,
                Gate::HalfOpen { .. } => BreakerState::HalfOpen,
            },
            trips: self.trips.load(Relaxed),
            probes: self.probes.load(Relaxed),
            recoveries: self.recoveries.load(Relaxed),
            machine_serves: self.machine_serves.load(Relaxed),
            window_failures: w.failures as u32,
            window_samples: w.outcomes.len() as u32,
        }
    }
}

/// Resolver wrapper enforcing the breaker: closed → crowd, open →
/// machine-only (zero `CrowdStarved` surfaced to clients), half-open →
/// one probe through the crowd. A starvation-class crowd failure that
/// trips (or re-trips) the breaker is itself degraded to the machine
/// answer instead of surfacing.
pub(crate) struct BreakerResolver {
    crowd: Box<dyn Resolver + Send>,
    machine: MachineResolver,
    breaker: Arc<CrowdBreaker>,
}

impl BreakerResolver {
    pub(crate) fn new(
        crowd: Box<dyn Resolver + Send>,
        machine: MachineResolver,
        breaker: Arc<CrowdBreaker>,
    ) -> Self {
        BreakerResolver {
            crowd,
            machine,
            breaker,
        }
    }
}

impl Resolver for BreakerResolver {
    fn resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[CandidateRoute],
    ) -> Result<Resolved, ServiceError> {
        let route = self.breaker.admit();
        let probe = match route {
            BreakerRoute::Machine => return self.machine.resolve(from, to, departure, candidates),
            BreakerRoute::Probe => true,
            BreakerRoute::Crowd => false,
        };
        let res = self.crowd.resolve(from, to, departure, candidates);
        let failed = match &res {
            Err(ServiceError::CrowdStarved { .. }) => true,
            Ok(r) => r.crowd.is_some_and(|c| c.starved),
            Err(_) => false,
        };
        self.breaker.record(probe, failed);
        if failed && self.breaker.is_degraded() {
            // This failure tripped (or re-tripped) the breaker: degrade
            // the triggering request too, so a tripped breaker never
            // surfaces a starvation error.
            return self.machine.resolve(from, to, departure, candidates);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(plan: FaultPlan, seed: u64) -> ChaosState {
        ChaosState::new(&ChaosConfig::new(seed).with_plan(plan))
    }

    #[test]
    fn streams_are_deterministic_and_rate_accurate() {
        let plan = FaultPlan {
            crowd_no_show: 0.25,
            ..FaultPlan::none()
        };
        let a = state_with(plan, 42);
        let b = state_with(plan, 42);
        let draws: Vec<bool> = (0..4096).map(|_| a.roll(FaultSite::CrowdNoShow)).collect();
        let again: Vec<bool> = (0..4096).map(|_| b.roll(FaultSite::CrowdNoShow)).collect();
        assert_eq!(draws, again, "same seed, same schedule");
        let hits = draws.iter().filter(|&&h| h).count();
        assert!(
            (700..=1350).contains(&hits),
            "25% of 4096 draws should hit roughly 1024 times, got {hits}"
        );
        assert_eq!(a.snapshot().crowd_no_shows, hits as u64);
        // Other sites' streams are untouched.
        assert_eq!(a.snapshot().slow_workers, 0);
        // A different seed gives a different schedule.
        let c = state_with(plan, 43);
        let other: Vec<bool> = (0..4096).map(|_| c.roll(FaultSite::CrowdNoShow)).collect();
        assert_ne!(draws, other);
    }

    #[test]
    fn zero_rate_sites_never_roll_and_never_advance() {
        let s = state_with(FaultPlan::none(), 7);
        for _ in 0..100 {
            for site in FaultSite::ALL {
                assert!(!s.roll(site));
            }
        }
        assert_eq!(s.snapshot().total_injected(), 0);
        // Retuning live turns the site on.
        s.set_plan(FaultPlan {
            stall_worker: 1.0,
            ..FaultPlan::none()
        });
        assert!(s.roll(FaultSite::StallWorker));
        assert_eq!(s.snapshot().stalled_workers, 1);
    }

    #[test]
    fn breaker_trips_probes_and_recovers() {
        let breaker = CrowdBreaker::new(BreakerConfig {
            window: 8,
            trip_ratio: 0.5,
            min_samples: 4,
            open_serves: 3,
        });
        // Healthy: everything routes to the crowd.
        for _ in 0..4 {
            assert!(matches!(breaker.admit(), BreakerRoute::Crowd));
            breaker.record(false, false);
        }
        assert_eq!(breaker.snapshot().state, BreakerState::Closed);
        // Four failures out of the last eight: trip.
        for _ in 0..4 {
            assert!(matches!(breaker.admit(), BreakerRoute::Crowd));
            breaker.record(false, true);
        }
        let snap = breaker.snapshot();
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(snap.trips, 1);
        // `open_serves` machine-only serves…
        for _ in 0..3 {
            assert!(matches!(breaker.admit(), BreakerRoute::Machine));
        }
        // …then exactly one probe; concurrent requests stay machine.
        assert!(matches!(breaker.admit(), BreakerRoute::Probe));
        assert!(matches!(breaker.admit(), BreakerRoute::Machine));
        // Failed probe re-opens (and counts a trip).
        breaker.record(true, true);
        assert_eq!(breaker.snapshot().state, BreakerState::Open);
        assert_eq!(breaker.snapshot().trips, 2);
        for _ in 0..3 {
            assert!(matches!(breaker.admit(), BreakerRoute::Machine));
        }
        assert!(matches!(breaker.admit(), BreakerRoute::Probe));
        // Successful probe closes and clears the window.
        breaker.record(true, false);
        let snap = breaker.snapshot();
        assert_eq!(snap.state, BreakerState::Closed);
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.window_samples, 0);
        assert!(matches!(breaker.admit(), BreakerRoute::Crowd));
    }
}
