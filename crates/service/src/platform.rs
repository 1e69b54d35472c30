//! The multi-city serving platform: resident workers, bounded ingress,
//! submit/poll tickets.
//!
//! [`RouteService`] serves one city and only in closed batches; a
//! deployed CrowdPlanner faces an *open* stream of requests spread over
//! many cities. [`Platform`] is the front door:
//!
//! * **owned worlds** — each city is an `Arc<World>` registered under a
//!   [`CityId`]; the platform owns a full per-city service instance
//!   (truth shards, mining artifacts, stats), so cities never
//!   contend with each other on anything but CPU;
//! * **resident worker pool** — [`Platform::start`] spawns N
//!   `std::thread` workers that live until [`Platform::shutdown`]; each
//!   worker lazily builds one resolver per city from the city's
//!   registered factory and keeps it across requests;
//! * **truth hits on the submitting thread** — [`Platform::submit`]
//!   first probes the city's sharded truth store, holding no lock. A hit
//!   is admitted and served right there: the returned [`Ticket`] is
//!   already complete, and no queue, condvar or worker is touched (the
//!   ingress lock is taken once, to book the admission). Only misses
//!   reach a queue;
//! * **bounded ingress + admission control** — a miss is enqueued on
//!   its city's bounded queue and gets a joinable [`Ticket`], or is
//!   rejected with [`ServiceError::Busy`] when that queue is full (shed
//!   load instead of collapsing under it; a hit is never shed).
//!   [`Platform::submit_blocking`] waits for space instead. Workers pick
//!   the next city by weighted deficit round robin. Every city's queue,
//!   its in-flight keys, the schedule and the admission ledger sit
//!   behind one mutex, so `admitted == batched + unbatched +
//!   served_inline + deduped + shed + queue_depth`
//!   ([`PlatformSnapshot::is_consistent`]) holds per city and
//!   platform-wide at every instant a snapshot can observe;
//! * **deduplication at admission** — a miss whose `(OD, time bucket)`
//!   key is already queued or running attaches its ticket to that
//!   request instead of queueing (booked `deduped`; it needs no queue
//!   space, so it is never shed as `Busy`). The worker that served the
//!   request releases the key once its truth is committed and hands
//!   every attached ticket the same outcome — the route tagged
//!   [`Served::Deduplicated`](crate::Served::Deduplicated), or the
//!   leader's error — so identical concurrent requests pay for one
//!   resolution and its crowd questions once;
//! * **origin-cell coalescing** — with [`PlatformConfig::batch`] set, a
//!   worker dispatches its job together with every job already queued
//!   for the same city and origin cell, up to
//!   [`BatchConfig::max_batch`], as one run; it never waits for more;
//! * **joinable, pollable tickets** — [`Ticket::wait`] blocks for the
//!   result, [`Ticket::try_wait`] polls without blocking, and
//!   [`Ticket::latency`] reports the submit→completion sojourn time
//!   (truth probe + queue wait + service time — the number an open-loop
//!   load generator needs);
//! * **graceful shutdown** — [`Platform::shutdown`] stops admissions,
//!   drains every queued job (each admitted ticket resolves exactly
//!   once), and joins the workers. Dropping the platform does the same.
//!
//! ```
//! use cp_roadnet::{generate_city, CityParams, NodeId};
//! use cp_service::{Platform, PlatformConfig, Request, ServiceConfig, World};
//! use cp_traj::{generate_trips, TimeOfDay, TripGenParams};
//! use std::sync::Arc;
//!
//! let city = generate_city(&CityParams::small(), 7).unwrap();
//! let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
//! let platform = Platform::start(PlatformConfig::default());
//! let id = platform.register_city(
//!     Arc::new(World::new(city.graph, trips.trips)),
//!     ServiceConfig::default(),
//! );
//! let ticket = platform
//!     .submit(Request::to_city(id, NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0)))
//!     .unwrap();
//! let served = ticket.wait().unwrap();
//! assert_eq!(served.path.source(), NodeId(0));
//! platform.shutdown();
//! ```

use crate::chaos::{
    BreakerConfig, BreakerSnapshot, ChaosConfig, ChaosDesk, ChaosResolver, ChaosSnapshot,
    ChaosState, CrowdBreaker, FaultPlan, FaultSite,
};
use crate::durable::{DurabilityConfig, DurabilitySnapshot, DurableRuntime};
use crate::error::ServiceError;
use crate::executor::{Request, RouteService, ServedRoute, ServiceConfig};
use crate::ingress::{IngressLock, Job};
use crate::resolver::{CrowdResolver, MachineResolver, OracleFactory, Resolver};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::trace::{CityTrace, LockSite, LockSummary, Stage, TraceReport};
use crate::world::{CityId, World};
use cp_core::{CoreError, CrowdPlanner, TruthEntry};
use cp_crowd::{AnswerRecord, CrowdDesk, CrowdState, PlatformState, WorkerId};
use cp_durable::{
    purge_segments_below, read_log, read_snapshot, CrowdSnapshot, DurableError, Event,
    SnapshotWriter, TruthRec,
};
use cp_roadnet::{EdgeId, LandmarkId, LandmarkSet, NodeId, Path as RoutePath};
use cp_traj::TimeOfDay;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Background-maintenance configuration: a resident janitor thread
/// sweeps every city's truth store on a fixed cadence, replacing
/// caller-driven [`RouteService::evict_truths_older_than`] loops.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// Time between sweeps.
    pub interval: Duration,
    /// Truths at least this old are evicted on each sweep.
    pub max_age: Duration,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        MaintenanceConfig {
            interval: Duration::from_secs(60),
            max_age: Duration::from_secs(3600),
        }
    }
}

/// Opportunistic request coalescing: a worker dispatches its seed job
/// together with every job *already queued* in the same city that
/// shares its origin cell — time buckets mix freely, the fused mining
/// path splits only its period-dependent MFP aggregation per bucket —
/// up to `max_batch`, and serves the run through
/// [`RouteService::serve_coalesced`], so a hot origin cell pays its
/// expensive single-source mining once per run instead of once per
/// request.
///
/// A worker never holds a run open waiting for more jobs. Backlog
/// is what forms runs, and backlog is exactly when fusing pays; on an
/// idle or all-hit queue a collection window only adds latency (see
/// the crate README for the measurement).
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Most jobs coalesced into one run (clamped to ≥ 1; 1 disables
    /// coalescing in all but name).
    pub max_batch: usize,
}

impl BatchConfig {
    /// Coalescing of up to `max_batch` queued jobs per run.
    ///
    /// The `Duration` has no effect: it is accepted only because
    /// `benchmark/` calls this signature. There is no collection window
    /// to bound.
    pub fn adaptive(max_batch: usize, _max_delay: Duration) -> Self {
        BatchConfig { max_batch }
    }

    /// Clamps `max_batch` to ≥ 1.
    fn normalized(self) -> Self {
        BatchConfig {
            max_batch: self.max_batch.max(1),
        }
    }
}

/// Platform-level configuration (per-city serving behaviour lives in
/// each city's [`ServiceConfig`]).
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Resident worker threads shared by all cities.
    pub workers: usize,
    /// Bounded **per-city** ingress queue capacity; a full city queue
    /// makes [`Platform::submit`] shed that city's truth misses with
    /// [`ServiceError::Busy`] — other cities' queues are unaffected, and
    /// truth hits never queue.
    pub queue_capacity: usize,
    /// Default deficit-round-robin weight assigned to newly registered
    /// cities (clamped to ≥ 1; override per city with
    /// [`Platform::set_city_weight`]). While backlogged, a city is
    /// granted `weight` seed dispatches per scheduler rotation, so a
    /// weight-4 city gets 4× a weight-1 city's dispatch share under
    /// contention — but an idle city forfeits its quantum, so a hot
    /// city can saturate idle capacity without starving anyone.
    pub city_weight: u32,
    /// Optional background maintenance (truth-age sweeps + stats
    /// snapshot export). `None` (the default) spawns no janitor.
    pub maintenance: Option<MaintenanceConfig>,
    /// Optional origin-cell request coalescing of already-queued jobs
    /// (see [`BatchConfig`]). `None` (the default) dispatches one job —
    /// a run of one — per worker wakeup.
    pub batch: Option<BatchConfig>,
    /// Optional durability: a write-ahead log of committed resolutions
    /// plus checkpointable snapshots (see [`DurabilityConfig`]). `None`
    /// (the default) keeps the platform fully in-memory and the commit
    /// path allocation-free.
    pub durability: Option<DurabilityConfig>,
    /// Optional deterministic fault injection (see [`ChaosConfig`]).
    /// `None` (the default) keeps every serve-path seam a branch on a
    /// `None` — allocation- and clock-identical to a chaos-free build.
    pub chaos: Option<ChaosConfig>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            workers: 4,
            queue_capacity: 256,
            city_weight: 1,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        }
    }
}

/// A resolver factory: builds worker-local resolvers for one city
/// (`worker_index` → boxed resolver). Resolvers on the resident pool
/// must be `'static` and `Send`; see [`MachineResolver`].
type ResolverFactory = Box<dyn Fn(usize) -> Box<dyn Resolver + Send> + Send + Sync>;

/// One registered city: its service instance plus the factory workers
/// use to build their per-city resolvers, and — for crowd-backed cities
/// that opted in via [`CrowdServing::with_persist`] — the handle the
/// durability layer uses to export/import/replay crowd state.
struct CityState {
    service: Arc<RouteService>,
    factory: ResolverFactory,
    crowd_state: Option<Arc<dyn CrowdState>>,
    /// This city's crowd circuit breaker (`None` unless the city was
    /// registered crowd-backed with [`CrowdServing::with_breaker`]).
    breaker: Option<Arc<CrowdBreaker>>,
    /// Lock-free mirror of the ingress `offboarded` flag, so routing
    /// checks ([`Platform::city_service`]) need no ingress lock.
    offboarded: AtomicBool,
}

/// Everything a crowd-backed city shares across its per-worker planners:
/// the landmark set and significance scores, the crowd desk (quota
/// accounting lives there), and the oracle factory standing in for the
/// crowd's latent knowledge. See
/// [`Platform::register_city_crowd`].
#[derive(Clone)]
pub struct CrowdServing {
    /// The city's landmarks.
    pub landmarks: Arc<LandmarkSet>,
    /// HITS-inferred landmark significance (one entry per landmark).
    pub significance: Arc<Vec<f64>>,
    /// The shared crowd desk every resolver assigns through.
    pub desk: Arc<dyn CrowdDesk>,
    /// Supplies the per-request crowd-knowledge oracle.
    pub oracle: Arc<dyn OracleFactory>,
    /// Fail quota-starved requests with
    /// [`ServiceError::CrowdStarved`] instead of serving the machine
    /// fallback (defaults to `false`).
    pub fail_when_starved: bool,
    /// The stateful side of the desk, for durability: snapshot export /
    /// import and answer replay. `None` (the default) leaves the crowd
    /// out of snapshots and the answer log. Set it to the same
    /// [`SharedCrowd`](cp_crowd::SharedCrowd) the desk wraps via
    /// [`CrowdServing::with_persist`].
    pub persist: Option<Arc<dyn CrowdState>>,
    /// Optional per-city crowd circuit breaker: starvation-class crowd
    /// failures over a sliding window trip the city to machine-only
    /// resolution with half-open probing (see [`BreakerConfig`]).
    /// `None` (the default) keeps the PR-9 behaviour.
    pub breaker: Option<BreakerConfig>,
}

impl CrowdServing {
    /// Bundles the shared crowd inputs (starvation degrades to machine
    /// fallback; flip `fail_when_starved` for strict shedding).
    pub fn new(
        landmarks: Arc<LandmarkSet>,
        significance: Arc<Vec<f64>>,
        desk: Arc<dyn CrowdDesk>,
        oracle: Arc<dyn OracleFactory>,
    ) -> Self {
        CrowdServing {
            landmarks,
            significance,
            desk,
            oracle,
            fail_when_starved: false,
            persist: None,
            breaker: None,
        }
    }

    /// Attaches the desk's stateful handle so snapshots capture the
    /// crowd (history, rewards, RNG) and its answers reach the WAL.
    pub fn with_persist(mut self, state: Arc<dyn CrowdState>) -> Self {
        self.persist = Some(state);
        self
    }

    /// Attaches a crowd circuit breaker (see [`BreakerConfig`]).
    pub fn with_breaker(mut self, cfg: BreakerConfig) -> Self {
        self.breaker = Some(cfg);
        self
    }
}

impl std::fmt::Debug for CrowdServing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrowdServing")
            .field("landmarks", &self.landmarks.len())
            .field("fail_when_starved", &self.fail_when_starved)
            .finish_non_exhaustive()
    }
}

/// State shared between the platform handle and its workers.
struct Inner {
    cfg: PlatformConfig,
    cities: RwLock<Vec<Arc<CityState>>>,
    /// Every city's queue, the DRR schedule and the admission/dispatch
    /// ledger behind one mutex (see the `ingress` module).
    ingress: IngressLock,
    completed: AtomicU64,
    /// `true` once shutdown started; the janitor exits on the next wake.
    maintenance_stop: Mutex<bool>,
    /// Signalled to wake the janitor early (shutdown).
    maintenance_cv: Condvar,
    /// Completed maintenance sweeps.
    maintenance_sweeps: AtomicU64,
    /// Truths evicted by maintenance sweeps (cumulative).
    maintenance_evicted: AtomicU64,
    /// The report exported by the most recent sweep.
    last_maintenance: Mutex<Option<MaintenanceReport>>,
    /// The running durability machinery (`None` with durability off).
    durable: Option<DurableRuntime>,
    /// The running chaos engine (`None` with chaos off: every seam is a
    /// single branch on this option).
    chaos: Option<Arc<ChaosState>>,
}

/// What one background maintenance sweep observed and exported.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Sweeps completed so far (this one included).
    pub sweeps: u64,
    /// Truths evicted by this sweep.
    pub evicted: usize,
    /// Truths evicted by all sweeps so far.
    pub evicted_total: u64,
    /// Full platform statistics exported at sweep time.
    pub snapshot: PlatformSnapshot,
}

/// What [`Platform::recover_from`] / [`Platform::replay_log`] applied:
/// snapshot-vs-log provenance plus the deduplicated overlap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Truth entries restored from the snapshot.
    pub truths_restored: u64,
    /// Crowd answers folded into the snapshot (its generation).
    pub answers_restored: u64,
    /// Truth entries applied from the WAL.
    pub truths_replayed: u64,
    /// Crowd answers applied from the WAL.
    pub answers_replayed: u64,
    /// WAL truth records skipped because the snapshot already held them
    /// (the rotation overlap).
    pub truths_skipped: u64,
    /// WAL answer records skipped as already covered by the snapshot's
    /// generation.
    pub answers_skipped: u64,
    /// The snapshot's WAL watermark (0 without a snapshot).
    pub wal_watermark: u64,
    /// The last WAL sequence applied or skipped (`None` for an empty
    /// log).
    pub last_wal_seq: Option<u64>,
}

/// One city's slice of the ingress, captured under the ingress lock:
/// depth, weight and admission/dispatch counters.
#[derive(Debug, Clone)]
pub struct CityQueueSnapshot {
    /// The city.
    pub city: CityId,
    /// The city's DRR weight.
    pub weight: u32,
    /// Jobs currently waiting in this city's queue.
    pub queue_depth: usize,
    /// Requests admitted for this city: queued, attached to an
    /// identical in-flight request, or served at submit.
    pub admitted: u64,
    /// Admitted truth hits served on the submitting thread, never
    /// queued.
    pub served_inline: u64,
    /// Admitted misses that attached to an identical queued or running
    /// request instead of queueing, served its outcome.
    pub deduped: u64,
    /// Non-blocking submissions shed because this city's queue was
    /// full (other cities shed independently).
    pub rejected_busy: u64,
    /// Jobs dispatched inside a coalesced run of ≥ 2.
    pub batched_requests: u64,
    /// Jobs dispatched alone.
    pub unbatched_requests: u64,
    /// Coalesced runs (of ≥ 2) dispatched.
    pub batch_runs: u64,
    /// Largest coalesced run dispatched (high-water mark).
    pub batch_max: u64,
    /// Whether the city was deregistered at runtime
    /// ([`Platform::deregister_city`]).
    pub offboarded: bool,
    /// Queued tickets, and the tickets attached to them, shed with
    /// [`ServiceError::CityOffboarded`] by the offboarding drain.
    pub shed: u64,
    /// The city's crowd-circuit-breaker observables (`None` for cities
    /// registered without a breaker).
    pub breaker: Option<BreakerSnapshot>,
}

impl CityQueueSnapshot {
    /// The per-city dispatch ledger: every admitted request was served
    /// at submit, attached to an identical in-flight request, or is
    /// still queued, was dispatched exactly once — batched or unbatched
    /// — or was shed with a terminal error by an offboarding drain. All
    /// terms are captured under the ingress lock, so this is exact at
    /// every observable instant.
    pub fn is_consistent(&self) -> bool {
        self.admitted
            == self.batched_requests
                + self.unbatched_requests
                + self.served_inline
                + self.deduped
                + self.shed
                + self.queue_depth as u64
            && self.batch_max <= self.batched_requests
            && self.batch_runs <= self.batched_requests
            && (self.shed == 0 || self.offboarded)
    }
}

/// Point-in-time platform statistics: admission counters plus the exact
/// aggregate of every city's service statistics.
#[derive(Debug, Clone)]
pub struct PlatformSnapshot {
    /// Submission attempts (admitted + all rejections).
    pub submitted: u64,
    /// Requests admitted across all cities (Σ per-city).
    pub admitted: u64,
    /// Admitted truth hits served on the submitting thread without
    /// queueing (Σ per-city).
    pub served_inline: u64,
    /// Admitted misses attached to an identical in-flight request
    /// instead of queueing (Σ per-city).
    pub deduped: u64,
    /// Rejections because the target city's queue was full (Σ
    /// per-city).
    pub rejected_busy: u64,
    /// Rejections because the request named an unregistered city.
    pub rejected_unknown_city: u64,
    /// Rejections because an endpoint is not a node of the city's graph
    /// ([`ServiceError::UnknownNode`]).
    pub rejected_unknown_node: u64,
    /// Rejections because the platform was shutting down.
    pub rejected_shutdown: u64,
    /// Rejections because the target city was deregistered at runtime.
    pub rejected_offboarded: u64,
    /// Queued tickets shed with [`ServiceError::CityOffboarded`] by
    /// offboarding drains (Σ per-city).
    pub shed: u64,
    /// Tickets completed: served at submit or fulfilled by workers.
    pub completed: u64,
    /// Registered cities.
    pub cities: usize,
    /// Jobs currently waiting across all city queues (Σ per-city
    /// depths).
    pub queue_depth: usize,
    /// Jobs dispatched to workers inside a coalesced run of ≥ 2 (0
    /// unless [`PlatformConfig::batch`] is set).
    pub batched_requests: u64,
    /// Jobs dispatched to workers alone — runs of 1, and every job when
    /// coalescing is off.
    pub unbatched_requests: u64,
    /// Coalesced runs (of ≥ 2) dispatched.
    pub batch_runs: u64,
    /// Largest coalesced run dispatched (high-water mark).
    pub batch_max: u64,
    /// Always zero: workers coalesce only already-queued jobs and never
    /// hold a run open. Kept because `benchmark/` reads it
    /// (`service.platform.batch_delay_us`).
    pub batch_delay: Duration,
    /// Always zero: there is no delay controller. Kept because
    /// `benchmark/` reads it (`service.platform.delay_raises`).
    pub batch_delay_raises: u64,
    /// Always zero: there is no delay controller. Kept because
    /// `benchmark/` reads it (`service.platform.delay_drops`).
    pub batch_delay_drops: u64,
    /// Every city's queue slice, all captured in one hold of the
    /// ingress lock (indexed by city).
    pub per_city: Vec<CityQueueSnapshot>,
    /// Background maintenance sweeps completed (0 when no janitor is
    /// configured).
    pub maintenance_sweeps: u64,
    /// Durability counters (`None` with durability off).
    pub durability: Option<DurabilitySnapshot>,
    /// Injected-fault counters (`None` with chaos off).
    pub chaos: Option<ChaosSnapshot>,
    /// Exact merge of all per-city service statistics (latency
    /// percentiles come from the merged histogram).
    pub aggregate: StatsSnapshot,
}

impl PlatformSnapshot {
    /// The admission and dispatch accounting invariants: every
    /// submission was either admitted or rejected for exactly one
    /// reason, and every admitted request was served at submit,
    /// attached to an identical in-flight request, is still queued, was
    /// dispatched exactly once — batched or unbatched — or was shed.
    /// Every city's dispatch counters, `admitted`, `served_inline`,
    /// `deduped` and queue depth are captured in one hold of the
    /// ingress lock (admission and dispatch mutate them in the same
    /// critical sections that move jobs), so every per-city ledger and
    /// their sum, `admitted == batched + unbatched + served_inline +
    /// deduped + shed + Σ per-city queue_depth`, is exact at one
    /// instant, not just at quiescence.
    pub fn is_consistent(&self) -> bool {
        let per_city_depth: u64 = self.per_city.iter().map(|c| c.queue_depth as u64).sum();
        self.admitted
            + self.rejected_busy
            + self.rejected_unknown_city
            + self.rejected_unknown_node
            + self.rejected_shutdown
            + self.rejected_offboarded
            == self.submitted
            && self.admitted
                == self.batched_requests
                    + self.unbatched_requests
                    + self.served_inline
                    + self.deduped
                    + self.shed
                    + self.queue_depth as u64
            && self.shed == self.per_city.iter().map(|c| c.shed).sum::<u64>()
            && self.served_inline == self.per_city.iter().map(|c| c.served_inline).sum::<u64>()
            && self.deduped == self.per_city.iter().map(|c| c.deduped).sum::<u64>()
            && self.queue_depth as u64 == per_city_depth
            && self.admitted == self.per_city.iter().map(|c| c.admitted).sum::<u64>()
            && self.per_city.iter().all(CityQueueSnapshot::is_consistent)
            && self.batch_max <= self.batched_requests
            && self.batch_runs <= self.batched_requests
            && self.per_city.iter().all(|c| c.weight >= 1)
    }
}

/// State of one submitted request, shared between its [`Ticket`] and the
/// worker that fulfils it.
pub(crate) struct TicketSlot {
    state: Mutex<Option<Result<ServedRoute, ServiceError>>>,
    done: Condvar,
    submitted_at: Instant,
    /// Submit→completion sojourn in nanoseconds; 0 while pending (a
    /// fulfilled ticket always stores ≥ 1).
    sojourn_ns: AtomicU64,
}

impl TicketSlot {
    /// The slot of a job entering its city's queue; the worker that
    /// serves the job fulfils it.
    fn queued(submitted_at: Instant) -> Arc<TicketSlot> {
        Arc::new(TicketSlot {
            state: Mutex::new(None),
            done: Condvar::new(),
            submitted_at,
            sojourn_ns: AtomicU64::new(0),
        })
    }

    /// The slot of a truth hit served at submit: complete from the
    /// start, so nobody can be waiting on it.
    fn served(submitted_at: Instant, served: ServedRoute, sojourn_ns: u64) -> Arc<TicketSlot> {
        Arc::new(TicketSlot {
            state: Mutex::new(Some(Ok(served))),
            done: Condvar::new(),
            submitted_at,
            sojourn_ns: AtomicU64::new(sojourn_ns),
        })
    }

    fn fulfill(&self, result: Result<ServedRoute, ServiceError>) {
        let ns = sojourn_ns(self.submitted_at);
        let mut state = self.state.lock().expect("ticket poisoned");
        debug_assert!(state.is_none(), "a ticket resolves exactly once");
        *state = Some(result);
        self.sojourn_ns.store(ns, Ordering::Release);
        self.done.notify_all();
    }
}

/// A handle to one submitted request.
///
/// Join it with [`Ticket::wait`] (blocking) or poll it with
/// [`Ticket::try_wait`]; either way the result is produced exactly once:
/// by [`Platform::submit`] itself for a truth hit (the ticket is
/// complete when returned), else by the worker that served the request.
/// Dropping a ticket abandons the result but never the work — the
/// request still runs and feeds the city's truth store.
pub struct Ticket {
    city: CityId,
    slot: Arc<TicketSlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("city", &self.city)
            .field("done", &self.is_done())
            .finish()
    }
}

impl Ticket {
    /// The city the request was routed to.
    pub fn city(&self) -> CityId {
        self.city
    }

    /// Blocks until the request completes and returns its result.
    pub fn wait(self) -> Result<ServedRoute, ServiceError> {
        let mut state = self.slot.state.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.slot.done.wait(state).expect("ticket poisoned");
        }
    }

    /// Blocks for at most `timeout` waiting for the result. On
    /// completion returns it (`Ok`); on expiry returns the ticket
    /// itself (`Err`), so the caller can keep polling, re-wait, or
    /// abandon it — the request still runs either way and its result
    /// still feeds the city's truth store. This is the primitive behind
    /// request deadlines at a serving edge: answer 504 on `Err` without
    /// losing the work already queued.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<ServedRoute, ServiceError>, Ticket> {
        // A deadline past the clock's range is no deadline.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.slot.state.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = state.take() {
                return Ok(result);
            }
            let Some(deadline) = deadline else {
                state = self.slot.done.wait(state).expect("ticket poisoned");
                continue;
            };
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                drop(state);
                return Err(self);
            };
            let (guard, _timed_out) = self
                .slot
                .done
                .wait_timeout(state, remaining)
                .expect("ticket poisoned");
            state = guard;
        }
    }

    /// Polls without blocking: `None` while the request is in flight,
    /// the (cloned) result once it completed.
    pub fn try_wait(&self) -> Option<Result<ServedRoute, ServiceError>> {
        self.slot.state.lock().expect("ticket poisoned").clone()
    }

    /// Whether the request has completed.
    pub fn is_done(&self) -> bool {
        self.slot.sojourn_ns.load(Ordering::Acquire) != 0
    }

    /// Submit→completion sojourn time, measured from entry into
    /// [`Platform::submit`] (truth probe + queue wait + service time),
    /// once the request completed; `None` while in flight.
    pub fn latency(&self) -> Option<Duration> {
        match self.slot.sojourn_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }
}

/// The owned, `Arc`-shareable multi-city serving platform.
///
/// See the [module docs](self) for the full design; in short: register
/// worlds, [`submit`](Platform::submit) requests, join
/// [`Ticket`]s, [`shutdown`](Platform::shutdown) when done.
pub struct Platform {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Platform {
    /// Spawns the resident worker pool and returns the running platform
    /// (with no cities yet — register at least one before submitting).
    pub fn start(cfg: PlatformConfig) -> Platform {
        let chaos = cfg.chaos.as_ref().map(|c| Arc::new(ChaosState::new(c)));
        let durable = cfg.durability.clone().map(|d| {
            DurableRuntime::start(d, chaos.clone())
                .expect("opening the durability directory and write-ahead log")
        });
        let inner = Arc::new(Inner {
            cfg: PlatformConfig {
                workers: cfg.workers.max(1),
                queue_capacity: cfg.queue_capacity.max(1),
                city_weight: cfg.city_weight.max(1),
                maintenance: cfg.maintenance,
                batch: cfg.batch.map(BatchConfig::normalized),
                durability: cfg.durability,
                chaos: cfg.chaos,
            },
            cities: RwLock::new(Vec::new()),
            ingress: IngressLock::default(),
            completed: AtomicU64::new(0),
            maintenance_stop: Mutex::new(false),
            maintenance_cv: Condvar::new(),
            maintenance_sweeps: AtomicU64::new(0),
            maintenance_evicted: AtomicU64::new(0),
            last_maintenance: Mutex::new(None),
            durable,
            chaos,
        });
        let mut workers: Vec<JoinHandle<()>> = (0..inner.cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cp-platform-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawning a platform worker")
            })
            .collect();
        if let Some(maintenance) = inner.cfg.maintenance {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("cp-platform-janitor".into())
                    .spawn(move || janitor_loop(&inner, maintenance))
                    .expect("spawning the platform janitor"),
            );
        }
        Platform {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Registers a city with machine-only resolution (deterministic, the
    /// right default for throughput serving). Returns its [`CityId`].
    pub fn register_city(&self, world: Arc<World>, cfg: ServiceConfig) -> CityId {
        let graph = world.graph_arc();
        let core = cfg.core.clone();
        self.register_city_with(world, cfg, move |_worker| {
            MachineResolver::new(Arc::clone(&graph), core.clone())
        })
    }

    /// Registers a city with a custom per-worker resolver factory.
    /// Workers build one resolver per city lazily and keep it across
    /// requests.
    pub fn register_city_with<R, F>(
        &self,
        world: Arc<World>,
        cfg: ServiceConfig,
        factory: F,
    ) -> CityId
    where
        R: Resolver + Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        self.register_city_inner(
            world,
            cfg,
            Box::new(move |w| Box::new(factory(w)) as Box<dyn Resolver + Send>),
            None,
            None,
        )
    }

    /// The single registration path: builds the city state, wires the
    /// durability sinks (truth commits, and — when the city carries a
    /// [`CrowdState`] handle — crowd answers), wraps the resolver
    /// factory for fault injection when chaos is active, and assigns
    /// the id.
    fn register_city_inner(
        &self,
        world: Arc<World>,
        cfg: ServiceConfig,
        factory: ResolverFactory,
        crowd_state: Option<Arc<dyn CrowdState>>,
        breaker: Option<Arc<CrowdBreaker>>,
    ) -> CityId {
        let factory: ResolverFactory = match self.inner.chaos.clone() {
            // Every city's resolvers — machine and crowd alike — draw
            // from the same injected-panic stream.
            Some(chaos) => Box::new(move |w| {
                Box::new(ChaosResolver::new(factory(w), Arc::clone(&chaos)))
                    as Box<dyn Resolver + Send>
            }),
            None => factory,
        };
        let state = Arc::new(CityState {
            service: Arc::new(RouteService::new(world, cfg)),
            factory,
            crowd_state,
            breaker,
            offboarded: AtomicBool::new(false),
        });
        if state.service.tracer().enabled() {
            // One traced city is enough to make the shared ingress lock
            // worth timing.
            self.inner.ingress.locks.set_enabled(true);
        }
        let mut cities = self.inner.cities.write().expect("city registry poisoned");
        let id = cities.len() as u32;
        // Under the registry write lock, so ingress slots and city ids
        // stay in step.
        self.inner
            .ingress
            .lock()
            .register(self.inner.cfg.city_weight);
        if let Some(durable) = &self.inner.durable {
            state.service.set_durable_sink(durable.sink(id));
            if let Some(crowd) = &state.crowd_state {
                let sink = durable.sink(id);
                crowd.set_answer_observer(Box::new(move |record| sink.log_answer(record)));
            }
        }
        cities.push(state);
        CityId(id)
    }

    /// Registers a **crowd-backed** city: every platform worker builds
    /// one owned [`CrowdPlanner`] for it (lazily, kept across requests),
    /// all sharing the city's [`CrowdDesk`] — so concurrent resolvers
    /// can never assign any worker more than the desk's
    /// `max_outstanding` simultaneous tasks. Crowd cost and contention
    /// land in the city's statistics (`crowd_questions`,
    /// `crowd_quota_rejections`, `crowd_starved`).
    ///
    /// Fails fast (before registration) on invalid thresholds or a
    /// significance/landmark length mismatch, so per-worker planner
    /// construction cannot fail later.
    ///
    /// Per-worker planners keep a small private truth store. It never
    /// serves reuse — the shared sharded store answers every hit before
    /// the resolver runs — and is kept only because it feeds the
    /// truth-derived confidence of the planner's machine evaluation. It
    /// is bounded so resident planners cannot grow without bound —
    /// `truth_cap_per_shard × shards` when the city's store is bounded,
    /// else a fixed 4096-entry cap.
    pub fn register_city_crowd(
        &self,
        world: Arc<World>,
        cfg: ServiceConfig,
        crowd: CrowdServing,
    ) -> Result<CityId, CoreError> {
        cfg.core.validate()?;
        if crowd.significance.len() != crowd.landmarks.len() {
            return Err(CoreError::SignificanceLengthMismatch {
                expected: crowd.landmarks.len(),
                actual: crowd.significance.len(),
            });
        }
        let core = cfg.core.clone();
        let truth_cap = if cfg.truth_cap_per_shard == 0 {
            4096
        } else {
            cfg.truth_cap_per_shard.saturating_mul(cfg.shards)
        };
        let persist = crowd.persist.clone();
        // With chaos active, the desk every per-worker planner assigns
        // through injects no-shows (refused reserves) and slow answers.
        let crowd = match self.inner.chaos.clone() {
            Some(chaos) => CrowdServing {
                desk: Arc::new(ChaosDesk::new(Arc::clone(&crowd.desk), chaos)),
                ..crowd
            },
            None => crowd,
        };
        let breaker = crowd.breaker.map(|b| Arc::new(CrowdBreaker::new(b)));
        let breaker_for_factory = breaker.clone();
        let machine_graph = world.graph_arc();
        let machine_core = cfg.core.clone();
        let planner_world = Arc::clone(&world);
        let factory = move |_worker: usize| {
            let mut planner = CrowdPlanner::new(
                Arc::clone(&planner_world),
                Arc::clone(&crowd.landmarks),
                Arc::clone(&crowd.significance),
                Arc::clone(&crowd.desk),
                core.clone(),
            )
            .expect("crowd serving inputs validated at registration");
            planner.set_truth_cap(truth_cap);
            let resolver = CrowdResolver::new(planner, Arc::clone(&crowd.oracle))
                .fail_when_starved(crowd.fail_when_starved);
            match &breaker_for_factory {
                Some(b) => Box::new(crate::chaos::BreakerResolver::new(
                    Box::new(resolver),
                    MachineResolver::new(Arc::clone(&machine_graph), machine_core.clone()),
                    Arc::clone(b),
                )) as Box<dyn Resolver + Send>,
                None => Box::new(resolver) as Box<dyn Resolver + Send>,
            }
        };
        Ok(self.register_city_inner(world, cfg, Box::new(factory), persist, breaker))
    }

    /// Number of registered cities.
    pub fn city_count(&self) -> usize {
        self.inner
            .cities
            .read()
            .expect("city registry poisoned")
            .len()
    }

    /// The per-city service instance (its truth store, stats, config).
    /// `None` for an unregistered id — and for a deregistered city, so
    /// routing layers (the gateway) treat an offboarded city exactly
    /// like one that never existed (404).
    pub fn city_service(&self, city: CityId) -> Option<Arc<RouteService>> {
        self.inner
            .cities
            .read()
            .expect("city registry poisoned")
            .get(city.index())
            .filter(|c| !c.offboarded.load(Ordering::Relaxed))
            .map(|c| Arc::clone(&c.service))
    }

    /// A city's statistics snapshot, or `None` for an unregistered id.
    /// Its ingress lock-wait entry reads zero: the one ingress lock is
    /// shared by every city and reported platform-wide.
    pub fn city_stats(&self, city: CityId) -> Option<StatsSnapshot> {
        let cities = self.inner.cities.read().expect("city registry poisoned");
        cities.get(city.index()).map(|c| c.service.stats())
    }

    /// Sets a city's deficit-round-robin weight (clamped to ≥ 1; takes
    /// effect on the city's next quantum). Returns `false` for an
    /// unregistered id.
    pub fn set_city_weight(&self, city: CityId, weight: u32) -> bool {
        match self.inner.ingress.lock().cities.get_mut(city.index()) {
            Some(c) => {
                c.weight = weight.max(1);
                true
            }
            None => false,
        }
    }

    /// A city's current deficit-round-robin weight, or `None` for an
    /// unregistered id.
    pub fn city_weight(&self, city: CityId) -> Option<u32> {
        let ingress = self.inner.ingress.lock();
        ingress.cities.get(city.index()).map(|c| c.weight)
    }

    /// Deregisters a city at runtime. Under the ingress lock: later
    /// submissions are rejected with [`ServiceError::CityOffboarded`],
    /// every *queued* job and every request attached to one is drained
    /// and shed with that terminal error (jobs already dispatched —
    /// in-flight on a worker — resolve normally, exactly once, and so
    /// do their followers), and the emptied-forever queue drops out of
    /// the DRR rotation on its own (the rotation only picks non-empty
    /// queues). Cache state — mining artifacts and truths — is
    /// reclaimed, and [`Platform::city_service`] answers `None` so a
    /// gateway maps the city to 404. Other cities' queues, weights and fairness are
    /// untouched. A crowd city's per-worker planners stay with their
    /// workers until shutdown, each holding its capped private truth
    /// store (see [`Platform::register_city_crowd`]: it only feeds
    /// truth-derived confidence, so nothing is ever served from it).
    ///
    /// Returns the number of tickets shed, queued or attached
    /// (`Some(0)` when the city was already offboarded — idempotent),
    /// or `None` for an id that was never registered. City ids are
    /// dense indices, so the slot itself is retained as a tombstone: no
    /// other city's id shifts.
    pub fn deregister_city(&self, city: CityId) -> Option<u64> {
        let state = {
            let cities = self.inner.cities.read().expect("city registry poisoned");
            cities.get(city.index()).map(Arc::clone)
        }?;
        let mut ingress = self.inner.ingress.lock();
        let Some(dropped) = ingress.offboard(city.index()) else {
            return Some(0);
        };
        state.offboarded.store(true, Ordering::Relaxed);
        let n = dropped.len();
        // Wake every blocking submitter, even with nothing queued: they
        // re-check and get `CityOffboarded`.
        self.inner.ingress.wake_submitters(&ingress);
        drop(ingress);
        // Fulfil outside the ingress lock: ticket waiters take their own
        // slot locks.
        for slot in dropped {
            slot.fulfill(Err(ServiceError::CityOffboarded(city)));
        }
        state.service.reclaim();
        Some(n as u64)
    }

    /// Whether a city has been deregistered (`None` for an id that was
    /// never registered).
    pub fn city_offboarded(&self, city: CityId) -> Option<bool> {
        let cities = self.inner.cities.read().expect("city registry poisoned");
        cities
            .get(city.index())
            .map(|c| c.offboarded.load(Ordering::Relaxed))
    }

    /// Retunes the active chaos engine's fault plan (live; the next
    /// draw at each seam sees the new rates). Returns `false` when the
    /// platform was started without [`PlatformConfig::chaos`] — the
    /// engine cannot be attached after the fact.
    pub fn set_chaos_plan(&self, plan: FaultPlan) -> bool {
        match &self.inner.chaos {
            Some(chaos) => {
                chaos.set_plan(plan);
                true
            }
            None => false,
        }
    }

    /// Point-in-time injected-fault counts, or `None` with chaos off.
    pub fn chaos_stats(&self) -> Option<ChaosSnapshot> {
        self.inner.chaos.as_ref().map(|c| c.snapshot())
    }

    /// A city's crowd-circuit-breaker observables, or `None` for an
    /// unregistered id or a city without a breaker.
    pub fn city_breaker(&self, city: CityId) -> Option<BreakerSnapshot> {
        let cities = self.inner.cities.read().expect("city registry poisoned");
        cities
            .get(city.index())
            .and_then(|c| c.breaker.as_ref())
            .map(|b| b.snapshot())
    }

    /// Non-blocking submission. A request whose verified route is
    /// already in its city's truth store is served on the calling
    /// thread: the returned [`Ticket`] is already complete
    /// ([`Served::TruthHit`](crate::Served::TruthHit)), and such a hit is
    /// never shed. Any other request is enqueued for a worker and gets a
    /// joinable ticket, or is rejected immediately with
    /// [`ServiceError::Busy`] (its city's queue is full — back off and
    /// resubmit). Either kind is rejected with
    /// [`ServiceError::UnknownCity`], [`ServiceError::UnknownNode`],
    /// [`ServiceError::CityOffboarded`] or [`ServiceError::ShuttingDown`].
    pub fn submit(&self, req: Request) -> Result<Ticket, ServiceError> {
        self.submit_inner(req, false)
    }

    /// Like [`Platform::submit`] but a miss waits for queue space
    /// instead of being rejected with `Busy`. A truth hit returns a
    /// completed ticket at once and never waits; both still reject
    /// unknown cities and nodes, an offboarded city and a shutting-down
    /// platform.
    pub fn submit_blocking(&self, req: Request) -> Result<Ticket, ServiceError> {
        self.submit_inner(req, true)
    }

    fn submit_inner(&self, req: Request, block_on_full: bool) -> Result<Ticket, ServiceError> {
        let submitted_at = Instant::now();
        let inner = &*self.inner;
        let i = req.city.index();
        let refuse = |e: ServiceError| {
            inner.ingress.lock().refuse(i, &e);
            Err(e)
        };
        let registered = inner
            .cities
            .read()
            .expect("city registry poisoned")
            .get(i)
            .map(Arc::clone);
        let Some(city) = registered else {
            return refuse(ServiceError::UnknownCity(req.city));
        };
        // Reject foreign node ids before anything indexes the graph with
        // them (the truth probe and the origin-cell lookup would panic).
        let service = &city.service;
        let nodes = service.world().graph().node_count();
        if let Some(node) = [req.from, req.to].into_iter().find(|n| n.index() >= nodes) {
            return refuse(ServiceError::UnknownNode {
                city: req.city,
                node,
            });
        }
        // Truth reuse on this thread, holding no lock. A hit is admitted
        // and served below without touching a queue or a worker; only
        // misses enqueue.
        let hit = service.probe_truth(&req);
        let key = service.key_of(&req);
        let mut ingress = inner.ingress.lock();
        while let Err(e) = ingress.check(i, hit.is_some(), &key, inner.cfg.queue_capacity) {
            if e == ServiceError::Busy && block_on_full {
                ingress = inner.ingress.wait_for_space(ingress);
                continue;
            }
            // A miss is shed per city: one city's firehose fills only
            // its own queue.
            ingress.refuse(i, &e);
            return Err(e);
        }
        if let Some(hit) = hit {
            ingress.admit_hit(i);
            drop(ingress);
            let served = service.book_inline_hit(&req, hit, submitted_at.elapsed());
            inner.completed.fetch_add(1, Ordering::Relaxed);
            // Read after booking, so the ticket's sojourn covers all the
            // work `submit` does for a hit, as a worker-served ticket's
            // covers the ladder's own booking.
            let ns = sojourn_ns(submitted_at);
            return Ok(Ticket {
                city: req.city,
                slot: TicketSlot::served(submitted_at, served, ns),
            });
        }
        // A miss whose key is in flight rides along with that job;
        // any other miss queues for a worker.
        let slot = TicketSlot::queued(submitted_at);
        let queued = ingress.admit_miss(
            i,
            Job {
                req,
                key,
                cell: service.origin_cell_of(req.from),
                slot: Arc::clone(&slot),
                admitted_at: Instant::now(),
            },
        );
        if queued {
            inner.ingress.wake_worker(&ingress);
        }
        Ok(Ticket {
            city: req.city,
            slot,
        })
    }

    /// Point-in-time platform statistics (admission counters + the exact
    /// per-city aggregate).
    pub fn stats(&self) -> PlatformSnapshot {
        snapshot_of(&self.inner)
    }

    /// A point-in-time trace export: ingress-lock contention plus every
    /// city's per-stage attribution, lock-wait summaries (whose ingress
    /// row reads zero: the one ingress lock is reported at the top) and
    /// sampled complete request traces (non-empty only for cities
    /// configured with
    /// [`TraceConfig::Sampled`](crate::TraceConfig::Sampled)).
    /// Serialise with [`TraceReport::to_json`].
    pub fn trace_report(&self) -> TraceReport {
        let cities = self.inner.cities.read().expect("city registry poisoned");
        TraceReport {
            ingress: self.inner.ingress.locks.summary(),
            durability: self.durability_stats(),
            chaos: self.chaos_stats(),
            cities: cities
                .iter()
                .enumerate()
                .map(|(i, city)| {
                    let snap = city.service.stats();
                    CityTrace {
                        city: i as u32,
                        stages: snap.stages,
                        locks: snap.locks,
                        traces: city.service.tracer().samples(),
                    }
                })
                .collect(),
        }
    }

    /// The report exported by the most recent background maintenance
    /// sweep, or `None` when no janitor is configured (or it has not
    /// swept yet).
    pub fn maintenance_report(&self) -> Option<MaintenanceReport> {
        self.inner
            .last_maintenance
            .lock()
            .expect("maintenance report poisoned")
            .clone()
    }

    /// Runs one maintenance sweep right now (independent of the
    /// janitor's cadence): evicts truths at least `max_age` old from
    /// every city and exports a report. Returns how many truths were
    /// evicted.
    pub fn sweep_now(&self, max_age: Duration) -> usize {
        maintenance_sweep(&self.inner, max_age)
    }

    /// Point-in-time durability counters, or `None` with durability off.
    pub fn durability_stats(&self) -> Option<DurabilitySnapshot> {
        self.inner.durable.as_ref().map(|d| d.counters.snapshot())
    }

    /// Blocks until every resolution committed before this call has
    /// been appended to the WAL, flushed and fsynced. No-op with
    /// durability off.
    pub fn sync_durable(&self) {
        if let Some(durable) = &self.inner.durable {
            durable.sync();
        }
    }

    /// Streams a snapshot of every city — truth-store contents, and the
    /// crowd state (answer history, rewards, RNG) of cities registered
    /// with a [`CrowdServing::with_persist`] handle — into `dir`.
    ///
    /// The snapshot is written to a temporary file and renamed into
    /// place, so a crash mid-snapshot leaves any previous checkpoint in
    /// `dir` loadable. With durability on, the WAL is rotated first and
    /// the snapshot records the rotation watermark; WAL segments are
    /// **not** deleted (use [`Platform::checkpoint`] for
    /// snapshot-plus-truncation). Shards are exported under brief
    /// per-shard read locks — serving continues throughout. Returns the
    /// watermark (0 with durability off).
    pub fn snapshot_to(&self, dir: &std::path::Path) -> Result<u64, DurableError> {
        snapshot_platform(&self.inner, dir, false)
    }

    /// A full checkpoint into the configured durability directory:
    /// rotates the WAL, snapshots, then deletes the sealed segments
    /// below the rotation cut — their records are folded into the
    /// snapshot. Errors with durability off.
    pub fn checkpoint(&self) -> Result<u64, DurableError> {
        checkpoint_platform(&self.inner)
    }

    /// Rebuilds state from `dir`: loads the snapshot (if one exists),
    /// then replays every WAL record it does not already cover
    /// (deduplicated by truth sequence / crowd generation, so the
    /// rotation overlap is harmless). Cities must already be registered,
    /// in the same order and over the same geometry as when the state
    /// was produced. Truth sequence counters and crowd generations are
    /// re-seeded, so serving resumes with monotone sequences — a warm
    /// restart: truths and answer history intact, caches (mining
    /// artifacts) deliberately cold.
    pub fn recover_from(&self, dir: &std::path::Path) -> Result<RecoveryReport, DurableError> {
        self.apply_durable(dir, None)
    }

    /// The replay oracle: re-applies the full WAL — ignoring any
    /// snapshot — onto this freshly registered platform. The result is
    /// entry-wise identical to the live store the log was written by,
    /// provided no checkpoint has truncated the log (after truncation,
    /// the snapshot is part of the authoritative state — use
    /// [`Platform::recover_from`]).
    pub fn replay_log(&self, dir: &std::path::Path) -> Result<RecoveryReport, DurableError> {
        self.apply_durable(dir, Some(u64::MAX))
    }

    /// Like [`Platform::replay_log`] but stops after the record with WAL
    /// sequence `upto` (inclusive) — a point-in-time audit prefix.
    pub fn replay_until(
        &self,
        dir: &std::path::Path,
        upto: u64,
    ) -> Result<RecoveryReport, DurableError> {
        self.apply_durable(dir, Some(upto))
    }

    /// Shared engine behind [`Platform::recover_from`] (snapshot + log)
    /// and [`Platform::replay_until`] (`log_only_upto = Some(_)`: log
    /// only, bounded).
    fn apply_durable(
        &self,
        dir: &std::path::Path,
        log_only_upto: Option<u64>,
    ) -> Result<RecoveryReport, DurableError> {
        let cities: Vec<Arc<CityState>> = self
            .inner
            .cities
            .read()
            .expect("city registry poisoned")
            .iter()
            .map(Arc::clone)
            .collect();
        let mut report = RecoveryReport::default();
        let mut seen: Vec<HashSet<u64>> = (0..cities.len()).map(|_| HashSet::new()).collect();
        let mut crowd_gen: Vec<u64> = vec![0; cities.len()];
        if log_only_upto.is_none() {
            if let Some(snap) = read_snapshot(dir)? {
                report.wal_watermark = snap.wal_watermark;
                for city_snap in &snap.cities {
                    let idx = city_snap.city as usize;
                    let Some(city) = cities.get(idx) else {
                        return Err(DurableError::Mismatch(format!(
                            "snapshot names city {idx} but only {} cities are registered",
                            cities.len()
                        )));
                    };
                    let graph = city.service.world().graph();
                    for rec in &city_snap.truths {
                        let entry = entry_from_parts(
                            graph,
                            rec.from,
                            rec.to,
                            rec.departure,
                            rec.confidence,
                            &rec.edges,
                        )?;
                        city.service.truths().insert_with_seq(graph, entry, rec.seq);
                        seen[idx].insert(rec.seq);
                        report.truths_restored += 1;
                    }
                    // Re-seed the global sequence even when the city had
                    // inserts past the last exported entry.
                    city.service.truths().seed_seq(city_snap.next_seq);
                    if let Some(crowd_snap) = &city_snap.crowd {
                        let Some(state) = &city.crowd_state else {
                            return Err(DurableError::Mismatch(format!(
                                "snapshot carries crowd state for city {idx}, \
                                 which was registered without a persist handle"
                            )));
                        };
                        state
                            .import_state(&PlatformState {
                                generation: crowd_snap.generation,
                                rng: crowd_snap.rng,
                                points: crowd_snap.points.clone(),
                                response_times: crowd_snap.response_times.clone(),
                                history: crowd_snap.history.clone(),
                            })
                            .map_err(|e| DurableError::Mismatch(e.to_string()))?;
                        crowd_gen[idx] = crowd_snap.generation;
                        report.answers_restored += crowd_snap.generation;
                    }
                }
            }
        }
        let upto = log_only_upto.unwrap_or(u64::MAX);
        for (wal_seq, event) in read_log(dir)? {
            if wal_seq > upto {
                break;
            }
            report.last_wal_seq = Some(wal_seq);
            let idx = event.city() as usize;
            let Some(city) = cities.get(idx) else {
                return Err(DurableError::Mismatch(format!(
                    "the log names city {idx} but only {} cities are registered",
                    cities.len()
                )));
            };
            match event {
                Event::Truth {
                    seq,
                    from,
                    to,
                    departure,
                    confidence,
                    ref edges,
                    ..
                } => {
                    if !seen[idx].insert(seq) {
                        report.truths_skipped += 1;
                        continue;
                    }
                    let graph = city.service.world().graph();
                    let entry = entry_from_parts(graph, from, to, departure, confidence, edges)?;
                    city.service.truths().insert_with_seq(graph, entry, seq);
                    report.truths_replayed += 1;
                }
                Event::Answer {
                    generation,
                    worker,
                    landmark,
                    correct,
                    response_time,
                    ..
                } => {
                    let Some(state) = &city.crowd_state else {
                        return Err(DurableError::Mismatch(format!(
                            "the log carries crowd answers for city {idx}, \
                             which was registered without a persist handle"
                        )));
                    };
                    if generation <= crowd_gen[idx] {
                        report.answers_skipped += 1;
                        continue;
                    }
                    state.apply_answer(&AnswerRecord {
                        worker: WorkerId(worker),
                        landmark: LandmarkId(landmark),
                        correct,
                        response_time,
                        generation,
                    });
                    crowd_gen[idx] = generation;
                    report.answers_replayed += 1;
                }
            }
        }
        Ok(report)
    }

    /// Stops admissions, drains every queued job (each admitted ticket
    /// resolves exactly once) and joins the worker pool (janitor
    /// included). Idempotent; dropping the platform without calling this
    /// does the same.
    pub fn shutdown(self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&self) {
        self.inner.ingress.drain();
        {
            let mut stop = self
                .inner
                .maintenance_stop
                .lock()
                .expect("maintenance stop poisoned");
            *stop = true;
            self.inner.maintenance_cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        // Workers are gone, so no new commit events: drain what's
        // queued, final fsync, and join the writer thread.
        if let Some(durable) = &self.inner.durable {
            durable.stop_and_join();
        }
    }
}

/// Assembles the full platform snapshot from shared state (used by both
/// the public [`Platform::stats`] and the janitor's export).
fn snapshot_of(inner: &Inner) -> PlatformSnapshot {
    let cities = inner.cities.read().expect("city registry poisoned");
    let agg = ServiceStats::new();
    let mut truth_evictions = 0u64;
    let mut locks = [LockSummary::default(); LockSite::COUNT];
    for city in cities.iter() {
        agg.absorb(city.service.raw_stats());
        truth_evictions += city.service.truths().evicted();
        for (acc, site) in locks.iter_mut().zip(city.service.lock_summaries()) {
            acc.waits += site.waits;
            acc.wait += site.wait;
            acc.poisoned += site.poisoned;
        }
    }
    let mut aggregate = agg.snapshot();
    aggregate.truth_evictions = truth_evictions;
    // Every city's slice — depth, admission, dispatch counters — in one
    // hold of the ingress lock, under which admission and dispatch move
    // them: every per-city ledger in [`PlatformSnapshot::is_consistent`]
    // and their platform-wide sums are exact at this one instant.
    let ingress = inner.ingress.lock();
    let per_city: Vec<CityQueueSnapshot> = ingress
        .cities
        .iter()
        .zip(cities.iter())
        .enumerate()
        .map(|(i, (c, city))| CityQueueSnapshot {
            city: CityId(i as u32),
            weight: c.weight,
            queue_depth: c.jobs.len(),
            admitted: c.admitted,
            served_inline: c.served_inline,
            deduped: c.deduped,
            rejected_busy: c.rejected_busy,
            batched_requests: c.batched_requests,
            unbatched_requests: c.unbatched_requests,
            batch_runs: c.batch_runs,
            batch_max: c.batch_max,
            offboarded: c.offboarded,
            shed: c.shed,
            breaker: city.breaker.as_ref().map(|b| b.snapshot()),
        })
        .collect();
    let (submitted, unknown_city, unknown_node, shutdown, offboarded) = (
        ingress.submitted,
        ingress.rejected_unknown_city,
        ingress.rejected_unknown_node,
        ingress.rejected_shutdown,
        ingress.rejected_offboarded,
    );
    drop(ingress);
    locks[LockSite::Ingress.index()] = inner.ingress.locks.summary();
    aggregate.locks = locks;
    PlatformSnapshot {
        submitted,
        admitted: per_city.iter().map(|c| c.admitted).sum(),
        served_inline: per_city.iter().map(|c| c.served_inline).sum(),
        deduped: per_city.iter().map(|c| c.deduped).sum(),
        rejected_busy: per_city.iter().map(|c| c.rejected_busy).sum(),
        rejected_unknown_city: unknown_city,
        rejected_unknown_node: unknown_node,
        rejected_shutdown: shutdown,
        rejected_offboarded: offboarded,
        shed: per_city.iter().map(|c| c.shed).sum(),
        completed: inner.completed.load(Ordering::Relaxed),
        cities: cities.len(),
        queue_depth: per_city.iter().map(|c| c.queue_depth).sum(),
        batched_requests: per_city.iter().map(|c| c.batched_requests).sum(),
        unbatched_requests: per_city.iter().map(|c| c.unbatched_requests).sum(),
        batch_runs: per_city.iter().map(|c| c.batch_runs).sum(),
        batch_max: per_city.iter().map(|c| c.batch_max).max().unwrap_or(0),
        batch_delay: Duration::ZERO,
        batch_delay_raises: 0,
        batch_delay_drops: 0,
        per_city,
        maintenance_sweeps: inner.maintenance_sweeps.load(Ordering::Relaxed),
        durability: inner.durable.as_ref().map(|d| d.counters.snapshot()),
        chaos: inner.chaos.as_ref().map(|c| c.snapshot()),
        aggregate,
    }
}

/// Builds a [`TruthEntry`] back from its logged parts, re-chaining the
/// edge ids into a [`RoutePath`] on the city's graph.
fn entry_from_parts(
    graph: &cp_roadnet::RoadGraph,
    from: u32,
    to: u32,
    departure: f64,
    confidence: f64,
    edges: &[u32],
) -> Result<TruthEntry, DurableError> {
    let edge_ids: Vec<EdgeId> = edges.iter().map(|&e| EdgeId(e)).collect();
    let path = RoutePath::from_edges(graph, edge_ids).ok_or_else(|| {
        DurableError::Mismatch(
            "a logged path's edges do not chain on this city's graph \
             (recovering against different city geometry?)"
                .into(),
        )
    })?;
    Ok(TruthEntry {
        from: NodeId(from),
        to: NodeId(to),
        departure: TimeOfDay(departure),
        path,
        confidence,
    })
}

/// Streams one snapshot of every registered city into `dir`; with
/// `truncate` (the checkpoint path) the sealed WAL segments below the
/// rotation cut are deleted afterwards.
///
/// Ordering argument: the WAL is rotated **first**. Every record in a
/// sealed segment was appended before the rotation ack, and its store
/// insert completed before the commit site sent it — so the shard
/// exports taken below observe it. Records landing in the fresh segment
/// may or may not make the snapshot; recovery deduplicates them by
/// truth sequence / crowd generation, so the overlap is harmless and
/// nothing is lost.
fn snapshot_platform(
    inner: &Inner,
    dir: &std::path::Path,
    truncate: bool,
) -> Result<u64, DurableError> {
    let cut = inner.durable.as_ref().and_then(|d| d.rotate());
    let watermark = cut.map(|(first_seq, _)| first_seq).unwrap_or(0);
    let cities: Vec<Arc<CityState>> = inner
        .cities
        .read()
        .expect("city registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut writer = SnapshotWriter::create(dir)?;
    for (idx, city) in cities.iter().enumerate() {
        let store = city.service.truths();
        writer.begin_city(idx as u32, store.next_seq())?;
        for shard in 0..store.shard_count() {
            // One shard at a time: brief read locks, serving continues.
            for (seq, entry) in store.export_shard(shard) {
                writer.truth(&TruthRec {
                    seq,
                    from: entry.from.0,
                    to: entry.to.0,
                    departure: entry.departure.0,
                    confidence: entry.confidence,
                    edges: entry.path.edges().iter().map(|e| e.0).collect(),
                })?;
            }
        }
        if let Some(state) = &city.crowd_state {
            let crowd = state.export_state();
            writer.crowd(&CrowdSnapshot {
                generation: crowd.generation,
                rng: crowd.rng,
                points: crowd.points,
                response_times: crowd.response_times,
                history: crowd.history,
            })?;
        }
    }
    writer.finish(watermark)?;
    if truncate {
        if let (Some(durable), Some((_, cut_index))) = (&inner.durable, cut) {
            purge_segments_below(dir, cut_index)?;
            durable.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
            durable
                .counters
                .last_checkpoint_seq
                .store(watermark, Ordering::Relaxed);
            *durable
                .counters
                .last_checkpoint_at
                .lock()
                .expect("checkpoint clock poisoned") = Some(Instant::now());
        }
    }
    Ok(watermark)
}

/// A full checkpoint into the configured durability directory (rotate,
/// snapshot, truncate). Errors with durability off.
fn checkpoint_platform(inner: &Inner) -> Result<u64, DurableError> {
    let Some(durable) = &inner.durable else {
        return Err(DurableError::Mismatch(
            "durability is not configured on this platform".into(),
        ));
    };
    let dir = durable.cfg.dir.clone();
    snapshot_platform(inner, &dir, true)
}

/// One maintenance sweep: age-evict every city's truths, bump the sweep
/// counters and export a fresh report.
fn maintenance_sweep(inner: &Inner, max_age: Duration) -> usize {
    let cities: Vec<Arc<CityState>> = inner
        .cities
        .read()
        .expect("city registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut evicted = 0usize;
    for city in &cities {
        evicted += city.service.evict_truths_older_than(max_age);
    }
    let sweeps = inner.maintenance_sweeps.fetch_add(1, Ordering::Relaxed) + 1;
    let evicted_total = inner
        .maintenance_evicted
        .fetch_add(evicted as u64, Ordering::Relaxed)
        + evicted as u64;
    let report = MaintenanceReport {
        sweeps,
        evicted,
        evicted_total,
        snapshot: snapshot_of(inner),
    };
    *inner
        .last_maintenance
        .lock()
        .expect("maintenance report poisoned") = Some(report);
    evicted
}

/// The resident janitor: park until the next sweep is due, sweep,
/// repeat, until shutdown wakes it. Sweeping is caller-invisible
/// (workers keep serving); only truths past `max_age` are touched.
fn janitor_loop(inner: &Inner, cfg: MaintenanceConfig) {
    // `None`: the interval overflows the clock, so no sweep is ever due
    // and the janitor parks until shutdown.
    let mut next_sweep = Instant::now().checked_add(cfg.interval);
    loop {
        let stop = inner
            .maintenance_stop
            .lock()
            .expect("maintenance stop poisoned");
        // Check before parking: a shutdown notification fired while the
        // janitor was mid-sweep would otherwise be lost (condvar
        // notifications are not sticky) and shutdown would block for a
        // full interval.
        if *stop {
            break;
        }
        let cv = &inner.maintenance_cv;
        let stop = match next_sweep {
            Some(due) => {
                let wait = due.saturating_duration_since(Instant::now());
                cv.wait_timeout(stop, wait)
                    .expect("maintenance stop poisoned")
                    .0
            }
            None => cv.wait(stop).expect("maintenance stop poisoned"),
        };
        if *stop {
            break;
        }
        drop(stop);
        let now = Instant::now();
        if next_sweep.is_some_and(|due| now >= due) {
            maintenance_sweep(inner, cfg.max_age);
            next_sweep = now.checked_add(cfg.interval);
        }
    }
}

impl Drop for Platform {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("cities", &self.city_count())
            .field("workers", &self.inner.cfg.workers)
            .field("queue_capacity", &self.inner.cfg.queue_capacity)
            .finish()
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A completed ticket's sojourn since `submitted_at`, in nanoseconds:
/// at least 1, because 0 marks a pending ticket.
fn sojourn_ns(submitted_at: Instant) -> u64 {
    elapsed_ns(submitted_at).max(1)
}

/// Attributes a job's admission→now wait to [`Stage::QueueWait`] in its
/// city's histograms (tracing-gated by the caller).
fn record_queue_wait(service: &RouteService, job: &Job) {
    service
        .raw_stats()
        .record_stage(Stage::QueueWait, elapsed_ns(job.admitted_at));
}

/// The worker-side dispatch: under the ingress lock, pick a city by
/// weighted DRR and pop its next run, or park on `work` until a
/// submission or drain wakes us. Returns `None` — the worker's exit
/// signal — only when draining is set and every queue is empty.
fn next_job(inner: &Inner) -> Option<(usize, Arc<CityState>, Vec<Job>)> {
    let max_batch = inner.cfg.batch.map_or(1, |b| b.max_batch);
    let mut ingress = inner.ingress.lock();
    loop {
        if let Some(i) = ingress.drr_pick() {
            let run = ingress.pop_run(i, max_batch);
            inner.ingress.wake_submitters(&ingress);
            // Locks nest registry first, then ingress (registration and
            // `stats` do), so release the ingress lock before reading
            // the registry.
            drop(ingress);
            let city = Arc::clone(&inner.cities.read().expect("city registry poisoned")[i]);
            return Some((i, city, run));
        }
        if ingress.draining {
            return None;
        }
        ingress = inner.ingress.wait_for_work(ingress);
    }
}

/// The resident worker: pick a `(city, run)` via weighted DRR (a run of
/// one unless [`PlatformConfig::batch`] coalesces queued cell-mates),
/// route it to the city's service with this worker's cached per-city
/// resolver, fulfil the ticket(s).
/// Exits once draining is set and every city's queue is empty — never
/// before, so every admitted ticket is resolved exactly once. A
/// panicking resolver is contained: the affected tickets resolve with
/// [`ServiceError::ResolverPanicked`], the panicked resolver is
/// discarded (rebuilt from the factory on the city's next request) and
/// the worker keeps serving — a panic can never strand tickets or
/// shrink the pool.
fn worker_loop(inner: &Inner, worker_idx: usize) {
    let mut resolvers: Vec<Option<Box<dyn Resolver + Send>>> = Vec::new();
    loop {
        let Some((city_idx, city, run)) = next_job(inner) else {
            break;
        };
        if let Some(chaos) = &inner.chaos {
            // Worker-side injection, after the dispatch decision and
            // before service: churn (cache-invalidating generation
            // bumps under load), stalls and slowdowns all hit a request
            // that is already owned, so "every admitted ticket resolves
            // exactly once" is what these faults put under test.
            if chaos.roll(FaultSite::GenerationChurn) {
                city.service.world().bump_generation();
            }
            if chaos.roll(FaultSite::StallWorker) {
                std::thread::sleep(crate::chaos::STALL_WORKER_DELAY);
            } else if chaos.roll(FaultSite::SlowWorker) {
                std::thread::sleep(crate::chaos::SLOW_WORKER_DELAY);
            }
        }
        if city.service.tracer().enabled() {
            for job in &run {
                record_queue_wait(&city.service, job);
            }
        }
        if resolvers.len() <= city_idx {
            resolvers.resize_with(city_idx + 1, || None);
        }
        let resolver = resolvers[city_idx].get_or_insert_with(|| (city.factory)(worker_idx));
        let reqs: Vec<Request> = run.iter().map(|j| j.req).collect();
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            city.service.serve_coalesced(&reqs, resolver)
        }))
        .unwrap_or_else(|_| {
            // Non-resolver panic inside the serving ladder (the resolver
            // kind is contained and surfaces as results): fail every
            // ticket in the run, with best-effort error accounting.
            city.service.note_panicked_requests(run.len());
            run.iter()
                .map(|_| Err(ServiceError::ResolverPanicked))
                .collect()
        });
        // Either way the resolver may have been left mid-mutation:
        // discard it; it is rebuilt lazily from the city's factory.
        if results
            .iter()
            .any(|r| matches!(r, Err(ServiceError::ResolverPanicked)))
        {
            resolvers[city_idx] = None;
        }
        // The run's truths are committed: close its in-flight keys, then
        // serve each job's followers its outcome, outside the lock.
        let followers = inner.ingress.lock().release(city_idx, &run);
        for ((job, result), followers) in run.into_iter().zip(results).zip(followers) {
            for slot in followers {
                let shared = city
                    .service
                    .book_follower(&result, slot.submitted_at.elapsed());
                inner.completed.fetch_add(1, Ordering::Relaxed);
                slot.fulfill(shared);
            }
            inner.completed.fetch_add(1, Ordering::Relaxed);
            job.slot.fulfill(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{RequestKey, Served};
    use crate::ingress::Ingress;
    use cp_roadnet::{generate_city, CityParams, NodeId};
    use cp_traj::{generate_trips, TimeOfDay, TripGenParams};
    use std::sync::mpsc::{channel, Receiver, Sender};

    fn mini_world(seed: u64) -> Arc<World> {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), seed).unwrap();
        Arc::new(World::new(city.graph, trips.trips))
    }

    #[test]
    fn platform_is_send_sync_and_tickets_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Platform>();
        assert_send::<Ticket>();
    }

    #[test]
    fn submit_wait_round_trip_and_stats() {
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 2,
            queue_capacity: 64,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        assert_eq!(id, CityId(0));
        let ticket = platform
            .submit(Request::to_city(
                id,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap();
        assert_eq!(ticket.city(), id);
        let served = ticket.wait().unwrap();
        assert_eq!(served.path.source(), NodeId(0));
        assert_eq!(served.path.destination(), NodeId(59));
        let snap = platform.stats();
        assert!(snap.is_consistent());
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.admitted, 1);
        assert_eq!(snap.cities, 1);
        platform.shutdown();
    }

    #[test]
    fn try_wait_polls_and_latency_reports_after_completion() {
        let platform = Platform::start(PlatformConfig::default());
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let ticket = platform
            .submit(Request::to_city(
                id,
                NodeId(3),
                NodeId(55),
                TimeOfDay::from_hours(9.0),
            ))
            .unwrap();
        // Poll until done (the worker may or may not have finished yet —
        // both `None` and `Some` are legal while we spin).
        let result = loop {
            if let Some(result) = ticket.try_wait() {
                break result;
            }
            std::thread::yield_now();
        };
        assert!(result.is_ok());
        assert!(ticket.is_done());
        let lat = ticket.latency().expect("completed tickets report latency");
        assert!(lat > Duration::ZERO);
        // try_wait clones; wait still yields the result afterwards.
        assert!(ticket.wait().is_ok());
        platform.shutdown();
    }

    #[test]
    fn wait_timeout_expires_then_completes() {
        // A platform with zero appetite: one worker, wedged behind a
        // slow-city request, so a second ticket predictably outlives a
        // tiny deadline.
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 1,
            queue_capacity: 64,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let submit = |n: u32| {
            platform
                .submit(Request::to_city(
                    id,
                    NodeId(n),
                    NodeId(59 - n),
                    TimeOfDay::from_hours(8.0),
                ))
                .unwrap()
        };
        // Enough queued work that the last ticket cannot resolve within
        // a zero-length deadline.
        let tickets: Vec<Ticket> = (0..16).map(submit).collect();
        let last = tickets.into_iter().next_back().unwrap();
        let mut ticket = match last.wait_timeout(Duration::ZERO) {
            Err(ticket) => ticket,
            // Absurdly fast machine: the result is already in — the Ok
            // side is still a valid outcome of the API.
            Ok(result) => return assert!(result.is_ok()),
        };
        // The returned ticket keeps working: a generous re-wait joins
        // the same request.
        loop {
            match ticket.wait_timeout(Duration::from_secs(5)) {
                Ok(result) => {
                    assert!(result.is_ok());
                    break;
                }
                Err(t) => ticket = t,
            }
        }
        platform.shutdown();
    }

    #[test]
    fn unknown_city_is_rejected_without_enqueueing() {
        let platform = Platform::start(PlatformConfig::default());
        let err = platform
            .submit(Request::to_city(
                CityId(5),
                NodeId(0),
                NodeId(1),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownCity(CityId(5)));
        let snap = platform.stats();
        assert_eq!(snap.rejected_unknown_city, 1);
        assert_eq!(snap.admitted, 0);
        assert!(snap.is_consistent());
        platform.shutdown();
    }

    #[test]
    fn out_of_range_nodes_are_rejected_and_the_only_worker_survives() {
        let platform = Platform::start(PlatformConfig {
            workers: 1,
            ..PlatformConfig::default()
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let at = |from: u32, to: u32| {
            Request::to_city(id, NodeId(from), NodeId(to), TimeOfDay::from_hours(8.0))
        };
        // The mini city has 60 nodes: 60 is the first id past its graph.
        for (req, node) in [(at(100_000, 59), 100_000), (at(0, 60), 60)] {
            let want = ServiceError::UnknownNode {
                city: id,
                node: NodeId(node),
            };
            assert_eq!(platform.submit(req).unwrap_err(), want);
            assert_eq!(platform.submit_blocking(req).unwrap_err(), want);
        }
        let served = platform
            .submit(at(0, 59))
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .expect("the only worker still serves")
            .unwrap();
        assert_eq!(served.path.destination(), NodeId(59));
        let snap = platform.stats();
        assert_eq!(snap.rejected_unknown_node, 4);
        assert_eq!(snap.admitted, 1);
        assert!(snap.is_consistent(), "{snap:?}");
        platform.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        // One worker behind a 1-slot queue, hammered with non-blocking
        // submits: resolution takes far longer than enqueueing, so some
        // submits must find the queue full and shed.
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 1,
            queue_capacity: 1,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let mut busy = 0u32;
        let mut tickets = Vec::new();
        for i in 0..200u32 {
            let req = Request::to_city(
                id,
                NodeId(i % 20),
                NodeId(59 - (i % 13)),
                TimeOfDay::from_hours(8.0),
            );
            match platform.submit(req) {
                Ok(t) => tickets.push(t),
                Err(ServiceError::Busy) => busy += 1,
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        assert!(busy > 0, "a 1-slot queue under burst load must shed");
        for t in tickets {
            t.wait().unwrap();
        }
        let snap = platform.stats();
        assert_eq!(snap.rejected_busy, busy as u64);
        assert!(snap.is_consistent());
        platform.shutdown();
    }

    #[test]
    fn shutdown_drains_and_rejects_new_work() {
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 2,
            queue_capacity: 128,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let tickets: Vec<Ticket> = (0..50u32)
            .map(|i| {
                platform
                    .submit_blocking(Request::to_city(
                        id,
                        NodeId(i % 20),
                        NodeId(59 - (i % 13)),
                        TimeOfDay::from_hours(8.0),
                    ))
                    .unwrap()
            })
            .collect();
        let snap_before = platform.stats();
        assert_eq!(snap_before.admitted, 50);
        platform.shutdown();
        // Every admitted ticket resolved exactly once.
        for t in &tickets {
            assert!(t.is_done(), "shutdown must drain all admitted tickets");
            assert!(t.try_wait().unwrap().is_ok());
        }
    }

    #[test]
    fn panicking_resolver_fails_its_ticket_but_not_the_platform() {
        use crate::resolver::Resolved;
        use cp_mining::CandidateRoute;

        /// Panics on one poisoned origin, resolves normally otherwise.
        struct Panicky(MachineResolver);
        impl Resolver for Panicky {
            fn resolve(
                &mut self,
                from: NodeId,
                to: NodeId,
                departure: TimeOfDay,
                candidates: &[CandidateRoute],
            ) -> Result<Resolved, ServiceError> {
                assert!(from != NodeId(13), "poisoned request");
                self.0.resolve(from, to, departure, candidates)
            }
        }

        let world = mini_world(7);
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 1,
            queue_capacity: 16,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let cfg = ServiceConfig::strict_deterministic();
        let core = cfg.core.clone();
        let graph = world.graph_arc();
        let built = Arc::new(AtomicU64::new(0));
        let factory_calls = Arc::clone(&built);
        let id = platform.register_city_with(Arc::clone(&world), cfg, move |_| {
            factory_calls.fetch_add(1, Ordering::Relaxed);
            Panicky(MachineResolver::new(Arc::clone(&graph), core.clone()))
        });

        let poisoned = platform
            .submit(Request::to_city(
                id,
                NodeId(13),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap();
        assert!(matches!(
            poisoned.wait(),
            Err(ServiceError::ResolverPanicked)
        ));

        // The single worker survived: later requests still serve, so a
        // panic can neither strand tickets nor shrink the pool.
        let healthy = platform
            .submit(Request::to_city(
                id,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap();
        assert!(healthy.wait().is_ok());

        let snap = platform.city_stats(id).unwrap();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        // The panicked run of one books its latency sample like any
        // other outcome, and the poisoned resolver was discarded and
        // rebuilt from the factory for the healthy request.
        assert_eq!(snap.latency.count, 2);
        assert_eq!(built.load(Ordering::Relaxed), 2);
        assert!(snap.is_consistent(), "{snap:?}");
        platform.shutdown();
    }

    #[test]
    fn wait_timeout_without_a_representable_deadline_waits_for_the_result() {
        let platform = Platform::start(PlatformConfig::default());
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let ticket = platform
            .submit(Request::to_city(
                id,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap();
        let served = ticket
            .wait_timeout(Duration::MAX)
            .expect("no deadline: the wait ends with the result")
            .unwrap();
        assert_eq!(served.path.destination(), NodeId(59));
        platform.shutdown();
    }

    #[test]
    fn a_janitor_whose_interval_overflows_the_clock_parks_until_shutdown() {
        let platform = Platform::start(PlatformConfig {
            maintenance: Some(MaintenanceConfig {
                interval: Duration::MAX,
                max_age: Duration::ZERO,
            }),
            ..PlatformConfig::default()
        });
        // The janitor is spawned last.
        let janitor = platform.workers.lock().unwrap().pop().expect("a janitor");
        platform.shutdown();
        janitor
            .join()
            .expect("the janitor parks until shutdown instead of dying");
    }

    #[test]
    fn janitor_sweeps_and_exports_reports() {
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 2,
            queue_capacity: 64,
            maintenance: Some(MaintenanceConfig {
                interval: Duration::from_millis(2),
                max_age: Duration::ZERO,
            }),
            batch: None,
            durability: None,
            chaos: None,
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        for i in 0..6u32 {
            platform
                .submit_blocking(Request::to_city(
                    id,
                    NodeId(i),
                    NodeId(59 - i),
                    TimeOfDay::from_hours(8.0),
                ))
                .unwrap()
                .wait()
                .unwrap();
        }
        // Every resolution deposited a truth with max_age ZERO: the
        // janitor must observe and evict them. Wait (bounded) for at
        // least one sweep that evicted something.
        let deadline = Instant::now() + Duration::from_secs(5);
        let report = loop {
            if let Some(r) = platform.maintenance_report() {
                if r.evicted_total > 0 {
                    break r;
                }
            }
            assert!(Instant::now() < deadline, "janitor never swept an eviction");
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(report.sweeps > 0);
        assert!(report.snapshot.is_consistent());
        assert!(report.snapshot.maintenance_sweeps >= report.sweeps);
        assert!(report.snapshot.aggregate.truth_evictions > 0);
        // The sweep counter also surfaces through the ordinary stats.
        assert!(platform.stats().maintenance_sweeps > 0);
        platform.shutdown();
    }

    #[test]
    fn sweep_now_runs_without_a_janitor() {
        let platform = Platform::start(PlatformConfig::default());
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        platform
            .submit_blocking(Request::to_city(
                id,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(platform.maintenance_report().map(|r| r.sweeps), None);
        let evicted = platform.sweep_now(Duration::ZERO);
        assert_eq!(evicted, 1);
        let report = platform.maintenance_report().expect("sweep exports");
        assert_eq!(report.sweeps, 1);
        assert_eq!(report.evicted, 1);
        platform.shutdown();
    }

    #[test]
    fn crowd_city_serves_on_the_resident_pool() {
        use crate::resolver::OracleFactory;
        use cp_crowd::{AnswerModel, PopulationParams, SharedCrowd, WorkerPopulation};
        use cp_roadnet::{generate_landmarks, LandmarkGenParams, LandmarkId};
        use cp_traj::{
            generate_checkins, generate_trips, infer_significance, CalibrationParams,
            CheckInGenParams, SignificanceParams, TripGenParams,
        };

        let city = generate_city(&CityParams::small(), 7).unwrap();
        let landmarks = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 7);
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let checkins = generate_checkins(&city.graph, &landmarks, &CheckInGenParams::default(), 7);
        let significance = infer_significance(
            &city.graph,
            &landmarks,
            &checkins,
            &trips,
            &CalibrationParams::default(),
            &SignificanceParams::default(),
        );
        let world = Arc::new(World::new(city.graph.clone(), trips.trips));
        let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), 7);
        let mut crowd_platform = cp_crowd::Platform::new(pop, AnswerModel::default(), 7);
        crowd_platform.warm_up(&landmarks, 10);
        let desk = Arc::new(SharedCrowd::new(crowd_platform, 3));
        let oracle: Arc<dyn OracleFactory> =
            Arc::new(|_f: NodeId, _t: NodeId| |l: LandmarkId| l.0.is_multiple_of(2));

        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 2,
            queue_capacity: 64,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let bad = platform.register_city_crowd(
            Arc::clone(&world),
            ServiceConfig::default(),
            CrowdServing::new(
                Arc::new(landmarks.clone()),
                Arc::new(vec![0.5; 3]),
                Arc::clone(&desk) as Arc<dyn cp_crowd::CrowdDesk>,
                Arc::clone(&oracle),
            ),
        );
        assert!(bad.is_err(), "length mismatch must fail at registration");

        let id = platform
            .register_city_crowd(
                Arc::clone(&world),
                ServiceConfig::default(),
                CrowdServing::new(
                    Arc::new(landmarks),
                    Arc::new(significance),
                    Arc::clone(&desk) as Arc<dyn cp_crowd::CrowdDesk>,
                    oracle,
                ),
            )
            .unwrap();
        for (a, b) in [(0u32, 59u32), (5, 54), (12, 47)] {
            let served = platform
                .submit_blocking(Request::to_city(
                    id,
                    NodeId(a),
                    NodeId(b),
                    TimeOfDay::from_hours(8.0),
                ))
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(served.path.source(), NodeId(a));
            assert_eq!(served.path.destination(), NodeId(b));
        }
        let snap = platform.city_stats(id).unwrap();
        assert_eq!(snap.requests, 3);
        assert!(snap.is_consistent());
        platform.shutdown();
        // Drained: no reservation leaked, no quota held.
        assert!(desk.desk_stats().is_drained());
    }

    /// The destination [`gated_platform`]'s resolver panics on.
    const POISON: NodeId = NodeId(7);

    /// A one-worker platform (`cfg` with `workers: 1`) over `world` with
    /// one strict city, whose resolver holds its first resolution: it
    /// signals the returned receiver, then waits until the returned
    /// sender fires. Whatever is submitted meanwhile stays queued behind
    /// that dispatch. A request to [`POISON`] panics the resolver once
    /// it passes the gate.
    fn gated_platform(
        world: &Arc<World>,
        cfg: PlatformConfig,
    ) -> (Platform, CityId, Receiver<()>, Sender<()>) {
        use crate::resolver::Resolved;
        use cp_mining::CandidateRoute;

        struct Gated(MachineResolver, Option<(Sender<()>, Receiver<()>)>);
        impl Resolver for Gated {
            fn resolve(
                &mut self,
                from: NodeId,
                to: NodeId,
                departure: TimeOfDay,
                candidates: &[CandidateRoute],
            ) -> Result<Resolved, ServiceError> {
                if let Some((entered, gate)) = self.1.take() {
                    // The test may not be listening; only the gate binds.
                    let _ = entered.send(());
                    gate.recv().expect("the test opens the gate");
                }
                assert!(to != POISON, "poisoned request");
                self.0.resolve(from, to, departure, candidates)
            }
        }

        let platform = Platform::start(PlatformConfig { workers: 1, ..cfg });
        let svc_cfg = ServiceConfig::strict_deterministic();
        let core = svc_cfg.core.clone();
        let graph = world.graph_arc();
        let (entered_tx, entered) = channel();
        let (open, gate) = channel();
        let gate = Mutex::new(Some((entered_tx, gate)));
        let id = platform.register_city_with(Arc::clone(world), svc_cfg, move |_| {
            let gate = gate.lock().expect("gate poisoned").take();
            Gated(MachineResolver::new(Arc::clone(&graph), core.clone()), gate)
        });
        (platform, id, entered, open)
    }

    /// The miss [`held_and_full`] holds its only worker inside.
    fn held_miss() -> Request {
        Request::to_city(CityId(0), NodeId(1), NodeId(50), TimeOfDay::from_hours(8.0))
    }

    /// A one-worker, two-slot platform over the mini city with the
    /// verified route of `key` already stored, its only worker held
    /// inside the resolution of [`held_miss`] and its queue at capacity
    /// with the misses to nodes 51 and 52. Returns the platform, `key`'s
    /// stored route, the held miss's ticket and the sender that releases
    /// the worker.
    fn held_and_full(key: Request) -> (Platform, ServedRoute, Ticket, Sender<()>) {
        let world = mini_world(7);
        let cfg = ServiceConfig::strict_deterministic();
        let reference = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut resolver = MachineResolver::new(world.graph_arc(), cfg.core);
        let stored = reference.handle(key, &mut resolver).unwrap();
        let (platform, id, entered, open) = gated_platform(
            &world,
            PlatformConfig {
                queue_capacity: 2,
                ..PlatformConfig::default()
            },
        );
        assert_eq!(id, key.city);
        let service = platform.city_service(id).unwrap();
        for (_, entry) in reference.truths().export() {
            service.truths().insert(world.graph(), entry);
        }
        let miss =
            |to: u32| Request::to_city(id, NodeId(1), NodeId(to), TimeOfDay::from_hours(8.0));
        let held = platform.submit(held_miss()).unwrap();
        entered.recv().expect("the worker takes the first miss");
        assert!(!held.is_done());
        for to in [51, 52] {
            platform.submit(miss(to)).unwrap();
        }
        assert_eq!(platform.submit(miss(53)).unwrap_err(), ServiceError::Busy);
        (platform, stored, held, open)
    }

    #[test]
    fn a_stored_key_is_served_at_submit_while_the_worker_is_held_and_the_queue_full() {
        let key = Request::to_city(CityId(0), NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let (platform, stored, _, open) = held_and_full(key);
        for ticket in [platform.submit(key), platform.submit_blocking(key)] {
            let ticket = ticket.expect("a truth hit is never shed");
            assert!(ticket.is_done(), "complete when returned");
            assert!(ticket.latency().is_some());
            let served = ticket.wait().unwrap();
            assert_eq!(served.served, Served::TruthHit);
            assert_eq!(served.path, stored.path);
            assert_eq!(served.confidence.to_bits(), stored.confidence.to_bits());
        }
        open.send(()).unwrap();
        platform.shutdown();
    }

    #[test]
    fn a_snapshot_while_the_worker_is_held_balances_with_served_inline() {
        let key = Request::to_city(CityId(0), NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let (platform, _, _, open) = held_and_full(key);
        for _ in 0..3 {
            platform.submit(key).unwrap();
        }
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        let row = &snap.per_city[0];
        assert!(row.is_consistent(), "{row:?}");
        // Three misses (one on the held worker, two queued) and three
        // hits; one more miss was shed.
        assert_eq!(
            (row.admitted, row.served_inline, row.unbatched_requests),
            (6, 3, 1)
        );
        assert_eq!((row.queue_depth, row.rejected_busy), (2, 1));
        assert_eq!(snap.served_inline, 3);
        // Each hit is booked like a worker-served truth hit; of the
        // misses only the held one has entered the ladder (booked on
        // entry, no outcome or latency yet).
        let city = platform.city_stats(CityId(0)).unwrap();
        assert_eq!((city.requests, city.truth_hits), (4, 3));
        assert_eq!(city.latency.count, 3);
        open.send(()).unwrap();
        platform.shutdown();
    }

    #[test]
    fn shutdown_wakes_submitters_blocked_on_every_city() {
        // One held worker, two cities with full one-slot queues and two
        // blocking submitters parked on each: starting the drain must
        // wake all four with `ShuttingDown`, and the drain must still
        // serve every queued job once the worker is released.
        let world = mini_world(7);
        let (platform, a, entered, open) = gated_platform(
            &world,
            PlatformConfig {
                queue_capacity: 1,
                ..PlatformConfig::default()
            },
        );
        let b = platform.register_city(mini_world(11), ServiceConfig::strict_deterministic());
        let miss = |city: CityId, to: u32| {
            Request::to_city(city, NodeId(1), NodeId(to), TimeOfDay::from_hours(8.0))
        };
        let held = platform.submit(miss(a, 50)).unwrap();
        entered.recv().expect("the worker takes the first miss");
        let queued = [
            platform.submit(miss(a, 51)).unwrap(),
            platform.submit(miss(b, 51)).unwrap(),
        ];
        let platform = &platform;
        std::thread::scope(|s| {
            let blocked: Vec<_> = [(a, 52), (a, 53), (b, 52), (b, 53)]
                .into_iter()
                .map(|(city, to)| s.spawn(move || platform.submit_blocking(miss(city, to))))
                .collect();
            while platform.inner.ingress.lock().blocked_submitters < 4 {
                std::thread::yield_now();
            }
            let stopping = s.spawn(|| platform.shutdown_impl());
            for submitter in blocked {
                assert_eq!(
                    submitter.join().unwrap().unwrap_err(),
                    ServiceError::ShuttingDown
                );
            }
            open.send(()).unwrap();
            stopping.join().unwrap();
        });
        for ticket in queued.into_iter().chain([held]) {
            assert!(ticket.wait().is_ok());
        }
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(
            (snap.admitted, snap.completed, snap.rejected_shutdown),
            (3, 3, 4)
        );
    }

    #[test]
    fn a_would_be_hit_after_shutdown_starts_or_offboarding_books_nothing() {
        let key = Request::to_city(CityId(0), NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let (platform, _, _, open) = held_and_full(key);
        let before = platform.city_stats(CityId(0)).unwrap();
        std::thread::scope(|s| {
            // Shutdown raises every drain flag, then blocks joining the
            // held worker.
            let stopping = s.spawn(|| platform.shutdown_impl());
            while !platform.inner.ingress.lock().draining {
                std::thread::yield_now();
            }
            assert_eq!(
                platform.submit(key).unwrap_err(),
                ServiceError::ShuttingDown
            );
            assert_eq!(
                platform.submit_blocking(key).unwrap_err(),
                ServiceError::ShuttingDown
            );
            assert_eq!(platform.city_stats(CityId(0)).unwrap(), before);
            open.send(()).unwrap();
            stopping.join().unwrap();
        });

        let platform = Platform::start(PlatformConfig::default());
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        platform.submit(key).unwrap().wait().unwrap();
        let service = platform.city_service(id).unwrap();
        let stored = service.truths().export();
        platform.deregister_city(id).unwrap();
        // Offboarding evicted the truth; put it back so the probe hits.
        for (_, entry) in stored {
            service.truths().insert(service.world().graph(), entry);
        }
        let before = platform.city_stats(id).unwrap();
        assert_eq!(
            platform.submit(key).unwrap_err(),
            ServiceError::CityOffboarded(id)
        );
        assert_eq!(platform.city_stats(id).unwrap(), before);
        let snap = platform.stats();
        assert_eq!((snap.admitted, snap.served_inline), (1, 0));
        assert!(snap.is_consistent(), "{snap:?}");
        platform.shutdown();
    }

    #[test]
    fn a_duplicate_of_the_held_miss_is_admitted_with_the_queue_full_and_shares_its_route() {
        let key = Request::to_city(CityId(0), NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let (platform, _, held, open) = held_and_full(key);
        let followers = [
            platform.submit(held_miss()),
            platform.submit_blocking(held_miss()),
        ]
        .map(|t| t.expect("a duplicate of an in-flight miss needs no queue slot"));
        assert!(followers.iter().all(|t| !t.is_done()));
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        let row = &snap.per_city[0];
        assert!(row.is_consistent(), "{row:?}");
        // Three misses (one on the held worker, two queued), one shed and
        // two duplicates attached to the held one.
        assert_eq!(
            (row.admitted, row.deduped, row.unbatched_requests),
            (5, 2, 1)
        );
        assert_eq!((row.queue_depth, row.rejected_busy), (2, 1));
        assert_eq!(snap.deduped, 2);

        open.send(()).unwrap();
        let leader = held.wait().unwrap();
        assert!(matches!(leader.served, Served::Resolved(_)));
        for ticket in followers {
            let served = ticket.wait().unwrap();
            assert_eq!(served.served, Served::Deduplicated);
            assert_eq!(served.path, leader.path);
            assert_eq!(served.confidence.to_bits(), leader.confidence.to_bits());
        }
        platform.shutdown_impl();
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!((snap.admitted, snap.completed, snap.deduped), (5, 5, 2));
        let city = platform.city_stats(CityId(0)).unwrap();
        assert!(city.is_consistent(), "{city:?}");
        assert_eq!((city.requests, city.resolved, city.dedup_hits), (5, 3, 2));
        assert_eq!(city.latency.count, 5);
    }

    #[test]
    fn offboarding_sheds_the_followers_of_queued_misses_with_them() {
        let key = Request::to_city(CityId(0), NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let (platform, _, held, open) = held_and_full(key);
        let queued = |to: u32| {
            Request::to_city(CityId(0), NodeId(1), NodeId(to), TimeOfDay::from_hours(8.0))
        };
        let shed: Vec<Ticket> = [queued(51), queued(51), queued(52)]
            .into_iter()
            .map(|req| platform.submit(req).expect("attached"))
            .collect();
        let rides_along = platform.submit(held_miss()).expect("attached");
        // Both queued misses and their three followers.
        assert_eq!(platform.deregister_city(CityId(0)), Some(5));
        for ticket in shed {
            assert!(ticket.is_done(), "shed at once");
            assert_eq!(
                ticket.wait().unwrap_err(),
                ServiceError::CityOffboarded(CityId(0))
            );
        }
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!((snap.admitted, snap.shed, snap.deduped), (7, 5, 1));
        assert_eq!(snap.queue_depth, 0);

        // The running miss and its follower resolve normally.
        open.send(()).unwrap();
        let leader = held.wait().unwrap();
        let served = rides_along.wait().unwrap();
        assert_eq!(served.served, Served::Deduplicated);
        assert_eq!(served.path, leader.path);
        platform.shutdown_impl();
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.completed, snap.admitted - snap.shed);
    }

    #[test]
    fn followers_of_a_panicking_leader_get_its_error_and_the_worker_survives() {
        let world = mini_world(7);
        let (platform, id, entered, open) = gated_platform(&world, PlatformConfig::default());
        let poisoned = Request::to_city(id, NodeId(1), POISON, TimeOfDay::from_hours(8.0));
        let leader = platform.submit(poisoned).unwrap();
        entered.recv().expect("the worker takes the poisoned miss");
        let followers: Vec<Ticket> = (0..3)
            .map(|_| platform.submit(poisoned).expect("attached"))
            .collect();
        open.send(()).unwrap();
        for ticket in std::iter::once(leader).chain(followers) {
            assert_eq!(ticket.wait().unwrap_err(), ServiceError::ResolverPanicked);
        }
        // The only worker survived and serves the next miss.
        let healthy = Request::to_city(id, NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        platform.submit(healthy).unwrap().wait().unwrap();
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.deduped, 3);
        let city = platform.city_stats(id).unwrap();
        assert!(city.is_consistent(), "{city:?}");
        assert_eq!((city.requests, city.errors, city.resolved), (5, 4, 1));
        platform.shutdown();
    }

    #[test]
    fn batching_dispatcher_coalesces_hot_origin_runs() {
        let world = mini_world(7);
        // Sequential baseline for byte-identity.
        let cfg = ServiceConfig::strict_deterministic();
        let requests: Vec<Request> = (0..24u32)
            .map(|i| {
                Request::new(
                    NodeId(i % 2),
                    NodeId(59 - (i % 12)),
                    TimeOfDay::from_hours(8.0),
                )
            })
            .filter(|r| r.from != r.to)
            .collect();
        let baseline_service = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut baseline_resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        let expected: Vec<cp_roadnet::Path> = requests
            .iter()
            .map(|&r| {
                baseline_service
                    .handle(r, &mut baseline_resolver)
                    .unwrap()
                    .path
            })
            .collect();

        // A burst submitted while the first resolution is held is fully
        // queued, so runs of ≥ 2 must form.
        let (platform, id, _entered, open) = gated_platform(
            &world,
            PlatformConfig {
                batch: Some(BatchConfig { max_batch: 8 }),
                ..PlatformConfig::default()
            },
        );
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|&r| {
                let mut req = r;
                req.city = id;
                platform.submit_blocking(req).expect("admitted")
            })
            .collect();
        open.send(()).expect("the gate is held");
        let mut paths = Vec::new();
        for t in tickets {
            paths.push(t.wait().expect("served"));
        }
        for (i, served) in paths.iter().enumerate() {
            assert_eq!(served.path, expected[i], "request {i}");
        }

        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.admitted, requests.len() as u64);
        assert_eq!(
            snap.batched_requests + snap.unbatched_requests + snap.deduped,
            snap.admitted,
            "drained: every admitted job was dispatched or attached"
        );
        assert!(snap.batch_runs >= 1, "a queued burst must coalesce");
        assert!(snap.batch_max >= 2);
        let city = platform.city_stats(id).unwrap();
        assert!(city.is_consistent(), "{city:?}");
        assert_eq!(city.requests, requests.len() as u64);
        assert_eq!(city.requests, snap.admitted);
        platform.shutdown();
    }

    #[test]
    fn cell_keyed_runs_coalesce_across_time_buckets() {
        let world = mini_world(7);
        let cfg = ServiceConfig::strict_deterministic();
        // Same origin, destinations spread over *different* departure
        // buckets: the cell-keyed collector must still fold them into
        // one run, and the fused path must stay byte-identical.
        let requests: Vec<Request> = (0..12u32)
            .map(|i| {
                Request::new(
                    NodeId(0),
                    NodeId(40 + i),
                    TimeOfDay::from_hours(7.0 + (i % 3) as f64),
                )
            })
            .collect();
        let baseline_service = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut baseline_resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        let expected: Vec<cp_roadnet::Path> = requests
            .iter()
            .map(|&r| {
                baseline_service
                    .handle(r, &mut baseline_resolver)
                    .unwrap()
                    .path
            })
            .collect();

        let (platform, id, _entered, open) = gated_platform(
            &world,
            PlatformConfig {
                batch: Some(BatchConfig { max_batch: 12 }),
                ..PlatformConfig::default()
            },
        );
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|&r| {
                let mut req = r;
                req.city = id;
                platform.submit_blocking(req).expect("admitted")
            })
            .collect();
        open.send(()).expect("the gate is held");
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.wait().expect("served").path, expected[i], "request {i}");
        }
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert!(
            snap.batch_max >= 2,
            "cross-bucket requests must coalesce: {snap:?}"
        );
        // The fused path shared origin artifacts across the run's
        // buckets: exactly one expansion for the lone origin.
        let city = platform.city_stats(id).unwrap();
        assert!(city.artifact_misses >= 1);
        assert!(
            city.artifact_misses + city.artifact_hits >= 1,
            "mining went through the artifact path"
        );
        platform.shutdown();
    }

    #[test]
    fn batching_off_leaves_dispatch_unbatched() {
        let platform = Platform::start(PlatformConfig::default());
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        for i in 0..5u32 {
            platform
                .submit_blocking(Request::to_city(
                    id,
                    NodeId(i),
                    NodeId(59 - i),
                    TimeOfDay::from_hours(8.0),
                ))
                .unwrap()
                .wait()
                .unwrap();
        }
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.unbatched_requests, 5);
        assert_eq!(snap.batched_requests, 0);
        assert_eq!(snap.batch_runs, 0);
        assert_eq!(snap.batch_max, 0);
        platform.shutdown();
    }

    #[test]
    fn second_city_routes_independently() {
        let platform = Platform::start(PlatformConfig::default());
        let a = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let b = platform.register_city(mini_world(11), ServiceConfig::strict_deterministic());
        assert_ne!(a, b);
        assert_eq!(platform.city_count(), 2);
        let ta = platform
            .submit(Request::to_city(
                a,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap();
        let tb = platform
            .submit(Request::to_city(
                b,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
            ))
            .unwrap();
        ta.wait().unwrap();
        tb.wait().unwrap();
        let sa = platform.city_stats(a).unwrap();
        let sb = platform.city_stats(b).unwrap();
        assert_eq!(sa.requests, 1);
        assert_eq!(sb.requests, 1);
        assert!(sa.is_consistent() && sb.is_consistent());
        let agg = platform.stats().aggregate;
        assert_eq!(agg.requests, 2);
        platform.shutdown();
    }

    /// Queues `n` jobs from `origin` (in origin cell `cell`) onto
    /// `city`, booked as admitted: what `submit_inner` does for a miss,
    /// minus tickets anyone waits on.
    fn push_jobs(ingress: &mut Ingress, city: usize, origin: u32, cell: (i32, i32), n: usize) {
        let c = &mut ingress.cities[city];
        for _ in 0..n {
            c.jobs.push_back(Job {
                req: Request::to_city(
                    CityId(city as u32),
                    NodeId(origin),
                    NodeId(59),
                    TimeOfDay::from_hours(8.0),
                ),
                key: RequestKey {
                    from: NodeId(origin),
                    to: NodeId(59),
                    bucket: 32,
                },
                cell,
                slot: TicketSlot::queued(Instant::now()),
                admitted_at: Instant::now(),
            });
        }
        c.admitted += n as u64;
    }

    /// A bare one-city ingress, with no worker threads, and the mini
    /// city's service for origin cells.
    fn bare_ingress() -> (Ingress, RouteService) {
        let mut ingress = Ingress::default();
        ingress.register(1);
        let service = RouteService::new(mini_world(7), ServiceConfig::strict_deterministic());
        (ingress, service)
    }

    /// One worker dispatch coalescing up to 16 queued jobs, as
    /// `next_job` does it. Returns the run length.
    fn dispatch_once(ingress: &mut Ingress) -> usize {
        assert_eq!(ingress.drr_pick(), Some(0), "a seed job is queued");
        ingress.pop_run(0, 16).len()
    }

    #[test]
    fn lone_seed_never_waits() {
        // A lone seed dispatches at once, and so does the next one: no
        // earlier dispatch may leave a window open for a later one.
        let (mut ingress, service) = bare_ingress();
        for origin in [0, 7] {
            let cell = service.origin_cell_of(NodeId(origin));
            push_jobs(&mut ingress, 0, origin, cell, 1);
            let t0 = Instant::now();
            assert_eq!(dispatch_once(&mut ingress), 1);
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "a lone seed waited {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn queued_burst_is_not_truncated_by_history() {
        let (mut ingress, service) = bare_ingress();
        let cell = |n: u32| service.origin_cell_of(NodeId(n));
        for _ in 0..8 {
            push_jobs(&mut ingress, 0, 0, cell(0), 2);
            assert_eq!(dispatch_once(&mut ingress), 2);
        }
        // 16 same-cell jobs interleaved with three other-cell ones: the
        // whole burst is one run, whatever the earlier runs looked like,
        // and the other cells keep their queue order.
        let others = [40u32, 45, 50];
        assert!(others.iter().all(|&o| cell(o) != cell(0)));
        for i in 0..16 {
            push_jobs(&mut ingress, 0, 0, cell(0), 1);
            if i % 5 == 2 {
                push_jobs(&mut ingress, 0, others[i / 5], cell(others[i / 5]), 1);
            }
        }
        assert_eq!(dispatch_once(&mut ingress), 16);
        let q = &ingress.cities[0];
        let left: Vec<u32> = q.jobs.iter().map(|j| j.req.from.0).collect();
        assert_eq!(left, others);
        assert_eq!(q.batch_max, 16);
        assert_eq!(q.jobs.len(), 3);
    }

    #[test]
    fn drr_spends_quanta_proportional_to_weight() {
        let mut ingress = Ingress::default();
        ingress.register(3);
        ingress.register(1);
        let backlog = |ingress: &mut Ingress, city: usize| push_jobs(ingress, city, 0, (0, 0), 100);
        backlog(&mut ingress, 0);
        backlog(&mut ingress, 1);
        // Both backlogged: a full rotation grants 3 picks to the heavy
        // city for every 1 to the light one.
        let mut picks = [0u32; 2];
        for _ in 0..40 {
            picks[ingress.drr_pick().expect("both cities backlogged")] += 1;
        }
        assert_eq!(picks, [30, 10]);
        // The heavy city going idle forfeits its deficit: the light city
        // absorbs the full capacity (no starvation, no banking).
        ingress.cities[0].jobs.clear();
        for _ in 0..8 {
            assert_eq!(ingress.drr_pick(), Some(1));
        }
        // The heavy city returning gets its quantum again, not a stored
        // backlog of missed turns.
        backlog(&mut ingress, 0);
        let mut picks = [0u32; 2];
        for _ in 0..40 {
            picks[ingress.drr_pick().expect("both cities backlogged")] += 1;
        }
        assert_eq!(picks, [30, 10]);
        // Every queue empty: a full rotation yields nothing.
        ingress.cities[0].jobs.clear();
        ingress.cities[1].jobs.clear();
        assert_eq!(ingress.drr_pick(), None);
    }

    #[test]
    fn city_weights_are_configurable_and_clamped() {
        let platform = Platform::start(PlatformConfig {
            city_weight: 4,
            workers: 1,
            queue_capacity: 16,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let id = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        assert_eq!(platform.city_weight(id), Some(4));
        // Weight 0 would freeze the DRR rotation; it clamps to 1.
        assert!(platform.set_city_weight(id, 0));
        assert_eq!(platform.city_weight(id), Some(1));
        assert!(platform.set_city_weight(id, 7));
        assert_eq!(platform.city_weight(id), Some(7));
        // Unknown cities are reported, not created.
        assert!(!platform.set_city_weight(CityId(9), 2));
        assert_eq!(platform.city_weight(CityId(9)), None);
        let snap = platform.stats();
        assert_eq!(snap.per_city.len(), 1);
        assert_eq!(snap.per_city[0].weight, 7);
        assert!(snap.is_consistent(), "{snap:?}");
        platform.shutdown();
    }

    #[test]
    fn busy_sheds_are_isolated_per_city() {
        // One worker behind two 1-slot queues: the hot city's firehose
        // must shed against its own queue only — the cold city, whose
        // queue is empty at every one of its submits, is never refused.
        let platform = Platform::start(PlatformConfig {
            city_weight: 1,
            workers: 1,
            queue_capacity: 1,
            maintenance: None,
            batch: None,
            durability: None,
            chaos: None,
        });
        let hot = platform.register_city(mini_world(7), ServiceConfig::strict_deterministic());
        let cold = platform.register_city(mini_world(11), ServiceConfig::strict_deterministic());
        let mut shed = 0u64;
        let mut tickets = Vec::new();
        for i in 0..150u32 {
            let req = Request::to_city(
                hot,
                NodeId(i % 20),
                NodeId(59 - (i % 13)),
                TimeOfDay::from_hours(8.0),
            );
            match platform.submit(req) {
                Ok(t) => tickets.push(t),
                Err(ServiceError::Busy) => shed += 1,
                Err(e) => panic!("unexpected rejection: {e}"),
            }
            if i % 25 == 0 {
                // The cold city's slot is free (its previous request was
                // joined): admission is its own queue's business.
                let t = platform
                    .submit(Request::to_city(
                        cold,
                        NodeId(i % 20),
                        NodeId(40),
                        TimeOfDay::from_hours(9.0),
                    ))
                    .expect("a cold city with queue capacity must never shed");
                t.wait().unwrap();
            }
        }
        assert!(shed > 0, "a 1-slot queue under burst load must shed");
        for t in tickets {
            t.wait().unwrap();
        }
        let snap = platform.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.rejected_busy, shed);
        assert_eq!(snap.per_city[hot.index()].rejected_busy, shed);
        assert_eq!(snap.per_city[cold.index()].rejected_busy, 0);
        platform.shutdown();
    }
}
