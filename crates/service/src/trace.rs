//! Span-level request tracing and lock-contention attribution.
//!
//! PRs 1–5 made the serving stack fast on one worker; this module makes
//! it *explainable* at many. Every request's lifetime is attributed to
//! pipeline [`Stage`]s — ingress queue wait, truth lookup,
//! flight-table wait, artifact fetch/build, fused mining,
//! machine/crowd resolution, truth commit — and every contended
//! primitive (the ingress mutex, truth-shard `RwLock`s, the
//! artifact-cache mutexes, the flight table) counts how long
//! acquisitions actually blocked ([`LockStats`]).
//!
//! Three cost tiers, selected per city by [`TraceConfig`] in
//! [`ServiceConfig`](crate::ServiceConfig):
//!
//! * **Off** (default) — spans read no clock and allocate nothing; the
//!   only residue is one enum match per instrumentation point.
//! * **Counters** — each span records into per-stage log₂ latency
//!   histograms folded into [`ServiceStats`] (Relaxed atomics, still no
//!   allocation on the serve path), and lock waits are timed via
//!   try-lock-first acquisition (an uncontended lock never reads the
//!   clock).
//! * **Sampled** — counters plus every `every`-th
//!   `serve_coalesced` call captures a complete [`RequestTrace`] (all
//!   spans in order) into a bounded ring buffer, exportable as JSON via
//!   [`Platform::trace_report`](crate::Platform::trace_report).
//!
//! Instrumentation is proven byte-identical to untraced serving by the
//! `trace_equivalence` proptest, and the zero-allocation claim for
//! `Off` is enforced by the `trace_overhead` counting-allocator test.

use crate::json;
use crate::stats::ServiceStats;
use cp_roadnet::NodeId;
use cp_traj::TimeOfDay;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

/// A pipeline stage a request's sojourn time can be attributed to.
///
/// Spans are **disjoint** (never nested), so a request's attributed
/// stage total is always ≤ its end-to-end sojourn; the remainder is
/// uninstrumented glue (queue bookkeeping, result fan-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Waiting in the platform ingress queue for a worker (measured at
    /// dispatch from the job's admission instant, after the submit-path
    /// truth probe; truth hits served at submit never queue and book
    /// none).
    QueueWait,
    /// Sharded truth-store lookups (the platform's submit probe of an
    /// admitted hit, and flight leaders' lookups).
    TruthLookup,
    /// Blocking on another caller's in-flight resolution (single-flight
    /// follower waits).
    FlightWait,
    /// Fetching or building per-origin all-day mining artifacts and
    /// period transfer networks ([`MiningArtifactCache`](crate::MiningArtifactCache)).
    ArtifactFetch,
    /// Candidate generation (fused artifact-backed or targeted).
    Mining,
    /// Machine resolution (deterministic planner; also crowd-path errors
    /// other than starvation).
    ResolveMachine,
    /// Crowd resolution (desk round-trips; includes quota-starved
    /// attempts).
    ResolveCrowd,
    /// Depositing the verified truth into the sharded store.
    Commit,
}

impl Stage {
    /// Number of stages (array dimension for per-stage histograms).
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::TruthLookup,
        Stage::FlightWait,
        Stage::ArtifactFetch,
        Stage::Mining,
        Stage::ResolveMachine,
        Stage::ResolveCrowd,
        Stage::Commit,
    ];

    /// Stable snake_case name (used in trace-report JSON and bench
    /// attribution rows).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::TruthLookup => "truth_lookup",
            Stage::FlightWait => "flight_wait",
            Stage::ArtifactFetch => "artifact_fetch",
            Stage::Mining => "mining",
            Stage::ResolveMachine => "resolve_machine",
            Stage::ResolveCrowd => "resolve_crowd",
            Stage::Commit => "commit",
        }
    }

    /// The stage's index into per-stage arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A contended synchronisation primitive whose acquisition waits are
/// attributed separately (the scaling-ceiling suspects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum LockSite {
    /// The ingress path: in a per-city trace this is the city's own
    /// sharded queue mutex; in the platform aggregate it additionally
    /// folds in the shared DRR scheduler lock.
    Ingress,
    /// The truth store's per-shard `RwLock`s (reads and writes pooled).
    TruthShards,
    /// The mining-artifact cache's origin/period mutexes.
    ArtifactCache,
    /// The single-flight table's map mutex.
    FlightTable,
}

impl LockSite {
    /// Number of lock sites (array dimension for lock summaries).
    pub const COUNT: usize = 4;

    /// Every site, in order.
    pub const ALL: [LockSite; LockSite::COUNT] = [
        LockSite::Ingress,
        LockSite::TruthShards,
        LockSite::ArtifactCache,
        LockSite::FlightTable,
    ];

    /// Stable snake_case name (used in trace-report JSON).
    pub fn name(self) -> &'static str {
        match self {
            LockSite::Ingress => "ingress",
            LockSite::TruthShards => "truth_shards",
            LockSite::ArtifactCache => "artifact_cache",
            LockSite::FlightTable => "flight_table",
        }
    }

    /// The site's index into per-site arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-city tracing configuration (a field of
/// [`ServiceConfig`](crate::ServiceConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// No instrumentation: spans read no clock and allocate nothing.
    #[default]
    Off,
    /// Per-stage histograms + lock-wait counters (Relaxed atomics; no
    /// allocation on the serve path).
    Counters,
    /// Counters plus complete per-request traces, sampled into a
    /// bounded ring buffer.
    Sampled {
        /// Sample every n-th `serve_coalesced` call (0 is
        /// treated as 1: sample everything).
        every: u64,
        /// Most sampled traces retained (oldest dropped first; 0 is
        /// treated as 1).
        ring: usize,
    },
}

impl TraceConfig {
    /// Counters-only tracing.
    pub fn counters() -> Self {
        TraceConfig::Counters
    }

    /// Sampled-full tracing: counters plus every `every`-th call's
    /// complete trace, at most `ring` retained.
    pub fn sampled(every: u64, ring: usize) -> Self {
        TraceConfig::Sampled { every, ring }
    }

    /// Whether any instrumentation (counters or sampling) is on.
    pub fn enabled(&self) -> bool {
        !matches!(self, TraceConfig::Off)
    }

    /// Whether complete per-request traces are captured.
    pub fn samples(&self) -> bool {
        matches!(self, TraceConfig::Sampled { .. })
    }
}

/// One stage's latency distribution in a
/// [`StatsSnapshot`](crate::StatsSnapshot) (log₂ buckets: percentiles
/// are upper bucket edges clamped to `max`, like the request-latency
/// summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSummary {
    /// Spans recorded.
    pub count: u64,
    /// Total time attributed to the stage.
    pub total: Duration,
    /// Median span (bucket upper edge, at most `max`).
    pub p50: Duration,
    /// 95th-percentile span (bucket upper edge, at most `max`).
    pub p95: Duration,
    /// Longest span.
    pub max: Duration,
}

/// One lock site's contention summary: how many acquisitions actually
/// blocked, and for how long in total. Uncontended acquisitions are
/// free (try-lock first; the clock is read only after a failed try).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockSummary {
    /// Acquisitions that found the lock held.
    pub waits: u64,
    /// Total time spent blocked acquiring.
    pub wait: Duration,
    /// Acquisitions that found the lock poisoned (a holder panicked).
    /// The guard is recovered and serving continues — the counter is
    /// the only residue, so a contained resolver panic can never
    /// cascade into the tracing layer.
    pub poisoned: u64,
}

/// Contention counters for one lock site. Disabled (the default) it
/// adds a single relaxed load per acquisition; enabled, acquisitions
/// try-lock first and only a failed try reads the clock and times the
/// blocking acquire.
#[derive(Debug, Default)]
pub struct LockStats {
    enabled: AtomicBool,
    waits: AtomicU64,
    wait_ns: AtomicU64,
    poisoned: AtomicU64,
}

impl LockStats {
    /// Fresh, disabled counters.
    pub fn new() -> Self {
        LockStats::default()
    }

    /// Turns contention timing on or off (set once at service
    /// construction; flipping mid-flight is harmless but mixes regimes).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether contention timing is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A point-in-time summary.
    pub fn summary(&self) -> LockSummary {
        LockSummary {
            waits: self.waits.load(Ordering::Relaxed),
            wait: Duration::from_nanos(self.wait_ns.load(Ordering::Relaxed)),
            poisoned: self.poisoned.load(Ordering::Relaxed),
        }
    }

    /// Recovers the guard out of a poisoning error, counting the event.
    /// A lock is poisoned when a holder panicked; every structure guarded
    /// by `LockStats` is counters or caches whose partial updates are
    /// safe to observe, so serving continues.
    fn recover<G>(&self, e: std::sync::PoisonError<G>) -> G {
        self.poisoned.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    }

    fn record(&self, blocked: Duration) {
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.wait_ns.fetch_add(
            blocked.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    /// Acquires `mutex`, timing the wait iff the lock was contended.
    pub fn lock<'a, T>(&self, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if !self.is_enabled() {
            return mutex.lock().unwrap_or_else(|e| self.recover(e));
        }
        match mutex.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let t0 = Instant::now();
                let guard = mutex.lock().unwrap_or_else(|e| self.recover(e));
                self.record(t0.elapsed());
                guard
            }
            Err(TryLockError::Poisoned(e)) => self.recover(e),
        }
    }

    /// Read-acquires `rwlock`, timing the wait iff it was contended.
    pub fn read<'a, T>(&self, rwlock: &'a RwLock<T>) -> RwLockReadGuard<'a, T> {
        if !self.is_enabled() {
            return rwlock.read().unwrap_or_else(|e| self.recover(e));
        }
        match rwlock.try_read() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let t0 = Instant::now();
                let guard = rwlock.read().unwrap_or_else(|e| self.recover(e));
                self.record(t0.elapsed());
                guard
            }
            Err(TryLockError::Poisoned(e)) => self.recover(e),
        }
    }

    /// Write-acquires `rwlock`, timing the wait iff it was contended.
    pub fn write<'a, T>(&self, rwlock: &'a RwLock<T>) -> RwLockWriteGuard<'a, T> {
        if !self.is_enabled() {
            return rwlock.write().unwrap_or_else(|e| self.recover(e));
        }
        match rwlock.try_write() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                let t0 = Instant::now();
                let guard = rwlock.write().unwrap_or_else(|e| self.recover(e));
                self.record(t0.elapsed());
                guard
            }
            Err(TryLockError::Poisoned(e)) => self.recover(e),
        }
    }
}

/// One sampled call's complete trace: the seed request's identity, how
/// many requests the call covered, its outcome, the end-to-end service
/// time and every span in record order.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Seed request origin.
    pub from: NodeId,
    /// Seed request destination.
    pub to: NodeId,
    /// Seed request departure (seconds since midnight).
    pub departure_s: f64,
    /// Requests the traced `serve_coalesced` call served (the run
    /// size; 1 for a lone request).
    pub batch_size: usize,
    /// The seed request's outcome: `"truth_hit"`, `"dedup"`,
    /// `"resolved"` or `"error"`.
    pub outcome: &'static str,
    /// End-to-end service time of the traced call (excludes queue
    /// wait, which is attributed at the platform layer).
    pub total: Duration,
    /// Spans in the order they were recorded.
    pub spans: Vec<(Stage, Duration)>,
}

/// The per-service tracing engine: holds the configuration, the
/// sampling tick and the bounded ring of captured traces. Per-stage
/// histograms live in the service's [`ServiceStats`] (so the platform's
/// exact cross-city `absorb` covers them too).
#[derive(Debug)]
pub struct SpanRecorder {
    cfg: TraceConfig,
    tick: AtomicU64,
    ring: Mutex<VecDeque<RequestTrace>>,
}

impl SpanRecorder {
    /// A recorder for the given configuration.
    pub fn new(cfg: TraceConfig) -> Self {
        SpanRecorder {
            cfg,
            tick: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Whether any instrumentation is on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Begins one `serve_coalesced` call's trace context. Off:
    /// a no-op context (no clock, no allocation). Counters: spans
    /// record into `stats`. Sampled: additionally, every `every`-th
    /// call collects its spans for the ring.
    pub fn call<'a>(&self, stats: &'a ServiceStats) -> CallTrace<'a> {
        match self.cfg {
            TraceConfig::Off => CallTrace {
                stats: None,
                events: None,
            },
            TraceConfig::Counters => CallTrace {
                stats: Some(stats),
                events: None,
            },
            TraceConfig::Sampled { every, .. } => {
                let n = self.tick.fetch_add(1, Ordering::Relaxed);
                CallTrace {
                    stats: Some(stats),
                    events: n.is_multiple_of(every.max(1)).then(Vec::new),
                }
            }
        }
    }

    /// Completes a call's trace context: if the call was sampled, its
    /// spans become a [`RequestTrace`] in the bounded ring.
    #[allow(clippy::too_many_arguments)]
    pub fn finish(
        &self,
        tr: CallTrace<'_>,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        batch_size: usize,
        outcome: &'static str,
        total: Duration,
    ) {
        let Some(events) = tr.events else { return };
        let TraceConfig::Sampled { ring, .. } = self.cfg else {
            return;
        };
        let trace = RequestTrace {
            from,
            to,
            departure_s: departure.0,
            batch_size,
            outcome,
            total,
            spans: events
                .into_iter()
                .map(|(stage, ns)| (stage, Duration::from_nanos(ns)))
                .collect(),
        };
        let mut buf = self.ring.lock().expect("trace ring poisoned");
        while buf.len() >= ring.max(1) {
            buf.pop_front();
        }
        buf.push_back(trace);
    }

    /// A copy of the sampled traces currently retained (oldest first).
    pub fn samples(&self) -> Vec<RequestTrace> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

/// One `serve_coalesced` call's tracing context. Obtain with
/// [`SpanRecorder::call`], open disjoint spans with [`CallTrace::span`]
/// (or time manually via [`CallTrace::clock`]/[`CallTrace::record`]
/// when the stage is only known afterwards), and hand back to
/// [`SpanRecorder::finish`].
pub struct CallTrace<'a> {
    /// `None` when tracing is off — every operation short-circuits.
    stats: Option<&'a ServiceStats>,
    /// `Some` when this call was sampled: spans collected for the ring.
    events: Option<Vec<(Stage, u64)>>,
}

impl<'a> CallTrace<'a> {
    /// Whether this context records anything (false ⇒ every span is
    /// free).
    pub fn active(&self) -> bool {
        self.stats.is_some()
    }

    /// Opens a scoped span: time from now until the guard drops is
    /// attributed to `stage`. When tracing is off no clock is read.
    pub fn span<'c>(&'c mut self, stage: Stage) -> SpanGuard<'c, 'a> {
        let t0 = self.clock();
        SpanGuard {
            tr: self,
            stage,
            t0,
        }
    }

    /// Reads the clock iff tracing is on (pair with
    /// [`CallTrace::record`] for stages decided after the fact, e.g.
    /// machine vs crowd resolution).
    pub fn clock(&self) -> Option<Instant> {
        self.stats.map(|_| Instant::now())
    }

    /// Attributes the time since `t0` (from [`CallTrace::clock`]) to
    /// `stage`. A `None` start is a no-op.
    pub fn record(&mut self, stage: Stage, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.record_ns(
                stage,
                t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            );
        }
    }

    /// Attributes a span timed before this context existed (the
    /// platform's submit-path truth probe, booked only once the request
    /// is admitted). A no-op when tracing is off.
    pub(crate) fn record_ns(&mut self, stage: Stage, ns: u64) {
        let Some(stats) = self.stats else {
            return;
        };
        stats.record_stage(stage, ns);
        if let Some(events) = &mut self.events {
            events.push((stage, ns));
        }
    }
}

/// A scoped stage timer: created by [`CallTrace::span`], records on
/// drop.
pub struct SpanGuard<'c, 'a> {
    tr: &'c mut CallTrace<'a>,
    stage: Stage,
    t0: Option<Instant>,
}

impl Drop for SpanGuard<'_, '_> {
    fn drop(&mut self) {
        let t0 = self.t0.take();
        self.tr.record(self.stage, t0);
    }
}

/// One city's slice of a [`TraceReport`].
#[derive(Debug, Clone)]
pub struct CityTrace {
    /// The city's platform index.
    pub city: u32,
    /// Per-stage latency attribution (from the city's histograms).
    pub stages: [StageSummary; Stage::COUNT],
    /// Per-site lock contention. The ingress row is this city's own
    /// sharded queue mutex; the shared DRR scheduler lock is reported
    /// at the report's top level.
    pub locks: [LockSummary; LockSite::COUNT],
    /// Sampled complete traces (oldest first).
    pub traces: Vec<RequestTrace>,
}

/// A platform-wide trace export: per-city stage attribution, lock
/// contention and sampled request traces, serialisable to JSON for
/// point-in-time debugging (see
/// [`Platform::trace_report`](crate::Platform::trace_report)).
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Contention on the shared DRR scheduler lock (the only ingress
    /// lock left that all cities touch; per-city queue mutexes are in
    /// each [`CityTrace`]'s lock table).
    pub ingress: LockSummary,
    /// Durability counters (`None` with durability off).
    pub durability: Option<crate::durable::DurabilitySnapshot>,
    /// Injected-fault counters (`None` with chaos off).
    pub chaos: Option<crate::chaos::ChaosSnapshot>,
    /// Every registered city's attribution and samples.
    pub cities: Vec<CityTrace>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl TraceReport {
    /// Total sampled traces across all cities.
    pub fn total_traces(&self) -> usize {
        self.cities.iter().map(|c| c.traces.len()).sum()
    }

    /// JSON export (std-only; all stage/site names are static
    /// snake_case, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let ingress = json::object()
            .field("waits", self.ingress.waits)
            .field("wait_us", format_args!("{:.1}", us(self.ingress.wait)));
        out.push_str(&format!("{{\n  \"ingress\": {},\n", ingress.finish()));
        if let Some(d) = &self.durability {
            out.push_str(&format!("  \"durability\": {},\n", d.to_json().finish()));
        }
        if let Some(c) = &self.chaos {
            out.push_str(&format!("  \"chaos\": {},\n", c.to_json().finish()));
        }
        out.push_str("  \"cities\": [\n");
        for (ci, city) in self.cities.iter().enumerate() {
            let stages = Stage::ALL.into_iter().filter_map(|stage| {
                let s = &city.stages[stage.index()];
                (s.count > 0).then(|| {
                    json::object()
                        .string("stage", stage.name())
                        .field("count", s.count)
                        .field("total_us", format_args!("{:.1}", us(s.total)))
                        .field("p50_us", format_args!("{:.1}", us(s.p50)))
                        .field("p95_us", format_args!("{:.1}", us(s.p95)))
                        .field("max_us", format_args!("{:.1}", us(s.max)))
                        .finish()
                })
            });
            let locks = LockSite::ALL.into_iter().filter_map(|site| {
                let l = &city.locks[site.index()];
                (l.waits != 0 || l.poisoned != 0).then(|| {
                    json::object()
                        .string("site", site.name())
                        .field("waits", l.waits)
                        .field("wait_us", format_args!("{:.1}", us(l.wait)))
                        .field("poisoned", l.poisoned)
                        .finish()
                })
            });
            out.push_str(&format!(
                "    {{\"city\": {},\n     \"stages\": {},\n     \"locks\": {},\n     \"traces\": [\n",
                city.city,
                json::array(stages),
                json::array(locks)
            ));
            for (ti, trace) in city.traces.iter().enumerate() {
                let spans = trace
                    .spans
                    .iter()
                    .map(|(stage, d)| format!("[\"{}\", {:.1}]", stage.name(), us(*d)));
                let row = json::object()
                    .field("from", trace.from.0)
                    .field("to", trace.to.0)
                    .field("departure_s", format_args!("{:.1}", trace.departure_s))
                    .field("batch", trace.batch_size)
                    .string("outcome", trace.outcome)
                    .field("total_us", format_args!("{:.1}", us(trace.total)))
                    .field("spans", json::array(spans));
                let sep = if ti + 1 < city.traces.len() { "," } else { "" };
                out.push_str(&format!("       {}{sep}\n", row.finish()));
            }
            let sep = if ci + 1 < self.cities.len() { "," } else { "" };
            out.push_str(&format!("     ]}}{sep}\n"));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_context_reads_no_clock_and_records_nothing() {
        let stats = ServiceStats::new();
        let recorder = SpanRecorder::new(TraceConfig::Off);
        let mut tr = recorder.call(&stats);
        assert!(!tr.active());
        {
            let _s = tr.span(Stage::TruthLookup);
        }
        assert!(tr.clock().is_none());
        recorder.finish(
            tr,
            NodeId(0),
            NodeId(1),
            TimeOfDay::from_hours(8.0),
            1,
            "resolved",
            Duration::from_micros(5),
        );
        let snap = stats.snapshot();
        assert_eq!(snap.stages[Stage::TruthLookup.index()].count, 0);
        assert!(recorder.samples().is_empty());
    }

    #[test]
    fn counters_record_stage_histograms_but_no_samples() {
        let stats = ServiceStats::new();
        let recorder = SpanRecorder::new(TraceConfig::counters());
        let mut tr = recorder.call(&stats);
        assert!(tr.active());
        {
            let _s = tr.span(Stage::Mining);
        }
        let t0 = tr.clock();
        tr.record(Stage::ResolveMachine, t0);
        recorder.finish(
            tr,
            NodeId(0),
            NodeId(1),
            TimeOfDay::from_hours(8.0),
            1,
            "resolved",
            Duration::from_micros(5),
        );
        let snap = stats.snapshot();
        assert_eq!(snap.stages[Stage::Mining.index()].count, 1);
        assert_eq!(snap.stages[Stage::ResolveMachine.index()].count, 1);
        assert!(recorder.samples().is_empty());
    }

    #[test]
    fn sampling_honours_every_and_bounds_the_ring() {
        let stats = ServiceStats::new();
        let recorder = SpanRecorder::new(TraceConfig::sampled(2, 3));
        for i in 0..10u32 {
            let mut tr = recorder.call(&stats);
            {
                let _s = tr.span(Stage::TruthLookup);
            }
            recorder.finish(
                tr,
                NodeId(i),
                NodeId(i + 1),
                TimeOfDay::from_hours(8.0),
                1,
                "truth_hit",
                Duration::from_micros(2),
            );
        }
        // Calls 0, 2, 4, 6, 8 were sampled; the ring keeps the last 3.
        let samples = recorder.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].from, NodeId(4));
        assert_eq!(samples[2].from, NodeId(8));
        assert!(samples.iter().all(|t| !t.spans.is_empty()));
    }

    #[test]
    fn lock_stats_time_only_contended_acquisitions() {
        let locks = LockStats::new();
        locks.set_enabled(true);
        let mutex = Mutex::new(0u32);
        {
            let _g = locks.lock(&mutex);
        }
        assert_eq!(locks.summary().waits, 0, "uncontended: no wait booked");
        std::thread::scope(|s| {
            let held = mutex.lock().unwrap();
            s.spawn(|| {
                let _g = locks.lock(&mutex);
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
        });
        let summary = locks.summary();
        assert_eq!(summary.waits, 1);
        assert!(summary.wait >= Duration::from_millis(5));
    }

    #[test]
    fn disabled_lock_stats_record_nothing() {
        let locks = LockStats::new();
        let rw = RwLock::new(0u32);
        {
            let _g = locks.read(&rw);
        }
        {
            let _g = locks.write(&rw);
        }
        assert_eq!(locks.summary(), LockSummary::default());
    }

    #[test]
    fn poisoned_locks_are_counted_and_recovered() {
        let locks = LockStats::new();
        let mutex = Mutex::new(7u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = mutex.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(mutex.is_poisoned());
        // Disabled path recovers and counts.
        {
            let g = locks.lock(&mutex);
            assert_eq!(*g, 7);
        }
        assert_eq!(locks.summary().poisoned, 1);
        // Enabled (try-lock) path recovers and counts too.
        locks.set_enabled(true);
        {
            let g = locks.lock(&mutex);
            assert_eq!(*g, 7);
        }
        let summary = locks.summary();
        assert_eq!(summary.poisoned, 2);
        assert_eq!(summary.waits, 0, "poisoning is not contention");

        let rw = RwLock::new(1u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = rw.write().unwrap();
            panic!("poison the rwlock");
        }));
        {
            let _g = locks.read(&rw);
        }
        {
            let _g = locks.write(&rw);
        }
        assert_eq!(locks.summary().poisoned, 4);
    }

    #[test]
    fn report_json_contains_stages_and_traces() {
        let report = TraceReport {
            ingress: LockSummary {
                waits: 2,
                wait: Duration::from_micros(10),
                poisoned: 0,
            },
            durability: None,
            chaos: None,
            cities: vec![CityTrace {
                city: 0,
                stages: {
                    let mut stages = [StageSummary::default(); Stage::COUNT];
                    stages[Stage::Mining.index()] = StageSummary {
                        count: 3,
                        total: Duration::from_micros(300),
                        p50: Duration::from_micros(64),
                        p95: Duration::from_micros(128),
                        max: Duration::from_micros(150),
                    };
                    stages
                },
                locks: [LockSummary::default(); LockSite::COUNT],
                traces: vec![RequestTrace {
                    from: NodeId(1),
                    to: NodeId(2),
                    departure_s: 28800.0,
                    batch_size: 4,
                    outcome: "resolved",
                    total: Duration::from_micros(120),
                    spans: vec![(Stage::Mining, Duration::from_micros(80))],
                }],
            }],
        };
        assert_eq!(report.total_traces(), 1);
        let json = report.to_json();
        assert!(json.contains("\"mining\""));
        assert!(json.contains("\"ingress\""));
        assert!(json.contains("\"outcome\": \"resolved\""));
        assert!(json.contains("\"batch\": 4"));
    }
}
