//! The concurrent request executor for one city.
//!
//! [`RouteService`] is the per-city front-end: it owns its
//! [`World`] behind an `Arc` (no lifetimes — build it anywhere, share it
//! with any thread), is `&self` everywhere, and has exactly one
//! implementation of the serving ladder,
//! [`RouteService::serve_coalesced`], which takes a *run* of requests
//! (a run of one is the lone case, not a separate path):
//!
//! 1. **in-run dedup** — identical `(from, to, time bucket)` requests
//!    in the run collapse onto one leader; followers share the leader's
//!    result, success or error;
//! 2. **sharded truth lookup** — each leader first reads the shards
//!    owning the origin neighbourhood; a hit answers the whole group;
//! 3. **mining** — the run's remaining leaders mine together through
//!    shared per-origin artifacts (cached across runs, generation-checked
//!    against the world);
//! 4. **resolution** — the caller's [`Resolver`] decides; the verified
//!    route is deposited into the sharded store so truth lookups serve
//!    every later request in the reuse neighbourhood.
//!
//! [`Platform`](crate::Platform) — open submission with admission
//! control and joinable tickets, several cities on one resident worker
//! pool — serves truth hits on the submitting thread (the same lookup,
//! [`RouteService`]'s one hit path, before anything queues), attaches a
//! miss whose key is already queued or running to that request at
//! admission (cross-worker dedup lives in its ingress, not here) and
//! hands every run of misses its workers dequeue to that one function;
//! [`RouteService::handle`] is the run-of-one convenience.
//!
//! ## Determinism
//!
//! With [`ServiceConfig::strict_deterministic`] geometry (exact-endpoint
//! reuse, window-aligned buckets, canonicalised departures) and a
//! deterministic resolver, the route served for every request is a pure
//! function of the request itself — identical across any thread count
//! and any interleaving. The paper-faithful default geometry trades this
//! for higher reuse rates (a request may be served a *nearby* OD's
//! verified truth, so results can depend on arrival order, exactly as in
//! the sequential paper pipeline).

use crate::artifacts::{MiningArtifactCache, ORIGIN_CELLS};
use crate::error::ServiceError;
use crate::resolver::Resolver;
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::store::ShardedTruthStore;
use crate::trace::{LockSite, LockSummary, SpanRecorder, Stage, TraceConfig};
use crate::world::{CityId, World};
use cp_core::{Config, Resolution, TruthEntry, DEFAULT_CELL_M};
use cp_mining::CandidateRoute;
use cp_roadnet::{NodeId, Path};
use cp_traj::TimeOfDay;
use std::sync::Arc;
use std::time::Instant;

/// One route request, addressed to a registered city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// City whose world should serve the request (platforms route on
    /// this; a standalone [`RouteService`] ignores it).
    pub city: CityId,
    /// Origin node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Departure time.
    pub departure: TimeOfDay,
}

/// `Request` is an equivalence-and-hash key so batchers and dedup maps
/// can key on it directly (instead of re-deriving `(city, from, to,
/// bits)` tuples). `TimeOfDay` wraps an `f64` that its constructors keep
/// in `[0, DAY)`, so bitwise hashing agrees with `==`: `-0.0` (the one
/// non-identical pattern comparing equal) is normalised before hashing,
/// and NaN never occurs in a constructed time.
impl Eq for Request {}

impl std::hash::Hash for Request {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.city.hash(state);
        self.from.hash(state);
        self.to.hash(state);
        let secs = self.departure.0;
        // A NaN departure would break Eq's reflexivity (it is not
        // constructible via `TimeOfDay::new`/`from_hours`, only by
        // writing the pub field directly) — catch that misuse early.
        debug_assert!(!secs.is_nan(), "Request departure must not be NaN");
        let bits = if secs == 0.0 { 0u64 } else { secs.to_bits() };
        bits.hash(state);
    }
}

impl Request {
    /// A request in the conventional single-city ([`CityId::LOCAL`])
    /// world.
    pub fn new(from: NodeId, to: NodeId, departure: TimeOfDay) -> Self {
        Self::to_city(CityId::LOCAL, from, to, departure)
    }

    /// A request addressed to a specific registered city.
    pub fn to_city(city: CityId, from: NodeId, to: NodeId, departure: TimeOfDay) -> Self {
        Request {
            city,
            from,
            to,
            departure,
        }
    }
}

/// Identity of a request for deduplication: exact endpoints plus the
/// departure's time bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// Origin node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Departure time bucket.
    pub bucket: u32,
}

/// How a request was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Straight from the sharded truth store.
    TruthHit,
    /// By sharing the outcome of an identical request served at the
    /// same time.
    Deduplicated,
    /// Freshly resolved (with the pipeline's resolution kind).
    Resolved(Resolution),
}

/// A served recommendation.
#[derive(Debug, Clone)]
pub struct ServedRoute {
    /// The recommended route.
    pub path: Path,
    /// Which layer served it.
    pub served: Served,
    /// Confidence of the answer.
    pub confidence: f64,
}

/// A truth hit found by [`RouteService::probe_truth`], not yet booked.
pub(crate) struct ProbedHit {
    served: ServedRoute,
    /// The lookup's duration; `Some` only when the service traces.
    lookup_ns: Option<u64>,
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Truth-store shards (rounded up to a power of two).
    pub shards: usize,
    /// Per-shard truth-store entry cap (0 = unbounded). A full shard
    /// batch-evicts oldest-first; evictions are counted in
    /// `truth_evictions`.
    pub truth_cap_per_shard: usize,
    /// Spatial cell edge (metres) for the truth grid and the origin
    /// cells that runs coalesce on and the artifact cache is keyed by.
    pub cell_m: f64,
    /// Time-bucket width (seconds) for dedup keys and departure
    /// canonicalisation: every request resolves at its bucket's
    /// mid-bucket departure, so all requests in one bucket are
    /// identical work.
    pub time_bucket_s: f64,
    /// Span-level tracing: off (default, near-zero cost), per-stage
    /// counters, or counters plus sampled complete request traces. See
    /// [`TraceConfig`].
    pub trace: TraceConfig,
    /// Planner thresholds (reuse radius/window, agreement, etc.).
    pub core: Config,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 16,
            truth_cap_per_shard: 0,
            cell_m: DEFAULT_CELL_M,
            time_bucket_s: 900.0,
            trace: TraceConfig::Off,
            core: Config::default(),
        }
    }
}

impl ServiceConfig {
    /// A configuration whose served routes are a pure function of each
    /// request, independent of thread count and interleaving: truth
    /// reuse only at exact endpoints within the same time bucket (the
    /// default geometry with a zero reuse radius and window; departures
    /// are canonicalised under every configuration). Use with a
    /// deterministic resolver (e.g. `MachineResolver`).
    pub fn strict_deterministic() -> Self {
        let mut cfg = ServiceConfig::default();
        cfg.core.reuse_radius = 0.0;
        cfg.core.reuse_time_window = 0.0;
        cfg
    }

    /// Buckets per day under `time_bucket_s`.
    fn buckets_per_day(&self) -> u32 {
        (TimeOfDay::DAY / self.time_bucket_s).ceil().max(1.0) as u32
    }
}

/// Classifies a resolve success for stage attribution: crowd-involved
/// resolutions (including quota-starved fallbacks) are crowd time.
fn resolve_stage_ok(resolved: &crate::resolver::Resolved) -> Stage {
    if resolved.crowd.is_some() {
        Stage::ResolveCrowd
    } else {
        Stage::ResolveMachine
    }
}

/// Classifies a resolve failure: strict-shedding quota starvation is
/// crowd-path time, anything else machine-path time.
fn resolve_stage_err(e: &ServiceError) -> Stage {
    if matches!(e, ServiceError::CrowdStarved { .. }) {
        Stage::ResolveCrowd
    } else {
        Stage::ResolveMachine
    }
}

/// The outcome label a sampled trace carries for its seed request.
fn outcome_label(out: &Result<ServedRoute, ServiceError>) -> &'static str {
    match out {
        Ok(s) => match s.served {
            Served::TruthHit => "truth_hit",
            Served::Deduplicated => "dedup",
            Served::Resolved(_) => "resolved",
        },
        Err(_) => "error",
    }
}

/// The concurrent serving front-end over one owned city world.
pub struct RouteService {
    world: Arc<World>,
    truths: ShardedTruthStore,
    artifacts: MiningArtifactCache,
    stats: ServiceStats,
    tracer: SpanRecorder,
    cfg: ServiceConfig,
    /// Durability sink, installed once at city registration when the
    /// platform logs commits. The off path costs one atomic load per
    /// commit and allocates nothing.
    durable: std::sync::OnceLock<crate::durable::DurableSink>,
}

impl RouteService {
    /// Builds the service over an owned, shareable world.
    pub fn new(world: Arc<World>, cfg: ServiceConfig) -> Self {
        // Truth-grid time buckets track the reuse window (clamped so the
        // bucket count stays sane); any geometry is correct, this one is
        // fast for the configured window.
        let truth_bucket_s = cfg.core.reuse_time_window.clamp(60.0, TimeOfDay::DAY);
        let service = RouteService {
            world,
            truths: ShardedTruthStore::new(cfg.shards, cfg.cell_m, truth_bucket_s)
                .with_per_shard_cap(cfg.truth_cap_per_shard),
            artifacts: MiningArtifactCache::new(ORIGIN_CELLS, cfg.buckets_per_day() as usize),
            stats: ServiceStats::new(),
            tracer: SpanRecorder::new(cfg.trace),
            cfg,
            durable: std::sync::OnceLock::new(),
        };
        if service.cfg.trace.enabled() {
            service.truths.lock_stats().set_enabled(true);
            service.artifacts.lock_stats().set_enabled(true);
        }
        service
    }

    /// The service's span recorder: tracing configuration and (under
    /// sampled tracing) the retained complete request traces.
    pub fn tracer(&self) -> &SpanRecorder {
        &self.tracer
    }

    /// Installs the durability sink (platform registration only; the
    /// first installation wins).
    pub(crate) fn set_durable_sink(&self, sink: crate::durable::DurableSink) {
        let _ = self.durable.set(sink);
    }

    /// Commits a verified truth, logging it durably when a sink is
    /// installed, so the WAL sees every commit.
    fn commit_truth(&self, entry: TruthEntry) {
        match self.durable.get() {
            None => {
                self.truths.insert(self.world.graph(), entry);
            }
            Some(sink) => {
                // Collect the identity fields before the entry moves
                // into the store; the store assigns the global sequence
                // the log records.
                let (from, to, departure, confidence) =
                    (entry.from, entry.to, entry.departure, entry.confidence);
                let edges: Vec<u32> = entry.path.edges().iter().map(|e| e.0).collect();
                let (seq, _) = self.truths.insert_tracked(self.world.graph(), entry);
                sink.log_truth(seq, from, to, departure, confidence, edges);
            }
        }
    }

    /// Per-site lock-contention summaries from the owning primitives
    /// (the ingress site belongs to the platform and stays zero here).
    pub(crate) fn lock_summaries(&self) -> [LockSummary; LockSite::COUNT] {
        let mut locks = [LockSummary::default(); LockSite::COUNT];
        locks[LockSite::TruthShards.index()] = self.truths.lock_stats().summary();
        locks[LockSite::ArtifactCache.index()] = self.artifacts.lock_stats().summary();
        locks
    }

    /// The configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The world this service serves.
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// The shared truth store.
    pub fn truths(&self) -> &ShardedTruthStore {
        &self.truths
    }

    /// The service's statistics counters (the platform aggregates these
    /// across cities).
    pub(crate) fn raw_stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Best-effort accounting for a (non-resolver) panic that unwound
    /// out of [`RouteService::serve_coalesced`], which books its
    /// requests on entry but, if interrupted, reaches no outcome for
    /// them: the platform worker that contained the panic books them as
    /// errors.
    pub(crate) fn note_panicked_requests(&self, n: usize) {
        for _ in 0..n {
            self.stats.inc_errors();
        }
    }

    /// A point-in-time statistics snapshot. Truth-eviction counts are
    /// read from the truth store (the single source — capacity and age
    /// evictions both land there, even when callers drive the store
    /// through [`RouteService::truths`] directly).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        snap.truth_evictions = self.truths.evicted();
        snap.locks = self.lock_summaries();
        snap
    }

    /// Evicts truths at least `max_age` old from the store (visible in
    /// the statistics as `truth_evictions`). Returns how many were
    /// evicted.
    pub fn evict_truths_older_than(&self, max_age: std::time::Duration) -> usize {
        self.truths.evict_older_than(max_age)
    }

    /// Releases the memory an offboarded city no longer needs: the
    /// cross-batch mining-artifact cache and every stored truth (an
    /// age-0 sweep, so the drop is visible in `truth_evictions` like any
    /// other eviction). The service stays
    /// functional — a straggler holding the `Arc` can still serve — but
    /// it restarts cold.
    pub(crate) fn reclaim(&self) {
        self.artifacts.clear();
        self.truths.evict_older_than(std::time::Duration::ZERO);
    }

    /// The departure's time bucket (circular: the last partial bucket
    /// wraps into `buckets_per_day - 1`, never `buckets_per_day`).
    pub fn bucket_of(&self, t: TimeOfDay) -> u32 {
        ((t.0 / self.cfg.time_bucket_s).floor() as u32) % self.cfg.buckets_per_day()
    }

    /// The dedup identity of a request.
    pub fn key_of(&self, req: &Request) -> RequestKey {
        RequestKey {
            from: req.from,
            to: req.to,
            bucket: self.bucket_of(req.departure),
        }
    }

    /// The bucket's canonical (mid-bucket) departure, at which every
    /// request in the bucket resolves. The final bucket of the day may
    /// be truncated when the bucket width does not divide the day; its
    /// canonical time is the midpoint of the *truncated* span, so
    /// canonicalisation never wraps a request past midnight into
    /// bucket 0.
    pub fn canonical_departure(&self, req: &Request) -> TimeOfDay {
        let start = self.bucket_of(req.departure) as f64 * self.cfg.time_bucket_s;
        let end = (start + self.cfg.time_bucket_s).min(TimeOfDay::DAY);
        TimeOfDay::new((start + end) / 2.0)
    }

    /// The origin's spatial grid cell under the configured cell size —
    /// the coalescing coordinate: requests sharing `(city, origin cell,
    /// time bucket)` are profitable to mine as one fused batch.
    pub fn origin_cell_of(&self, n: NodeId) -> (i32, i32) {
        self.cell_of(n)
    }

    fn cell_of(&self, n: NodeId) -> (i32, i32) {
        cp_core::truth::grid_cell(self.world.graph().position(n), self.cfg.cell_m)
    }

    /// The one truth-hit path: `req` looked up in the sharded store at
    /// its canonical departure. Books nothing; both callers — a run's
    /// leader in [`RouteService::serve_coalesced`] and the platform's
    /// submit probe ([`RouteService::probe_truth`]) — book a hit their
    /// own way.
    fn truth_hit(&self, req: &Request) -> Option<ServedRoute> {
        let departure = self.canonical_departure(req);
        let hit = self.truths.lookup(
            self.world.graph(),
            req.from,
            req.to,
            departure,
            &self.cfg.core,
        )?;
        Some(ServedRoute {
            path: hit.path,
            served: Served::TruthHit,
            confidence: hit.confidence,
        })
    }

    /// Truth reuse on the submitting thread: the platform probes here
    /// before taking any lock. Books nothing — an admitted hit is booked
    /// by [`RouteService::book_inline_hit`], a rejected one never. The
    /// lookup is timed only when the service traces.
    pub(crate) fn probe_truth(&self, req: &Request) -> Option<ProbedHit> {
        let t0 = self.tracer.enabled().then(Instant::now);
        let served = self.truth_hit(req)?;
        Some(ProbedHit {
            served,
            lookup_ns: t0.map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64),
        })
    }

    /// Books an admitted submit-path hit exactly as a worker books a
    /// truth hit: a run of one with its request, truth hit and
    /// `elapsed` latency, plus — when tracing — the probe's
    /// [`Stage::TruthLookup`] span and a sampled trace. Returns the
    /// served route.
    pub(crate) fn book_inline_hit(
        &self,
        req: &Request,
        hit: ProbedHit,
        elapsed: std::time::Duration,
    ) -> ServedRoute {
        self.stats.inc_requests();
        self.stats.inc_truth_hits();
        self.stats.record_latency(elapsed);
        let mut tr = self.tracer.call(&self.stats);
        if let Some(ns) = hit.lookup_ns {
            tr.record_ns(Stage::TruthLookup, ns);
        }
        self.tracer
            .finish(tr, req.from, req.to, req.departure, 1, "truth_hit", elapsed);
        hit.served
    }

    /// A duplicate's share of its leader's outcome, booked as a dedup
    /// hit or an error: the leader's route tagged
    /// [`Served::Deduplicated`], or a clone of its error.
    fn share_outcome(
        &self,
        leader: &Result<ServedRoute, ServiceError>,
    ) -> Result<ServedRoute, ServiceError> {
        match leader {
            Ok(served) => {
                self.stats.inc_dedup_hits();
                Ok(ServedRoute {
                    served: Served::Deduplicated,
                    ..served.clone()
                })
            }
            Err(e) => {
                self.stats.inc_errors();
                Err(e.clone())
            }
        }
    }

    /// Books a request the platform deduplicated at admission onto an
    /// identical request whose outcome was `leader` — a request with
    /// `elapsed` latency and its share of that outcome — and returns
    /// the share.
    pub(crate) fn book_follower(
        &self,
        leader: &Result<ServedRoute, ServiceError>,
        elapsed: std::time::Duration,
    ) -> Result<ServedRoute, ServiceError> {
        self.stats.inc_requests();
        self.stats.record_latency(elapsed);
        self.share_outcome(leader)
    }

    /// Serves a run of requests — the one serving ladder. The platform
    /// hands over whatever its batcher dequeued together (a run sharing
    /// `(city, origin cell)`, or a run of one — truth hits were already
    /// served at submit), and the shared work is paid once per run
    /// instead of once per request:
    ///
    /// 1. **one leader per distinct OD key** — intra-run duplicates
    ///    collapse onto it; each leader looks its key up in the sharded
    ///    truth store, and a hit answers the leader's whole group;
    /// 2. **one artifact-backed mining pass** — every leader OD that
    ///    missed the truth store mines through shared per-origin all-day
    ///    artifacts (cached across runs and buckets in the city's
    ///    [`MiningArtifactCache`]) plus one period aggregation per
    ///    distinct departure — runs may freely span several time
    ///    buckets.
    /// 3. **resolution per leader** — the verified route is deposited
    ///    into the sharded store, unless the answer was a quota-starved
    ///    crowd fallback; the leader's duplicates share its route, or a
    ///    clone of its error.
    ///
    /// Results come back in request order. Under
    /// [`ServiceConfig::strict_deterministic`] geometry and a
    /// deterministic resolver, every returned route is byte-identical to
    /// serving the same requests one at a time (asserted by the
    /// `batch_equivalence` proptest); only the `Served` layer tags can
    /// differ (an intra-batch duplicate reports `Deduplicated` where the
    /// sequential path would report a `TruthHit`).
    ///
    /// A panicking resolver is contained: the leader that panicked (and
    /// every not-yet-resolved leader after it — the resolver may be
    /// mid-mutation) fails with [`ServiceError::ResolverPanicked`]
    /// instead of unwinding, so batch accounting stays exact. Callers owning the resolver should
    /// discard it when they see that error (the platform worker rebuilds
    /// from the city's factory).
    ///
    /// Batch sojourn is booked per request at batch completion, so
    /// latency statistics remain one entry per request.
    pub fn serve_coalesced<R: Resolver>(
        &self,
        requests: &[Request],
        resolver: &mut R,
    ) -> Vec<Result<ServedRoute, ServiceError>> {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        if requests.is_empty() {
            return Vec::new();
        }
        let t0 = Instant::now();
        for _ in requests {
            self.stats.inc_requests();
        }
        let mut tr = self.tracer.call(&self.stats);
        let mut results: Vec<Option<Result<ServedRoute, ServiceError>>> =
            requests.iter().map(|_| None).collect();

        // 1. Group requests by dedup key (first-appearance order); the
        // first member of each group leads it. Leader truth check — the
        // in-run hit path, for keys stored after their request passed
        // the platform's submit probe.
        let mut groups: Vec<(RequestKey, Vec<usize>)> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let key = self.key_of(req);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        /// A group whose leader missed the truth store: its member
        /// requests and (once mined) its candidate set.
        struct Pending {
            members: Vec<usize>,
            candidates: Option<Vec<CandidateRoute>>,
        }
        let mut pending: Vec<Pending> = Vec::new();
        for (_, members) in groups {
            let hit = {
                let _s = tr.span(Stage::TruthLookup);
                self.truth_hit(&requests[members[0]])
            };
            if let Some(served) = hit {
                for &i in &members {
                    self.stats.inc_truth_hits();
                    results[i] = Some(Ok(served.clone()));
                }
            } else {
                pending.push(Pending {
                    members,
                    candidates: None,
                });
            }
        }

        // 2. One artifact-backed fused mining pass: every pending
        // leader missed the truth store, so every one mines.
        let leads: Vec<&Request> = pending.iter().map(|g| &requests[g.members[0]]).collect();
        for _ in &leads {
            self.stats.inc_cache_misses();
        }
        // Fusion bookkeeping: an OD counts as fused only if it
        // actually shared work with another miss — its origin (the
        // all-day artifacts) or its canonical departure (the MFP
        // period aggregation) appears more than once. A batch of
        // fully unrelated misses books no fusion, matching the
        // old per-departure-group accounting.
        let shares_work = |req: &Request| -> bool {
            let dep = self.canonical_departure(req).0.to_bits();
            leads
                .iter()
                .filter(|other| {
                    other.from == req.from || self.canonical_departure(other).0.to_bits() == dep
                })
                .count()
                > 1 // the filter matches `req` itself
        };
        let fused_ods = leads.iter().filter(|req| shares_work(req)).count();
        if fused_ods >= 2 {
            self.stats.record_fused_mining(fused_ods);
        }
        // Per-origin all-day artifacts: cached across batches and
        // buckets, generation-checked against the world, expanded
        // at most once per distinct origin here.
        let mut artifacts: Vec<(NodeId, Arc<cp_mining::OriginArtifacts>)> = Vec::new();
        for req in &leads {
            if !artifacts.iter().any(|(n, _)| *n == req.from) {
                let _s = tr.span(Stage::ArtifactFetch);
                let art = self.artifacts.origin_artifacts(
                    &self.world,
                    self.cell_of(req.from),
                    req.from,
                    &self.stats,
                );
                artifacts.push((req.from, art));
            }
        }
        // Period-dependent MFP aggregation: one shared (and
        // cached) network per distinct canonical departure. Cell-
        // keyed platform runs span buckets, so several departures
        // per batch are the norm now.
        let mut by_departure: Vec<(u64, Vec<usize>)> = Vec::new();
        for (p, req) in leads.iter().enumerate() {
            let bits = self.canonical_departure(req).0.to_bits();
            match by_departure.iter_mut().find(|(b, _)| *b == bits) {
                Some((_, ps)) => ps.push(p),
                None => by_departure.push((bits, vec![p])),
            }
        }
        for (bits, ps) in by_departure {
            let departure = TimeOfDay(f64::from_bits(bits));
            let period = {
                let _s = tr.span(Stage::ArtifactFetch);
                self.artifacts.period_network(&self.world, departure)
            };
            for p in ps {
                let req = leads[p];
                let art = &artifacts
                    .iter()
                    .find(|(n, _)| *n == req.from)
                    .expect("artifact prefetched for every miss origin")
                    .1;
                let _s = tr.span(Stage::Mining);
                pending[p].candidates = Some(
                    self.world
                        .artifact_candidates(art, &period, req.to, departure),
                );
            }
        }

        // 3. Resolve each pending group in batch order; the leader's
        // duplicates share its outcome.
        let mut poisoned = false;
        for group in pending {
            let first = group.members[0];
            let req = &requests[first];
            let out = if poisoned {
                // The resolver panicked earlier in this batch and may be
                // mid-mutation; fail fast.
                Err(ServiceError::ResolverPanicked)
            } else {
                let departure = self.canonical_departure(req);
                let candidates = group
                    .candidates
                    .as_ref()
                    .expect("every pending group was mined");
                let r0 = tr.clock();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    resolver.resolve(req.from, req.to, departure, candidates)
                }));
                match outcome {
                    Err(_) => {
                        tr.record(Stage::ResolveMachine, r0);
                        poisoned = true;
                        Err(ServiceError::ResolverPanicked)
                    }
                    Ok(Err(e)) => {
                        tr.record(resolve_stage_err(&e), r0);
                        // Strict-shedding starvation serves no route but
                        // must still surface in the crowd counters.
                        if let ServiceError::CrowdStarved { quota_rejections } = e {
                            self.stats.record_crowd(crate::resolver::CrowdCost {
                                questions: 0,
                                workers: 0,
                                quota_rejections,
                                starved: true,
                            });
                        }
                        Err(e)
                    }
                    Ok(Ok(resolved)) => {
                        tr.record(resolve_stage_ok(&resolved), r0);
                        let starved = resolved.crowd.is_some_and(|c| c.starved);
                        if let Some(cost) = resolved.crowd {
                            self.stats.record_crowd(cost);
                        }
                        // A quota-starved fallback is transient
                        // contention, not a verdict — it is served but
                        // never memoized, so retries reach the crowd once
                        // capacity frees up (mirroring the planner's own
                        // no-record rule for starvation).
                        if !starved {
                            let _s = tr.span(Stage::Commit);
                            self.commit_truth(TruthEntry {
                                from: req.from,
                                to: req.to,
                                departure,
                                path: resolved.path.clone(),
                                confidence: resolved.confidence,
                            });
                        }
                        self.stats.inc_resolved();
                        Ok(ServedRoute {
                            path: resolved.path,
                            served: Served::Resolved(resolved.resolution),
                            confidence: resolved.confidence,
                        })
                    }
                }
            };
            if out.is_err() {
                self.stats.inc_errors();
            }
            for &i in &group.members[1..] {
                results[i] = Some(self.share_outcome(&out));
            }
            results[first] = Some(out);
        }

        let elapsed = t0.elapsed();
        for _ in requests {
            self.stats.record_latency(elapsed);
        }
        let results: Vec<Result<ServedRoute, ServiceError>> = results
            .into_iter()
            .map(|r| r.expect("every batched request reaches exactly one outcome"))
            .collect();
        self.tracer.finish(
            tr,
            requests[0].from,
            requests[0].to,
            requests[0].departure,
            requests.len(),
            outcome_label(&results[0]),
            elapsed,
        );
        results
    }

    /// Serves one request with the caller's resolver: a run of one
    /// through [`RouteService::serve_coalesced`]. Safe to call from any
    /// thread, but concurrent identical calls each resolve: only
    /// [`Platform`](crate::Platform) deduplicates across threads, at
    /// admission.
    pub fn handle<R: Resolver>(
        &self,
        req: Request,
        resolver: &mut R,
    ) -> Result<ServedRoute, ServiceError> {
        self.serve_coalesced(&[req], resolver)
            .pop()
            .expect("a run of one yields one result")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolver::MachineResolver;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    fn mini_world() -> Arc<World> {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        Arc::new(World::new(city.graph, trips.trips))
    }

    #[test]
    fn service_is_sync_static_and_request_types_are_send() {
        fn assert_sync<T: Sync + 'static>() {}
        fn assert_send<T: Send>() {}
        assert_sync::<RouteService>();
        assert_send::<Request>();
        assert_send::<ServedRoute>();
        assert_send::<ServiceError>();
    }

    #[test]
    fn ladder_truth_hit_after_resolution() {
        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        let req = Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let first = service.handle(req, &mut resolver).unwrap();
        assert!(matches!(first.served, Served::Resolved(_)));
        let second = service.handle(req, &mut resolver).unwrap();
        assert_eq!(second.served, Served::TruthHit);
        assert_eq!(second.path, first.path);
        let snap = service.stats();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.truth_hits, 1);
        assert_eq!(snap.resolved, 1);
        assert!(snap.is_consistent());
    }

    #[test]
    fn truth_cap_evictions_reach_service_stats() {
        let world = mini_world();
        let mut cfg = ServiceConfig::strict_deterministic();
        cfg.shards = 1;
        cfg.truth_cap_per_shard = 4;
        let service = RouteService::new(Arc::clone(&world), cfg);
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        for i in 0..20u32 {
            let req = Request::new(NodeId(i), NodeId(59 - (i % 7)), TimeOfDay::from_hours(8.0));
            if req.from == req.to {
                continue;
            }
            service.handle(req, &mut resolver).unwrap();
        }
        let snap = service.stats();
        assert!(service.truths().len() <= 4, "cap must bound the store");
        assert!(snap.truth_evictions > 0, "evictions must be observable");
        assert_eq!(snap.truth_evictions, service.truths().evicted());
        assert!(snap.is_consistent());
    }

    #[test]
    fn age_eviction_counts_in_stats() {
        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        let req = Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        service.handle(req, &mut resolver).unwrap();
        assert_eq!(service.truths().len(), 1);
        let n = service.evict_truths_older_than(std::time::Duration::ZERO);
        assert_eq!(n, 1);
        assert_eq!(service.stats().truth_evictions, 1);
        // The next identical request re-resolves (the truth aged out).
        let again = service.handle(req, &mut resolver).unwrap();
        assert!(matches!(again.served, Served::Resolved(_)));
    }

    #[test]
    fn bucket_of_wraps_at_midnight() {
        let world = mini_world();
        let cfg = ServiceConfig::default(); // 900 s buckets → 96/day
        let per_day = cfg.buckets_per_day();
        assert_eq!(per_day, 96);
        let service = RouteService::new(world, cfg);
        // Start of day.
        assert_eq!(service.bucket_of(TimeOfDay::new(0.0)), 0);
        // Last instant of the day lands in the last bucket…
        assert_eq!(
            service.bucket_of(TimeOfDay::new(TimeOfDay::DAY - 1e-3)),
            per_day - 1
        );
        // …and exactly DAY wraps to bucket 0, never bucket `per_day`.
        assert_eq!(service.bucket_of(TimeOfDay::new(TimeOfDay::DAY)), 0);
        // Bucket boundaries are half-open: 900 s starts bucket 1.
        assert_eq!(service.bucket_of(TimeOfDay::new(899.999)), 0);
        assert_eq!(service.bucket_of(TimeOfDay::new(900.0)), 1);
    }

    #[test]
    fn bucket_wrap_with_uneven_bucket_width() {
        let world = mini_world();
        // 7000 s does not divide the day: ceil(86400/7000) = 13 buckets,
        // the last one truncated. The final instant must land in bucket
        // 12, and times past 13×7000 s (impossible: > DAY) never occur.
        let mut cfg = ServiceConfig::default();
        cfg.time_bucket_s = 7000.0;
        assert_eq!(cfg.buckets_per_day(), 13);
        let service = RouteService::new(world, cfg);
        assert_eq!(service.bucket_of(TimeOfDay::new(0.0)), 0);
        assert_eq!(service.bucket_of(TimeOfDay::new(TimeOfDay::DAY - 1e-3)), 12);
        assert_eq!(service.bucket_of(TimeOfDay::new(TimeOfDay::DAY)), 0);
        // The truncated final bucket spans [84000, 86400); its canonical
        // departure must stay inside it instead of wrapping past
        // midnight into bucket 0 (the naive `(b + 0.5) × width` formula
        // would produce 87500 s → 1100 s → bucket 0).
        let late = Request::new(NodeId(0), NodeId(1), TimeOfDay::new(TimeOfDay::DAY - 1.0));
        let canon = service.canonical_departure(&late);
        assert_eq!(service.bucket_of(canon), 12);
        assert!(canon.0 < TimeOfDay::DAY && canon.0 >= 84_000.0);
    }

    #[test]
    fn period_cache_holds_every_canonical_departure_of_a_day() {
        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::default());
        let per_day = service.config().buckets_per_day();
        let departures: Vec<TimeOfDay> = (0..per_day)
            .map(|b| {
                let t = (b as f64 + 0.5) * service.config().time_bucket_s;
                service.canonical_departure(&Request::new(NodeId(0), NodeId(1), TimeOfDay::new(t)))
            })
            .collect();
        let first: Vec<_> = departures
            .iter()
            .map(|&d| service.artifacts.period_network(&world, d))
            .collect();
        let kept = departures
            .iter()
            .zip(&first)
            .filter(|&(&d, a)| Arc::ptr_eq(a, &service.artifacts.period_network(&world, d)))
            .count();
        assert_eq!(kept, per_day as usize, "second pass must hit every bucket");
    }

    #[test]
    fn canonical_departure_stays_inside_its_bucket() {
        let world = mini_world();
        let service = RouteService::new(world, ServiceConfig::default());
        // Probe both sides of midnight and a mid-day boundary.
        for t in [0.0, 1.0, 899.9, 900.0, 43_200.0, 86_399.9] {
            let req = Request::new(NodeId(0), NodeId(1), TimeOfDay::new(t));
            let canon = service.canonical_departure(&req);
            assert_eq!(
                service.bucket_of(canon),
                service.bucket_of(req.departure),
                "canonicalisation must not move t={t} across buckets"
            );
        }
        // The last (wrapping) bucket canonicalises to its own midpoint,
        // which still lies strictly before midnight.
        let last = Request::new(NodeId(0), NodeId(1), TimeOfDay::new(86_399.9));
        let canon = service.canonical_departure(&last);
        assert!(canon.0 < TimeOfDay::DAY);
        assert_eq!(service.bucket_of(canon), 95);
    }

    #[test]
    fn request_keys_directly_into_hash_maps() {
        use std::collections::HashSet;
        let mut set: HashSet<Request> = HashSet::new();
        let a = Request::new(NodeId(1), NodeId(2), TimeOfDay::from_hours(8.0));
        let b = Request::new(NodeId(1), NodeId(2), TimeOfDay::from_hours(8.0));
        let c = Request::new(NodeId(1), NodeId(2), TimeOfDay::from_hours(9.0));
        // Midnight wraps to 0.0; a negative-zero seconds value must
        // land in the same bucket as positive zero.
        let z1 = Request::new(NodeId(3), NodeId(4), TimeOfDay::new(0.0));
        let z2 = Request::new(NodeId(3), NodeId(4), TimeOfDay(-0.0));
        assert_eq!(z1, z2);
        for r in [a, b, c, z1, z2] {
            set.insert(r);
        }
        assert_eq!(set.len(), 3, "duplicates must collapse");
        assert!(set.contains(&a) && set.contains(&c) && set.contains(&z2));
    }

    #[test]
    fn coalesced_batch_matches_sequential_handling_and_books_fusion() {
        let world = mini_world();
        let cfg = ServiceConfig::strict_deterministic();
        // A hot origin cell: one origin, many distinct destinations in
        // one bucket, plus intra-batch duplicates.
        let requests: Vec<Request> = [59u32, 54, 47, 31, 59, 23, 12, 47]
            .iter()
            .map(|&b| Request::new(NodeId(0), NodeId(b), TimeOfDay::from_hours(8.0)))
            .collect();

        // Sequential reference.
        let seq = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut seq_resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        let expected: Vec<Path> = requests
            .iter()
            .map(|&r| seq.handle(r, &mut seq_resolver).unwrap().path)
            .collect();

        // One coalesced batch.
        let service = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        let results = service.serve_coalesced(&requests, &mut resolver);
        assert_eq!(results.len(), requests.len());
        for (i, res) in results.iter().enumerate() {
            assert_eq!(res.as_ref().unwrap().path, expected[i], "request {i}");
        }
        let snap = service.stats();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.requests, 8);
        // 6 distinct ODs resolved once each; the 2 duplicates dedup.
        assert_eq!(snap.resolved, 6);
        assert_eq!(snap.dedup_hits, 2);
        assert_eq!(snap.cache_misses, 6);
        // All 6 minings went through one fused call.
        assert_eq!(snap.fused_minings, 1);
        assert_eq!(snap.fused_mined_ods, 6);
        assert!((snap.fused_mining_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(snap.latency.count, 8);
        // Truth stores agree entry for entry.
        assert_eq!(service.truths().len(), seq.truths().len());

        // A follow-up batch re-serves everything from the truth store.
        let again = service.serve_coalesced(&requests, &mut resolver);
        for (i, res) in again.iter().enumerate() {
            let served = res.as_ref().unwrap();
            assert_eq!(served.served, Served::TruthHit, "request {i}");
            assert_eq!(served.path, expected[i], "request {i}");
        }
        assert!(service.stats().is_consistent());
    }

    #[test]
    fn coalesced_singleton_mines_without_fusion() {
        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        let req = Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        let out = service.serve_coalesced(&[req], &mut resolver);
        assert!(out[0].is_ok());
        let snap = service.stats();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.fused_minings, 0, "a lone miss must not claim fusion");
        assert_eq!(snap.fused_mined_ods, 0);
        assert!(snap.is_consistent());
        // Empty input is a no-op that books nothing.
        assert!(service.serve_coalesced(&[], &mut resolver).is_empty());
        assert_eq!(service.stats(), snap);
    }

    #[test]
    fn unrelated_misses_in_one_batch_book_no_fusion() {
        let world = mini_world();
        // Distinct origins AND distinct buckets: no work is shared, so
        // despite two mined ODs in one coalesced call the fusion
        // counters must stay untouched.
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        let requests = [
            Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0)),
            Request::new(NodeId(12), NodeId(47), TimeOfDay::from_hours(9.0)),
        ];
        for res in service.serve_coalesced(&requests, &mut resolver) {
            res.unwrap();
        }
        let snap = service.stats();
        assert_eq!(snap.cache_misses, 2);
        assert_eq!(snap.fused_minings, 0, "nothing was shared: {snap:?}");
        assert_eq!(snap.fused_mined_ods, 0);
        assert!(snap.is_consistent(), "{snap:?}");
        // Shared departure alone IS fusion (one period aggregation).
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        let requests = [
            Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0)),
            Request::new(NodeId(12), NodeId(47), TimeOfDay::from_hours(8.0)),
        ];
        for res in service.serve_coalesced(&requests, &mut resolver) {
            res.unwrap();
        }
        let snap = service.stats();
        assert_eq!(snap.fused_minings, 1);
        assert_eq!(snap.fused_mined_ods, 2);
        assert!(snap.is_consistent(), "{snap:?}");
    }

    #[test]
    fn artifact_cache_reuses_origin_expansions_across_batches() {
        let world = mini_world();
        let cfg = ServiceConfig::strict_deterministic();
        let service = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        let batch = |dests: &[u32], hour: f64| -> Vec<Request> {
            dests
                .iter()
                .map(|&b| Request::new(NodeId(0), NodeId(b), TimeOfDay::from_hours(hour)))
                .collect()
        };
        // First batch expands origin 0 once.
        for res in service.serve_coalesced(&batch(&[59, 54], 8.0), &mut resolver) {
            res.unwrap();
        }
        let snap = service.stats();
        assert_eq!(snap.artifact_misses, 1);
        assert_eq!(snap.artifact_hits, 0);
        // A second batch — new destinations AND a new time bucket —
        // reuses the cached all-day expansion.
        for res in service.serve_coalesced(&batch(&[47, 31], 9.0), &mut resolver) {
            res.unwrap();
        }
        let snap = service.stats();
        assert_eq!(snap.artifact_misses, 1, "origin 0 expands exactly once");
        assert_eq!(snap.artifact_hits, 1);
        assert!(snap.is_consistent(), "{snap:?}");

        // Byte-identity against fresh per-request serving.
        let reference = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut ref_resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        for req in batch(&[59, 54], 8.0)
            .into_iter()
            .chain(batch(&[47, 31], 9.0))
        {
            let got = service
                .truths()
                .lookup(
                    world.graph(),
                    req.from,
                    req.to,
                    service.canonical_departure(&req),
                    &cfg.core,
                )
                .expect("resolved truth present");
            let want = reference.handle(req, &mut ref_resolver).unwrap();
            assert_eq!(got.path, want.path);
        }
    }

    #[test]
    fn generation_bump_invalidates_cached_artifacts_between_batches() {
        let world = mini_world();
        let cfg = ServiceConfig::strict_deterministic();
        let service = RouteService::new(Arc::clone(&world), cfg.clone());
        let mut resolver = MachineResolver::new(world.graph_arc(), cfg.core.clone());
        let reqs1: Vec<Request> = [59u32, 54]
            .iter()
            .map(|&b| Request::new(NodeId(0), NodeId(b), TimeOfDay::from_hours(8.0)))
            .collect();
        for res in service.serve_coalesced(&reqs1, &mut resolver) {
            res.unwrap();
        }
        world.bump_generation();
        let reqs2: Vec<Request> = [47u32, 31]
            .iter()
            .map(|&b| Request::new(NodeId(0), NodeId(b), TimeOfDay::from_hours(8.0)))
            .collect();
        let results = service.serve_coalesced(&reqs2, &mut resolver);
        for res in &results {
            assert!(res.is_ok());
        }
        let snap = service.stats();
        assert_eq!(snap.artifact_misses, 2, "bumped generation re-expands");
        assert_eq!(snap.artifact_hits, 0);
        assert_eq!(snap.artifact_evictions, 1, "the stale entry is dropped");
        assert!(snap.is_consistent(), "{snap:?}");
    }

    #[test]
    fn generation_bump_re_derives_candidates_after_a_truth_eviction() {
        // With the truth gone and the world's mining state bumped, a
        // repeat request must mine again against the new generation —
        // no memo may answer it with a set mined before the bump.
        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        let req = Request::new(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0));
        service.handle(req, &mut resolver).unwrap();
        assert_eq!(
            service.evict_truths_older_than(std::time::Duration::ZERO),
            1
        );
        world.bump_generation();
        let again = service.handle(req, &mut resolver).unwrap();
        assert!(matches!(again.served, Served::Resolved(_)));
        let snap = service.stats();
        assert_eq!(snap.cache_misses, 2, "the repeat mines again");
        assert_eq!(snap.artifact_misses, 2, "against the bumped generation");
        assert_eq!(snap.artifact_evictions, 1, "the stale expansion is dropped");
        assert!(snap.is_consistent(), "{snap:?}");
    }

    #[test]
    fn duplicates_of_a_failed_leader_share_its_error() {
        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = MachineResolver::new(world.graph_arc(), service.config().core.clone());
        // No candidate route joins a node to itself.
        let r = Request::new(NodeId(5), NodeId(5), TimeOfDay::from_hours(8.0));
        let results = service.serve_coalesced(&[r, r], &mut resolver);
        for res in &results {
            assert!(matches!(res, Err(ServiceError::NoCandidates)), "{res:?}");
        }
        let snap = service.stats();
        assert_eq!((snap.requests, snap.errors), (2, 2));
        assert!(snap.is_consistent(), "{snap:?}");
    }

    #[test]
    fn coalesced_resolver_panic_is_contained() {
        use crate::resolver::Resolved;

        /// Panics on one poisoned destination, resolves normally
        /// otherwise.
        struct Panicky(MachineResolver);
        impl Resolver for Panicky {
            fn resolve(
                &mut self,
                from: NodeId,
                to: NodeId,
                departure: TimeOfDay,
                candidates: &[CandidateRoute],
            ) -> Result<Resolved, ServiceError> {
                assert!(to != NodeId(31), "poisoned request");
                self.0.resolve(from, to, departure, candidates)
            }
        }

        let world = mini_world();
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        let mut resolver = Panicky(MachineResolver::new(
            world.graph_arc(),
            service.config().core.clone(),
        ));
        let requests: Vec<Request> = [59u32, 31, 47]
            .iter()
            .map(|&b| Request::new(NodeId(0), NodeId(b), TimeOfDay::from_hours(8.0)))
            .collect();
        let results = service.serve_coalesced(&requests, &mut resolver);
        // The healthy leader before the panic resolves; the poisoned one
        // and everything after it fail without unwinding.
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ServiceError::ResolverPanicked)));
        assert!(matches!(results[2], Err(ServiceError::ResolverPanicked)));
        let snap = service.stats();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.resolved, 1);
        assert_eq!(snap.errors, 2);
        assert!(snap.is_consistent(), "{snap:?}");

        // A run of one is the same ladder: the panic is contained, the
        // request is booked as an error and still records its latency
        // sample and trace.
        let service = RouteService::new(Arc::clone(&world), ServiceConfig::strict_deterministic());
        assert!(service.handle(requests[0], &mut resolver).is_ok());
        assert!(matches!(
            service.handle(requests[1], &mut resolver),
            Err(ServiceError::ResolverPanicked)
        ));
        let snap = service.stats();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.latency.count, 2);
        assert!(snap.is_consistent(), "{snap:?}");
    }
}
