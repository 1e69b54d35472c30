//! Lock-free serving statistics.
//!
//! Worker threads record every request outcome with relaxed atomics; a
//! [`ServiceStats::snapshot`] folds them into a [`StatsSnapshot`] with
//! derived rates and a latency summary. The core accounting invariant —
//! every request is served from exactly one of {truth store, dedup,
//! fresh resolution, error} — is checked by
//! [`StatsSnapshot::is_consistent`] and asserted in the concurrency
//! integration test.

use crate::trace::{LockSite, LockSummary, Stage, StageSummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ latency buckets (covers 1 ns … ~2.1 s; the last
/// bucket absorbs the tail).
const BUCKETS: usize = 32;

/// Percentile over a log₂ bucket histogram: the upper edge (`2^i` ns)
/// of the bucket containing the `p`-quantile observation. Callers clamp
/// it to the recorded maximum, which the edge can overshoot.
fn bucket_percentile(buckets: &[u64], count: u64, p: f64) -> Duration {
    if count == 0 {
        return Duration::ZERO;
    }
    let target = ((count as f64) * p).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return Duration::from_nanos(1u64 << i.min(62));
        }
    }
    Duration::from_nanos(1u64 << 62)
}

/// Running counters, safe to update from any number of threads.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted.
    requests: AtomicU64,
    /// Served straight from the sharded truth store.
    truth_hits: AtomicU64,
    /// Served by waiting on an identical in-flight request.
    dedup_hits: AtomicU64,
    /// Resolved freshly (leader of a flight).
    resolved: AtomicU64,
    /// Failed (no candidates / resolver error / failed leader).
    errors: AtomicU64,
    /// OD pairs mined (flight leaders that missed the truth store).
    cache_misses: AtomicU64,
    /// Fused candidate-generation calls (one multi-OD mining pass).
    fused_minings: AtomicU64,
    /// OD pairs mined through fused calls (each also counts as a
    /// `cache_misses` mining, so `fused_mined_ods / cache_misses` is the
    /// fused-mining ratio).
    fused_mined_ods: AtomicU64,
    /// Mining-artifact cache hits (a batch reused another batch's
    /// all-day origin expansion).
    artifact_hits: AtomicU64,
    /// Mining-artifact cache misses (origin expansion computed).
    artifact_misses: AtomicU64,
    /// Origin artifacts dropped from the cache (capacity, per-cell
    /// aliasing, or generation invalidation).
    artifact_evictions: AtomicU64,
    /// Crowd questions answered across all crowd-resolved requests.
    crowd_questions: AtomicU64,
    /// Crowd worker participations across all crowd-resolved requests.
    crowd_workers: AtomicU64,
    /// Worker reservations refused at the shared desk's cap.
    crowd_quota_rejections: AtomicU64,
    /// Requests whose crowd task was entirely quota-starved (served by
    /// machine fallback instead).
    crowd_starved: AtomicU64,
    // Latency (nanoseconds), over *all* served requests.
    lat_count: AtomicU64,
    lat_sum_ns: AtomicU64,
    lat_min_ns: AtomicU64,
    lat_max_ns: AtomicU64,
    lat_buckets: [AtomicU64; BUCKETS],
    // Per-stage span attribution (nanoseconds), recorded only when the
    // owning service traces (`TraceConfig` ≠ off). A stage's span count
    // is the sum of its buckets — there is no separate counter to
    // drift from the histogram.
    stage_sum_ns: [AtomicU64; Stage::COUNT],
    stage_max_ns: [AtomicU64; Stage::COUNT],
    stage_buckets: [[AtomicU64; BUCKETS]; Stage::COUNT],
}

impl ServiceStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        let s = ServiceStats::default();
        s.lat_min_ns.store(u64::MAX, Ordering::Relaxed);
        s
    }

    pub(crate) fn inc_requests(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_truth_hits(&self) {
        self.truth_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_dedup_hits(&self) {
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_resolved(&self) {
        self.resolved.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_errors(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_cache_misses(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Books one fused mining call covering `ods` OD pairs.
    pub(crate) fn record_fused_mining(&self, ods: usize) {
        self.fused_minings.fetch_add(1, Ordering::Relaxed);
        self.fused_mined_ods
            .fetch_add(ods as u64, Ordering::Relaxed);
    }

    pub(crate) fn inc_artifact_hits(&self) {
        self.artifact_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_artifact_misses(&self) {
        self.artifact_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_artifact_evictions(&self, n: usize) {
        self.artifact_evictions
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Books one crowd-resolved request's cost and contention.
    pub(crate) fn record_crowd(&self, cost: crate::resolver::CrowdCost) {
        self.crowd_questions
            .fetch_add(cost.questions, Ordering::Relaxed);
        self.crowd_workers
            .fetch_add(cost.workers, Ordering::Relaxed);
        self.crowd_quota_rejections
            .fetch_add(cost.quota_rejections, Ordering::Relaxed);
        if cost.starved {
            self.crowd_starved.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds `other`'s counters into `self` (latency histograms add
    /// bucket-wise, extrema widen). The platform uses this to aggregate
    /// per-city statistics into one exact platform-wide snapshot —
    /// percentiles are computed from the merged histogram, not
    /// approximated from per-city percentiles.
    pub fn absorb(&self, other: &ServiceStats) {
        let add = |dst: &AtomicU64, src: &AtomicU64| {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        };
        add(&self.requests, &other.requests);
        add(&self.truth_hits, &other.truth_hits);
        add(&self.dedup_hits, &other.dedup_hits);
        add(&self.resolved, &other.resolved);
        add(&self.errors, &other.errors);
        add(&self.cache_misses, &other.cache_misses);
        add(&self.fused_minings, &other.fused_minings);
        add(&self.fused_mined_ods, &other.fused_mined_ods);
        add(&self.artifact_hits, &other.artifact_hits);
        add(&self.artifact_misses, &other.artifact_misses);
        add(&self.artifact_evictions, &other.artifact_evictions);
        add(&self.crowd_questions, &other.crowd_questions);
        add(&self.crowd_workers, &other.crowd_workers);
        add(&self.crowd_quota_rejections, &other.crowd_quota_rejections);
        add(&self.crowd_starved, &other.crowd_starved);
        add(&self.lat_count, &other.lat_count);
        add(&self.lat_sum_ns, &other.lat_sum_ns);
        self.lat_min_ns
            .fetch_min(other.lat_min_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.lat_max_ns
            .fetch_max(other.lat_max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        for (dst, src) in self.lat_buckets.iter().zip(&other.lat_buckets) {
            add(dst, src);
        }
        for (dst, src) in self.stage_sum_ns.iter().zip(&other.stage_sum_ns) {
            add(dst, src);
        }
        for (dst, src) in self.stage_max_ns.iter().zip(&other.stage_max_ns) {
            dst.fetch_max(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for (dst_row, src_row) in self.stage_buckets.iter().zip(&other.stage_buckets) {
            for (dst, src) in dst_row.iter().zip(src_row) {
                add(dst, src);
            }
        }
    }

    /// Attributes `ns` nanoseconds to a pipeline stage's histogram
    /// (tracing-gated: only called through an active
    /// [`CallTrace`](crate::CallTrace) or the platform's queue-wait
    /// bookkeeping).
    pub(crate) fn record_stage(&self, stage: Stage, ns: u64) {
        let i = stage.index();
        self.stage_sum_ns[i].fetch_add(ns, Ordering::Relaxed);
        self.stage_max_ns[i].fetch_max(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.stage_buckets[i][bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request's wall-clock service time.
    pub(crate) fn record_latency(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.lat_count.fetch_add(1, Ordering::Relaxed);
        self.lat_sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.lat_min_ns.fetch_min(ns, Ordering::Relaxed);
        self.lat_max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.lat_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy with derived rates.
    pub fn snapshot(&self) -> StatsSnapshot {
        let count = self.lat_count.load(Ordering::Relaxed);
        let sum = self.lat_sum_ns.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .lat_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let max = Duration::from_nanos(self.lat_max_ns.load(Ordering::Relaxed));
        let percentile = |p: f64| -> Duration { bucket_percentile(&buckets, count, p).min(max) };
        let min = self.lat_min_ns.load(Ordering::Relaxed);
        let mut stages = [StageSummary::default(); Stage::COUNT];
        for (i, summary) in stages.iter_mut().enumerate() {
            let stage_buckets: Vec<u64> = self.stage_buckets[i]
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            let stage_count: u64 = stage_buckets.iter().sum();
            if stage_count == 0 {
                continue;
            }
            let stage_max = Duration::from_nanos(self.stage_max_ns[i].load(Ordering::Relaxed));
            *summary = StageSummary {
                count: stage_count,
                total: Duration::from_nanos(self.stage_sum_ns[i].load(Ordering::Relaxed)),
                p50: bucket_percentile(&stage_buckets, stage_count, 0.50).min(stage_max),
                p95: bucket_percentile(&stage_buckets, stage_count, 0.95).min(stage_max),
                max: stage_max,
            };
        }
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            truth_hits: self.truth_hits.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            resolved: self.resolved.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            cache_hits: 0,
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            // The truth store is the single source of eviction counts;
            // the owning service overwrites this from it (see
            // `RouteService::stats`). Raw counters stay zero so two
            // layers can never drift apart.
            truth_evictions: 0,
            fused_minings: self.fused_minings.load(Ordering::Relaxed),
            fused_mined_ods: self.fused_mined_ods.load(Ordering::Relaxed),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
            artifact_evictions: self.artifact_evictions.load(Ordering::Relaxed),
            crowd_questions: self.crowd_questions.load(Ordering::Relaxed),
            crowd_workers: self.crowd_workers.load(Ordering::Relaxed),
            crowd_quota_rejections: self.crowd_quota_rejections.load(Ordering::Relaxed),
            crowd_starved: self.crowd_starved.load(Ordering::Relaxed),
            stages,
            // Lock contention lives on the owning primitives (truth
            // shards, artifact cache, flight table, ingress queue); the
            // owner fills these in (see `RouteService::stats` and
            // `Platform::snapshot_of`). Raw counters stay zero here so
            // two layers can never drift apart.
            locks: [LockSummary::default(); LockSite::COUNT],
            latency: LatencySummary {
                count,
                mean: Duration::from_nanos(sum.checked_div(count).unwrap_or(0)),
                min: if min == u64::MAX {
                    Duration::ZERO
                } else {
                    Duration::from_nanos(min)
                },
                max,
                p50: percentile(0.50),
                p95: percentile(0.95),
                p99: percentile(0.99),
            },
        }
    }
}

/// Coarse latency distribution (log₂ buckets: percentiles are upper
/// bucket edges clamped to `max`, i.e. above the true value by less
/// than 2× and never above the slowest request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Requests measured.
    pub count: u64,
    /// Mean service time.
    pub mean: Duration,
    /// Fastest request.
    pub min: Duration,
    /// Slowest request.
    pub max: Duration,
    /// Median (bucket upper edge, at most `max`).
    pub p50: Duration,
    /// 95th percentile (bucket upper edge, at most `max`).
    pub p95: Duration,
    /// 99th percentile (bucket upper edge, at most `max`).
    pub p99: Duration,
}

/// Point-in-time statistics with derived rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Requests accepted.
    pub requests: u64,
    /// Served from the sharded truth store.
    pub truth_hits: u64,
    /// Served by joining an identical in-flight request.
    pub dedup_hits: u64,
    /// Resolved freshly.
    pub resolved: u64,
    /// Failed requests.
    pub errors: u64,
    /// Always zero: no cache sits between the truth store and mining,
    /// so every truth miss mines. Kept because `benchmark/` reads it
    /// (`service.cache.candidate_hit_share`).
    pub cache_hits: u64,
    /// OD pairs mined: one per flight leader that missed the truth
    /// store.
    pub cache_misses: u64,
    /// Truths evicted from the sharded store (capacity or age). Sourced
    /// from [`ShardedTruthStore::evicted`](crate::ShardedTruthStore::evicted)
    /// by the owning service, so direct store-level evictions are never
    /// under-reported.
    pub truth_evictions: u64,
    /// Fused candidate-generation calls (one call mines several ODs).
    pub fused_minings: u64,
    /// OD pairs mined through fused calls. Every fused OD also counts
    /// in `cache_misses`, so the fused share of all mining is
    /// [`StatsSnapshot::fused_mining_ratio`].
    pub fused_mined_ods: u64,
    /// Mining-artifact cache hits: a mining pass reused an all-day
    /// origin expansion (MPR tree, LDR locality scan and memos) that an
    /// earlier batch — possibly in a different time bucket — already
    /// produced.
    pub artifact_hits: u64,
    /// Mining-artifact cache misses: the origin expansion was computed
    /// (and, when the cache is enabled, stored for later batches).
    pub artifact_misses: u64,
    /// Origin artifacts dropped from the cache: LRU capacity, per-cell
    /// aliasing bounds, or a `World` mining-state generation bump
    /// invalidating stale entries.
    pub artifact_evictions: u64,
    /// Crowd questions answered across all crowd-resolved requests.
    pub crowd_questions: u64,
    /// Crowd worker participations across all crowd-resolved requests.
    pub crowd_workers: u64,
    /// Worker reservations refused at the shared crowd desk's
    /// `max_outstanding` cap (contention between concurrent resolvers).
    pub crowd_quota_rejections: u64,
    /// Requests whose crowd task was entirely quota-starved and degraded
    /// to the machine fallback.
    pub crowd_starved: u64,
    /// Per-stage sojourn attribution (indexed by
    /// [`Stage::index`](crate::Stage::index); all-zero when the service
    /// does not trace). Stage spans are disjoint, so their totals sum to
    /// at most the end-to-end service time.
    pub stages: [StageSummary; Stage::COUNT],
    /// Per-site lock contention (indexed by
    /// [`LockSite::index`](crate::LockSite::index)), filled by the
    /// owning service/platform from the primitives' own counters.
    pub locks: [LockSummary; LockSite::COUNT],
    /// Service-time distribution.
    pub latency: LatencySummary,
}

impl StatsSnapshot {
    /// Truth-store hit rate over all requests.
    pub fn truth_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.truth_hits as f64 / self.requests as f64
        }
    }

    /// Mining-artifact cache hit rate over all origin-artifact lookups
    /// (how often a batch skipped the all-day origin expansion because a
    /// recent batch already produced it).
    pub fn artifact_hit_rate(&self) -> f64 {
        let total = self.artifact_hits + self.artifact_misses;
        if total == 0 {
            0.0
        } else {
            self.artifact_hits as f64 / total as f64
        }
    }

    /// Share of mined ODs that went through a fused multi-OD mining
    /// call instead of a standalone generator pass.
    pub fn fused_mining_ratio(&self) -> f64 {
        if self.cache_misses == 0 {
            0.0
        } else {
            self.fused_mined_ods as f64 / self.cache_misses as f64
        }
    }

    /// Mining passes per request: standalone generator calls plus fused
    /// calls (a fused call covers many ODs but is one pass of the
    /// expensive shared work). The number batching exists to shrink.
    pub fn mining_runs_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        // Saturate: a snapshot racing a mid-batch `record_fused_mining`
        // (independent relaxed counters) may transiently observe more
        // fused ODs than cache misses.
        let runs = self.cache_misses.saturating_sub(self.fused_mined_ods) + self.fused_minings;
        runs as f64 / self.requests as f64
    }

    /// The accounting invariant: every request was served from exactly
    /// one of {truth store, dedup, fresh resolution, error}; fused-mining
    /// counters stay within their envelope (fused-mined ODs are a subset
    /// of all minings, and a fused call covers at least one OD); and
    /// every artifact eviction removed an entry some earlier miss
    /// inserted, so evictions can never outrun misses.
    ///
    /// Trace envelopes (vacuous when nothing traces, and safe under
    /// aggregates mixing traced and untraced cities because both sides
    /// of each bound are trace-gated or only the smaller side is): a
    /// commit span follows a resolve span, every resolve span belongs
    /// to a fresh resolution or a failed one, and every mining span
    /// mined a counted OD.
    pub fn is_consistent(&self) -> bool {
        let resolve_spans = self.stages[Stage::ResolveMachine.index()].count
            + self.stages[Stage::ResolveCrowd.index()].count;
        self.truth_hits + self.dedup_hits + self.resolved + self.errors == self.requests
            && self.fused_mined_ods <= self.cache_misses
            && self.fused_minings <= self.fused_mined_ods
            && self.artifact_evictions <= self.artifact_misses
            && self.stages[Stage::Commit.index()].count <= resolve_spans
            && resolve_spans <= self.resolved + self.errors
            && self.stages[Stage::Mining.index()].count <= self.cache_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_account() {
        let s = ServiceStats::new();
        for _ in 0..5 {
            s.inc_requests();
        }
        s.inc_truth_hits();
        s.inc_truth_hits();
        s.inc_dedup_hits();
        s.inc_resolved();
        s.inc_errors();
        s.inc_cache_misses();
        let snap = s.snapshot();
        assert_eq!(snap.requests, 5);
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 1));
        assert!(snap.is_consistent());
        assert!((snap.truth_hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn latency_summary_orders_sensibly() {
        let s = ServiceStats::new();
        for us in [10u64, 20, 30, 40, 50, 1000] {
            s.record_latency(Duration::from_micros(us));
        }
        let l = s.snapshot().latency;
        assert_eq!(l.count, 6);
        assert_eq!(l.min, Duration::from_micros(10));
        assert_eq!(l.max, Duration::from_micros(1000));
        assert!(l.min <= l.mean && l.mean <= l.max);
        assert!(l.p50 <= l.p95 && l.p95 <= l.p99);
        // p50 upper edge must cover the median but not the outlier.
        assert!(l.p50 >= Duration::from_micros(30));
        assert!(l.p50 < Duration::from_micros(1000));
        assert!(l.p99 <= l.max, "{l:?}");
        // One 1 200 ns sample sits in the [1 024, 2 048) bucket: every
        // quantile is that sample, not the bucket's 2 048 ns edge.
        let one = ServiceStats::new();
        one.record_latency(Duration::from_nanos(1_200));
        let l = one.snapshot().latency;
        assert_eq!(l.max, Duration::from_nanos(1_200));
        assert_eq!((l.p50, l.p95, l.p99), (l.max, l.max, l.max));
    }

    #[test]
    fn empty_stats_are_consistent() {
        let snap = ServiceStats::new().snapshot();
        assert!(snap.is_consistent());
        assert_eq!(snap.truth_hit_rate(), 0.0);
        assert_eq!(snap.latency.count, 0);
        assert_eq!(snap.latency.min, Duration::ZERO);
    }

    #[test]
    fn absorb_merges_counters_and_latency_exactly() {
        let a = ServiceStats::new();
        let b = ServiceStats::new();
        for _ in 0..3 {
            a.inc_requests();
            a.inc_truth_hits();
            a.record_latency(Duration::from_micros(10));
        }
        for _ in 0..2 {
            b.inc_requests();
            b.inc_resolved();
            b.record_latency(Duration::from_micros(5000));
        }
        b.inc_cache_misses();
        let total = ServiceStats::new();
        total.absorb(&a);
        total.absorb(&b);
        let snap = total.snapshot();
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.truth_hits, 3);
        assert_eq!(snap.resolved, 2);
        assert_eq!(snap.cache_misses, 1);
        assert!(snap.is_consistent());
        assert_eq!(snap.latency.count, 5);
        assert_eq!(snap.latency.min, Duration::from_micros(10));
        assert_eq!(snap.latency.max, Duration::from_micros(5000));
        // Merged histogram: p50 comes from the fast city's bucket, not
        // an average of per-city percentiles.
        assert!(snap.latency.p50 < Duration::from_micros(5000));
    }

    #[test]
    fn fused_mining_counters_accumulate_and_absorb() {
        let a = ServiceStats::new();
        let b = ServiceStats::new();
        a.record_fused_mining(3);
        b.record_fused_mining(2);
        // Back the envelopes: requests and cache misses covering them.
        for _ in 0..13 {
            a.inc_requests();
            a.inc_resolved();
        }
        for _ in 0..7 {
            b.inc_requests();
            b.inc_resolved();
        }
        for _ in 0..5 {
            a.inc_cache_misses();
            b.inc_cache_misses();
        }
        let total = ServiceStats::new();
        total.absorb(&a);
        total.absorb(&b);
        let snap = total.snapshot();
        assert_eq!(snap.fused_minings, 2);
        assert_eq!(snap.fused_mined_ods, 5);
        assert!((snap.fused_mining_ratio() - 0.5).abs() < 1e-12);
        // 10 minings, 5 fused into 2 passes: (10 - 5) + 2 = 7 runs.
        assert!((snap.mining_runs_per_request() - 7.0 / 20.0).abs() < 1e-12);
        assert!(snap.is_consistent());
    }

    #[test]
    fn artifact_counters_accumulate_absorb_and_bound_evictions() {
        let a = ServiceStats::new();
        let b = ServiceStats::new();
        a.inc_artifact_misses();
        a.inc_artifact_misses();
        a.inc_artifact_hits();
        a.add_artifact_evictions(2);
        b.inc_artifact_misses();
        b.inc_artifact_hits();
        b.inc_artifact_hits();
        let total = ServiceStats::new();
        total.absorb(&a);
        total.absorb(&b);
        let snap = total.snapshot();
        assert_eq!(snap.artifact_hits, 3);
        assert_eq!(snap.artifact_misses, 3);
        assert_eq!(snap.artifact_evictions, 2);
        assert!((snap.artifact_hit_rate() - 0.5).abs() < 1e-12);
        assert!(snap.is_consistent());
        // Evictions outrunning misses is a books-keeping bug.
        let broken = ServiceStats::new();
        broken.add_artifact_evictions(1);
        assert!(!broken.snapshot().is_consistent());
    }

    #[test]
    fn crowd_costs_accumulate_and_absorb() {
        use crate::resolver::CrowdCost;
        let a = ServiceStats::new();
        a.record_crowd(CrowdCost {
            questions: 7,
            workers: 3,
            quota_rejections: 2,
            starved: false,
        });
        a.record_crowd(CrowdCost {
            questions: 0,
            workers: 0,
            quota_rejections: 9,
            starved: true,
        });
        let total = ServiceStats::new();
        total.absorb(&a);
        let snap = total.snapshot();
        assert_eq!(snap.crowd_questions, 7);
        assert_eq!(snap.crowd_workers, 3);
        assert_eq!(snap.crowd_quota_rejections, 11);
        assert_eq!(snap.crowd_starved, 1);
    }

    #[test]
    fn stage_histograms_accumulate_absorb_and_summarise() {
        let a = ServiceStats::new();
        let b = ServiceStats::new();
        for us in [10u64, 20, 40] {
            a.record_stage(Stage::Mining, us * 1000);
        }
        a.record_stage(Stage::Commit, 2_000);
        b.record_stage(Stage::Mining, 5_000_000);
        // Back the envelopes: minings need mined ODs, commits need
        // resolve spans, resolve spans need resolutions.
        for _ in 0..4 {
            a.inc_cache_misses();
            b.inc_cache_misses();
        }
        a.record_stage(Stage::ResolveMachine, 1_000);
        a.inc_requests();
        a.inc_resolved();
        let total = ServiceStats::new();
        total.absorb(&a);
        total.absorb(&b);
        let snap = total.snapshot();
        let mining = snap.stages[Stage::Mining.index()];
        assert_eq!(mining.count, 4, "bucket sums are the stage count");
        assert_eq!(mining.total, Duration::from_micros(10 + 20 + 40 + 5000));
        assert_eq!(mining.max, Duration::from_micros(5000));
        assert!(mining.p50 <= mining.p95, "{mining:?}");
        assert!(mining.p95 >= Duration::from_micros(5000) / 2, "{mining:?}");
        // 5 ms sits below its bucket's 8.4 ms edge; quantiles stop at it.
        assert!(mining.p95 <= mining.max, "{mining:?}");
        let commit = snap.stages[Stage::Commit.index()];
        assert_eq!((commit.p50, commit.p95), (commit.max, commit.max));
        assert_eq!(snap.stages[Stage::Commit.index()].count, 1);
        assert_eq!(
            snap.stages[Stage::QueueWait.index()],
            StageSummary::default()
        );
        assert!(snap.is_consistent(), "{snap:?}");
    }

    #[test]
    fn commit_spans_without_resolve_spans_break_consistency() {
        let s = ServiceStats::new();
        s.inc_requests();
        s.inc_resolved();
        s.record_stage(Stage::Commit, 500);
        assert!(
            !s.snapshot().is_consistent(),
            "a commit span must follow a resolve span"
        );
        s.record_stage(Stage::ResolveMachine, 500);
        assert!(s.snapshot().is_consistent());
    }

    #[test]
    fn resolve_spans_must_not_outrun_resolutions() {
        let s = ServiceStats::new();
        s.record_stage(Stage::ResolveCrowd, 500);
        assert!(
            !s.snapshot().is_consistent(),
            "a resolve span needs a resolution (or error) to belong to"
        );
        s.inc_requests();
        s.inc_errors();
        assert!(s.snapshot().is_consistent());
    }

    #[test]
    fn mining_spans_must_be_cache_misses() {
        let s = ServiceStats::new();
        s.record_stage(Stage::Mining, 500);
        assert!(!s.snapshot().is_consistent());
        s.inc_cache_misses();
        assert!(s.snapshot().is_consistent());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let s = ServiceStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        s.inc_requests();
                        s.inc_resolved();
                        s.record_latency(Duration::from_micros(7));
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert_eq!(snap.requests, 4000);
        assert_eq!(snap.resolved, 4000);
        assert_eq!(snap.latency.count, 4000);
        assert!(snap.is_consistent());
    }
}
