//! The cross-batch mining-artifact cache.
//!
//! Fused mining makes the miss path O(distinct origin cells) per batch,
//! but without a cache every batch would redo an origin's mining state
//! (LDR locality scan, and the MPR, MFP, habit and fastest searches)
//! that a previous batch or another time bucket built milliseconds
//! earlier. [`MiningArtifactCache`] closes that gap: a bounded, per-city
//! LRU of [`OriginArtifacts`] keyed by **origin grid cell** (the same
//! coordinate the platform batcher coalesces on), plus an LRU of
//! period-filtered transfer networks keyed by canonical departure,
//! sized by the owner to hold one day of them. A cached artifact's
//! searches are resumable: they settle only as far as the destinations
//! served so far, and a later destination resumes where the last one
//! paused. A cached period network also carries MFP's per-edge costs
//! once its first origin has searched over it.
//!
//! Entries are **generation-versioned** against the owning
//! [`World`]'s mining state: a
//! [`World::bump_generation`](crate::World::bump_generation) (which a
//! world that ingests new trips would call) makes every older entry a
//! miss, so a change invalidates cleanly instead of serving stale
//! searches.
//! The tag also keeps each search resuming under the costs it started
//! with: an artifact and the period networks it is queried with are
//! always read at one generation.
//! Hits, misses and evictions are counted in
//! [`ServiceStats`] (`artifact_hits`,
//! `artifact_misses`, `artifact_evictions`) and guarded by
//! [`StatsSnapshot::is_consistent`](crate::StatsSnapshot::is_consistent).
//!
//! Concurrency: lookups and inserts hold a mutex only around map
//! operations — never while building or searching. Two workers missing
//! the same origin simultaneously may both build it; the artifacts are
//! byte-identical by construction, so the first insert wins and the
//! loser's build is used once and dropped. Workers sharing one artifact
//! resume its searches one at a time, each search behind its own mutex. Across generations, newer
//! always outranks older: a slow build from a superseded generation is
//! never stored (and can never evict a fresher entry).

use crate::cache::Lru;
use crate::stats::ServiceStats;
use crate::trace::LockStats;
use crate::world::World;
use cp_mining::{OriginArtifacts, TransferNetwork};
use cp_roadnet::NodeId;
use cp_traj::TimeOfDay;
use std::sync::{Arc, Mutex};

/// Origin cells a city's [`RouteService`](crate::RouteService) keeps
/// in its artifact cache.
///
/// Sized by measured reuse on the 1 600-node Large city under uniform
/// random origins (the `cold_mine` benchmark, 2-vCPU VM, two traced
/// 20 s pairs). At 256 cells the artifact hit share is 0.17 and peak RSS
/// ≈ 230 MB. A cap of 1 600, which holds every origin, lifts the hit
/// share to 1.0 and cuts CPU per request by a third (0.54 → 0.35 ms),
/// but peak RSS grows to 3.4–3.6 GB: every cached origin keeps its
/// searches resumed far into the city, plus one MFP search per
/// departure it served. That memory is not worth the CPU, so the cap
/// stays at 256.
pub(crate) const ORIGIN_CELLS: usize = 256;

/// Most distinct origin *nodes* kept per origin-cell key. Several
/// intersections can share a grid cell; each holds its own artifacts,
/// bounded FIFO so aliasing origins cannot thrash-evict each other.
const NODES_PER_CELL: usize = 4;

/// One origin cell's cached artifacts: per-node entries tagged with the
/// world generation they were built against.
#[derive(Clone, Default)]
struct CellSlot {
    entries: Vec<(NodeId, u64, Arc<OriginArtifacts>)>,
}

/// One cached period transfer network, generation-tagged.
#[derive(Clone)]
struct PeriodEntry {
    generation: u64,
    network: Arc<TransferNetwork>,
}

/// The bounded, `Arc`-shareable cache of time-invariant mining
/// artifacts for one city. See the [module docs](self).
pub struct MiningArtifactCache {
    origins: Mutex<Lru<(i32, i32), CellSlot>>,
    periods: Mutex<Lru<u64, PeriodEntry>>,
    /// Contention counters pooled over both cache mutexes (disabled
    /// unless the owning service traces).
    locks: LockStats,
}

impl MiningArtifactCache {
    /// A cache holding at most `origin_capacity` origin cells and
    /// `period_capacity` departure periods (each clamped to at least
    /// one, as [`Lru::new`] does). The owning service passes its buckets
    /// per day as `period_capacity`, so every canonical departure of a
    /// day stays resident; each period entry is one O(|trips|)
    /// aggregation plus one per-edge cost array.
    pub fn new(origin_capacity: usize, period_capacity: usize) -> Self {
        MiningArtifactCache {
            origins: Mutex::new(Lru::new(origin_capacity)),
            periods: Mutex::new(Lru::new(period_capacity)),
            locks: LockStats::new(),
        }
    }

    /// Contention counters over the origin/period cache mutexes.
    /// Disabled by default; the owning service enables them when it
    /// traces.
    pub fn lock_stats(&self) -> &LockStats {
        &self.locks
    }

    /// Drops every cached artifact (used when a city is offboarded and
    /// its memory should be reclaimed promptly). Not counted as
    /// evictions: nothing can look the entries up again.
    pub fn clear(&self) {
        self.locks.lock(&self.origins).clear();
        self.locks.lock(&self.periods).clear();
    }

    /// The artifacts for `origin` (living in grid cell `cell`) at the
    /// world's current generation: a cached entry when a recent batch
    /// already built this origin's artifacts, a fresh build otherwise.
    /// The build runs outside the cache lock.
    pub(crate) fn origin_artifacts(
        &self,
        world: &World,
        cell: (i32, i32),
        origin: NodeId,
        stats: &ServiceStats,
    ) -> Arc<OriginArtifacts> {
        let generation = world.generation();
        if let Some(slot) = self.locks.lock(&self.origins).get(&cell) {
            if let Some((_, _, art)) = slot
                .entries
                .iter()
                .find(|(n, g, _)| *n == origin && *g == generation)
            {
                stats.inc_artifact_hits();
                return Arc::clone(art);
            }
        }
        stats.inc_artifact_misses();
        let built = Arc::new(world.origin_artifacts(origin));
        // Store only while the build is still current: if the world's
        // generation moved past `generation` during the build, this
        // build is already stale — using it once is
        // fine (it was byte-correct for the inputs this caller read),
        // but caching it would evict a fresher entry a faster worker
        // may have inserted at the new generation.
        if world.generation() == generation {
            let mut cache = self.locks.lock(&self.origins);
            let mut slot = cache.get(&cell).cloned().unwrap_or_default();
            // Only an *older*-generation entry is superseded; a same-
            // generation entry means another worker raced us in
            // (byte-identical artifacts — keep theirs), and a newer one
            // outranks us outright.
            if let Some(i) = slot.entries.iter().position(|(n, _, _)| *n == origin) {
                if slot.entries[i].1 < generation {
                    slot.entries.remove(i);
                    stats.add_artifact_evictions(1);
                }
            }
            if !slot
                .entries
                .iter()
                .any(|(n, g, _)| *n == origin && *g >= generation)
            {
                if slot.entries.len() >= NODES_PER_CELL {
                    slot.entries.remove(0);
                    stats.add_artifact_evictions(1);
                }
                slot.entries.push((origin, generation, Arc::clone(&built)));
            }
            if let Some((_, evicted)) = cache.insert(cell, slot) {
                // An LRU capacity eviction drops a whole cell — count
                // each origin entry it held.
                stats.add_artifact_evictions(evicted.entries.len());
            }
        }
        built
    }

    /// The period-filtered transfer network for `departure` at the
    /// world's current generation (cached or freshly aggregated). Not
    /// counted in the artifact hit/miss statistics — those track the
    /// per-origin artifacts the cache exists to share. Stored under the
    /// same rule as [`Self::origin_artifacts`]: only while the build is
    /// current, and never over a newer-generation entry.
    pub(crate) fn period_network(
        &self,
        world: &World,
        departure: TimeOfDay,
    ) -> Arc<TransferNetwork> {
        let generation = world.generation();
        let bits = departure.0.to_bits();
        if let Some(entry) = self.locks.lock(&self.periods).get(&bits) {
            if entry.generation == generation {
                return Arc::clone(&entry.network);
            }
        }
        let built = Arc::new(world.period_network(departure));
        if world.generation() == generation {
            let mut periods = self.locks.lock(&self.periods);
            if periods
                .get(&bits)
                .is_none_or(|entry| entry.generation < generation)
            {
                periods.insert(
                    bits,
                    PeriodEntry {
                        generation,
                        network: Arc::clone(&built),
                    },
                );
            }
        }
        built
    }
}

impl std::fmt::Debug for MiningArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningArtifactCache")
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    fn mini_world() -> World {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        World::new(city.graph, trips.trips)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_same_artifacts() {
        let world = mini_world();
        let stats = ServiceStats::new();
        let cache = MiningArtifactCache::new(8, 8);
        let a = cache.origin_artifacts(&world, (0, 0), NodeId(3), &stats);
        let b = cache.origin_artifacts(&world, (0, 0), NodeId(3), &stats);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the cached artifact");
        let snap = stats.snapshot();
        assert_eq!(snap.artifact_misses, 1);
        assert_eq!(snap.artifact_hits, 1);
        assert_eq!(snap.artifact_evictions, 0);
    }

    #[test]
    fn generation_bump_invalidates_and_counts_an_eviction() {
        let world = mini_world();
        let stats = ServiceStats::new();
        let cache = MiningArtifactCache::new(8, 8);
        let a = cache.origin_artifacts(&world, (0, 0), NodeId(3), &stats);
        world.bump_generation();
        let b = cache.origin_artifacts(&world, (0, 0), NodeId(3), &stats);
        assert!(!Arc::ptr_eq(&a, &b), "stale generation must rebuild");
        let snap = stats.snapshot();
        assert_eq!(snap.artifact_misses, 2);
        assert_eq!(snap.artifact_hits, 0);
        assert_eq!(snap.artifact_evictions, 1, "the stale entry was dropped");
        assert!(snap.is_consistent());
        // The rebuilt entry now hits at the new generation.
        let c = cache.origin_artifacts(&world, (0, 0), NodeId(3), &stats);
        assert!(Arc::ptr_eq(&b, &c));
        assert_eq!(stats.snapshot().artifact_hits, 1);
    }

    #[test]
    fn per_cell_aliasing_is_bounded_fifo() {
        let world = mini_world();
        let stats = ServiceStats::new();
        let cache = MiningArtifactCache::new(8, 8);
        // NODES_PER_CELL + 1 distinct origins aliasing one cell: the
        // first one gets FIFO-evicted.
        for n in 0..=NODES_PER_CELL as u32 {
            cache.origin_artifacts(&world, (0, 0), NodeId(n), &stats);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.artifact_misses, NODES_PER_CELL as u64 + 1);
        assert_eq!(snap.artifact_evictions, 1);
        // The evicted first origin misses again; the survivors hit.
        cache.origin_artifacts(&world, (0, 0), NodeId(NODES_PER_CELL as u32), &stats);
        assert_eq!(stats.snapshot().artifact_hits, 1);
        cache.origin_artifacts(&world, (0, 0), NodeId(0), &stats);
        assert_eq!(stats.snapshot().artifact_misses, NODES_PER_CELL as u64 + 2);
    }

    #[test]
    fn capacity_eviction_counts_every_dropped_origin() {
        let world = mini_world();
        let stats = ServiceStats::new();
        let cache = MiningArtifactCache::new(2, 8);
        // Two origins in one cell, then two more cells: the LRU holds 2
        // cells, so inserting the 3rd cell evicts the oldest (with both
        // its origin entries).
        cache.origin_artifacts(&world, (0, 0), NodeId(1), &stats);
        cache.origin_artifacts(&world, (0, 0), NodeId(2), &stats);
        cache.origin_artifacts(&world, (1, 0), NodeId(3), &stats);
        cache.origin_artifacts(&world, (2, 0), NodeId(4), &stats);
        let snap = stats.snapshot();
        assert_eq!(snap.artifact_misses, 4);
        assert_eq!(snap.artifact_evictions, 2, "cell (0,0) held two origins");
        assert!(snap.is_consistent());
    }

    #[test]
    fn period_networks_are_cached_per_departure_and_generation() {
        let world = mini_world();
        let cache = MiningArtifactCache::new(8, 8);
        let dep = TimeOfDay::from_hours(8.0);
        let a = cache.period_network(&world, dep);
        let b = cache.period_network(&world, dep);
        assert!(Arc::ptr_eq(&a, &b));
        let other = cache.period_network(&world, TimeOfDay::from_hours(9.0));
        assert!(!Arc::ptr_eq(&a, &other));
        world.bump_generation();
        let c = cache.period_network(&world, dep);
        assert!(!Arc::ptr_eq(&a, &c), "generation bump must re-aggregate");
    }

    #[test]
    fn a_superseded_period_build_never_replaces_a_newer_one() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let old = World::new(city.graph.clone(), trips.trips.clone());
        let new = World::new(city.graph, trips.trips);
        new.bump_generation();
        let cache = MiningArtifactCache::new(8, 8);
        let dep = TimeOfDay::from_hours(8.0);
        let fresh = cache.period_network(&new, dep);
        let stale = cache.period_network(&old, dep);
        assert!(
            !Arc::ptr_eq(&fresh, &stale),
            "generation 0 cannot hit a generation-1 entry"
        );
        let again = cache.period_network(&new, dep);
        assert!(
            Arc::ptr_eq(&fresh, &again),
            "the generation-0 build evicted the newer entry"
        );
    }
}
