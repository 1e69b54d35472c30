//! Verified-truth store and reuse (paper §II-B1, "reuse truth" /
//! "verified truth" components).
//!
//! Every resolved request deposits its verified best route, keyed by the
//! OD pair and a departure-time tag. A new request *hits* the store when
//! its endpoints lie within the reuse radius of a stored truth's endpoints
//! and its departure time falls within the reuse window (circular,
//! time-of-day) — in which case the stored route is returned immediately,
//! saving both computation and crowd cost.
//!
//! ## Indexing
//!
//! Lookups are served by a uniform spatio-temporal grid ([`TruthGrid`]):
//! every entry is indexed under its *(origin cell, destination cell, time
//! bucket)* key, plus an origin-cell-only side index for the time-free
//! [`TruthStore::nearby`] query. A lookup therefore probes only the cell
//! neighbourhood covering the reuse radius/window instead of scanning
//! every stored truth — sub-linear in store size, which is what makes the
//! concurrent serving layer (`cp-service`) viable at scale. The previous
//! full-scan implementation is kept as a test-only reference: it is
//! the semantics that the grid path must reproduce exactly (same hit,
//! same closest-match tie-break by insertion order).

use crate::config::Config;
use crate::hashing::FxHashMap;
use cp_roadnet::{NodeId, Path, Point, RoadGraph};
use cp_traj::TimeOfDay;

/// One verified truth.
#[derive(Debug, Clone)]
pub struct TruthEntry {
    /// Request origin the truth was verified for.
    pub from: NodeId,
    /// Request destination.
    pub to: NodeId,
    /// Departure-time tag.
    pub departure: TimeOfDay,
    /// The verified best route.
    pub path: Path,
    /// Confidence at verification time (1.0 for crowd-verified truths).
    pub confidence: f64,
}

/// Uniform spatio-temporal grid over truth entries.
///
/// Maps *(origin cell, destination cell, time bucket)* to the ids of the
/// entries filed there, with an origin-cell side index for queries that
/// ignore time and destination. Cell and bucket geometry are fixed at
/// construction; queries with any radius/window work by probing the
/// covering cell neighbourhood.
#[derive(Debug, Clone)]
pub struct TruthGrid {
    /// Spatial cell edge, metres.
    cell_m: f64,
    /// Time bucket width, seconds.
    bucket_s: f64,
    /// Number of circular time buckets per day.
    buckets: u16,
    /// (origin cell, destination cell, time bucket) → entry ids.
    spatiotemporal: FxHashMap<(i32, i32, i32, i32, u16), Vec<u32>>,
    /// Origin cell → entry ids (for time/destination-free queries).
    origin: FxHashMap<(i32, i32), Vec<u32>>,
}

impl TruthGrid {
    /// Creates an empty grid with the given geometry.
    pub fn new(cell_m: f64, bucket_s: f64) -> Self {
        assert!(cell_m > 0.0, "grid cell must be positive");
        assert!(bucket_s > 0.0, "time bucket must be positive");
        let buckets = (TimeOfDay::DAY / bucket_s).ceil().max(1.0) as u16;
        TruthGrid {
            cell_m,
            bucket_s,
            buckets,
            spatiotemporal: FxHashMap::default(),
            origin: FxHashMap::default(),
        }
    }

    /// Spatial cell of a point (public so shard routers can use the
    /// same geometry).
    pub fn cell_of_point(&self, p: Point) -> (i32, i32) {
        self.cell_of(p)
    }

    /// Spatial cell of a point.
    fn cell_of(&self, p: Point) -> (i32, i32) {
        grid_cell(p, self.cell_m)
    }

    /// Circular time bucket of a time tag.
    fn bucket_of(&self, t: TimeOfDay) -> u16 {
        (((t.0 / self.bucket_s).floor() as u32) % self.buckets as u32) as u16
    }

    /// Empties the grid, keeping its geometry. Used when a store evicts
    /// entries and must re-index the survivors under fresh dense ids.
    pub fn clear(&mut self) {
        self.spatiotemporal.clear();
        self.origin.clear();
    }

    /// Indexes entry `id` under its key.
    pub fn insert(&mut self, from: Point, to: Point, departure: TimeOfDay, id: u32) {
        let (ox, oy) = self.cell_of(from);
        let (dx, dy) = self.cell_of(to);
        let b = self.bucket_of(departure);
        self.spatiotemporal
            .entry((ox, oy, dx, dy, b))
            .or_default()
            .push(id);
        self.origin.entry((ox, oy)).or_default().push(id);
    }

    /// The circular bucket range covering `window` seconds around
    /// `departure` (a whole-day window visits each bucket exactly once).
    fn bucket_range(&self, departure: TimeOfDay, window: f64) -> std::ops::RangeInclusive<i32> {
        let n = self.buckets as i32;
        // When the bucket width divides the day evenly every bucket spans
        // exactly `bucket_s`; otherwise the wrap-around bucket is
        // truncated and one extra bucket of slack is needed.
        let evenly = (TimeOfDay::DAY / self.bucket_s).fract() == 0.0;
        let bd = (window / self.bucket_s).ceil() as i32 + if evenly { 0 } else { 1 };
        let b = self.bucket_of(departure) as i32;
        if 2 * bd + 1 >= n {
            0..=(n - 1)
        } else {
            (b - bd)..=(b + bd)
        }
    }

    /// Probes all (dest cell, bucket) keys under one origin cell.
    fn probe_origin_cell(
        &self,
        ocell: (i32, i32),
        dcell: (i32, i32),
        r: i32,
        bucket_range: &std::ops::RangeInclusive<i32>,
        f: &mut impl FnMut(u32),
    ) {
        let n = self.buckets as i32;
        for cdx in (dcell.0 - r)..=(dcell.0 + r) {
            for cdy in (dcell.1 - r)..=(dcell.1 + r) {
                for raw_b in bucket_range.clone() {
                    let cb = raw_b.rem_euclid(n) as u16;
                    if let Some(ids) = self.spatiotemporal.get(&(ocell.0, ocell.1, cdx, cdy, cb)) {
                        for &id in ids {
                            f(id);
                        }
                    }
                }
            }
        }
    }

    /// Calls `f` for every entry id filed within `radius` metres (in cell
    /// terms) of both endpoints and within `window` seconds (in bucket
    /// terms) of `departure`. Ids are visited at most once; candidates
    /// still require an exact distance/time check by the caller.
    pub fn spatiotemporal_candidates(
        &self,
        from: Point,
        to: Point,
        radius: f64,
        departure: TimeOfDay,
        window: f64,
        mut f: impl FnMut(u32),
    ) {
        let (ox, oy) = self.cell_of(from);
        let dcell = self.cell_of(to);
        let r = (radius / self.cell_m).ceil() as i32;
        let bucket_range = self.bucket_range(departure, window);
        // The 4-D neighbourhood product explodes when the query radius is
        // much larger than the cell edge. Past a fixed probe budget the
        // origin-cell index is strictly cheaper — both paths feed the same
        // exact distance/time filter, so the choice is invisible to
        // callers.
        let side = 2 * r as i64 + 1;
        let probes = side * side * side * side * bucket_range.clone().count() as i64;
        if probes > 4096 {
            self.origin_candidates(from, radius, f);
            return;
        }
        for cox in (ox - r)..=(ox + r) {
            for coy in (oy - r)..=(oy + r) {
                self.probe_origin_cell((cox, coy), dcell, r, &bucket_range, &mut f);
            }
        }
    }

    /// Like [`TruthGrid::spatiotemporal_candidates`], but restricted to
    /// the given origin cells — shard routers use this so each shard
    /// probes only the cells it owns instead of the whole neighbourhood.
    pub fn spatiotemporal_candidates_in_cells(
        &self,
        origin_cells: &[(i32, i32)],
        to: Point,
        radius: f64,
        departure: TimeOfDay,
        window: f64,
        mut f: impl FnMut(u32),
    ) {
        let dcell = self.cell_of(to);
        let r = (radius / self.cell_m).ceil() as i32;
        let bucket_range = self.bucket_range(departure, window);
        let side = 2 * r as i64 + 1;
        let probes = origin_cells.len() as i64 * side * side * bucket_range.clone().count() as i64;
        if probes > 4096 {
            for &cell in origin_cells {
                if let Some(ids) = self.origin.get(&cell) {
                    for &id in ids {
                        f(id);
                    }
                }
            }
            return;
        }
        for &cell in origin_cells {
            self.probe_origin_cell(cell, dcell, r, &bucket_range, &mut f);
        }
    }

    /// Calls `f` for every entry id whose origin cell lies within `radius`
    /// metres (in cell terms) of `from`, regardless of destination or
    /// time.
    pub fn origin_candidates(&self, from: Point, radius: f64, mut f: impl FnMut(u32)) {
        let (ox, oy) = self.cell_of(from);
        let r = (radius / self.cell_m).ceil() as i32;
        for cox in (ox - r)..=(ox + r) {
            for coy in (oy - r)..=(oy + r) {
                if let Some(ids) = self.origin.get(&(cox, coy)) {
                    for &id in ids {
                        f(id);
                    }
                }
            }
        }
    }
}

/// The uniform grid-cell assignment shared by every layer that keys on
/// cells (the grid index, shard routing, candidate caching). All of
/// them must use this one function: if two layers computed cells
/// differently, an entry could be filed under one cell and probed under
/// another.
pub fn grid_cell(p: Point, cell_m: f64) -> (i32, i32) {
    ((p.x / cell_m).floor() as i32, (p.y / cell_m).floor() as i32)
}

/// Default spatial cell edge: the default reuse radius, so a reuse
/// lookup probes a 3×3 origin neighbourhood.
pub const DEFAULT_CELL_M: f64 = 300.0;
/// Default time bucket: the default reuse window (2 h → 12 buckets/day).
pub const DEFAULT_BUCKET_S: f64 = 2.0 * 3600.0;

/// A stored truth plus its cached endpoint positions (so queries never
/// have to go back to the graph for stored entries).
#[derive(Debug, Clone)]
struct Stored {
    from_pos: Point,
    to_pos: Point,
    entry: TruthEntry,
}

/// The truth database.
#[derive(Debug)]
pub struct TruthStore {
    stored: Vec<Stored>,
    grid: TruthGrid,
}

impl Default for TruthStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TruthStore {
    /// Creates an empty store with default grid geometry.
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_CELL_M, DEFAULT_BUCKET_S)
    }

    /// Creates an empty store with explicit grid geometry (spatial cell
    /// edge in metres, time bucket in seconds).
    pub fn with_geometry(cell_m: f64, bucket_s: f64) -> Self {
        TruthStore {
            stored: Vec::new(),
            grid: TruthGrid::new(cell_m, bucket_s),
        }
    }

    /// Number of stored truths.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Inserts a verified truth, indexing it by the endpoint positions
    /// taken from `graph`.
    pub fn insert(&mut self, graph: &RoadGraph, entry: TruthEntry) {
        self.insert_at(graph.position(entry.from), graph.position(entry.to), entry);
    }

    /// Inserts a verified truth with pre-resolved endpoint positions
    /// (lets callers that already know the positions skip the graph).
    pub fn insert_at(&mut self, from_pos: Point, to_pos: Point, entry: TruthEntry) {
        let id = self.stored.len() as u32;
        self.grid.insert(from_pos, to_pos, entry.departure, id);
        self.stored.push(Stored {
            from_pos,
            to_pos,
            entry,
        });
    }

    /// Evicts the `k` oldest entries (insertion order is age order) and
    /// re-indexes the survivors under fresh dense ids. Returns how many
    /// entries were actually removed. O(remaining) — callers amortise by
    /// evicting in batches rather than one at a time.
    pub fn evict_oldest(&mut self, k: usize) -> usize {
        let k = k.min(self.stored.len());
        if k == 0 {
            return 0;
        }
        self.stored.drain(..k);
        self.grid.clear();
        for (id, s) in self.stored.iter().enumerate() {
            self.grid
                .insert(s.from_pos, s.to_pos, s.entry.departure, id as u32);
        }
        k
    }

    /// The entry with the given id (ids are dense: `0..len()`, in
    /// insertion order).
    pub fn entry(&self, id: u32) -> Option<&TruthEntry> {
        self.stored.get(id as usize).map(|s| &s.entry)
    }

    /// Iterates over stored truths in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &TruthEntry> {
        self.stored.iter().map(|s| &s.entry)
    }

    /// Looks up a truth matching the request within the configured reuse
    /// radius and time window. Among matches, the spatially closest one is
    /// returned (ties by insertion order). Served by the grid index;
    /// agrees exactly with the test-only linear-scan reference.
    pub fn lookup(
        &self,
        graph: &RoadGraph,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        cfg: &Config,
    ) -> Option<&TruthEntry> {
        self.lookup_scored(graph, from, to, departure, cfg)
            .map(|(_, _, e)| e)
    }

    /// Grid-indexed lookup also reporting the match's endpoint-distance
    /// score and entry id — the serving layer uses these to merge results
    /// across shards with deterministic tie-breaks.
    pub fn lookup_scored(
        &self,
        graph: &RoadGraph,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        cfg: &Config,
    ) -> Option<(f64, u32, &TruthEntry)> {
        let fp = graph.position(from);
        let tp = graph.position(to);
        let mut best: Option<(f64, u32)> = None;
        {
            let mut consider = Self::reuse_filter(&self.stored, fp, tp, departure, cfg, &mut best);
            self.grid.spatiotemporal_candidates(
                fp,
                tp,
                cfg.reuse_radius,
                departure,
                cfg.reuse_time_window,
                &mut consider,
            );
        }
        best.map(|(d, id)| (d, id, &self.stored[id as usize].entry))
    }

    /// [`TruthStore::lookup_scored`] restricted to candidate entries in
    /// the given origin cells (in this store's grid geometry). Shard
    /// routers use this so one shard probes only the cells it owns.
    pub fn lookup_scored_in_cells(
        &self,
        graph: &RoadGraph,
        origin_cells: &[(i32, i32)],
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        cfg: &Config,
    ) -> Option<(f64, u32, &TruthEntry)> {
        let fp = graph.position(from);
        let tp = graph.position(to);
        let mut best: Option<(f64, u32)> = None;
        {
            let mut consider = Self::reuse_filter(&self.stored, fp, tp, departure, cfg, &mut best);
            self.grid.spatiotemporal_candidates_in_cells(
                origin_cells,
                tp,
                cfg.reuse_radius,
                departure,
                cfg.reuse_time_window,
                &mut consider,
            );
        }
        best.map(|(d, id)| (d, id, &self.stored[id as usize].entry))
    }

    /// The spatial cell (in this store's grid geometry) of a point.
    pub fn cell_of(&self, p: Point) -> (i32, i32) {
        self.grid.cell_of_point(p)
    }

    /// The exact reuse filter shared by all lookup paths: time window,
    /// per-endpoint radius, closest-match with insertion-order ties.
    fn reuse_filter<'s>(
        stored: &'s [Stored],
        fp: Point,
        tp: Point,
        departure: TimeOfDay,
        cfg: &'s Config,
        best: &'s mut Option<(f64, u32)>,
    ) -> impl FnMut(u32) + 's {
        let radius_sq = cfg.reuse_radius * cfg.reuse_radius;
        move |id| {
            let s = &stored[id as usize];
            if s.entry.departure.circular_distance(departure) > cfg.reuse_time_window {
                return;
            }
            // Squared-distance pre-filter: the sqrt is only paid for
            // entries that actually match.
            let df_sq = s.from_pos.distance_sq(&fp);
            let dt_sq = s.to_pos.distance_sq(&tp);
            if df_sq > radius_sq || dt_sq > radius_sq {
                return;
            }
            let d = df_sq.sqrt() + dt_sq.sqrt();
            let better = match *best {
                None => true,
                Some((bd, bid)) => d < bd || (d == bd && id < bid),
            };
            if better {
                *best = Some((d, id));
            }
        }
    }

    /// Reference implementation of [`TruthStore::lookup`]: a full linear
    /// scan with the original semantics, kept for the differential
    /// grid-vs-linear test.
    #[cfg(test)]
    fn lookup_linear(
        &self,
        graph: &RoadGraph,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        cfg: &Config,
    ) -> Option<&TruthEntry> {
        let fp = graph.position(from);
        let tp = graph.position(to);
        let radius_sq = cfg.reuse_radius * cfg.reuse_radius;
        let mut best: Option<(f64, &Stored)> = None;
        for s in &self.stored {
            if s.entry.departure.circular_distance(departure) > cfg.reuse_time_window {
                continue;
            }
            let df_sq = s.from_pos.distance_sq(&fp);
            let dt_sq = s.to_pos.distance_sq(&tp);
            if df_sq > radius_sq || dt_sq > radius_sq {
                continue;
            }
            let d = df_sq.sqrt() + dt_sq.sqrt();
            if best.as_ref().is_none_or(|(bd, _)| d < *bd) {
                best = Some((d, s));
            }
        }
        best.map(|(_, s)| &s.entry)
    }

    /// Truths whose endpoints are within `radius` of the request endpoints
    /// regardless of time — used by route evaluation to compute confidence
    /// scores from nearby verified history. Returned in insertion order.
    pub fn nearby(
        &self,
        graph: &RoadGraph,
        from: NodeId,
        to: NodeId,
        radius: f64,
    ) -> Vec<&TruthEntry> {
        let fp = graph.position(from);
        let tp = graph.position(to);
        let mut ids: Vec<u32> = Vec::new();
        self.grid.origin_candidates(fp, radius, |id| {
            let s = &self.stored[id as usize];
            if s.from_pos.distance(&fp) <= radius && s.to_pos.distance(&tp) <= radius {
                ids.push(id);
            }
        });
        ids.sort_unstable();
        ids.iter()
            .map(|&id| &self.stored[id as usize].entry)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::routing::{dijkstra_path, distance_cost};
    use cp_roadnet::{generate_city, CityParams};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn setup() -> (cp_roadnet::City, TruthStore, Config) {
        let city = generate_city(&CityParams::small(), 73).unwrap();
        (city, TruthStore::new(), Config::default())
    }

    fn path(city: &cp_roadnet::City, a: u32, b: u32) -> Path {
        dijkstra_path(
            &city.graph,
            NodeId(a),
            NodeId(b),
            distance_cost(&city.graph),
        )
        .unwrap()
    }

    #[test]
    fn exact_hit_is_found() {
        let (city, mut store, cfg) = setup();
        let p = path(&city, 0, 59);
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(0),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(8.0),
                path: p.clone(),
                confidence: 1.0,
            },
        );
        let hit = store
            .lookup(
                &city.graph,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.5),
                &cfg,
            )
            .unwrap();
        assert_eq!(hit.path, p);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn nearby_endpoints_hit_within_radius() {
        let (city, mut store, cfg) = setup();
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(0),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(8.0),
                path: path(&city, 0, 59),
                confidence: 1.0,
            },
        );
        // Node 1 is ~200 m from node 0 (within the 300 m radius).
        assert!(store
            .lookup(
                &city.graph,
                NodeId(1),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
                &cfg
            )
            .is_some());
        // Node 5 is ~1 km away: miss.
        assert!(store
            .lookup(
                &city.graph,
                NodeId(5),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
                &cfg
            )
            .is_none());
    }

    #[test]
    fn time_window_is_respected() {
        let (city, mut store, cfg) = setup();
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(0),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(8.0),
                path: path(&city, 0, 59),
                confidence: 1.0,
            },
        );
        // 2 h window: 10:30 departure misses an 8:00 truth.
        assert!(store
            .lookup(
                &city.graph,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(10.5),
                &cfg
            )
            .is_none());
        // Circular: 23:30 vs 00:30 is one hour apart.
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(0),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(23.5),
                path: path(&city, 0, 59),
                confidence: 1.0,
            },
        );
        assert!(store
            .lookup(
                &city.graph,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(0.5),
                &cfg
            )
            .is_some());
    }

    #[test]
    fn closest_match_wins() {
        let (city, mut store, cfg) = setup();
        let p1 = path(&city, 1, 59);
        let p2 = path(&city, 0, 59);
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(1),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(9.0),
                path: p1,
                confidence: 1.0,
            },
        );
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(0),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(9.0),
                path: p2.clone(),
                confidence: 1.0,
            },
        );
        let hit = store
            .lookup(
                &city.graph,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(9.0),
                &cfg,
            )
            .unwrap();
        assert_eq!(hit.path, p2);
    }

    #[test]
    fn nearby_ignores_time() {
        let (city, mut store, _) = setup();
        store.insert(
            &city.graph,
            TruthEntry {
                from: NodeId(0),
                to: NodeId(59),
                departure: TimeOfDay::from_hours(3.0),
                path: path(&city, 0, 59),
                confidence: 1.0,
            },
        );
        let near = store.nearby(&city.graph, NodeId(0), NodeId(59), 250.0);
        assert_eq!(near.len(), 1);
        assert!(store
            .nearby(&city.graph, NodeId(30), NodeId(59), 250.0)
            .is_empty());
    }

    #[test]
    fn empty_store_misses() {
        let (city, store, cfg) = setup();
        assert!(store.is_empty());
        assert!(store
            .lookup(
                &city.graph,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
                &cfg
            )
            .is_none());
    }

    #[test]
    fn evict_oldest_removes_prefix_and_keeps_index_consistent() {
        let (city, mut store, cfg) = setup();
        for (i, h) in [(0u32, 8.0), (1, 9.0), (2, 10.0), (3, 11.0)] {
            store.insert(
                &city.graph,
                TruthEntry {
                    from: NodeId(i),
                    to: NodeId(59),
                    departure: TimeOfDay::from_hours(h),
                    path: path(&city, i, 59),
                    confidence: 1.0,
                },
            );
        }
        assert_eq!(store.evict_oldest(2), 2);
        assert_eq!(store.len(), 2);
        // The two oldest are gone; the two youngest still resolve through
        // the rebuilt grid at their exact keys.
        let mut strict = cfg.clone();
        strict.reuse_radius = 0.0;
        assert!(store
            .lookup(
                &city.graph,
                NodeId(0),
                NodeId(59),
                TimeOfDay::from_hours(8.0),
                &strict
            )
            .is_none());
        assert!(store
            .lookup(
                &city.graph,
                NodeId(2),
                NodeId(59),
                TimeOfDay::from_hours(10.0),
                &strict
            )
            .is_some());
        // Over-asking clamps; an empty store evicts nothing.
        assert_eq!(store.evict_oldest(10), 2);
        assert_eq!(store.evict_oldest(1), 0);
        assert!(store.is_empty());
    }

    /// The grid path must agree with the linear reference on every query —
    /// same hit/miss, same entry, same closest-match tie-break — across
    /// randomized stores, radii, windows and grid geometries.
    #[test]
    fn grid_lookup_matches_linear_reference() {
        let city = generate_city(&CityParams::small(), 73).unwrap();
        let n = city.graph.node_count() as u32;
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        for (cell_m, bucket_s) in [
            (DEFAULT_CELL_M, DEFAULT_BUCKET_S),
            (125.0, 900.0),
            (1000.0, 21_600.0),
        ] {
            let mut store = TruthStore::with_geometry(cell_m, bucket_s);
            let mut cfg = Config::default();
            // A handful of route shapes is plenty; endpoints vary.
            let routes: Vec<Path> = (0..4).map(|i| path(&city, i, 59 - i)).collect();
            for i in 0..400u32 {
                let from = NodeId(rng.random_range(0..n));
                let to = NodeId(rng.random_range(0..n));
                store.insert(
                    &city.graph,
                    TruthEntry {
                        from,
                        to,
                        departure: TimeOfDay::new(rng.random_range(0.0..TimeOfDay::DAY)),
                        path: routes[i as usize % routes.len()].clone(),
                        confidence: 1.0,
                    },
                );
            }
            for radius in [0.0, 150.0, 300.0, 900.0] {
                cfg.reuse_radius = radius;
                for window in [0.0, 1800.0, 7200.0, 43_200.0] {
                    cfg.reuse_time_window = window;
                    for q in 0..60 {
                        let from = NodeId(rng.random_range(0..n));
                        let to = NodeId(rng.random_range(0..n));
                        let t = TimeOfDay::new(rng.random_range(0.0..TimeOfDay::DAY));
                        let grid = store.lookup(&city.graph, from, to, t, &cfg);
                        let linear = store.lookup_linear(&city.graph, from, to, t, &cfg);
                        match (grid, linear) {
                            (None, None) => {}
                            (Some(g), Some(l)) => {
                                assert!(
                                    std::ptr::eq(g, l),
                                    "query {q}: grid and linear disagree \
                                     (cell {cell_m}, bucket {bucket_s}, \
                                      radius {radius}, window {window})"
                                );
                            }
                            (g, l) => panic!(
                                "query {q}: hit mismatch grid={} linear={} \
                                 (cell {cell_m}, radius {radius}, window {window})",
                                g.is_some(),
                                l.is_some()
                            ),
                        }
                    }
                }
            }
        }
    }

    /// `nearby` via the origin index agrees with a brute-force filter.
    #[test]
    fn nearby_matches_brute_force() {
        let city = generate_city(&CityParams::small(), 91).unwrap();
        let n = city.graph.node_count() as u32;
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        let mut store = TruthStore::with_geometry(200.0, 3600.0);
        let p = path(&city, 0, 59);
        for _ in 0..300 {
            let from = NodeId(rng.random_range(0..n));
            let to = NodeId(rng.random_range(0..n));
            store.insert(
                &city.graph,
                TruthEntry {
                    from,
                    to,
                    departure: TimeOfDay::new(rng.random_range(0.0..TimeOfDay::DAY)),
                    path: p.clone(),
                    confidence: 1.0,
                },
            );
        }
        for radius in [100.0, 300.0, 900.0] {
            for _ in 0..40 {
                let from = NodeId(rng.random_range(0..n));
                let to = NodeId(rng.random_range(0..n));
                let got = store.nearby(&city.graph, from, to, radius);
                let fp = city.graph.position(from);
                let tp = city.graph.position(to);
                let want: Vec<&TruthEntry> = store
                    .iter()
                    .filter(|e| {
                        city.graph.position(e.from).distance(&fp) <= radius
                            && city.graph.position(e.to).distance(&tp) <= radius
                    })
                    .collect();
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!(std::ptr::eq(*g, *w));
                }
            }
        }
    }
}
