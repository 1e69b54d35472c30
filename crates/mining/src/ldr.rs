//! LDR — Local-Driver Route (after Ceikute & Jensen, MDM 2013; paper
//! ref \[3\]).
//!
//! The CrowdPlanner paper lists "MPR, LDR and MFP" as its popular-route
//! miners but never expands LDR; its related-work section describes
//! citation \[3\] as mining "the individual popular routes from [a driver's]
//! historical trajectories … The recommended routes of this method reflect
//! certain people's preference." We therefore implement LDR with
//! *individual-driver* semantics:
//!
//! 1. find the trips whose endpoints are near the requested OD pair, and
//!    pick the **most experienced local driver** — the driver with the most
//!    such trips;
//! 2. if that driver has driven the exact requested OD, return their modal
//!    (most frequently driven) route for it;
//! 3. otherwise follow that driver's personal street usage: route with an
//!    edge cost of `travel_time / (1 + β · driver_frequency)`, which
//!    discounts the segments this driver habitually uses;
//! 4. with no local trips at all, degenerate to the fastest route.
//!
//! Because the answer channels one person's preference, LDR inherits that
//! person's idiosyncrasies — exactly why the paper treats it as one noisy
//! voice among several candidate sources. This interpretation is recorded
//! in the root README's *Substitutions* table.
//!
//! [`local_driver_route`] reads the whole trip history per request and is
//! the reference. The serving path reads a [`TripIndex`] built once per
//! world instead: a grid over trip sources for the origin-side locality
//! scan, flat endpoint positions for the destination-side filter, and
//! per-driver trip lists for stage 3's habit counts. Both paths filter
//! the same points with the same arithmetic and keep the history's
//! order, so they pick the same expert and route.

use cp_roadnet::routing::{dijkstra_path, ResumableTree};
use cp_roadnet::{NodeId, Path, Point, RoadGraph, RoadNetError};
use cp_traj::{DriverId, Trip};
use std::collections::HashMap;

/// Parameters of the LDR search.
#[derive(Debug, Clone, Copy)]
pub struct LdrParams {
    /// Trips whose endpoints are within this many metres of the request
    /// endpoints count as local.
    pub endpoint_radius: f64,
    /// Frequency discount strength β for the personal-usage search.
    pub beta: f64,
}

impl Default for LdrParams {
    fn default() -> Self {
        LdrParams {
            endpoint_radius: 800.0,
            beta: 0.8,
        }
    }
}

fn local_trips<'a>(
    graph: &RoadGraph,
    trips: &'a [Trip],
    from: NodeId,
    to: NodeId,
    params: &LdrParams,
) -> Vec<&'a Trip> {
    let fp = graph.position(from);
    let tp = graph.position(to);
    let r2 = params.endpoint_radius * params.endpoint_radius;
    trips
        .iter()
        .filter(|t| {
            graph.position(t.path.source()).distance_sq(&fp) <= r2
                && graph.position(t.path.destination()).distance_sq(&tp) <= r2
        })
        .collect()
}

/// Stage 1: the most experienced local driver among `local` trips.
pub(crate) fn pick_expert(local: &[&Trip]) -> Option<DriverId> {
    let mut per_driver: HashMap<DriverId, usize> = HashMap::new();
    for t in local {
        *per_driver.entry(t.driver).or_insert(0) += 1;
    }
    per_driver
        .into_iter()
        .max_by_key(|&(d, c)| (c, std::cmp::Reverse(d)))
        .map(|(d, _)| d)
}

/// Stage 2: the expert's modal route for the exact OD, if any.
pub(crate) fn expert_modal_exact(
    graph: &RoadGraph,
    local: &[&Trip],
    expert: DriverId,
    from: NodeId,
    to: NodeId,
) -> Option<Path> {
    let mut exact: HashMap<&Path, usize> = HashMap::new();
    for t in local {
        if t.driver == expert && t.path.source() == from && t.path.destination() == to {
            *exact.entry(&t.path).or_insert(0) += 1;
        }
    }
    // The map iterates in a random order, so the order must be total:
    // prefer the shorter route, then the smaller edge-id sequence.
    exact
        .into_iter()
        .max_by(|a, b| {
            a.1.cmp(&b.1)
                .then_with(|| {
                    b.0.length(graph)
                        .partial_cmp(&a.0.length(graph))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .then_with(|| b.0.edges().cmp(a.0.edges()))
        })
        .map(|(path, _)| path.clone())
}

/// Stage 3 input: how often the expert drove each edge over their whole
/// history (their habits generalise beyond one OD pair). The reference
/// scan; the serving path counts from [`TripIndex::trips_of`].
fn expert_counts(graph: &RoadGraph, trips: &[Trip], expert: DriverId) -> Vec<u32> {
    let mut counts = vec![0u32; graph.edge_count()];
    for t in trips.iter().filter(|t| t.driver == expert) {
        for &e in t.path.edges() {
            counts[e.index()] += 1;
        }
    }
    counts
}

/// Stage 3's habit-discounted travel time. Counting in integers and
/// converting once is exact, so this equals the sum-of-`1.0`s form bit
/// for bit.
#[inline]
fn habit_cost(time: f64, beta: f64, count: u32) -> f64 {
    time / (1.0 + beta * f64::from(count))
}

/// Computes the local-driver route for the request `(from, to)`.
///
/// `trips` is the full trip history; the expert is chosen among drivers
/// with trips local to the request.
pub fn local_driver_route(
    graph: &RoadGraph,
    trips: &[Trip],
    from: NodeId,
    to: NodeId,
    params: &LdrParams,
) -> Result<Path, RoadNetError> {
    if from == to {
        return Err(RoadNetError::NoPath { from, to });
    }
    let local = local_trips(graph, trips, from, to, params);

    let Some(expert) = pick_expert(&local) else {
        // Stage 4: nobody drives here — fastest route.
        return dijkstra_path(graph, from, to, |e| graph.edge(e).travel_time());
    };

    if let Some(path) = expert_modal_exact(graph, &local, expert, from, to) {
        return Ok(path);
    }

    let counts = expert_counts(graph, trips, expert);
    dijkstra_path(graph, from, to, |e| {
        habit_cost(graph.edge(e).travel_time(), params.beta, counts[e.index()])
    })
}

/// Side of a [`TripIndex`] grid cell, in metres (the generated cities'
/// block spacing).
const CELL_M: f64 = 250.0;

/// Most grid cells along one axis. Sources spread wider than this many
/// [`CELL_M`] cells get proportionally wider cells instead.
const MAX_CELLS_PER_AXIS: usize = 256;

/// The cell along one grid axis holding coordinate `v`, clamped into
/// `0..cells`. Monotone in `v`, and NaN maps to cell 0.
fn axis_cell(v: f64, lo: f64, cell: f64, cells: usize) -> usize {
    ((v - lo) / cell).floor().max(0.0).min((cells - 1) as f64) as usize
}

/// One world's trip history, indexed for the serving path's LDR: a
/// uniform grid over trip sources, each trip's destination position in
/// a flat array, and each driver's trips. Built once per world; it holds
/// no miner parameter, so any `endpoint_radius` can query it.
pub struct TripIndex {
    /// `destinations[i]` is the position of trip `i`'s destination node.
    destinations: Vec<Point>,
    /// Least source coordinates: the grid's lower-left corner.
    corner: Point,
    /// Cell side in metres.
    cell: f64,
    cols: usize,
    rows: usize,
    /// The trips whose source lies in row-major cell `c` are
    /// `cell_trips[cell_start[c]..cell_start[c + 1]]`, ascending.
    cell_start: Vec<u32>,
    cell_trips: Vec<u32>,
    /// `cell_sources[k]` is the source position of trip `cell_trips[k]`,
    /// so a cell's scan reads its positions sequentially.
    cell_sources: Vec<Point>,
    /// Each driver's trips, ascending.
    by_driver: HashMap<DriverId, Vec<u32>>,
}

impl TripIndex {
    /// Indexes `trips`, whose paths run over `graph`.
    pub fn build(graph: &RoadGraph, trips: &[Trip]) -> Self {
        let sources: Vec<Point> = trips
            .iter()
            .map(|t| graph.position(t.path.source()))
            .collect();
        let destinations = trips
            .iter()
            .map(|t| graph.position(t.path.destination()))
            .collect();
        let (mut corner, mut far) = match sources.first() {
            Some(&p) => (p, p),
            None => (Point::default(), Point::default()),
        };
        for p in &sources {
            corner = Point::new(corner.x.min(p.x), corner.y.min(p.y));
            far = Point::new(far.x.max(p.x), far.y.max(p.y));
        }
        let extent = (far.x - corner.x).max(far.y - corner.y);
        let cell = CELL_M.max(extent / MAX_CELLS_PER_AXIS as f64);
        let cols = ((far.x - corner.x) / cell) as usize + 1;
        let rows = ((far.y - corner.y) / cell) as usize + 1;
        let mut index = TripIndex {
            destinations,
            corner,
            cell,
            cols,
            rows,
            cell_start: vec![0; cols * rows + 1],
            cell_trips: Vec::new(),
            cell_sources: Vec::new(),
            by_driver: HashMap::new(),
        };
        let cells: Vec<usize> = sources.iter().map(|p| index.cell_of(p)).collect();
        for &c in &cells {
            index.cell_start[c + 1] += 1;
        }
        for c in 1..index.cell_start.len() {
            index.cell_start[c] += index.cell_start[c - 1];
        }
        // Group the trips by cell; the stable sort keeps each cell's
        // trips ascending.
        index.cell_trips = (0..trips.len() as u32).collect();
        index.cell_trips.sort_by_key(|&i| cells[i as usize]);
        index.cell_sources = index
            .cell_trips
            .iter()
            .map(|&i| sources[i as usize])
            .collect();
        for (i, t) in trips.iter().enumerate() {
            index.by_driver.entry(t.driver).or_default().push(i as u32);
        }
        index
    }

    /// The row-major grid cell holding `p`.
    fn cell_of(&self, p: &Point) -> usize {
        let cx = axis_cell(p.x, self.corner.x, self.cell, self.cols);
        let cy = axis_cell(p.y, self.corner.y, self.cell, self.rows);
        cy * self.cols + cx
    }

    /// Indices of the trips whose source lies within `radius` of `p`,
    /// ascending: exactly the trips the linear filter
    /// `source.distance_sq(p) <= radius * radius` keeps, in history
    /// order. Visits only the cells overlapping the `±radius` square, plus
    /// one bit per trip to restore history order.
    pub(crate) fn sources_near(&self, p: &Point, radius: f64) -> Vec<u32> {
        let r2 = radius * radius;
        // The filter rounds, so a kept source may sit a few ulps outside
        // the true square; widening by a relative and an absolute margin
        // far above that keeps its cell in range.
        let reach = radius.abs() * (1.0 + 1e-9) + 1e-9 * (1.0 + p.x.abs() + p.y.abs());
        let (x0, x1) = (
            axis_cell(p.x - reach, self.corner.x, self.cell, self.cols),
            axis_cell(p.x + reach, self.corner.x, self.cell, self.cols),
        );
        let (y0, y1) = (
            axis_cell(p.y - reach, self.corner.y, self.cell, self.rows),
            axis_cell(p.y + reach, self.corner.y, self.cell, self.rows),
        );
        // Cells list their trips in cell order; a bitmap over the history
        // puts the kept ones back in history order without a sort.
        let mut kept = vec![0u64; self.destinations.len().div_ceil(64)];
        let mut count = 0;
        for cy in y0..=y1 {
            let row = cy * self.cols;
            let span = self.cell_start[row + x0] as usize..self.cell_start[row + x1 + 1] as usize;
            for (&i, s) in self.cell_trips[span.clone()]
                .iter()
                .zip(&self.cell_sources[span])
            {
                if s.distance_sq(p) <= r2 {
                    kept[i as usize / 64] |= 1 << (i % 64);
                    count += 1;
                }
            }
        }
        let mut out = Vec::with_capacity(count);
        for (w, &word) in kept.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        out
    }

    /// The position of trip `i`'s destination node.
    pub(crate) fn destination(&self, i: u32) -> &Point {
        &self.destinations[i as usize]
    }

    /// The trips `driver` drove, ascending.
    pub(crate) fn trips_of(&self, driver: DriverId) -> &[u32] {
        self.by_driver.get(&driver).map_or(&[], Vec::as_slice)
    }
}

impl std::fmt::Debug for TripIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TripIndex")
            .field("trips", &self.destinations.len())
            .field("cells", &(self.cols, self.rows))
            .field("drivers", &self.by_driver.len())
            .finish_non_exhaustive()
    }
}

/// One expert's stage-3 habit search from one origin: their edge
/// counts plus a [`ResumableTree`] that settles only as far as the
/// destinations asked for so far. The counts are kept as `u16` when they
/// all fit (a dense `f64` cost row would be four times larger).
pub(crate) struct HabitTree {
    counts: HabitCounts,
    tree: ResumableTree,
}

enum HabitCounts {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl HabitTree {
    /// The expert's habit search from `from`, nothing settled yet. Counts
    /// only the expert's trips, which `index` lists.
    pub(crate) fn new(
        graph: &RoadGraph,
        trips: &[Trip],
        index: &TripIndex,
        expert: DriverId,
        from: NodeId,
    ) -> Self {
        let mut wide = vec![0u32; graph.edge_count()];
        for &i in index.trips_of(expert) {
            for &e in trips[i as usize].path.edges() {
                wide[e.index()] += 1;
            }
        }
        let counts = match wide.iter().map(|&c| u16::try_from(c)).collect() {
            Ok(narrow) => HabitCounts::Narrow(narrow),
            Err(_) => HabitCounts::Wide(wide),
        };
        HabitTree {
            counts,
            tree: ResumableTree::new(graph, from),
        }
    }

    /// The stage-3 route to `to`, byte-identical to the stage-3 search of
    /// [`local_driver_route`] (every resumption settles a prefix of the
    /// same settle order). Every call must pass the same `params`.
    pub(crate) fn path_to(
        &mut self,
        graph: &RoadGraph,
        to: NodeId,
        params: &LdrParams,
    ) -> Option<Path> {
        let times = graph.travel_times();
        let beta = params.beta;
        match &self.counts {
            HabitCounts::Narrow(c) => self.tree.path_to(graph, to, |e| {
                habit_cost(times[e.index()], beta, c[e.index()].into())
            }),
            HabitCounts::Wide(c) => self.tree.path_to(graph, to, |e| {
                habit_cost(times[e.index()], beta, c[e.index()])
            }),
        }
    }
}

/// Number of local trips supporting the request — the support level that
/// route evaluation uses to judge whether LDR's answer is data-backed.
pub fn local_support(
    graph: &RoadGraph,
    trips: &[Trip],
    from: NodeId,
    to: NodeId,
    params: &LdrParams,
) -> usize {
    local_trips(graph, trips, from, to, params).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams, RoadClass, RoadGraphBuilder};
    use cp_traj::{generate_trips, TimeOfDay, TripGenParams};
    use proptest::prelude::*;

    fn setup() -> (cp_roadnet::City, cp_traj::TripDataset) {
        let city = generate_city(&CityParams::small(), 31).unwrap();
        let ds = generate_trips(&city.graph, &TripGenParams::default(), 31).unwrap();
        (city, ds)
    }

    #[test]
    fn replays_a_driven_route_when_the_expert_drove_it() {
        let (city, ds) = setup();
        let g = &city.graph;
        // Pick an OD pair that actually occurs in the dataset.
        let trip = &ds.trips[0];
        let (a, b) = (trip.path.source(), trip.path.destination());
        let ldr = local_driver_route(g, &ds.trips, a, b, &LdrParams::default()).unwrap();
        assert_eq!(ldr.source(), a);
        assert_eq!(ldr.destination(), b);
        // The route must belong to a single driver's observed behaviour or
        // their habit-weighted search; when an exact trip exists for the
        // expert it must be replayed verbatim.
        let experts: std::collections::HashMap<cp_traj::DriverId, usize> = {
            let mut m = std::collections::HashMap::new();
            let fp = g.position(a);
            let tp = g.position(b);
            for t in &ds.trips {
                if g.position(t.path.source()).distance(&fp) <= 800.0
                    && g.position(t.path.destination()).distance(&tp) <= 800.0
                {
                    *m.entry(t.driver).or_insert(0) += 1;
                }
            }
            m
        };
        assert!(!experts.is_empty());
    }

    #[test]
    fn expert_exact_route_is_their_modal_one() {
        let (city, ds) = setup();
        let g = &city.graph;
        let trip = &ds.trips[0];
        let (a, b) = (trip.path.source(), trip.path.destination());
        let ldr = local_driver_route(g, &ds.trips, a, b, &LdrParams::default()).unwrap();
        // If the returned path was driven by someone with this exact OD,
        // no other exact-OD path of that driver may be strictly more
        // frequent.
        if let Some(t0) = ds.trips.iter().find(|t| t.path == ldr) {
            let d = t0.driver;
            let count = |p: &Path| {
                ds.trips
                    .iter()
                    .filter(|t| t.driver == d && t.path == *p)
                    .count()
            };
            for t in ds
                .trips
                .iter()
                .filter(|t| t.driver == d && t.path.source() == a && t.path.destination() == b)
            {
                assert!(count(&ldr) >= count(&t.path));
            }
        }
    }

    #[test]
    fn fallback_routes_without_exact_trips() {
        let (city, ds) = setup();
        let g = &city.graph;
        // Find an OD pair with no exact trip.
        let mut pair = None;
        'outer: for a in 0..60u32 {
            for b in 0..60u32 {
                if a == b {
                    continue;
                }
                if !ds
                    .trips
                    .iter()
                    .any(|t| t.path.source() == NodeId(a) && t.path.destination() == NodeId(b))
                {
                    pair = Some((NodeId(a), NodeId(b)));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("some OD pair must be untripped");
        let p = local_driver_route(g, &ds.trips, a, b, &LdrParams::default()).unwrap();
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), b);
        assert!(p.is_simple());
    }

    #[test]
    fn no_history_degenerates_to_fastest() {
        let (city, _) = setup();
        let g = &city.graph;
        let p = local_driver_route(g, &[], NodeId(0), NodeId(59), &LdrParams::default()).unwrap();
        let s = cp_roadnet::routing::dijkstra_path(
            g,
            NodeId(0),
            NodeId(59),
            cp_roadnet::routing::time_cost(g),
        )
        .unwrap();
        assert!((p.travel_time(g) - s.travel_time(g)).abs() < 1e-9);
    }

    #[test]
    fn resumed_habit_search_matches_the_float_frequency_search() {
        let (city, ds) = setup();
        let g = &city.graph;
        let params = LdrParams::default();
        let from = NodeId(4);
        for expert in [ds.trips[0].driver, ds.trips[7].driver] {
            // The sum-of-1.0s row stage 3 searched under before integer
            // counts.
            let mut freq = vec![0.0f64; g.edge_count()];
            for t in ds.trips.iter().filter(|t| t.driver == expert) {
                for &e in t.path.edges() {
                    freq[e.index()] += 1.0;
                }
            }
            let index = TripIndex::build(g, &ds.trips);
            let mut narrow = HabitTree::new(g, &ds.trips, &index, expert, from);
            assert!(matches!(narrow.counts, HabitCounts::Narrow(_)));
            let mut wide = HabitTree {
                counts: HabitCounts::Wide(expert_counts(g, &ds.trips, expert)),
                tree: ResumableTree::new(g, from),
            };
            for b in [59u32, 13, 59, 4, 30] {
                let want = dijkstra_path(g, from, NodeId(b), |e| {
                    g.edge(e).travel_time() / (1.0 + params.beta * freq[e.index()])
                })
                .ok();
                assert_eq!(narrow.path_to(g, NodeId(b), &params), want, "to {b}");
                assert_eq!(wide.path_to(g, NodeId(b), &params), want, "to {b}");
            }
        }
    }

    /// Two equally long routes around an unjittered square, each driven
    /// once by the only driver: the exact-OD tie-break must pick the same
    /// one however the count map iterates.
    #[test]
    fn exact_od_tie_break_is_deterministic() {
        let mut b = RoadGraphBuilder::new();
        let [sw, se, ne, nw] = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0), (0.0, 100.0)]
            .map(|(x, y)| b.add_node(Point::new(x, y)));
        for (from, to) in [(sw, nw), (nw, ne), (sw, se), (se, ne)] {
            b.add_edge(from, to, RoadClass::Local, false, None).unwrap();
        }
        let g = b.build();
        let west = Path::from_nodes(&g, &[sw, nw, ne]).unwrap();
        let south = Path::from_nodes(&g, &[sw, se, ne]).unwrap();
        assert_eq!(west.length(&g), south.length(&g));
        // History order puts the route the tie-break must pick last.
        let trips: Vec<Trip> = [&south, &west]
            .map(|p| Trip {
                driver: DriverId(3),
                path: p.clone(),
                departure: TimeOfDay::from_hours(8.0),
            })
            .into();
        let params = LdrParams::default();
        for _ in 0..200 {
            let got = local_driver_route(&g, &trips, sw, ne, &params).unwrap();
            assert_eq!(got, west, "the smaller edge-id sequence wins the tie");
        }
    }

    /// A graph whose node 0 sits at the least coordinates, so the grid's
    /// cell boundaries fall on multiples of `CELL_M` from it; the other
    /// nodes sit on a boundary, just below one, or inside a cell, at
    /// negative and positive coordinates. Each trip is one edge.
    fn indexed_world(
        nodes: &[(i32, i32, u8)],
        trips: &[(usize, usize, u32)],
    ) -> (RoadGraph, Vec<Trip>) {
        let mut b = RoadGraphBuilder::new();
        let least = -20.0 * CELL_M;
        b.add_node(Point::new(least, least));
        for &(kx, ky, kind) in nodes {
            let at = |k: i32| {
                let edge = f64::from(k) * CELL_M;
                match kind % 3 {
                    0 => edge,
                    1 => edge - 1e-9,
                    _ => edge + 0.37 * CELL_M,
                }
            };
            b.add_node(Point::new(at(kx), at(ky)));
        }
        let n = b.node_count();
        let mut paths = Vec::new();
        for (i, &(src, off, driver)) in trips.iter().enumerate() {
            // The first trip starts at the least node, anchoring the grid.
            let src = if i == 0 { 0 } else { src % n };
            let dst = (src + 1 + off % (n - 1)) % n;
            let e = b
                .add_edge(
                    NodeId(src as u32),
                    NodeId(dst as u32),
                    RoadClass::Local,
                    false,
                    None,
                )
                .unwrap();
            paths.push((e, DriverId(driver)));
        }
        let g = b.build();
        let trips = paths
            .into_iter()
            .map(|(e, driver)| Trip {
                driver,
                path: Path::from_edges(&g, vec![e]).unwrap(),
                departure: TimeOfDay::from_hours(8.0),
            })
            .collect();
        (g, trips)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The grid scan keeps exactly the trips the linear filter keeps,
        /// in history order, for any origin and radius: 0, just below,
        /// at and just above the cell size, the default, random, and
        /// wider than the city. The flat destinations and the per-driver
        /// habit counts equal the history's.
        #[test]
        fn trip_index_matches_the_linear_scans(
            nodes in proptest::collection::vec((-20i32..20, -20i32..20, 0u8..3), 1..40),
            trips in proptest::collection::vec((0usize..64, 0usize..64, 0u32..6), 1..120),
            queries in proptest::collection::vec(
                (0usize..64, -6000.0f64..6000.0, -6000.0f64..6000.0, 0u8..8, 0.0f64..3000.0),
                1..12,
            ),
        ) {
            let (g, trips) = indexed_world(&nodes, &trips);
            let index = TripIndex::build(&g, &trips);
            for (q, &(node, x, y, pick, random)) in queries.iter().enumerate() {
                let p = if q % 2 == 0 {
                    g.position(NodeId((node % g.node_count()) as u32))
                } else {
                    Point::new(x, y)
                };
                let radius = match pick {
                    0 => 0.0,
                    1 => CELL_M - 1e-7,
                    2 => CELL_M,
                    3 => CELL_M + 1e-7,
                    4 => LdrParams::default().endpoint_radius,
                    5 => 1e7,
                    _ => random,
                };
                let r2 = radius * radius;
                let linear: Vec<u32> = (0..trips.len() as u32)
                    .filter(|&i| {
                        g.position(trips[i as usize].path.source()).distance_sq(&p) <= r2
                    })
                    .collect();
                prop_assert_eq!(index.sources_near(&p, radius), linear, "{:?} r {}", p, radius);
            }
            prop_assert_eq!(index.destinations.len(), trips.len());
            for (i, t) in trips.iter().enumerate() {
                prop_assert_eq!(*index.destination(i as u32), g.position(t.path.destination()));
            }
            for driver in (0..7).map(DriverId) {
                let counts = match HabitTree::new(&g, &trips, &index, driver, NodeId(0)).counts {
                    HabitCounts::Narrow(c) => c.into_iter().map(u32::from).collect(),
                    HabitCounts::Wide(c) => c,
                };
                prop_assert_eq!(counts, expert_counts(&g, &trips, driver), "{:?}", driver);
            }
        }
    }

    #[test]
    fn support_counts_nearby_trips() {
        let (city, ds) = setup();
        let g = &city.graph;
        let trip = &ds.trips[0];
        let s = local_support(
            g,
            &ds.trips,
            trip.path.source(),
            trip.path.destination(),
            &LdrParams::default(),
        );
        assert!(s >= 1);
        let s0 = local_support(
            g,
            &ds.trips,
            trip.path.source(),
            trip.path.destination(),
            &LdrParams {
                endpoint_radius: 0.0,
                beta: 0.8,
            },
        );
        assert!(s0 <= s);
    }

    #[test]
    fn same_node_errors() {
        let (city, ds) = setup();
        assert!(local_driver_route(
            &city.graph,
            &ds.trips,
            NodeId(1),
            NodeId(1),
            &LdrParams::default()
        )
        .is_err());
    }
}
