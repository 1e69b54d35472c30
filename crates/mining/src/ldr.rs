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

use cp_roadnet::routing::{dijkstra_path, ResumableTree};
use cp_roadnet::{NodeId, Path, RoadGraph, RoadNetError};
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
    exact
        .into_iter()
        .max_by(|a, b| {
            a.1.cmp(&b.1).then_with(|| {
                // Deterministic tie-break: prefer the shorter route.
                b.0.length(graph)
                    .partial_cmp(&a.0.length(graph))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        })
        .map(|(path, _)| path.clone())
}

/// Stage 3 input: how often the expert drove each edge over their whole
/// history (their habits generalise beyond one OD pair).
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

/// Indices (into `trips`) of trips whose *source* endpoint is local to
/// `from` — the origin-side half of the [`local_trips`] filter, shared
/// across every destination a cached origin artifact will ever serve.
/// Order-preserving, so a per-destination re-filter of the indexed
/// subset reproduces `local_trips` exactly.
pub(crate) fn origin_local_indices(
    graph: &RoadGraph,
    trips: &[Trip],
    from: NodeId,
    params: &LdrParams,
) -> Vec<u32> {
    let fp = graph.position(from);
    let r2 = params.endpoint_radius * params.endpoint_radius;
    trips
        .iter()
        .enumerate()
        .filter(|(_, t)| graph.position(t.path.source()).distance_sq(&fp) <= r2)
        .map(|(i, _)| i as u32)
        .collect()
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
    /// The expert's habit search from `from`, nothing settled yet.
    pub(crate) fn new(graph: &RoadGraph, trips: &[Trip], expert: DriverId, from: NodeId) -> Self {
        let wide = expert_counts(graph, trips, expert);
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
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

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
            let mut narrow = HabitTree::new(g, &ds.trips, expert, from);
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
