//! MFP — Most Frequent Path (Luo, Tan, Chen, Ni; SIGMOD 2013; paper
//! ref \[13\]).
//!
//! The original work mines the time-period-based most frequent path: given
//! a departure-time period, the "footmark" of each road segment is the
//! number of trajectories traversing it during that period, and the MFP is
//! the path whose *bottleneck* footmark is maximal (the weakest segment is
//! as strongly supported as possible), tie-broken toward shorter routes.
//!
//! Our adaptation (a row of the root README's *Substitutions* table):
//! the bottleneck (max–min footmark) objective is kept as a diagnostic ([`best_bottleneck`]), but
//! the returned route minimises saturating-frequency-discounted travel
//! time `Σ travel_time(e) / (1 + β·f/(f+f̄))` over the period-filtered
//! footmark graph (`f̄` = mean positive footmark; the bounded discount
//! rewards popular segments without letting mega-corridors warp the
//! route). On synthetic demand the literal bottleneck objective
//! degenerates whenever an OD pair strays off the commuting corridors
//! (B* collapses to the sparsest necessary cut and stops constraining the
//! route), whereas frequency-discounted time consistently follows the
//! most-driven corridors — the behaviour the CrowdPlanner evaluation
//! attributes to MFP.

use crate::transfer::TransferNetwork;
use cp_roadnet::routing::{dijkstra_path, ResumableTree};
use cp_roadnet::{EdgeId, NodeId, Path, RoadGraph, RoadNetError};
use cp_traj::{TimeOfDay, Trip};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Parameters of the MFP search.
#[derive(Debug, Clone, Copy)]
pub struct MfpParams {
    /// Half-width of the departure-time window, seconds.
    pub period_half_width: f64,
    /// Frequency weight β of the stage-2 tie-break.
    pub beta: f64,
}

impl Default for MfpParams {
    fn default() -> Self {
        MfpParams {
            period_half_width: 2.0 * 3600.0,
            beta: 1.2,
        }
    }
}

/// Max-heap entry ordered by bottleneck width.
#[derive(PartialEq)]
struct WidestEntry {
    width: f64,
    node: NodeId,
}
impl Eq for WidestEntry {}
impl Ord for WidestEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.width
            .partial_cmp(&other.width)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}
impl PartialOrd for WidestEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Best achievable bottleneck frequency from `from` to `to` (widest path).
pub fn best_bottleneck(graph: &RoadGraph, tn: &TransferNetwork, from: NodeId, to: NodeId) -> f64 {
    let n = graph.node_count();
    let mut width = vec![f64::NEG_INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    width[from.index()] = f64::INFINITY;
    heap.push(WidestEntry {
        width: f64::INFINITY,
        node: from,
    });
    while let Some(WidestEntry { width: w, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if node == to {
            return w;
        }
        for &e in graph.out_edges(node) {
            let edge = graph.edge(e);
            let nw = w.min(tn.edge_frequency(e));
            if nw > width[edge.to.index()] {
                width[edge.to.index()] = nw;
                heap.push(WidestEntry {
                    width: nw,
                    node: edge.to,
                });
            }
        }
    }
    width[to.index()]
}

/// MFP's saturating frequency discount: heavily-driven segments within
/// the time period are cheaper (at most `1 + beta` times cheaper), so
/// the search clings to the period's popular corridors without
/// detouring wildly to reach them.
fn discounted_cost<'a>(
    graph: &'a RoadGraph,
    tn: &'a TransferNetwork,
    params: &'a MfpParams,
) -> impl Fn(EdgeId) -> f64 + Copy + 'a {
    let half = tn.mean_positive_frequency().max(1.0);
    move |e| {
        let f = tn.edge_frequency(e);
        graph.edge(e).travel_time() / (1.0 + params.beta * f / (f + half))
    }
}

/// Computes the time-period most frequent path on a pre-filtered transfer
/// network (the caller already restricted trips to the period).
pub fn most_frequent_path_on(
    graph: &RoadGraph,
    tn: &TransferNetwork,
    from: NodeId,
    to: NodeId,
    params: &MfpParams,
) -> Result<Path, RoadNetError> {
    dijkstra_path(graph, from, to, discounted_cost(graph, tn, params))
}

/// The MFP from `tree`'s source to `to` over a pre-filtered period
/// network, resuming the frequency-discounted search `tree` until `to`
/// settles: the period-dependent half of a cached origin-mining
/// artifact. Byte-identical to [`most_frequent_path_on`] because every
/// resumption settles a prefix of the same settle order. `tree` must
/// only ever be resumed here, with the same `tn` (or an identical one)
/// and `params`. The per-edge costs are computed once per `(tn, beta)`
/// and kept on `tn`, so every origin served in one period shares them.
pub(crate) fn discounted_path(
    graph: &RoadGraph,
    tn: &TransferNetwork,
    tree: &mut ResumableTree,
    to: NodeId,
    params: &MfpParams,
) -> Option<Path> {
    let cost = discounted_cost(graph, tn, params);
    tn.discounted_costs
        .path_to(graph, tree, to, params.beta, cost)
}

/// Full MFP query: filters `trips` to the departure period around
/// `departure`, builds the period transfer network, and searches.
pub fn most_frequent_path(
    graph: &RoadGraph,
    trips: &[Trip],
    from: NodeId,
    to: NodeId,
    departure: TimeOfDay,
    params: &MfpParams,
) -> Result<Path, RoadNetError> {
    let tn = TransferNetwork::build(graph, trips, Some((departure, params.period_half_width)));
    most_frequent_path_on(graph, &tn, from, to, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    fn setup() -> (cp_roadnet::City, cp_traj::TripDataset, TransferNetwork) {
        let city = generate_city(&CityParams::small(), 29).unwrap();
        let ds = generate_trips(&city.graph, &TripGenParams::default(), 29).unwrap();
        let tn = TransferNetwork::build(&city.graph, &ds.trips, None);
        (city, ds, tn)
    }

    #[test]
    fn best_bottleneck_dominates_any_concrete_path() {
        let (city, _, tn) = setup();
        let g = &city.graph;
        let b = best_bottleneck(g, &tn, NodeId(0), NodeId(59));
        assert!(b >= 0.0);
        // No concrete path can beat the widest-path optimum.
        {
            let cost = cp_roadnet::routing::distance_cost(g);
            let p = cp_roadnet::routing::dijkstra_path(g, NodeId(0), NodeId(59), cost).unwrap();
            let min_f = p
                .edges()
                .iter()
                .map(|&e| tn.edge_frequency(e))
                .fold(f64::INFINITY, f64::min);
            assert!(min_f <= b + 1e-9);
        }
    }

    #[test]
    fn mfp_follows_popular_corridors() {
        let (city, _, tn) = setup();
        let g = &city.graph;
        let mfp =
            most_frequent_path_on(g, &tn, NodeId(0), NodeId(59), &MfpParams::default()).unwrap();
        let avg_freq = |p: &Path| {
            p.edges().iter().map(|&e| tn.edge_frequency(e)).sum::<f64>() / p.len() as f64
        };
        let shortest = cp_roadnet::routing::dijkstra_path(
            g,
            NodeId(0),
            NodeId(59),
            cp_roadnet::routing::distance_cost(g),
        )
        .unwrap();
        assert!(
            avg_freq(&mfp) >= avg_freq(&shortest) - 1e-9,
            "MFP must be at least as data-supported as the shortest path"
        );
    }

    #[test]
    fn mfp_is_optimal_under_its_own_cost() {
        let (city, _, tn) = setup();
        let g = &city.graph;
        let params = MfpParams::default();
        let mfp = most_frequent_path_on(g, &tn, NodeId(3), NodeId(42), &params).unwrap();
        let half0 = tn.mean_positive_frequency().max(1.0);
        let cost = |p: &Path| {
            p.edges()
                .iter()
                .map(|&e| {
                    let f = tn.edge_frequency(e);
                    g.edge(e).travel_time() / (1.0 + params.beta * f / (f + half0))
                })
                .sum::<f64>()
        };
        let half = tn.mean_positive_frequency().max(1.0);
        let alt = cp_roadnet::routing::dijkstra_path(g, NodeId(3), NodeId(42), |e| {
            let f = tn.edge_frequency(e);
            g.edge(e).travel_time() / (1.0 + params.beta * f / (f + half))
        })
        .unwrap();
        assert!((cost(&alt) - cost(&mfp)).abs() < 1e-9);
    }

    #[test]
    fn frequency_discounted_tree_matches_per_request_mfp() {
        let (city, ds, _) = setup();
        let g = &city.graph;
        let params = MfpParams::default();
        let from = NodeId(7);
        let build = || {
            TransferNetwork::build(
                g,
                &ds.trips,
                Some((TimeOfDay::from_hours(8.0), params.period_half_width)),
            )
        };
        let period = build();
        let mut tree = ResumableTree::new(g, from);
        for b in [59u32, 0, 31, 44, 0] {
            let want = most_frequent_path_on(g, &period, from, NodeId(b), &params).ok();
            let got = discounted_path(g, &period, &mut tree, NodeId(b), &params);
            assert!(got.is_some(), "to {b} is reachable");
            assert_eq!(got, want, "to {b}");
        }
        // The tree resumed destination by destination settles every node
        // at the distance a walk over a fresh network's array finds, bit
        // for bit.
        let fresh = build();
        let mut whole = ResumableTree::new(g, from);
        for n in g.nodes() {
            discounted_path(g, &period, &mut tree, n, &params);
            discounted_path(g, &fresh, &mut whole, n, &params);
        }
        let bits = |t: &ResumableTree| -> Vec<_> {
            g.nodes().map(|n| t.distance(n).map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&tree), bits(&whole));
    }

    #[test]
    fn time_period_changes_the_network() {
        let (city, ds, _) = setup();
        let g = &city.graph;
        let params = MfpParams {
            period_half_width: 3600.0,
            ..MfpParams::default()
        };
        // Morning and midnight periods see different support; both must
        // still return a path.
        let m = most_frequent_path(
            g,
            &ds.trips,
            NodeId(0),
            NodeId(59),
            TimeOfDay::from_hours(8.0),
            &params,
        )
        .unwrap();
        let n = most_frequent_path(
            g,
            &ds.trips,
            NodeId(0),
            NodeId(59),
            TimeOfDay::from_hours(3.0),
            &params,
        )
        .unwrap();
        assert!(m.is_simple() && n.is_simple());
    }

    #[test]
    fn empty_history_still_routes() {
        let (city, _, _) = setup();
        let g = &city.graph;
        let p = most_frequent_path(
            g,
            &[],
            NodeId(0),
            NodeId(9),
            TimeOfDay::from_hours(12.0),
            &MfpParams::default(),
        )
        .unwrap();
        // Degenerates to shortest path over zero-frequency edges.
        assert!(p.is_simple());
    }

    #[test]
    fn same_node_errors() {
        let (city, _, tn) = setup();
        assert!(most_frequent_path_on(
            &city.graph,
            &tn,
            NodeId(5),
            NodeId(5),
            &MfpParams::default()
        )
        .is_err());
    }
}
