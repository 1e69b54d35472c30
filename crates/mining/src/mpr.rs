//! MPR — Most Popular Route (Chen, Shen, Zhou; ICDE 2011; paper ref \[4\]).
//!
//! The original algorithm builds a transfer network from trajectories,
//! derives a popularity indicator per road segment from transfer
//! probabilities, and searches the route maximising the product of
//! popularity scores (which also biases toward routes with fewer vertices —
//! every extra factor < 1 lowers the product). We reproduce that: the MPR
//! is the path minimising `Σ -ln P(e)` where `P(e)` is the Laplace-smoothed
//! transfer probability, computed with Dijkstra (all costs positive because
//! `P(e) < 1` whenever a node has more than one outgoing edge).

use crate::transfer::TransferNetwork;
use cp_roadnet::routing::{dijkstra_path, ResumableTree};
use cp_roadnet::{EdgeId, NodeId, Path, RoadGraph, RoadNetError};

/// Parameters of the MPR search.
#[derive(Debug, Clone, Copy)]
pub struct MprParams {
    /// Laplace smoothing pseudo-count for unseen edges.
    pub smoothing: f64,
}

impl Default for MprParams {
    fn default() -> Self {
        MprParams { smoothing: 0.3 }
    }
}

/// MPR's search cost `-ln P(e)`, which is ≥ 0 because `P(e) ≤ 1`.
fn popularity_cost<'a>(
    graph: &'a RoadGraph,
    tn: &'a TransferNetwork,
    params: &'a MprParams,
) -> impl Fn(EdgeId) -> f64 + Copy + 'a {
    move |e| {
        let p = tn
            .transfer_probability(graph, e, params.smoothing)
            .max(f64::MIN_POSITIVE);
        -p.ln()
    }
}

/// Computes the most popular route from `from` to `to`.
pub fn most_popular_route(
    graph: &RoadGraph,
    tn: &TransferNetwork,
    from: NodeId,
    to: NodeId,
    params: &MprParams,
) -> Result<Path, RoadNetError> {
    dijkstra_path(graph, from, to, popularity_cost(graph, tn, params))
}

/// The MPR from `tree`'s source to `to`, resuming the popularity search
/// `tree` until `to` settles. `-ln P(e)` depends only on the origin side
/// and the all-day network, so one search per origin answers every later
/// destination. The answer is byte-identical to [`most_popular_route`]
/// because every resumption settles a prefix of the same settle order.
/// `tree` must only ever be resumed here, with the same `tn` and
/// `params`. The per-edge costs are computed once per `(tn, smoothing)`
/// and kept on `tn`, so later origins pay no `ln`.
pub(crate) fn popularity_path(
    graph: &RoadGraph,
    tn: &TransferNetwork,
    tree: &mut ResumableTree,
    to: NodeId,
    params: &MprParams,
) -> Option<Path> {
    let cost = popularity_cost(graph, tn, params);
    tn.popularity_costs
        .path_to(graph, tree, to, params.smoothing, cost)
}

/// Popularity score of a path: the product of its transfer probabilities,
/// reported as a log-popularity (sums are numerically safer than products).
pub fn log_popularity(
    graph: &RoadGraph,
    tn: &TransferNetwork,
    path: &Path,
    params: &MprParams,
) -> f64 {
    path.edges()
        .iter()
        .map(|&e| {
            tn.transfer_probability(graph, e, params.smoothing)
                .max(f64::MIN_POSITIVE)
                .ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, DriverPreference, TripGenParams};

    fn setup() -> (cp_roadnet::City, cp_traj::TripDataset, TransferNetwork) {
        let city = generate_city(&CityParams::small(), 23).unwrap();
        let ds = generate_trips(&city.graph, &TripGenParams::default(), 23).unwrap();
        let tn = TransferNetwork::build(&city.graph, &ds.trips, None);
        (city, ds, tn)
    }

    #[test]
    fn mpr_exists_between_any_pair() {
        let (city, _, tn) = setup();
        let g = &city.graph;
        for (a, b) in [(0u32, 59u32), (9, 50), (13, 37)] {
            let p =
                most_popular_route(g, &tn, NodeId(a), NodeId(b), &MprParams::default()).unwrap();
            assert_eq!(p.source(), NodeId(a));
            assert_eq!(p.destination(), NodeId(b));
            assert!(p.is_simple());
        }
    }

    #[test]
    fn mpr_maximises_log_popularity_among_alternatives() {
        let (city, _, tn) = setup();
        let g = &city.graph;
        let params = MprParams::default();
        let mpr = most_popular_route(g, &tn, NodeId(0), NodeId(59), &params).unwrap();
        let mpr_pop = log_popularity(g, &tn, &mpr, &params);
        // Compare against the shortest and fastest paths: MPR must be at
        // least as popular (its optimisation target).
        let alt1 = cp_roadnet::routing::dijkstra_path(
            g,
            NodeId(0),
            NodeId(59),
            cp_roadnet::routing::distance_cost(g),
        )
        .unwrap();
        let alt2 = cp_roadnet::routing::dijkstra_path(
            g,
            NodeId(0),
            NodeId(59),
            cp_roadnet::routing::time_cost(g),
        )
        .unwrap();
        assert!(mpr_pop >= log_popularity(g, &tn, &alt1, &params) - 1e-9);
        assert!(mpr_pop >= log_popularity(g, &tn, &alt2, &params) - 1e-9);
    }

    #[test]
    fn with_rich_data_mpr_tracks_consensus_edges() {
        // Where lots of commuters drive, the MPR between two hotspot-ish
        // nodes should reuse heavily-driven edges much more than a random
        // route would: check its average edge frequency beats the shortest
        // path's.
        let (city, _, tn) = setup();
        let g = &city.graph;
        let params = MprParams::default();
        let consensus = DriverPreference::consensus();
        let mut mpr_better = 0;
        let mut total = 0;
        for (a, b) in [(0u32, 59u32), (5, 54), (20, 39), (10, 49), (3, 56)] {
            let mpr = most_popular_route(g, &tn, NodeId(a), NodeId(b), &params).unwrap();
            let cons = consensus.preferred_route(g, NodeId(a), NodeId(b)).unwrap();
            let avg = |p: &Path| {
                p.edges().iter().map(|&e| tn.edge_frequency(e)).sum::<f64>() / p.len() as f64
            };
            total += 1;
            // MPR's support should be in the same league as the consensus
            // route's support (both follow the crowd).
            if avg(&mpr) >= 0.5 * avg(&cons) {
                mpr_better += 1;
            }
        }
        assert!(mpr_better >= total - 1, "{mpr_better}/{total}");
    }

    #[test]
    fn popularity_tree_matches_per_request_mpr() {
        let (city, ds, tn) = setup();
        let g = &city.graph;
        let from = NodeId(3);
        let params = MprParams::default();
        let mut tree = ResumableTree::new(g, from);
        for b in [59u32, 17, 44, 8, 0, 17] {
            let want = most_popular_route(g, &tn, from, NodeId(b), &params).ok();
            let got = popularity_path(g, &tn, &mut tree, NodeId(b), &params);
            assert!(got.is_some(), "to {b} is reachable");
            assert_eq!(got, want, "to {b}");
        }
        // The tree resumed destination by destination settles every node
        // at the distance a walk over a fresh network's array finds, bit
        // for bit.
        let fresh = TransferNetwork::build(g, &ds.trips, None);
        let mut whole = ResumableTree::new(g, from);
        for n in g.nodes() {
            popularity_path(g, &tn, &mut tree, n, &params);
            popularity_path(g, &fresh, &mut whole, n, &params);
        }
        let bits = |t: &ResumableTree| -> Vec<_> {
            g.nodes().map(|n| t.distance(n).map(f64::to_bits)).collect()
        };
        assert_eq!(bits(&tree), bits(&whole));
    }

    #[test]
    fn no_data_falls_back_to_plausible_route() {
        let (city, _, _) = setup();
        let g = &city.graph;
        let empty = TransferNetwork::build(g, &[], None);
        // With uniform smoothing the MPR degenerates to a min-hop-ish route,
        // but must still exist and be simple.
        let p =
            most_popular_route(g, &empty, NodeId(0), NodeId(59), &MprParams::default()).unwrap();
        assert!(p.is_simple());
    }

    #[test]
    fn log_popularity_is_nonpositive() {
        let (city, _, tn) = setup();
        let g = &city.graph;
        let params = MprParams::default();
        let p = most_popular_route(g, &tn, NodeId(0), NodeId(30), &params).unwrap();
        assert!(log_popularity(g, &tn, &p, &params) <= 0.0);
    }
}
