//! Transfer network built from historical trips.
//!
//! The transfer network (Chen et al., "Discovering popular routes from
//! trajectories", ICDE 2011 — the paper's MPR citation \[4\]) summarises a
//! trajectory dataset as per-edge traversal counts and per-node transfer
//! probabilities. Both MPR and MFP consume it; MFP additionally filters
//! trips by departure-time period (Luo et al., SIGMOD 2013).

use cp_roadnet::routing::ResumableTree;
use cp_roadnet::{EdgeId, NodeId, Path, RoadGraph};
use cp_traj::{TimeOfDay, Trip};
use std::sync::OnceLock;

/// A per-edge search-cost array derived from one network, built on first
/// use and keyed by the bits of the miner parameter it was computed
/// under.
#[derive(Debug, Clone, Default)]
pub(crate) struct CostMemo(OnceLock<(u64, Vec<f64>)>);

impl CostMemo {
    /// Resumes `tree` under `cost` until `to` settles and returns the
    /// path to it, reading the memoised array (filled with `cost` over
    /// every edge on first use) instead of calling `cost` per
    /// relaxation. One network is only ever searched under its world's
    /// one miner parameter, so a different `param` is a bug and panics.
    pub(crate) fn path_to(
        &self,
        graph: &RoadGraph,
        tree: &mut ResumableTree,
        to: NodeId,
        param: f64,
        cost: impl Fn(EdgeId) -> f64,
    ) -> Option<Path> {
        let (key, costs) = self.0.get_or_init(|| {
            let edges = graph.edge_count() as u32;
            (
                param.to_bits(),
                (0..edges).map(|e| cost(EdgeId(e))).collect(),
            )
        });
        assert_eq!(*key, param.to_bits(), "memo keyed by another parameter");
        tree.path_to(graph, to, |e: EdgeId| costs[e.index()])
    }
}

/// Per-edge traversal statistics of a trip set.
#[derive(Debug, Clone)]
pub struct TransferNetwork {
    /// Traversal count per edge (indexed by `EdgeId`).
    edge_count: Vec<f64>,
    /// Total outgoing traversals per node.
    node_out: Vec<f64>,
    /// Number of trips aggregated.
    trips: usize,
    /// MPR's `-ln P(e)` per edge, keyed by `MprParams::smoothing`.
    pub(crate) popularity_costs: CostMemo,
    /// MFP's frequency-discounted travel time per edge, keyed by
    /// `MfpParams::beta`.
    pub(crate) discounted_costs: CostMemo,
}

impl TransferNetwork {
    /// Builds the network from all `trips`. When `period` is given as
    /// `(center, half_width_seconds)`, only trips departing within the
    /// circular time window are counted — this is MFP's time-period
    /// restriction.
    pub fn build(
        graph: &RoadGraph,
        trips: &[Trip],
        period: Option<(TimeOfDay, f64)>,
    ) -> TransferNetwork {
        let mut edge_count = vec![0.0; graph.edge_count()];
        let mut node_out = vec![0.0; graph.node_count()];
        let mut used = 0usize;
        for trip in trips {
            if let Some((center, half_width)) = period {
                if trip.departure.circular_distance(center) > half_width {
                    continue;
                }
            }
            used += 1;
            for &e in trip.path.edges() {
                edge_count[e.index()] += 1.0;
                node_out[graph.edge(e).from.index()] += 1.0;
            }
        }
        TransferNetwork {
            edge_count,
            node_out,
            trips: used,
            popularity_costs: CostMemo::default(),
            discounted_costs: CostMemo::default(),
        }
    }

    /// Number of trips aggregated into this network.
    pub fn trip_count(&self) -> usize {
        self.trips
    }

    /// Raw traversal count of an edge.
    #[inline]
    pub fn edge_frequency(&self, e: EdgeId) -> f64 {
        self.edge_count[e.index()]
    }

    /// Total traversals leaving `n`.
    #[inline]
    pub fn node_out_frequency(&self, n: NodeId) -> f64 {
        self.node_out[n.index()]
    }

    /// Laplace-smoothed transfer probability of taking edge `e` when
    /// standing at its tail, given the historical data. `smoothing` is the
    /// pseudo-count added to every outgoing edge so unseen edges keep a
    /// small positive probability (routes must exist even through
    /// data-sparse areas — the paper's §I criticism of popularity-only
    /// systems).
    pub fn transfer_probability(&self, graph: &RoadGraph, e: EdgeId, smoothing: f64) -> f64 {
        let edge = graph.edge(e);
        let out_deg = graph.out_edges(edge.from).len() as f64;
        let num = self.edge_count[e.index()] + smoothing;
        let den = self.node_out[edge.from.index()] + smoothing * out_deg;
        if den <= 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Mean traversal count over edges with at least one traversal.
    /// Used as the half-saturation constant of frequency discounts.
    pub fn mean_positive_frequency(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for &c in &self.edge_count {
            if c > 0.0 {
                sum += c;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Fraction of edges never traversed — a data-sparsity diagnostic used
    /// by experiment E1.
    pub fn sparsity(&self) -> f64 {
        if self.edge_count.is_empty() {
            return 1.0;
        }
        let unseen = self.edge_count.iter().filter(|&&c| c == 0.0).count();
        unseen as f64 / self.edge_count.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::{generate_city, CityParams};
    use cp_traj::{generate_trips, TripGenParams};

    fn setup() -> (cp_roadnet::City, cp_traj::TripDataset) {
        let city = generate_city(&CityParams::small(), 17).unwrap();
        let ds = generate_trips(&city.graph, &TripGenParams::default(), 17).unwrap();
        (city, ds)
    }

    #[test]
    fn counts_match_trips() {
        let (city, ds) = setup();
        let tn = TransferNetwork::build(&city.graph, &ds.trips, None);
        assert_eq!(tn.trip_count(), ds.trips.len());
        let total_edge_traversals: f64 = city.graph.edge_ids().map(|e| tn.edge_frequency(e)).sum();
        let expect: usize = ds.trips.iter().map(|t| t.path.len()).sum();
        assert_eq!(total_edge_traversals as usize, expect);
    }

    #[test]
    fn node_out_is_sum_of_outgoing_edge_counts() {
        let (city, ds) = setup();
        let g = &city.graph;
        let tn = TransferNetwork::build(g, &ds.trips, None);
        for n in g.nodes() {
            let sum: f64 = g.out_edges(n).iter().map(|&e| tn.edge_frequency(e)).sum();
            assert!((sum - tn.node_out_frequency(n)).abs() < 1e-9);
        }
    }

    #[test]
    fn transfer_probabilities_sum_to_one_with_smoothing() {
        let (city, ds) = setup();
        let g = &city.graph;
        let tn = TransferNetwork::build(g, &ds.trips, None);
        for n in g.nodes().take(20) {
            if g.out_edges(n).is_empty() {
                continue;
            }
            let sum: f64 = g
                .out_edges(n)
                .iter()
                .map(|&e| tn.transfer_probability(g, e, 0.5))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "node {n:?} sums to {sum}");
        }
    }

    #[test]
    fn period_filter_reduces_counts() {
        let (city, ds) = setup();
        let g = &city.graph;
        let all = TransferNetwork::build(g, &ds.trips, None);
        let morning =
            TransferNetwork::build(g, &ds.trips, Some((TimeOfDay::from_hours(8.0), 3600.0)));
        assert!(morning.trip_count() < all.trip_count());
        assert!(morning.trip_count() > 0, "morning peak must contain trips");
        for e in g.edge_ids() {
            assert!(morning.edge_frequency(e) <= all.edge_frequency(e));
        }
    }

    #[test]
    fn sparsity_between_zero_and_one() {
        let (city, ds) = setup();
        let tn = TransferNetwork::build(&city.graph, &ds.trips, None);
        let s = tn.sparsity();
        assert!((0.0..=1.0).contains(&s));
        // With 2000 trips on a 60-node city, popular edges exist.
        assert!(s < 1.0);
    }

    #[test]
    fn empty_trips_are_fully_sparse() {
        let (city, _) = setup();
        let tn = TransferNetwork::build(&city.graph, &[], None);
        assert_eq!(tn.trip_count(), 0);
        assert_eq!(tn.sparsity(), 1.0);
        // Smoothed probabilities remain a valid distribution.
        let g = &city.graph;
        let n = cp_roadnet::NodeId(0);
        let sum: f64 = g
            .out_edges(n)
            .iter()
            .map(|&e| tn.transfer_probability(g, e, 1.0))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
