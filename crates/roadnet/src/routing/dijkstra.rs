//! Dijkstra shortest paths with a pluggable edge-cost function.
//!
//! The heap orders entries by the integer key `((cost + 0.0).to_bits(),
//! node)`. For non-negative, non-NaN costs the IEEE-754 bit pattern
//! sorts exactly like the value, so nodes settle in (cost, node id)
//! order without an `f64` comparison per heap step; the `+ 0.0` folds
//! `-0.0` (MPR's `-ln 1`) into `+0.0`, the one pair of equal costs
//! whose bit patterns differ. Negative or NaN costs are a caller bug.

use crate::error::RoadNetError;
use crate::graph::{EdgeId, NodeId, RoadGraph};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Any non-negative, non-NaN edge cost. Anything else is a caller bug;
/// negative costs are debug-asserted in the relaxation loop.
pub trait CostFn: Fn(EdgeId) -> f64 {}
impl<F: Fn(EdgeId) -> f64> CostFn for F {}

/// The heap key of a tentative distance: bit order equals numeric order
/// for non-negative costs once `-0.0` is folded into `+0.0`.
#[inline]
fn key(cost: f64) -> u64 {
    (cost + 0.0).to_bits()
}

/// Result of a single-source Dijkstra run.
pub struct DijkstraResult {
    /// `dist[n]` is the cost of the cheapest path from the source to `n`,
    /// or `f64::INFINITY` if unreachable.
    pub dist: Vec<f64>,
    /// `parent_edge[n]` is the edge by which the cheapest path enters `n`.
    pub parent_edge: Vec<Option<EdgeId>>,
}

impl DijkstraResult {
    /// Reconstructs the cheapest path to `target`, if reachable.
    pub fn path_to(&self, graph: &RoadGraph, target: NodeId) -> Option<Path> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut edges_rev = Vec::new();
        let mut cur = target;
        while let Some(e) = self.parent_edge[cur.index()] {
            edges_rev.push(e);
            cur = graph.edge(e).from;
        }
        if edges_rev.is_empty() {
            return None; // target == source: no edges
        }
        edges_rev.reverse();
        Path::from_edges(graph, edges_rev)
    }
}

/// Runs Dijkstra from `source` until `until` (if given) is settled or the
/// whole reachable component is settled. Nodes settle in deterministic
/// order (cost, then node id), so the single-target run is a settle-order
/// prefix of the exhaustive one and both reconstruct identical paths.
pub fn shortest_path_tree(
    graph: &RoadGraph,
    source: NodeId,
    until: Option<NodeId>,
    cost: impl CostFn,
) -> DijkstraResult {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[source.index()] = 0.0;
    heap.push(Reverse((key(0.0), source.0)));
    while let Some(Reverse((_, node))) = heap.pop() {
        let node = NodeId(node);
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if until == Some(node) {
            break;
        }
        // A node's first pop is its lowest push, whose cost `dist` holds.
        let d = dist[node.index()];
        for &e in graph.out_edges(node) {
            let edge = graph.edge(e);
            let w = cost(e);
            debug_assert!(w >= 0.0, "negative edge cost");
            let nd = d + w;
            if nd < dist[edge.to.index()] {
                dist[edge.to.index()] = nd;
                parent_edge[edge.to.index()] = Some(e);
                heap.push(Reverse((key(nd), edge.to.0)));
            }
        }
    }
    DijkstraResult { dist, parent_edge }
}

/// Cheapest path from `from` to `to` under `cost`.
pub fn dijkstra_path(
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    cost: impl CostFn,
) -> Result<Path, RoadNetError> {
    if from == to {
        return Err(RoadNetError::NoPath { from, to });
    }
    let tree = shortest_path_tree(graph, from, Some(to), cost);
    tree.path_to(graph, to)
        .ok_or(RoadNetError::NoPath { from, to })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Point;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use crate::routing::{distance_cost, time_cost};
    use crate::{generate_city, CityParams};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::cmp::Ordering;

    /// The pre-integer-key heap entry, ordered by an `f64` comparison.
    #[derive(PartialEq)]
    struct HeapEntry {
        cost: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse so BinaryHeap (a max-heap) pops the smallest cost;
            // ties broken by node id for determinism.
            other
                .cost
                .partial_cmp(&self.cost)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.0.cmp(&self.node.0))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The `BinaryHeap<HeapEntry>` expansion the integer-keyed kernel
    /// replaced, kept as the reference it must reproduce bit for bit.
    fn reference_tree(
        graph: &RoadGraph,
        source: NodeId,
        until: Option<NodeId>,
        cost: impl CostFn,
    ) -> DijkstraResult {
        let n = graph.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
        let mut settled = vec![false; n];
        let mut heap = BinaryHeap::new();
        dist[source.index()] = 0.0;
        heap.push(HeapEntry {
            cost: 0.0,
            node: source,
        });
        while let Some(HeapEntry { cost: d, node }) = heap.pop() {
            if settled[node.index()] {
                continue;
            }
            settled[node.index()] = true;
            if until == Some(node) {
                break;
            }
            for &e in graph.out_edges(node) {
                let edge = graph.edge(e);
                let nd = d + cost(e);
                if nd < dist[edge.to.index()] {
                    dist[edge.to.index()] = nd;
                    parent_edge[edge.to.index()] = Some(e);
                    heap.push(HeapEntry {
                        cost: nd,
                        node: edge.to,
                    });
                }
            }
        }
        DijkstraResult { dist, parent_edge }
    }

    /// Both kernels from a random source, exhaustive and with a random
    /// stop target, must agree on every `dist` bit and parent edge.
    fn assert_kernels_agree(g: &RoadGraph, rng: &mut SmallRng, cost: impl CostFn, what: &str) {
        let n = g.node_count() as u32;
        let source = NodeId(rng.random_range(0..n));
        for until in [None, Some(NodeId(rng.random_range(0..n)))] {
            let got = shortest_path_tree(g, source, until, &cost);
            let want = reference_tree(g, source, until, &cost);
            let bits = |r: &DijkstraResult| r.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{what}: dist from {source:?} until {until:?}"
            );
            assert_eq!(
                got.parent_edge, want.parent_edge,
                "{what}: parents from {source:?} until {until:?}"
            );
        }
    }

    #[test]
    fn integer_keyed_heap_matches_the_f64_heap_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_D1C5);
        let mut graphs = 0;
        // The three city presets at random seeds, under distance, time
        // and integer-valued (tie-heavy) costs.
        for i in 0..60 {
            let params = [
                CityParams::small(),
                CityParams::medium(),
                CityParams::large(),
            ][i % 3]
                .clone();
            let seed = rng.random_range(0..u64::MAX);
            let g = generate_city(&params, seed).unwrap().graph;
            let ties: Vec<f64> = g
                .edge_ids()
                .map(|_| rng.random_range(0..4u32) as f64)
                .collect();
            let what = format!("preset {i} seed {seed}");
            assert_kernels_agree(&g, &mut rng, distance_cost(&g), &what);
            assert_kernels_agree(&g, &mut rng, time_cost(&g), &what);
            assert_kernels_agree(&g, &mut rng, |e: EdgeId| ties[e.index()], &what);
            graphs += 1;
        }
        // Small synthetic multigraphs: parallel edges, unreachable nodes,
        // and costs drawn from zero, -0.0, small integers and fractions.
        for i in 0..150 {
            let mut b = RoadGraphBuilder::new();
            let n = rng.random_range(1..40u32);
            for _ in 0..n {
                b.add_node(Point::new(
                    rng.random_range(0.0..1e4),
                    rng.random_range(0.0..1e4),
                ));
            }
            let mut costs = Vec::new();
            if n > 1 {
                for _ in 0..rng.random_range(0..3 * n) {
                    let (from, to) = (rng.random_range(0..n), rng.random_range(0..n));
                    if from == to {
                        continue;
                    }
                    for _ in 0..rng.random_range(1..3u32) {
                        b.add_edge(NodeId(from), NodeId(to), RoadClass::Local, false, None)
                            .unwrap();
                        costs.push(match rng.random_range(0..4u32) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => rng.random_range(0..3u32) as f64,
                            _ => rng.random_range(0.0..5.0),
                        });
                    }
                }
            }
            let g = b.build();
            for _ in 0..4 {
                assert_kernels_agree(
                    &g,
                    &mut rng,
                    |e: EdgeId| costs[e.index()],
                    &format!("synthetic {i}"),
                );
            }
            graphs += 1;
        }
        assert!(graphs >= 200);
    }

    /// Diamond where the top branch is shorter but the bottom branch is
    /// faster (top is Local with lights, bottom is Highway).
    fn diamond() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let s = b.add_node(Point::new(0.0, 0.0));
        let top = b.add_node(Point::new(500.0, 100.0));
        let bot = b.add_node(Point::new(500.0, -800.0));
        let t = b.add_node(Point::new(1000.0, 0.0));
        b.add_edge(s, top, RoadClass::Local, true, None).unwrap();
        b.add_edge(top, t, RoadClass::Local, true, None).unwrap();
        b.add_edge(s, bot, RoadClass::Highway, false, None).unwrap();
        b.add_edge(bot, t, RoadClass::Highway, false, None).unwrap();
        b.build()
    }

    #[test]
    fn shortest_by_distance_takes_top() {
        let g = diamond();
        let p = dijkstra_path(&g, NodeId(0), NodeId(3), distance_cost(&g)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn fastest_by_time_takes_bottom() {
        let g = diamond();
        let p = dijkstra_path(&g, NodeId(0), NodeId(3), time_cost(&g)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn unreachable_returns_no_path() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(200.0, 0.0));
        b.add_edge(a, c, RoadClass::Local, false, None).unwrap();
        // d has no incoming edges.
        let g = b.build();
        assert!(matches!(
            dijkstra_path(&g, a, d, distance_cost(&g)),
            Err(RoadNetError::NoPath { .. })
        ));
    }

    #[test]
    fn source_equals_target_is_no_path() {
        let g = diamond();
        assert!(dijkstra_path(&g, NodeId(0), NodeId(0), distance_cost(&g)).is_err());
    }

    #[test]
    fn tree_distances_satisfy_triangle_inequality_on_edges() {
        let g = diamond();
        let tree = shortest_path_tree(&g, NodeId(0), None, distance_cost(&g));
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let du = tree.dist[edge.from.index()];
            let dv = tree.dist[edge.to.index()];
            if du.is_finite() {
                assert!(
                    dv <= du + edge.length + 1e-9,
                    "edge {e:?} violates relaxation"
                );
            }
        }
    }

    #[test]
    fn path_cost_matches_reported_distance() {
        let g = diamond();
        let tree = shortest_path_tree(&g, NodeId(0), None, distance_cost(&g));
        let p = tree.path_to(&g, NodeId(3)).unwrap();
        assert!((p.length(&g) - tree.dist[3]).abs() < 1e-9);
    }
}
