//! Dijkstra shortest paths with a pluggable edge-cost function.
//!
//! The heap orders entries by the integer key `((cost + 0.0).to_bits(),
//! node)`. For non-negative, non-NaN costs the IEEE-754 bit pattern
//! sorts exactly like the value, so the heap pops in (cost, node id)
//! order without an `f64` comparison per heap step; the `+ 0.0` folds
//! `-0.0` (MPR's `-ln 1`) into `+0.0`, the one pair of equal costs
//! whose bit patterns differ. Negative or NaN costs are a caller bug.
//!
//! [`ResumableTree`] holds the one relaxation loop. It settles only as
//! far as the targets asked for so far and resumes for the next one;
//! [`shortest_path_tree`] and [`dijkstra_path`] are thin wrappers.

use crate::error::RoadNetError;
use crate::graph::{EdgeId, NodeId, RoadGraph};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Any non-negative, non-NaN edge cost; an infinite cost never relaxes,
/// so it bans the edge. Anything else is a caller bug; negative costs
/// are debug-asserted in the relaxation loop.
pub trait CostFn: Fn(EdgeId) -> f64 {}
impl<F: Fn(EdgeId) -> f64> CostFn for F {}

/// The heap key of a tentative distance: bit order equals numeric order
/// for non-negative costs once `-0.0` is folded into `+0.0`.
#[inline]
fn key(cost: f64) -> u64 {
    (cost + 0.0).to_bits()
}

/// `ResumableTree::parent` entry of a node no edge has reached.
const NO_EDGE: u32 = u32::MAX;

/// A single-source Dijkstra search that settles only as far as the
/// targets asked for so far.
///
/// [`path_to`](Self::path_to) settles nodes until its target is settled,
/// then pauses with that node's out-edges not yet relaxed, exactly where
/// `shortest_path_tree(.., Some(t), ..)` stops. The next call relaxes
/// them first and carries on. So any sequence of targets settles nodes
/// in the exhaustive run's order, and every settled node's distance and
/// parent edge equal the exhaustive tree's bit for bit.
///
/// The cost is supplied per call, not stored. Every call on one tree
/// must pass the same cost function: a tree resumed under another cost
/// answers for neither.
pub struct ResumableTree {
    /// Tentative distance from the source; final once the node settles.
    dist: Vec<f64>,
    /// Edge entering each node on its tentative path, or [`NO_EDGE`].
    parent: Vec<u32>,
    settled: Vec<bool>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// The last settled node, whose out-edges are not relaxed yet.
    paused: Option<NodeId>,
}

impl ResumableTree {
    /// A search from `source` that has settled nothing yet.
    pub fn new(graph: &RoadGraph, source: NodeId) -> Self {
        let n = graph.node_count();
        let mut tree = ResumableTree {
            dist: vec![f64::INFINITY; n],
            parent: vec![NO_EDGE; n],
            settled: vec![false; n],
            heap: BinaryHeap::new(),
            paused: None,
        };
        tree.dist[source.index()] = 0.0;
        tree.heap.push(Reverse((key(0.0), source.0)));
        tree
    }

    /// Settles nodes until `until` is settled, or with `None` until every
    /// node reachable from the source is. Returns at once when `until`
    /// is already settled.
    fn settle(&mut self, graph: &RoadGraph, until: Option<NodeId>, cost: impl CostFn) {
        if until.is_some_and(|t| self.settled[t.index()]) {
            return;
        }
        loop {
            if let Some(node) = self.paused.take() {
                let d = self.dist[node.index()];
                for &e in graph.out_edges(node) {
                    let to = graph.edge(e).to.index();
                    let w = cost(e);
                    debug_assert!(w >= 0.0, "negative edge cost");
                    let nd = d + w;
                    if nd < self.dist[to] {
                        self.dist[to] = nd;
                        self.parent[to] = e.0;
                        self.heap.push(Reverse((key(nd), to as u32)));
                    }
                }
            }
            // A node's first pop is its lowest push, whose cost `dist`
            // holds.
            let node = loop {
                match self.heap.pop() {
                    None => return,
                    Some(Reverse((_, n))) if !self.settled[n as usize] => break NodeId(n),
                    Some(_) => {}
                }
            };
            self.settled[node.index()] = true;
            self.paused = Some(node);
            if until == Some(node) {
                return;
            }
        }
    }

    /// The cheapest path to `target`, settling as far as that takes.
    /// `None` when `target` is unreachable or is the source.
    pub fn path_to(
        &mut self,
        graph: &RoadGraph,
        target: NodeId,
        cost: impl CostFn,
    ) -> Option<Path> {
        self.settle(graph, Some(target), cost);
        trace_back(graph, self.settled[target.index()], target, |n| {
            self.parent_edge(n)
        })
    }

    /// The cheapest-path cost to `node` if it is settled, else `None`.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        self.settled[node.index()].then(|| self.dist[node.index()])
    }

    fn parent_edge(&self, node: NodeId) -> Option<EdgeId> {
        Some(self.parent[node.index()])
            .filter(|&e| e != NO_EDGE)
            .map(EdgeId)
    }

    fn into_result(self) -> DijkstraResult {
        let parent_edge = (0..self.parent.len() as u32)
            .map(|n| self.parent_edge(NodeId(n)))
            .collect();
        DijkstraResult {
            dist: self.dist,
            parent_edge,
            settled: self.settled,
        }
    }
}

/// The edges from the source to a settled `target`, found by following
/// `parent` back; `None` for an unsettled target or the source itself.
fn trace_back(
    graph: &RoadGraph,
    settled: bool,
    target: NodeId,
    parent: impl Fn(NodeId) -> Option<EdgeId>,
) -> Option<Path> {
    if !settled {
        return None;
    }
    let mut edges_rev = Vec::new();
    let mut cur = target;
    while let Some(e) = parent(cur) {
        edges_rev.push(e);
        cur = graph.edge(e).from;
    }
    edges_rev.reverse();
    Path::from_edges(graph, edges_rev)
}

/// Result of a single-source Dijkstra run.
pub struct DijkstraResult {
    /// `dist[n]` is the cheapest-path cost from the source for every
    /// settled `n`. A node reached but not settled before an `until`
    /// stop holds only a tentative upper bound; `f64::INFINITY` means
    /// never reached.
    pub dist: Vec<f64>,
    /// `parent_edge[n]` is the edge by which the path `dist[n]` costs
    /// enters `n`.
    pub parent_edge: Vec<Option<EdgeId>>,
    settled: Vec<bool>,
}

impl DijkstraResult {
    /// Reconstructs the cheapest path to `target` if the run settled it.
    /// A tree stopped at `until` answers only the nodes it settled: a
    /// reached-but-unsettled node's tentative path need not be cheapest.
    pub fn path_to(&self, graph: &RoadGraph, target: NodeId) -> Option<Path> {
        trace_back(graph, self.settled[target.index()], target, |n| {
            self.parent_edge[n.index()]
        })
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
    let mut tree = ResumableTree::new(graph, source);
    tree.settle(graph, until, cost);
    tree.into_result()
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
    ResumableTree::new(graph, from)
        .path_to(graph, to, cost)
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
        DijkstraResult {
            dist,
            parent_edge,
            settled,
        }
    }

    fn bits(r: &DijkstraResult) -> Vec<u64> {
        r.dist.iter().map(|d| d.to_bits()).collect()
    }

    /// Both kernels from a random source, exhaustive and with a random
    /// stop target, must agree on every `dist` bit and parent edge.
    fn assert_kernels_agree(g: &RoadGraph, rng: &mut SmallRng, cost: impl CostFn, what: &str) {
        let n = g.node_count() as u32;
        let source = NodeId(rng.random_range(0..n));
        for until in [None, Some(NodeId(rng.random_range(0..n)))] {
            let got = shortest_path_tree(g, source, until, &cost);
            let want = reference_tree(g, source, until, &cost);
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

    /// A resumed tree, asked a random sequence of destinations (repeats,
    /// the source itself, unreachable nodes), answers every one like the
    /// exhaustive tree. Its settled nodes carry the exhaustive tree's
    /// `dist` bits and parents, and its whole state equals one run
    /// stopped at the deepest destination asked.
    fn assert_resuming_matches_exhaustive(
        g: &RoadGraph,
        rng: &mut SmallRng,
        cost: impl CostFn,
        what: &str,
    ) {
        let n = g.node_count() as u32;
        let source = NodeId(rng.random_range(0..n));
        let full = shortest_path_tree(g, source, None, &cost);
        let unreachable: Vec<u32> = (0..n)
            .filter(|&v| full.dist[v as usize].is_infinite())
            .collect();
        let mut tree = ResumableTree::new(g, source);
        let mut asked: Vec<NodeId> = Vec::new();
        for _ in 0..rng.random_range(1..8usize) {
            let t = match rng.random_range(0..5u32) {
                0 => source,
                1 if !asked.is_empty() => asked[rng.random_range(0..asked.len())],
                2 if !unreachable.is_empty() => {
                    NodeId(unreachable[rng.random_range(0..unreachable.len())])
                }
                _ => NodeId(rng.random_range(0..n)),
            };
            asked.push(t);
            assert_eq!(
                tree.path_to(g, t, &cost),
                full.path_to(g, t),
                "{what}: from {source:?} to {t:?} after {asked:?}"
            );
            assert_eq!(
                tree.distance(t).map(f64::to_bits),
                full.dist[t.index()]
                    .is_finite()
                    .then(|| full.dist[t.index()].to_bits()),
                "{what}: distance to {t:?}"
            );
        }
        for v in g.nodes() {
            if let Some(d) = tree.distance(v) {
                assert_eq!(d.to_bits(), full.dist[v.index()].to_bits(), "{what}: {v:?}");
                assert_eq!(
                    tree.parent_edge(v),
                    full.parent_edge[v.index()],
                    "{what}: {v:?}"
                );
            }
        }
        // An unreachable destination exhausts the search; otherwise it
        // paused at the destination whose one-shot run settles the most
        // nodes. (Zero-cost edges can settle a lower node id later at an
        // equal cost, so settle order is not simply (cost, node id).)
        let deepest = if asked.iter().any(|t| full.dist[t.index()].is_infinite()) {
            None
        } else {
            asked.iter().copied().max_by_key(|&t| {
                let once = shortest_path_tree(g, source, Some(t), &cost);
                once.settled.iter().filter(|&&s| s).count()
            })
        };
        let once = shortest_path_tree(g, source, deepest, &cost);
        let resumed = tree.into_result();
        assert_eq!(
            bits(&resumed),
            bits(&once),
            "{what}: dist until {deepest:?}"
        );
        assert_eq!(resumed.parent_edge, once.parent_edge, "{what}: parents");
        assert_eq!(resumed.settled, once.settled, "{what}: settled set");
    }

    /// The three city presets at random seeds, under distance, time and
    /// integer-valued (tie-heavy) costs, then small synthetic multigraphs
    /// (parallel edges, unreachable nodes, costs drawn from zero, -0.0,
    /// small integers and fractions), each handed to `check`.
    fn for_random_graphs(
        seed: u64,
        mut check: impl FnMut(&RoadGraph, &mut SmallRng, &dyn Fn(EdgeId) -> f64, &str),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graphs = 0;
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
            check(&g, &mut rng, &distance_cost(&g), &what);
            check(&g, &mut rng, &time_cost(&g), &what);
            check(&g, &mut rng, &|e: EdgeId| ties[e.index()], &what);
            graphs += 1;
        }
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
                check(
                    &g,
                    &mut rng,
                    &|e: EdgeId| costs[e.index()],
                    &format!("synthetic {i}"),
                );
            }
            graphs += 1;
        }
        assert!(graphs >= 200);
    }

    #[test]
    fn resuming_over_any_destination_order_matches_the_exhaustive_tree() {
        for_random_graphs(0x5EED_2E5E, |g, rng, cost, what| {
            assert_resuming_matches_exhaustive(g, rng, cost, what)
        });
    }

    /// s→a costs 1, s→t 5, a→t 1. Stopped at `a`, the tree has reached
    /// `t` only through the dear direct edge; it must not answer `t`
    /// with it.
    #[test]
    fn a_stopped_tree_answers_only_the_nodes_it_settled() {
        let mut b = RoadGraphBuilder::new();
        let s = b.add_node(Point::new(0.0, 0.0));
        let a = b.add_node(Point::new(1.0, 0.0));
        let t = b.add_node(Point::new(2.0, 0.0));
        for (from, to) in [(s, a), (s, t), (a, t)] {
            b.add_edge(from, to, RoadClass::Local, false, None).unwrap();
        }
        let g = b.build();
        let costs = [1.0, 5.0, 1.0];
        let cost = |e: EdgeId| costs[e.index()];
        let full = shortest_path_tree(&g, s, None, cost);
        let cheapest = full.path_to(&g, t).unwrap();
        assert_eq!(cheapest.nodes(), &[s, a, t]);
        let stopped = shortest_path_tree(&g, s, Some(a), cost);
        assert_eq!(stopped.path_to(&g, a), full.path_to(&g, a));
        assert_eq!(stopped.path_to(&g, t), None, "t was reached, not settled");
        // Resuming past the stop answers `t` with the cheapest path.
        let mut tree = ResumableTree::new(&g, s);
        assert_eq!(tree.path_to(&g, a, cost), full.path_to(&g, a));
        assert_eq!(tree.distance(t), None);
        assert_eq!(tree.path_to(&g, t, cost), Some(cheapest));
        assert_eq!(tree.distance(t), Some(2.0));
    }

    #[test]
    fn integer_keyed_heap_matches_the_f64_heap_bit_for_bit() {
        for_random_graphs(0x5EED_D1C5, |g, rng, cost, what| {
            assert_kernels_agree(g, rng, cost, what)
        });
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
