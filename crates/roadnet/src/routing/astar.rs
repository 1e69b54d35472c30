//! A* point-to-point search with a Euclidean admissible heuristic.
//!
//! The heuristic divides straight-line distance by the maximum network
//! speed, so it is admissible for both distance costs (`speed = 1`) and
//! time costs. The simulated web services route thousands of point-to-point
//! requests, where the goal-directed search visits a fraction of the nodes
//! Dijkstra would.
//!
//! The heap orders entries by the integer key `(key(f), node)` that the
//! Dijkstra kernel uses (see [`dijkstra`](super::dijkstra)), so it pops
//! in `(f, node id)` order without an `f64` comparison per heap step.
//! An entry carries no `g`: a node's `g` is read from `g_score` when it is
//! first popped, and that is the smallest `g` ever pushed for it, since a
//! push happens only on a strict improvement. The `f64`-ordered heap this
//! replaced carried `g` in the entry. It could pop a larger one only when
//! two pushes of one node rounded to the same `f = g + h`, because the
//! heap does not order equal elements. That is the one case the two can
//! differ in.

use super::dijkstra::key;
use crate::error::RoadNetError;
use crate::graph::{EdgeId, NodeId, RoadGraph};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cheapest path from `from` to `to` under `cost`, guided by a heuristic
/// `h(n) = euclid(n, to) / heuristic_speed`.
///
/// * For distance costs pass `heuristic_speed = 1.0`.
/// * For time costs pass the fastest speed in the network
///   (e.g. `RoadClass::Highway.speed_mps()`), which keeps `h` admissible.
pub fn astar_path(
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    cost: impl Fn(EdgeId) -> f64,
    heuristic_speed: f64,
) -> Result<Path, RoadNetError> {
    if from == to {
        return Err(RoadNetError::NoPath { from, to });
    }
    let n = graph.node_count();
    let goal = graph.position(to);
    let h = |node: NodeId| graph.position(node).distance(&goal) / heuristic_speed;

    let mut g_score = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<EdgeId>> = vec![None; n];
    let mut closed = vec![false; n];
    let mut heap = BinaryHeap::new();
    g_score[from.index()] = 0.0;
    heap.push(Reverse((key(h(from)), from.0)));
    while let Some(Reverse((_, node))) = heap.pop() {
        let node = NodeId(node);
        if closed[node.index()] {
            continue;
        }
        closed[node.index()] = true;
        if node == to {
            break;
        }
        let g = g_score[node.index()];
        for &e in graph.out_edges(node) {
            let edge = graph.edge(e);
            let w = cost(e);
            debug_assert!(w >= 0.0, "negative edge cost");
            let ng = g + w;
            if ng < g_score[edge.to.index()] {
                g_score[edge.to.index()] = ng;
                parent[edge.to.index()] = Some(e);
                heap.push(Reverse((key(ng + h(edge.to)), edge.to.0)));
            }
        }
    }
    if !g_score[to.index()].is_finite() {
        return Err(RoadNetError::NoPath { from, to });
    }
    let mut edges_rev = Vec::new();
    let mut cur = to;
    while let Some(e) = parent[cur.index()] {
        edges_rev.push(e);
        cur = graph.edge(e).from;
    }
    edges_rev.reverse();
    Path::from_edges(graph, edges_rev).ok_or(RoadNetError::NoPath { from, to })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_city, CityParams};
    use crate::geo::Point;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use crate::routing::{dijkstra_path, distance_cost, time_cost};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use std::cmp::Ordering;

    #[derive(PartialEq)]
    struct HeapEntry {
        f: f64,
        g: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .f
                .partial_cmp(&self.f)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.node.0.cmp(&self.node.0))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The `f64`-ordered A* the integer-keyed one replaced, kept as the
    /// reference it must reproduce.
    fn reference_astar(
        graph: &RoadGraph,
        from: NodeId,
        to: NodeId,
        cost: impl Fn(EdgeId) -> f64,
        heuristic_speed: f64,
    ) -> Result<Path, RoadNetError> {
        if from == to {
            return Err(RoadNetError::NoPath { from, to });
        }
        let n = graph.node_count();
        let goal = graph.position(to);
        let h = |node: NodeId| graph.position(node).distance(&goal) / heuristic_speed;
        let mut g_score = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<EdgeId>> = vec![None; n];
        let mut closed = vec![false; n];
        let mut heap = BinaryHeap::new();
        g_score[from.index()] = 0.0;
        heap.push(HeapEntry {
            f: h(from),
            g: 0.0,
            node: from,
        });
        while let Some(HeapEntry { g, node, .. }) = heap.pop() {
            if closed[node.index()] {
                continue;
            }
            closed[node.index()] = true;
            if node == to {
                break;
            }
            for &e in graph.out_edges(node) {
                let edge = graph.edge(e);
                let ng = g + cost(e);
                if ng < g_score[edge.to.index()] {
                    g_score[edge.to.index()] = ng;
                    parent[edge.to.index()] = Some(e);
                    heap.push(HeapEntry {
                        f: ng + h(edge.to),
                        g: ng,
                        node: edge.to,
                    });
                }
            }
        }
        if !g_score[to.index()].is_finite() {
            return Err(RoadNetError::NoPath { from, to });
        }
        let mut edges_rev = Vec::new();
        let mut cur = to;
        while let Some(e) = parent[cur.index()] {
            edges_rev.push(e);
            cur = graph.edge(e).from;
        }
        edges_rev.reverse();
        Path::from_edges(graph, edges_rev).ok_or(RoadNetError::NoPath { from, to })
    }

    /// Both searches on one OD, under the distance cost with speed 1 and
    /// the time cost with the highway speed (the two web services).
    fn assert_searches_agree(g: &RoadGraph, from: NodeId, to: NodeId, what: &str) {
        let vmax = RoadClass::Highway.speed_mps();
        assert_eq!(
            astar_path(g, from, to, distance_cost(g), 1.0),
            reference_astar(g, from, to, distance_cost(g), 1.0),
            "{what}: distance {from:?} -> {to:?}"
        );
        assert_eq!(
            astar_path(g, from, to, time_cost(g), vmax),
            reference_astar(g, from, to, time_cost(g), vmax),
            "{what}: time {from:?} -> {to:?}"
        );
    }

    #[test]
    fn astar_integer_key_matches_the_f64_heap_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(0xA57A_2B17);
        let classes = [
            RoadClass::Highway,
            RoadClass::Arterial,
            RoadClass::Collector,
            RoadClass::Local,
        ];
        let mut graphs = 0;
        // The three city presets at random seeds, every other one
        // unjittered: a lattice of equal blocks, where many routes tie
        // and the heap's order picks among them.
        for i in 0..60 {
            let mut params = [
                CityParams::small(),
                CityParams::medium(),
                CityParams::large(),
            ][i % 3]
                .clone();
            if i % 2 == 1 {
                params.jitter = 0.0;
            }
            let seed = rng.random_range(0..u64::MAX);
            let g = generate_city(&params, seed).unwrap().graph;
            let n = g.node_count() as u32;
            for _ in 0..8 {
                let from = NodeId(rng.random_range(0..n));
                assert_searches_agree(&g, from, NodeId(rng.random_range(0..n)), &format!("{i}"));
            }
            graphs += 1;
        }
        // Small synthetic multigraphs: parallel edges of differing
        // lengths and classes, nodes nothing reaches, `from == to`, and
        // every other graph on a coarse lattice, where `f` ties.
        for i in 0..150 {
            let mut b = RoadGraphBuilder::new();
            let n = rng.random_range(1..40u32);
            for _ in 0..n {
                let mut coord = || match i % 2 {
                    0 => rng.random_range(-5e3..1e4),
                    _ => f64::from(rng.random_range(-3..5i32)) * 100.0,
                };
                b.add_node(Point::new(coord(), coord()));
            }
            if n > 1 {
                for _ in 0..rng.random_range(0..3 * n) {
                    let (from, to) = (rng.random_range(0..n), rng.random_range(0..n));
                    if from == to {
                        continue;
                    }
                    let geo = b.position(NodeId(from)).distance(&b.position(NodeId(to)));
                    for _ in 0..rng.random_range(1..3u32) {
                        let class = classes[rng.random_range(0..classes.len())];
                        let length = match i % 2 {
                            0 => geo * rng.random_range(1.0..1.5),
                            _ => geo.ceil() + f64::from(rng.random_range(0..3u32)) * 100.0,
                        };
                        let light = rng.random_range(0..4u32) == 0;
                        b.add_edge(NodeId(from), NodeId(to), class, light, Some(length))
                            .unwrap();
                    }
                }
            }
            let g = b.build();
            for _ in 0..8 {
                let from = NodeId(rng.random_range(0..n));
                let to = match rng.random_range(0..4u32) {
                    0 => from,
                    _ => NodeId(rng.random_range(0..n)),
                };
                assert_searches_agree(&g, from, to, &format!("synthetic {i}"));
            }
            graphs += 1;
        }
        assert!(graphs >= 200);
        // The web services' workload: uniform ODs on the Large city.
        let g = generate_city(&CityParams::large(), 2024).unwrap().graph;
        let n = g.node_count() as u32;
        for _ in 0..2_000 {
            let (from, to) = (rng.random_range(0..n), rng.random_range(0..n));
            assert_searches_agree(&g, NodeId(from), NodeId(to), "large");
        }
    }

    #[test]
    fn astar_matches_dijkstra_on_distance() {
        let city = generate_city(&CityParams::small(), 42).unwrap();
        let g = &city.graph;
        let pairs = [(0u32, 55u32), (3, 40), (10, 33), (7, 59)];
        for (a, b) in pairs {
            let d = dijkstra_path(g, NodeId(a), NodeId(b), distance_cost(g)).unwrap();
            let s = astar_path(g, NodeId(a), NodeId(b), distance_cost(g), 1.0).unwrap();
            assert!(
                (d.length(g) - s.length(g)).abs() < 1e-6,
                "A* length differs from Dijkstra for {a}->{b}"
            );
        }
    }

    #[test]
    fn astar_matches_dijkstra_on_time() {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let g = &city.graph;
        let vmax = RoadClass::Highway.speed_mps();
        for (a, b) in [(1u32, 50u32), (12, 47), (20, 5)] {
            let d = dijkstra_path(g, NodeId(a), NodeId(b), time_cost(g)).unwrap();
            let s = astar_path(g, NodeId(a), NodeId(b), time_cost(g), vmax).unwrap();
            assert!(
                (d.travel_time(g) - s.travel_time(g)).abs() < 1e-6,
                "A* time differs from Dijkstra for {a}->{b}"
            );
        }
    }

    #[test]
    fn astar_same_node_errors() {
        let city = generate_city(&CityParams::small(), 1).unwrap();
        assert!(astar_path(
            &city.graph,
            NodeId(0),
            NodeId(0),
            distance_cost(&city.graph),
            1.0
        )
        .is_err());
    }
}
