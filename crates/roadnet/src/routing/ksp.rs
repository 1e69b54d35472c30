//! Yen's k-shortest simple paths.
//!
//! CrowdPlanner's candidate-route sets come from several sources; when a
//! source must produce alternatives (e.g. a web service offering "route
//! options"), Yen's algorithm provides the k cheapest *simple* paths.

use crate::error::RoadNetError;
use crate::graph::{EdgeId, NodeId, RoadGraph};
use crate::path::Path;
use crate::routing::dijkstra::{CostFn, ResumableTree};
use std::collections::BinaryHeap;

/// Candidate path in Yen's B-heap, ordered by cost (min first).
struct Candidate {
    cost: f64,
    path: Path,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.path == other.path
    }
}
impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            // Tie-break on the node sequence for determinism.
            .then_with(|| other.path.nodes().cmp(self.path.nodes()))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra restricted to a node/edge mask. Returns the cheapest masked
/// path from `from` to `to`, if any. A masked edge costs infinity, which
/// never relaxes anything.
fn masked_dijkstra(
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    cost: &impl CostFn,
    banned_nodes: &[bool],
    banned_edges: &[bool],
) -> Option<(f64, Path)> {
    let mut tree = ResumableTree::new(graph, from);
    let path = tree.path_to(graph, to, |e: EdgeId| {
        let head = graph.edge(e).to;
        if banned_edges[e.index()] || (banned_nodes[head.index()] && head != to) {
            f64::INFINITY
        } else {
            cost(e)
        }
    })?;
    Some((tree.distance(to)?, path))
}

/// Computes up to `k` cheapest simple paths from `from` to `to`.
///
/// Returns fewer than `k` paths when the graph does not contain `k` simple
/// paths. Errors only when not even one path exists.
pub fn k_shortest_paths(
    graph: &RoadGraph,
    from: NodeId,
    to: NodeId,
    k: usize,
    cost: impl CostFn,
) -> Result<Vec<Path>, RoadNetError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut banned_nodes = vec![false; graph.node_count()];
    let mut banned_edges = vec![false; graph.edge_count()];
    let first = masked_dijkstra(graph, from, to, &cost, &banned_nodes, &banned_edges)
        .ok_or(RoadNetError::NoPath { from, to })?;
    let mut result: Vec<Path> = vec![first.1];
    let mut candidates: BinaryHeap<Candidate> = BinaryHeap::new();

    while result.len() < k {
        let prev = result.last().expect("result non-empty").clone();
        let prev_nodes = prev.nodes().to_vec();
        // Spur from every node of the previous path except the destination.
        for i in 0..prev_nodes.len() - 1 {
            let spur_node = prev_nodes[i];
            let root_nodes = &prev_nodes[..=i];

            // Ban edges that would replay any already-found path sharing
            // this root.
            banned_edges.iter_mut().for_each(|b| *b = false);
            for p in &result {
                if p.nodes().len() > i && p.nodes()[..=i] == *root_nodes {
                    banned_edges[p.edges()[i].index()] = true;
                }
            }
            // Ban root nodes (except the spur node) to keep paths simple.
            banned_nodes.iter_mut().for_each(|b| *b = false);
            for &rn in &root_nodes[..i] {
                banned_nodes[rn.index()] = true;
            }

            if let Some((_, spur_path)) =
                masked_dijkstra(graph, spur_node, to, &cost, &banned_nodes, &banned_edges)
            {
                // Total path = root (edges 0..i) + spur.
                let mut edges: Vec<EdgeId> = prev.edges()[..i].to_vec();
                edges.extend_from_slice(spur_path.edges());
                if let Some(total) = Path::from_edges(graph, edges) {
                    if total.is_simple() {
                        let c: f64 = total.edges().iter().map(|&e| cost(e)).sum();
                        let cand = Candidate {
                            cost: c,
                            path: total,
                        };
                        // Deduplicate against both results and pending
                        // candidates.
                        if !result.contains(&cand.path)
                            && !candidates.iter().any(|x| x.path == cand.path)
                        {
                            candidates.push(cand);
                        }
                    }
                }
            }
        }
        match candidates.pop() {
            Some(c) => result.push(c.path),
            None => break,
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_city, CityParams};
    use crate::geo::Point;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use crate::routing::distance_cost;

    fn grid3() -> RoadGraph {
        // 3x3 grid, two-way streets, 100 m spacing.
        let mut b = RoadGraphBuilder::new();
        let mut ids = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                ids.push(b.add_node(Point::new(c as f64 * 100.0, r as f64 * 100.0)));
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    b.add_two_way(ids[i], ids[i + 1], RoadClass::Local, false)
                        .unwrap();
                }
                if r + 1 < 3 {
                    b.add_two_way(ids[i], ids[i + 3], RoadClass::Local, false)
                        .unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn k1_equals_shortest() {
        let g = grid3();
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(8), 1, distance_cost(&g)).unwrap();
        assert_eq!(ps.len(), 1);
        assert!((ps[0].length(&g) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn paths_are_sorted_simple_and_distinct() {
        let g = grid3();
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(8), 6, distance_cost(&g)).unwrap();
        assert_eq!(ps.len(), 6, "3x3 grid has 6 monotone shortest paths");
        let mut prev = 0.0;
        for p in &ps {
            assert!(p.is_simple());
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.destination(), NodeId(8));
            let len = p.length(&g);
            assert!(len + 1e-9 >= prev, "paths must be sorted by cost");
            prev = len;
        }
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                assert_ne!(ps[i], ps[j]);
            }
        }
        // All 6 shortest are the monotone 400 m staircases.
        assert!(ps.iter().all(|p| (p.length(&g) - 400.0).abs() < 1e-9));
    }

    #[test]
    fn more_k_than_paths_returns_all() {
        // A line has exactly one simple path between its ends.
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(200.0, 0.0));
        b.add_two_way(a, c, RoadClass::Local, false).unwrap();
        b.add_two_way(c, d, RoadClass::Local, false).unwrap();
        let g = b.build();
        let ps = k_shortest_paths(&g, a, d, 5, distance_cost(&g)).unwrap();
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn k0_is_empty() {
        let g = grid3();
        assert!(
            k_shortest_paths(&g, NodeId(0), NodeId(8), 0, distance_cost(&g))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn no_path_errors() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_node(Point::new(200.0, 0.0));
        b.add_edge(a, c, RoadClass::Local, false, None).unwrap();
        let g = b.build();
        assert!(k_shortest_paths(&g, a, NodeId(2), 3, distance_cost(&g)).is_err());
    }

    #[test]
    fn works_on_generated_city() {
        let city = generate_city(&CityParams::small(), 3).unwrap();
        let g = &city.graph;
        let ps = k_shortest_paths(g, NodeId(0), NodeId(35), 4, distance_cost(g)).unwrap();
        assert!(!ps.is_empty());
        for w in ps.windows(2) {
            assert!(w[0].length(g) <= w[1].length(g) + 1e-9);
        }
    }
}
