//! Routing algorithms over the road graph.
//!
//! * [`dijkstra`] — generic single-source shortest path with a pluggable
//!   edge-cost function (distance, travel time, or any latent utility),
//!   including a [`ResumableTree`] that settles only as far as the
//!   targets asked for so far.
//! * [`astar`] — goal-directed search with a Euclidean admissible heuristic,
//!   used by the simulated web services where point-to-point queries
//!   dominate.
//! * [`ksp`] — Yen's k-shortest simple paths, used to build diverse
//!   candidate route sets.

pub mod astar;
pub mod dijkstra;
pub mod ksp;

pub use astar::astar_path;
pub use dijkstra::{dijkstra_path, shortest_path_tree, CostFn, DijkstraResult, ResumableTree};
pub use ksp::k_shortest_paths;

use crate::graph::{EdgeId, RoadGraph};

/// Edge cost = length in metres (shortest-distance routing).
pub fn distance_cost(graph: &RoadGraph) -> impl Fn(EdgeId) -> f64 + '_ {
    move |e| graph.edge(e).length
}

/// Edge cost = free-flow travel time in seconds (fastest routing), read
/// from the graph's precomputed [`RoadGraph::travel_times`].
pub fn time_cost(graph: &RoadGraph) -> impl Fn(EdgeId) -> f64 + '_ {
    let times = graph.travel_times();
    move |e| times[e.index()]
}
