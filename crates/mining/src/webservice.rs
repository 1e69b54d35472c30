//! Simulated web map services.
//!
//! The paper sources candidate routes from "web services such as Google
//! Map" and compares against them. The only property the system depends on
//! is that a service returns a distance- or time-optimal route as a black
//! box, so the simulation is exactly that: A*-computed shortest-distance
//! and fastest-time providers (see the root README's *Substitutions*
//! table).

use cp_roadnet::routing::{astar_path, time_cost};
use cp_roadnet::{NodeId, Path, RoadClass, RoadGraph, RoadNetError};

/// A web service returning the shortest-distance route (à la a
/// distance-optimising navigation provider).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestRouteService;

impl ShortestRouteService {
    /// Routes the request.
    pub fn route(&self, graph: &RoadGraph, from: NodeId, to: NodeId) -> Result<Path, RoadNetError> {
        astar_path(graph, from, to, |e| graph.edge(e).length, 1.0)
    }
}

/// A web service returning the fastest free-flow route (à la a
/// time-optimising navigation provider).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastestRouteService;

impl FastestRouteService {
    /// Routes the request.
    pub fn route(&self, graph: &RoadGraph, from: NodeId, to: NodeId) -> Result<Path, RoadNetError> {
        astar_path(
            graph,
            from,
            to,
            time_cost(graph),
            RoadClass::Highway.speed_mps(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_roadnet::routing::{dijkstra_path, distance_cost, time_cost};
    use cp_roadnet::{generate_city, CityParams};

    #[test]
    fn shortest_service_is_distance_optimal() {
        let city = generate_city(&CityParams::small(), 37).unwrap();
        let g = &city.graph;
        let svc = ShortestRouteService;
        for (a, b) in [(0u32, 59u32), (11, 48)] {
            let p = svc.route(g, NodeId(a), NodeId(b)).unwrap();
            let opt = dijkstra_path(g, NodeId(a), NodeId(b), distance_cost(g)).unwrap();
            assert!((p.length(g) - opt.length(g)).abs() < 1e-6);
        }
    }

    #[test]
    fn fastest_service_is_time_optimal() {
        let city = generate_city(&CityParams::small(), 37).unwrap();
        let g = &city.graph;
        let svc = FastestRouteService;
        for (a, b) in [(0u32, 59u32), (7, 52)] {
            let p = svc.route(g, NodeId(a), NodeId(b)).unwrap();
            let opt = dijkstra_path(g, NodeId(a), NodeId(b), time_cost(g)).unwrap();
            assert!((p.travel_time(g) - opt.travel_time(g)).abs() < 1e-6);
        }
    }

    #[test]
    fn services_disagree_somewhere() {
        let city = generate_city(&CityParams::medium(), 37).unwrap();
        let g = &city.graph;
        let sh = ShortestRouteService;
        let fa = FastestRouteService;
        let mut diff = 0;
        for a in (0..400u32).step_by(97) {
            for b in (0..400u32).step_by(89) {
                if a == b {
                    continue;
                }
                if sh.route(g, NodeId(a), NodeId(b)).unwrap()
                    != fa.route(g, NodeId(a), NodeId(b)).unwrap()
                {
                    diff += 1;
                }
            }
        }
        assert!(diff > 0, "shortest and fastest never differed");
    }
}
