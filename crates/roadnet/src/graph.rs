//! Road-network graph.
//!
//! The graph is a directed multigraph stored in a compact adjacency-list
//! layout: nodes are road intersections, edges are directed road segments
//! with a length, a road class (which implies a free-flow speed) and an
//! optional traffic light at the segment's head. All identifiers are `u32`
//! newtypes so the hot routing loops index dense `Vec`s instead of hashing.

use crate::error::RoadNetError;
use crate::geo::{BoundingBox, Point};

/// Identifier of a road intersection (graph node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a directed road segment (graph edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Functional class of a road segment. The class determines the free-flow
/// speed used by the fastest-path web service and by the driver utility
/// model in `cp-traj`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Limited-access highway / motorway.
    Highway,
    /// Major arterial street.
    Arterial,
    /// Collector street.
    Collector,
    /// Local / residential street.
    Local,
}

impl RoadClass {
    /// Free-flow speed in metres per second.
    pub fn speed_mps(self) -> f64 {
        match self {
            RoadClass::Highway => 27.8,   // ~100 km/h
            RoadClass::Arterial => 16.7,  // ~60 km/h
            RoadClass::Collector => 13.9, // ~50 km/h
            RoadClass::Local => 8.3,      // ~30 km/h
        }
    }

    /// All classes, ordered from fastest to slowest.
    pub const ALL: [RoadClass; 4] = [
        RoadClass::Highway,
        RoadClass::Arterial,
        RoadClass::Collector,
        RoadClass::Local,
    ];
}

/// A directed road segment.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Tail intersection.
    pub from: NodeId,
    /// Head intersection.
    pub to: NodeId,
    /// Segment length in metres.
    pub length: f64,
    /// Functional road class.
    pub class: RoadClass,
    /// Whether a traffic light guards the head of this segment.
    pub traffic_light: bool,
}

impl Edge {
    /// Free-flow traversal time in seconds, including an expected traffic
    /// light delay of half the light cycle (30 s cycle → 15 s expected wait,
    /// halved again because lights are green half the time → 15 s worst-case
    /// expected ≈ 15 s; we use 15 s which matches common micro-simulation
    /// defaults).
    pub fn travel_time(&self) -> f64 {
        let base = self.length / self.class.speed_mps();
        if self.traffic_light {
            base + 15.0
        } else {
            base
        }
    }
}

/// A directed road-network graph.
///
/// Construction happens through [`RoadGraphBuilder`]; once built the graph
/// is immutable, which lets routing and mining share it freely across
/// threads (`&RoadGraph` is `Send + Sync`).
#[derive(Debug, Clone)]
pub struct RoadGraph {
    positions: Vec<Point>,
    edges: Vec<Edge>,
    /// `travel_times[e]` is `edges[e].travel_time()`, computed once so
    /// time-based searches read a flat array instead of re-deriving it.
    travel_times: Vec<f64>,
    /// `out_index[n]..out_index[n+1]` indexes `out_edges` for node `n`.
    out_index: Vec<u32>,
    out_edges: Vec<EdgeId>,
    in_index: Vec<u32>,
    in_edges: Vec<EdgeId>,
    bbox: BoundingBox,
}

impl RoadGraph {
    /// Number of intersections.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed segments.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Planar position of a node.
    #[inline]
    pub fn position(&self, n: NodeId) -> Point {
        self.positions[n.index()]
    }

    /// The edge record for `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Free-flow travel time of every edge, indexed by [`EdgeId`]: entry
    /// `e` is bit-identical to `self.edge(e).travel_time()`.
    #[inline]
    pub fn travel_times(&self) -> &[f64] {
        &self.travel_times
    }

    /// Outgoing edges of `n`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        let lo = self.out_index[n.index()] as usize;
        let hi = self.out_index[n.index() + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// Incoming edges of `n`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        let lo = self.in_index[n.index()] as usize;
        let hi = self.in_index[n.index() + 1] as usize;
        &self.in_edges[lo..hi]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Bounding box of all intersections.
    pub fn bounding_box(&self) -> BoundingBox {
        self.bbox
    }

    /// Finds the directed edge from `a` to `b`, if one exists. When parallel
    /// edges exist the shortest is returned (routing never wants a longer
    /// parallel segment).
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.out_edges(a)
            .iter()
            .copied()
            .filter(|&e| self.edge(e).to == b)
            .min_by(|&x, &y| {
                self.edge(x)
                    .length
                    .partial_cmp(&self.edge(y).length)
                    .expect("edge lengths are finite")
            })
    }

    /// Nearest intersection to `p` by Euclidean distance. Linear scan —
    /// adequate for request mapping; landmark lookups use the grid index in
    /// [`crate::landmark`] instead.
    pub fn nearest_node(&self, p: &Point) -> NodeId {
        let mut best = NodeId(0);
        let mut best_d = f64::INFINITY;
        for (i, pos) in self.positions.iter().enumerate() {
            let d = pos.distance_sq(p);
            if d < best_d {
                best_d = d;
                best = NodeId(i as u32);
            }
        }
        best
    }

    /// Validates that node indices referenced by edges are in range.
    /// Builder output always passes; exposed for deserialized graphs.
    pub fn validate(&self) -> Result<(), RoadNetError> {
        let n = self.node_count() as u32;
        for (i, e) in self.edges.iter().enumerate() {
            if e.from.0 >= n || e.to.0 >= n {
                return Err(RoadNetError::InvalidEdge {
                    edge: EdgeId(i as u32),
                });
            }
            if !(e.length.is_finite() && e.length > 0.0) {
                return Err(RoadNetError::InvalidEdge {
                    edge: EdgeId(i as u32),
                });
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`RoadGraph`].
#[derive(Debug, Default)]
pub struct RoadGraphBuilder {
    positions: Vec<Point>,
    edges: Vec<Edge>,
}

impl RoadGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection at `p` and returns its id.
    pub fn add_node(&mut self, p: Point) -> NodeId {
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(p);
        id
    }

    /// Adds a directed segment. The length is the Euclidean distance between
    /// the endpoints unless `length` overrides it (e.g. a curved road).
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: RoadClass,
        traffic_light: bool,
        length: Option<f64>,
    ) -> Result<EdgeId, RoadNetError> {
        let n = self.positions.len() as u32;
        if from.0 >= n || to.0 >= n {
            return Err(RoadNetError::UnknownNode);
        }
        if from == to {
            return Err(RoadNetError::SelfLoop { node: from });
        }
        let geo_len = self.positions[from.index()].distance(&self.positions[to.index()]);
        let length = length.unwrap_or(geo_len).max(1.0);
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            from,
            to,
            length,
            class,
            traffic_light,
        });
        Ok(id)
    }

    /// Adds a bidirectional pair of segments and returns `(forward, back)`.
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: RoadClass,
        traffic_light: bool,
    ) -> Result<(EdgeId, EdgeId), RoadNetError> {
        let f = self.add_edge(a, b, class, traffic_light, None)?;
        let r = self.add_edge(b, a, class, traffic_light, None)?;
        Ok((f, r))
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of a node added earlier.
    pub fn position(&self, n: NodeId) -> Point {
        self.positions[n.index()]
    }

    /// Finalises the adjacency structure.
    pub fn build(self) -> RoadGraph {
        let n = self.positions.len();
        let mut out_deg = vec![0u32; n + 1];
        let mut in_deg = vec![0u32; n + 1];
        for e in &self.edges {
            out_deg[e.from.index() + 1] += 1;
            in_deg[e.to.index() + 1] += 1;
        }
        for i in 1..=n {
            out_deg[i] += out_deg[i - 1];
            in_deg[i] += in_deg[i - 1];
        }
        let mut out_edges = vec![EdgeId(0); self.edges.len()];
        let mut in_edges = vec![EdgeId(0); self.edges.len()];
        let mut out_cursor = out_deg.clone();
        let mut in_cursor = in_deg.clone();
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            out_edges[out_cursor[e.from.index()] as usize] = id;
            out_cursor[e.from.index()] += 1;
            in_edges[in_cursor[e.to.index()] as usize] = id;
            in_cursor[e.to.index()] += 1;
        }
        let mut bbox = BoundingBox::empty();
        for p in &self.positions {
            bbox.expand(*p);
        }
        RoadGraph {
            positions: self.positions,
            travel_times: self.edges.iter().map(Edge::travel_time).collect(),
            edges: self.edges,
            out_index: out_deg,
            out_edges,
            in_index: in_deg,
            in_edges,
            bbox,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> RoadGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = RoadGraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 100.0));
        let n2 = b.add_node(Point::new(100.0, -100.0));
        let n3 = b.add_node(Point::new(200.0, 0.0));
        b.add_edge(n0, n1, RoadClass::Arterial, false, None)
            .unwrap();
        b.add_edge(n1, n3, RoadClass::Arterial, false, None)
            .unwrap();
        b.add_edge(n0, n2, RoadClass::Local, true, None).unwrap();
        b.add_edge(n2, n3, RoadClass::Local, true, None).unwrap();
        b.build()
    }

    #[test]
    fn builder_produces_consistent_adjacency() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_edges(NodeId(0)).len(), 2);
        assert_eq!(g.in_edges(NodeId(3)).len(), 2);
        assert_eq!(g.out_edges(NodeId(3)).len(), 0);
        for e in g.out_edges(NodeId(0)) {
            assert_eq!(g.edge(*e).from, NodeId(0));
        }
        for e in g.in_edges(NodeId(3)) {
            assert_eq!(g.edge(*e).to, NodeId(3));
        }
        g.validate().unwrap();
    }

    #[test]
    fn edge_lengths_default_to_euclidean() {
        let g = diamond();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let expect = Point::new(0.0, 0.0).distance(&Point::new(100.0, 100.0));
        assert!((g.edge(e).length - expect).abs() < 1e-9);
    }

    #[test]
    fn travel_time_includes_light_delay() {
        let g = diamond();
        let lit = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let unlit = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let lit_e = g.edge(lit);
        let unlit_e = g.edge(unlit);
        assert!(
            (lit_e.travel_time() - (lit_e.length / RoadClass::Local.speed_mps() + 15.0)).abs()
                < 1e-9
        );
        assert!(
            (unlit_e.travel_time() - unlit_e.length / RoadClass::Arterial.speed_mps()).abs() < 1e-9
        );
    }

    #[test]
    fn travel_time_array_matches_edges_bit_for_bit() {
        let g = diamond();
        for e in g.edge_ids() {
            assert_eq!(
                g.travel_times()[e.index()].to_bits(),
                g.edge(e).travel_time().to_bits()
            );
        }
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = RoadGraphBuilder::new();
        let n = b.add_node(Point::new(0.0, 0.0));
        assert!(matches!(
            b.add_edge(n, n, RoadClass::Local, false, None),
            Err(RoadNetError::SelfLoop { .. })
        ));
    }

    #[test]
    fn unknown_nodes_rejected() {
        let mut b = RoadGraphBuilder::new();
        let n = b.add_node(Point::new(0.0, 0.0));
        assert!(matches!(
            b.add_edge(n, NodeId(42), RoadClass::Local, false, None),
            Err(RoadNetError::UnknownNode)
        ));
    }

    #[test]
    fn nearest_node_finds_closest() {
        let g = diamond();
        assert_eq!(g.nearest_node(&Point::new(5.0, 5.0)), NodeId(0));
        assert_eq!(g.nearest_node(&Point::new(199.0, 1.0)), NodeId(3));
    }

    #[test]
    fn find_edge_prefers_shortest_parallel() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_edge(a, c, RoadClass::Local, false, Some(500.0))
            .unwrap();
        let short = b
            .add_edge(a, c, RoadClass::Local, false, Some(100.0))
            .unwrap();
        let g = b.build();
        assert_eq!(g.find_edge(a, c), Some(short));
    }

    #[test]
    fn two_way_adds_both_directions() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(50.0, 0.0));
        b.add_two_way(a, c, RoadClass::Collector, false).unwrap();
        let g = b.build();
        assert!(g.find_edge(a, c).is_some());
        assert!(g.find_edge(c, a).is_some());
    }

    #[test]
    fn speeds_monotone_in_class() {
        let speeds: Vec<f64> = RoadClass::ALL.iter().map(|c| c.speed_mps()).collect();
        for w in speeds.windows(2) {
            assert!(w[0] > w[1]);
        }
    }
}
