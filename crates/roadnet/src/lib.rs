//! # cp-roadnet — road-network substrate for CrowdPlanner
//!
//! This crate provides everything the CrowdPlanner reproduction needs from
//! a digital map:
//!
//! * planar [`geo`]metry primitives;
//! * a compact directed road [`graph`] with road classes and traffic lights;
//! * a deterministic synthetic-city [`generator`] (the substitute for the
//!   real city the paper evaluated on — see the root README's
//!   *Substitutions* table);
//! * [`routing`] algorithms: Dijkstra, A*, and Yen's k-shortest paths;
//! * [`path`] metrics (length, time, lights, turns) and route-agreement
//!   similarity;
//! * [`landmark`]s with a uniform-grid spatial index.
//!
//! Everything is deterministic given a `u64` seed and free of global state.

#![warn(missing_docs)]

pub mod error;
pub mod generator;
pub mod geo;
pub mod graph;
pub mod landmark;
pub mod path;
pub mod routing;

pub use error::RoadNetError;
pub use generator::{generate_city, City, CityParams};
pub use geo::{BoundingBox, Point};
pub use graph::{Edge, EdgeId, NodeId, RoadClass, RoadGraph, RoadGraphBuilder};
pub use landmark::{
    generate_landmarks, Landmark, LandmarkCategory, LandmarkGenParams, LandmarkId, LandmarkSet,
};
pub use path::{edge_jaccard, Path};
