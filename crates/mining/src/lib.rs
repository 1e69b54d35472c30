//! # cp-mining — popular-route mining and web-service simulation
//!
//! The candidate-route providers of CrowdPlanner's route-generation
//! component (paper §II-B1):
//!
//! * [`transfer`] — the trajectory-derived transfer network shared by the
//!   miners;
//! * [`mpr`] — Most Popular Route (Chen et al., ICDE 2011);
//! * [`mfp`] — time-period Most Frequent Path (Luo et al., SIGMOD 2013);
//! * [`ldr`] — Local-Driver Route (after Ceikute & Jensen, MDM 2013);
//! * [`webservice`] — simulated shortest/fastest map services;
//! * [`source`] — candidate routes, their sources, and the per-origin
//!   [`OriginArtifacts`] the serving path mines from;
//! * [`world`] — [`World`], one city's graph, trips and mining state: the
//!   only way to mine a candidate set.

#![warn(missing_docs)]

pub mod ldr;
pub mod mfp;
pub mod mpr;
pub mod source;
pub mod transfer;
pub mod webservice;
pub mod world;

pub use ldr::{local_driver_route, LdrParams, TripIndex};
pub use mfp::{best_bottleneck, most_frequent_path, most_frequent_path_on, MfpParams};
pub use mpr::{log_popularity, most_popular_route, MprParams};
pub use source::{distinct_candidates, CandidateRoute, OriginArtifacts, SourceKind};
pub use transfer::TransferNetwork;
pub use webservice::{FastestRouteService, ShortestRouteService};
pub use world::World;
