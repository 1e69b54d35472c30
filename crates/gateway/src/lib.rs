//! cp-gateway: a std-only HTTP/1.1 serving edge over the CrowdPlanner
//! [`Platform`](cp_service::Platform).
//!
//! The platform's [`submit`](cp_service::Platform::submit) API is an
//! in-process admission-controlled queue; this crate puts a network
//! front on it without pulling in an async runtime or an HTTP
//! dependency — everything is `std`: a blocking acceptor pool
//! ([`listener`]), a hand-rolled hardened HTTP/1.1 parser ([`http`]),
//! per-client token-bucket rate limiting ([`limits`]), and a
//! generation-versioned per-connection response cache ([`session`]).
//!
//! # Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /route?city=C&o=A&d=B&t=H` | Plan a route in city `C` from node `A` to node `B` departing at hour `H` |
//! | `GET /stats` | Gateway + platform counters (JSON) |
//! | `GET /trace` | Span-level trace report (JSON) |
//! | `GET /healthz` | Liveness probe |
//!
//! # Error mapping
//!
//! Platform admission control and serving errors surface as HTTP
//! status codes instead of leaking internals:
//!
//! | Condition | Status |
//! |---|---|
//! | ingress full for a truth miss ([`Busy`](cp_service::ServiceError::Busy)), crowd quota exhausted, rate-limited | `429` + `Retry-After` |
//! | unknown city / unknown path | `404` |
//! | ticket deadline expired | `504` |
//! | platform draining / connection queue full | `503` |
//! | malformed parameters, node not in the city ([`UnknownNode`](cp_service::ServiceError::UnknownNode)) | `400`; no resolvable candidates | `422` |
//!
//! A truth hit is served inside `submit` on the handler thread and is
//! never `Busy`: only misses queue, so only misses can get the ingress
//! `429`.
//!
//! # Lifecycle
//!
//! ```no_run
//! use cp_gateway::{Gateway, GatewayConfig};
//! use cp_roadnet::{generate_city, CityParams};
//! use cp_service::{Platform, PlatformConfig, ServiceConfig, World};
//! use cp_traj::{generate_trips, TripGenParams};
//! use std::sync::Arc;
//!
//! let city = generate_city(&CityParams::small(), 7).unwrap();
//! let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
//! let platform = Arc::new(Platform::start(PlatformConfig::default()));
//! platform.register_city(
//!     Arc::new(World::new(city.graph, trips.trips)),
//!     ServiceConfig::strict_deterministic(),
//! );
//! let gw = Gateway::start(Arc::clone(&platform), GatewayConfig::default()).unwrap();
//! println!("serving on http://{}", gw.local_addr());
//! // ... serve ...
//! gw.shutdown();                       // drain the edge first,
//! if let Ok(p) = Arc::try_unwrap(platform) { p.shutdown(); } // then the platform
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handlers;
pub mod http;
pub mod limits;
pub mod listener;
pub mod session;

pub use handlers::{route_json, AppState};
pub use http::{HttpError, HttpLimits, HttpRequest, Response};
pub use limits::{GatewayStats, GatewayStatsSnapshot, RateLimitConfig, RateLimiter};
pub use listener::{Gateway, GatewayConfig};
pub use session::{SessionCache, SessionKey};
