//! # cp-service — the multi-city, concurrent recommendation-serving layer
//!
//! The paper's pipeline (`cp-core`) resolves one request at a time in
//! one city against private state. A deployed CrowdPlanner faces an
//! *open* stream of requests from many cities at once, heavily skewed
//! (commute corridors, rush hours). This crate is the serving stack
//! that exploits that skew, bottom to top:
//!
//! * [`World`] — one city's **owned** mining world (cp-mining's,
//!   re-exported: road graph, trips and pre-built mining state; no
//!   lifetimes), registered on a platform under a [`CityId`];
//! * [`ShardedTruthStore`] — the shared verified-truth database, split
//!   into per-shard `RwLock`-protected grid indexes keyed by origin /
//!   destination cells and time buckets; **bounded**: per-shard entry
//!   caps evict oldest-first and [`ShardedTruthStore::evict_older_than`]
//!   ages out stale truths;
//! * [`RouteService`] — the per-city executor and its one serving
//!   ladder, [`RouteService::serve_coalesced`]: a *run* of requests
//!   (typically sharing an origin cell; a run of one is the lone case)
//!   walks *in-run dedup → truth hit → mining → resolution* through one
//!   leader per distinct OD (each leader's truth lookup is the in-run
//!   hit path; the truth store is the one per-OD memo, so every leader
//!   that misses it mines) and one artifact-backed mining pass;
//! * [`Platform`] — the front door: **truth hits served on the
//!   submitting thread** ([`Platform::submit`] probes the city's truth
//!   store and returns a completed [`Ticket`] on a hit), a resident
//!   worker pool over all registered cities for the misses,
//!   **per-city bounded ingress queues** with weighted
//!   deficit-round-robin dispatch and admission control (a miss is
//!   rejected with [`ServiceError::Busy`] when its queue is full),
//!   **deduplication at admission** (a miss whose `(OD, time-bucket)`
//!   key is already queued or running attaches to that request and
//!   shares its outcome — one resolution, crucial when resolution
//!   spends crowd budget), all behind one ingress lock,
//!   joinable/pollable [`Ticket`]s,
//!   opportunistic **origin-cell request coalescing**
//!   ([`PlatformConfig::batch`] / [`BatchConfig`]: a worker dequeues
//!   its job together with every already-queued `(city, origin
//!   cell)`-mate — spanning time buckets — and never waits for more),
//!   per-city plus exact aggregate statistics, and graceful draining
//!   [`Platform::shutdown`];
//! * [`MiningArtifactCache`] — the **cross-batch mining-reuse layer**:
//!   a bounded, generation-versioned per-city LRU of per-origin
//!   resumable searches ([`cp_mining::OriginArtifacts`]) plus period transfer
//!   networks, letting a batch skip mining work a recent batch — in any
//!   time bucket — already did (`artifact_hits` in [`StatsSnapshot`]);
//! * [`Lru`] — the bounded cache behind the artifact cache's origin
//!   cells and period networks;
//! * [`Resolver`] — pluggable miss handling: deterministic machine-only
//!   ([`MachineResolver`], owned and `'static` — the platform default)
//!   or the full crowd pipeline ([`CrowdResolver`] — also owned and
//!   `'static`: one planner per platform worker, all sharing the city's
//!   quota-capped crowd desk; register with
//!   [`Platform::register_city_crowd`] and [`CrowdServing`]);
//! * [`ServiceStats`] — lock-free counters with truth and artifact hit
//!   rates, dedup and eviction counts and a latency histogram that merges
//!   exactly across cities;
//! * [`SpanRecorder`] / [`TraceConfig`] — span-level request tracing:
//!   every request's sojourn attributed to pipeline [`Stage`]s (queue
//!   wait, truth lookup, artifact fetch, mining, machine/crowd resolve, commit) with
//!   per-stage histograms in [`StatsSnapshot`], lock-wait counters
//!   ([`LockStats`]) on the contended primitives, and a bounded ring of
//!   complete sampled traces exportable via [`Platform::trace_report`]
//!   — off by default with near-zero disabled cost, and byte-identical
//!   serving at every level;
//! * [`ChaosConfig`] / [`FaultPlan`] — the built-in **chaos engine**:
//!   seeded, reproducible fault injection at every serving seam (crowd
//!   no-shows and slow answers, slow/stalled workers, resolver panics,
//!   durability write errors, generation churn), counted per site in
//!   [`ChaosSnapshot`]; off by default and allocation-free when off.
//!   Degradation machinery rides along: a per-city **crowd circuit
//!   breaker** ([`BreakerConfig`] — trips to machine-only serving and
//!   heals through half-open probes), bounded retry-with-backoff on the
//!   durability writer, and runtime **city offboarding**
//!   ([`Platform::deregister_city`] — drains in-flight work exactly
//!   once, sheds the queue with a terminal error, reclaims cache
//!   memory);
//! * [`json`] — the small object/array writer behind the cold-path
//!   exports ([`TraceReport::to_json`], the gateway's `/stats` and
//!   `/healthz`).
//!
//! No external dependencies: everything is built on `std::thread`,
//! `std::sync::mpsc` channels, `RwLock`/`Mutex`/`Condvar` and atomics.
//!
//! ## Example
//!
//! ```
//! use cp_roadnet::{generate_city, CityParams, NodeId};
//! use cp_service::{Platform, PlatformConfig, Request, ServiceConfig, World};
//! use cp_traj::{generate_trips, TimeOfDay, TripGenParams};
//! use std::sync::Arc;
//!
//! // Two owned city worlds on one platform.
//! let platform = Platform::start(PlatformConfig::default());
//! let mut ids = Vec::new();
//! for seed in [7, 11] {
//!     let city = generate_city(&CityParams::small(), seed).unwrap();
//!     let trips = generate_trips(&city.graph, &TripGenParams::default(), seed).unwrap();
//!     ids.push(platform.register_city(
//!         Arc::new(World::new(city.graph, trips.trips)),
//!         ServiceConfig::default(),
//!     ));
//! }
//!
//! // Open submission: non-blocking tickets, joined out of order.
//! let tickets: Vec<_> = ids
//!     .iter()
//!     .flat_map(|&id| {
//!         (1..10).map(move |i| {
//!             Request::to_city(id, NodeId(i), NodeId(59 - i % 7), TimeOfDay::from_hours(8.0))
//!         })
//!     })
//!     .map(|req| platform.submit(req).unwrap())
//!     .collect();
//! for ticket in tickets {
//!     assert!(ticket.wait().is_ok());
//! }
//!
//! let snap = platform.stats();
//! assert!(snap.is_consistent() && snap.aggregate.is_consistent());
//! assert_eq!(snap.aggregate.requests, 18);
//! platform.shutdown();
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod cache;
pub mod chaos;
pub mod durable;
pub mod error;
pub mod executor;
mod ingress;
pub mod json;
pub mod platform;
pub mod resolver;
pub mod stats;
pub mod store;
pub mod trace;
pub mod world;

pub use artifacts::MiningArtifactCache;
pub use cache::Lru;
pub use chaos::{
    BreakerConfig, BreakerSnapshot, BreakerState, ChaosConfig, ChaosSnapshot, FaultPlan, FaultSite,
};
pub use cp_durable::{DurableError, FsyncPolicy};
pub use durable::{DurabilityConfig, DurabilitySnapshot};
pub use error::ServiceError;
pub use executor::{Request, RequestKey, RouteService, Served, ServedRoute, ServiceConfig};
pub use platform::{
    BatchConfig, CityQueueSnapshot, CrowdServing, MaintenanceConfig, MaintenanceReport, Platform,
    PlatformConfig, PlatformSnapshot, RecoveryReport, Ticket,
};
pub use resolver::{CrowdCost, CrowdResolver, MachineResolver, OracleFactory, Resolved, Resolver};
pub use stats::{LatencySummary, ServiceStats, StatsSnapshot};
pub use store::ShardedTruthStore;
pub use trace::{
    CallTrace, CityTrace, LockSite, LockStats, LockSummary, RequestTrace, SpanGuard, SpanRecorder,
    Stage, StageSummary, TraceConfig, TraceReport,
};
pub use world::{CityId, World};
