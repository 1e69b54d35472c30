//! Request dispatch: the endpoint surface and its error mapping.
//!
//! | endpoint | behaviour |
//! |---|---|
//! | `GET /route?city=C&o=FROM&d=TO&t=HOURS` | submit → deadline-bounded ticket wait → route JSON |
//! | `GET /stats` | gateway + platform + aggregate service statistics as JSON |
//! | `GET /trace` | [`Platform::trace_report`] JSON (empty unless cities trace) |
//! | `GET /healthz` | liveness probe (`{"ok": true, ...}` + per-city breaker states) |
//!
//! Error mapping (see the crate README for the full table): platform
//! admission [`ServiceError::Busy`] and crowd starvation → **429** with
//! `Retry-After`; unknown city or path → **404**, as is a city
//! deregistered at runtime ([`ServiceError::CityOffboarded`] — the
//! resource is gone, retrying will not help); route-deadline expiry
//! → **504** (the ticket is abandoned, the work still completes and
//! warms the truth store); malformed parameters, and node ids the city's
//! graph does not have ([`ServiceError::UnknownNode`]) → **400**; no candidate
//! route → **422**; resolver panics and other upstream failures →
//! **500**; platform shutdown or edge drain → **503**.
//!
//! The `/route` JSON is rendered by [`route_json`], a pure function of
//! the request and the platform's [`ServedRoute`] — the wire
//! equivalence tests compare gateway bodies byte-for-byte against this
//! function applied to in-process `Platform::submit` results.

use crate::http::{escape_json, HttpRequest, Response};
use crate::limits::{GatewayStats, RateLimiter};
use crate::session::{SessionCache, SessionKey};
use cp_service::{
    json, CityId, CityQueueSnapshot, Platform, PlatformSnapshot, Request, Served, ServedRoute,
    ServiceError, StatsSnapshot,
};
use cp_traj::TimeOfDay;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

/// Everything the dispatch path needs, shared by all handler threads.
pub struct AppState {
    /// The serving platform behind this edge.
    pub platform: Arc<Platform>,
    /// Edge counters.
    pub stats: GatewayStats,
    /// Per-client token buckets (`None` = unlimited).
    pub limiter: Option<RateLimiter>,
}

/// How long `/route` waits on its ticket before answering 504.
const ROUTE_DEADLINE: Duration = Duration::from_secs(2);

/// Dispatches one parsed request to its endpoint. `session` is the
/// connection's private response cache; `peer` keys the rate limiter.
pub fn handle(
    state: &AppState,
    session: &mut SessionCache,
    req: &HttpRequest,
    peer: IpAddr,
) -> Response {
    state.stats.inc(&state.stats.requests);
    if req.method != "GET" {
        state.stats.inc(&state.stats.method_not_allowed);
        return Response::error(405, "method_not_allowed", "this edge only serves GET");
    }
    match req.path.as_str() {
        "/route" => route(state, session, req, peer),
        "/stats" => stats(state),
        "/trace" => {
            state.stats.inc(&state.stats.ok);
            Response::json(200, state.platform.trace_report().to_json())
        }
        "/healthz" => {
            state.stats.inc(&state.stats.ok);
            Response::json(200, healthz_json(&state.platform))
        }
        other => {
            state.stats.inc(&state.stats.not_found);
            Response::error(404, "not_found", &format!("no endpoint at {other}"))
        }
    }
}

/// `GET /route`: admission (rate limit), parameter parsing,
/// session-cache lookup, submit, deadline-bounded wait.
fn route(
    state: &AppState,
    session: &mut SessionCache,
    req: &HttpRequest,
    peer: IpAddr,
) -> Response {
    if let Some(limiter) = &state.limiter {
        if !limiter.allow(peer) {
            state.stats.inc(&state.stats.rate_limited);
            return Response::error(429, "rate_limited", "per-client rate exceeded").retry_after(1);
        }
    }
    let (city, from, to, hours) = match parse_route_params(req) {
        Ok(params) => params,
        Err(detail) => {
            state.stats.inc(&state.stats.bad_params);
            return Response::error(400, "bad_params", detail);
        }
    };
    let departure = TimeOfDay::from_hours(hours);
    // The city's current mining-state generation versions the session
    // cache; an unknown city 404s before any submit.
    let Some(service) = state.platform.city_service(CityId(city)) else {
        state.stats.inc(&state.stats.not_found);
        return Response::error(
            404,
            "unknown_city",
            &format!("no city registered under {city}"),
        );
    };
    let generation = service.world().generation();
    let key = SessionKey {
        city,
        from,
        to,
        t_bits: departure.0.to_bits(),
    };
    if let Some(body) = session.get(key, generation) {
        state.stats.inc(&state.stats.ok);
        state.stats.inc(&state.stats.session_hits);
        return Response::json(200, body.to_string());
    }
    let request = Request::to_city(
        CityId(city),
        cp_roadnet::NodeId(from),
        cp_roadnet::NodeId(to),
        departure,
    );
    let ticket = match state.platform.submit(request) {
        Ok(ticket) => ticket,
        Err(e) => return upstream_error(state, &e),
    };
    match ticket.wait_timeout(ROUTE_DEADLINE) {
        Ok(Ok(served)) => {
            let body = route_json(&request, &served, service.world().graph());
            session.put(key, generation, body.clone());
            state.stats.inc(&state.stats.ok);
            Response::json(200, body)
        }
        Ok(Err(e)) => upstream_error(state, &e),
        Err(_abandoned) => {
            // Deadline expired. Dropping the ticket abandons the result,
            // never the work: the request still resolves and feeds the
            // truth store, so a retry after Retry-After is cheap.
            state.stats.inc(&state.stats.timeouts);
            Response::error(504, "deadline", "route did not resolve within the deadline")
                .retry_after(1)
        }
    }
}

/// Maps a platform/service error onto the wire, counting it.
fn upstream_error(state: &AppState, e: &ServiceError) -> Response {
    match e {
        ServiceError::Busy => {
            state.stats.inc(&state.stats.upstream_busy);
            Response::error(429, "busy", "platform ingress queue full").retry_after(1)
        }
        ServiceError::CrowdStarved { .. } => {
            state.stats.inc(&state.stats.upstream_busy);
            Response::error(429, "crowd_starved", "crowd quota exhausted; back off").retry_after(2)
        }
        ServiceError::UnknownCity(city) => {
            state.stats.inc(&state.stats.not_found);
            Response::error(
                404,
                "unknown_city",
                &format!("no city registered under {city}"),
            )
        }
        ServiceError::UnknownNode { .. } => {
            state.stats.inc(&state.stats.bad_params);
            Response::error(400, "bad_params", &e.to_string())
        }
        ServiceError::CityOffboarded(city) => {
            // The city existed but was deregistered: the resource is
            // gone for good, so (unlike 429/503) no Retry-After.
            state.stats.inc(&state.stats.not_found);
            Response::error(
                404,
                "city_offboarded",
                &format!("{city} was deregistered and no longer serves"),
            )
        }
        ServiceError::ShuttingDown => {
            state.stats.inc(&state.stats.unavailable);
            Response::error(503, "shutting_down", "platform is draining").closing()
        }
        ServiceError::NoCandidates => {
            state.stats.inc(&state.stats.no_route);
            Response::error(422, "no_route", "no candidate route connects the OD pair")
        }
        ServiceError::ResolverPanicked | ServiceError::Core(_) => {
            state.stats.inc(&state.stats.server_errors);
            Response::error(500, "upstream", &escape_json(&e.to_string()))
        }
    }
}

/// Parses and validates `/route`'s query parameters.
fn parse_route_params(req: &HttpRequest) -> Result<(u32, u32, u32, f64), &'static str> {
    let city: u32 = req
        .query_param("city")
        .ok_or("missing `city`")?
        .parse()
        .map_err(|_| "`city` must be a non-negative integer")?;
    let from: u32 = req
        .query_param("o")
        .ok_or("missing `o` (origin node)")?
        .parse()
        .map_err(|_| "`o` must be a non-negative integer")?;
    let to: u32 = req
        .query_param("d")
        .ok_or("missing `d` (destination node)")?
        .parse()
        .map_err(|_| "`d` must be a non-negative integer")?;
    let hours: f64 = req
        .query_param("t")
        .ok_or("missing `t` (departure, hours)")?
        .parse()
        .map_err(|_| "`t` must be a number of hours")?;
    if !hours.is_finite() {
        return Err("`t` must be finite");
    }
    Ok((city, from, to, hours))
}

/// Renders one served route as JSON — deterministically: float fields
/// use Rust's shortest-round-trip formatting, so two serves of the same
/// `ServedRoute` always produce identical bytes (the property the wire
/// equivalence tests pin).
pub fn route_json(req: &Request, served: &ServedRoute, graph: &cp_roadnet::RoadGraph) -> String {
    let (served_kind, resolution) = match served.served {
        Served::TruthHit => ("truth_hit", "null".to_string()),
        Served::Deduplicated => ("dedup", "null".to_string()),
        Served::Resolved(r) => ("resolved", format!("\"{}\"", resolution_name(r))),
    };
    let nodes: Vec<String> = served
        .path
        .nodes()
        .iter()
        .map(|n| n.0.to_string())
        .collect();
    format!(
        concat!(
            "{{\"city\": {}, \"from\": {}, \"to\": {}, \"departure_s\": {:?}, ",
            "\"served\": \"{}\", \"resolution\": {}, \"confidence\": {:?}, ",
            "\"travel_time_s\": {:?}, \"length_m\": {:?}, \"nodes\": [{}]}}"
        ),
        req.city.0,
        req.from.0,
        req.to.0,
        req.departure.0,
        served_kind,
        resolution,
        served.confidence,
        served.path.travel_time(graph),
        served.path.length(graph),
        nodes.join(", "),
    )
}

fn resolution_name(r: cp_core::Resolution) -> &'static str {
    match r {
        cp_core::Resolution::ReusedTruth => "reused_truth",
        cp_core::Resolution::Agreement => "agreement",
        cp_core::Resolution::Confident => "confident",
        cp_core::Resolution::Crowd => "crowd",
        cp_core::Resolution::Fallback => "fallback",
    }
}

/// `GET /stats`: the gateway's own counters, the platform's admission
/// and dispatch accounting, and the aggregate per-city service
/// statistics, one JSON document.
fn stats(state: &AppState) -> Response {
    let gw = state.stats.snapshot();
    let snap = state.platform.stats();
    let body = format!(
        "{{\n  \"gateway\": {},\n  \"platform\": {},\n  \"aggregate\": {}\n}}",
        gw.to_json(),
        platform_json(&snap),
        aggregate_json(&snap.aggregate),
    );
    state.stats.inc(&state.stats.ok);
    Response::json(200, body)
}

/// The platform's admission/dispatch counters as JSON.
fn platform_json(snap: &PlatformSnapshot) -> String {
    let durability = json::or_null(snap.durability.as_ref(), |d| d.to_json().finish());
    let chaos = json::or_null(snap.chaos.as_ref(), |c| {
        c.to_json()
            .field("total_injected", c.total_injected())
            .finish()
    });
    json::object()
        .field("submitted", snap.submitted)
        .field("admitted", snap.admitted)
        .field("served_inline", snap.served_inline)
        .field("deduped", snap.deduped)
        .field("rejected_busy", snap.rejected_busy)
        .field("rejected_unknown_city", snap.rejected_unknown_city)
        .field("rejected_unknown_node", snap.rejected_unknown_node)
        .field("rejected_shutdown", snap.rejected_shutdown)
        .field("rejected_offboarded", snap.rejected_offboarded)
        .field("shed", snap.shed)
        .field("completed", snap.completed)
        .field("cities", snap.cities)
        .field("queue_depth", snap.queue_depth)
        .field("batched_requests", snap.batched_requests)
        .field("unbatched_requests", snap.unbatched_requests)
        .field("batch_runs", snap.batch_runs)
        .field("batch_max", snap.batch_max)
        .field("maintenance_sweeps", snap.maintenance_sweeps)
        .field("per_city", per_city_json(&snap.per_city))
        .field("durability", durability)
        .field("chaos", chaos)
        .finish()
}

/// Each city's slice of the ingress — queue depth, DRR weight,
/// admission (truth hits served at submit included), dispatch and shed
/// counts — as a JSON array indexed by city.
fn per_city_json(per_city: &[CityQueueSnapshot]) -> String {
    json::array(per_city.iter().map(|c| {
        let breaker = json::or_null(c.breaker.as_ref(), |b| {
            json::object()
                .string("state", b.state.name())
                .field("trips", b.trips)
                .field("probes", b.probes)
                .field("recoveries", b.recoveries)
                .field("machine_serves", b.machine_serves)
                .field("window_failures", b.window_failures)
                .field("window_samples", b.window_samples)
                .finish()
        });
        json::object()
            .field("city", c.city.index())
            .field("weight", c.weight)
            .field("queue_depth", c.queue_depth)
            .field("admitted", c.admitted)
            .field("served_inline", c.served_inline)
            .field("deduped", c.deduped)
            .field("rejected_busy", c.rejected_busy)
            .field("batched_requests", c.batched_requests)
            .field("unbatched_requests", c.unbatched_requests)
            .field("offboarded", c.offboarded)
            .field("shed", c.shed)
            .field("breaker", breaker)
            .finish()
    }))
}

/// `GET /healthz`: always `ok` while the edge answers (liveness), plus
/// the degradation picture — each crowd city's circuit-breaker state
/// and a rolled-up `degraded` flag (true when any breaker is not
/// closed, i.e. some city is serving machine-only or probing).
fn healthz_json(platform: &Platform) -> String {
    let snap = platform.stats();
    let mut degraded = false;
    let breakers: Vec<String> = snap
        .per_city
        .iter()
        .filter_map(|c| {
            let b = c.breaker.as_ref()?;
            if b.state != cp_service::BreakerState::Closed {
                degraded = true;
            }
            Some(
                json::object()
                    .field("city", c.city.index())
                    .string("state", b.state.name())
                    .finish(),
            )
        })
        .collect();
    json::object()
        .field("ok", true)
        .field("degraded", degraded)
        .field("breakers", json::array(breakers))
        .finish()
}

/// The aggregate service statistics as JSON (counter subset + derived
/// rates + sojourn percentiles).
fn aggregate_json(agg: &StatsSnapshot) -> String {
    let latency = json::object()
        .field("p50", agg.latency.p50.as_micros())
        .field("p95", agg.latency.p95.as_micros())
        .field("p99", agg.latency.p99.as_micros())
        .field("max", agg.latency.max.as_micros());
    json::object()
        .field("requests", agg.requests)
        .field("truth_hits", agg.truth_hits)
        .field("dedup_hits", agg.dedup_hits)
        .field("resolved", agg.resolved)
        .field("errors", agg.errors)
        .field(
            "truth_hit_rate",
            format_args!("{:.4}", agg.truth_hit_rate()),
        )
        .field(
            "artifact_hit_rate",
            format_args!("{:.4}", agg.artifact_hit_rate()),
        )
        .field("fused_minings", agg.fused_minings)
        .field("crowd_questions", agg.crowd_questions)
        .field("crowd_starved", agg.crowd_starved)
        .field("latency_us", latency.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpLimits;
    use cp_roadnet::{generate_city, CityParams};
    use cp_service::{PlatformConfig, ServiceConfig, World};
    use cp_traj::{generate_trips, TripGenParams};
    use std::net::Ipv4Addr;

    fn test_state() -> (AppState, CityId) {
        let city = generate_city(&CityParams::small(), 7).unwrap();
        let trips = generate_trips(&city.graph, &TripGenParams::default(), 7).unwrap();
        let platform = Arc::new(Platform::start(PlatformConfig::default()));
        let id = platform.register_city(
            Arc::new(World::new(city.graph, trips.trips)),
            ServiceConfig::strict_deterministic(),
        );
        (
            AppState {
                platform,
                stats: GatewayStats::new(),
                limiter: None,
            },
            id,
        )
    }

    fn get(target: &str) -> HttpRequest {
        let wire = format!("GET {target} HTTP/1.1\r\n\r\n");
        let mut reader = std::io::Cursor::new(wire.into_bytes());
        let mut buf = Vec::new();
        crate::http::read_request(&mut reader, &mut buf, &HttpLimits::default()).unwrap()
    }

    fn peer() -> IpAddr {
        IpAddr::V4(Ipv4Addr::LOCALHOST)
    }

    #[test]
    fn route_serves_json_and_session_cache_repeats_it() {
        let (state, id) = test_state();
        let mut session = SessionCache::new(8);
        let req = get(&format!("/route?city={}&o=0&d=59&t=8.0", id.0));
        let first = handle(&state, &mut session, &req, peer());
        assert_eq!(first.status, 200);
        assert!(first.body.contains("\"from\": 0"));
        assert!(first.body.contains("\"nodes\": ["));
        let second = handle(&state, &mut session, &req, peer());
        assert_eq!(second.status, 200);
        assert_eq!(second.body, first.body, "session hit repeats the bytes");
        let snap = state.stats.snapshot();
        assert_eq!(snap.session_hits, 1);
        assert!(snap.is_consistent());
    }

    #[test]
    fn generation_bump_invalidates_the_session_cache() {
        let (state, id) = test_state();
        let mut session = SessionCache::new(8);
        let req = get(&format!("/route?city={}&o=1&d=40&t=8.0", id.0));
        assert_eq!(handle(&state, &mut session, &req, peer()).status, 200);
        let service = state.platform.city_service(id).unwrap();
        service.world().bump_generation();
        assert_eq!(handle(&state, &mut session, &req, peer()).status, 200);
        assert_eq!(
            state.stats.snapshot().session_hits,
            0,
            "a bumped generation must bypass the session cache"
        );
    }

    #[test]
    fn error_mapping_covers_the_table() {
        let (state, id) = test_state();
        let mut session = SessionCache::new(0);
        // Unknown path → 404.
        assert_eq!(
            handle(&state, &mut session, &get("/nope"), peer()).status,
            404
        );
        // Unknown city → 404.
        assert_eq!(
            handle(
                &state,
                &mut session,
                &get("/route?city=99&o=0&d=1&t=8"),
                peer()
            )
            .status,
            404
        );
        // Missing / malformed params → 400.
        for bad in [
            "/route?city=0&o=0&d=1",
            "/route?o=0&d=1&t=8",
            "/route?city=0&o=zero&d=1&t=8",
            "/route?city=0&o=0&d=1&t=inf",
        ] {
            assert_eq!(
                handle(&state, &mut session, &get(bad), peer()).status,
                400,
                "{bad}"
            );
        }
        // Non-GET → 405.
        let wire = b"POST /route HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec();
        let mut reader = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        let post =
            crate::http::read_request(&mut reader, &mut buf, &HttpLimits::default()).unwrap();
        assert_eq!(handle(&state, &mut session, &post, peer()).status, 405);
        // A served route still works after all that.
        assert_eq!(
            handle(
                &state,
                &mut session,
                &get(&format!("/route?city={}&o=0&d=59&t=8.0", id.0)),
                peer()
            )
            .status,
            200
        );
        let snap = state.stats.snapshot();
        assert!(snap.is_consistent(), "{snap:?}");
    }

    #[test]
    fn rate_limiting_answers_429_with_retry_after() {
        let (mut state, id) = test_state();
        state.limiter = Some(RateLimiter::new(crate::limits::RateLimitConfig {
            per_client_rps: 0.001,
            burst: 2.0,
        }));
        let mut session = SessionCache::new(0);
        let req = get(&format!("/route?city={}&o=0&d=59&t=8.0", id.0));
        assert_eq!(handle(&state, &mut session, &req, peer()).status, 200);
        assert_eq!(handle(&state, &mut session, &req, peer()).status, 200);
        let limited = handle(&state, &mut session, &req, peer());
        assert_eq!(limited.status, 429);
        assert_eq!(limited.retry_after, Some(1));
        assert_eq!(state.stats.snapshot().rate_limited, 1);
    }

    #[test]
    fn stats_and_trace_endpoints_serve_json() {
        let (state, id) = test_state();
        let mut session = SessionCache::new(0);
        let _ = handle(
            &state,
            &mut session,
            &get(&format!("/route?city={}&o=0&d=59&t=8.0", id.0)),
            peer(),
        );
        let stats = handle(&state, &mut session, &get("/stats"), peer());
        assert_eq!(stats.status, 200);
        assert!(stats.body.contains("\"gateway\""));
        assert!(stats.body.contains("\"platform\""));
        assert!(stats.body.contains("\"aggregate\""));
        let trace = handle(&state, &mut session, &get("/trace"), peer());
        assert_eq!(trace.status, 200);
        assert!(trace.body.contains("\"cities\""));
        assert_eq!(
            handle(&state, &mut session, &get("/healthz"), peer()).status,
            200
        );
    }
}
