//! Edge admission: per-client token buckets and the gateway's own
//! statistics.
//!
//! The platform already sheds load at its bounded ingress queue
//! ([`ServiceError::Busy`](cp_service::ServiceError::Busy) → 429 on the
//! wire); the edge adds **per-client rate limiting** *in front* of that
//! queue — a token bucket per peer IP: clients refill at
//! `per_client_rps` with a `burst` allowance, so one greedy client
//! cannot monopolise the ingress queue that all clients share.
//!
//! Every rejection is a named counter in [`GatewayStats`], folded into
//! the `/stats` JSON next to the platform's own admission counters.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-client token-bucket parameters.
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Sustained requests per second each client IP may issue.
    pub per_client_rps: f64,
    /// Bucket capacity: how many requests a client may burst above the
    /// sustained rate before being limited.
    pub burst: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            per_client_rps: 100.0,
            burst: 50.0,
        }
    }
}

/// One client's bucket: tokens remaining and the last refill instant.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Peer-IP-keyed token buckets behind one mutex (the map is touched once
/// per request; contention is negligible next to the socket syscalls on
/// the same path). The map is bounded: when it outgrows
/// [`RateLimiter::MAX_CLIENTS`], buckets idle long enough to have fully
/// refilled are dropped — forgetting a full bucket is behaviourally
/// invisible, so eviction can never turn an allowed request into a
/// rejected one.
pub struct RateLimiter {
    cfg: RateLimitConfig,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl RateLimiter {
    /// Bucket-map size that triggers a prune of fully-refilled buckets.
    pub const MAX_CLIENTS: usize = 4096;

    /// A limiter with the given parameters (rates are clamped positive).
    pub fn new(cfg: RateLimitConfig) -> RateLimiter {
        RateLimiter {
            cfg: RateLimitConfig {
                per_client_rps: cfg.per_client_rps.max(f64::MIN_POSITIVE),
                burst: cfg.burst.max(1.0),
            },
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Spends one token from `peer`'s bucket; `false` means the client
    /// is over its rate and the request should be answered 429.
    pub fn allow(&self, peer: IpAddr) -> bool {
        self.allow_at(peer, Instant::now())
    }

    /// [`RateLimiter::allow`] with an injected clock (tests).
    pub fn allow_at(&self, peer: IpAddr, now: Instant) -> bool {
        let mut buckets = self.buckets.lock().expect("rate-limiter poisoned");
        if buckets.len() >= Self::MAX_CLIENTS && !buckets.contains_key(&peer) {
            let full_after = self.cfg.burst / self.cfg.per_client_rps;
            buckets.retain(|_, b| now.duration_since(b.last).as_secs_f64() < full_after);
        }
        let bucket = buckets.entry(peer).or_insert(Bucket {
            tokens: self.cfg.burst,
            last: now,
        });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.cfg.per_client_rps).min(self.cfg.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Clients currently tracked (tests/ops).
    pub fn tracked_clients(&self) -> usize {
        self.buckets.lock().expect("rate-limiter poisoned").len()
    }
}

/// Lock-free gateway counters (relaxed increments; exactness is per
/// counter, the snapshot is point-in-time like the platform's).
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Connections accepted off the listener.
    pub connections_accepted: AtomicU64,
    /// Accepted connections turned away because the bounded connection
    /// queue was full (answered 503 + close before any parse).
    pub connections_shed: AtomicU64,
    /// Connections fully closed by a handler (every accepted-and-queued
    /// connection ends here exactly once).
    pub connections_closed: AtomicU64,
    /// Requests successfully parsed off the wire.
    pub requests: AtomicU64,
    /// Malformed requests answered 400/413/431 and closed (parse-level;
    /// not counted in `requests`).
    pub parse_rejections: AtomicU64,
    /// I/O failures mid-connection (timeouts, resets, disconnects
    /// mid-response); the connection is dropped without a response.
    pub io_errors: AtomicU64,
    /// 200s served.
    pub ok: AtomicU64,
    /// 200s served straight from a connection's session cache.
    pub session_hits: AtomicU64,
    /// 429s from the per-client token bucket.
    pub rate_limited: AtomicU64,
    /// 429s from platform admission control
    /// ([`ServiceError::Busy`](cp_service::ServiceError::Busy)) or a
    /// quota-starved crowd.
    pub upstream_busy: AtomicU64,
    /// 504s: the route deadline expired while the ticket was in flight.
    pub timeouts: AtomicU64,
    /// 404s: unknown city or unknown path.
    pub not_found: AtomicU64,
    /// 400s for well-formed HTTP with bad route parameters.
    pub bad_params: AtomicU64,
    /// 405s (non-GET methods).
    pub method_not_allowed: AtomicU64,
    /// 422s: the city exists but no candidate route connects the OD.
    pub no_route: AtomicU64,
    /// 500s (resolver panics and other upstream failures).
    pub server_errors: AtomicU64,
    /// 503s because the platform is shutting down or the edge is
    /// draining.
    pub unavailable: AtomicU64,
}

macro_rules! snap_fields {
    ($self:ident, $($field:ident),+ $(,)?) => {
        GatewayStatsSnapshot {
            $($field: $self.$field.load(Ordering::Relaxed)),+
        }
    };
}

impl GatewayStats {
    /// Fresh zeroed counters.
    pub fn new() -> GatewayStats {
        GatewayStats::default()
    }

    /// Point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> GatewayStatsSnapshot {
        snap_fields!(
            self,
            connections_accepted,
            connections_shed,
            connections_closed,
            requests,
            parse_rejections,
            io_errors,
            ok,
            session_hits,
            rate_limited,
            upstream_busy,
            timeouts,
            not_found,
            bad_params,
            method_not_allowed,
            no_route,
            server_errors,
            unavailable,
        )
    }

    /// Bumps one counter by 1 (relaxed).
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Point-in-time copy of [`GatewayStats`]; field meanings match 1:1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct GatewayStatsSnapshot {
    pub connections_accepted: u64,
    pub connections_shed: u64,
    pub connections_closed: u64,
    pub requests: u64,
    pub parse_rejections: u64,
    pub io_errors: u64,
    pub ok: u64,
    pub session_hits: u64,
    pub rate_limited: u64,
    pub upstream_busy: u64,
    pub timeouts: u64,
    pub not_found: u64,
    pub bad_params: u64,
    pub method_not_allowed: u64,
    pub no_route: u64,
    pub server_errors: u64,
    pub unavailable: u64,
}

impl GatewayStatsSnapshot {
    /// Responses produced for parsed requests (every status class the
    /// edge emits, session hits included in `ok`).
    pub fn responses(&self) -> u64 {
        self.ok
            + self.rate_limited
            + self.upstream_busy
            + self.timeouts
            + self.not_found
            + self.bad_params
            + self.method_not_allowed
            + self.no_route
            + self.server_errors
            + self.unavailable
    }

    /// The edge accounting invariant: every parsed request got exactly
    /// one response (requests whose response *write* failed are still
    /// classified — the write failure lands in `io_errors` on top), a
    /// session hit is a subset of `ok`, and connections never close more
    /// often than they were accepted and queued.
    pub fn is_consistent(&self) -> bool {
        self.responses() == self.requests
            && self.session_hits <= self.ok
            && self.connections_closed + self.connections_shed <= self.connections_accepted
    }

    /// The counters as one JSON object (the caller composes it into the
    /// `/stats` document).
    pub fn to_json(&self) -> String {
        cp_service::json::object()
            .field("connections_accepted", self.connections_accepted)
            .field("connections_shed", self.connections_shed)
            .field("connections_closed", self.connections_closed)
            .field("requests", self.requests)
            .field("parse_rejections", self.parse_rejections)
            .field("io_errors", self.io_errors)
            .field("ok", self.ok)
            .field("session_hits", self.session_hits)
            .field("rate_limited", self.rate_limited)
            .field("upstream_busy", self.upstream_busy)
            .field("timeouts", self.timeouts)
            .field("not_found", self.not_found)
            .field("bad_params", self.bad_params)
            .field("method_not_allowed", self.method_not_allowed)
            .field("no_route", self.no_route)
            .field("server_errors", self.server_errors)
            .field("unavailable", self.unavailable)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, last))
    }

    #[test]
    fn token_bucket_allows_burst_then_limits_then_refills() {
        let limiter = RateLimiter::new(RateLimitConfig {
            per_client_rps: 10.0,
            burst: 3.0,
        });
        let t0 = Instant::now();
        assert!(limiter.allow_at(ip(1), t0));
        assert!(limiter.allow_at(ip(1), t0));
        assert!(limiter.allow_at(ip(1), t0));
        assert!(!limiter.allow_at(ip(1), t0), "burst spent");
        // Another client is unaffected.
        assert!(limiter.allow_at(ip(2), t0));
        // 100 ms refills one token at 10 rps.
        assert!(limiter.allow_at(ip(1), t0 + Duration::from_millis(100)));
        assert!(!limiter.allow_at(ip(1), t0 + Duration::from_millis(100)));
    }

    #[test]
    fn bucket_map_prunes_idle_clients_at_capacity() {
        let limiter = RateLimiter::new(RateLimitConfig {
            per_client_rps: 1000.0,
            burst: 1.0,
        });
        let t0 = Instant::now();
        {
            let mut buckets = limiter.buckets.lock().unwrap();
            for i in 0..RateLimiter::MAX_CLIENTS {
                buckets.insert(
                    IpAddr::V4(Ipv4Addr::from((i as u32) | 0x0b00_0000)),
                    Bucket {
                        tokens: 0.0,
                        last: t0,
                    },
                );
            }
        }
        // A new client arriving after every bucket has fully refilled
        // (1 ms at 1000 rps) triggers the prune and is admitted.
        assert!(limiter.allow_at(ip(9), t0 + Duration::from_secs(1)));
        assert!(limiter.tracked_clients() <= 2);
    }

    #[test]
    fn stats_snapshot_accounts() {
        let stats = GatewayStats::new();
        stats.inc(&stats.requests);
        stats.inc(&stats.requests);
        stats.inc(&stats.ok);
        stats.inc(&stats.upstream_busy);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.responses(), 2);
        assert!(snap.is_consistent());
        assert!(snap.to_json().contains("\"upstream_busy\": 1"));
    }
}
