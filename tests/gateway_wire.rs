//! Wire-level gateway tests: real TCP sockets against a running
//! [`Gateway`], exercising the hardened HTTP edge end to end — parser
//! rejection of malformed/oversized requests, keep-alive reuse,
//! client-disconnect resilience, Busy→429 under firehose load, and the
//! acceptance bar: **multi-threaded wire equivalence** proving that
//! routes served over HTTP are byte-identical to the same requests
//! served through `Platform::submit` in-process.

mod common;
use common::{fresh_misses, sim};

use cp_gateway::http::read_request;
use cp_gateway::{
    route_json, Gateway, GatewayConfig, HttpError, HttpLimits, HttpRequest, RateLimitConfig,
};
use cp_service::{CityId, Platform, PlatformConfig, Request, ServiceConfig};
use cp_traj::TimeOfDay;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A platform with one strict-deterministic city (always city 0) —
/// each call builds a fresh, identical world.
fn strict_platform(workers: usize, queue_capacity: usize) -> Arc<Platform> {
    let platform = Platform::start(PlatformConfig {
        workers,
        city_weight: 1,
        queue_capacity,
        maintenance: None,
        batch: None,
        durability: None,
        chaos: None,
    });
    let id = platform.register_city(sim().service_world(), ServiceConfig::strict_deterministic());
    assert_eq!(id.0, 0, "first registered city is always 0");
    Arc::new(platform)
}

fn start_gateway(platform: &Arc<Platform>, cfg: GatewayConfig) -> Gateway {
    Gateway::start(Arc::clone(platform), cfg).expect("gateway binds loopback")
}

/// One parsed wire response.
#[derive(Debug)]
struct WireResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl WireResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads exactly one HTTP/1.1 response off the stream (headers, then
/// `Content-Length` bytes of body).
fn read_response(stream: &mut TcpStream) -> std::io::Result<WireResponse> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("eof after {} head bytes", head.len()),
            ));
        }
        head.push(byte[0]);
        assert!(head.len() < 65536, "unbounded response head");
    }
    let head = String::from_utf8(head).expect("ascii head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let (n, v) = l.split_once(':')?;
            Some((n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let len: usize = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().expect("numeric content-length"))
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(WireResponse {
        status,
        headers,
        body,
    })
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to gateway");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// One GET over a dedicated connection.
fn get(addr: SocketAddr, path_and_query: &str) -> WireResponse {
    let mut stream = connect(addr);
    write!(
        stream,
        "GET {path_and_query} HTTP/1.1\r\nHost: cp\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    read_response(&mut stream).expect("read response")
}

/// One GET on an existing keep-alive connection.
fn get_keepalive(stream: &mut TcpStream, path_and_query: &str) -> WireResponse {
    write!(stream, "GET {path_and_query} HTTP/1.1\r\nHost: cp\r\n\r\n").expect("write request");
    read_response(stream).expect("read response")
}

fn route_path(req: &Request) -> String {
    format!(
        "/route?city={}&o={}&d={}&t={}",
        req.city.0,
        req.from.0,
        req.to.0,
        req.departure.0 / 3600.0
    )
}

/// Distinct cold ODs (no duplicates, so every first service is a
/// deterministic `Resolved` regardless of arrival order).
fn distinct_requests(count: usize, seed: u64) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::new();
    for (from, to) in sim().request_stream(count * 2, 2, seed) {
        if from == to {
            continue;
        }
        if out.iter().any(|r| r.from == from && r.to == to) {
            continue;
        }
        out.push(Request::new(from, to, TimeOfDay::from_hours(8.0)));
        if out.len() == count {
            break;
        }
    }
    assert_eq!(out.len(), count, "stream yields enough distinct ODs");
    out
}

#[test]
fn malformed_request_lines_are_rejected_with_400_and_close() {
    let platform = strict_platform(1, 16);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();

    for garbage in [
        "GARBAGE\r\n\r\n".as_bytes(),
        b"GET /healthz HTTP/9.9\r\n\r\n",
        b"get /healthz HTTP/1.1\r\n\r\n",
        b"GET http://elsewhere/ HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
        b"\x00\x01\x02\xff\r\n\r\n",
    ] {
        let mut stream = connect(addr);
        stream.write_all(garbage).expect("write garbage");
        let resp = read_response(&mut stream).expect("a 400 before close");
        assert_eq!(resp.status, 400, "garbage {garbage:?}");
        assert_eq!(resp.header("connection"), Some("close"));
        // The gateway never tries to re-synchronise: the socket is done.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean close");
        assert!(rest.is_empty());
    }

    let snap = gw.stats();
    assert_eq!(snap.parse_rejections, 6);
    assert!(snap.is_consistent(), "stats consistent: {snap:?}");
    gw.shutdown();
}

#[test]
fn oversized_heads_get_431_and_post_gets_405() {
    let platform = strict_platform(1, 16);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();

    // An 8 KiB default head limit: one absurd header blows past it.
    let mut stream = connect(addr);
    let huge = format!(
        "GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(32 * 1024)
    );
    stream.write_all(huge.as_bytes()).expect("write oversized");
    let resp = read_response(&mut stream).expect("a 431 before close");
    assert_eq!(resp.status, 431);
    assert_eq!(resp.header("connection"), Some("close"));

    // Non-GET methods parse fine but map to 405.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /route HTTP/1.1\r\nHost: cp\r\nContent-Length: 2\r\n\r\nhi")
        .expect("write post");
    let resp = read_response(&mut stream).expect("read 405");
    assert_eq!(resp.status, 405);
    gw.shutdown();
}

#[test]
fn keep_alive_reuses_one_connection_and_session_cache_repeats_bytes() {
    let platform = strict_platform(2, 32);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();
    let req = distinct_requests(1, 41)[0];
    let path = route_path(&req);

    let mut stream = connect(addr);
    let first = get_keepalive(&mut stream, &path);
    assert_eq!(
        first.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&first.body)
    );
    for _ in 0..4 {
        // Repeats on the same connection come from the session cache and
        // must be byte-identical.
        let again = get_keepalive(&mut stream, &path);
        assert_eq!(again.status, 200);
        assert_eq!(again.body, first.body);
    }
    let health = get_keepalive(&mut stream, "/healthz");
    assert_eq!(health.status, 200);

    let snap = gw.stats();
    assert_eq!(snap.connections_accepted, 1, "one connection served it all");
    assert_eq!(snap.requests, 6);
    assert_eq!(snap.session_hits, 4);
    assert!(snap.is_consistent(), "stats consistent: {snap:?}");
    gw.shutdown();
}

#[test]
fn client_disconnect_mid_exchange_leaves_the_gateway_healthy() {
    let platform = strict_platform(1, 16);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();
    let reqs = distinct_requests(3, 43);

    // Drop a connection right after writing the request, before reading
    // a byte of the response; then one mid-head; then a bare connect.
    {
        let mut stream = connect(addr);
        write!(
            stream,
            "GET {} HTTP/1.1\r\nHost: cp\r\n\r\n",
            route_path(&reqs[0])
        )
        .unwrap();
    } // dropped here
    {
        let mut stream = connect(addr);
        stream.write_all(b"GET /stats HT").unwrap();
    }
    drop(connect(addr));

    // The gateway must keep serving as if nothing happened.
    for req in &reqs[1..] {
        let resp = get(addr, &route_path(req));
        assert_eq!(resp.status, 200);
    }
    let snap = gw.stats();
    assert!(snap.is_consistent(), "stats consistent: {snap:?}");
    gw.shutdown();
}

#[test]
fn unknown_city_and_bad_params_map_to_404_and_400() {
    let platform = strict_platform(1, 16);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();

    assert_eq!(get(addr, "/route?city=99&o=0&d=5&t=8").status, 404);
    assert_eq!(get(addr, "/route?city=0&o=0&t=8").status, 400);
    assert_eq!(get(addr, "/route?city=0&o=0&d=5&t=nope").status, 400);
    // Node ids the city's graph does not have: rejected at submit, so
    // the platform's only worker never sees them and keeps serving.
    let unknown_node = get(addr, "/route?city=0&o=100000&d=5&t=8");
    assert_eq!(unknown_node.status, 400);
    assert!(String::from_utf8_lossy(&unknown_node.body).contains("bad_params"));
    assert_eq!(get(addr, "/route?city=0&o=0&d=100000&t=8").status, 400);
    let req = distinct_requests(1, 71)[0];
    assert_eq!(get(addr, &route_path(&req)).status, 200);
    assert_eq!(get(addr, "/nowhere").status, 404);
    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    let body = String::from_utf8(stats.body).unwrap();
    assert!(body.contains("\"gateway\""), "stats body: {body}");
    assert!(body.contains("\"platform\""), "stats body: {body}");
    gw.shutdown();
}

#[test]
fn stats_expose_per_city_queue_rows() {
    let platform = strict_platform(2, 32);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();
    let req = distinct_requests(1, 67)[0];
    assert_eq!(get(addr, &route_path(&req)).status, 200);
    // Again on a fresh connection (no session cache): a truth hit,
    // served at submit.
    assert_eq!(get(addr, &route_path(&req)).status, 200);

    let resp = get(addr, "/stats");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body).unwrap();
    let (platform_head, rest) = body
        .split_once("\"per_city\": [")
        .unwrap_or_else(|| panic!("stats carry a per_city array: {body}"));
    let per_city = rest.split(']').next().unwrap();
    let field = |json: &str, name: &str| -> u64 {
        json.split(&format!("\"{name}\": "))
            .nth(1)
            .unwrap_or_else(|| panic!("stats carry {name}: {json}"))
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    // One registered city, weight 1: both /route requests admitted, the
    // miss dispatched (depth back to zero) — unbatched, since batching
    // is off — and the hit served at submit; nothing shed.
    let row = |name| field(per_city, name);
    assert_eq!(row("city"), 0);
    assert_eq!(row("weight"), 1);
    assert_eq!(row("queue_depth"), 0);
    assert_eq!(row("admitted"), 2);
    assert_eq!(row("served_inline"), 1);
    assert_eq!(row("rejected_busy"), 0);
    assert_eq!(row("unbatched_requests"), 1);
    assert_eq!(field(platform_head, "served_inline"), 1);
    gw.shutdown();
}

#[test]
fn rate_limit_answers_429_with_retry_after_on_the_wire() {
    let platform = strict_platform(1, 16);
    let gw = start_gateway(
        &platform,
        GatewayConfig {
            rate_limit: Some(RateLimitConfig {
                per_client_rps: 0.001,
                burst: 2.0,
            }),
            ..GatewayConfig::default()
        },
    );
    let addr = gw.local_addr();
    let req = distinct_requests(1, 47)[0];
    let path = route_path(&req);

    let mut stream = connect(addr);
    let mut limited = 0;
    for _ in 0..5 {
        let resp = get_keepalive(&mut stream, &path);
        if resp.status == 429 {
            limited += 1;
            assert!(
                resp.header("retry-after").is_some(),
                "429 carries Retry-After"
            );
        } else {
            assert_eq!(resp.status, 200);
        }
    }
    assert_eq!(limited, 3, "burst of 2, then the bucket is dry");
    assert_eq!(gw.stats().rate_limited, 3);
    gw.shutdown();
}

#[test]
fn firehose_maps_platform_busy_to_429_with_retry_after() {
    // A deliberately tiny platform: one worker, four-slot ingress. An
    // in-process firehose of truth misses keeps the queue pinned at
    // capacity while wire clients contend for slots.
    let platform = strict_platform(1, 4);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();
    let mut wire_keys = fresh_misses(CityId::LOCAL, 1);
    // Stored before the firehose starts: from then on a truth hit.
    let stored = wire_keys.next().expect("a key");
    assert_eq!(get(addr, &route_path(&stored)).status, 200);

    let stop = Arc::new(AtomicBool::new(false));
    let firehose = {
        let platform = Arc::clone(&platform);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut keys = fresh_misses(CityId::LOCAL, 0);
            let mut next = keys.next().expect("a key");
            let mut tickets = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                // Keep the ingress full; hold tickets so nothing is
                // abandoned mid-flight. A key advances only once
                // admitted, so none repeats: a repeat would be a truth
                // hit, served at submit without ever queueing.
                if let Ok(t) = platform.submit(next) {
                    tickets.push(t);
                    next = keys.next().expect("more keys than the test admits");
                }
            }
            for t in tickets {
                let _ = t.wait();
            }
        })
    };

    let mut busy_429 = 0;
    for req in wire_keys.take(200) {
        let resp = get(addr, &route_path(&req));
        match resp.status {
            429 => {
                busy_429 += 1;
                assert!(
                    resp.header("retry-after").is_some(),
                    "429 carries Retry-After"
                );
                // The ingress was just full: a truth hit is served at
                // submit and never shed.
                let hit = get(addr, &route_path(&stored));
                assert_eq!(hit.status, 200, "a stored key is never shed");
                assert!(String::from_utf8_lossy(&hit.body).contains("\"served\": \"truth_hit\""));
            }
            200 | 504 => {}
            other => panic!("unexpected status under firehose: {other}"),
        }
        if busy_429 >= 3 {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    firehose.join().unwrap();

    assert!(busy_429 >= 1, "saturated ingress must surface as wire 429s");
    let snap = gw.stats();
    assert!(snap.upstream_busy >= 1, "stats: {snap:?}");
    assert!(snap.is_consistent(), "stats consistent: {snap:?}");
    gw.shutdown();
}

#[test]
fn multithreaded_wire_equivalence_with_in_process_submit() {
    // The acceptance bar: N client threads hammer the gateway over real
    // sockets with distinct cold ODs; the same requests go through
    // Platform::submit on a second, identically-built platform. Every
    // response body must be byte-identical to the in-process rendering —
    // the HTTP edge adds transport, never semantics.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;

    let wire_platform = strict_platform(4, 128);
    let gw = start_gateway(&wire_platform, GatewayConfig::default());
    let addr = gw.local_addr();
    let reqs = distinct_requests(CLIENTS * PER_CLIENT, 59);

    let wire_bodies: Vec<(Request, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .chunks(PER_CLIENT)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    chunk
                        .iter()
                        .map(|req| {
                            let resp = get_keepalive(&mut stream, &route_path(req));
                            assert_eq!(
                                resp.status,
                                200,
                                "body: {}",
                                String::from_utf8_lossy(&resp.body)
                            );
                            (*req, resp.body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    gw.shutdown();

    // The reference: the same ODs through Platform::submit on a fresh
    // identical platform, rendered by the same JSON encoder.
    let ref_platform = strict_platform(4, 128);
    let graph = sim().graph_arc();
    for (req, wire_body) in &wire_bodies {
        let served = ref_platform
            .submit(*req)
            .expect("reference submit")
            .wait()
            .expect("reference serve");
        let expected = route_json(req, &served, &graph);
        assert_eq!(
            expected.as_bytes(),
            wire_body.as_slice(),
            "wire response for {req:?} diverged from Platform::submit"
        );
    }
}

#[test]
fn graceful_shutdown_answers_in_flight_then_platform_drains() {
    let platform = strict_platform(2, 32);
    let gw = start_gateway(&platform, GatewayConfig::default());
    let addr = gw.local_addr();
    let req = distinct_requests(1, 61)[0];

    let resp = get(addr, &route_path(&req));
    assert_eq!(resp.status, 200);
    gw.shutdown();

    // The edge is gone; the platform behind it is still healthy.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // On some kernels the listener's backlog may still accept one
            // connection after close; a read must then hit EOF/reset.
            let mut s = connect(addr);
            let _ = write!(s, "GET /healthz HTTP/1.1\r\nHost: cp\r\n\r\n");
            read_response(&mut s).is_err()
        }
    );
    let served = platform
        .submit(req)
        .expect("platform serves after edge shutdown")
        .wait()
        .expect("serve");
    assert!(!served.path.nodes().is_empty());
}

/// Hands `bytes` out in the given read sizes (cycled), then EOF — a TCP
/// stream that fragments wherever it likes.
struct SplitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    splits: &'a [usize],
    reads: usize,
}

impl Read for SplitReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let want = self.splits[self.reads % self.splits.len()];
        self.reads += 1;
        let n = want.min(out.len()).min(self.bytes.len() - self.pos);
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A well-formed request rendered from fuzz picks: method, target and an
/// optional `Content-Length` body.
fn render_request((method, target, body): (u8, u8, u8)) -> Vec<u8> {
    let method = ["GET", "POST", "HEAD"][method as usize % 3];
    let target = [
        "/healthz",
        "/route?city=0&o=1&d=2&t=8.5",
        "/a%20b?x=%41&flag",
        "/",
    ][target as usize % 4];
    let body = vec![body; body as usize % 7];
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: cp\r\nX-Pick: {}\r\n",
        body.len()
    );
    if !body.is_empty() {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend(body);
    out
}

/// Parses `bytes` to exhaustion through a [`SplitReader`], checking after
/// every returned request that the parser consumed exactly that
/// request's bytes and left the rest of its buffer untouched. Returns
/// the requests and the error that ended the stream.
fn parse_stream(
    bytes: &[u8],
    splits: &[usize],
) -> Result<(Vec<HttpRequest>, HttpError), TestCaseError> {
    let mut reader = SplitReader {
        bytes,
        pos: 0,
        splits,
        reads: 0,
    };
    let mut buf = Vec::new();
    let mut consumed = 0;
    let mut requests = Vec::new();
    loop {
        match read_request(&mut reader, &mut buf, &HttpLimits::default()) {
            Ok(req) => {
                let end = reader.pos - buf.len();
                let taken = &bytes[consumed..end];
                let head_end = taken
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .expect("a returned request has a terminated head")
                    + 4;
                prop_assert_eq!(taken.len(), head_end + req.body.len());
                prop_assert_eq!(&taken[head_end..], &req.body[..]);
                prop_assert_eq!(&buf[..], &bytes[end..reader.pos]);
                consumed = end;
                requests.push(req);
            }
            Err(e) => {
                prop_assert!(!matches!(e, HttpError::Io(_)), "the reader never fails");
                if e == HttpError::Closed {
                    prop_assert_eq!(consumed, bytes.len(), "Closed only at a boundary");
                }
                return Ok((requests, e));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser over arbitrary bytes delivered in arbitrary read sizes:
    /// it never panics, every outcome is `Ok` or a typed parse error, it
    /// never consumes past the request it returns, and a valid pipelined
    /// stream parses to the same requests however it is split.
    #[test]
    fn http_parser_survives_arbitrary_bytes_and_read_splits(
        picks in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        splits in proptest::collection::vec(1usize..64, 1..12),
    ) {
        let valid: Vec<u8> = picks.iter().flat_map(|&p| render_request(p)).collect();
        let whole = parse_stream(&valid, &[usize::MAX])?;
        prop_assert_eq!(whole.0.len(), picks.len());
        prop_assert_eq!(&whole.1, &HttpError::Closed);
        prop_assert_eq!(&parse_stream(&valid, &splits)?, &whole);

        // The same stream with bytes overwritten and junk appended.
        let mut corrupt = valid;
        corrupt.extend(noise);
        for (at, byte) in flips {
            let at = at % corrupt.len();
            corrupt[at] = byte;
        }
        parse_stream(&corrupt, &splits)?;
    }
}
