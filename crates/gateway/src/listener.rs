//! The TCP edge: acceptor, bounded connection queue, handler pool,
//! graceful shutdown.
//!
//! One acceptor thread pulls connections off a non-blocking listener
//! and feeds a **bounded** queue; `handler_threads` resident workers
//! pop connections and speak HTTP/1.1 over them (keep-alive, per-socket
//! read/write deadlines, per-connection session cache). A full
//! connection queue answers `503 Connection: close` at accept time —
//! the edge sheds whole connections before parsing a byte of them,
//! mirroring the platform's own admission control one layer down.
//!
//! [`Gateway::shutdown`] is graceful and ordered for layering *above*
//! [`Platform::shutdown`]: stop accepting, let handlers finish the
//! request in flight on every live connection (responses go out with
//! `Connection: close`), drain connections still queued, join all
//! threads — only then should the caller drain the platform, so no
//! admitted HTTP request ever observes `ShuttingDown` from a healthy
//! platform underneath.

use crate::handlers::{handle, AppState};
use crate::http::{read_request, write_response, HttpError, HttpLimits, Response};
use crate::limits::{GatewayStats, GatewayStatsSnapshot, RateLimitConfig, RateLimiter};
use crate::session::SessionCache;
use cp_service::Platform;
use std::collections::VecDeque;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bounded accepted-connection queue; a full queue sheds new connections
/// with an immediate `503` + close.
const CONN_BACKLOG: usize = 64;
/// Per-socket read deadline (covers both a stalled request head and an
/// idle keep-alive gap).
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-socket write deadline.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Write deadline for the `503` sent to a connection shed at accept time.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);
/// Per-connection session-cache capacity (rendered `/route` bodies).
const SESSION_CACHE: usize = 32;

/// Edge configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (`127.0.0.1:0` picks a free loopback port — the
    /// right default for tests and benchmarks; bind `0.0.0.0:port` to
    /// serve externally).
    pub addr: String,
    /// Resident handler threads (each owns one connection at a time).
    pub handler_threads: usize,
    /// Most requests served over one keep-alive connection before the
    /// edge closes it (bounds per-connection state lifetime).
    pub keep_alive_requests: usize,
    /// Per-client token-bucket rate limiting (`None` = unlimited).
    pub rate_limit: Option<RateLimitConfig>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            handler_threads: 4,
            keep_alive_requests: 1024,
            rate_limit: None,
        }
    }
}

/// The accepted-connection queue.
struct ConnQueue {
    conns: VecDeque<TcpStream>,
    /// Set at shutdown: handlers drain the queue, then exit.
    draining: bool,
}

/// Shared gateway state.
struct GwInner {
    state: AppState,
    cfg: GatewayConfig,
    queue: Mutex<ConnQueue>,
    not_empty: Condvar,
    /// Tells the acceptor to stop; set before `draining`.
    stop_accept: AtomicBool,
    /// Tells handlers to finish the current request and close (checked
    /// between keep-alive requests).
    draining: AtomicBool,
}

/// A running HTTP edge over one [`Platform`]. See the
/// [module docs](self) for the lifecycle.
pub struct Gateway {
    inner: Arc<GwInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds, spawns the acceptor and handler pool, and starts serving
    /// `platform` immediately.
    pub fn start(platform: Arc<Platform>, cfg: GatewayConfig) -> io::Result<Gateway> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let inner = Arc::new(GwInner {
            state: AppState {
                platform,
                stats: GatewayStats::new(),
                limiter: cfg.rate_limit.map(RateLimiter::new),
            },
            cfg: GatewayConfig {
                handler_threads: cfg.handler_threads.max(1),
                ..cfg
            },
            queue: Mutex::new(ConnQueue {
                conns: VecDeque::new(),
                draining: false,
            }),
            not_empty: Condvar::new(),
            stop_accept: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("cp-gw-accept".into())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawning the gateway acceptor")
        };
        let handlers = (0..inner.cfg.handler_threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cp-gw-{i}"))
                    .spawn(move || handler_loop(&inner))
                    .expect("spawning a gateway handler")
            })
            .collect();
        Ok(Gateway {
            inner,
            addr,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (read the chosen port when binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time edge counters.
    pub fn stats(&self) -> GatewayStatsSnapshot {
        self.inner.state.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, finish every in-flight
    /// request (`Connection: close` on the way out), serve-and-close
    /// connections still queued, join all threads. Call **before**
    /// [`Platform::shutdown`] — the platform must outlive the last
    /// gateway response. Idempotent via drop.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.stop_accept.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.inner.draining.store(true, Ordering::Release);
        {
            let mut q = self.inner.queue.lock().expect("conn queue poisoned");
            q.draining = true;
            self.inner.not_empty.notify_all();
        }
        for handle in self.handlers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("addr", &self.addr)
            .field("handler_threads", &self.inner.cfg.handler_threads)
            .finish()
    }
}

/// The acceptor: poll-accept off the non-blocking listener, enqueue
/// into the bounded queue, shed with an immediate 503 when full.
fn accept_loop(inner: &GwInner, listener: TcpListener) {
    let stats = &inner.state.stats;
    while !inner.stop_accept.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stats.inc(&stats.connections_accepted);
                let mut q = inner.queue.lock().expect("conn queue poisoned");
                if q.conns.len() >= CONN_BACKLOG {
                    drop(q);
                    stats.inc(&stats.connections_shed);
                    shed_connection(stream);
                } else {
                    q.conns.push_back(stream);
                    drop(q);
                    inner.not_empty.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Nothing pending: nap briefly and re-check the stop
                // flag (std has no listener shutdown to interrupt a
                // blocking accept, so the edge polls).
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                // Transient accept failure (per-connection errors like
                // ECONNABORTED); keep accepting.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Best-effort `503 Connection: close` for a connection shed at accept
/// time (a short write deadline keeps a black-holed peer from wedging
/// the acceptor).
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let resp = Response::error(503, "overloaded", "connection queue full")
        .retry_after(1)
        .closing();
    let _ = write_response(&mut stream, &resp);
}

/// A resident handler: pop a connection, serve its keep-alive request
/// stream, repeat; exit once draining and the queue is empty.
fn handler_loop(inner: &GwInner) {
    loop {
        let conn = {
            let mut q = inner.queue.lock().expect("conn queue poisoned");
            loop {
                if let Some(conn) = q.conns.pop_front() {
                    break Some(conn);
                }
                if q.draining {
                    break None;
                }
                q = inner.not_empty.wait(q).expect("conn queue poisoned");
            }
        };
        let Some(conn) = conn else { break };
        serve_connection(inner, conn);
        inner.state.stats.inc(&inner.state.stats.connections_closed);
    }
}

/// Speaks HTTP/1.1 over one connection until close, error, the
/// keep-alive budget, or drain.
fn serve_connection(inner: &GwInner, mut stream: TcpStream) {
    let stats = &inner.state.stats;
    let peer = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        stats.inc(&stats.io_errors);
        return;
    }
    let mut session = SessionCache::new(SESSION_CACHE);
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let limits = HttpLimits::default();
    for _ in 0..inner.cfg.keep_alive_requests {
        let req = match read_request(&mut stream, &mut buf, &limits) {
            Ok(req) => req,
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(_)) => {
                stats.inc(&stats.io_errors);
                return;
            }
            Err(parse_err) => {
                // Malformed wire bytes: answer once, close, never try
                // to re-synchronise inside a corrupted stream.
                stats.inc(&stats.parse_rejections);
                let resp = match parse_err {
                    HttpError::HeadersTooLarge => {
                        Response::error(431, "headers_too_large", "request head exceeds limits")
                    }
                    HttpError::BodyTooLarge => {
                        Response::error(413, "body_too_large", "request body exceeds limits")
                    }
                    HttpError::BadRequest(why) => Response::error(400, "bad_request", why),
                    HttpError::Closed | HttpError::Io(_) => unreachable!("handled above"),
                };
                let _ = write_response(&mut stream, &resp.closing());
                return;
            }
        };
        let draining = inner.draining.load(Ordering::Acquire);
        let mut resp = handle(&inner.state, &mut session, &req, peer);
        if draining || !req.keep_alive {
            resp.close = true;
        }
        if write_response(&mut stream, &resp).is_err() {
            // The client vanished mid-response (disconnect, reset,
            // write deadline): drop the connection; the handler and the
            // platform behind it are unaffected.
            stats.inc(&stats.io_errors);
            return;
        }
        if resp.close {
            return;
        }
    }
    // Keep-alive budget exhausted: close politely so the client re-dials.
}
