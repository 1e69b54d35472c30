//! Load generators. In-process workloads run one closed loop on the
//! calling thread; the wire workload runs an open loop on two client
//! threads, one keep-alive connection each. Nothing else is spawned.

use crate::stats::{poisson_gap_s, Rng, Slice, StrideSampler};
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workloads::{Traffic, WIRE_CLIENTS, WIRE_RATE_HZ};
use cp_core::Resolution;
use cp_roadnet::Path;
use cp_service::{Platform, Request, Served, Ticket};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Slices a measured window is cut into.
pub const SLICES: usize = 10;

/// In a traced run the span recorder is on in every second slice, so
/// traced and untraced throughput are compared between neighbours and
/// a drift of the host or the workload cancels.
pub fn is_traced_slice(slice: usize) -> bool {
    slice % 2 == 1
}

/// Pause between `Ticket::is_done` checks. The generator must not spin:
/// on two cores a `yield_now` loop made `hot_reuse` bistable (21 k vs
/// 88 k req/s for identical code and seed).
const POLL_PAUSE: Duration = Duration::from_micros(50);
/// Most responses kept for the correctness and accuracy checks.
pub const SAMPLE_CAP: usize = 8192;

/// One kept response, as the client saw it.
pub struct Sample {
    pub request: Request,
    pub path: Path,
    pub confidence: f64,
}

/// How the responses of a window were served.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServedTally {
    pub truth_hit: u64,
    pub dedup: u64,
    pub agreement: u64,
    pub confident: u64,
    pub crowd: u64,
    pub fallback: u64,
    pub reused_truth: u64,
}

impl ServedTally {
    fn count(&mut self, served: Served) {
        let slot = match served {
            Served::TruthHit => &mut self.truth_hit,
            Served::Deduplicated => &mut self.dedup,
            Served::Resolved(Resolution::Agreement) => &mut self.agreement,
            Served::Resolved(Resolution::Confident) => &mut self.confident,
            Served::Resolved(Resolution::Crowd) => &mut self.crowd,
            Served::Resolved(Resolution::Fallback) => &mut self.fallback,
            Served::Resolved(Resolution::ReusedTruth) => &mut self.reused_truth,
        };
        *slot += 1;
    }

    /// Counts a gateway `/route` body by its `served` / `resolution`
    /// fields (an unreadable body counts nowhere; the correctness gate
    /// rejects it separately).
    fn count_body(&mut self, body: &[u8]) {
        let Ok(text) = std::str::from_utf8(body) else {
            return;
        };
        let field = |k| crate::json::field(text, k).map(|v| v.trim_matches('"'));
        let served = match (field("served"), field("resolution")) {
            (Some("truth_hit"), _) => Served::TruthHit,
            (Some("dedup"), _) => Served::Deduplicated,
            (_, Some("agreement")) => Served::Resolved(Resolution::Agreement),
            (_, Some("confident")) => Served::Resolved(Resolution::Confident),
            (_, Some("crowd")) => Served::Resolved(Resolution::Crowd),
            (_, Some("fallback")) => Served::Resolved(Resolution::Fallback),
            (_, Some("reused_truth")) => Served::Resolved(Resolution::ReusedTruth),
            _ => return,
        };
        self.count(served);
    }

    pub fn total(&self) -> u64 {
        self.truth_hit
            + self.dedup
            + self.agreement
            + self.confident
            + self.crowd
            + self.fallback
            + self.reused_truth
    }
}

/// The machine's CPU time so far, in clock ticks over all CPUs: the
/// part the hypervisor withheld from this VM (`steal`) and the total.
#[derive(Debug, Clone, Copy)]
struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    fn read() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // First line: `cpu user nice system idle iowait irq softirq steal
        // guest guest_nice`; the guest columns are already part of user.
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }
}

/// Share of the machine's CPU time between two readings that was stolen.
fn steal_share(open: HostTicks, close: HostTicks) -> f64 {
    crate::metrics::share(close.steal - open.steal, close.total - open.total)
}

/// The slice of a window of `length` that `offset` into it falls in.
fn slice_index(offset: Duration, length: Duration) -> usize {
    ((offset.as_secs_f64() / length.as_secs_f64() * SLICES as f64) as usize).min(SLICES - 1)
}

/// Everything one measured window recorded.
pub struct Window {
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    /// Share of the machine's CPU time stolen during the window.
    pub steal: f64,
    pub samples: Vec<Sample>,
    /// `wire_mix`: kept `(request, response body)` pairs, not yet parsed.
    pub wire_samples: Vec<(Request, Vec<u8>)>,
    /// The first requests of the window, in submission order, for the
    /// layer replay.
    pub first_requests: Vec<Request>,
    pub tally: ServedTally,
    /// `wire_mix`: the town city's latencies, sliced like `slices`.
    pub town_slices: Vec<Slice>,
    /// `wire_mix`: how late the generator sent each request (ns, sorted
    /// once the window has closed).
    pub late_ns: Vec<u64>,
}

impl Window {
    fn new(length: Duration, replay_requests: usize) -> Self {
        Window {
            slices: vec![Slice::default(); SLICES],
            slice_s: length.as_secs_f64() / SLICES as f64,
            steal: 0.0,
            samples: Vec::new(),
            wire_samples: Vec::new(),
            first_requests: Vec::with_capacity(replay_requests),
            tally: ServedTally::default(),
            town_slices: vec![Slice::default(); SLICES],
            late_ns: Vec::new(),
        }
    }

    /// Closes the window: steal between the readings taken when it
    /// opened and closed, latencies and lateness sorted.
    fn close(mut self, opened: HostTicks, closed: HostTicks) -> Self {
        self.steal = steal_share(opened, closed);
        for slice in self.slices.iter_mut().chain(&mut self.town_slices) {
            slice.ok_ns.sort_unstable();
        }
        self.late_ns.sort_unstable();
        self
    }
}

struct InFlight {
    id: u64,
    request: Request,
    ticket: Ticket,
    /// Root span of the request when the window is traced.
    span: SpanId,
}

/// Closed loop: keeps `depth` tickets outstanding and joins the oldest.
pub struct ClosedLoop<'a> {
    platform: &'a Platform,
    traffic: &'a mut Traffic,
    depth: usize,
    in_flight: VecDeque<InFlight>,
    submitted: u64,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(platform: &'a Platform, traffic: &'a mut Traffic, depth: usize) -> Self {
        ClosedLoop {
            platform,
            traffic,
            depth,
            in_flight: VecDeque::with_capacity(depth),
            submitted: 0,
        }
    }

    /// Runs for `length`, recording what completes inside it; with a
    /// `tracer`, requests submitted in a traced slice are recorded under
    /// spans. Requests still outstanding at the end stay outstanding for
    /// the next phase (or [`ClosedLoop::drain`]).
    pub fn run(
        &mut self,
        length: Duration,
        replay_requests: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Window {
        let mut window = Window::new(length, replay_requests);
        let mut sampler = StrideSampler::new(SAMPLE_CAP);
        let opened = HostTicks::read();
        let start = Instant::now();
        // The slice of the latest completion.
        let mut slice = 0;
        loop {
            while self.in_flight.len() < self.depth {
                let request = self.traffic.next_request();
                if window.first_requests.len() < replay_requests {
                    window.first_requests.push(request);
                }
                let id = self.submitted;
                self.submitted += 1;
                let mut spans = tracer.as_deref_mut().filter(|_| is_traced_slice(slice));
                let span = spans
                    .as_deref_mut()
                    .map_or(NO_PARENT, |t| t.open("request", NO_PARENT, id));
                let ticket = match spans {
                    Some(t) => t.scoped("submit", span, id, || {
                        self.platform.submit_blocking(request)
                    }),
                    None => self.platform.submit_blocking(request),
                };
                match ticket {
                    Ok(ticket) => self.in_flight.push_back(InFlight {
                        id,
                        request,
                        ticket,
                        span,
                    }),
                    Err(_) => window.slices[slice].failed += 1,
                }
            }
            let Some(oldest) = self.in_flight.pop_front() else {
                continue;
            };
            // A request submitted in an untraced slice has no root span;
            // it is joined untraced.
            let mut spans = tracer.as_deref_mut().filter(|_| oldest.span != NO_PARENT);
            let wait_span = spans
                .as_deref_mut()
                .map(|t| t.open("wait", oldest.span, oldest.id));
            while !oldest.ticket.is_done() {
                std::thread::sleep(POLL_PAUSE);
            }
            let latency = oldest
                .ticket
                .latency()
                .expect("a done ticket has a latency");
            let result = oldest.ticket.wait();
            if let (Some(t), Some(w)) = (spans, wait_span) {
                t.close(w);
                t.close(oldest.span);
            }
            let done_at = start.elapsed();
            if done_at >= length {
                window.samples = sampler.into_items();
                return window.close(opened, HostTicks::read());
            }
            slice = slice_index(done_at, length);
            match result {
                Ok(served) => {
                    window.slices[slice].ok_ns.push(latency.as_nanos() as u64);
                    window.tally.count(served.served);
                    sampler.offer_with(|| Sample {
                        request: oldest.request,
                        path: served.path,
                        confidence: served.confidence,
                    });
                }
                Err(_) => window.slices[slice].failed += 1,
            }
        }
    }

    /// Joins everything still outstanding (results discarded).
    pub fn drain(&mut self) {
        for f in self.in_flight.drain(..) {
            let _ = f.ticket.wait();
        }
    }
}

/// A keep-alive HTTP/1.1 client connection to the gateway.
pub struct WireClient {
    stream: TcpStream,
    head: Vec<u8>,
    pub body: Vec<u8>,
}

/// How long a client waits for a response before counting a failure.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

impl WireClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(WireClient {
            stream,
            head: Vec::with_capacity(512),
            body: Vec::with_capacity(4096),
        })
    }

    pub fn write_request(&mut self, request: &Request) -> std::io::Result<()> {
        self.stream.write_all(request_bytes(request).as_bytes())
    }

    /// Reads the response head; returns `(status, content_length)`.
    pub fn read_head(&mut self) -> std::io::Result<(u16, usize)> {
        self.head.clear();
        let mut chunk = [0u8; 512];
        // This client never pipelines, so whatever a read returns past
        // the head is the start of this response's body.
        let head_end = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.head.extend_from_slice(&chunk[..n]);
            if let Some(at) = self.head.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
        };
        let bad = || std::io::Error::from(std::io::ErrorKind::InvalidData);
        let text = std::str::from_utf8(&self.head[..head_end]).map_err(|_| bad())?;
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let length = text
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(bad)?;
        self.body.clear();
        self.body.extend_from_slice(&self.head[head_end..]);
        Ok((status, length))
    }

    /// Reads the rest of the body announced by [`WireClient::read_head`].
    pub fn read_body(&mut self, length: usize) -> std::io::Result<()> {
        let have = self.body.len();
        if have > length {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        self.body.resize(length, 0);
        self.stream.read_exact(&mut self.body[have..])
    }

    /// [`WireClient::round_trip`] under a `request` root span with
    /// `write` / `read_head` / `read_body` children.
    fn traced_round_trip(
        &mut self,
        request: &Request,
        spans: &mut Tracer,
        id: u64,
    ) -> std::io::Result<u16> {
        let root = spans.open("request", NO_PARENT, id);
        let mut steps = || {
            spans.scoped("write", root, id, || self.write_request(request))?;
            let (status, length) = spans.scoped("read_head", root, id, || self.read_head())?;
            spans.scoped("read_body", root, id, || self.read_body(length))?;
            Ok(status)
        };
        let outcome = steps();
        spans.close(root);
        outcome
    }

    /// One request, one response. `Ok(status)` with the body in `body`.
    pub fn round_trip(&mut self, request: &Request) -> std::io::Result<u16> {
        self.write_request(request)?;
        let (status, length) = self.read_head()?;
        self.read_body(length)?;
        Ok(status)
    }
}

/// The request line the wire clients send (and the replay parses).
pub fn request_bytes(request: &Request) -> String {
    format!(
        "GET /route?city={}&o={}&d={}&t={:?} HTTP/1.1\r\nHost: bench\r\n\r\n",
        request.city.0,
        request.from.0,
        request.to.0,
        request.departure.0 / 3600.0
    )
}

/// One open-loop request as a wire client recorded it.
struct WireRecord {
    request: Request,
    /// Due time, from the start of the schedule.
    due: Duration,
    /// Due time → last response byte; `None` when the request failed.
    latency: Option<Duration>,
    /// How long after the connection was free and the request was due
    /// the generator actually sent it.
    late: Duration,
    body: Option<Vec<u8>>,
}

/// Runs the open-loop schedule — [`WIRE_RATE_HZ`] over [`WIRE_CLIENTS`]
/// threads — for a discarded `warmup` and a measured window of `length`,
/// which it returns (`first_requests` holds every request of the
/// window). With a `tracer`, requests due in a traced slice are recorded
/// under spans. `at_boundary` is called on the calling thread when the
/// window opens and when it closes, which is where counter snapshots
/// are taken.
pub fn run_open_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    seed: u64,
    warmup: Duration,
    length: Duration,
    mut tracer: Option<&mut Tracer>,
    mut at_boundary: impl FnMut(),
) -> Window {
    let total = warmup + length;
    let mut window = Window::new(length, 0);
    // Connections are made before the schedule starts, so a slow accept
    // is set-up, not latency.
    let mut connections: Vec<WireClient> = (0..WIRE_CLIENTS)
        .map(|_| WireClient::connect(addr).expect("the gateway accepts a connection"))
        .collect();
    let start = Instant::now();
    let mut host = Vec::with_capacity(2);
    let per_client: Vec<(Vec<WireRecord>, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .drain(..)
            .enumerate()
            .map(|(c, mut client)| {
                let mut traffic = traffic.fork(c as u64);
                let mut gaps = Rng::new(seed ^ 0x9A95 ^ ((c as u64) << 32));
                let per_client_hz = WIRE_RATE_HZ / WIRE_CLIENTS as f64;
                let expected = (total.as_secs_f64() * per_client_hz * 1.2) as usize;
                let client_spans = tracer.as_deref().map(|t| t.fork(4 * expected));
                scope.spawn(move || {
                    let mut records = Vec::with_capacity(expected);
                    let mut spans = client_spans;
                    let mut due = Duration::ZERO;
                    let mut free_at = Duration::ZERO;
                    let mut index = c as u64;
                    loop {
                        due += Duration::from_secs_f64(poisson_gap_s(&mut gaps, per_client_hz));
                        if due >= total {
                            return (records, spans);
                        }
                        let request = traffic.next_request();
                        let now = start.elapsed();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent_at = start.elapsed();
                        let late = sent_at - due.max(free_at);
                        let in_traced_slice =
                            due >= warmup && is_traced_slice(slice_index(due - warmup, length));
                        let outcome = match &mut spans {
                            Some(spans) if in_traced_slice => {
                                client.traced_round_trip(&request, spans, index)
                            }
                            _ => client.round_trip(&request),
                        };
                        free_at = start.elapsed();
                        let ok = matches!(outcome, Ok(200));
                        records.push(WireRecord {
                            request,
                            due,
                            latency: ok.then(|| free_at - due),
                            late,
                            body: ok.then(|| client.body.clone()),
                        });
                        if outcome.is_err() {
                            // A timed-out or broken connection cannot be
                            // reused: reconnect, already counted failed.
                            client =
                                WireClient::connect(addr).expect("the gateway accepts a reconnect");
                        }
                        index += WIRE_CLIENTS as u64;
                    }
                })
            })
            .collect();
        // The calling thread sleeps through the schedule, waking when
        // the window opens and when it closes.
        for edge in [warmup, total] {
            std::thread::sleep(edge.saturating_sub(start.elapsed()));
            host.push(HostTicks::read());
            at_boundary();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a wire client panicked"))
            .collect()
    });

    let mut records = Vec::new();
    for (r, spans) in per_client {
        records.extend(r);
        if let (Some(tracer), Some(spans)) = (tracer.as_deref_mut(), spans) {
            tracer.absorb(spans);
        }
    }
    records.sort_by_key(|r| r.due);

    let mut sampler = StrideSampler::new(SAMPLE_CAP);
    for r in records.iter_mut().filter(|r| r.due >= warmup) {
        window.first_requests.push(r.request);
        let slice = slice_index(r.due - warmup, length);
        window.late_ns.push(r.late.as_nanos() as u64);
        // City 1 is the town (registered second).
        let town = r.request.city.0 == 1;
        match r.latency {
            Some(latency) => {
                let ns = latency.as_nanos() as u64;
                window.slices[slice].ok_ns.push(ns);
                if town {
                    window.town_slices[slice].ok_ns.push(ns);
                }
                let body = r.body.take().expect("ok responses keep a body");
                window.tally.count_body(&body);
                sampler.offer_with(|| (r.request, body));
            }
            None => {
                window.slices[slice].failed += 1;
                if town {
                    window.town_slices[slice].failed += 1;
                }
            }
        }
    }
    window.wire_samples = sampler.into_items();
    window.close(host[0], host[1])
}
