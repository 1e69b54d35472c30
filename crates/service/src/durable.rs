//! Platform-side durability wiring over [`cp_durable`]: configuration,
//! the dedicated log-writer thread with group fsync, the per-city
//! commit sink, and the counters exported through
//! [`PlatformSnapshot`](crate::PlatformSnapshot) and
//! [`TraceReport`](crate::TraceReport).
//!
//! The hot-path contract: with durability **off** the serving path pays
//! one relaxed atomic load per commit (`OnceLock::get` returning
//! `None`) and allocates nothing. With durability **on**, commit sites
//! encode nothing inline — they `try_send` a pre-built [`Event`] into a
//! bounded channel and move on; the writer thread owns all file I/O and
//! fsync policy. A full queue sheds the event and counts it
//! (`events_shed`) instead of blocking a worker: durability degrades
//! under overload, serving does not.

use crate::json::{self, JsonObject};
use cp_crowd::AnswerRecord;
use cp_durable::{Event, FsyncPolicy, WalWriter};
use cp_roadnet::NodeId;
use cp_traj::TimeOfDay;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Durability configuration for [`PlatformConfig::durability`]
/// (`None` — the default — disables all of it).
///
/// [`PlatformConfig::durability`]: crate::PlatformConfig::durability
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and the snapshot.
    pub dir: PathBuf,
    /// When the writer thread fsyncs (defaults to
    /// [`FsyncPolicy::Group`]: one fsync per drained batch).
    pub fsync: FsyncPolicy,
}

/// Bounded depth of the commit-event channel; when full, events are
/// shed and counted rather than blocking serving workers.
const QUEUE_CAPACITY: usize = 4096;

impl DurabilityConfig {
    /// Durability into `dir` with group fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Group,
        }
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }
}

/// Point-in-time durability counters, exported in
/// [`PlatformSnapshot`](crate::PlatformSnapshot) and
/// [`TraceReport`](crate::TraceReport) (and `/stats` at the gateway).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilitySnapshot {
    /// Events appended to the WAL by the writer thread.
    pub events_logged: u64,
    /// Events dropped because the commit channel was full (durability
    /// shed load; serving did not block).
    pub events_shed: u64,
    /// Frame bytes appended to the WAL by this process.
    pub wal_bytes: u64,
    /// Writer-thread I/O failures (events lost to disk errors *after*
    /// the bounded retry budget was exhausted).
    pub io_errors: u64,
    /// Retry attempts the writer made after a transient append failure.
    pub write_retries: u64,
    /// Appends that failed at least once but succeeded within the retry
    /// budget (transient faults absorbed, nothing lost).
    pub writes_recovered: u64,
    /// Checkpoints (snapshot + truncation) completed.
    pub checkpoints: u64,
    /// WAL watermark of the last checkpoint: records below this
    /// sequence are folded into the snapshot.
    pub last_checkpoint_seq: u64,
    /// Time since the last checkpoint (`None` before the first).
    pub last_checkpoint_age: Option<Duration>,
}

impl DurabilitySnapshot {
    /// The counters as a JSON object (shared by `trace_report()` and the
    /// gateway's `/stats`; the checkpoint age is not exported).
    pub fn to_json(&self) -> JsonObject {
        json::object()
            .field("events_logged", self.events_logged)
            .field("events_shed", self.events_shed)
            .field("wal_bytes", self.wal_bytes)
            .field("io_errors", self.io_errors)
            .field("write_retries", self.write_retries)
            .field("writes_recovered", self.writes_recovered)
            .field("checkpoints", self.checkpoints)
            .field("last_checkpoint_seq", self.last_checkpoint_seq)
    }
}

/// Shared durability counters (writer thread + sinks + checkpointer).
#[derive(Debug, Default)]
pub(crate) struct DurableCounters {
    pub events_logged: AtomicU64,
    pub events_shed: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub io_errors: AtomicU64,
    pub write_retries: AtomicU64,
    pub writes_recovered: AtomicU64,
    pub checkpoints: AtomicU64,
    pub last_checkpoint_seq: AtomicU64,
    pub last_checkpoint_at: Mutex<Option<Instant>>,
}

impl DurableCounters {
    pub(crate) fn snapshot(&self) -> DurabilitySnapshot {
        DurabilitySnapshot {
            events_logged: self.events_logged.load(Ordering::Relaxed),
            events_shed: self.events_shed.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            writes_recovered: self.writes_recovered.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            last_checkpoint_seq: self.last_checkpoint_seq.load(Ordering::Relaxed),
            last_checkpoint_age: self
                .last_checkpoint_at
                .lock()
                .expect("checkpoint clock poisoned")
                .map(|at| at.elapsed()),
        }
    }
}

/// Commands for the log-writer thread. Control commands carry an ack
/// channel so callers can wait for the write order to reach them.
pub(crate) enum Cmd {
    /// Append one event (the hot-path command).
    Event(Event),
    /// Seal the current segment and start the next; acks the new
    /// segment's `(first_seq, segment_index)` — the checkpoint
    /// watermark and the truncation cut.
    Rotate(SyncSender<(u64, u64)>),
    /// Flush + fsync everything sent before this command, then ack.
    Flush(SyncSender<()>),
    /// Final flush + fsync, then exit the thread.
    Stop,
}

/// The running durability machinery owned by the platform.
pub(crate) struct DurableRuntime {
    pub cfg: DurabilityConfig,
    pub tx: SyncSender<Cmd>,
    pub counters: Arc<DurableCounters>,
    pub writer: Mutex<Option<JoinHandle<()>>>,
}

impl DurableRuntime {
    /// Opens the WAL in `cfg.dir` and spawns the writer thread. An
    /// active chaos engine is threaded through so the writer can inject
    /// transient append faults into its own retry loop.
    pub(crate) fn start(
        cfg: DurabilityConfig,
        chaos: Option<Arc<crate::chaos::ChaosState>>,
    ) -> Result<DurableRuntime, cp_durable::DurableError> {
        let wal = WalWriter::open(&cfg.dir)?;
        let (tx, rx) = sync_channel(QUEUE_CAPACITY);
        let counters = Arc::new(DurableCounters::default());
        let thread_counters = Arc::clone(&counters);
        let fsync = cfg.fsync;
        let writer = std::thread::Builder::new()
            .name("cp-durable-writer".into())
            .spawn(move || writer_loop(wal, rx, fsync, &thread_counters, chaos.as_deref()))
            .expect("spawning the durability writer");
        Ok(DurableRuntime {
            cfg,
            tx,
            counters,
            writer: Mutex::new(Some(writer)),
        })
    }

    /// A commit sink for one city.
    pub(crate) fn sink(&self, city: u32) -> DurableSink {
        DurableSink {
            city,
            tx: self.tx.clone(),
            counters: Arc::clone(&self.counters),
        }
    }

    /// Seals the current WAL segment; returns the new segment's
    /// `(first_seq, segment_index)`, or `None` if the writer is gone.
    pub(crate) fn rotate(&self) -> Option<(u64, u64)> {
        let (ack_tx, ack_rx) = sync_channel(1);
        self.tx.send(Cmd::Rotate(ack_tx)).ok()?;
        ack_rx.recv().ok()
    }

    /// Blocks until every event sent before this call is flushed and
    /// fsynced.
    pub(crate) fn sync(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.tx.send(Cmd::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Stops and joins the writer thread (idempotent).
    pub(crate) fn stop_and_join(&self) {
        let _ = self.tx.send(Cmd::Stop);
        if let Some(handle) = self.writer.lock().expect("writer handle poisoned").take() {
            let _ = handle.join();
        }
    }
}

/// Bounded retry budget for one append (first attempt included).
const APPEND_ATTEMPTS: u32 = 4;
/// Base backoff before the first retry; doubles per further retry.
const APPEND_BACKOFF: Duration = Duration::from_micros(50);

/// Appends one event with bounded retry-with-backoff: a transient
/// failure (real, or injected by the chaos engine) is retried up to
/// [`APPEND_ATTEMPTS`] times with doubling sleeps. Retries and
/// recoveries are counted; only an exhausted budget becomes an
/// `io_errors` loss.
fn append_with_retry(
    wal: &mut WalWriter,
    event: &Event,
    counters: &DurableCounters,
    chaos: Option<&crate::chaos::ChaosState>,
) -> bool {
    let injected_failures = chaos
        .filter(|c| c.roll(crate::chaos::FaultSite::DurabilityIo))
        .map_or(0, |_| crate::chaos::DURABILITY_FAIL_ATTEMPTS);
    for attempt in 0..APPEND_ATTEMPTS {
        if attempt > 0 {
            counters.write_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(APPEND_BACKOFF * (1u32 << (attempt - 1).min(8)));
        }
        let ok = attempt >= injected_failures && wal.append(event).is_ok();
        if ok {
            if attempt > 0 {
                counters.writes_recovered.fetch_add(1, Ordering::Relaxed);
            }
            return true;
        }
    }
    counters.io_errors.fetch_add(1, Ordering::Relaxed);
    false
}

/// The writer thread: drain whatever is queued, append it all, then one
/// flush (+ fsync under [`FsyncPolicy::Group`]) for the whole batch —
/// group commit. I/O errors are counted, never propagated into serving.
fn writer_loop(
    mut wal: WalWriter,
    rx: Receiver<Cmd>,
    fsync: FsyncPolicy,
    counters: &DurableCounters,
    chaos: Option<&crate::chaos::ChaosState>,
) {
    let mut stopping = false;
    'outer: while !stopping {
        let first = match rx.recv() {
            Ok(cmd) => cmd,
            Err(_) => break 'outer, // every sender dropped
        };
        let mut pending = Some(first);
        let mut batch_dirty = false;
        loop {
            let cmd = match pending.take() {
                Some(cmd) => cmd,
                None => match rx.try_recv() {
                    Ok(cmd) => cmd,
                    Err(_) => break,
                },
            };
            match cmd {
                Cmd::Event(event) => {
                    if append_with_retry(&mut wal, &event, counters, chaos) {
                        counters.events_logged.fetch_add(1, Ordering::Relaxed);
                        batch_dirty = true;
                    }
                }
                Cmd::Rotate(ack) => {
                    // rotate() syncs the sealed segment internally.
                    match wal.rotate() {
                        Ok(first_seq) => {
                            let _ = ack.send((first_seq, wal.segment_index()));
                        }
                        Err(_) => {
                            counters.io_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = ack.send((wal.next_seq(), wal.segment_index()));
                        }
                    }
                    batch_dirty = false;
                }
                Cmd::Flush(ack) => {
                    if wal.sync().is_err() {
                        counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    batch_dirty = false;
                    let _ = ack.send(());
                }
                Cmd::Stop => {
                    stopping = true;
                    break;
                }
            }
        }
        if batch_dirty {
            let flushed = match fsync {
                FsyncPolicy::Group => wal.sync(),
                FsyncPolicy::Never => wal.flush(),
            };
            if flushed.is_err() {
                counters.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        counters
            .wal_bytes
            .store(wal.bytes_written(), Ordering::Relaxed);
    }
    // Clean exit always leaves the log durable, whatever the policy.
    if wal.sync().is_err() {
        counters.io_errors.fetch_add(1, Ordering::Relaxed);
    }
    counters
        .wal_bytes
        .store(wal.bytes_written(), Ordering::Relaxed);
}

/// Per-city commit sink installed on [`RouteService`] and (via the
/// answer observer) on the city's crowd desk. Non-blocking: a full
/// channel sheds the event and counts it.
///
/// [`RouteService`]: crate::RouteService
pub(crate) struct DurableSink {
    city: u32,
    tx: SyncSender<Cmd>,
    counters: Arc<DurableCounters>,
}

impl DurableSink {
    fn send(&self, event: Event) {
        if self.tx.try_send(Cmd::Event(event)).is_err() {
            self.counters.events_shed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Logs one truth commit. The caller passes the path's edges
    /// (collected before the entry moved into the store).
    pub(crate) fn log_truth(
        &self,
        seq: u64,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        confidence: f64,
        edges: Vec<u32>,
    ) {
        self.send(Event::Truth {
            city: self.city,
            seq,
            from: from.0,
            to: to.0,
            departure: departure.0,
            confidence,
            edges,
        });
    }

    /// Logs one crowd answer (invoked by the desk's answer observer,
    /// under the desk's platform lock — generation order is channel
    /// order).
    pub(crate) fn log_answer(&self, record: &AnswerRecord) {
        self.send(Event::Answer {
            city: self.city,
            generation: record.generation,
            worker: record.worker.0,
            landmark: record.landmark.0,
            correct: record.correct,
            response_time: record.response_time,
        });
    }
}

impl std::fmt::Debug for DurableSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableSink")
            .field("city", &self.city)
            .finish()
    }
}
