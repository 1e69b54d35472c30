//! The platform's ingress: every city's bounded queue of truth misses,
//! its in-flight keys, the weighted deficit-round-robin schedule over
//! the queues and the admission/dispatch ledger, all behind one mutex.
//!
//! Truth hits are served on the submitting thread and only book
//! `admitted` and `served_inline` here, so the queues carry misses
//! alone, each of which costs a worker far more than the lock hold that
//! moves it. One lock makes every invariant a local argument:
//!
//! * every ledger term moves under the lock, so `admitted == batched +
//!   unbatched + served_inline + deduped + shed + queue_depth` holds
//!   per city and platform-wide whenever the lock is free;
//! * cross-worker deduplication happens at admission: a queued or
//!   running miss keeps its [`RequestKey`] in its city's in-flight map
//!   until the worker that served it has committed the truth and
//!   released the key, and an identical miss admitted meanwhile
//!   attaches its ticket to that entry instead of queueing (booked
//!   `deduped`, never shed as `Busy`). A miss admitted after the
//!   release finds no entry and queues, and its run's truth check
//!   serves it from the committed truth, so every key resolves once;
//! * a worker parks on `work` only after [`Ingress::drr_pick`] found
//!   every queue empty under the lock, and a submission that pushes a
//!   job under the same lock wakes one parked worker, so no wake-up is
//!   lost and the park needs no timeout;
//! * a blocking submitter parks on `not_full`, shared by every city, so
//!   pops, offboarding and shutdown wake all parked submitters (waking
//!   one could pick a submitter whose city is still full);
//! * shutdown sets one `draining` flag: a submission either saw it and
//!   was refused, or pushed its job before it was set, and workers exit
//!   only when it is set and every queue is empty.
//!
//! [`Ingress`] itself is plain data with no clock, thread or condvar:
//! [`IngressLock`] adds the mutex, the two condvars and the contention
//! counters.

use crate::error::ServiceError;
use crate::executor::{Request, RequestKey};
use crate::platform::TicketSlot;
use crate::trace::LockStats;
use crate::world::CityId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One admitted miss waiting for a worker.
pub(crate) struct Job {
    pub(crate) req: Request,
    /// The dedup identity that keys the city's in-flight map.
    pub(crate) key: RequestKey,
    /// The origin grid cell runs coalesce on, computed at submit.
    pub(crate) cell: (i32, i32),
    pub(crate) slot: Arc<TicketSlot>,
    /// When the job entered its queue: the queue-wait stage starts
    /// here, after the submit-path probe, not at submit entry.
    pub(crate) admitted_at: Instant,
}

/// One city's queue, in-flight keys, DRR state and ledger.
#[derive(Default)]
pub(crate) struct CityIngress {
    pub(crate) jobs: VecDeque<Job>,
    /// The key of every queued or running job, with the tickets of the
    /// identical misses admitted since, which the job's outcome serves.
    in_flight: HashMap<RequestKey, Vec<Arc<TicketSlot>>>,
    /// DRR weight (≥ 1): seed dispatches granted per rotation while
    /// backlogged.
    pub(crate) weight: u32,
    /// Seed dispatches left in the city's current quantum.
    deficit: u32,
    /// Set by offboarding: submissions are refused and the queue stays
    /// empty forever, so the rotation skips the city.
    pub(crate) offboarded: bool,
    /// Queued jobs and their followers shed with a terminal error by
    /// offboarding.
    pub(crate) shed: u64,
    /// Requests admitted: queued, attached to an in-flight job, or
    /// served at submit.
    pub(crate) admitted: u64,
    /// Admitted truth hits served on the submitting thread.
    pub(crate) served_inline: u64,
    /// Admitted misses attached to an identical in-flight job instead
    /// of queueing (an offboarding drain that sheds the job moves its
    /// followers to `shed`).
    pub(crate) deduped: u64,
    /// Non-blocking submissions shed because the queue was full.
    pub(crate) rejected_busy: u64,
    /// Jobs dispatched inside a coalesced run of ≥ 2.
    pub(crate) batched_requests: u64,
    /// Jobs dispatched alone.
    pub(crate) unbatched_requests: u64,
    /// Coalesced runs (of ≥ 2) dispatched.
    pub(crate) batch_runs: u64,
    /// Largest run dispatched (high-water mark).
    pub(crate) batch_max: u64,
}

/// Everything the submit and dispatch paths share.
#[derive(Default)]
pub(crate) struct Ingress {
    /// Set once by shutdown.
    pub(crate) draining: bool,
    /// The city whose quantum the rotation is spending.
    cursor: usize,
    /// Workers parked on `work`.
    idle_workers: usize,
    /// Submitters parked on `not_full`.
    pub(crate) blocked_submitters: usize,
    /// Indexed by city id, in registration order.
    pub(crate) cities: Vec<CityIngress>,
    /// Submission attempts, each booked in the same hold as its
    /// outcome, so the platform-wide ledger balances at every instant.
    pub(crate) submitted: u64,
    /// Refusals: an unregistered city, a node outside the city's graph,
    /// a draining platform, an offboarded city.
    pub(crate) rejected_unknown_city: u64,
    pub(crate) rejected_unknown_node: u64,
    pub(crate) rejected_shutdown: u64,
    pub(crate) rejected_offboarded: u64,
}

impl Ingress {
    /// Appends a city with DRR weight `weight` (clamped to ≥ 1).
    pub(crate) fn register(&mut self, weight: u32) {
        self.cities.push(CityIngress {
            weight: weight.max(1),
            ..CityIngress::default()
        });
    }

    /// Whether a request for `city` with dedup identity `key` may be
    /// admitted now. A truth hit (`inline`) and a miss whose key is in
    /// flight need no queue space; any other miss finding `capacity`
    /// jobs queued gets [`ServiceError::Busy`]. Offboarding wins over
    /// draining: a deregistered city's callers get the terminal answer,
    /// whichever flag was raised first.
    pub(crate) fn check(
        &self,
        city: usize,
        inline: bool,
        key: &RequestKey,
        capacity: usize,
    ) -> Result<(), ServiceError> {
        let c = &self.cities[city];
        if c.offboarded {
            Err(ServiceError::CityOffboarded(CityId(city as u32)))
        } else if self.draining {
            Err(ServiceError::ShuttingDown)
        } else if inline || c.jobs.len() < capacity || c.in_flight.contains_key(key) {
            Ok(())
        } else {
            Err(ServiceError::Busy)
        }
    }

    /// Books an admitted truth hit for `city`, served on the submitting
    /// thread.
    pub(crate) fn admit_hit(&mut self, city: usize) {
        self.submitted += 1;
        let c = &mut self.cities[city];
        c.admitted += 1;
        c.served_inline += 1;
    }

    /// Books an admitted miss for `city`: it attaches its ticket to the
    /// in-flight entry of its key, or queues and opens that entry.
    /// Returns whether it queued (a parked worker must be woken).
    pub(crate) fn admit_miss(&mut self, city: usize, job: Job) -> bool {
        self.submitted += 1;
        let c = &mut self.cities[city];
        c.admitted += 1;
        if let Some(followers) = c.in_flight.get_mut(&job.key) {
            followers.push(job.slot);
            c.deduped += 1;
            return false;
        }
        c.in_flight.insert(job.key, Vec::new());
        c.jobs.push_back(job);
        true
    }

    /// Closes the in-flight entries of a served `run` of `city` and
    /// returns each job's followers, in run order. The worker calls it
    /// once the run's truths are committed.
    pub(crate) fn release(&mut self, city: usize, run: &[Job]) -> Vec<Vec<Arc<TicketSlot>>> {
        let c = &mut self.cities[city];
        run.iter()
            .map(|job| c.in_flight.remove(&job.key).unwrap_or_default())
            .collect()
    }

    /// Books a submission for `city` refused with `e`.
    pub(crate) fn refuse(&mut self, city: usize, e: &ServiceError) {
        self.submitted += 1;
        match e {
            ServiceError::Busy => self.cities[city].rejected_busy += 1,
            ServiceError::ShuttingDown => self.rejected_shutdown += 1,
            ServiceError::CityOffboarded(_) => self.rejected_offboarded += 1,
            ServiceError::UnknownCity(_) => self.rejected_unknown_city += 1,
            _ => self.rejected_unknown_node += 1,
        }
    }

    /// One weighted deficit-round-robin decision. When the cursor rests
    /// on a backlogged city with no deficit left, the city is granted
    /// its quantum (its weight); each pick spends one unit and a spent
    /// quantum moves the cursor on. An empty queue forfeits its
    /// deficit, so an idle city cannot bank turns and burst-starve the
    /// others later — which is also why a hot city may take every
    /// worker the idle ones leave. `None` when every queue is empty.
    pub(crate) fn drr_pick(&mut self) -> Option<usize> {
        let n = self.cities.len();
        for _ in 0..n {
            let i = self.cursor % n;
            let c = &mut self.cities[i];
            if !c.jobs.is_empty() {
                if c.deficit == 0 {
                    c.deficit = c.weight;
                }
                c.deficit -= 1;
                self.cursor = if c.deficit == 0 { i + 1 } else { i };
                return Some(i);
            }
            c.deficit = 0;
            self.cursor = i + 1;
        }
        None
    }

    /// Pops `city`'s front job plus every queued job in the same origin
    /// cell, in queue order, up to `max_batch`, and books the run. Time
    /// buckets mix freely: the fused mining path shares the all-day
    /// origin artifacts across them. Never waits for more jobs; `city`
    /// is one [`Ingress::drr_pick`] just picked, so its queue is not
    /// empty.
    pub(crate) fn pop_run(&mut self, city: usize, max_batch: usize) -> Vec<Job> {
        let c = &mut self.cities[city];
        let seed = c.jobs.pop_front().expect("a picked city has a queued job");
        let mut run = vec![seed];
        let mut i = 0;
        while i < c.jobs.len() && run.len() < max_batch {
            if c.jobs[i].cell == run[0].cell {
                run.push(c.jobs.remove(i).expect("index in bounds"));
            } else {
                i += 1;
            }
        }
        let n = run.len() as u64;
        if n == 1 {
            c.unbatched_requests += 1;
        } else {
            c.batched_requests += n;
            c.batch_runs += 1;
            c.batch_max = c.batch_max.max(n);
        }
        run
    }

    /// Offboards `city`: refuses its later submissions and takes the
    /// ticket of every queued job and of every follower attached to one,
    /// booked as shed. Running jobs keep their followers. `None` when
    /// the city was already offboarded.
    pub(crate) fn offboard(&mut self, city: usize) -> Option<Vec<Arc<TicketSlot>>> {
        let c = &mut self.cities[city];
        if c.offboarded {
            return None;
        }
        c.offboarded = true;
        let mut dropped = Vec::with_capacity(c.jobs.len());
        for job in c.jobs.drain(..) {
            let followers = c.in_flight.remove(&job.key).unwrap_or_default();
            c.deduped -= followers.len() as u64;
            dropped.push(job.slot);
            dropped.extend(followers);
        }
        c.shed += dropped.len() as u64;
        Some(dropped)
    }
}

/// The one ingress mutex, the two condvars parked on it and its
/// contention counters.
#[derive(Default)]
pub(crate) struct IngressLock {
    state: Mutex<Ingress>,
    /// Idle workers park here until a job is queued or draining starts.
    work: Condvar,
    /// Blocking submitters park here until a job leaves a queue, a city
    /// is offboarded or draining starts.
    not_full: Condvar,
    /// Contention on `state` (timed once any city traces).
    pub(crate) locks: LockStats,
}

impl IngressLock {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Ingress> {
        self.locks.lock(&self.state)
    }

    /// Parks an idle worker until [`IngressLock::wake_worker`] or
    /// [`IngressLock::drain`].
    pub(crate) fn wait_for_work<'a>(
        &self,
        mut g: MutexGuard<'a, Ingress>,
    ) -> MutexGuard<'a, Ingress> {
        g.idle_workers += 1;
        let mut g = self.work.wait(g).expect("ingress poisoned");
        g.idle_workers -= 1;
        g
    }

    /// Parks a blocking submitter until [`IngressLock::wake_submitters`]
    /// or [`IngressLock::drain`].
    pub(crate) fn wait_for_space<'a>(
        &self,
        mut g: MutexGuard<'a, Ingress>,
    ) -> MutexGuard<'a, Ingress> {
        g.blocked_submitters += 1;
        let mut g = self.not_full.wait(g).expect("ingress poisoned");
        g.blocked_submitters -= 1;
        g
    }

    /// Wakes one parked worker, if any, after a job was pushed.
    pub(crate) fn wake_worker(&self, g: &Ingress) {
        if g.idle_workers > 0 {
            self.work.notify_one();
        }
    }

    /// Wakes every parked submitter, if any, after a job left a queue
    /// or a city was offboarded.
    pub(crate) fn wake_submitters(&self, g: &Ingress) {
        if g.blocked_submitters > 0 {
            self.not_full.notify_all();
        }
    }

    /// Starts draining: later submissions are refused, and every parked
    /// thread wakes to see it.
    pub(crate) fn drain(&self) {
        let mut g = self.lock();
        g.draining = true;
        if g.idle_workers > 0 {
            self.work.notify_all();
        }
        self.wake_submitters(&g);
    }
}
