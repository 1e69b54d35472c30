//! The crowd desk: shared, quota-safe access to a crowd of workers.
//!
//! The paper's orchestrator mutated a privately owned [`Platform`]
//! (`assign` → `ask` → `award` → `finish`), which confines crowd
//! resolution to one thread: two concurrent resolvers over *separate*
//! platforms would happily assign the same human worker an unbounded
//! number of simultaneous tasks, violating the per-worker capacity model
//! (η_#q, the outstanding-task quota). This module is the shared
//! replacement:
//!
//! * [`CrowdObserve`] — the read-only observables worker selection
//!   needs (population, answer history, response times, outstanding
//!   counts). Implemented by [`Platform`] itself (exclusive ownership)
//!   and by every desk (shared ownership), so the selection pipeline is
//!   generic over either.
//! * [`CrowdDesk`] — crowd I/O behind `&self`: the **reserve → ask →
//!   commit** protocol. An assignment starts with
//!   [`CrowdDesk::try_reserve`], which atomically checks the worker's
//!   outstanding count against the desk's hard
//!   [`max_outstanding`](CrowdDesk::max_outstanding) cap and either
//!   takes the slot or rejects with the typed [`QuotaExhausted`]
//!   outcome. Questions are then posed with [`ask`](CrowdDesk::ask),
//!   and the slot is returned with exactly one of
//!   [`commit`](CrowdDesk::commit) (task completed, answers kept) or
//!   [`release`](CrowdDesk::release) (abandoned mid-flight). The
//!   [`Reservation`] RAII guard enforces the exactly-once half of the
//!   contract: dropping an uncommitted guard releases the slot.
//! * [`SharedCrowd`] — the `Arc`-shareable desk over a simulated
//!   [`Platform`]: interior mutability (one mutex), a hard per-worker
//!   cap, and contention counters ([`DeskStats`]) so oversubscription
//!   attempts are observable, not silent.
//!   `SharedCrowd::new(platform, u32::MAX)` is the pre-redesign
//!   direct-platform behaviour (unconditional assignment — a cap that
//!   can never bind): the reference the equivalence proptest checks a
//!   capped desk against.
//!
//! With N resolvers sharing one [`SharedCrowd`], a worker's outstanding
//! count can never exceed `max_outstanding`: every increment happens
//! inside [`try_reserve`](CrowdDesk::try_reserve) under the desk mutex,
//! where the cap is checked first.

use crate::platform::{AnswerTally, Platform, PlatformState, StateSizeMismatch};
use crate::population::WorkerPopulation;
use crate::worker::WorkerId;
use cp_roadnet::{Landmark, LandmarkId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One recorded crowd answer, as seen by an [`AnswerObserver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerRecord {
    /// The worker who answered.
    pub worker: WorkerId,
    /// The landmark the question was about.
    pub landmark: LandmarkId,
    /// Whether the answer matched ground truth.
    pub correct: bool,
    /// Sampled response time, seconds.
    pub response_time: f64,
    /// The platform generation *after* this answer. Observers are
    /// invoked under the desk's platform lock, so for a given desk the
    /// observed generations are strictly increasing.
    pub generation: u64,
}

/// Callback invoked for every answer a desk records (durability hook).
/// Called with the platform lock held — keep it non-blocking (e.g. a
/// bounded-channel `try_send`).
pub type AnswerObserver = Box<dyn Fn(&AnswerRecord) + Send + Sync>;

/// Durability access to a desk's underlying platform state: export for
/// snapshots, import for recovery, answer re-application for log
/// replay, and the observer hook feeding the event log.
pub trait CrowdState: Send + Sync {
    /// Point-in-time copy of the mutable platform state.
    fn export_state(&self) -> PlatformState;
    /// Replaces the platform state with a previously exported one.
    fn import_state(&self, state: &PlatformState) -> Result<(), StateSizeMismatch>;
    /// Re-applies one logged answer (no sampling, RNG untouched).
    fn apply_answer(&self, record: &AnswerRecord);
    /// Installs the answer observer. The first installation wins;
    /// returns `false` (and ignores `observer`) if one is already set.
    fn set_answer_observer(&self, observer: AnswerObserver) -> bool;
}

/// Read-only crowd observables: everything the worker-selection pipeline
/// (familiarity matrix, response-time filter, quota filter) is allowed to
/// see. `Platform` implements this directly for exclusive single-owner
/// use; desks implement it over their shared interior.
pub trait CrowdObserve {
    /// The (immutable) worker population.
    fn population(&self) -> &WorkerPopulation;
    /// All (landmark, tally) answer records of one worker, in landmark
    /// order (a point-in-time copy).
    fn worker_history(&self, worker: WorkerId) -> Vec<(LandmarkId, AnswerTally)>;
    /// Observed response times of a worker, seconds (a point-in-time
    /// copy).
    fn response_times(&self, worker: WorkerId) -> Vec<f64>;
    /// `(count, left-to-right sum)` of the worker's observed response
    /// times — everything the exponential MLE needs, without copying
    /// the history. Implementations should override the default (which
    /// goes through [`CrowdObserve::response_times`] and allocates).
    fn response_time_stats(&self, worker: WorkerId) -> (usize, f64) {
        let times = self.response_times(worker);
        (times.len(), times.iter().sum())
    }
    /// Per-worker `(outstanding, response-time count, response-time
    /// sum)` across the whole population, indexed by worker — the bulk
    /// read worker selection makes once per task. Shared desks override
    /// this to capture the vector under a **single** lock acquisition
    /// instead of two per worker.
    fn selection_snapshot(&self) -> Vec<(u32, usize, f64)> {
        self.population()
            .ids()
            .map(|w| {
                let (count, sum) = self.response_time_stats(w);
                (self.outstanding(w), count, sum)
            })
            .collect()
    }
    /// The answer-history generation together with every worker's
    /// [`CrowdObserve::worker_history`], indexed by worker — the bulk
    /// read a knowledge-model build makes. The rows belong to exactly
    /// that generation, so shared desks must override this to capture
    /// both under a **single** lock acquisition: answers landing between
    /// per-worker reads would otherwise mix states.
    fn history_snapshot(&self) -> (u64, Vec<Vec<(LandmarkId, AnswerTally)>>) {
        let generation = self.generation();
        let rows = self
            .population()
            .ids()
            .map(|w| self.worker_history(w))
            .collect();
        (generation, rows)
    }
    /// Number of outstanding (reserved, unfinished) tasks of a worker.
    fn outstanding(&self, worker: WorkerId) -> u32;
    /// Reward balance of a worker.
    fn points(&self, worker: WorkerId) -> f64;
    /// Monotone answer-history version: bumped on every recorded answer.
    /// Consumers cache derived state (e.g. the knowledge model) keyed by
    /// this and rebuild when it moves.
    fn generation(&self) -> u64;
}

impl CrowdObserve for Platform {
    fn population(&self) -> &WorkerPopulation {
        Platform::population(self)
    }

    fn worker_history(&self, worker: WorkerId) -> Vec<(LandmarkId, AnswerTally)> {
        Platform::worker_history(self, worker)
    }

    fn response_times(&self, worker: WorkerId) -> Vec<f64> {
        self.observed_response_times(worker).to_vec()
    }

    fn response_time_stats(&self, worker: WorkerId) -> (usize, f64) {
        let times = self.observed_response_times(worker);
        (times.len(), times.iter().sum())
    }

    fn outstanding(&self, worker: WorkerId) -> u32 {
        Platform::outstanding(self, worker)
    }

    fn points(&self, worker: WorkerId) -> f64 {
        Platform::points(self, worker)
    }

    fn generation(&self) -> u64 {
        Platform::generation(self)
    }
}

/// A reservation was refused: the worker already holds
/// `max_outstanding` concurrent tasks. Callers skip the worker (the
/// quota protects the human) and may try the next candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaExhausted {
    /// The worker whose quota is exhausted.
    pub worker: WorkerId,
    /// Their outstanding count at rejection time.
    pub outstanding: u32,
    /// The desk's hard cap.
    pub max_outstanding: u32,
}

impl std::fmt::Display for QuotaExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {:?} quota exhausted: {} of {} outstanding tasks",
            self.worker, self.outstanding, self.max_outstanding
        )
    }
}

impl std::error::Error for QuotaExhausted {}

/// Reservation / commit / release accounting of a desk. The invariant a
/// drained desk must satisfy: `reserved == committed + released` (and
/// every worker's outstanding count back to zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeskStats {
    /// Reservations granted.
    pub reserved: u64,
    /// Reservations refused at the cap (contention).
    pub quota_rejected: u64,
    /// Reservations committed (task completed).
    pub committed: u64,
    /// Reservations released without completion.
    pub released: u64,
}

impl DeskStats {
    /// Reservations currently held (granted but neither committed nor
    /// released). Saturating: a snapshot taken while resolvers are
    /// mid-flight is approximate, never an underflow.
    pub fn in_flight(&self) -> u64 {
        self.reserved
            .saturating_sub(self.committed.saturating_add(self.released))
    }

    /// Whether every granted reservation has been settled exactly once.
    /// Exact equality, not `in_flight() == 0`: an over-settlement bug
    /// (a reservation committed *and* released) must read as
    /// not-drained, never be masked by saturation.
    pub fn is_drained(&self) -> bool {
        self.committed + self.released == self.reserved
    }
}

/// Crowd I/O behind `&self`: the reserve → ask → commit protocol.
///
/// Implementations must uphold two guarantees:
///
/// 1. **the cap is atomic** — [`try_reserve`](CrowdDesk::try_reserve)
///    checks the worker's outstanding count against
///    [`max_outstanding`](CrowdDesk::max_outstanding) and increments it
///    in one critical section, so concurrent resolvers can never
///    oversubscribe a worker;
/// 2. **slots settle exactly once** — each successful reservation is
///    balanced by exactly one [`commit`](CrowdDesk::commit) or
///    [`release`](CrowdDesk::release) (use [`Reservation`] to get this
///    by construction).
pub trait CrowdDesk: CrowdObserve + Send + Sync {
    /// The hard per-worker cap on concurrently outstanding tasks.
    fn max_outstanding(&self) -> u32;

    /// Reserves one assignment slot on `worker`, or rejects with the
    /// typed [`QuotaExhausted`] outcome when the cap is reached. Prefer
    /// [`Reservation::acquire`], which guarantees the slot is settled.
    fn try_reserve(&self, worker: WorkerId) -> Result<(), QuotaExhausted>;

    /// Asks the reserved worker the binary question about `landmark`
    /// whose correct answer is `truth`; returns `(answer,
    /// response_time_s)`.
    fn ask(&self, worker: WorkerId, landmark: &Landmark, truth: bool) -> (bool, f64);

    /// Credits reward points.
    fn award(&self, worker: WorkerId, points: f64);

    /// Settles a reservation as completed (frees the slot, keeps the
    /// answers).
    fn commit(&self, worker: WorkerId);

    /// Settles a reservation as abandoned (frees the slot).
    fn release(&self, worker: WorkerId);

    /// Reservation/contention counters.
    fn desk_stats(&self) -> DeskStats;
}

/// RAII guard for one reserved assignment slot: commits explicitly,
/// releases on drop — so a reservation is settled exactly once on every
/// control path, including early returns and panics.
#[must_use = "an unused reservation releases the slot immediately"]
pub struct Reservation {
    desk: Arc<dyn CrowdDesk>,
    worker: WorkerId,
    open: bool,
}

impl Reservation {
    /// Reserves a slot on `worker`, returning the guard that settles it.
    pub fn acquire(desk: &Arc<dyn CrowdDesk>, worker: WorkerId) -> Result<Self, QuotaExhausted> {
        desk.try_reserve(worker)?;
        Ok(Reservation {
            desk: Arc::clone(desk),
            worker,
            open: true,
        })
    }

    /// The reserved worker.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// Settles the reservation as completed.
    pub fn commit(mut self) {
        self.open = false;
        self.desk.commit(self.worker);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.open {
            self.desk.release(self.worker);
        }
    }
}

impl std::fmt::Debug for Reservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reservation")
            .field("worker", &self.worker)
            .field("open", &self.open)
            .finish()
    }
}

/// The `Arc`-shareable desk over a simulated [`Platform`]: one mutex
/// around the platform, a hard per-worker `max_outstanding` cap enforced
/// inside [`try_reserve`](CrowdDesk::try_reserve), and contention
/// counters. N concurrent resolvers sharing one `SharedCrowd` can never
/// assign a worker more than `max_outstanding` simultaneous tasks.
pub struct SharedCrowd {
    /// The population, shared outside the mutex (it is immutable), so
    /// selection reads don't serialise on crowd I/O.
    population: Arc<WorkerPopulation>,
    inner: Mutex<Platform>,
    max_outstanding: u32,
    reserved: AtomicU64,
    quota_rejected: AtomicU64,
    committed: AtomicU64,
    released: AtomicU64,
    /// Per-worker high-water mark of the outstanding count, maintained
    /// inside the reserve critical section (exact, not sampled).
    high_water: Mutex<Vec<u32>>,
    /// Durability hook: invoked (under the platform lock) for every
    /// recorded answer. Unset desks pay one atomic load per ask.
    observer: OnceLock<AnswerObserver>,
}

impl SharedCrowd {
    /// Wraps `platform` with a hard per-worker cap of `max_outstanding`
    /// concurrent tasks (clamped to ≥ 1).
    pub fn new(platform: Platform, max_outstanding: u32) -> Self {
        let n = platform.population().len();
        SharedCrowd {
            population: platform.population_arc(),
            inner: Mutex::new(platform),
            max_outstanding: max_outstanding.max(1),
            reserved: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            released: AtomicU64::new(0),
            high_water: Mutex::new(vec![0; n]),
            observer: OnceLock::new(),
        }
    }

    /// The highest outstanding count `worker` ever reached on this desk.
    pub fn high_water(&self, worker: WorkerId) -> u32 {
        self.high_water.lock().expect("desk poisoned")[worker.index()]
    }

    fn lock(&self) -> MutexGuard<'_, Platform> {
        self.inner.lock().expect("crowd desk poisoned")
    }
}

impl std::fmt::Debug for SharedCrowd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCrowd")
            .field("workers", &self.population.len())
            .field("max_outstanding", &self.max_outstanding)
            .field("stats", &self.desk_stats())
            .finish()
    }
}

impl CrowdObserve for SharedCrowd {
    fn population(&self) -> &WorkerPopulation {
        &self.population
    }

    fn worker_history(&self, worker: WorkerId) -> Vec<(LandmarkId, AnswerTally)> {
        self.lock().worker_history(worker)
    }

    fn response_times(&self, worker: WorkerId) -> Vec<f64> {
        self.lock().observed_response_times(worker).to_vec()
    }

    fn response_time_stats(&self, worker: WorkerId) -> (usize, f64) {
        CrowdObserve::response_time_stats(&*self.lock(), worker)
    }

    fn selection_snapshot(&self) -> Vec<(u32, usize, f64)> {
        // One lock acquisition for the whole population.
        CrowdObserve::selection_snapshot(&*self.lock())
    }

    fn history_snapshot(&self) -> (u64, Vec<Vec<(LandmarkId, AnswerTally)>>) {
        // One lock acquisition: the rows and the generation agree.
        CrowdObserve::history_snapshot(&*self.lock())
    }

    fn outstanding(&self, worker: WorkerId) -> u32 {
        self.lock().outstanding(worker)
    }

    fn points(&self, worker: WorkerId) -> f64 {
        self.lock().points(worker)
    }

    fn generation(&self) -> u64 {
        self.lock().generation()
    }
}

impl CrowdDesk for SharedCrowd {
    fn max_outstanding(&self) -> u32 {
        self.max_outstanding
    }

    fn try_reserve(&self, worker: WorkerId) -> Result<(), QuotaExhausted> {
        let mut platform = self.lock();
        let outstanding = platform.outstanding(worker);
        if outstanding >= self.max_outstanding {
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(QuotaExhausted {
                worker,
                outstanding,
                max_outstanding: self.max_outstanding,
            });
        }
        platform.assign(worker);
        // High-water bookkeeping stays inside the platform lock so the
        // recorded peak is exact.
        let mut hw = self.high_water.lock().expect("desk poisoned");
        let slot = &mut hw[worker.index()];
        *slot = (*slot).max(outstanding + 1);
        self.reserved.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn ask(&self, worker: WorkerId, landmark: &Landmark, truth: bool) -> (bool, f64) {
        let mut platform = self.lock();
        let (answer, rt) = platform.ask(worker, landmark, truth);
        // Notified while the platform lock is held: the observer sees
        // answers in strict generation order, which is what lets log
        // replay reproduce the history byte-for-byte.
        if let Some(observer) = self.observer.get() {
            observer(&AnswerRecord {
                worker,
                landmark: landmark.id,
                correct: answer == truth,
                response_time: rt,
                generation: platform.generation(),
            });
        }
        (answer, rt)
    }

    fn award(&self, worker: WorkerId, points: f64) {
        self.lock().award(worker, points);
    }

    fn commit(&self, worker: WorkerId) {
        let mut platform = self.lock();
        platform.finish(worker);
        // Incremented while the platform lock is held (as in
        // `try_reserve`), so a locked `desk_stats` snapshot is exact.
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    fn release(&self, worker: WorkerId) {
        let mut platform = self.lock();
        platform.finish(worker);
        self.released.fetch_add(1, Ordering::Relaxed);
    }

    fn desk_stats(&self) -> DeskStats {
        // Every counter mutation happens under the platform lock, so a
        // snapshot taken under the same lock is internally consistent —
        // `in_flight` can never go negative, even mid-flight.
        let _platform = self.lock();
        DeskStats {
            reserved: self.reserved.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
        }
    }
}

impl CrowdState for SharedCrowd {
    fn export_state(&self) -> PlatformState {
        self.lock().export_state()
    }

    fn import_state(&self, state: &PlatformState) -> Result<(), StateSizeMismatch> {
        self.lock().import_state(state)
    }

    fn apply_answer(&self, record: &AnswerRecord) {
        self.lock().apply_answer(
            record.worker,
            record.landmark,
            record.correct,
            record.response_time,
            record.generation,
        );
    }

    fn set_answer_observer(&self, observer: AnswerObserver) -> bool {
        self.observer.set(observer).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::AnswerModel;
    use crate::population::PopulationParams;
    use cp_roadnet::{generate_city, generate_landmarks, CityParams, LandmarkGenParams};

    fn platform(seed: u64) -> (cp_roadnet::LandmarkSet, Platform) {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), seed);
        let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), seed);
        (lms, Platform::new(pop, AnswerModel::default(), seed))
    }

    #[test]
    fn desks_are_send_sync() {
        fn assert_shareable<T: Send + Sync + 'static>() {}
        assert_shareable::<SharedCrowd>();
        assert_shareable::<Arc<dyn CrowdDesk>>();
    }

    #[test]
    fn answer_observer_sees_every_ask_in_generation_order() {
        let (lms, p) = platform(5);
        let desk = SharedCrowd::new(p, 4);
        let seen: Arc<Mutex<Vec<AnswerRecord>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        assert!(desk.set_answer_observer(Box::new(move |r| sink.lock().unwrap().push(*r))));
        // A second installation is refused, not silently swapped.
        assert!(!desk.set_answer_observer(Box::new(|_| {})));
        let lm = lms.get(LandmarkId(0)).clone();
        for i in 0..6u32 {
            let (answer, rt) = desk.ask(WorkerId(i % 3), &lm, i % 2 == 0);
            let rec = seen.lock().unwrap().last().copied().unwrap();
            assert_eq!(rec.correct, answer == (i % 2 == 0));
            assert_eq!(rec.response_time, rt);
        }
        let recs = seen.lock().unwrap();
        assert_eq!(recs.len(), 6);
        assert!(recs
            .windows(2)
            .all(|w| w[0].generation + 1 == w[1].generation));
        // Replaying the records onto a second desk (same seed, fresh
        // platform) reproduces the history exactly.
        let (_, q) = platform(5);
        let replay = SharedCrowd::new(q, 4);
        for r in recs.iter() {
            replay.apply_answer(r);
        }
        let (a, b) = (desk.export_state(), replay.export_state());
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.history, b.history);
        assert_eq!(a.response_times, b.response_times);
    }

    #[test]
    fn cap_rejects_with_typed_outcome() {
        let (_, p) = platform(3);
        let desk = SharedCrowd::new(p, 2);
        let w = WorkerId(0);
        assert!(desk.try_reserve(w).is_ok());
        assert!(desk.try_reserve(w).is_ok());
        let err = desk.try_reserve(w).unwrap_err();
        assert_eq!(
            err,
            QuotaExhausted {
                worker: w,
                outstanding: 2,
                max_outstanding: 2
            }
        );
        assert!(err.to_string().contains("quota exhausted"));
        let stats = desk.desk_stats();
        assert_eq!(stats.reserved, 2);
        assert_eq!(stats.quota_rejected, 1);
        assert_eq!(stats.in_flight(), 2);
        desk.commit(w);
        desk.release(w);
        assert_eq!(desk.outstanding(w), 0);
        assert!(desk.desk_stats().is_drained());
        assert_eq!(desk.high_water(w), 2);
    }

    #[test]
    fn reservation_guard_settles_exactly_once() {
        let (_, p) = platform(5);
        let desk: Arc<dyn CrowdDesk> = Arc::new(SharedCrowd::new(p, 1));
        let w = WorkerId(7);
        {
            let r = Reservation::acquire(&desk, w).unwrap();
            assert_eq!(r.worker(), w);
            assert_eq!(desk.outstanding(w), 1);
            // Cap reached: a second concurrent reservation must bounce.
            assert!(Reservation::acquire(&desk, w).is_err());
        } // dropped uncommitted → released
        assert_eq!(desk.outstanding(w), 0);
        let r = Reservation::acquire(&desk, w).unwrap();
        r.commit();
        assert_eq!(desk.outstanding(w), 0);
        let stats = desk.desk_stats();
        assert_eq!(stats.reserved, 2);
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.released, 1);
        assert!(stats.is_drained());
    }

    #[test]
    fn concurrent_reservers_never_exceed_the_cap() {
        let (_, p) = platform(7);
        let desk = Arc::new(SharedCrowd::new(p, 3));
        let w = WorkerId(1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let desk = Arc::clone(&desk);
                s.spawn(move || {
                    for _ in 0..200 {
                        if desk.try_reserve(w).is_ok() {
                            assert!(desk.outstanding(w) <= 3);
                            std::thread::yield_now();
                            desk.release(w);
                        }
                    }
                });
            }
        });
        assert_eq!(desk.outstanding(w), 0);
        assert!(desk.high_water(w) <= 3);
        assert!(desk.desk_stats().is_drained());
    }

    #[test]
    fn shared_desk_mirrors_platform_observables_and_io() {
        let (lms, mut p) = platform(11);
        p.warm_up(&lms, 3);
        let gen_before = CrowdObserve::generation(&p);
        let w = WorkerId(2);
        let history = Platform::worker_history(&p, w);
        let desk = SharedCrowd::new(p, 5);
        assert_eq!(desk.worker_history(w), history);
        assert_eq!(desk.response_times(w).len(), 3);
        assert_eq!(desk.generation(), gen_before);
        let lm = lms.get(LandmarkId(0)).clone();
        desk.try_reserve(w).unwrap();
        let (_, rt) = desk.ask(w, &lm, true);
        assert!(rt > 0.0);
        assert_eq!(desk.generation(), gen_before + 1);
        desk.award(w, 2.5);
        assert_eq!(desk.points(w), 2.5);
        desk.commit(w);
        assert_eq!(desk.outstanding(w), 0);
    }

    #[test]
    fn direct_desk_never_rejects() {
        let (_, p) = platform(13);
        let desk = SharedCrowd::new(p, u32::MAX);
        let w = WorkerId(0);
        for _ in 0..50 {
            desk.try_reserve(w).unwrap();
        }
        assert_eq!(desk.outstanding(w), 50);
        for _ in 0..50 {
            desk.commit(w);
        }
        assert!(desk.desk_stats().is_drained());
    }
}
