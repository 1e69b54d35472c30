//! In-memory crowdsourcing platform.
//!
//! Holds the worker population and every observable the server-side
//! algorithms are allowed to see: per-(worker, landmark) answer history,
//! observed response times, outstanding-task counts and reward balances.
//! The platform also *simulates* worker behaviour (answers and latencies)
//! from the latent attributes, so experiments can compare what the
//! algorithms estimated against what was actually true.

use crate::answer::AnswerModel;
use crate::population::WorkerPopulation;
use crate::response::sample_response_time;
use crate::worker::WorkerId;
use cp_roadnet::{Landmark, LandmarkId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Per-(worker, landmark) answer tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnswerTally {
    /// Questions about this landmark the worker answered correctly.
    pub correct: u32,
    /// Questions answered incorrectly.
    pub wrong: u32,
}

/// Portable image of a [`Platform`]'s mutable state, for durability.
///
/// Field types are deliberately raw (`u32` ids, `u64` tallies) so the
/// persistence layer can serialize it without depending on this crate's
/// types. Outstanding-task counts are excluded: they track in-flight
/// reservations, which do not survive a restart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformState {
    /// Answer-history generation (total answers ever given).
    pub generation: u64,
    /// Internal RNG state, so post-restore sampling resumes the exact
    /// stream an uncrashed run would have produced.
    pub rng: [u64; 4],
    /// Reward balance per worker.
    pub points: Vec<f64>,
    /// Observed response times per worker (same length as `points`).
    pub response_times: Vec<Vec<f64>>,
    /// `(worker, landmark, correct, wrong)` tallies, sorted by
    /// `(worker, landmark)` for deterministic comparison.
    pub history: Vec<(u32, u32, u64, u64)>,
}

/// Error importing [`PlatformState`]: the state was exported from a
/// population of a different size, or names a worker the live
/// population does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSizeMismatch {
    /// Workers in the live population.
    pub expected: usize,
    /// Workers in the imported state: the length of its per-worker
    /// vectors, or one past the highest worker id its history names.
    pub got: usize,
}

impl std::fmt::Display for StateSizeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crowd state has {} workers but the live population has {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for StateSizeMismatch {}

/// The simulated crowdsourcing platform.
#[derive(Debug)]
pub struct Platform {
    /// Shared handle: the population is immutable, so desks wrapping the
    /// platform in a mutex can still hand out lock-free references.
    population: Arc<WorkerPopulation>,
    model: AnswerModel,
    /// Answer history: one row per worker (indexed by [`WorkerId`]),
    /// holding `(landmark, tally)` for every landmark the worker has
    /// answered about, sorted by landmark. A worker's history is a clone
    /// of its row, and the export walks the rows in `(worker, landmark)`
    /// order without sorting.
    history: Vec<Vec<(LandmarkId, AnswerTally)>>,
    response_times: Vec<Vec<f64>>,
    outstanding: Vec<u32>,
    points: Vec<f64>,
    /// Answer-history version, bumped on every [`Platform::ask`]; cached
    /// derived state (e.g. knowledge models) is keyed by this.
    generation: u64,
    rng: SmallRng,
}

impl Platform {
    /// Creates a platform over `population` with behaviour driven by
    /// `model`, deterministic from `seed`.
    pub fn new(population: WorkerPopulation, model: AnswerModel, seed: u64) -> Self {
        let n = population.len();
        Platform {
            population: Arc::new(population),
            model,
            history: vec![Vec::new(); n],
            response_times: vec![Vec::new(); n],
            outstanding: vec![0; n],
            points: vec![0.0; n],
            generation: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x1656_67B1_9E37_79F9),
        }
    }

    /// The worker population.
    pub fn population(&self) -> &WorkerPopulation {
        &self.population
    }

    /// A shared handle to the (immutable) worker population.
    pub fn population_arc(&self) -> Arc<WorkerPopulation> {
        Arc::clone(&self.population)
    }

    /// Monotone answer-history version: bumped on every [`Platform::ask`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The answer model in force.
    pub fn answer_model(&self) -> &AnswerModel {
        &self.model
    }

    /// Observed answer tally of `worker` on `landmark`.
    pub fn tally(&self, worker: WorkerId, landmark: LandmarkId) -> AnswerTally {
        let row = &self.history[worker.index()];
        row.binary_search_by_key(&landmark, |&(l, _)| l)
            .map_or_else(|_| AnswerTally::default(), |i| row[i].1)
    }

    /// The tally of `worker` on `landmark`, inserted at zero if absent.
    fn tally_mut(&mut self, worker: WorkerId, landmark: LandmarkId) -> &mut AnswerTally {
        let row = &mut self.history[worker.index()];
        let i = match row.binary_search_by_key(&landmark, |&(l, _)| l) {
            Ok(i) => i,
            Err(i) => {
                row.insert(i, (landmark, AnswerTally::default()));
                i
            }
        };
        &mut row[i].1
    }

    /// All (landmark, tally) records of one worker, in landmark order.
    pub fn worker_history(&self, worker: WorkerId) -> Vec<(LandmarkId, AnswerTally)> {
        self.history[worker.index()].clone()
    }

    /// Observed response times of a worker, seconds.
    pub fn observed_response_times(&self, worker: WorkerId) -> &[f64] {
        &self.response_times[worker.index()]
    }

    /// Number of outstanding (assigned, unanswered) tasks of a worker.
    pub fn outstanding(&self, worker: WorkerId) -> u32 {
        self.outstanding[worker.index()]
    }

    /// Reward balance of a worker.
    pub fn points(&self, worker: WorkerId) -> f64 {
        self.points[worker.index()]
    }

    /// Marks a task as assigned to the worker.
    pub fn assign(&mut self, worker: WorkerId) {
        self.outstanding[worker.index()] += 1;
    }

    /// Marks one assigned task of the worker as finished.
    pub fn finish(&mut self, worker: WorkerId) {
        let o = &mut self.outstanding[worker.index()];
        *o = o.saturating_sub(1);
    }

    /// Credits reward points (paper's rewarding component: by workload and
    /// answer quality).
    pub fn award(&mut self, worker: WorkerId, points: f64) {
        self.points[worker.index()] += points;
    }

    /// Simulates asking `worker` the binary question about `landmark` whose
    /// correct answer is `truth`. Returns `(answer, response_time_s)` and
    /// records both the response time and the correctness tally.
    pub fn ask(&mut self, worker: WorkerId, landmark: &Landmark, truth: bool) -> (bool, f64) {
        let answer =
            self.model
                .sample_answer(&self.population, worker, landmark, truth, &mut self.rng);
        let rt = sample_response_time(self.population.get(worker).lambda, &mut self.rng);
        self.response_times[worker.index()].push(rt);
        self.generation += 1;
        let tally = self.tally_mut(worker, landmark.id);
        if answer == truth {
            tally.correct += 1;
        } else {
            tally.wrong += 1;
        }
        (answer, rt)
    }

    /// Re-applies one logged answer without sampling: records the
    /// response time, bumps the tally, and adopts `generation` (the
    /// generation the original [`Platform::ask`] left behind). Used by
    /// log replay, where the outcome is already known — the RNG is
    /// untouched.
    pub fn apply_answer(
        &mut self,
        worker: WorkerId,
        landmark: LandmarkId,
        correct: bool,
        response_time: f64,
        generation: u64,
    ) {
        self.response_times[worker.index()].push(response_time);
        self.generation = generation;
        let tally = self.tally_mut(worker, landmark);
        if correct {
            tally.correct += 1;
        } else {
            tally.wrong += 1;
        }
    }

    /// Exports the mutable state (answer history, response times,
    /// rewards, generation, RNG) for persistence. The history is sorted
    /// by `(worker, landmark)` so exports compare deterministically.
    pub fn export_state(&self) -> PlatformState {
        let history = self
            .history
            .iter()
            .enumerate()
            .flat_map(|(w, row)| {
                row.iter()
                    .map(move |(l, t)| (w as u32, l.0, t.correct as u64, t.wrong as u64))
            })
            .collect();
        PlatformState {
            generation: self.generation,
            rng: self.rng.state(),
            points: self.points.clone(),
            response_times: self.response_times.clone(),
            history,
        }
    }

    /// Replaces the mutable state with a previously exported one.
    /// Outstanding-task counts reset to zero (no reservations survive a
    /// restart). Tallies may come in any order; of two for the same
    /// `(worker, landmark)` the later wins. Fails, leaving the platform
    /// untouched, if `state` was exported from a population of a
    /// different size or its history names a worker outside the
    /// population.
    pub fn import_state(&mut self, state: &PlatformState) -> Result<(), StateSizeMismatch> {
        let n = self.population.len();
        if state.points.len() != n || state.response_times.len() != n {
            return Err(StateSizeMismatch {
                expected: n,
                got: state.points.len().max(state.response_times.len()),
            });
        }
        let named = state
            .history
            .iter()
            .map(|t| t.0 as usize + 1)
            .max()
            .unwrap_or(0);
        if named > n {
            return Err(StateSizeMismatch {
                expected: n,
                got: named,
            });
        }
        self.history = vec![Vec::new(); n];
        for &(w, l, c, x) in &state.history {
            *self.tally_mut(WorkerId(w), LandmarkId(l)) = AnswerTally {
                correct: c.min(u32::MAX as u64) as u32,
                wrong: x.min(u32::MAX as u64) as u32,
            };
        }
        self.generation = state.generation;
        self.rng = SmallRng::from_state(state.rng);
        self.points = state.points.clone();
        self.response_times = state.response_times.clone();
        self.outstanding = vec![0; n];
        Ok(())
    }

    /// Warms up the platform with `rounds` historical questions per worker,
    /// so familiarity scores have history to draw on (the paper's "history
    /// of worker's tasks around this area"). Mirroring a real platform —
    /// where the worker-selection loop itself routes questions to nearby
    /// workers — two thirds of warm-up questions concern landmarks near
    /// the worker's own anchor places and the rest are city-wide.
    pub fn warm_up(&mut self, landmarks: &cp_roadnet::LandmarkSet, rounds: usize) {
        self.warm_up_with_radius(landmarks, rounds, 2500.0);
    }

    /// [`Self::warm_up`] with an explicit locality radius — use a radius
    /// proportional to the city size (≈ a couple of knowledge scales).
    pub fn warm_up_with_radius(
        &mut self,
        landmarks: &cp_roadnet::LandmarkSet,
        rounds: usize,
        radius: f64,
    ) {
        use rand::RngExt;
        if landmarks.is_empty() {
            return;
        }
        let ids: Vec<WorkerId> = self.population.ids().collect();
        for w in ids {
            let (home, work) = {
                let p = self.population.get(w);
                (p.home, p.work)
            };
            for r in 0..rounds {
                let local = self.rng.random_bool(2.0 / 3.0);
                let li = if local {
                    let anchor = if r % 2 == 0 { home } else { work };
                    let near = landmarks.within_radius(&anchor, radius);
                    if near.is_empty() {
                        LandmarkId(self.rng.random_range(0..landmarks.len() as u32))
                    } else {
                        near[self.rng.random_range(0..near.len())]
                    }
                } else {
                    LandmarkId(self.rng.random_range(0..landmarks.len() as u32))
                };
                let truth = self.rng.random_bool(0.5);
                let lm = landmarks.get(li).clone();
                self.ask(w, &lm, truth);
                self.finish(w); // warm-up answers do not hold quota
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationParams;
    use cp_roadnet::{
        generate_city, generate_landmarks, CityParams, LandmarkGenParams, LandmarkSet,
    };

    fn setup() -> (LandmarkSet, Platform) {
        let city = generate_city(&CityParams::small(), 53).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 53);
        let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), 53);
        let platform = Platform::new(pop, AnswerModel::default(), 53);
        (lms, platform)
    }

    #[test]
    fn ask_records_history_and_response_time() {
        let (lms, mut p) = setup();
        let w = WorkerId(0);
        let lm = lms.get(cp_roadnet::LandmarkId(0)).clone();
        assert_eq!(p.tally(w, lm.id), AnswerTally::default());
        let (_, rt) = p.ask(w, &lm, true);
        assert!(rt > 0.0);
        let t = p.tally(w, lm.id);
        assert_eq!(t.correct + t.wrong, 1);
        assert_eq!(p.observed_response_times(w).len(), 1);
    }

    #[test]
    fn outstanding_tracks_assign_finish() {
        let (_, mut p) = setup();
        let w = WorkerId(3);
        assert_eq!(p.outstanding(w), 0);
        p.assign(w);
        p.assign(w);
        assert_eq!(p.outstanding(w), 2);
        p.finish(w);
        assert_eq!(p.outstanding(w), 1);
        p.finish(w);
        p.finish(w); // extra finish saturates, no underflow
        assert_eq!(p.outstanding(w), 0);
    }

    #[test]
    fn rewards_accumulate() {
        let (_, mut p) = setup();
        let w = WorkerId(1);
        p.award(w, 2.0);
        p.award(w, 3.5);
        assert_eq!(p.points(w), 5.5);
        assert_eq!(p.points(WorkerId(2)), 0.0);
    }

    #[test]
    fn warm_up_populates_everyone() {
        let (lms, mut p) = setup();
        p.warm_up(&lms, 10);
        for w in (0..p.population().len() as u32).map(WorkerId) {
            let h = p.worker_history(w);
            let total: u32 = h.iter().map(|(_, t)| t.correct + t.wrong).sum();
            assert_eq!(total, 10);
            assert_eq!(p.outstanding(w), 0);
        }
    }

    #[test]
    fn history_correctness_tracks_familiarity() {
        // After a long warm-up, workers should on average answer better
        // about landmarks they truly know.
        let (lms, mut p) = setup();
        p.warm_up(&lms, 200);
        // Aggregate total correct/total answered per familiarity bucket
        // (pooled, so sparse buckets are not dominated by tiny samples).
        let (mut fam_c, mut fam_t, mut unfam_c, mut unfam_t) = (0u64, 0u64, 0u64, 0u64);
        for w in (0..p.population().len() as u32).map(WorkerId) {
            for (l, t) in p.worker_history(w) {
                let lm = lms.get(l);
                let fam = p.population().true_familiarity(w, lm);
                let (c, n) = (t.correct as u64, (t.correct + t.wrong) as u64);
                if fam > 0.7 {
                    fam_c += c;
                    fam_t += n;
                } else if fam < 0.3 {
                    unfam_c += c;
                    unfam_t += n;
                }
            }
        }
        assert!(fam_t > 0 && unfam_t > 0, "both buckets need data");
        let fam_rate = fam_c as f64 / fam_t as f64;
        let unfam_rate = unfam_c as f64 / unfam_t as f64;
        assert!(
            fam_rate > unfam_rate,
            "familiar {fam_rate} vs unfamiliar {unfam_rate}"
        );
    }

    #[test]
    fn export_import_resumes_identical_stream() {
        let (lms, mut p) = setup();
        p.warm_up(&lms, 5);
        let state = p.export_state();
        // Same population (deterministic from the seed) but a different
        // platform seed: import must overwrite everything that matters.
        let city = generate_city(&CityParams::small(), 53).unwrap();
        let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), 53);
        let mut q = Platform::new(pop, AnswerModel::default(), 999);
        q.import_state(&state).unwrap();
        assert_eq!(q.export_state(), state);
        // Post-import asks replay the exact stream the original would
        // have produced.
        let lm = lms.get(cp_roadnet::LandmarkId(2)).clone();
        for i in 0..10 {
            let w = WorkerId(i % 4);
            assert_eq!(p.ask(w, &lm, i % 2 == 0), q.ask(w, &lm, i % 2 == 0));
        }
        assert_eq!(p.export_state(), q.export_state());
    }

    #[test]
    fn import_rejects_population_size_mismatch() {
        let (_, mut p) = setup();
        let mut state = p.export_state();
        state.points.pop();
        state.response_times.pop();
        assert!(p.import_state(&state).is_err());
    }

    #[test]
    fn apply_answer_replays_history_without_rng() {
        let (lms, mut p) = setup();
        let q_seed_state = p.export_state();
        let mut q = {
            let city = generate_city(&CityParams::small(), 53).unwrap();
            let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), 53);
            let mut q = Platform::new(pop, AnswerModel::default(), 777);
            q.import_state(&q_seed_state).unwrap();
            q
        };
        let mut log = Vec::new();
        for i in 0..20u32 {
            let w = WorkerId(i % 4);
            let li = cp_roadnet::LandmarkId(i % 6);
            let lm = lms.get(li).clone();
            let truth = i % 3 == 0;
            let (answer, rt) = p.ask(w, &lm, truth);
            log.push((w, li, answer == truth, rt, p.generation()));
        }
        for (w, l, correct, rt, generation) in log {
            q.apply_answer(w, l, correct, rt, generation);
        }
        let (a, b) = (p.export_state(), q.export_state());
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.history, b.history);
        assert_eq!(a.response_times, b.response_times);
    }

    /// The history as it was stored before per-worker rows: one map over
    /// `(worker, landmark)`, read back by scan and sort.
    #[derive(Default)]
    struct MapHistory(std::collections::HashMap<(u32, u32), AnswerTally>);

    impl MapHistory {
        fn record(&mut self, w: WorkerId, l: LandmarkId, correct: bool) {
            let t = self.0.entry((w.0, l.0)).or_default();
            if correct {
                t.correct += 1;
            } else {
                t.wrong += 1;
            }
        }

        fn worker_history(&self, w: WorkerId) -> Vec<(LandmarkId, AnswerTally)> {
            let mut out: Vec<_> = self
                .0
                .iter()
                .filter(|((x, _), _)| *x == w.0)
                .map(|((_, l), t)| (LandmarkId(*l), *t))
                .collect();
            out.sort_unstable_by_key(|(l, _)| *l);
            out
        }

        fn export(&self) -> Vec<(u32, u32, u64, u64)> {
            let mut out: Vec<_> = self
                .0
                .iter()
                .map(|(&(w, l), t)| (w, l, t.correct as u64, t.wrong as u64))
                .collect();
            out.sort_unstable();
            out
        }
    }

    fn assert_same_history(p: &Platform, reference: &MapHistory, lms: &LandmarkSet) {
        assert_eq!(p.export_state().history, reference.export());
        for w in p.population().ids() {
            assert_eq!(p.worker_history(w), reference.worker_history(w), "{w:?}");
            for l in lms.ids() {
                let expect = reference.0.get(&(w.0, l.0)).copied().unwrap_or_default();
                assert_eq!(p.tally(w, l), expect);
            }
        }
    }

    #[test]
    fn per_worker_rows_match_a_map_reference() {
        use rand::RngExt;
        let (lms, mut p) = setup();
        let mut reference = MapHistory::default();
        let mut rng = SmallRng::seed_from_u64(0x4157);
        let n = p.population().len() as u32;
        for step in 0..3000u32 {
            // A few hot workers and landmarks, so rows grow long and
            // tallies repeat.
            let w = WorkerId(if rng.random_bool(0.5) {
                rng.random_range(0..3)
            } else {
                rng.random_range(0..n)
            });
            let l = LandmarkId(rng.random_range(0..lms.len() as u32));
            if rng.random_bool(0.5) {
                let truth = rng.random_bool(0.5);
                let (answer, _) = p.ask(w, lms.get(l), truth);
                reference.record(w, l, answer == truth);
            } else {
                let correct = rng.random_bool(0.5);
                let generation = p.generation() + 1;
                p.apply_answer(w, l, correct, 1.0, generation);
                reference.record(w, l, correct);
            }
            if step % 500 == 499 {
                assert_same_history(&p, &reference, &lms);
            }
        }
    }

    #[test]
    fn import_takes_tallies_in_any_order_and_the_last_duplicate_wins() {
        let (lms, mut p) = setup();
        let mut state = p.export_state();
        state.history = vec![
            (3, 7, 1, 0),
            (0, 9, 2, 2),
            (3, 2, 5, 1),
            (0, 9, 4, 0),
            (0, 1, 0, 3),
            (3, 7, 6, 6),
        ];
        p.import_state(&state).unwrap();
        let mut reference = MapHistory::default();
        for &(w, l, c, x) in &state.history {
            let t = AnswerTally {
                correct: c as u32,
                wrong: x as u32,
            };
            reference.0.insert((w, l), t);
        }
        assert_same_history(&p, &reference, &lms);
        assert_eq!(
            p.export_state().history,
            vec![(0, 1, 0, 3), (0, 9, 4, 0), (3, 2, 5, 1), (3, 7, 6, 6)]
        );
    }

    #[test]
    fn import_rejects_a_tally_outside_the_population() {
        let (lms, mut p) = setup();
        p.warm_up(&lms, 3);
        let before = p.export_state();
        let n = p.population().len();
        let mut state = before.clone();
        state.history.push((n as u32 + 4, 0, 1, 0));
        state.history.push((n as u32, 0, 1, 0));
        assert_eq!(
            p.import_state(&state),
            Err(StateSizeMismatch {
                expected: n,
                got: n + 5
            })
        );
        assert_eq!(p.export_state(), before, "a failed import changes nothing");
    }

    #[test]
    fn worker_history_is_sorted_and_scoped() {
        let (lms, mut p) = setup();
        let w = WorkerId(0);
        let other = WorkerId(1);
        for i in [5u32, 2, 9] {
            let lm = lms.get(cp_roadnet::LandmarkId(i)).clone();
            p.ask(w, &lm, true);
        }
        let lm = lms.get(cp_roadnet::LandmarkId(1)).clone();
        p.ask(other, &lm, false);
        let h = p.worker_history(w);
        assert_eq!(h.len(), 3);
        assert!(h.windows(2).all(|x| x[0].0 < x[1].0));
        assert!(h.iter().all(|(l, _)| l.0 != 1));
    }
}
