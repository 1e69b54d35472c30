//! Worker selection (paper §IV): find the top-k eligible workers for a
//! task.
//!
//! Pipeline implemented by [`select_workers`]:
//!
//! 1. build the sparse observed familiarity matrix `M`
//!    ([`familiarity`]);
//! 2. densify it with Probabilistic Matrix Factorization ([`pmf`]);
//! 3. spread knowledge spatially with the Gaussian kernel
//!    ([`accumulate`]) to get `M*`;
//! 4. filter candidates by quota (η_#q) and response-time probability
//!    (η_time) ([`response`]);
//! 5. pick the top-k by rated voting over the task's landmarks
//!    ([`voting`]).
//!
//! Steps 1–3 make a [`KnowledgeModel`], which every new answer
//! invalidates. Part of that work never depends on the answers: each
//! worker's profile-familiarity term and each landmark's Gaussian-weighted
//! η_dis neighbourhood. A [`KnowledgeBasis`] holds that part, so a
//! planner computes it once and rebuilds only the history-dependent rest
//! ([`KnowledgeBasis::model`]); [`KnowledgeModel::build`] is a fresh
//! basis plus one model, bit for bit the same. The PMF epoch loop and the
//! accumulation kernel each run an AVX2-compiled twin where the CPU has
//! AVX2, with identical output (see [`pmf`]'s *Instruction set* docs).

pub mod accumulate;
pub mod familiarity;
pub mod matrix;
pub mod pmf;
pub mod response;
pub mod voting;

pub use accumulate::accumulate_scores;
pub use familiarity::{
    familiarity_score, history_familiarity, observed_matrix, profile_familiarity,
};
pub use matrix::{DenseMatrix, SparseObservations};
pub use pmf::{PmfModel, PmfParams};
pub use response::{estimated_rate, has_quota, is_responsive, on_time_probability};
pub use voting::{preference_scores, top_k_workers};

use crate::config::Config;
use crate::error::CoreError;
use cp_crowd::{AnswerTally, CrowdObserve, WorkerId, WorkerPopulation};
use cp_roadnet::{LandmarkId, LandmarkSet};
use familiarity::ProfileTerms;

/// Precomputed worker-knowledge state (`M*` plus provenance), reusable
/// across tasks until new answers arrive.
#[derive(Debug, Clone)]
pub struct KnowledgeModel {
    /// Accumulated familiarity matrix `M*` (workers × landmarks).
    pub accumulated: DenseMatrix,
    /// Density of the observed matrix `M` (diagnostic).
    pub observed_density: f64,
}

impl KnowledgeModel {
    /// Builds the knowledge model: observed `M` → PMF densified `M'` →
    /// accumulated `M*`. Generic over the crowd view: an exclusively
    /// owned `Platform` and a shared `CrowdDesk` both work. Builds a
    /// fresh [`KnowledgeBasis`] each call; callers that rebuild as
    /// answers arrive should keep one basis and call
    /// [`KnowledgeBasis::model`] instead.
    pub fn build<C: CrowdObserve + ?Sized>(
        crowd: &C,
        landmarks: &LandmarkSet,
        cfg: &Config,
    ) -> KnowledgeModel {
        let (_, histories) = crowd.history_snapshot();
        KnowledgeBasis::new(crowd.population(), landmarks, cfg.eta_dis).model(&histories, cfg)
    }
}

/// The part of a knowledge-model build that never depends on the answer
/// history: each worker's profile-familiarity terms (sparse, non-zero
/// only) and each landmark's Gaussian-weighted η_dis neighbourhood. A
/// planner computes it once for its population, landmarks and η_dis and
/// turns every later answer history into a [`KnowledgeModel`] with
/// [`KnowledgeBasis::model`], bit for bit what [`KnowledgeModel::build`]
/// returns for that history.
#[derive(Debug, Clone)]
pub struct KnowledgeBasis {
    eta_dis: f64,
    profile: ProfileTerms,
    neighbourhoods: Vec<Vec<(usize, f64)>>,
}

impl KnowledgeBasis {
    /// Computes the profile terms and neighbourhoods for `population`
    /// over `landmarks` at η_dis = `eta_dis`.
    pub fn new(population: &WorkerPopulation, landmarks: &LandmarkSet, eta_dis: f64) -> Self {
        KnowledgeBasis {
            eta_dis,
            profile: ProfileTerms::new(population, landmarks, eta_dis),
            neighbourhoods: accumulate::neighbourhoods(landmarks, eta_dis),
        }
    }

    /// The knowledge model for one answer history: `histories[w]` is
    /// worker `w`'s [`CrowdObserve::worker_history`], as
    /// [`CrowdObserve::history_snapshot`] returns them. `cfg.eta_dis`
    /// must be the η_dis the basis was built for.
    pub fn model(
        &self,
        histories: &[Vec<(LandmarkId, AnswerTally)>],
        cfg: &Config,
    ) -> KnowledgeModel {
        assert_eq!(
            cfg.eta_dis.to_bits(),
            self.eta_dis.to_bits(),
            "basis built for another eta_dis"
        );
        let n = self.profile.workers();
        let m = self.neighbourhoods.len();
        let obs = self.profile.observed(histories, cfg);
        let observed_density = if n * m == 0 {
            0.0
        } else {
            obs.len() as f64 / (n * m) as f64
        };
        let params = PmfParams {
            dims: cfg.pmf_dims,
            ..PmfParams::default()
        };
        let model = PmfModel::fit(&obs, n, m, &params);
        let densified = model.densify(&obs);
        let accumulated = accumulate::accumulate_columns(&self.neighbourhoods, &densified);
        KnowledgeModel {
            accumulated,
            observed_density,
        }
    }
}

/// Runs the full worker-selection pipeline for a task asking about
/// `task_landmarks`. Returns the top-k eligible workers.
pub fn select_workers<C: CrowdObserve + ?Sized>(
    crowd: &C,
    knowledge: &KnowledgeModel,
    task_landmarks: &[LandmarkId],
    cfg: &Config,
) -> Result<Vec<WorkerId>, CoreError> {
    Ok(
        select_workers_scored(crowd, knowledge, task_landmarks, cfg)?
            .into_iter()
            .map(|(w, _)| w)
            .collect(),
    )
}

/// Like [`select_workers`] but returns each worker's rated-voting
/// preference score, which the orchestrator uses to weight their vote.
pub fn select_workers_scored<C: CrowdObserve + ?Sized>(
    crowd: &C,
    knowledge: &KnowledgeModel,
    task_landmarks: &[LandmarkId],
    cfg: &Config,
) -> Result<Vec<(WorkerId, f64)>, CoreError> {
    // Candidates: workers with quota, acceptable response probability, and
    // some knowledge of at least one task landmark (∪ W_l). Quota and
    // response-time observables come from one bulk snapshot (a single
    // lock acquisition on shared desks) — per-worker `has_quota` /
    // `is_responsive` calls would serialise on the desk mutex twice per
    // population member.
    let snapshot = crowd.selection_snapshot();
    let candidates: Vec<WorkerId> = crowd
        .population()
        .ids()
        .filter(|&w| {
            let (outstanding, count, sum) = snapshot[w.index()];
            if outstanding >= cfg.eta_quota {
                return false;
            }
            let rate = response::rate_from_stats(count, sum, cfg);
            cp_crowd::response_probability(rate, cfg.task_deadline) >= cfg.eta_time
        })
        .filter(|&w| {
            task_landmarks
                .iter()
                .any(|&l| knowledge.accumulated.get(w.index(), l.index()) > 0.0)
        })
        .collect();
    if candidates.is_empty() {
        return Err(CoreError::NoEligibleWorkers);
    }
    Ok(
        preference_scores(&candidates, task_landmarks, &knowledge.accumulated)
            .into_iter()
            .take(cfg.k_workers)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_crowd::{AnswerModel, Platform, PopulationParams, Worker, WorkerPopulation};
    use cp_roadnet::{generate_city, generate_landmarks, CityParams, LandmarkGenParams};

    fn setup() -> (LandmarkSet, Platform, Config) {
        let city = generate_city(&CityParams::small(), 71).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 71);
        // The unit-test city is tiny (~1.8 km); scale both the workers'
        // latent knowledge radius and η_dis down proportionally, otherwise
        // everyone knows the whole town and spatial selection has nothing
        // to discriminate.
        let pop = WorkerPopulation::generate(
            &city.graph,
            &PopulationParams {
                knowledge_scale: 400.0,
                ..PopulationParams::default()
            },
            71,
        );
        let mut platform = Platform::new(pop, AnswerModel::default(), 71);
        platform.warm_up_with_radius(&lms, 15, 600.0);
        let cfg = Config {
            eta_dis: 500.0,
            ..Config::default()
        };
        (lms, platform, cfg)
    }

    /// `KnowledgeModel::build` as it was before the basis: one
    /// `worker_history` read per worker and a dense worker × landmark
    /// scan over `familiarity_score`, then fit, densify and
    /// `accumulate_scores` with freshly computed neighbourhoods.
    fn reference_build(crowd: &Platform, landmarks: &LandmarkSet, cfg: &Config) -> KnowledgeModel {
        use cp_crowd::AnswerTally;
        let n = crowd.population().len();
        let m = landmarks.len();
        let mut obs = SparseObservations::default();
        for worker in crowd.population().iter() {
            let history = crowd.worker_history(worker.id);
            let mut hist_iter = history.iter().peekable();
            for lm in landmarks.iter() {
                let tally = match hist_iter.peek() {
                    Some(&&(l, t)) if l == lm.id => {
                        hist_iter.next();
                        t
                    }
                    _ => AnswerTally::default(),
                };
                let f = familiarity_score(worker, lm, tally, cfg);
                if f > 0.0 {
                    obs.push(worker.id.0, lm.id.0, f);
                }
            }
        }
        let observed_density = if n * m == 0 {
            0.0
        } else {
            obs.len() as f64 / (n * m) as f64
        };
        let params = PmfParams {
            dims: cfg.pmf_dims,
            ..PmfParams::default()
        };
        let model = PmfModel::fit(&obs, n, m, &params);
        let densified = model.densify(&obs);
        KnowledgeModel {
            accumulated: accumulate_scores(landmarks, &densified, cfg.eta_dis),
            observed_density,
        }
    }

    fn model_bits(k: &KnowledgeModel) -> (Vec<u64>, u64) {
        let m = &k.accumulated;
        let cells = (0..m.rows())
            .flat_map(|r| m.row(r).iter().map(|v| v.to_bits()))
            .collect();
        (cells, k.observed_density.to_bits())
    }

    #[test]
    fn basis_builds_match_the_dense_scan_bit_for_bit() {
        let city = generate_city(&CityParams::small(), 71).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 71);
        let pop = WorkerPopulation::generate(
            &city.graph,
            &PopulationParams {
                knowledge_scale: 400.0,
                ..PopulationParams::default()
            },
            71,
        );
        let mut platform = Platform::new(pop, AnswerModel::default(), 71);
        let base = Config {
            eta_dis: 500.0,
            ..Config::default()
        };
        // One basis for every state and configuration below, as a
        // planner keeps it across rebuilds.
        let basis = KnowledgeBasis::new(platform.population(), &lms, base.eta_dis);
        let check = |platform: &Platform, cfg: &Config, state: &str| {
            cfg.validate().unwrap();
            let reference = model_bits(&reference_build(platform, &lms, cfg));
            let (generation, histories) = platform.history_snapshot();
            assert_eq!(generation, platform.generation());
            assert_eq!(
                model_bits(&basis.model(&histories, cfg)),
                reference,
                "warm basis, {state}, {cfg:?}"
            );
            assert_eq!(
                model_bits(&KnowledgeModel::build(platform, &lms, cfg)),
                reference,
                "KnowledgeModel::build, {state}, {cfg:?}"
            );
        };
        let with = |alpha: f64, beta: f64| Config {
            alpha,
            beta,
            ..base
        };

        // 1. Nobody has answered anything: profile terms only.
        check(&platform, &base, "no history");

        // 2. A few workers answer, right and wrong, about landmarks their
        // profile term is zero on; everyone else still has no history.
        let mut answered = 0;
        let workers: Vec<Worker> = platform.population().iter().take(6).cloned().collect();
        for worker in &workers {
            let zero_profile = lms
                .iter()
                .filter(|lm| profile_familiarity(worker, lm, base.eta_dis) == 0.0)
                .step_by(7)
                .take(4);
            for (k, lm) in zero_profile.enumerate() {
                let generation = platform.generation() + 1;
                platform.apply_answer(worker.id, lm.id, k % 2 == 0, 60.0, generation);
                answered += 1;
            }
        }
        assert!(answered > 0, "some profile terms must be zero");
        check(&platform, &base, "history on zero-profile landmarks");
        // β = 0: a landmark answered only wrongly scores (1−α)·0 there.
        check(
            &platform,
            &with(base.alpha, 0.0),
            "zero-profile history, beta 0",
        );

        // 3. Every worker has a warm-up history.
        platform.warm_up_with_radius(&lms, 15, 600.0);
        check(&platform, &base, "warmed");
        check(&platform, &with(0.0, base.beta), "warmed, alpha 0");
        check(&platform, &with(1.0, base.beta), "warmed, alpha 1");
        check(&platform, &with(0.0, 0.0), "warmed, alpha 0, beta 0");
    }

    #[test]
    fn pipeline_selects_k_workers() {
        let (lms, platform, cfg) = setup();
        let knowledge = KnowledgeModel::build(&platform, &lms, &cfg);
        assert!(knowledge.observed_density > 0.0);
        assert!(knowledge.observed_density < 1.0);
        let task: Vec<LandmarkId> = lms.ids().take(4).collect();
        let workers = select_workers(&platform, &knowledge, &task, &cfg).unwrap();
        assert!(!workers.is_empty());
        assert!(workers.len() <= cfg.k_workers);
        // No duplicates.
        let mut sorted = workers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), workers.len());
    }

    #[test]
    fn selected_workers_know_the_task_better_than_average() {
        let (lms, platform, cfg) = setup();
        let knowledge = KnowledgeModel::build(&platform, &lms, &cfg);
        // Realistic task: question landmarks lie along one route, i.e.
        // they are spatially coherent — take a cluster around one anchor.
        let center = lms.get(LandmarkId(0)).position;
        let task: Vec<LandmarkId> = lms
            .within_radius(&center, 500.0)
            .into_iter()
            .take(5)
            .collect();
        assert!(task.len() >= 2, "need a non-trivial task");
        let selected = select_workers(&platform, &knowledge, &task, &cfg).unwrap();
        let true_task_knowledge = |w: WorkerId| {
            task.iter()
                .map(|&l| platform.population().true_familiarity(w, lms.get(l)))
                .sum::<f64>()
        };
        let sel_mean: f64 = selected
            .iter()
            .map(|&w| true_task_knowledge(w))
            .sum::<f64>()
            / selected.len() as f64;
        let all_mean: f64 = platform
            .population()
            .ids()
            .map(true_task_knowledge)
            .sum::<f64>()
            / platform.population().len() as f64;
        assert!(
            sel_mean > all_mean,
            "selected {sel_mean:.3} must beat average {all_mean:.3}"
        );
    }

    #[test]
    fn quota_exhausted_workers_are_skipped() {
        let (lms, mut platform, cfg) = setup();
        let knowledge = KnowledgeModel::build(&platform, &lms, &cfg);
        let task: Vec<LandmarkId> = lms.ids().take(4).collect();
        let first = select_workers(&platform, &knowledge, &task, &cfg).unwrap();
        // Exhaust the quota of the top worker, reselect: they must vanish.
        let top = first[0];
        for _ in 0..cfg.eta_quota {
            platform.assign(top);
        }
        let second = select_workers(&platform, &knowledge, &task, &cfg).unwrap();
        assert!(!second.contains(&top));
    }

    #[test]
    fn impossible_deadline_yields_no_workers() {
        let (lms, platform, mut cfg) = setup();
        let knowledge = KnowledgeModel::build(&platform, &lms, &cfg);
        cfg.task_deadline = 0.001;
        cfg.eta_time = 0.99;
        let task: Vec<LandmarkId> = lms.ids().take(3).collect();
        assert!(matches!(
            select_workers(&platform, &knowledge, &task, &cfg),
            Err(CoreError::NoEligibleWorkers)
        ));
    }
}
