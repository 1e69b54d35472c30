//! Worker familiarity scores (paper §IV-B).
//!
//! ```text
//! f_w^l = α · exp{−(d(l, p_home) + d(l, p_work) + d(l, p_fr))}
//!       + (1−α) · (#correct + β · #wrong)
//! ```
//!
//! with the rule "assign +∞ to d(l, p∗) if d(l, p∗) is bigger than a
//! threshold η_dis" — i.e. a far-away anchor kills the whole profile term
//! (exp(−∞) = 0). Distances inside the exponent are normalised by η_dis so
//! the exponential lives on a sane scale regardless of the city's units
//! (the paper leaves units unspecified; this normalisation is recorded in
//! the root README's *Substitutions* table).

use crate::config::Config;
use crate::worker_selection::matrix::SparseObservations;
use cp_crowd::{AnswerTally, CrowdObserve, Worker, WorkerPopulation};
use cp_roadnet::{Landmark, LandmarkId, LandmarkSet};

/// Profile-only familiarity term in `[0, 1]`.
pub fn profile_familiarity(worker: &Worker, landmark: &Landmark, eta_dis: f64) -> f64 {
    let dh = worker.home.distance(&landmark.position);
    let dw = worker.work.distance(&landmark.position);
    let df = worker.frequent.distance(&landmark.position);
    if dh > eta_dis || dw > eta_dis || df > eta_dis {
        // d(l, p*) := +∞ ⇒ exp(−∞) = 0.
        return 0.0;
    }
    (-(dh + dw + df) / eta_dis).exp()
}

/// History term `#correct + β·#wrong`.
pub fn history_familiarity(tally: AnswerTally, beta: f64) -> f64 {
    tally.correct as f64 + beta * tally.wrong as f64
}

/// The combined familiarity score `f_w^l`.
pub fn familiarity_score(
    worker: &Worker,
    landmark: &Landmark,
    tally: AnswerTally,
    cfg: &Config,
) -> f64 {
    combine(
        profile_familiarity(worker, landmark, cfg.eta_dis),
        tally,
        cfg,
    )
}

/// `α·p + (1−α)·h`: the one place the two terms meet, so the scalar
/// score and the sparse merge cannot drift.
#[inline]
fn combine(profile: f64, tally: AnswerTally, cfg: &Config) -> f64 {
    cfg.alpha * profile + (1.0 - cfg.alpha) * history_familiarity(tally, cfg.beta)
}

/// Builds the sparse observed worker×landmark familiarity matrix `M`
/// (paper: "a n∗m matrix M with m_ij = f^{l_j}_{w_i}"; only non-zero
/// scores count as observed — "M is very sparse").
pub fn observed_matrix<C: CrowdObserve + ?Sized>(
    crowd: &C,
    landmarks: &LandmarkSet,
    cfg: &Config,
) -> SparseObservations {
    let (_, histories) = crowd.history_snapshot();
    ProfileTerms::new(crowd.population(), landmarks, cfg.eta_dis).observed(&histories, cfg)
}

/// Every worker's non-zero profile terms `p_w^l`, sparse per worker in
/// landmark order. The term depends on the worker's anchors, the
/// landmarks and η_dis only, never on the answer history.
#[derive(Debug, Clone)]
pub(crate) struct ProfileTerms {
    /// `rows[w]`: `(landmark index, p_w^l)` for every `p_w^l > 0`.
    rows: Vec<Vec<(u32, f64)>>,
    /// Number of landmarks (matrix columns).
    landmarks: usize,
}

impl ProfileTerms {
    pub(crate) fn new(
        population: &WorkerPopulation,
        landmarks: &LandmarkSet,
        eta_dis: f64,
    ) -> Self {
        let rows = population
            .iter()
            .map(|worker| {
                landmarks
                    .iter()
                    .enumerate()
                    .filter_map(|(j, lm)| {
                        let p = profile_familiarity(worker, lm, eta_dis);
                        (p != 0.0).then_some((j as u32, p))
                    })
                    .collect()
            })
            .collect();
        ProfileTerms {
            rows,
            landmarks: landmarks.len(),
        }
    }

    /// Number of workers (matrix rows).
    pub(crate) fn workers(&self) -> usize {
        self.rows.len()
    }

    /// `M` for one answer history (`histories[w]` is worker `w`'s
    /// [`CrowdObserve::worker_history`]): the entries the dense
    /// worker × landmark scan over [`familiarity_score`] would emit, in
    /// the same worker-major, landmark order, with the same values.
    ///
    /// Only cells with a profile term or a history entry are scored. Any
    /// other cell is `α·0 + (1−α)·0`, which is never positive, so the
    /// scan would have skipped it too.
    pub(crate) fn observed(
        &self,
        histories: &[Vec<(LandmarkId, AnswerTally)>],
        cfg: &Config,
    ) -> SparseObservations {
        assert_eq!(histories.len(), self.rows.len(), "one history per worker");
        let mut obs = SparseObservations::default();
        for (w, (profile, history)) in self.rows.iter().zip(histories).enumerate() {
            let mut profile = profile.iter().peekable();
            let mut history = history
                .iter()
                .take_while(|(l, _)| l.index() < self.landmarks)
                .peekable();
            loop {
                let next_p = profile.peek().map(|&&(l, _)| l as usize);
                let next_h = history.peek().map(|&&(l, _)| l.index());
                let j = match (next_p, next_h) {
                    (None, None) => break,
                    (Some(j), None) | (None, Some(j)) => j,
                    (Some(a), Some(b)) => a.min(b),
                };
                let p = if next_p == Some(j) {
                    profile.next().expect("peeked").1
                } else {
                    0.0
                };
                let tally = if next_h == Some(j) {
                    history.next().expect("peeked").1
                } else {
                    AnswerTally::default()
                };
                let f = combine(p, tally, cfg);
                if f > 0.0 {
                    obs.push(w as u32, j as u32, f);
                }
            }
        }
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_crowd::{AnswerModel, Platform, PopulationParams, WorkerPopulation};
    use cp_roadnet::{generate_city, generate_landmarks, CityParams, LandmarkGenParams};

    fn setup() -> (LandmarkSet, Platform, Config) {
        let city = generate_city(&CityParams::small(), 61).unwrap();
        let lms = generate_landmarks(&city.graph, &LandmarkGenParams::default(), 61);
        let pop = WorkerPopulation::generate(&city.graph, &PopulationParams::default(), 61);
        let platform = Platform::new(pop, AnswerModel::default(), 61);
        (lms, platform, Config::default())
    }

    #[test]
    fn profile_zero_beyond_eta_dis() {
        let (lms, platform, cfg) = setup();
        let w = platform.population().iter().next().unwrap();
        // A landmark farther than eta_dis from every anchor must score 0.
        for lm in lms.iter() {
            if w.min_anchor_distance(&lm.position) > cfg.eta_dis {
                assert_eq!(profile_familiarity(w, lm, cfg.eta_dis), 0.0);
            }
        }
    }

    #[test]
    fn profile_positive_only_when_all_anchors_near() {
        let (lms, platform, cfg) = setup();
        let mut positives = 0;
        for w in platform.population().iter() {
            for lm in lms.iter() {
                let p = profile_familiarity(w, lm, cfg.eta_dis);
                assert!((0.0..=1.0).contains(&p));
                if p > 0.0 {
                    positives += 1;
                    let dh = w.home.distance(&lm.position);
                    let dw = w.work.distance(&lm.position);
                    let df = w.frequent.distance(&lm.position);
                    assert!(dh <= cfg.eta_dis && dw <= cfg.eta_dis && df <= cfg.eta_dis);
                }
            }
        }
        assert!(positives > 0, "some workers must know some landmarks");
    }

    #[test]
    fn history_term_weights_wrong_answers_less() {
        let t = AnswerTally {
            correct: 3,
            wrong: 2,
        };
        let h = history_familiarity(t, 0.3);
        assert!((h - (3.0 + 0.6)).abs() < 1e-12);
        assert!(history_familiarity(t, 0.3) < history_familiarity(t, 0.9));
    }

    #[test]
    fn combined_score_mixes_terms_by_alpha() {
        let (lms, platform, mut cfg) = setup();
        let w = platform.population().iter().next().unwrap();
        let lm = lms.iter().next().unwrap();
        let t = AnswerTally {
            correct: 2,
            wrong: 0,
        };
        cfg.alpha = 1.0;
        let only_profile = familiarity_score(w, lm, t, &cfg);
        assert!((only_profile - profile_familiarity(w, lm, cfg.eta_dis)).abs() < 1e-12);
        cfg.alpha = 0.0;
        let only_history = familiarity_score(w, lm, t, &cfg);
        assert!((only_history - 2.0).abs() < 1e-12);
    }

    #[test]
    fn observed_matrix_is_sparse_but_nonempty() {
        let (lms, mut platform, cfg) = setup();
        platform.warm_up(&lms, 5);
        let obs = observed_matrix(&platform, &lms, &cfg);
        assert!(!obs.is_empty());
        let total = platform.population().len() * lms.len();
        assert!(
            obs.len() < total,
            "matrix should be sparse: {} of {total}",
            obs.len()
        );
        for &(w, l, f) in &obs.entries {
            assert!((w as usize) < platform.population().len());
            assert!((l as usize) < lms.len());
            assert!(f > 0.0);
        }
    }

    #[test]
    fn history_makes_scores_grow() {
        let (lms, mut platform, cfg) = setup();
        let before = observed_matrix(&platform, &lms, &cfg).len();
        platform.warm_up(&lms, 20);
        let after = observed_matrix(&platform, &lms, &cfg).len();
        assert!(after > before, "history adds observed entries");
    }
}
