//! The CrowdPlanner system orchestrator (paper §II-B, "control logic
//! component").
//!
//! Request lifecycle, exactly as in Fig. 1 of the paper:
//!
//! 1. **reuse truth** — if a verified truth covers the request, return it;
//! 2. **generate routes** — collect candidates from the five sources;
//! 3. **evaluate routes** — agreement / truth-derived confidence; if the
//!    machine can decide, record a truth and return;
//! 4. **crowd** — generate a task (landmark selection + ID3 ordering),
//!    select the top-k eligible workers, collect answers with early stop,
//!    reward workers, record the verified truth, and return.
//!
//! The planner is **owned and `'static`**: it holds `Arc` handles to its
//! world (road graph, landmarks, significance, trips, pre-built transfer
//! network) and reaches the crowd through an `Arc<dyn CrowdDesk>` — the
//! reserve → ask → commit protocol of [`cp_crowd::desk`] — instead of a
//! privately owned `&mut Platform`. That makes a planner `Send`, movable
//! onto resident worker pools, and lets N planners share one crowd
//! without oversubscribing any worker: an assignment only proceeds when
//! [`Reservation::acquire`] wins a slot under the desk's hard
//! `max_outstanding` cap; refused reservations are counted in
//! [`SystemStats::quota_rejections`], and a task whose every reservation
//! is refused falls back to the machine's best guess (counted in
//! [`SystemStats::starved_tasks`]).
//!
//! The crowd's collective knowledge enters through an *oracle* closure
//! supplied per request: `oracle(l)` is the true answer to "does the best
//! route pass landmark l?". In the full simulation the oracle is derived
//! from the consensus driver preference — the system itself never sees it
//! except through noisy worker answers.

use crate::config::Config;
use crate::early_stop::{EarlyStop, StopDecision};
use crate::error::CoreError;
use crate::evaluation::{evaluate_candidates, Evaluation};
use crate::reliability::SourceReliability;
use crate::reward::{reward_for, Participation};
use crate::route::LandmarkRoute;
use crate::taskgen::{generate_task, SelectionAlgorithm, Task};
use crate::truth::{TruthEntry, TruthStore};
use crate::worker_selection::{select_workers_scored, KnowledgeModel};
use cp_crowd::{CrowdDesk, Reservation};
use cp_mining::{
    distinct_candidates, generate_candidates, LdrParams, MfpParams, MprParams, SourceKind,
    TransferNetwork,
};
use cp_roadnet::{LandmarkId, LandmarkSet, NodeId, Path, RoadGraph};
use cp_traj::{CalibrationParams, TimeOfDay, Trip};
use std::sync::Arc;

/// How a request was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Served from the truth store.
    ReusedTruth,
    /// Sources agreed; no crowd needed.
    Agreement,
    /// Truth-derived confidence cleared η; no crowd needed.
    Confident,
    /// Crowd-verified.
    Crowd,
    /// Crowd was needed but could not verify (no eligible workers /
    /// no usable votes / every reservation refused); fell back to the
    /// best machine guess.
    Fallback,
}

/// A resolved recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The recommended route.
    pub path: Path,
    /// How it was resolved.
    pub resolution: Resolution,
    /// Total questions answered by all workers for this request.
    pub questions_asked: usize,
    /// Workers who participated.
    pub workers_asked: usize,
    /// Confidence of the answer (1.0 for reuse hits and agreements).
    pub confidence: f64,
}

/// Running system statistics.
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Requests served.
    pub requests: usize,
    /// Truth-store hits.
    pub reuse_hits: usize,
    /// Machine agreements.
    pub agreements: usize,
    /// Machine confidence wins.
    pub confident: usize,
    /// Crowd verifications.
    pub crowd_tasks: usize,
    /// Crowd tasks launched (including ones that ended in fallback).
    pub crowd_attempts: usize,
    /// Fallbacks.
    pub fallbacks: usize,
    /// Total questions asked across all crowd tasks.
    pub total_questions: usize,
    /// Total worker participations.
    pub total_workers: usize,
    /// Worker reservations refused at the desk's `max_outstanding` cap
    /// (contention with concurrent planners sharing the crowd).
    pub quota_rejections: usize,
    /// Crowd tasks where *every* selected worker's reservation was
    /// refused — the crowd was saturated and the machine's best guess
    /// stood in (a subset of `fallbacks`).
    pub starved_tasks: usize,
}

/// The CrowdPlanner server: owned, `Send` and `'static`.
///
/// Build one with [`CrowdPlanner::new`] (aggregates the transfer network
/// itself) or [`CrowdPlanner::with_mining_state`] (shares a pre-built
/// one, e.g. a serving world's). Planner-local state (truth store,
/// knowledge-model cache, source reliability, statistics) stays private;
/// the crowd is shared through the desk.
pub struct CrowdPlanner {
    graph: Arc<RoadGraph>,
    landmarks: Arc<LandmarkSet>,
    significance: Arc<Vec<f64>>,
    trips: Arc<Vec<Trip>>,
    transfer: Arc<TransferNetwork>,
    mpr: MprParams,
    mfp: MfpParams,
    ldr: LdrParams,
    desk: Arc<dyn CrowdDesk>,
    truths: TruthStore,
    /// Upper bound on the private truth store (0 = unbounded); a full
    /// store batch-evicts oldest-first. Resident serving pools set this
    /// so long-lived per-worker planners cannot grow without bound.
    truth_cap: usize,
    /// Cached knowledge model, keyed by the desk's answer-history
    /// generation: any new answer (this planner's or a concurrent
    /// sibling's) invalidates it.
    knowledge: Option<(u64, KnowledgeModel)>,
    cfg: Config,
    calibration: CalibrationParams,
    /// Landmark-selection algorithm used for task generation.
    pub selection_algorithm: SelectionAlgorithm,
    reliability: SourceReliability,
    stats: SystemStats,
}

impl CrowdPlanner {
    /// Builds the server, aggregating the all-day transfer network from
    /// the trips (the expensive part of candidate mining).
    ///
    /// `significance` must have one entry per landmark (the HITS-inferred
    /// `l.s` scores).
    pub fn new(
        graph: Arc<RoadGraph>,
        landmarks: Arc<LandmarkSet>,
        significance: Arc<Vec<f64>>,
        trips: Arc<Vec<Trip>>,
        desk: Arc<dyn CrowdDesk>,
        cfg: Config,
    ) -> Result<Self, CoreError> {
        let transfer = Arc::new(TransferNetwork::build(&graph, &trips, None));
        Self::with_mining_state(
            graph,
            landmarks,
            significance,
            trips,
            transfer,
            MprParams::default(),
            MfpParams::default(),
            LdrParams::default(),
            desk,
            cfg,
        )
    }

    /// Builds the server over an already-aggregated transfer network and
    /// explicit miner parameters — the constructor for serving stacks
    /// that keep one shared mining state per city world.
    #[allow(clippy::too_many_arguments)]
    pub fn with_mining_state(
        graph: Arc<RoadGraph>,
        landmarks: Arc<LandmarkSet>,
        significance: Arc<Vec<f64>>,
        trips: Arc<Vec<Trip>>,
        transfer: Arc<TransferNetwork>,
        mpr: MprParams,
        mfp: MfpParams,
        ldr: LdrParams,
        desk: Arc<dyn CrowdDesk>,
        cfg: Config,
    ) -> Result<Self, CoreError> {
        cfg.validate()?;
        if significance.len() != landmarks.len() {
            return Err(CoreError::SignificanceLengthMismatch {
                expected: landmarks.len(),
                actual: significance.len(),
            });
        }
        Ok(CrowdPlanner {
            graph,
            landmarks,
            significance,
            trips,
            transfer,
            mpr,
            mfp,
            ldr,
            desk,
            truths: TruthStore::new(),
            truth_cap: 0,
            knowledge: None,
            cfg,
            calibration: CalibrationParams::default(),
            selection_algorithm: SelectionAlgorithm::Greedy,
            reliability: SourceReliability::default(),
            stats: SystemStats::default(),
        })
    }

    /// System statistics so far.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// The truth store (read access for experiments).
    pub fn truths(&self) -> &TruthStore {
        &self.truths
    }

    /// Bounds the private truth store to at most `cap` entries (0 =
    /// unbounded, the default): a full store batch-evicts oldest-first
    /// on insert. Long-lived planners on resident worker pools should
    /// set this, mirroring the serving layer's bounded sharded store.
    pub fn set_truth_cap(&mut self, cap: usize) {
        self.truth_cap = cap;
    }

    /// Records a truth, enforcing the cap. Batch eviction (an eighth of
    /// the cap at a time) amortises the store's O(remaining) re-index.
    fn record_truth(&mut self, entry: TruthEntry) {
        self.truths.insert(&self.graph, entry);
        if self.truth_cap != 0 && self.truths.len() > self.truth_cap {
            let batch = (self.truth_cap / 8).max(1) + (self.truths.len() - self.truth_cap - 1);
            self.truths.evict_oldest(batch);
        }
    }

    /// The crowd desk this planner assigns through (shared with every
    /// sibling planner over the same crowd).
    pub fn desk(&self) -> &Arc<dyn CrowdDesk> {
        &self.desk
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The road graph.
    pub fn graph(&self) -> &Arc<RoadGraph> {
        &self.graph
    }

    /// The landmark set.
    pub fn landmarks(&self) -> &Arc<LandmarkSet> {
        &self.landmarks
    }

    /// Produces one candidate route per available source over the owned
    /// mining state (identical output to the borrowed
    /// `CandidateGenerator` over the same inputs).
    pub fn candidates(
        &self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
    ) -> Vec<cp_mining::CandidateRoute> {
        generate_candidates(
            &self.graph,
            &self.trips,
            &self.transfer,
            &self.mpr,
            &self.mfp,
            &self.ldr,
            from,
            to,
            departure,
        )
    }

    /// Lazily (re)builds the worker-knowledge model. Invalidated whenever
    /// the desk's answer history moves (this planner's asks or a
    /// concurrent sibling's).
    pub fn knowledge_model(&mut self) -> &KnowledgeModel {
        let generation = self.desk.generation();
        let stale = self
            .knowledge
            .as_ref()
            .is_none_or(|(g, _)| *g != generation);
        if stale {
            self.knowledge = Some((
                generation,
                KnowledgeModel::build(&*self.desk, &self.landmarks, &self.cfg),
            ));
        }
        &self.knowledge.as_ref().expect("just built").1
    }

    /// Step 1 of the ladder: a private-truth-store hit, if any.
    fn reuse_hit(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
    ) -> Option<Recommendation> {
        let hit = self
            .truths
            .lookup(&self.graph, from, to, departure, &self.cfg)?;
        self.stats.reuse_hits += 1;
        Some(Recommendation {
            path: hit.path.clone(),
            resolution: Resolution::ReusedTruth,
            questions_asked: 0,
            workers_asked: 0,
            confidence: hit.confidence,
        })
    }

    /// Handles one route request through the paper's full ladder.
    /// `oracle(l)` must answer "does the best route pass landmark l?" —
    /// the latent crowd knowledge the workers noisily report.
    pub fn handle_request(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        oracle: &dyn Fn(LandmarkId) -> bool,
    ) -> Result<Recommendation, CoreError> {
        // Step 1: reuse truth.
        if let Some(hit) = self.reuse_hit(from, to, departure) {
            self.stats.requests += 1;
            return Ok(hit);
        }

        // Step 2: generate candidates.
        let candidates = self.candidates(from, to, departure);
        self.resolve_with_candidates(from, to, departure, &candidates, oracle)
    }

    /// Steps 3–4 of the ladder only — machine evaluation, then the crowd
    /// — over a candidate set the caller already mined. Counts the
    /// request but never probes the private truth store for reuse: the
    /// serving layer calls this after its own shared truth store missed.
    /// `candidates` must be what [`CrowdPlanner::candidates`] would
    /// produce for the same request (the serving world shares this
    /// planner's mining state); an empty set resolves to
    /// [`CoreError::NoCandidates`].
    pub fn resolve_with_candidates(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[cp_mining::CandidateRoute],
        oracle: &dyn Fn(LandmarkId) -> bool,
    ) -> Result<Recommendation, CoreError> {
        self.stats.requests += 1;
        if candidates.is_empty() {
            return Err(CoreError::NoCandidates);
        }

        // Step 3: machine evaluation.
        let confidences =
            match evaluate_candidates(&self.graph, candidates, &self.truths, from, to, &self.cfg) {
                Evaluation::Agreement { path, supporters } => {
                    self.stats.agreements += 1;
                    self.record_truth(TruthEntry {
                        from,
                        to,
                        departure,
                        path: path.clone(),
                        confidence: 1.0,
                    });
                    return Ok(Recommendation {
                        path,
                        resolution: Resolution::Agreement,
                        questions_asked: 0,
                        workers_asked: 0,
                        confidence: supporters as f64 / candidates.len() as f64,
                    });
                }
                Evaluation::Confident { path, confidence } => {
                    self.stats.confident += 1;
                    self.record_truth(TruthEntry {
                        from,
                        to,
                        departure,
                        path: path.clone(),
                        confidence,
                    });
                    return Ok(Recommendation {
                        path,
                        resolution: Resolution::Confident,
                        questions_asked: 0,
                        workers_asked: 0,
                        confidence,
                    });
                }
                Evaluation::Undecided { confidences } => confidences,
            };

        // Step 4: crowd.
        self.crowd_resolve(from, to, departure, candidates, confidences, oracle)
    }

    /// The CR module: task generation, worker selection, reserve → ask →
    /// commit answer collection with early stop, rewarding, truth
    /// recording.
    #[allow(clippy::too_many_arguments)]
    fn crowd_resolve(
        &mut self,
        from: NodeId,
        to: NodeId,
        departure: TimeOfDay,
        candidates: &[cp_mining::CandidateRoute],
        confidences: Vec<f64>,
        oracle: &dyn Fn(LandmarkId) -> bool,
    ) -> Result<Recommendation, CoreError> {
        // Deduplicate identical paths, merging their sources; carry the
        // best machine confidence per distinct path as the ID3 prior.
        let distinct = distinct_candidates(candidates);
        let mut paths: Vec<Path> = Vec::new();
        let mut sources: Vec<Vec<SourceKind>> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for (path, srcs) in distinct {
            let conf = candidates
                .iter()
                .zip(confidences.iter())
                .filter(|(c, _)| c.path == path)
                .map(|(_, &w)| w)
                .fold(0.0f64, f64::max);
            paths.push(path);
            sources.push(srcs);
            weights.push(0.1 + conf); // smoothed prior
        }

        // Calibrate to landmark routes; merge candidates whose landmark
        // sets coincide (they are indistinguishable to workers).
        let mut routes: Vec<LandmarkRoute> = Vec::new();
        let mut kept: Vec<usize> = Vec::new();
        for (i, p) in paths.iter().enumerate() {
            let lr = LandmarkRoute::from_path(&self.graph, &self.landmarks, p, &self.calibration);
            if routes.iter().all(|r| !r.same_landmark_set(&lr)) {
                routes.push(lr);
                kept.push(i);
            }
        }

        // Learned source reliability breaks confidence ties: the system's
        // Beta posterior starts from the paper's finding (MFP strongest)
        // and adapts to every crowd verdict it observes.
        let reliability: Vec<f64> = sources
            .iter()
            .map(|srcs| self.reliability.best_of(srcs))
            .collect();
        let fallback = |this: &mut Self, stats_fallback: bool| {
            // Highest machine confidence; ties broken by learned
            // reliability.
            let best = (0..paths.len())
                .max_by(|&a, &b| {
                    weights[a]
                        .partial_cmp(&weights[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            reliability[a]
                                .partial_cmp(&reliability[b])
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                })
                .unwrap_or(0);
            if stats_fallback {
                this.stats.fallbacks += 1;
            }
            paths[best].clone()
        };
        let fallback_recommendation =
            |this: &mut Self, questions_asked: usize, workers_asked: usize| {
                let path = fallback(this, true);
                let confidence = this.cfg.eta_confidence * 0.5;
                this.record_truth(TruthEntry {
                    from,
                    to,
                    departure,
                    path: path.clone(),
                    confidence,
                });
                Recommendation {
                    path,
                    resolution: Resolution::Fallback,
                    questions_asked,
                    workers_asked,
                    confidence,
                }
            };

        if routes.len() < 2 {
            // Everything calibrates to one landmark route: the crowd cannot
            // distinguish candidates; return the best machine guess.
            return Ok(fallback_recommendation(self, 0, 0));
        }

        let kept_weights: Vec<f64> = kept.iter().map(|&i| weights[i]).collect();
        let task: Task = generate_task(
            routes,
            &self.significance,
            self.selection_algorithm,
            self.cfg.selection_budget,
            Some(&kept_weights),
        )?;
        let question_landmarks: Vec<LandmarkId> = task.questions.iter().map(|&(l, _)| l).collect();

        // Worker selection. The quota filter sees the tighter of the
        // paper's η_#q and the desk's hard cap, so selection never
        // nominates workers whose reservations are guaranteed to bounce.
        self.knowledge_model();
        let knowledge = &self.knowledge.as_ref().expect("built above").1;
        let mut sel_cfg = self.cfg.clone();
        sel_cfg.eta_quota = sel_cfg.eta_quota.min(self.desk.max_outstanding());
        let workers =
            match select_workers_scored(&*self.desk, knowledge, &question_landmarks, &sel_cfg) {
                Ok(w) => w,
                Err(CoreError::NoEligibleWorkers) => {
                    // Distinguish transient quota saturation from a
                    // genuinely unknowledgeable / unresponsive crowd: if
                    // lifting the quota filter alone finds workers, this
                    // is starvation — book it and (unlike a real
                    // fallback verdict) record no truth, so a retry once
                    // capacity frees up reaches the crowd.
                    sel_cfg.eta_quota = u32::MAX;
                    let quota_bound = select_workers_scored(
                        &*self.desk,
                        knowledge,
                        &question_landmarks,
                        &sel_cfg,
                    )
                    .is_ok();
                    if quota_bound {
                        self.stats.starved_tasks += 1;
                        let path = fallback(self, true);
                        return Ok(Recommendation {
                            path,
                            resolution: Resolution::Fallback,
                            questions_asked: 0,
                            workers_asked: 0,
                            confidence: self.cfg.eta_confidence * 0.5,
                        });
                    }
                    return Ok(fallback_recommendation(self, 0, 0));
                }
                Err(e) => return Err(e),
            };

        // Answer collection with early stop. Each assignment follows the
        // desk's reserve → ask → commit protocol: a worker already at the
        // shared `max_outstanding` cap is skipped (counted as a quota
        // rejection), and every granted reservation is settled exactly
        // once — committed after rewarding below, or released by the
        // guard on any early exit.
        self.stats.crowd_attempts += 1;
        let mut aggregator = EarlyStop::new(task.routes.len());
        let mut participations: Vec<(cp_crowd::WorkerId, Participation)> = Vec::new();
        let mut reservations: Vec<Reservation> = Vec::new();
        let mut questions_total = 0usize;
        // Normalise preference scores into vote weights with mean ~1.
        let score_sum: f64 = workers.iter().map(|&(_, s)| s).sum();
        let weight_of = |s: f64| {
            if score_sum > 0.0 {
                (s * workers.len() as f64 / score_sum).max(0.1)
            } else {
                1.0
            }
        };
        for &(w, score) in &workers {
            let reservation = match Reservation::acquire(&self.desk, w) {
                Ok(r) => r,
                Err(_quota) => {
                    self.stats.quota_rejections += 1;
                    continue;
                }
            };
            let mut elapsed = 0.0f64;
            let deadline = self.cfg.task_deadline;
            let desk = &self.desk;
            let landmarks = &self.landmarks;
            let (vote, asked) = task.tree.walk_answers(|l| {
                let lm = landmarks.get(l);
                let truth = oracle(l);
                let (answer, rt) = desk.ask(w, lm, truth);
                elapsed += rt;
                answer
            });
            let on_time = elapsed <= deadline;
            questions_total += asked.len();
            let vote = if on_time { vote } else { None };
            participations.push((
                w,
                Participation {
                    questions_answered: asked.len(),
                    voted_for: vote,
                },
            ));
            reservations.push(reservation);
            aggregator.record_weighted(vote, weight_of(score));
            if let StopDecision::Stop { .. } = aggregator.decision(&self.cfg) {
                break;
            }
        }

        if participations.is_empty() {
            // Every selected worker's reservation was refused: the crowd
            // is saturated by concurrent planners. The machine's best
            // guess stands, but — unlike a genuine "crowd could not
            // verify" outcome — this is transient contention, so **no
            // truth is recorded**: a retry once capacity frees up must
            // reach the crowd, not a memoized degraded guess.
            self.stats.starved_tasks += 1;
            let path = fallback(self, true);
            return Ok(Recommendation {
                path,
                resolution: Resolution::Fallback,
                questions_asked: 0,
                workers_asked: 0,
                confidence: self.cfg.eta_confidence * 0.5,
            });
        }

        // Verdict: an early stop is decisive by construction; otherwise the
        // final leader must clear the verdict floor, else the crowd could
        // not verify and the machine's best guess stands.
        let verdict = match aggregator.decision(&self.cfg) {
            StopDecision::Stop { winner, confidence } => Some((winner, confidence)),
            StopDecision::Continue => aggregator
                .final_verdict()
                .filter(|&(_, c)| c >= self.cfg.verdict_floor),
        };

        // Rewards + bookkeeping: every reservation is committed here,
        // exactly once.
        let winner_idx = verdict.map(|(w, _)| w);
        for ((w, p), reservation) in participations.iter().zip(reservations) {
            let pts = reward_for(p, winner_idx, &self.cfg);
            self.desk.award(*w, pts);
            reservation.commit();
        }

        let workers_asked = participations.len();
        match verdict {
            Some((winner, confidence)) => {
                self.stats.crowd_tasks += 1;
                self.stats.total_questions += questions_total;
                self.stats.total_workers += workers_asked;
                let path = paths[kept[winner]].clone();
                // Source-quality control: every source that proposed the
                // verified route scores a success; the others a failure.
                for (i, srcs) in sources.iter().enumerate() {
                    let won = paths[i] == path;
                    for &s in srcs {
                        self.reliability.record(s, won);
                    }
                }
                self.record_truth(TruthEntry {
                    from,
                    to,
                    departure,
                    path: path.clone(),
                    confidence: 1.0,
                });
                Ok(Recommendation {
                    path,
                    resolution: Resolution::Crowd,
                    questions_asked: questions_total,
                    workers_asked,
                    confidence,
                })
            }
            None => {
                self.stats.total_questions += questions_total;
                self.stats.total_workers += workers_asked;
                Ok(fallback_recommendation(
                    self,
                    questions_total,
                    workers_asked,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_crowd::{
        AnswerModel, CrowdObserve, Platform, PopulationParams, SharedCrowd, WorkerPopulation,
    };
    use cp_roadnet::{generate_city, generate_landmarks, CityParams, LandmarkGenParams};
    use cp_traj::{
        calibrate_path, generate_checkins, generate_trips, infer_significance, CheckInGenParams,
        DriverPreference, SignificanceParams, TripGenParams,
    };

    struct World {
        city: cp_roadnet::City,
        landmarks: cp_roadnet::LandmarkSet,
        significance: Vec<f64>,
        trips: cp_traj::TripDataset,
    }

    fn world(seed: u64) -> World {
        let city = generate_city(&CityParams::small(), seed).unwrap();
        let landmarks = generate_landmarks(&city.graph, &LandmarkGenParams::default(), seed);
        let trips = generate_trips(&city.graph, &TripGenParams::default(), seed).unwrap();
        let checkins =
            generate_checkins(&city.graph, &landmarks, &CheckInGenParams::default(), seed);
        let significance = infer_significance(
            &city.graph,
            &landmarks,
            &checkins,
            &trips,
            &CalibrationParams::default(),
            &SignificanceParams::default(),
        );
        World {
            city,
            landmarks,
            significance,
            trips,
        }
    }

    fn warmed_platform(w: &World, seed: u64) -> Platform {
        let pop = WorkerPopulation::generate(&w.city.graph, &PopulationParams::default(), seed);
        let mut platform = Platform::new(pop, AnswerModel::default(), seed);
        platform.warm_up(&w.landmarks, 10);
        platform
    }

    fn planner_with_desk(w: &World, desk: Arc<dyn CrowdDesk>, cfg: Config) -> CrowdPlanner {
        CrowdPlanner::new(
            Arc::new(w.city.graph.clone()),
            Arc::new(w.landmarks.clone()),
            Arc::new(w.significance.clone()),
            Arc::new(w.trips.trips.clone()),
            desk,
            cfg,
        )
        .unwrap()
    }

    fn planner(w: &World, seed: u64) -> CrowdPlanner {
        let cfg = Config::default();
        let desk = Arc::new(SharedCrowd::new(warmed_platform(w, seed), cfg.eta_quota));
        planner_with_desk(w, desk, cfg)
    }

    /// Oracle derived from the consensus route.
    fn oracle_for(w: &World, from: NodeId, to: NodeId) -> impl Fn(LandmarkId) -> bool + '_ {
        let consensus = DriverPreference::consensus()
            .preferred_route(&w.city.graph, from, to)
            .unwrap();
        let on_route: std::collections::HashSet<LandmarkId> = calibrate_path(
            &w.city.graph,
            &w.landmarks,
            &consensus,
            &CalibrationParams::default(),
        )
        .into_iter()
        .collect();
        move |l| on_route.contains(&l)
    }

    #[test]
    fn request_resolves_end_to_end() {
        let w = world(83);
        let mut cp = planner(&w, 83);
        let oracle = oracle_for(&w, NodeId(0), NodeId(59));
        let rec = cp
            .handle_request(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
        assert_eq!(rec.path.source(), NodeId(0));
        assert_eq!(rec.path.destination(), NodeId(59));
        assert_eq!(cp.stats().requests, 1);
        assert_eq!(cp.truths().len(), 1, "resolution must record a truth");
    }

    #[test]
    fn second_identical_request_reuses_truth() {
        let w = world(89);
        let mut cp = planner(&w, 89);
        let oracle = oracle_for(&w, NodeId(0), NodeId(59));
        let t = TimeOfDay::from_hours(9.0);
        let first = cp
            .handle_request(NodeId(0), NodeId(59), t, &oracle)
            .unwrap();
        let second = cp
            .handle_request(NodeId(0), NodeId(59), t, &oracle)
            .unwrap();
        assert_eq!(second.resolution, Resolution::ReusedTruth);
        assert_eq!(second.path, first.path);
        assert_eq!(cp.stats().reuse_hits, 1);
        assert_eq!(second.questions_asked, 0);
    }

    #[test]
    fn owned_candidates_match_borrowed_generator() {
        let w = world(83);
        let cp = planner(&w, 83);
        let generator = cp_mining::CandidateGenerator::new(&w.city.graph, &w.trips.trips);
        let dep = TimeOfDay::from_hours(8.0);
        for (a, b) in [(0u32, 59u32), (5, 54), (12, 47)] {
            let borrowed = generator.candidates(NodeId(a), NodeId(b), dep);
            let owned = cp.candidates(NodeId(a), NodeId(b), dep);
            assert_eq!(borrowed.len(), owned.len());
            for (x, y) in borrowed.iter().zip(&owned) {
                assert_eq!(x.source, y.source);
                assert_eq!(x.path, y.path);
            }
        }
    }

    #[test]
    fn crowd_path_exercised_on_contested_requests() {
        // Across a spread of requests at least one should reach the crowd
        // (or agreement) — and stats must be internally consistent.
        let w = world(97);
        let mut cp = planner(&w, 97);
        let pairs = [(0u32, 59u32), (9, 50), (5, 54), (20, 39), (3, 48)];
        for (a, b) in pairs {
            let oracle = oracle_for(&w, NodeId(a), NodeId(b));
            cp.handle_request(NodeId(a), NodeId(b), TimeOfDay::from_hours(8.0), &oracle)
                .unwrap();
        }
        let s = cp.stats();
        assert_eq!(s.requests, 5);
        assert_eq!(
            s.reuse_hits + s.agreements + s.confident + s.crowd_tasks + s.fallbacks,
            5
        );
        assert!(
            s.crowd_tasks + s.agreements + s.confident > 0,
            "no request was resolved at all?"
        );
    }

    #[test]
    fn crowd_resolution_rewards_workers_and_settles_reservations() {
        let w = world(101);
        // Force the crowd by making machine evaluation impossible to pass.
        let mut cfg = Config::default();
        cfg.agreement_similarity = 1.0; // only exact path equality agrees
        cfg.agreement_quorum = 1.0; // all sources must agree
        cfg.eta_confidence = 1.0; // machine confidence can never clear it
        let desk = Arc::new(SharedCrowd::new(warmed_platform(&w, 101), cfg.eta_quota));
        let mut cp = planner_with_desk(&w, Arc::clone(&desk) as Arc<dyn CrowdDesk>, cfg);
        let oracle = oracle_for(&w, NodeId(0), NodeId(59));
        let rec = cp
            .handle_request(NodeId(0), NodeId(59), TimeOfDay::from_hours(8.0), &oracle)
            .unwrap();
        assert!(matches!(
            rec.resolution,
            Resolution::Crowd | Resolution::Fallback
        ));
        if rec.resolution == Resolution::Crowd {
            assert!(rec.workers_asked > 0);
            assert!(rec.questions_asked > 0);
            // Some worker earned points.
            let earned: f64 = desk.population().ids().map(|w| desk.points(w)).sum();
            assert!(earned > 0.0);
        }
        // Every granted reservation was settled exactly once and no
        // quota is held after the task.
        assert!(desk.desk_stats().is_drained());
        for id in desk.population().ids() {
            assert_eq!(desk.outstanding(id), 0);
        }
    }

    #[test]
    fn saturated_desk_starves_to_fallback_with_typed_accounting() {
        let w = world(107);
        let mut cfg = Config::default();
        cfg.agreement_similarity = 1.0;
        cfg.agreement_quorum = 1.0;
        cfg.eta_confidence = 1.0;
        cfg.reuse_radius = 0.0;
        let desk = Arc::new(SharedCrowd::new(warmed_platform(&w, 107), 1));
        // Saturate every worker: each already holds max_outstanding tasks,
        // so every reservation this planner attempts must bounce.
        let ids: Vec<cp_crowd::WorkerId> = desk.population().ids().collect();
        for &id in &ids {
            desk.try_reserve(id).unwrap();
        }
        let mut cp = planner_with_desk(&w, Arc::clone(&desk) as Arc<dyn CrowdDesk>, cfg);
        let pairs = [(0u32, 59u32), (9, 50), (5, 54), (20, 39), (3, 48)];
        for (a, b) in pairs {
            let oracle = oracle_for(&w, NodeId(a), NodeId(b));
            let rec = cp
                .handle_request(NodeId(a), NodeId(b), TimeOfDay::from_hours(8.0), &oracle)
                .unwrap();
            // Reservations can never be granted, so nothing resolves by
            // crowd and nobody is ever asked.
            assert_ne!(rec.resolution, Resolution::Crowd);
            assert_eq!(rec.workers_asked, 0);
        }
        let s = cp.stats();
        assert!(
            s.starved_tasks > 0,
            "a fully saturated desk must starve at least one task: {s:?}"
        );
        // Selection is clamped to the desk cap, so saturated workers are
        // never even nominated: no reservation is attempted (and none
        // bounce), the task is recognised as quota-bound up front.
        assert_eq!(s.quota_rejections, 0);
        assert_eq!(s.crowd_attempts, 0, "no crowd task should launch");
        assert_eq!(s.crowd_tasks, 0);
        // Saturation never leaks extra outstanding slots.
        for &id in &ids {
            assert_eq!(desk.outstanding(id), 1);
        }
    }

    #[test]
    fn truth_cap_bounds_the_private_store() {
        let w = world(83);
        let mut cp = planner(&w, 83);
        cp.set_truth_cap(4);
        let pairs = [
            (0u32, 59u32),
            (1, 58),
            (2, 57),
            (3, 56),
            (4, 55),
            (5, 54),
            (6, 53),
            (7, 52),
        ];
        for (a, b) in pairs {
            let oracle = oracle_for(&w, NodeId(a), NodeId(b));
            cp.handle_request(NodeId(a), NodeId(b), TimeOfDay::from_hours(8.0), &oracle)
                .unwrap();
        }
        assert_eq!(cp.stats().requests, 8);
        assert!(
            cp.truths().len() <= 4,
            "cap must bound the private store: {}",
            cp.truths().len()
        );
    }

    /// Send/'static audit: the serving layer moves owned planners onto
    /// resident worker threads. A regression here (a lifetime or an
    /// un-Send handle sneaking back into the planner) must fail to
    /// compile.
    #[test]
    fn planner_is_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<CrowdPlanner>();
        assert_send::<TruthStore>();
        assert_sync::<TruthStore>();
        assert_sync::<Config>();
        assert_send::<Recommendation>();
        assert_sync::<SystemStats>();
    }

    #[test]
    fn bad_significance_length_rejected() {
        let w = world(103);
        let desk: Arc<dyn CrowdDesk> = Arc::new(SharedCrowd::new(warmed_platform(&w, 103), 5));
        assert!(matches!(
            CrowdPlanner::new(
                Arc::new(w.city.graph.clone()),
                Arc::new(w.landmarks.clone()),
                Arc::new(vec![0.5; 3]),
                Arc::new(w.trips.trips.clone()),
                desk,
                Config::default(),
            ),
            Err(CoreError::SignificanceLengthMismatch { .. })
        ));
    }
}
