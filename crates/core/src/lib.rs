//! # cp-core — the CrowdPlanner system
//!
//! Reproduction of the core contribution of *CrowdPlanner: A Crowd-Based
//! Route Recommendation System* (Han Su et al., ICDE 2014):
//!
//! * [`route`] — landmark-based routes and the discriminative-set
//!   definitions (Defs. 1–5);
//! * [`taskgen`] — task generation (§III): landmark significance
//!   consumption, the selection optimisation with BruteForce / ILS /
//!   GreedySelect, and ID3 question ordering;
//! * [`worker_selection`] — worker selection (§IV): familiarity scores,
//!   PMF densification, Gaussian knowledge accumulation, response-time
//!   filtering, rated-voting top-k;
//! * [`truth`] — the verified-truth store and reuse;
//! * [`evaluation`] — machine route evaluation (agreement + confidence);
//! * [`early_stop`] — partial-feedback early stopping;
//! * [`reward`] — workload/quality rewards;
//! * [`system`] — the control-logic orchestrator.

#![warn(missing_docs)]

pub mod config;
pub mod early_stop;
pub mod error;
pub mod evaluation;
pub mod hashing;
pub mod reliability;
pub mod reward;
pub mod route;
pub mod system;
pub mod taskgen;
pub mod truth;
pub mod worker_selection;

pub use config::Config;
pub use early_stop::{EarlyStop, StopDecision};
pub use error::CoreError;
pub use evaluation::{evaluate_candidates, Evaluation};
pub use hashing::{FxBuildHasher, FxHashMap, FxHasher};
pub use reliability::SourceReliability;
pub use reward::{reward_for, Participation};
pub use route::{is_discriminative, is_simplest_discriminative, LandmarkRoute};
pub use system::{CrowdPlanner, Recommendation, Resolution, SystemStats};
pub use taskgen::{
    brute_force_select, build_question_tree, generate_task, greedy_select, ils_select,
    QuestionNode, QuestionTree, Selection, SelectionAlgorithm, SelectionProblem, Task,
};
pub use truth::{grid_cell, TruthEntry, TruthGrid, TruthStore, DEFAULT_BUCKET_S, DEFAULT_CELL_M};
pub use worker_selection::{
    accumulate_scores, familiarity_score, observed_matrix, profile_familiarity, select_workers,
    DenseMatrix, KnowledgeBasis, KnowledgeModel, PmfModel, PmfParams, SparseObservations,
};
