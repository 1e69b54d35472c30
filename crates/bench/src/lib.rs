//! # cp-bench — the CrowdPlanner experiment harness
//!
//! One module per reconstructed experiment (`e1`…`e10`; see the root
//! README's *Substitutions* table).
//! Each module exposes `run(fast: bool)`, printing the table/series the
//! corresponding paper figure would show. `fast` shrinks the workload for
//! smoke tests; the `experiments` binary runs the full versions.
//!
//! Criterion micro-benchmarks for the component costs live in `benches/`.

pub mod common;
pub mod e10_response_filter;
pub mod e11_ablations;
pub mod e1_source_winrate;
pub mod e2_selection_runtime;
pub mod e3_selection_quality;
pub mod e4_question_count;
pub mod e5_worker_selection;
pub mod e6_pmf;
pub mod e7_truth_reuse;
pub mod e8_early_stop;
pub mod e9_end_to_end;

/// One registered experiment: id, description, entry point.
pub type Experiment = (&'static str, &'static str, fn(bool));

/// All experiment ids with descriptions and entry points.
pub fn experiments() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "source win-rate vs trajectory density (MFP strongest)",
            e1_source_winrate::run as fn(bool),
        ),
        (
            "e2",
            "landmark-selection runtime: Brute vs ILS vs Greedy",
            e2_selection_runtime::run,
        ),
        (
            "e3",
            "landmark-selection quality vs exhaustive optimum",
            e3_selection_quality::run,
        ),
        (
            "e4",
            "questions asked: ID3 vs naive orderings",
            e4_question_count::run,
        ),
        (
            "e5",
            "worker-selection strategies: answer accuracy",
            e5_worker_selection::run,
        ),
        (
            "e6",
            "PMF densification RMSE vs observation density",
            e6_pmf::run,
        ),
        (
            "e7",
            "truth reuse: hit rate and crowd savings over time",
            e7_truth_reuse::run,
        ),
        (
            "e8",
            "early stop: answers collected vs accuracy",
            e8_early_stop::run,
        ),
        (
            "e9",
            "end-to-end: sources vs TR-only vs full system",
            e9_end_to_end::run,
        ),
        (
            "e10",
            "response-time filter: on-time completion",
            e10_response_filter::run,
        ),
        (
            "e11",
            "ablations of the design choices (not in the paper)",
            e11_ablations::run,
        ),
    ]
}
