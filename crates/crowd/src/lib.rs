//! # cp-crowd — simulated crowdsourcing substrate
//!
//! Substitute for the paper's "hundreds of volunteers":
//!
//! * [`worker`] — worker profiles (public) + latent behavioural attributes;
//! * [`population`] — deterministic population generation and the
//!   ground-truth familiarity definition;
//! * [`answer`] — the familiarity-dependent answer-noise model;
//! * [`response`] — exponential response times: sampling, MLE, CDF
//!   (paper §IV-A);
//! * [`platform`] — the in-memory platform tracking history, quotas and
//!   rewards;
//! * [`desk`] — the shared crowd desk: the **reserve → ask → commit**
//!   protocol ([`CrowdDesk`]), the [`SharedCrowd`] implementation with a
//!   hard per-worker `max_outstanding` cap and contention counters, and
//!   the read-only [`CrowdObserve`] view the worker-selection pipeline
//!   consumes. This is what lets N concurrent resolvers share one crowd
//!   without oversubscribing any worker.

#![warn(missing_docs)]

pub mod answer;
pub mod desk;
pub mod platform;
pub mod population;
pub mod response;
pub mod worker;

pub use answer::AnswerModel;
pub use desk::{
    AnswerObserver, AnswerRecord, CrowdDesk, CrowdObserve, CrowdState, DeskStats, QuotaExhausted,
    Reservation, SharedCrowd,
};
pub use platform::{AnswerTally, Platform, PlatformState, StateSizeMismatch};
pub use population::{PopulationParams, WorkerPopulation};
pub use response::{estimate_lambda, response_probability, sample_response_time};
pub use worker::{Worker, WorkerId};
