//! Hyperparameter-optimization engines and AutoML baselines.
//!
//! KGpip "is integrated with the hyperparameter optimizers of both FLAML
//! and Auto-Sklearn" (paper §3.6) and evaluated against FLAML,
//! Auto-Sklearn, and AL as standalone systems (§4.2). This crate rebuilds
//! all three engines from scratch:
//!
//! * [`flaml::Flaml`] — a cost-frugal optimizer in the style of FLAML's
//!   CFO: every learner starts from its cheapest configuration, moves by
//!   randomized directional search with step adaptation, and learners are
//!   scheduled by estimated cost of improvement,
//! * [`autosklearn::AutoSklearn`] — SMAC-style Bayesian optimization
//!   (random-forest surrogate + expected improvement) with a meta-feature
//!   portfolio warm start and greedy ensemble selection,
//! * [`al::Al`] — the AL baseline (Cambronero & Rinard 2019): nearest
//!   dataset by meta-features, verbatim replay of its best historical
//!   pipeline, with the hard failure modes the paper observed ("it failed
//!   on many of the datasets during the fitting process"),
//! * [`space`] — per-learner hyperparameter spaces, low-cost initial
//!   configurations, and the JSON capability document that KGpip's
//!   integration contract requires (§3.6: "a JSON document of the
//!   particular preprocessors and estimators supported by the
//!   hyperparameter optimizer"),
//! * [`budget::TimeBudget`] — the shared wall-clock budget abstraction,
//!   with [`budget::BudgetGate`] making trial admission exact under
//!   concurrency,
//! * [`trial`] — the shared parallel trial-evaluation engine
//!   ([`Evaluator`]): holdout evaluation of pipeline specs, a thread-safe
//!   trial history, and `rayon`-backed batch evaluation.
//!
//! The engines expose two modes with one entry point ([`Optimizer`]):
//! *cold* (search over all learners — the standalone baselines of Figure
//! 5) and *skeleton* (hyperparameter search for a fixed
//! preprocessor/estimator skeleton — the mode KGpip drives with its
//! `(T − t)/K` budget split). Engines *propose* batches of [`Candidate`]s
//! and the evaluator admits, evaluates, and records them; with
//! `parallelism == 1` a run reproduces the historical sequential engines
//! bit-for-bit for a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod al;
pub mod autosklearn;
pub mod budget;
pub mod flaml;
pub mod meta;
pub mod space;
pub mod trial;

pub use al::Al;
pub use autosklearn::AutoSklearn;
pub use budget::{BudgetGate, TimeBudget};
pub use flaml::Flaml;
pub use space::{capabilities_json, parse_capabilities, Skeleton};
pub use trial::{Candidate, Evaluator, HpoResult, Optimizer, SearchReport, TrialOutcome};

/// Errors produced by HPO engines.
#[derive(Debug, Clone, PartialEq)]
pub enum HpoError {
    /// The engine could not complete a single trial within the budget.
    BudgetExhausted,
    /// No learner in the allowed set supports the task.
    NoUsableLearner,
    /// The AL baseline hit one of its hard failure modes.
    BaselineFailure(String),
    /// An underlying learner error that invalidated the whole search.
    Learner(String),
    /// A trial's validation score was NaN or infinite (e.g. an R² whose
    /// residual sum overflowed); the trial counts as failed.
    NonFiniteScore(f64),
}

impl std::fmt::Display for HpoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HpoError::BudgetExhausted => write!(f, "budget exhausted before any trial finished"),
            HpoError::NoUsableLearner => write!(f, "no usable learner for this task"),
            HpoError::BaselineFailure(m) => write!(f, "baseline failure: {m}"),
            HpoError::Learner(m) => write!(f, "learner error: {m}"),
            HpoError::NonFiniteScore(s) => write!(f, "trial scored {s}, not a finite number"),
        }
    }
}

impl std::error::Error for HpoError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HpoError>;
