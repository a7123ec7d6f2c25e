//! Minimal tensor + reverse-mode autodiff framework.
//!
//! The KGpip paper trains a deep generative model of graphs (Li et al.
//! 2018): GRU-style node-state updates driven by message passing, plus MLP
//! heads for the add-node / add-edge / pick-node decisions. No GNN
//! framework exists in Rust (repro note: "no mature GNN or AutoML
//! frameworks in rust"), so this crate provides the exact operator set that
//! model needs and nothing more:
//!
//! * [`Tensor`] — dense row-major `f32` matrices,
//! * [`Tape`] — an eager reverse-mode autodiff tape with matmul, elementwise
//!   ops, concat, row gather/scatter (embedding lookup and message
//!   aggregation), softmax cross-entropy and sigmoid BCE losses; backed by a
//!   [`BufferPool`] so `Tape::reset` reuses allocations across passes,
//! * [`ParamStore`] — named parameter storage with Xavier initialization,
//! * [`layers`] — `Linear`, `GruCell`, `Mlp`, each with a taped `forward`
//!   and a forward-only `infer` that replays the tape's f32 op order,
//! * [`Adam`] — the optimizer used for generator training.
//!
//! Gradient correctness is enforced by finite-difference tests on every
//! operator (see `tape::tests`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod optim;
pub mod params;
pub mod tape;
pub mod tensor;

pub use layers::{GruCell, GruScratch, Linear, Mlp};
pub use optim::Adam;
pub use params::{ParamId, ParamStore};
pub use tape::{BufferPool, Tape, TensorRef};
pub use tensor::Tensor;

/// Errors produced by tensor and tape operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// Operand shapes are incompatible.
    Shape(String),
    /// An index (row, parameter, class) is out of bounds.
    Index(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::Shape(m) => write!(f, "shape error: {m}"),
            NnError::Index(m) => write!(f, "index error: {m}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
