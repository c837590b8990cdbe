//! Hand-rolled machine-learning substrate for ViewSeeker.
//!
//! The paper's interactive loop needs exactly two models plus a query
//! strategy, all small enough to retrain within the sub-second iteration
//! budget:
//!
//! * [`linreg`] — ridge-regularized **linear regression** (the *view utility
//!   estimator*): predicts the user's utility score for every view from its
//!   8 utility features;
//! * [`logreg`] — L2-regularized **logistic regression** (the *uncertainty
//!   estimator*): a probabilistic classifier over the same features whose
//!   predicted probability drives uncertainty sampling;
//! * [`active`] — **query-by-committee** (an ablation extension; the paper
//!   cites Seung et al. as an alternative to uncertainty sampling, which the
//!   session runs off the logistic estimator itself).
//!
//! Supporting piece: a small dense [`matrix`] type with Cholesky solving
//! for the normal equations.
//!
//! Everything is implemented from scratch per the reproduction brief ("must
//! hand-roll active learning and ranking models").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod linreg;
pub mod logreg;
pub mod matrix;

pub use active::QueryByCommittee;
pub use linreg::{RidgeConfig, RidgeRegression};
pub use logreg::{LogisticConfig, LogisticRegression};
pub use matrix::Matrix;

/// Errors produced by the learning substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// Dimension mismatch between inputs (rows/columns/labels).
    DimensionMismatch(String),
    /// Not enough training data for the requested operation.
    InsufficientData {
        /// Samples provided.
        got: usize,
        /// Samples required.
        need: usize,
    },
    /// A numerical routine failed (e.g. the normal equations were singular
    /// beyond what regularization could repair).
    Numerical(String),
    /// A model was used before being fitted.
    NotFitted,
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            LearnError::InsufficientData { got, need } => {
                write!(f, "insufficient data: got {got}, need {need}")
            }
            LearnError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            LearnError::NotFitted => write!(f, "model has not been fitted"),
        }
    }
}

impl std::error::Error for LearnError {}
