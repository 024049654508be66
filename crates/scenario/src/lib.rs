//! Scenario DSL and golden-curve catalog for parameterized GSU families.
//!
//! The paper's analysis covers one model shape: a single escorted process,
//! exponential safeguard durations, constant AT coverage. This crate
//! describes *families* of guarded software upgrades in a small line-based
//! DSL (`.gsu` files — see `SCENARIOS.md` for the grammar), lowers each
//! scenario onto the core's model family (`performability::gsu::Family`)
//! and through the same successive model translation, and cross-validates the analytic Y(φ) curves against
//! Monte-Carlo simulation. The committed catalog under `scenarios/` with
//! golden curves under `results/golden/` is the regression surface.
//!
//! ```
//! use gsu_scenario::{parse, ScenarioAnalysis};
//!
//! let spec = parse(
//!     "scenario \"demo\"\n\
//!      theta 10000\nlambda 1200\nmu_new 1e-4\nmu_old 1e-8\n\
//!      coverage 0.95\np_ext 0.1\nat exp 6000\nckpt exp 6000\n\
//!      phi_grid 0 5000 10000\n",
//! )
//! .unwrap();
//! let analysis = ScenarioAnalysis::new(spec).unwrap();
//! assert!(analysis.analysis().evaluate(5000.0).unwrap().y > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod crossval;
pub mod model;
pub mod parse;

mod analysis;

pub use analysis::ScenarioAnalysis;
pub use ast::{AgingSpec, Dist, ScenarioSpec, WaveSpec};
pub use catalog::{load_dir, read_golden, write_golden, GoldenCurve};
pub use crossval::{crossval, Backend, CrossvalPoint, CrossvalReport};
pub use parse::{parse, ParseError, ParseErrorKind};

/// Errors produced by catalog loading and cross-validation.
#[derive(Debug)]
pub enum ScenarioError {
    /// A `.gsu` file failed to parse.
    Parse {
        /// The offending file.
        file: String,
        /// The parse failure with its position.
        error: ParseError,
    },
    /// Model lowering or solving failed.
    Model(performability::PerfError),
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        message: String,
    },
    /// A catalog invariant is violated (name mismatch, bad golden file…).
    Invalid {
        /// The offending file.
        file: String,
        /// What is wrong.
        message: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { file, error } => write!(f, "{file}: {error}"),
            ScenarioError::Model(e) => write!(f, "model error: {e}"),
            ScenarioError::Io { path, message } => write!(f, "{path}: {message}"),
            ScenarioError::Invalid { file, message } => write!(f, "{file}: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<performability::PerfError> for ScenarioError {
    fn from(e: performability::PerfError) -> Self {
        ScenarioError::Model(e)
    }
}
