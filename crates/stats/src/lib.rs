//! # s3-stats — statistical toolbox for the S³ reproduction
//!
//! Self-contained probability and estimation utilities used across the
//! workspace:
//!
//! * [`special`] — `erf`/`erfc`, `ln Γ`, regularized incomplete gamma and a
//!   monotone-function inverter;
//! * [`Normal`] — the per-component distortion law of the paper's model
//!   (§IV-C), providing the interval masses the statistical filter multiplies;
//! * [`NormDistribution`] — the law of `‖ΔS‖` for iid normal components
//!   (§V-A), used to match ε-range radii to statistical-query expectations
//!   (e.g. ε = 93.6 for σ = 20, D = 20, α = 80 %);
//! * [`Histogram`] — empirical densities (Fig. 1) and quantiles;
//! * [`robust`] — Tukey's biweight M-estimator for the voting stage (§III);
//! * [`moments`] — Welford accumulators to estimate the per-component σ_j and
//!   the pooled σ̄ severity measure (§IV-C, Table I).
//!
//! Everything is implemented from scratch; the crate has no runtime
//! dependencies.

#![warn(missing_docs)]
#![warn(clippy::all)]
// Library crates never print: diagnostics go through the s3-obs event sink.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod chi;
pub mod histogram;
pub mod moments;
pub mod normal;
pub mod robust;
pub mod special;

pub use chi::NormDistribution;
pub use histogram::Histogram;
pub use moments::{Moments, VectorMoments};
pub use normal::Normal;
pub use robust::{mad, median, tukey_location, tukey_rho, tukey_weight, MEstimate};
