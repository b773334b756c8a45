//! # s3-bench — experiment harness for the S³ reproduction
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §5 for the index) plus ablations of the design choices. Each
//! `src/bin/` binary runs one experiment, prints the paper-style series and
//! writes JSON under `results/`. Timing comparisons between commits are the
//! job of the frozen benchmark under `benchmark/` (see its README).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod report;
mod temp;
pub mod timing;
pub mod workload;

pub use report::{results_dir, Experiment, Scale, Series};
