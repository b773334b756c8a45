//! # s3 — Statistical Similarity Search for video copy detection
//!
//! Umbrella crate of the S³ reproduction (Joly, Buisson & Frélicot,
//! ICDE 2005): re-exports every workspace crate under one namespace so
//! examples and downstream users need a single dependency.
//!
//! * [`hilbert`] — Hilbert space-filling curve and the p-block partition;
//! * [`stats`] — distributions, special functions, robust estimators;
//! * [`core`] — the S³ index: statistical / ε-range / k-NN queries,
//!   pseudo-disk batching, depth auto-tuning;
//! * [`video`] — synthetic video, the five attack transformations, and the
//!   local fingerprint extraction pipeline;
//! * [`cbcd`] — the complete copy-detection system: registration, robust
//!   voting, monitoring, threshold calibration;
//! * [`obs`] — observability: metrics registry, latency histograms,
//!   tracing spans, EXPLAIN reports, and table/JSON/Prometheus exporters;
//! * [`ops`] — the operations plane over those metrics: windowed rates,
//!   health rules, SLOs, the telemetry store, the slow-query log and the
//!   flight recorder.
//!
//! See the repository README for a walkthrough and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![warn(missing_docs)]

pub use s3_cbcd as cbcd;
pub use s3_core as core;
pub use s3_hilbert as hilbert;
pub use s3_obs as obs;
pub use s3_ops as ops;
pub use s3_stats as stats;
pub use s3_video as video;
