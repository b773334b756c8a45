//! `s3-ops` — the operations plane of the S³ CBCD system.
//!
//! The engines measure themselves through `s3-obs` (registry, spans,
//! EXPLAIN). What *watches* those measurements over a long-running process
//! — the paper's broadcast monitor (§V-D) — lives here, in a leaf crate
//! nothing in the query path depends on:
//!
//! * [`MetricWindows`] turns cumulative registry snapshots into windowed
//!   rates and rolling quantiles;
//! * a [`HealthEngine`] evaluates declarative [`HealthRule`]s over the
//!   windows into `Healthy/Degraded/Critical` [`Verdict`]s with
//!   hysteresis;
//! * [`default_health_rules`] decides what counts as healthy for the
//!   metrics `s3-core` records;
//! * a [`FlightRecorder`] retains recent spans, events and component
//!   state, dumping an [`IncidentReport`] when something trips.
//!
//! `s3cbcd monitor --dashboard` and `s3cbcd incident` are built on these.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

mod health;
mod metrics;
mod recorder;
mod window;

pub use health::{Bounds, HealthEngine, HealthReport, HealthRule, RuleOutcome, Signal, Verdict};
pub use metrics::default_health_rules;
pub use recorder::{
    install_event_tee, install_panic_hook, EventRecord, FlightRecorder, HistogramSummary,
    IncidentReport, IncidentTrigger, RecorderConfig,
};
pub use window::MetricWindows;
