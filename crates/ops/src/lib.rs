//! `s3-ops` — the operations plane of the S³ CBCD system.
//!
//! The engines measure themselves through `s3-obs` (registry, spans,
//! EXPLAIN). Everything that *watches* those measurements over time lives
//! here, in a leaf crate nothing in the query path depends on:
//!
//! * [`MetricWindows`] turns cumulative registry snapshots into windowed
//!   rates and rolling quantiles;
//! * a [`HealthEngine`] evaluates declarative [`HealthRule`]s over the
//!   windows into `Healthy/Degraded/Critical` [`Verdict`]s with
//!   hysteresis, and an [`SloEngine`] evaluates objectives as
//!   multi-window burn rates feeding the same engine;
//! * [`default_health_rules`] and [`default_slos`] decide what counts as
//!   healthy for the metrics `s3-core` records;
//! * a [`FlightRecorder`] retains recent spans, events and component
//!   state, dumping an [`IncidentReport`] when something trips;
//! * a [`Tsdb`] persists window frames into CRC-framed rotated segment
//!   files ([`SegmentStore`]), and a [`SlowLog`] spills the EXPLAIN
//!   reports of degraded or slow queries to the same format.
//!
//! The `s3cbcd` subcommands `watch`, `incident`, `history` and `slowlog`
//! are built on these.

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
mod segment;
mod slo;
mod slowlog;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
mod tsdb;
mod window;

pub use health::{Bounds, HealthEngine, HealthReport, HealthRule, RuleOutcome, Signal, Verdict};
pub use metrics::{default_health_rules, default_slos};
pub use recorder::{
    install_event_tee, install_panic_hook, EventRecord, FlightRecorder, HistogramSummary,
    IncidentReport, IncidentTrigger, RecorderConfig,
};
pub use segment::{read_records, segment_paths, SegmentConfig, SegmentStore};
pub use slo::{SloEngine, SloSignal, SloSpec, SloStatus};
pub use slowlog::{SlowEntry, SlowLog, SlowLogConfig, SlowRead};
pub use tsdb::{key_matches, HistSummary, Tier, Tsdb, TsdbConfig, TsdbSample};
pub use window::{MetricWindows, WindowFrame};
