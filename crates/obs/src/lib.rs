//! `s3-obs` — zero-dependency observability for the S³ CBCD system.
//!
//! Three pieces, all thread-safe and allocation-free on the hot path:
//!
//! * a process-wide **metrics registry** ([`registry`]) of saturating
//!   atomic [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s
//!   (p50/p90/p99 with ≤12.5% relative error, exact min/max), addressed by
//!   `&'static str` name plus an optional static label;
//! * RAII **spans** ([`Span`], [`span!`]) whose duration feeds the
//!   histogram of the same name, with structured fields forwarded to a
//!   pluggable [`SpanSink`] such as [`RingCollector`];
//! * structured **events** ([`event`]) replacing raw `eprintln!` in
//!   library crates: counted per level and routed through a swappable
//!   [`EventSink`] (default: stderr).
//!
//! Snapshots export as a human-readable table, JSON, or Prometheus text
//! format (see [`Snapshot`]).
//!
//! On top of these, per-query causality: a thread-local [`QueryScope`]
//! tags finished spans with a query id, [`to_chrome_trace`] renders a
//! collected span stream as Perfetto-loadable trace-event JSON, and
//! [`ExplainReport`] carries a per-query plan/outcome breakdown filled in
//! by `s3-core`.
//!
//! Continuous operation builds on those primitives: [`MetricWindows`]
//! turns cumulative registry snapshots into windowed rates and rolling
//! quantiles, a [`HealthEngine`] evaluates declarative [`HealthRule`]s
//! over the windows into `Healthy/Degraded/Critical` [`Verdict`]s with
//! hysteresis, and a [`FlightRecorder`] black-box retains recent spans,
//! events and component state, dumping an [`IncidentReport`] JSON
//! document (readable back with [`JsonValue`]) when something trips.
//!
//! Telemetry is also durable: a [`Tsdb`] persists window frames into
//! CRC-framed rotated segment files (torn tails truncated on reopen)
//! with 1m/1h downsampling tiers and byte/age retention, a [`SlowLog`]
//! captures the full [`ExplainReport`] of degraded or
//! slower-than-quantile queries to the same format, and an [`SloEngine`]
//! evaluates availability/latency/correctness objectives as
//! multi-window burn rates feeding the health engine and the flight
//! recorder.
//!
//! ```
//! use s3_obs::{registry, span};
//!
//! registry().counter("demo.hits").inc();
//! {
//!     let mut s = span!("demo.latency", "items" => 3.0);
//!     s.record("extra", 1.0);
//! } // drop records elapsed ns into histogram "demo.latency"
//! let snap = registry().snapshot();
//! assert!(snap.to_prometheus().contains("demo_hits 1"));
//! ```

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

pub mod crc;
pub mod event;
mod explain;
mod export;
pub mod frame;
mod health;
pub mod json;
mod metrics;
mod recorder;
mod segment;
mod slo;
mod slowlog;
mod span;
mod trace;
mod tsdb;
mod window;

pub use event::{set_event_sink, EventSink, Level, MemEventSink, StderrSink};
pub use explain::{BlockExplain, ExplainPhase, ExplainReport, ShardReport};
pub use health::{Bounds, HealthEngine, HealthReport, HealthRule, RuleOutcome, Signal, Verdict};
pub use json::{JsonError, JsonScalar, JsonValue, JsonWriter};
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, MetricId, Registry,
    Snapshot,
};
pub use recorder::{
    install_event_tee, install_panic_hook, EventRecord, FlightRecorder, HistogramSummary,
    IncidentReport, IncidentTrigger, RecorderConfig,
};
pub use segment::{
    read_records, segment_paths, SegmentConfig, SegmentStore, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    SEGMENT_VERSION,
};
pub use slo::{SloEngine, SloSignal, SloSpec, SloStatus};
pub use slowlog::{SlowEntry, SlowLog, SlowLogConfig, SlowRead};
pub use span::{
    clear_span_sink, current_query, set_span_sink, QueryScope, RingCollector, Span, SpanRecord,
    SpanSink,
};
pub use trace::to_chrome_trace;
pub use tsdb::{key_matches, unix_ms_now, HistSummary, Tier, Tsdb, TsdbConfig, TsdbSample};
pub use window::{ManualTime, MetricWindows, TimeSource, WallTime, WindowFrame};
