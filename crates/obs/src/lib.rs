//! `s3-obs` — zero-dependency observability for the S³ CBCD system: what
//! the engines need to measure themselves, and nothing that watches the
//! measurements over time (that is the leaf crate `s3-ops`).
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
//! A [`Snapshot`] exports as JSON ([`Snapshot::to_json`], what
//! `s3cbcd --metrics-json` writes).
//!
//! On top of these, per-query causality: a thread-local [`QueryScope`]
//! tags finished spans with a query id, [`to_chrome_trace`] renders a
//! collected span stream as Perfetto-loadable trace-event JSON, and
//! [`ExplainReport`] carries a per-query plan/outcome breakdown filled in
//! by `s3-core`.
//!
//! Beside them sit the one [`JsonWriter`] (and the [`JsonValue`] reader),
//! the one CRC ([`crc`]) and the one `len | body | crc` log frame
//! ([`frame`]) of the workspace, its one clock trait ([`TimeSource`],
//! with [`WallTime`] and [`ManualTime`]) and its one core count
//! ([`default_threads`]).
//!
//! ```
//! use s3_obs::{registry, span};
//!
//! registry().counter("demo.hits").inc();
//! {
//!     let mut s = span!("demo.latency", "items" => 3.0);
//!     s.record("extra", 1.0);
//! } // drop records elapsed ns into histogram "demo.latency"
//! let json = registry().snapshot().to_json();
//! assert!(json.contains("\"demo.hits\": 1"));
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
pub mod json;
mod metrics;
mod span;
mod threads;
mod time;
mod trace;

pub use event::{set_event_sink, EventSink, Level, MemEventSink, StderrSink};
pub use explain::{BlockExplain, ExplainPhase, ExplainReport, ShardReport};
pub use json::{JsonError, JsonScalar, JsonValue, JsonWriter};
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, MetricId, Registry,
    Snapshot,
};
pub use span::{
    clear_span_sink, current_query, set_span_sink, QueryScope, RingCollector, Span, SpanRecord,
    SpanSink,
};
pub use threads::default_threads;
pub use time::{ManualTime, TimeSource, WallTime};
pub use trace::to_chrome_trace;
