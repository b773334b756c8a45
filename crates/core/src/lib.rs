//! # s3-core — the Statistical Similarity Search (S³) index
//!
//! Reproduction of the indexing contribution of Joly, Buisson & Frélicot,
//! *"Statistical similarity search applied to content-based video copy
//! detection"* (ICDE 2005).
//!
//! The crate provides:
//!
//! * [`RecordBatch`] — columnar fingerprint storage (`[0,255]^D` vectors with
//!   video id and time-code);
//! * [`DistortionModel`] / [`IsotropicNormal`] / [`DiagonalNormal`] — the
//!   probability law of the fingerprint distortion `ΔS` (§IV-C);
//! * [`filter`] — statistical and geometric block-selection filters over the
//!   Hilbert p-block partition (§IV-A);
//! * [`S3Index`] — the static sorted-by-curve index with statistical,
//!   ε-range and sequential-scan queries;
//! * [`pseudo_disk`] — the larger-than-memory batched search strategy
//!   (§IV-B, eq. 5);
//! * [`autotune`] — the start-of-retrieval learning of the partition depth
//!   `p_min` minimising `T(p) = T_f(p) + T_r(p)` (§IV-A), from the filter's
//!   own node and record counts; the only source of a depth nobody named;
//! * [`knn`] — exact k-nearest-neighbour search on the same structure
//!   (the alternative paradigm discussed in §I-II).
//!
//! ## Quickstart
//!
//! ```
//! use s3_core::{IsotropicNormal, RecordBatch, S3Index, StatQueryOpts};
//! use s3_hilbert::HilbertCurve;
//!
//! // Index a handful of 20-byte fingerprints.
//! let mut batch = RecordBatch::new(20);
//! batch.push(&[128u8; 20], /*id=*/ 1, /*tc=*/ 0);
//! batch.push(&[10u8; 20], 2, 40);
//! let index = S3Index::build(HilbertCurve::paper(), batch);
//!
//! // Statistical query: search the region holding 90 % of the distortion mass.
//! let model = IsotropicNormal::new(20, 20.0);
//! let mut probe = [128u8; 20];
//! probe[3] = 141; // a mildly distorted copy of the first fingerprint
//! let result = index.stat_query(&probe, &model, &StatQueryOpts::new(0.9, 24));
//! assert!(result.matches.iter().any(|m| m.id == 1));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Library code must surface failures as typed errors, not process aborts
// (tests may still unwrap freely), and all diagnostics must go through the
// s3-obs event sink, never raw prints.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod autotune;
pub mod bufferpool;
pub mod distortion;
pub mod durable;
pub mod dynamic;
pub mod error;
pub mod filter;
pub mod fingerprint;
pub mod index;
pub mod kernels;
pub mod knn;
pub mod metrics;
pub mod pager;
pub mod parallel;
mod plan;
pub mod pseudo_disk;
pub mod resilience;
pub mod shard;
pub mod sketch;
pub mod storage;
pub mod wal;

/// CRC-32 of the checksummed on-disk formats (one implementation, shared
/// with the telemetry segments of `s3-obs`).
pub use s3_obs::crc;

pub use bufferpool::{BlockSource, BufferPool, PageSource, PinnedPage, PooledStorage};
pub use distortion::{DiagonalNormal, DistortionModel, IsotropicNormal};
pub use durable::{DurableIndex, DurableOptions, EngineState, RecoveryReport};
pub use dynamic::{DynamicIndex, MergeOutcome};
pub use error::IndexError;
pub use fingerprint::{dist, dist_sq, Record, RecordBatch, PAPER_DIMS};
pub use index::{FilterAlgo, Match, QueryResult, QueryStats, Refine, S3Index, StatQueryOpts};
pub use kernels::dist_sq_within;
pub use metrics::CoreMetrics;
pub use pager::{DataPages, Page, PageMeta, PageStore, DEFAULT_PAGE_SIZE, PAGE_HEADER_LEN};
pub use pseudo_disk::{DiskIndex, RetryPolicy, WriteOpts};
pub use resilience::{
    next_query_id, system_clock, BreakerConfig, CancelCause, CancelToken, Clock, Deadline,
    MockClock, QueryCtx, SectionBreakers, SystemClock, TimeSource,
};
pub use s3_obs::ShardReport;
pub use shard::{HedgeConfig, ShardPlan, ShardedBatchResult, ShardedIndex, ShardedOptions};
pub use sketch::{Sketch, SketchParams};
pub use storage::{
    CrashSwitch, FaultPlan, FaultStats, FaultyStorage, FileRwStorage, FileStorage, MemStorage,
    SharedMemStorage, Storage, WritableStorage,
};
pub use wal::{Wal, WalRecord};
