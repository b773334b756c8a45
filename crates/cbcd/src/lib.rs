//! # s3-cbcd — the complete content-based video copy detection system
//!
//! Assembles the paper's full pipeline (§III) on top of `s3-core` and
//! `s3-video`:
//!
//! * [`registry`] — reference database construction (fingerprints tagged
//!   with video id and time-code, indexed by the static S³ structure);
//! * [`persist`] — the archive file: the database saved as one index file
//!   with its names, extraction parameters and positions, and loaded back;
//! * [`voting`] — the robust voting strategy: per-id temporal-offset
//!   estimation with a Tukey-biweight M-estimator (eq. 2) and `n_sim` vote
//!   counting;
//! * [`spatial`] — the spatio-temporal extension of the vote (§VI): the
//!   same temporal fit, then a robust translation of the interest points;
//! * [`detector`] — extraction → statistical search → voting, end to end;
//! * [`monitor`] — continuous sliding-window stream monitoring (§V-D) with
//!   real-time-factor reporting;
//! * [`calibrate`] — decision-threshold calibration against a budget of one
//!   false alarm an hour (§V-C), on whole clips or on the monitor's windows.
//!
//! The decision stage has one setting, the `n_sim` threshold
//! ([`VoteParams::min_votes`]), which [`calibrate`] chooses. The estimator's
//! constants, the monitor's window (30 key-frames, 10 shared) and the
//! frame rate ([`FRAME_RATE`]) are fixed.

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

/// Frame rate of every stream, in frames per second: time-codes count
/// frames, and the calibrators and the real-time factor turn them into
/// seconds at this rate (the paper's 25 fps broadcast).
pub const FRAME_RATE: f64 = 25.0;

pub mod calibrate;
pub mod detector;
pub mod metrics;
pub mod monitor;
pub mod persist;
pub mod registry;
pub mod spatial;
pub mod voting;

pub use calibrate::{calibrate_monitor_threshold, calibrate_threshold, Calibration};
pub use detector::{Detector, DetectorConfig, Search, SearchHealth};
pub use metrics::CbcdMetrics;
pub use monitor::{HealthReport, Monitor, MonitorEvent, MonitorStats};
pub use registry::{DbBuilder, ReferenceDb};
pub use spatial::{vote_spatial, SpatialCandidateVotes, SpatialDetection};
pub use voting::{vote, CandidateVotes, Detection, VoteParams};
