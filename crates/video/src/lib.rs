//! # s3-video — video substrate for the S³ CBCD reproduction
//!
//! Everything between pixels and fingerprints (§III of the paper):
//!
//! * [`Frame`] — grayscale frames; [`synth`] — deterministic procedural video
//!   (the substitute for the paper's 75,000 h SNC archive — see DESIGN.md);
//! * [`transform`] — the five evaluated attacks (resize / shift / gamma /
//!   contrast / noise, Fig. 4) with exact position mappings;
//! * [`keyframes`] — intensity-of-motion extrema key-frame detection;
//! * [`harris`] — Gaussian-derivative Harris interest points;
//! * [`features`] — the 20-byte differential local fingerprints;
//! * [`streaming`] — the one extraction loop: frames pushed one at a time,
//!   fingerprints out with a bounded delay (§V-D's live path);
//! * [`pipeline`] — its whole-clip drivers: `extract_fingerprints` and the
//!   matched-position distortion measurement ("perfect interest point
//!   detector", §IV-C) used to fit the distortion model and grade
//!   transformation severity, both fed by `render_ahead` (frames rendered
//!   on every core, handed on in order).

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

pub mod features;
pub mod filtering;
pub mod frame;
pub mod harris;
pub mod keyframes;
pub mod pipeline;
pub mod streaming;
pub mod synth;
pub mod transform;
pub mod y4m;

pub use features::{Fingerprint, FingerprintParams, FINGERPRINT_DIMS};
pub use frame::Frame;
pub use harris::{detect_interest_points, HarrisParams, InterestPoint};
pub use keyframes::{detect_keyframes, KeyframeParams};
pub use pipeline::{
    estimate_sigma, extract_fingerprints, measure_distortion, render_ahead, ExtractorParams,
    LocalFingerprint, MatchedPair,
};
pub use streaming::{StreamError, StreamingExtractor};
pub use synth::{ContentKind, ProceduralVideo, VideoLibrary, VideoSource};
pub use transform::{Transform, TransformChain, TransformedVideo};
pub use y4m::{Y4mError, Y4mVideo};
