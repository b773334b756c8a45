//! # s3-hilbert — Hilbert space-filling curve for high-dimensional byte spaces
//!
//! Supporting structure for the Statistical Similarity Search (S³) index of
//! Joly, Buisson & Frélicot, *"Statistical similarity search applied to
//! content-based video copy detection"* (ICDE 2005).
//!
//! This crate provides:
//!
//! * [`Key256`] — 256-bit derived keys (the paper's space `[0,255]^20` needs
//!   160-bit keys, beyond `u128`);
//! * [`HilbertCurve`] — the Butz algorithm in Hamilton's `(e, d)` state-machine
//!   formulation, mapping grid points to curve positions and back with O(D)
//!   memory (no state diagrams, so it scales past 10 dimensions), with an
//!   axis order that decides which components the partition halves first;
//! * [`Block`] — the *p-block* partition of §IV: cutting the curve into `2^p`
//!   equal intervals partitions space into `2^p` equal-volume hyper-rectangles,
//!   navigated as a binary tree by [`Block::split`]. The statistical and
//!   geometric query filters of `s3-core` are branch-and-bound traversals of
//!   this tree.
//!
//! ## Example: mapping and partition
//!
//! ```
//! use s3_hilbert::{Block, HilbertCurve, blocks_at_depth};
//!
//! let curve = HilbertCurve::new(2, 4).unwrap(); // 16 x 16 grid
//! let key = curve.encode(&[5, 9]);
//! assert_eq!(curve.decode_vec(&key), vec![5, 9]);
//!
//! // Fig. 2 of the paper: the depth-3 partition has 8 rectangular blocks.
//! let blocks = blocks_at_depth(&curve, 3);
//! assert_eq!(blocks.len(), 8);
//! assert!(blocks.iter().filter(|b| b.contains(&[5, 9])).count() == 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// Library crates never print: diagnostics go through the s3-obs event sink.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod blocks;
pub mod curve;
pub mod gray;
pub mod key;
pub mod locality;

pub use blocks::{blocks_at_depth, AxisSplit, Block, CompactNode, KeyBound, KeyRange, LevelCell};
pub use curve::{CurveError, HilbertCurve, LevelState, MAX_DIMS, MAX_ORDER};
pub use key::Key256;
pub use locality::{measure_locality, row_major_key, LocalityStats};
