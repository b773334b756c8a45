//! Shared `--fault` / `--fault-seed` flag handling.
//!
//! One named scenario → one seeded [`FaultPlan`], used identically by
//! `watch` and `query` so a degraded run reproduces from its command line
//! alone. Probabilities and stall cadence are fixed per
//! scenario; only the seed varies.

use crate::args::Args;
use s3_core::FaultPlan;

/// Builds the fault plan for `--fault <name>`.
pub fn fault_plan(name: &str, seed: u64) -> Result<Option<FaultPlan>, String> {
    // Let the open path's metadata reads through clean (open takes a
    // handful of logical reads); only the query workload sees faults.
    let base = FaultPlan {
        seed,
        skip_reads: 8,
        ..FaultPlan::default()
    };
    Ok(match name {
        "none" => None,
        "torn" => Some(FaultPlan {
            torn_read: 0.5,
            ..base
        }),
        "stall" => Some(FaultPlan {
            stall_every_n: 4,
            stall_ms: 5,
            ..base
        }),
        "mixed" => Some(FaultPlan {
            torn_read: 0.3,
            stall_every_n: 6,
            stall_ms: 5,
            transient_error: 0.05,
            ..base
        }),
        other => {
            return Err(format!(
                "unknown fault scenario '{other}' (expected none | torn | stall | mixed)"
            ))
        }
    })
}

/// Reads `--fault` (default `none`) and `--fault-seed` (default:
/// `fallback_seed`, normally the workload's `--seed`) into a plan.
pub fn from_args(a: &Args, fallback_seed: u64) -> Result<Option<FaultPlan>, String> {
    let seed: u64 = a.get_parsed("fault-seed", fallback_seed)?;
    fault_plan(a.get("fault").unwrap_or("none"), seed)
}
