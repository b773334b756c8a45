//! Per-query EXPLAIN reports: the plan the statistical filter chose, what
//! refinement actually did with it, and any degradation along the way.
//!
//! The S³ filter *predicts* — it selects the minimal block set `B_α^min`
//! whose modeled probability mass reaches `α`. An [`ExplainReport`] puts
//! that prediction next to ground truth for one query: per selected block,
//! the predicted mass vs. the records the refinement phase actually
//! scanned vs. the matches those records produced, plus per-phase
//! nanoseconds and annotations for every way the query degraded
//! (breaker skips, deadline hits, lost shards, truncation).
//!
//! This crate only defines the carrier types and renderers; `s3-core`
//! fills them in, in one place for every engine (its `plan` module), when a
//! query's context asks for EXPLAIN.

use std::fmt::Write as _;

use crate::json::JsonWriter;

/// One selected p-block of the plan: prediction vs. outcome.
#[derive(Clone, Debug, Default)]
pub struct BlockExplain {
    /// Partition depth of the block (the paper's `p`).
    pub depth: u32,
    /// Probability mass the distortion model assigned to this block.
    pub predicted_mass: f64,
    /// Records actually scanned for this block during refinement.
    pub scanned: u64,
    /// Matches produced from this block's records.
    pub matched: u64,
}

/// One shard's dispatch within a scatter-gather batch. The same row serves
/// the batch result (`entries_scanned`/`matches` summed over the batch's
/// queries) and a query's EXPLAIN report (that query's share).
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Shard index in the shard plan.
    pub shard: usize,
    /// Replica that served the answer (`None` when the shard was skipped).
    pub served_by: Option<usize>,
    /// Replica attempts spawned after an earlier replica failed.
    pub failovers: u32,
    /// True if a hedged backup request was launched for this shard.
    pub hedged: bool,
    /// True if the hedged backup answered first.
    pub hedge_won: bool,
    /// True if every replica stayed unreachable — the answer is missing
    /// the shard's whole key range.
    pub skipped: bool,
    /// True if the shard's circuit breaker rejected the dispatch outright.
    pub breaker_open: bool,
    /// Records the serving replica scanned.
    pub entries_scanned: u64,
    /// Matches the shard contributed.
    pub matches: u64,
    /// Wall-clock from dispatch to the winning response, in nanoseconds
    /// (0 if skipped).
    pub elapsed_ns: u64,
}

/// Wall-clock spent in one phase of the query, in nanoseconds.
#[derive(Clone, Debug)]
pub struct ExplainPhase {
    /// Phase name (`filter`, `load`, `refine`, ...).
    pub name: &'static str,
    /// Nanoseconds attributed to the phase.
    pub ns: u64,
}

/// The full per-query EXPLAIN report.
#[derive(Clone, Debug, Default)]
pub struct ExplainReport {
    /// Query id (matches span `query_id`s and trace process ids).
    pub query_id: u64,
    /// Requested probability mass α.
    pub alpha: f64,
    /// Maximum partition depth the filter was allowed.
    pub depth: u32,
    /// Filter algorithm that produced the plan (`best_first`,
    /// `threshold`, ...).
    pub algo: &'static str,
    /// Final threshold `t_max` (threshold algorithm; 0 otherwise).
    pub tmax: f64,
    /// Bisection iterations spent finding `t_max` (threshold algorithm).
    pub iterations: u32,
    /// Selected blocks, in plan order.
    pub blocks: Vec<BlockExplain>,
    /// Total predicted mass actually achieved by the plan (≥ `target`
    /// unless truncated/degraded).
    pub predicted_mass: f64,
    /// The mass the plan aimed at: α capped at what the byte cube can hold
    /// around this query (a corner query cannot reach the α it was asked
    /// for, and is not degraded for it).
    pub target: f64,
    /// Observed selectivity: `entries_scanned / db_records` (0..=1).
    pub observed_selectivity: f64,
    /// Records scanned during refinement (must equal the sum of
    /// per-block `scanned` on a clean run).
    pub entries_scanned: u64,
    /// Matches returned (must equal the sum of per-block `matched` on a
    /// clean run).
    pub matches: u64,
    /// Sections the section sketch proved empty for this query and skipped
    /// without I/O. Informational, never a degradation: sketch skips are
    /// true negatives, so per-block accounting still reconciles — the
    /// skipped sections would have contributed zero scanned records.
    pub sketch_skipped: u64,
    /// Per-shard rows of a scatter-gather query (empty on single-node
    /// runs). When present, per-block accounting is replaced by per-shard
    /// accounting: each shard's replica scanned its slice of the records,
    /// and the shard sums must reconcile with the query totals.
    pub shards: Vec<ShardReport>,
    /// Per-phase wall-clock.
    pub phases: Vec<ExplainPhase>,
    /// Degradation annotations, empty on a clean run (e.g.
    /// `deadline exceeded — partial scan`, `circuit breaker skipped 2
    /// section load(s) in this batch`).
    pub annotations: Vec<String>,
}

impl ExplainReport {
    /// Sum of per-block predicted mass.
    pub fn block_mass(&self) -> f64 {
        self.blocks.iter().map(|b| b.predicted_mass).sum()
    }

    /// Sum of per-block scanned records.
    pub fn block_scanned(&self) -> u64 {
        self.blocks.iter().map(|b| b.scanned).sum()
    }

    /// Sum of per-block matches.
    pub fn block_matched(&self) -> u64 {
        self.blocks.iter().map(|b| b.matched).sum()
    }

    /// Whether the query degraded (any annotation present).
    pub fn degraded(&self) -> bool {
        !self.annotations.is_empty()
    }

    /// Sum of per-shard scanned records (scatter-gather runs).
    pub fn shard_scanned(&self) -> u64 {
        self.shards.iter().map(|s| s.entries_scanned).sum()
    }

    /// Sum of per-shard matches (scatter-gather runs).
    pub fn shard_matched(&self) -> u64 {
        self.shards.iter().map(|s| s.matches).sum()
    }

    /// Whether the detailed accounting reconciles exactly with the query
    /// totals. Single-node runs reconcile per block; scatter-gather runs
    /// (any [`ShardReport`] rows present) reconcile per shard, since each
    /// shard's replica scans its own slice of the records. Guaranteed on
    /// clean runs; a degraded run that stopped mid-scan may not reconcile
    /// (and says so in its annotations).
    pub fn reconciles(&self) -> bool {
        if self.shards.is_empty() {
            self.block_scanned() == self.entries_scanned && self.block_matched() == self.matches
        } else {
            self.shard_scanned() == self.entries_scanned && self.shard_matched() == self.matches
        }
    }

    /// Renders a human-readable multi-line report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "EXPLAIN query {} · algo={} depth={} alpha={:.4}",
            self.query_id, self.algo, self.depth, self.alpha
        );
        if self.algo.starts_with("threshold") {
            let _ = writeln!(
                out,
                "  t_max={:.6} ({} bisection iterations)",
                self.tmax, self.iterations
            );
        }
        // Judged against the reachable target with the slack the engines'
        // own `missed_target` allows, so BELOW never prints unannotated. A
        // query stopped before its filter ran aimed at nothing.
        let verdict = if self.target <= 0.0 {
            "filter never ran;"
        } else if self.predicted_mass < self.target - 1e-9 {
            "BELOW"
        } else {
            "meets"
        };
        let _ = write!(
            out,
            "  plan: {} blocks, predicted mass {:.4} ({verdict} ",
            self.blocks.len(),
            self.predicted_mass,
        );
        if self.target > 0.0 && self.target < self.alpha - 1e-9 {
            let _ = write!(out, "reachable {:.4} of ", self.target);
        }
        let _ = writeln!(out, "requested {:.4})", self.alpha);
        let _ = writeln!(
            out,
            "  scanned {} records (selectivity {:.4}%) -> {} matches",
            self.entries_scanned,
            self.observed_selectivity * 100.0,
            self.matches
        );
        if self.sketch_skipped > 0 {
            let _ = writeln!(
                out,
                "  sketch: {} section load(s) skipped (proven empty, no I/O)",
                self.sketch_skipped
            );
        }
        if !self.blocks.is_empty() {
            let _ = writeln!(out, "  blocks (depth  pred.mass    scanned  matched):");
            let shown = self.blocks.len().min(32);
            for b in &self.blocks[..shown] {
                let _ = writeln!(
                    out,
                    "    p={:<3}  {:>9.6}  {:>9}  {:>7}",
                    b.depth, b.predicted_mass, b.scanned, b.matched
                );
            }
            if shown < self.blocks.len() {
                let _ = writeln!(out, "    ... {} more blocks", self.blocks.len() - shown);
            }
        }
        if !self.shards.is_empty() {
            let _ = writeln!(
                out,
                "  shards (id  served_by  failovers  hedged  scanned  matched  ns):"
            );
            for s in &self.shards {
                let served = match (s.served_by, s.breaker_open) {
                    (Some(r), _) => format!("r{r}"),
                    (None, true) => "breaker".to_string(),
                    (None, false) => "lost".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    s={:<3} {:>9} {:>10} {:>7} {:>8} {:>8} {:>10}{}",
                    s.shard,
                    served,
                    s.failovers,
                    if s.hedged {
                        if s.hedge_won {
                            "won"
                        } else {
                            "yes"
                        }
                    } else {
                        "no"
                    },
                    s.entries_scanned,
                    s.matches,
                    s.elapsed_ns,
                    if s.skipped { "  SKIPPED" } else { "" },
                );
            }
        }
        for p in &self.phases {
            let _ = writeln!(out, "  phase {:<7} {:>12} ns", p.name, p.ns);
        }
        if self.shards.is_empty() {
            let _ = writeln!(
                out,
                "  reconciles: {} (blocks scanned={} matched={})",
                self.reconciles(),
                self.block_scanned(),
                self.block_matched()
            );
        } else {
            let _ = writeln!(
                out,
                "  reconciles: {} (shards scanned={} matched={})",
                self.reconciles(),
                self.shard_scanned(),
                self.shard_matched()
            );
        }
        if self.annotations.is_empty() {
            let _ = writeln!(out, "  degradation: none");
        } else {
            for a in &self.annotations {
                let _ = writeln!(out, "  degradation: {a}");
            }
        }
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::line();
        w.obj()
            .field("query_id", self.query_id)
            .field("algo", self.algo)
            .field("alpha", self.alpha)
            .field("depth", self.depth)
            .field("tmax", self.tmax)
            .field("iterations", self.iterations)
            .field("predicted_mass", self.predicted_mass)
            .field("target", self.target)
            .field("observed_selectivity", self.observed_selectivity)
            .field("entries_scanned", self.entries_scanned)
            .field("matches", self.matches)
            .field("sketch_skipped", self.sketch_skipped)
            .field("reconciles", self.reconciles())
            .field("degraded", self.degraded());
        w.key("blocks").arr();
        for b in &self.blocks {
            w.obj()
                .field("depth", b.depth)
                .field("predicted_mass", b.predicted_mass)
                .field("scanned", b.scanned)
                .field("matched", b.matched)
                .end();
        }
        w.end();
        w.key("shards").arr();
        for s in &self.shards {
            w.obj()
                .field("shard", s.shard)
                .field("served_by", s.served_by)
                .field("failovers", s.failovers)
                .field("hedged", s.hedged)
                .field("hedge_won", s.hedge_won)
                .field("skipped", s.skipped)
                .field("breaker_open", s.breaker_open)
                .field("entries_scanned", s.entries_scanned)
                .field("matches", s.matches)
                .field("elapsed_ns", s.elapsed_ns)
                .end();
        }
        w.end();
        w.key("phases").obj();
        for p in &self.phases {
            w.field(p.name, p.ns);
        }
        w.end();
        w.key("annotations").arr().vals(&self.annotations);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExplainReport {
        ExplainReport {
            query_id: 3,
            alpha: 0.9,
            depth: 6,
            algo: "threshold",
            tmax: 0.0125,
            iterations: 11,
            blocks: vec![
                BlockExplain {
                    depth: 6,
                    predicted_mass: 0.7,
                    scanned: 100,
                    matched: 4,
                },
                BlockExplain {
                    depth: 6,
                    predicted_mass: 0.25,
                    scanned: 40,
                    matched: 1,
                },
            ],
            predicted_mass: 0.95,
            target: 0.9,
            observed_selectivity: 0.014,
            entries_scanned: 140,
            matches: 5,
            sketch_skipped: 0,
            shards: vec![],
            phases: vec![
                ExplainPhase {
                    name: "filter",
                    ns: 10_000,
                },
                ExplainPhase {
                    name: "refine",
                    ns: 55_000,
                },
            ],
            annotations: vec![],
        }
    }

    #[test]
    fn sharded_report_reconciles_per_shard() {
        let mut r = sample();
        // Per-block accounting is replaced by per-shard rows: the blocks'
        // sums no longer matter, the shard sums must cover the totals.
        r.blocks.clear();
        r.shards = vec![
            ShardReport {
                shard: 0,
                served_by: Some(0),
                entries_scanned: 90,
                matches: 3,
                ..ShardReport::default()
            },
            ShardReport {
                shard: 1,
                served_by: Some(1),
                failovers: 1,
                hedged: true,
                hedge_won: true,
                entries_scanned: 50,
                matches: 2,
                ..ShardReport::default()
            },
        ];
        assert!(r.reconciles());
        let text = r.to_text();
        assert!(text.contains("shards (id"), "{text}");
        assert!(text.contains("won"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"shards\":[{\"shard\":0"), "{json}");
        assert!(json.contains("\"hedge_won\":true"), "{json}");
        // A lost shard breaks reconciliation and is rendered as such.
        r.shards[1].served_by = None;
        r.shards[1].skipped = true;
        r.shards[1].entries_scanned = 0;
        r.shards[1].matches = 0;
        assert!(!r.reconciles());
        assert!(r.to_text().contains("SKIPPED"));
    }

    #[test]
    fn report_reconciles_and_renders() {
        let r = sample();
        assert!(r.reconciles());
        assert!(!r.degraded());
        assert!((r.block_mass() - 0.95).abs() < 1e-12);
        let text = r.to_text();
        assert!(text.contains("EXPLAIN query 3"), "{text}");
        assert!(
            text.contains("t_max=0.012500 (11 bisection iterations)"),
            "{text}"
        );
        assert!(text.contains("degradation: none"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"reconciles\":true"), "{json}");
        assert!(json.contains("\"entries_scanned\":140"), "{json}");
        assert!(json.contains("\"filter\":10000"), "{json}");
    }

    #[test]
    fn plan_is_judged_against_the_reachable_target() {
        let mut r = sample();
        assert!(r.to_text().contains("(meets requested 0.9000)"));
        // A boundary-clamped query that met what it could reach.
        r.predicted_mass = 0.4;
        r.target = 0.4;
        let text = r.to_text();
        assert!(
            text.contains("(meets reachable 0.4000 of requested 0.9000)"),
            "{text}"
        );
        // A plan cut short of a target it could have reached.
        r.target = 0.9;
        assert!(r.to_text().contains("(BELOW requested 0.9000)"));
        // Cancelled before filtering: no plan to judge.
        r.predicted_mass = 0.0;
        r.target = 0.0;
        assert!(r.to_text().contains("(filter never ran; requested 0.9000)"));
        r.target = 0.9;
        assert!(r.to_json().contains("\"target\":0.9"));
    }

    #[test]
    fn degraded_report_flags_mismatch() {
        let mut r = sample();
        r.entries_scanned = 120;
        r.annotations
            .push("deadline exceeded after 1/2 sections".into());
        assert!(!r.reconciles());
        assert!(r.degraded());
        let text = r.to_text();
        assert!(text.contains("degradation: deadline exceeded"), "{text}");
        assert!(text.contains("reconciles: false"), "{text}");
        let json = r.to_json();
        assert!(json.contains("\"degraded\":true"), "{json}");
        assert!(json.contains("deadline exceeded"), "{json}");
    }

    fn fixture() -> ExplainReport {
        let mut r = sample();
        r.algo = "best\"first";
        r.tmax = f64::NAN;
        r.alpha = 1.0;
        r.observed_selectivity = 2.5e-9;
        r.entries_scanned = u64::MAX;
        r.shards = vec![
            ShardReport {
                shard: 0,
                served_by: Some(1),
                failovers: 1,
                hedged: true,
                hedge_won: true,
                entries_scanned: 90,
                matches: 3,
                elapsed_ns: 12_345,
                ..ShardReport::default()
            },
            ShardReport {
                shard: 1,
                skipped: true,
                breaker_open: true,
                ..ShardReport::default()
            },
        ];
        r.annotations = vec!["deadline hit".into(), "section 3 \"lost\"\n".into()];
        r
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{"query_id":3,"algo":"best\"first","alpha":1,"depth":6,"tmax":null,"iterations":11,"predicted_mass":0.95,"target":0.9,"observed_selectivity":0.0000000025,"entries_scanned":18446744073709551615,"matches":5,"sketch_skipped":0,"reconciles":false,"degraded":true,"blocks":[{"depth":6,"predicted_mass":0.7,"scanned":100,"matched":4},{"depth":6,"predicted_mass":0.25,"scanned":40,"matched":1}],"shards":[{"shard":0,"served_by":1,"failovers":1,"hedged":true,"hedge_won":true,"skipped":false,"breaker_open":false,"entries_scanned":90,"matches":3,"elapsed_ns":12345},{"shard":1,"served_by":null,"failovers":0,"hedged":false,"hedge_won":false,"skipped":true,"breaker_open":true,"entries_scanned":0,"matches":0,"elapsed_ns":0}],"phases":{"filter":10000,"refine":55000},"annotations":["deadline hit","section 3 \"lost\"\n"]}"#;

    #[test]
    fn explain_json_parses_to_the_parent_tree() {
        assert_eq!(
            crate::JsonValue::parse(&fixture().to_json()),
            crate::JsonValue::parse(PARENT)
        );
    }
}
