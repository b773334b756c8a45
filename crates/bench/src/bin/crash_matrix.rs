//! Deterministic crash-point matrix for the durable storage engine.
//!
//! Records every write the engine makes during a scripted
//! insert/merge/insert workload, then re-runs the script once per kill
//! point — a [`CrashSwitch`] with a byte budget that dies exactly at each
//! write boundary and in the middle of each write (a torn WAL record,
//! generation or root slot). After every
//! kill the harness reopens the two files through `DurableIndex::open` and
//! asserts the recovery invariants:
//!
//! * **R1 — recovery never fails**: reopening after any kill point
//!   succeeds without a panic or an error.
//! * **R2 — acked writes survive**: the recovered record count `m`
//!   satisfies `acked ≤ m ≤ acked + 1` (the `+1` is a record whose WAL
//!   append was durable but whose acknowledgement never returned), and the
//!   recovered records are exactly the first `m` inserted.
//! * **R3 — bit-identical answers**: the recovered index is on the curve
//!   an uncrashed run has (the created one until the first merge commits,
//!   then the axis order that merge chose), and range and statistical batch
//!   queries over it equal a fresh in-memory index on that curve over those
//!   same `m` records, compared as sorted `(id, tc)` sets.
//! * **R4 — recovery is idempotent**: reopening a second time yields the
//!   same record count and a clean (non-replaying) state where the first
//!   recovery already checkpointed.
//!
//! Usage: `crash_matrix [--scale quick|full]`. Writes
//! `results/CRASH_PR6.json` and exits non-zero on any violation.

use s3_bench::{results_dir, Scale};
use s3_core::{
    CrashSwitch, DurableIndex, DurableOptions, FaultPlan, FaultyStorage, IndexError,
    IsotropicNormal, MergeOutcome, RecordBatch, S3Index, SharedMemStorage, StatQueryOpts, Storage,
    WritableStorage,
};
use s3_hilbert::HilbertCurve;
use s3_obs::JsonWriter;
use std::io;
use std::sync::{Arc, Mutex};

const DIMS: usize = 6;
const EPS: f64 = 0.5;
const DEPTH: u32 = 8;
const MEM_BUDGET: u64 = 1 << 20;

fn opts() -> DurableOptions {
    DurableOptions {
        block_size: 128,
        ..DurableOptions::default()
    }
}

fn curve() -> HilbertCurve {
    HilbertCurve::new(DIMS, 8).unwrap()
}

fn fp(i: u32) -> Vec<u8> {
    let mut s = u64::from(i) * 0x9E37_79B9 + 0xC4A5;
    (0..DIMS)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

/// Write-order ledger shared by the data and WAL files: cumulative bytes
/// after each `write_at`, in the order the engine issued them. These are
/// exactly the admission points of a [`CrashSwitch`] sharing both files.
#[derive(Clone, Debug)]
struct CountingStorage<S> {
    inner: S,
    totals: Arc<Mutex<Vec<u64>>>,
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl<S: WritableStorage> WritableStorage for CountingStorage<S> {
    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.inner.write_at(offset, buf)?;
        let mut totals = self.totals.lock().unwrap();
        let prev = totals.last().copied().unwrap_or(0);
        totals.push(prev + buf.len() as u64);
        Ok(())
    }
    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
    fn truncate(&self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

/// The scripted workload: open the formatted files, insert, merge midway,
/// insert more, merge again, leave a tail unmerged. `acked` counts inserts
/// whose acknowledgement returned before the crash.
fn script(
    data: Box<dyn WritableStorage>,
    wal: Box<dyn WritableStorage>,
    total: u32,
    merge_at: &[u32],
    acked: &mut u32,
) -> Result<(), IndexError> {
    let mut idx = DurableIndex::open(data, wal, opts())?;
    for i in 0..total {
        idx.insert(&fp(i), i, i * 3)?;
        *acked += 1;
        if merge_at.contains(&(i + 1)) {
            idx.merge()?;
        }
    }
    Ok(())
}

/// Formats an empty durable index and snapshots both files — the common
/// starting state of every run. Creation itself is outside the crash
/// scope: the durability contract starts once `create` has returned (see
/// `docs/durability.md`).
fn format_baseline() -> (Vec<u8>, Vec<u8>) {
    let data = SharedMemStorage::new();
    let wal = SharedMemStorage::new();
    let idx = DurableIndex::create(
        Box::new(data.clone()),
        Box::new(wal.clone()),
        curve(),
        opts(),
    )
    .unwrap();
    drop(idx);
    (data.snapshot(), wal.snapshot())
}

/// Per-query sorted `(id, tc)` answer sets.
type AnswerSets = Vec<Vec<(u32, u32)>>;

/// Sorted `(id, tc)` answer sets of range + stat batch queries.
fn answers(idx: &DurableIndex, queries: &[Vec<u8>]) -> (AnswerSets, AnswerSets) {
    let refs: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
    let model = IsotropicNormal::new(DIMS, 12.0);
    let sopts = StatQueryOpts::new(0.9, 10);
    let range = idx
        .range_query_batch(&refs, EPS, DEPTH, MEM_BUDGET)
        .unwrap();
    let stat = idx
        .stat_query_batch(&refs, &model, &sopts, MEM_BUDGET)
        .unwrap();
    let norm = |b: &[Vec<s3_core::Match>]| {
        b.iter()
            .map(|ms| {
                let mut v: Vec<(u32, u32)> = ms.iter().map(|m| (m.id, m.tc)).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect::<Vec<_>>()
    };
    (norm(&range.matches), norm(&stat.matches))
}

/// The first `m` scripted records.
fn records(m: u32) -> RecordBatch {
    let mut batch = RecordBatch::new(DIMS);
    for i in 0..m {
        batch.push(&fp(i), i, i * 3);
    }
    batch
}

/// The curve an uncrashed run has once `disk_len` records are merged: the
/// created one until the first merge commits, then the order that merge
/// ranked from its records.
fn expected_curve(disk_len: u64, merge_at: &[u32]) -> HilbertCurve {
    match merge_at.first() {
        Some(&first) if disk_len > 0 => S3Index::build(curve(), records(first)).curve().clone(),
        _ => curve(),
    }
}

/// Reference answers over the first `m` records, from a fresh in-memory
/// index on `curve` — what an uncrashed run over exactly those records
/// would say.
fn reference(m: u32, curve: &HilbertCurve, queries: &[Vec<u8>]) -> (AnswerSets, AnswerSets) {
    let index = S3Index::build_on(curve.clone(), records(m));
    let model = IsotropicNormal::new(DIMS, 12.0);
    let sopts = StatQueryOpts::new(0.9, 10);
    let norm = |ms: &[s3_core::Match]| {
        let mut v: Vec<(u32, u32)> = ms.iter().map(|mm| (mm.id, mm.tc)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let range = queries
        .iter()
        .map(|q| norm(&index.range_query(q, EPS, DEPTH).matches))
        .collect();
    let stat = queries
        .iter()
        .map(|q| norm(&index.stat_query(q, &model, &sopts).matches))
        .collect();
    (range, stat)
}

struct KillReport {
    budget: u64,
    kind: &'static str,
    acked: u32,
    recovered: u32,
    outcome: MergeOutcome,
    violations: Vec<String>,
}

fn run_kill_point(
    baseline: &(Vec<u8>, Vec<u8>),
    budget: u64,
    kind: &'static str,
    total: u32,
    merge_at: &[u32],
    queries: &[Vec<u8>],
) -> KillReport {
    let data_mem = SharedMemStorage::from_bytes(baseline.0.clone());
    let wal_mem = SharedMemStorage::from_bytes(baseline.1.clone());
    let switch = CrashSwitch::after_bytes(budget);
    let faulty = |mem: &SharedMemStorage| -> Box<dyn WritableStorage> {
        Box::new(FaultyStorage::new(
            mem.clone(),
            FaultPlan {
                crash: Some(switch.clone()),
                ..FaultPlan::default()
            },
        ))
    };

    let mut violations = Vec::new();
    let mut acked = 0u32;
    let script_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut acked_local = 0u32;
        let r = script(
            faulty(&data_mem),
            faulty(&wal_mem),
            total,
            merge_at,
            &mut acked_local,
        );
        (r, acked_local)
    }));
    match script_result {
        Ok((r, a)) => {
            acked = a;
            if r.is_ok() && switch.tripped() && acked < total {
                violations.push("script reported success but the crash fired mid-run".into());
            }
        }
        Err(_) => violations.push("R1 violated: the engine panicked at the kill point".into()),
    }

    // The process is dead; reopen the surviving bytes without faults.
    let reopen = DurableIndex::open(
        Box::new(data_mem.clone()),
        Box::new(wal_mem.clone()),
        opts(),
    );
    let (recovered, outcome) = match reopen {
        Ok(idx) => {
            let m = idx.len() as u32;
            let rep = idx.recovery();
            if m < acked || m > acked + 1 {
                violations.push(format!(
                    "R2 violated: recovered {m} records, acked {acked} (allowed {acked}..={})",
                    acked + 1
                ));
            }
            let want_curve = expected_curve(idx.disk_len(), merge_at);
            if *idx.curve() != want_curve {
                violations.push(format!(
                    "R3 violated: recovered axis order {:?}, an uncrashed run has {:?}",
                    idx.curve().split_order(),
                    want_curve.split_order()
                ));
            }
            let (got_range, got_stat) = answers(&idx, queries);
            let (want_range, want_stat) = reference(m, &want_curve, queries);
            if got_range != want_range {
                violations.push("R3 violated: range answers differ from the reference".into());
            }
            if got_stat != want_stat {
                violations.push("R3 violated: stat answers differ from the reference".into());
            }
            drop(idx);
            // R4: recovery must be idempotent across a second reopen.
            match DurableIndex::open(Box::new(data_mem), Box::new(wal_mem), opts()) {
                Ok(second) => {
                    if second.len() as u32 != m {
                        violations.push(format!(
                            "R4 violated: second reopen sees {} records, first saw {m}",
                            second.len()
                        ));
                    }
                }
                Err(e) => violations.push(format!("R4 violated: second reopen failed: {e}")),
            }
            (m, rep.outcome)
        }
        Err(e) => {
            violations.push(format!("R1 violated: recovery failed: {e}"));
            (0, MergeOutcome::Completed)
        }
    };

    KillReport {
        budget,
        kind,
        acked,
        recovered,
        outcome,
        violations,
    }
}

fn report_json(reports: &[KillReport], total_writes: usize) -> String {
    let count = |outcome| reports.iter().filter(|r| r.outcome == outcome).count();
    let mut w = JsonWriter::indented();
    w.obj()
        .field("id", "crash_matrix_pr6")
        .field("write_boundaries", total_writes)
        .field("kill_points", reports.len())
        .field(
            "failed",
            reports.iter().filter(|r| !r.violations.is_empty()).count(),
        );
    w.key("outcomes")
        .obj()
        .field("clean", count(MergeOutcome::Completed))
        .field("replayed", count(MergeOutcome::Replayed))
        .field("rolled_back", count(MergeOutcome::RolledBack))
        .end();
    w.key("kills").arr();
    for r in reports {
        w.obj()
            .field("budget", r.budget)
            .field("kind", r.kind)
            .field("acked", r.acked)
            .field("recovered", r.recovered)
            .field("outcome", format!("{:?}", r.outcome))
            .field("passed", r.violations.is_empty());
        w.key("violations").arr().vals(&r.violations).end().end();
    }
    w.finish()
}

fn main() {
    let scale = Scale::from_args();
    let (total, merge_at): (u32, Vec<u32>) = scale.pick((16, vec![10]), (30, vec![12, 22]));
    let queries: Vec<Vec<u8>> = (0..total).map(fp).collect();
    let baseline = format_baseline();

    // Clean instrumented run: learn every write boundary.
    let totals = Arc::new(Mutex::new(Vec::new()));
    let data_mem = SharedMemStorage::from_bytes(baseline.0.clone());
    let wal_mem = SharedMemStorage::from_bytes(baseline.1.clone());
    let counted = |mem: &SharedMemStorage| -> Box<dyn WritableStorage> {
        Box::new(CountingStorage {
            inner: mem.clone(),
            totals: Arc::clone(&totals),
        })
    };
    let mut acked = 0u32;
    script(
        counted(&data_mem),
        counted(&wal_mem),
        total,
        &merge_at,
        &mut acked,
    )
    .unwrap();
    assert_eq!(acked, total);
    let boundaries = totals.lock().unwrap().clone();
    println!(
        "crash_matrix: {} records, {} merges, {} write boundaries",
        total,
        merge_at.len(),
        boundaries.len()
    );

    // Kill points: budget 0, every boundary, and the midpoint of every
    // write (a torn WAL record, generation or root slot).
    let mut kill_points: Vec<(u64, &'static str)> = vec![(0, "mid-write")];
    let mut prev = 0u64;
    for &b in &boundaries {
        if b - prev >= 2 {
            kill_points.push((prev + (b - prev) / 2, "mid-write"));
        }
        kill_points.push((b, "boundary"));
        prev = b;
    }

    let mut reports = Vec::with_capacity(kill_points.len());
    for &(budget, kind) in &kill_points {
        reports.push(run_kill_point(
            &baseline, budget, kind, total, &merge_at, &queries,
        ));
    }

    let failed = reports.iter().filter(|r| !r.violations.is_empty()).count();
    for r in reports.iter().filter(|r| !r.violations.is_empty()) {
        println!(
            "  [FAIL] budget {} ({}) acked {} recovered {}",
            r.budget, r.kind, r.acked, r.recovered
        );
        for v in &r.violations {
            println!("         !! {v}");
        }
    }
    let path = results_dir().join("CRASH_PR6.json");
    std::fs::create_dir_all(results_dir()).unwrap();
    std::fs::write(&path, report_json(&reports, boundaries.len())).unwrap();
    println!(
        "crash_matrix: {}/{} kill points recovered cleanly — report at {}",
        reports.len() - failed,
        reports.len(),
        path.display()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Vec<KillReport> {
        vec![
            KillReport {
                budget: 0,
                kind: "mid-write",
                acked: 0,
                recovered: 0,
                outcome: MergeOutcome::Completed,
                violations: vec![],
            },
            KillReport {
                budget: 4096,
                kind: "boundary",
                acked: 12,
                recovered: 12,
                outcome: MergeOutcome::Replayed,
                violations: vec![],
            },
            KillReport {
                budget: 5000,
                kind: "mid-write",
                acked: 12,
                recovered: 11,
                outcome: MergeOutcome::RolledBack,
                violations: vec!["R2 violated: acked \"12\" > recovered 11".into()],
            },
        ]
    }

    /// What the parent commit (PR 22) rendered for `fixture()`.
    const PARENT: &str = r#"{
  "id": "crash_matrix_pr6",
  "write_boundaries": 17,
  "kill_points": 3,
  "failed": 1,
  "outcomes": {"clean": 1, "replayed": 1, "rolled_back": 1},
  "kills": [
    {"budget": 0, "kind": "mid-write", "acked": 0, "recovered": 0, "outcome": "Completed", "passed": true, "violations": []},
    {"budget": 4096, "kind": "boundary", "acked": 12, "recovered": 12, "outcome": "Replayed", "passed": true, "violations": []},
    {"budget": 5000, "kind": "mid-write", "acked": 12, "recovered": 11, "outcome": "RolledBack", "passed": false, "violations": ["R2 violated: acked \"12\" > recovered 11"]}
  ]
}"#;

    #[test]
    fn report_json_parses_to_the_parent_tree() {
        assert_eq!(
            s3_obs::JsonValue::parse(&report_json(&fixture(), 17)),
            s3_obs::JsonValue::parse(PARENT)
        );
    }
}
