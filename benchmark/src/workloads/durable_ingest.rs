//! `durable_ingest` — the write side of the storage layers: a
//! `DurableIndex` (pager + buffer pool + WAL, default `DurableOptions`)
//! ingests records one at a time, answers query batches beside the writes,
//! and is then dropped and reopened.
//!
//! One round = create, 50,000 `insert`s (each WAL-appended and synced,
//! auto-merge at 10 %), a 64-query `stat_query_batch` after every 10,000
//! inserts, drop, `DurableIndex::open` (recovery). Rounds repeat on the
//! same records until the run time is up.
//!
//! * op   — one `DurableIndex::insert`;
//! * alt  — the 64-query batch beside the writes, per query (reads through
//!   the pool and the overlay);
//! * work — records ingested per second of ingest time, merges included.
//!
//! A change that speeds section reads but costs merges, WAL bytes or
//! recovery shows here and nowhere else.

use super::{FilterReplay, PoolCounts, RefineCounts};
use crate::harness::{ms, run_passes, Archive, Config, Report, Timings, USER_BYTES_PER_RECORD};
use crate::inputs::query_refs;
use crate::stats::median;
use crate::trace::{IoCounters, Tracer};
use s3_core::{CoreMetrics, DurableIndex, DurableOptions, DynamicIndex, Match, S3Index};
use s3_hilbert::HilbertCurve;
use std::sync::Arc;
use std::time::Instant;

/// Queries of the batch that runs beside the writes.
const MIXED_QUERIES: usize = 64;
/// Memory budget of that batch.
const MIXED_BUDGET: u64 = 1 << 20;
/// An insert slower than this ran a merge.
const MERGE_MS: f64 = 5.0;

/// Matches as a sorted set of what identifies a record to a caller; the
/// position differs between an overlay, a merged index and a fresh one.
fn as_sorted_sets(matches: &[Vec<Match>]) -> Vec<Vec<(u32, u32, u64)>> {
    matches
        .iter()
        .map(|ms| {
            let mut v: Vec<_> = ms
                .iter()
                .map(|m| (m.id, m.tc, m.dist_sq.map_or(0, |d| d as u64)))
                .collect();
            v.sort_unstable();
            v
        })
        .collect()
}

pub fn run(cfg: &Config) -> Report {
    let (n_records, query_every) = if cfg.smoke {
        (4_000, 1_000)
    } else {
        (50_000, 10_000)
    };
    let arch = Archive::new(n_records, MIXED_QUERIES, cfg.seed);
    let opts = arch.opts();
    let qrefs = query_refs(&arch.queries);
    let curve = HilbertCurve::paper();
    let mut rep = Report {
        inputs_digest: arch.digest(),
        ..Report::default()
    };
    let mut tr = Tracer::new(cfg.trace);
    let data_io = cfg.trace.then(|| Arc::new(IoCounters::default()));
    let wal_io = cfg.trace.then(|| Arc::new(IoCounters::default()));
    let m = CoreMetrics::get();

    // What a fresh static index over the same records answers.
    let fresh = S3Index::build(curve.clone(), arch.batch.clone());
    let expected = as_sorted_sets(
        &qrefs
            .iter()
            .map(|q| fresh.stat_query(q, &arch.model, &opts).matches)
            .collect::<Vec<_>>(),
    );
    drop(fresh);

    let mut t = Timings::default();
    let mut reopen_ms = Vec::new();
    let (mut len_wrong, mut answer_lost, mut answer_wrong) = (0usize, 0usize, 0usize);
    // Traced accounting; the counts are those of the last round (every
    // round repeats them exactly).
    let mut refine = RefineCounts::default();
    let mut replay = FilterReplay::default();
    let mut overlay_us = Vec::new();
    let (mut merges, mut replayed) = (0usize, 0usize);
    let (mut wal_appends, mut wal_fsyncs) = (0u64, 0u64);
    let mut pool = PoolCounts::default();
    let mut file_bytes = 0u64;

    rep.passes = run_passes(cfg, |_| {
        let data = cfg.backing.writable("ingest.data").expect("data storage");
        let wal = cfg.backing.writable("ingest.wal").expect("wal storage");
        let (appends0, fsyncs0) = (m.wal_appends.get(), m.wal_fsyncs.get());
        let t0 = Instant::now();
        let mut index = DurableIndex::create(
            data.open(data_io.as_ref()).expect("open data"),
            wal.open(wal_io.as_ref()).expect("open wal"),
            curve.clone(),
            DurableOptions::default(),
        )
        .expect("create durable index");
        t.setup_s.push(t0.elapsed().as_secs_f64());

        let mut shadow = DynamicIndex::empty(curve.clone(), 1.0);
        let mut answer = Vec::new();
        for i in 0..n_records {
            let (fp, id, tc) = (
                arch.batch.fingerprint(i),
                arch.batch.id(i),
                arch.batch.tc(i),
            );
            tr.next_op();
            let t0 = Instant::now();
            let span = tr.enter("durable.insert");
            index.insert(fp, id, tc).expect("insert");
            tr.exit(span);
            t.op_ms.push(ms(t0.elapsed()));
            if tr.enabled() {
                // The overlay insert alone, on an overlay that empties
                // whenever the durable index merges.
                if index.pending_len() == 0 {
                    shadow = DynamicIndex::empty(curve.clone(), 1.0);
                } else {
                    let t0 = Instant::now();
                    shadow.insert(fp, id, tc);
                    overlay_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
            if (i + 1) % query_every == 0 {
                let pool0 = PoolCounts::now();
                let t0 = Instant::now();
                let batch = tr.time("durable.mixed_batch", || {
                    index
                        .stat_query_batch(&qrefs, &arch.model, &opts, MIXED_BUDGET)
                        .expect("mixed batch")
                });
                t.alt_ms.push(ms(t0.elapsed()) / MIXED_QUERIES as f64);
                if tr.enabled() {
                    pool.add_since(pool0);
                    for (st, matches) in batch.stats.iter().zip(&batch.matches) {
                        refine.add(st.entries_scanned, matches.len());
                    }
                }
                answer = as_sorted_sets(&batch.matches);
            }
        }
        merges = index.merges();
        wal_appends = m.wal_appends.get() - appends0;
        wal_fsyncs = m.wal_fsyncs.get() - fsyncs0;

        // Restart: drop the engine, reopen over the bytes it left.
        drop(index);
        file_bytes = data.len().expect("data length");
        let t0 = Instant::now();
        let reopened = tr.time("durable.open", || {
            DurableIndex::open(
                data.open(None).expect("reopen data"),
                wal.open(None).expect("reopen wal"),
                DurableOptions::default(),
            )
            .expect("reopen durable index")
        });
        reopen_ms.push(ms(t0.elapsed()));
        replayed = reopened.recovery().replayed_inserts;

        // Gates: every acknowledged insert is there, and the answer is the
        // one given before the restart and the one a fresh index gives.
        len_wrong += usize::from(reopened.len() != n_records as u64);
        let after = as_sorted_sets(
            &reopened
                .stat_query_batch(&qrefs, &arch.model, &opts, MIXED_BUDGET)
                .expect("batch after reopen")
                .matches,
        );
        answer_lost += usize::from(after != answer);
        answer_wrong += usize::from(after != expected);
    });
    if tr.enabled() {
        for q in &qrefs {
            replay.replay(&mut tr, &curve, &arch.model, q, &opts);
        }
    }

    rep.gate(
        "reopened_len_equals_acknowledged_inserts",
        rep.passes,
        len_wrong,
    );
    rep.gate("answer_survives_restart", rep.passes, answer_lost);
    rep.gate("answer_equals_fresh_index", rep.passes, answer_wrong);
    rep.attempted += t.op_ms.len() as u64;
    if !cfg.trace {
        rep.end_to_end(&t, t.op_ms.len());
        return rep;
    }

    let rounds = rep.passes as f64;
    let user_bytes = (n_records as u64 * USER_BYTES_PER_RECORD) as f64;
    let data_io = data_io.expect("traced").snapshot();
    let wal_io = wal_io.expect("traced").snapshot();
    let merge_ms: Vec<f64> = t.op_ms.iter().copied().filter(|&v| v > MERGE_MS).collect();
    replay.emit(&tr, &mut rep);
    refine.emit(n_records, &mut rep);
    pool.emit(&mut rep);
    rep.set("wal.appends", wal_appends as f64);
    rep.set("wal.fsyncs", wal_fsyncs as f64);
    rep.set(
        "wal.bytes_per_user_byte",
        wal_io.write_bytes as f64 / rounds / user_bytes,
    );
    rep.set(
        "pager.bytes_written_per_user_byte",
        data_io.write_bytes as f64 / rounds / user_bytes,
    );
    rep.set(
        "pager.file_bytes_per_user_byte",
        file_bytes as f64 / user_bytes,
    );
    rep.set(
        "device.writes",
        (data_io.writes + wal_io.writes) as f64 / rounds,
    );
    rep.set(
        "device.syncs",
        (data_io.syncs + wal_io.syncs) as f64 / rounds,
    );
    rep.set("durable.merges", merges as f64);
    rep.set(
        "durable.merge_ms_total",
        merge_ms.iter().sum::<f64>() / rounds,
    );
    rep.set(
        "durable.merge_ms_max",
        merge_ms.iter().copied().fold(0.0, f64::max),
    );
    rep.set("dynamic.overlay_insert_us_p50", median(&overlay_us));
    rep.set("durable.replayed_inserts", replayed as f64);
    rep.set("durable.recovery_ms", median(&reopen_ms));
    rep.end_trace(&t, &tr, "durable_ingest");
    rep
}
