//! Sharded scatter-gather equivalence and accounting properties.
//!
//! The headline contract of `s3_core::shard`: for ANY shard count and
//! replica layout, a clean scatter-gather run is **bit-identical** to the
//! single-node `DiskIndex` answer — same matches in the same order, same
//! per-query entries-scanned counts. The filter runs once at the router,
//! every replica scans the same merged ranges restricted to its records,
//! and the merge re-assembles global record order deterministically.
//!
//! On top of the clean property, the accounting contracts that make
//! degradation honest: hedged losers never leak work into the winner's
//! stats (retries + hedges never double-count a section load), and a
//! batch that loses a shard says so per affected query.

use proptest::prelude::*;
use s3_core::pseudo_disk::{DiskIndex, RetryPolicy, WriteOpts};
use s3_core::shard::{HedgeConfig, ShardPlan, ShardedIndex, ShardedOptions};
use s3_core::{
    FaultPlan, FaultyStorage, IsotropicNormal, MemStorage, RecordBatch, S3Index, StatQueryOpts,
    Storage,
};
use s3_hilbert::HilbertCurve;
use std::time::Duration;

const DIMS: usize = 6;
const MEM: u64 = 8 << 10;

fn write_opts() -> WriteOpts {
    WriteOpts {
        table_depth: 8,
        block_size: 128,
    }
}

fn synthetic(n: usize, seed: u64) -> S3Index {
    let mut batch = RecordBatch::new(DIMS);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    for i in 0..n {
        let mut fp = [0u8; DIMS];
        for b in fp.iter_mut() {
            *b = (next() >> 32) as u8;
        }
        batch.push(&fp, (i / 10) as u32, (i % 10 * 40) as u32);
    }
    S3Index::build(HilbertCurve::new(DIMS, 8).unwrap(), batch)
}

fn probes(index: &S3Index, k: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    (0..k)
        .map(|_| {
            let i = (next() as usize) % index.len();
            let mut fp = index.records().fingerprint(i).to_vec();
            for b in fp.iter_mut() {
                *b = b.saturating_add(((next() >> 32) % 7) as u8);
            }
            fp
        })
        .collect()
}

fn single_node(index: &S3Index) -> DiskIndex {
    let bytes = DiskIndex::encode_to_vec(index, write_opts()).unwrap();
    DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Clean sharded runs are bit-identical to single-node for arbitrary
    /// data, shard counts and replica layouts.
    #[test]
    fn sharded_equals_single_node(
        seed in 0u64..1000,
        n in 300usize..900,
        shards in 1usize..10,
        replicas in 1usize..4,
        qseed in 0u64..1000,
    ) {
        let index = synthetic(n, seed);
        let q = probes(&index, 8, qseed);
        let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
        let model = IsotropicNormal::new(DIMS, 12.0);
        let opts = StatQueryOpts::new(0.9, 12);

        let base = single_node(&index)
            .stat_query_batch(&queries, &model, &opts, MEM)
            .unwrap();
        let sharded = ShardedIndex::build_mem(
            &index,
            shards,
            replicas,
            write_opts(),
            ShardedOptions {
                mem_budget: MEM,
                ..ShardedOptions::default()
            },
        )
        .unwrap();
        let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();

        prop_assert_eq!(got.shard_skips, 0);
        prop_assert!(!got.batch.timing.degraded);
        prop_assert_eq!(&got.batch.matches, &base.matches);
        for (a, b) in got.batch.stats.iter().zip(&base.stats) {
            prop_assert_eq!(a.entries_scanned, b.entries_scanned);
            prop_assert!(!a.degraded);
        }
    }
}

/// A shard plan always partitions the records exactly, whatever the
/// shard count asks for.
#[test]
fn plan_partitions_records() {
    for seed in 0..6u64 {
        let index = synthetic(200 + 251 * seed as usize, seed);
        for shards in [1, 2, 4, 7, 16, 64] {
            let plan = ShardPlan::balanced(&index, shards);
            assert_eq!(plan.shards(), shards);
            let mut total = 0u64;
            let mut prev_end = 0u64;
            for s in 0..shards {
                let (a, b) = plan.record_span(s);
                assert_eq!(a, prev_end, "spans must be contiguous");
                total += b - a;
                prev_end = b;
            }
            assert_eq!(total, index.len() as u64);
        }
    }
}

/// Satellite regression: a hedged race's loser must contribute NOTHING to
/// the merged accounting — `retries` stays at the winner's value (zero for
/// a clean backup) and sections are counted once, so retries + hedges can
/// never double-count a successful section load.
#[test]
fn hedge_loser_never_double_counts() {
    let index = synthetic(1200, 41);
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let q = probes(&index, 8, 0xCAFE);
    let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
    let base = single_node(&index)
        .stat_query_batch(&queries, &model, &opts, MEM)
        .unwrap();
    // Clean sharded baseline with the SAME layout: section counts are a
    // per-shard-file property, so this — not the single-node run — is the
    // reference for "each section loaded exactly once".
    let clean = ShardedIndex::build_mem(
        &index,
        2,
        2,
        write_opts(),
        ShardedOptions {
            mem_budget: MEM,
            ..ShardedOptions::default()
        },
    )
    .unwrap()
    .stat_query_batch(&queries, &model, &opts)
    .unwrap();

    let plan = ShardPlan::balanced(&index, 2);
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let bytes = plan.shard_bytes(&index, s, write_opts()).unwrap();
        // The primary stalls on every read AND throws transient faults, so
        // any section it does manage to serve costs visible retries. The
        // backup is clean. With hedging on, the backup must win and the
        // merged stats must look like a clean run.
        let slow: Box<dyn Storage> = Box::new(FaultyStorage::new(
            MemStorage::new(bytes.clone()),
            FaultPlan {
                seed: 0xF00D + s as u64,
                skip_reads: 8,
                stall_every_n: 1,
                stall_ms: 50,
                transient_error: 0.8,
                ..FaultPlan::default()
            },
        ));
        storages.push(vec![slow, Box::new(MemStorage::new(bytes))]);
    }
    let sharded = ShardedIndex::open(
        plan,
        storages,
        ShardedOptions {
            mem_budget: MEM,
            hedge: HedgeConfig {
                enabled: true,
                min_delay: Duration::from_millis(2),
                ..HedgeConfig::default()
            },
            retry: RetryPolicy {
                max_retries: 6,
                backoff: Duration::ZERO,
                strict: false,
            },
            ..ShardedOptions::default()
        },
    )
    .unwrap();

    let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();
    assert!(got.hedges >= 1, "stalled primaries must trigger hedges");
    assert!(got.hedge_wins >= 1, "the clean backup must win");
    assert_eq!(got.shard_skips, 0);
    assert_eq!(got.batch.matches, base.matches, "answers must be clean");
    for st in &got.batch.stats {
        assert_eq!(
            st.retries, 0,
            "cancelled loser's retries leaked into the winner's stats"
        );
    }
    // Winner-only merge: the merged batch loads each section exactly once,
    // same as a clean run of the same layout — hedging must not inflate
    // the section count.
    assert_eq!(
        got.batch.timing.sections_loaded, clean.batch.timing.sections_loaded,
        "hedge loser's section loads were merged"
    );
}

/// Losing every replica of a shard degrades only the queries whose plan
/// touched that shard, and leaves the others bit-identical.
#[test]
fn partial_loss_keeps_unaffected_queries_identical() {
    let index = synthetic(1500, 77);
    let model = IsotropicNormal::new(DIMS, 12.0);
    let opts = StatQueryOpts::new(0.9, 12);
    let q = probes(&index, 16, 0xD1CE);
    let queries: Vec<&[u8]> = q.iter().map(Vec::as_slice).collect();
    let base = single_node(&index)
        .stat_query_batch(&queries, &model, &opts, MEM)
        .unwrap();

    let plan = ShardPlan::balanced(&index, 4);
    let mut storages: Vec<Vec<Box<dyn Storage>>> = Vec::new();
    for s in 0..plan.shards() {
        let bytes = plan.shard_bytes(&index, s, write_opts()).unwrap();
        let mk = |bytes: Vec<u8>| -> Box<dyn Storage> {
            if s == 2 {
                Box::new(FaultyStorage::new(
                    MemStorage::new(bytes),
                    FaultPlan {
                        seed: 5,
                        skip_reads: 8,
                        dead_range: Some(0..u64::MAX),
                        ..FaultPlan::default()
                    },
                ))
            } else {
                Box::new(MemStorage::new(bytes))
            }
        };
        storages.push(vec![mk(bytes.clone()), mk(bytes)]);
    }
    let sharded = ShardedIndex::open(
        plan,
        storages,
        ShardedOptions {
            mem_budget: MEM,
            retry: RetryPolicy {
                max_retries: 0,
                backoff: Duration::ZERO,
                strict: false,
            },
            ..ShardedOptions::default()
        },
    )
    .unwrap();
    let got = sharded.stat_query_batch(&queries, &model, &opts).unwrap();
    assert_eq!(got.shard_skips, 1);
    assert!(got.batch.timing.degraded);
    let mut unaffected = 0;
    for (qi, st) in got.batch.stats.iter().enumerate() {
        if st.shard_skips == 0 {
            assert_eq!(
                got.batch.matches[qi], base.matches[qi],
                "query {qi} did not touch the lost shard — must be identical"
            );
            assert!(!st.degraded);
            unaffected += 1;
        } else {
            assert!(st.degraded, "query {qi} lost a shard but is not degraded");
            // The surviving shards' answers are still a subset of the truth.
            for m in &got.batch.matches[qi] {
                assert!(base.matches[qi].contains(m));
            }
        }
    }
    // With 4 shards and localized probes, some queries must dodge shard 2
    // entirely; if not, the scenario has lost its point.
    assert!(unaffected > 0, "no query avoided the lost shard");
}
