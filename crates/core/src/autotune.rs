//! Partition-depth learning (§IV-A, last paragraph).
//!
//! The response time of a query decomposes as `T(p) = T_f(p) + T_r(p)`:
//! filtering time grows with the depth `p` (more tree nodes, more blocks)
//! while refinement time shrinks (better selectivity). `T(p)` generally has a
//! single minimum `p_min`, which the paper learns "at the start of the
//! retrieval stage". This module is that learning, and the only way a depth
//! is chosen when a caller names none.
//!
//! It reads counters, never a clock: per candidate depth it runs the
//! statistical filter alone on a query sample, counts the records the merged
//! ranges hold through a [`RecordCounts`] oracle, and scores
//! `NODE_COST_IN_RECORDS · nodes + entries`. Same index, same model, same
//! α ⇒ same depth, on every run and every machine.
//!
//! * [`learn_depth`] draws its own sample from the index — what
//!   `Detector::new` runs for `depth: 0`;
//! * [`learn_depth_on`] learns on the queries a caller is about to send,
//!   against any record-count oracle (the CLI's `query`, `explain`, `watch`);
//! * [`tune_depth`] profiles an explicit list of depths, so the trade-off
//!   itself can be reported (the depth ablation plots it).

use crate::distortion::DistortionModel;
use crate::filter::{merge_block_ranges, select_blocks_stat};
use crate::index::{S3Index, StatQueryOpts};
use crate::sketch::splitmix64;
use s3_hilbert::{HilbertCurve, KeyRange};
use s3_obs::span;
use s3_stats::Normal;

/// What expanding one filter node costs, in records scanned: sized at
/// ≈ 130 ns a node (`filter.select_us ÷ filter.nodes_per_query` of the
/// benchmark) against ≈ 4.5 ns a record refined one call at a time. With
/// the four-record run kernel a record costs ≈ 2.6 ns against ≈ 142 ns a
/// node, a ratio of ≈ 53. Any value from 16 to 128 learns depth 6–8 on the
/// benchmark's detection registry, where depths 2–10 are within 6 % of each
/// other end to end, so this is a documented constant and not an option
/// (docs/performance.md, "Choosing `p`").
const NODE_COST_IN_RECORDS: f64 = 30.0;

/// Queries the learner profiles a depth on: what [`learn_depth`] draws from
/// the index, and how many of a caller's [`learn_depth_on`] reads.
const SAMPLE_QUERIES: usize = 16;

/// Seed of the distortion [`learn_depth`] applies to its sample.
const SAMPLE_SEED: u64 = 0x5EED_D157_0A7E;

/// How many records of an index a key range holds — all the learner needs
/// to know of a database.
pub trait RecordCounts {
    /// The curve the index is built on.
    fn curve(&self) -> &HilbertCurve;

    /// Records whose key lies in `range`. Exact when the bounds of `range`
    /// are block boundaries of a depth ≤ [`RecordCounts::exact_depth`].
    fn count_in(&self, range: &KeyRange) -> u64;

    /// The deepest partition whose blocks `count_in` counts exactly, at
    /// most the curve's key bits; no deeper one is tried.
    fn exact_depth(&self) -> u32;
}

impl RecordCounts for S3Index {
    fn curve(&self) -> &HilbertCurve {
        S3Index::curve(self)
    }

    fn count_in(&self, range: &KeyRange) -> u64 {
        let (start, end) = self.locate(range);
        (end - start) as u64
    }

    fn exact_depth(&self) -> u32 {
        S3Index::curve(self).key_bits()
    }
}

/// Counted cost of one candidate depth, averaged over the sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DepthProfile {
    /// Partition depth `p`.
    pub depth: u32,
    /// Mean filter nodes expanded (`T_f` work).
    pub avg_nodes: f64,
    /// Mean records in the merged ranges (`T_r` work).
    pub avg_entries: f64,
    /// Mean blocks selected.
    pub avg_blocks: f64,
    /// True if the block budget cut a sample query's selection short: the
    /// depth cannot honour α and is never learned.
    pub truncated: bool,
}

impl DepthProfile {
    /// The `T_f(p)` term alone, in records scanned.
    pub fn filter_cost(&self) -> f64 {
        NODE_COST_IN_RECORDS * self.avg_nodes
    }

    /// Predicted `T(p)` in records scanned; infinite for a truncating depth.
    pub fn cost(&self) -> f64 {
        if self.truncated {
            f64::INFINITY
        } else {
            self.filter_cost() + self.avg_entries
        }
    }
}

/// Outcome of the learning, with the work it took.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneResult {
    /// Profile per depth visited, in visiting order.
    pub profiles: Vec<DepthProfile>,
    /// The visited depth of minimal predicted cost — `p_min` (the
    /// shallowest one on a tie; 1 when there was nothing to learn from).
    pub best_depth: u32,
    /// Filter nodes the learner itself expanded, over all depths visited.
    pub nodes_expanded: u64,
    /// Merged key ranges it counted records in.
    pub ranges_located: u64,
}

impl TuneResult {
    fn new() -> TuneResult {
        TuneResult {
            profiles: Vec::new(),
            best_depth: 1,
            nodes_expanded: 0,
            ranges_located: 0,
        }
    }

    /// Profiles `depth` on `sample`: the engines' own filter and range
    /// merge, no refinement, nothing folded into the query metrics.
    fn visit(
        &mut self,
        counts: &dyn RecordCounts,
        model: &dyn DistortionModel,
        opts: &StatQueryOpts,
        sample: &[&[u8]],
        depth: u32,
    ) -> DepthProfile {
        let curve = counts.curve();
        let opts = StatQueryOpts { depth, ..*opts };
        let (mut nodes, mut blocks, mut entries, mut ranges) = (0u64, 0u64, 0u64, 0u64);
        let mut truncated = false;
        for q in sample {
            let outcome = select_blocks_stat(curve, model, q, &opts, None);
            let merged = merge_block_ranges(curve, &outcome);
            nodes += outcome.nodes_expanded as u64;
            blocks += outcome.blocks.len() as u64;
            entries += merged.iter().map(|r| counts.count_in(r)).sum::<u64>();
            ranges += merged.len() as u64;
            truncated |= outcome.truncated;
        }
        self.nodes_expanded += nodes;
        self.ranges_located += ranges;
        let n = sample.len() as f64;
        let profile = DepthProfile {
            depth,
            avg_nodes: nodes as f64 / n,
            avg_entries: entries as f64 / n,
            avg_blocks: blocks as f64 / n,
            truncated,
        };
        self.profiles.push(profile);
        profile
    }

    /// Settles `best_depth` on the cheapest profile, the first on a tie.
    fn settle(mut self) -> TuneResult {
        if let Some(best) = self
            .profiles
            .iter()
            .min_by(|a, b| a.cost().total_cmp(&b.cost()))
        {
            self.best_depth = best.depth;
        }
        self
    }
}

/// Profiles every depth of `depths` on `sample` and picks the cheapest.
///
/// The `opts.depth` field is overridden per candidate; everything else
/// (α, filter algorithm, budget) is used as given.
///
/// # Panics
/// If `depths` or `sample` is empty.
pub fn tune_depth(
    index: &S3Index,
    model: &dyn DistortionModel,
    opts: &StatQueryOpts,
    sample: &[&[u8]],
    depths: &[u32],
) -> TuneResult {
    assert!(!depths.is_empty(), "no candidate depths");
    assert!(!sample.is_empty(), "no sample queries");
    let mut tuned = TuneResult::new();
    for &depth in depths {
        tuned.visit(index, model, opts, sample, depth);
    }
    tuned.settle()
}

/// Learns `p_min` on the first `SAMPLE_QUERIES` = 16 of `sample`, the
/// queries about to be sent.
///
/// Depths ascend from 1 and stop at the first `p` whose filter cost alone
/// exceeds the best total seen: the nodes a best-first descent expands only
/// grow with `p`, so no deeper partition can cost less. A depth whose
/// selection the block budget truncates ends the ascent too — deeper ones
/// need more blocks still. An empty sample learns depth 1.
pub fn learn_depth_on(
    counts: &dyn RecordCounts,
    model: &dyn DistortionModel,
    opts: &StatQueryOpts,
    sample: &[&[u8]],
) -> TuneResult {
    let sample = &sample[..sample.len().min(SAMPLE_QUERIES)];
    let mut sp = span!("autotune.learn", "queries" => sample.len() as f64);
    let mut tuned = TuneResult::new();
    if !sample.is_empty() {
        let mut best = f64::INFINITY;
        for depth in 1..=counts.exact_depth() {
            let profile = tuned.visit(counts, model, opts, sample, depth);
            if profile.truncated || profile.filter_cost() > best {
                break;
            }
            best = best.min(profile.cost());
        }
    }
    let tuned = tuned.settle();
    sp.record("depth", f64::from(tuned.best_depth));
    sp.record("depths_visited", tuned.profiles.len() as f64);
    sp.record("nodes", tuned.nodes_expanded as f64);
    tuned
}

/// Learns `p_min` from the index itself, for a caller with no queries yet:
/// [`learn_depth_on`] over `SAMPLE_QUERIES` = 16 records taken at evenly
/// spaced ranks of the key-sorted array, each distorted through the model —
/// a fixed-seed normal draw of deviation [`DistortionModel::severity`] per
/// component, the paper's `Q = S + ΔS`.
pub fn learn_depth(
    index: &S3Index,
    model: &dyn DistortionModel,
    opts: &StatQueryOpts,
) -> TuneResult {
    let n = index.len();
    let k = SAMPLE_QUERIES.min(n);
    let noise = Normal::new(0.0, model.severity());
    let mut draws = 0u64;
    let sample: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let rank = (2 * i + 1) * n / (2 * k);
            index
                .records()
                .fingerprint(rank)
                .iter()
                .map(|&c| {
                    draws += 1;
                    // 52 uniform bits, centred (exactly, in an f64) so the
                    // draw is never 0 or 1.
                    let bits = splitmix64(SAMPLE_SEED.wrapping_add(draws)) >> 12;
                    let u = (bits as f64 + 0.5) / (1u64 << 52) as f64;
                    (f64::from(c) + noise.quantile(u)).round().clamp(0.0, 255.0) as u8
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = sample.iter().map(Vec::as_slice).collect();
    learn_depth_on(index, model, opts, &refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;
    use crate::fingerprint::RecordBatch;
    use crate::pseudo_disk::{DiskIndex, WriteOpts};
    use crate::storage::MemStorage;
    use s3_hilbert::Key256;

    /// `n` seeded records of `dims` components around mid-range, spread
    /// `spread` (xorshift; a sum of four uniforms stands in for a normal),
    /// on the identity curve: every component has the same spread, so a
    /// ranked order would only pin which one sampling noise put first.
    fn index(dims: usize, n: usize, spread: f64, seed: u64) -> S3Index {
        let mut batch = RecordBatch::with_capacity(dims, n);
        let mut s = seed | 1;
        let mut fp = vec![0u8; dims];
        for i in 0..n {
            for c in fp.iter_mut() {
                let mut acc = 0.0;
                for _ in 0..4 {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    acc += (s >> 40) as f64 / (1u64 << 24) as f64 - 0.5;
                }
                *c = (128.0 + acc * spread).clamp(0.0, 255.0) as u8;
            }
            batch.push(&fp, i as u32, 0);
        }
        S3Index::build_on(HilbertCurve::new(dims, 8).unwrap(), batch)
    }

    #[test]
    fn sweep_reports_all_depths_and_tradeoff() {
        let idx = index(4, 5000, 255.0, 0x12345);
        let model = IsotropicNormal::new(4, 10.0);
        let opts = StatQueryOpts::new(0.8, 8);
        let queries: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i * 20, 100, 50, 200]).collect();
        let sample: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        let depths = [2u32, 6, 10, 14];
        let res = tune_depth(&idx, &model, &opts, &sample, &depths);
        assert_eq!(res.profiles.len(), 4);
        assert!(depths.contains(&res.best_depth));
        // The T_f proxy must grow with depth, the T_r proxy must shrink.
        let first = &res.profiles[0];
        let last = &res.profiles[3];
        assert!(last.avg_nodes > first.avg_nodes, "filter work grows with p");
        assert!(
            last.avg_entries < first.avg_entries,
            "refinement work shrinks with p: {} vs {}",
            last.avg_entries,
            first.avg_entries
        );
        // The reported work is the sum over what was visited.
        let nodes: f64 = res.profiles.iter().map(|p| p.avg_nodes * 10.0).sum();
        assert_eq!(res.nodes_expanded, nodes.round() as u64);
        assert!(res.ranges_located > 0);
    }

    #[test]
    #[should_panic(expected = "no candidate depths")]
    fn empty_depths_rejected() {
        let idx = index(4, 10, 255.0, 1);
        let model = IsotropicNormal::new(4, 10.0);
        let q: &[u8] = &[0, 0, 0, 0];
        tune_depth(&idx, &model, &StatQueryOpts::new(0.8, 4), &[q], &[]);
    }

    #[test]
    #[should_panic(expected = "no sample queries")]
    fn empty_sample_rejected() {
        let idx = index(4, 10, 255.0, 1);
        let model = IsotropicNormal::new(4, 10.0);
        tune_depth(&idx, &model, &StatQueryOpts::new(0.8, 4), &[], &[4]);
    }

    #[test]
    fn learning_is_deterministic() {
        let idx = index(20, 8000, 120.0, 7);
        let model = IsotropicNormal::new(20, 20.0);
        let opts = StatQueryOpts::new(0.8, 0);
        let a = learn_depth(&idx, &model, &opts);
        let b = learn_depth(&idx, &model, &opts);
        assert_eq!(a, b);
        assert!(a.nodes_expanded > 0 && a.ranges_located > 0);
    }

    #[test]
    fn learned_depth_is_pinned_on_seeded_corpora() {
        // 4-D, narrow model: refinement dominates until blocks hold a few
        // records each, so the optimum is deep.
        let idx = index(4, 20_000, 255.0, 0xC0FFEE);
        let model = IsotropicNormal::new(4, 6.0);
        let got = learn_depth(&idx, &model, &StatQueryOpts::new(0.8, 0));
        assert_eq!(got.best_depth, 8, "{:?}", got.profiles);

        // The paper's 20-D at σ = 20: the α-region holds a large share of
        // the archive at any depth, so the optimum is shallow.
        let idx = index(20, 20_000, 120.0, 0xBEEF);
        let model = IsotropicNormal::new(20, 20.0);
        let got = learn_depth(&idx, &model, &StatQueryOpts::new(0.8, 0));
        assert_eq!(got.best_depth, 7, "{:?}", got.profiles);
        assert!(got.nodes_expanded <= 100_000, "{}", got.nodes_expanded);
    }

    #[test]
    fn empty_and_tiny_indexes_learn_without_panicking() {
        let model = IsotropicNormal::new(4, 10.0);
        let opts = StatQueryOpts::new(0.8, 0);
        let empty = index(4, 0, 255.0, 1);
        let got = learn_depth(&empty, &model, &opts);
        assert_eq!((got.best_depth, got.profiles.len()), (1, 0));
        assert_eq!(learn_depth_on(&empty, &model, &opts, &[]).best_depth, 1);
        for n in [1, 3, SAMPLE_QUERIES - 1] {
            let got = learn_depth(&index(4, n, 255.0, 2), &model, &opts);
            assert!(got.best_depth >= 1 && !got.profiles.is_empty(), "n={n}");
        }
    }

    #[test]
    fn a_truncating_depth_is_never_learned() {
        // A budget of 4 blocks cannot hold 80 % of the mass once blocks are
        // small: the ascent must end there and pick a depth that honours α.
        let idx = index(4, 5000, 255.0, 3);
        let model = IsotropicNormal::new(4, 25.0);
        let opts = StatQueryOpts {
            max_blocks: 4,
            ..StatQueryOpts::new(0.8, 0)
        };
        let got = learn_depth(&idx, &model, &opts);
        let last = got.profiles.last().unwrap();
        assert!(last.truncated && last.cost().is_infinite());
        let best = got.profiles.iter().find(|p| p.depth == got.best_depth);
        assert!(!best.unwrap().truncated);
    }

    #[test]
    fn disk_table_oracle_counts_what_the_index_locates() {
        let idx = index(4, 6000, 200.0, 0xD15C);
        let bytes = DiskIndex::encode_to_vec(&idx, WriteOpts::default()).unwrap();
        let disk = DiskIndex::open_storage(Box::new(MemStorage::new(bytes))).unwrap();
        let curve = S3Index::curve(&idx);
        assert_eq!(RecordCounts::exact_depth(&disk), 16);
        for depth in 1..=RecordCounts::exact_depth(&disk) {
            let blocks = 1u64 << depth;
            for first in 0..blocks {
                // Every single block, and a run of up to seven.
                for last in [first, (first + first % 7).min(blocks - 1)] {
                    let (first, last) = (Key256::from_u64(first), Key256::from_u64(last));
                    let range = KeyRange::of_ranks(curve, depth, &first, &last);
                    assert_eq!(
                        disk.count_in(&range),
                        idx.count_in(&range),
                        "depth {depth} ranks {first:?}..={last:?}"
                    );
                }
            }
        }
        // Same counts, same ascent: the learned depth does not depend on
        // which of the two oracles answered.
        let model = IsotropicNormal::new(4, 12.0);
        let opts = StatQueryOpts::new(0.8, 0);
        let queries: Vec<Vec<u8>> = (0..12u8).map(|i| vec![90 + i * 5, 128, 140, 100]).collect();
        let sample: Vec<&[u8]> = queries.iter().map(|q| q.as_slice()).collect();
        assert_eq!(
            learn_depth_on(&disk, &model, &opts, &sample),
            learn_depth_on(&idx, &model, &opts, &sample)
        );
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// What the stopping rule relies on, and what it buys: the
            /// `T_f` proxy never shrinks as `p` grows (up to the first
            /// truncating depth), so the early-stopped ascent picks the
            /// depth an exhaustive sweep of 1..=20 picks.
            #[test]
            fn ascent_matches_exhaustive_sweep(
                dims in 2usize..=6,
                n in 1usize..4000,
                spread in 20.0f64..255.0,
                seed in any::<u64>(),
                sigma in 2.0f64..30.0,
                alpha in 0.3f64..0.95,
                queries in proptest::collection::vec(proptest::collection::vec(0u8..=255, 6), 1..6),
            ) {
                let idx = index(dims, n, spread, seed);
                let model = IsotropicNormal::new(dims, sigma);
                let opts = StatQueryOpts::new(alpha, 0);
                let sample: Vec<&[u8]> = queries.iter().map(|q| &q[..dims]).collect();
                let deepest = 20.min(S3Index::curve(&idx).key_bits());
                let depths: Vec<u32> = (1..=deepest).collect();
                let swept = tune_depth(&idx, &model, &opts, &sample, &depths);
                let learned = learn_depth_on(&idx, &model, &opts, &sample);

                let eligible = swept.profiles.iter().take_while(|p| !p.truncated);
                for (a, b) in eligible.clone().zip(eligible.skip(1)) {
                    prop_assert!(
                        a.avg_nodes <= b.avg_nodes,
                        "nodes shrank from depth {} to {}: {} > {}",
                        a.depth, b.depth, a.avg_nodes, b.avg_nodes
                    );
                }
                prop_assert!(learned.profiles.len() <= depths.len());
                prop_assert_eq!(learned.best_depth, swept.best_depth);
                // The ascent saw a prefix of the sweep, profile for profile.
                prop_assert_eq!(&learned.profiles[..], &swept.profiles[..learned.profiles.len()]);
            }
        }
    }
}
