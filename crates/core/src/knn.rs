//! Exact k-nearest-neighbour search on the S³ structure.
//!
//! The paper argues (§I–II) that k-NN queries are the *wrong* primitive for
//! copy detection — the number of relevant fingerprints per query is highly
//! variable — but k-NN remains the dominant paradigm it compares against.
//! This module provides an exact best-first k-NN over the same Hilbert
//! p-block tree, so experiments can quantify the argument: when a fingerprint
//! is duplicated many times, a k-NN with small `k` misses duplicates that the
//! statistical query returns.
//!
//! The search maintains a min-heap of tree nodes keyed by their box's
//! min-distance to the query, and a max-heap of the current k best records.
//! A node whose min-distance exceeds the current k-th best distance can be
//! discarded with all its descendants, which makes the search exact.

use crate::index::{Match, S3Index};
use crate::kernels;
use s3_hilbert::Block;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Result of a k-NN query.
#[derive(Clone, Debug)]
pub struct KnnResult {
    /// The k nearest records, sorted by increasing distance.
    pub neighbors: Vec<Match>,
    /// Tree nodes expanded.
    pub nodes_expanded: usize,
    /// Records visited by block scans (the distance kernel may abandon a
    /// record early once it exceeds the current k-th best).
    pub entries_scanned: usize,
}

#[derive(Debug)]
struct FrontierNode {
    min_dist_sq: f64,
    block: Block,
}

impl PartialEq for FrontierNode {
    fn eq(&self, other: &Self) -> bool {
        self.min_dist_sq == other.min_dist_sq
    }
}
impl Eq for FrontierNode {}
impl PartialOrd for FrontierNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.min_dist_sq
            .partial_cmp(&other.min_dist_sq)
            .unwrap_or(Ordering::Equal)
    }
}

#[derive(Debug, PartialEq)]
struct Candidate {
    dist_sq: u64,
    index: usize,
}

impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .cmp(&other.dist_sq)
            .then(self.index.cmp(&other.index))
    }
}

/// Exact k-nearest neighbours of `q` in the index.
///
/// `scan_depth` controls when the descent stops subdividing and scans block
/// contents; a good default is the index's natural depth (about
/// `log2(len) + 4`). Any value in `[1, key_bits]` gives exact results.
pub fn knn(index: &S3Index, q: &[u8], k: usize, scan_depth: u32) -> KnnResult {
    search(index, q, k, scan_depth, f64::INFINITY)
}

/// Approximate k-NN with probabilistic control — the competing paradigm the
/// paper positions itself against (§I: methods "based on a probabilistic
/// selection of the bounding regions … allow to control directly the expected
/// percentage of the real k-nearest neighbors").
///
/// The search runs best-first like [`knn`], but stops once the unexplored
/// frontier can only contain fingerprints farther than the `confidence`
/// quantile of the distortion-norm law: under the model, a *relevant*
/// neighbor lies beyond that radius with probability `1 - confidence`, so
/// expanding further buys recall the application does not need. With
/// `confidence = 1.0` the cut never fires and the result is exact.
pub fn knn_approx(
    index: &S3Index,
    q: &[u8],
    k: usize,
    scan_depth: u32,
    sigma: f64,
    confidence: f64,
) -> KnnResult {
    assert!(
        (0.0..=1.0).contains(&confidence),
        "confidence out of range: {confidence}"
    );
    assert!(sigma > 0.0);
    // Radius beyond which a model-distributed relevant fingerprint falls
    // with probability (1 - confidence).
    let cutoff_sq = if confidence >= 1.0 {
        f64::INFINITY
    } else {
        let law = s3_stats::NormDistribution::new(index.curve().dims() as u32, sigma);
        let r = law.quantile(confidence);
        r * r
    };
    search(index, q, k, scan_depth, cutoff_sq)
}

/// The one best-first search: nodes whose box lies farther than the current
/// k-th best, or than `cutoff_sq` (∞ for the exact search), are discarded
/// with all their descendants.
fn search(index: &S3Index, q: &[u8], k: usize, scan_depth: u32, cutoff_sq: f64) -> KnnResult {
    let curve = index.curve();
    assert_eq!(q.len(), curve.dims(), "query dimension mismatch");
    assert!(k > 0, "k must be positive");
    assert!(
        scan_depth >= 1 && scan_depth <= curve.key_bits(),
        "scan depth out of range"
    );
    // Spans emitted by this search carry a query id, like every other
    // query engine's.
    let _scope = crate::plan::query_scope(None);
    let mut sp = s3_obs::span!("query.knn", "k" => k as f64);

    let qf: Vec<f64> = q.iter().map(|&c| f64::from(c)).collect();
    let mut frontier = BinaryHeap::new();
    frontier.push(Reverse(FrontierNode {
        min_dist_sq: 0.0,
        block: Block::root(curve),
    }));
    // Max-heap of current best candidates (worst on top).
    let mut best: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    let mut nodes = 0usize;
    let mut scanned = 0usize;

    // Squared distance a node must not exceed to be worth visiting.
    let reach = |best: &BinaryHeap<Candidate>| -> f64 {
        if best.len() < k {
            cutoff_sq
        } else {
            best.peek()
                .map_or(cutoff_sq, |c| cutoff_sq.min(c.dist_sq as f64))
        }
    };

    while let Some(Reverse(node)) = frontier.pop() {
        if node.min_dist_sq > reach(&best) {
            break; // every remaining node is at least this far
        }
        if node.block.depth() >= scan_depth {
            let (start, end) = index.locate(&node.block.key_range(curve));
            for i in start..end {
                scanned += 1;
                // A candidate displaces the k-th best only if strictly
                // closer: integer distances make that `d² ≤ kth − 1`, an
                // exact bound the kernel can abandon records against. A
                // heap already full at distance 0 admits nothing.
                let bound = if best.len() < k {
                    u64::MAX
                } else {
                    match best.peek().map(|c| c.dist_sq) {
                        Some(0) => continue,
                        Some(kth) => kth - 1,
                        None => u64::MAX,
                    }
                };
                if let Some(d2) = kernels::dist_sq_within(q, index.records().fingerprint(i), bound)
                {
                    best.push(Candidate {
                        dist_sq: d2,
                        index: i,
                    });
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
            continue;
        }
        nodes += 1;
        for child in node.block.split(curve) {
            let d2 = child.min_dist_sq(&qf);
            if d2 <= reach(&best) {
                frontier.push(Reverse(FrontierNode {
                    min_dist_sq: d2,
                    block: child,
                }));
            }
        }
    }

    let mut ordered: Vec<Candidate> = best.into_vec();
    ordered.sort();
    let neighbors = ordered
        .into_iter()
        .map(|c| Match {
            index: c.index,
            id: index.records().id(c.index),
            tc: index.records().tc(c.index),
            dist_sq: Some(c.dist_sq as f64),
        })
        .collect();
    sp.record("nodes", nodes as f64);
    sp.record("entries", scanned as f64);
    KnnResult {
        neighbors,
        nodes_expanded: nodes,
        entries_scanned: scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::{dist_sq, RecordBatch};
    use s3_hilbert::HilbertCurve;

    fn index(n: usize, seed: u64) -> S3Index {
        let mut batch = RecordBatch::with_capacity(4, n);
        let mut s = seed | 1;
        let mut fp = [0u8; 4];
        for i in 0..n {
            for c in fp.iter_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *c = (s >> 32) as u8;
            }
            batch.push(&fp, i as u32, 0);
        }
        S3Index::build(HilbertCurve::new(4, 8).unwrap(), batch)
    }

    fn brute_knn(index: &S3Index, q: &[u8], k: usize) -> Vec<u64> {
        let mut d: Vec<u64> = (0..index.len())
            .map(|i| dist_sq(q, index.records().fingerprint(i)))
            .collect();
        d.sort_unstable();
        d.truncate(k);
        d
    }

    #[test]
    fn knn_matches_brute_force() {
        let idx = index(3000, 0xABCDEF);
        for (q, k) in [
            ([0u8, 0, 0, 0], 1),
            ([128, 128, 128, 128], 5),
            ([255, 1, 254, 2], 20),
            ([40, 200, 10, 90], 100),
        ] {
            for depth in [8u32, 12, 16] {
                let res = knn(&idx, &q, k, depth);
                let dists: Vec<u64> = res
                    .neighbors
                    .iter()
                    .map(|m| m.dist_sq.unwrap() as u64)
                    .collect();
                assert_eq!(dists, brute_knn(&idx, &q, k), "q={q:?} k={k} depth={depth}");
            }
        }
    }

    /// Past a scan depth of 64 the blocks' key ranges have bits below the
    /// 64-bit prefix a sorted run stores, so the locate places them by
    /// full keys: the answers stay the brute-force ones, on the paper's
    /// curve and on clustered records that share prefixes.
    #[test]
    fn knn_is_exact_at_scan_depths_past_the_prefix() {
        let mut batch = RecordBatch::new(20);
        let mut s = 0x6E4Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        };
        let centres: Vec<Vec<u8>> = (0..8).map(|_| (0..20).map(|_| next()).collect()).collect();
        for i in 0..1500 {
            // Near-duplicates of a centre: the low one or two bits redrawn.
            let low = (1u8 << (1 + i % 2)) - 1;
            let fp: Vec<u8> = centres[i % 8]
                .iter()
                .map(|&c| (c & !low) | (next() & low))
                .collect();
            batch.push(&fp, i as u32, 0);
        }
        let idx = S3Index::build(HilbertCurve::paper(), batch);
        for (qi, k) in [(0usize, 1usize), (37, 3), (701, 5)] {
            let mut q = idx.records().fingerprint(qi).to_vec();
            q[3] = q[3].wrapping_add(1);
            for depth in [40u32, 65, 80, 100] {
                let res = knn(&idx, &q, k, depth);
                let dists: Vec<u64> = res
                    .neighbors
                    .iter()
                    .map(|m| m.dist_sq.unwrap() as u64)
                    .collect();
                assert_eq!(dists, brute_knn(&idx, &q, k), "q{qi} k={k} depth={depth}");
                for m in &res.neighbors {
                    let d2 = dist_sq(&q, idx.records().fingerprint(m.index));
                    assert_eq!(Some(d2 as f64), m.dist_sq, "q{qi} depth={depth}");
                }
            }
        }
    }

    #[test]
    fn knn_scans_fraction_of_database() {
        let idx = index(20_000, 7);
        let res = knn(&idx, &[100, 100, 100, 100], 10, 14);
        assert!(
            res.entries_scanned < idx.len() / 2,
            "best-first pruning should avoid most of the DB, scanned {}",
            res.entries_scanned
        );
    }

    #[test]
    fn k_larger_than_db_returns_everything() {
        let idx = index(12, 3);
        let res = knn(&idx, &[1, 2, 3, 4], 100, 8);
        assert_eq!(res.neighbors.len(), 12);
        // Sorted by distance.
        for w in res.neighbors.windows(2) {
            assert!(w[0].dist_sq.unwrap() <= w[1].dist_sq.unwrap());
        }
    }

    #[test]
    fn exact_duplicates_fill_top_ranks() {
        let mut batch = RecordBatch::new(4);
        for i in 0..5 {
            batch.push(&[9, 9, 9, 9], i, 0);
        }
        batch.push(&[200, 200, 200, 200], 99, 0);
        let idx = S3Index::build(HilbertCurve::new(4, 8).unwrap(), batch);
        let res = knn(&idx, &[9, 9, 9, 9], 5, 8);
        assert!(res.neighbors.iter().all(|m| m.dist_sq == Some(0.0)));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let idx = index(10, 1);
        knn(&idx, &[0, 0, 0, 0], 0, 8);
    }

    #[test]
    fn approx_with_full_confidence_is_exact() {
        let idx = index(3000, 0x44);
        for q in [[5u8, 5, 5, 5], [200, 30, 120, 60]] {
            let exact = knn(&idx, &q, 10, 12);
            let approx = knn_approx(&idx, &q, 10, 12, 10.0, 1.0);
            let a: Vec<u64> = exact
                .neighbors
                .iter()
                .map(|m| m.dist_sq.unwrap() as u64)
                .collect();
            let b: Vec<u64> = approx
                .neighbors
                .iter()
                .map(|m| m.dist_sq.unwrap() as u64)
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn approx_trades_recall_for_work() {
        let idx = index(30_000, 0x55);
        let q = [128u8, 128, 128, 128];
        let exact = knn(&idx, &q, 50, 14);
        // Tight confidence with small sigma: the cutoff radius is small, the
        // search terminates early.
        let approx = knn_approx(&idx, &q, 50, 14, 3.0, 0.9);
        assert!(
            approx.entries_scanned <= exact.entries_scanned,
            "approx must not scan more: {} vs {}",
            approx.entries_scanned,
            exact.entries_scanned
        );
        // Everything it does return is genuinely among the exact neighbors.
        let exact_set: std::collections::HashSet<usize> =
            exact.neighbors.iter().map(|m| m.index).collect();
        for m in &approx.neighbors {
            if m.dist_sq.unwrap() <= exact.neighbors.last().unwrap().dist_sq.unwrap() {
                assert!(exact_set.contains(&m.index));
            }
        }
    }

    #[test]
    fn approx_never_returns_beyond_cutoff_when_k_unsatisfied() {
        // With a huge k, the approximate search fills only up to the cutoff.
        let idx = index(5000, 0x66);
        let q = [100u8, 100, 100, 100];
        let sigma = 5.0;
        let res = knn_approx(&idx, &q, 5000, 12, sigma, 0.8);
        let law = s3_stats::NormDistribution::new(4, sigma);
        let cutoff = law.quantile(0.8);
        // Allow the block granularity to overshoot slightly: returned
        // candidates come from scanned blocks that intersect the cutoff ball.
        for m in &res.neighbors {
            let d = m.dist_sq.unwrap().sqrt();
            assert!(d <= cutoff + 256.0 * 2.0, "{d} vs cutoff {cutoff}");
        }
        assert!(
            res.neighbors.len() < 5000,
            "early cut must drop far records"
        );
    }
}
