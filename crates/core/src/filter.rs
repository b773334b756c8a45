//! Block-selection filters: the first stage of every query (§IV-A).
//!
//! A query against the S³ structure proceeds in two steps: a *filtering* step
//! that selects a set of p-blocks (curve intervals) worth scanning, and a
//! *refinement* step that scans them. This module implements the filtering
//! step in three flavours:
//!
//! * [`select_blocks_best_first`] — exact computation of the paper's
//!   `B_α^min`: the minimum-cardinality block set whose total distortion mass
//!   reaches α. A best-first (Dijkstra-style) descent of the binary p-block
//!   tree pops blocks in strictly non-increasing mass order, because a child's
//!   box is contained in its parent's, so a parent's mass upper-bounds every
//!   descendant's. It needs no threshold iteration.
//! * [`select_blocks_threshold`] — the paper's formulation (eq. 3–4): find
//!   `t_max` such that `B(t) = {blocks with mass > t}` has `P_sup(t) ≥ α`
//!   with minimal cardinality, by monotone bisection on `t`, each evaluation
//!   being a pruned depth-first traversal. Kept both as a faithful baseline
//!   and as an ablation target; it selects the same blocks as best-first up
//!   to mass ties.
//! * [`select_blocks_range`] — the geometric filter of a classical ε-range
//!   query: keep every depth-p block whose box intersects the query ball.
//!   This is the comparison baseline of Fig. 5/6.
//!
//! Masses use the continuous relaxation of the integer grid: a block covering
//! integer coordinates `[lo, hi)` along a dimension is scored with the
//! interval `[lo - 0.5, hi - 0.5)`, so sibling masses sum exactly to their
//! parent's and the whole partition sums to the mass of the byte cube.

use crate::distortion::DistortionModel;
use crate::index::{FilterAlgo, StatQueryOpts};
use crate::metrics::CoreMetrics;
use crate::resilience::QueryCtx;
use s3_hilbert::{Block, CompactNode, HilbertCurve, Key256, KeyRange, LevelCell};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A block selected by a filter: its place in the partition, its score and
/// its distance to the query.
///
/// Deliberately not a [`Block`]: the engines read only the depth, the curve
/// rank (hence the key range), the score and the box distance of a
/// selected block, and a statistical query at `D = 20` selects tens of
/// thousands of them, so an entry is 48 bytes instead of a 192-byte box.
/// [`ScoredBlock::block`] rebuilds the box for tests and diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct ScoredBlock {
    rank: Key256,
    /// Its probability mass `∫_block p_ΔS(X − Q) dX` (or min-distance² for
    /// the geometric filter, see [`select_blocks_range`]).
    pub score: f64,
    depth: u32,
    dist_sq: u32,
}

impl ScoredBlock {
    fn of(block: &Block, score: f64, q: &[u8]) -> ScoredBlock {
        ScoredBlock {
            rank: block.curve_rank(),
            score,
            depth: block.depth(),
            dist_sq: box_dist_sq(block, q),
        }
    }

    /// Squared distance from the query to the block's box, in grid units:
    /// [`Block::min_dist_sq`] of the byte query, exactly, on a byte grid
    /// (order ≤ 8). No record in the block lies closer to the query.
    #[inline]
    pub fn dist_sq(&self) -> u32 {
        self.dist_sq
    }

    /// True if the block may hold a record within `reach` (a squared
    /// distance) of the query; a `None` reach admits no block at all,
    /// [`UNPRUNED`] every block.
    #[inline]
    pub(crate) fn within(&self, reach: Option<u64>) -> bool {
        reach.is_some_and(|r| u64::from(self.dist_sq) <= r)
    }

    /// Partition depth `p` of the block.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The block's index among the `2^depth` blocks, in curve order.
    #[inline]
    pub fn curve_rank(&self) -> Key256 {
        self.rank
    }

    /// Half-open key interval covered by the block.
    pub fn key_range(&self, curve: &HilbertCurve) -> KeyRange {
        KeyRange::of_ranks(curve, self.depth, &self.rank, &self.rank)
    }

    /// The block's box, rebuilt from its rank in `O(depth)`.
    pub fn block(&self, curve: &HilbertCurve) -> Block {
        Block::from_rank(curve, self.depth, &self.rank)
    }
}

/// Outcome of a filtering step.
#[derive(Clone, Debug)]
pub struct FilterOutcome {
    /// Selected blocks (unordered).
    pub blocks: Vec<ScoredBlock>,
    /// Total probability mass captured (meaningless for the geometric filter).
    pub mass: f64,
    /// The mass the selection aimed at: the requested α capped by
    /// [`reachable_alpha`] (NaN for the geometric filters, which aim at none).
    pub target: f64,
    /// Number of tree nodes expanded (filter work measure, `T_f` proxy).
    pub nodes_expanded: usize,
    /// The threshold `t_max` found (threshold filter only).
    pub tmax: Option<f64>,
    /// Bisection iterations spent locating `t_max` (threshold filter only;
    /// 0 for the other algorithms).
    pub iterations: u32,
    /// Which filter algorithm produced this outcome (stamped at the
    /// instrumented return site; `""` only for hand-built outcomes).
    pub algo: &'static str,
    /// True if the block budget truncated the selection before reaching α.
    pub truncated: bool,
}

/// Counts the nodes the filter expanded (`filter.nodes_expanded`, one
/// pre-registered atomic add), stamps the algorithm name into the outcome
/// and returns it — applied at every filter's return site so filter work is
/// measured no matter which caller invoked it, the depth learner included.
fn observed(mut outcome: FilterOutcome, algo: &'static str) -> FilterOutcome {
    CoreMetrics::get()
        .filter_nodes_expanded
        .add(outcome.nodes_expanded as u64);
    outcome.algo = algo;
    outcome
}

/// The expectation a statistical selection can actually aim at. For a
/// query near the boundary of the byte cube part of the distortion mass
/// falls outside the grid, so the achievable expectation is capped by the
/// root mass; aiming just below it makes such a query terminate with the
/// best achievable coverage instead of exhausting the whole partition.
pub fn reachable_alpha(alpha: f64, root_mass: f64) -> f64 {
    alpha.min(root_mass * (1.0 - 1e-9))
}

/// True if a selection that captured `mass` fell short of the `target` it
/// aimed at — the paper's capture invariant broken by a block budget, a
/// deadline or a cancellation, never by the cube boundary (which
/// [`reachable_alpha`] already took out of the target). Geometric
/// selections (NaN mass) aim at no mass and never miss.
pub fn missed_target(mass: f64, target: f64) -> bool {
    mass < target - 1e-9
}

/// Mass under the model, centred on the query, of the dyadic interval
/// `[k·2^ext, (k+1)·2^ext)` of axis `dim` — every per-axis factor of every
/// block is one of these.
#[inline]
fn interval_mass(model: &dyn DistortionModel, q: &[f64], dim: usize, ext: u32, k: u32) -> f64 {
    let lo = u64::from(k) << ext;
    let hi = lo + (1u64 << ext);
    model.component_mass(dim, lo as f64 - 0.5 - q[dim], hi as f64 - 0.5 - q[dim])
}

/// The `(ext, k)` interval a block covers along `dim`.
#[inline]
fn block_interval(block: &Block, dim: usize) -> (u32, u32) {
    let ext = block.extent_log2(dim);
    (ext, block.lo()[dim].checked_shr(ext).unwrap_or(0))
}

/// The reach that keeps every block, whatever its distance.
pub(crate) const UNPRUNED: Option<u64> = Some(u64::MAX);

/// Squared distance from the byte coordinate `q` to the cells
/// `[k·2^ext, (k+1)·2^ext)` of one axis — the closed segment from the first
/// cell to the last. Capped at 255², the farthest a byte record can lie
/// along an axis, so a box beyond the byte range of a high-order grid (the
/// only place the cap bites) gets a lower bound and the sum over 32 axes
/// fits a `u32`.
#[inline]
fn axis_dist_sq(q: u8, ext: u32, k: u32) -> u32 {
    let lo = u64::from(k) << ext;
    let last = lo + (1u64 << ext) - 1;
    let q = u64::from(q);
    let d = lo.saturating_sub(q).max(q.saturating_sub(last)).min(255);
    (d * d) as u32
}

/// Squared distance from the byte query `q` to `block`'s box, summed axis
/// by axis ([`axis_dist_sq`]).
fn box_dist_sq(block: &Block, q: &[u8]) -> u32 {
    (0..q.len())
        .map(|d| {
            let (ext, k) = block_interval(block, d);
            axis_dist_sq(q[d], ext, k)
        })
        .sum()
}

/// Full block mass (product over dimensions), uncached: the tests'
/// reference for the incrementally updated masses.
#[cfg(test)]
fn block_mass(model: &dyn DistortionModel, q: &[f64], block: &Block) -> f64 {
    (0..model.dims())
        .map(|d| {
            let (ext, k) = block_interval(block, d);
            interval_mass(model, q, d, ext, k)
        })
        .product()
}

/// Deepest per-axis level whose memo table is worth allocating (`2^16`
/// entries). Byte fingerprints (order 8) never get near it; it only guards
/// against pathological high-order curves.
const MAX_CACHED_LEVEL: usize = 16;

/// Per-query memo of per-axis component masses.
///
/// Every block the filters score is an axis-aligned dyadic box: along axis
/// `d` it covers `[k·2^e, (k+1)·2^e)`, so its per-axis factor is identified
/// by the interval `(axis, level, k)` with `level = order − e` — the cache
/// is keyed by that interval, never by a block. A partition-tree descent
/// revisits the same intervals constantly — a node's factor along every
/// *unsplit* axis equals its parent's — so memoizing turns the dominant cost
/// of block selection (repeated `erf`-based `component_mass` integrations)
/// into table lookups.
///
/// **Bit-identical by construction**: a miss performs the [`interval_mass`]
/// call a descent without the memo would, and a hit returns that stored
/// `f64` unchanged, so memoizing never changes a [`FilterOutcome`] (the
/// `differential` tests below run the memo-less closure as the reference).
#[derive(Default)]
struct MassCache {
    order: u32,
    /// `tables[axis · (order+1) + level]`, lazily grown to `2^level`
    /// entries; NaN marks "not yet computed" (`component_mass` of a real
    /// interval is never NaN; a NaN-producing model just recomputes).
    tables: Vec<Vec<f64>>,
    hits: u64,
    misses: u64,
}

impl MassCache {
    /// Empties the cache for a new query over a `dims × order` grid, keeping
    /// the tables' allocations when the shape is unchanged.
    fn reset(&mut self, dims: usize, order: u32) {
        let n = dims * (order as usize + 1);
        if self.order == order && self.tables.len() == n {
            for table in &mut self.tables {
                table.fill(f64::NAN);
            }
        } else {
            self.order = order;
            self.tables.clear();
            self.tables.resize(n, Vec::new());
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Memoized [`interval_mass`].
    #[inline]
    fn factor(
        &mut self,
        model: &dyn DistortionModel,
        q: &[f64],
        dim: usize,
        ext: u32,
        k: u32,
    ) -> f64 {
        let level = (self.order - ext) as usize;
        if level > MAX_CACHED_LEVEL {
            self.misses += 1;
            return interval_mass(model, q, dim, ext, k);
        }
        let table = &mut self.tables[dim * (self.order as usize + 1) + level];
        if table.is_empty() {
            table.resize(1usize << level, f64::NAN);
        }
        let v = table[k as usize];
        if !v.is_nan() {
            self.hits += 1;
            return v;
        }
        self.misses += 1;
        let m = interval_mass(model, q, dim, ext, k);
        table[k as usize] = m;
        m
    }

    /// Folds the hit/miss tallies into the registry (one batch of atomic
    /// adds per selection instead of two per lookup).
    fn publish(&self) {
        let m = CoreMetrics::get();
        m.mass_cache_hits.add(self.hits);
        m.mass_cache_misses.add(self.misses);
    }
}

/// Working memory of the statistical filters, kept per thread so the
/// queries of a batch worker (or of a sequential loop) clear and refill it
/// instead of reallocating heap, cell arena, mass tables and rank buffer
/// for every fingerprint.
#[derive(Default)]
struct Scratch {
    heap: BinaryHeap<HeapNode>,
    cells: Vec<LevelCell>,
    cache: MassCache,
    ranks: Vec<u64>,
}

thread_local! {
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's [`Scratch`]. The scratch is taken out of its
/// slot for the duration, so a re-entrant call (a distortion model that
/// itself filters) just works on a fresh one.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.with(Cell::take).unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH.with(|slot| slot.set(Some(scratch)));
    out
}

/// Shared argument validation of the statistical filters.
fn check_stat_args(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
) {
    assert_eq!(q.len(), curve.dims(), "query dimension mismatch");
    assert_eq!(model.dims(), curve.dims(), "model dimension mismatch");
    assert!(
        depth >= 1 && depth <= curve.key_bits(),
        "depth out of range"
    );
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
}

/// Converts a byte query to centred f64 coordinates.
pub(crate) fn query_coords(q: &[u8]) -> Vec<f64> {
    q.iter().map(|&c| f64::from(c)).collect()
}

/// A best-first frontier entry: 24 bytes, ordered by mass alone. `dist_sq`
/// is the node's box distance to the query ([`box_dist_sq`]), carried down
/// one axis term at a time.
#[derive(Debug)]
struct HeapNode {
    mass: f64,
    dist_sq: u32,
    node: CompactNode,
}

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.mass == other.mass
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by mass; masses are finite non-negative by construction.
        self.mass
            .partial_cmp(&other.mass)
            .unwrap_or(Ordering::Equal)
    }
}

/// The statistical block selection every query engine runs: `opts` picks
/// the algorithm and its parameters; with a `ctx` the best-first descent
/// polls it every few node expansions and a stopped descent returns the
/// blocks selected so far with [`FilterOutcome::truncated`] set — a valid
/// (partial) selection, exact over the mass it did capture. The threshold
/// baseline runs to completion.
pub fn select_blocks_stat(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    opts: &StatQueryOpts,
    ctx: Option<&QueryCtx>,
) -> FilterOutcome {
    let (depth, alpha, max) = (opts.depth, opts.alpha, opts.max_blocks);
    match opts.algo {
        FilterAlgo::BestFirst => best_first(curve, model, q, depth, alpha, max, ctx),
        FilterAlgo::Threshold { iterations } => {
            select_blocks_threshold(curve, model, q, depth, alpha, max, iterations)
        }
    }
}

/// Computes `B_α^min` exactly by best-first descent.
///
/// * `q` — query fingerprint;
/// * `depth` — partition depth `p`;
/// * `alpha` — target expectation in `(0, 1]`;
/// * `max_blocks` — hard budget on selected blocks; when hit, the outcome is
///   flagged [`FilterOutcome::truncated`].
pub fn select_blocks_best_first(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
) -> FilterOutcome {
    best_first(curve, model, q, depth, alpha, max_blocks, None)
}

fn best_first(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    ctx: Option<&QueryCtx>,
) -> FilterOutcome {
    check_stat_args(curve, model, q, depth, alpha);
    let qf = query_coords(q);
    with_scratch(|scratch| {
        let Scratch {
            heap, cells, cache, ..
        } = scratch;
        cache.reset(curve.dims(), curve.order() as u32);
        let out = best_first_impl(curve, q, depth, alpha, max_blocks, ctx, heap, cells, {
            &mut |dim, ext, k| cache.factor(model, &qf, dim, ext, k)
        });
        cache.publish();
        observed(out, "best_first")
    })
}

/// Best-first descent over [`CompactNode`]s, parameterized over the source
/// of per-axis interval masses `factor(axis, ext, k)` (the engines pass the
/// [`MassCache`]; the tests also a memo-less closure).
///
/// A frontier entry is a mass, a box distance and a 12-byte node; the boxes
/// themselves live once per curve level in `cells`. Everything a step needs
/// follows from the node in O(1): its depth, its rank, the axis it splits
/// and the parent's and children's intervals along that axis — which are
/// exactly the factor keys, and the only distance terms a split changes.
/// The heap is ordered by mass alone and sees the same pushes and pops as a
/// descent carrying full [`Block`]s would, so the selection, its order and
/// its tie-breaks do not depend on the node representation.
#[allow(clippy::too_many_arguments)] // scratch buffers passed apart so callers can borrow the cache too
fn best_first_impl<F: FnMut(usize, u32, u32) -> f64>(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    ctx: Option<&QueryCtx>,
    heap: &mut BinaryHeap<HeapNode>,
    cells: &mut Vec<LevelCell>,
    factor: &mut F,
) -> FilterOutcome {
    let dims = curve.dims() as u32;
    let order = curve.order() as u32;
    heap.clear();
    cells.clear();
    cells.push(LevelCell::root(curve));
    // The product runs in slot order, so a curve over permuted axes scores
    // every node exactly as the identity curve does on the permuted query.
    let root_mass: f64 = (0..dims as usize)
        .map(|s| factor(curve.axis(s), order, 0))
        .product();
    let alpha = reachable_alpha(alpha, root_mass);
    heap.push(HeapNode {
        mass: root_mass,
        dist_sq: (0..dims as usize)
            .map(|d| axis_dist_sq(q[d], order, 0))
            .sum(),
        node: CompactNode::ROOT,
    });

    let mut out = Vec::new();
    let mut acc = 0.0;
    let mut nodes = 0usize;
    let mut truncated = false;
    let mut since_check = 0usize;

    while let Some(HeapNode {
        mass,
        dist_sq,
        mut node,
    }) = heap.pop()
    {
        if mass <= 0.0 {
            break; // everything left is massless
        }
        if let Some(ctx) = ctx {
            since_check += 1;
            if since_check >= 32 {
                since_check = 0;
                if ctx.should_stop() {
                    truncated = true;
                    break;
                }
            }
        }
        let cell = &cells[node.cell as usize];
        if cell.depth_of(node.j) == depth {
            out.push(ScoredBlock {
                rank: cell.rank_of(node.w_pref, node.j),
                score: mass,
                depth,
                dist_sq,
            });
            acc += mass;
            if acc >= alpha {
                break;
            }
            if out.len() >= max_blocks {
                truncated = true;
                break;
            }
            continue;
        }
        // A completed digit enters the next curve level: the one place a
        // new cell is made (never at p ≤ D).
        if node.j == dims {
            let Ok(index) = u32::try_from(cells.len()) else {
                truncated = true; // the arena cannot address another cell
                break;
            };
            let next = cell.descend(curve, node.w_pref);
            node = CompactNode {
                cell: index,
                ..CompactNode::ROOT
            };
            cells.push(next);
        }
        nodes += 1;
        let split = cells[node.cell as usize].split(curve, node.w_pref, node.j);
        let parent_factor = factor(split.axis, split.ext, split.k);
        let qa = q[split.axis];
        // Only the split axis's term changes; the others are the parent's.
        let rest_sq = dist_sq - axis_dist_sq(qa, split.ext, split.k);
        for c in 0..2 {
            let (ext, k) = split.child_interval(c);
            let child_mass = if parent_factor > 0.0 {
                mass / parent_factor * factor(split.axis, ext, k)
            } else {
                0.0
            };
            if child_mass > 0.0 {
                heap.push(HeapNode {
                    mass: child_mass,
                    dist_sq: rest_sq + axis_dist_sq(qa, ext, k),
                    node: node.child(c),
                });
            }
        }
    }

    FilterOutcome {
        blocks: out,
        mass: acc,
        target: alpha,
        nodes_expanded: nodes,
        tmax: None,
        iterations: 0,
        algo: "",
        truncated,
    }
}

/// Result of one pruned DFS evaluation of `B(t)`.
struct ThresholdEval {
    blocks: Vec<ScoredBlock>,
    psup: f64,
    nodes: usize,
    overflowed: bool,
}

/// Collects `B(t)`: all depth-p blocks with mass strictly greater than `t`.
fn collect_above(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    t: f64,
    max_blocks: usize,
    factor: &mut dyn FnMut(&Block, usize) -> f64,
) -> ThresholdEval {
    let root = Block::root(curve);
    let root_mass: f64 = (0..q.len()).map(|d| factor(&root, d)).product();
    let mut eval = ThresholdEval {
        blocks: Vec::new(),
        psup: 0.0,
        nodes: 0,
        overflowed: false,
    };
    // Iterative DFS; a parent's mass bounds its children's, so `mass <= t`
    // prunes the whole subtree exactly.
    let mut stack = vec![(root, root_mass)];
    while let Some((block, mass)) = stack.pop() {
        if mass <= t {
            continue;
        }
        if block.depth() == depth {
            eval.psup += mass;
            if eval.blocks.len() >= max_blocks {
                eval.overflowed = true;
                // Keep accumulating psup (cheap) but stop storing blocks.
                continue;
            }
            eval.blocks.push(ScoredBlock::of(&block, mass, q));
            continue;
        }
        eval.nodes += 1;
        let axis = block.next_split_axis(curve);
        let parent_factor = factor(&block, axis);
        for child in block.split(curve) {
            let m = if parent_factor > 0.0 {
                mass / parent_factor * factor(&child, axis)
            } else {
                0.0
            };
            stack.push((child, m));
        }
    }
    eval
}

/// The paper's threshold filter (eq. 3–4): finds `t_max` with
/// `P_sup(t_max) ≥ α` and `P_sup(t) < α` for `t > t_max`, by bisection on the
/// non-increasing `P_sup(t)`, then returns `B(t_max)`.
///
/// `iterations` bisection steps are performed (the paper uses "a method
/// inspired by Newton-Raphson"; monotone bisection is equally effective and
/// unconditionally convergent). Typical values: 20–30.
pub fn select_blocks_threshold(
    curve: &HilbertCurve,
    model: &dyn DistortionModel,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    iterations: usize,
) -> FilterOutcome {
    check_stat_args(curve, model, q, depth, alpha);
    assert!(iterations > 0);
    let qf = query_coords(q);
    // One cache shared across every bisection iteration: each pruned DFS
    // revisits mostly the same intervals, so iterations beyond the first
    // integrate almost nothing new.
    with_scratch(|scratch| {
        let cache = &mut scratch.cache;
        cache.reset(curve.dims(), curve.order() as u32);
        let out = threshold_impl(curve, q, depth, alpha, max_blocks, iterations, {
            &mut |b, d| {
                let (ext, k) = block_interval(b, d);
                cache.factor(model, &qf, d, ext, k)
            }
        });
        cache.publish();
        observed(out, "threshold")
    })
}

/// Bisection on `t` parameterized over the per-axis factor source.
fn threshold_impl(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    alpha: f64,
    max_blocks: usize,
    iterations: usize,
    factor: &mut dyn FnMut(&Block, usize) -> f64,
) -> FilterOutcome {
    let root = Block::root(curve);
    let root_mass: f64 = (0..q.len()).map(|d| factor(&root, d)).product();
    let alpha = reachable_alpha(alpha, root_mass);

    // Bracket: Psup(0) = root mass (all blocks kept), Psup(root_mass) = 0.
    let mut lo = 0.0f64;
    let mut hi = root_mass;
    let mut nodes_total = 0usize;
    let mut best: Option<ThresholdEval> = None;
    let mut tmax = 0.0f64;

    for _ in 0..iterations {
        let t = 0.5 * (lo + hi);
        let eval = collect_above(curve, q, depth, t, max_blocks, factor);
        nodes_total += eval.nodes;
        let satisfied = eval.psup >= alpha && !eval.overflowed;
        if satisfied {
            // t is feasible: try a larger threshold (fewer blocks).
            tmax = t;
            best = Some(eval);
            lo = t;
        } else if eval.overflowed {
            // Too many blocks even to store: raise the threshold.
            lo = t;
        } else {
            hi = t;
        }
    }

    let best = best.unwrap_or_else(|| {
        // No feasible t found within the budget (α too high for this depth /
        // block budget): fall back to t = lo, best effort.
        let eval = collect_above(curve, q, depth, lo, max_blocks, factor);
        nodes_total += eval.nodes;
        tmax = lo;
        eval
    });

    let truncated = best.overflowed || best.psup < alpha;
    FilterOutcome {
        mass: best.psup,
        target: alpha,
        blocks: best.blocks,
        nodes_expanded: nodes_total,
        tmax: Some(tmax),
        iterations: u32::try_from(iterations).unwrap_or(u32::MAX),
        algo: "",
        truncated,
    }
}

/// Geometric filter of a classical ε-range query: selects every depth-p
/// block whose box intersects the closed ball `‖X − q‖ ≤ eps`. The score of
/// each block is its squared min-distance to the query.
///
/// This filter is *complete*: every fingerprint within ε of the query lies in
/// a selected block, so range-query recall is exact (the cost, studied in
/// Fig. 5/6, is that high-dimensional spheres intersect very many blocks).
pub fn select_blocks_range(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    eps: f64,
    max_blocks: usize,
) -> FilterOutcome {
    let (qf, eps_sq) = (query_coords(q), eps * eps);
    let admit = |block: &Block| Some(block.min_dist_sq(&qf)).filter(|&d2| d2 <= eps_sq);
    select_blocks_geometric(curve, q, depth, eps, max_blocks, "range", admit)
}

/// Classical bounding-box filter: selects every depth-p block intersecting
/// the axis-aligned box `[q − eps, q + eps]^D` that encloses the query ball.
///
/// This is what a Lawder-style curve index could compute ("only
/// hyper-rectangular range queries are computable with Lawder's indexing
/// technique", §IV): a spherical query must be enclosed in its AABB before
/// filtering. In high dimension the box-to-ball volume ratio is astronomical,
/// so this baseline degenerates toward a sequential scan — the gap the
/// paper's Fig. 6 speed-ups are measured against.
pub fn select_blocks_bbox(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    eps: f64,
    max_blocks: usize,
) -> FilterOutcome {
    let qf = query_coords(q);
    let admit = |block: &Block| {
        let intersects = (0..curve.dims()).all(|d| {
            let (lo, hi) = block.dim_bounds(d);
            f64::from(hi - 1) >= qf[d] - eps && f64::from(lo) <= qf[d] + eps
        });
        // Only a selected (depth-p) block's score is ever read.
        let scored = block.depth() == depth;
        intersects.then(|| if scored { block.min_dist_sq(&qf) } else { 0.0 })
    };
    select_blocks_geometric(curve, q, depth, eps, max_blocks, "bbox", admit)
}

/// The one geometric descent: depth-first from the root, pruning every
/// block `admit` refuses (a refused block has no admitted descendant) and
/// selecting the admitted depth-p blocks with the score `admit` gave them.
fn select_blocks_geometric(
    curve: &HilbertCurve,
    q: &[u8],
    depth: u32,
    eps: f64,
    max_blocks: usize,
    algo: &'static str,
    admit: impl Fn(&Block) -> Option<f64>,
) -> FilterOutcome {
    assert_eq!(q.len(), curve.dims(), "query dimension mismatch");
    assert!(
        depth >= 1 && depth <= curve.key_bits(),
        "depth out of range"
    );
    assert!(eps >= 0.0);

    let mut blocks = Vec::new();
    let mut nodes = 0usize;
    let mut truncated = false;
    let mut stack = vec![Block::root(curve)];
    while let Some(block) = stack.pop() {
        let Some(score) = admit(&block) else {
            continue;
        };
        if block.depth() == depth {
            if blocks.len() >= max_blocks {
                truncated = true;
                continue;
            }
            blocks.push(ScoredBlock::of(&block, score, q));
            continue;
        }
        nodes += 1;
        for child in block.split(curve) {
            stack.push(child);
        }
    }
    observed(
        FilterOutcome {
            blocks,
            mass: f64::NAN,
            target: f64::NAN,
            nodes_expanded: nodes,
            tmax: None,
            iterations: 0,
            algo: "",
            truncated,
        },
        algo,
    )
}

/// Merges a filter outcome's blocks into sorted, non-overlapping contiguous
/// key ranges — the scan list of the refinement step.
pub fn merge_block_ranges(curve: &HilbertCurve, outcome: &FilterOutcome) -> Vec<KeyRange> {
    merge_blocks_within(curve, &outcome.blocks, UNPRUNED)
}

/// [`merge_block_ranges`] over only the blocks [`ScoredBlock::within`]
/// `reach` of the query: a block whose box lies farther holds no record
/// within it, so its range need not be scanned.
///
/// Blocks of one depth (all a filter ever emits) are merged by rank: rank
/// order is key order and two blocks abut iff their ranks are consecutive,
/// so the ranks are sorted as integers and only the ends of each run are
/// turned into 256-bit keys.
pub(crate) fn merge_blocks_within(
    curve: &HilbertCurve,
    blocks: &[ScoredBlock],
    reach: Option<u64>,
) -> Vec<KeyRange> {
    let Some(depth) = blocks.first().map(|b| b.depth) else {
        return Vec::new();
    };
    let kept = blocks.iter().filter(|b| b.within(reach));
    if blocks.iter().any(|b| b.depth != depth) {
        return merge_key_ranges(curve, kept);
    }
    if depth <= u64::BITS {
        with_scratch(|scratch| {
            let ranks = &mut scratch.ranks;
            ranks.clear();
            ranks.extend(kept.map(|b| b.rank.limbs()[0]));
            merge_rank_runs(curve, depth, ranks, |r| r.wrapping_add(1), Key256::from_u64)
        })
    } else {
        let mut ranks: Vec<Key256> = kept.map(|b| b.rank).collect();
        merge_rank_runs(curve, depth, &mut ranks, |r| r.wrapping_add_u64(1), |r| r)
    }
}

/// Sorts same-depth block ranks and turns each run of consecutive ranks
/// into one key range. A repeated rank starts a new run, as a repeated
/// range does in [`merge_key_ranges`].
fn merge_rank_runs<T: Copy + Ord>(
    curve: &HilbertCurve,
    depth: u32,
    ranks: &mut [T],
    succ: impl Fn(T) -> T,
    key: impl Fn(T) -> Key256,
) -> Vec<KeyRange> {
    ranks.sort_unstable();
    let mut merged = Vec::new();
    let mut runs = ranks.iter().copied();
    let Some(mut first) = runs.next() else {
        return merged;
    };
    let mut last = first;
    let mut flush =
        |first, last| merged.push(KeyRange::of_ranks(curve, depth, &key(first), &key(last)));
    for rank in runs {
        // `rank >= last`, so a wrapped successor can never match.
        if rank != succ(last) {
            flush(first, last);
            first = rank;
        }
        last = rank;
    }
    flush(first, last);
    merged
}

/// The general merge, for blocks of mixed depths: every block's key range,
/// sorted by lower bound, abutting neighbours coalesced.
fn merge_key_ranges<'a>(
    curve: &HilbertCurve,
    blocks: impl IntoIterator<Item = &'a ScoredBlock>,
) -> Vec<KeyRange> {
    let mut ranges: Vec<KeyRange> = blocks.into_iter().map(|sb| sb.key_range(curve)).collect();
    ranges.sort_unstable_by_key(|r| r.lo);
    let mut merged: Vec<KeyRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match merged.last_mut() {
            Some(last) if last.abuts(&r) => *last = last.merged(&r),
            _ => merged.push(r),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distortion::IsotropicNormal;

    fn small_setup() -> (HilbertCurve, IsotropicNormal) {
        (
            HilbertCurve::new(2, 6).unwrap(),
            IsotropicNormal::new(2, 8.0),
        )
    }

    #[test]
    fn best_first_reaches_alpha() {
        let (curve, model) = small_setup();
        let q = [32u8, 32];
        for alpha in [0.3, 0.5, 0.8, 0.95] {
            let out = select_blocks_best_first(&curve, &model, &q, 6, alpha, 1 << 12);
            assert!(out.mass >= alpha, "alpha={alpha} mass={}", out.mass);
            assert!(!out.truncated);
            assert!(!out.blocks.is_empty());
        }
    }

    #[test]
    fn best_first_masses_are_nonincreasing() {
        let (curve, model) = small_setup();
        let out = select_blocks_best_first(&curve, &model, &[20, 40], 8, 0.9, 1 << 12);
        for w in out.blocks.windows(2) {
            assert!(
                w[0].score >= w[1].score - 1e-12,
                "best-first must emit blocks in non-increasing mass order"
            );
        }
    }

    #[test]
    fn best_first_is_minimal_cardinality() {
        // Compare against brute force: enumerate all blocks at depth p, sort
        // by mass, take the minimal prefix reaching alpha.
        let (curve, model) = small_setup();
        let q = [10u8, 55];
        let qf = query_coords(&q);
        let depth = 7;
        let alpha = 0.85f64;
        let mut all: Vec<f64> = s3_hilbert::blocks_at_depth(&curve, depth)
            .iter()
            .map(|b| block_mass(&model, &qf, b))
            .collect();
        all.sort_by(|a, b| b.partial_cmp(a).unwrap());
        // Apply the same boundary clamp as the filter: the achievable mass is
        // capped by the total in-grid mass.
        let total: f64 = all.iter().sum();
        let target = reachable_alpha(alpha, total);
        let mut acc = 0.0;
        let mut brute = 0;
        for m in &all {
            acc += m;
            brute += 1;
            if acc >= target {
                break;
            }
        }
        let out = select_blocks_best_first(&curve, &model, &q, depth, alpha, 1 << 14);
        assert_eq!(out.blocks.len(), brute);
    }

    #[test]
    fn best_first_total_mass_matches_brute_force() {
        let (curve, model) = small_setup();
        let q = [0u8, 63];
        let qf = query_coords(&q);
        let out = select_blocks_best_first(&curve, &model, &q, 6, 0.7, 1 << 12);
        for sb in &out.blocks {
            let direct = block_mass(&model, &qf, &sb.block(&curve));
            assert!(
                (sb.score - direct).abs() < 1e-12,
                "incremental mass drifted: {} vs {direct}",
                sb.score
            );
        }
    }

    #[test]
    fn threshold_matches_best_first_coverage() {
        let (curve, model) = small_setup();
        let q = [40u8, 22];
        for alpha in [0.5, 0.8, 0.9] {
            let bf = select_blocks_best_first(&curve, &model, &q, 8, alpha, 1 << 14);
            let th = select_blocks_threshold(&curve, &model, &q, 8, alpha, 1 << 14, 40);
            assert!(th.mass >= alpha, "threshold undershoots alpha={alpha}");
            // The threshold filter returns B(t_max) ⊇ the minimal set; with
            // enough bisection steps they coincide up to ties.
            assert!(
                th.blocks.len() >= bf.blocks.len(),
                "threshold cannot be smaller than the minimal set"
            );
            assert!(
                th.blocks.len() <= bf.blocks.len() + 2,
                "threshold set should be near-minimal: {} vs {}",
                th.blocks.len(),
                bf.blocks.len()
            );
        }
    }

    #[test]
    fn threshold_reports_tmax() {
        let (curve, model) = small_setup();
        let out = select_blocks_threshold(&curve, &model, &[12, 12], 6, 0.8, 1 << 12, 30);
        let t = out.tmax.expect("threshold filter must report tmax");
        assert!(t > 0.0);
        // Every selected block's mass exceeds tmax.
        for sb in &out.blocks {
            assert!(sb.score > t);
        }
    }

    #[test]
    fn truncation_flag_when_budget_too_small() {
        let (curve, model) = small_setup();
        let out = select_blocks_best_first(&curve, &model, &[32, 32], 10, 0.999, 4);
        assert!(out.truncated);
        assert_eq!(out.blocks.len(), 4);
        assert!(out.mass < 0.999);
    }

    #[test]
    fn range_filter_is_complete() {
        // Every grid point within eps of the query must be inside a selected
        // block.
        let curve = HilbertCurve::new(2, 5).unwrap();
        let q = [13u8, 7];
        let eps = 6.0;
        let out = select_blocks_range(&curve, &q, 6, eps, 1 << 12);
        assert!(!out.truncated);
        for x in 0u32..32 {
            for y in 0u32..32 {
                let dx = f64::from(x) - 13.0;
                let dy = f64::from(y) - 7.0;
                if (dx * dx + dy * dy).sqrt() <= eps {
                    let covered = out
                        .blocks
                        .iter()
                        .any(|sb| sb.block(&curve).contains(&[x, y]));
                    assert!(covered, "({x},{y}) within eps but not covered");
                }
            }
        }
    }

    #[test]
    fn range_filter_scores_are_min_distances() {
        let curve = HilbertCurve::new(2, 5).unwrap();
        let q = [16u8, 16];
        let out = select_blocks_range(&curve, &q, 4, 10.0, 1 << 12);
        for sb in &out.blocks {
            assert!(sb.score <= 100.0);
            assert_eq!(sb.score, sb.block(&curve).min_dist_sq(&[16.0, 16.0]));
        }
    }

    #[test]
    fn statistical_selects_fewer_blocks_than_range_at_same_expectation() {
        // The core claim of §V-A, in miniature: at equal expectation, the
        // statistical filter intercepts fewer blocks than the sphere.
        let dims = 8;
        let curve = HilbertCurve::new(dims, 4).unwrap();
        let sigma = 2.0;
        let model = IsotropicNormal::new(dims, sigma);
        let q = [8u8; 8];
        let alpha = 0.9;
        let eps = s3_stats::NormDistribution::new(dims as u32, sigma).quantile(alpha);
        let depth = 12;
        let stat = select_blocks_best_first(&curve, &model, &q, depth, alpha, 1 << 16);
        let range = select_blocks_range(&curve, &q, depth, eps, 1 << 16);
        assert!(
            stat.blocks.len() < range.blocks.len(),
            "statistical {} should beat geometric {}",
            stat.blocks.len(),
            range.blocks.len()
        );
    }

    #[test]
    fn boundary_query_clamps_alpha_to_achievable_mass() {
        // A query at the corner of the byte cube loses ~3/4 of its model mass
        // outside the grid; the filter must terminate with the achievable
        // coverage rather than exhausting the partition.
        let (curve, model) = small_setup();
        let q = [0u8, 0];
        let out = select_blocks_best_first(&curve, &model, &q, 8, 0.99, 1 << 14);
        assert!(!out.truncated);
        assert!(out.mass < 0.5, "corner query mass is bounded by the cube");
        assert!(out.mass > 0.2, "still captures the in-grid quadrant");
        let th = select_blocks_threshold(&curve, &model, &q, 8, 0.99, 1 << 14, 30);
        assert!((th.mass - out.mass).abs() < 0.05);
    }

    #[test]
    fn only_a_selection_cut_short_misses_its_target() {
        // The paper's 20-D cube at σ = 20: a corner query keeps about 2⁻²⁰
        // of the model's mass inside the grid, far below the requested α —
        // yet the selection captures all it aimed at.
        let curve = HilbertCurve::paper();
        let model = IsotropicNormal::new(20, 20.0);
        for q in [[0u8; 20], [255u8; 20]] {
            let out = select_blocks_best_first(&curve, &model, &q, 8, 0.8, 1 << 16);
            assert!(out.mass < 0.8 && !out.truncated);
            assert!(!missed_target(out.mass, out.target), "{out:?}");
            let out = select_blocks_threshold(&curve, &model, &q, 8, 0.8, 1 << 16, 20);
            assert!(!missed_target(out.mass, out.target), "{out:?}");
        }
        // A block budget that truncates the selection is a violation.
        let out = select_blocks_best_first(&curve, &model, &[128; 20], 12, 0.8, 4);
        assert!(out.truncated);
        assert!(missed_target(out.mass, out.target));
        // The geometric filters aim at no mass.
        let out = select_blocks_range(&curve, &[128; 20], 4, 60.0, 1 << 16);
        assert!(!missed_target(out.mass, out.target));
    }

    #[test]
    fn entries_keep_their_size() {
        assert_eq!(std::mem::size_of::<HeapNode>(), 24);
        assert_eq!(std::mem::size_of::<ScoredBlock>(), 48);
    }

    #[test]
    fn box_distance_beyond_the_byte_range_is_a_lower_bound() {
        // On an order-10 grid a box can start past 255, where no byte
        // record lies: its axis term is capped at 255², below the box's.
        let curve = HilbertCurve::new(2, 10).unwrap();
        let q = [0u8, 200];
        for block in s3_hilbert::blocks_at_depth(&curve, 6) {
            let exact = block.min_dist_sq(&query_coords(&q));
            let capped = f64::from(box_dist_sq(&block, &q));
            assert!(capped <= exact, "{capped} > {exact}");
            if block.dim_bounds(0).0 <= 255 && block.dim_bounds(1).0 <= 255 {
                assert_eq!(capped, exact);
            }
        }
        let far = s3_hilbert::blocks_at_depth(&curve, 2)
            .into_iter()
            .find(|b| b.dim_bounds(0).0 == 512 && b.dim_bounds(1).0 == 0)
            .unwrap();
        assert_eq!(box_dist_sq(&far, &q), 255 * 255);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn alpha_zero_rejected() {
        let (curve, model) = small_setup();
        select_blocks_best_first(&curve, &model, &[0, 0], 4, 0.0, 16);
    }

    #[test]
    #[should_panic(expected = "depth out of range")]
    fn depth_zero_rejected() {
        let (curve, model) = small_setup();
        select_blocks_best_first(&curve, &model, &[0, 0], 0, 0.5, 16);
    }

    // ---- the compact descent against the `Block`-carrying one -------------

    /// Frontier entry of [`reference_best_first`]: the mass plus a full
    /// 192-byte `Block`, ordered by mass alone like [`HeapNode`].
    struct RefNode {
        mass: f64,
        block: Block,
    }
    impl PartialEq for RefNode {
        fn eq(&self, other: &Self) -> bool {
            self.mass == other.mass
        }
    }
    impl Eq for RefNode {}
    impl PartialOrd for RefNode {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefNode {
        fn cmp(&self, other: &Self) -> Ordering {
            self.mass
                .partial_cmp(&other.mass)
                .unwrap_or(Ordering::Equal)
        }
    }

    struct RefOutcome {
        blocks: Vec<(Block, f64)>,
        mass: f64,
        nodes: usize,
        truncated: bool,
    }

    /// The best-first descent as it was before compact nodes — every
    /// frontier entry a `Block`, split by [`Block::split`], factors looked
    /// up per block — kept as the oracle [`best_first_impl`] must match
    /// bit for bit.
    fn reference_best_first(
        curve: &HilbertCurve,
        depth: u32,
        alpha: f64,
        max_blocks: usize,
        ctx: Option<&QueryCtx>,
        factor: &mut dyn FnMut(&Block, usize) -> f64,
    ) -> RefOutcome {
        let root = Block::root(curve);
        let root_mass: f64 = (0..curve.dims()).map(|d| factor(&root, d)).product();
        let alpha = reachable_alpha(alpha, root_mass);
        let mut heap = BinaryHeap::with_capacity(1024);
        heap.push(RefNode {
            mass: root_mass,
            block: root,
        });
        let mut out = RefOutcome {
            blocks: Vec::new(),
            mass: 0.0,
            nodes: 0,
            truncated: false,
        };
        let mut since_check = 0usize;
        while let Some(node) = heap.pop() {
            if node.mass <= 0.0 {
                break;
            }
            if let Some(ctx) = ctx {
                since_check += 1;
                if since_check >= 32 {
                    since_check = 0;
                    if ctx.should_stop() {
                        out.truncated = true;
                        break;
                    }
                }
            }
            if node.block.depth() == depth {
                out.blocks.push((node.block, node.mass));
                out.mass += node.mass;
                if out.mass >= alpha {
                    break;
                }
                if out.blocks.len() >= max_blocks {
                    out.truncated = true;
                    break;
                }
                continue;
            }
            out.nodes += 1;
            let axis = node.block.next_split_axis(curve);
            let parent_factor = factor(&node.block, axis);
            for child in node.block.split(curve) {
                let mass = if parent_factor > 0.0 {
                    node.mass / parent_factor * factor(&child, axis)
                } else {
                    0.0
                };
                if mass > 0.0 {
                    heap.push(RefNode { mass, block: child });
                }
            }
        }
        out
    }

    /// A clock that cancels `token` on its `fire_at`-th reading and never
    /// advances: a ctx with a deadline on it stops on exactly that poll,
    /// without ever expiring the deadline itself.
    #[derive(Debug)]
    struct PollClock {
        polls: std::sync::atomic::AtomicU64,
        fire_at: u64,
        token: crate::resilience::CancelToken,
    }

    impl crate::resilience::TimeSource for PollClock {
        fn now(&self) -> std::time::Duration {
            let n = self.polls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n == self.fire_at {
                self.token.cancel();
            }
            std::time::Duration::ZERO
        }
    }

    impl crate::resilience::Clock for PollClock {
        fn sleep(&self, _: std::time::Duration) {}
    }

    /// A ctx whose `polls`-th `should_stop` is the first to return true.
    fn ctx_firing_after(polls: u64) -> QueryCtx {
        let token = crate::resilience::CancelToken::new();
        let clock = PollClock {
            polls: 0.into(),
            fire_at: polls, // reading 0 is `Deadline::after` itself
            token: token.clone(),
        };
        QueryCtx::with_token(token)
            .and_deadline(std::sync::Arc::new(clock), std::time::Duration::MAX)
    }

    /// One differential case: the engines' descent (compact nodes, memoized
    /// factors) and the reference (`Block` nodes; factors memoized too, or —
    /// `ref_cached` false — integrated afresh on every lookup) must agree
    /// on every emitted block (rank, depth, score bits, box), the totals,
    /// the truncation flag and, when both memoize, the hit/miss tallies.
    /// Returns (blocks emitted, curve levels entered) so callers can check
    /// a case exercised what it was written for.
    #[allow(clippy::too_many_arguments)]
    fn assert_descents_agree(
        dims: usize,
        order: usize,
        depth: u32,
        sigma: f64,
        alpha: f64,
        max_blocks: usize,
        stop_after_polls: Option<u64>,
        ref_cached: bool,
        q: &[u8],
    ) -> (usize, usize) {
        let curve = HilbertCurve::new(dims, order).unwrap();
        let model = IsotropicNormal::new(dims, sigma);
        let qf = query_coords(q);
        let (mut heap, mut cells) = (BinaryHeap::new(), Vec::new());
        let (mut new_cache, mut ref_cache) = (MassCache::default(), MassCache::default());
        new_cache.reset(dims, order as u32);
        ref_cache.reset(dims, order as u32);

        let ctx = stop_after_polls.map(ctx_firing_after);
        let new = best_first_impl(
            &curve,
            q,
            depth,
            alpha,
            max_blocks,
            ctx.as_ref(),
            &mut heap,
            &mut cells,
            &mut |d, e, k| new_cache.factor(&model, &qf, d, e, k),
        );
        let ctx = stop_after_polls.map(ctx_firing_after);
        let old = reference_best_first(&curve, depth, alpha, max_blocks, ctx.as_ref(), {
            &mut |b, d| {
                let (e, k) = block_interval(b, d);
                if ref_cached {
                    ref_cache.factor(&model, &qf, d, e, k)
                } else {
                    interval_mass(&model, &qf, d, e, k)
                }
            }
        });

        let case = format!("D={dims} K={order} p={depth} σ={sigma} α={alpha} max={max_blocks} stop={stop_after_polls:?} ref_cached={ref_cached}");
        assert_eq!(new.blocks.len(), old.blocks.len(), "{case}: block count");
        for (i, (n, (ob, om))) in new.blocks.iter().zip(&old.blocks).enumerate() {
            assert_eq!(n.curve_rank(), ob.curve_rank(), "{case}: rank of block {i}");
            assert_eq!(n.depth(), ob.depth(), "{case}: depth of block {i}");
            assert_eq!(
                n.score.to_bits(),
                om.to_bits(),
                "{case}: score of block {i}"
            );
            let rebuilt = n.block(&curve);
            for a in 0..dims {
                assert_eq!(rebuilt.dim_bounds(a), ob.dim_bounds(a), "{case}: box {i}");
            }
            assert_eq!(
                f64::from(n.dist_sq()),
                ob.min_dist_sq(&qf),
                "{case}: box distance of block {i}"
            );
        }
        assert_eq!(new.mass.to_bits(), old.mass.to_bits(), "{case}: mass");
        assert_eq!(new.nodes_expanded, old.nodes, "{case}: nodes expanded");
        assert_eq!(new.truncated, old.truncated, "{case}: truncated");
        if ref_cached {
            assert_eq!(
                (new_cache.hits, new_cache.misses),
                (ref_cache.hits, ref_cache.misses),
                "{case}: cache tallies"
            );
        }
        (new.blocks.len(), cells.len())
    }

    #[test]
    fn compact_descent_crosses_level_boundaries_like_the_block_descent() {
        // Narrow models so the descent reaches past two curve levels (p > 2D)
        // within a bounded number of pops, at the paper's D and a small one.
        let q20 = [3u8; 20];
        for ref_cached in [true, false] {
            let (blocks, levels) =
                assert_descents_agree(20, 3, 45, 0.35, 0.6, 64, Some(400), ref_cached, &q20);
            assert!(
                blocks > 0 && levels >= 3,
                "{blocks} blocks, {levels} levels"
            );
            let (blocks, _) = assert_descents_agree(
                20,
                8,
                18,
                20.0,
                0.8,
                1 << 16,
                Some(150),
                ref_cached,
                &[97; 20],
            );
            assert!(blocks > 100, "{blocks} blocks at the default depth");
            let (blocks, levels) =
                assert_descents_agree(3, 6, 18, 1.5, 0.95, 1 << 14, None, ref_cached, &[40, 9, 63]);
            assert!(
                blocks > 0 && levels >= 6,
                "{blocks} blocks, {levels} levels"
            );
            // Exactly at a level boundary, and the deepest possible depth.
            assert_descents_agree(4, 3, 8, 1.0, 0.9, 1 << 14, None, ref_cached, &[2, 5, 7, 0]);
            assert_descents_agree(2, 4, 8, 0.8, 0.99, 1 << 14, None, ref_cached, &[15, 0]);
        }
    }

    fn outcome_of(blocks: Vec<ScoredBlock>) -> FilterOutcome {
        FilterOutcome {
            blocks,
            mass: f64::NAN,
            target: f64::NAN,
            nodes_expanded: 0,
            tmax: None,
            iterations: 0,
            algo: "",
            truncated: false,
        }
    }

    fn ranked(depth: u32, rank: Key256) -> ScoredBlock {
        ScoredBlock {
            rank,
            score: 0.0,
            depth,
            dist_sq: 0,
        }
    }

    #[test]
    fn rank_merge_edge_cases() {
        let curve = HilbertCurve::paper();
        assert!(merge_block_ranges(&curve, &outcome_of(Vec::new())).is_empty());

        // The run ending at the last block of the partition ends at `End`.
        let last = (1u64 << 18) - 1;
        let out = outcome_of(
            [last, 7, last - 1, 8, 8]
                .map(|r| ranked(18, Key256::from_u64(r)))
                .to_vec(),
        );
        let merged = merge_block_ranges(&curve, &out);
        assert_eq!(merged, merge_key_ranges(&curve, &out.blocks));
        assert_eq!(merged.len(), 3, "7-8, the repeated 8, and the tail run");
        assert_eq!(merged[2].hi, s3_hilbert::KeyBound::End);

        // p > 64: ranks no longer fit a u64 (and the top rank is all ones).
        let top = Key256::low_mask(70);
        let out = outcome_of(vec![
            ranked(70, top),
            ranked(70, Key256::from_u64(1).shl(64)),
            ranked(70, Key256::from_u64(u64::MAX)),
            ranked(70, top.saturating_sub_u64(1)),
        ]);
        let merged = merge_block_ranges(&curve, &out);
        assert_eq!(merged, merge_key_ranges(&curve, &out.blocks));
        assert_eq!(merged.len(), 2, "the run across 2^64 and the tail run");

        // Mixed depths take the general path: a depth-3 block and the two
        // depth-4 blocks right after it form one range.
        let out = outcome_of(vec![
            ranked(4, Key256::from_u64(3)),
            ranked(3, Key256::from_u64(0)),
            ranked(4, Key256::from_u64(2)),
        ]);
        let merged = merge_block_ranges(&curve, &out);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].lo, Key256::ZERO);
        assert_eq!(
            merged[0].hi,
            ranked(4, Key256::from_u64(3)).key_range(&curve).hi
        );
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// A seeded permutation of `0..dims`.
        fn shuffled(dims: usize, seed: u64) -> Vec<usize> {
            let mut perm: Vec<usize> = (0..dims).collect();
            let mut s = seed;
            for i in (1..dims).rev() {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                perm.swap(i, (s >> 33) as usize % (i + 1));
            }
            perm
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Small spaces, run to completion or to a ctx stop: every depth
            /// from 1 to past two level boundaries.
            #[test]
            fn compact_descent_matches_block_descent_small(
                dims in 2usize..=6,
                order in 3usize..=8,
                depth_frac in 0.0f64..1.0,
                sigma in 0.3f64..30.0,
                alpha in 0.05f64..=1.0,
                max_log in 0u32..14,
                stop in 0u64..40,
                ref_cached in any::<bool>(),
                q in proptest::collection::vec(0u8..=255, 6),
            ) {
                let max_depth = (2 * dims as u32 + 3).min((dims * order) as u32);
                let depth = 1 + (depth_frac * f64::from(max_depth)) as u32;
                let q: Vec<u8> = q[..dims].iter().map(|&c| c >> (8 - order)).collect();
                assert_descents_agree(
                    dims, order, depth.min(max_depth), sigma, alpha, 1 << max_log,
                    (stop > 0).then_some(stop), ref_cached, &q,
                );
            }

            /// The paper's D = 20, where a full descent is unbounded: always
            /// under a ctx that fires within a few hundred polls.
            #[test]
            fn compact_descent_matches_block_descent_d20(
                order in 3usize..=8,
                depth in 1u32..=43,
                sigma_rel in 0.02f64..0.2,
                alpha in 0.05f64..=1.0,
                max_log in 0u32..10,
                stop in 1u64..120,
                ref_cached in any::<bool>(),
                q in proptest::collection::vec(0u8..=255, 20),
            ) {
                let q: Vec<u8> = q.iter().map(|&c| c >> (8 - order)).collect();
                let sigma = sigma_rel * f64::from(1u32 << order);
                assert_descents_agree(
                    20, order, depth, sigma, alpha, 1 << max_log, Some(stop), ref_cached, &q,
                );
            }

            /// A curve over permuted axes filters a query exactly as the
            /// identity curve filters the permuted query: the same nodes,
            /// the same blocks with the same masses bit for bit, the same
            /// merged key ranges. So an index may split its components in
            /// any order without the filter noticing.
            #[test]
            fn permuted_axes_select_like_identity_on_permuted_query(
                seed in any::<u64>(),
                q in proptest::collection::vec(0u8..=255, 20),
                dims in 2usize..=20,
                depth_frac in 0.0f64..1.0,
                sigma in 6.0f64..40.0,
                alpha in 0.3f64..0.95,
            ) {
                let perm = shuffled(dims, seed);
                let id = HilbertCurve::new(dims, 8).unwrap();
                let pi = id.with_axes(&perm).unwrap();
                let q = &q[..dims];
                let q_id: Vec<u8> = perm.iter().map(|&a| q[a]).collect();
                let depth = 1 + (depth_frac * (2 * dims) as f64) as u32;
                let model = IsotropicNormal::new(dims, sigma);
                let got = select_blocks_best_first(&pi, &model, q, depth, alpha, 1 << 12);
                let want = select_blocks_best_first(&id, &model, &q_id, depth, alpha, 1 << 12);
                prop_assert_eq!(got.nodes_expanded, want.nodes_expanded);
                prop_assert_eq!(got.blocks.len(), want.blocks.len());
                for (g, w) in got.blocks.iter().zip(&want.blocks) {
                    prop_assert_eq!((g.curve_rank(), g.depth()), (w.curve_rank(), w.depth()));
                    prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                }
                prop_assert_eq!(got.mass.to_bits(), want.mass.to_bits());
                prop_assert_eq!(got.truncated, want.truncated);
                prop_assert_eq!(merge_block_ranges(&pi, &got), merge_block_ranges(&id, &want));
            }

            /// Every selected block carries its box distance to the query
            /// exactly — what [`Block::min_dist_sq`] gives on the box rebuilt
            /// from its rank — under both statistical filters and the
            /// geometric ones, on a curve over permuted axes.
            #[test]
            fn carried_box_distance_is_the_boxs(
                seed in any::<u64>(),
                q in proptest::collection::vec(0u8..=255, 20),
                dims in 2usize..=20,
                depth_frac in 0.0f64..1.0,
                sigma in 4.0f64..40.0,
                alpha in 0.3f64..0.95,
                eps in 0.0f64..150.0,
            ) {
                let curve = HilbertCurve::new(dims, 8)
                    .unwrap()
                    .with_axes(&shuffled(dims, seed))
                    .unwrap();
                let q = &q[..dims];
                let qf = query_coords(q);
                let depth = 1 + (depth_frac * (2 * dims) as f64) as u32;
                let shallow = depth.min(10);
                let model = IsotropicNormal::new(dims, sigma);
                let max = 1 << 10;
                for out in [
                    select_blocks_best_first(&curve, &model, q, depth, alpha, max),
                    select_blocks_threshold(&curve, &model, q, depth.min(16), alpha, max, 12),
                    select_blocks_range(&curve, q, shallow, eps, max),
                    select_blocks_bbox(&curve, q, shallow, eps, max),
                ] {
                    for sb in &out.blocks {
                        prop_assert_eq!(
                            f64::from(sb.dist_sq()),
                            sb.block(&curve).min_dist_sq(&qf),
                            "{} block at p={}", out.algo, sb.depth()
                        );
                    }
                }
            }

            /// The threshold filter's memo is as invisible as the
            /// best-first one: the same bisection over factors integrated
            /// afresh on every lookup returns the same outcome, bit for bit.
            #[test]
            fn threshold_memo_is_invisible(
                q in proptest::collection::vec(0u8..=255, 6),
                sigma in 4.0f64..40.0,
                alpha in 0.1f64..0.99,
                depth in 4u32..18,
                iterations in 1usize..30,
            ) {
                let curve = HilbertCurve::new(6, 8).unwrap();
                let model = IsotropicNormal::new(6, sigma);
                let qf = query_coords(&q);
                let max = 1 << 14;
                let got = select_blocks_threshold(&curve, &model, &q, depth, alpha, max, iterations);
                let want = threshold_impl(&curve, &q, depth, alpha, max, iterations, &mut |b, d| {
                    let (ext, k) = block_interval(b, d);
                    interval_mass(&model, &qf, d, ext, k)
                });
                prop_assert_eq!(got.blocks.len(), want.blocks.len());
                for (g, w) in got.blocks.iter().zip(&want.blocks) {
                    prop_assert_eq!(g.curve_rank(), w.curve_rank());
                    prop_assert_eq!(g.depth(), w.depth());
                    prop_assert_eq!(g.score.to_bits(), w.score.to_bits());
                }
                prop_assert_eq!(got.mass.to_bits(), want.mass.to_bits());
                prop_assert_eq!(got.nodes_expanded, want.nodes_expanded);
                prop_assert_eq!(got.tmax.map(f64::to_bits), want.tmax.map(f64::to_bits));
                prop_assert_eq!(got.truncated, want.truncated);
            }

            /// Merging by rank equals merging by key range, for clustered
            /// same-depth ranks (runs, gaps, repeats, the last block) below
            /// and above 64 bits.
            #[test]
            fn rank_merge_matches_key_range_merge(
                wide in any::<bool>(),
                narrow_depth in 1u32..=64,
                wide_depth in 65u32..=160,
                starts in proptest::collection::vec((any::<u64>(), any::<u64>(), 0u64..6), 0..12),
                from_end in any::<bool>(),
            ) {
                let curve = HilbertCurve::paper();
                let depth = if wide { wide_depth } else { narrow_depth };
                let top = Key256::low_mask(depth);
                let mut blocks = Vec::new();
                for (hi, lo, run) in starts {
                    let start = Key256::from_limbs([lo, hi, hi ^ lo, 0]).and(&top);
                    let start = if from_end { top.saturating_sub_u64(lo % 8) } else { start };
                    for step in 0..=run {
                        let rank = start.wrapping_add_u64(step);
                        if rank >= start && rank <= top {
                            blocks.push(ranked(depth, rank));
                        }
                    }
                }
                let out = outcome_of(blocks);
                prop_assert_eq!(
                    merge_block_ranges(&curve, &out),
                    merge_key_ranges(&curve, &out.blocks)
                );
            }
        }
    }
}
