//! The p-block partition of the grid induced by the Hilbert curve.
//!
//! Cutting the curve into `2^p` equal intervals partitions the grid into `2^p`
//! axis-aligned hyper-rectangles of equal volume — the paper's *p-blocks*
//! (§IV, Fig. 2). This holds at any depth `p ∈ [1, D*K]`, not only at
//! multiples of `D`, because an aligned run of `2^m` consecutive sub-cells of
//! one level in curve order covers an axis-aligned sub-box of the cell (a
//! consequence of the reflected-Gray-code prefix property; see
//! `gray::tests::gray_prefix_property_runs_are_subcubes`).
//!
//! [`Block`] represents one node of the binary tree of such intervals: the
//! root is the whole grid and each [`Block::split`] halves the curve interval
//! — and, geometrically, halves the box along one axis whose identity and
//! orientation follow from the curve automaton state. This bit-by-bit descent
//! is what makes the structure usable at `D = 20`, where branching a full
//! level at once would mean `2^20` children.
//!
//! The automaton picks a *slot* of the level word to halve; the curve's axis
//! order maps it to the component whose extent halves. Boxes, bounds and
//! split axes are reported in components throughout.

use crate::curve::{HilbertCurve, LevelState, MAX_DIMS};
use crate::gray::gray;
use crate::key::Key256;

/// One node of the binary p-block tree: a curve interval of length
/// `2^(D*K - depth)` and, equivalently, an axis-aligned box of the grid.
///
/// Blocks are cheap to copy (no heap) and carry everything needed to keep
/// splitting: the curve automaton state and the partial digit of the level
/// being consumed.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Bit-plane of the level currently being consumed (root: `order - 1`).
    level: u32,
    /// Bits of the current level's digit already consumed (`0..dims`).
    j: u32,
    /// The `j` consumed bits of the current level's curve digit.
    w_pref: u32,
    /// Curve automaton state for the current level.
    state: LevelState,
    /// All consumed bits: the block's index among `2^depth` siblings in curve order.
    key_prefix: Key256,
    /// Total bits consumed (`p`).
    depth: u32,
    /// Bitmask of components already halved within the current level.
    fixed_mask: u32,
    /// Lower corner of the box in grid coordinates, one per component.
    lo: [u32; MAX_DIMS],
}

impl Block {
    /// The root block: the whole grid, i.e. the whole curve (`depth = 0`).
    pub fn root(curve: &HilbertCurve) -> Block {
        Block {
            level: curve.order() as u32 - 1,
            j: 0,
            w_pref: 0,
            state: LevelState::ROOT,
            key_prefix: Key256::ZERO,
            depth: 0,
            fixed_mask: 0,
            lo: [0; MAX_DIMS],
        }
    }

    /// The depth-`depth` block whose index in curve order is `rank`: the
    /// inverse of ([`Block::depth`], [`Block::curve_rank`]), by walking the
    /// rank's bits down from the root — `O(depth)`.
    ///
    /// # Panics
    /// If `depth > D * K` or `rank >= 2^depth`.
    pub fn from_rank(curve: &HilbertCurve, depth: u32, rank: &Key256) -> Block {
        assert!(depth <= curve.key_bits(), "depth out of range");
        assert!(rank.shr(depth).is_zero(), "rank out of range for depth");
        let dims = curve.dims() as u32;
        let mut blk = Block::root(curve);
        for bit in (0..depth).rev() {
            blk = blk.child(curve, dims, u32::from(rank.bit(bit)));
        }
        blk
    }

    /// Partition depth `p` of this block.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// True if the block is a single grid cell (`depth == D * K`).
    #[inline]
    pub fn is_cell(&self, curve: &HilbertCurve) -> bool {
        self.depth == curve.key_bits()
    }

    /// The block's index among the `2^depth` blocks, in curve order.
    #[inline]
    pub fn curve_rank(&self) -> Key256 {
        self.key_prefix
    }

    /// First Hilbert key contained in the block (inclusive).
    #[inline]
    pub fn key_lo(&self, curve: &HilbertCurve) -> Key256 {
        self.key_prefix.shl(curve.key_bits() - self.depth)
    }

    /// Half-open key interval `[lo, hi)` covered by the block. The final
    /// block of the partition reaches the end of the curve, which is encoded
    /// as [`KeyBound::End`] rather than a numeric bound.
    pub fn key_range(&self, curve: &HilbertCurve) -> KeyRange {
        KeyRange::of_ranks(curve, self.depth, &self.key_prefix, &self.key_prefix)
    }

    /// Lower corner of the box, one coordinate per dimension.
    #[inline]
    pub fn lo(&self) -> &[u32; MAX_DIMS] {
        &self.lo
    }

    /// `log2` of the box extent along dimension `dim`.
    #[inline]
    pub fn extent_log2(&self, dim: usize) -> u32 {
        debug_assert!(dim < MAX_DIMS);
        if self.fixed_mask >> dim & 1 == 1 {
            self.level
        } else {
            self.level + 1
        }
    }

    /// Half-open coordinate bounds `[lo, hi)` of the box along `dim`.
    #[inline]
    pub fn dim_bounds(&self, dim: usize) -> (u32, u32) {
        let lo = self.lo[dim];
        (lo, lo + (1u32 << self.extent_log2(dim)))
    }

    /// True if `point` lies inside the box.
    pub fn contains(&self, point: &[u32]) -> bool {
        point.iter().enumerate().all(|(dim, &c)| {
            let (lo, hi) = self.dim_bounds(dim);
            lo <= c && c < hi
        })
    }

    /// Squared Euclidean distance from `q` (in grid coordinates) to the box;
    /// zero if `q` is inside. Used by the ε-range baseline's geometric filter.
    pub fn min_dist_sq(&self, q: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (dim, &qc) in q.iter().enumerate() {
            let (lo, hi) = self.dim_bounds(dim);
            // The box covers cell centres lo..hi-1; measure to the solid box
            // [lo, hi-1] in coordinate units.
            let d = if qc < f64::from(lo) {
                f64::from(lo) - qc
            } else if qc > f64::from(hi - 1) {
                qc - f64::from(hi - 1)
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// The axis that the next [`Block::split`] halves. Lets callers update
    /// per-block probability masses incrementally (only one dimension's
    /// factor changes per split).
    ///
    /// # Panics
    /// If the block is already a single cell.
    pub fn next_split_axis(&self, curve: &HilbertCurve) -> usize {
        assert!(!self.is_cell(curve), "a unit cell has no further split");
        let dims = curve.dims() as u32;
        let q = dims - (self.j + 1);
        curve.axis(((q + self.state.d + 1) % dims) as usize)
    }

    /// Splits the block into its two half-intervals, in curve order.
    ///
    /// # Panics
    /// If the block is already a single cell.
    pub fn split(&self, curve: &HilbertCurve) -> [Block; 2] {
        assert!(!self.is_cell(curve), "cannot split a unit cell");
        let dims = curve.dims() as u32;
        [self.child(curve, dims, 0), self.child(curve, dims, 1)]
    }

    fn child(&self, curve: &HilbertCurve, dims: u32, c: u32) -> Block {
        let j1 = self.j + 1;
        let w_pref = (self.w_pref << 1) | c;
        // Newly fixed bit position in transformed (t) space: the runs of the
        // level's Gray path of length 2^(dims - j1) fix t-bit (dims - j1),
        // whose value is the low bit of gray(w_pref).
        let q = dims - j1;
        let t_bit = gray(w_pref) & 1;
        // Map t-bit position q to a slot of the level word through T⁻¹:
        // l = rol(t, d+1) ^ e; the slot holds component `axis`.
        let slot = (q + self.state.d + 1) % dims;
        let bit = t_bit ^ (self.state.e >> slot & 1);
        let axis = curve.axis(slot as usize);
        debug_assert_eq!(
            self.fixed_mask >> axis & 1,
            0,
            "axis fixed twice in one level"
        );

        let mut lo = self.lo;
        lo[axis] |= bit << self.level;
        let mut blk = Block {
            level: self.level,
            j: j1,
            w_pref,
            state: self.state,
            key_prefix: {
                let mut k = self.key_prefix.shl(1);
                if c == 1 {
                    k = k.or(&Key256::from_u64(1));
                }
                k
            },
            depth: self.depth + 1,
            fixed_mask: self.fixed_mask | (1 << axis),
            lo,
        };
        // A fully consumed digit: descend into the sub-cell for the next level.
        if blk.j == dims && blk.level > 0 {
            blk.state = curve.child_state(blk.state, blk.w_pref);
            blk.level -= 1;
            blk.j = 0;
            blk.w_pref = 0;
            blk.fixed_mask = 0;
        }
        blk
    }
}

/// The block at the start of a curve level — every axis still unsplit in
/// that level — shared by all of its `≤ 2^D` descendants inside the level.
///
/// A best-first descent that keeps a full [`Block`] per tree node moves
/// ~200 bytes per heap operation. Within one level, though, a node differs
/// from the level's first block only by the digit bits consumed so far, so a
/// descent can keep one `LevelCell` per level entered (at `p ≤ D` that is the
/// root alone) and represent each node as a [`CompactNode`] pointing at it.
#[derive(Clone, Copy, Debug)]
pub struct LevelCell {
    /// Bit-plane this level consumes.
    level: u32,
    /// Curve automaton state for this level.
    state: LevelState,
    /// Bits consumed before this level (a multiple of `D`).
    depth: u32,
    /// Those bits: the cell's index among `2^depth` siblings in curve order.
    key_prefix: Key256,
    /// Lower corner of the cell in grid coordinates, one per component.
    lo: [u32; MAX_DIMS],
}

/// One node of the binary p-block tree in 12 bytes: the [`LevelCell`] it
/// lies in (an index into the caller's arena) and the `j` bits `w_pref` of
/// that level's curve digit consumed so far. `j == D` is a completed digit
/// whose next level has not been entered yet (see [`LevelCell::descend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactNode {
    /// Arena index of the node's [`LevelCell`].
    pub cell: u32,
    /// The consumed bits of the current level's curve digit.
    pub w_pref: u32,
    /// Number of consumed bits (`0..=D`).
    pub j: u32,
}

impl CompactNode {
    /// The root of the tree, in the arena's first cell.
    pub const ROOT: CompactNode = CompactNode {
        cell: 0,
        w_pref: 0,
        j: 0,
    };

    /// The `c`-th child (`0` or `1`, in curve order) within the same level.
    #[inline]
    pub fn child(&self, c: u32) -> CompactNode {
        CompactNode {
            cell: self.cell,
            w_pref: (self.w_pref << 1) | c,
            j: self.j + 1,
        }
    }
}

/// What splitting a node does along the one axis it halves. Per-axis
/// intervals are dyadic: `(ext, k)` stands for `[k·2^ext, (k+1)·2^ext)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AxisSplit {
    /// The axis halved.
    pub axis: usize,
    /// `log2` of the parent's extent along `axis`.
    pub ext: u32,
    /// The parent's interval index along `axis` at that extent.
    pub k: u32,
    /// Which half (`0` lower, `1` upper) the first child in curve order
    /// takes; the second child takes the other.
    pub first_half: u32,
}

impl AxisSplit {
    /// Interval `(ext, k)` of the `c`-th child (curve order) along the axis.
    #[inline]
    pub fn child_interval(&self, c: u32) -> (u32, u32) {
        (self.ext - 1, (self.k << 1) | (self.first_half ^ c))
    }
}

impl LevelCell {
    /// The whole grid, at the first level of the curve.
    pub fn root(curve: &HilbertCurve) -> LevelCell {
        LevelCell {
            level: curve.order() as u32 - 1,
            state: LevelState::ROOT,
            depth: 0,
            key_prefix: Key256::ZERO,
            lo: [0; MAX_DIMS],
        }
    }

    /// Partition depth of the descendant that consumed `j` bits of this
    /// level's digit.
    #[inline]
    pub fn depth_of(&self, j: u32) -> u32 {
        self.depth + j
    }

    /// Curve rank (index among the `2^depth` blocks of its depth) of the
    /// descendant that consumed the `j` digit bits `w_pref`.
    #[inline]
    pub fn rank_of(&self, w_pref: u32, j: u32) -> Key256 {
        self.key_prefix
            .shl(j)
            .or(&Key256::from_u64(u64::from(w_pref)))
    }

    /// The split of the descendant that consumed the `j < D` digit bits
    /// `w_pref`: same axis and halves as [`Block::split`] on that block.
    ///
    /// The split axis is by construction not yet fixed in this level, so
    /// the parent's interval along it is the cell's own.
    #[inline]
    pub fn split(&self, curve: &HilbertCurve, w_pref: u32, j: u32) -> AxisSplit {
        let dims = curve.dims() as u32;
        debug_assert!(j < dims, "a completed digit must descend first");
        // As in `Block::child`: the runs of length 2^(dims - j - 1) of the
        // level's Gray path fix t-bit (dims - j - 1), which T⁻¹ maps to
        // `slot`; its value for child `c` is the low bit of gray(2w + c).
        let slot = (dims - (j + 1) + self.state.d + 1) % dims;
        let axis = curve.axis(slot as usize);
        let ext = self.level + 1;
        AxisSplit {
            axis,
            ext,
            k: self.lo[axis].checked_shr(ext).unwrap_or(0),
            first_half: (gray(w_pref << 1) & 1) ^ (self.state.e >> slot & 1),
        }
    }

    /// The cell entered once this level's digit is complete as `w`.
    ///
    /// # Panics
    /// If this is the last level of the curve (its completed digits are
    /// unit cells).
    pub fn descend(&self, curve: &HilbertCurve, w: u32) -> LevelCell {
        assert!(self.level > 0, "a unit cell has no further level");
        let dims = curve.dims() as u32;
        let corner = curve.corner_of_digit(self.state, w);
        let mut lo = self.lo;
        for (slot, &axis) in curve.axes().iter().enumerate() {
            lo[usize::from(axis)] |= (corner >> slot & 1) << self.level;
        }
        LevelCell {
            level: self.level - 1,
            state: curve.child_state(self.state, w),
            depth: self.depth + dims,
            key_prefix: self.rank_of(w, dims),
            lo,
        }
    }
}

/// Upper bound of a [`KeyRange`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyBound {
    /// Exclusive numeric bound.
    Excl(Key256),
    /// End of the curve (include every key `>= lo`).
    End,
}

/// Half-open interval of Hilbert keys covered by a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub lo: Key256,
    /// Upper bound.
    pub hi: KeyBound,
}

impl KeyRange {
    /// The key interval covered by the run of depth-`depth` blocks with
    /// curve ranks `first..=last` (one block when they are equal). A run
    /// reaching the last block of the partition ends at [`KeyBound::End`].
    pub fn of_ranks(curve: &HilbertCurve, depth: u32, first: &Key256, last: &Key256) -> KeyRange {
        let shift = curve.key_bits() - depth;
        // (last + 1) << (bits - depth), reduced modulo 2^bits: zero means
        // the interval ends exactly at the end of the curve.
        let hi = last
            .wrapping_add_u64(1)
            .shl(shift)
            .and(&Key256::low_mask(curve.key_bits()));
        KeyRange {
            lo: first.shl(shift),
            hi: if hi.is_zero() {
                KeyBound::End
            } else {
                KeyBound::Excl(hi)
            },
        }
    }

    /// True if `key` lies in the range.
    pub fn contains(&self, key: &Key256) -> bool {
        if *key < self.lo {
            return false;
        }
        match self.hi {
            KeyBound::Excl(hi) => *key < hi,
            KeyBound::End => true,
        }
    }

    /// True if `other` starts exactly where `self` ends (for merging
    /// consecutive blocks into one contiguous scan).
    pub fn abuts(&self, other: &KeyRange) -> bool {
        match self.hi {
            KeyBound::Excl(hi) => hi == other.lo,
            KeyBound::End => false,
        }
    }

    /// Merges two abutting ranges (caller must check [`KeyRange::abuts`]).
    pub fn merged(&self, other: &KeyRange) -> KeyRange {
        debug_assert!(self.abuts(other));
        KeyRange {
            lo: self.lo,
            hi: other.hi,
        }
    }
}

/// Enumerates all `2^p` blocks at depth `p`, in curve order. Intended for
/// tests, visualisation (Fig. 2) and small grids — cost is `O(2^p)`.
pub fn blocks_at_depth(curve: &HilbertCurve, p: u32) -> Vec<Block> {
    assert!(p <= curve.key_bits());
    let mut frontier = vec![Block::root(curve)];
    for _ in 0..p {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for b in &frontier {
            let [a, c] = b.split(curve);
            next.push(a);
            next.push(c);
        }
        frontier = next;
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_points(curve: &HilbertCurve) -> Vec<Vec<u32>> {
        let side = 1u64 << curve.order();
        let total = side.pow(curve.dims() as u32);
        let mut out = Vec::with_capacity(total as usize);
        for idx in 0..total {
            let mut rem = idx;
            let mut p = vec![0u32; curve.dims()];
            for c in p.iter_mut() {
                *c = (rem % side) as u32;
                rem /= side;
            }
            out.push(p);
        }
        out
    }

    /// The fundamental consistency property: at every depth, a point is inside
    /// a block's box if and only if its Hilbert key is inside the block's key
    /// range — on the identity curve and on one whose axes are reversed.
    fn check_box_key_consistency(dims: usize, order: usize) {
        let identity = HilbertCurve::new(dims, order).unwrap();
        let reversed: Vec<usize> = (0..dims).rev().collect();
        check_box_key_consistency_on(identity.clone());
        check_box_key_consistency_on(identity.with_axes(&reversed).unwrap());
    }

    fn check_box_key_consistency_on(curve: HilbertCurve) {
        let (dims, order) = (curve.dims(), curve.order());
        let points = all_points(&curve);
        let keys: Vec<Key256> = points.iter().map(|p| curve.encode(p)).collect();
        for p in 0..=curve.key_bits() {
            let blocks = blocks_at_depth(&curve, p);
            for b in &blocks {
                let range = b.key_range(&curve);
                for (pt, key) in points.iter().zip(&keys) {
                    assert_eq!(
                        b.contains(pt),
                        range.contains(key),
                        "dims={dims} order={order} p={p} pt={pt:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn box_key_consistency_2d() {
        check_box_key_consistency(2, 3);
    }

    #[test]
    fn box_key_consistency_3d() {
        check_box_key_consistency(3, 2);
    }

    #[test]
    fn box_key_consistency_4d() {
        check_box_key_consistency(4, 2);
    }

    #[test]
    fn box_key_consistency_5d_order1() {
        check_box_key_consistency(5, 1);
    }

    #[test]
    fn box_key_consistency_rotated_axes() {
        // A rotation is not its own inverse, unlike the reversal above.
        let curve = HilbertCurve::new(4, 2).unwrap();
        check_box_key_consistency_on(curve.with_axes(&[1, 2, 3, 0]).unwrap());
        let curve = HilbertCurve::new(3, 3).unwrap();
        check_box_key_consistency_on(curve.with_axes(&[2, 0, 1]).unwrap());
    }

    #[test]
    fn blocks_partition_the_grid() {
        let curve = HilbertCurve::new(3, 3).unwrap();
        let points = all_points(&curve);
        for p in [1u32, 2, 3, 4, 5, 7, 9] {
            let blocks = blocks_at_depth(&curve, p);
            assert_eq!(blocks.len(), 1 << p);
            for pt in &points {
                let n = blocks.iter().filter(|b| b.contains(pt)).count();
                assert_eq!(n, 1, "p={p} pt={pt:?} covered {n} times");
            }
        }
    }

    #[test]
    fn blocks_have_equal_volume_and_box_shape() {
        let curve = HilbertCurve::new(3, 3).unwrap();
        for p in 0..=9u32 {
            let blocks = blocks_at_depth(&curve, p);
            let expect_vol = 1u64 << (curve.key_bits() - p);
            for b in &blocks {
                let vol: u64 = (0..3).map(|d| 1u64 << b.extent_log2(d)).product();
                assert_eq!(vol, expect_vol, "p={p}");
            }
        }
    }

    #[test]
    fn key_ranges_tile_the_curve_in_order() {
        let curve = HilbertCurve::new(4, 2).unwrap();
        for p in 1..=8u32 {
            let blocks = blocks_at_depth(&curve, p);
            let mut prev: Option<KeyRange> = None;
            for b in &blocks {
                let r = b.key_range(&curve);
                if let Some(pr) = prev {
                    assert!(pr.abuts(&r), "p={p}");
                }
                prev = Some(r);
            }
            assert_eq!(prev.unwrap().hi, KeyBound::End);
            assert_eq!(blocks[0].key_range(&curve).lo, Key256::ZERO);
        }
    }

    #[test]
    fn full_depth_blocks_are_cells_matching_decode() {
        let curve = HilbertCurve::new(2, 3).unwrap();
        let blocks = blocks_at_depth(&curve, curve.key_bits());
        for (i, b) in blocks.iter().enumerate() {
            assert!(b.is_cell(&curve));
            let expect = curve.decode_vec(&Key256::from_u64(i as u64));
            assert_eq!(&b.lo()[..2], expect.as_slice(), "cell {i}");
            assert_eq!(b.extent_log2(0), 0);
            assert_eq!(b.extent_log2(1), 0);
        }
    }

    #[test]
    fn min_dist_sq_inside_and_outside() {
        let curve = HilbertCurve::new(2, 3).unwrap();
        let root = Block::root(&curve);
        assert_eq!(root.min_dist_sq(&[3.0, 4.0]), 0.0);
        let blocks = blocks_at_depth(&curve, 2);
        // Find the block containing (0,0): distance from a far point is positive.
        let b = blocks.iter().find(|b| b.contains(&[0, 0])).unwrap();
        assert_eq!(b.min_dist_sq(&[0.0, 0.0]), 0.0);
        let d = b.min_dist_sq(&[7.0, 7.0]);
        assert!(d > 0.0);
        // And the block containing (7,7) has zero distance to it.
        let b2 = blocks.iter().find(|b| b.contains(&[7, 7])).unwrap();
        assert_eq!(b2.min_dist_sq(&[7.0, 7.0]), 0.0);
    }

    #[test]
    fn split_preserves_containment() {
        let curve = HilbertCurve::new(5, 3).unwrap();
        let pt = [3u32, 7, 1, 4, 6];
        let key = curve.encode(&pt);
        let mut blk = Block::root(&curve);
        while !blk.is_cell(&curve) {
            let [a, b] = blk.split(&curve);
            let in_a = a.contains(&pt);
            let in_b = b.contains(&pt);
            assert!(in_a ^ in_b, "point must be in exactly one child");
            assert_eq!(in_a, a.key_range(&curve).contains(&key));
            assert_eq!(in_b, b.key_range(&curve).contains(&key));
            blk = if in_a { a } else { b };
        }
        assert_eq!(&blk.lo()[..5], &pt);
    }

    #[test]
    fn paper_space_descent_is_feasible() {
        // Descend 60 levels in the 160-bit paper space following a fixed path;
        // exercises partial-level splits across level boundaries at D = 20.
        let curve = HilbertCurve::paper();
        let mut blk = Block::root(&curve);
        for i in 0..60 {
            let [a, b] = blk.split(&curve);
            blk = if i % 3 == 0 { b } else { a };
            assert_eq!(blk.depth(), i + 1);
        }
        // Volume bookkeeping: sum of extents' log2 == key_bits - depth.
        let vol_log2: u32 = (0..20).map(|d| blk.extent_log2(d)).sum();
        assert_eq!(vol_log2, curve.key_bits() - 60);
    }

    #[test]
    #[should_panic(expected = "cannot split a unit cell")]
    fn split_unit_cell_panics() {
        let curve = HilbertCurve::new(2, 1).unwrap();
        let blocks = blocks_at_depth(&curve, 2);
        let _ = blocks[0].split(&curve);
    }

    #[test]
    fn next_split_axis_matches_actual_split() {
        let curve = HilbertCurve::new(5, 4).unwrap();
        let mut blk = Block::root(&curve);
        for i in 0..(curve.key_bits() - 1) {
            let axis = blk.next_split_axis(&curve);
            let [a, b] = blk.split(&curve);
            // The children differ from the parent only along `axis`.
            for d in 0..5 {
                let pb = blk.dim_bounds(d);
                let ab = a.dim_bounds(d);
                let bb = b.dim_bounds(d);
                if d == axis {
                    assert_ne!(ab, bb, "step {i}");
                    assert!(ab.0 >= pb.0 && ab.1 <= pb.1);
                    assert!(bb.0 >= pb.0 && bb.1 <= pb.1);
                } else {
                    assert_eq!(ab, pb, "step {i} dim {d}");
                    assert_eq!(bb, pb, "step {i} dim {d}");
                }
            }
            blk = if i % 2 == 0 { a } else { b };
        }
    }

    /// Walks the whole tree twice — as `Block`s and as compact nodes over a
    /// cell arena — and checks every node agrees on depth, rank, split axis
    /// and the parent/child intervals along it.
    fn check_compact_matches_block(dims: usize, order: usize) {
        let identity = HilbertCurve::new(dims, order).unwrap();
        let rotated: Vec<usize> = (0..dims).map(|s| (s + 1) % dims).collect();
        check_compact_matches_block_on(identity.clone());
        check_compact_matches_block_on(identity.with_axes(&rotated).unwrap());
    }

    fn check_compact_matches_block_on(curve: HilbertCurve) {
        let (dims, d) = (curve.dims(), curve.dims() as u32);
        let mut cells = vec![LevelCell::root(&curve)];
        let mut stack = vec![(Block::root(&curve), CompactNode::ROOT)];
        while let Some((blk, mut node)) = stack.pop() {
            let cell = cells[node.cell as usize];
            assert_eq!(cell.depth_of(node.j), blk.depth());
            assert_eq!(cell.rank_of(node.w_pref, node.j), blk.curve_rank());
            let back = Block::from_rank(&curve, blk.depth(), &blk.curve_rank());
            for a in 0..dims {
                assert_eq!(back.dim_bounds(a), blk.dim_bounds(a));
            }
            if blk.is_cell(&curve) {
                continue;
            }
            if node.j == d {
                cells.push(cell.descend(&curve, node.w_pref));
                node = CompactNode {
                    cell: cells.len() as u32 - 1,
                    ..CompactNode::ROOT
                };
            }
            let sp = cells[node.cell as usize].split(&curve, node.w_pref, node.j);
            assert_eq!(sp.axis, blk.next_split_axis(&curve));
            let bounds = |(ext, k): (u32, u32)| (k << ext, (k + 1) << ext);
            assert_eq!(bounds((sp.ext, sp.k)), blk.dim_bounds(sp.axis));
            for (c, child) in blk.split(&curve).into_iter().enumerate() {
                let c = c as u32;
                assert_eq!(bounds(sp.child_interval(c)), child.dim_bounds(sp.axis));
                stack.push((child, node.child(c)));
            }
        }
    }

    #[test]
    fn compact_nodes_match_blocks() {
        check_compact_matches_block(2, 4);
        check_compact_matches_block(3, 3);
        check_compact_matches_block(5, 2);
    }

    #[test]
    fn compact_node_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<CompactNode>(), 12);
    }

    #[test]
    fn rank_runs_cover_the_same_keys_as_their_blocks() {
        let curve = HilbertCurve::new(3, 2).unwrap();
        let blocks = blocks_at_depth(&curve, 4);
        let run = KeyRange::of_ranks(&curve, 4, &blocks[5].curve_rank(), &blocks[9].curve_rank());
        assert_eq!(run.lo, blocks[5].key_range(&curve).lo);
        assert_eq!(run.hi, blocks[9].key_range(&curve).hi);
        let tail = KeyRange::of_ranks(
            &curve,
            4,
            &blocks[14].curve_rank(),
            &blocks[15].curve_rank(),
        );
        assert_eq!(tail.hi, KeyBound::End);
    }

    #[test]
    fn key_range_merge() {
        let curve = HilbertCurve::new(2, 2).unwrap();
        let blocks = blocks_at_depth(&curve, 3);
        let r0 = blocks[0].key_range(&curve);
        let r1 = blocks[1].key_range(&curve);
        assert!(r0.abuts(&r1));
        let m = r0.merged(&r1);
        assert_eq!(m.lo, r0.lo);
        assert_eq!(m.hi, r1.hi);
        assert!(m.contains(&Key256::from_u64(0)));
        assert!(m.contains(&Key256::from_u64(3)));
        assert!(!m.contains(&Key256::from_u64(4)));
    }
}
