//! The Hilbert curve mapping between grid points and derived keys.
//!
//! [`HilbertCurve`] implements the Butz algorithm in Hamilton's formulation:
//! the point's coordinate bits are consumed one *level* (bit-plane) at a time,
//! from most to least significant. At each level the `D` bits form a word `l`
//! that is mapped through the level transform `T_{e,d}` and the inverse Gray
//! code into a curve digit `w ∈ [0, 2^D)`; the per-level state `(e, d)` is
//! then advanced. Only O(D) working memory is required, which is what lets
//! this structure run at `D = 20` where Lawder's state-diagram approach is
//! limited to about 10 dimensions (cf. §IV of the paper).
//!
//! A curve also carries an *axis order*: bit `s` of a level word (its *slot*
//! `s`) holds component [`HilbertCurve::axis`]`(s)` of the point. The identity
//! order is the plain Butz/Hamilton curve; any other order is the same curve
//! over the permuted point, so it changes which components the p-block
//! partition halves first (see [`HilbertCurve::split_first`]). Only the
//! level word is in slot order: every coordinate the crate takes or returns
//! is a real component.

use crate::gray::{direction, entry, gray, gray_inverse, rol, transform, transform_inverse};
use crate::key::{Key256, MAX_BITS};

/// Maximum number of dimensions supported (level words are `u32`s).
pub const MAX_DIMS: usize = 32;

/// Maximum grid order (bits per coordinate).
pub const MAX_ORDER: usize = 32;

/// Per-level traversal state of the Hilbert curve automaton.
///
/// `e` is the entry vertex of the current cell (a `D`-bit corner word) and
/// `d` the intra-cell direction; together they define the orientation of the
/// curve within the cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LevelState {
    /// Entry corner of the current cell.
    pub e: u32,
    /// Direction axis of the curve inside the current cell.
    pub d: u32,
}

impl LevelState {
    /// State at the root cell (the whole grid).
    pub const ROOT: LevelState = LevelState { e: 0, d: 0 };
}

/// A `D`-dimensional Hilbert curve of order `K` over the grid `[0, 2^K)^D`.
///
/// The mapping is a bijection between grid points and keys in
/// `[0, 2^(D*K))`; keys are represented as [`Key256`], so `D * K <= 256`.
///
/// # Examples
///
/// ```
/// use s3_hilbert::HilbertCurve;
///
/// let curve = HilbertCurve::new(20, 8).unwrap(); // the paper's space [0,255]^20
/// let point = [17u32; 20];
/// let key = curve.encode(&point);
/// let mut back = [0u32; 20];
/// curve.decode(&key, &mut back);
/// assert_eq!(point, back);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: u32,
    order: u32,
    /// `axes[s]`: the component held in slot `s` of a level word (identity
    /// past `dims`, so two curves compare equal iff their orders do).
    axes: [u8; MAX_DIMS],
}

/// Errors from curve construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveError {
    /// `dims` outside `[1, 32]`.
    BadDims(usize),
    /// `order` outside `[1, 32]`.
    BadOrder(usize),
    /// `dims * order` exceeds the 256-bit key capacity.
    KeyOverflow {
        /// Requested dimension count.
        dims: usize,
        /// Requested grid order.
        order: usize,
    },
    /// An axis order that is not a permutation of `0..dims`.
    BadAxes,
}

impl std::fmt::Display for CurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CurveError::BadDims(d) => write!(f, "dimension count {d} outside [1, {MAX_DIMS}]"),
            CurveError::BadOrder(k) => write!(f, "grid order {k} outside [1, {MAX_ORDER}]"),
            CurveError::KeyOverflow { dims, order } => write!(
                f,
                "dims * order = {} exceeds the {MAX_BITS}-bit key capacity",
                dims * order
            ),
            CurveError::BadAxes => write!(f, "axis order is not a permutation of the dimensions"),
        }
    }
}

impl std::error::Error for CurveError {}

impl HilbertCurve {
    /// Creates a curve over `[0, 2^order)^dims`.
    ///
    /// Fails if `dims` or `order` are out of range or `dims * order > 256`.
    pub fn new(dims: usize, order: usize) -> Result<Self, CurveError> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(CurveError::BadDims(dims));
        }
        if order == 0 || order > MAX_ORDER {
            return Err(CurveError::BadOrder(order));
        }
        if dims * order > MAX_BITS as usize {
            return Err(CurveError::KeyOverflow { dims, order });
        }
        Ok(HilbertCurve {
            dims: dims as u32,
            order: order as u32,
            axes: std::array::from_fn(|s| s as u8),
        })
    }

    /// The same space with slot `s` of every level word holding component
    /// `axes[s]`.
    ///
    /// Fails with [`CurveError::BadAxes`] unless `axes` is a permutation of
    /// `0..dims`.
    pub fn with_axes(&self, axes: &[usize]) -> Result<Self, CurveError> {
        let dims = self.dims();
        if axes.len() != dims {
            return Err(CurveError::BadAxes);
        }
        let mut seen = 0u64;
        for &a in axes {
            if a >= dims || seen >> a & 1 == 1 {
                return Err(CurveError::BadAxes);
            }
            seen |= 1 << a;
        }
        let mut curve = self.clone();
        for (slot, &a) in curve.axes.iter_mut().zip(axes) {
            *slot = a as u8;
        }
        Ok(curve)
    }

    /// The slot the `r`-th split of the root level halves. At the root the
    /// automaton state is `(e, d) = (0, 0)`, so the level visits slot 0,
    /// then `D − 1`, `D − 2`, …, 1 — at every node of the level.
    #[inline]
    fn root_split_slot(&self, r: usize) -> usize {
        (self.dims() - r) % self.dims()
    }

    /// The components the root level halves, in the order it halves them —
    /// the order in which the first `D` splits of [`crate::Block::split`]
    /// cut the grid.
    pub fn split_order(&self) -> Vec<usize> {
        (0..self.dims())
            .map(|r| self.axis(self.root_split_slot(r)))
            .collect()
    }

    /// This space's identity curve reordered so that its root level halves
    /// every component `first` selects before any other, each of the two
    /// groups in the order the identity curve halves it.
    pub fn split_first(&self, first: impl Fn(usize) -> bool) -> Self {
        let mut curve = self.clone();
        let mut r = 0;
        // The components in the order the identity curve halves them (it
        // holds component `c` in slot `c`): the selected group, then the rest.
        for group in [true, false] {
            for c in (0..self.dims()).map(|i| self.root_split_slot(i)) {
                if first(c) == group {
                    curve.axes[self.root_split_slot(r)] = c as u8;
                    r += 1;
                }
            }
        }
        curve
    }

    /// The component held in slot `slot` of a level word.
    #[inline]
    pub fn axis(&self, slot: usize) -> usize {
        usize::from(self.axes[slot])
    }

    /// The slot → component order, one byte per slot.
    pub fn axes(&self) -> &[u8] {
        &self.axes[..self.dims()]
    }

    /// True for the plain curve, whose slot `s` holds component `s`.
    pub fn is_identity(&self) -> bool {
        self.axes()
            .iter()
            .enumerate()
            .all(|(s, &a)| usize::from(a) == s)
    }

    /// The curve for the paper's fingerprint space `[0, 255]^20`.
    pub fn paper() -> Self {
        HilbertCurve::new(20, 8).expect("20 * 8 = 160 <= 256")
    }

    /// Number of dimensions `D`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// Grid order `K` (bits per coordinate).
    #[inline]
    pub fn order(&self) -> usize {
        self.order as usize
    }

    /// Total key width in bits (`D * K`), i.e. the maximum partition depth.
    #[inline]
    pub fn key_bits(&self) -> u32 {
        self.dims * self.order
    }

    /// Exclusive upper bound of each grid coordinate (`2^K`).
    #[inline]
    pub fn grid_side(&self) -> u32 {
        if self.order == 32 {
            u32::MAX // callers treat side as exclusive bound; 2^32 saturates
        } else {
            1 << self.order
        }
    }

    /// Assembles the level word `l` from bit-plane `plane` of a point in
    /// slot order: bit `j` of the result is bit `plane` of `slots[j]`.
    #[inline]
    fn level_word(slots: &[u32], plane: u32) -> u32 {
        let mut l = 0u32;
        for (j, &c) in slots.iter().enumerate() {
            l |= ((c >> plane) & 1) << j;
        }
        l
    }

    /// `point` in slot order: slot `s` holds `point[axis(s)]`. Gathered once
    /// per key, not per bit-plane.
    #[inline]
    fn gather(&self, point: &[u32]) -> [u32; MAX_DIMS] {
        let mut slots = [0; MAX_DIMS];
        for (s, &a) in slots.iter_mut().zip(self.axes()) {
            *s = point[usize::from(a)];
        }
        slots
    }

    /// Advances the per-level state after descending into curve digit `w`.
    #[inline]
    pub fn child_state(&self, state: LevelState, w: u32) -> LevelState {
        let n = self.dims;
        LevelState {
            e: state.e ^ rol(entry(w), state.d + 1, n),
            d: (state.d + direction(w, n) + 1) % n,
        }
    }

    /// Curve digit for the sub-cell whose corner word is `l`, given the state.
    #[inline]
    pub fn digit_of_corner(&self, state: LevelState, l: u32) -> u32 {
        gray_inverse(transform(l, state.e, state.d, self.dims))
    }

    /// Corner word of the sub-cell at curve digit `w`, given the state.
    #[inline]
    pub fn corner_of_digit(&self, state: LevelState, w: u32) -> u32 {
        transform_inverse(gray(w), state.e, state.d, self.dims)
    }

    /// Maps a grid point to its Hilbert key.
    ///
    /// # Panics
    /// If `point.len() != dims` or a coordinate is `>= 2^order`.
    pub fn encode(&self, point: &[u32]) -> Key256 {
        assert_eq!(point.len(), self.dims as usize, "point dimension mismatch");
        if self.order < 32 {
            for (j, &c) in point.iter().enumerate() {
                assert!(
                    c < self.grid_side(),
                    "coordinate {j} = {c} out of grid [0, {})",
                    self.grid_side()
                );
            }
        }
        let slots = self.gather(point);
        let slots = &slots[..self.dims()];
        let mut key = Key256::ZERO;
        let mut state = LevelState::ROOT;
        for plane in (0..self.order).rev() {
            let l = Self::level_word(slots, plane);
            let w = self.digit_of_corner(state, l);
            key.push_digit(u64::from(w), self.dims);
            state = self.child_state(state, w);
        }
        key
    }

    /// Maps a Hilbert key back to its grid point, written into `point`.
    ///
    /// # Panics
    /// If `point.len() != dims` or the key has bits above `D * K`.
    pub fn decode(&self, key: &Key256, point: &mut [u32]) {
        assert_eq!(point.len(), self.dims as usize, "point dimension mismatch");
        debug_assert!(
            key.shr(self.key_bits()).is_zero() || self.key_bits() == MAX_BITS,
            "key out of range for this curve"
        );
        point.fill(0);
        let mut state = LevelState::ROOT;
        for plane in (0..self.order).rev() {
            let w = key.digit(plane * self.dims, self.dims) as u32;
            let l = self.corner_of_digit(state, w);
            for (j, &a) in self.axes().iter().enumerate() {
                point[usize::from(a)] |= ((l >> j) & 1) << plane;
            }
            state = self.child_state(state, w);
        }
    }

    /// Convenience wrapper around [`HilbertCurve::decode`] that allocates.
    pub fn decode_vec(&self, key: &Key256) -> Vec<u32> {
        let mut p = vec![0u32; self.dims as usize];
        self.decode(key, &mut p);
        p
    }

    /// Encodes a byte-valued fingerprint (the paper's `[0,255]^D` space).
    ///
    /// # Panics
    /// If `order() != 8` or the slice length differs from `dims`.
    pub fn encode_bytes(&self, fingerprint: &[u8]) -> Key256 {
        assert_eq!(self.order, 8, "encode_bytes requires an order-8 curve");
        assert_eq!(fingerprint.len(), self.dims as usize);
        // The hot path of index construction: all eight level words in one
        // pass over the slots, each byte read once, in slot order.
        let words = self.plane_words(fingerprint);
        let mut key = Key256::ZERO;
        let mut state = LevelState::ROOT;
        for &l in words.iter().rev() {
            let w = self.digit_of_corner(state, l);
            key.push_digit(u64::from(w), self.dims);
            state = self.child_state(state, w);
        }
        key
    }

    /// The level words of a byte point: bit `j` of `words[p]` is bit `p` of
    /// the byte in slot `j`.
    ///
    /// Eight slots at a time: multiplying a byte `b` by `Σ_k 2^(9k)` lays
    /// eight copies of it side by side, non-overlapping, so the top bit of
    /// byte `k` of the product is bit `7 − k` of `b`. Shifted right by the
    /// slot's index within the group and or-ed together, byte `7 − p` of the
    /// accumulator holds bit `p` of all eight slots.
    #[inline]
    fn plane_words(&self, fingerprint: &[u8]) -> [u32; 8] {
        let mut words = [0u32; 8];
        for (g, group) in self.axes().chunks(8).enumerate() {
            let mut acc = 0u64;
            for (j, &a) in group.iter().enumerate() {
                let copies =
                    u64::from(fingerprint[usize::from(a)]).wrapping_mul(0x8040_2010_0804_0201);
                acc |= (copies & 0x8080_8080_8080_8080) >> (7 - j);
            }
            for (p, w) in words.iter_mut().enumerate() {
                *w |= u32::from((acc >> (8 * (7 - p))) as u8) << (8 * g);
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dims: usize, order: usize) {
        let curve = HilbertCurve::new(dims, order).unwrap();
        let side = 1u64 << order;
        let total = side.pow(dims as u32);
        assert!(total <= 1 << 20, "test grid too large");
        let mut point = vec![0u32; dims];
        let mut seen = vec![false; total as usize];
        for idx in 0..total {
            // enumerate all points
            let mut rem = idx;
            for c in point.iter_mut() {
                *c = (rem % side) as u32;
                rem /= side;
            }
            let key = curve.encode(&point);
            let k = key.low_u128() as u64;
            assert!(k < total, "key {k} out of range");
            assert!(!seen[k as usize], "key collision at {k}");
            seen[k as usize] = true;
            let back = curve.decode_vec(&key);
            assert_eq!(back, point);
        }
    }

    #[test]
    fn bijection_2d() {
        roundtrip(2, 1);
        roundtrip(2, 2);
        roundtrip(2, 5);
    }

    #[test]
    fn bijection_3d() {
        roundtrip(3, 1);
        roundtrip(3, 2);
        roundtrip(3, 4);
    }

    #[test]
    fn bijection_4d_and_5d() {
        roundtrip(4, 3);
        roundtrip(5, 2);
    }

    #[test]
    fn bijection_high_dim_1bit() {
        roundtrip(10, 2);
        roundtrip(16, 1);
    }

    #[test]
    fn curve_is_connected_consecutive_cells_adjacent() {
        // The defining locality property of a Hilbert curve: consecutive keys
        // map to grid cells at L1 distance exactly 1.
        for (dims, order) in [(2usize, 6usize), (3, 4), (4, 3), (5, 2)] {
            let curve = HilbertCurve::new(dims, order).unwrap();
            let total = 1u64 << (dims * order);
            let mut prev = curve.decode_vec(&Key256::ZERO);
            for k in 1..total {
                let cur = curve.decode_vec(&Key256::from_u64(k));
                let l1: u64 = prev
                    .iter()
                    .zip(&cur)
                    .map(|(&a, &b)| u64::from(a.abs_diff(b)))
                    .sum();
                assert_eq!(l1, 1, "dims={dims} order={order} k={k}");
                prev = cur;
            }
        }
    }

    #[test]
    fn paper_curve_dimensions() {
        let c = HilbertCurve::paper();
        assert_eq!(c.dims(), 20);
        assert_eq!(c.order(), 8);
        assert_eq!(c.key_bits(), 160);
    }

    #[test]
    fn paper_curve_roundtrip_spot_checks() {
        let c = HilbertCurve::paper();
        let points: [[u32; 20]; 4] = [
            [0; 20],
            [255; 20],
            [
                1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
            ],
            [
                200, 13, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 3, 7, 15, 31, 63, 127, 254, 99,
            ],
        ];
        for p in &points {
            let key = c.encode(p);
            assert_eq!(c.decode_vec(&key), p.to_vec());
        }
    }

    #[test]
    fn encode_bytes_matches_encode() {
        let c = HilbertCurve::paper();
        let bytes: [u8; 20] = [
            3, 141, 59, 26, 53, 58, 97, 93, 238, 46, 26, 43, 38, 32, 79, 50, 255, 0, 128, 7,
        ];
        let words: Vec<u32> = bytes.iter().map(|&b| u32::from(b)).collect();
        assert_eq!(c.encode_bytes(&bytes), c.encode(&words));
    }

    #[test]
    fn construction_errors() {
        assert_eq!(HilbertCurve::new(0, 8).unwrap_err(), CurveError::BadDims(0));
        assert_eq!(
            HilbertCurve::new(33, 8).unwrap_err(),
            CurveError::BadDims(33)
        );
        assert_eq!(
            HilbertCurve::new(4, 0).unwrap_err(),
            CurveError::BadOrder(0)
        );
        assert_eq!(
            HilbertCurve::new(20, 16).unwrap_err(),
            CurveError::KeyOverflow {
                dims: 20,
                order: 16
            }
        );
        assert!(HilbertCurve::new(32, 8).is_ok());
        assert!(HilbertCurve::new(16, 16).is_ok());
    }

    #[test]
    fn axis_orders_must_be_permutations() {
        let c = HilbertCurve::new(4, 8).unwrap();
        assert!(c.is_identity());
        for bad in [
            &[0usize, 1, 2][..],
            &[0, 1, 2, 2],
            &[0, 1, 2, 4],
            &[0, 1, 2, 3, 0],
        ] {
            assert_eq!(
                c.with_axes(bad).unwrap_err(),
                CurveError::BadAxes,
                "{bad:?}"
            );
        }
        let p = c.with_axes(&[2, 0, 3, 1]).unwrap();
        assert_eq!(p.axes(), &[2, 0, 3, 1]);
        assert!(!p.is_identity());
        assert_ne!(p, c);
        assert_eq!(c.with_axes(&[0, 1, 2, 3]).unwrap(), c);
    }

    #[test]
    fn split_first_moves_a_group_ahead_in_order() {
        let c = HilbertCurve::paper();
        assert_eq!(c.split_order()[..4], [0, 19, 18, 17]);
        assert_eq!(c.split_first(|_| true), c);
        assert_eq!(c.split_first(|_| false), c);
        // Starting from any order: the result is this space's identity
        // curve, reordered.
        let shuffled = c.with_axes(&(0..20).rev().collect::<Vec<_>>()).unwrap();
        assert_eq!(shuffled.split_first(|_| true), c);
        let wide = [0, 1, 5, 6, 10, 11, 15, 16];
        let ranked = shuffled.split_first(|a| wide.contains(&a));
        let wide_first = [
            0, 16, 15, 11, 10, 6, 5, 1, 19, 18, 17, 14, 13, 12, 9, 8, 7, 4, 3, 2,
        ];
        assert_eq!(ranked.split_order(), wide_first);
        // The root level halves the components in exactly that order.
        let mut blk = crate::Block::root(&ranked);
        for &want in &wide_first {
            assert_eq!(blk.next_split_axis(&ranked), want);
            blk = blk.split(&ranked)[1];
        }
    }

    #[test]
    fn paper_keys_are_the_identity_curves_keys() {
        // Keys of the paper's curve, pinned: the axis order must leave the
        // identity curve's keys (and so every index written before it)
        // untouched.
        let c = HilbertCurve::paper();
        let cases: [([u8; 20], [u64; 4]); 3] = [
            (
                [
                    3, 141, 59, 26, 53, 58, 97, 93, 238, 46, 26, 43, 38, 32, 79, 50, 255, 0, 128, 7,
                ],
                [12863001779852287146, 17282551720756047647, 806350607, 0],
            ),
            (
                [
                    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
                ],
                [2885294819860268100, 2684376440, 0, 0],
            ),
            (
                [
                    200, 13, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 3, 7, 15, 31, 63, 127, 254, 99,
                ],
                [1443333297875714944, 18303684468369275912, 3221258655, 0],
            ),
        ];
        for (fp, limbs) in cases {
            assert_eq!(c.encode_bytes(&fp).limbs(), &limbs);
        }
    }

    #[test]
    #[should_panic(expected = "out of grid")]
    fn encode_rejects_out_of_grid() {
        let c = HilbertCurve::new(2, 4).unwrap();
        c.encode(&[16, 0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn encode_rejects_wrong_dims() {
        let c = HilbertCurve::new(3, 4).unwrap();
        c.encode(&[1, 2]);
    }

    #[test]
    fn keys_zero_and_last() {
        // Key 0 decodes to the curve's start; the last key to its end; both
        // must re-encode to themselves.
        let c = HilbertCurve::new(3, 3).unwrap();
        let last = Key256::from_u64((1 << 9) - 1);
        let p0 = c.decode_vec(&Key256::ZERO);
        let p1 = c.decode_vec(&last);
        assert_eq!(c.encode(&p0), Key256::ZERO);
        assert_eq!(c.encode(&p1), last);
    }
}
