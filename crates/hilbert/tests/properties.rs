//! Property-based tests of the Hilbert curve invariants across random
//! dimensions, orders, points and descent paths.

use proptest::prelude::*;
use s3_hilbert::{Block, CompactNode, HilbertCurve, LevelCell};

/// Strategy producing a feasible (dims, order) pair and a point in its grid.
fn curve_and_point() -> impl Strategy<Value = (usize, usize, Vec<u32>)> {
    (1usize..=32, 1usize..=16)
        .prop_filter("key capacity", |(d, k)| d * k <= 256)
        .prop_flat_map(|(d, k)| {
            let side = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
            (Just(d), Just(k), proptest::collection::vec(0..=side, d))
        })
}

/// A curve over random dimensions and order, a permutation of its axes
/// (slot → component) and a point of its grid.
fn permuted_curve_and_point() -> impl Strategy<Value = (usize, usize, Vec<usize>, Vec<u32>)> {
    (2usize..=20, 2usize..=8)
        .prop_filter("key capacity", |(d, k)| d * k <= 160)
        .prop_flat_map(|(d, k)| {
            let side = (1u32 << k) - 1;
            (
                Just(d),
                Just(k),
                any::<u64>().prop_map(move |seed| shuffled(d, seed)),
                proptest::collection::vec(0..=side, d),
            )
        })
}

/// A permutation of `0..d` drawn by Fisher–Yates from `seed`.
fn shuffled(d: usize, mut seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..d).collect();
    for i in (1..d).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        perm.swap(i, (seed >> 33) as usize % (i + 1));
    }
    perm
}

/// `point` as the identity curve sees it under `axes`: slot `s` holds
/// component `axes[s]`.
fn permuted<T: Copy>(axes: &[usize], point: &[T]) -> Vec<T> {
    axes.iter().map(|&a| point[a]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A curve over permuted axes is the identity curve on permuted points:
    /// the same keys, and every block the same box with its components
    /// renamed — bounds, containment, distances and split axes.
    #[test]
    fn permuted_axes_equal_identity_on_permuted_points(
        (dims, order, axes, point) in permuted_curve_and_point(),
        path in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        let id = HilbertCurve::new(dims, order).unwrap();
        let pi = id.with_axes(&axes).unwrap();
        let p_id = permuted(&axes, &point);
        let key = pi.encode(&point);
        prop_assert_eq!(key, id.encode(&p_id));
        prop_assert_eq!(pi.decode_vec(&key), point.clone());
        if order == 8 {
            let bytes: Vec<u8> = point.iter().map(|&c| c as u8).collect();
            prop_assert_eq!(pi.encode_bytes(&bytes), id.encode_bytes(&permuted(&axes, &bytes)));
        }
        // Integral query coordinates keep every squared distance exact, so
        // the sums agree bit for bit in either component order.
        let q: Vec<f64> = point.iter().map(|&c| f64::from(c ^ 1)).collect();
        let q_id = permuted(&axes, &q);
        let (mut b_pi, mut b_id) = (Block::root(&pi), Block::root(&id));
        for &right in &path {
            if b_pi.is_cell(&pi) {
                break;
            }
            prop_assert_eq!(b_pi.next_split_axis(&pi), axes[b_id.next_split_axis(&id)]);
            let c = usize::from(right);
            b_pi = b_pi.split(&pi)[c];
            b_id = b_id.split(&id)[c];
            prop_assert_eq!(b_pi.depth(), b_id.depth());
            prop_assert_eq!(b_pi.curve_rank(), b_id.curve_rank());
            prop_assert_eq!(b_pi.key_range(&pi), b_id.key_range(&id));
            for (s, &a) in axes.iter().enumerate() {
                prop_assert_eq!(b_pi.lo()[a], b_id.lo()[s]);
                prop_assert_eq!(b_pi.dim_bounds(a), b_id.dim_bounds(s));
                prop_assert_eq!(b_pi.extent_log2(a), b_id.extent_log2(s));
            }
            prop_assert_eq!(b_pi.contains(&point), b_id.contains(&p_id));
            prop_assert_eq!(b_pi.min_dist_sq(&q).to_bits(), b_id.min_dist_sq(&q_id).to_bits());
        }
    }

    /// The compact descent renames components the same way: every split of
    /// a random path through the level cells halves `axes[axis]` of the
    /// identity curve's split, over the same interval, in the same halves.
    #[test]
    fn permuted_axes_level_cells_split_like_identity(
        (dims, order, axes, _point) in permuted_curve_and_point(),
        path in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let id = HilbertCurve::new(dims, order).unwrap();
        let pi = id.with_axes(&axes).unwrap();
        let d = dims as u32;
        let (mut cell_pi, mut cell_id) = (LevelCell::root(&pi), LevelCell::root(&id));
        let mut node = CompactNode::ROOT;
        for (step, &right) in path.iter().enumerate() {
            if step as u32 >= pi.key_bits() - 1 {
                break;
            }
            if node.j == d {
                cell_pi = cell_pi.descend(&pi, node.w_pref);
                cell_id = cell_id.descend(&id, node.w_pref);
                node = CompactNode::ROOT;
            }
            let (s_pi, s_id) = (cell_pi.split(&pi, node.w_pref, node.j), cell_id.split(&id, node.w_pref, node.j));
            prop_assert_eq!(s_pi.axis, axes[s_id.axis]);
            prop_assert_eq!((s_pi.ext, s_pi.k, s_pi.first_half), (s_id.ext, s_id.k, s_id.first_half));
            prop_assert_eq!(cell_pi.rank_of(node.w_pref, node.j), cell_id.rank_of(node.w_pref, node.j));
            node = node.child(u32::from(right));
        }
    }

    /// encode/decode are mutually inverse for arbitrary feasible spaces.
    #[test]
    fn encode_decode_roundtrip((dims, order, point) in curve_and_point()) {
        let curve = HilbertCurve::new(dims, order).unwrap();
        let key = curve.encode(&point);
        prop_assert_eq!(curve.decode_vec(&key), point);
    }

    /// Keys never exceed the D*K bit budget.
    #[test]
    fn keys_fit_in_key_bits((dims, order, point) in curve_and_point()) {
        let curve = HilbertCurve::new(dims, order).unwrap();
        let key = curve.encode(&point);
        if curve.key_bits() < 256 {
            prop_assert!(key.shr(curve.key_bits()).is_zero());
        }
    }

    /// Consecutive curve positions are grid neighbours (L1 distance 1),
    /// sampled at random positions of large spaces where exhaustion is
    /// impossible.
    #[test]
    fn random_consecutive_keys_are_adjacent(
        (dims, order) in (2usize..=20, 2usize..=8)
            .prop_filter("key capacity", |(d, k)| d * k <= 160),
        seed in any::<u64>(),
    ) {
        let curve = HilbertCurve::new(dims, order).unwrap();
        // Derive a valid key from an arbitrary point, then step to the next
        // key unless it is the curve end.
        let mut point = vec![0u32; dims];
        let mut s = seed;
        for c in point.iter_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *c = (s >> 40) as u32 % (1u32 << order);
        }
        let key = curve.encode(&point);
        let next = key.wrapping_add_u64(1);
        let bits = curve.key_bits();
        prop_assume!(bits == 256 || next.shr(bits).is_zero());
        prop_assume!(!next.is_zero());
        if bits < 256 && !next.shr(bits).is_zero() {
            return Ok(()); // key was the last on the curve
        }
        let a = curve.decode_vec(&key);
        let b = curve.decode_vec(&next);
        let l1: u64 = a.iter().zip(&b).map(|(&x, &y)| u64::from(x.abs_diff(y))).sum();
        prop_assert_eq!(l1, 1);
    }

    /// A random root-to-leaf descent always keeps the tracked point in
    /// exactly the child whose key range contains the point's key, and ends
    /// at the point's own cell.
    #[test]
    fn random_descent_follows_point(
        (dims, order, point) in (2usize..=20, 2usize..=8)
            .prop_filter("key capacity", |(d, k)| d * k <= 160)
            .prop_flat_map(|(d, k)| {
                let side = (1u32 << k) - 1;
                (Just(d), Just(k), proptest::collection::vec(0..=side, d))
            }),
    ) {
        let curve = HilbertCurve::new(dims, order).unwrap();
        let key = curve.encode(&point);
        let mut blk = Block::root(&curve);
        while !blk.is_cell(&curve) {
            let [a, b] = blk.split(&curve);
            let in_a = a.contains(&point);
            let in_b = b.contains(&point);
            prop_assert!(in_a ^ in_b);
            prop_assert_eq!(in_a, a.key_range(&curve).contains(&key));
            blk = if in_a { a } else { b };
        }
        prop_assert_eq!(&blk.lo()[..dims], point.as_slice());
    }

    /// Box volume equals the curve-interval length at every depth of a
    /// random partial descent.
    #[test]
    fn descent_volume_matches_interval(
        path in proptest::collection::vec(any::<bool>(), 1..80),
    ) {
        let curve = HilbertCurve::paper();
        let mut blk = Block::root(&curve);
        for &right in &path {
            let [a, b] = blk.split(&curve);
            blk = if right { b } else { a };
            let vol_log2: u32 = (0..curve.dims()).map(|d| blk.extent_log2(d)).sum();
            prop_assert_eq!(vol_log2, curve.key_bits() - blk.depth());
        }
    }
}
