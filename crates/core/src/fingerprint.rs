//! Fingerprint records and their columnar storage.
//!
//! A fingerprint is a `D`-component byte vector in `[0, 255]^D` (the paper's
//! local video fingerprints use `D = 20`). Each record also carries a video
//! sequence identifier `Id` and a time-code `tc` (§III): the voting stage of
//! the CBCD system works exclusively on those two fields.
//!
//! [`RecordBatch`] stores records column-wise (one flat byte buffer for the
//! fingerprints, one `u32` column each for ids and time-codes) so that the
//! refinement scan — the cache-bound inner loop of every query — touches
//! densely packed bytes.

/// The paper's fingerprint dimension.
pub const PAPER_DIMS: usize = 20;

/// A borrowed view of one stored record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record<'a> {
    /// Fingerprint components.
    pub fingerprint: &'a [u8],
    /// Video sequence identifier.
    pub id: u32,
    /// Time-code within the sequence (frame index of the key-frame).
    pub tc: u32,
}

/// Columnar storage for fixed-dimension fingerprint records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordBatch {
    dims: usize,
    fingerprints: Vec<u8>,
    ids: Vec<u32>,
    tcs: Vec<u32>,
}

impl RecordBatch {
    /// Creates an empty batch for `dims`-dimensional fingerprints.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        RecordBatch {
            dims,
            fingerprints: Vec::new(),
            ids: Vec::new(),
            tcs: Vec::new(),
        }
    }

    /// Creates an empty batch with capacity for `n` records.
    pub fn with_capacity(dims: usize, n: usize) -> Self {
        assert!(dims > 0, "dims must be positive");
        RecordBatch {
            dims,
            fingerprints: Vec::with_capacity(dims * n),
            ids: Vec::with_capacity(n),
            tcs: Vec::with_capacity(n),
        }
    }

    /// Fingerprint dimension.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the batch holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends one record.
    ///
    /// # Panics
    /// If the fingerprint length differs from the batch dimension.
    pub fn push(&mut self, fingerprint: &[u8], id: u32, tc: u32) {
        assert_eq!(
            fingerprint.len(),
            self.dims,
            "fingerprint dimension mismatch"
        );
        self.fingerprints.extend_from_slice(fingerprint);
        self.ids.push(id);
        self.tcs.push(tc);
    }

    /// Inserts one record before record `i` (panics as [`RecordBatch::push`]
    /// does, or if `i > len()`).
    pub(crate) fn insert(&mut self, i: usize, fingerprint: &[u8], id: u32, tc: u32) {
        assert!(i <= self.len(), "insert position out of range");
        self.push(fingerprint, id, tc);
        self.fingerprints[i * self.dims..].rotate_right(self.dims);
        self.ids[i..].rotate_right(1);
        self.tcs[i..].rotate_right(1);
    }

    /// The three columns of a `dims`-dimensional batch, for a loader that
    /// refills them in place; it must leave them the same length again.
    pub(crate) fn columns_mut(
        &mut self,
        dims: usize,
    ) -> (&mut Vec<u8>, &mut Vec<u32>, &mut Vec<u32>) {
        assert!(dims > 0, "dims must be positive");
        self.dims = dims;
        (&mut self.fingerprints, &mut self.ids, &mut self.tcs)
    }

    /// Appends all records of another batch of the same dimension.
    pub fn extend_from(&mut self, other: &RecordBatch) {
        assert_eq!(self.dims, other.dims, "batch dimension mismatch");
        self.fingerprints.extend_from_slice(&other.fingerprints);
        self.ids.extend_from_slice(&other.ids);
        self.tcs.extend_from_slice(&other.tcs);
    }

    /// Fingerprint of record `i`.
    #[inline]
    pub fn fingerprint(&self, i: usize) -> &[u8] {
        &self.fingerprints[i * self.dims..(i + 1) * self.dims]
    }

    /// Identifier of record `i`.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        self.ids[i]
    }

    /// Time-code of record `i`.
    #[inline]
    pub fn tc(&self, i: usize) -> u32 {
        self.tcs[i]
    }

    /// Borrowed record `i`.
    #[inline]
    pub fn record(&self, i: usize) -> Record<'_> {
        Record {
            fingerprint: self.fingerprint(i),
            id: self.ids[i],
            tc: self.tcs[i],
        }
    }

    /// Iterates over all records.
    pub fn iter(&self) -> impl Iterator<Item = Record<'_>> + '_ {
        (0..self.len()).map(move |i| self.record(i))
    }

    /// Reorders the batch according to `perm`: new record `i` is old record
    /// `perm[i]`. Used by index construction after sorting by Hilbert key.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..len`.
    pub fn permuted(&self, perm: &[u32]) -> RecordBatch {
        assert_eq!(perm.len(), self.len(), "permutation length mismatch");
        let mut out = RecordBatch::with_capacity(self.dims, self.len());
        for &src in perm {
            let src = src as usize;
            out.push(self.fingerprint(src), self.ids[src], self.tcs[src]);
        }
        out
    }

    /// Raw flat fingerprint bytes (length `len() * dims()`).
    #[inline]
    pub fn fingerprint_bytes(&self) -> &[u8] {
        &self.fingerprints
    }

    /// Raw id column.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Raw time-code column.
    #[inline]
    pub fn tcs(&self) -> &[u32] {
        &self.tcs
    }

    /// Approximate heap usage in bytes (the paper sizes its DBs in bytes:
    /// "13 Gb for 10,000 hours").
    pub fn byte_size(&self) -> usize {
        self.fingerprints.len() + 4 * self.ids.len() + 4 * self.tcs.len()
    }
}

/// Squared Euclidean distance between two byte fingerprints.
///
/// Exact in integer arithmetic (max per-component diff 255, so `D * 255²`
/// fits easily in `u64` for any supported `D`). Delegates to
/// [`crate::kernels::dist_sq`] (SSE2 on `x86_64`, scalar elsewhere),
/// bit-identical to the scalar reference.
#[inline]
pub fn dist_sq(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::dist_sq(a, b)
}

/// Euclidean distance between two byte fingerprints.
#[inline]
pub fn dist(a: &[u8], b: &[u8]) -> f64 {
    (dist_sq(a, b) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut b = RecordBatch::new(3);
        b.push(&[1, 2, 3], 7, 100);
        b.push(&[4, 5, 6], 8, 200);
        assert_eq!(b.len(), 2);
        assert_eq!(b.fingerprint(0), &[1, 2, 3]);
        assert_eq!(
            b.record(1),
            Record {
                fingerprint: &[4, 5, 6],
                id: 8,
                tc: 200
            }
        );
    }

    #[test]
    fn iter_yields_all_records_in_order() {
        let mut b = RecordBatch::new(2);
        for i in 0..5u32 {
            b.push(&[i as u8, (i * 2) as u8], i, i * 10);
        }
        let ids: Vec<u32> = b.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn permuted_reorders() {
        let mut b = RecordBatch::new(1);
        b.push(&[10], 0, 0);
        b.push(&[20], 1, 1);
        b.push(&[30], 2, 2);
        let p = b.permuted(&[2, 0, 1]);
        assert_eq!(p.fingerprint(0), &[30]);
        assert_eq!(p.fingerprint(1), &[10]);
        assert_eq!(p.id(2), 1);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = RecordBatch::new(2);
        a.push(&[1, 1], 0, 0);
        let mut b = RecordBatch::new(2);
        b.push(&[2, 2], 1, 5);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.fingerprint(1), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_wrong_dims_panics() {
        let mut b = RecordBatch::new(3);
        b.push(&[1, 2], 0, 0);
    }

    #[test]
    fn dist_sq_known_values() {
        assert_eq!(dist_sq(&[0, 0], &[3, 4]), 25);
        assert_eq!(dist(&[0, 0], &[3, 4]), 5.0);
        assert_eq!(dist_sq(&[255; 20], &[0; 20]), 20 * 255 * 255);
        assert_eq!(dist_sq(&[5], &[5]), 0);
    }

    #[test]
    fn byte_size_counts_columns() {
        let mut b = RecordBatch::new(20);
        b.push(&[0; 20], 0, 0);
        assert_eq!(b.byte_size(), 20 + 4 + 4);
    }
}
