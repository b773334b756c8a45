//! Exact-safe section sketch prefilter, built and attached in memory.
//!
//! The statistical filter computes selectivity, but every surviving section
//! still costs a real read: a section is loaded as soon as *any* query's key
//! range overlaps its slot span, even when the selected blocks there are
//! empty cells of fingerprint space. A [`Sketch`] is a Bloom filter over the
//! quantized coordinates of every stored fingerprint — the depth-`d` prefix
//! of its Hilbert key, which is exactly the cell of the `2^d`-way partition
//! the record occupies. Before a section is loaded, the engine probes the
//! sketch for every candidate cell the batch's ranges cover inside that
//! section; if **all** probes miss, the section provably holds no candidate
//! and the load is skipped.
//!
//! No product path builds one: since sections are packed to the memory
//! budget, each spans thousands of occupied cells and the sketch rules
//! almost none out. It stays for the frozen benchmark's `disk_batch`
//! comparator, which builds it with [`crate::DiskIndex::build_sketch`] and
//! attaches it with [`crate::DiskIndex::attach_sketch`]. Nothing reads or
//! writes a sketch file.
//!
//! ## Why skips are exact
//!
//! A Bloom filter has no false negatives: a probe misses only if the cell
//! was never inserted, i.e. no stored record's key has that depth-`d`
//! prefix. Every record a refinement scan could visit for a range lies in
//! `range ∩ section`, and its cell is inside both the range's and the
//! section's slot span — so it is among the probed cells. All probes
//! missing therefore implies the scan would have visited zero records:
//! skipping changes no matches, no `entries_scanned`, and never sets a
//! degradation flag. False *positives* merely load a section that turns
//! out empty — the sketch-less behaviour.
//!
//! A sketch records the CRC-32 of the index's header + table it was built
//! from ([`Sketch::index_crc`]) and attaches only to the index whose meta
//! CRC matches, so a sketch of other data can never skip a section.

use crate::splitmix64;
use s3_hilbert::Key256;

/// Default Bloom bits per distinct occupied cell (≈ 2 % false positives
/// with the matching `k`).
const DEFAULT_SKETCH_BITS: u32 = 8;
/// Deterministic hash seed of every sketch this crate builds.
const SEED: u64 = 0x5345_4353_4B43_4831; // "SECSKCH1"
/// Ceiling of the stored cell depth: slots must fit `u64` section math
/// comfortably, and deeper prefixes stop paying off well before this.
pub const MAX_SKETCH_DEPTH: u32 = 32;

/// Build-time knobs of a [`Sketch`].
#[derive(Clone, Copy, Debug)]
pub struct SketchParams {
    /// Bloom bits per distinct occupied cell (at least 1).
    pub bits_per_entry: u32,
    /// Cell depth `d` (Hilbert-key prefix bits). `0` = choose
    /// automatically from the index's table depth.
    pub depth: u32,
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams {
            bits_per_entry: DEFAULT_SKETCH_BITS,
            depth: 0,
        }
    }
}

impl SketchParams {
    /// Resolves the cell depth for an index with the given table depth and
    /// key width: the requested depth when given, otherwise four levels
    /// below the table (16× finer cells), clamped to
    /// `[table_depth, min(key_bits, 32)]`.
    pub fn resolve_depth(&self, table_depth: u32, key_bits: u32) -> u32 {
        let want = if self.depth == 0 {
            table_depth + 4
        } else {
            self.depth
        };
        want.clamp(table_depth, key_bits.min(MAX_SKETCH_DEPTH))
    }
}

/// A Bloom filter over the depth-`d` Hilbert-key prefixes (partition
/// cells) of a stored index — the module-level docs explain how consulting
/// it before a section load can only ever skip true negatives.
#[derive(Clone, Debug)]
pub struct Sketch {
    depth: u32,
    key_bits: u32,
    k: u32,
    entries: u64,
    index_crc: u32,
    n_bits: u64,
    words: Vec<u64>,
}

impl Sketch {
    /// Builds a sketch over `keys` (sorted Hilbert keys of `key_bits`
    /// width, as stored in the index): one Bloom insertion per *distinct*
    /// depth-`depth` prefix. `index_crc` is the meta CRC of the index the
    /// sketch belongs to — attachment is refused when it does not match.
    pub fn build(
        keys: &[Key256],
        key_bits: u32,
        depth: u32,
        bits_per_entry: u32,
        index_crc: u32,
    ) -> Sketch {
        assert!(
            depth >= 1 && depth <= key_bits.min(MAX_SKETCH_DEPTH),
            "sketch depth {depth} out of range for {key_bits}-bit keys"
        );
        assert!(bits_per_entry >= 1, "bits_per_entry must be positive");
        let shift = key_bits - depth;

        // Sorted keys ⇒ distinct cells are exactly the non-repeating
        // consecutive prefixes; count first so the array is sized for the
        // real occupancy, not the record count.
        let mut distinct = 0u64;
        let mut prev: Option<u64> = None;
        for key in keys {
            let slot = key.shr(shift).low_u128() as u64;
            if prev != Some(slot) {
                distinct += 1;
                prev = Some(slot);
            }
        }

        let n_bits = (distinct.saturating_mul(u64::from(bits_per_entry)))
            .next_multiple_of(64)
            .max(64);
        // Optimal k = ln2 · bits/entry, clamped to something sane.
        let k = ((f64::from(bits_per_entry) * std::f64::consts::LN_2).round() as u32).clamp(1, 16);

        let mut sketch = Sketch {
            depth,
            key_bits,
            k,
            entries: distinct,
            index_crc,
            n_bits,
            words: vec![0u64; (n_bits / 64) as usize],
        };
        let mut prev: Option<u64> = None;
        for key in keys {
            let slot = key.shr(shift).low_u128() as u64;
            if prev != Some(slot) {
                sketch.insert_slot(slot);
                prev = Some(slot);
            }
        }
        sketch
    }

    /// [`Sketch::build`] over the `u64` key prefixes a sorted run stores
    /// (the top `min(key_bits, 64)` bits of each key), each widened back
    /// to key width. Exact: a sketch cell is at most [`MAX_SKETCH_DEPTH`]
    /// key bits, so it lies within the prefix.
    pub(crate) fn build_from_prefixes(
        prefixes: &[u64],
        key_bits: u32,
        depth: u32,
        bits_per_entry: u32,
        index_crc: u32,
    ) -> Sketch {
        let below = key_bits - key_bits.min(64);
        let keys: Vec<Key256> = prefixes
            .iter()
            .map(|&p| Key256::from_u64(p).shl(below))
            .collect();
        Sketch::build(&keys, key_bits, depth, bits_per_entry, index_crc)
    }

    fn insert_slot(&mut self, slot: u64) {
        let h1 = splitmix64(slot ^ SEED);
        let h2 = splitmix64(h1) | 1;
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// True if the cell may hold a record (Bloom semantics: `false` is
    /// definite absence, `true` may be a false positive).
    pub fn contains_slot(&self, slot: u64) -> bool {
        let h1 = splitmix64(slot ^ SEED);
        let h2 = splitmix64(h1) | 1;
        for i in 0..u64::from(self.k) {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) % self.n_bits;
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Cell depth `d` (Hilbert-key prefix bits per cell).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Key width the sketch was built against.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Distinct occupied cells inserted at build time.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Bloom hash count.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Size of the bit array in bits.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Meta CRC of the index generation this sketch describes.
    pub fn index_crc(&self) -> u32 {
        self.index_crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64, key_bits: u32, seed: u64) -> Vec<Key256> {
        // Pseudo-random keys in the low `key_bits` bits, sorted.
        let mut s = seed;
        let mut out: Vec<Key256> = (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let mut k = Key256::ZERO;
                for b in 0..key_bits.min(64) {
                    k.set_bit(b, s.rotate_left(b) & 1 == 1);
                }
                k
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn no_false_negatives_across_seeds() {
        for seed in [1u64, 7, 99, 12345] {
            let ks = keys(500, 32, seed);
            let sk = Sketch::build(&ks, 32, 20, 8, 0xABCD);
            for key in &ks {
                let slot = key.shr(12).low_u128() as u64;
                assert!(
                    sk.contains_slot(slot),
                    "inserted cell {slot} missing (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn sizing_follows_occupancy_not_record_count() {
        // 10k records all in one cell: the array stays at the 64-bit floor.
        let ks = vec![Key256::ZERO; 10_000];
        let sk = Sketch::build(&ks, 32, 20, 8, 0);
        assert_eq!(sk.entries(), 1);
        assert_eq!(sk.n_bits(), 64);
        // k = round(8 ln 2) = 6.
        assert_eq!(sk.k(), 6);
    }

    #[test]
    fn empty_index_builds_an_empty_sketch() {
        let sk = Sketch::build(&[], 32, 20, 8, 0);
        assert_eq!(sk.entries(), 0);
        assert!(!sk.contains_slot(0));
    }

    #[test]
    fn depth_resolution_clamps() {
        let p = SketchParams::default();
        assert_eq!(p.resolve_depth(16, 160), 20);
        assert_eq!(p.resolve_depth(16, 18), 18);
        assert_eq!(p.resolve_depth(8, 160), 12);
        let explicit = SketchParams {
            bits_per_entry: 8,
            depth: 24,
        };
        assert_eq!(explicit.resolve_depth(16, 160), 24);
        assert_eq!(explicit.resolve_depth(16, 20), 20);
        // Never below the table depth, never past the u64-slot ceiling.
        assert_eq!(explicit.resolve_depth(16, 200).max(16), 24);
        let deep = SketchParams {
            bits_per_entry: 8,
            depth: 60,
        };
        assert_eq!(deep.resolve_depth(16, 200), MAX_SKETCH_DEPTH);
    }
}
