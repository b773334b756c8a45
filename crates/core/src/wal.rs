//! Write-ahead log making overlay merges and inserts crash-safe.
//!
//! The WAL is a separate append-only file of self-delimiting records.
//! Every mutation of the durable index is logged *and fsynced* before it
//! is acknowledged or applied:
//!
//! * an insert is acknowledged only after its [`WalRecord::Insert`] is on
//!   disk — a crash at any later point replays it into the overlay;
//! * a merge writes [`WalRecord::MergeBegin`], every page image, then
//!   [`WalRecord::MergeCommit`], and fsyncs **before** touching a single
//!   page of the index file. Recovery is then mechanical: a commit record
//!   in the log means the merge logically happened — redo the page images
//!   (idempotent, whole-page writes); no commit record means it never
//!   happened — discard the images and keep the overlay.
//!
//! Each record is one `write_at` call, so every record boundary is a write
//! boundary, which is exactly the granularity the crash-point matrix kills
//! at. A torn tail (crash mid-append) fails its CRC and is truncated away
//! at open; everything before it is intact by construction. The frame and
//! the torn-tail scan are [`s3_obs::frame`] (layout [`frame::WAL`]), the
//! codec the telemetry segment store uses too.
//!
//! ```text
//! record: frame_len u32 | kind u8 | lsn u64 | payload | crc u32
//!         frame_len = 1 + 8 + payload_len + 4
//!         crc over kind | lsn | payload
//! ```

use std::io;

use crate::metrics::CoreMetrics;
use crate::storage::WritableStorage;
use s3_obs::frame;

const KIND_INSERT: u8 = 1;
const KIND_MERGE_BEGIN: u8 = 2;
const KIND_PAGE_IMAGE: u8 = 3;
const KIND_MERGE_COMMIT: u8 = 4;

/// One logical WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// An acknowledged overlay insert.
    Insert {
        /// Fingerprint bytes.
        fp: Vec<u8>,
        /// Video id.
        id: u32,
        /// Time code.
        tc: u32,
    },
    /// A merge is starting: the shape of the index that will replace the
    /// current generation.
    MergeBegin {
        /// Generation the merge will produce.
        generation: u64,
        /// Data pages of the new index.
        n_pages: u64,
        /// Logical byte length of the new serialized index.
        data_len: u64,
    },
    /// Full image of one data page of the pending merge.
    PageImage {
        /// Target page number in the page file (1-based; 0 is meta).
        page_id: u64,
        /// Complete page payload.
        payload: Vec<u8>,
    },
    /// The merge is durable: all its page images precede this record.
    MergeCommit {
        /// Generation being committed.
        generation: u64,
    },
}

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Insert { .. } => KIND_INSERT,
            WalRecord::MergeBegin { .. } => KIND_MERGE_BEGIN,
            WalRecord::PageImage { .. } => KIND_PAGE_IMAGE,
            WalRecord::MergeCommit { .. } => KIND_MERGE_COMMIT,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            WalRecord::Insert { fp, id, tc } => {
                let mut p = Vec::with_capacity(4 + fp.len() + 8);
                p.extend_from_slice(&(fp.len() as u32).to_le_bytes());
                p.extend_from_slice(fp);
                p.extend_from_slice(&id.to_le_bytes());
                p.extend_from_slice(&tc.to_le_bytes());
                p
            }
            WalRecord::MergeBegin {
                generation,
                n_pages,
                data_len,
            } => {
                let mut p = Vec::with_capacity(24);
                p.extend_from_slice(&generation.to_le_bytes());
                p.extend_from_slice(&n_pages.to_le_bytes());
                p.extend_from_slice(&data_len.to_le_bytes());
                p
            }
            WalRecord::PageImage { page_id, payload } => {
                let mut p = Vec::with_capacity(8 + payload.len());
                p.extend_from_slice(&page_id.to_le_bytes());
                p.extend_from_slice(payload);
                p
            }
            WalRecord::MergeCommit { generation } => generation.to_le_bytes().to_vec(),
        }
    }

    fn decode(kind: u8, payload: &[u8]) -> Option<WalRecord> {
        let u32_at = |o: usize| -> Option<u32> {
            Some(u32::from_le_bytes(payload.get(o..o + 4)?.try_into().ok()?))
        };
        let u64_at = |o: usize| -> Option<u64> {
            Some(u64::from_le_bytes(payload.get(o..o + 8)?.try_into().ok()?))
        };
        match kind {
            KIND_INSERT => {
                let fp_len = u32_at(0)? as usize;
                let fp = payload.get(4..4 + fp_len)?.to_vec();
                let id = u32_at(4 + fp_len)?;
                let tc = u32_at(8 + fp_len)?;
                (payload.len() == 12 + fp_len).then_some(WalRecord::Insert { fp, id, tc })
            }
            KIND_MERGE_BEGIN => (payload.len() == 24).then(|| WalRecord::MergeBegin {
                generation: u64_at(0).unwrap_or(0),
                n_pages: u64_at(8).unwrap_or(0),
                data_len: u64_at(16).unwrap_or(0),
            }),
            KIND_PAGE_IMAGE => Some(WalRecord::PageImage {
                page_id: u64_at(0)?,
                payload: payload.get(8..)?.to_vec(),
            }),
            KIND_MERGE_COMMIT => (payload.len() == 8).then(|| WalRecord::MergeCommit {
                generation: u64_at(0).unwrap_or(0),
            }),
            _ => None,
        }
    }
}

/// Records recovered from the log on open, each with its LSN.
pub type RecoveredRecords = Vec<(u64, WalRecord)>;

/// The write-ahead log over one append-only storage.
#[derive(Debug)]
pub struct Wal<S> {
    storage: S,
    /// Append offset (end of the valid prefix).
    end: u64,
    /// LSN the next append will carry.
    next_lsn: u64,
}

impl<S: WritableStorage> Wal<S> {
    /// Opens the log: scans the valid record prefix, truncates any torn
    /// tail, and returns the surviving records with their LSNs.
    /// `checkpoint_lsn` is the page file's durable watermark — LSNs resume
    /// strictly above both it and anything found in the log.
    pub fn open(storage: S, checkpoint_lsn: u64) -> io::Result<(Wal<S>, RecoveredRecords)> {
        let mut bytes = vec![0u8; storage.len()? as usize];
        storage.read_at(0, &mut bytes)?;
        let mut max_lsn = checkpoint_lsn;
        // An unknown kind or malformed payload is treated as torn.
        let scan = frame::WAL.scan(&bytes, |body| {
            let (kind, rest) = body.split_first()?;
            let lsn = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
            let record = WalRecord::decode(*kind, &rest[8..])?;
            max_lsn = max_lsn.max(lsn);
            Some((lsn, record))
        });
        let (records, off) = (scan.records, scan.valid_len as u64);
        if scan.torn {
            // Drop the torn tail so the next append starts on a clean
            // record boundary.
            storage.truncate(off)?;
        }
        CoreMetrics::get().wal_lag_bytes.set(off as f64);
        Ok((
            Wal {
                storage,
                end: off,
                next_lsn: max_lsn + 1,
            },
            records,
        ))
    }

    /// Appends one record as a single write; returns its LSN. Not durable
    /// until [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let lsn = self.next_lsn;
        let frame = frame::WAL.encode(&[&[record.kind()], &lsn.to_le_bytes(), &record.payload()]);
        self.storage.write_at(self.end, &frame)?;
        self.end += frame.len() as u64;
        self.next_lsn += 1;
        let m = CoreMetrics::get();
        m.wal_appends.inc();
        m.wal_lag_bytes.set(self.end as f64);
        Ok(lsn)
    }

    /// Makes every appended record durable.
    pub fn sync(&self) -> io::Result<()> {
        self.storage.sync()?;
        CoreMetrics::get().wal_fsyncs.inc();
        Ok(())
    }

    /// Discards the log after its effects became durable elsewhere. LSNs
    /// keep climbing — the page file's `checkpoint_lsn` carries them across.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.storage.truncate(0)?;
        self.storage.sync()?;
        self.end = 0;
        CoreMetrics::get().wal_lag_bytes.set(0.0);
        Ok(())
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.end
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.end == 0
    }

    /// LSN the next append will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SharedMemStorage;

    fn sample() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                fp: vec![1, 2, 3, 4],
                id: 7,
                tc: 99,
            },
            WalRecord::MergeBegin {
                generation: 2,
                n_pages: 3,
                data_len: 1000,
            },
            WalRecord::PageImage {
                page_id: 1,
                payload: vec![0xAA; 100],
            },
            WalRecord::MergeCommit { generation: 2 },
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let mem = SharedMemStorage::new();
        let (mut wal, found) = Wal::open(mem.clone(), 0).unwrap();
        assert!(found.is_empty());
        let mut lsns = Vec::new();
        for r in sample() {
            lsns.push(wal.append(&r).unwrap());
        }
        wal.sync().unwrap();
        assert_eq!(lsns, vec![1, 2, 3, 4], "LSNs are dense and ascending");
        drop(wal);
        let (wal, found) = Wal::open(mem, 0).unwrap();
        assert_eq!(found.len(), 4);
        assert_eq!(
            found.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(
            found.into_iter().map(|(_, r)| r).collect::<Vec<_>>(),
            sample()
        );
        assert_eq!(wal.next_lsn(), 5);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mem = SharedMemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), 0).unwrap();
        for r in sample() {
            wal.append(&r).unwrap();
        }
        let clean_len = wal.len();
        // Simulate a torn append: half a record of garbage at the end.
        mem.write_at(clean_len, &[0x55; 7]).unwrap();
        drop(wal);
        let (wal, found) = Wal::open(mem.clone(), 0).unwrap();
        assert_eq!(found.len(), 4, "intact prefix survives");
        assert_eq!(wal.len(), clean_len, "torn tail truncated");
        assert_eq!(mem.snapshot().len() as u64, clean_len);
    }

    #[test]
    fn corrupt_mid_record_cuts_the_log_there() {
        let mem = SharedMemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), 0).unwrap();
        let mut offsets = vec![0u64];
        for r in sample() {
            wal.append(&r).unwrap();
            offsets.push(wal.len());
        }
        // Flip a bit inside record 3 (0-based 2).
        mem.write_at(offsets[2] + 10, &[0xFF]).unwrap();
        drop(wal);
        let (wal, found) = Wal::open(mem, 0).unwrap();
        assert_eq!(found.len(), 2, "records before the corruption survive");
        assert_eq!(wal.len(), offsets[2]);
    }

    #[test]
    fn checkpoint_empties_log_and_lsns_continue() {
        let mem = SharedMemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), 0).unwrap();
        for r in sample() {
            wal.append(&r).unwrap();
        }
        wal.checkpoint().unwrap();
        assert!(wal.is_empty());
        let lsn = wal
            .append(&WalRecord::Insert {
                fp: vec![9],
                id: 1,
                tc: 2,
            })
            .unwrap();
        assert_eq!(lsn, 5, "LSNs keep climbing across a checkpoint");
        drop(wal);
        // Reopen with the checkpoint watermark: LSNs resume above it even
        // when the log is empty.
        let (wal2, found) = Wal::open(mem.clone(), 5).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(wal2.next_lsn(), 6);
    }
}
