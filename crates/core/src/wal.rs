//! Write-ahead log making inserts crash-safe.
//!
//! The WAL is a separate append-only file of self-delimiting records, one
//! per acknowledged insert: a [`WalRecord::Insert`] is appended and fsynced
//! before the insert returns, so a crash at any later point replays it
//! into the overlay. Merges log nothing: a merge publishes an immutable
//! generation whose root slot names the highest LSN it covers, and then
//! truncates the log (see [`crate::durable`]).
//!
//! Each record is one `write_at` call, so every record boundary is a write
//! boundary, which is exactly the granularity the crash-point matrix kills
//! at. A torn tail (crash mid-append) fails its CRC and is truncated away
//! at open; everything before it is intact by construction. The frame and
//! the torn-tail scan are [`s3_obs::frame`].
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
}

impl WalRecord {
    fn payload(&self) -> Vec<u8> {
        let WalRecord::Insert { fp, id, tc } = self;
        let mut p = Vec::with_capacity(4 + fp.len() + 8);
        p.extend_from_slice(&(fp.len() as u32).to_le_bytes());
        p.extend_from_slice(fp);
        p.extend_from_slice(&id.to_le_bytes());
        p.extend_from_slice(&tc.to_le_bytes());
        p
    }

    fn decode(kind: u8, payload: &[u8]) -> Option<WalRecord> {
        let u32_at = |o: usize| -> Option<u32> {
            Some(u32::from_le_bytes(payload.get(o..o + 4)?.try_into().ok()?))
        };
        if kind != KIND_INSERT {
            return None;
        }
        let fp_len = u32_at(0)? as usize;
        let fp = payload.get(4..4 + fp_len)?.to_vec();
        let id = u32_at(4 + fp_len)?;
        let tc = u32_at(8 + fp_len)?;
        (payload.len() == 12 + fp_len).then_some(WalRecord::Insert { fp, id, tc })
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
    /// `checkpoint_lsn` is the highest LSN the live generation covers —
    /// LSNs resume strictly above both it and anything found in the log.
    pub fn open(storage: S, checkpoint_lsn: u64) -> io::Result<(Wal<S>, RecoveredRecords)> {
        let mut bytes = vec![0u8; storage.len()? as usize];
        storage.read_at(0, &mut bytes)?;
        let mut max_lsn = checkpoint_lsn;
        // An unknown kind or malformed payload is treated as torn.
        let scan = frame::scan(&bytes, |body| {
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
        let frame = frame::encode(&[&[KIND_INSERT], &lsn.to_le_bytes(), &record.payload()]);
        self.storage.write_at(self.end, &frame)?;
        self.end += frame.len() as u64;
        self.next_lsn += 1;
        CoreMetrics::get().wal_appends.inc();
        Ok(lsn)
    }

    /// Makes every appended record durable.
    pub fn sync(&self) -> io::Result<()> {
        self.storage.sync()?;
        CoreMetrics::get().wal_fsyncs.inc();
        Ok(())
    }

    /// Discards the log after its effects became durable elsewhere. LSNs
    /// keep climbing — the published root's covered LSN carries them across.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.storage.truncate(0)?;
        self.storage.sync()?;
        self.end = 0;
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
        (0..4u8)
            .map(|i| WalRecord::Insert {
                fp: vec![i; 4 + 20 * usize::from(i)],
                id: u32::from(i) * 7,
                tc: 99 + u32::from(i),
            })
            .collect()
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
