//! Typed errors of the disk-backed index.
//!
//! Everything that can go wrong between a stored index file and a query
//! answer is enumerated here instead of being squeezed through
//! `io::ErrorKind`: callers can distinguish a corrupt file (restore from a
//! replica) from an undersized memory budget (raise it) from a plain I/O
//! failure (retry or fail over) without parsing message strings.

use std::error::Error;
use std::fmt;
use std::io;

/// Errors raised by [`crate::pseudo_disk::DiskIndex`].
#[derive(Debug)]
pub enum IndexError {
    /// An underlying I/O operation failed (cause preserved).
    Io(io::Error),
    /// The file is not a readable index: wrong magic, impossible header
    /// fields, or a size inconsistent with its own header.
    Format {
        /// What was wrong.
        detail: String,
    },
    /// Stored data failed checksum verification — the file is corrupt (or
    /// the read path flipped bits in transit).
    Checksum {
        /// Which region failed (`"header"`, `"data"`, `"crc table"`).
        region: &'static str,
        /// Byte offset of the failing block within the file.
        offset: u64,
    },
    /// The memory budget cannot hold even the smallest section split.
    BudgetTooSmall {
        /// The budget that was given, in bytes.
        budget: u64,
        /// The densest finest-resolution section, in bytes.
        min_section_bytes: u64,
    },
    /// A query vector's dimension differs from the stored curve's.
    QueryDims {
        /// Dimension of the stored index.
        expected: usize,
        /// Dimension of the offending query.
        got: usize,
    },
    /// Strict mode only: a section stayed unreadable after every retry.
    /// (In non-strict mode the section is skipped and the batch degrades.)
    SectionLost {
        /// Index of the lost section under the batch's split.
        section: usize,
        /// Retries that were attempted before giving up.
        retries: u32,
        /// The final failure.
        source: Box<IndexError>,
    },
    /// Sharded strict mode only: every replica of a shard failed, so the
    /// shard's key range went unanswered. (In non-strict mode the shard is
    /// skipped and affected queries degrade.)
    ShardLost {
        /// Index of the lost shard in the shard plan.
        shard: usize,
        /// Replicas that were attempted before giving up.
        replicas_tried: usize,
        /// The last replica's failure.
        source: Box<IndexError>,
    },
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "index i/o error: {e}"),
            IndexError::Format { detail } => write!(f, "bad index file: {detail}"),
            IndexError::Checksum { region, offset } => {
                write!(f, "checksum mismatch in {region} at byte {offset}")
            }
            IndexError::BudgetTooSmall {
                budget,
                min_section_bytes,
            } => write!(
                f,
                "memory budget ({budget} B) below the smallest section split \
                 ({min_section_bytes} B)"
            ),
            IndexError::QueryDims { expected, got } => {
                write!(
                    f,
                    "query dimension mismatch: index has {expected}, query has {got}"
                )
            }
            IndexError::SectionLost {
                section,
                retries,
                source,
            } => write!(
                f,
                "section {section} unreadable after {retries} retries: {source}"
            ),
            IndexError::ShardLost {
                shard,
                replicas_tried,
                source,
            } => write!(
                f,
                "shard {shard} lost after {replicas_tried} replica(s): {source}"
            ),
        }
    }
}

impl Error for IndexError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IndexError::Io(e) => Some(e),
            IndexError::SectionLost { source, .. } | IndexError::ShardLost { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

impl IndexError {
    /// True for failures worth retrying: transient I/O conditions and
    /// checksum mismatches (a bad read of good data succeeds on re-read;
    /// genuinely corrupt data keeps failing and is then skipped or
    /// reported, depending on strictness).
    pub fn is_transient(&self) -> bool {
        match self {
            IndexError::Checksum { .. } => true,
            IndexError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::Other
            ),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_cause_preserved() {
        let inner = io::Error::new(io::ErrorKind::TimedOut, "disk went away");
        let e = IndexError::from(inner);
        assert!(e.is_transient());
        let src = e.source().expect("source");
        assert!(src.to_string().contains("disk went away"));
    }

    #[test]
    fn classification() {
        assert!(IndexError::Checksum {
            region: "data",
            offset: 42
        }
        .is_transient());
        assert!(!IndexError::Format {
            detail: "bad magic".into()
        }
        .is_transient());
        assert!(!IndexError::BudgetTooSmall {
            budget: 1,
            min_section_bytes: 2
        }
        .is_transient());
        assert!(!IndexError::Io(io::Error::new(io::ErrorKind::NotFound, "gone")).is_transient());
    }

    #[test]
    fn display_is_informative() {
        let e = IndexError::SectionLost {
            section: 3,
            retries: 2,
            source: Box::new(IndexError::Checksum {
                region: "data",
                offset: 8192,
            }),
        };
        let s = e.to_string();
        assert!(s.contains("section 3"), "{s}");
        assert!(s.contains("8192"), "{s}");
    }
}
