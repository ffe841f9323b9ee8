//! The `drishti-trace/v1` on-disk trace container.
//!
//! The paper's methodology is trace-driven; this module makes traces a
//! *storage* concern instead of a RAM-only one. A trace file is a small
//! header followed by fixed-size **frames** of delta+varint-encoded
//! [`TraceRecord`]s, each guarded by a checksum:
//!
//! ```text
//! header   magic "drtrace1" | version u32 | frame_len u32 | seed u64
//!          | record_count u64 | name_len u16 | name bytes
//! frame*   payload_len u32 | records u32 | fnv1a64 checksum u64 | payload
//! ```
//!
//! All integers are little-endian. Within a frame the codec is
//! self-contained (delta state resets per frame), so frames decode
//! independently — that is what makes bounded-memory streaming and
//! rewinding possible. See DESIGN.md §12 for the rationale and the exact
//! byte layout.
//!
//! * [`TraceWriter`] streams records out (one frame buffered at a time);
//! * [`StreamingTrace`] replays a file as a [`WorkloadGen`]
//!   holding at most one decoded frame in memory, bit-identical to the
//!   generator that recorded it (pinned by `tests/trace_store.rs`);
//! * [`read_trace`] / [`write_trace`] are the one-shot conveniences.
//!
//! Every malformed input surfaces as a typed [`StoreError`] naming the
//! offending frame — corruption never panics.
//!
//! [`TraceRecord`]: crate::TraceRecord
//! [`WorkloadGen`]: crate::WorkloadGen

pub(crate) mod codec;
mod reader;
mod writer;

pub use reader::{read_trace, StreamingTrace};
pub use writer::{write_trace, TraceWriter};

use std::fmt;

/// Schema identifier of the container format.
pub const SCHEMA: &str = "drishti-trace/v1";

/// File magic (first 8 bytes of every trace file).
pub const MAGIC: [u8; 8] = *b"drtrace1";

/// Container version written by this code.
pub const VERSION: u32 = 1;

/// Default records per frame. 4096 records ≈ 96 KiB decoded — small
/// enough that a streaming reader stays cache-friendly, large enough that
/// per-frame overhead (16-byte frame header) is negligible.
pub const DEFAULT_FRAME_LEN: u32 = 4096;

/// File extension used by convention (`<prefix>.coreNN.drtr`).
pub const EXTENSION: &str = "drtr";

/// Byte offset of the `record_count` field in the header (patched by
/// [`TraceWriter::finish`]): magic (8) + version (4) + frame_len (4) +
/// seed (8).
pub(crate) const COUNT_OFFSET: u64 = 24;

/// Trace metadata carried in the file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Benchmark-style workload name (e.g. `"mcf"`).
    pub name: String,
    /// Sim-point seed the trace was generated with.
    pub seed: u64,
    /// Total records in the file.
    pub records: u64,
    /// Records per full frame (the last frame may be shorter).
    pub frame_len: u32,
}

/// Everything that can go wrong reading or writing a trace file.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (open, read, write, seek).
    Io(std::io::Error),
    /// The file does not start with the `drtrace1` magic.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The file's container version is not one this code reads.
    UnsupportedVersion(u32),
    /// The header itself is malformed (zero frame length, bad name).
    BadHeader(String),
    /// The file ends in the middle of frame `frame` (0-based).
    Truncated {
        /// Index of the incomplete frame.
        frame: u64,
    },
    /// Frame `frame`'s payload does not match its stored checksum.
    ChecksumMismatch {
        /// Index of the corrupt frame.
        frame: u64,
        /// Checksum stored in the frame header.
        expected: u64,
        /// Checksum computed over the payload actually read.
        found: u64,
    },
    /// Frame `frame`'s payload failed to decode (overlong varint, length
    /// mismatch) despite a matching checksum.
    FrameDecode {
        /// Index of the undecodable frame.
        frame: u64,
        /// What the decoder tripped over.
        detail: String,
    },
    /// The frames hold a different record total than the header promises.
    CountMismatch {
        /// Record count from the header.
        header: u64,
        /// Records actually present across all frames.
        found: u64,
    },
    /// The file holds zero records but was asked to act as an (infinite)
    /// workload generator.
    EmptyTrace,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trace store I/O error: {e}"),
            StoreError::BadMagic { found } => write!(
                f,
                "not a {SCHEMA} file: bad magic {found:02x?} (want {MAGIC:02x?})"
            ),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported {SCHEMA} version {v} (this build reads {VERSION})"
                )
            }
            StoreError::BadHeader(d) => write!(f, "malformed {SCHEMA} header: {d}"),
            StoreError::Truncated { frame } => {
                write!(f, "truncated trace: file ends inside frame {frame}")
            }
            StoreError::ChecksumMismatch {
                frame,
                expected,
                found,
            } => write!(
                f,
                "corrupt trace: frame {frame} checksum {found:#018x} != stored {expected:#018x}"
            ),
            StoreError::FrameDecode { frame, detail } => {
                write!(f, "corrupt trace: frame {frame} undecodable: {detail}")
            }
            StoreError::CountMismatch { header, found } => write!(
                f,
                "corrupt trace: header promises {header} records, frames hold {found}"
            ),
            StoreError::EmptyTrace => {
                write!(f, "trace holds zero records; cannot replay an empty trace")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
