//! Streaming trace writer.

use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

use super::codec::DeltaChain;
use super::{StoreError, COUNT_OFFSET, DEFAULT_FRAME_LEN, MAGIC, VERSION};
use crate::fnv1a64;
use crate::TraceRecord;

/// Streams [`TraceRecord`]s into a `drishti-trace/v1` file, buffering at
/// most one encoded frame in memory.
///
/// The header's record count is written as a placeholder and patched on
/// [`finish`](TraceWriter::finish) — a writer that is dropped without
/// `finish` leaves a file whose count mismatch is caught by the reader's
/// validation pass, so half-written traces can never replay silently.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    frame_len: u32,
    /// The open frame: its records so far, encoded, and their count.
    payload: Vec<u8>,
    pending: u32,
    chain: DeltaChain,
    written: u64,
}

impl TraceWriter {
    /// Creates `path` (truncating any existing file) with the default
    /// frame length and writes the header for a trace named `name` from
    /// seed `seed`.
    pub fn create(path: &Path, name: &str, seed: u64) -> Result<Self, StoreError> {
        Self::with_frame_len(path, name, seed, DEFAULT_FRAME_LEN)
    }

    /// As [`create`](TraceWriter::create) with an explicit records-per-frame.
    pub fn with_frame_len(
        path: &Path,
        name: &str,
        seed: u64,
        frame_len: u32,
    ) -> Result<Self, StoreError> {
        if frame_len == 0 {
            return Err(StoreError::BadHeader("frame length must be > 0".into()));
        }
        if name.len() > usize::from(u16::MAX) {
            return Err(StoreError::BadHeader(format!(
                "trace name too long ({} bytes)",
                name.len()
            )));
        }
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&frame_len.to_le_bytes())?;
        out.write_all(&seed.to_le_bytes())?;
        // Record count placeholder at COUNT_OFFSET, patched by finish().
        out.write_all(&u64::MAX.to_le_bytes())?;
        out.write_all(&(name.len() as u16).to_le_bytes())?;
        out.write_all(name.as_bytes())?;
        Ok(TraceWriter {
            out,
            frame_len,
            payload: Vec::new(),
            pending: 0,
            chain: DeltaChain::default(),
            written: 0,
        })
    }

    /// Appends one record, flushing a frame to disk when full.
    pub fn push(&mut self, rec: TraceRecord) -> Result<(), StoreError> {
        self.chain.encode(&rec, &mut self.payload);
        self.pending += 1;
        if self.pending == self.frame_len {
            self.flush_frame()?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<(), StoreError> {
        if self.pending == 0 {
            return Ok(());
        }
        self.out
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&self.pending.to_le_bytes())?;
        self.out.write_all(&fnv1a64(&self.payload).to_le_bytes())?;
        self.out.write_all(&self.payload)?;
        self.written += u64::from(self.pending);
        self.payload.clear();
        self.pending = 0;
        // Every frame is its own delta chain (see `codec`).
        self.chain = DeltaChain::default();
        Ok(())
    }

    /// Flushes the tail frame, patches the header record count and syncs
    /// the file. Returns the total records written.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        self.flush_frame()?;
        let total = self.written;
        self.out.seek(SeekFrom::Start(COUNT_OFFSET))?;
        self.out.write_all(&total.to_le_bytes())?;
        self.out.flush()?;
        Ok(total)
    }
}

/// One-shot convenience: writes `records` to `path` in a single call.
pub fn write_trace(
    path: &Path,
    name: &str,
    seed: u64,
    records: &[TraceRecord],
) -> Result<u64, StoreError> {
    let mut w = TraceWriter::create(path, name, seed)?;
    for &r in records {
        w.push(r)?;
    }
    w.finish()
}
