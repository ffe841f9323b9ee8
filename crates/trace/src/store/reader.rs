//! Bounded-memory streaming trace reader.

use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use super::codec::decode_frame;
use super::{StoreError, TraceMeta, MAGIC, VERSION};
use crate::fnv1a64;
use crate::{TraceRecord, WorkloadGen};

/// Frame header: payload_len u32 | records u32 | checksum u64.
const FRAME_HEADER_LEN: usize = 16;

fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    err: impl FnOnce() -> StoreError,
) -> Result<(), StoreError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(err()),
        Err(e) => Err(StoreError::Io(e)),
    }
}

fn read_u32(r: &mut impl Read, err: impl FnOnce() -> StoreError) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    read_exact_or(r, &mut b, err)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read, err: impl FnOnce() -> StoreError) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    read_exact_or(r, &mut b, err)?;
    Ok(u64::from_le_bytes(b))
}

fn bad_header() -> StoreError {
    StoreError::BadHeader("file ends inside the header".into())
}

/// Parses the header, leaving `r` positioned at the first frame. Returns
/// the metadata and the byte offset of frame 0.
fn read_header(r: &mut BufReader<File>) -> Result<(TraceMeta, u64), StoreError> {
    let mut magic = [0u8; 8];
    read_exact_or(r, &mut magic, bad_header)?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = read_u32(r, bad_header)?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let frame_len = read_u32(r, bad_header)?;
    if frame_len == 0 {
        return Err(StoreError::BadHeader("frame length is zero".into()));
    }
    let seed = read_u64(r, bad_header)?;
    let records = read_u64(r, bad_header)?;
    if records == u64::MAX {
        return Err(StoreError::BadHeader(
            "record count never patched (writer not finished)".into(),
        ));
    }
    let mut nlen = [0u8; 2];
    read_exact_or(r, &mut nlen, bad_header)?;
    let mut name = vec![0u8; usize::from(u16::from_le_bytes(nlen))];
    read_exact_or(r, &mut name, bad_header)?;
    let name = String::from_utf8(name)
        .map_err(|_| StoreError::BadHeader("trace name is not UTF-8".into()))?;
    let first_frame = r.stream_position()?;
    Ok((
        TraceMeta {
            name,
            seed,
            records,
            frame_len,
        },
        first_frame,
    ))
}

/// Reads frame `index`'s header + payload into `payload`/`records`,
/// validating the checksum and decoding. `Ok(false)` means clean EOF at a
/// frame boundary.
fn read_frame(
    r: &mut BufReader<File>,
    index: u64,
    frame_len: u32,
    payload: &mut Vec<u8>,
    records: &mut Vec<TraceRecord>,
) -> Result<bool, StoreError> {
    let mut first = [0u8; 1];
    if r.read(&mut first)? == 0 {
        return Ok(false);
    }
    let mut rest = [0u8; FRAME_HEADER_LEN - 1];
    read_exact_or(r, &mut rest, || StoreError::Truncated { frame: index })?;
    let mut hdr = [0u8; FRAME_HEADER_LEN];
    hdr[0] = first[0];
    hdr[1..].copy_from_slice(&rest);
    let payload_len = u32::from_le_bytes(hdr[0..4].try_into().unwrap());
    let count = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
    let checksum = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
    if count == 0 || count > frame_len {
        return Err(StoreError::FrameDecode {
            frame: index,
            detail: format!("record count {count} outside 1..={frame_len}"),
        });
    }
    payload.clear();
    payload.resize(payload_len as usize, 0);
    read_exact_or(r, payload, || StoreError::Truncated { frame: index })?;
    let found = fnv1a64(payload);
    if found != checksum {
        return Err(StoreError::ChecksumMismatch {
            frame: index,
            expected: checksum,
            found,
        });
    }
    decode_frame(payload, count, records).map_err(|detail| StoreError::FrameDecode {
        frame: index,
        detail,
    })?;
    Ok(true)
}

/// Replays a trace file as an infinite [`WorkloadGen`], holding at most one
/// decoded frame (plus its raw payload) in memory.
///
/// [`open`](StreamingTrace::open) performs a full validation pass —
/// checksums, decodability, header/frame record-count agreement — in
/// O(one frame) memory, so every corruption the format can express is
/// reported as a typed [`StoreError`] before the engine sees a single
/// record. After a clean open, the file is trusted: an I/O failure
/// mid-replay (disk yanked) panics with context rather than silently
/// changing results.
///
/// Like every generator in this crate the stream is infinite: reaching the
/// last record seeks back to frame 0 (the codec's per-frame delta reset
/// makes the rewind exact).
#[derive(Debug)]
pub struct StreamingTrace {
    path: PathBuf,
    reader: BufReader<File>,
    meta: TraceMeta,
    first_frame: u64,
    /// Decoded records of the current frame.
    frame: Vec<TraceRecord>,
    /// Index of the current frame's first record.
    frame_start: u64,
    /// Scratch buffer holding the current frame's raw payload.
    payload: Vec<u8>,
    /// Next index to serve out of `frame`.
    cursor: usize,
    /// Index of the next frame to read.
    next_frame: u64,
}

impl StreamingTrace {
    /// Opens and fully validates `path`.
    ///
    /// Fails with [`StoreError::EmptyTrace`] on a zero-record file: an
    /// empty trace cannot satisfy the infinite-generator contract.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let mut reader = BufReader::new(File::open(path)?);
        let (meta, first_frame) = read_header(&mut reader)?;
        // Validation pass: stream every frame once, counting records.
        let mut payload = Vec::new();
        let mut frame = Vec::new();
        let mut total: u64 = 0;
        let mut index: u64 = 0;
        while read_frame(&mut reader, index, meta.frame_len, &mut payload, &mut frame)? {
            total += frame.len() as u64;
            index += 1;
        }
        if total != meta.records {
            return Err(StoreError::CountMismatch {
                header: meta.records,
                found: total,
            });
        }
        if total == 0 {
            return Err(StoreError::EmptyTrace);
        }
        reader.seek(SeekFrom::Start(first_frame))?;
        Ok(StreamingTrace {
            path: path.to_path_buf(),
            reader,
            meta,
            first_frame,
            frame: Vec::new(),
            frame_start: 0,
            payload: Vec::new(),
            cursor: 0,
            next_frame: 0,
        })
    }

    /// Header metadata of the open trace.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Bytes of trace data currently resident: the decoded frame plus the
    /// raw payload scratch buffer. Used by tests to pin the
    /// bounded-memory guarantee; excludes the fixed-size `BufReader`
    /// block (8 KiB) and struct overhead.
    pub fn resident_bytes(&self) -> usize {
        self.frame.capacity() * std::mem::size_of::<TraceRecord>() + self.payload.capacity()
    }

    /// Loads the next frame, wrapping to frame 0 at EOF. Panics on
    /// I/O/corruption errors (the open-time validation pass already
    /// proved the file clean; see type docs).
    fn load_next_frame(&mut self) {
        self.frame_start += self.frame.len() as u64;
        let loaded = read_frame(
            &mut self.reader,
            self.next_frame,
            self.meta.frame_len,
            &mut self.payload,
            &mut self.frame,
        )
        .unwrap_or_else(|e| panic!("trace {} failed mid-replay: {e}", self.path.display()));
        if loaded {
            self.next_frame += 1;
        } else {
            // Wrap around: the per-frame delta reset makes this exact.
            self.rewind();
            self.load_next_frame();
            return;
        }
        self.cursor = 0;
    }

    /// Rewind to frame 0, as a fresh open would be.
    fn rewind(&mut self) {
        self.reader
            .seek(SeekFrom::Start(self.first_frame))
            .unwrap_or_else(|e| panic!("trace {} rewind failed: {e}", self.path.display()));
        self.next_frame = 0;
        self.frame.clear();
        self.frame_start = 0;
    }
}

impl WorkloadGen for StreamingTrace {
    fn name(&self) -> &str {
        &self.meta.name
    }

    fn next_record(&mut self) -> TraceRecord {
        if self.cursor >= self.frame.len() {
            self.load_next_frame();
        }
        let r = self.frame[self.cursor];
        self.cursor += 1;
        r
    }

    /// Seek past `n` records via frame arithmetic rather than replay: the
    /// stream wraps every `meta.records`, so the target is the current
    /// position plus `n`, modulo `records`, and whole frames before it
    /// are skipped without decoding their deltas one record at a time.
    fn skip_records(&mut self, n: u64) {
        let records = self.meta.records;
        let position = self.frame_start + self.cursor as u64;
        let mut remaining = (position % records + n % records) % records;
        // Restart from frame 0; the per-frame delta reset makes any frame
        // boundary an exact re-entry point.
        self.rewind();
        self.load_next_frame();
        while remaining >= self.frame.len() as u64 {
            remaining -= self.frame.len() as u64;
            self.load_next_frame();
        }
        self.cursor = remaining as usize;
    }
}

/// One-shot convenience: validates and materialises a whole trace file.
pub fn read_trace(path: &Path) -> Result<(TraceMeta, Vec<TraceRecord>), StoreError> {
    let mut reader = BufReader::new(File::open(path)?);
    let (meta, _) = read_header(&mut reader)?;
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    let mut all = Vec::with_capacity(meta.records.min(1 << 24) as usize);
    let mut index: u64 = 0;
    while read_frame(&mut reader, index, meta.frame_len, &mut payload, &mut frame)? {
        all.extend_from_slice(&frame);
        index += 1;
    }
    if all.len() as u64 != meta.records {
        return Err(StoreError::CountMismatch {
            header: meta.records,
            found: all.len() as u64,
        });
    }
    Ok((meta, all))
}
