//! The `drishti-journal/v1` per-cell completion journal.
//!
//! A journaled sweep appends one checksummed entry per *completed* cell to
//! `<report>.journal` as the cell finishes. After a crash (or a SIGKILL),
//! re-running the sweep with `--resume` replays the journal's valid
//! prefix: journaled cells are taken as-is, only the unfinished remainder
//! is simulated, and the final report is byte-identical to an
//! uninterrupted run (pinned by `tests/sweep.rs` and the ci.sh
//! kill-and-resume gate).
//!
//! ```text
//! header  magic "drjrnl01" | version u32 | jobs_hash u64 | job_count u64
//! entry*  job_id u64 | payload_len u64 | fnv1a64 checksum u64 | payload
//! ```
//!
//! All integers are little-endian; the payload is the cell's
//! [`JobOutput`] in the snapshot codec. `jobs_hash` fingerprints the job
//! set (ids, labels, seeds and each cell's full kind and run
//! configuration), so a journal can never be resumed against a different
//! sweep. A torn or corrupt *tail* is the expected crash
//! artifact and is silently ignored — the valid prefix is what counts —
//! but a bad header is a hard, typed [`JournalError`].

use super::{JobOutput, SweepJob};
use crate::runner::RunResult;
use drishti_trace::fnv1a64;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema identifier of the journal format.
pub const SCHEMA: &str = "drishti-journal/v1";

/// File magic (first 8 bytes of every journal file).
pub const MAGIC: [u8; 8] = *b"drjrnl01";

/// Journal version written by this code.
pub const VERSION: u32 = 1;

/// Header length: magic (8) + version (4) + jobs hash (8) + job count (8).
const HEADER_LEN: usize = 28;

/// Entry prelude length: job id (8) + payload length (8) + checksum (8).
const ENTRY_PRELUDE: usize = 24;

/// The journal path for a report path (`x.json` → `x.json.journal`).
pub fn journal_path(report_path: &Path) -> PathBuf {
    let mut p = report_path.as_os_str().to_owned();
    p.push(".journal");
    PathBuf::from(p)
}

/// Everything that can go wrong opening or resuming a journal. (A corrupt
/// tail is not an error — it is the crash artifact resume exists for.)
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the `drjrnl01` magic.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The file's journal version is not one this code reads.
    UnsupportedVersion(u32),
    /// The journal belongs to a different job set (other labels, seeds,
    /// cell configurations or cell count) — resuming would attribute
    /// results to the wrong cells.
    JobSetMismatch {
        /// Hash stored in the journal header.
        stored: u64,
        /// Hash of the sweep being resumed.
        expected: u64,
    },
    /// The header itself is malformed or incomplete.
    BadHeader(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadMagic { found } => write!(
                f,
                "not a {SCHEMA} file (magic {found:02x?}, expected {MAGIC:02x?})"
            ),
            JournalError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported {SCHEMA} version {v} (this build reads {VERSION})"
                )
            }
            JournalError::JobSetMismatch { stored, expected } => write!(
                f,
                "journal belongs to a different sweep (job-set hash {stored:#018x}, \
                 this sweep {expected:#018x}); delete it or re-run without --resume"
            ),
            JournalError::BadHeader(detail) => write!(f, "malformed journal header: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A deterministic fingerprint of a sweep's job set: every job's id,
/// label, seed and [`SweepJob::key`] (its full kind and run
/// configuration). Labels carry no run configuration, so a journal of the
/// same cells at another `--accesses` must differ here, or a resume
/// would merge outputs simulated under the old configuration.
pub fn jobs_hash(jobs: &[SweepJob]) -> u64 {
    let mut desc = String::new();
    for j in jobs {
        desc.push_str(&format!("{}|{}|{:#x}|{}\n", j.id, j.label, j.seed, j.key()));
    }
    fnv1a64(desc.as_bytes())
}

fn encode_output(out: &JobOutput) -> Vec<u8> {
    use drishti_noc::snap::{Persist, StateWriter};
    let mut w = StateWriter::new();
    match out {
        JobOutput::Run(r) => {
            w.put_u8(0);
            r.save(&mut w);
        }
        JobOutput::AloneIpcs(a) => {
            w.put_u8(1);
            a.save(&mut w);
        }
    }
    w.into_bytes()
}

fn decode_output(bytes: &[u8]) -> Result<JobOutput, drishti_noc::snap::SnapError> {
    use drishti_noc::snap::{Persist, SnapError, StateReader};
    let mut r = StateReader::new(bytes);
    let out = match r.take_u8("job output tag")? {
        0 => {
            let mut run = RunResult::default();
            run.load(&mut r)?;
            JobOutput::Run(Arc::new(run))
        }
        1 => {
            let mut alone: Vec<f64> = Vec::new();
            alone.load(&mut r)?;
            JobOutput::AloneIpcs(alone)
        }
        other => {
            return Err(SnapError::Invalid {
                what: "job output tag",
                detail: format!("unknown variant {other}"),
            })
        }
    };
    if r.remaining() != 0 {
        return Err(SnapError::Invalid {
            what: "job output",
            detail: format!("{} trailing bytes after output", r.remaining()),
        });
    }
    Ok(out)
}

/// Appends completed-cell entries to a journal file. Each entry is one
/// `write_all` followed by `sync_data`, so a crash leaves at most one torn
/// entry — at the tail, where the reader ignores it.
#[derive(Debug)]
pub struct JournalWriter {
    file: fs::File,
}

impl JournalWriter {
    /// Create (truncating) a journal for a sweep of `job_count` cells with
    /// job-set hash `hash`.
    pub fn create(path: &Path, hash: u64, job_count: u64) -> Result<Self, JournalError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        let mut file = fs::File::create(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&hash.to_le_bytes());
        header.extend_from_slice(&job_count.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(JournalWriter { file })
    }

    /// Open an existing journal for appending after a resume. The header
    /// must match `hash` and `job_count` — callers should have read the
    /// journal with [`read_journal`] first, which performs the same check.
    pub fn open_append(path: &Path, hash: u64, job_count: u64) -> Result<Self, JournalError> {
        check_header(path, hash, job_count)?;
        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Append one completed cell. An `Err` means the entry may be torn;
    /// callers should stop journaling (the sweep itself continues — a
    /// journal is an optimisation for the *next* run, never a correctness
    /// requirement for this one).
    pub fn append(&mut self, id: usize, out: &JobOutput) -> std::io::Result<()> {
        let payload = encode_output(out);
        let mut buf = Vec::with_capacity(ENTRY_PRELUDE + payload.len());
        buf.extend_from_slice(&(id as u64).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        self.file.write_all(&buf)?;
        self.file.sync_data()
    }
}

fn check_header(path: &Path, expected_hash: u64, job_count: u64) -> Result<(), JournalError> {
    let mut header = [0u8; HEADER_LEN];
    let mut f = fs::File::open(path)?;
    let mut read = 0;
    while read < HEADER_LEN {
        match f.read(&mut header[read..])? {
            0 => {
                return Err(JournalError::BadHeader(format!(
                    "file is {read} bytes, the header needs {HEADER_LEN}"
                )))
            }
            n => read += n,
        }
    }
    if header[..8] != MAGIC {
        return Err(JournalError::BadMagic {
            found: header[..8].try_into().expect("8 bytes"),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(JournalError::UnsupportedVersion(version));
    }
    let stored = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    if stored != expected_hash {
        return Err(JournalError::JobSetMismatch {
            stored,
            expected: expected_hash,
        });
    }
    let stored_count = u64::from_le_bytes(header[20..28].try_into().expect("8 bytes"));
    if stored_count != job_count {
        return Err(JournalError::BadHeader(format!(
            "journal covers {stored_count} cells, this sweep has {job_count}"
        )));
    }
    Ok(())
}

/// Read the valid prefix of a journal: completed `(job id, output)` pairs
/// in append order. Stops silently at the first torn or corrupt entry
/// (the crash artifact), and skips entries whose id is out of range.
pub fn read_journal(
    path: &Path,
    expected_hash: u64,
    job_count: u64,
) -> Result<Vec<(usize, JobOutput)>, JournalError> {
    check_header(path, expected_hash, job_count)?;
    let bytes = fs::read(path)?;
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while bytes.len() - pos >= ENTRY_PRELUDE {
        let id = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let len =
            u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("8 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 16..pos + 24].try_into().expect("8 bytes"));
        let payload_at = pos + ENTRY_PRELUDE;
        if len > bytes.len() - payload_at {
            break; // torn tail
        }
        let payload = &bytes[payload_at..payload_at + len];
        if fnv1a64(payload) != sum {
            break; // corrupt tail
        }
        let Ok(output) = decode_output(payload) else {
            break; // undecodable tail
        };
        if (id as usize) < job_count as usize {
            out.push((id as usize, output));
        }
        pos = payload_at + len;
    }
    Ok(out)
}

/// Remove the journal of a cleanly completed sweep. A missing journal is
/// fine; only unexpected I/O failures surface.
pub fn remove_on_success(report_path: &Path) -> std::io::Result<()> {
    match fs::remove_file(journal_path(report_path)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CoreResult;

    fn sample_run(seed: u64) -> JobOutput {
        JobOutput::Run(Arc::new(RunResult {
            policy: format!("p{seed}"),
            per_core: vec![CoreResult {
                instructions: seed,
                cycles: seed * 2,
                accesses: seed * 3,
                llc_misses: seed / 2,
            }],
            diagnostics: vec![("hits".to_string(), seed)],
            ..RunResult::default()
        }))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("drishti-journal-test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn entries_round_trip_in_order() {
        let path = tmp("round_trip.journal");
        let mut w = JournalWriter::create(&path, 0xfeed, 4).unwrap();
        w.append(2, &sample_run(9)).unwrap();
        w.append(0, &JobOutput::AloneIpcs(vec![1.5, 2.5])).unwrap();
        drop(w);
        let got = read_journal(&path, 0xfeed, 4).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 2);
        assert_eq!(got[0].1.unwrap_run().policy, "p9");
        assert_eq!(got[1].1.unwrap_alone(), &[1.5, 2.5]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_ignored_corrupt_header_is_not() {
        let path = tmp("torn.journal");
        let mut w = JournalWriter::create(&path, 1, 4).unwrap();
        w.append(0, &sample_run(3)).unwrap();
        w.append(1, &sample_run(4)).unwrap();
        drop(w);
        let full = fs::read(&path).unwrap();

        // Cut the last entry mid-payload: the first entry must survive.
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let got = read_journal(&path, 1, 4).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);

        // Flip a byte in the second entry's payload: same outcome.
        let mut corrupt = full.clone();
        let n = corrupt.len();
        corrupt[n - 3] ^= 0xff;
        fs::write(&path, &corrupt).unwrap();
        assert_eq!(read_journal(&path, 1, 4).unwrap().len(), 1);

        // A corrupt header is a typed refusal, not a silent empty resume.
        let mut bad = full.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_journal(&path, 1, 4),
            Err(JournalError::BadMagic { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn job_set_mismatch_is_refused() {
        let path = tmp("mismatch.journal");
        JournalWriter::create(&path, 7, 3).unwrap();
        match read_journal(&path, 8, 3) {
            Err(JournalError::JobSetMismatch { stored, expected }) => {
                assert_eq!((stored, expected), (7, 8));
            }
            other => panic!("expected JobSetMismatch, got {other:?}"),
        }
        assert!(matches!(
            read_journal(&path, 7, 4),
            Err(JournalError::BadHeader(_))
        ));
        assert!(matches!(
            JournalWriter::open_append(&path, 8, 3),
            Err(JournalError::JobSetMismatch { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn jobs_hash_tracks_labels_and_seeds() {
        let mut jobs = vec![SweepJob {
            id: 0,
            label: "a".to_string(),
            seed: 1,
            rc: crate::runner::RunConfig::quick(4),
            kind: super::super::JobKind::AloneIpcs {
                mix: drishti_trace::mix::Mix::homogeneous(
                    drishti_trace::presets::Benchmark::Gcc,
                    4,
                    1,
                ),
            },
        }];
        let h1 = jobs_hash(&jobs);
        jobs[0].label = "b".to_string();
        let h2 = jobs_hash(&jobs);
        assert_ne!(h2, h1);
        // Same ids, labels and seeds under another run configuration.
        jobs[0].rc.accesses_per_core += 1;
        assert_ne!(jobs_hash(&jobs), h2);
    }

    #[test]
    fn remove_on_success_is_idempotent() {
        let report = tmp("clean.json");
        let journal = journal_path(&report);
        assert_eq!(journal, tmp("clean.json.journal"));
        fs::write(&journal, b"x").unwrap();
        remove_on_success(&report).unwrap();
        assert!(!journal.exists());
        remove_on_success(&report).unwrap();
    }
}
