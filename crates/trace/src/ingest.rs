//! ChampSim trace ingestion.
//!
//! The paper's evaluation runs on ChampSim, whose native trace format is a
//! raw concatenation of fixed-size 64-byte `input_instr` records (the
//! published traces add xz/gz compression on top; this adapter consumes the
//! decompressed raw framing):
//!
//! ```text
//! offset  field                        type
//! 0       ip                           u64 (little-endian)
//! 8       is_branch                    u8  (0 or 1)
//! 9       branch_taken                 u8  (0 or 1)
//! 10      destination_registers        u8 × 2
//! 12      source_registers             u8 × 4
//! 16      destination_memory           u64 × 2 (store addresses; 0 = unused)
//! 32      source_memory                u64 × 4 (load addresses; 0 = unused)
//! ```
//!
//! [`decode_champsim`] converts that byte stream into the repo's
//! [`TraceRecord`] stream and [`ingest_champsim`] persists it losslessly as
//! a `drishti-trace/v1` (`.drtr`) file via [`TraceWriter`]: every non-zero
//! memory operand becomes one record (loads first, then stores, in operand
//! order), `line = addr >> 6`, `pc = ip`, and the instructions *between*
//! memory instructions accumulate into the `instr_gap` of the next emitted
//! record (further records of the same instruction carry gap 0). The
//! conversion is exact for everything the LLC model consumes — PC, line,
//! load/store kind and instruction gap; register fields and branch outcomes
//! have no LLC-level meaning and are dropped (see DESIGN.md §18 for the
//! fidelity boundary).
//!
//! Every corruption class surfaces as a typed [`IngestError`] — malformed
//! input never panics:
//!
//! * a file that ends before one whole record, or whose partial tail could
//!   still be a record prefix → [`IngestError::Truncated`];
//! * a complete record whose flag bytes are not 0/1 (the signature of a
//!   wrong record size or a non-ChampSim file) →
//!   [`IngestError::BadInstructionSize`];
//! * a partial tail whose flag bytes *cannot* begin a record → junk
//!   appended after the last record → [`IngestError::TrailingGarbage`].
//!
//! [`TraceWriter`]: crate::store::TraceWriter

use crate::store::{StoreError, TraceWriter};
use crate::{Rng, TraceRecord};
use std::fmt;
use std::path::Path;

/// Size of one ChampSim `input_instr` record.
pub const CHAMPSIM_RECORD_BYTES: usize = 64;

/// Byte offsets of the two flag bytes inside a record (`is_branch`,
/// `branch_taken`) — the only fields with a constrained value set, used to
/// tell a truncated record prefix from appended garbage.
const FLAG_OFFSETS: [usize; 2] = [8, 9];

/// Everything that can go wrong ingesting a ChampSim trace.
#[derive(Debug)]
pub enum IngestError {
    /// Underlying I/O failure reading the input file.
    Io(std::io::Error),
    /// The `.drtr` side of the conversion failed.
    Store(StoreError),
    /// Instruction `instr` is a complete 64-byte record but its flag bytes
    /// are not 0/1 — the file's record size (or format) is not ChampSim's.
    BadInstructionSize {
        /// 0-based index of the offending instruction record.
        instr: u64,
        /// The `is_branch` byte found.
        is_branch: u8,
        /// The `branch_taken` byte found.
        branch_taken: u8,
    },
    /// The file ends mid-record: the partial tail is still a plausible
    /// record prefix, so the file was cut short.
    Truncated {
        /// 0-based index of the incomplete instruction record.
        instr: u64,
        /// Bytes of it actually present.
        have: usize,
    },
    /// The bytes after the last whole record cannot begin a record (their
    /// flag bytes are invalid): garbage was appended to the trace.
    TrailingGarbage {
        /// Byte offset at which the garbage starts.
        offset: u64,
        /// Length of the garbage tail.
        len: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::Store(e) => write!(f, "ingest output error: {e}"),
            IngestError::BadInstructionSize {
                instr,
                is_branch,
                branch_taken,
            } => write!(
                f,
                "instruction {instr}: flag bytes ({is_branch}, {branch_taken}) are not 0/1 — \
                 not {CHAMPSIM_RECORD_BYTES}-byte ChampSim records (wrong record size or format?)"
            ),
            IngestError::Truncated { instr, have } => write!(
                f,
                "truncated ChampSim trace: instruction {instr} has only {have} of \
                 {CHAMPSIM_RECORD_BYTES} bytes"
            ),
            IngestError::TrailingGarbage { offset, len } => write!(
                f,
                "trailing garbage: {len} byte(s) at offset {offset} cannot begin a \
                 ChampSim record"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<StoreError> for IngestError {
    fn from(e: StoreError) -> Self {
        IngestError::Store(e)
    }
}

/// Summary of one ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// ChampSim instruction records consumed.
    pub instructions: u64,
    /// [`TraceRecord`]s emitted (one per non-zero memory operand).
    pub records: u64,
    /// Emitted records that are loads.
    pub loads: u64,
    /// Emitted records that are stores.
    pub stores: u64,
}

fn flags_plausible(bytes: &[u8]) -> bool {
    FLAG_OFFSETS
        .iter()
        .all(|&o| o >= bytes.len() || bytes[o] <= 1)
}

/// Decode a raw ChampSim byte stream into [`TraceRecord`]s.
///
/// An empty input is a valid (zero-record) trace. See the module docs for
/// the conversion and the corruption classes.
pub fn decode_champsim(bytes: &[u8]) -> Result<Vec<TraceRecord>, IngestError> {
    let whole = bytes.len() / CHAMPSIM_RECORD_BYTES;
    let tail_len = bytes.len() % CHAMPSIM_RECORD_BYTES;
    let mut records = Vec::new();
    let mut pending_gap: u32 = 0;
    for instr in 0..whole {
        let rec = &bytes[instr * CHAMPSIM_RECORD_BYTES..(instr + 1) * CHAMPSIM_RECORD_BYTES];
        if !flags_plausible(rec) {
            return Err(IngestError::BadInstructionSize {
                instr: instr as u64,
                is_branch: rec[FLAG_OFFSETS[0]],
                branch_taken: rec[FLAG_OFFSETS[1]],
            });
        }
        let ip = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes"));
        let mut first = true;
        let mut emit = |addr: u64, is_store: bool, records: &mut Vec<TraceRecord>| {
            if addr == 0 {
                return; // unused operand slot
            }
            records.push(TraceRecord {
                instr_gap: if first { pending_gap } else { 0 },
                pc: ip,
                line: addr >> 6,
                is_store,
            });
            first = false;
        };
        for slot in 0..4 {
            let addr = u64::from_le_bytes(
                rec[32 + slot * 8..40 + slot * 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            emit(addr, false, &mut records);
        }
        for slot in 0..2 {
            let addr = u64::from_le_bytes(
                rec[16 + slot * 8..24 + slot * 8]
                    .try_into()
                    .expect("8 bytes"),
            );
            emit(addr, true, &mut records);
        }
        if first {
            // No memory operands: a pure-compute instruction, folded into
            // the gap of the next emitted record.
            pending_gap = pending_gap.saturating_add(1);
        } else {
            pending_gap = 0;
        }
    }
    if tail_len > 0 {
        let tail = &bytes[whole * CHAMPSIM_RECORD_BYTES..];
        if flags_plausible(tail) {
            return Err(IngestError::Truncated {
                instr: whole as u64,
                have: tail_len,
            });
        }
        return Err(IngestError::TrailingGarbage {
            offset: (whole * CHAMPSIM_RECORD_BYTES) as u64,
            len: tail_len,
        });
    }
    Ok(records)
}

/// Seed stamped into ingested `.drtr` headers: a hash of the trace *name*
/// (the generators' salt fold). External traces have no generator seed,
/// but the header field is mandatory; a name hash keeps it deterministic
/// and collision-resistant enough to distinguish traces in diagnostics.
pub fn ingested_seed(name: &str) -> u64 {
    crate::name_salt(name)
}

/// Convert the ChampSim-format file at `input` into a `.drtr` trace at
/// `output`. The trace name is `input`'s file stem and the header seed is
/// [`ingested_seed`] of that name.
pub fn ingest_champsim(input: &Path, output: &Path) -> Result<IngestStats, IngestError> {
    let bytes = std::fs::read(input)?;
    let records = decode_champsim(&bytes)?;
    let name = input
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "ingested".to_string());
    let mut writer = TraceWriter::create(output, &name, ingested_seed(&name))?;
    let mut loads = 0u64;
    let mut stores = 0u64;
    for r in &records {
        if r.is_store {
            stores += 1;
        } else {
            loads += 1;
        }
        writer.push(*r)?;
    }
    writer.finish()?;
    Ok(IngestStats {
        instructions: (bytes.len() / CHAMPSIM_RECORD_BYTES) as u64,
        records: records.len() as u64,
        loads,
        stores,
    })
}

/// Synthesize a small, deterministic ChampSim-format byte stream —
/// `instructions` records derived from `seed`. This is the fixture behind
/// `drishti-sim --ingest-demo` (no real SPEC/GAP traces ship with the
/// repo) and the ingest round-trip tests: a mixture of pure-compute,
/// branch, load, store and multi-operand instructions with valid flags.
pub fn synthesize_demo(instructions: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0xC4A3_5157);
    let mut bytes = Vec::with_capacity(instructions * CHAMPSIM_RECORD_BYTES);
    for _ in 0..instructions {
        let mut rec = [0u8; CHAMPSIM_RECORD_BYTES];
        let ip = 0x40_0000 + (rng.next_u64() % 256) * 4;
        rec[0..8].copy_from_slice(&ip.to_le_bytes());
        let kind = rng.next_u64() % 8;
        let is_branch = u8::from(kind == 0);
        rec[FLAG_OFFSETS[0]] = is_branch;
        rec[FLAG_OFFSETS[1]] = is_branch & u8::from(rng.next_u64().is_multiple_of(2));
        // kinds 0 (branch) and 1 stay memory-free; 2..=5 load; 6 store;
        // 7 load + store (an RMW-style instruction with two operands).
        if (2..=5).contains(&kind) || kind == 7 {
            let addr = 0x1000_0000 + (rng.next_u64() % 4096) * 64;
            rec[32..40].copy_from_slice(&addr.to_le_bytes());
            if kind == 5 {
                // A second source operand on some loads.
                let addr2 = 0x2000_0000 + (rng.next_u64() % 1024) * 64;
                rec[40..48].copy_from_slice(&addr2.to_le_bytes());
            }
        }
        if kind == 6 || kind == 7 {
            let addr = 0x3000_0000 + (rng.next_u64() % 2048) * 64;
            rec[16..24].copy_from_slice(&addr.to_le_bytes());
        }
        bytes.extend_from_slice(&rec);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::read_trace;

    #[test]
    fn demo_bytes_decode_and_round_trip() {
        let bytes = synthesize_demo(500, 7);
        assert_eq!(bytes.len(), 500 * CHAMPSIM_RECORD_BYTES);
        let records = decode_champsim(&bytes).expect("demo decodes");
        assert!(!records.is_empty());
        assert!(records.iter().any(|r| r.is_store));
        assert!(records.iter().any(|r| !r.is_store));
        assert!(records.iter().any(|r| r.instr_gap > 0));

        let dir = std::env::temp_dir().join("drishti-ingest-unit");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let input = dir.join("demo.champsim");
        let output = dir.join("demo.drtr");
        std::fs::write(&input, &bytes).expect("write input");
        let stats = ingest_champsim(&input, &output).expect("ingest");
        assert_eq!(stats.instructions, 500);
        assert_eq!(stats.records, records.len() as u64);
        assert_eq!(stats.loads + stats.stores, stats.records);
        let (meta, stored) = read_trace(&output).expect("read back");
        assert_eq!(meta.name, "demo");
        assert_eq!(meta.seed, ingested_seed("demo"));
        assert_eq!(stored, records, "conversion is lossless through .drtr");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn empty_input_is_a_zero_record_trace() {
        assert_eq!(decode_champsim(&[]).expect("empty ok"), Vec::new());
    }

    #[test]
    fn gap_accumulates_across_compute_instructions() {
        // compute, compute, load: the load carries gap 2.
        let mut bytes = vec![0u8; 3 * CHAMPSIM_RECORD_BYTES];
        let load_base = 2 * CHAMPSIM_RECORD_BYTES;
        bytes[load_base..load_base + 8].copy_from_slice(&0x400100u64.to_le_bytes());
        bytes[load_base + 32..load_base + 40].copy_from_slice(&0x8000u64.to_le_bytes());
        let records = decode_champsim(&bytes).expect("decode");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].instr_gap, 2);
        assert_eq!(records[0].line, 0x8000 >> 6);
        assert!(!records[0].is_store);
    }

    #[test]
    fn multi_operand_instruction_emits_loads_then_stores() {
        let mut rec = vec![0u8; CHAMPSIM_RECORD_BYTES];
        rec[0..8].copy_from_slice(&0x400200u64.to_le_bytes());
        rec[32..40].copy_from_slice(&(64u64 * 10).to_le_bytes()); // load
        rec[16..24].copy_from_slice(&(64u64 * 20).to_le_bytes()); // store
        let records = decode_champsim(&rec).expect("decode");
        assert_eq!(records.len(), 2);
        assert!(!records[0].is_store);
        assert_eq!(records[0].line, 10);
        assert!(records[1].is_store);
        assert_eq!(records[1].line, 20);
        assert_eq!(records[1].instr_gap, 0, "same instruction: no extra gap");
    }

    #[test]
    fn corruption_classes_are_typed() {
        let good = synthesize_demo(4, 1);
        // Truncation mid-record (tail flags still plausible).
        let cut = &good[..CHAMPSIM_RECORD_BYTES + 20];
        assert!(matches!(
            decode_champsim(cut),
            Err(IngestError::Truncated { instr: 1, have: 20 })
        ));
        // Bad flag bytes in a complete record.
        let mut bad = good.clone();
        bad[FLAG_OFFSETS[0]] = 0xff;
        assert!(matches!(
            decode_champsim(&bad),
            Err(IngestError::BadInstructionSize { instr: 0, .. })
        ));
        // Garbage appended after the last record.
        let mut garbage = good.clone();
        garbage.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff]);
        assert!(matches!(
            decode_champsim(&garbage),
            Err(IngestError::TrailingGarbage { len: 10, .. })
        ));
    }
}
