//! The `drishti-ckpt/v5` on-disk checkpoint container.
//!
//! A checkpoint is the engine's *complete* simulation state — core clocks
//! and private caches, prefetcher tables, LLC tags and policy predictor
//! state, DRAM/mesh occupancy and fault cursors, telemetry epochs, and the
//! trace position of every core — so a killed run resumes bit-identically:
//! `run(N)` ≡ `run(k); save; restore; run(N−k)` on results, timelines and
//! golden metrics (pinned by `tests/checkpoint.rs`).
//!
//! The layout follows the `drishti-trace/v1` store (DESIGN.md §12): a
//! little-endian header, then independently checksummed **sections**, one
//! per engine subsystem, so a corruption report says *which* subsystem is
//! bad:
//!
//! ```text
//! header    magic "drckpt01" | version u32 | config_hash u64
//!           | section_count u32
//! section*  name_len u16 | name bytes | payload_len u64
//!           | fnv1a64 checksum u64 | payload
//! ```
//!
//! `config_hash` fingerprints [`Engine::config_descriptor`]; a restore
//! into a differently configured engine is refused up front
//! ([`CkptError::ConfigMismatch`]) instead of misaligning state arrays.
//! Workloads are **not** stored: restore rebuilds them from the mix and
//! re-positions each by skipping the core's recorded access count (frame
//! seek for on-disk traces, replay for synthetic generators).
//!
//! Each section holds its components' live layout (the LLC and private
//! caches write their struct-of-arrays planes directly). Files of any
//! other container version, `drishti-ckpt/v1` to `/v4` included, are
//! refused by version before any section is decoded.
//!
//! Every malformed input surfaces as a typed [`CkptError`] naming the
//! offending section — corruption never panics. See DESIGN.md §14 for the
//! state inventory and the resume protocol.

use crate::engine::Engine;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Schema identifier of the container format.
pub const SCHEMA: &str = "drishti-ckpt/v5";

/// File magic (first 8 bytes of every checkpoint file).
pub const MAGIC: [u8; 8] = *b"drckpt01";

/// Container version written by this code.
pub const VERSION: u32 = 5;

/// File extension used by convention (`<run>.drck`).
pub const EXTENSION: &str = "drck";

/// Section names in the order they are written and restored. Restore
/// looks sections up by name, so a section it does not know is skipped.
pub const SECTIONS: [&str; 5] = ["cores", "llc", "dram", "mesh", "sim"];

/// FNV-1a 64-bit hash — the same flavour that guards trace frames, good
/// enough to catch corruption (not an integrity MAC).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything that can go wrong reading or writing a checkpoint.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying I/O failure (open, read, write, rename).
    Io(std::io::Error),
    /// The file does not start with the `drckpt01` magic.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The file's container version is not one this code reads.
    UnsupportedVersion(u32),
    /// The header itself is malformed (absurd section count, bad name).
    BadHeader(String),
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Hash stored in the checkpoint header.
        stored: u64,
        /// Hash of the restoring engine's configuration.
        expected: u64,
    },
    /// The file ends in the middle of the named section.
    Truncated {
        /// Name of the incomplete section (or `"header"`).
        section: String,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// Name of the corrupt section.
        section: String,
        /// Checksum stored in the section header.
        expected: u64,
        /// Checksum computed over the payload actually read.
        found: u64,
    },
    /// A section's payload failed to decode despite a matching checksum.
    SectionDecode {
        /// Name of the undecodable section.
        section: &'static str,
        /// What the decoder tripped over.
        detail: String,
    },
    /// A required section is absent from the file.
    MissingSection(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CkptError::BadMagic { found } => write!(
                f,
                "not a {SCHEMA} file (magic {found:02x?}, expected {MAGIC:02x?})"
            ),
            CkptError::UnsupportedVersion(v) => write!(
                f,
                "checkpoint is drishti-ckpt/v{v}; this build reads {SCHEMA} only \
                 — re-run to regenerate it"
            ),
            CkptError::BadHeader(detail) => write!(f, "malformed checkpoint header: {detail}"),
            CkptError::ConfigMismatch { stored, expected } => write!(
                f,
                "checkpoint was taken under a different configuration \
                 (stored hash {stored:#018x}, this system {expected:#018x}); \
                 restore with the exact mix/policy/geometry it was saved from"
            ),
            CkptError::Truncated { section } => {
                write!(f, "checkpoint truncated inside section '{section}'")
            }
            CkptError::ChecksumMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "section '{section}' is corrupt: checksum {found:#018x}, header says {expected:#018x}"
            ),
            CkptError::SectionDecode { section, detail } => {
                write!(f, "section '{section}' failed to decode: {detail}")
            }
            CkptError::MissingSection(name) => {
                write!(f, "checkpoint is missing required section '{name}'")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// Hash of the engine configuration facets a restore must match.
pub fn config_hash(engine: &Engine) -> u64 {
    fnv1a64(engine.config_descriptor().as_bytes())
}

/// Serialize the engine's complete state into `drishti-ckpt/v5` bytes.
pub fn save_engine_bytes(engine: &Engine) -> Vec<u8> {
    use drishti_noc::snap::StateWriter;
    let mut out = Vec::with_capacity(1 << 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&config_hash(engine).to_le_bytes());
    out.extend_from_slice(&(SECTIONS.len() as u32).to_le_bytes());
    for name in SECTIONS {
        let mut w = StateWriter::new();
        match name {
            "cores" => engine.save_cores(&mut w),
            "llc" => engine.save_llc(&mut w),
            "dram" => engine.save_dram(&mut w),
            "mesh" => engine.save_mesh(&mut w),
            "sim" => engine.save_sim_state(&mut w),
            _ => unreachable!("unknown section in SECTIONS"),
        }
        let payload = w.into_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Write the engine's complete state to `path`, atomically: the bytes land
/// in `<path>.tmp` first and are renamed into place, so a crash mid-write
/// never leaves a half-written file under the checkpoint's name.
pub fn save_engine(engine: &Engine, path: &Path) -> Result<(), CkptError> {
    let bytes = save_engine_bytes(engine);
    let tmp = path.with_extension("drck.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

struct SectionCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SectionCursor<'a> {
    fn take(&mut self, n: usize, section: &str) -> Result<&'a [u8], CkptError> {
        if self.buf.len() - self.pos < n {
            return Err(CkptError::Truncated {
                section: section.to_string(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b.try_into().expect("2 bytes"))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("4 bytes"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// Parse the container: verify the header against `expected_hash` and
/// return the checksummed section payloads in file order.
fn parse_sections(bytes: &[u8], expected_hash: u64) -> Result<Vec<(String, &[u8])>, CkptError> {
    let mut c = SectionCursor { buf: bytes, pos: 0 };
    let magic = c.take(8, "header")?;
    if magic != MAGIC {
        return Err(CkptError::BadMagic {
            found: magic.try_into().expect("8 bytes"),
        });
    }
    let version = le_u32(c.take(4, "header")?);
    if version != VERSION {
        return Err(CkptError::UnsupportedVersion(version));
    }
    let stored = le_u64(c.take(8, "header")?);
    if stored != expected_hash {
        return Err(CkptError::ConfigMismatch {
            stored,
            expected: expected_hash,
        });
    }
    let count = le_u32(c.take(4, "header")?) as usize;
    if count > 64 {
        return Err(CkptError::BadHeader(format!(
            "absurd section count {count}"
        )));
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let anon = format!("#{i}");
        let name_len = le_u16(c.take(2, &anon)?) as usize;
        if name_len == 0 || name_len > 256 {
            return Err(CkptError::BadHeader(format!(
                "section #{i} name length {name_len} out of range"
            )));
        }
        let name = match std::str::from_utf8(c.take(name_len, &anon)?) {
            Ok(s) => s.to_string(),
            Err(_) => {
                return Err(CkptError::BadHeader(format!(
                    "section #{i} name is not UTF-8"
                )))
            }
        };
        let payload_len = le_u64(c.take(8, &name)?) as usize;
        if payload_len > bytes.len() {
            // Cheap sanity bound: a section cannot be larger than the file.
            return Err(CkptError::Truncated { section: name });
        }
        let expected = le_u64(c.take(8, &name)?);
        let payload = c.take(payload_len, &name)?;
        let found = fnv1a64(payload);
        if found != expected {
            return Err(CkptError::ChecksumMismatch {
                section: name,
                expected,
                found,
            });
        }
        sections.push((name, payload));
    }
    Ok(sections)
}

/// Restore the engine's complete state from `drishti-ckpt/v5` bytes.
///
/// The engine must be freshly built from the *same* configuration the
/// snapshot was saved under (same mix, policy, geometry, budgets,
/// sampling and telemetry settings) — the header's config hash is checked
/// before any state is touched. On any error the engine may hold
/// partially restored state and must be discarded.
pub fn restore_engine_bytes(engine: &mut Engine, bytes: &[u8]) -> Result<(), CkptError> {
    let sections = parse_sections(bytes, config_hash(engine))?;
    for name in SECTIONS {
        let payload = sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
            .ok_or(CkptError::MissingSection(name))?;
        let mut r = drishti_noc::snap::StateReader::new(payload);
        let res = match name {
            "cores" => engine.load_cores(&mut r),
            "llc" => engine.load_llc(&mut r),
            "dram" => engine.load_dram(&mut r),
            "mesh" => engine.load_mesh(&mut r),
            "sim" => engine.load_sim_state(&mut r),
            _ => unreachable!("unknown section in SECTIONS"),
        };
        res.map_err(|e| CkptError::SectionDecode {
            section: name,
            detail: e.to_string(),
        })?;
        if r.remaining() != 0 {
            return Err(CkptError::SectionDecode {
                section: name,
                detail: format!("{} trailing bytes after state", r.remaining()),
            });
        }
    }
    Ok(())
}

/// Restore the engine's complete state from the checkpoint at `path`.
pub fn restore_engine(engine: &mut Engine, path: &Path) -> Result<(), CkptError> {
    let bytes = fs::read(path)?;
    restore_engine_bytes(engine, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use drishti_core::config::DrishtiConfig;
    use drishti_policies::factory::PolicyKind;
    use drishti_trace::mix::Mix;
    use drishti_trace::presets::Benchmark;
    use drishti_trace::WorkloadGen;

    fn engine_with_org(policy: PolicyKind, seed: u64, drishti: DrishtiConfig) -> Engine {
        let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), 4, seed);
        let cfg = SystemConfig::paper_baseline(4);
        let workloads = mix
            .build()
            .into_iter()
            .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
            .collect();
        let pol = policy.build(&cfg.llc, drishti);
        Engine::new(cfg, workloads, pol, 2_000, 200, false)
    }

    fn engine_for(policy: PolicyKind, seed: u64) -> Engine {
        engine_with_org(policy, seed, DrishtiConfig::baseline(4))
    }

    fn mid_run_checkpoint(policy: PolicyKind) -> (Engine, Vec<u8>) {
        let mut e = engine_for(policy, 7);
        e.run_steps(3_000);
        let bytes = save_engine_bytes(&e);
        (e, bytes)
    }

    #[test]
    fn round_trip_resumes_bit_identically() {
        let (mut orig, bytes) = mid_run_checkpoint(PolicyKind::Mockingjay);
        let expect = orig.run();

        let mut resumed = engine_for(PolicyKind::Mockingjay, 7);
        restore_engine_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(resumed.run(), expect);
        assert_eq!(resumed.llc().stats(), orig.llc().stats());
        assert_eq!(resumed.llc().slice_counters(), orig.llc().slice_counters());
        assert_eq!(resumed.dram().stats(), orig.dram().stats());
    }

    #[test]
    fn round_trip_covers_drishti_org() {
        // The drishti organisation carries extra state the baseline never
        // touches (per-slice DSC selectors, NOCSTAR arbiters); round-trip
        // it separately so an asymmetry there cannot hide behind the
        // baseline test.
        for policy in [PolicyKind::Mockingjay, PolicyKind::Hawkeye] {
            let mut orig = engine_with_org(policy, 7, DrishtiConfig::drishti(4));
            orig.run_steps(3_000);
            let bytes = save_engine_bytes(&orig);
            let expect = orig.run();

            let mut resumed = engine_with_org(policy, 7, DrishtiConfig::drishti(4));
            restore_engine_bytes(&mut resumed, &bytes).unwrap();
            assert_eq!(resumed.run(), expect, "{policy:?} drishti org diverged");
        }
    }

    #[test]
    fn file_round_trip_works() {
        let (mut orig, _) = mid_run_checkpoint(PolicyKind::Srrip);
        let dir = std::env::temp_dir().join("drishti-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file_round_trip.drck");
        save_engine(&orig, &path).unwrap();
        let mut resumed = engine_for(PolicyKind::Srrip, 7);
        restore_engine(&mut resumed, &path).unwrap();
        assert_eq!(resumed.run(), orig.run());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_refused() {
        let (mut e, mut bytes) = mid_run_checkpoint(PolicyKind::Lru);
        bytes[0] = b'X';
        match restore_engine_bytes(&mut e, &bytes) {
            Err(CkptError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_is_refused() {
        let (mut e, mut bytes) = mid_run_checkpoint(PolicyKind::Lru);
        for version in [1u32, 2, 3, 4, 99] {
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            match restore_engine_bytes(&mut e, &bytes) {
                Err(err @ CkptError::UnsupportedVersion(v)) => {
                    assert_eq!(v, version);
                    let msg = err.to_string();
                    let named = msg.contains(&format!("drishti-ckpt/v{version}"));
                    assert!(named && msg.contains(SCHEMA), "unhelpful: {msg}");
                }
                other => panic!("expected UnsupportedVersion({version}), got {other:?}"),
            }
        }
    }

    #[test]
    fn config_mismatch_is_refused_before_touching_state() {
        let (_, bytes) = mid_run_checkpoint(PolicyKind::Lru);
        // Same geometry, different policy: a silent restore would misread
        // the policy tables.
        let mut other = engine_for(PolicyKind::Srrip, 7);
        match restore_engine_bytes(&mut other, &bytes) {
            Err(CkptError::ConfigMismatch { stored, expected }) => assert_ne!(stored, expected),
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        let msg = restore_engine_bytes(&mut other, &bytes)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("different configuration"), "unhelpful: {msg}");
    }

    #[test]
    fn truncation_names_the_incomplete_section() {
        let (mut e, bytes) = mid_run_checkpoint(PolicyKind::Lru);
        let cut = &bytes[..bytes.len() / 2];
        match restore_engine_bytes(&mut e, cut) {
            Err(CkptError::Truncated { section }) => assert!(!section.is_empty()),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn every_section_detects_a_flipped_payload_byte() {
        let (_, bytes) = mid_run_checkpoint(PolicyKind::Mockingjay);
        // Walk the container to find each section's payload extent, flip
        // one byte in the middle, and demand the error names that section.
        let mut pos = 8 + 4 + 8 + 4;
        for expected_name in SECTIONS {
            let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
            let name = std::str::from_utf8(&bytes[pos + 2..pos + 2 + name_len])
                .unwrap()
                .to_string();
            assert_eq!(name, expected_name);
            let len_at = pos + 2 + name_len;
            let payload_len =
                u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
            let payload_at = len_at + 8 + 8;
            assert!(payload_len > 0, "section '{name}' is empty");

            let mut corrupt = bytes.clone();
            corrupt[payload_at + payload_len / 2] ^= 0x40;
            let mut e = engine_for(PolicyKind::Mockingjay, 7);
            match restore_engine_bytes(&mut e, &corrupt) {
                Err(CkptError::ChecksumMismatch { section, .. }) => {
                    assert_eq!(section, expected_name)
                }
                other => panic!("flip in '{expected_name}' gave {other:?}"),
            }
            pos = payload_at + payload_len;
        }
        assert_eq!(pos, bytes.len(), "walk must consume the whole file");
    }

    /// Rebuild the container with the section named `drop` removed.
    fn without_section(bytes: &[u8], drop: &str) -> Vec<u8> {
        // The header is magic (8) + version (4) + config hash (8) = 20
        // bytes, then the section count.
        let mut out = bytes[..20].to_vec();
        out.extend_from_slice(&(SECTIONS.len() as u32 - 1).to_le_bytes());
        let mut pos = 20 + 4;
        for name in SECTIONS {
            let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
            let len_at = pos + 2 + name_len;
            let payload_len =
                u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
            let end = len_at + 8 + 8 + payload_len;
            if name != drop {
                out.extend_from_slice(&bytes[pos..end]);
            }
            pos = end;
        }
        out
    }

    #[test]
    fn missing_section_is_reported() {
        let (mut e, bytes) = mid_run_checkpoint(PolicyKind::Lru);
        assert!(matches!(
            restore_engine_bytes(&mut e, &without_section(&bytes, "dram")),
            Err(CkptError::MissingSection("dram"))
        ));
    }

    #[test]
    fn restore_then_save_reproduces_the_container_bytes() {
        let (mut orig, bytes) = mid_run_checkpoint(PolicyKind::Srrip);
        let expect = orig.run();
        let mut resumed = engine_for(PolicyKind::Srrip, 7);
        restore_engine_bytes(&mut resumed, &bytes).unwrap();
        assert_eq!(
            save_engine_bytes(&resumed),
            bytes,
            "restore → save must round-trip byte-identically"
        );
        assert_eq!(resumed.run(), expect);
    }

    #[test]
    fn error_messages_are_actionable() {
        assert!(CkptError::MissingSection("llc").to_string().contains("llc"));
        let e = CkptError::ChecksumMismatch {
            section: "cores".into(),
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("cores"));
    }
}
