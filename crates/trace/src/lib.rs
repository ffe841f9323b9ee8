//! Synthetic workload generation for the Drishti reproduction.
//!
//! The paper drives its simulator with SPEC CPU2017, GAP and server traces.
//! Those traces are not redistributable, so this crate synthesises access
//! streams that reproduce the three stream properties every Drishti
//! experiment depends on (see DESIGN.md §1):
//!
//! 1. **PC-to-slice scattering** — how many distinct lines each PC touches
//!    decides whether its loads scatter over LLC slices (xalan-like) or
//!    concentrate (pr-like), which is what makes per-slice predictors
//!    myopic (paper Fig 2);
//! 2. **per-set pressure skew** — Zipf-weighted region patterns create the
//!    high/low-MPKA set split of paper Fig 5 (mcf), streams create the
//!    uniform profile (lbm);
//! 3. **reuse-distance structure** — loops, pointer chases and scans give
//!    Belady-mimicking policies their opportunity (or lack of it).
//!
//! [`pattern`] provides the primitive address patterns, [`synthetic`]
//! composes them into weighted multi-PC workloads, [`presets`] names ~25
//! benchmark-like configurations, [`mix`] builds the paper's
//! homogeneous/heterogeneous multi-core mixes, [`replay`] feeds sweep
//! cells their cores' traces, generated on demand or streamed from disk,
//! and [`store`] persists traces to disk (`drishti-trace/v1`) for
//! streaming, bounded-memory replay. [`shrink`] and [`transform`] serve the
//! conformance fuzzer: greedy minimization of failing traces and
//! behaviour-preserving transforms for metamorphic relations.
//!
//! When real traces *are* available, [`ingest`] converts ChampSim-format
//! files losslessly into the same `.drtr` container, and [`scenario`]
//! supplies the phase-alternating, adversarial and datacenter workload
//! families plus the family classification behind sweep reports'
//! `scenario_coverage` table (DESIGN.md §18).
//!
//! # Example
//!
//! ```
//! use drishti_trace::presets::Benchmark;
//! use drishti_trace::WorkloadGen;
//!
//! let mut w = Benchmark::Mcf.build(42);
//! let r = w.next_record();
//! assert!(r.pc > 0);
//! ```

pub mod analysis;
pub mod ingest;
pub mod mix;
pub mod pattern;
pub mod presets;
pub mod replay;
pub mod scenario;
pub mod shrink;
pub mod store;
pub mod synthetic;
pub mod transform;

/// One record of a core's memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions retired before this access.
    pub instr_gap: u32,
    /// Program counter of the memory instruction.
    pub pc: u64,
    /// Cache-line address accessed.
    pub line: u64,
    /// Whether the access is a store.
    pub is_store: bool,
}

/// A deterministic, infinite generator of one core's memory trace.
pub trait WorkloadGen: std::fmt::Debug + Send {
    /// Benchmark-style name, e.g. `"mcf"`.
    fn name(&self) -> &str;

    /// Produce the next trace record.
    fn next_record(&mut self) -> TraceRecord;

    /// Collect `n` records into a vector (for offline oracles).
    fn collect(&mut self, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Advance the generator past `n` records without yielding them, as if
    /// [`WorkloadGen::next_record`] had been called `n` times. Used to
    /// restore a generator's position from a checkpoint: generators are
    /// deterministic, so rebuild-then-skip reproduces the exact stream.
    /// Implementations with random access (on-disk traces) may override
    /// this with a seek.
    fn skip_records(&mut self, n: u64) {
        for _ in 0..n {
            self.next_record();
        }
    }
}

/// FNV-1a 64-bit hash: the checksum of trace frames, checkpoint sections
/// and journal entries, and the checkpoint's configuration fingerprint.
/// Dependency-free and byte-order independent; it catches corruption but
/// is no integrity MAC.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fold behind preset salts, stream salts and ingested-trace seeds.
/// It is FNV-1a's offset basis and xor-then-multiply step, but with the
/// multiplier `0x1000_0000_01b3` where FNV-1a has `0x100_0000_01b3`, so it
/// is not [`fnv1a64`]; every generated trace depends on its values.
pub(crate) fn name_salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, c| {
        (h ^ u64::from(c)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// A small, fast, seedable PRNG (xorshift64*), used by every generator so
/// traces are reproducible without external dependencies in the hot path.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed the generator (zero is mapped to a fixed non-zero state).
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 { 0x9e37_79b9 } else { seed })
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_bounds_respected() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fnv1a64_matches_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
