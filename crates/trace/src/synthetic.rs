//! Composition of primitive patterns into benchmark-like workloads.
//!
//! A [`SyntheticWorkload`] interleaves several [`StreamSpec`]s by weight.
//! Each stream owns a private address region, a pool of PCs, a store
//! fraction and an instruction-gap distribution — enough structure to dial
//! in MPKI, PC scattering and set skew independently.

use crate::pattern::{Pattern, PatternState};
use crate::{Rng, TraceRecord, WorkloadGen};

/// Specification of one access stream inside a workload.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// The address pattern.
    pub pattern: Pattern,
    /// Number of distinct PCs that issue this stream's accesses.
    pub pcs: u32,
    /// Relative share of the workload's accesses (weights are normalised).
    pub weight: f64,
    /// Fraction of accesses that are stores.
    pub store_fraction: f64,
    /// Mean non-memory instructions between accesses.
    pub instr_gap: u32,
}

impl StreamSpec {
    /// A convenience constructor with 10% stores and a gap of 14
    /// (memory-intensive workloads retire roughly one *LLC-relevant* access
    /// per few tens of instructions once L1/L2 filter the stream; this gap
    /// keeps LLC and predictor traffic per kilo-instruction in the
    /// regime the paper reports, e.g. Fig 10's ≤8 APKI per core).
    pub fn new(pattern: Pattern, pcs: u32, weight: f64) -> Self {
        StreamSpec {
            pattern,
            pcs,
            weight,
            store_fraction: 0.1,
            instr_gap: 14,
        }
    }
}

#[derive(Debug)]
struct StreamState {
    spec: StreamSpec,
    pattern: PatternState,
    pc_base: u64,
    /// The PC that issued the stream's last access, in `0..spec.pcs`.
    pc_index: u64,
    cum_weight: f64,
}

/// A deterministic workload built from weighted streams.
///
/// A workload may carry several *phases* (stream sets): every
/// `phase_period` emitted records the active set advances cyclically,
/// flipping the program's archetype mid-run (see
/// [`SyntheticWorkload::phased`]). Single-phase workloads — the common
/// case — never switch.
#[derive(Debug)]
pub struct SyntheticWorkload {
    name: String,
    streams: Vec<StreamState>,
    /// `streams` index range of each phase (single-phase: one full range).
    phase_ranges: Vec<std::ops::Range<usize>>,
    /// Records per phase before switching (unused when single-phase).
    phase_period: u64,
    /// The active phase, and the records it has left.
    phase: usize,
    phase_left: u64,
    rng: Rng,
}

/// Address-space slot size per stream: 1 GiB of lines keeps regions
/// disjoint for any realistic footprint.
const REGION_LINES: u64 = 1 << 24;

impl SyntheticWorkload {
    /// Build a workload named `name` from `specs`, seeded by `seed`.
    /// Regions and PC pools are disjoint across streams; different seeds
    /// shift the whole address space so two cores running the "same"
    /// benchmark (different sim-points) do not share lines.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, any weight is non-positive, or any
    /// stream has zero PCs.
    pub fn new(name: impl Into<String>, specs: Vec<StreamSpec>, seed: u64) -> Self {
        SyntheticWorkload::phased(name, vec![specs], 0, seed)
    }

    /// Build a *phase-alternating* workload: `phases[p]` is the stream set
    /// active during phase `p`, and the active phase advances cyclically
    /// every `period` emitted records. The archetype therefore flips
    /// mid-run — the re-learning pressure the paper's §4.2 phase handling
    /// targets: a predictor trained on phase 0's PCs/reuse must detect and
    /// re-learn phase 1's, repeatedly.
    ///
    /// Address regions and PC pools are enumerated *across* phases, so
    /// every stream of every phase stays disjoint exactly as in a
    /// single-phase workload. With a single phase, `period` is ignored and
    /// this is identical (bit-for-bit) to [`SyntheticWorkload::new`].
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any phase's spec list is empty, any
    /// weight is non-positive, any stream has zero PCs, or `period` is
    /// zero while more than one phase is given.
    pub fn phased(
        name: impl Into<String>,
        phases: Vec<Vec<StreamSpec>>,
        period: u64,
        seed: u64,
    ) -> Self {
        assert!(!phases.is_empty(), "workload needs at least one phase");
        assert!(
            phases.len() == 1 || period > 0,
            "multi-phase workloads need a nonzero phase period"
        );
        let name = name.into();
        let name_ref = name.as_str();
        let mut rng = Rng::new(seed ^ 0xACE1_BEEF);
        // Private 2^40-line offset per seed keeps cores disjoint.
        let space_base = (seed & 0xffff) << 40;
        let mut streams = Vec::new();
        let mut phase_ranges = Vec::with_capacity(phases.len());
        for specs in phases {
            assert!(!specs.is_empty(), "workload needs at least one stream");
            let start = streams.len();
            let total: f64 = specs.iter().map(|s| s.weight).sum();
            let mut cum = 0.0;
            for spec in specs {
                assert!(spec.weight > 0.0, "weights must be positive");
                assert!(spec.pcs > 0, "streams need at least one PC");
                cum += spec.weight / total;
                // Streams are enumerated globally across phases, so
                // regions, salts and PC pools stay disjoint.
                let i = streams.len();
                let base = space_base + (i as u64 + 1) * REGION_LINES;
                // The salt is a function of the workload *name* and stream
                // index — stable across seeds/cores of the same benchmark —
                // so structural alignment (set-column bands, phase band
                // sequences) is shared the way a common binary shares it.
                let salt =
                    crate::name_salt(name_ref) ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                streams.push(StreamState {
                    pattern: PatternState::with_salt(spec.pattern, base, salt, &mut rng),
                    pc_base: 0x40_0000 + seed.rotate_left(17) % 0xffff + (i as u64) * 0x1000,
                    pc_index: 0,
                    cum_weight: cum,
                    spec,
                });
            }
            phase_ranges.push(start..streams.len());
        }
        SyntheticWorkload {
            name,
            streams,
            phase_ranges,
            phase_period: period,
            phase: 0,
            phase_left: period,
            rng,
        }
    }
}

impl WorkloadGen for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_record(&mut self) -> TraceRecord {
        let range = self.phase_ranges[self.phase].clone();
        if self.phase_ranges.len() > 1 {
            self.phase_left -= 1;
            if self.phase_left == 0 {
                self.phase_left = self.phase_period;
                self.phase = (self.phase + 1) % self.phase_ranges.len();
            }
        }
        let u = self.rng.unit();
        let idx = self.streams[range.clone()]
            .iter()
            .position(|s| u <= s.cum_weight)
            .map(|p| range.start + p)
            .unwrap_or(range.end - 1);
        let s = &mut self.streams[idx];
        // Cycle deterministically through the stream's PC pool; each PC
        // keeps issuing from the shared pattern state.
        s.pc_index += 1;
        if s.pc_index == u64::from(s.spec.pcs) {
            s.pc_index = 0;
        }
        let pc_index = s.pc_index;
        let pc = s.pc_base + pc_index * 8;
        let line = s.pattern.next_line(pc_index, &mut self.rng);
        let is_store = self.rng.unit() < s.spec.store_fraction;
        let jitter = (self.rng.next_u64() % 3) as u32;
        TraceRecord {
            instr_gap: s.spec.instr_gap + jitter,
            pc,
            line,
            is_store,
        }
    }
}

/// The division-based per-record formulas the counters replaced, kept to
/// pin the counters record for record.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::pattern::reference::RefPattern;

    struct RefStream {
        spec: StreamSpec,
        pattern: RefPattern,
        pc_base: u64,
        pc_cursor: u64,
        cum_weight: f64,
    }

    /// A workload stepped by the reference formulas.
    pub(super) struct RefWorkload {
        streams: Vec<RefStream>,
        phase_ranges: Vec<std::ops::Range<usize>>,
        phase_period: u64,
        emitted: u64,
        rng: Rng,
    }

    impl RefWorkload {
        /// The reference twin of `w`, which must not have stepped yet.
        pub(super) fn of(w: &SyntheticWorkload) -> Self {
            let streams = w
                .streams
                .iter()
                .map(|s| RefStream {
                    spec: s.spec.clone(),
                    pattern: RefPattern::of(&s.pattern),
                    pc_base: s.pc_base,
                    pc_cursor: 0,
                    cum_weight: s.cum_weight,
                })
                .collect();
            RefWorkload {
                streams,
                phase_ranges: w.phase_ranges.clone(),
                phase_period: w.phase_period,
                emitted: 0,
                rng: w.rng.clone(),
            }
        }

        pub(super) fn next_record(&mut self) -> TraceRecord {
            let phase = if self.phase_ranges.len() == 1 {
                0
            } else {
                ((self.emitted / self.phase_period) as usize) % self.phase_ranges.len()
            };
            self.emitted += 1;
            let range = self.phase_ranges[phase].clone();
            let u = self.rng.unit();
            let idx = self.streams[range.clone()]
                .iter()
                .position(|s| u <= s.cum_weight)
                .map(|p| range.start + p)
                .unwrap_or(range.end - 1);
            let s = &mut self.streams[idx];
            s.pc_cursor += 1;
            let pc_index = s.pc_cursor % u64::from(s.spec.pcs);
            let pc = s.pc_base + pc_index * 8;
            let line = s.pattern.next_line(pc_index, &mut self.rng);
            let is_store = self.rng.unit() < s.spec.store_fraction;
            let jitter = (self.rng.next_u64() % 3) as u32;
            TraceRecord {
                instr_gap: s.spec.instr_gap + jitter,
                pc,
                line,
                is_store,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// The counters reproduce the division-based formulas record for
    /// record on every preset at three seeds. 300k records cross several
    /// SetColumn and PhasedLoop phase boundaries (periods of 16–40k
    /// accesses on streams taking 35–50% of the records) and dozens of
    /// `scenario::PHASE_PERIOD` workload phases.
    #[test]
    fn counters_match_the_division_reference_on_every_preset() {
        use crate::presets::Benchmark;
        const RECORDS: u64 = 300_000;
        let presets = [
            Benchmark::spec(),
            Benchmark::gap(),
            Benchmark::server(),
            Benchmark::scenario(),
        ]
        .concat();
        for bench in presets {
            for seed in [1, 7, 1_000_003] {
                let mut w = bench.build(seed);
                let mut reference = reference::RefWorkload::of(&w);
                for i in 0..RECORDS {
                    assert_eq!(
                        w.next_record(),
                        reference.next_record(),
                        "{} seed {seed} record {i}",
                        bench.label()
                    );
                }
            }
        }
    }

    fn two_stream() -> SyntheticWorkload {
        SyntheticWorkload::new(
            "test",
            vec![
                StreamSpec::new(Pattern::Loop { footprint: 64 }, 4, 3.0),
                StreamSpec::new(
                    Pattern::Stream {
                        footprint: 1 << 20,
                        stride: 1,
                    },
                    2,
                    1.0,
                ),
            ],
            11,
        )
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = two_stream();
        let mut b = two_stream();
        assert_eq!(a.collect(500), b.collect(500));
    }

    #[test]
    fn weights_are_respected() {
        let mut w = two_stream();
        let recs = w.collect(20_000);
        // Loop stream lines live in region 1, stream lines in region 2.
        let loop_count = recs.iter().filter(|r| (r.line >> 24) & 0xffff == 1).count();
        // Simply check both regions appear and the loop region dominates.
        let mut by_region: HashMap<u64, usize> = HashMap::new();
        for r in &recs {
            *by_region.entry(r.line / super::REGION_LINES).or_default() += 1;
        }
        assert_eq!(by_region.len(), 2);
        let mut counts: Vec<usize> = by_region.values().copied().collect();
        counts.sort_unstable();
        assert!(counts[1] > 2 * counts[0], "3:1 weights: {counts:?}");
        let _ = loop_count;
    }

    #[test]
    fn pc_pools_are_disjoint_across_streams() {
        let mut w = two_stream();
        let recs = w.collect(5_000);
        let pcs: HashSet<u64> = recs.iter().map(|r| r.pc).collect();
        assert_eq!(pcs.len(), 6, "4 + 2 PCs expected: {pcs:?}");
    }

    #[test]
    fn different_seeds_use_disjoint_address_spaces() {
        let mut a = SyntheticWorkload::new(
            "a",
            vec![StreamSpec::new(Pattern::Loop { footprint: 32 }, 1, 1.0)],
            1,
        );
        let mut b = SyntheticWorkload::new(
            "b",
            vec![StreamSpec::new(Pattern::Loop { footprint: 32 }, 1, 1.0)],
            2,
        );
        let la: HashSet<u64> = a.collect(100).iter().map(|r| r.line).collect();
        let lb: HashSet<u64> = b.collect(100).iter().map(|r| r.line).collect();
        assert!(la.is_disjoint(&lb));
    }

    #[test]
    fn stores_fraction_reasonable() {
        let mut w = two_stream();
        let recs = w.collect(10_000);
        let stores = recs.iter().filter(|r| r.is_store).count();
        let frac = stores as f64 / recs.len() as f64;
        assert!((0.05..0.2).contains(&frac), "store fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_specs_panic() {
        let _ = SyntheticWorkload::new("x", vec![], 1);
    }

    #[test]
    #[should_panic(expected = "nonzero phase period")]
    fn multi_phase_needs_period() {
        let spec = || vec![StreamSpec::new(Pattern::Loop { footprint: 8 }, 1, 1.0)];
        let _ = SyntheticWorkload::phased("x", vec![spec(), spec()], 0, 1);
    }

    #[test]
    fn phased_flips_archetype_every_period() {
        let phases = vec![
            vec![StreamSpec::new(Pattern::Loop { footprint: 16 }, 2, 1.0)],
            vec![StreamSpec::new(
                Pattern::Stream {
                    footprint: 1 << 20,
                    stride: 1,
                },
                2,
                1.0,
            )],
        ];
        let mut w = SyntheticWorkload::phased("flip", phases, 100, 3);
        let recs = w.collect(400);
        // Streams are enumerated globally: phase 0 lives in region 1,
        // phase 1 in region 2, and each 100-record window uses only its
        // own phase's region.
        for (i, r) in recs.iter().enumerate() {
            let region = (r.line / super::REGION_LINES) & 0xff;
            let expect = 1 + (i as u64 / 100) % 2;
            assert_eq!(region, expect, "record {i} in wrong phase region");
        }
    }

    #[test]
    fn single_phase_phased_matches_new_bit_for_bit() {
        let specs = || {
            vec![
                StreamSpec::new(Pattern::PointerChase { footprint: 512 }, 3, 2.0),
                StreamSpec::new(Pattern::Loop { footprint: 64 }, 2, 1.0),
            ]
        };
        let mut a = SyntheticWorkload::new("same", specs(), 9);
        let mut b = SyntheticWorkload::phased("same", vec![specs()], 0, 9);
        assert_eq!(a.collect(2_000), b.collect(2_000));
    }
}
