//! The sliced, NUCA last-level cache container.
//!
//! One slice per core (paper Table 4: 2 MB, 16-way, 20-cycle slices,
//! non-inclusive, address-to-slice mapping per the complex hash). The
//! container owns the line arrays and per-set instrumentation; all
//! replacement intelligence lives behind [`LlcPolicy`].
//!
//! Protocol per request (driven by the simulator):
//!
//! 1. [`SlicedLlc::lookup`] — returns hit/miss (plus any policy-charged
//!    extra cycles). On write-back hits the line is marked dirty.
//! 2. On a miss, the caller services the request from DRAM and then calls
//!    [`SlicedLlc::fill`], which picks a victim via the policy (or bypasses)
//!    and returns an evicted dirty line for the caller to write back.
//!
//! Per-set access/miss counters are always maintained: they feed the
//! paper's Fig 5 (MPKA per LLC set) and the Table 1 oracle-selection study.

use crate::access::{Access, AccessKind};
use crate::bits::{bit_assign, bit_get, bit_set, range_mask};
use crate::policy::{Decision, LlcLineState, LlcLoc, LlcPolicy, SetProbe};
use crate::shadow::{FillOutcome, LlcObserver};
use crate::LineAddr;
use drishti_noc::slicehash::{SliceHasher, XorFoldHash};

/// Geometry of the sliced LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcGeometry {
    /// Number of slices (= cores in the baseline).
    pub slices: usize,
    /// Sets per slice (2 MB 16-way slice ⇒ 2048).
    pub sets_per_slice: usize,
    /// Associativity.
    pub ways: usize,
    /// Slice access latency, cycles (paper: 20).
    pub latency: u64,
}

impl LlcGeometry {
    /// The paper's baseline: one 2 MB, 16-way, 20-cycle slice per core.
    pub fn per_core_2mb(cores: usize) -> Self {
        LlcGeometry {
            slices: cores,
            sets_per_slice: 2048,
            ways: 16,
            latency: 20,
        }
    }

    /// A slice of `mib` MiB per core (16-way), for the Fig 20 LLC-size sweep
    /// (1, 2, 4 MB per core).
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a power of two.
    pub fn per_core_mib(cores: usize, mib: usize) -> Self {
        let sets = mib * 1024 * 1024 / 64 / 16;
        assert!(
            sets.is_power_of_two() && sets > 0,
            "invalid slice size {mib} MiB"
        );
        LlcGeometry {
            slices: cores,
            sets_per_slice: sets,
            ways: 16,
            latency: 20,
        }
    }

    /// Total capacity in bytes across all slices.
    pub fn capacity_bytes(&self) -> usize {
        self.slices * self.sets_per_slice * self.ways * crate::LINE_BYTES as usize
    }

    /// Total lines in one slice.
    pub fn lines_per_slice(&self) -> usize {
        self.sets_per_slice * self.ways
    }
}

/// Counters the LLC keeps for every request category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Demand (load/store) lookups.
    pub demand_accesses: u64,
    /// Demand lookup misses.
    pub demand_misses: u64,
    /// Prefetch lookups.
    pub prefetch_accesses: u64,
    /// Prefetch lookup misses.
    pub prefetch_misses: u64,
    /// Write-back lookups arriving from L2.
    pub writeback_accesses: u64,
    /// Write-back lookups that missed (the line allocates without a DRAM
    /// fetch, but the miss still triggers a fill).
    pub writeback_misses: u64,
    /// Dirty victims the LLC pushed to DRAM.
    pub dram_writebacks: u64,
    /// Fills that the policy chose to bypass.
    pub bypasses: u64,
    /// Fills installed.
    pub fills: u64,
}

drishti_noc::impl_persist_fields!(LlcStats {
    demand_accesses,
    demand_misses,
    prefetch_accesses,
    prefetch_misses,
    writeback_accesses,
    writeback_misses,
    dram_writebacks,
    bypasses,
    fills,
});

impl LlcStats {
    /// Total lookups across all request categories.
    pub fn total_accesses(&self) -> u64 {
        self.demand_accesses + self.prefetch_accesses + self.writeback_accesses
    }

    /// Total lookup misses across all request categories.
    pub fn total_misses(&self) -> u64 {
        self.demand_misses + self.prefetch_misses + self.writeback_misses
    }
}

/// Per-slice traffic and eviction-reason counters (telemetry).
///
/// Unlike [`SetCounters`] these fold the whole slice together but split
/// *why* lines left: clean eviction, dirty eviction (DRAM write-back), or
/// a bypass that never installed the line at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceCounters {
    /// Lookups (any kind) that hit in this slice.
    pub hits: u64,
    /// Lookups (any kind) that missed in this slice.
    pub misses: u64,
    /// Fills installed into this slice.
    pub fills: u64,
    /// Victims evicted clean.
    pub evictions_clean: u64,
    /// Victims evicted dirty (each one is a DRAM write-back).
    pub evictions_dirty: u64,
    /// Fills the policy chose to bypass.
    pub bypasses: u64,
}

drishti_noc::impl_persist_fields!(SliceCounters {
    hits,
    misses,
    fills,
    evictions_clean,
    evictions_dirty,
    bypasses,
});

/// Per-set instrumentation record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetCounters {
    /// Lookups that indexed this set.
    pub accesses: u64,
    /// Lookups that missed in this set.
    pub misses: u64,
}

drishti_noc::impl_persist_fields!(SetCounters { accesses, misses });

impl SetCounters {
    /// Misses per kilo-access for this set (the paper's MPKA metric, Fig 5).
    pub fn mpka(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / self.accesses as f64
        }
    }
}

/// Result of an LLC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// The slice the address maps to (for NUCA distance).
    pub slice: usize,
    /// Extra critical-path cycles charged by the policy.
    pub extra_latency: u64,
}

/// Result of an LLC fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillResult {
    /// A dirty victim that must be written to DRAM, if any.
    pub writeback: Option<LineAddr>,
    /// Extra critical-path cycles charged by the policy (e.g. a remote
    /// predictor lookup on the fill path).
    pub extra_latency: u64,
    /// Whether the policy chose not to cache the line.
    pub bypassed: bool,
}

/// The sliced LLC.
///
/// The container keeps residency only, struct-of-arrays (DESIGN.md §15):
/// one packed tag plane for the probe scan and `u64` bitsets for
/// valid/dirty. The global line index is `slice * lines_per_slice + set *
/// ways + way`. Policies get the hit or filled way and the displaced
/// line; whatever else they train on (SHiP++'s and Hawkeye's installing
/// PC and core) they keep themselves. Checkpoints save the planes.
pub struct SlicedLlc {
    geom: LlcGeometry,
    /// Cached `geom.lines_per_slice()`.
    lps: usize,
    hasher: Box<dyn SliceHasher>,
    policy: Box<dyn LlcPolicy>,
    /// Resident tag per line (stale after eviction; gated by `valid`).
    tags: Vec<LineAddr>,
    /// Valid bits, packed 64 lines per word.
    valid: Vec<u64>,
    /// Dirty bits, packed 64 lines per word.
    dirty: Vec<u64>,
    set_counters: Vec<Vec<SetCounters>>,
    slice_counters: Vec<SliceCounters>,
    stats: LlcStats,
    observer: Option<Box<dyn LlcObserver>>,
    /// When set, the `n`-th installed fill (1-based) double-counts in its
    /// slice's `fills` counter — a deliberate, hidden corruption used to
    /// prove the conformance harness catches real violations.
    miscount_fill: Option<u64>,
}

impl std::fmt::Debug for SlicedLlc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlicedLlc")
            .field("geom", &self.geom)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SlicedLlc {
    /// Build an LLC with the default complex slice hash.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero slices/sets/ways or a non-power-of-two
    /// set count.
    pub fn new(geom: LlcGeometry, policy: Box<dyn LlcPolicy>) -> Self {
        SlicedLlc::with_hasher(geom, policy, Box::new(XorFoldHash::new()))
    }

    /// Build an LLC with an explicit slice hash (tests use [`ModuloHash`] to
    /// create degenerate mappings).
    ///
    /// [`ModuloHash`]: drishti_noc::slicehash::ModuloHash
    pub fn with_hasher(
        geom: LlcGeometry,
        policy: Box<dyn LlcPolicy>,
        hasher: Box<dyn SliceHasher>,
    ) -> Self {
        assert!(geom.slices > 0 && geom.ways > 0, "degenerate geometry");
        assert!(
            geom.sets_per_slice.is_power_of_two(),
            "sets per slice must be a power of two"
        );
        let lps = geom.lines_per_slice();
        let total = geom.slices * lps;
        let words = total.div_ceil(64);
        SlicedLlc {
            lps,
            tags: vec![0; total],
            valid: vec![0; words],
            dirty: vec![0; words],
            set_counters: vec![vec![SetCounters::default(); geom.sets_per_slice]; geom.slices],
            slice_counters: vec![SliceCounters::default(); geom.slices],
            geom,
            hasher,
            policy,
            stats: LlcStats::default(),
            observer: None,
            miscount_fill: None,
        }
    }

    /// Global line index of `(slice, set, way 0)`.
    #[inline]
    fn set_base(&self, slice: usize, set: usize) -> usize {
        slice * self.lps + set * self.geom.ways
    }

    /// The [`LlcLineState`] of the line at global index `g`.
    #[inline]
    fn line_state_at(&self, g: usize) -> LlcLineState {
        LlcLineState {
            line: self.tags[g],
            valid: bit_get(&self.valid, g),
            dirty: bit_get(&self.dirty, g),
        }
    }

    /// Way holding `line` in the set at `base`, if resident: a branch-light
    /// scan of the valid mask and packed tag plane.
    #[inline]
    fn probe_set(&self, base: usize, line: LineAddr) -> Option<usize> {
        let ways = self.geom.ways;
        if ways <= 64 {
            let mut m = range_mask(&self.valid, base, ways);
            while m != 0 {
                let w = m.trailing_zeros() as usize;
                if self.tags[base + w] == line {
                    return Some(w);
                }
                m &= m - 1;
            }
            None
        } else {
            (0..ways).find(|&w| bit_get(&self.valid, base + w) && self.tags[base + w] == line)
        }
    }

    /// First invalid way of the set at `base`, if any.
    #[inline]
    fn first_invalid(&self, base: usize) -> Option<usize> {
        let ways = self.geom.ways;
        if ways <= 64 {
            let full = if ways == 64 {
                u64::MAX
            } else {
                (1u64 << ways) - 1
            };
            let m = !range_mask(&self.valid, base, ways) & full;
            if m == 0 {
                None
            } else {
                Some(m.trailing_zeros() as usize)
            }
        } else {
            (0..ways).find(|&w| !bit_get(&self.valid, base + w))
        }
    }

    /// Install a shadow observer. Observation-only: results are
    /// byte-identical with or without one.
    pub fn set_observer(&mut self, obs: Box<dyn LlcObserver>) {
        self.observer = Some(obs);
    }

    /// Remove and return the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn LlcObserver>> {
        self.observer.take()
    }

    /// Deliberately corrupt the slice `fills` counter at the `nth` installed
    /// fill (1-based). Exists solely so the conformance harness can prove it
    /// detects, shrinks and replays a real contract violation; never set in
    /// normal operation.
    #[doc(hidden)]
    pub fn inject_fill_miscount(&mut self, nth: u64) {
        self.miscount_fill = Some(nth);
    }

    /// The LLC geometry.
    pub fn geometry(&self) -> &LlcGeometry {
        &self.geom
    }

    /// The governing policy (shared reference).
    pub fn policy(&self) -> &dyn LlcPolicy {
        self.policy.as_ref()
    }

    /// Slice index for a line address.
    pub fn slice_of(&self, line: LineAddr) -> usize {
        self.hasher.slice_of(line, self.geom.slices)
    }

    /// Set index (within its slice) for a line address.
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line as usize) & (self.geom.sets_per_slice - 1)
    }

    /// Probe the LLC for `acc`. Hits update recency (via the policy) and
    /// dirty state; misses notify the policy so samplers observe them.
    pub fn lookup(&mut self, acc: &Access, cycle: u64) -> LookupResult {
        let slice = self.slice_of(acc.line);
        let set = self.set_of(acc.line);
        let loc = LlcLoc { slice, set };
        self.set_counters[slice][set].accesses += 1;
        match acc.kind {
            AccessKind::Load | AccessKind::Store => self.stats.demand_accesses += 1,
            AccessKind::Prefetch => self.stats.prefetch_accesses += 1,
            AccessKind::Writeback => self.stats.writeback_accesses += 1,
        }

        let base = self.set_base(slice, set);
        let way = self.probe_set(base, acc.line);

        if let Some(way) = way {
            self.slice_counters[slice].hits += 1;
            if matches!(acc.kind, AccessKind::Store | AccessKind::Writeback) {
                bit_set(&mut self.dirty, base + way);
            }
            let extra = self.policy.on_hit(loc, way, acc, cycle);
            if let Some(obs) = &mut self.observer {
                obs.on_lookup(acc, loc, Some(way), &self.slice_counters[slice]);
            }
            LookupResult {
                hit: true,
                slice,
                extra_latency: extra,
            }
        } else {
            self.set_counters[slice][set].misses += 1;
            self.slice_counters[slice].misses += 1;
            match acc.kind {
                AccessKind::Load | AccessKind::Store => self.stats.demand_misses += 1,
                AccessKind::Prefetch => self.stats.prefetch_misses += 1,
                AccessKind::Writeback => self.stats.writeback_misses += 1,
            }
            self.policy.on_miss(loc, acc, cycle);
            if let Some(obs) = &mut self.observer {
                obs.on_lookup(acc, loc, None, &self.slice_counters[slice]);
            }
            LookupResult {
                hit: false,
                slice,
                extra_latency: 0,
            }
        }
    }

    /// Snapshot the policy's per-way metadata for `loc`, but only when an
    /// observer is installed (probing is free when shadowing is off).
    fn probe_for_observer(&self, loc: LlcLoc) -> Option<SetProbe> {
        if self.observer.is_some() {
            self.policy.probe().map(|p| p.probe_set(loc))
        } else {
            None
        }
    }

    /// Install the line for `acc` after its miss was serviced. The policy
    /// picks the victim (or bypasses); a dirty victim is returned for DRAM
    /// write-back.
    pub fn fill(&mut self, acc: &Access, cycle: u64) -> FillResult {
        let slice = self.slice_of(acc.line);
        let set = self.set_of(acc.line);
        let loc = LlcLoc { slice, set };
        let base = self.set_base(slice, set);

        // Already resident (e.g. two cores racing on one line): refresh dirty.
        if let Some(way) = self.probe_set(base, acc.line) {
            if matches!(acc.kind, AccessKind::Store | AccessKind::Writeback) {
                bit_set(&mut self.dirty, base + way);
            }
            let probe = self.probe_for_observer(loc);
            if let Some(obs) = &mut self.observer {
                obs.on_fill(
                    acc,
                    loc,
                    FillOutcome::AlreadyResident { way },
                    &self.slice_counters[slice],
                    probe.as_ref(),
                );
            }
            return FillResult {
                writeback: None,
                extra_latency: 0,
                bypassed: false,
            };
        }

        // Prefer an invalid way; otherwise ask the policy.
        let (way, evicted) = match self.first_invalid(base) {
            Some(w) => (w, None),
            None => match self.policy.choose_victim(loc, acc, cycle) {
                Decision::Evict(w) => {
                    assert!(w < self.geom.ways, "policy returned way {w} out of range");
                    (w, Some(self.line_state_at(base + w)))
                }
                Decision::Bypass => {
                    self.stats.bypasses += 1;
                    self.slice_counters[slice].bypasses += 1;
                    let probe = self.probe_for_observer(loc);
                    if let Some(obs) = &mut self.observer {
                        obs.on_fill(
                            acc,
                            loc,
                            FillOutcome::Bypassed,
                            &self.slice_counters[slice],
                            probe.as_ref(),
                        );
                    }
                    // The policy still sees the fill event as a bypass so
                    // it can train; we model that as no state change.
                    return FillResult {
                        writeback: None,
                        extra_latency: 0,
                        bypassed: true,
                    };
                }
            },
        };

        let writeback = evicted.and_then(|v| if v.dirty { Some(v.line) } else { None });
        if writeback.is_some() {
            self.stats.dram_writebacks += 1;
        }
        if evicted.is_some() {
            if writeback.is_some() {
                self.slice_counters[slice].evictions_dirty += 1;
            } else {
                self.slice_counters[slice].evictions_clean += 1;
            }
        }

        let g = base + way;
        self.tags[g] = acc.line;
        bit_set(&mut self.valid, g);
        bit_assign(
            &mut self.dirty,
            g,
            matches!(acc.kind, AccessKind::Store | AccessKind::Writeback),
        );
        self.stats.fills += 1;
        self.slice_counters[slice].fills += 1;
        if self.miscount_fill == Some(self.stats.fills) {
            // Deliberate corruption (see `inject_fill_miscount`).
            self.slice_counters[slice].fills += 1;
        }

        let extra = self.policy.on_fill(loc, way, acc, evicted.as_ref(), cycle);
        let probe = self.probe_for_observer(loc);
        if let Some(obs) = &mut self.observer {
            obs.on_fill(
                acc,
                loc,
                FillOutcome::Installed {
                    way,
                    evicted: evicted.as_ref(),
                },
                &self.slice_counters[slice],
                probe.as_ref(),
            );
        }
        FillResult {
            writeback,
            extra_latency: extra,
            bypassed: false,
        }
    }

    /// Whether `line` is currently resident (no state change).
    pub fn peek(&self, line: LineAddr) -> bool {
        let slice = self.slice_of(line);
        let set = self.set_of(line);
        self.probe_set(self.set_base(slice, set), line).is_some()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    /// Per-set counters of one slice (Fig 5 instrumentation).
    pub fn set_counters(&self, slice: usize) -> &[SetCounters] {
        &self.set_counters[slice]
    }

    /// Per-slice traffic and eviction counters (telemetry), indexed by slice.
    pub fn slice_counters(&self) -> &[SliceCounters] {
        &self.slice_counters
    }

    /// Serialize the LLC's mutable state: the line planes, per-set and
    /// per-slice counters, aggregate stats, and the policy's predictor
    /// state. The geometry, slice hasher, observer, and injected-corruption
    /// knobs are configuration — the loader reconstructs those before
    /// restoring.
    pub fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.tags.save(w);
        self.valid.save(w);
        self.dirty.save(w);
        self.set_counters.save(w);
        self.slice_counters.save(w);
        self.stats.save(w);
        self.policy.save_state(w);
    }

    /// Restore state written by [`SlicedLlc::save_state`] into an LLC built
    /// with the same geometry and policy configuration.
    pub fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.tags.load(r)?;
        self.valid.load(r)?;
        self.dirty.load(r)?;
        self.set_counters.load(r)?;
        self.slice_counters.load(r)?;
        self.stats.load(r)?;
        self.policy.load_state(r)
    }

    /// Number of valid lines currently resident in one slice.
    pub fn slice_occupancy(&self, slice: usize) -> usize {
        let start = slice * self.lps;
        (start..start + self.lps)
            .filter(|&g| bit_get(&self.valid, g))
            .count()
    }

    /// Number of valid lines resident across all slices (tests).
    pub fn resident_lines(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Decision;
    use drishti_noc::slicehash::ModuloHash;

    /// Tiny always-evict-way-0 policy for container tests.
    #[derive(Debug, Default)]
    struct EvictZero {
        hits: u64,
        misses: u64,
        fills: u64,
    }

    impl LlcPolicy for EvictZero {
        fn name(&self) -> String {
            "evict-zero".into()
        }
        fn on_hit(&mut self, _: LlcLoc, _: usize, _: &Access, _: u64) -> u64 {
            self.hits += 1;
            0
        }
        fn on_miss(&mut self, _: LlcLoc, _: &Access, _: u64) {
            self.misses += 1;
        }
        fn choose_victim(&mut self, _: LlcLoc, _: &Access, _: u64) -> Decision {
            Decision::Evict(0)
        }
        fn on_fill(
            &mut self,
            _: LlcLoc,
            _: usize,
            _: &Access,
            _: Option<&LlcLineState>,
            _: u64,
        ) -> u64 {
            self.fills += 1;
            0
        }
    }

    fn small_geom() -> LlcGeometry {
        LlcGeometry {
            slices: 4,
            sets_per_slice: 8,
            ways: 2,
            latency: 20,
        }
    }

    #[test]
    fn per_core_2mb_geometry() {
        let g = LlcGeometry::per_core_2mb(32);
        assert_eq!(g.capacity_bytes(), 32 * 2 * 1024 * 1024);
        assert_eq!(g.lines_per_slice(), 32 * 1024);
    }

    #[test]
    fn size_sweep_geometries() {
        assert_eq!(LlcGeometry::per_core_mib(16, 1).capacity_bytes(), 16 << 20);
        assert_eq!(LlcGeometry::per_core_mib(16, 4).capacity_bytes(), 64 << 20);
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let mut llc = SlicedLlc::new(small_geom(), Box::new(EvictZero::default()));
        let acc = Access::load(0, 0x400, 0x1234);
        assert!(!llc.lookup(&acc, 0).hit);
        llc.fill(&acc, 0);
        assert!(llc.lookup(&acc, 1).hit);
        assert_eq!(llc.stats().demand_accesses, 2);
        assert_eq!(llc.stats().demand_misses, 1);
    }

    #[test]
    fn same_line_same_slice_always() {
        let llc = SlicedLlc::new(small_geom(), Box::new(EvictZero::default()));
        for line in 0..1000u64 {
            assert_eq!(llc.slice_of(line), llc.slice_of(line));
            assert!(llc.slice_of(line) < 4);
        }
    }

    #[test]
    fn dirty_victim_produces_dram_writeback() {
        let g = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 1,
            latency: 20,
        };
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(EvictZero::default()),
            Box::new(ModuloHash::new()),
        );
        let st = Access::store(0, 0x1, 100);
        llc.lookup(&st, 0);
        llc.fill(&st, 0);
        let ld = Access::load(0, 0x2, 200);
        llc.lookup(&ld, 1);
        let fr = llc.fill(&ld, 1);
        assert_eq!(fr.writeback, Some(100));
        assert_eq!(llc.stats().dram_writebacks, 1);
    }

    #[test]
    fn writeback_hit_marks_dirty() {
        let g = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 2,
            latency: 20,
        };
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(EvictZero::default()),
            Box::new(ModuloHash::new()),
        );
        let ld = Access::load(0, 0x1, 100);
        llc.lookup(&ld, 0);
        llc.fill(&ld, 0);
        let wb = Access::writeback(0, 100);
        assert!(llc.lookup(&wb, 1).hit);
        // Evict it: way 0 holds line 100 and is now dirty.
        let ld2 = Access::load(0, 0x2, 200);
        llc.lookup(&ld2, 2);
        llc.fill(&ld2, 2);
        let ld3 = Access::load(0, 0x3, 300);
        llc.lookup(&ld3, 3);
        let fr = llc.fill(&ld3, 3);
        assert_eq!(fr.writeback, Some(100));
    }

    #[test]
    fn set_counters_track_mpka() {
        let mut llc = SlicedLlc::new(small_geom(), Box::new(EvictZero::default()));
        let acc = Access::load(0, 0x1, 0x40);
        let slice = llc.slice_of(0x40);
        let set = llc.set_of(0x40);
        llc.lookup(&acc, 0); // miss
        llc.fill(&acc, 0);
        llc.lookup(&acc, 1); // hit
        let c = llc.set_counters(slice)[set];
        assert_eq!(c.accesses, 2);
        assert_eq!(c.misses, 1);
        assert!((c.mpka() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn resident_never_exceeds_capacity() {
        let mut llc = SlicedLlc::new(small_geom(), Box::new(EvictZero::default()));
        for a in 0..2000u64 {
            let acc = Access::load(0, 0x1, a % 257);
            if !llc.lookup(&acc, a).hit {
                llc.fill(&acc, a);
            }
        }
        assert!(llc.resident_lines() <= 4 * 8 * 2);
    }

    #[test]
    fn refill_of_resident_line_is_idempotent() {
        let mut llc = SlicedLlc::new(small_geom(), Box::new(EvictZero::default()));
        let acc = Access::load(0, 0x1, 42);
        llc.lookup(&acc, 0);
        llc.fill(&acc, 0);
        llc.fill(&acc, 1);
        assert_eq!(llc.resident_lines(), 1);
    }

    #[test]
    fn writeback_miss_is_counted() {
        let mut llc = SlicedLlc::new(small_geom(), Box::new(EvictZero::default()));
        let wb = Access::writeback(0, 0x99);
        assert!(!llc.lookup(&wb, 0).hit);
        assert_eq!(llc.stats().writeback_accesses, 1);
        assert_eq!(llc.stats().writeback_misses, 1);
        assert_eq!(llc.stats().total_accesses(), 1);
        assert_eq!(llc.stats().total_misses(), 1);
    }

    #[test]
    fn slice_counters_track_hits_misses_and_evictions() {
        let g = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 1,
            latency: 20,
        };
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(EvictZero::default()),
            Box::new(ModuloHash::new()),
        );
        // Miss + fill, hit, then a conflicting store evicts the clean line,
        // and a second conflict evicts the now-dirty line.
        let ld = Access::load(0, 0x1, 1);
        llc.lookup(&ld, 0);
        llc.fill(&ld, 0);
        llc.lookup(&ld, 1);
        let st = Access::store(0, 0x2, 2);
        llc.lookup(&st, 2);
        llc.fill(&st, 2);
        let ld3 = Access::load(0, 0x3, 3);
        llc.lookup(&ld3, 3);
        llc.fill(&ld3, 3);

        let c = llc.slice_counters()[0];
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 3);
        assert_eq!(c.fills, 3);
        assert_eq!(c.evictions_clean, 1);
        assert_eq!(c.evictions_dirty, 1);
        assert_eq!(c.bypasses, 0);
        assert_eq!(c.hits + c.misses, llc.stats().total_accesses());
        assert_eq!(llc.slice_occupancy(0), 1);
    }
}
