//! Property-based tests (proptest) of the core invariants.

use drishti::core::config::DrishtiConfig;
use drishti::core::dsc::{DscConfig, DynamicSampledCache};
use drishti::mem::access::Access;
use drishti::mem::llc::{LlcGeometry, SlicedLlc};
use drishti::noc::slicehash::{SliceHasher, XorFoldHash};
use drishti::policies::factory::{all_policies, PolicyKind};
use drishti::policies::opt::{next_use_indices, simulate_opt};
use drishti::sim::metrics::MixMetrics;
use proptest::prelude::*;

fn small_geom() -> LlcGeometry {
    LlcGeometry {
        slices: 2,
        sets_per_slice: 8,
        ways: 4,
        latency: 20,
    }
}

/// Run an online policy over a trace, returning its hit count.
fn run_policy(kind: PolicyKind, trace: &[Access]) -> u64 {
    let geom = small_geom();
    let mut llc = SlicedLlc::new(geom, kind.build(&geom, DrishtiConfig::baseline(2)));
    let mut hits = 0;
    for (i, a) in trace.iter().enumerate() {
        if llc.lookup(a, i as u64).hit {
            hits += 1;
        } else {
            llc.fill(a, i as u64);
        }
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Belady's OPT is optimal: no online policy may exceed its hit count
    /// on any trace.
    #[test]
    fn opt_is_an_upper_bound(lines in prop::collection::vec(0u64..80, 50..400)) {
        let trace: Vec<Access> = lines
            .iter()
            .enumerate()
            .map(|(i, &l)| Access::load(i % 2, 0x40 + (l % 7), l))
            .collect();
        let opt = simulate_opt(&trace, &small_geom());
        for kind in all_policies() {
            let hits = run_policy(kind, &trace);
            prop_assert!(
                hits <= opt.hits,
                "{kind} got {hits} hits, OPT only {}", opt.hits
            );
        }
    }

    /// next_use_indices inverts correctly: the index it names really is the
    /// next occurrence of the same line.
    #[test]
    fn next_use_is_correct(lines in prop::collection::vec(0u64..30, 20..200)) {
        let trace: Vec<Access> = lines.iter().map(|&l| Access::load(0, 1, l)).collect();
        let next = next_use_indices(&trace);
        for (i, &n) in next.iter().enumerate() {
            if n != u64::MAX {
                let n = n as usize;
                prop_assert!(n > i);
                prop_assert_eq!(trace[n].line, trace[i].line);
                // No earlier occurrence in between.
                for t in trace.iter().take(n).skip(i + 1) {
                    prop_assert_ne!(t.line, trace[i].line);
                }
            }
        }
    }

    /// The LLC container never exceeds capacity and stays consistent under
    /// arbitrary access interleavings for every policy.
    #[test]
    fn llc_capacity_invariant(
        ops in prop::collection::vec((0u64..200, 0usize..2, any::<bool>()), 100..400)
    ) {
        let geom = small_geom();
        for kind in all_policies() {
            let mut llc = SlicedLlc::new(geom, kind.build(&geom, DrishtiConfig::drishti(2)));
            for (i, &(line, core, store)) in ops.iter().enumerate() {
                let a = if store {
                    Access::store(core, 0x9, line)
                } else {
                    Access::load(core, 0x9, line)
                };
                if !llc.lookup(&a, i as u64).hit {
                    llc.fill(&a, i as u64);
                }
                prop_assert!(llc.resident_lines() <= 2 * 8 * 4);
            }
            let s = llc.stats();
            prop_assert_eq!(s.demand_accesses, ops.len() as u64);
            prop_assert!(s.fills <= s.demand_misses + s.writeback_accesses);
        }
    }

    /// The slice hash is total and stable over the whole address space.
    #[test]
    fn slice_hash_total_and_stable(addr in any::<u64>(), slices in 1usize..64) {
        let h = XorFoldHash::new();
        let s1 = h.slice_of(addr, slices);
        let s2 = h.slice_of(addr, slices);
        prop_assert_eq!(s1, s2);
        prop_assert!(s1 < slices);
    }

    /// Saturating counters in the DSC never leave their range and
    /// selection always returns exactly n_sampled distinct sets.
    #[test]
    fn dsc_selection_invariants(
        accesses in prop::collection::vec((0usize..64, any::<bool>()), 200..2000)
    ) {
        let cfg = DscConfig {
            monitor_interval: 100,
            active_interval: 200,
            ..DscConfig::paper_default(8)
        };
        let mut dsc = DynamicSampledCache::new(cfg, 64);
        for &(set, hit) in &accesses {
            dsc.observe(set, hit);
            let mut sel = dsc.sampled_sets().to_vec();
            prop_assert_eq!(sel.len(), 8);
            sel.sort_unstable();
            sel.dedup();
            prop_assert_eq!(sel.len(), 8, "duplicate sampled sets");
            prop_assert!(sel.iter().all(|&s| s < 64));
        }
    }

    /// Every policy the factory can build appears in `all_policies()`, so
    /// the parametrized properties above really cover the whole roster.
    #[test]
    fn all_policies_is_the_factory_roster(_x in 0u8..1) {
        let roster = all_policies();
        prop_assert_eq!(roster.clone(), PolicyKind::all().to_vec());
        let mut labels: Vec<&str> = roster.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        prop_assert_eq!(labels.len(), roster.len(), "duplicate policy labels");
    }

    /// Mix metrics are internally consistent for arbitrary IPC vectors.
    #[test]
    fn metrics_invariants(
        together in prop::collection::vec(0.01f64..4.0, 2..16),
        scale in 0.5f64..2.0
    ) {
        let alone: Vec<f64> = together.iter().map(|t| t * scale).collect();
        let m = MixMetrics::new(&together, &alone);
        let n = together.len() as f64;
        prop_assert!(m.weighted_speedup() > 0.0);
        prop_assert!((m.weighted_speedup() - n / scale).abs() < 1e-6);
        prop_assert!(m.harmonic_speedup() <= m.weighted_speedup() / n + 1e-9);
        prop_assert!(m.unfairness() >= 1.0 - 1e-9);
    }
}

// ---------------------------------------------------------------------------
// SoA layout equivalence (DESIGN.md §15).
//
// `SlicedLlc` stores line metadata struct-of-arrays; before the rework it
// held `Vec<Vec<LlcLineState>>` per slice. `RefLlc` below reimplements the
// container's observable protocol over that original per-line layout, and
// the property drives both through identical fig13-mix access streams for
// every policy × both predictor organisations, asserting bit-identical
// outcomes, `SliceCounters` and `LlcStats`.
// ---------------------------------------------------------------------------

mod soa_equivalence {
    use drishti::mem::access::{Access, AccessKind};
    use drishti::mem::llc::{LlcGeometry, LlcStats, SliceCounters, SlicedLlc};
    use drishti::mem::policy::{Decision, LlcLineState, LlcLoc, LlcPolicy};
    use drishti::noc::slicehash::{SliceHasher, XorFoldHash};
    use drishti::trace::mix::paper_mixes;
    use drishti::trace::WorkloadGen;

    /// Per-set instrumentation mirror (accesses, misses).
    #[derive(Clone, Copy, Default)]
    struct RefSetCounters {
        accesses: u64,
        misses: u64,
    }

    /// The pre-rework per-line container: one `Vec<LlcLineState>` per
    /// slice, probed way-by-way. Mirrors `SlicedLlc`'s lookup/fill
    /// protocol exactly (minus observers), so any divergence is a bug in
    /// the SoA layout, not in this model.
    pub struct RefLlc {
        geom: LlcGeometry,
        hasher: XorFoldHash,
        policy: Box<dyn LlcPolicy>,
        lines: Vec<Vec<LlcLineState>>,
        set_counters: Vec<Vec<RefSetCounters>>,
        pub slice_counters: Vec<SliceCounters>,
        pub stats: LlcStats,
    }

    impl RefLlc {
        pub fn new(geom: LlcGeometry, policy: Box<dyn LlcPolicy>) -> Self {
            RefLlc {
                lines: vec![vec![LlcLineState::default(); geom.lines_per_slice()]; geom.slices],
                set_counters: vec![
                    vec![RefSetCounters::default(); geom.sets_per_slice];
                    geom.slices
                ],
                slice_counters: vec![SliceCounters::default(); geom.slices],
                stats: LlcStats::default(),
                hasher: XorFoldHash::new(),
                geom,
                policy,
            }
        }

        fn loc_of(&self, line: u64) -> (usize, usize) {
            (
                self.hasher.slice_of(line, self.geom.slices),
                (line as usize) & (self.geom.sets_per_slice - 1),
            )
        }

        /// Hit/miss plus policy-charged latency, as `SlicedLlc::lookup`.
        pub fn lookup(&mut self, acc: &Access, cycle: u64) -> (bool, u64) {
            let (slice, set) = self.loc_of(acc.line);
            let loc = LlcLoc { slice, set };
            self.set_counters[slice][set].accesses += 1;
            match acc.kind {
                AccessKind::Load | AccessKind::Store => self.stats.demand_accesses += 1,
                AccessKind::Prefetch => self.stats.prefetch_accesses += 1,
                AccessKind::Writeback => self.stats.writeback_accesses += 1,
            }
            let ways = self.geom.ways;
            let start = set * ways;
            let set_lines = &mut self.lines[slice][start..start + ways];
            if let Some(way) = set_lines.iter().position(|l| l.valid && l.line == acc.line) {
                self.slice_counters[slice].hits += 1;
                if matches!(acc.kind, AccessKind::Store | AccessKind::Writeback) {
                    set_lines[way].dirty = true;
                }
                let extra = self.policy.on_hit(loc, way, acc, cycle);
                (true, extra)
            } else {
                self.set_counters[slice][set].misses += 1;
                self.slice_counters[slice].misses += 1;
                match acc.kind {
                    AccessKind::Load | AccessKind::Store => self.stats.demand_misses += 1,
                    AccessKind::Prefetch => self.stats.prefetch_misses += 1,
                    AccessKind::Writeback => self.stats.writeback_misses += 1,
                }
                self.policy.on_miss(loc, acc, cycle);
                (false, 0)
            }
        }

        /// Install after a miss, as `SlicedLlc::fill`. Returns
        /// `(writeback, extra_latency, bypassed)`.
        pub fn fill(&mut self, acc: &Access, cycle: u64) -> (Option<u64>, u64, bool) {
            let (slice, set) = self.loc_of(acc.line);
            let loc = LlcLoc { slice, set };
            let ways = self.geom.ways;
            let start = set * ways;

            if let Some(way) = self.lines[slice][start..start + ways]
                .iter()
                .position(|l| l.valid && l.line == acc.line)
            {
                if matches!(acc.kind, AccessKind::Store | AccessKind::Writeback) {
                    self.lines[slice][start + way].dirty = true;
                }
                return (None, 0, false);
            }

            let invalid = self.lines[slice][start..start + ways]
                .iter()
                .position(|l| !l.valid);
            let (way, evicted) = match invalid {
                Some(w) => (w, None),
                None => match self.policy.choose_victim(loc, acc, cycle) {
                    Decision::Evict(w) => (w, Some(self.lines[slice][start + w])),
                    Decision::Bypass => {
                        self.stats.bypasses += 1;
                        self.slice_counters[slice].bypasses += 1;
                        return (None, 0, true);
                    }
                },
            };

            let writeback = evicted.and_then(|v: LlcLineState| v.dirty.then_some(v.line));
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

            self.lines[slice][start + way] = LlcLineState {
                line: acc.line,
                valid: true,
                dirty: matches!(acc.kind, AccessKind::Store | AccessKind::Writeback),
            };
            self.stats.fills += 1;
            self.slice_counters[slice].fills += 1;

            let extra = self.policy.on_fill(loc, way, acc, evicted.as_ref(), cycle);
            (writeback, extra, false)
        }

        pub fn resident_lines(&self) -> usize {
            self.lines
                .iter()
                .flat_map(|s| s.iter())
                .filter(|l| l.valid)
                .count()
        }
    }

    /// Access stream of a fig13-preset mix: cores round-robin, each
    /// pulling from its own synthetic workload; stores map `is_store`.
    pub fn mix_stream(mix_index: usize, cores: usize, len: usize) -> Vec<Access> {
        let mixes = paper_mixes(cores, 3, 3);
        let mix = &mixes[mix_index % mixes.len()];
        let mut workloads = mix.build();
        (0..len)
            .map(|i| {
                let c = i % cores;
                let rec = workloads[c].next_record();
                if rec.is_store {
                    Access::store(c, rec.pc, rec.line)
                } else {
                    Access::load(c, rec.pc, rec.line)
                }
            })
            .collect()
    }

    /// Drive both containers through the same stream; panic on divergence.
    pub fn assert_equivalent(
        geom: LlcGeometry,
        soa: &mut SlicedLlc,
        reference: &mut RefLlc,
        stream: &[Access],
    ) {
        for (i, acc) in stream.iter().enumerate() {
            let cycle = i as u64;
            let a = soa.lookup(acc, cycle);
            let b = reference.lookup(acc, cycle);
            assert_eq!(
                (a.hit, a.extra_latency),
                b,
                "lookup diverged at access {i} ({acc:?})"
            );
            if !a.hit {
                let f = soa.fill(acc, cycle);
                let g = reference.fill(acc, cycle);
                assert_eq!(
                    (f.writeback, f.extra_latency, f.bypassed),
                    g,
                    "fill diverged at access {i} ({acc:?})"
                );
            }
        }
        assert_eq!(soa.stats(), &reference.stats, "LlcStats diverged");
        assert_eq!(
            soa.slice_counters(),
            &reference.slice_counters[..],
            "SliceCounters diverged"
        );
        assert_eq!(soa.resident_lines(), reference.resident_lines());
        for s in 0..geom.slices {
            assert_eq!(
                soa.slice_occupancy(s),
                reference.lines[s].iter().filter(|l| l.valid).count(),
                "slice {s} occupancy diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SoA `SlicedLlc` and the pre-rework per-line layout produce
    /// bit-identical outcomes, `SliceCounters` and `LlcStats` on random
    /// fig13-preset access streams, for every policy in the roster under
    /// both the baseline and drishti organisations.
    #[test]
    fn soa_layout_matches_per_line_reference(
        mix_index in 0usize..6,
        len in 400usize..900,
    ) {
        let cores = 2usize;
        let geom = LlcGeometry {
            slices: cores,
            sets_per_slice: 32,
            ways: 8,
            latency: 20,
        };
        let stream = soa_equivalence::mix_stream(mix_index, cores, len);
        for kind in all_policies() {
            for drishti_org in [false, true] {
                let cfg = if drishti_org {
                    DrishtiConfig::drishti(cores)
                } else {
                    DrishtiConfig::baseline(cores)
                };
                let mut soa = SlicedLlc::new(geom, kind.build(&geom, cfg.clone()));
                let mut reference =
                    soa_equivalence::RefLlc::new(geom, kind.build(&geom, cfg));
                soa_equivalence::assert_equivalent(geom, &mut soa, &mut reference, &stream);
            }
        }
    }
}

/// What the container hands to policies matches its own state: the way
/// `on_hit` names holds the hit line, `choose_victim` is asked only when
/// the set is full, and the `evicted` line `on_fill` receives is the
/// victim's exact residency (line, valid, dirty).
#[test]
fn llc_line_state_view_round_trips_at_policy_boundary() {
    use drishti::mem::policy::{Decision, LlcLineState, LlcLoc, LlcPolicy};
    use drishti::noc::slicehash::ModuloHash;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One policy callback as the spy saw it: `Hit(set, way, line)`,
    /// `Victim(set, incoming line)`, `Fill(set, way, evicted)`.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Hit(usize, usize, u64),
        Victim(usize, u64),
        Fill(usize, usize, Option<LlcLineState>),
    }
    type Seen = Rc<RefCell<Vec<Call>>>;

    /// Records every callback; evicts way 0 when asked.
    #[derive(Debug)]
    struct SpyPolicy(Seen);
    impl LlcPolicy for SpyPolicy {
        fn name(&self) -> String {
            "spy".into()
        }
        fn on_hit(&mut self, loc: LlcLoc, way: usize, acc: &Access, _: u64) -> u64 {
            self.0.borrow_mut().push(Call::Hit(loc.set, way, acc.line));
            0
        }
        fn on_miss(&mut self, _: LlcLoc, _: &Access, _: u64) {}
        fn choose_victim(&mut self, loc: LlcLoc, acc: &Access, _: u64) -> Decision {
            self.0.borrow_mut().push(Call::Victim(loc.set, acc.line));
            Decision::Evict(0)
        }
        fn on_fill(
            &mut self,
            loc: LlcLoc,
            way: usize,
            _: &Access,
            evicted: Option<&LlcLineState>,
            _: u64,
        ) -> u64 {
            let evicted = evicted.copied();
            self.0.borrow_mut().push(Call::Fill(loc.set, way, evicted));
            0
        }
    }

    let seen: Seen = Rc::new(RefCell::new(Vec::new()));
    let geom = LlcGeometry {
        slices: 1,
        sets_per_slice: 4,
        ways: 2,
        latency: 20,
    };
    // ModuloHash with one slice: set index is the line's low bits, so the
    // mapping below is exact by construction.
    let mut llc = SlicedLlc::with_hasher(
        geom,
        Box::new(SpyPolicy(seen.clone())),
        Box::new(ModuloHash::new()),
    );

    // Install two lines in set 0, one dirty and one clean: invalid ways
    // are filled in order and the policy is never asked for a victim.
    let a = Access::store(0, 0x100, 0); // line 0 -> set 0, dirty
    let b = Access::load(1, 0x200, 4); // line 4 -> set 0, clean
    assert!(!llc.lookup(&a, 0).hit);
    llc.fill(&a, 0);
    assert!(!llc.lookup(&b, 1).hit);
    llc.fill(&b, 1);
    let installs = [Call::Fill(0, 0, None), Call::Fill(0, 1, None)];
    assert_eq!(seen.borrow().as_slice(), &installs);

    // on_hit names the way that holds the hit line.
    seen.borrow_mut().clear();
    assert!(llc.lookup(&Access::load(0, 0x300, 4), 2).hit);
    assert!(llc.lookup(&Access::load(0, 0x300, 0), 3).hit);
    let hits = [Call::Hit(0, 1, 4), Call::Hit(0, 0, 0)];
    assert_eq!(seen.borrow().as_slice(), &hits);

    // A conflicting fill into the full set asks for a victim, then hands
    // on_fill the displaced line exactly: line 0, valid, dirty.
    seen.borrow_mut().clear();
    let c = Access::load(0, 0x400, 8); // line 8 -> set 0, set now full
    assert!(!llc.lookup(&c, 4).hit);
    let fr = llc.fill(&c, 4);
    assert_eq!(fr.writeback, Some(0), "the dirty victim is written back");
    let victim = LlcLineState {
        line: 0,
        valid: true,
        dirty: true,
    };
    let eviction = [Call::Victim(0, 8), Call::Fill(0, 0, Some(victim))];
    assert_eq!(seen.borrow().as_slice(), &eviction);
    assert!(llc.peek(8) && llc.peek(4) && !llc.peek(0));
}

/// Historical proptest shrink of `llc_capacity_invariant`, promoted to an
/// explicit test: the vendored proptest shim does not read
/// `.proptest-regressions` seed files, so checked-in `cc` entries are
/// never replayed at runtime. Saved failure cases therefore live here as
/// named deterministic tests instead (see README "Golden snapshots and
/// proptest regressions").
#[test]
fn llc_capacity_regression_shrunk_case() {
    const OPS: &[(u64, usize, bool)] = &[
        (31, 1, false),
        (81, 1, false),
        (171, 0, false),
        (40, 0, true),
        (66, 0, true),
        (126, 1, false),
        (104, 1, false),
        (34, 0, true),
        (134, 1, false),
        (146, 0, false),
        (81, 0, false),
        (128, 0, false),
        (183, 0, false),
        (32, 0, true),
        (59, 0, true),
        (152, 0, true),
        (6, 1, false),
        (87, 1, true),
        (128, 0, true),
        (134, 0, false),
        (71, 0, false),
        (164, 1, true),
        (127, 0, false),
        (124, 0, true),
        (56, 1, false),
        (112, 1, true),
        (16, 0, false),
        (54, 1, true),
        (35, 0, false),
        (90, 0, false),
        (27, 0, true),
        (31, 0, true),
        (158, 0, false),
        (94, 1, true),
        (109, 1, true),
        (100, 1, true),
        (89, 1, true),
        (10, 0, true),
        (13, 0, true),
        (151, 1, false),
        (29, 1, false),
        (115, 0, false),
        (83, 0, false),
        (106, 1, false),
        (58, 1, true),
        (183, 1, false),
        (142, 0, true),
        (65, 1, false),
        (92, 0, true),
        (168, 0, true),
        (130, 1, false),
        (168, 0, false),
        (70, 1, true),
        (130, 0, true),
        (157, 0, true),
        (36, 1, true),
        (36, 1, false),
        (132, 1, false),
        (176, 1, true),
        (154, 0, true),
        (198, 0, false),
        (87, 0, false),
        (59, 0, true),
        (10, 0, true),
        (27, 1, true),
        (178, 0, false),
        (75, 0, true),
        (187, 0, true),
        (2, 1, true),
        (167, 0, true),
        (84, 1, false),
        (109, 0, false),
        (171, 1, false),
        (89, 0, false),
        (109, 1, true),
        (7, 0, true),
        (53, 0, false),
        (176, 1, false),
        (113, 0, true),
        (129, 0, false),
        (162, 1, true),
        (113, 1, false),
        (152, 0, true),
        (17, 1, true),
        (55, 1, true),
        (189, 1, false),
        (2, 0, true),
        (107, 1, false),
        (106, 0, false),
        (190, 0, true),
        (164, 0, true),
        (99, 1, true),
        (69, 0, true),
        (10, 1, true),
        (158, 0, true),
        (9, 0, true),
        (72, 0, true),
        (183, 1, true),
        (10, 0, true),
        (104, 0, false),
        (147, 1, true),
        (35, 1, false),
        (6, 1, false),
        (165, 1, true),
        (103, 0, true),
        (192, 0, true),
        (13, 1, false),
        (144, 0, true),
        (52, 1, true),
        (159, 1, true),
        (67, 1, false),
        (36, 1, false),
        (47, 1, true),
        (36, 0, false),
        (25, 1, false),
        (87, 0, false),
        (165, 1, true),
        (121, 1, false),
        (14, 0, false),
        (139, 0, true),
        (71, 0, true),
        (171, 1, true),
        (107, 1, false),
        (28, 1, false),
    ];
    let geom = small_geom();
    for kind in all_policies() {
        let mut llc = SlicedLlc::new(geom, kind.build(&geom, DrishtiConfig::drishti(2)));
        for (i, &(line, core, store)) in OPS.iter().enumerate() {
            let a = if store {
                Access::store(core, 0x9, line)
            } else {
                Access::load(core, 0x9, line)
            };
            if !llc.lookup(&a, i as u64).hit {
                llc.fill(&a, i as u64);
            }
            assert!(
                llc.resident_lines() <= 2 * 8 * 4,
                "{kind} overflowed at op {i}"
            );
        }
        let s = llc.stats();
        assert_eq!(s.demand_accesses, OPS.len() as u64);
        assert!(s.fills <= s.demand_misses + s.writeback_accesses, "{kind}");
    }
}
