//! Mockingjay: effective mimicry of Belady's MIN [Shah, Jain & Lin,
//! HPCA 2022; paper ref 52].
//!
//! Mockingjay generalises Hawkeye's binary friendly/averse classification
//! to a *multi-class* problem: a PC-indexed predictor estimates each line's
//! reuse distance, every resident line carries an Estimated Time Remaining
//! (ETR) counter that is aged as the set is accessed, and the line with the
//! largest |ETR| (the one OPT would least want) is evicted. A sampled cache
//! with timestamps measures true reuse distances to train the predictor;
//! lines evicted from the sampler unreused train an INFINITE distance, and
//! fills predicted INFINITE are bypassed.
//!
//! As with [`crate::hawkeye::Hawkeye`], the [`DrishtiConfig`] decides the
//! predictor organisation (per-slice-per-core myopic baseline vs. Drishti's
//! per-core-yet-global banks) and the sampled-set selection (random
//! 32/slice vs. dynamic 16/slice), yielding D-Mockingjay.

use crate::common::{label, predictor_index, PerLine};
use crate::sampler::{Entry, Sampler};
use drishti_core::config::DrishtiConfig;
use drishti_core::fabric::PredictorFabric;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};
use drishti_noc::NocStats;

/// Predictor index width: 2048 entries × 7 bits = 1.75 KB (Table 3).
const INDEX_BITS: u32 = 11;
/// Reuse distances are stored in units of `GRANULARITY` set accesses. With
/// 7-bit distance classes this gives a reuse horizon of ~127 set accesses —
/// comparable to Hawkeye's 8×associativity OPTgen window.
const GRANULARITY: u8 = 1;
/// The INFINITE reuse-distance class.
pub const INF_RD: u8 = 127;
/// Untrained predictor sentinel.
const UNTRAINED: u8 = 255;
/// Predictions at or above this are treated as no-reuse (bypass).
const BYPASS_THRESHOLD: u8 = 120;
/// Default insertion ETR for untrained demand signatures.
const DEFAULT_ETR: i8 = 24;
/// Default insertion ETR for untrained *prefetch* signatures — speculative
/// fills are given far less protection until the sampler vouches for them.
const DEFAULT_PREFETCH_ETR: i8 = 56;
/// ETR saturation bounds (6-bit magnitude + sign, paper Table 3's 5-bit
/// value plus set clock).
const ETR_MAX: i8 = 63;
const ETR_MIN: i8 = -63;
/// Sampler entries per sampled set (80 × 30-bit entries, Table 3).
const SAMPLER_FACTOR: usize = 5;

/// Default sampled sets per slice: conventional random / Drishti dynamic.
pub const STATIC_SAMPLED_SETS: usize = 32;
pub const DYNAMIC_SAMPLED_SETS: usize = 16;

/// One logged prediction for the paper's ETR case studies (Figs 3, 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EtrSample {
    /// Requesting core.
    pub core: usize,
    /// Slice where the fill happened.
    pub slice: usize,
    /// Predicted reuse distance, in granularity units (INF_RD = no reuse).
    pub pred_units: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct MockingjayDiag {
    sampler_hits: u64,
    sampler_evictions: u64,
    bypasses: u64,
    fills: u64,
}

drishti_noc::impl_persist_fields!(MockingjayDiag {
    sampler_hits,
    sampler_evictions,
    bypasses,
    fills,
});

/// The Mockingjay replacement policy (and D-Mockingjay when built with a
/// Drishti configuration).
#[derive(Debug)]
pub struct Mockingjay {
    label: String,
    etr: PerLine<i8>,
    /// Predicted units stored at fill, re-armed on hits.
    pred: PerLine<u8>,
    set_clock: Vec<Vec<u8>>,
    /// Sampled sets, each stamping its entries with its own access count.
    sampler: Sampler<(), u64>,
    predictors: Vec<Vec<u8>>,
    fabric: PredictorFabric,
    pending: Option<(u8, u64)>,
    diag: MockingjayDiag,
    /// Histogram of predicted reuse classes at fill (paper Fig 4a/b).
    pred_histogram: Vec<u64>,
    etr_log: Option<(u64, std::rc::Rc<std::cell::RefCell<Vec<EtrSample>>>)>,
}

impl Mockingjay {
    /// Build Mockingjay for `geom` under the organisation `cfg`.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let fabric = cfg.build_fabric();
        Mockingjay {
            label: label("mockingjay", cfg),
            etr: PerLine::new(geom),
            pred: PerLine::new(geom),
            set_clock: vec![vec![0; geom.sets_per_slice]; geom.slices],
            sampler: Sampler::new(
                geom,
                cfg,
                (STATIC_SAMPLED_SETS, DYNAMIC_SAMPLED_SETS),
                SAMPLER_FACTOR * geom.ways,
                0,
            ),
            predictors: vec![vec![UNTRAINED; 1 << INDEX_BITS]; fabric.banks()],
            fabric,
            pending: None,
            diag: MockingjayDiag::default(),
            pred_histogram: vec![0; 128],
            etr_log: None,
        }
    }

    /// Log every prediction made for loads of `pc` (Figs 3, 18). Returns a
    /// shared handle that keeps filling while the policy runs — read it
    /// after the simulation even though the policy itself was moved into
    /// the engine.
    pub fn enable_etr_log(&mut self, pc: u64) -> std::rc::Rc<std::cell::RefCell<Vec<EtrSample>>> {
        let handle = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        self.etr_log = Some((pc, handle.clone()));
        handle
    }

    /// Histogram of predicted reuse classes assigned at fill.
    pub fn pred_histogram(&self) -> &[u64] {
        &self.pred_histogram
    }

    fn train(&mut self, slice: usize, signature: u64, core: usize, units: u8, cycle: u64) {
        let t = self.fabric.train(slice, core, cycle);
        if !t.delivered {
            return; // update lost in transit; later samples retrain
        }
        let bank = t.bank;
        let idx = predictor_index(signature, core, INDEX_BITS);
        let update = |e: &mut u8| {
            *e = if *e == UNTRAINED {
                units
            } else {
                // Exponential decay toward the observed distance.
                ((3 * u16::from(*e) + u16::from(units) + 2) / 4).min(u16::from(INF_RD)) as u8
            };
        };
        if self.fabric.sampler_org().requires_broadcast()
            && self.fabric.org() == drishti_core::org::PredictorOrg::LocalPerSlice
        {
            // Global sampled cache with local predictors: broadcast the
            // training to the core's entry in every slice (paper Figs 6–7).
            for b in self.fabric.broadcast_banks(core) {
                update(&mut self.predictors[b][idx]);
            }
        } else {
            update(&mut self.predictors[bank][idx]);
        }
    }

    fn predict(&mut self, slice: usize, acc: &Access, cycle: u64) -> (u8, u64) {
        let p = self.fabric.predict(slice, acc.core, cycle);
        let lat = p.latency;
        // An abandoned lookup behaves like an untrained entry: the static
        // default ETR below takes over (the local fallback decision).
        let e = if p.fallback {
            UNTRAINED
        } else {
            self.predictors[p.bank][predictor_index(acc.signature(), acc.core, INDEX_BITS)]
        };
        let units = if e == UNTRAINED {
            if acc.kind == AccessKind::Prefetch {
                DEFAULT_PREFETCH_ETR as u8
            } else {
                DEFAULT_ETR as u8
            }
        } else {
            e
        };
        if let Some((pc, log)) = &self.etr_log {
            if acc.pc == *pc {
                log.borrow_mut().push(EtrSample {
                    core: acc.core,
                    slice,
                    pred_units: units,
                });
            }
        }
        (units, lat)
    }

    /// Age the ETRs of a set every `GRANULARITY` accesses.
    fn age(&mut self, loc: LlcLoc) {
        let c = &mut self.set_clock[loc.slice][loc.set];
        *c += 1;
        if *c >= GRANULARITY {
            *c = 0;
            for e in self.etr.set_mut(loc.slice, loc.set) {
                *e = (*e - 1).max(ETR_MIN);
            }
        }
    }

    fn sample_access(&mut self, loc: LlcLoc, acc: &Access, llc_hit: bool, cycle: u64) {
        let Some(set) = self.sampler.observe(loc, acc, llc_hit) else {
            return;
        };
        set.clock += 1;
        let now = set.clock;

        // Entries older than the maximum representable reuse distance are
        // effectively never-reused: train their PC toward INFINITE and free
        // the slot (the hardware analogue is the 8-bit timestamp wrapping).
        let horizon = u64::from(INF_RD) * u64::from(GRANULARITY) / 2;
        let mut expired: Vec<(u64, u32)> = Vec::new();
        for e in &mut set.entries {
            if e.valid && now - e.stamp >= horizon {
                e.valid = false;
                expired.push((e.signature, e.core));
            }
        }

        let entry = Entry::new(acc, now, ());
        let trained = match set.find(entry.tag) {
            Some(i) => {
                let prev = std::mem::replace(&mut set.entries[i], entry);
                let distance = now - prev.stamp;
                let units = (distance / u64::from(GRANULARITY)).min(u64::from(INF_RD) - 1) as u8;
                self.diag.sampler_hits += 1;
                Some((prev, units))
            }
            // Evicted unreused: its PC trains toward INFINITE reuse.
            None => set.insert(entry).map(|old| {
                self.diag.sampler_evictions += 1;
                (old, INF_RD)
            }),
        };
        for (sig_e, core_e) in expired {
            self.diag.sampler_evictions += 1;
            self.train(loc.slice, sig_e, core_e as usize, INF_RD, cycle);
        }
        if let Some((e, units)) = trained {
            self.train(loc.slice, e.signature, e.core as usize, units, cycle);
        }
    }

    fn etr_from_units(units: u8) -> i8 {
        (units as i16).min(ETR_MAX as i16) as i8
    }
}

impl PolicyProbe for Mockingjay {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        let kind = ProbeKind::Bounded {
            min: ETR_MIN as i64,
            max: ETR_MAX as i64,
        };
        self.etr.probe(loc, kind)
    }
}

impl LlcPolicy for Mockingjay {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and `etr_log` an instrumentation side
    // channel (Rc handle, re-armed by the caller if wanted) — both
    // excluded; the fabric serializes through its own hooks.
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.etr.save(w);
        self.pred.save(w);
        self.set_clock.save(w);
        self.sampler.save(w);
        self.predictors.save(w);
        self.fabric.save_state(w);
        self.pending.save(w);
        self.diag.save(w);
        self.pred_histogram.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.etr.load(r)?;
        self.pred.load(r)?;
        self.set_clock.load(r)?;
        self.sampler.load(r)?;
        self.predictors.load(r)?;
        self.fabric.load_state(r)?;
        self.pending.load(r)?;
        self.diag.load(r)?;
        self.pred_histogram.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(&mut self, loc: LlcLoc, way: usize, acc: &Access, cycle: u64) -> u64 {
        self.age(loc);
        self.sample_access(loc, acc, true, cycle);
        // Re-arm the line's ETR with a fresh prediction. The bank is read
        // directly: the ETR refresh is metadata riding the hit response, so
        // it is neither charged latency nor counted toward the fill-path
        // APKI the paper reports in Fig 10.
        let bank = self.fabric.bank_of(loc.slice, acc.core);
        let e = self.predictors[bank][predictor_index(acc.signature(), acc.core, INDEX_BITS)];
        let units = if e == UNTRAINED { DEFAULT_ETR as u8 } else { e };
        // (hits are demand-side; the prefetch default does not apply)
        *self.pred.get_mut(loc.slice, loc.set, way) = units;
        *self.etr.get_mut(loc.slice, loc.set, way) = Self::etr_from_units(units);
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) {
        self.age(loc);
        self.sample_access(loc, acc, false, cycle);
    }

    fn choose_victim(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) -> Decision {
        // Predict the incoming line here so the bypass decision can compare
        // it against the resident ETRs; the fill consumes the result.
        let (units, lat) = if acc.kind == AccessKind::Writeback {
            (INF_RD, 0)
        } else {
            self.predict(loc.slice, acc, cycle)
        };

        let etrs = self.etr.set(loc.slice, loc.set);
        let victim = (0..etrs.len())
            .max_by_key(|&w| etrs[w].unsigned_abs())
            .expect("nonzero ways");

        // Bypass demand/prefetch fills predicted dead when every resident
        // line is expected to be reused sooner.
        if acc.kind != AccessKind::Writeback
            && units >= BYPASS_THRESHOLD
            && u32::from(etrs[victim].unsigned_abs()) < u32::from(units.min(ETR_MAX as u8))
        {
            self.diag.bypasses += 1;
            self.pending = None;
            return Decision::Bypass;
        }
        self.pending = Some((units, lat));
        Decision::Evict(victim)
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        _evicted: Option<&LlcLineState>,
        cycle: u64,
    ) -> u64 {
        let (units, lat) = match self.pending.take() {
            Some(p) => p,
            None => {
                if acc.kind == AccessKind::Writeback {
                    (INF_RD, 0)
                } else {
                    self.predict(loc.slice, acc, cycle)
                }
            }
        };
        self.diag.fills += 1;
        self.pred_histogram[units.min(INF_RD) as usize] += 1;
        *self.pred.get_mut(loc.slice, loc.set, way) = units;
        *self.etr.get_mut(loc.slice, loc.set, way) = Self::etr_from_units(units);
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        // Quartile buckets over the predicted reuse-distance classes
        // assigned at fill — the Fig 4a/b distribution in coarse form.
        let bucket = |lo: usize, hi: usize| self.pred_histogram[lo..hi].iter().sum::<u64>();
        self.fabric.counters().diagnostics(&[
            ("sampler_hits", self.diag.sampler_hits),
            ("sampler_evictions", self.diag.sampler_evictions),
            ("bypasses", self.diag.bypasses),
            ("fills", self.diag.fills),
            ("pred_q0", bucket(0, 16)),
            ("pred_q1", bucket(16, 48)),
            ("pred_q2", bucket(48, 112)),
            ("pred_q3", bucket(112, 128)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing::{cfg, geom, run};
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    fn llc_with(geom: LlcGeometry, cfg: &DrishtiConfig) -> SlicedLlc {
        SlicedLlc::with_hasher(
            geom,
            Box::new(Mockingjay::new(&geom, cfg)),
            Box::new(ModuloHash::new()),
        )
    }

    #[test]
    fn names_follow_configuration() {
        let g = geom();
        assert_eq!(
            Mockingjay::new(&g, &DrishtiConfig::baseline(1)).name(),
            "mockingjay"
        );
        assert_eq!(
            Mockingjay::new(&g, &DrishtiConfig::drishti(1)).name(),
            "d-mockingjay"
        );
    }

    #[test]
    fn beats_lru_on_mixed_reuse_scan() {
        let mut llc = llc_with(geom(), &cfg());
        let mut trace = Vec::new();
        let mut stream = 100_000u64;
        for _ in 0..400 {
            for k in 0..32u64 {
                trace.push((0xAAAA, k));
            }
            for _ in 0..64 {
                stream += 1;
                trace.push((0xBBBB, stream));
            }
        }
        let hits = run(&mut llc, &trace);
        let geom = geom();
        let mut lru = SlicedLlc::with_hasher(
            geom,
            Box::new(crate::lru::Lru::new(&geom)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            hits > lru_hits + (trace.len() / 10) as u64,
            "mockingjay {hits} must clearly beat lru {lru_hits}"
        );
    }

    #[test]
    fn streaming_pc_trains_infinite_and_bypasses() {
        let mut llc = llc_with(geom(), &cfg());
        let trace: Vec<(u64, u64)> = (0..20_000u64).map(|i| (0xDEAD, i)).collect();
        run(&mut llc, &trace);
        let diags = llc.policy().diagnostics();
        let get = |n: &str| diags.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("sampler_evictions") > 0);
        assert!(get("bypasses") > 0, "dead stream should eventually bypass");
    }

    #[test]
    fn short_reuse_trains_small_distances() {
        let mut llc = llc_with(geom(), &cfg());
        // Tight loop: reuse distance far below INF.
        let trace: Vec<(u64, u64)> = (0..30_000u64).map(|i| (0xF00D, i % 16)).collect();
        run(&mut llc, &trace);
        let mj = llc.policy();
        let diags = mj.diagnostics();
        let hits = diags.iter().find(|(k, _)| k == "sampler_hits").unwrap().1;
        assert!(hits > 1000, "tight loop must hit in the sampler: {hits}");
    }

    #[test]
    fn etr_log_captures_target_pc_only() {
        let geom = geom();
        let mut mj = Mockingjay::new(&geom, &cfg());
        let handle = mj.enable_etr_log(0x42);
        let mut llc = SlicedLlc::with_hasher(geom, Box::new(mj), Box::new(ModuloHash::new()));
        for i in 0..2000u64 {
            let pc = if i % 2 == 0 { 0x42 } else { 0x43 };
            let a = Access::load(0, pc, i % 256);
            if !llc.lookup(&a, i).hit {
                llc.fill(&a, i);
            }
        }
        // The shared handle observes predictions even though the policy was
        // moved into the container.
        let log = handle.borrow();
        assert!(!log.is_empty(), "target PC must be logged");
        assert!(log.iter().all(|s| s.core == 0));
    }

    #[test]
    fn writebacks_never_bypass_and_die_quickly() {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 2,
            latency: 20,
        };
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(1);
        let mut llc = llc_with(geom, &c);
        let wb = Access::writeback(0, 111);
        llc.lookup(&wb, 0);
        let fr = llc.fill(&wb, 0);
        assert!(!fr.bypassed, "write-backs must be cached");
        assert!(llc.peek(111));
    }

    #[test]
    fn pred_histogram_populates() {
        let geom = geom();
        let mut llc = llc_with(geom, &cfg());
        let trace: Vec<(u64, u64)> = (0..5000u64).map(|i| (0x7, i % 200)).collect();
        run(&mut llc, &trace);
        // Reconstruct: the histogram lives on the concrete type; drive one
        // directly for visibility.
        let mut mj = Mockingjay::new(&geom, &cfg());
        let mut container = SlicedLlc::with_hasher(
            geom,
            Box::new(Mockingjay::new(&geom, &cfg())),
            Box::new(ModuloHash::new()),
        );
        for i in 0..5000u64 {
            let a = Access::load(0, 0x7, i % 200);
            if !container.lookup(&a, i).hit {
                container.fill(&a, i);
            }
            let _ = &mut mj;
        }
        let fills = container
            .policy()
            .diagnostics()
            .iter()
            .find(|(k, _)| k == "fills")
            .unwrap()
            .1;
        assert!(fills > 0);
    }
}
