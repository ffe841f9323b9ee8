//! SHiP++: signature-based hit prediction [Wu et al., MICRO 2011; Young et
//! al., CRC-2 2017 — paper refs 60, 61].
//!
//! SHiP attaches a PC signature to every inserted line and an *outcome* bit
//! that records whether the line was reused. A Signature History Counter
//! Table (SHCT) of saturating counters is incremented when a sampled line
//! is reused and decremented when a sampled line dies unreused. Insertion
//! is RRIP-based: signatures with zero counters insert distant, saturated
//! signatures insert near. SHiP++ refinements kept here: write-backs insert
//! distant, prefetches are signatured with a folded prefetch bit.
//!
//! Training happens only on *sampled* sets, so SHiP++ composes with both
//! Drishti enhancements (Table 8's D-SHiP++): the SHCT can be per-slice
//! (myopic), centralized, or per-core-yet-global, and sampled sets can be
//! random or dynamic.

use crate::common::{label, rrip_victim, selectors, Installer, Installers, PerLine};
use drishti_core::config::DrishtiConfig;
use drishti_core::fabric::PredictorFabric;
use drishti_core::select::SetSelector;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};
use drishti_noc::NocStats;

const MAX_RRPV: u8 = 3;
const SHCT_BITS: u32 = 14;
const SHCT_MAX: u8 = 7;
const SHCT_INIT: u8 = 3;

/// Default sampled sets per slice (random / Drishti dynamic).
pub const STATIC_SAMPLED_SETS: usize = 64;
pub const DYNAMIC_SAMPLED_SETS: usize = 16;

/// The SHiP++ replacement policy (D-SHiP++ under a Drishti configuration).
#[derive(Debug)]
pub struct ShipPp {
    label: String,
    rrpv: PerLine<u8>,
    outcome: PerLine<bool>,
    /// Who installed each line: the SHCT entry its outcome trains.
    installers: Installers,
    selectors: Vec<SetSelector>,
    shct: Vec<Vec<u8>>,
    fabric: PredictorFabric,
    trains_up: u64,
    trains_down: u64,
}

impl ShipPp {
    /// Build SHiP++ for `geom` under the organisation `cfg`.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let fabric = cfg.build_fabric();
        ShipPp {
            label: label("ship++", cfg),
            rrpv: PerLine::new(geom),
            outcome: PerLine::new(geom),
            installers: Installers::new(geom, cfg.cores, SHCT_BITS),
            shct: vec![vec![SHCT_INIT; 1 << SHCT_BITS]; fabric.banks()],
            fabric,
            selectors: selectors(geom, cfg, (STATIC_SAMPLED_SETS, DYNAMIC_SAMPLED_SETS)),
            trains_up: 0,
            trains_down: 0,
        }
    }

    fn train(&mut self, slice: usize, by: Installer, reused: bool, cycle: u64) {
        let t = self.fabric.train(slice, by.core(), cycle);
        if !t.delivered {
            return; // update lost in transit; later evictions retrain
        }
        let c = &mut self.shct[t.bank][by.index()];
        if reused {
            self.trains_up += 1;
            *c = (*c + 1).min(SHCT_MAX);
        } else {
            self.trains_down += 1;
            *c = c.saturating_sub(1);
        }
    }
}

impl PolicyProbe for ShipPp {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        let kind = ProbeKind::Bounded {
            min: 0,
            max: MAX_RRPV as i64,
        };
        self.rrpv.probe(loc, kind)
    }
}

impl LlcPolicy for ShipPp {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and excluded; the fabric serializes through
    // its own hooks (its link is a trait object).
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.rrpv.save(w);
        self.outcome.save(w);
        self.installers.save(w);
        self.selectors.save(w);
        self.shct.save(w);
        self.fabric.save_state(w);
        self.trains_up.save(w);
        self.trains_down.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.rrpv.load(r)?;
        self.outcome.load(r)?;
        self.installers.load(r)?;
        self.selectors.load(r)?;
        self.shct.load(r)?;
        self.fabric.load_state(r)?;
        self.trains_up.load(r)?;
        self.trains_down.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(&mut self, loc: LlcLoc, way: usize, acc: &Access, cycle: u64) -> u64 {
        self.selectors[loc.slice].observe(loc.set, true);
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        // Sampled sets train on the first reuse of a line.
        if self.selectors[loc.slice].slot_of(loc.set).is_some()
            && !*self.outcome.get(loc.slice, loc.set, way)
        {
            *self.outcome.get_mut(loc.slice, loc.set, way) = true;
            // The line's own installer may have had no PC (a write-back);
            // its entry trains all the same.
            if acc.kind.has_pc() {
                let by = self.installers.get(loc.slice, loc.set, way);
                self.train(loc.slice, by, true, cycle);
            }
        }
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) {
        self.selectors[loc.slice].observe(loc.set, false);
    }

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        Decision::Evict(rrip_victim(self.rrpv.set_mut(loc.slice, loc.set), MAX_RRPV))
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        evicted: Option<&LlcLineState>,
        cycle: u64,
    ) -> u64 {
        // Detrain the dead victim if this is a sampled set. `way` still
        // holds the victim's installer until the install below.
        let victim = self.installers.get(loc.slice, loc.set, way);
        if evicted.is_some()
            && self.selectors[loc.slice].slot_of(loc.set).is_some()
            && victim.has_pc()
            && !*self.outcome.get(loc.slice, loc.set, way)
        {
            self.train(loc.slice, victim, false, cycle);
        }
        *self.outcome.get_mut(loc.slice, loc.set, way) = false;
        let by = self.installers.install(loc.slice, loc.set, way, acc);

        let (insert, lat) = if acc.kind == AccessKind::Writeback {
            (MAX_RRPV, 0)
        } else {
            let p = self.fabric.predict(loc.slice, acc.core, cycle);
            let lat = p.latency;
            // An abandoned lookup uses the untrained-default counter
            // (intermediate confidence ⇒ SRRIP-like RRPV 2 below).
            let c = if p.fallback {
                SHCT_INIT
            } else {
                self.shct[p.bank][by.index()]
            };
            let rrpv = if c == 0 {
                MAX_RRPV // never reused: distant
            } else if c >= SHCT_MAX {
                1 // strongly reused: near
            } else {
                2 // default long re-reference
            };
            (rrpv, lat)
        };
        *self.rrpv.get_mut(loc.slice, loc.set, way) = insert;
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        self.fabric.counters().fault_diagnostics(&[
            ("trains_up", self.trains_up),
            ("trains_down", self.trains_down),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testing::{cfg, geom, run};
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    #[test]
    fn names() {
        assert_eq!(
            ShipPp::new(&geom(), &DrishtiConfig::baseline(1)).name(),
            "ship++"
        );
        assert_eq!(
            ShipPp::new(&geom(), &DrishtiConfig::drishti(1)).name(),
            "d-ship++"
        );
    }

    #[test]
    fn scanning_pc_becomes_distant_and_reuse_survives() {
        let g = geom();
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(ShipPp::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        // SHiP learns from *observed* reuse, so the friendly working set is
        // walked twice per iteration (it hits within the iteration) while a
        // scan tries to flush it between iterations.
        let mut trace = Vec::new();
        let mut stream = 50_000u64;
        for _ in 0..300 {
            for _ in 0..2 {
                for k in 0..16u64 {
                    trace.push((0xAAAA, k));
                }
            }
            for _ in 0..64 {
                stream += 1;
                trace.push((0xBBBB, stream));
            }
        }
        let ship_hits = run(&mut llc, &trace);
        let mut lru = SlicedLlc::with_hasher(
            g,
            Box::new(crate::lru::Lru::new(&g)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            ship_hits > lru_hits,
            "ship++ {ship_hits} should beat lru {lru_hits}"
        );
        let d = llc.policy().diagnostics();
        assert!(d.iter().find(|(k, _)| k == "trains_down").unwrap().1 > 0);
        assert!(d.iter().find(|(k, _)| k == "trains_up").unwrap().1 > 0);
    }
}
