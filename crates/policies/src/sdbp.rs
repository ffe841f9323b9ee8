//! SDBP: sampling dead block prediction [Khan, Tian & Jiménez, MICRO 2010
//! — paper ref 34].
//!
//! SDBP learns whether the loads of a PC produce *dead* blocks (never
//! reused before eviction). A sampler — a handful of sets with their own
//! small LRU tag arrays — observes evictions: a sampler victim that was
//! never re-referenced trains its PC "dead", a sampler hit trains "live".
//! A skewed three-table predictor votes at fill and access time; blocks
//! predicted dead become preferential eviction victims.
//!
//! Per the paper's Table 7, SDBP benefits from both Drishti enhancements:
//! its predictor tables can be per-core-yet-global and its sampler sets
//! dynamic (D-SDBP).

use crate::common::{label, PerLine};
use crate::sampler::{Entry, Sampler};
use drishti_core::config::DrishtiConfig;
use drishti_core::fabric::PredictorFabric;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};
use drishti_noc::NocStats;

/// Three skewed tables of 2-bit counters.
const TABLE_BITS: u32 = 12;
const N_TABLES: usize = 3;
const COUNTER_MAX: u8 = 3;
/// Vote sum at or above this predicts "dead".
const DEAD_THRESHOLD: u32 = 5;
/// Sampler associativity (smaller than the LLC's, per the original).
const SAMPLER_WAYS: usize = 12;

/// Default sampled sets per slice (random / Drishti dynamic).
pub const STATIC_SAMPLED_SETS: usize = 64;
pub const DYNAMIC_SAMPLED_SETS: usize = 16;

#[derive(Debug)]
pub struct Sdbp {
    label: String,
    stamp: PerLine<u64>,
    dead: PerLine<bool>,
    clock: u64,
    /// Small LRU tag arrays stamped from `clock`; each entry notes whether
    /// its line was re-referenced.
    sampler: Sampler<bool, ()>,
    /// `tables[bank][table][index]`.
    tables: Vec<[Vec<u8>; N_TABLES]>,
    fabric: PredictorFabric,
    dead_trainings: u64,
    live_trainings: u64,
    dead_fills: u64,
}

impl Sdbp {
    /// Build SDBP for `geom` under the organisation `cfg`.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let fabric = cfg.build_fabric();
        Sdbp {
            label: label("sdbp", cfg),
            stamp: PerLine::new(geom),
            dead: PerLine::new(geom),
            clock: 0,
            sampler: Sampler::new(
                geom,
                cfg,
                (STATIC_SAMPLED_SETS, DYNAMIC_SAMPLED_SETS),
                SAMPLER_WAYS,
                (),
            ),
            tables: (0..fabric.banks())
                .map(|_| std::array::from_fn(|_| vec![0u8; 1 << TABLE_BITS]))
                .collect(),
            fabric,
            dead_trainings: 0,
            live_trainings: 0,
            dead_fills: 0,
        }
    }

    fn indices(signature: u64, core: usize) -> [usize; N_TABLES] {
        let mut x = signature ^ (core as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        std::array::from_fn(|t| {
            x ^= x >> 23;
            x = x.wrapping_mul(0x2127_599b_f432_5c37 ^ (t as u64) << 17);
            x ^= x >> 47;
            (x & ((1 << TABLE_BITS) - 1)) as usize
        })
    }

    fn train(&mut self, slice: usize, signature: u64, core: usize, dead: bool, cycle: u64) {
        if dead {
            self.dead_trainings += 1;
        } else {
            self.live_trainings += 1;
        }
        let t = self.fabric.train(slice, core, cycle);
        if !t.delivered {
            return; // update lost in transit; later evictions retrain
        }
        let bank = t.bank;
        for (t, idx) in Self::indices(signature, core).into_iter().enumerate() {
            let c = &mut self.tables[bank][t][idx];
            *c = if dead {
                (*c + 1).min(COUNTER_MAX)
            } else {
                c.saturating_sub(1)
            };
        }
    }

    fn predict_dead(
        &mut self,
        slice: usize,
        signature: u64,
        core: usize,
        cycle: u64,
    ) -> (bool, u64) {
        let p = self.fabric.predict(slice, core, cycle);
        if p.fallback {
            // Abandoned lookup: the untrained default (zeroed counters)
            // never votes dead — insert normally, the safe static choice.
            return (false, p.latency);
        }
        let vote: u32 = Self::indices(signature, core)
            .into_iter()
            .enumerate()
            .map(|(t, idx)| u32::from(self.tables[p.bank][t][idx]))
            .sum();
        (vote >= DEAD_THRESHOLD, p.latency)
    }

    fn sample_access(&mut self, loc: LlcLoc, acc: &Access, llc_hit: bool, cycle: u64) {
        let Some(set) = self.sampler.observe(loc, acc, llc_hit) else {
            return;
        };
        self.clock += 1;
        let entry = Entry::new(acc, self.clock, false);
        let (trained, dead) = match set.find(entry.tag) {
            // Re-reference in the sampler: the previous signature was live.
            Some(i) => {
                let referenced = Entry {
                    extra: true,
                    ..entry
                };
                (std::mem::replace(&mut set.entries[i], referenced), false)
            }
            // Miss in the sampler: evict its LRU entry; unreferenced ⇒ dead.
            None => match set.insert(entry) {
                Some(old) if !old.extra => (old, true),
                _ => return,
            },
        };
        self.train(
            loc.slice,
            trained.signature,
            trained.core as usize,
            dead,
            cycle,
        );
    }
}

impl PolicyProbe for Sdbp {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        self.stamp.probe(loc, ProbeKind::RecencyStamp)
    }
}

impl LlcPolicy for Sdbp {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and excluded; the fabric serializes through
    // its own hooks (its link is a trait object).
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.stamp.save(w);
        self.dead.save(w);
        self.clock.save(w);
        self.sampler.save(w);
        self.tables.save(w);
        self.fabric.save_state(w);
        self.dead_trainings.save(w);
        self.live_trainings.save(w);
        self.dead_fills.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.stamp.load(r)?;
        self.dead.load(r)?;
        self.clock.load(r)?;
        self.sampler.load(r)?;
        self.tables.load(r)?;
        self.fabric.load_state(r)?;
        self.dead_trainings.load(r)?;
        self.live_trainings.load(r)?;
        self.dead_fills.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(&mut self, loc: LlcLoc, way: usize, acc: &Access, cycle: u64) -> u64 {
        self.sample_access(loc, acc, true, cycle);
        self.clock += 1;
        *self.stamp.get_mut(loc.slice, loc.set, way) = self.clock;
        // A hit proves the block live; clear any stale dead mark.
        *self.dead.get_mut(loc.slice, loc.set, way) = false;
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) {
        self.sample_access(loc, acc, false, cycle);
    }

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        // Prefer a predicted-dead block; fall back to LRU.
        if let Some(w) = self.dead.set(loc.slice, loc.set).iter().position(|&d| d) {
            return Decision::Evict(w);
        }
        let stamps = self.stamp.set(loc.slice, loc.set);
        let victim = (0..stamps.len())
            .min_by_key(|&w| stamps[w])
            .expect("nonzero ways");
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
        self.clock += 1;
        *self.stamp.get_mut(loc.slice, loc.set, way) = self.clock;
        let (dead, lat) = if acc.kind == AccessKind::Writeback {
            (true, 0) // dirty evictions from L2 are typically dead at LLC
        } else {
            self.predict_dead(loc.slice, acc.signature(), acc.core, cycle)
        };
        if dead {
            self.dead_fills += 1;
        }
        *self.dead.get_mut(loc.slice, loc.set, way) = dead;
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        self.fabric.counters().diagnostics(&[
            ("dead_trainings", self.dead_trainings),
            ("live_trainings", self.live_trainings),
            ("dead_fills", self.dead_fills),
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
            Sdbp::new(&geom(), &DrishtiConfig::baseline(1)).name(),
            "sdbp"
        );
        assert_eq!(
            Sdbp::new(&geom(), &DrishtiConfig::drishti(1)).name(),
            "d-sdbp"
        );
    }

    #[test]
    fn dead_blocks_from_scans_are_evicted_first() {
        let g = geom();
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(Sdbp::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        let mut trace = Vec::new();
        let mut stream = 70_000u64;
        for _ in 0..400 {
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
        let sdbp_hits = run(&mut llc, &trace);
        let mut lru = SlicedLlc::with_hasher(
            g,
            Box::new(crate::lru::Lru::new(&g)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            sdbp_hits > lru_hits,
            "sdbp {sdbp_hits} should beat lru {lru_hits}"
        );
        let d = llc.policy().diagnostics();
        let get = |n: &str| d.iter().find(|(k, _)| k == n).unwrap().1;
        assert!(get("dead_trainings") > 0);
        assert!(get("dead_fills") > 0);
    }

    #[test]
    fn hit_clears_dead_mark() {
        let g = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways: 2,
            latency: 20,
        };
        let mut c = DrishtiConfig::baseline(1);
        c.sampled_sets_override = Some(1);
        let mut llc =
            SlicedLlc::with_hasher(g, Box::new(Sdbp::new(&g, &c)), Box::new(ModuloHash::new()));
        // Train PC 0xD dead via a long scan.
        let trace: Vec<(u64, u64)> = (0..4000u64).map(|i| (0xD, i)).collect();
        run(&mut llc, &trace);
        // Now a 0xD line that *is* reused must survive its next eviction
        // decision once it has hit.
        let a = Access::load(0, 0xD, 999_999);
        llc.lookup(&a, 10_000);
        llc.fill(&a, 10_000);
        assert!(llc.lookup(&a, 10_001).hit, "line resident, must hit");
    }
}
