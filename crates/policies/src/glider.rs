//! Glider-like: integer-SVM reuse prediction [Shi et al., MICRO 2019 —
//! paper ref 55].
//!
//! Glider distils an offline LSTM into a practical online predictor: an
//! Integer SVM (ISVM) whose features are the contents of a per-core *PC
//! History Register* (PCHR — the last few load PCs), trained with OPTgen
//! outcomes exactly like Hawkeye. A load is predicted cache-friendly when
//! the sum of its PC's ISVM weights over the current history exceeds a
//! threshold.
//!
//! This model keeps the PCHR + per-PC ISVM weight vectors + OPTgen
//! training; the original's dual-threshold confidence levels are collapsed
//! to friendly/averse, which is all the RRIP insertion consumes (see
//! DESIGN.md §1). Under a Drishti configuration (D-Glider, Table 8) the
//! ISVM tables follow the per-core-yet-global organisation and the sampled
//! sets the dynamic sampled cache.

use crate::common::{label, predictor_index, PerLine};
use crate::hawkeye::optgen::OptGen;
use crate::sampler::{Entry, Sampler};
use drishti_core::config::DrishtiConfig;
use drishti_core::fabric::PredictorFabric;
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};
use drishti_noc::NocStats;

const MAX_RRPV: u8 = 7;
const AGE_CEILING: u8 = 6;
const PCHR_LEN: usize = 5;
const FEATURE_BUCKETS: usize = 16;
const WEIGHT_CAP: i8 = 31;
/// Stop updating once the margin is confidently correct (SVM hinge).
const TRAIN_MARGIN: i32 = 20;
const TABLE_BITS: u32 = 11;
const HISTORY_FACTOR: usize = 8;

/// Default sampled sets per slice (random / Drishti dynamic).
pub const STATIC_SAMPLED_SETS: usize = 64;
pub const DYNAMIC_SAMPLED_SETS: usize = 8;

/// A PC history's feature buckets, newest first.
pub(crate) type Features = [u8; PCHR_LEN];

/// The Glider-like replacement policy.
#[derive(Debug)]
pub struct Glider {
    label: String,
    rrpv: PerLine<u8>,
    /// Sampled sets with their OPT emulators; each entry keeps the PC
    /// history its access saw.
    sampler: Sampler<Features, OptGen>,
    /// `isvm[bank][pc_index]` = weight vector over feature buckets.
    isvm: Vec<Vec<[i8; FEATURE_BUCKETS]>>,
    pchr: Vec<[u8; PCHR_LEN]>,
    fabric: PredictorFabric,
    trainings: u64,
}

impl Glider {
    /// Build Glider for `geom` under the organisation `cfg`.
    pub fn new(geom: &LlcGeometry, cfg: &DrishtiConfig) -> Self {
        let fabric = cfg.build_fabric();
        let history = HISTORY_FACTOR * geom.ways;
        Glider {
            label: label("glider", cfg),
            rrpv: PerLine::new(geom),
            sampler: Sampler::new(
                geom,
                cfg,
                (STATIC_SAMPLED_SETS, DYNAMIC_SAMPLED_SETS),
                history,
                OptGen::new(geom.ways, history),
            ),
            isvm: vec![vec![[0; FEATURE_BUCKETS]; 1 << TABLE_BITS]; fabric.banks()],
            pchr: vec![[0; PCHR_LEN]; cfg.cores],
            fabric,
            trainings: 0,
        }
    }

    fn bucket(pc: u64) -> u8 {
        ((pc ^ (pc >> 7) ^ (pc >> 17)) % FEATURE_BUCKETS as u64) as u8
    }

    fn push_pchr(&mut self, core: usize, pc: u64) {
        let h = &mut self.pchr[core];
        h.copy_within(0..PCHR_LEN - 1, 1);
        h[0] = Self::bucket(pc);
    }

    fn features(&self, core: usize) -> Features {
        self.pchr[core]
    }

    fn score(&self, bank: usize, signature: u64, core: usize, feats: &Features) -> i32 {
        let w = &self.isvm[bank][predictor_index(signature, core, TABLE_BITS)];
        feats.iter().map(|&f| i32::from(w[f as usize])).sum()
    }

    fn train(
        &mut self,
        slice: usize,
        signature: u64,
        core: usize,
        feats: &Features,
        friendly: bool,
        cycle: u64,
    ) {
        self.trainings += 1;
        let t = self.fabric.train(slice, core, cycle);
        if !t.delivered {
            return; // update lost in transit; later samples retrain
        }
        let bank = t.bank;
        let s = self.score(bank, signature, core, feats);
        // Hinge: only update while the margin is not confidently correct.
        if friendly && s > TRAIN_MARGIN {
            return;
        }
        if !friendly && s < -TRAIN_MARGIN {
            return;
        }
        let w = &mut self.isvm[bank][predictor_index(signature, core, TABLE_BITS)];
        for &f in feats {
            let wf = &mut w[f as usize];
            *wf = if friendly {
                (*wf + 1).min(WEIGHT_CAP)
            } else {
                (*wf - 1).max(-WEIGHT_CAP)
            };
        }
    }

    fn sample_access(&mut self, loc: LlcLoc, acc: &Access, llc_hit: bool, cycle: u64) {
        let Some(set) = self.sampler.observe(loc, acc, llc_hit) else {
            return;
        };
        set.clock.advance();
        let entry = Entry::new(acc, set.clock.now(), self.pchr[acc.core]);
        let (trained, opt_hit) = match set.find(entry.tag) {
            Some(i) => {
                let prev = std::mem::replace(&mut set.entries[i], entry);
                let opt_hit = set.clock.decide(prev.stamp);
                (prev, opt_hit)
            }
            None => match set.insert(entry) {
                Some(old) => (old, false),
                None => return,
            },
        };
        self.train(
            loc.slice,
            trained.signature,
            trained.core as usize,
            &trained.extra,
            opt_hit,
            cycle,
        );
    }
}

impl PolicyProbe for Glider {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        let kind = ProbeKind::Bounded {
            min: 0,
            max: MAX_RRPV as i64,
        };
        self.rrpv.probe(loc, kind)
    }
}

impl LlcPolicy for Glider {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    // `label` is config-derived and excluded; the fabric serializes through
    // its own hooks (its link is a trait object).
    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.rrpv.save(w);
        self.sampler.save(w);
        self.isvm.save(w);
        self.pchr.save(w);
        self.fabric.save_state(w);
        self.trainings.save(w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.rrpv.load(r)?;
        self.sampler.load(r)?;
        self.isvm.load(r)?;
        self.pchr.load(r)?;
        // A feature bucket indexes an ISVM weight vector, so every restored
        // one must be below FEATURE_BUCKETS.
        let sampled = self.sampler.entries().filter(|e| e.valid).map(|e| &e.extra);
        if let Some(f) = self
            .pchr
            .iter()
            .chain(sampled)
            .find(|f| f.iter().any(|&b| usize::from(b) >= FEATURE_BUCKETS))
        {
            return Err(drishti_noc::snap::SnapError::Invalid {
                what: "glider feature",
                detail: format!("buckets {f:?} are not all below {FEATURE_BUCKETS}"),
            });
        }
        self.fabric.load_state(r)?;
        self.trainings.load(r)
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn on_hit(&mut self, loc: LlcLoc, way: usize, acc: &Access, cycle: u64) -> u64 {
        self.sample_access(loc, acc, true, cycle);
        if acc.kind.has_pc() {
            self.push_pchr(acc.core, acc.pc);
        }
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        0
    }

    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, cycle: u64) {
        self.sample_access(loc, acc, false, cycle);
        if acc.kind.has_pc() {
            self.push_pchr(acc.core, acc.pc);
        }
    }

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        let rrpvs = self.rrpv.set(loc.slice, loc.set);
        if let Some(w) = rrpvs.iter().position(|&r| r == MAX_RRPV) {
            return Decision::Evict(w);
        }
        let w = (0..rrpvs.len())
            .max_by_key(|&w| rrpvs[w])
            .expect("nonzero ways");
        Decision::Evict(w)
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        _evicted: Option<&LlcLineState>,
        cycle: u64,
    ) -> u64 {
        if acc.kind == AccessKind::Writeback {
            *self.rrpv.get_mut(loc.slice, loc.set, way) = MAX_RRPV;
            return 0;
        }
        let p = self.fabric.predict(loc.slice, acc.core, cycle);
        let lat = p.latency;
        let feats = self.features(acc.core);
        // An abandoned lookup uses the untrained-default score (zero
        // weights ⇒ friendly), the local static decision.
        let friendly = p.fallback || self.score(p.bank, acc.signature(), acc.core, &feats) >= 0;
        let set = self.rrpv.set_mut(loc.slice, loc.set);
        if friendly {
            for (w, r) in set.iter_mut().enumerate() {
                if w != way && *r < AGE_CEILING {
                    *r += 1;
                }
            }
            set[way] = 0;
        } else {
            set[way] = MAX_RRPV;
        }
        lat
    }

    fn fabric_stats(&self) -> NocStats {
        self.fabric.link_stats()
    }

    fn diagnostics(&self) -> Vec<(String, u64)> {
        self.fabric
            .counters()
            .fault_diagnostics(&[("isvm_trainings", self.trainings)])
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
            Glider::new(&geom(), &DrishtiConfig::baseline(1)).name(),
            "glider"
        );
        assert_eq!(
            Glider::new(&geom(), &DrishtiConfig::drishti(1)).name(),
            "d-glider"
        );
    }

    #[test]
    fn isvm_learns_reuse_vs_scan() {
        let g = geom();
        let mut llc = SlicedLlc::with_hasher(
            g,
            Box::new(Glider::new(&g, &cfg())),
            Box::new(ModuloHash::new()),
        );
        let mut trace = Vec::new();
        let mut stream = 80_000u64;
        for _ in 0..300 {
            for k in 0..32u64 {
                trace.push((0xAAAA, k));
            }
            for _ in 0..64 {
                stream += 1;
                trace.push((0xBBBB, stream));
            }
        }
        let glider_hits = run(&mut llc, &trace);
        let mut lru = SlicedLlc::with_hasher(
            g,
            Box::new(crate::lru::Lru::new(&g)),
            Box::new(ModuloHash::new()),
        );
        let lru_hits = run(&mut lru, &trace);
        assert!(
            glider_hits > lru_hits,
            "glider {glider_hits} should beat lru {lru_hits}"
        );
        let d = llc.policy().diagnostics();
        assert!(d.iter().find(|(k, _)| k == "isvm_trainings").unwrap().1 > 0);
    }

    #[test]
    fn pchr_shifts() {
        let g = geom();
        let mut gl = Glider::new(&g, &cfg());
        gl.push_pchr(0, 0x10);
        gl.push_pchr(0, 0x20);
        let f = gl.features(0);
        assert_eq!(f[0], Glider::bucket(0x20));
        assert_eq!(f[1], Glider::bucket(0x10));
    }

    /// A feature bucket indexes an ISVM weight vector: a restored PC
    /// history or valid sampler entry holding a bucket not below
    /// `FEATURE_BUCKETS` is refused at load instead of panicking at the
    /// next prediction or training.
    #[test]
    fn restored_feature_buckets_are_cross_checked() {
        use drishti_noc::snap::{SnapError, StateReader, StateWriter};
        let g = geom();
        let mut live = Glider::new(&g, &cfg());
        for i in 0..200u64 {
            let loc = LlcLoc {
                slice: 0,
                set: (i % 16) as usize,
            };
            live.on_miss(loc, &Access::load(0, 0x40 + i % 3, i % 40), i);
        }
        let mutations: [fn(&mut Glider); 2] = [
            |gl| gl.pchr[0][2] = FEATURE_BUCKETS as u8,
            |gl| {
                let set0 = LlcLoc { slice: 0, set: 0 };
                let set = gl.sampler.observe(set0, &Access::load(0, 1, 0), true);
                let e = set.unwrap().entries.iter_mut().find(|e| e.valid);
                e.expect("a trained sampled set").extra[4] = u8::MAX;
            },
        ];
        for (i, mutate) in mutations.into_iter().enumerate() {
            let mut gl = Glider::new(&g, &cfg());
            let mut w = StateWriter::new();
            live.save_state(&mut w);
            gl.load_state(&mut StateReader::new(w.bytes())).unwrap();
            mutate(&mut gl);
            let mut w = StateWriter::new();
            gl.save_state(&mut w);
            match Glider::new(&g, &cfg()).load_state(&mut StateReader::new(w.bytes())) {
                Err(SnapError::Invalid { what, .. }) => assert_eq!(what, "glider feature"),
                other => panic!("mutation {i}: expected a typed refusal, got {other:?}"),
            }
        }
    }
}
