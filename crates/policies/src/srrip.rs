//! SRRIP: static re-reference interval prediction [Jaleel et al., ISCA 2010].
//!
//! One of the seminal memoryless policies the paper builds its narrative on
//! (paper ref 28). 2-bit RRPVs: insert at `max−1` (long re-reference),
//! promote to 0 on hit, evict the first line with RRPV `max` after aging.

use crate::common::{rrip_victim, PerLine};
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::{
    Decision, LlcLineState, LlcLoc, LlcPolicy, PolicyProbe, ProbeKind, SetProbe,
};

const MAX_RRPV: u8 = 3;

/// Per-slice SRRIP.
#[derive(Debug)]
pub struct Srrip {
    rrpv: PerLine<u8>,
}

impl Srrip {
    /// Build an SRRIP policy for the given geometry.
    pub fn new(geom: &LlcGeometry) -> Self {
        Srrip {
            rrpv: PerLine::new(geom),
        }
    }
}

drishti_noc::impl_persist_fields!(Srrip { rrpv });

impl PolicyProbe for Srrip {
    fn probe_set(&self, loc: LlcLoc) -> SetProbe {
        let kind = ProbeKind::Bounded {
            min: 0,
            max: MAX_RRPV as i64,
        };
        self.rrpv.probe(loc, kind)
    }
}

impl LlcPolicy for Srrip {
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        Some(self)
    }

    fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        drishti_noc::snap::Persist::save(self, w);
    }

    fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        drishti_noc::snap::Persist::load(self, r)
    }

    fn name(&self) -> String {
        "srrip".into()
    }

    fn on_hit(&mut self, loc: LlcLoc, way: usize, _acc: &Access, _cycle: u64) -> u64 {
        *self.rrpv.get_mut(loc.slice, loc.set, way) = 0;
        0
    }

    fn on_miss(&mut self, _loc: LlcLoc, _acc: &Access, _cycle: u64) {}

    fn choose_victim(&mut self, loc: LlcLoc, _acc: &Access, _cycle: u64) -> Decision {
        Decision::Evict(rrip_victim(self.rrpv.set_mut(loc.slice, loc.set), MAX_RRPV))
    }

    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        acc: &Access,
        _evicted: Option<&LlcLineState>,
        _cycle: u64,
    ) -> u64 {
        // Write-backs are inserted at distant re-reference so dead dirty
        // lines leave quickly (matches the paper's WPKI observation).
        *self.rrpv.get_mut(loc.slice, loc.set, way) = match acc.kind {
            AccessKind::Writeback => MAX_RRPV,
            _ => MAX_RRPV - 1,
        };
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_mem::llc::SlicedLlc;
    use drishti_noc::slicehash::ModuloHash;

    fn tiny_llc(ways: usize) -> SlicedLlc {
        let geom = LlcGeometry {
            slices: 1,
            sets_per_slice: 1,
            ways,
            latency: 20,
        };
        SlicedLlc::with_hasher(
            geom,
            Box::new(Srrip::new(&geom)),
            Box::new(ModuloHash::new()),
        )
    }

    #[test]
    fn reused_line_survives_scan() {
        let mut llc = tiny_llc(4);
        let hot = Access::load(0, 0x1, 1000);
        llc.lookup(&hot, 0);
        llc.fill(&hot, 0);
        llc.lookup(&hot, 1); // promote to RRPV 0
        for i in 0..8u64 {
            let a = Access::load(0, 0x2, i);
            llc.lookup(&a, 2 + i);
            llc.fill(&a, 2 + i);
        }
        assert!(llc.peek(1000), "promoted line must outlive the scan");
    }

    #[test]
    fn victim_is_distant_rrpv() {
        let mut llc = tiny_llc(2);
        let a = Access::load(0, 0x1, 1);
        let b = Access::load(0, 0x1, 2);
        for (i, acc) in [&a, &b].iter().enumerate() {
            llc.lookup(acc, i as u64);
            llc.fill(acc, i as u64);
        }
        llc.lookup(&a, 5); // a now RRPV 0, b stays at 2
        let c = Access::load(0, 0x1, 3);
        llc.lookup(&c, 6);
        llc.fill(&c, 6);
        assert!(llc.peek(1));
        assert!(!llc.peek(2));
    }
}
