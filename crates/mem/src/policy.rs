//! The sliced-LLC replacement-policy interface.
//!
//! A single [`LlcPolicy`] object governs *all* slices of the LLC. This is
//! deliberate: the Drishti design space is about which state is per-slice
//! (sampled caches) and which is global (reuse predictors), so the policy
//! must be able to own both kinds of state. Per-slice policies (LRU, SRRIP)
//! simply keep independent state per slice and ignore the rest.
//!
//! The container ([`crate::llc::SlicedLlc`]) drives the policy with four
//! events per request: `on_hit`, `on_miss`, `choose_victim` (only when the
//! set is full) and `on_fill`. Two of them return *extra critical-path
//! cycles*, which is how predictor-fabric latency (mesh vs. NOCSTAR,
//! paper Fig 11) is charged to the request.

use crate::access::Access;
use crate::{CoreId, LineAddr};
use drishti_noc::NocStats;

/// Where a request landed inside the sliced LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlcLoc {
    /// Slice index (one slice per core in the baseline).
    pub slice: usize,
    /// Set index within the slice.
    pub set: usize,
}

/// Replacement-relevant state of one resident LLC line, as exposed to
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LlcLineState {
    /// The resident line address (0 if invalid).
    pub line: LineAddr,
    /// Whether this way holds a valid line.
    pub valid: bool,
    /// Whether the line is dirty (must be written back on eviction).
    pub dirty: bool,
    /// The core whose request installed the line.
    pub core: CoreId,
    /// The PC signature ([`Access::signature`]) that installed the line.
    pub signature: u64,
}

/// A victim decision for a fill into a full set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Evict the line in this way and install the new line there.
    Evict(usize),
    /// Do not cache the new line at all (paper policies may bypass
    /// cache-averse fills).
    Bypass,
}

/// How to interpret the per-way metadata a policy exposes via
/// [`PolicyProbe::probe_set`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Values are recency stamps: nonzero values must be pairwise
    /// distinct within a set (LRU-family clocks).
    RecencyStamp,
    /// Values are bounded counters (RRPV, ETR): every value must lie in
    /// `min..=max`.
    Bounded {
        /// Smallest legal value.
        min: i64,
        /// Largest legal value.
        max: i64,
    },
}

/// A snapshot of one set's per-way replacement metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetProbe {
    /// How to validate [`SetProbe::values`].
    pub kind: ProbeKind,
    /// One metadata value per way, widened to `i64`.
    pub values: Vec<i64>,
}

impl SetProbe {
    /// Check this snapshot against its own declared invariant. Returns a
    /// human-readable violation description, or `None` if the snapshot is
    /// well-formed.
    pub fn check(&self) -> Option<String> {
        match self.kind {
            ProbeKind::Bounded { min, max } => {
                for (way, &v) in self.values.iter().enumerate() {
                    if v < min || v > max {
                        return Some(format!("way {way} metadata {v} outside [{min}, {max}]"));
                    }
                }
                None
            }
            ProbeKind::RecencyStamp => {
                let mut seen = Vec::with_capacity(self.values.len());
                for (way, &v) in self.values.iter().enumerate() {
                    if v != 0 {
                        if seen.contains(&v) {
                            return Some(format!("way {way} duplicates recency stamp {v}"));
                        }
                        seen.push(v);
                    }
                }
                None
            }
        }
    }
}

/// Narrow introspection surface a policy may expose for conformance
/// checking: a read-only snapshot of one set's per-way metadata plus the
/// invariant it must satisfy.
///
/// This deliberately reveals nothing about global predictor state — only
/// the per-line replacement fields whose corruption the shadow checker
/// could never infer from hit/miss behaviour alone.
pub trait PolicyProbe {
    /// Snapshot the per-way metadata of the set at `loc`.
    fn probe_set(&self, loc: LlcLoc) -> SetProbe;
}

/// A replacement policy for the sliced LLC.
///
/// Implementations are constructed with the LLC geometry (see
/// [`crate::llc::LlcGeometry`]) so they can size per-slice/per-set metadata.
pub trait LlcPolicy: std::fmt::Debug {
    /// Human-readable policy name, e.g. `"mockingjay"` or `"d-hawkeye"`.
    fn name(&self) -> String;

    /// A resident line was hit. `way` indexes into `lines`. Returns extra
    /// critical-path cycles (almost always 0 on hits).
    fn on_hit(
        &mut self,
        loc: LlcLoc,
        way: usize,
        lines: &[LlcLineState],
        acc: &Access,
        cycle: u64,
    ) -> u64;

    /// A lookup missed (called before the fill, so samplers observe the
    /// miss even if the fill later bypasses).
    fn on_miss(&mut self, loc: LlcLoc, acc: &Access, cycle: u64);

    /// Choose a victim for a fill into a *full* set.
    fn choose_victim(
        &mut self,
        loc: LlcLoc,
        lines: &[LlcLineState],
        acc: &Access,
        cycle: u64,
    ) -> Decision;

    /// A line was installed in `way` (after any eviction). `evicted` is the
    /// line that was displaced, if the set was full. Returns extra
    /// critical-path cycles charged to the miss — this is where remote
    /// predictor lookups bill their fabric latency.
    fn on_fill(
        &mut self,
        loc: LlcLoc,
        way: usize,
        lines: &[LlcLineState],
        acc: &Access,
        evicted: Option<&LlcLineState>,
        cycle: u64,
    ) -> u64;

    /// Predictor-fabric traffic accumulated by this policy (zero for
    /// memoryless policies).
    fn fabric_stats(&self) -> NocStats {
        NocStats::default()
    }

    /// Per-policy diagnostic counters (sampler hits, trainings, …) as
    /// `(name, value)` pairs for experiment output.
    fn diagnostics(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// The policy's [`PolicyProbe`] introspection surface, if it exposes
    /// one. The container forwards probe snapshots to shadow observers on
    /// every fill; policies without checkable per-way metadata return
    /// `None` (the default).
    fn probe(&self) -> Option<&dyn PolicyProbe> {
        None
    }

    /// Serialize the policy's mutable predictor/replacement state for a
    /// checkpoint. Memoryless policies keep the no-op default; the loader
    /// reconstructs the policy object from configuration before calling
    /// [`LlcPolicy::load_state`], so only run-state belongs here.
    fn save_state(&self, _w: &mut drishti_noc::snap::StateWriter) {}

    /// Restore state written by [`LlcPolicy::save_state`] into a freshly
    /// constructed policy of the same configuration.
    fn load_state(
        &mut self,
        _r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal always-evict-way-0 policy to exercise the trait surface.
    #[derive(Debug, Default)]
    struct EvictZero;

    impl LlcPolicy for EvictZero {
        fn name(&self) -> String {
            "evict-zero".into()
        }
        fn on_hit(&mut self, _: LlcLoc, _: usize, _: &[LlcLineState], _: &Access, _: u64) -> u64 {
            0
        }
        fn on_miss(&mut self, _: LlcLoc, _: &Access, _: u64) {}
        fn choose_victim(&mut self, _: LlcLoc, _: &[LlcLineState], _: &Access, _: u64) -> Decision {
            Decision::Evict(0)
        }
        fn on_fill(
            &mut self,
            _: LlcLoc,
            _: usize,
            _: &[LlcLineState],
            _: &Access,
            _: Option<&LlcLineState>,
            _: u64,
        ) -> u64 {
            0
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let p: Box<dyn LlcPolicy> = Box::new(EvictZero);
        assert_eq!(p.name(), "evict-zero");
        assert_eq!(p.fabric_stats(), NocStats::default());
        assert!(p.diagnostics().is_empty());
    }

    #[test]
    fn default_line_state_is_invalid() {
        let l = LlcLineState::default();
        assert!(!l.valid);
        assert!(!l.dirty);
    }

    #[test]
    fn default_probe_is_absent() {
        let p: Box<dyn LlcPolicy> = Box::new(EvictZero);
        assert!(p.probe().is_none());
    }

    #[test]
    fn bounded_probe_flags_out_of_range() {
        let ok = SetProbe {
            kind: ProbeKind::Bounded { min: 0, max: 3 },
            values: vec![0, 3, 1, 2],
        };
        assert!(ok.check().is_none());
        let bad = SetProbe {
            kind: ProbeKind::Bounded { min: 0, max: 3 },
            values: vec![0, 4],
        };
        assert!(bad.check().unwrap().contains("outside"));
    }

    #[test]
    fn recency_probe_flags_duplicates_but_allows_zero() {
        let ok = SetProbe {
            kind: ProbeKind::RecencyStamp,
            values: vec![0, 0, 5, 9],
        };
        assert!(ok.check().is_none());
        let bad = SetProbe {
            kind: ProbeKind::RecencyStamp,
            values: vec![7, 7],
        };
        assert!(bad.check().unwrap().contains("duplicates"));
    }
}
