//! Sampled-set selection strategies.
//!
//! Policies ask one question per LLC access: *is this set a sampled set,
//! and if so which sampler slot does it own?* Three strategies answer it:
//!
//! * [`SetSelector::static_random`] — the conventional scheme: N sets chosen
//!   randomly at construction, fixed forever (Hawkeye: 64/slice,
//!   Mockingjay: 32/slice).
//! * [`SetSelector::explicit`] — a caller-provided list, used by the
//!   paper's Table 1 study (top-32 MPKA sets / bottom-32 / half-half,
//!   chosen from a profiling run).
//! * [`SetSelector::dynamic`] — Drishti's Enhancement II
//!   ([`DynamicSampledCache`]).

use crate::dsc::{DscConfig, DscEvent, DynamicSampledCache};

/// A per-slice sampled-set membership oracle.
#[derive(Debug, Clone)]
pub enum SetSelector {
    /// Fixed membership (random or explicit).
    Fixed {
        /// `slot_of[set]` = slot + 1 or 0.
        slot_of: Vec<u32>,
        /// Selected sets in slot order.
        sampled: Vec<usize>,
    },
    /// Drishti's dynamic sampled cache.
    Dynamic(DynamicSampledCache),
}

/// Placeholder value required by the snapshot codec's container impls
/// (`Vec<SetSelector>`); never observed by policies, which always build
/// real selectors from configuration before any restore.
impl Default for SetSelector {
    fn default() -> Self {
        SetSelector::Fixed {
            slot_of: Vec::new(),
            sampled: Vec::new(),
        }
    }
}

// A fixed selector never changes after construction, so only its
// variant tag is run-state worth saving.
impl drishti_noc::snap::Persist for SetSelector {
    fn save(&self, w: &mut drishti_noc::snap::StateWriter) {
        match self {
            SetSelector::Fixed { .. } => w.put_u8(0),
            SetSelector::Dynamic(dsc) => {
                w.put_u8(1);
                dsc.save(w);
            }
        }
    }
    fn load(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::SnapError;
        let tag = r.take_u8("set selector tag")?;
        // The selector is rebuilt from configuration before restore, so the
        // snapshot's variant must agree with the configured one — a mismatch
        // means the snapshot came from a different configuration.
        match (tag, &mut *self) {
            (0, SetSelector::Fixed { .. }) => Ok(()),
            (1, SetSelector::Dynamic(dsc)) => dsc.load(r),
            (0 | 1, _) => Err(SnapError::Invalid {
                what: "set selector tag",
                detail: "snapshot selector kind does not match this configuration".into(),
            }),
            (other, _) => Err(SnapError::Invalid {
                what: "set selector tag",
                detail: format!("unknown variant {other}"),
            }),
        }
    }
}

impl SetSelector {
    /// The conventional scheme: `n_sampled` sets chosen pseudo-randomly
    /// (deterministically from `seed`) out of `n_sets`.
    ///
    /// # Panics
    ///
    /// Panics if `n_sampled` is zero or exceeds `n_sets`.
    pub fn static_random(n_sets: usize, n_sampled: usize, seed: u64) -> Self {
        assert!(
            n_sampled > 0 && n_sampled <= n_sets,
            "n_sampled {n_sampled} out of range for {n_sets} sets"
        );
        let mut state = seed | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut sampled = Vec::with_capacity(n_sampled);
        while sampled.len() < n_sampled {
            let s = (next() % n_sets as u64) as usize;
            if !sampled.contains(&s) {
                sampled.push(s);
            }
        }
        SetSelector::from_list(n_sets, sampled)
    }

    /// An explicit sampled-set list (Table 1 oracle studies).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, contains duplicates, or references sets
    /// outside `0..n_sets`.
    pub fn explicit(n_sets: usize, sets: Vec<usize>) -> Self {
        assert!(!sets.is_empty(), "explicit selection cannot be empty");
        let mut dedup = sets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sets.len(), "duplicate sets in selection");
        assert!(
            sets.iter().all(|&s| s < n_sets),
            "set index out of range in selection"
        );
        SetSelector::from_list(n_sets, sets)
    }

    /// Drishti's dynamic sampled cache.
    pub fn dynamic(cfg: DscConfig, n_sets: usize) -> Self {
        SetSelector::Dynamic(DynamicSampledCache::new(cfg, n_sets))
    }

    fn from_list(n_sets: usize, sampled: Vec<usize>) -> Self {
        let mut slot_of = vec![0u32; n_sets];
        for (slot, &set) in sampled.iter().enumerate() {
            slot_of[set] = slot as u32 + 1;
        }
        SetSelector::Fixed { slot_of, sampled }
    }

    /// Sampler slot for `set`, if it is currently sampled.
    pub fn slot_of(&self, set: usize) -> Option<usize> {
        match self {
            SetSelector::Fixed { slot_of, .. } => match slot_of[set] {
                0 => None,
                s => Some(s as usize - 1),
            },
            SetSelector::Dynamic(dsc) => dsc.slot_of(set),
        }
    }

    /// Number of sampled sets.
    pub fn n_sampled(&self) -> usize {
        match self {
            SetSelector::Fixed { sampled, .. } => sampled.len(),
            SetSelector::Dynamic(dsc) => dsc.sampled_sets().len(),
        }
    }

    /// The currently sampled sets, in slot order.
    pub fn sampled_sets(&self) -> Vec<usize> {
        match self {
            SetSelector::Fixed { sampled, .. } => sampled.clone(),
            SetSelector::Dynamic(dsc) => dsc.sampled_sets().to_vec(),
        }
    }

    /// Observe one access (drives the dynamic selector's state machine).
    /// Returns [`DscEvent::Reselected`] when sampled-set membership just
    /// changed and the policy must flush its sampler contents.
    pub fn observe(&mut self, set: usize, hit: bool) -> DscEvent {
        match self {
            SetSelector::Fixed { .. } => DscEvent::None,
            SetSelector::Dynamic(dsc) => dsc.observe(set, hit),
        }
    }

    /// Whether this selector is dynamic (Drishti Enhancement II on).
    pub fn is_dynamic(&self) -> bool {
        matches!(self, SetSelector::Dynamic(_))
    }

    /// Sampler slots whose set changed at the last reselection — the only
    /// slots whose sampler contents must be flushed.
    pub fn changed_slots(&self) -> &[usize] {
        match self {
            SetSelector::Fixed { .. } => &[],
            SetSelector::Dynamic(dsc) => dsc.changed_slots(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_random_is_deterministic_and_unique() {
        let a = SetSelector::static_random(2048, 64, 42);
        let b = SetSelector::static_random(2048, 64, 42);
        assert_eq!(a.sampled_sets(), b.sampled_sets());
        assert_eq!(a.n_sampled(), 64);
        let mut sets = a.sampled_sets();
        sets.sort_unstable();
        sets.dedup();
        assert_eq!(sets.len(), 64);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SetSelector::static_random(2048, 64, 1);
        let b = SetSelector::static_random(2048, 64, 2);
        assert_ne!(a.sampled_sets(), b.sampled_sets());
    }

    #[test]
    fn slot_mapping_round_trips() {
        let s = SetSelector::static_random(256, 16, 7);
        for (slot, set) in s.sampled_sets().into_iter().enumerate() {
            assert_eq!(s.slot_of(set), Some(slot));
        }
        let non_sampled = (0..256).find(|&x| s.slot_of(x).is_none()).unwrap();
        assert!(s.slot_of(non_sampled).is_none());
    }

    #[test]
    fn explicit_list_respected() {
        let s = SetSelector::explicit(64, vec![5, 9, 33]);
        assert_eq!(s.sampled_sets(), vec![5, 9, 33]);
        assert_eq!(s.slot_of(9), Some(1));
        assert!(!s.is_dynamic());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn explicit_duplicates_panic() {
        let _ = SetSelector::explicit(64, vec![5, 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_out_of_range_panics() {
        let _ = SetSelector::explicit(64, vec![64]);
    }

    #[test]
    fn fixed_observe_never_reselects() {
        let mut s = SetSelector::static_random(64, 4, 3);
        for i in 0..100_000usize {
            assert_eq!(s.observe(i % 64, i % 3 == 0), DscEvent::None);
        }
    }

    #[test]
    fn dynamic_selector_reselects() {
        let cfg = DscConfig {
            monitor_interval: 64,
            active_interval: 64,
            ..DscConfig::paper_default(4)
        };
        let mut s = SetSelector::dynamic(cfg, 32);
        assert!(s.is_dynamic());
        let mut reselected = false;
        for i in 0..128u64 {
            let set = (i % 32) as usize;
            if s.observe(set, set >= 4) == DscEvent::Reselected {
                reselected = true;
            }
        }
        assert!(reselected);
    }
}
