//! The sampled cache that Hawkeye, Mockingjay, Glider and SDBP train on.
//!
//! Each sampled set keeps a small tag array of recently seen lines with
//! the signature, core and stamp of each line's last access; a policy
//! trains its predictor when a line comes back or falls out unreused. The
//! paper's dynamic sampled cache (§4.2, Table 7) serves every such policy
//! the same way, and so does [`Sampler`]. What differs is what an entry
//! carries beside its tag (`X`: Glider's PC-history features, SDBP's
//! re-referenced bit) and what a set keeps beside its entries (`C`:
//! OPTgen for Hawkeye and Glider, an access counter for Mockingjay,
//! nothing for SDBP, which stamps entries from its own clock).

use crate::common::{line_tag, selectors};
use drishti_core::config::DrishtiConfig;
use drishti_core::dsc::DscEvent;
use drishti_core::select::SetSelector;
use drishti_mem::access::Access;
use drishti_mem::llc::LlcGeometry;
use drishti_mem::policy::LlcLoc;
use drishti_noc::snap::{Persist, SnapError, StateReader, StateWriter};

/// One sampler entry: a sampled line's tag, the signature, core and stamp
/// of its last access, and the policy's own `extra`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Entry<X> {
    pub valid: bool,
    pub tag: u32,
    pub signature: u64,
    pub core: u32,
    pub stamp: u64,
    pub extra: X,
}

drishti_noc::impl_persist_fields!([X: Persist] Entry<X> {
    valid,
    tag,
    signature,
    core,
    stamp,
    extra,
});

impl<X> Entry<X> {
    /// A valid entry recording `acc` at `stamp`.
    pub fn new(acc: &Access, stamp: u64, extra: X) -> Self {
        Entry {
            valid: true,
            tag: line_tag(acc.line, 16),
            signature: acc.signature(),
            core: acc.core as u32,
            stamp,
            extra,
        }
    }
}

/// One sampled set: its entries and its clock.
#[derive(Debug, Clone, Default)]
pub(crate) struct SampledSet<X, C> {
    pub entries: Vec<Entry<X>>,
    pub clock: C,
}

drishti_noc::impl_persist_fields!([X: Persist + Default, C: Persist] SampledSet<X, C> {
    entries,
    clock,
});

impl<X, C> SampledSet<X, C> {
    /// The valid entry tagged `tag`, if any.
    #[inline]
    pub fn find(&self, tag: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.tag == tag)
    }

    /// Put `entry` in the place of the stalest entry (an invalid one
    /// first) and return the displaced entry if it was valid.
    pub fn insert(&mut self, entry: Entry<X>) -> Option<Entry<X>> {
        let victim = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.stamp } else { 0 })
            .map(|(i, _)| i)
            .expect("sampler nonempty");
        let old = std::mem::replace(&mut self.entries[victim], entry);
        old.valid.then_some(old)
    }
}

/// Every slice's sampled-set selector and sampled sets.
#[derive(Debug)]
pub(crate) struct Sampler<X, C> {
    selectors: Vec<SetSelector>,
    sets: Vec<Vec<SampledSet<X, C>>>,
    /// A set as built, which a reselected slot goes back to.
    fresh: SampledSet<X, C>,
    /// Cores on the machine: a valid entry trains its core's predictor.
    cores: usize,
}

impl<X: Copy + Default, C: Clone> Sampler<X, C> {
    /// A sampler for `geom` under `cfg` with `sampled` = (random,
    /// dynamic) sets per slice, each holding `entries` entries beside a
    /// copy of `clock`.
    pub fn new(
        geom: &LlcGeometry,
        cfg: &DrishtiConfig,
        sampled: (usize, usize),
        entries: usize,
        clock: C,
    ) -> Self {
        let selectors = selectors(geom, cfg, sampled);
        let fresh = SampledSet {
            entries: vec![Entry::default(); entries],
            clock,
        };
        let sets = selectors
            .iter()
            .map(|sel| vec![fresh.clone(); sel.n_sampled()])
            .collect();
        Sampler {
            selectors,
            sets,
            fresh,
            cores: cfg.cores,
        }
    }

    /// Observe one access to `loc`: drive the slice's selector, flush the
    /// slots a reselection changed, and return the sampled set the access
    /// trains, if `loc` is sampled and the access carries a PC.
    #[inline]
    pub fn observe(
        &mut self,
        loc: LlcLoc,
        acc: &Access,
        llc_hit: bool,
    ) -> Option<&mut SampledSet<X, C>> {
        let selector = &mut self.selectors[loc.slice];
        if selector.observe(loc.set, llc_hit) == DscEvent::Reselected {
            // Only slots whose set changed lose their history; retained
            // sets keep training across the reselection.
            for &slot in selector.changed_slots() {
                self.sets[loc.slice][slot].clone_from(&self.fresh);
            }
        }
        if !acc.kind.has_pc() {
            return None;
        }
        let slot = selector.slot_of(loc.set)?;
        Some(&mut self.sets[loc.slice][slot])
    }

    /// Every entry of every sampled set.
    pub fn entries(&self) -> impl Iterator<Item = &Entry<X>> {
        self.sets.iter().flatten().flat_map(|set| &set.entries)
    }
}

impl<X: Persist + Copy + Default, C: Persist + Default + Clone> Persist for Sampler<X, C> {
    fn save(&self, w: &mut StateWriter) {
        self.selectors.save(w);
        self.sets.save(w);
    }
    /// The codec's shape rule holds the sets to their configured size but
    /// cannot see the values, so a valid entry must name a core on the
    /// machine: training on it indexes that core's predictor bank and
    /// fabric tile.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapError> {
        self.selectors.load(r)?;
        self.sets.load(r)?;
        let cores = self.cores;
        match self.entries().find(|e| e.valid && e.core as usize >= cores) {
            Some(e) => Err(SnapError::Invalid {
                what: "sampler entry",
                detail: format!("core {} is not below {cores}", e.core),
            }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both slices of a 2-core LLC, every set sampled, four entries each.
    fn sampler() -> Sampler<bool, u64> {
        let geom = LlcGeometry {
            slices: 2,
            sets_per_slice: 8,
            ways: 2,
            latency: 20,
        };
        let mut cfg = DrishtiConfig::baseline(2);
        cfg.sampled_sets_override = Some(8);
        Sampler::new(&geom, &cfg, (8, 8), 4, 0)
    }

    #[test]
    fn entries_stay_32_bytes_for_every_policy() {
        use std::mem::size_of;
        assert_eq!(size_of::<Entry<()>>(), 32, "Hawkeye, Mockingjay");
        assert_eq!(size_of::<Entry<bool>>(), 32, "SDBP");
        assert_eq!(size_of::<Entry<crate::glider::Features>>(), 32, "Glider");
    }

    #[test]
    fn insert_displaces_the_stalest_valid_entry() {
        let mut s = sampler();
        let loc = LlcLoc { slice: 1, set: 3 };
        let set = s.observe(loc, &Access::load(1, 0x40, 0), false).unwrap();
        let entry = |line, stamp| Entry::new(&Access::load(1, 0x40, line), stamp, false);
        // Invalid slots go first, then the oldest stamp.
        for (line, stamp) in [(10, 5), (11, 2), (12, 7), (13, 9)] {
            assert_eq!(set.insert(entry(line, stamp)), None);
        }
        assert_eq!(set.insert(entry(14, 11)), Some(entry(11, 2)));
        assert_eq!(set.find(line_tag(13, 16)), Some(3));
        assert_eq!(set.find(line_tag(11, 16)), None);
        // A write-back carries no PC and trains nothing.
        assert!(s.observe(loc, &Access::writeback(1, 13), false).is_none());
    }

    #[test]
    fn restored_entries_must_name_a_core_on_the_machine() {
        let mut live = sampler();
        let loc = LlcLoc { slice: 0, set: 5 };
        let acc = Access::load(1, 0x40, 77);
        live.observe(loc, &acc, true)
            .unwrap()
            .insert(Entry::new(&acc, 1, true));
        // Core 2 on a 2-core machine; an invalid entry is never trained
        // on, so its core goes unchecked.
        for (core, valid, refused) in [(1, true, false), (2, false, false), (2, true, true)] {
            let e = &mut live.observe(loc, &acc, true).unwrap().entries[0];
            (e.core, e.valid) = (core, valid);
            let mut w = StateWriter::new();
            live.save(&mut w);
            let mut fresh = sampler();
            match fresh.load(&mut StateReader::new(w.bytes())) {
                Ok(()) if !refused => assert!(fresh.entries().eq(live.entries())),
                Err(SnapError::Invalid { what, .. }) if refused => {
                    assert_eq!(what, "sampler entry")
                }
                other => panic!("core {core}, valid {valid}: got {other:?}"),
            }
        }
    }
}
