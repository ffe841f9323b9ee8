//! Enhancement II: the dynamic sampled cache (paper §4.2).
//!
//! Randomly chosen sampled sets often see few LLC misses and contribute
//! little training signal (paper Fig 5, Observation II). Drishti instead
//! *measures* per-set capacity demand and samples the hottest sets:
//!
//! * a k-bit saturating counter per LLC set (k = 8, initialised to 2^k/2)
//!   is incremented on a miss and decremented on a hit;
//! * counters are monitored over L accesses to the slice (L = 32 K, the
//!   number of cache lines in a 2 MB slice) so every line has an equal
//!   chance of being observed;
//! * the N sets with the highest counters become the sampled sets for the
//!   next 128 K accesses (4 × L), after which the counters are reset and
//!   the cycle repeats — this adapts to phase changes;
//! * if the highest and lowest counters differ by less than a threshold,
//!   the slice has *uniform* capacity demand (streaming workloads like
//!   lbm); the DSC turns itself off and falls back to random selection.
//!
//! Thanks to the informed choice, far fewer sampled sets are needed:
//! 8 instead of 64 per slice for Hawkeye, 16 instead of 32 for Mockingjay —
//! which is where the paper's storage *savings* come from (Table 3).

/// Configuration of one slice's [`DynamicSampledCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DscConfig {
    /// Saturating-counter width in bits (paper: 8).
    pub k_bits: u8,
    /// Monitoring window in slice accesses (paper: 32 K = lines per slice).
    pub monitor_interval: u64,
    /// Active (selected) window in slice accesses (paper: 128 K = 4 × L).
    pub active_interval: u64,
    /// Number of sampled sets to select per slice.
    pub n_sampled: usize,
    /// Counter spread below which demand is considered uniform and random
    /// selection is used instead. The paper uses an MPKA difference of 100
    /// (the average difference across its outlier workloads); on k = 8
    /// saturating counters that corresponds to a small absolute spread.
    pub uniform_threshold: u32,
    /// Seed for the random fallback / initial selection.
    pub seed: u64,
}

impl DscConfig {
    /// Paper-default configuration for a 2 MB slice (2048 sets, 32 K lines)
    /// and `n_sampled` sampled sets.
    pub fn paper_default(n_sampled: usize) -> Self {
        DscConfig {
            k_bits: 8,
            monitor_interval: 32 * 1024,
            active_interval: 128 * 1024,
            n_sampled,
            uniform_threshold: 12,
            seed: 0xD815_0001,
        }
    }

    /// Counter initial value (2^k / 2).
    pub fn counter_init(&self) -> u32 {
        1 << (self.k_bits - 1)
    }

    /// Counter maximum value (2^k − 1).
    pub fn counter_max(&self) -> u32 {
        (1u32 << self.k_bits) - 1
    }
}

/// What changed as a result of observing an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DscEvent {
    /// No selection change.
    None,
    /// A new set of sampled sets was just selected; the policy must flush
    /// its sampled-cache contents (they describe the old sets).
    Reselected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Counters are live; previous sampled sets remain active.
    Monitoring { remaining: u64 },
    /// Sampled sets are fixed; counters idle.
    Active { remaining: u64 },
}

impl drishti_noc::snap::Persist for Phase {
    fn save(&self, w: &mut drishti_noc::snap::StateWriter) {
        match *self {
            Phase::Monitoring { remaining } => {
                w.put_u8(0);
                w.put_u64(remaining);
            }
            Phase::Active { remaining } => {
                w.put_u8(1);
                w.put_u64(remaining);
            }
        }
    }
    fn load(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        let tag = r.take_u8("dsc phase tag")?;
        let remaining = r.take_u64("dsc phase remaining")?;
        *self = match tag {
            0 => Phase::Monitoring { remaining },
            1 => Phase::Active { remaining },
            other => {
                return Err(drishti_noc::snap::SnapError::Invalid {
                    what: "dsc phase tag",
                    detail: format!("unknown variant {other}"),
                })
            }
        };
        Ok(())
    }
}

// Mutable selector state only; `cfg` is rebuilt from configuration.
drishti_noc::impl_persist_fields!(DynamicSampledCache {
    counters,
    phase,
    slot_of,
    sampled,
    rng_state,
    changed_slots,
    reselections,
    uniform_epochs,
});

/// Per-slice dynamic sampled-set selector.
#[derive(Debug, Clone)]
pub struct DynamicSampledCache {
    cfg: DscConfig,
    counters: Vec<u32>,
    phase: Phase,
    /// `slot_of[set]` = sampler slot index + 1, or 0 if not sampled.
    slot_of: Vec<u32>,
    sampled: Vec<usize>,
    rng_state: u64,
    /// Slots whose set changed at the last reselection (these are the only
    /// sampler slots whose contents must be flushed — sets that stay
    /// selected keep their history).
    changed_slots: Vec<usize>,
    /// Diagnostics.
    reselections: u64,
    uniform_epochs: u64,
}

impl DynamicSampledCache {
    /// Create a DSC for a slice with `n_sets` sets. The initial sampled
    /// sets are chosen randomly (the conventional scheme) while the first
    /// monitoring window runs.
    ///
    /// # Panics
    ///
    /// Panics if `n_sampled` is zero or exceeds `n_sets`.
    pub fn new(cfg: DscConfig, n_sets: usize) -> Self {
        assert!(
            cfg.n_sampled > 0 && cfg.n_sampled <= n_sets,
            "n_sampled {} out of range for {n_sets} sets",
            cfg.n_sampled
        );
        let mut dsc = DynamicSampledCache {
            counters: vec![cfg.counter_init(); n_sets],
            phase: Phase::Monitoring {
                remaining: cfg.monitor_interval,
            },
            slot_of: vec![0; n_sets],
            sampled: Vec::new(),
            changed_slots: Vec::new(),
            rng_state: cfg.seed | 1,
            reselections: 0,
            uniform_epochs: 0,
            cfg,
        };
        let random = dsc.random_sets();
        dsc.install(random);
        // The initial install is not a reselection: no counted event and
        // no changed slots. An empty `changed_slots` also keeps it
        // growable run-state under the snapshot codec's shape rule.
        dsc.reselections = 0;
        dsc.changed_slots.clear();
        dsc
    }

    /// The configuration in use.
    pub fn config(&self) -> &DscConfig {
        &self.cfg
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, seed-stable.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn random_sets(&mut self) -> Vec<usize> {
        let n_sets = self.counters.len();
        let mut chosen = Vec::with_capacity(self.cfg.n_sampled);
        while chosen.len() < self.cfg.n_sampled {
            let s = (self.next_rand() % n_sets as u64) as usize;
            if !chosen.contains(&s) {
                chosen.push(s);
            }
        }
        chosen
    }

    fn top_sets(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.counters.len()).collect();
        // Stable order among ties: prefer lower set index (deterministic).
        idx.sort_by(|&a, &b| self.counters[b].cmp(&self.counters[a]).then(a.cmp(&b)));
        idx.truncate(self.cfg.n_sampled);
        idx
    }

    fn install(&mut self, sets: Vec<usize>) {
        // Preserve the slots of sets that remain selected; hand the freed
        // slots to the newly selected sets.
        let n = self.cfg.n_sampled;
        let mut new_assign: Vec<Option<usize>> = vec![None; n]; // slot -> set
        let mut pending: Vec<usize> = Vec::new();
        for &set in &sets {
            match self.slot_of[set] {
                0 => pending.push(set),
                s => new_assign[s as usize - 1] = Some(set),
            }
        }
        self.changed_slots.clear();
        let mut pending = pending.into_iter();
        for (slot, a) in new_assign.iter_mut().enumerate() {
            if a.is_none() {
                *a = pending.next();
                self.changed_slots.push(slot);
            }
        }
        self.slot_of.fill(0);
        self.sampled = vec![0; n];
        for (slot, a) in new_assign.into_iter().enumerate() {
            let set = a.expect("every slot assigned");
            self.slot_of[set] = slot as u32 + 1;
            self.sampled[slot] = set;
        }
        self.reselections += 1;
    }

    /// Slots whose set changed at the last reselection.
    pub fn changed_slots(&self) -> &[usize] {
        &self.changed_slots
    }

    /// Whether `set` is currently a sampled set.
    pub fn is_sampled(&self, set: usize) -> bool {
        self.slot_of[set] != 0
    }

    /// Sampler storage slot for `set` (`0..n_sampled`), if sampled.
    pub fn slot_of(&self, set: usize) -> Option<usize> {
        match self.slot_of[set] {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    /// The currently selected sampled sets, in slot order.
    pub fn sampled_sets(&self) -> &[usize] {
        &self.sampled
    }

    /// Observe one access to `set` (`hit` = LLC hit). Drives the
    /// monitor/select/active state machine; returns
    /// [`DscEvent::Reselected`] when the sampled sets just changed.
    pub fn observe(&mut self, set: usize, hit: bool) -> DscEvent {
        match self.phase {
            Phase::Monitoring { ref mut remaining } => {
                let c = &mut self.counters[set];
                if hit {
                    *c = c.saturating_sub(1);
                } else {
                    *c = (*c + 1).min(self.cfg.counter_max());
                }
                *remaining -= 1;
                if *remaining == 0 {
                    let max = *self.counters.iter().max().expect("nonempty");
                    let min = *self.counters.iter().min().expect("nonempty");
                    let uniform = max - min < self.cfg.uniform_threshold;
                    let sets = if uniform {
                        self.uniform_epochs += 1;
                        self.random_sets()
                    } else {
                        self.top_sets()
                    };
                    self.install(sets);
                    self.phase = Phase::Active {
                        remaining: self.cfg.active_interval,
                    };
                    DscEvent::Reselected
                } else {
                    DscEvent::None
                }
            }
            Phase::Active { ref mut remaining } => {
                *remaining -= 1;
                if *remaining == 0 {
                    // Phase change: reset counters and start monitoring.
                    self.counters.fill(self.cfg.counter_init());
                    self.phase = Phase::Monitoring {
                        remaining: self.cfg.monitor_interval,
                    };
                }
                DscEvent::None
            }
        }
    }

    /// `(reselections, uniform_epochs)` diagnostics.
    pub fn diagnostics(&self) -> (u64, u64) {
        (self.reselections, self.uniform_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(n_sampled: usize, monitor: u64, active: u64) -> DscConfig {
        DscConfig {
            monitor_interval: monitor,
            active_interval: active,
            ..DscConfig::paper_default(n_sampled)
        }
    }

    #[test]
    fn paper_defaults() {
        let cfg = DscConfig::paper_default(16);
        assert_eq!(cfg.k_bits, 8);
        assert_eq!(cfg.counter_init(), 128);
        assert_eq!(cfg.counter_max(), 255);
        assert_eq!(cfg.monitor_interval, 32 * 1024);
        assert_eq!(cfg.active_interval, 128 * 1024);
    }

    #[test]
    fn initial_selection_is_populated_and_unique() {
        let dsc = DynamicSampledCache::new(tiny_cfg(8, 100, 100), 64);
        let s = dsc.sampled_sets();
        assert_eq!(s.len(), 8);
        let mut dedup = s.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
        for (slot, &set) in s.iter().enumerate() {
            assert_eq!(dsc.slot_of(set), Some(slot));
        }
    }

    #[test]
    fn selects_high_miss_sets_after_monitoring() {
        let mut dsc = DynamicSampledCache::new(tiny_cfg(4, 400, 1000), 16);
        // Sets 0–3 always miss; the rest always hit.
        let mut reselected = false;
        for i in 0..400u64 {
            let set = (i % 16) as usize;
            let hit = set >= 4;
            if dsc.observe(set, hit) == DscEvent::Reselected {
                reselected = true;
            }
        }
        assert!(reselected, "monititoring window should complete");
        let mut sel = dsc.sampled_sets().to_vec();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3], "hottest sets must be selected");
    }

    #[test]
    fn state_after_a_reselection_restores_into_a_fresh_selector() {
        use drishti_noc::snap::{Persist, StateReader, StateWriter};
        // Restore targets a freshly built selector, and the snapshot codec
        // holds every non-empty vector to its live length. A reselection
        // that keeps some sets changes fewer slots than the initial
        // install, so `changed_slots` must start empty to restore.
        let cfg = tiny_cfg(4, 400, 1000);
        let mut dsc = DynamicSampledCache::new(cfg, 16);
        assert!(dsc.changed_slots().is_empty());
        let kept = dsc.sampled_sets()[0];
        for i in 0..400u64 {
            let set = (i % 16) as usize;
            dsc.observe(set, set != kept && set >= 3);
        }
        assert_eq!(dsc.diagnostics().0, 1, "one reselection");
        assert!(dsc.changed_slots().len() < 4, "{:?}", dsc.changed_slots());

        let mut w = StateWriter::new();
        dsc.save(&mut w);
        let mut fresh = DynamicSampledCache::new(cfg, 16);
        fresh.load(&mut StateReader::new(w.bytes())).unwrap();
        assert_eq!(fresh.sampled_sets(), dsc.sampled_sets());
        assert_eq!(fresh.changed_slots(), dsc.changed_slots());
    }

    #[test]
    fn uniform_demand_falls_back_to_random() {
        let cfg = DscConfig {
            uniform_threshold: 50,
            ..tiny_cfg(4, 320, 1000)
        };
        let mut dsc = DynamicSampledCache::new(cfg, 16);
        // Perfectly uniform miss pattern: every set misses equally often.
        for i in 0..320u64 {
            dsc.observe((i % 16) as usize, i % 2 == 0);
        }
        let (_, uniform) = dsc.diagnostics();
        assert_eq!(uniform, 1, "uniform demand must be detected");
        assert_eq!(dsc.sampled_sets().len(), 4);
    }

    #[test]
    fn phase_cycle_monitor_active_monitor() {
        let mut dsc = DynamicSampledCache::new(tiny_cfg(2, 10, 20), 8);
        let mut reselects = 0;
        for i in 0..90u64 {
            // Bias misses toward set (epoch-dependent) to force changes.
            let set = (i % 8) as usize;
            let hit = if i < 40 { set != 0 } else { set != 5 };
            if dsc.observe(set, hit) == DscEvent::Reselected {
                reselects += 1;
            }
        }
        // 90 observations / (10 monitor + 20 active) = 3 full cycles.
        assert_eq!(reselects, 3);
    }

    #[test]
    fn adapts_to_phase_change() {
        let mut dsc = DynamicSampledCache::new(tiny_cfg(2, 80, 80), 8);
        // Phase 1: sets 0,1 hot.
        for i in 0..80u64 {
            let set = (i % 8) as usize;
            dsc.observe(set, set >= 2);
        }
        let mut first: Vec<usize> = dsc.sampled_sets().to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1]);
        // Drain the active phase.
        for i in 0..80u64 {
            dsc.observe((i % 8) as usize, true);
        }
        // Phase 2: sets 6,7 hot.
        for i in 0..80u64 {
            let set = (i % 8) as usize;
            dsc.observe(set, set < 6);
        }
        let mut second: Vec<usize> = dsc.sampled_sets().to_vec();
        second.sort_unstable();
        assert_eq!(second, vec![6, 7], "DSC must track the new hot sets");
    }

    #[test]
    fn counters_saturate() {
        let cfg = tiny_cfg(1, 1_000_000, 10);
        let mut dsc = DynamicSampledCache::new(cfg, 2);
        for _ in 0..600 {
            dsc.observe(0, false); // misses: counter climbs to max 255
            dsc.observe(1, true); // hits: counter floors at 0
        }
        assert_eq!(dsc.counters[0], 255);
        assert_eq!(dsc.counters[1], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_sampled_panics() {
        let _ = DynamicSampledCache::new(tiny_cfg(0, 10, 10), 8);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = DynamicSampledCache::new(tiny_cfg(4, 10, 10), 64);
        let b = DynamicSampledCache::new(tiny_cfg(4, 10, 10), 64);
        assert_eq!(a.sampled_sets(), b.sampled_sets());
    }
}
