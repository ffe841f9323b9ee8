//! Deterministic fault injection for the uncore.
//!
//! Real many-core uncore fabrics drop, delay and jitter messages; DRAM
//! channels get throttled or fenced off. The paper only probes the
//! NOCSTAR side-band with a clean ablation (Fig 11a) and a fixed-latency
//! sweep (Fig 11b); this module turns those two points into a full
//! resilience surface by injecting *reproducible* faults into every
//! uncore component:
//!
//! * **message drops** — each message is dropped with probability
//!   `drop_pct`;
//! * **latency jitter** — each delivered message gains a uniform extra
//!   latency in `[0, jitter]` cycles;
//! * **transient link outages** — periodic per-link down-windows during
//!   which messages stall until the link recovers;
//! * **DRAM channel outages** — wall-clock windows during which a channel
//!   is unavailable and its traffic must be re-steered.
//!
//! Every decision is a pure function of `(seed, domain, message identity,
//! per-schedule counter)` via a splitmix64 hash, so two runs with the same
//! [`FaultConfig`] produce bit-identical fault streams, and the fault
//! domains (mesh vs. NOCSTAR vs. DRAM) are decorrelated. A configuration
//! for which [`FaultConfig::is_noop`] holds builds **no** schedule at all
//! ([`FaultSchedule::for_domain`] returns `None`), so a zero-rate run
//! draws no decision and is bit-identical to a fault-free one.

/// Which uncore component a schedule is attached to. Each domain derives
/// an independent decision stream from the shared seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// The demand mesh NoC.
    Mesh,
    /// The NOCSTAR side-band interconnect.
    Nocstar,
    /// A generic predictor-fabric link (fixed-latency or mesh-backed).
    Fabric,
    /// The DRAM subsystem.
    Dram,
    /// The serializing inter-chip links of a multi-chip topology.
    InterChip,
}

impl FaultDomain {
    fn salt(self) -> u64 {
        match self {
            FaultDomain::Mesh => 0x6d65_7368,
            FaultDomain::Nocstar => 0x006e_6f63_7374_6172,
            FaultDomain::Fabric => 0x6661_6272_6963,
            FaultDomain::Dram => 0x6472_616d,
            FaultDomain::InterChip => 0x6368_6970_3263_6869, // "chip2chi"
        }
    }
}

/// A wall-clock window during which one DRAM channel is down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// The channel the outage applies to.
    pub channel: usize,
    /// First cycle of the outage.
    pub start: u64,
    /// Length in cycles (`start + len` is the first healthy cycle).
    pub len: u64,
}

impl OutageWindow {
    /// Whether `cycle` falls inside this window.
    pub fn covers(&self, cycle: u64) -> bool {
        cycle >= self.start && cycle < self.start.saturating_add(self.len)
    }
}

/// Seeded description of the faults to inject.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Base seed; all domains derive their streams from it.
    pub seed: u64,
    /// Per-message drop probability, percent (0–100).
    pub drop_pct: f64,
    /// Maximum uniform extra latency per delivered message, cycles.
    pub jitter: u64,
    /// Period of transient link outages, cycles (0 = never).
    pub link_outage_period: u64,
    /// Length of each link outage window, cycles.
    pub link_outage_len: u64,
    /// DRAM channel outage windows.
    pub dram_outages: Vec<OutageWindow>,
}

impl FaultConfig {
    /// The no-fault configuration.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            drop_pct: 0.0,
            jitter: 0,
            link_outage_period: 0,
            link_outage_len: 0,
            dram_outages: Vec::new(),
        }
    }

    /// A drop/jitter-only configuration (the resilience sweep's knob).
    pub fn with_drops(seed: u64, drop_pct: f64) -> Self {
        FaultConfig {
            seed,
            drop_pct,
            ..FaultConfig::none()
        }
    }

    /// Whether this configuration injects nothing at all. A no-op config
    /// builds no schedule, so it is bit-identical to the fault-free path.
    pub fn is_noop(&self) -> bool {
        self.drop_pct <= 0.0
            && self.jitter == 0
            && (self.link_outage_period == 0 || self.link_outage_len == 0)
            && self.dram_outages.is_empty()
    }

    /// Validate field ranges, returning a one-line human-readable reason
    /// on failure.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=100.0).contains(&self.drop_pct) || !self.drop_pct.is_finite() {
            return Err(format!(
                "drop percentage must be within 0..=100, got {}",
                self.drop_pct
            ));
        }
        if self.link_outage_len > 0
            && self.link_outage_period > 0
            && self.link_outage_len >= self.link_outage_period
        {
            return Err(format!(
                "link outage length ({}) must be shorter than its period ({})",
                self.link_outage_len, self.link_outage_period
            ));
        }
        for w in &self.dram_outages {
            if w.len == 0 {
                return Err(format!(
                    "DRAM outage window for channel {} has zero length",
                    w.channel
                ));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Per-message fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// The message is lost in transit.
    pub dropped: bool,
    /// Extra delivery latency (only meaningful when not dropped).
    pub jitter: u64,
}

impl FaultDecision {
    /// The decision a healthy fabric always makes.
    pub const CLEAN: FaultDecision = FaultDecision {
        dropped: false,
        jitter: 0,
    };
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Retransmissions before a packet that cannot be lost is force-delivered.
/// Demand traffic carries cache lines, so after this many timeouts the
/// packet goes through regardless: latency stays bounded and the system
/// makes forward progress even at a 100% injected drop rate.
pub(crate) const MAX_RETRANSMITS: u64 = 8;

/// One domain's deterministic fault stream.
///
/// The per-message counter makes repeated messages with identical
/// `(from, to, cycle)` draw distinct decisions while staying fully
/// deterministic (the hosting component is itself deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    cfg: FaultConfig,
    salt: u64,
    counter: u64,
}

impl FaultSchedule {
    /// Build the schedule for `domain`, or `None` when `cfg` injects
    /// nothing.
    pub fn for_domain(cfg: &FaultConfig, domain: FaultDomain) -> Option<FaultSchedule> {
        if cfg.is_noop() {
            return None;
        }
        Some(FaultSchedule {
            salt: splitmix64(cfg.seed ^ domain.salt()),
            cfg: cfg.clone(),
            counter: 0,
        })
    }

    /// The configuration driving this schedule.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The per-schedule decision counter — the schedule's only mutable
    /// run-state (everything else is a pure function of config + salt).
    /// Checkpoints persist exactly this cursor.
    pub fn cursor(&self) -> u64 {
        self.counter
    }

    /// Restore the decision counter saved by [`FaultSchedule::cursor`].
    pub fn set_cursor(&mut self, counter: u64) {
        self.counter = counter;
    }

    #[inline]
    fn draw(&mut self, from: usize, to: usize, cycle: u64) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        splitmix64(
            self.salt
                ^ self.counter
                ^ (from as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (to as u64).rotate_left(32)
                ^ cycle.wrapping_mul(0xd134_2543_de82_ef95),
        )
    }

    /// Decide the fate of one message.
    pub fn decide(&mut self, from: usize, to: usize, cycle: u64) -> FaultDecision {
        let roll = self.draw(from, to, cycle);
        // Drop with probability drop_pct / 100, using the top 32 bits.
        let dropped = self.cfg.drop_pct > 0.0
            && ((roll >> 32) as f64) < self.cfg.drop_pct / 100.0 * 4_294_967_296.0;
        let jitter = if self.cfg.jitter > 0 {
            (roll & 0xffff_ffff) % (self.cfg.jitter + 1)
        } else {
            0
        };
        FaultDecision { dropped, jitter }
    }

    /// If `link` is inside a transient outage window at `cycle`, the
    /// number of cycles until it recovers (messages stall that long).
    /// Windows recur every `link_outage_period` cycles with a per-link
    /// deterministic phase so the whole fabric never goes down at once.
    pub fn link_outage_wait(&self, link: usize, cycle: u64) -> Option<u64> {
        let period = self.cfg.link_outage_period;
        let len = self.cfg.link_outage_len;
        if period == 0 || len == 0 {
            return None;
        }
        let phase =
            splitmix64(self.salt ^ (link as u64).wrapping_mul(0xff51_afd7_ed55_8ccd)) % period;
        let pos = (cycle.wrapping_add(phase)) % period;
        if pos < len {
            Some(len - pos)
        } else {
            None
        }
    }

    /// Bounded retransmission of one demand packet from `from` to `to` at
    /// `cycle`: the packet stalls behind an outage of `from`'s outgoing
    /// link, each drop costs `timeout` cycles before the resend (at most
    /// [`MAX_RETRANSMITS`] of them) and the attempt that gets through gains
    /// its jitter. Charges the drops, retries and extra cycles to `stats`
    /// and returns the extra cycles; the caller routes the packet that
    /// much later and adds them to its latency.
    pub(crate) fn retransmit(
        &mut self,
        from: usize,
        to: usize,
        cycle: u64,
        timeout: u64,
        stats: &mut crate::NocStats,
    ) -> u64 {
        let mut extra = self.link_outage_wait(from, cycle).unwrap_or(0);
        let mut drops = 0u64;
        loop {
            let d = self.decide(from, to, cycle + extra);
            if !d.dropped || drops >= MAX_RETRANSMITS {
                extra += d.jitter;
                break;
            }
            drops += 1;
            extra += timeout;
        }
        stats.dropped += drops;
        stats.retries += drops;
        stats.fault_delay_cycles += extra;
        stats.total_latency += extra;
        extra
    }

    /// Whether DRAM `channel` is inside an outage window at `cycle`.
    pub fn dram_channel_down(&self, channel: usize, cycle: u64) -> bool {
        self.cfg
            .dram_outages
            .iter()
            .any(|w| w.channel == channel && w.covers(cycle))
    }

    /// The cycle at which DRAM `channel` next recovers, given it is down
    /// at `cycle` (used when every channel is down and the request must
    /// simply wait out the outage).
    pub fn dram_channel_up_at(&self, channel: usize, cycle: u64) -> u64 {
        self.cfg
            .dram_outages
            .iter()
            .filter(|w| w.channel == channel && w.covers(cycle))
            .map(|w| w.start.saturating_add(w.len))
            .max()
            .unwrap_or(cycle)
    }
}

/// Persist the mutable cursor of an optional fault schedule: presence tag
/// plus the counter. Presence is config-derived, so a mismatch between the
/// snapshot and the rebuilt component means the checkpoint belongs to a
/// different configuration — reported as a typed error, never patched over.
pub fn save_fault_cursor(faults: &Option<FaultSchedule>, w: &mut crate::snap::StateWriter) {
    crate::snap::Persist::save(&faults.as_ref().map(|f| f.cursor()), w);
}

/// Restore a cursor saved by [`save_fault_cursor`] into an
/// already-configured optional schedule. `what` names the owning component
/// in error messages.
pub fn load_fault_cursor(
    faults: &mut Option<FaultSchedule>,
    r: &mut crate::snap::StateReader<'_>,
    what: &'static str,
) -> Result<(), crate::snap::SnapError> {
    let mut cursor: Option<u64> = None;
    crate::snap::Persist::load(&mut cursor, r)?;
    match (faults.as_mut(), cursor) {
        (Some(f), Some(c)) => {
            f.set_cursor(c);
            Ok(())
        }
        (None, None) => Ok(()),
        (have, _) => Err(crate::snap::SnapError::Invalid {
            what,
            detail: format!(
                "fault schedule {} in the snapshot but {} in this configuration",
                if have.is_none() { "present" } else { "absent" },
                if have.is_none() { "absent" } else { "present" },
            ),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(drop_pct: f64, jitter: u64) -> FaultConfig {
        FaultConfig {
            seed: 42,
            drop_pct,
            jitter,
            ..FaultConfig::none()
        }
    }

    #[test]
    fn noop_config_builds_no_schedule() {
        assert!(FaultConfig::none().is_noop());
        assert!(FaultSchedule::for_domain(&FaultConfig::none(), FaultDomain::Mesh).is_none());
        // A seed alone does not make a config faulty.
        let seeded = FaultConfig {
            seed: 7,
            ..FaultConfig::none()
        };
        assert!(seeded.is_noop());
    }

    #[test]
    fn identical_seeds_give_identical_streams() {
        let mut a = FaultSchedule::for_domain(&cfg(30.0, 5), FaultDomain::Nocstar).unwrap();
        let mut b = FaultSchedule::for_domain(&cfg(30.0, 5), FaultDomain::Nocstar).unwrap();
        for i in 0..1000 {
            assert_eq!(
                a.decide(i % 7, i % 11, i as u64),
                b.decide(i % 7, i % 11, i as u64)
            );
        }
    }

    #[test]
    fn domains_are_decorrelated() {
        let c = cfg(50.0, 0);
        let mut mesh = FaultSchedule::for_domain(&c, FaultDomain::Mesh).unwrap();
        let mut star = FaultSchedule::for_domain(&c, FaultDomain::Nocstar).unwrap();
        let differs = (0..256).any(|i| mesh.decide(0, 1, i) != star.decide(0, 1, i));
        assert!(differs, "domains must not share a decision stream");
    }

    #[test]
    fn drop_rate_tracks_configuration() {
        for pct in [0.0f64, 10.0, 50.0, 100.0] {
            let mut s =
                FaultSchedule::for_domain(&cfg(pct.max(0.1), 0), FaultDomain::Mesh).unwrap();
            let n = 20_000;
            let drops = (0..n).filter(|&i| s.decide(0, 1, i).dropped).count();
            let observed = drops as f64 / n as f64 * 100.0;
            assert!(
                (observed - pct.max(0.1)).abs() < 2.0,
                "configured {pct}%, observed {observed:.1}%"
            );
        }
    }

    #[test]
    fn jitter_is_bounded_and_exercised() {
        let mut s = FaultSchedule::for_domain(&cfg(0.0, 6), FaultDomain::Dram).unwrap();
        let mut seen_nonzero = false;
        for i in 0..1000 {
            let d = s.decide(0, 0, i);
            assert!(d.jitter <= 6);
            seen_nonzero |= d.jitter > 0;
        }
        assert!(seen_nonzero, "jitter never fired");
    }

    #[test]
    fn link_outages_recur_with_per_link_phase() {
        let c = FaultConfig {
            seed: 9,
            link_outage_period: 100,
            link_outage_len: 10,
            ..FaultConfig::none()
        };
        let s = FaultSchedule::for_domain(&c, FaultDomain::Mesh).unwrap();
        for link in 0..4 {
            let down: Vec<u64> = (0..300)
                .filter(|&t| s.link_outage_wait(link, t).is_some())
                .collect();
            assert_eq!(down.len(), 30, "10 cycles down per 100-cycle period");
            // The wait returned always reaches the end of the window.
            for &t in &down {
                let w = s.link_outage_wait(link, t).unwrap();
                assert!((1..=10).contains(&w));
                assert!(
                    s.link_outage_wait(link, t + w).is_none(),
                    "link still down after wait"
                );
            }
        }
        // Phases differ across links (with overwhelming probability).
        let p0 = (0..100).find(|&t| s.link_outage_wait(0, t).is_some());
        let p1 = (0..100).find(|&t| s.link_outage_wait(1, t).is_some());
        let p2 = (0..100).find(|&t| s.link_outage_wait(2, t).is_some());
        assert!(p0 != p1 || p1 != p2, "all links share an outage phase");
    }

    #[test]
    fn dram_outage_windows_cover_their_range() {
        let c = FaultConfig {
            seed: 1,
            dram_outages: vec![OutageWindow {
                channel: 1,
                start: 100,
                len: 50,
            }],
            ..FaultConfig::none()
        };
        assert!(!c.is_noop());
        let s = FaultSchedule::for_domain(&c, FaultDomain::Dram).unwrap();
        assert!(!s.dram_channel_down(1, 99));
        assert!(s.dram_channel_down(1, 100));
        assert!(s.dram_channel_down(1, 149));
        assert!(!s.dram_channel_down(1, 150));
        assert!(!s.dram_channel_down(0, 120), "other channels stay up");
        assert_eq!(s.dram_channel_up_at(1, 120), 150);
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        let mut c = cfg(120.0, 0);
        assert!(c.validate().is_err());
        c.drop_pct = 50.0;
        assert!(c.validate().is_ok());
        c.link_outage_period = 10;
        c.link_outage_len = 10;
        assert!(c.validate().is_err());
        c.link_outage_len = 5;
        assert!(c.validate().is_ok());
        c.dram_outages.push(OutageWindow {
            channel: 0,
            start: 0,
            len: 0,
        });
        assert!(c.validate().is_err());
    }
}
