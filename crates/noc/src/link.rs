//! The slice → predictor transport abstraction.
//!
//! Prediction-based replacement policies (Hawkeye, Mockingjay, …) access a
//! reuse predictor on two occasions: *training* (a sampled-set access
//! resolves a reuse or an eviction) and *prediction* (an LLC fill asks for an
//! insertion priority). Where that predictor lives — and what fabric carries
//! the access — is the heart of the Drishti design space:
//!
//! * **local** per-slice predictor: zero transport cost, myopic training;
//! * **global** predictor over the **mesh**: ~20-cycle accesses on 32 cores
//!   that erase the benefit (paper Fig 11a);
//! * **global** predictor over **NOCSTAR**: 3-cycle accesses (Drishti);
//! * a **fixed-latency** link used for the paper's latency-sensitivity sweep
//!   (Fig 11b).
//!
//! [`PredictorLink`] unifies these so the policy code is organisation-
//! agnostic; `drishti-core` picks the implementation. The NOCSTAR link is
//! [`crate::nocstar::Nocstar`] itself, and [`HierarchicalLink`] stretches
//! any of them over a multi-chip system.

use crate::faults::{FaultConfig, FaultDecision, FaultDomain, FaultSchedule};
use crate::mesh::{Mesh, MeshConfig, ADDRESS_PACKET_FLITS};
use crate::nocstar::{NocstarPath, ENERGY_PER_MESSAGE_PJ};
use crate::snap::{Persist, SnapError};
use crate::topology::{ChipGrid, ChipLinkConfig};
use crate::{Delivery, NocStats, NodeId};

/// A transport that carries slice↔predictor messages.
///
/// Every link is built from a [`FaultConfig`]; a no-op configuration
/// builds no fault schedule, and then every message is delivered. Under
/// injected faults a message may be lost instead. Unlike demand traffic, a
/// lost predictor message is *not* retransmitted by the link: the caller
/// (`PredictorFabric`) owns the retry/fallback policy.
pub trait PredictorLink: std::fmt::Debug {
    /// Send one message from tile `from` to tile `to` on `leg` at `cycle`,
    /// accounting its traffic and energy in the link's [`NocStats`].
    fn send(&mut self, from: NodeId, to: NodeId, leg: NocstarPath, cycle: u64) -> Delivery;

    /// Traffic/energy accumulated by this link.
    fn stats(&self) -> NocStats;

    /// Human-readable fabric name (for experiment output).
    fn name(&self) -> &'static str;

    /// Serialise the link's mutable run-state for a checkpoint. Stateless
    /// links (the default) write nothing.
    fn save_state(&self, _w: &mut crate::snap::StateWriter) {}

    /// Restore state saved by [`PredictorLink::save_state`] into an
    /// identically-configured link.
    fn load_state(&mut self, _r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Zero-cost link: predictor co-located with the requesting slice.
///
/// This is the baseline (per-slice local predictor) transport — the paper
/// notes that "without Drishti's enhancements, there is no interconnect
/// traffic between slices and predictors".
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalLink;

impl PredictorLink for LocalLink {
    fn send(&mut self, _from: NodeId, _to: NodeId, _leg: NocstarPath, _cycle: u64) -> Delivery {
        Delivery::delivered(0)
    }

    fn stats(&self) -> NocStats {
        NocStats::default()
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

/// Predictor messages ride a mesh of the same geometry as the demand NoC.
///
/// Used to reproduce Fig 11a (D-Mockingjay *without* a low-latency
/// interconnect): each access is a one-flit address packet routed XY with
/// link contention.
#[derive(Debug, Clone)]
pub struct MeshLink {
    mesh: Mesh,
    /// Injected-fault stream for predictor messages. Kept here rather than
    /// inside the mesh because predictor traffic has *loss* semantics (the
    /// fabric surfaces the drop and lets `PredictorFabric` decide), while
    /// the demand mesh retransmits internally.
    faults: Option<FaultSchedule>,
    /// Drop/jitter accounting layered over the mesh's own stats.
    fault_stats: NocStats,
}

impl MeshLink {
    /// A mesh-backed link for `nodes` tiles, subject to `faults`.
    pub fn new(nodes: usize, faults: &FaultConfig) -> Self {
        MeshLink {
            mesh: Mesh::new(MeshConfig::for_nodes(nodes)),
            faults: FaultSchedule::for_domain(faults, FaultDomain::Fabric),
            fault_stats: NocStats::default(),
        }
    }
}

impl PredictorLink for MeshLink {
    /// Faults strike request legs only: a response leg is always delivered.
    fn send(&mut self, from: NodeId, to: NodeId, leg: NocstarPath, cycle: u64) -> Delivery {
        let (outage, decision) = match self.faults.as_mut() {
            Some(sched) if from != to && leg == NocstarPath::Request => (
                sched.link_outage_wait(from, cycle).unwrap_or(0),
                sched.decide(from, to, cycle),
            ),
            _ => (0, FaultDecision::CLEAN),
        };
        if decision.dropped {
            // Loss observable after the zero-load flight time.
            let flight = self
                .mesh
                .zero_load_latency(self.mesh.hops(from, to), ADDRESS_PACKET_FLITS);
            self.fault_stats.dropped += 1;
            self.fault_stats.fault_delay_cycles += outage;
            return Delivery {
                latency: outage + flight,
                dropped: true,
            };
        }
        let extra = outage + decision.jitter;
        self.fault_stats.fault_delay_cycles += extra;
        let lat = self
            .mesh
            .traverse(from, to, cycle + extra, ADDRESS_PACKET_FLITS);
        Delivery::delivered(lat + extra)
    }

    fn stats(&self) -> NocStats {
        let mut s = *self.mesh.stats();
        s.merge(&self.fault_stats);
        s
    }

    fn name(&self) -> &'static str {
        "mesh"
    }

    fn save_state(&self, w: &mut crate::snap::StateWriter) {
        self.mesh.save_state(w);
        self.fault_stats.save(w);
        crate::faults::save_fault_cursor(&self.faults, w);
    }

    fn load_state(&mut self, r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        self.mesh.load_state(r)?;
        self.fault_stats.load(r)?;
        crate::faults::load_fault_cursor(&mut self.faults, r, "mesh link fault schedule")
    }
}

/// A chip-boundary-aware wrapper around any [`PredictorLink`].
///
/// NOCSTAR is a latch-less circuit-switched side-band — a *die-local*
/// structure that cannot cross a package boundary. On a multi-chip
/// [`crate::topology::ChipTopology`], predictor traffic between tiles of
/// one chip rides the wrapped link unchanged, but a cross-chip access
/// falls back to the hierarchical path: the wrapped link carries it to the
/// source chip's I/O gateway, a serializing inter-chip segment carries it
/// between chips, and the wrapped link delivers it from the destination
/// chip's gateway. Chips, gateways and chip hops are the topology's own
/// chip-major geometry (`ChipGrid`). This reproduces the paper's Fig 11
/// tension at scale — however fast the side-band, a cross-chip predictor
/// lookup pays tens of cycles, exactly the regime where Fig 11b shows the
/// benefit eroding.
#[derive(Debug)]
pub struct HierarchicalLink {
    inner: Box<dyn PredictorLink>,
    grid: ChipGrid,
    link: ChipLinkConfig,
    /// Cross-chip segment accounting, kept apart from the inner link's.
    cross_stats: NocStats,
}

impl HierarchicalLink {
    /// Wrap `inner` (built for all `total_tiles` tiles, global ids) for a
    /// `chips`-chip system.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or does not divide `total_tiles`.
    pub fn new(
        inner: Box<dyn PredictorLink>,
        chips: usize,
        total_tiles: usize,
        link: ChipLinkConfig,
    ) -> Self {
        HierarchicalLink {
            inner,
            grid: ChipGrid::new(chips, total_tiles),
            link,
            cross_stats: NocStats::default(),
        }
    }

    /// Contention-free latency and accounting of the inter-chip segment
    /// for a one-flit predictor packet.
    fn cross_segment(&mut self, from_chip: usize, to_chip: usize) -> u64 {
        let hops = self.grid.chip_hops(from_chip, to_chip);
        self.cross_stats.messages += 1;
        self.cross_stats.flits += 1;
        self.cross_stats.hop_traversals += u64::from(hops);
        self.cross_stats.energy_pj += u64::from(hops) * self.link.energy_per_flit_pj;
        let lat = self.link.zero_load(hops, 1);
        self.cross_stats.total_latency += lat;
        lat
    }
}

impl PredictorLink for HierarchicalLink {
    fn send(&mut self, from: NodeId, to: NodeId, leg: NocstarPath, cycle: u64) -> Delivery {
        let (ca, cb) = (self.grid.chip_of(from), self.grid.chip_of(to));
        if ca == cb {
            return self.inner.send(from, to, leg, cycle);
        }
        // Both on-chip legs are issued at the current time (the same rule
        // the fabric's request/response pair follows); a drop on either
        // loses the message.
        let to_gateway = self.inner.send(from, self.grid.gateway(ca), leg, cycle);
        let cross = self.cross_segment(ca, cb);
        let from_gateway = self.inner.send(self.grid.gateway(cb), to, leg, cycle);
        Delivery {
            latency: to_gateway.latency + cross + from_gateway.latency,
            dropped: to_gateway.dropped || from_gateway.dropped,
        }
    }

    fn stats(&self) -> NocStats {
        let mut s = self.inner.stats();
        s.merge(&self.cross_stats);
        s
    }

    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn save_state(&self, w: &mut crate::snap::StateWriter) {
        self.inner.save_state(w);
        self.cross_stats.save(w);
    }

    fn load_state(&mut self, r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)?;
        self.cross_stats.load(r)
    }
}

/// A link with a fixed remote latency, contention-free, each message
/// priced like a NOCSTAR message.
///
/// Reproduces the paper's Fig 11b interconnect-latency sensitivity sweep
/// (1…30 cycles on a 32-core system).
#[derive(Debug, Clone)]
pub struct FixedLatencyLink {
    latency: u64,
    stats: NocStats,
    /// Injected-fault stream (`None` unless `faults` injects something).
    faults: Option<FaultSchedule>,
}

impl FixedLatencyLink {
    /// A link that delivers remote messages in `latency` cycles, subject
    /// to `faults`.
    pub fn new(latency: u64, faults: &FaultConfig) -> Self {
        FixedLatencyLink {
            latency,
            stats: NocStats::default(),
            faults: FaultSchedule::for_domain(faults, FaultDomain::Fabric),
        }
    }
}

impl PredictorLink for FixedLatencyLink {
    /// Faults strike request legs only: a response leg is always delivered.
    fn send(&mut self, from: NodeId, to: NodeId, leg: NocstarPath, cycle: u64) -> Delivery {
        let decision = match self.faults.as_mut() {
            Some(sched) if from != to && leg == NocstarPath::Request => {
                sched.decide(from, to, cycle)
            }
            _ => FaultDecision::CLEAN,
        };
        self.stats.messages += 1;
        self.stats.flits += 1;
        self.stats.energy_pj += ENERGY_PER_MESSAGE_PJ;
        if decision.dropped {
            self.stats.dropped += 1;
            return Delivery {
                latency: self.latency,
                dropped: true,
            };
        }
        let lat = if from == to { 0 } else { self.latency } + decision.jitter;
        self.stats.total_latency += lat;
        self.stats.fault_delay_cycles += decision.jitter;
        Delivery::delivered(lat)
    }

    fn stats(&self) -> NocStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "fixed"
    }

    fn save_state(&self, w: &mut crate::snap::StateWriter) {
        self.stats.save(w);
        crate::faults::save_fault_cursor(&self.faults, w);
    }

    fn load_state(&mut self, r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        self.stats.load(r)?;
        crate::faults::load_fault_cursor(&mut self.faults, r, "fixed link fault schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nocstar::Nocstar;
    use crate::nocstar::NocstarPath::{Request, Response};

    #[test]
    fn local_link_is_free() {
        let mut l = LocalLink;
        assert_eq!(l.send(0, 31, Request, 1234).latency, 0);
        assert_eq!(l.stats().messages, 0);
    }

    #[test]
    fn mesh_link_latency_grows_with_distance() {
        let mut l = MeshLink::new(32, &FaultConfig::none());
        let near = l.send(0, 1, Request, 0).latency;
        let far = l.send(0, 31, Request, 1_000).latency;
        assert!(far > near, "{far} vs {near}");
    }

    #[test]
    fn mesh_link_average_is_tens_of_cycles_on_32_tiles() {
        // Paper: "For a 32-core system, we observe an average interconnect
        // latency of 20 cycles." Our model should land in that regime.
        let mut l = MeshLink::new(32, &FaultConfig::none());
        let mut total = 0u64;
        let mut count = 0u64;
        for from in 0..32 {
            for to in 0..32 {
                total += l
                    .send(from, to, Request, 1_000_000 * (from * 32 + to) as u64)
                    .latency;
                count += 1;
            }
        }
        let avg = total as f64 / count as f64;
        assert!((8.0..35.0).contains(&avg), "average mesh latency {avg}");
    }

    #[test]
    fn fixed_latency_link_sweeps() {
        for lat in [1u64, 5, 10, 20, 30] {
            let mut l = FixedLatencyLink::new(lat, &FaultConfig::none());
            assert_eq!(l.send(0, 9, Request, 0).latency, lat);
            assert_eq!(l.send(4, 4, Request, 0).latency, 0);
        }
    }

    #[test]
    fn healthy_links_always_deliver() {
        let mut links: Vec<Box<dyn PredictorLink>> = vec![
            Box::new(LocalLink),
            Box::new(MeshLink::new(16, &FaultConfig::none())),
            Box::new(Nocstar::new(16, &FaultConfig::none())),
            Box::new(FixedLatencyLink::new(10, &FaultConfig::none())),
        ];
        for l in &mut links {
            let d = l.send(0, 9, Request, 100);
            assert!(!d.dropped, "{} dropped without faults", l.name());
            let r = l.send(9, 0, Response, 200);
            assert!(!r.dropped);
        }
    }

    #[test]
    fn faulty_links_drop_and_report() {
        let cfg = FaultConfig {
            seed: 17,
            drop_pct: 60.0,
            ..FaultConfig::none()
        };
        let mut links: Vec<Box<dyn PredictorLink>> = vec![
            Box::new(MeshLink::new(16, &cfg)),
            Box::new(Nocstar::new(16, &cfg)),
            Box::new(FixedLatencyLink::new(10, &cfg)),
        ];
        for l in &mut links {
            let drops = (0..200u64)
                .filter(|&t| l.send(0, 9, Request, t).dropped)
                .count();
            assert!(drops > 0, "{} never dropped at 60%", l.name());
            assert!(drops < 200, "{} dropped everything at 60%", l.name());
            assert_eq!(
                l.stats().dropped,
                drops as u64,
                "{} stats mismatch",
                l.name()
            );
        }
    }

    #[test]
    fn hierarchical_wrapper_is_transparent_within_a_chip() {
        let mut plain = Nocstar::new(32, &FaultConfig::none());
        let mut wrapped = HierarchicalLink::new(
            Box::new(Nocstar::new(32, &FaultConfig::none())),
            2,
            32,
            ChipLinkConfig::default(),
        );
        // Tiles 0..16 share chip 0: identical latency, stats and bytes.
        for t in 0..100u64 {
            let (f, to) = ((t % 16) as usize, ((t * 7) % 16) as usize);
            assert_eq!(
                plain.send(f, to, Request, t),
                wrapped.send(f, to, Request, t)
            );
            assert_eq!(
                plain.send(to, f, Response, t),
                wrapped.send(to, f, Response, t)
            );
        }
        assert_eq!(plain.stats(), wrapped.stats());
    }

    #[test]
    fn hierarchical_cross_chip_erodes_nocstar() {
        let cfg = ChipLinkConfig::default();
        let mut wrapped =
            HierarchicalLink::new(Box::new(Nocstar::new(32, &FaultConfig::none())), 2, 32, cfg);
        let same = wrapped.send(1, 15, Request, 0).latency; // chip 0 → chip 0
        let cross = wrapped.send(1, 20, Request, 0).latency; // chip 0 → chip 1, off-gateway
        assert_eq!(same, 3, "intra-chip keeps the 3-cycle side-band");
        // Cross-chip: two side-band legs plus one serializing inter-chip hop.
        assert_eq!(cross, 3 + cfg.latency + cfg.serialization - 1 + 3);
        let s = wrapped.stats();
        assert_eq!(s.energy_pj, 3 * 50 + cfg.energy_per_flit_pj);
    }

    #[test]
    fn hierarchical_send_propagates_drops() {
        let faults = FaultConfig {
            seed: 11,
            drop_pct: 100.0,
            ..FaultConfig::none()
        };
        let mut wrapped = HierarchicalLink::new(
            Box::new(Nocstar::new(32, &faults)),
            2,
            32,
            ChipLinkConfig::default(),
        );
        let d = wrapped.send(0, 20, Request, 0);
        assert!(d.dropped, "a lost on-chip leg loses the message");
        assert!(d.latency > 0);
    }

    #[test]
    fn hierarchical_state_round_trips() {
        let cfg = ChipLinkConfig::default();
        let mk =
            || HierarchicalLink::new(Box::new(Nocstar::new(16, &FaultConfig::none())), 2, 16, cfg);
        let mut a = mk();
        for t in 0..50u64 {
            a.send((t % 16) as usize, ((t * 5) % 16) as usize, Request, t);
        }
        let mut w = crate::snap::StateWriter::new();
        a.save_state(&mut w);
        let mut b = mk();
        b.load_state(&mut crate::snap::StateReader::new(w.bytes()))
            .expect("round trip");
        assert_eq!(a.stats(), b.stats());
    }
}
