//! The predictor fabric: placement + transport for reuse-predictor access.
//!
//! Every prediction-based policy funnels its predictor traffic through a
//! [`PredictorFabric`]. The fabric answers two questions per access:
//!
//! * **which bank** holds the entry — a function of the [`PredictorOrg`]
//!   (the slice's own bank, the single central bank, or the requesting
//!   core's bank); and
//! * **what it costs** — the transport latency over the configured
//!   [`PredictorLink`] (nothing for local, mesh hops for the no-NOCSTAR
//!   ablation of Fig 11a, 3 cycles for NOCSTAR, or a fixed latency for the
//!   Fig 11b sweep), plus traffic/energy accounting.
//!
//! Training and prediction lookups are counted separately because the
//! paper's Fig 10 reports their sum per kilo-instruction for the
//! centralized vs. per-core organisations.
//!
//! # Graceful degradation
//!
//! The fault primitives (seeded schedules, drop/jitter decisions, link and
//! DRAM outage windows) live in [`drishti_noc::faults`]; the fabric owns
//! how predictor traffic degrades when its transport misbehaves:
//!
//! * a prediction lookup that is dropped abandons the remote predictor and
//!   falls back to the policy's local static insertion decision (its
//!   untrained default — SRRIP-like middle-of-the-road insertion), so the
//!   fill never blocks on a lost message. On a fault-injected fabric, a
//!   lookup whose transport exceeds
//!   [`PredictorFabric::PREDICTION_DEADLINE`] falls back too; a healthy
//!   slow lookup (a cross-chip hop, say) is waited out;
//! * a dropped training update is retried up to
//!   [`PredictorFabric::TRAIN_RETRIES`] times with a linear backoff of
//!   [`PredictorFabric::RETRY_BACKOFF`] cycles per attempt; training lost
//!   after the last retry is simply skipped — predictors tolerate sparse
//!   training, they merely converge slower.

use crate::config::DrishtiConfig;
use crate::org::{PredictorOrg, SamplerOrg};
use drishti_noc::faults::FaultConfig;
use drishti_noc::link::{FixedLatencyLink, HierarchicalLink, LocalLink, MeshLink, PredictorLink};
use drishti_noc::nocstar::{Nocstar, NocstarPath};
use drishti_noc::{NocStats, NodeId};

/// Which transport carries predictor messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// No transport (predictor co-located with each slice).
    Local,
    /// The regular mesh NoC (Fig 11a ablation: Drishti *without* NOCSTAR).
    Mesh,
    /// The dedicated NOCSTAR side-band interconnect (Drishti default).
    Nocstar,
    /// A fixed per-access latency (Fig 11b sensitivity sweep).
    Fixed(u64),
}

impl FabricKind {
    fn build(self, tiles: usize, faults: &FaultConfig) -> Box<dyn PredictorLink> {
        match self {
            FabricKind::Local => Box::new(LocalLink),
            FabricKind::Mesh => Box::new(MeshLink::new(tiles, faults)),
            FabricKind::Nocstar => Box::new(Nocstar::new(tiles, faults)),
            FabricKind::Fixed(lat) => Box::new(FixedLatencyLink::new(lat, faults)),
        }
    }
}

/// Separated counts of the two predictor access categories (Fig 10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Training updates pushed by samplers.
    pub train_accesses: u64,
    /// Prediction lookups on the fill path.
    pub predict_accesses: u64,
    /// Broadcast fan-out messages (global-sampler organisations only).
    pub broadcast_messages: u64,
    /// Prediction lookups whose request or response was lost in transit.
    pub dropped_predictions: u64,
    /// Fills that fell back to the local static insertion decision (lost
    /// or over-deadline lookups).
    pub fallback_decisions: u64,
    /// Training updates lost after exhausting their retries.
    pub dropped_trainings: u64,
    /// Training retransmissions performed after a drop.
    pub retried_trainings: u64,
}

drishti_noc::impl_persist_fields!(FabricCounters {
    train_accesses,
    predict_accesses,
    broadcast_messages,
    dropped_predictions,
    fallback_decisions,
    dropped_trainings,
    retried_trainings,
});

impl FabricCounters {
    /// Total predictor accesses (the quantity Fig 10 normalises per kilo
    /// instruction).
    pub fn total(&self) -> u64 {
        self.train_accesses + self.predict_accesses
    }

    /// A policy's diagnostics: its `own` counters, then the predictor
    /// accesses and [`FabricCounters::fault_diagnostics`].
    pub fn diagnostics(&self, own: &[(&str, u64)]) -> Vec<(String, u64)> {
        let own: Vec<_> = own
            .iter()
            .copied()
            .chain([
                ("predictor_train", self.train_accesses),
                ("predictor_predict", self.predict_accesses),
            ])
            .collect();
        self.fault_diagnostics(&own)
    }

    /// A policy's diagnostics: its `own` counters, then the fault
    /// counters (fallbacks, dropped predictions, dropped and retried
    /// trainings).
    pub fn fault_diagnostics(&self, own: &[(&str, u64)]) -> Vec<(String, u64)> {
        own.iter()
            .copied()
            .chain([
                ("fabric_fallbacks", self.fallback_decisions),
                ("fabric_dropped_predictions", self.dropped_predictions),
                ("fabric_dropped_trainings", self.dropped_trainings),
                ("fabric_retried_trainings", self.retried_trainings),
            ])
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    }
}

/// Result of pushing one training update through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainOutcome {
    /// Predictor bank the update targets.
    pub bank: usize,
    /// Transport latency experienced (including retries and backoff).
    pub latency: u64,
    /// Whether the update reached the bank. `false` means the message was
    /// lost after all retries — the caller must *not* update the table.
    pub delivered: bool,
}

/// Result of one prediction lookup through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictOutcome {
    /// Predictor bank consulted.
    pub bank: usize,
    /// Exposed latency the lookup adds to the fill path.
    pub latency: u64,
    /// Whether the lookup was abandoned (message lost or transport over
    /// the degradation deadline). The caller must ignore the remote table
    /// and use its local static insertion decision instead.
    pub fallback: bool,
}

/// Placement + transport for predictor access.
#[derive(Debug)]
pub struct PredictorFabric {
    org: PredictorOrg,
    sampler_org: SamplerOrg,
    link: Box<dyn PredictorLink>,
    tiles: usize,
    central: NodeId,
    counters: FabricCounters,
    /// Whether faults are injected: only then does a slow but delivered
    /// lookup fall back at [`Self::PREDICTION_DEADLINE`].
    faulty: bool,
}

impl PredictorFabric {
    /// One-way transport latency (cycles) above which a fault-injected
    /// fabric stops waiting for a prediction lookup and falls back to the
    /// local static decision. Also the latency charged for a lookup whose
    /// request or response was dropped (the slice waits out the deadline
    /// before giving up). It sits well above any healthy NOCSTAR access
    /// (3 cycles) and typical contended mesh accesses (~20 cycles on 32
    /// cores, paper Fig 11), so it only fires on pathological transports.
    pub const PREDICTION_DEADLINE: u64 = 64;

    /// Retransmissions attempted for a dropped training update.
    pub const TRAIN_RETRIES: u32 = 2;

    /// Backoff between training retries, cycles (linear: attempt `k` waits
    /// `k × RETRY_BACKOFF`).
    pub const RETRY_BACKOFF: u64 = 8;

    /// Build the fabric `cfg` describes: its organisations and transport
    /// for `cfg.cores` tiles, subject to `cfg.faults`, spread over
    /// `cfg.chips` chips. On more than one chip the transport is wrapped in
    /// a [`HierarchicalLink`], so intra-chip accesses are untouched while
    /// cross-chip accesses pay gateway legs plus a serializing inter-chip
    /// segment.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero, or `cfg.chips` is zero or does not
    /// divide it.
    pub(crate) fn new(cfg: &DrishtiConfig) -> Self {
        let tiles = cfg.cores;
        assert!(tiles > 0, "fabric needs at least one tile");
        let mut link = cfg.fabric.build(tiles, &cfg.faults);
        if cfg.chips != 1 {
            link = Box::new(HierarchicalLink::new(link, cfg.chips, tiles, cfg.chip_link));
        }
        PredictorFabric {
            org: cfg.predictor_org,
            sampler_org: cfg.sampler_org,
            link,
            tiles,
            central: tiles / 2, // a roughly central tile for the centralized bank
            counters: FabricCounters::default(),
            faulty: !cfg.faults.is_noop(),
        }
    }

    /// The predictor organisation.
    pub fn org(&self) -> PredictorOrg {
        self.org
    }

    /// The sampled-cache organisation.
    pub fn sampler_org(&self) -> SamplerOrg {
        self.sampler_org
    }

    /// Number of predictor banks the governing policy must allocate.
    pub fn banks(&self) -> usize {
        self.org.banks(self.tiles)
    }

    /// Whether predictors see a global training view (i.e. whether one
    /// core's reuse behaviour observed at any slice reaches the bank used
    /// for that core's fills at every slice).
    pub fn global_view(&self) -> bool {
        self.org.is_global_view() || self.sampler_org.requires_broadcast()
    }

    /// Bank index that handles an access from `slice` on behalf of `core`.
    /// The baseline keeps one bank per (slice, core) pair — paper Fig 1's
    /// per-slice per-core predictors, indexed by hash(PC, core ID).
    pub fn bank_of(&self, slice: usize, core: usize) -> usize {
        match self.org {
            PredictorOrg::LocalPerSlice => slice * self.tiles + core,
            PredictorOrg::GlobalCentralized => 0,
            PredictorOrg::GlobalPerCore => core,
        }
    }

    /// Banks holding `core`'s entries across all slices (the broadcast
    /// targets of a global-sampler organisation, paper Figs 6–7).
    pub fn broadcast_banks(&self, core: usize) -> Vec<usize> {
        match self.org {
            PredictorOrg::LocalPerSlice => (0..self.tiles).map(|s| s * self.tiles + core).collect(),
            PredictorOrg::GlobalCentralized => vec![0],
            PredictorOrg::GlobalPerCore => vec![core],
        }
    }

    /// Tile that hosts `bank`.
    fn tile_of_bank(&self, bank: usize) -> NodeId {
        match self.org {
            PredictorOrg::LocalPerSlice => bank / self.tiles,
            PredictorOrg::GlobalPerCore => bank,
            PredictorOrg::GlobalCentralized => self.central,
        }
    }

    /// A sampler at `slice` trains the predictor for `core`'s PC at `cycle`.
    /// Training is off the critical path, so the latency only matters for
    /// fabric occupancy, but it is returned for completeness.
    ///
    /// A dropped update is retried up to [`Self::TRAIN_RETRIES`] times
    /// with linear backoff; if every attempt is lost the outcome reports
    /// `delivered: false` and the caller must skip its table update
    /// (predictors tolerate sparse training — they merely converge
    /// slower).
    pub fn train(&mut self, slice: usize, core: usize, cycle: u64) -> TrainOutcome {
        self.counters.train_accesses += 1;
        let bank = self.bank_of(slice, core);
        match self.org {
            PredictorOrg::LocalPerSlice => {
                // Global-sampler organisations broadcast each training to
                // every slice's local predictor (paper Figs 6–7). A
                // *centralized* sampler additionally ships every sampled
                // access (PC, address, hit/miss) inbound to the central
                // node first (paper Fig 6 step 1) — the "High" bandwidth
                // row of Table 2. Broadcast legs are fire-and-forget: a
                // lost leg is counted but not retried (the next sampled
                // access refreshes that slice's view anyway).
                let mut worst = 0;
                if self.sampler_org.requires_broadcast() {
                    if self.sampler_org == SamplerOrg::GlobalCentralized {
                        let d = self
                            .link
                            .send(slice, self.central, NocstarPath::Request, cycle);
                        if d.dropped {
                            self.counters.dropped_trainings += 1;
                        }
                        worst = d.latency;
                    }
                    for dest in 0..self.tiles {
                        let d = self.link.send(slice, dest, NocstarPath::Request, cycle);
                        if d.dropped {
                            self.counters.dropped_trainings += 1;
                        }
                        worst = worst.max(d.latency);
                        self.counters.broadcast_messages += 1;
                    }
                }
                TrainOutcome {
                    bank,
                    latency: worst,
                    delivered: true,
                }
            }
            _ => {
                let dest = self.tile_of_bank(bank);
                let mut elapsed = 0u64;
                for attempt in 0..=Self::TRAIN_RETRIES {
                    let d = self
                        .link
                        .send(slice, dest, NocstarPath::Request, cycle + elapsed);
                    elapsed += d.latency;
                    if !d.dropped {
                        return TrainOutcome {
                            bank,
                            latency: elapsed,
                            delivered: true,
                        };
                    }
                    if attempt < Self::TRAIN_RETRIES {
                        self.counters.retried_trainings += 1;
                        elapsed += u64::from(attempt + 1) * Self::RETRY_BACKOFF;
                    }
                }
                self.counters.dropped_trainings += 1;
                TrainOutcome {
                    bank,
                    latency: elapsed,
                    delivered: false,
                }
            }
        }
    }

    /// Cycles of predictor-lookup latency hidden under the fill itself: the
    /// lookup launches when the miss is detected and the insertion decision
    /// is only needed when the data returns, so a short transport is fully
    /// overlapped. The paper's Fig 11b calibrates this window — "latency of
    /// less than five cycles does not lead to a significant performance
    /// slowdown" — while ~20-cycle mesh transports are exposed (Fig 11a).
    pub const OVERLAP_WINDOW: u64 = 8;

    /// A fill at `slice` for `core`'s request looks up the predictor at
    /// `cycle`. The outcome's `latency` is the *exposed* interconnect
    /// latency the lookup adds to the fill path: the one-way transport
    /// latency minus the [`Self::OVERLAP_WINDOW`] hidden under the miss.
    ///
    /// A lookup whose request or response is lost, or, on a fault-injected
    /// fabric, whose transport exceeds [`Self::PREDICTION_DEADLINE`], is
    /// abandoned: the outcome reports `fallback: true` and the caller must
    /// insert with its local static (untrained-default, SRRIP-like)
    /// decision instead of blocking the fill on a message that may never
    /// arrive. The exposed cost of an abandoned lookup is the deadline
    /// itself (the slice waits that long before giving up), less the
    /// overlap window.
    pub fn predict(&mut self, slice: usize, core: usize, cycle: u64) -> PredictOutcome {
        self.counters.predict_accesses += 1;
        let bank = self.bank_of(slice, core);
        match self.org {
            PredictorOrg::LocalPerSlice => PredictOutcome {
                bank,
                latency: 0,
                fallback: false,
            },
            _ => {
                let dest = self.tile_of_bank(bank);
                // Both legs are issued at the current time: reserving the
                // response link at `cycle + req` would make later near-time
                // messages wait for a reservation in their future, which
                // destabilises an occupancy model (the same rule the demand
                // mesh follows). Only the slower leg is exposed.
                let req = self.link.send(slice, dest, NocstarPath::Request, cycle);
                let resp = self.link.send(dest, slice, NocstarPath::Response, cycle);
                let raw = req.latency.max(resp.latency);
                let lost = req.dropped || resp.dropped;
                if lost {
                    self.counters.dropped_predictions += 1;
                }
                if lost || (self.faulty && raw > Self::PREDICTION_DEADLINE) {
                    // The slice cannot distinguish "lost" from "late"
                    // before the deadline expires, so every abandoned
                    // lookup costs exactly the deadline.
                    self.counters.fallback_decisions += 1;
                    return PredictOutcome {
                        bank,
                        latency: Self::PREDICTION_DEADLINE.saturating_sub(Self::OVERLAP_WINDOW),
                        fallback: true,
                    };
                }
                PredictOutcome {
                    bank,
                    latency: raw.saturating_sub(Self::OVERLAP_WINDOW),
                    fallback: false,
                }
            }
        }
    }

    /// Access-category counters (Fig 10).
    pub fn counters(&self) -> &FabricCounters {
        &self.counters
    }

    /// Transport traffic/energy statistics.
    pub fn link_stats(&self) -> NocStats {
        self.link.stats()
    }

    /// Serialize the fabric's mutable state: counters plus the transport's
    /// own state (link occupancy, stats, fault cursor). Organisations and
    /// transport kind are configuration and excluded.
    pub fn save_state(&self, w: &mut drishti_noc::snap::StateWriter) {
        use drishti_noc::snap::Persist;
        self.counters.save(w);
        self.link.save_state(w);
    }

    /// Restore state written by [`PredictorFabric::save_state`] into a
    /// fabric built with the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut drishti_noc::snap::StateReader<'_>,
    ) -> Result<(), drishti_noc::snap::SnapError> {
        use drishti_noc::snap::Persist;
        self.counters.load(r)?;
        self.link.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(org: PredictorOrg, kind: FabricKind) -> DrishtiConfig {
        DrishtiConfig {
            predictor_org: org,
            fabric: kind,
            ..DrishtiConfig::baseline(32)
        }
    }

    fn fabric(org: PredictorOrg, kind: FabricKind) -> PredictorFabric {
        PredictorFabric::new(&config(org, kind))
    }

    #[test]
    fn local_org_is_free_and_myopic() {
        let mut f = fabric(PredictorOrg::LocalPerSlice, FabricKind::Local);
        assert!(!f.global_view());
        // Paper Fig 1: one bank per (slice, core) pair.
        assert_eq!(f.banks(), 32 * 32);
        let t = f.train(5, 9, 0);
        assert_eq!(t.bank, 5 * 32 + 9, "bank is the slice's table for core 9");
        assert_eq!(t.latency, 0);
        assert!(t.delivered);
        let p = f.predict(5, 9, 0);
        assert_eq!(p.latency, 0);
        assert!(!p.fallback);
    }

    #[test]
    fn per_core_org_routes_to_core_bank() {
        let mut f = fabric(PredictorOrg::GlobalPerCore, FabricKind::Nocstar);
        assert!(f.global_view());
        let t = f.train(5, 9, 0);
        assert_eq!(
            t.bank, 9,
            "per-core predictor bank is the requesting core's"
        );
        assert_eq!(t.latency, 3);
        assert!(t.delivered);
    }

    #[test]
    fn per_core_predict_is_hidden_under_the_miss() {
        let mut f = fabric(PredictorOrg::GlobalPerCore, FabricKind::Nocstar);
        // An uncontended NOCSTAR traversal (3 cycles) fits entirely within
        // the overlap window: no exposed latency.
        let p = f.predict(5, 9, 0);
        assert_eq!(p.bank, 9);
        assert_eq!(p.latency, 0, "3-cycle NOCSTAR lookup is fully hidden");
        assert!(!p.fallback);
    }

    #[test]
    fn centralized_org_uses_one_bank() {
        let mut f = fabric(PredictorOrg::GlobalCentralized, FabricKind::Mesh);
        assert_eq!(f.banks(), 1);
        let t = f.train(0, 31, 0);
        assert_eq!(t.bank, 0);
        assert!(t.latency > 0, "mesh transport must cost cycles");
    }

    #[test]
    fn mesh_fabric_is_much_slower_than_nocstar() {
        let mut mesh = fabric(PredictorOrg::GlobalPerCore, FabricKind::Mesh);
        let mut star = fabric(PredictorOrg::GlobalPerCore, FabricKind::Nocstar);
        let mut mesh_total = 0;
        let mut star_total = 0;
        for s in 0..32 {
            for c in 0..32 {
                mesh_total += mesh.predict(s, c, (s * 32 + c) as u64 * 1000).latency;
                star_total += star.predict(s, c, (s * 32 + c) as u64 * 1000).latency;
            }
        }
        assert!(
            mesh_total > 3 * star_total,
            "mesh {mesh_total} vs nocstar {star_total}"
        );
    }

    #[test]
    fn fixed_fabric_exposes_latency_beyond_overlap() {
        let mut f = fabric(PredictorOrg::GlobalPerCore, FabricKind::Fixed(20));
        let lat = f.predict(0, 31, 0).latency;
        assert_eq!(
            lat,
            20 - PredictorFabric::OVERLAP_WINDOW,
            "a Fig 11b sweep value of N exposes N − overlap cycles"
        );
        let mut f = fabric(PredictorOrg::GlobalPerCore, FabricKind::Fixed(4));
        let lat = f.predict(0, 31, 0).latency;
        assert_eq!(lat, 0, "below-window latencies are free (Fig 11b ≤5)");
    }

    #[test]
    fn counters_separate_train_and_predict() {
        let mut f = fabric(PredictorOrg::GlobalPerCore, FabricKind::Nocstar);
        f.train(0, 1, 0);
        f.train(2, 1, 0);
        f.predict(3, 1, 0);
        let c = f.counters();
        assert_eq!(c.train_accesses, 2);
        assert_eq!(c.predict_accesses, 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn global_sampler_broadcasts_to_all_tiles() {
        let mut f = PredictorFabric::new(&DrishtiConfig {
            sampler_org: SamplerOrg::GlobalDistributed,
            fabric: FabricKind::Mesh,
            ..DrishtiConfig::baseline(16)
        });
        assert!(f.global_view());
        f.train(0, 3, 0);
        assert_eq!(f.counters().broadcast_messages, 16);
    }

    #[test]
    fn cross_chip_lookups_expose_latency_nocstar_cannot_hide() {
        let cfg = config(PredictorOrg::GlobalPerCore, FabricKind::Nocstar).with_chips(2);
        let mut f = PredictorFabric::new(&cfg);
        // Slice 1 looking up core 2's bank: both on chip 0 — still hidden.
        let intra = f.predict(1, 2, 0);
        assert_eq!(intra.latency, 0, "intra-chip NOCSTAR stays free");
        // Slice 1 looking up core 20's bank on chip 1: the inter-chip
        // segment (32 + 3 cycles by default) dwarfs the overlap window.
        let cross = f.predict(1, 20, 1_000);
        assert!(
            cross.latency > PredictorFabric::OVERLAP_WINDOW,
            "cross-chip lookup must be exposed, got {}",
            cross.latency
        );
    }

    fn faulty_fabric(drop_pct: f64) -> PredictorFabric {
        let cfg = config(PredictorOrg::GlobalPerCore, FabricKind::Nocstar)
            .with_faults(FaultConfig::with_drops(42, drop_pct));
        PredictorFabric::new(&cfg)
    }

    #[test]
    fn dropped_lookup_falls_back_with_deadline_cost() {
        let mut f = faulty_fabric(100.0);
        let p = f.predict(0, 9, 0);
        assert!(p.fallback, "100% drops must force fallback");
        assert_eq!(
            p.latency,
            PredictorFabric::PREDICTION_DEADLINE - PredictorFabric::OVERLAP_WINDOW
        );
        let c = *f.counters();
        assert_eq!(c.dropped_predictions, 1);
        assert_eq!(c.fallback_decisions, 1);
    }

    #[test]
    fn over_deadline_transport_falls_back_without_a_drop() {
        // A 100-cycle fixed link against the 64-cycle deadline: every
        // lookup is delivered but abandoned as too slow. A jitter-only
        // fault config makes the fabric fault-injected without dropping
        // anything.
        let faults = FaultConfig {
            seed: 1,
            jitter: 1,
            ..FaultConfig::none()
        };
        let cfg = config(PredictorOrg::GlobalPerCore, FabricKind::Fixed(100)).with_faults(faults);
        let mut f = PredictorFabric::new(&cfg);
        let p = f.predict(0, 9, 0);
        assert!(p.fallback);
        assert_eq!(
            p.latency,
            PredictorFabric::PREDICTION_DEADLINE - PredictorFabric::OVERLAP_WINDOW
        );
        assert_eq!(f.counters().dropped_predictions, 0, "nothing was lost");
        assert_eq!(f.counters().fallback_decisions, 1);
    }

    #[test]
    fn healthy_slow_lookup_is_waited_out() {
        // The same 100-cycle link without injected faults: the deadline
        // does not apply, so the lookup's full latency is exposed.
        let mut f = fabric(PredictorOrg::GlobalPerCore, FabricKind::Fixed(100));
        let p = f.predict(0, 9, 0);
        assert!(!p.fallback);
        assert_eq!(p.latency, 100 - PredictorFabric::OVERLAP_WINDOW);
        assert_eq!(f.counters().fallback_decisions, 0);
    }

    #[test]
    fn dropped_training_retries_then_gives_up() {
        let mut f = faulty_fabric(100.0);
        let t = f.train(0, 9, 0);
        assert!(!t.delivered, "100% drops exhaust every retry");
        assert!(t.latency > 0, "retries and backoff must cost cycles");
        let c = *f.counters();
        assert_eq!(
            c.retried_trainings,
            u64::from(PredictorFabric::TRAIN_RETRIES)
        );
        assert_eq!(c.dropped_trainings, 1);

        // At a moderate rate most trainings eventually land.
        let mut f = faulty_fabric(30.0);
        let delivered = (0..500u64)
            .filter(|&i| f.train(0, 9, i * 10).delivered)
            .count();
        assert!(
            delivered > 450,
            "30% drops with 2 retries should mostly deliver: {delivered}"
        );
        assert!(f.counters().retried_trainings > 0);
    }

    #[test]
    fn fault_counters_are_deterministic() {
        let run = || {
            let mut f = faulty_fabric(25.0);
            for i in 0..400u64 {
                f.train((i % 32) as usize, ((i * 3) % 32) as usize, i);
                f.predict((i % 32) as usize, ((i * 7) % 32) as usize, i);
            }
            *f.counters()
        };
        assert_eq!(run(), run());
    }
}
