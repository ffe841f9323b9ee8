//! NOCSTAR: the dedicated, low-latency slice↔predictor interconnect.
//!
//! Drishti's per-core-yet-global reuse predictor means any LLC slice may need
//! to reach any core's predictor. Riding the existing mesh costs ~20 cycles
//! on 32 cores (paper Fig 11) and erases the benefit of global training, so
//! the paper attaches NOCSTAR [Bharadwaj et al., MICRO 2018]: a side-band,
//! latch-less, circuit-switched interconnect built from mux "switches" that
//! act as repeaters, with separate control wires that pre-acquire all links
//! on the path. The result is a ~3-cycle slice-to-predictor access.
//!
//! We model exactly the properties the paper relies on:
//!
//! * fixed low base latency (3 cycles, 1 cycle for same-tile);
//! * two dedicated links (request path and response/fill path) so the two
//!   directions never contend with each other;
//! * per-destination arbitration — concurrent messages to the *same*
//!   predictor serialize one cycle apart (a circuit-switched fabric has no
//!   buffering, so the arbiter makes later requesters wait);
//! * 50 pJ of dynamic energy per communication (20 pJ link + 10 pJ switch +
//!   20 pJ control wires, paper §4.1.4).

use crate::faults::{FaultConfig, FaultDecision, FaultDomain, FaultSchedule};
use crate::link::PredictorLink;
use crate::snap::SnapError;
use crate::{Delivery, NocStats, NodeId};

/// Which leg of a predictor access a message travels.
///
/// The paper provisions NOCSTAR with one link for the request
/// (training/lookup) path and one for the response (fill) path so they can
/// proceed concurrently. Only [`Nocstar`] acts on the leg; every other
/// [`PredictorLink`] carries both legs alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NocstarPath {
    /// Slice → predictor (training updates, prediction lookups).
    Request = 0,
    /// Predictor → slice (prediction responses on the fill path).
    Response = 1,
}

/// Base slice-to-predictor latency in cycles (paper: 3).
pub const BASE_LATENCY: u64 = 3;

/// Latency when source and destination share a tile.
pub const LOCAL_LATENCY: u64 = 1;

/// Dynamic energy per communication, picojoules (paper: 50).
pub const ENERGY_PER_MESSAGE_PJ: u64 = 50;

/// Per-arbiter contention state: the latest timestamp the arbiter has
/// seen (`horizon`) and the earliest cycle at which the circuit is free
/// again (`free_at`).
///
/// A circuit-switched fabric grants exactly one requester per cycle, so
/// grant times must be strictly increasing. Cores simulate on loosely
/// synchronised clocks, though, so requests reach a shared arbiter with
/// out-of-order timestamps. The previous leaky-bucket formulation charged
/// a late-armed request's wait against its stale timestamp, which placed
/// its implied grant slot (`cycle + wait`) *before* slots it had already
/// handed out — the grant sequence was not monotone. Normalising every
/// arrival to the horizon first makes the grant sequence provably
/// monotone while returning exactly the same waits the bucket computed:
/// the bucket's `(last, debt)` state corresponds to
/// `(horizon, free_at - horizon)`, and both models reduce a wait to
/// `max(free_at, max(horizon, cycle)) - max(horizon, cycle)`.
#[derive(Debug, Clone, Copy, Default)]
struct Arbiter {
    free_at: u64,
    horizon: u64,
}

crate::impl_persist_fields!(Arbiter { free_at, horizon });

impl Arbiter {
    /// Reserve the next free arbitration slot and return how many cycles
    /// the requester waits for it. The grant time (`max(horizon, cycle) +
    /// wait`, i.e. the updated `free_at` minus one) is strictly increasing
    /// regardless of the order in which timestamps arrive; for in-order
    /// traffic the wait is exactly the one-grant-per-cycle backlog.
    #[inline]
    fn occupy(&mut self, cycle: u64) -> u64 {
        // A stale timestamp cannot rewind the arbiter's clock: the
        // request is arbitrated at the horizon, not in the past.
        self.horizon = self.horizon.max(cycle);
        let grant = self.free_at.max(self.horizon);
        self.free_at = grant + 1;
        grant - self.horizon
    }
}

/// The NOCSTAR side-band interconnect model.
#[derive(Debug, Clone)]
pub struct Nocstar {
    /// Per-(path, destination) arbiter backlog.
    arbiters: [Vec<Arbiter>; 2],
    stats: NocStats,
    /// Injected-fault stream (`None` unless `faults` injects something).
    faults: Option<FaultSchedule>,
}

impl Nocstar {
    /// Create a NOCSTAR fabric connecting `nodes` tiles, subject to
    /// `faults` (a no-op configuration builds no fault schedule).
    pub fn new(nodes: usize, faults: &FaultConfig) -> Self {
        Nocstar {
            arbiters: [
                vec![Arbiter::default(); nodes],
                vec![Arbiter::default(); nodes],
            ],
            stats: NocStats::default(),
            faults: FaultSchedule::for_domain(faults, FaultDomain::Nocstar),
        }
    }
}

impl PredictorLink for Nocstar {
    /// Send one message from tile `from` to tile `to` on `leg` at `cycle`.
    /// Under injected faults it may stall behind a transient outage of its
    /// arbiter, gain uniform latency jitter, or be dropped outright; a drop
    /// still burns the message's energy, and its reported latency is how
    /// long the sender waits before the loss is observable.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a valid tile for this fabric.
    fn send(&mut self, from: NodeId, to: NodeId, leg: NocstarPath, cycle: u64) -> Delivery {
        let lane = leg as usize;
        let nodes = self.arbiters[lane].len();
        assert!(to < nodes, "tile {to} out of range");
        let (outage, decision) = match self.faults.as_mut() {
            None => (0, FaultDecision::CLEAN),
            Some(sched) => (
                sched
                    .link_outage_wait(lane * nodes + to, cycle)
                    .unwrap_or(0),
                sched.decide(from, to, cycle),
            ),
        };
        self.stats.messages += 1;
        self.stats.flits += 1;
        self.stats.energy_pj += ENERGY_PER_MESSAGE_PJ;
        if decision.dropped {
            // The circuit was set up and the message launched before the
            // loss: account the attempt, then report the loss.
            self.stats.dropped += 1;
            self.stats.fault_delay_cycles += outage;
            return Delivery {
                latency: outage + BASE_LATENCY,
                dropped: true,
            };
        }
        let extra = outage + decision.jitter;
        let lat = if from == to {
            LOCAL_LATENCY
        } else {
            // Circuit held for one cycle per message once granted.
            let wait = self.arbiters[lane][to].occupy(cycle + extra);
            self.stats.contention_cycles += wait;
            self.stats.hop_traversals += 1; // as few as one hop if no contention
            wait + BASE_LATENCY
        } + extra;
        self.stats.total_latency += lat;
        self.stats.fault_delay_cycles += extra;
        Delivery::delivered(lat)
    }

    fn stats(&self) -> NocStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "nocstar"
    }

    /// Serialise the fabric's mutable run-state (arbiter backlogs, stats,
    /// fault cursor); configuration is rebuilt on restore, not written.
    fn save_state(&self, w: &mut crate::snap::StateWriter) {
        use crate::snap::Persist;
        self.arbiters.save(w);
        self.stats.save(w);
        crate::faults::save_fault_cursor(&self.faults, w);
    }

    fn load_state(&mut self, r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        use crate::snap::Persist;
        self.arbiters.load(r)?;
        self.stats.load(r)?;
        crate::faults::load_fault_cursor(&mut self.faults, r, "nocstar fault schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(nodes: usize) -> Nocstar {
        Nocstar::new(nodes, &FaultConfig::none())
    }

    #[test]
    fn base_latency_is_three_cycles() {
        let mut n = healthy(32);
        assert_eq!(n.send(0, 31, NocstarPath::Request, 100).latency, 3);
    }

    #[test]
    fn local_access_is_cheaper() {
        let mut n = healthy(32);
        assert_eq!(n.send(7, 7, NocstarPath::Request, 0).latency, 1);
    }

    #[test]
    fn same_destination_serializes() {
        let mut n = healthy(32);
        let a = n.send(0, 5, NocstarPath::Request, 10).latency;
        let b = n.send(1, 5, NocstarPath::Request, 10).latency;
        assert_eq!(a, 3);
        assert_eq!(b, 4, "second message waits one arbitration slot");
        assert_eq!(n.stats().contention_cycles, 1);
    }

    #[test]
    fn different_destinations_do_not_contend() {
        let mut n = healthy(32);
        assert_eq!(n.send(0, 5, NocstarPath::Request, 10).latency, 3);
        assert_eq!(n.send(1, 6, NocstarPath::Request, 10).latency, 3);
    }

    #[test]
    fn request_and_response_paths_are_independent() {
        let mut n = healthy(32);
        assert_eq!(n.send(0, 5, NocstarPath::Request, 10).latency, 3);
        assert_eq!(n.send(5, 0, NocstarPath::Response, 10).latency, 3);
        assert_eq!(n.send(9, 5, NocstarPath::Response, 10).latency, 3);
    }

    #[test]
    fn energy_is_fifty_pj_per_message() {
        let mut n = healthy(4);
        n.send(0, 1, NocstarPath::Request, 0);
        n.send(2, 3, NocstarPath::Response, 0);
        assert_eq!(n.stats().energy_pj, 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_panics() {
        let mut n = healthy(4);
        n.send(0, 9, NocstarPath::Request, 0);
    }

    #[test]
    fn arbiter_grants_are_monotone_under_reversed_cycles() {
        // Loosely synchronised cores can present out-of-order timestamps;
        // the arbiter must never grant a slot earlier than one it already
        // handed out. Feed it strictly *decreasing* cycles — the worst
        // case — and check the granted slots (arbitrated at the arbiter's
        // horizon, never in the past) still strictly rise.
        let mut arb = Arbiter::default();
        let mut horizon = 0u64;
        let mut prev_grant = None;
        for cycle in (0..64u64).rev() {
            let wait = arb.occupy(cycle);
            horizon = horizon.max(cycle);
            let grant = horizon + wait;
            assert!(
                grant >= cycle,
                "slot {grant} precedes the request's own timestamp {cycle}"
            );
            if let Some(p) = prev_grant {
                assert!(grant > p, "grant {grant} not after previous grant {p}");
            }
            prev_grant = Some(grant);
        }
    }

    #[test]
    fn arbiter_matches_backlog_model_for_in_order_traffic() {
        // Three same-cycle requesters serialize 0/1/2 cycles of wait;
        // once the backlog drains, a later requester waits nothing.
        let mut arb = Arbiter::default();
        assert_eq!(arb.occupy(10), 0);
        assert_eq!(arb.occupy(10), 1);
        assert_eq!(arb.occupy(10), 2);
        assert_eq!(arb.occupy(100), 0);
    }

    #[test]
    fn arbiter_waits_match_leaky_bucket_on_any_arrival_order() {
        // The monotone formulation must return exactly the waits the old
        // (last, debt) leaky bucket computed, in order — the fix changes
        // which *slot* a stale-timestamped request occupies, not how long
        // any requester waits. Mirror the bucket here and cross-check on
        // an adversarial mixed in-order/out-of-order arrival pattern.
        let (mut last, mut debt) = (0u64, 0u64);
        let mut bucket = |cycle: u64| {
            let elapsed = cycle.saturating_sub(last);
            debt = debt.saturating_sub(elapsed);
            last = last.max(cycle);
            let wait = debt;
            debt += 1;
            wait
        };
        let mut arb = Arbiter::default();
        let arrivals = [10u64, 10, 7, 12, 3, 3, 40, 39, 41, 41, 41, 100, 90, 101];
        for &cycle in &arrivals {
            assert_eq!(
                arb.occupy(cycle),
                bucket(cycle),
                "diverged at cycle {cycle}"
            );
        }
    }

    #[test]
    fn send_drops_and_jitters_deterministically() {
        let cfg = FaultConfig {
            seed: 3,
            drop_pct: 40.0,
            jitter: 4,
            ..FaultConfig::none()
        };
        let run = |cfg: &FaultConfig| {
            let mut n = Nocstar::new(8, cfg);
            let out: Vec<Delivery> = (0..400u64)
                .map(|t| {
                    n.send(
                        (t % 8) as usize,
                        ((t + 3) % 8) as usize,
                        NocstarPath::Request,
                        t,
                    )
                })
                .collect();
            (out, n.stats())
        };
        let (a, sa) = run(&cfg);
        let (b, sb) = run(&cfg);
        assert_eq!(a, b, "same seed must reproduce the same deliveries");
        assert_eq!(sa, sb);
        assert!(sa.dropped > 0, "40% drop rate never fired");
        assert!(sa.fault_delay_cycles > 0, "jitter never charged");
        assert_eq!(sa.messages, 400, "drops still count as launched messages");
    }
}
