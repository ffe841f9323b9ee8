//! 2-D mesh interconnect with XY dimension-ordered routing.
//!
//! The baseline system (paper Table 4) uses a mesh where "each node has a
//! router, processor, private L1 cache, L2 cache, and an LLC slice", with a
//! 2-stage wormhole router, eight flits per data packet and one flit per
//! address packet.
//!
//! The model here is a *link-occupancy* model rather than a flit-accurate
//! wormhole simulation: every message reserves, in order, each link of its
//! XY path; a link busy with an earlier message delays the newcomer. This
//! reproduces the two first-order effects the paper depends on —
//! hop-proportional latency (≈ 20-cycle average slice-to-predictor latency on
//! 32 cores, Fig 11) and growing contention with core count — at a cost that
//! lets us simulate billions of events.

use crate::backlog::LinkLoad;
use crate::faults::{FaultConfig, FaultDomain, FaultSchedule};
use crate::snap::SnapError;
use crate::{NocStats, NodeId};

/// Flits in a data (cache-line-carrying) packet, per paper Table 4.
pub const DATA_PACKET_FLITS: u32 = 8;
/// Flits in an address/control packet, per paper Table 4.
pub const ADDRESS_PACKET_FLITS: u32 = 1;

/// Configuration of a [`Mesh`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    /// Tiles along the X dimension.
    pub width: usize,
    /// Tiles along the Y dimension.
    pub height: usize,
    /// Cycles to traverse one link (wire) between adjacent routers.
    pub link_latency: u64,
    /// Cycles spent inside each router on the path (2-stage wormhole ⇒ 2).
    pub router_latency: u64,
    /// Dynamic energy per flit-hop, picojoules.
    pub energy_per_flit_hop_pj: u64,
}

impl MeshConfig {
    /// A mesh sized for `nodes` tiles: the squarest `width × height ≥ nodes`
    /// factorization with power-of-two-friendly shapes (e.g. 16 → 4×4,
    /// 32 → 8×4, 4 → 2×2).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn for_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "mesh must have at least one node");
        let mut width = (nodes as f64).sqrt().ceil() as usize;
        while !nodes.is_multiple_of(width) && width < nodes {
            width += 1;
        }
        let height = nodes / width;
        MeshConfig {
            width,
            height: height.max(1),
            link_latency: 1,
            router_latency: 2,
            energy_per_flit_hop_pj: 25,
        }
    }

    /// Total number of tiles.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig::for_nodes(16)
    }
}

/// Direction of an outgoing link from a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East = 0,
    West = 1,
    North = 2,
    South = 3,
}

/// A 2-D mesh with XY routing and per-link occupancy tracking.
///
/// All latencies returned by [`Mesh::traverse`] are *end-to-end* (injection
/// to ejection) and include serialization and any contention stalls.
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: MeshConfig,
    /// Outgoing-link backlog per node and direction; each flit holds a
    /// link for one cycle.
    links: Vec<[LinkLoad; 4]>,
    stats: NocStats,
    /// Injected-fault stream (`None` on the healthy fast path).
    faults: Option<FaultSchedule>,
}

/// Fixed turnaround between a retransmission timeout and the resend.
const RETRANSMIT_GAP: u64 = 4;

impl Mesh {
    /// Create an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        Mesh {
            links: vec![[LinkLoad::default(); 4]; cfg.nodes()],
            cfg,
            stats: NocStats::default(),
            faults: None,
        }
    }

    /// Create a fault-aware mesh. With a no-op `faults` configuration this
    /// is bit-identical to [`Mesh::new`].
    pub fn with_faults(cfg: MeshConfig, faults: &FaultConfig) -> Self {
        let mut m = Mesh::new(cfg);
        m.faults = FaultSchedule::for_domain(faults, FaultDomain::Mesh);
        m
    }

    /// The configuration this mesh was built with.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// (x, y) coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node < self.cfg.nodes(), "node {node} out of range");
        (node % self.cfg.width, node / self.cfg.width)
    }

    /// Manhattan hop count of the XY route between `a` and `b`.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// Zero-contention latency of a `flits`-flit packet over `hops` hops.
    ///
    /// Head latency: per-hop router + link delay, plus the local router at
    /// the destination; body flits pipeline behind the head (serialization).
    pub fn zero_load_latency(&self, hops: u32, flits: u32) -> u64 {
        let per_hop = self.cfg.router_latency + self.cfg.link_latency;
        per_hop * u64::from(hops) + self.cfg.router_latency + u64::from(flits.saturating_sub(1))
    }

    /// Route one `flits`-flit packet from `from` to `to`, starting at
    /// `cycle`. Returns the end-to-end latency in cycles, updates link
    /// occupancy, traffic counters and energy.
    ///
    /// A message to self costs only the local router traversal.
    ///
    /// Under an active fault schedule the packet may additionally stall
    /// behind a transient outage of the source router, gain uniform
    /// latency jitter, or be dropped in flight. Demand packets carry cache
    /// lines and cannot be lost, so a drop triggers a retransmission: the
    /// sender waits one zero-load round plus a fixed turnaround, then
    /// resends (`FaultSchedule::retransmit`, shared with the inter-chip links).
    pub fn traverse(&mut self, from: NodeId, to: NodeId, cycle: u64, flits: u32) -> u64 {
        if from == to || self.faults.is_none() {
            return self.route_once(from, to, cycle, flits);
        }
        let timeout = self.zero_load_latency(self.hops(from, to), flits) + RETRANSMIT_GAP;
        let sched = self.faults.as_mut().expect("checked above");
        let extra = sched.retransmit(from, to, cycle, timeout, &mut self.stats);
        self.route_once(from, to, cycle + extra, flits) + extra
    }

    /// One routing attempt: the XY walk, occupying each link in order.
    fn route_once(&mut self, from: NodeId, to: NodeId, cycle: u64, flits: u32) -> u64 {
        let hops = self.hops(from, to);
        self.stats.messages += 1;
        self.stats.flits += u64::from(flits);
        self.stats.hop_traversals += u64::from(hops);
        self.stats.energy_pj +=
            u64::from(flits) * u64::from(hops) * self.cfg.energy_per_flit_hop_pj;

        if from == to {
            let lat = self.cfg.router_latency;
            self.stats.total_latency += lat;
            return lat;
        }

        let serialization = u64::from(flits); // flits occupy each link back to back
        let mut head_time = cycle + self.cfg.router_latency; // source router
        let mut contention = 0u64;
        let (mut x, mut y) = self.coords(from);
        let (tx, ty) = self.coords(to);

        // XY routing: fully resolve X, then Y.
        while (x, y) != (tx, ty) {
            let (dir, nx, ny) = if x < tx {
                (Dir::East, x + 1, y)
            } else if x > tx {
                (Dir::West, x - 1, y)
            } else if y < ty {
                (Dir::South, x, y + 1)
            } else {
                (Dir::North, x, y - 1)
            };
            let node = y * self.cfg.width + x;
            let wait = self.links[node][dir as usize].carry(head_time, serialization, 1);
            contention += wait;
            head_time += wait + self.cfg.link_latency + self.cfg.router_latency;
            (x, y) = (nx, ny);
        }

        // Tail flit arrives `flits - 1` cycles behind the head.
        let arrival = head_time + u64::from(flits.saturating_sub(1));
        let lat = arrival - cycle;
        self.stats.total_latency += lat;
        self.stats.contention_cycles += contention;
        lat
    }

    /// Traffic/energy statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Cumulative flit counts per outgoing link, flattened as
    /// `node * 4 + direction` (E, W, N, S) — the telemetry layer diffs
    /// these across epochs to derive per-link utilisation.
    pub fn link_flits(&self) -> Vec<u64> {
        self.links
            .iter()
            .flat_map(|dirs| dirs.iter().map(|l| l.flits))
            .collect()
    }

    /// Serialise the mesh's mutable run-state (link backlogs, stats, fault
    /// cursor). The configuration is not written; restore rebuilds the
    /// mesh from config first, then loads these bytes into it.
    pub fn save_state(&self, w: &mut crate::snap::StateWriter) {
        use crate::snap::Persist;
        self.links.save(w);
        self.stats.save(w);
        crate::faults::save_fault_cursor(&self.faults, w);
    }

    /// Restore state saved by [`Mesh::save_state`] into an
    /// identically-configured mesh.
    pub fn load_state(&mut self, r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        use crate::snap::Persist;
        self.links.load(r)?;
        self.stats.load(r)?;
        crate::faults::load_fault_cursor(&mut self.faults, r, "mesh fault schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::MAX_RETRANSMITS;

    #[test]
    fn for_nodes_produces_expected_shapes() {
        assert_eq!(MeshConfig::for_nodes(4).nodes(), 4);
        assert_eq!(MeshConfig::for_nodes(16).nodes(), 16);
        let c32 = MeshConfig::for_nodes(32);
        assert_eq!(c32.nodes(), 32);
        assert!(c32.width >= c32.height);
        assert_eq!(MeshConfig::for_nodes(1).nodes(), 1);
        assert_eq!(MeshConfig::for_nodes(128).nodes(), 128);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn for_nodes_zero_panics() {
        let _ = MeshConfig::for_nodes(0);
    }

    #[test]
    fn hops_are_manhattan() {
        let mesh = Mesh::new(MeshConfig::for_nodes(16)); // 4x4
        assert_eq!(mesh.hops(0, 0), 0);
        assert_eq!(mesh.hops(0, 3), 3);
        assert_eq!(mesh.hops(0, 15), 6); // (0,0) -> (3,3)
        assert_eq!(mesh.hops(5, 6), 1);
        assert_eq!(mesh.hops(6, 5), 1);
    }

    #[test]
    fn traverse_self_message_is_router_only() {
        let mut mesh = Mesh::new(MeshConfig::for_nodes(16));
        let lat = mesh.traverse(3, 3, 0, 1);
        assert_eq!(lat, mesh.config().router_latency);
    }

    #[test]
    fn zero_load_latency_matches_traverse_on_idle_mesh() {
        let mesh = Mesh::new(MeshConfig::for_nodes(16));
        for (from, to, flits) in [(0usize, 15usize, 1u32), (2, 9, 8), (15, 0, 8)] {
            let hops = mesh.hops(from, to);
            let expect = mesh.zero_load_latency(hops, flits);
            // Idle mesh: no contention, so traverse == zero-load.
            let mut fresh = Mesh::new(MeshConfig::for_nodes(16));
            assert_eq!(fresh.traverse(from, to, 1_000, flits), expect);
        }
    }

    #[test]
    fn contention_delays_second_message() {
        let mut mesh = Mesh::new(MeshConfig::for_nodes(16));
        let l1 = mesh.traverse(0, 3, 0, 8);
        let l2 = mesh.traverse(0, 3, 0, 8); // same path, same instant
        assert!(
            l2 > l1,
            "second message must queue behind first: {l1} vs {l2}"
        );
        assert!(mesh.stats().contention_cycles > 0);
    }

    #[test]
    fn later_messages_do_not_conflict() {
        let mut mesh = Mesh::new(MeshConfig::for_nodes(16));
        let l1 = mesh.traverse(0, 3, 0, 1);
        let l2 = mesh.traverse(0, 3, 10_000, 1);
        assert_eq!(l1, l2);
    }

    #[test]
    fn stats_accumulate() {
        let mut mesh = Mesh::new(MeshConfig::for_nodes(4));
        mesh.traverse(0, 3, 0, 8);
        mesh.traverse(1, 2, 0, 1);
        let s = mesh.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.flits, 9);
        assert!(s.energy_pj > 0);
        assert!(s.mean_latency() > 0.0);
    }

    #[test]
    fn distinct_paths_do_not_contend() {
        let mut mesh = Mesh::new(MeshConfig::for_nodes(16));
        let a = mesh.traverse(0, 1, 0, 8); // east on row 0
        let b = mesh.traverse(4, 5, 0, 8); // east on row 1
        assert_eq!(a, b);
        assert_eq!(mesh.stats().contention_cycles, 0);
    }

    #[test]
    fn mean_latency_zero_when_idle() {
        let mesh = Mesh::new(MeshConfig::default());
        assert_eq!(mesh.stats().mean_latency(), 0.0);
    }

    #[test]
    fn faulty_mesh_with_noop_config_matches_healthy() {
        let mut plain = Mesh::new(MeshConfig::for_nodes(16));
        let mut faulty = Mesh::with_faults(MeshConfig::for_nodes(16), &FaultConfig::none());
        for i in 0..200u64 {
            let (f, t) = ((i % 16) as usize, ((i * 5 + 3) % 16) as usize);
            assert_eq!(plain.traverse(f, t, i, 8), faulty.traverse(f, t, i, 8));
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn drops_trigger_bounded_retransmission() {
        let cfg = FaultConfig {
            seed: 11,
            drop_pct: 100.0,
            ..FaultConfig::none()
        };
        let mut mesh = Mesh::with_faults(MeshConfig::for_nodes(16), &cfg);
        let healthy = Mesh::new(MeshConfig::for_nodes(16)).traverse(0, 15, 0, 8);
        // Even at a 100% drop rate the packet is force-delivered after
        // MAX_RETRANSMITS timeouts — bounded latency, no livelock.
        let lat = mesh.traverse(0, 15, 0, 8);
        assert!(lat > healthy);
        assert!(lat < healthy * (MAX_RETRANSMITS + 2) * 2);
        assert_eq!(mesh.stats().retries, MAX_RETRANSMITS);
        assert_eq!(mesh.stats().dropped, MAX_RETRANSMITS);
        assert!(mesh.stats().fault_delay_cycles > 0);
    }

    #[test]
    fn fault_latency_grows_with_drop_rate_on_average() {
        let total = |pct: f64| -> u64 {
            let cfg = FaultConfig {
                seed: 5,
                drop_pct: pct,
                ..FaultConfig::none()
            };
            let mut mesh = Mesh::with_faults(MeshConfig::for_nodes(16), &cfg);
            (0..500u64)
                .map(|i| mesh.traverse((i % 16) as usize, ((i * 7) % 16) as usize, i * 3, 8))
                .sum()
        };
        let t0 = total(0.1);
        let t50 = total(50.0);
        assert!(
            t50 > t0,
            "50% drops ({t50}) should cost more than 0.1% ({t0})"
        );
    }

    #[test]
    fn self_messages_bypass_fault_injection() {
        let cfg = FaultConfig {
            seed: 2,
            drop_pct: 100.0,
            jitter: 9,
            ..FaultConfig::none()
        };
        let mut mesh = Mesh::with_faults(MeshConfig::for_nodes(16), &cfg);
        assert_eq!(mesh.traverse(6, 6, 50, 1), mesh.config().router_latency);
        assert_eq!(mesh.stats().dropped, 0);
    }

    #[test]
    fn link_flits_account_every_hop() {
        let mut mesh = Mesh::new(MeshConfig::for_nodes(16)); // 4x4
        mesh.traverse(0, 3, 0, 8); // 3 hops east, 8 flits each
        let per_link = mesh.link_flits();
        assert_eq!(per_link.len(), 16 * 4);
        assert_eq!(per_link.iter().sum::<u64>(), 3 * 8);
        // Self-messages never touch a link.
        mesh.traverse(5, 5, 10, 8);
        assert_eq!(mesh.link_flits().iter().sum::<u64>(), 3 * 8);
    }

    #[test]
    fn larger_mesh_longer_average_path() {
        let m32 = Mesh::new(MeshConfig::for_nodes(32));
        let m4 = Mesh::new(MeshConfig::for_nodes(4));
        let avg = |m: &Mesh, n: usize| -> f64 {
            let mut sum = 0u64;
            for a in 0..n {
                for b in 0..n {
                    sum += u64::from(m.hops(a, b));
                }
            }
            sum as f64 / (n * n) as f64
        };
        assert!(avg(&m32, 32) > avg(&m4, 4));
    }
}
