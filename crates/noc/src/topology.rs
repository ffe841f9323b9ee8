//! Multi-chip topology: per-chip meshes joined by serializing links.
//!
//! The paper evaluates slicing effects on a single chip; scaling its claim
//! to 256+ slices runs into reticle limits, so large systems are built from
//! several chips (MuchiSim-style design exploration). A [`ChipTopology`]
//! models exactly that: `chips` identical 2-D meshes (one per chip, each
//! tile hosting a core + LLC slice) arranged on their own 2-D chip grid and
//! joined by *serializing* inter-chip links — SerDes-like channels with a
//! per-hop latency, a per-flit serialization cost several times the
//! on-chip wire, and their own energy constant, fault schedule and flit
//! counters.
//!
//! Routing is hierarchical: a message between tiles of one chip takes that
//! chip's mesh exactly as before; a cross-chip message rides its source
//! mesh to the chip's I/O gateway (local tile 0), crosses the chip grid in
//! XY order over the inter-chip links, and rides the destination mesh from
//! that chip's gateway to the target tile. Global tile numbering is
//! chip-major (`global = chip * nodes_per_chip + local`), matching
//! [`crate::slicehash::GlobalSliceMap`].
//!
//! **Degenerate contract.** With `chips == 1` every method delegates to the
//! single inner [`Mesh`] — traversal latencies, statistics, per-link flit
//! vectors are *bit-identical* to the flat mesh the engine used before
//! this layer existed. Persisted state always carries the inter-chip
//! block (link state, separate stats block, fault cursor), which stays
//! idle and empty with one chip.

use crate::faults::{FaultConfig, FaultDomain, FaultSchedule};
use crate::mesh::{Mesh, MeshConfig};
use crate::snap::SnapError;
use crate::{NocStats, NodeId};

/// Parameters of one directed inter-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipLinkConfig {
    /// Cycles for the head flit to traverse one inter-chip hop (SerDes +
    /// package trace; an order of magnitude above an on-chip wire).
    pub latency: u64,
    /// Cycles each flit occupies the link (serialization). On-chip links
    /// move one flit per cycle; an inter-chip channel is narrower.
    pub serialization: u64,
    /// Dynamic energy per flit per inter-chip hop, picojoules (off-chip
    /// signaling dwarfs the 25 pJ on-chip flit-hop).
    pub energy_per_flit_pj: u64,
}

impl Default for ChipLinkConfig {
    fn default() -> Self {
        ChipLinkConfig {
            latency: 32,
            serialization: 4,
            energy_per_flit_pj: 200,
        }
    }
}

/// Shape of a multi-chip system: how many chips, and what joins them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Number of chips (1 = the flat single-chip system).
    pub chips: usize,
    /// Inter-chip link parameters (ignored when `chips == 1`).
    pub link: ChipLinkConfig,
}

impl TopologyConfig {
    /// The flat single-chip topology (the degenerate identity case).
    pub fn flat() -> Self {
        TopologyConfig {
            chips: 1,
            link: ChipLinkConfig::default(),
        }
    }

    /// A `chips`-chip topology with default link parameters.
    pub fn multi(chips: usize) -> Self {
        TopologyConfig {
            chips,
            link: ChipLinkConfig::default(),
        }
    }

    /// Whether this is the degenerate single-chip case.
    pub fn is_flat(&self) -> bool {
        self.chips <= 1
    }

    /// Validate against a total tile count. Chips must be at least one and
    /// divide the tile count evenly; link cycles must be nonzero for a
    /// genuinely multi-chip shape.
    pub fn validate(&self, total_nodes: usize) -> Result<(), String> {
        if self.chips == 0 {
            return Err("topology needs at least one chip".to_string());
        }
        if !total_nodes.is_multiple_of(self.chips) {
            return Err(format!(
                "chips ({}) must divide the core count ({total_nodes}) evenly",
                self.chips
            ));
        }
        if !self.is_flat() && (self.link.latency == 0 || self.link.serialization == 0) {
            return Err(
                "inter-chip link latency and serialization must be at least 1 cycle".to_string(),
            );
        }
        Ok(())
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::flat()
    }
}

/// Per-inter-chip-link backlog: the same leaky bucket as a mesh link, but
/// each flit deposits [`ChipLinkConfig::serialization`] cycles of debt.
#[derive(Debug, Clone, Copy, Default)]
struct ChipLinkState {
    debt: u64,
    last: u64,
    /// Total flits ever pushed through this link (telemetry).
    flits: u64,
}

crate::impl_persist_fields!(ChipLinkState { debt, last, flits });

impl ChipLinkState {
    #[inline]
    fn occupy(&mut self, cycle: u64, flits: u64, serialization: u64) -> u64 {
        let elapsed = cycle.saturating_sub(self.last);
        self.debt = self.debt.saturating_sub(elapsed);
        self.last = self.last.max(cycle);
        let wait = self.debt;
        self.debt += flits * serialization;
        self.flits += flits;
        wait
    }
}

/// Local tile hosting a chip's I/O gateway (where cross-chip traffic
/// enters and leaves the on-chip mesh).
pub const GATEWAY_TILE: NodeId = 0;

/// Retransmission bound for dropped inter-chip packets (demand traffic
/// carries cache lines and is force-delivered after this many timeouts).
const MAX_RETRANSMITS: u64 = 8;

/// Turnaround between an inter-chip retransmission timeout and the resend.
const RETRANSMIT_GAP: u64 = 8;

/// N per-chip meshes joined by serializing inter-chip links.
#[derive(Debug, Clone)]
pub struct ChipTopology {
    cfg: TopologyConfig,
    /// Chip grid shape (squarest factorization, like the on-chip mesh).
    grid_w: usize,
    grid_h: usize,
    nodes_per_chip: usize,
    meshes: Vec<Mesh>,
    /// Outgoing inter-chip link backlog per chip and direction (E, W, N,
    /// S), flattened as `chip * 4 + direction`.
    links: Vec<[ChipLinkState; 4]>,
    /// Inter-chip traffic only; [`ChipTopology::stats`] merges the per-chip
    /// mesh blocks on demand.
    stats: NocStats,
    /// Injected-fault stream for the inter-chip links.
    faults: Option<FaultSchedule>,
}

impl ChipTopology {
    /// Build a topology of `total_nodes` tiles spread over `cfg.chips`
    /// chips, each chip a [`MeshConfig::for_nodes`] mesh.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`TopologyConfig::validate`] for
    /// `total_nodes`.
    pub fn new(cfg: TopologyConfig, total_nodes: usize) -> Self {
        ChipTopology::with_faults(cfg, total_nodes, &FaultConfig::none())
    }

    /// Fault-aware constructor. Each chip's mesh draws from the
    /// [`FaultDomain::Mesh`] stream (chips are identical dies, so they
    /// share one schedule evaluated per-chip); the inter-chip links draw
    /// from the independent [`FaultDomain::InterChip`] stream. A no-op
    /// `faults` configuration is bit-identical to [`ChipTopology::new`].
    pub fn with_faults(cfg: TopologyConfig, total_nodes: usize, faults: &FaultConfig) -> Self {
        if let Err(msg) = cfg.validate(total_nodes) {
            panic!("invalid topology: {msg}");
        }
        let nodes_per_chip = total_nodes / cfg.chips;
        let grid = MeshConfig::for_nodes(cfg.chips);
        ChipTopology {
            grid_w: grid.width,
            grid_h: grid.height,
            nodes_per_chip,
            meshes: (0..cfg.chips)
                .map(|_| Mesh::with_faults(MeshConfig::for_nodes(nodes_per_chip), faults))
                .collect(),
            links: vec![[ChipLinkState::default(); 4]; cfg.chips],
            stats: NocStats::default(),
            faults: if cfg.is_flat() {
                None
            } else {
                FaultSchedule::for_domain(faults, FaultDomain::InterChip)
            },
            cfg,
        }
    }

    /// The configuration this topology was built with.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.cfg.chips
    }

    /// Tiles per chip.
    pub fn nodes_per_chip(&self) -> usize {
        self.nodes_per_chip
    }

    /// Total tiles across all chips.
    pub fn nodes(&self) -> usize {
        self.nodes_per_chip * self.cfg.chips
    }

    /// `(width, height)` of the chip grid.
    pub fn chip_grid(&self) -> (usize, usize) {
        (self.grid_w, self.grid_h)
    }

    /// The chip a global tile lives on.
    pub fn chip_of(&self, node: NodeId) -> usize {
        node / self.nodes_per_chip
    }

    /// `(x, y)` of `chip` on the chip grid.
    fn chip_coords(&self, chip: usize) -> (usize, usize) {
        debug_assert!(chip < self.cfg.chips);
        (chip % self.grid_w, chip / self.grid_w)
    }

    /// Manhattan hop count between two chips on the chip grid.
    pub fn chip_hops(&self, a: usize, b: usize) -> u32 {
        let (ax, ay) = self.chip_coords(a);
        let (bx, by) = self.chip_coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// Zero-contention latency of the inter-chip segment alone: per-hop
    /// head latency plus the serialization tail of the whole packet.
    pub fn zero_load_cross(&self, chip_hops: u32, flits: u32) -> u64 {
        self.cfg.link.latency * u64::from(chip_hops)
            + (u64::from(flits) * self.cfg.link.serialization).saturating_sub(1)
    }

    /// Route one `flits`-flit packet between global tiles, starting at
    /// `cycle`; returns the end-to-end latency. Same-chip traffic is the
    /// inner mesh's [`Mesh::traverse`], unchanged. Cross-chip traffic pays
    /// three legs: source mesh to the gateway, chip-grid XY hops over the
    /// serializing links (with contention, energy, faults), destination
    /// mesh from the gateway.
    pub fn traverse(&mut self, from: NodeId, to: NodeId, cycle: u64, flits: u32) -> u64 {
        let (ca, la) = (from / self.nodes_per_chip, from % self.nodes_per_chip);
        let (cb, lb) = (to / self.nodes_per_chip, to % self.nodes_per_chip);
        if ca == cb {
            return self.meshes[ca].traverse(la, lb, cycle, flits);
        }
        let leg1 = self.meshes[ca].traverse(la, GATEWAY_TILE, cycle, flits);
        let depart = cycle + leg1;
        let cross = self.cross(ca, cb, depart, flits);
        let arrive = depart + cross;
        let leg3 = self.meshes[cb].traverse(GATEWAY_TILE, lb, arrive, flits);
        (arrive + leg3) - cycle
    }

    /// The inter-chip segment with fault handling (outage stall, jitter,
    /// bounded retransmission — mirroring the mesh's demand-traffic
    /// contract: cache lines cannot be lost, so drops cost time).
    fn cross(&mut self, from_chip: usize, to_chip: usize, cycle: u64, flits: u32) -> u64 {
        if self.faults.is_none() {
            return self.cross_once(from_chip, to_chip, cycle, flits);
        }
        let timeout =
            self.zero_load_cross(self.chip_hops(from_chip, to_chip), flits) + RETRANSMIT_GAP;
        let (extra, drops) = {
            let sched = self.faults.as_mut().expect("checked above");
            let mut extra = sched.link_outage_wait(from_chip, cycle).unwrap_or(0);
            let mut drops = 0u64;
            loop {
                let d = sched.decide(from_chip, to_chip, cycle + extra);
                if !d.dropped || drops >= MAX_RETRANSMITS {
                    extra += d.jitter;
                    break;
                }
                drops += 1;
                extra += timeout;
            }
            (extra, drops)
        };
        let lat = self.cross_once(from_chip, to_chip, cycle + extra, flits) + extra;
        self.stats.dropped += drops;
        self.stats.retries += drops;
        self.stats.fault_delay_cycles += extra;
        self.stats.total_latency += extra;
        lat
    }

    /// One healthy inter-chip crossing: XY walk over the chip grid,
    /// occupying each directed link in order.
    fn cross_once(&mut self, from_chip: usize, to_chip: usize, cycle: u64, flits: u32) -> u64 {
        let hops = self.chip_hops(from_chip, to_chip);
        self.stats.messages += 1;
        self.stats.flits += u64::from(flits);
        self.stats.hop_traversals += u64::from(hops);
        self.stats.energy_pj +=
            u64::from(flits) * u64::from(hops) * self.cfg.link.energy_per_flit_pj;

        let ser = self.cfg.link.serialization;
        let mut head = cycle;
        let mut contention = 0u64;
        let (mut x, mut y) = self.chip_coords(from_chip);
        let (tx, ty) = self.chip_coords(to_chip);
        while (x, y) != (tx, ty) {
            // Same direction encoding as the mesh: E=0, W=1, N=2, S=3.
            let (dir, nx, ny) = if x < tx {
                (0usize, x + 1, y)
            } else if x > tx {
                (1, x - 1, y)
            } else if y < ty {
                (3, x, y + 1)
            } else {
                (2, x, y - 1)
            };
            let chip = y * self.grid_w + x;
            let wait = self.links[chip][dir].occupy(head, u64::from(flits), ser);
            contention += wait;
            head += wait + self.cfg.link.latency;
            (x, y) = (nx, ny);
        }
        let arrival = head + (u64::from(flits) * ser).saturating_sub(1);
        let lat = arrival - cycle;
        self.stats.total_latency += lat;
        self.stats.contention_cycles += contention;
        lat
    }

    /// Merged traffic/energy statistics: every chip's mesh plus the
    /// inter-chip links. With one chip this equals the inner mesh's block
    /// exactly (merging with an all-zero block is the identity).
    pub fn stats(&self) -> NocStats {
        let mut merged = self.stats;
        for m in &self.meshes {
            merged.merge(m.stats());
        }
        merged
    }

    /// Inter-chip traffic alone (telemetry, energy attribution, tests).
    pub fn interchip_stats(&self) -> &NocStats {
        &self.stats
    }

    /// One chip's mesh (tests and diagnostics).
    pub fn mesh(&self, chip: usize) -> &Mesh {
        &self.meshes[chip]
    }

    /// Cumulative flit counts per link: every chip's mesh links in global
    /// id order (chip-major, `chip · nodes · 4 + local`), then — for
    /// multi-chip shapes — the `chips × 4` inter-chip links. With one chip
    /// the vector is exactly the flat mesh's.
    pub fn link_flits(&self) -> Vec<u64> {
        let mut flits: Vec<u64> = self.meshes.iter().flat_map(|m| m.link_flits()).collect();
        if !self.cfg.is_flat() {
            flits.extend(
                self.links
                    .iter()
                    .flat_map(|dirs| dirs.iter().map(|l| l.flits)),
            );
        }
        flits
    }

    /// Reset statistics on every mesh and the inter-chip block (link
    /// occupancy is kept, like [`Mesh::reset_stats`]).
    pub fn reset_stats(&mut self) {
        for m in &mut self.meshes {
            m.reset_stats();
        }
        self.stats = NocStats::default();
    }

    /// Serialise mutable run-state: every chip's mesh state, then the
    /// inter-chip link backlogs, stats and fault cursor (idle and empty
    /// with one chip).
    pub fn save_state(&self, w: &mut crate::snap::StateWriter) {
        use crate::snap::Persist;
        for m in &self.meshes {
            m.save_state(w);
        }
        self.links.save(w);
        self.stats.save(w);
        crate::faults::save_fault_cursor(&self.faults, w);
    }

    /// Restore state saved by [`ChipTopology::save_state`] into an
    /// identically-configured topology.
    pub fn load_state(&mut self, r: &mut crate::snap::StateReader<'_>) -> Result<(), SnapError> {
        use crate::snap::Persist;
        for m in &mut self.meshes {
            m.load_state(r)?;
        }
        self.links.load(r)?;
        self.stats.load(r)?;
        crate::faults::load_fault_cursor(&mut self.faults, r, "inter-chip fault schedule")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{StateReader, StateWriter};

    #[test]
    fn flat_topology_is_bit_identical_to_a_mesh() {
        let mut flat = ChipTopology::new(TopologyConfig::flat(), 16);
        let mut mesh = Mesh::new(MeshConfig::for_nodes(16));
        for i in 0..400u64 {
            let (f, t) = ((i % 16) as usize, ((i * 7 + 3) % 16) as usize);
            assert_eq!(
                flat.traverse(f, t, i * 3, 8),
                mesh.traverse(f, t, i * 3, 8),
                "message {i}"
            );
        }
        assert_eq!(flat.stats(), *mesh.stats());
        assert_eq!(flat.link_flits(), mesh.link_flits());
    }

    #[test]
    fn same_chip_traffic_never_touches_interchip_links() {
        let mut topo = ChipTopology::new(TopologyConfig::multi(4), 32);
        for i in 0..100u64 {
            // Tiles 8..16 all live on chip 1.
            topo.traverse(8 + (i % 8) as usize, 8 + ((i * 3) % 8) as usize, i, 8);
        }
        assert_eq!(topo.interchip_stats().messages, 0);
        assert_eq!(topo.mesh(1).stats().messages, 100);
        assert_eq!(topo.mesh(0).stats().messages, 0);
    }

    #[test]
    fn cross_chip_costs_mesh_legs_plus_interchip_hops() {
        let cfg = TopologyConfig::multi(2);
        let mut topo = ChipTopology::new(cfg, 8); // 2 chips × 4 tiles
        let npc = topo.nodes_per_chip();
        assert_eq!(npc, 4);
        // Within a chip: exactly the 4-tile mesh's latency.
        let mut small = Mesh::new(MeshConfig::for_nodes(4));
        assert_eq!(topo.traverse(1, 2, 0, 8), small.traverse(1, 2, 0, 8));
        // Across chips: both mesh legs plus at least the zero-load cross.
        let lat = topo.traverse(1, npc + 2, 10_000, 8);
        let cross_floor = topo.zero_load_cross(1, 8);
        assert!(
            lat > cross_floor,
            "cross-chip latency {lat} must exceed the inter-chip segment {cross_floor}"
        );
        assert_eq!(topo.interchip_stats().messages, 1);
        assert_eq!(topo.interchip_stats().flits, 8);
        assert_eq!(
            topo.interchip_stats().energy_pj,
            8 * cfg.link.energy_per_flit_pj
        );
        // Gateway legs land in both chips' meshes.
        assert_eq!(topo.mesh(0).stats().messages, 2); // 1→2 earlier, 1→gateway
        assert_eq!(topo.mesh(1).stats().messages, 1); // gateway→2
    }

    #[test]
    fn interchip_links_serialize_and_contend() {
        let mut topo = ChipTopology::new(TopologyConfig::multi(2), 8);
        let first = topo.traverse(0, 4, 0, 8);
        let second = topo.traverse(0, 4, 0, 8); // same instant, same link
        assert!(
            second > first,
            "second crossing must queue: {first} vs {second}"
        );
        assert!(topo.interchip_stats().contention_cycles > 0);
        // The serializing link also makes a data packet slower than an
        // address packet by more than the flit-count difference alone.
        let mut fresh = ChipTopology::new(TopologyConfig::multi(2), 8);
        let addr = fresh.traverse(0, 4, 0, 1);
        let data = fresh.traverse(1, 5, 100_000, 8);
        assert!(
            data >= addr + 7,
            "serialization tail missing: {addr} {data}"
        );
    }

    #[test]
    fn link_flits_append_interchip_series() {
        let mut topo = ChipTopology::new(TopologyConfig::multi(2), 8);
        topo.traverse(0, 4, 0, 8);
        let flits = topo.link_flits();
        // 2 chips × 4 tiles × 4 dirs mesh links, then 2 × 4 inter-chip.
        assert_eq!(flits.len(), 2 * 4 * 4 + 2 * 4);
        let interchip: u64 = flits[32..].iter().sum();
        assert_eq!(interchip, 8, "one 8-flit crossing over one hop");
    }

    #[test]
    fn noop_faults_are_bit_identical() {
        let mut plain = ChipTopology::new(TopologyConfig::multi(2), 16);
        let mut faulty =
            ChipTopology::with_faults(TopologyConfig::multi(2), 16, &FaultConfig::none());
        for i in 0..300u64 {
            let (f, t) = ((i % 16) as usize, ((i * 5 + 1) % 16) as usize);
            assert_eq!(plain.traverse(f, t, i, 8), faulty.traverse(f, t, i, 8));
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn drops_on_interchip_links_cost_time_not_messages() {
        let faults = FaultConfig {
            seed: 3,
            drop_pct: 100.0,
            ..FaultConfig::none()
        };
        let mut topo = ChipTopology::with_faults(TopologyConfig::multi(2), 8, &faults);
        let mut healthy = ChipTopology::new(TopologyConfig::multi(2), 8);
        let lat = topo.traverse(0, 4, 0, 8);
        let base = healthy.traverse(0, 4, 0, 8);
        assert!(lat > base, "drops must delay: {base} vs {lat}");
        assert_eq!(topo.interchip_stats().retries, MAX_RETRANSMITS);
        // The intra-chip gateway legs also saw the mesh-domain faults, but
        // the crossing itself was force-delivered.
        assert_eq!(topo.interchip_stats().messages, 1);
    }

    #[test]
    fn multichip_state_round_trips_bit_identically() {
        let faults = FaultConfig {
            seed: 7,
            drop_pct: 10.0,
            link_outage_period: 500,
            link_outage_len: 50,
            ..FaultConfig::none()
        };
        let cfg = TopologyConfig::multi(4);
        let mut a = ChipTopology::with_faults(cfg, 32, &faults);
        for i in 0..500u64 {
            a.traverse((i % 32) as usize, ((i * 11 + 5) % 32) as usize, i * 2, 8);
        }
        let mut w = StateWriter::new();
        a.save_state(&mut w);
        let mut b = ChipTopology::with_faults(cfg, 32, &faults);
        b.load_state(&mut StateReader::new(w.bytes()))
            .expect("round trip");
        // Same state ⇒ same bytes and same future behaviour.
        let mut w2 = StateWriter::new();
        b.save_state(&mut w2);
        assert_eq!(w.bytes(), w2.bytes());
        for i in 500..600u64 {
            let (f, t) = ((i % 32) as usize, ((i * 11 + 5) % 32) as usize);
            assert_eq!(a.traverse(f, t, i * 2, 8), b.traverse(f, t, i * 2, 8));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn load_rejects_wrong_chip_count() {
        let mut a = ChipTopology::new(TopologyConfig::multi(4), 32);
        let mut w = StateWriter::new();
        a.save_state(&mut w);
        // Same total tiles, different chip split: per-chip mesh sizes
        // disagree, so the per-chip mesh loads must fail.
        let mut b = ChipTopology::new(TopologyConfig::multi(2), 32);
        assert!(b.load_state(&mut StateReader::new(w.bytes())).is_err());
        let _ = &mut a;
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_core_count_panics() {
        let _ = ChipTopology::new(TopologyConfig::multi(3), 16);
    }

    #[test]
    fn chip_grid_uses_squarest_factorization() {
        let t4 = ChipTopology::new(TopologyConfig::multi(4), 32);
        assert_eq!(t4.chip_grid(), (2, 2));
        assert_eq!(t4.chip_hops(0, 3), 2);
        let t2 = ChipTopology::new(TopologyConfig::multi(2), 16);
        assert_eq!(t2.chip_hops(0, 1), 1);
    }
}
