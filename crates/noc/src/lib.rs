//! Network-on-chip substrate for the Drishti reproduction.
//!
//! The paper evaluates many-core systems whose last-level cache (LLC) is
//! *sliced*: one 2 MB slice per core, with slices distributed across a mesh
//! NoC (non-uniform cache access, NUCA). Drishti additionally introduces a
//! dedicated low-latency side-band interconnect (NOCSTAR, [Bharadwaj et al.,
//! MICRO 2018]) that connects every LLC slice to every per-core reuse
//! predictor with a three-cycle latency.
//!
//! This crate provides:
//!
//! * [`mesh::Mesh`] — a 2-D mesh with XY routing, per-link serialization and
//!   contention, traffic and energy accounting. This is the *existing*
//!   on-chip interconnect that demand traffic (and, without NOCSTAR,
//!   predictor traffic) rides on.
//! * [`nocstar::Nocstar`] — the latch-less circuit-switched side-band
//!   interconnect: ~3-cycle slice-to-predictor latency, per-destination
//!   arbitration, 50 pJ per message (20 pJ link + 10 pJ switch + 20 pJ
//!   control wires, per the paper's 28 nm numbers).
//! * [`slicehash`] — address-to-slice hash functions. Commercial parts use a
//!   "complex addressing" XOR-fold hash (Maurice et al., RAID 2015) that
//!   spreads consecutive lines over slices uniformly; this is what causes the
//!   PC-scattering the paper studies.
//! * [`link::PredictorLink`] — the abstraction the replacement policies use
//!   to reach a (possibly remote) reuse predictor, with implementations for
//!   local (zero-cost), mesh-routed, NOCSTAR, and fixed-latency links. Each
//!   has one fault-aware delivery method and one constructor taking a
//!   [`faults::FaultConfig`].
//! * [`topology::ChipTopology`] — per-chip meshes joined by serializing
//!   inter-chip links; its `ChipGrid` is the one chip-major geometry,
//!   shared with [`link::HierarchicalLink`].
//! * [`backlog::Backlog`] — the leaky-bucket queue model every contended
//!   resource shares: mesh and inter-chip links here, DRAM banks and buses
//!   in `drishti-mem`.
//!
//! # Example
//!
//! ```
//! use drishti_noc::mesh::{Mesh, MeshConfig};
//!
//! let mut mesh = Mesh::new(MeshConfig::for_nodes(16));
//! // Route one 8-flit data packet from tile 0 to tile 15 at cycle 100.
//! let latency = mesh.traverse(0, 15, 100, 8);
//! assert!(latency >= mesh.hops(0, 15) as u64);
//! ```

pub mod backlog;
pub mod faults;
pub mod link;
pub mod linmap;
pub mod mesh;
pub mod nocstar;
pub mod slicehash;
pub mod snap;
pub mod topology;

/// Identifier of a mesh tile (each tile hosts a core, its private caches,
/// one LLC slice and — with Drishti — that core's reuse predictor).
pub type NodeId = usize;

/// Outcome of sending one message over a predictor link.
///
/// Without an active [`faults::FaultSchedule`] every message is delivered;
/// with one a message may instead be lost, in which case `latency` is the
/// number of cycles the sender spends before it can observe the loss (the
/// fabric's base delivery latency plus any stall already paid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Cycles until delivery (or until the loss is observable).
    pub latency: u64,
    /// Whether the message was lost to an injected fault.
    pub dropped: bool,
}

impl Delivery {
    /// A successful delivery after `latency` cycles.
    pub fn delivered(latency: u64) -> Self {
        Delivery {
            latency,
            dropped: false,
        }
    }
}

/// Aggregate traffic/energy statistics kept by every interconnect model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NocStats {
    /// Messages (packets) injected.
    pub messages: u64,
    /// Flits injected (messages × packet length in flits).
    pub flits: u64,
    /// Sum over messages of hops traversed.
    pub hop_traversals: u64,
    /// Sum of end-to-end latencies observed (cycles).
    pub total_latency: u64,
    /// Cycles lost to contention (waiting for busy links/arbiters).
    pub contention_cycles: u64,
    /// Dynamic energy consumed, picojoules.
    pub energy_pj: u64,
    /// Messages lost to injected faults (see [`faults`]).
    pub dropped: u64,
    /// Retransmissions performed after an injected drop.
    pub retries: u64,
    /// Extra cycles charged by injected faults (jitter, outage stalls,
    /// retransmission penalties).
    pub fault_delay_cycles: u64,
}

crate::impl_persist_fields!(NocStats {
    messages,
    flits,
    hop_traversals,
    total_latency,
    contention_cycles,
    energy_pj,
    dropped,
    retries,
    fault_delay_cycles,
});

impl NocStats {
    /// Mean end-to-end latency per message, in cycles (0 if no traffic).
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }

    /// Fold another stats block into this one.
    pub fn merge(&mut self, other: &NocStats) {
        self.messages += other.messages;
        self.flits += other.flits;
        self.hop_traversals += other.hop_traversals;
        self.total_latency += other.total_latency;
        self.contention_cycles += other.contention_cycles;
        self.energy_pj += other.energy_pj;
        self.dropped += other.dropped;
        self.retries += other.retries;
        self.fault_delay_cycles += other.fault_delay_cycles;
    }
}
