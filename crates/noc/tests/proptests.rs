//! Property-based tests of the interconnect models.

use drishti_noc::faults::FaultConfig;
use drishti_noc::link::{FixedLatencyLink, MeshLink, PredictorLink};
use drishti_noc::mesh::{Mesh, MeshConfig};
use drishti_noc::nocstar::{Nocstar, NocstarPath, BASE_LATENCY, LOCAL_LATENCY};
use drishti_noc::slicehash::{SliceHasher, XorFoldHash};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every traversal takes at least the zero-load latency and statistics
    /// stay consistent under arbitrary traffic.
    #[test]
    fn mesh_latency_lower_bound(
        msgs in prop::collection::vec((0usize..16, 0usize..16, 0u64..10_000, 1u32..9), 1..200)
    ) {
        let cfg = MeshConfig::for_nodes(16);
        let mut mesh = Mesh::new(cfg);
        let mut sorted = msgs.clone();
        sorted.sort_by_key(|&(_, _, t, _)| t);
        for (from, to, cycle, flits) in sorted {
            let hops = mesh.hops(from, to);
            let zero = mesh.zero_load_latency(hops, flits);
            let lat = mesh.traverse(from, to, cycle, flits);
            if from == to {
                prop_assert_eq!(lat, cfg.router_latency);
            } else {
                prop_assert!(lat >= zero, "latency {lat} below zero-load {zero}");
            }
        }
        let s = mesh.stats();
        prop_assert_eq!(s.messages, msgs.len() as u64);
        prop_assert!(s.total_latency >= s.contention_cycles);
    }

    /// NOCSTAR latency is at least the base latency for remote messages and
    /// contention only adds delay.
    #[test]
    fn nocstar_latency_bounds(
        msgs in prop::collection::vec((0usize..32, 0usize..32, 0u64..5_000, any::<bool>()), 1..200)
    ) {
        let mut star = Nocstar::new(32, &FaultConfig::none());
        let mut sorted = msgs.clone();
        sorted.sort_by_key(|&(_, _, t, _)| t);
        for (from, to, cycle, resp) in sorted {
            let path = if resp { NocstarPath::Response } else { NocstarPath::Request };
            let lat = star.send(from, to, path, cycle).latency;
            if from == to {
                prop_assert_eq!(lat, LOCAL_LATENCY);
            } else {
                prop_assert!(lat >= BASE_LATENCY);
            }
        }
        prop_assert_eq!(star.stats().energy_pj, 50 * msgs.len() as u64);
    }

    /// All PredictorLink implementations return finite, plausible latencies
    /// and count their traffic.
    #[test]
    fn links_are_well_behaved(
        msgs in prop::collection::vec((0usize..8, 0usize..8, 0u64..10_000), 1..100)
    ) {
        let healthy = FaultConfig::none();
        let mut links: Vec<Box<dyn PredictorLink>> = vec![
            Box::new(MeshLink::new(8, &healthy)),
            Box::new(Nocstar::new(8, &healthy)),
            Box::new(FixedLatencyLink::new(7, &healthy)),
        ];
        for link in &mut links {
            for &(from, to, cycle) in &msgs {
                let lat = link.send(from, to, NocstarPath::Request, cycle).latency;
                prop_assert!(lat < 1_000_000, "{} runaway latency {lat}", link.name());
            }
            prop_assert_eq!(link.stats().messages, msgs.len() as u64);
        }
    }

    /// The slice hash spreads any arithmetic sequence reasonably evenly.
    #[test]
    fn hash_spreads_sequences(start in any::<u64>(), stride in 1u64..4096) {
        let h = XorFoldHash::new();
        let n = 16usize;
        let mut counts = vec![0u32; n];
        for i in 0..2048u64 {
            counts[h.slice_of(start.wrapping_add(i * stride), n)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // No slice may absorb more than half of a 2048-element sequence.
        prop_assert!(max < 1024, "degenerate spread: {counts:?} (stride {stride})");
    }
}
