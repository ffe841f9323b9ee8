//! System configuration (paper Table 4 and its sensitivity sweeps).

use drishti_mem::cache::CacheConfig;
use drishti_mem::dram::DramConfig;
use drishti_mem::llc::LlcGeometry;
use drishti_mem::prefetch::PrefetcherKind;
use drishti_noc::faults::FaultConfig;
use drishti_noc::topology::TopologyConfig;

/// Core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Retired instructions per cycle when not memory-bound (Table 4:
    /// 6-issue Sunny-Cove-like).
    pub issue_width: u32,
    /// Outstanding loads the ROB can overlap (memory-level parallelism).
    pub mlp_window: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            issue_width: 4,
            mlp_window: 64,
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (= LLC slices = mesh tiles).
    pub cores: usize,
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// L1D geometry (Table 4: 48 KB in the paper; 32 KB 8-way here —
    /// the nearest power-of-two geometry).
    pub l1d: CacheConfig,
    /// L2 geometry (512 KB 8-way baseline; Fig 21 sweeps it).
    pub l2: CacheConfig,
    /// Sliced LLC geometry (2 MB 16-way per core; Fig 20 sweeps it).
    pub llc: LlcGeometry,
    /// DRAM configuration (one channel per 4 cores; Fig 22 sweeps it).
    pub dram: DramConfig,
    /// L1D prefetcher (baseline: next-line).
    pub l1_prefetcher: PrefetcherKind,
    /// L2 prefetcher (baseline: IP-stride; Fig 23 sweeps it).
    pub l2_prefetcher: PrefetcherKind,
    /// Uncore fault injection (resilience studies). The default,
    /// [`FaultConfig::none`], leaves every component on its healthy path
    /// and is bit-identical to a build without fault support.
    pub faults: FaultConfig,
    /// Multi-chip shape: how the tiles are split into chips and what the
    /// inter-chip links cost. The default, [`TopologyConfig::flat`], is
    /// the single-chip system and is bit-identical to a build without
    /// topology support.
    pub topology: TopologyConfig,
}

impl SystemConfig {
    /// The paper's baseline system for `cores` cores.
    pub fn paper_baseline(cores: usize) -> Self {
        SystemConfig {
            cores,
            core: CoreConfig::default(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: LlcGeometry::per_core_2mb(cores),
            dram: DramConfig::for_cores(cores),
            l1_prefetcher: PrefetcherKind::NextLine,
            l2_prefetcher: PrefetcherKind::IpStride,
            faults: FaultConfig::none(),
            topology: TopologyConfig::flat(),
        }
    }

    /// Baseline spread over `chips` chips with default inter-chip links
    /// (the scaling study's shape).
    pub fn with_chips(cores: usize, chips: usize) -> Self {
        SystemConfig {
            topology: TopologyConfig::multi(chips),
            ..SystemConfig::paper_baseline(cores)
        }
    }

    /// Baseline with uncore fault injection enabled (resilience studies).
    pub fn with_faults(cores: usize, faults: FaultConfig) -> Self {
        SystemConfig {
            faults,
            ..SystemConfig::paper_baseline(cores)
        }
    }

    /// Baseline with an LLC of `mib` MiB per core (Fig 20).
    pub fn with_llc_mib(cores: usize, mib: usize) -> Self {
        SystemConfig {
            llc: LlcGeometry::per_core_mib(cores, mib),
            ..SystemConfig::paper_baseline(cores)
        }
    }

    /// Baseline with an L2 of `kib` KiB (Fig 21).
    pub fn with_l2_kib(cores: usize, kib: usize) -> Self {
        SystemConfig {
            l2: CacheConfig::l2_with_kib(kib),
            ..SystemConfig::paper_baseline(cores)
        }
    }

    /// Baseline with `channels` DRAM channels (Fig 22).
    pub fn with_dram_channels(cores: usize, channels: usize) -> Self {
        SystemConfig {
            dram: DramConfig::with_channels(channels),
            ..SystemConfig::paper_baseline(cores)
        }
    }

    /// Baseline with the given L1/L2 prefetcher pair (Fig 23).
    pub fn with_prefetchers(cores: usize, l1: PrefetcherKind, l2: PrefetcherKind) -> Self {
        SystemConfig {
            l1_prefetcher: l1,
            l2_prefetcher: l2,
            ..SystemConfig::paper_baseline(cores)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table4() {
        let c = SystemConfig::paper_baseline(32);
        assert_eq!(c.cores, 32);
        assert_eq!(c.llc.slices, 32);
        assert_eq!(c.llc.capacity_bytes(), 64 << 20);
        assert_eq!(c.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(c.dram.channels, 8);
        assert_eq!(c.l1_prefetcher, PrefetcherKind::NextLine);
        assert_eq!(c.l2_prefetcher, PrefetcherKind::IpStride);
    }

    #[test]
    fn sweeps_change_only_their_knob() {
        let base = SystemConfig::paper_baseline(16);
        let llc = SystemConfig::with_llc_mib(16, 4);
        assert_eq!(llc.llc.capacity_bytes(), 64 << 20);
        assert_eq!(llc.l2, base.l2);
        let l2 = SystemConfig::with_l2_kib(16, 2048);
        assert_eq!(l2.l2.capacity_bytes(), 2 << 20);
        assert_eq!(l2.llc, base.llc);
        let dram = SystemConfig::with_dram_channels(16, 2);
        assert_eq!(dram.dram.channels, 2);
        let pf = SystemConfig::with_prefetchers(16, PrefetcherKind::None, PrefetcherKind::Berti);
        assert_eq!(pf.l2_prefetcher, PrefetcherKind::Berti);
        let multi = SystemConfig::with_chips(16, 2);
        assert_eq!(multi.topology.chips, 2);
        assert_eq!(multi.llc, base.llc);
    }
}
