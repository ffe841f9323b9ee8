//! Named Drishti configurations.
//!
//! A [`DrishtiConfig`] bundles the three independent knobs the paper's
//! experiments turn, plus the injected faults and the chip count the
//! predictor fabric runs under:
//!
//! * predictor organisation ([`PredictorOrg`]) — local / centralized /
//!   per-core-global;
//! * transport ([`FabricKind`]) — none / mesh (Fig 11a) / NOCSTAR /
//!   fixed-latency (Fig 11b);
//! * sampled-set selection ([`SamplingMode`]) — static random /
//!   dynamic (Enhancement II) / explicit lists (Table 1).
//!
//! The named constructors correspond to the paper's configurations:
//! `baseline` (Hawkeye/Mockingjay as published), `drishti` (D-Hawkeye /
//! D-Mockingjay), `global_view_only` (Fig 17's middle bar), and the
//! interconnect ablations.

use crate::dsc::DscConfig;
use crate::fabric::{FabricKind, PredictorFabric};
use crate::org::{PredictorOrg, SamplerOrg};
use crate::select::SetSelector;
use drishti_noc::faults::FaultConfig;

/// How sampled sets are chosen per slice.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingMode {
    /// Conventional: fixed random sets per slice.
    StaticRandom,
    /// Drishti Enhancement II: dynamic sampled cache.
    Dynamic,
    /// Explicit per-slice lists (`lists[slice]`), for Table 1 studies.
    Explicit(Vec<Vec<usize>>),
}

/// A complete Drishti (or baseline) configuration: the predictor and
/// sampler organisations, the transport, the sampled-set selection, and
/// the injected faults and chips the predictor fabric runs under.
/// [`DrishtiConfig::build_fabric`] builds the one fabric it describes.
#[derive(Debug, Clone, PartialEq)]
pub struct DrishtiConfig {
    /// Cores (= slices = tiles).
    pub cores: usize,
    /// Predictor placement.
    pub predictor_org: PredictorOrg,
    /// Sampled-cache placement.
    pub sampler_org: SamplerOrg,
    /// Transport for predictor messages.
    pub fabric: FabricKind,
    /// Sampled-set selection strategy.
    pub sampling: SamplingMode,
    /// Overrides the policy's default sampled-set count if set.
    pub sampled_sets_override: Option<usize>,
    /// Base seed for all randomized selections.
    pub seed: u64,
    /// Injected faults for the predictor fabric (no-op by default). The
    /// fabric degrades under them as [`crate::fabric`] describes.
    pub faults: FaultConfig,
    /// Chips the tiles are spread over (1 = the flat single-chip system).
    /// NOCSTAR is die-local, so on a multi-chip system cross-chip
    /// predictor traffic falls back to the hierarchical path (gateway legs
    /// plus a serializing inter-chip segment) whatever the fabric kind.
    pub chips: usize,
    /// Inter-chip link parameters for that fallback (ignored when
    /// `chips == 1`).
    pub chip_link: drishti_noc::topology::ChipLinkConfig,
}

impl DrishtiConfig {
    /// The baseline organisation: per-slice predictor and sampler, static
    /// random sampled sets, no interconnect (paper's unmodified
    /// Hawkeye/Mockingjay port).
    pub fn baseline(cores: usize) -> Self {
        DrishtiConfig {
            cores,
            predictor_org: PredictorOrg::LocalPerSlice,
            sampler_org: SamplerOrg::LocalPerSlice,
            fabric: FabricKind::Local,
            sampling: SamplingMode::StaticRandom,
            sampled_sets_override: None,
            seed: 0xD815,
            faults: FaultConfig::none(),
            chips: 1,
            chip_link: drishti_noc::topology::ChipLinkConfig::default(),
        }
    }

    /// This configuration spread over `chips` chips (see
    /// [`DrishtiConfig::chips`]).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or does not divide the core count.
    pub fn with_chips(mut self, chips: usize) -> Self {
        assert!(
            chips > 0 && self.cores.is_multiple_of(chips),
            "chips ({chips}) must divide the core count ({})",
            self.cores
        );
        self.chips = chips;
        self
    }

    /// This configuration with injected faults (see
    /// [`drishti_noc::faults`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Full Drishti: per-core-yet-global predictor over NOCSTAR plus the
    /// dynamic sampled cache (D-Hawkeye / D-Mockingjay).
    pub fn drishti(cores: usize) -> Self {
        DrishtiConfig {
            predictor_org: PredictorOrg::GlobalPerCore,
            fabric: FabricKind::Nocstar,
            sampling: SamplingMode::Dynamic,
            ..DrishtiConfig::baseline(cores)
        }
    }

    /// Enhancement I only (Fig 17's "global view" bar): per-core global
    /// predictor over NOCSTAR, conventional random sampled sets.
    pub fn global_view_only(cores: usize) -> Self {
        DrishtiConfig {
            sampling: SamplingMode::StaticRandom,
            ..DrishtiConfig::drishti(cores)
        }
    }

    /// Enhancement II only: dynamic sampled cache with the myopic local
    /// predictor (for ablations beyond the paper's Fig 17).
    pub fn dsc_only(cores: usize) -> Self {
        DrishtiConfig {
            sampling: SamplingMode::Dynamic,
            ..DrishtiConfig::baseline(cores)
        }
    }

    /// Drishti riding the existing mesh instead of NOCSTAR (Fig 11a).
    pub fn drishti_without_nocstar(cores: usize) -> Self {
        DrishtiConfig {
            fabric: FabricKind::Mesh,
            ..DrishtiConfig::drishti(cores)
        }
    }

    /// Drishti with a fixed slice↔predictor latency (Fig 11b sweep).
    pub fn drishti_fixed_latency(cores: usize, latency: u64) -> Self {
        DrishtiConfig {
            fabric: FabricKind::Fixed(latency),
            ..DrishtiConfig::drishti(cores)
        }
    }

    /// A centralized global predictor over the mesh (Fig 10's contrast).
    pub fn centralized(cores: usize) -> Self {
        DrishtiConfig {
            predictor_org: PredictorOrg::GlobalCentralized,
            fabric: FabricKind::Mesh,
            ..DrishtiConfig::baseline(cores)
        }
    }

    /// Build the predictor fabric for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero, or `chips` is zero or does not divide
    /// it.
    pub fn build_fabric(&self) -> PredictorFabric {
        PredictorFabric::new(self)
    }

    /// Sampled sets per slice, given the policy's conventional
    /// (`default_static`) and Drishti (`default_dynamic`) counts — e.g.
    /// Hawkeye 64/8, Mockingjay 32/16.
    pub fn sampled_sets(&self, default_static: usize, default_dynamic: usize) -> usize {
        self.sampled_sets_override.unwrap_or(match self.sampling {
            SamplingMode::Dynamic => default_dynamic,
            _ => default_static,
        })
    }

    /// Build the sampled-set selector for `slice` (each slice gets an
    /// independent seed).
    ///
    /// # Panics
    ///
    /// Panics if an [`SamplingMode::Explicit`] configuration has no list
    /// for `slice`.
    pub fn build_selector(
        &self,
        slice: usize,
        n_sets: usize,
        default_static: usize,
        default_dynamic: usize,
    ) -> SetSelector {
        let n = self
            .sampled_sets(default_static, default_dynamic)
            .min(n_sets);
        let seed = self.seed ^ (slice as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        match &self.sampling {
            SamplingMode::StaticRandom => SetSelector::static_random(n_sets, n, seed),
            SamplingMode::Dynamic => {
                let cfg = DscConfig {
                    n_sampled: n,
                    seed,
                    // The paper monitors for L = 32 K accesses (lines per
                    // slice) and keeps a selection for 4 L, tuned for 200 M
                    // instruction runs. Our runs are ~100× shorter, so the
                    // windows scale down proportionally (keeping the 1:4
                    // monitor:active ratio) — selection stays responsive to
                    // phase changes at reduced trace lengths.
                    monitor_interval: (n_sets as u64 * 4).max(512),
                    active_interval: (n_sets as u64 * 16).max(2048),
                    ..DscConfig::paper_default(n)
                };
                SetSelector::dynamic(cfg, n_sets)
            }
            SamplingMode::Explicit(lists) => {
                let list = lists
                    .get(slice)
                    .unwrap_or_else(|| panic!("no explicit sampled-set list for slice {slice}"))
                    .clone();
                SetSelector::explicit(n_sets, list)
            }
        }
    }

    /// Short label for experiment output (e.g. `"drishti"`).
    pub fn label(&self) -> String {
        match (self.predictor_org, &self.sampling, self.fabric) {
            (PredictorOrg::LocalPerSlice, SamplingMode::StaticRandom, _) => "baseline".into(),
            (PredictorOrg::LocalPerSlice, SamplingMode::Dynamic, _) => "dsc-only".into(),
            (PredictorOrg::GlobalPerCore, SamplingMode::Dynamic, FabricKind::Nocstar) => {
                "drishti".into()
            }
            (PredictorOrg::GlobalPerCore, SamplingMode::StaticRandom, _) => {
                "global-view-only".into()
            }
            (PredictorOrg::GlobalCentralized, _, _) => "centralized".into(),
            _ => format!("{}-{:?}", self.predictor_org, self.fabric).to_lowercase(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_local_and_static() {
        let c = DrishtiConfig::baseline(16);
        assert_eq!(c.predictor_org, PredictorOrg::LocalPerSlice);
        assert_eq!(c.fabric, FabricKind::Local);
        assert!(!c.build_fabric().global_view());
        assert_eq!(c.label(), "baseline");
    }

    #[test]
    fn drishti_is_per_core_nocstar_dynamic() {
        let c = DrishtiConfig::drishti(32);
        assert_eq!(c.predictor_org, PredictorOrg::GlobalPerCore);
        assert_eq!(c.fabric, FabricKind::Nocstar);
        assert_eq!(c.sampling, SamplingMode::Dynamic);
        assert!(c.build_fabric().global_view());
        assert_eq!(c.label(), "drishti");
    }

    #[test]
    fn sampled_set_counts_follow_mode() {
        // Hawkeye: 64 static → 8 dynamic. Mockingjay: 32 → 16.
        assert_eq!(DrishtiConfig::baseline(4).sampled_sets(64, 8), 64);
        assert_eq!(DrishtiConfig::drishti(4).sampled_sets(64, 8), 8);
        assert_eq!(DrishtiConfig::drishti(4).sampled_sets(32, 16), 16);
        let mut c = DrishtiConfig::drishti(4);
        c.sampled_sets_override = Some(24);
        assert_eq!(c.sampled_sets(32, 16), 24);
    }

    #[test]
    fn selectors_differ_across_slices() {
        let c = DrishtiConfig::baseline(4);
        let a = c.build_selector(0, 2048, 64, 8);
        let b = c.build_selector(1, 2048, 64, 8);
        assert_ne!(a.sampled_sets(), b.sampled_sets());
    }

    #[test]
    fn dynamic_selector_windows_scale_with_geometry() {
        let c = DrishtiConfig::drishti(4);
        let s = c.build_selector(0, 2048, 64, 8);
        assert!(s.is_dynamic());
        if let SetSelector::Dynamic(d) = &s {
            assert_eq!(d.config().monitor_interval, 2048 * 4);
            assert_eq!(d.config().active_interval, 2048 * 16);
        }
    }

    #[test]
    fn explicit_mode_uses_given_lists() {
        let mut c = DrishtiConfig::baseline(2);
        c.sampling = SamplingMode::Explicit(vec![vec![1, 2], vec![3, 4]]);
        let s = c.build_selector(1, 64, 32, 16);
        assert_eq!(s.sampled_sets(), vec![3, 4]);
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(
            DrishtiConfig::global_view_only(8).label(),
            "global-view-only"
        );
        assert_eq!(DrishtiConfig::dsc_only(8).label(), "dsc-only");
        assert_eq!(DrishtiConfig::centralized(8).label(), "centralized");
    }

    #[test]
    fn chips_default_to_one_and_validate() {
        let c = DrishtiConfig::drishti(32);
        assert_eq!(c.chips, 1);
        let c = DrishtiConfig::drishti(32).with_chips(4);
        assert_eq!(c.chips, 4);
        assert!(c.build_fabric().global_view());
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_chip_count_is_rejected() {
        let _ = DrishtiConfig::drishti(32).with_chips(3);
    }

    #[test]
    fn fig11_configs_use_requested_fabric() {
        assert_eq!(
            DrishtiConfig::drishti_without_nocstar(8).fabric,
            FabricKind::Mesh
        );
        assert_eq!(
            DrishtiConfig::drishti_fixed_latency(8, 20).fabric,
            FabricKind::Fixed(20)
        );
    }
}
