//! Quickstart: run one 4-core mix under LRU, Mockingjay and D-Mockingjay
//! and compare weighted speedups.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use drishti::core::config::DrishtiConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::metrics::MixMetrics;
use drishti::sim::runner::{alone_ipcs, mix_metrics, run_mix, RunConfig};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;

fn main() {
    let cores = 4;
    // Four copies of an mcf-like pointer-chasing workload (different
    // sim-points) on the paper's baseline system: 2 MB LLC slice per core,
    // mesh NoC, one DRAM channel per four cores.
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 1);
    let rc = RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: 120_000,
        warmup_accesses: 30_000,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };

    println!("measuring alone-IPC baselines ...");
    let alone = alone_ipcs(&mix, &rc);

    let mut lru_ws = 0.0;
    for (pk, cfg, label) in [
        (PolicyKind::Lru, DrishtiConfig::baseline(cores), "lru"),
        (
            PolicyKind::Mockingjay,
            DrishtiConfig::baseline(cores),
            "mockingjay (myopic per-slice predictors)",
        ),
        (
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(cores),
            "d-mockingjay (per-core global predictor + dynamic sampled cache)",
        ),
    ] {
        let r = run_mix(&mix, pk, cfg, &rc);
        let m: MixMetrics = mix_metrics(&r, &alone);
        let ws = m.weighted_speedup();
        if r.policy == "lru" {
            lru_ws = ws;
        }
        println!(
            "{label:<64} WS={ws:.3}  (vs LRU {:+.1}%)  LLC MPKI={:.1}  WPKI={:.2}",
            (ws / lru_ws - 1.0) * 100.0,
            r.llc_mpki(),
            r.wpki()
        );
    }
}
