//! Myopia study: watch a per-slice reuse predictor starve as the core
//! count grows, and the per-core-yet-global predictor fix it.
//!
//! Reproduces the paper's Observation I interactively: the same workload
//! is run at several core counts under three predictor organisations
//! (myopic per-slice, idealised zero-latency global, Drishti's
//! NOCSTAR-attached global), printing the predictor training density and
//! resulting performance.
//!
//! ```text
//! cargo run --release --example myopia_study
//! ```

use drishti::core::config::DrishtiConfig;
use drishti::core::fabric::FabricKind;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{run_mix, RunConfig};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;

fn main() {
    println!("How predictor organisation interacts with slicing (xalan, scattered PCs)\n");
    for cores in [4usize, 8, 16] {
        let mix = Mix::homogeneous(Benchmark::Xalan, cores, 7);
        let rc = RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: 100_000,
            warmup_accesses: 25_000,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        };
        let mut ideal = DrishtiConfig::global_view_only(cores);
        ideal.fabric = FabricKind::Fixed(0);

        println!("== {cores} cores ==");
        let lru = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
        for (label, cfg) in [
            (
                "myopic (per-slice predictor)",
                DrishtiConfig::baseline(cores),
            ),
            ("ideal global (0-cycle fabric)", ideal),
            (
                "drishti (per-core + NOCSTAR)",
                DrishtiConfig::drishti(cores),
            ),
        ] {
            let r = run_mix(&mix, PolicyKind::Mockingjay, cfg, &rc);
            let trainings = r
                .diagnostics
                .iter()
                .find(|(k, _)| k == "predictor_train")
                .map_or(0, |(_, v)| *v);
            // Training events per predictor bank: myopic banks each see a
            // fragment; global banks aggregate.
            println!(
                "  {label:<32} IPC {:+.1}% vs LRU | trainings/bank = {}",
                (r.total_ipc() / lru.total_ipc() - 1.0) * 100.0,
                trainings / cores as u64,
            );
        }
        println!();
    }
    println!("expected: the myopic organisation falls behind as cores grow;");
    println!("Drishti tracks the idealised global view at ~3-cycle cost.");
}
