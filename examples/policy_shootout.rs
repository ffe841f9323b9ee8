//! Policy shootout: every implemented replacement policy (and its Drishti
//! variant where applicable) on one heterogeneous 8-core mix.
//!
//! ```text
//! cargo run --release --example policy_shootout
//! ```

use drishti::core::config::DrishtiConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{run_mix, RunConfig};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;

fn main() {
    let cores = 8;
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), cores, 3);
    println!(
        "mix: {:?}\n",
        mix.benchmarks.iter().map(|b| b.label()).collect::<Vec<_>>()
    );
    let rc = RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: 100_000,
        warmup_accesses: 25_000,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    let lru = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>8}",
        "policy", "IPC sum", "vs LRU", "MPKI", "WPKI"
    );
    println!(
        "{:<16} {:>10.3} {:>10} {:>8.1} {:>8.2}",
        "lru",
        lru.total_ipc(),
        "--",
        lru.llc_mpki(),
        lru.wpki()
    );
    for pk in PolicyKind::all()
        .into_iter()
        .filter(|p| *p != PolicyKind::Lru)
    {
        for cfg in [
            DrishtiConfig::baseline(cores),
            DrishtiConfig::drishti(cores),
        ] {
            // Memoryless policies ignore the organisation; skip duplicates.
            if !pk.is_prediction_based() && pk != PolicyKind::Dip && cfg.label() != "baseline" {
                continue;
            }
            let r = run_mix(&mix, pk, cfg, &rc);
            println!(
                "{:<16} {:>10.3} {:>9.1}% {:>8.1} {:>8.2}",
                r.policy,
                r.total_ipc(),
                (r.total_ipc() / lru.total_ipc() - 1.0) * 100.0,
                r.llc_mpki(),
                r.wpki()
            );
        }
    }
}
