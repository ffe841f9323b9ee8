//! Integration tests of the paper's causal claims: myopia, the global-view
//! repair, the dynamic sampled cache, and the interconnect trade-offs.

use drishti::core::config::DrishtiConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{run_mix, RunConfig};
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
fn drishti_beats_myopic_on_scattered_pc_workload() {
    // The headline claim on the paper's own poster-child workload: xalan's
    // PCs scatter across slices and keep changing phase, so the myopic
    // per-slice predictors lag; the full Drishti organisation (per-core
    // global predictor over NOCSTAR + dynamic sampled cache) must win at
    // 8 cores.
    let cores = 8;
    let mix = Mix::homogeneous(Benchmark::Xalan, cores, 1);
    let cfg = rc(cores, 100_000);
    let myopic = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::baseline(cores),
        &cfg,
    );
    let drishti = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &cfg,
    );
    assert!(
        drishti.total_ipc() > myopic.total_ipc(),
        "d-mockingjay {} must beat mockingjay {} on xalan",
        drishti.total_ipc(),
        myopic.total_ipc()
    );
}

#[test]
fn drishti_fabric_traffic_only_when_global() {
    let cores = 4;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 2);
    let cfg = rc(cores, 15_000);
    let base = run_mix(
        &mix,
        PolicyKind::Hawkeye,
        DrishtiConfig::baseline(cores),
        &cfg,
    );
    assert_eq!(
        base.fabric.messages, 0,
        "per-slice predictors generate no interconnect traffic"
    );
    let d = run_mix(
        &mix,
        PolicyKind::Hawkeye,
        DrishtiConfig::drishti(cores),
        &cfg,
    );
    assert!(d.fabric.messages > 0);
    assert!(d.fabric.energy_pj > 0, "50 pJ per NOCSTAR message");
}

#[test]
fn centralized_predictor_concentrates_traffic() {
    // Fig 10: a centralized predictor absorbs the sum of all cores'
    // accesses; per-core banks split it. Total APKI is similar, so the
    // per-structure load ratio approaches the core count.
    let cores = 8;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 3);
    let cfg = rc(cores, 30_000);
    let central = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::centralized(cores),
        &cfg,
    );
    let drishti = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &cfg,
    );
    let central_apki = central.predictor_apki(); // one structure takes it all
    let per_bank_apki = drishti.predictor_apki() / cores as f64;
    assert!(
        central_apki > 3.0 * per_bank_apki,
        "centralized {central_apki} should dwarf per-bank {per_bank_apki}"
    );
}

#[test]
fn nocstar_beats_mesh_fabric_for_drishti() {
    // Fig 11a: riding the existing mesh adds tens of cycles per fill and
    // erodes the benefit; NOCSTAR keeps it. At minimum the NOCSTAR variant
    // must not lose to the mesh variant.
    let cores = 16;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 4);
    let cfg = rc(cores, 40_000);
    let star = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &cfg,
    );
    let mesh = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti_without_nocstar(cores),
        &cfg,
    );
    assert!(
        star.total_ipc() >= mesh.total_ipc() * 0.98,
        "nocstar {} must not lose to mesh {}",
        star.total_ipc(),
        mesh.total_ipc()
    );
    // And the mesh variant must charge more fabric latency overall.
    assert!(mesh.fabric.mean_latency() > star.fabric.mean_latency());
}

#[test]
fn dsc_saves_sampled_sets_without_collapse() {
    // Enhancement II's storage claim: D-Mockingjay runs 16 sampled sets
    // per slice instead of 32 and must stay within a few percent of the
    // static-random configuration on a skewed workload.
    let cores = 8;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 5);
    let cfg = rc(cores, 60_000);
    let global = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::global_view_only(cores),
        &cfg,
    );
    let dsc = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &cfg,
    );
    assert!(
        dsc.total_ipc() > global.total_ipc() * 0.93,
        "DSC with half the sampled sets collapsed: {} vs {}",
        dsc.total_ipc(),
        global.total_ipc()
    );
}

#[test]
fn latency_sweep_is_monotone_in_the_large() {
    // Fig 11b: more predictor-interconnect latency can only hurt.
    let cores = 8;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 6);
    let cfg = rc(cores, 30_000);
    let fast = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti_fixed_latency(cores, 1),
        &cfg,
    );
    let slow = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti_fixed_latency(cores, 60),
        &cfg,
    );
    assert!(
        fast.total_ipc() >= slow.total_ipc(),
        "1-cycle fabric {} must not lose to 60-cycle {}",
        fast.total_ipc(),
        slow.total_ipc()
    );
}
