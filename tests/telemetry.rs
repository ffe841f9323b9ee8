//! Telemetry contract tests.
//!
//! The telemetry sink is observation-only: it reads counters between
//! engine steps and never mutates simulation state, so a run with
//! epoch sampling on must produce a [`RunResult`] bit-identical to the
//! same run with telemetry off — that zero-perturbation guarantee is
//! what lets `--telemetry` ride along with the byte-determinism gates.
//! These tests pin it, together with conservation (every epoch series
//! sums back to the run's aggregate counters) and the timeline schema.

use drishti::core::config::DrishtiConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{run_mix, RunConfig, RunResult};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::{TelemetrySpec, SCHEMA};
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;
use proptest::prelude::*;

fn rc(cores: usize, accesses: u64, telemetry: TelemetrySpec) -> RunConfig {
    RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: accesses,
        warmup_accesses: accesses / 4,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry,
    }
}

/// Assert everything outside the timeline itself is bit-identical.
fn assert_results_identical(off: &RunResult, on: &RunResult) {
    assert_eq!(off.policy, on.policy);
    assert_eq!(off.per_core, on.per_core);
    assert_eq!(off.llc, on.llc);
    assert_eq!(off.set_counters, on.set_counters);
    assert_eq!(off.dram, on.dram);
    assert_eq!(off.mesh, on.mesh);
    assert_eq!(off.fabric, on.fabric);
    assert_eq!(off.energy, on.energy);
    assert_eq!(off.diagnostics, on.diagnostics);
}

/// Assert the epoch series of `r.telemetry` sum back to `r`'s aggregates.
fn assert_conservation(r: &RunResult) {
    let tl = r.telemetry.as_ref().expect("telemetry requested");
    assert!(!tl.epochs.is_empty(), "sampling runs produce epochs");

    // Per-core measured counters telescope across epochs.
    for (c, core) in r.per_core.iter().enumerate() {
        let instr: u64 = tl.epochs.iter().map(|e| e.per_core[c].instructions).sum();
        let cycles: u64 = tl.epochs.iter().map(|e| e.per_core[c].cycles).sum();
        let accesses: u64 = tl.epochs.iter().map(|e| e.per_core[c].accesses).sum();
        let misses: u64 = tl.epochs.iter().map(|e| e.per_core[c].llc_misses).sum();
        assert_eq!(instr, core.instructions, "core {c} instructions");
        assert_eq!(cycles, core.cycles, "core {c} cycles");
        assert_eq!(accesses, core.accesses, "core {c} accesses");
        assert_eq!(misses, core.llc_misses, "core {c} llc misses");
    }

    // Slice hit/miss series sum to the LLC's aggregate counters.
    let hits: u64 = tl
        .epochs
        .iter()
        .flat_map(|e| e.slices.iter().map(|s| s.hits))
        .sum();
    let misses: u64 = tl
        .epochs
        .iter()
        .flat_map(|e| e.slices.iter().map(|s| s.misses))
        .sum();
    assert_eq!(misses, r.llc.total_misses(), "slice miss conservation");
    assert_eq!(
        hits + misses,
        r.llc.total_accesses(),
        "slice access conservation"
    );

    // NoC series sum to the demand mesh's counters.
    let msgs: u64 = tl.epochs.iter().map(|e| e.noc.messages).sum();
    let flits: u64 = tl.epochs.iter().map(|e| e.noc.flits).sum();
    let retries: u64 = tl.epochs.iter().map(|e| e.noc.retries).sum();
    assert_eq!(msgs, r.mesh.messages, "mesh message conservation");
    assert_eq!(flits, r.mesh.flits, "mesh flit conservation");
    assert_eq!(retries, r.mesh.retries, "mesh retry conservation");

    // DRAM: serviced reads/writes are deltas; still-queued writes sit in
    // the final epoch's absolute queue depths.
    let reads: u64 = tl
        .epochs
        .iter()
        .flat_map(|e| e.dram.iter().map(|c| c.reads))
        .sum();
    let writes: u64 = tl
        .epochs
        .iter()
        .flat_map(|e| e.dram.iter().map(|c| c.writes))
        .sum();
    let queued: u64 = tl
        .epochs
        .last()
        .expect("nonempty")
        .dram
        .iter()
        .map(|c| c.queue_depth)
        .sum();
    assert_eq!(reads, r.dram.reads, "dram read conservation");
    assert_eq!(writes + queued, r.dram.writes, "dram write conservation");
}

#[test]
fn disabled_path_leaves_results_bit_identical() {
    // The pin required by DESIGN.md §11: a sampling run must not perturb
    // the simulation. Run the same cell with telemetry off, with the
    // default epoch, and with a pathological 1-step epoch; all three must
    // agree bit-for-bit on everything but the timeline.
    let cores = 4;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 1);
    let off = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &rc(cores, 10_000, TelemetrySpec::off()),
    );
    assert!(off.telemetry.is_none(), "off runs carry no timeline");
    for epoch_steps in [500, 1 << 40] {
        let on = run_mix(
            &mix,
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(cores),
            &rc(cores, 10_000, TelemetrySpec::sampling(epoch_steps)),
        );
        assert_results_identical(&off, &on);
        assert_conservation(&on);
    }
    // Maximum-perturbation case — a sample after every single engine step
    // — on a run small enough to keep the occupancy scans cheap.
    let off = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &rc(cores, 1_000, TelemetrySpec::off()),
    );
    let on = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(cores),
        &rc(cores, 1_000, TelemetrySpec::sampling(1)),
    );
    assert_results_identical(&off, &on);
    assert_conservation(&on);
}

#[test]
fn invariant_checkers_accept_a_healthy_run() {
    // `check_invariants: true` makes the release build run the same
    // monotonic-counter checks as debug; a healthy run must pass them.
    let cores = 2;
    let spec = TelemetrySpec {
        epoch_steps: 300,
        check_invariants: true,
    };
    let mix = Mix::homogeneous(Benchmark::Gcc, cores, 2);
    let r = run_mix(
        &mix,
        PolicyKind::Hawkeye,
        DrishtiConfig::baseline(cores),
        &rc(cores, 6_000, spec),
    );
    assert_conservation(&r);
}

#[test]
fn timeline_json_is_schema_stamped_and_self_describing() {
    let cores = 2;
    let mix = Mix::homogeneous(Benchmark::Lbm, cores, 3);
    let r = run_mix(
        &mix,
        PolicyKind::Lru,
        DrishtiConfig::baseline(cores),
        &rc(cores, 5_000, TelemetrySpec::sampling(400)),
    );
    let tl = r.telemetry.as_ref().expect("timeline present");
    assert_eq!(tl.cores, cores);
    let json = tl.to_json_string();
    assert!(json.contains(&format!("\"schema\": \"{SCHEMA}\"")));
    assert!(json.contains("\"epochs\""));
    assert!(json.contains("\"link_flits\""));
    // Predictor counters from the diagnostics surface make it in.
    assert!(json.contains("\"predictor\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary small configurations, epoch sampling never perturbs
    /// the run and every epoch series conserves its aggregate counter.
    #[test]
    fn sampling_is_invisible_and_conservative(
        cores_idx in 0usize..3,
        accesses in 2_000u64..5_000,
        epoch_steps in 50u64..4_000,
        mix_seed in 0u64..4,
        policy_idx in 0usize..3,
        drishti in any::<bool>(),
    ) {
        let cores = [1usize, 2, 4][cores_idx];
        let policy = [PolicyKind::Lru, PolicyKind::Hawkeye, PolicyKind::Mockingjay][policy_idx];
        let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), cores, mix_seed);
        let org = if drishti {
            DrishtiConfig::drishti(cores)
        } else {
            DrishtiConfig::baseline(cores)
        };
        let off = run_mix(&mix, policy, org.clone(), &rc(cores, accesses, TelemetrySpec::off()));
        let on = run_mix(
            &mix,
            policy,
            org,
            &rc(cores, accesses, TelemetrySpec::sampling(epoch_steps)),
        );
        assert_results_identical(&off, &on);
        assert_conservation(&on);
    }
}
