//! Fault-injection resilience properties, end to end.
//!
//! Three invariants pin the fault subsystem down:
//!
//! 1. **Determinism** — the fault stream is a pure function of the seed:
//!    two runs with the same seed and rate are bit-identical, down to the
//!    degradation diagnostics.
//! 2. **Zero-rate transparency** — a run with a 0% drop rate (and no
//!    jitter or outages) is bit-identical to a run with no fault
//!    configuration at all: the healthy path is untouched.
//! 3. **Graceful degradation** — even at a 50% drop rate every run
//!    completes (no hang, no panic) and still retires instructions; the
//!    degradation counters show the fallback machinery actually engaged.

use drishti::core::config::DrishtiConfig;
use drishti::noc::faults::FaultConfig;
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{run_mix, RunConfig, RunResult};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;
use proptest::prelude::*;

const CORES: usize = 4;

fn mix() -> Mix {
    Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 3)
}

fn faulty_run(faults: FaultConfig, policy: PolicyKind) -> RunResult {
    let drishti = DrishtiConfig::drishti(CORES).with_faults(faults.clone());
    let rc = RunConfig {
        system: SystemConfig::with_faults(CORES, faults),
        accesses_per_core: 4_000,
        warmup_accesses: 500,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    run_mix(&mix(), policy, drishti, &rc)
}

/// Everything that must match for two runs to count as identical.
fn fingerprint(r: &RunResult) -> (Vec<u64>, Vec<(String, u64)>, u64, u64) {
    (
        r.per_core
            .iter()
            .flat_map(|c| [c.instructions, c.cycles, c.accesses, c.llc_misses])
            .collect(),
        r.diagnostics.clone(),
        r.mesh.total_latency,
        r.dram.reads,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same rate ⇒ bit-identical results, including every
    /// resilience counter.
    #[test]
    fn same_seed_is_bit_identical(seed in 0u64..1000, pct in 1u8..51) {
        let cfg = FaultConfig::with_drops(seed, f64::from(pct));
        let a = faulty_run(cfg.clone(), PolicyKind::Mockingjay);
        let b = faulty_run(cfg, PolicyKind::Mockingjay);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(a.fault_summary(), b.fault_summary());
        prop_assert!(!a.fault_summary().is_clean(), "faults must actually fire");
    }

    /// A zero drop rate (whatever the seed) leaves the system on its
    /// healthy path: bit-identical to a run with no fault configuration.
    #[test]
    fn zero_rate_matches_no_fault_build(seed in 0u64..1000) {
        let zero = faulty_run(FaultConfig::with_drops(seed, 0.0), PolicyKind::Hawkeye);
        let clean = faulty_run(FaultConfig::none(), PolicyKind::Hawkeye);
        prop_assert_eq!(fingerprint(&zero), fingerprint(&clean));
        prop_assert!(zero.fault_summary().is_clean());
    }
}

/// At a 50% drop rate every policy/organisation pair must still run to
/// completion and retire instructions — the acceptance bar for graceful
/// degradation (bounded retransmission on the demand mesh, deadline
/// fallback on the predictor fabric).
#[test]
fn heavy_drops_degrade_gracefully() {
    for policy in [PolicyKind::Mockingjay, PolicyKind::Hawkeye] {
        let r = faulty_run(FaultConfig::with_drops(7, 50.0), policy);
        let s = r.fault_summary();
        assert!(r.total_ipc() > 0.0, "{policy}: no forward progress");
        assert!(r.total_instructions() > 0);
        assert!(s.mesh_dropped > 0, "{policy}: mesh saw no drops at 50%");
        assert!(s.mesh_retries > 0, "{policy}: mesh never retransmitted");
        assert!(
            s.fallback_decisions > 0,
            "{policy}: fabric never fell back to static insertion"
        );
    }
}

/// DRAM channel outages re-steer to surviving channels and recover.
#[test]
fn dram_outage_resteers_and_recovers() {
    let mut faults = FaultConfig::none();
    faults
        .dram_outages
        .push(drishti::noc::faults::OutageWindow {
            channel: 0,
            start: 0,
            len: 200_000,
        });
    // The 4-core baseline has a single channel (nothing to re-steer to),
    // so give the system a survivor.
    let mut system = SystemConfig::with_faults(CORES, faults.clone());
    system.dram = drishti::mem::dram::DramConfig::with_channels(2);
    let rc = RunConfig {
        system,
        accesses_per_core: 4_000,
        warmup_accesses: 500,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    let drishti = DrishtiConfig::drishti(CORES).with_faults(faults);
    let r = run_mix(&mix(), PolicyKind::Mockingjay, drishti, &rc);
    assert!(r.total_ipc() > 0.0);
    assert!(
        r.fault_summary().dram_resteered > 0,
        "outage never re-steered"
    );
}
