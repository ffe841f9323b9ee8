//! Scheduler equivalence suite (DESIGN.md §16).
//!
//! `Engine::run_steps` advances the unfinished core with the least
//! `(cycle, core)` key by popping a min-heap. This suite pins it against
//! the simplest possible implementation of the same rule — a test-side
//! scan over every core per step, driving the engine through
//! `Engine::step_core` — on:
//!
//! 1. every policy × both organisations on the fig13 preset mixes, at the
//!    Debug level of `RunResult` and on six-decimal golden metrics;
//! 2. telemetry timeline JSON, epoch by epoch;
//! 3. a faulty cell with drops, jitter, a recurring link outage and a
//!    DRAM outage window;
//! 4. random geometries, seeds and fault rates;
//! 5. checkpoint seams, in both directions between the two schedulers.

use drishti::core::config::DrishtiConfig;
use drishti::noc::faults::{FaultConfig, OutageWindow};
use drishti::policies::factory::{all_policies, PolicyKind};
use drishti::sim::ckpt::{restore_engine_bytes, save_engine_bytes};
use drishti::sim::config::SystemConfig;
use drishti::sim::engine::Engine;
use drishti::sim::runner::{alone_ipcs, mix_metrics, run_mix, RunConfig, RunResult};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::{paper_mixes, Mix};
use drishti::trace::presets::Benchmark;
use drishti::trace::WorkloadGen;
use proptest::prelude::*;

const CORES: usize = 4;
const ACCESSES: u64 = 3_000;
const WARMUP: u64 = 400;

fn rc_for(system: SystemConfig) -> RunConfig {
    RunConfig {
        system,
        accesses_per_core: ACCESSES,
        warmup_accesses: WARMUP,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    }
}

/// The reference scheduler: rescan every core each step and advance the
/// unfinished one with the least `(cycle, core)` key. Returns whether
/// every core has finished after at most `max_steps` steps.
fn scan(engine: &mut Engine, max_steps: u64) -> bool {
    let cores = engine.config().cores;
    for _ in 0..max_steps {
        let next = (0..cores)
            .filter_map(|c| Some((engine.sched_key(c)?, c)))
            .min();
        let Some((_, c)) = next else {
            return true;
        };
        engine.step_core(c);
    }
    (0..cores).all(|c| engine.sched_key(c).is_none())
}

/// The engine `run_mix` would build for this cell.
fn build_engine(mix: &Mix, policy: PolicyKind, org: DrishtiConfig, rc: &RunConfig) -> Engine {
    let workloads = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    let mut engine = Engine::new(
        rc.system.clone(),
        workloads,
        policy.build(&rc.system.llc, org),
        rc.accesses_per_core,
        rc.warmup_accesses,
        rc.record_llc_stream,
    );
    engine.set_sampling(rc.sampling);
    engine.set_telemetry(rc.telemetry);
    engine
}

/// [`run_mix`] with the reference scheduler in place of the heap.
fn run_mix_by_scan(mix: &Mix, policy: PolicyKind, org: DrishtiConfig, rc: &RunConfig) -> RunResult {
    let mut engine = build_engine(mix, policy, org, rc);
    assert!(scan(&mut engine, u64::MAX));
    // Nothing is left to step: `run` only flushes the final telemetry
    // epoch, as it does at the end of a heap-scheduled run.
    engine.run();
    RunResult::from_engine(&mut engine)
}

/// Run the same cell under both schedulers: `(scan, heap)`.
fn both(
    mix: &Mix,
    policy: PolicyKind,
    org: DrishtiConfig,
    rc: &RunConfig,
) -> (RunResult, RunResult) {
    let scanned = run_mix_by_scan(mix, policy, org.clone(), rc);
    (scanned, run_mix(mix, policy, org, rc))
}

/// Bit-identity across every field, via the full Debug rendering (per-core
/// counters, LLC/DRAM/mesh/fabric stats, energy, diagnostics, timeline).
fn assert_identical(scanned: &RunResult, heap: &RunResult, label: &str) {
    assert_eq!(
        format!("{scanned:?}"),
        format!("{heap:?}"),
        "{label}: heap scheduler diverged from the scan"
    );
    assert_eq!(
        scanned.fault_summary(),
        heap.fault_summary(),
        "{label}: fault summaries diverged"
    );
}

/// 1. Every policy × both organisations on the fig13 preset mixes, with
///    the golden six-decimal metric rendering compared on top.
#[test]
fn every_policy_and_org_is_bit_identical_on_fig13_mixes() {
    let rc = rc_for(SystemConfig::paper_baseline(CORES));
    for mix in paper_mixes(CORES, 1, 1) {
        let alone = alone_ipcs(&mix, &rc);
        for policy in all_policies() {
            for org in [
                DrishtiConfig::baseline(CORES),
                DrishtiConfig::drishti(CORES),
            ] {
                let label = format!("{}/{}/{}", mix.name, policy.label(), org.label());
                let (scanned, heap) = both(&mix, policy, org, &rc);
                assert_identical(&scanned, &heap, &label);
                let golden = |r: &RunResult| {
                    format!(
                        "{:.6} {:.6} {:.6}",
                        r.total_ipc(),
                        r.llc_mpki(),
                        mix_metrics(r, &alone).weighted_speedup()
                    )
                };
                assert_eq!(
                    golden(&scanned),
                    golden(&heap),
                    "{label}: golden metrics diverged"
                );
            }
        }
    }
}

/// 2. Telemetry epochs close on the same engine steps under both
///    schedulers, so the `drishti-telemetry/v1` JSON matches byte for byte.
#[test]
fn telemetry_timelines_match_the_scan() {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 5);
    let mut rc = rc_for(SystemConfig::paper_baseline(CORES));
    rc.telemetry = TelemetrySpec::sampling(500);
    let (scanned, heap) = both(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::drishti(CORES),
        &rc,
    );
    let tl_scanned = scanned.telemetry.as_ref().expect("telemetry on");
    let tl_heap = heap.telemetry.as_ref().expect("telemetry on");
    assert!(!tl_scanned.epochs.is_empty());
    assert_eq!(
        tl_scanned.to_json_string(),
        tl_heap.to_json_string(),
        "timeline JSON diverged between schedulers"
    );
    assert_identical(&scanned, &heap, "telemetry cell");
}

/// 3. Drops, jitter, a recurring link outage and a DRAM channel outage
///    window at once. Fault windows are pure functions of the cycle, so
///    the shared resources need no scheduling of their own: the fault
///    stream and its summaries match the scan exactly.
#[test]
fn faulty_runs_match_including_fault_summaries() {
    let mut faults = FaultConfig::with_drops(21, 8.0);
    faults.jitter = 3;
    faults.link_outage_period = 6_000;
    faults.link_outage_len = 900;
    faults.dram_outages.push(OutageWindow {
        channel: 0,
        start: 2_000,
        len: 1_500,
    });
    let mut system = SystemConfig::with_faults(CORES, faults.clone());
    system.dram = drishti::mem::dram::DramConfig::with_channels(2);
    let rc = rc_for(system);
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 3);
    for policy in [PolicyKind::Lru, PolicyKind::Mockingjay] {
        let org = DrishtiConfig::drishti(CORES).with_faults(faults.clone());
        let (scanned, heap) = both(&mix, policy, org, &rc);
        assert!(
            !scanned.fault_summary().is_clean(),
            "{policy}: faults must actually fire for this test to bite"
        );
        assert_identical(&scanned, &heap, &format!("faulty/{policy}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 4. Random geometries, seeds and fault rates: the schedulers stay
    /// bit-identical everywhere, not just on the pinned cells above.
    #[test]
    fn random_cells_are_bit_identical(
        cores_idx in 0usize..3,
        seed in 0u64..1_000,
        drop_pct in 0u8..20,
        jitter in 0u64..4,
        pol_idx in 0usize..all_policies().len(),
    ) {
        let cores = [2, 4, 8][cores_idx];
        let mut faults = FaultConfig::with_drops(seed, f64::from(drop_pct));
        faults.jitter = jitter;
        let rc = rc_for(SystemConfig::with_faults(cores, faults.clone()));
        let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), cores, seed);
        let policy = all_policies()[pol_idx];
        let org = DrishtiConfig::drishti(cores).with_faults(faults);
        let (scanned, heap) = both(&mix, policy, org, &rc);
        prop_assert_eq!(format!("{scanned:?}"), format!("{heap:?}"));
        prop_assert_eq!(scanned.fault_summary(), heap.fault_summary());
    }
}

/// 5. The checkpoint seam: `run(N)` equals `run(k); save; restore;
///    run(N − k)` for several split points, including one before warm-up
///    completes, whichever scheduler ran the first `k` steps.
#[test]
fn checkpoint_seam_is_bit_identical() {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 9);
    let rc = rc_for(SystemConfig::paper_baseline(CORES));
    let engine = || {
        build_engine(
            &mix,
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(CORES),
            &rc,
        )
    };
    let mut whole = engine();
    assert!(scan(&mut whole, u64::MAX));
    let expect = whole.results();
    for k in [1u64, 300, 3_000, 9_000] {
        for by_scan in [false, true] {
            let mut first = engine();
            if by_scan {
                scan(&mut first, k);
            } else {
                first.run_steps(k);
            }
            let bytes = save_engine_bytes(&first);
            let mut second = engine();
            restore_engine_bytes(&mut second, &bytes)
                .unwrap_or_else(|e| panic!("k={k}: restore failed: {e}"));
            let label = format!("k={k} by_scan={by_scan}");
            assert_eq!(second.run(), expect, "{label}: seam diverged");
            assert_eq!(second.llc().stats(), whole.llc().stats(), "{label}");
            assert_eq!(second.dram().stats(), whole.dram().stats(), "{label}");
        }
    }
}
