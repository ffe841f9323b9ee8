//! Integration tests for the multi-chip topology subsystem (see
//! DESIGN.md §17): a one-chip [`TopologyConfig`] is bit-identical to the
//! flat mesh on results, stats, telemetry timelines and checkpoint bytes;
//! multi-chip engines checkpoint and resume bit-identically through the
//! inter-chip link queues and fault cursors; and the conformance
//! metamorphic relations keep holding at 64 slices spread over 4 chips.

use drishti_core::config::DrishtiConfig;
use drishti_noc::faults::FaultConfig;
use drishti_noc::topology::{ChipLinkConfig, TopologyConfig};
use drishti_policies::factory::{all_policies, PolicyKind};
use drishti_sim::ckpt::{restore_engine_bytes, save_engine_bytes};
use drishti_sim::config::SystemConfig;
use drishti_sim::conformance::metamorphic::{check_pc_relabel, check_warmup_split};
use drishti_sim::engine::Engine;
use drishti_sim::runner::RunConfig;
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::WorkloadGen;

const CORES: usize = 8;
const ACCESSES: u64 = 2_000;
const WARMUP: u64 = 200;

fn orgs() -> [(DrishtiConfig, &'static str); 2] {
    [
        (DrishtiConfig::baseline(CORES), "baseline"),
        (DrishtiConfig::drishti(CORES), "drishti"),
    ]
}

fn engine_with(system: SystemConfig, policy: PolicyKind, org: DrishtiConfig) -> Engine {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), system.cores, 9);
    let workloads = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    let pol = policy.build(&system.llc, org);
    Engine::new(system, workloads, pol, ACCESSES, WARMUP, false)
}

/// A deliberately exotic one-chip topology: with a single chip there are
/// no inter-chip links, so the link parameters must be inert.
fn one_chip_exotic() -> TopologyConfig {
    TopologyConfig {
        chips: 1,
        link: ChipLinkConfig {
            latency: 99,
            serialization: 7,
            energy_per_flit_pj: 12_345,
        },
    }
}

fn multichip_system() -> SystemConfig {
    SystemConfig::with_chips(CORES, 2)
}

/// Multi-chip system with every fault class armed, so the seam test
/// exercises the inter-chip fault-schedule cursor and outage clocks.
fn faulty_multichip_system() -> SystemConfig {
    let mut sys = multichip_system();
    sys.faults = FaultConfig {
        seed: 0xc41b,
        drop_pct: 2.0,
        jitter: 3,
        link_outage_period: 5_000,
        link_outage_len: 300,
        dram_outages: Vec::new(),
    };
    sys
}

/// The degenerate-equivalence contract, exhaustively: for every policy
/// under both organisations, an engine configured with an explicit
/// one-chip topology (even one with absurd link costs) matches the stock
/// flat-mesh engine on checkpoint bytes mid-run and on the per-core
/// results and LLC/DRAM/mesh aggregates at completion.
#[test]
fn one_chip_topology_is_bit_identical_to_flat_for_every_policy_and_org() {
    for policy in all_policies() {
        for (org, org_label) in orgs() {
            let mut flat = engine_with(SystemConfig::paper_baseline(CORES), policy, org.clone());
            let mut one = {
                let mut sys = SystemConfig::paper_baseline(CORES);
                sys.topology = one_chip_exotic();
                engine_with(sys, policy, org)
            };

            flat.run_steps(1_500);
            one.run_steps(1_500);
            assert_eq!(
                save_engine_bytes(&flat),
                save_engine_bytes(&one),
                "{policy}/{org_label}: one-chip checkpoint bytes diverged from flat"
            );

            assert_eq!(
                one.run(),
                flat.run(),
                "{policy}/{org_label}: one-chip results diverged from flat"
            );
            assert_eq!(
                one.llc().stats(),
                flat.llc().stats(),
                "{policy}/{org_label}"
            );
            assert_eq!(
                one.dram().stats(),
                flat.dram().stats(),
                "{policy}/{org_label}"
            );
            assert_eq!(
                one.mesh().stats(),
                flat.mesh().stats(),
                "{policy}/{org_label}: mesh aggregates diverged"
            );
            assert_eq!(
                one.mesh().link_flits(),
                flat.mesh().link_flits(),
                "{policy}/{org_label}: per-link flit counters diverged"
            );
        }
    }
}

/// One-chip checkpoints are not merely equal — they are interchangeable:
/// a checkpoint taken from a flat engine restores into a one-chip-
/// topology engine and finishes identically (the config descriptors are
/// the same string, so the config hash matches by construction).
#[test]
fn flat_checkpoint_restores_into_a_one_chip_topology_engine() {
    let policy = PolicyKind::Mockingjay;
    let org = DrishtiConfig::drishti(CORES);

    let mut whole = engine_with(SystemConfig::paper_baseline(CORES), policy, org.clone());
    let expect = whole.run();

    let mut first = engine_with(SystemConfig::paper_baseline(CORES), policy, org.clone());
    first.run_steps(3_000);
    let bytes = save_engine_bytes(&first);

    let mut sys = SystemConfig::paper_baseline(CORES);
    sys.topology = one_chip_exotic();
    let mut second = engine_with(sys, policy, org);
    restore_engine_bytes(&mut second, &bytes).expect("flat checkpoint restores into one-chip");
    assert_eq!(second.run(), expect);
    assert_eq!(second.llc().stats(), whole.llc().stats());
}

/// Telemetry timelines are part of the degenerate contract: an epoch
/// sampler over a one-chip topology produces the flat timeline
/// record-for-record, including the per-link flit deltas.
#[test]
fn one_chip_telemetry_timeline_matches_flat() {
    let spec = TelemetrySpec::sampling(700);
    let policy = PolicyKind::Mockingjay;
    let org = DrishtiConfig::drishti(CORES);

    let mut flat = engine_with(SystemConfig::paper_baseline(CORES), policy, org.clone());
    flat.set_telemetry(spec);
    let flat_results = flat.run();
    let flat_timeline = flat.take_timeline().expect("telemetry was on");

    let mut sys = SystemConfig::paper_baseline(CORES);
    sys.topology = one_chip_exotic();
    let mut one = engine_with(sys, policy, org);
    one.set_telemetry(spec);
    assert_eq!(one.run(), flat_results);
    assert_eq!(
        one.take_timeline().expect("telemetry was on"),
        flat_timeline,
        "one-chip telemetry timeline diverged from flat"
    );
}

/// The multi-chip resume contract: for every policy under both
/// organisations, with inter-chip drops, jitter and link outages armed,
/// `run(N)` equals `run(k); save; restore; run(N − k)` — the link debt
/// counters and the inter-chip fault cursor survive the seam.
#[test]
fn multichip_split_run_is_bit_identical_for_every_policy_and_org() {
    for policy in all_policies() {
        for (org, org_label) in orgs() {
            let org = org.with_chips(2);
            let mut whole = engine_with(faulty_multichip_system(), policy, org.clone());
            let expect = whole.run();
            assert!(
                whole.mesh().interchip_stats().messages > 0,
                "{policy}/{org_label}: no inter-chip traffic — the seam test is vacuous"
            );

            let mut first = engine_with(faulty_multichip_system(), policy, org.clone());
            first.run_steps(3_000);
            let bytes = save_engine_bytes(&first);
            drop(first);

            let mut second = engine_with(faulty_multichip_system(), policy, org);
            restore_engine_bytes(&mut second, &bytes)
                .unwrap_or_else(|e| panic!("{policy}/{org_label}: restore failed: {e}"));
            assert_eq!(
                second.run(),
                expect,
                "{policy}/{org_label}: multi-chip split run diverged"
            );
            assert_eq!(
                second.mesh().stats(),
                whole.mesh().stats(),
                "{policy}/{org_label}: merged NoC stats diverged across the seam"
            );
            assert_eq!(
                second.mesh().interchip_stats(),
                whole.mesh().interchip_stats(),
                "{policy}/{org_label}: inter-chip link stats diverged across the seam"
            );
            assert_eq!(
                second.llc().stats(),
                whole.llc().stats(),
                "{policy}/{org_label}"
            );
            assert_eq!(
                second.dram().stats(),
                whole.dram().stats(),
                "{policy}/{org_label}"
            );
        }
    }
}

/// A multi-chip checkpoint is rejected by a flat engine (and vice versa):
/// the config descriptor embeds the topology, so the config hash cannot
/// silently alias two different interconnects.
#[test]
fn multichip_checkpoint_does_not_restore_into_a_flat_engine() {
    let policy = PolicyKind::Lru;
    let org = DrishtiConfig::baseline(CORES);
    let mut multi = engine_with(multichip_system(), policy, org.clone().with_chips(2));
    multi.run_steps(1_000);
    let bytes = save_engine_bytes(&multi);

    let mut flat = engine_with(SystemConfig::paper_baseline(CORES), policy, org);
    let err = restore_engine_bytes(&mut flat, &bytes)
        .expect_err("a 2-chip checkpoint must not restore into a flat engine");
    let msg = err.to_string();
    assert!(
        msg.contains("config") || msg.contains("hash") || msg.contains("mismatch"),
        "unexpected rejection message: {msg}"
    );
}

/// The conformance harness at 64 slices: the warmup-split and PC-relabel
/// metamorphic relations hold on a 64-core system spread over 4 chips,
/// for the paper's organisation pair.
#[test]
fn conformance_relations_hold_at_64_slices_over_4_chips() {
    const BIG: usize = 64;
    let rc = RunConfig {
        system: SystemConfig::with_chips(BIG, 4),
        accesses_per_core: 600,
        warmup_accesses: 120,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), BIG, 11);
    for policy in [PolicyKind::Lru, PolicyKind::Mockingjay] {
        for (org, org_label) in [
            (DrishtiConfig::baseline(BIG).with_chips(4), "baseline"),
            (DrishtiConfig::drishti(BIG).with_chips(4), "drishti"),
        ] {
            check_warmup_split(&mix, policy, org.clone(), &rc, 997)
                .unwrap_or_else(|e| panic!("{policy}/{org_label}: warmup-split: {e}"));
            check_pc_relabel(&mix, policy, org, &rc, 0x5eed64 + policy as u64)
                .unwrap_or_else(|e| panic!("{policy}/{org_label}: pc-relabel: {e}"));
        }
    }
}
