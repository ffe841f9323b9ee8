//! Golden-metrics regression test.
//!
//! Pins (IPC, MPKI, weighted speedup) to six decimals for the policy
//! roster on one fixed-seed 4-core mix, against the checked-in snapshot
//! `tests/golden/metrics_4core.txt`. The simulator is deterministic, so
//! any diff here is a *behaviour* change — intended or not — and must be
//! reviewed, not papered over.
//!
//! `tests/golden/llc_decisions.txt` pins every policy's replacement
//! decisions directly: one fixed request stream through a small
//! `SlicedLlc` that is under pressure, where the 4-core table's 8 MB LLC
//! is not (SHiP++ reads the same there as LRU).
//!
//! `tests/golden/policy_state.txt` pins every policy's saved state after
//! that stream: the byte length and FNV-1a 64 hash of each policy ×
//! organisation `save_state`. Checkpoints carry these bytes, so a layout
//! change belongs with a `drishti-ckpt` version bump.
//!
//! `tests/golden/uncore_faults.txt` pins the uncore under injected faults
//! and across chips: Hawkeye and Mockingjay on an 8-core mix under every
//! predictor-fabric organisation, fault-free on two chips and with drops,
//! jitter, link outages and a DRAM outage on one and two chips. Each row
//! holds the per-core instructions and cycles, the fabric and mesh
//! traffic counters, the DRAM fault counters and the policy diagnostics,
//! so a change that reorders fault draws shows here.
//!
//! `tests/golden/run_paths.txt` pins every way a run can be measured:
//! full runs with and without warm-up, with the LLC stream captured and
//! with telemetry epochs that straddle the warm-up boundary, three
//! interval-sampling schedules, alone-IPC baselines, a trace file shorter
//! than the run (so it wraps) and runs split by a checkpoint. Each row
//! holds the per-core results and the FNV-1a 64 hash of the whole
//! `RunResult` `Debug` text, timeline and captured stream included.
//!
//! # Blessing a new snapshot
//!
//! When a change intentionally moves the numbers (new policy tuning,
//! engine timing fix, …), regenerate the snapshot and commit it together
//! with the change that moved it:
//!
//! ```text
//! DRISHTI_BLESS=1 cargo test --test golden
//! git diff tests/golden/metrics_4core.txt   # review the deltas!
//! ```
//!
//! Never bless to silence a diff you cannot explain.

use drishti::core::config::DrishtiConfig;
use drishti::core::fabric::FabricKind;
use drishti::core::org::SamplerOrg;
use drishti::mem::access::Access;
use drishti::mem::llc::{LlcGeometry, SlicedLlc};
use drishti::noc::faults::{FaultConfig, OutageWindow};
use drishti::noc::snap::StateWriter;
use drishti::noc::topology::TopologyConfig;
use drishti::noc::NocStats;
use drishti::policies::factory::PolicyKind;
use drishti::sim::ckpt::{restore_engine_bytes, save_engine_bytes};
use drishti::sim::config::SystemConfig;
use drishti::sim::engine::{CoreResult, Engine};
use drishti::sim::runner::{
    alone_ipcs, mix_metrics, run_mix, run_mix_cached, RunConfig, RunResult,
};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::sweep::report::{scenario_coverage_rows, SweepReport};
use drishti::sim::sweep::{JobKind, SweepJob};
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::{paper_mixes, Mix};
use drishti::trace::presets::Benchmark;
use drishti::trace::replay::TraceCache;
use drishti::trace::scenario::datacenter_mix;
use drishti::trace::store::write_trace;
use drishti::trace::{fnv1a64, WorkloadGen};
use std::path::Path;

const SNAPSHOT: &str = "tests/golden/metrics_4core.txt";
const COVERAGE_SNAPSHOT: &str = "tests/golden/scenario_coverage.txt";
const DECISIONS_SNAPSHOT: &str = "tests/golden/llc_decisions.txt";
const STATE_SNAPSHOT: &str = "tests/golden/policy_state.txt";
const UNCORE_SNAPSHOT: &str = "tests/golden/uncore_faults.txt";
const RUN_PATHS_SNAPSHOT: &str = "tests/golden/run_paths.txt";

fn rc() -> RunConfig {
    RunConfig {
        system: SystemConfig::paper_baseline(4),
        accesses_per_core: 20_000,
        warmup_accesses: 5_000,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    }
}

/// The golden table, freshly computed: one line per (policy, org) row,
/// `name ipc mpki ws` with six decimals.
fn compute_table() -> String {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), 4, 1);
    let rc = rc();
    let alone = alone_ipcs(&mix, &rc);
    let rows = [
        (PolicyKind::Lru, "baseline"),
        (PolicyKind::ShipPp, "baseline"),
        (PolicyKind::Hawkeye, "baseline"),
        (PolicyKind::Hawkeye, "drishti"),
        (PolicyKind::Mockingjay, "baseline"),
        (PolicyKind::Mockingjay, "drishti"),
    ];
    let mut out = String::from("# mix=");
    out.push_str(&mix.name);
    out.push_str(" cores=4 accesses=20000 warmup=5000 seed=1\n");
    out.push_str("# policy ipc mpki weighted_speedup\n");
    for (policy, org_label) in rows {
        let org = match org_label {
            "drishti" => DrishtiConfig::drishti(4),
            _ => DrishtiConfig::baseline(4),
        };
        let r = run_mix(&mix, policy, org, &rc);
        let m = mix_metrics(&r, &alone);
        out.push_str(&format!(
            "{}/{org_label} {:.6} {:.6} {:.6}\n",
            r.policy,
            r.total_ipc(),
            r.llc_mpki(),
            m.weighted_speedup()
        ));
    }
    out
}

/// Check `table` against the snapshot at `snapshot`, or rewrite it when
/// `DRISHTI_BLESS` is set.
fn check_snapshot(table: &str, snapshot: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(snapshot);
    if std::env::var_os("DRISHTI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot has a parent"))
            .expect("create snapshot dir");
        std::fs::write(&path, table).expect("write snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun `DRISHTI_BLESS=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        table, golden,
        "output drifted from {snapshot}; if the change is intended, re-bless \
         with DRISHTI_BLESS=1 (see the module docs) and review the diff"
    );
}

#[test]
fn golden_metrics_match_snapshot() {
    check_snapshot(&compute_table(), SNAPSHOT);
}

/// A fixed job list touching every scenario family (plus an `AloneIpcs`
/// job, which must not count): the classification and aggregation inputs
/// for the coverage table.
fn coverage_jobs() -> Vec<SweepJob> {
    let mixes = [
        Mix::homogeneous(Benchmark::PhaseMcfLbm, 4, 1),
        Mix::homogeneous(Benchmark::PhaseMcfLbm, 4, 2),
        Mix::homogeneous(Benchmark::AdvScatter, 4, 7),
        datacenter_mix(4, 5),
        datacenter_mix(8, 5),
        Mix::homogeneous(Benchmark::Mcf, 4, 1),
        Mix::heterogeneous(&Benchmark::spec_and_gap(), 4, 3),
    ];
    let mut jobs = Vec::new();
    for (id, mix) in mixes.iter().enumerate() {
        jobs.push(SweepJob {
            id,
            label: format!("{}/lru/baseline", mix.name),
            seed: SweepJob::derive_seed(id),
            rc: RunConfig::quick(mix.cores()),
            kind: JobKind::Run {
                mix: mix.clone(),
                policy: PolicyKind::Lru,
                org: DrishtiConfig::baseline(4),
                org_label: "baseline".to_string(),
            },
        });
    }
    jobs.push(SweepJob {
        id: mixes.len(),
        label: format!("{}/alone", mixes[0].name),
        seed: SweepJob::derive_seed(mixes.len()),
        rc: RunConfig::quick(4),
        kind: JobKind::AloneIpcs {
            mix: mixes[0].clone(),
        },
    });
    jobs
}

/// Pins the `scenario_coverage` table: the family classification and
/// fixed-seed scenario names of every family (first block) and the exact
/// `drishti-sweep/v1` JSON schema the table serialises under (second
/// block). Classification, row ordering, mix naming and the JSON field
/// set are all contracts consumers parse — any drift must be reviewed.
#[test]
fn golden_scenario_coverage_matches_snapshot() {
    let rows = scenario_coverage_rows(&coverage_jobs());
    let mut table = String::from("# family scenario cores cells\n");
    for r in &rows {
        table.push_str(&format!(
            "{} {} {} {}\n",
            r.family, r.scenario, r.cores, r.cells
        ));
    }
    let mut report = SweepReport::new("coverage-golden");
    report.scenario_coverage = rows;
    table.push_str("# drishti-sweep/v1 serialisation\n");
    table.push_str(&report.to_json_string());
    table.push('\n');
    check_snapshot(&table, COVERAGE_SNAPSHOT);
}

/// Geometry of the decisions table: 2 slices × 64 sets × 8 ways (64 KiB),
/// small enough that the fixed stream keeps every set under pressure.
const DECISIONS_GEOM: LlcGeometry = LlcGeometry {
    slices: 2,
    sets_per_slice: 64,
    ways: 8,
    latency: 20,
};

/// The decisions table's LLC request stream: the first heterogeneous
/// 2-core fig13 preset mix, cores round-robin. Every third record also
/// prefetches the next line, and every fifth record writes back the
/// oldest of the core's last eight stored lines, so all four request
/// kinds reach the policies.
fn decision_stream(len: usize) -> Vec<Access> {
    let cores = 2;
    let mix = &paper_mixes(cores, 3, 3)[3];
    let mut workloads = mix.build();
    let mut stored: Vec<Vec<u64>> = vec![Vec::new(); cores];
    let mut out = Vec::with_capacity(len + len / 2);
    let mut i = 0usize;
    while out.len() < len {
        let c = i % cores;
        let rec = workloads[c].next_record();
        if rec.is_store {
            out.push(Access::store(c, rec.pc, rec.line));
            stored[c].push(rec.line);
            if stored[c].len() > 8 {
                stored[c].remove(0);
            }
        } else {
            out.push(Access::load(c, rec.pc, rec.line));
        }
        if i.is_multiple_of(3) {
            out.push(Access::prefetch(c, rec.pc, rec.line + 1));
        }
        if i.is_multiple_of(5) && !stored[c].is_empty() {
            out.push(Access::writeback(c, stored[c].remove(0)));
        }
        i += 1;
    }
    out.truncate(len);
    out
}

/// Requests in the decisions stream.
const DECISIONS_LEN: usize = 30_000;

/// Every policy × organisation of the decisions table, in row order.
fn decision_cells() -> Vec<(PolicyKind, &'static str, DrishtiConfig)> {
    let slices = DECISIONS_GEOM.slices;
    PolicyKind::all()
        .into_iter()
        .flat_map(|kind| {
            [
                (kind, "baseline", DrishtiConfig::baseline(slices)),
                (kind, "drishti", DrishtiConfig::drishti(slices)),
            ]
        })
        .collect()
}

/// Drive `stream` through a decisions-geometry LLC under `kind` and
/// `cfg`; returns the LLC with its hit and miss counts and the summed
/// policy-charged latency.
fn replay_decisions(
    kind: PolicyKind,
    cfg: DrishtiConfig,
    stream: &[Access],
) -> (SlicedLlc, u64, u64, u64) {
    let geom = DECISIONS_GEOM;
    let mut llc = SlicedLlc::new(geom, kind.build(&geom, cfg));
    let (mut hits, mut misses, mut extra) = (0u64, 0u64, 0u64);
    for (i, acc) in stream.iter().enumerate() {
        let cycle = i as u64 * 8;
        let r = llc.lookup(acc, cycle);
        extra += r.extra_latency;
        if r.hit {
            hits += 1;
        } else {
            misses += 1;
            extra += llc.fill(acc, cycle).extra_latency;
        }
    }
    (llc, hits, misses, extra)
}

/// The decisions table, freshly computed: one line per (policy, org) with
/// the hit, miss, fill, bypass and DRAM write-back counts, the summed
/// policy-charged latency and the policy's diagnostics.
fn compute_decisions() -> String {
    let stream = decision_stream(DECISIONS_LEN);
    let geom = DECISIONS_GEOM;
    let mut out = format!(
        "# stream=paper_mixes(2,3,3)[3] accesses={DECISIONS_LEN} slices={} sets={} ways={}\n",
        geom.slices, geom.sets_per_slice, geom.ways
    );
    out.push_str(
        "# policy/org hits misses fills bypasses dram_writebacks extra_latency diagnostics...\n",
    );
    for (kind, org_label, cfg) in decision_cells() {
        let (llc, hits, misses, extra) = replay_decisions(kind, cfg, &stream);
        let s = llc.stats();
        out.push_str(&format!(
            "{kind}/{org_label} hits={hits} misses={misses} fills={} bypasses={} \
             dram_writebacks={} extra_latency={extra}",
            s.fills, s.bypasses, s.dram_writebacks
        ));
        for (name, v) in llc.policy().diagnostics() {
            out.push_str(&format!(" {name}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Pins every policy's replacement decisions under both organisations.
#[test]
fn golden_llc_decisions_match_snapshot() {
    let table = compute_decisions();
    let row = |prefix: &str| {
        let line = table
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix} row"));
        line.split_whitespace().take(7).collect::<Vec<_>>()[1..].to_vec()
    };
    assert_ne!(
        row("ship++/baseline "),
        row("lru/baseline "),
        "the stream must put SHiP++'s training in play"
    );
    check_snapshot(&table, DECISIONS_SNAPSHOT);
}

/// Pins every policy's saved state under both organisations after the
/// decisions stream: its byte length and FNV-1a 64 hash.
#[test]
fn golden_policy_state_matches_snapshot() {
    let stream = decision_stream(DECISIONS_LEN);
    let mut table =
        format!("# after the {DECISIONS_SNAPSHOT} stream\n# policy/org bytes fnv1a64\n");
    for (kind, org_label, cfg) in decision_cells() {
        let (llc, ..) = replay_decisions(kind, cfg, &stream);
        let mut w = StateWriter::new();
        llc.policy().save_state(&mut w);
        table.push_str(&format!(
            "{kind}/{org_label} {} {:016x}\n",
            w.len(),
            fnv1a64(w.bytes())
        ));
    }
    check_snapshot(&table, STATE_SNAPSHOT);
}

/// Cores of the uncore-faults table.
const UNCORE_CORES: usize = 8;

/// The uncore-faults table's LLC: 128 KiB 16-way slices, small enough
/// that the sampled sets see enough reuse to train the predictors often.
const UNCORE_LLC: LlcGeometry = LlcGeometry {
    slices: UNCORE_CORES,
    sets_per_slice: 128,
    ways: 16,
    latency: 20,
};

/// The uncore-faults table's fault set: a quarter of all messages
/// dropped, up to 4 cycles of jitter, a 200-cycle link outage every
/// 5 000 cycles and DRAM channel 1 down for the first 300 000 cycles.
fn uncore_faults() -> FaultConfig {
    FaultConfig {
        seed: 0xfa17,
        drop_pct: 25.0,
        jitter: 4,
        link_outage_period: 5_000,
        link_outage_len: 200,
        dram_outages: vec![OutageWindow {
            channel: 1,
            start: 0,
            len: 300_000,
        }],
    }
}

/// Every predictor-fabric organisation of the uncore-faults table.
fn uncore_orgs() -> Vec<(&'static str, DrishtiConfig)> {
    let n = UNCORE_CORES;
    let mut broadcast = DrishtiConfig::baseline(n);
    broadcast.sampler_org = SamplerOrg::GlobalCentralized;
    broadcast.fabric = FabricKind::Mesh;
    vec![
        ("baseline", DrishtiConfig::baseline(n)),
        ("drishti", DrishtiConfig::drishti(n)),
        ("global-view", DrishtiConfig::global_view_only(n)),
        ("mesh", DrishtiConfig::drishti_without_nocstar(n)),
        ("fixed20", DrishtiConfig::drishti_fixed_latency(n, 20)),
        ("centralized", DrishtiConfig::centralized(n)),
        ("global-sampler", broadcast),
    ]
}

/// Every counter of a traffic block, space-separated.
fn noc_fields(s: &NocStats) -> String {
    format!(
        "messages={} flits={} hops={} latency={} contention={} energy_pj={} dropped={} \
         retries={} fault_delay={}",
        s.messages,
        s.flits,
        s.hop_traversals,
        s.total_latency,
        s.contention_cycles,
        s.energy_pj,
        s.dropped,
        s.retries,
        s.fault_delay_cycles
    )
}

/// The uncore-faults table, freshly computed: one block per policy ×
/// organisation × setting.
fn compute_uncore_faults() -> String {
    let n = UNCORE_CORES;
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), n, 2);
    let settings = [
        ("clean-2chip", FaultConfig::none(), 2),
        ("faults-1chip", uncore_faults(), 1),
        ("faults-2chip", uncore_faults(), 2),
    ];
    let mut out = format!(
        "# mix={} cores={n} sets={} ways={} accesses=2000 warmup=500\n# faults: {:?}\n",
        mix.name,
        UNCORE_LLC.sets_per_slice,
        UNCORE_LLC.ways,
        uncore_faults()
    );
    for policy in [PolicyKind::Hawkeye, PolicyKind::Mockingjay] {
        for (org_label, org) in uncore_orgs() {
            for (setting, faults, chips) in &settings {
                let rc = RunConfig {
                    system: SystemConfig {
                        llc: UNCORE_LLC,
                        faults: faults.clone(),
                        topology: TopologyConfig::multi(*chips),
                        ..SystemConfig::paper_baseline(n)
                    },
                    accesses_per_core: 2_000,
                    warmup_accesses: 500,
                    record_llc_stream: false,
                    sampling: SamplingSpec::off(),
                    telemetry: TelemetrySpec::off(),
                };
                let org = org.clone().with_faults(faults.clone()).with_chips(*chips);
                let r = run_mix(&mix, policy, org, &rc);
                out.push_str(&format!("{policy}/{org_label}/{setting}\n  cores"));
                for c in &r.per_core {
                    out.push_str(&format!(" {}:{}", c.instructions, c.cycles));
                }
                out.push_str(&format!("\n  fabric {}\n", noc_fields(&r.fabric)));
                out.push_str(&format!("  mesh {}\n", noc_fields(&r.mesh)));
                out.push_str(&format!(
                    "  dram resteered={} fault_delay={}\n  diag",
                    r.dram.resteered, r.dram.fault_delay_cycles
                ));
                for (name, v) in &r.diagnostics {
                    out.push_str(&format!(" {name}={v}"));
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Pins fault-injected and multi-chip runs of every predictor-fabric
/// organisation.
#[test]
fn golden_uncore_faults_match_snapshot() {
    check_snapshot(&compute_uncore_faults(), UNCORE_SNAPSHOT);
}

/// Records each core pulls in every run-paths row: warm-up plus measured.
const RUN_PATHS_SPAN: u64 = 6_000;

/// Every measurement shape of the run-paths table, on 4 cores.
fn run_path_shapes() -> Vec<(&'static str, RunConfig)> {
    let shape = |warmup: u64, stream: bool, sampling: SamplingSpec, epoch: u64| RunConfig {
        system: SystemConfig::paper_baseline(4),
        accesses_per_core: RUN_PATHS_SPAN - warmup,
        warmup_accesses: warmup,
        record_llc_stream: stream,
        sampling,
        telemetry: if epoch == 0 {
            TelemetrySpec::off()
        } else {
            TelemetrySpec::sampling(epoch)
        },
    };
    let off = SamplingSpec::off();
    vec![
        ("warm1500", shape(1_500, false, off, 0)),
        ("warm0-stream", shape(0, true, off, 0)),
        ("warm1500-epoch977", shape(1_500, false, off, 977)),
        (
            "every500/440",
            shape(1_500, false, SamplingSpec::every(500, 440), 0),
        ),
        (
            "every300/100-epoch977",
            shape(1_500, false, SamplingSpec::every(300, 100), 977),
        ),
        (
            "every1000/300-warm0",
            shape(0, false, SamplingSpec::every(1_000, 300), 0),
        ),
    ]
}

/// The run-paths table's policies: LRU, Hawkeye and D-Mockingjay.
fn run_path_policies() -> [(&'static str, PolicyKind, DrishtiConfig); 3] {
    [
        ("lru", PolicyKind::Lru, DrishtiConfig::baseline(4)),
        ("hawkeye", PolicyKind::Hawkeye, DrishtiConfig::baseline(4)),
        (
            "d-mockingjay",
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(4),
        ),
    ]
}

/// One run-paths row: `label`, each core's `instructions:cycles:
/// accesses:llc_misses`, then the FNV-1a 64 hash of the whole result's
/// `Debug` text.
fn run_path_row(label: &str, r: &RunResult) -> String {
    let mut row = label.to_string();
    for c in &r.per_core {
        let CoreResult {
            instructions,
            cycles,
            accesses,
            llc_misses,
        } = c;
        row.push_str(&format!(" {instructions}:{cycles}:{accesses}:{llc_misses}"));
    }
    row.push_str(&format!(" {:016x}\n", fnv1a64(format!("{r:?}").as_bytes())));
    row
}

/// Runs `mix` under `rc` on an engine that is saved after `at` steps and
/// finished by a fresh engine restored from those bytes.
fn split_run(
    mix: &Mix,
    policy: PolicyKind,
    org: &DrishtiConfig,
    rc: &RunConfig,
    at: u64,
) -> RunResult {
    let build = || {
        let workloads = mix
            .build()
            .into_iter()
            .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
            .collect();
        let mut engine = Engine::new(
            rc.system.clone(),
            workloads,
            policy.build(&rc.system.llc, org.clone()),
            rc.accesses_per_core,
            rc.warmup_accesses,
            rc.record_llc_stream,
        );
        engine.set_sampling(rc.sampling);
        engine.set_telemetry(rc.telemetry);
        engine
    };
    let mut first = build();
    assert!(!first.run_steps(at), "split point past the end of the run");
    let bytes = save_engine_bytes(&first);
    let mut second = build();
    restore_engine_bytes(&mut second, &bytes).expect("restore the split run");
    second.run();
    RunResult::from_engine(&mut second)
}

/// The run-paths table, freshly computed.
fn compute_run_paths() -> String {
    let mixes = [
        Mix::homogeneous(Benchmark::Mcf, 4, 1),
        Mix::heterogeneous(&Benchmark::spec_and_gap(), 4, 3),
    ];
    let shapes = run_path_shapes();
    let mut out = format!(
        "# cores=4 span={RUN_PATHS_SPAN}\n\
         # mix/policy/shape core:instructions:cycles:accesses:llc_misses... fnv1a64(RunResult Debug)\n"
    );
    for mix in &mixes {
        for (shape, rc) in &shapes {
            for (label, policy, org) in run_path_policies() {
                let r = run_mix(mix, policy, org, rc);
                out.push_str(&run_path_row(&format!("{}/{label}/{shape}", mix.name), &r));
            }
        }
    }
    let (base_shape, base_rc) = &shapes[0];
    for mix in &mixes {
        out.push_str(&format!("{}/alone/{base_shape}", mix.name));
        for ipc in alone_ipcs(mix, base_rc) {
            out.push_str(&format!(" {ipc:?}"));
        }
        out.push('\n');
    }

    // An external trace of 1 000 records on core 0: the run wraps it.
    let mix = &mixes[1];
    let path = std::env::temp_dir().join(format!(
        "drishti-golden-run-paths-{}.drtr",
        std::process::id()
    ));
    let records = Benchmark::Xalan.build(4).collect(1_000);
    write_trace(&path, "champsim-external", 0, &records).expect("write the external trace");
    let mut cache = TraceCache::new();
    cache.add_file(mix.benchmarks[0], mix.seeds[0], &path);
    for (label, policy, org) in run_path_policies() {
        let r = run_mix_cached(mix, policy, org, base_rc, &cache);
        out.push_str(&run_path_row(
            &format!("{}/{label}/{base_shape}-file1000", mix.name),
            &r,
        ));
    }
    std::fs::remove_file(&path).expect("remove the external trace");

    // Checkpoint seams inside the warm-up, inside a captured stream and
    // inside a sampled schedule.
    let (label, policy, org) = &run_path_policies()[2];
    for (shape, at) in [
        ("warm1500-epoch977", 3_001),
        ("warm0-stream", 9_001),
        ("every300/100-epoch977", 13_001),
    ] {
        let (_, rc) = shapes
            .iter()
            .find(|(s, _)| *s == shape)
            .expect("known shape");
        let r = split_run(mix, *policy, org, rc, at);
        out.push_str(&run_path_row(
            &format!("{}/{label}/{shape}-split{at}", mix.name),
            &r,
        ));
    }
    out
}

/// Pins full, sampled, alone, file-backed and checkpoint-split runs.
#[test]
fn golden_run_paths_match_snapshot() {
    check_snapshot(&compute_run_paths(), RUN_PATHS_SNAPSHOT);
}
