//! Golden-metrics regression test.
//!
//! Pins (IPC, MPKI, weighted speedup) to six decimals for the policy
//! roster on one fixed-seed 4-core mix, against the checked-in snapshot
//! `tests/golden/metrics_4core.txt`. The simulator is deterministic, so
//! any diff here is a *behaviour* change — intended or not — and must be
//! reviewed, not papered over.
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
use drishti::policies::factory::PolicyKind;
use drishti::sim::config::SystemConfig;
use drishti::sim::runner::{alone_ipcs, mix_metrics, run_mix, RunConfig};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::sweep::report::{scenario_coverage_rows, SweepReport};
use drishti::sim::sweep::{JobKind, SweepJob};
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;
use drishti::trace::scenario::datacenter_mix;
use std::path::Path;

const SNAPSHOT: &str = "tests/golden/metrics_4core.txt";
const COVERAGE_SNAPSHOT: &str = "tests/golden/scenario_coverage.txt";

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
