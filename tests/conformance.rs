//! Integration tests for the conformance harness: the four metamorphic
//! relations across every policy × organisation on the fig13 preset
//! mixes, and the full inject → catch → shrink → persist → replay fuzz
//! pipeline (see DESIGN.md §13).

use drishti_core::config::DrishtiConfig;
use drishti_noc::slicehash::XorFoldHash;
use drishti_policies::factory::all_policies;
use drishti_sim::config::SystemConfig;
use drishti_sim::conformance::fuzz::{
    persist_failure, replay_file, run_cell, run_cell_trace, CellOutcome, CellSpec,
};
use drishti_sim::conformance::metamorphic::{
    check_core_permutation, check_pc_relabel, check_slice_permutation, check_warmup_split,
};
use drishti_sim::runner::RunConfig;
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::{paper_mixes, Mix};

const CORES: usize = 4;

fn small_rc() -> RunConfig {
    RunConfig {
        system: SystemConfig::paper_baseline(CORES),
        accesses_per_core: 1_200,
        warmup_accesses: 240,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    }
}

fn mixes() -> Vec<Mix> {
    paper_mixes(CORES, 2, 2)
}

fn orgs() -> [(DrishtiConfig, &'static str); 2] {
    [
        (DrishtiConfig::baseline(CORES), "baseline"),
        (DrishtiConfig::drishti(CORES), "drishti"),
    ]
}

/// Relation 1 — PC relabeling: contracts hold at the engine level for
/// every cell; PC-oblivious policies keep exact LLC-level hit/miss
/// counts.
#[test]
fn pc_relabel_relation_holds_for_every_policy_and_org() {
    let rc = small_rc();
    for mix in &mixes() {
        for policy in all_policies() {
            for (org, org_label) in orgs() {
                check_pc_relabel(mix, policy, org, &rc, 0x5eed_0000 + policy as u64)
                    .unwrap_or_else(|e| panic!("{}/{policy}/{org_label}: {e}", mix.name));
            }
        }
    }
}

/// Relation 3 — slice-hash permutation: contracts hold for every cell;
/// slice-oblivious policies keep exact aggregate hit/miss counts.
#[test]
fn slice_permutation_relation_holds_for_every_policy_and_org() {
    let rc = small_rc();
    let perm: Vec<usize> = vec![2, 0, 3, 1];
    for mix in &mixes() {
        for policy in all_policies() {
            for (org, org_label) in orgs() {
                check_slice_permutation(mix, policy, org, &rc.system.llc, perm.clone(), 400)
                    .unwrap_or_else(|e| panic!("{}/{policy}/{org_label}: {e}", mix.name));
            }
        }
    }
}

/// Relation 2 — core-ID permutation on the homogeneous fig13 mixes:
/// weighted speedup is invariant within tolerance for every cell.
#[test]
fn core_permutation_relation_holds_on_homogeneous_mixes() {
    let rc = small_rc();
    let perm: Vec<usize> = vec![1, 2, 3, 0];
    for mix in mixes().iter().filter(|m| m.is_homogeneous()) {
        for policy in all_policies() {
            for (org, org_label) in orgs() {
                check_core_permutation(mix, policy, org, &rc, &perm, 0.10)
                    .unwrap_or_else(|e| panic!("{}/{policy}/{org_label}: {e}", mix.name));
            }
        }
    }
}

/// Relation 4 — warmup-split composability: a chunked `run_steps` drive
/// is bit-identical to one uninterrupted run for every cell.
#[test]
fn warmup_split_relation_holds_for_every_policy_and_org() {
    let rc = small_rc();
    for mix in &mixes() {
        for policy in all_policies() {
            for (org, org_label) in orgs() {
                check_warmup_split(mix, policy, org, &rc, 997)
                    .unwrap_or_else(|e| panic!("{}/{policy}/{org_label}: {e}", mix.name));
            }
        }
    }
}

/// The CI fuzz configuration (pinned seed, 64 cells) runs clean at a
/// reduced step count — the full count runs in the `ci.sh` smoke gate.
#[test]
fn pinned_seed_fuzz_cells_run_clean() {
    let mut state = 0xd15c0u64;
    for i in 0..64u64 {
        let seed = drishti_sim::conformance::fuzz::splitmix64(&mut state);
        let spec = CellSpec::derive(seed, false);
        match run_cell(&spec, 400) {
            CellOutcome::Pass { .. } => {}
            CellOutcome::Fail(f) => panic!(
                "cell {i} seed {seed:#x} ({}) failed: [{}] {}",
                spec.describe(),
                f.checker,
                f.detail
            ),
        }
    }
}

/// End to end: a seeded contract violation is caught, shrunk to a
/// minimal trace, persisted, and replayed bit-identically from the
/// `.drtr` file.
#[test]
fn seeded_violation_is_caught_shrunk_persisted_and_replayed() {
    let spec = CellSpec::derive(0xbad_c0de, true);
    let nth = spec
        .inject_fill_miscount
        .expect("inject mode arms the sabotage");

    let failure = match run_cell(&spec, 2_000) {
        CellOutcome::Fail(f) => f,
        CellOutcome::Pass { .. } => panic!("sabotaged cell must fail"),
    };
    assert_eq!(failure.checker, "contract");
    assert!(failure.detail.contains("counter-telescoping"));

    // The shrinker reaches the true minimum: the miscount fires at the
    // n-th installed fill, so n distinct-line fills are necessary and
    // sufficient.
    assert_eq!(
        failure.shrunk.len(),
        nth as usize,
        "minimal repro is exactly the {nth} fills the sabotage needs"
    );
    assert!(failure.original_len >= failure.shrunk.len());

    let dir = std::path::Path::new("target/fuzz-conformance-test");
    let path = persist_failure(dir, &failure).expect("persist repro");
    assert_eq!(
        path.file_name().unwrap().to_string_lossy(),
        format!("failure-{}.drtr", spec.seed)
    );

    // Replay from disk: same spec re-derived from the stored seed, same
    // records, and the identical violation — bit-identical reproduction.
    let report = replay_file(&path, true).expect("replay");
    assert_eq!(report.spec, spec);
    assert_eq!(report.records, failure.shrunk);
    let fresh = run_cell_trace(&spec, &failure.shrunk, Box::new(XorFoldHash::new()));
    assert_eq!(report.violation, fresh);
    let v = report.violation.expect("violation reproduces");
    assert_eq!(v.contract, "counter-telescoping");

    // Without the sabotage flag the same file replays clean: the
    // corruption lives in the container hook, not the trace.
    let clean = replay_file(&path, false).expect("clean replay");
    assert_eq!(clean.violation, None);

    std::fs::remove_file(&path).ok();
}

/// Sanity for the relation preconditions: the fig13 presets really do
/// contain both homogeneous and heterogeneous mixes, so every relation
/// above exercised a non-empty cell set.
#[test]
fn fig13_presets_cover_both_mix_shapes() {
    let mixes = mixes();
    assert_eq!(mixes.len(), 4);
    assert!(mixes.iter().any(|m| m.is_homogeneous()));
    assert!(mixes.iter().any(|m| !m.is_homogeneous()));
    for m in &mixes {
        assert_eq!(m.cores(), CORES);
    }
}

/// The probe layer really is wired for the full roster: every policy
/// exposes a probe and a fresh probe snapshot passes its own invariant.
#[test]
fn every_policy_probe_is_clean_on_a_fresh_cell() {
    for policy in all_policies() {
        let spec = CellSpec {
            policy,
            ..CellSpec::derive(1, false)
        };
        match run_cell(&spec, 300) {
            CellOutcome::Pass { .. } => {}
            CellOutcome::Fail(f) => panic!("{policy}: [{}] {}", f.checker, f.detail),
        }
    }
}
