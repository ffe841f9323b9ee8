//! Integration tests for crash-resumable simulation (see DESIGN.md §14):
//! the `drishti-ckpt/v2` engine checkpoint restores bit-identically across
//! every policy × organisation, the RefCache conformance contracts keep
//! holding through a save/restore seam, telemetry timelines survive the
//! seam, a checkpoint whose state is shaped for another configuration is
//! a typed error, and an interrupted journaled sweep resumed with
//! `--resume` produces a byte-identical report.

use drishti_core::config::DrishtiConfig;
use drishti_noc::snap::StateWriter;
use drishti_policies::factory::{all_policies, PolicyKind};
use drishti_sim::ckpt::{restore_engine_bytes, save_engine_bytes, CkptError};
use drishti_sim::config::SystemConfig;
use drishti_sim::conformance::refcache::RefCache;
use drishti_sim::engine::Engine;
use drishti_sim::runner::RunConfig;
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::report::SweepReport;
use drishti_sim::sweep::{run_sweep_resumable, JobKind, SweepJob};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::WorkloadGen;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const CORES: usize = 4;
const ACCESSES: u64 = 2_000;
const WARMUP: u64 = 200;

fn orgs() -> [(DrishtiConfig, &'static str); 2] {
    [
        (DrishtiConfig::baseline(CORES), "baseline"),
        (DrishtiConfig::drishti(CORES), "drishti"),
    ]
}

fn engine(policy: PolicyKind, org: DrishtiConfig) -> Engine {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 9);
    let cfg = SystemConfig::paper_baseline(CORES);
    let workloads = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    let pol = policy.build(&cfg.llc, org);
    Engine::new(cfg, workloads, pol, ACCESSES, WARMUP, false)
}

/// A scratch file under the OS temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(std::env::temp_dir().join(format!("drishti-ckpt-it-{}-{tag}", std::process::id())))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The headline resume contract, exhaustively: for every policy under both
/// organisations, `run(N)` equals `run(k); save; restore; run(N − k)` on
/// the per-core results and the LLC/DRAM aggregates.
#[test]
fn split_run_is_bit_identical_for_every_policy_and_org() {
    for policy in all_policies() {
        for (org, org_label) in orgs() {
            let mut whole = engine(policy, org.clone());
            let expect = whole.run();

            let mut first = engine(policy, org.clone());
            first.run_steps(3_000);
            let bytes = save_engine_bytes(&first);
            drop(first);

            let mut second = engine(policy, org);
            restore_engine_bytes(&mut second, &bytes)
                .unwrap_or_else(|e| panic!("{policy}/{org_label}: restore failed: {e}"));
            assert_eq!(
                second.run(),
                expect,
                "{policy}/{org_label}: split run diverged from uninterrupted run"
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The split point carries no information: any checkpoint step k
    /// (including before warm-up completes and after cores finish) resumes
    /// bit-identically for a randomly drawn policy × organisation cell.
    #[test]
    fn any_split_point_resumes_bit_identically(
        k in 1u64..12_000,
        pol_idx in 0usize..all_policies().len(),
        drishti_org in any::<bool>(),
    ) {
        let policy = all_policies()[pol_idx];
        let org = if drishti_org {
            DrishtiConfig::drishti(CORES)
        } else {
            DrishtiConfig::baseline(CORES)
        };
        let mut whole = engine(policy, org.clone());
        let expect = whole.run();

        let mut first = engine(policy, org.clone());
        first.run_steps(k);
        let bytes = save_engine_bytes(&first);
        let mut second = engine(policy, org);
        restore_engine_bytes(&mut second, &bytes).unwrap();
        prop_assert_eq!(second.run(), expect);
    }
}

/// Telemetry timelines are engine state: an epoch sampler interrupted
/// mid-epoch must resume with its partial deltas intact, so the split
/// run's timeline equals the uninterrupted one record-for-record.
#[test]
fn telemetry_timeline_survives_the_seam() {
    let spec = TelemetrySpec::sampling(700);
    let mut whole = engine(PolicyKind::Mockingjay, DrishtiConfig::drishti(CORES));
    whole.set_telemetry(spec);
    let expect_results = whole.run();
    let expect_timeline = whole.take_timeline().expect("telemetry was on");

    let mut first = engine(PolicyKind::Mockingjay, DrishtiConfig::drishti(CORES));
    first.set_telemetry(spec);
    // 3_100 is deliberately not a multiple of the epoch length: the saved
    // sampler is mid-epoch.
    first.run_steps(3_100);
    let bytes = save_engine_bytes(&first);

    let mut second = engine(PolicyKind::Mockingjay, DrishtiConfig::drishti(CORES));
    second.set_telemetry(spec);
    restore_engine_bytes(&mut second, &bytes).unwrap();
    assert_eq!(second.run(), expect_results);
    assert_eq!(
        second.take_timeline().expect("telemetry was on"),
        expect_timeline
    );
}

/// The RefCache shadow checker re-derives set-associative residency from
/// first principles on every event. Carrying one checker across a
/// save/restore seam proves the restored container is *semantically* the
/// saved one — every post-restore lookup and fill still agrees with the
/// shadow built before the seam.
#[test]
fn refcache_contracts_hold_across_a_save_restore_seam() {
    let geom = SystemConfig::paper_baseline(CORES).llc;
    let mut first = engine(PolicyKind::Hawkeye, DrishtiConfig::drishti(CORES));
    first.set_llc_observer(Box::new(RefCache::new(&geom)));
    first.run_steps(3_000);
    let bytes = save_engine_bytes(&first);
    let shadow = first.take_llc_observer().expect("observer was installed");

    let mut second = engine(PolicyKind::Hawkeye, DrishtiConfig::drishti(CORES));
    restore_engine_bytes(&mut second, &bytes).unwrap();
    second.set_llc_observer(shadow);
    second.run();
    let shadow = second.take_llc_observer().expect("observer was installed");
    let rc = shadow
        .as_any()
        .downcast_ref::<RefCache>()
        .expect("RefCache observer");
    assert!(
        rc.events() > 0,
        "the checker observed nothing — the seam test is vacuous"
    );
    if let Some(v) = rc.violation() {
        panic!("conformance contract broken across the seam: {v}");
    }
}

/// FNV-1a 64, the container's section checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rebuild a checkpoint with the payload of section `name` rewritten by
/// `edit` and its checksum recomputed, so only the decoder can object.
fn with_section(bytes: &[u8], name: &str, edit: impl Fn(&[u8]) -> Vec<u8>) -> Vec<u8> {
    // Header: magic (8) + version (4) + config hash (8) + section count (4).
    let mut out = bytes[..24].to_vec();
    let mut pos = 24;
    while pos < bytes.len() {
        let name_len = u16::from_le_bytes(bytes[pos..pos + 2].try_into().unwrap()) as usize;
        let len_at = pos + 2 + name_len;
        let payload_len =
            u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
        let payload = &bytes[len_at + 16..len_at + 16 + payload_len];
        out.extend_from_slice(&bytes[pos..len_at]);
        let payload = if &bytes[pos + 2..len_at] == name.as_bytes() {
            edit(payload)
        } else {
            payload.to_vec()
        };
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        pos = len_at + 16 + payload_len;
    }
    out
}

/// A checkpoint with valid checksums and config hash whose SRRIP `PerLine`
/// table claims zero slices is refused as an `llc` decode error: the codec
/// holds every configured table to its live length, so such a file cannot
/// restore and then panic mid-run indexing the empty table.
#[test]
fn mis_shaped_policy_table_is_refused_at_restore() {
    let org = DrishtiConfig::baseline(CORES);
    let mut first = engine(PolicyKind::Srrip, org.clone());
    first.run_steps(3_000);
    let bytes = save_engine_bytes(&first);
    let mut policy_tail = StateWriter::new();
    first.llc().policy().save_state(&mut policy_tail);

    let crafted = with_section(&bytes, "llc", |payload| {
        let mut p = payload[..payload.len() - policy_tail.len()].to_vec();
        p.extend_from_slice(&0u64.to_le_bytes());
        p
    });
    let mut second = engine(PolicyKind::Srrip, org);
    match restore_engine_bytes(&mut second, &crafted) {
        Err(CkptError::SectionDecode { section: "llc", .. }) => {}
        other => panic!("expected an llc SectionDecode error, got {other:?}"),
    }
}

fn sweep_jobs() -> Vec<SweepJob> {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), CORES, 5);
    let rc = RunConfig {
        system: SystemConfig::paper_baseline(CORES),
        accesses_per_core: 1_200,
        warmup_accesses: 240,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Mockingjay]
        .into_iter()
        .enumerate()
        .map(|(id, policy)| SweepJob {
            id,
            label: format!("{}/{policy}/baseline", mix.name),
            seed: 5,
            rc: rc.clone(),
            kind: JobKind::Run {
                mix: mix.clone(),
                policy,
                org: DrishtiConfig::baseline(CORES),
                org_label: "baseline".to_string(),
            },
        })
        .collect()
}

/// The sweep-level acceptance criterion: kill a journaled sweep after one
/// cell, resume it, and the final report is byte-identical to the report
/// of a sweep that was never interrupted.
#[test]
fn resumed_sweep_report_is_byte_identical() {
    let jobs = sweep_jobs();
    let cache = Arc::new(TraceCache::new());

    // The uninterrupted reference run.
    let full_journal = TempFile::new("full.journal");
    let outcome = run_sweep_resumable(&jobs, 2, &cache, &full_journal.0, false).unwrap();
    assert!(outcome.failures().is_empty());
    let reference = SweepReport::from_outcome("ckpt-it", &jobs, &outcome).to_json_string();

    // Simulate a crash after the first journal entry: truncate a complete
    // journal down to its header plus entry 0 (header = 28 bytes; entry =
    // 24-byte preamble whose second word is the payload length).
    let crashed = TempFile::new("crashed.journal");
    let bytes = std::fs::read(&full_journal.0).unwrap();
    let payload_len = u64::from_le_bytes(bytes[36..44].try_into().unwrap()) as usize;
    std::fs::write(&crashed.0, &bytes[..28 + 24 + payload_len]).unwrap();

    let resumed = run_sweep_resumable(&jobs, 2, &cache, &crashed.0, true).unwrap();
    assert_eq!(
        resumed.resumed_cells, 1,
        "exactly one cell came from the journal"
    );
    assert!(resumed.failures().is_empty());
    let report = SweepReport::from_outcome("ckpt-it", &jobs, &resumed).to_json_string();
    assert_eq!(
        report, reference,
        "resumed report differs from uninterrupted report"
    );
}
