//! Integration tests for crash-resumable simulation (see DESIGN.md §14):
//! the `drishti-ckpt/v5` engine checkpoint restores bit-identically across
//! every policy × organisation, the RefCache conformance contracts keep
//! holding through a save/restore seam, telemetry timelines survive the
//! seam, a checkpoint whose state is shaped for another configuration or
//! whose checksummed sections were altered is a typed error (or, for
//! harmless alterations, a clean resume) and never a panic, and an
//! interrupted journaled sweep resumed with `--resume` produces a
//! byte-identical report.

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
use drishti_trace::{fnv1a64, WorkloadGen};
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

/// The little-endian `u64` at `pos`.
fn u64_at(b: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(b[pos..pos + 8].try_into().unwrap())
}

/// The offset just past a snapshot-codec `Vec` of `elem`-byte elements
/// that starts at `pos` (a `u64` length, then the elements).
fn skip_vec(b: &[u8], pos: usize, elem: usize) -> usize {
    pos + 8 + u64_at(b, pos) as usize * elem
}

/// A checkpoint with valid checksums and config hash whose D-Glider
/// dynamic sampled cache maps every unsampled set of slice 0 to a sampler
/// slot far past the end is refused as an `llc` decode error. Restored,
/// it would panic indexing the samplers on the first access to such a set.
#[test]
fn out_of_range_dsc_slot_is_refused_at_restore() {
    let org = DrishtiConfig::drishti(CORES);
    let mut first = engine(PolicyKind::Glider, org.clone());
    first.run_steps(3_000);
    let bytes = save_engine_bytes(&first);
    let mut policy_tail = StateWriter::new();
    first.llc().policy().save_state(&mut policy_tail);

    let crafted = with_section(&bytes, "llc", |payload| {
        let mut p = payload.to_vec();
        // Glider's state opens with its per-line RRPVs (`Vec<Vec<u8>>`),
        // then its per-slice selectors (a `Vec`). Slice 0's dynamic
        // selector is its tag, the counters (`Vec<u32>`), the phase (tag
        // and count) and then `slot_of` (`Vec<u32>`).
        let mut pos = p.len() - policy_tail.len();
        let slices = u64_at(&p, pos) as usize;
        pos += 8;
        for _ in 0..slices {
            pos = skip_vec(&p, pos, 1);
        }
        pos += 8;
        assert_eq!(p[pos], 1, "slice 0 runs a dynamic selector");
        let slot_of = skip_vec(&p, pos + 1, 4) + 9;
        for set in 0..u64_at(&p, slot_of) as usize {
            let at = slot_of + 8 + 4 * set;
            if p[at..at + 4] == [0; 4] {
                p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }
        }
        p
    });
    let mut second = engine(PolicyKind::Glider, org);
    match restore_engine_bytes(&mut second, &crafted) {
        Err(CkptError::SectionDecode {
            section: "llc",
            detail,
        }) => assert!(detail.contains("dynamic sampled cache"), "{detail}"),
        other => panic!("expected an llc SectionDecode error, got {other:?}"),
    }
}

/// A checkpoint with valid checksums and config hash whose Hawkeye or
/// SHiP++ installer plane, or whose Hawkeye, Mockingjay, Glider or SDBP
/// sampler, names a core past the machine is refused as an `llc` decode
/// error. Restored, the first detrain of such a line, or the next training
/// on such a sampler entry, would index past the predictor banks or the
/// fabric's tiles.
#[test]
fn out_of_range_installer_is_refused_at_restore() {
    // Each input skips the policy's per-slice planes (`Vec<Vec<_>>` of
    // elements of the listed sizes) and then `fixed` bytes to reach its
    // target. Installer targets: Hawkeye's RRPVs; SHiP++'s RRPVs and
    // outcome bits. Sampler targets: Hawkeye's RRPVs and installers;
    // Mockingjay's ETRs, predictions and set clocks; Glider's RRPVs;
    // SDBP's stamps and dead bits, then its clock.
    for (policy, planes, fixed, sampler, what) in [
        (PolicyKind::Hawkeye, &[1][..], 0, false, "llc installer"),
        (PolicyKind::ShipPp, &[1, 1][..], 0, false, "llc installer"),
        (PolicyKind::Hawkeye, &[1, 4][..], 0, true, "sampler entry"),
        (
            PolicyKind::Mockingjay,
            &[1, 1, 1][..],
            0,
            true,
            "sampler entry",
        ),
        (PolicyKind::Glider, &[1][..], 0, true, "sampler entry"),
        (PolicyKind::Sdbp, &[8, 1][..], 8, true, "sampler entry"),
    ] {
        let org = DrishtiConfig::baseline(CORES);
        let mut first = engine(policy, org.clone());
        first.run_steps(3_000);
        let bytes = save_engine_bytes(&first);
        let mut policy_tail = StateWriter::new();
        first.llc().policy().save_state(&mut policy_tail);

        let crafted = with_section(&bytes, "llc", |payload| {
            let mut p = payload.to_vec();
            let mut pos = p.len() - policy_tail.len();
            for &elem in planes {
                let slices = u64_at(&p, pos);
                pos += 8;
                for _ in 0..slices {
                    pos = skip_vec(&p, pos, elem);
                }
            }
            pos += fixed;
            if sampler {
                // Past the baseline's fixed selectors (a 0 tag each), the
                // samplers open with slice 0's first sampled set: its
                // entries `Vec` of (valid u8, tag u32, signature u64, core
                // u32, stamp u64, then the policy's own fields).
                let selectors = skip_vec(&p, pos, 1);
                assert!(p[pos + 8..selectors].iter().all(|&tag| tag == 0));
                let entry = selectors + 24;
                p[entry] = 1;
                p[entry + 13..entry + 17].copy_from_slice(&1000u32.to_le_bytes());
                return p;
            }
            // Slice 0's installers: (key u16, core u16) per line.
            pos += 8;
            for line in 0..u64_at(&p, pos) as usize {
                let at = pos + 8 + 4 * line + 2;
                p[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
            }
            p
        });
        let mut second = engine(policy, org);
        match restore_engine_bytes(&mut second, &crafted) {
            Err(CkptError::SectionDecode {
                section: "llc",
                detail,
            }) => assert!(detail.contains(what), "{policy}: {detail}"),
            other => panic!("{policy}: expected an llc SectionDecode error, got {other:?}"),
        }
    }
}

/// A checkpoint with valid checksums and config hash whose `dram` section
/// puts every bank's backlog at 2^62 cycles, or whose `mesh` section does
/// the same to every link, is refused as a decode error naming the
/// section. Restored, the first accesses would overflow adding the waits.
#[test]
fn oversized_backlog_is_refused_at_restore() {
    const DEBT: u64 = 1 << 62;
    let org = DrishtiConfig::baseline(CORES);
    let mut first = engine(PolicyKind::Lru, org.clone());
    first.run_steps(3_000);
    let bytes = save_engine_bytes(&first);
    // `dram` opens with its banks, a `Vec` per channel of (open row
    // `Option<u64>`, backlog debt, backlog last).
    let dram = with_section(&bytes, "dram", |payload| {
        let mut p = payload.to_vec();
        let mut pos = 8;
        for _ in 0..u64_at(&p, 0) {
            let banks = u64_at(&p, pos);
            pos += 8;
            for _ in 0..banks {
                pos += if p[pos] == 1 { 9 } else { 1 };
                p[pos..pos + 8].copy_from_slice(&DEBT.to_le_bytes());
                pos += 16;
            }
        }
        p
    });
    // `mesh` opens with the single chip's links: a `Vec` of four
    // (backlog debt, backlog last, flits) per tile.
    let mesh = with_section(&bytes, "mesh", |payload| {
        let mut p = payload.to_vec();
        for link in 0..4 * u64_at(&p, 0) as usize {
            let at = 8 + 24 * link;
            p[at..at + 8].copy_from_slice(&DEBT.to_le_bytes());
        }
        p
    });
    for (name, crafted) in [("dram", dram), ("mesh", mesh)] {
        let mut second = engine(PolicyKind::Lru, org.clone());
        match restore_engine_bytes(&mut second, &crafted) {
            Err(CkptError::SectionDecode { section, detail }) if section == name => {
                assert!(detail.contains("backlog debt"), "{detail}")
            }
            other => panic!("expected a {name} SectionDecode error, got {other:?}"),
        }
    }
}

/// A splitmix64 stream for seeded checkpoint mutations.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Overwrite 1–4 bytes of section `name` at a seeded offset with seeded
/// bytes, recompute its checksum, and demand that restoring the result
/// either fails with a typed error or resumes and runs to completion. The
/// offset falls inside the last `tail` bytes of the payload when `pick` is
/// not a multiple of 4 and `tail` is nonzero, anywhere in it otherwise.
fn assert_mutation_never_panics(
    (policy, org, org_label): (PolicyKind, &DrishtiConfig, &str),
    bytes: &[u8],
    name: &str,
    tail: usize,
    next: &mut impl FnMut() -> u64,
) {
    let (pick, width, value) = (next(), 1 + next() as usize % 4, next());
    let crafted = with_section(bytes, name, |payload| {
        let mut p = payload.to_vec();
        let at = if tail > 0 && pick % 4 != 0 {
            p.len() - tail + (pick >> 2) as usize % tail
        } else {
            (pick >> 2) as usize % p.len()
        };
        let end = (at + width).min(p.len());
        p[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
        p
    });
    let outcome = std::panic::catch_unwind(|| {
        let mut second = engine(policy, org.clone());
        if restore_engine_bytes(&mut second, &crafted).is_ok() {
            second.run();
        }
    });
    assert!(
        outcome.is_ok(),
        "{policy}/{org_label}: {name} mutation (pick {pick:#x}, width {width}, value {value:#x}) \
         panicked"
    );
}

/// Seeded mutations of every section with its checksum recomputed: each
/// restore either fails with a typed error or resumes and runs to
/// completion. The `llc` section is mutated for every policy under both
/// organisations, three in four mutations inside the policy's state. The
/// other sections hold no policy state, so two cells cover them.
#[test]
fn checksum_valid_section_mutations_never_panic() {
    const LLC_MUTATIONS: u64 = 6;
    const OTHER_MUTATIONS: u64 = 16;
    let mut next = splitmix64(0xd15c_0c4e);
    for policy in all_policies() {
        for (org, org_label) in orgs() {
            let mut first = engine(policy, org.clone());
            first.run_steps(3_000);
            let bytes = save_engine_bytes(&first);
            let mut policy_tail = StateWriter::new();
            first.llc().policy().save_state(&mut policy_tail);
            drop(first);
            for _ in 0..LLC_MUTATIONS {
                let cell = (policy, &org, org_label);
                let tail = policy_tail.len().max(1);
                assert_mutation_never_panics(cell, &bytes, "llc", tail, &mut next);
            }
        }
    }
    let [(baseline, _), (drishti, _)] = orgs();
    for (policy, org, org_label) in [
        (PolicyKind::Lru, baseline, "baseline"),
        (PolicyKind::Mockingjay, drishti, "drishti"),
    ] {
        let mut first = engine(policy, org.clone());
        first.run_steps(3_000);
        let bytes = save_engine_bytes(&first);
        drop(first);
        for name in ["cores", "dram", "mesh", "sim"] {
            for _ in 0..OTHER_MUTATIONS {
                let cell = (policy, &org, org_label);
                assert_mutation_never_panics(cell, &bytes, name, 0, &mut next);
            }
        }
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
