//! The parallel sweep harness.
//!
//! Every figure and table of the paper reproduction is a sweep over
//! independent `(mix × policy × organisation)` simulation cells — an
//! embarrassingly parallel batch. This module turns that batch into
//! [`SweepJob`]s executed on a std-only work-stealing [`pool`], with three
//! guarantees (see DESIGN.md §10):
//!
//! 1. **Deterministic aggregation.** Results come back keyed and ordered
//!    by job id, and every job carries its own seed and full
//!    configuration; nothing reads shared mutable state. A `--jobs 1`
//!    sweep is therefore bit-identical to a `--jobs 16` sweep, and CI
//!    enforces this with a byte-wise `diff` of the two reports.
//! 2. **Shared trace cache.** Each synthetic workload is materialised
//!    once, encoded, behind an `Arc`
//!    ([`drishti_trace::replay::TraceCache`]) and replayed by every cell
//!    that uses it, instead of being regenerated per cell.
//! 3. **Structured results.** [`report::SweepReport`] serialises per-cell
//!    metrics to `target/sweep/*.json` for CI artifacts and trajectory
//!    tracking; the host-dependent timing line
//!    ([`report::SweepTiming`]) goes to a `*.timing.json` sidecar so the
//!    main report stays byte-comparable across hosts and worker counts.

pub mod journal;
pub mod json;
pub mod pool;
pub mod report;

use crate::runner::{alone_ipcs_cached, run_mix_cached, RunConfig, RunResult};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_trace::mix::Mix;
use drishti_trace::replay::TraceCache;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What one sweep cell simulates.
// One value per sweep cell, built once and then only borrowed; boxing the
// config to shrink the variant would cost an allocation per cell for no
// measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum JobKind {
    /// One full `(mix, policy, organisation)` simulation.
    Run {
        /// The workload mix.
        mix: Mix,
        /// The replacement policy under test.
        policy: PolicyKind,
        /// The predictor organisation (baseline, drishti, ablations).
        org: DrishtiConfig,
        /// Human-readable organisation label for the report.
        org_label: String,
    },
    /// The per-core `IPC_alone` baselines of a mix (each core run by
    /// itself under LRU).
    AloneIpcs {
        /// The workload mix.
        mix: Mix,
    },
}

/// One schedulable cell of a sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Dense job id; results are keyed and ordered by it.
    pub id: usize,
    /// Display label, e.g. `"homo-00-mcf/mockingjay/drishti"`.
    pub label: String,
    /// The job's private randomness root. Every source of per-cell
    /// variation (mix seeds, fault seeds) is either fixed in the job's
    /// configuration or derived from this value, never from shared state —
    /// that independence is what makes aggregation order-free.
    pub seed: u64,
    /// The run configuration (system, access counts).
    pub rc: RunConfig,
    /// What to simulate.
    pub kind: JobKind,
}

impl SweepJob {
    /// A deterministic per-job seed: splitmix64 of the job id, so ids
    /// that differ by one get statistically independent streams.
    pub fn derive_seed(id: usize) -> u64 {
        let mut z = (id as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn execute(self, cache: &TraceCache) -> JobOutput {
        match self.kind {
            JobKind::Run {
                mix, policy, org, ..
            } => JobOutput::Run(Box::new(run_mix_cached(&mix, policy, org, &self.rc, cache))),
            JobKind::AloneIpcs { mix } => {
                JobOutput::AloneIpcs(alone_ipcs_cached(&mix, &self.rc, cache))
            }
        }
    }
}

/// What a completed cell produced.
#[derive(Debug)]
pub enum JobOutput {
    /// A full simulation result.
    Run(Box<RunResult>),
    /// Per-core alone-IPC baselines.
    AloneIpcs(Vec<f64>),
}

impl JobOutput {
    /// The run result, when this output is one.
    ///
    /// # Panics
    ///
    /// Panics when the output is an alone-IPC vector.
    pub fn unwrap_run(&self) -> &RunResult {
        match self {
            JobOutput::Run(r) => r,
            JobOutput::AloneIpcs(_) => panic!("expected a Run output"),
        }
    }

    /// The alone-IPC vector, when this output is one.
    ///
    /// # Panics
    ///
    /// Panics when the output is a run result.
    pub fn unwrap_alone(&self) -> &[f64] {
        match self {
            JobOutput::AloneIpcs(a) => a,
            JobOutput::Run(_) => panic!("expected an AloneIpcs output"),
        }
    }
}

/// A cell that panicked instead of completing.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The failed job's id.
    pub id: usize,
    /// The failed job's label.
    pub label: String,
    /// The failed job's seed — the reproduction key, so a panic report
    /// alone is enough to re-run the cell.
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({}, seed {:#x}): {}",
            self.id, self.label, self.seed, self.message
        )
    }
}

/// Everything a sweep produced: per-job outputs in job-id order, isolated
/// failures, and host-side timing.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One entry per job, ordered by job id; `Err` for panicked cells.
    pub outputs: Vec<Result<JobOutput, JobFailure>>,
    /// Worker threads actually used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Trace-cache `(hits, misses)` accumulated by the batch.
    pub cache_stats: (u64, u64),
    /// Cells taken from a completion journal instead of simulated
    /// (always 0 for a plain, non-resumable sweep).
    pub resumed_cells: usize,
    /// Journal append failures. Nonzero means journaling degraded to
    /// plain execution partway through: results are still complete and
    /// correct, but a crash after the failure would re-run more cells.
    pub ckpt_write_failures: u64,
    /// Always `(0, 0)`: every cell simulates its own warm-up, and no
    /// checkpoint is shared between cells. The field stays only because
    /// `drishti-benchmark` reads it as `sweep.warm_ckpt_misses`; remove
    /// the two together.
    pub warm_stats: (u64, u64),
}

impl SweepOutcome {
    /// All failures, in job-id order.
    pub fn failures(&self) -> Vec<&JobFailure> {
        self.outputs
            .iter()
            .filter_map(|o| o.as_ref().err())
            .collect()
    }

    /// Completed cells per wall-clock second.
    pub fn cells_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.outputs.len() as f64 / s
        } else {
            0.0
        }
    }
}

/// The worker count to use when the caller passes `0` ("auto"): the
/// host's available parallelism.
pub fn auto_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Execute `jobs` on `workers` threads (0 = [`auto_workers`]) sharing
/// `cache`, and aggregate results in job-id order. The jobs are borrowed
/// so callers can keep them for report assembly.
///
/// # Panics
///
/// Panics if job ids are not dense `0..jobs.len()` — deterministic
/// aggregation keys on them.
pub fn run_sweep(jobs: &[SweepJob], workers: usize, cache: &Arc<TraceCache>) -> SweepOutcome {
    run_pending(jobs, workers, cache, Vec::new(), None, 0)
}

/// [`run_sweep`] with crash resumability: completed cells are appended to
/// the journal at `journal_file` as they finish, and when `resume` is set
/// and the journal exists, its cells are loaded instead of re-simulated.
/// The merged outcome is bit-identical to an uninterrupted run — resumed
/// or fresh, a cell's output depends only on its own job description.
/// Cells run exactly as under [`run_sweep`]; only the journal differs.
///
/// Journal I/O failures never fail the sweep: a journal that cannot be
/// created or appended to degrades to plain execution, counted in
/// [`SweepOutcome::ckpt_write_failures`]. Only a *present but unusable*
/// journal under `resume` (foreign job set, bad header) is a hard error —
/// silently re-running everything would hide exactly the state the user
/// asked to keep.
///
/// # Panics
///
/// Panics if job ids are not dense `0..jobs.len()`.
pub fn run_sweep_resumable(
    jobs: &[SweepJob],
    workers: usize,
    cache: &Arc<TraceCache>,
    journal_file: &Path,
    resume: bool,
) -> Result<SweepOutcome, journal::JournalError> {
    let hash = journal::jobs_hash(jobs);
    let count = jobs.len() as u64;
    let (done, writer) = if resume && journal_file.exists() {
        let done = journal::read_journal(journal_file, hash, count)?;
        let writer = journal::JournalWriter::open_append(journal_file, hash, count);
        (done, writer)
    } else {
        let writer = journal::JournalWriter::create(journal_file, hash, count);
        (Vec::new(), writer)
    };
    let failed = u64::from(writer.is_err());
    Ok(run_pending(jobs, workers, cache, done, writer.ok(), failed))
}

/// The executor behind both sweeps: take the `resumed` outputs as done,
/// run every other job, append each completed one to `journal` (when
/// there is one), and merge all outputs in job-id order. `write_failures`
/// counts journal failures that happened before execution.
fn run_pending(
    jobs: &[SweepJob],
    workers: usize,
    cache: &Arc<TraceCache>,
    resumed: Vec<(usize, JobOutput)>,
    journal: Option<journal::JournalWriter>,
    write_failures: u64,
) -> SweepOutcome {
    for (i, j) in jobs.iter().enumerate() {
        assert_eq!(i, j.id, "job ids must be dense and ordered");
    }
    let workers = if workers == 0 {
        auto_workers()
    } else {
        workers
    };
    let mut done: Vec<Option<JobOutput>> = (0..jobs.len()).map(|_| None).collect();
    for (id, output) in resumed {
        done[id] = Some(output); // duplicates keep the latest entry
    }
    let resumed_cells = done.iter().filter(|d| d.is_some()).count();
    let pending: Vec<usize> = (0..jobs.len()).filter(|&id| done[id].is_none()).collect();
    let journal = Arc::new(Mutex::new(journal));
    let write_failures = Arc::new(AtomicU64::new(write_failures));
    let cache_before = cache.stats();

    let start = Instant::now();
    let tasks: Vec<pool::Task<JobOutput>> = pending
        .iter()
        .map(|&id| {
            let job = jobs[id].clone();
            let cache = Arc::clone(cache);
            let journal = Arc::clone(&journal);
            let write_failures = Arc::clone(&write_failures);
            Box::new(move || {
                let output = job.execute(&cache);
                // Journal only *completed* cells: a panicking cell never
                // reaches this append, so resume re-runs it.
                let mut guard = journal.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(w) = guard.as_mut() {
                    if w.append(id, &output).is_err() {
                        // Degrade to journal-less execution: the sweep's
                        // results do not depend on the journal.
                        write_failures.fetch_add(1, Ordering::Relaxed);
                        *guard = None;
                    }
                }
                drop(guard);
                output
            }) as pool::Task<JobOutput>
        })
        .collect();
    let raw = pool::run_tasks(tasks, workers);
    let wall = start.elapsed();
    let cache_after = cache.stats();

    let mut outputs: Vec<Option<Result<JobOutput, JobFailure>>> =
        done.into_iter().map(|d| d.map(Ok)).collect();
    for (&id, result) in pending.iter().zip(raw) {
        outputs[id] = Some(result.map_err(|message| JobFailure {
            id,
            label: jobs[id].label.clone(),
            seed: jobs[id].seed,
            message,
        }));
    }
    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("every cell is either resumed or scheduled"))
        .collect();

    SweepOutcome {
        outputs,
        workers,
        wall,
        cache_stats: (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
        ),
        resumed_cells,
        ckpt_write_failures: write_failures.load(Ordering::Relaxed),
        warm_stats: (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::sampling::SamplingSpec;
    use crate::telemetry::TelemetrySpec;
    use drishti_trace::presets::Benchmark;

    fn tiny_rc(cores: usize) -> RunConfig {
        RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: 2_000,
            warmup_accesses: 400,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        }
    }

    fn tiny_jobs() -> Vec<SweepJob> {
        let mix = Mix::homogeneous(Benchmark::Gcc, 4, 1);
        let mut jobs = vec![SweepJob {
            id: 0,
            label: format!("{}/alone", mix.name),
            seed: SweepJob::derive_seed(0),
            rc: tiny_rc(4),
            kind: JobKind::AloneIpcs { mix: mix.clone() },
        }];
        for (i, policy) in [PolicyKind::Lru, PolicyKind::Srrip].into_iter().enumerate() {
            jobs.push(SweepJob {
                id: 1 + i,
                label: format!("{}/{}", mix.name, policy.label()),
                seed: SweepJob::derive_seed(1 + i),
                rc: tiny_rc(4),
                kind: JobKind::Run {
                    mix: mix.clone(),
                    policy,
                    org: DrishtiConfig::baseline(4),
                    org_label: "baseline".to_string(),
                },
            });
        }
        jobs
    }

    #[test]
    fn sweep_runs_all_cells_and_orders_outputs() {
        let cache = Arc::new(TraceCache::new());
        let out = run_sweep(&tiny_jobs(), 2, &cache);
        assert_eq!(out.outputs.len(), 3);
        assert!(out.failures().is_empty());
        assert_eq!(out.outputs[0].as_ref().unwrap().unwrap_alone().len(), 4);
        assert_eq!(out.outputs[1].as_ref().unwrap().unwrap_run().policy, "lru");
        assert_eq!(
            out.outputs[2].as_ref().unwrap().unwrap_run().policy,
            "srrip"
        );
        // 3 cells × 4 cores touch the same 4 (bench, seed) traces. Two
        // cells racing on the same key may both count a miss (the first
        // insert wins, see TraceCache::encoded), so `misses` is a lower bound
        // of 4, not an exact count — only the total is exact.
        let (hits, misses) = out.cache_stats;
        assert_eq!(hits + misses, 12);
        assert!((4..=8).contains(&misses), "misses = {misses}");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let cache1 = Arc::new(TraceCache::new());
        let cache4 = Arc::new(TraceCache::new());
        let a = run_sweep(&tiny_jobs(), 1, &cache1);
        let b = run_sweep(&tiny_jobs(), 4, &cache4);
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            match (x, y) {
                (JobOutput::AloneIpcs(p), JobOutput::AloneIpcs(q)) => assert_eq!(p, q),
                (JobOutput::Run(p), JobOutput::Run(q)) => {
                    assert_eq!(p.per_core, q.per_core);
                    assert_eq!(p.diagnostics, q.diagnostics);
                }
                _ => panic!("output kinds diverged"),
            }
        }
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(SweepJob::derive_seed(3), SweepJob::derive_seed(3));
        assert_ne!(SweepJob::derive_seed(3), SweepJob::derive_seed(4));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_job_ids_rejected() {
        let mut jobs = tiny_jobs();
        jobs[2].id = 9;
        let cache = Arc::new(TraceCache::new());
        let _ = run_sweep(&jobs, 1, &cache);
    }

    fn tmp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("drishti-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn output_fingerprints(out: &SweepOutcome) -> Vec<String> {
        out.outputs
            .iter()
            .map(|o| format!("{:?}", o.as_ref().unwrap()))
            .collect()
    }

    #[test]
    fn resumable_sweep_matches_plain_sweep() {
        let path = tmp_journal("plain_vs_resumable.journal");
        let jobs = tiny_jobs();
        let plain = run_sweep(&jobs, 2, &Arc::new(TraceCache::new()));
        let resumable =
            run_sweep_resumable(&jobs, 2, &Arc::new(TraceCache::new()), &path, false).unwrap();
        for out in [&plain, &resumable] {
            assert_eq!((out.resumed_cells, out.ckpt_write_failures), (0, 0));
        }
        assert_eq!(output_fingerprints(&plain), output_fingerprints(&resumable));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_reruns_only_unjournaled_cells_bit_identically() {
        let path = tmp_journal("partial_resume.journal");
        let jobs = tiny_jobs();
        let cache = Arc::new(TraceCache::new());
        let full = run_sweep_resumable(&jobs, 1, &cache, &path, false).unwrap();
        assert!(full.failures().is_empty());

        // Simulate a crash after two cells: rebuild the journal with only
        // the first two completed entries.
        let hash = journal::jobs_hash(&jobs);
        let entries = journal::read_journal(&path, hash, jobs.len() as u64).unwrap();
        assert_eq!(entries.len(), jobs.len());
        let mut w = journal::JournalWriter::create(&path, hash, jobs.len() as u64).unwrap();
        for (id, output) in entries.iter().take(2) {
            w.append(*id, output).unwrap();
        }
        drop(w);

        let resumed = run_sweep_resumable(&jobs, 1, &cache, &path, true).unwrap();
        assert_eq!(resumed.resumed_cells, 2);
        assert_eq!(output_fingerprints(&full), output_fingerprints(&resumed));
        // The re-run third cell was journaled again: the journal is whole.
        assert_eq!(
            journal::read_journal(&path, hash, jobs.len() as u64)
                .unwrap()
                .len(),
            jobs.len()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn identical_cells_give_identical_outputs() {
        let path = tmp_journal("identical_cells.journal");
        let mix = Mix::homogeneous(Benchmark::Gcc, 4, 1);
        // Two cells with identical (mix, policy, org, rc): each simulates
        // its own warm-up, and nothing is shared between them.
        let jobs: Vec<SweepJob> = (0..2)
            .map(|id| SweepJob {
                id,
                label: format!("dup-{id}/srrip/baseline"),
                seed: SweepJob::derive_seed(id),
                rc: tiny_rc(4),
                kind: JobKind::Run {
                    mix: mix.clone(),
                    policy: PolicyKind::Srrip,
                    org: DrishtiConfig::baseline(4),
                    org_label: "baseline".to_string(),
                },
            })
            .collect();
        let out =
            run_sweep_resumable(&jobs, 1, &Arc::new(TraceCache::new()), &path, false).unwrap();
        assert_eq!(out.warm_stats, (0, 0));
        let fp = output_fingerprints(&out);
        assert_eq!(fp[0], fp[1], "identical cells must give identical outputs");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panicked_cell_fails_the_resumable_sweep_and_is_not_journaled() {
        let path = tmp_journal("panic_cell.journal");
        let mut jobs = tiny_jobs();
        // Core-count mismatch between mix and system panics inside the run.
        if let JobKind::Run { mix, .. } = &mut jobs[2].kind {
            *mix = Mix::homogeneous(Benchmark::Gcc, 2, 1);
        }
        let out =
            run_sweep_resumable(&jobs, 2, &Arc::new(TraceCache::new()), &path, false).unwrap();
        assert_eq!(out.failures().len(), 1);
        assert_eq!(out.failures()[0].id, 2);
        // The failed cell must not be in the journal; the good cells are.
        let entries =
            journal::read_journal(&path, journal::jobs_hash(&jobs), jobs.len() as u64).unwrap();
        let ids: Vec<usize> = entries.iter().map(|(id, _)| *id).collect();
        assert!(!ids.contains(&2));
        assert_eq!(ids.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_journal_is_refused_under_resume() {
        let path = tmp_journal("foreign.journal");
        let jobs = tiny_jobs();
        journal::JournalWriter::create(&path, 0xdead_beef, jobs.len() as u64).unwrap();
        let err =
            run_sweep_resumable(&jobs, 1, &Arc::new(TraceCache::new()), &path, true).unwrap_err();
        assert!(matches!(err, journal::JournalError::JobSetMismatch { .. }));
        std::fs::remove_file(&path).unwrap();
    }
}
