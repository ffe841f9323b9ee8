//! Integration tests for the parallel sweep harness: exactly-once
//! execution under contention, panic isolation, one-worker batches on the
//! calling thread and worker-count-invariant report bytes (see DESIGN.md
//! §10).

use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::runner::RunConfig;
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::pool::{run_tasks, Task};
use drishti_sim::sweep::report::SweepReport;
use drishti_sim::sweep::{run_sweep, JobKind, SweepJob};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Every task runs exactly once even when many workers fight over a
/// batch much larger than the worker count.
#[test]
fn pool_executes_every_task_exactly_once_under_contention() {
    let executions: Arc<Vec<AtomicUsize>> =
        Arc::new((0..257).map(|_| AtomicUsize::new(0)).collect());
    let tasks: Vec<Task<usize>> = (0..257usize)
        .map(|i| {
            let executions = Arc::clone(&executions);
            Box::new(move || {
                executions[i].fetch_add(1, Ordering::SeqCst);
                // A little busy-work so tasks overlap in time and the
                // stealing paths actually get exercised.
                (0..50).fold(i, |acc, x| acc.wrapping_add(x))
            }) as Task<usize>
        })
        .collect();
    let results = run_tasks(tasks, 8);
    assert_eq!(results.len(), 257);
    for (i, r) in results.iter().enumerate() {
        let expect = (0..50).fold(i, |acc, x| acc.wrapping_add(x));
        assert_eq!(r.as_ref().unwrap(), &expect, "task {i} result");
    }
    for (i, count) in executions.iter().enumerate() {
        assert_eq!(count.load(Ordering::SeqCst), 1, "task {i} execution count");
    }
}

/// A panicking task is isolated: its slot reports the panic message and
/// every other task still completes normally, also when the one worker
/// is the calling thread.
#[test]
fn pool_isolates_and_reports_a_panicking_task() {
    for workers in [1, 4] {
        let tasks: Vec<Task<usize>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("job 7 exploded");
                    }
                    i * 10
                }) as Task<usize>
            })
            .collect();
        let results = run_tasks(tasks, workers);
        for (i, r) in results.iter().enumerate() {
            if i == 7 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("job 7 exploded"), "got: {msg}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i * 10), "{workers} workers");
            }
        }
    }
}

/// The calling thread is worker 0: a one-worker batch spawns no thread, so
/// every task runs (and allocates) on the caller.
#[test]
fn one_worker_runs_every_task_on_the_calling_thread() {
    let caller = std::thread::current().id();
    let tasks: Vec<Task<std::thread::ThreadId>> = (0..12)
        .map(|_| Box::new(|| std::thread::current().id()) as Task<std::thread::ThreadId>)
        .collect();
    for (i, r) in run_tasks(tasks, 1).into_iter().enumerate() {
        assert_eq!(r.unwrap(), caller, "task {i} ran off the calling thread");
    }
}

/// A cell that panics mid-sweep surfaces as a failed cell that names its
/// seed (the reproduction key), while every surrounding cell completes.
#[test]
fn panicking_sweep_cell_fails_alone_and_names_its_seed() {
    let cores = 2;
    let mut jobs = tiny_jobs(cores);
    // Sabotage the middle cell: a mix whose core count disagrees with the
    // system triggers the runner's assertion — a genuine panic deep inside
    // job execution, not a pre-validated error path.
    let bad = 1;
    if let JobKind::Run { mix, .. } = &mut jobs[bad].kind {
        *mix = Mix::homogeneous(Benchmark::Mcf, cores + 1, 99);
    } else {
        panic!("job {bad} should be a Run cell");
    }

    let cache = Arc::new(TraceCache::new());
    let out = run_sweep(&jobs, 2, &cache);

    assert_eq!(out.outputs.len(), jobs.len());
    for (id, r) in out.outputs.iter().enumerate() {
        if id == bad {
            let f = r.as_ref().unwrap_err();
            assert_eq!(f.id, bad);
            assert_eq!(f.seed, jobs[bad].seed, "failure must carry the cell seed");
            assert_eq!(f.label, jobs[bad].label);
            assert!(
                f.message.contains("core mismatch"),
                "panic message should surface, got: {}",
                f.message
            );
            let shown = f.to_string();
            assert!(
                shown.contains(&format!("{:#x}", jobs[bad].seed)),
                "display must name the seed, got: {shown}"
            );
        } else {
            assert!(r.is_ok(), "cell {id} should be unaffected");
        }
    }
    assert_eq!(out.failures().len(), 1);
}

fn tiny_jobs(cores: usize) -> Vec<SweepJob> {
    let rc = RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: 3_000,
        warmup_accesses: 600,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 1);
    let cells = [
        (PolicyKind::Lru, DrishtiConfig::baseline(cores), "baseline"),
        (
            PolicyKind::Mockingjay,
            DrishtiConfig::baseline(cores),
            "baseline",
        ),
        (
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(cores),
            "drishti",
        ),
    ];
    cells
        .into_iter()
        .enumerate()
        .map(|(id, (policy, org, org_label))| SweepJob {
            id,
            label: format!("{}/{}/{org_label}", mix.name, policy.label()),
            seed: SweepJob::derive_seed(id),
            rc: rc.clone(),
            kind: JobKind::Run {
                mix: mix.clone(),
                policy,
                org,
                org_label: org_label.to_string(),
            },
        })
        .collect()
}

/// The serialised report is byte-identical no matter how many workers
/// executed the sweep — the determinism contract CI enforces with a
/// byte-wise diff.
#[test]
fn report_bytes_are_invariant_across_worker_counts() {
    let jobs = tiny_jobs(2);
    let mut reports = Vec::new();
    for workers in [1, 4] {
        let cache = Arc::new(TraceCache::new());
        let outcome = run_sweep(&jobs, workers, &cache);
        assert!(outcome.failures().is_empty());
        reports.push(SweepReport::from_outcome("sweep-test", &jobs, &outcome).to_json_string());
    }
    assert_eq!(
        reports[0], reports[1],
        "report bytes differ between 1 and 4 workers"
    );
    // Cells must come back in job-id order regardless of completion order.
    let order: Vec<usize> = jobs.iter().map(|j| j.id).collect();
    assert_eq!(order, vec![0, 1, 2]);
}
