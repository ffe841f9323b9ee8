//! Experiment harness shared by the per-figure/per-table binaries.
//!
//! Every binary reproduces one table or figure of the Drishti paper (see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for paper-vs-measured
//! results). They share a common protocol:
//!
//! 1. build the paper's workload mixes ([`drishti_trace::mix`]);
//! 2. run each mix under LRU (the baseline), measure per-core alone-IPCs;
//! 3. run each mix under the policies being compared;
//! 4. report weighted speedup normalised to LRU (and the figure's other
//!    metrics).
//!
//! # Scale
//!
//! By default the binaries run *shape-preserving* reduced configurations
//! (fewer mixes, shorter traces, 4/16 cores) so the whole suite finishes in
//! minutes. Pass `--full` for paper-scale mixes (70), core counts
//! (4/16/32) and longer traces; `--mixes N` / `--cores a,b,c` /
//! `--accesses N` override individual knobs.
//!
//! # Parallelism and reports
//!
//! The sweep-driven binaries (`fig13_main_performance`, `table6_metrics`,
//! `fig17_ablation`, `resilience`) execute their cells on the
//! [`drishti_sim::sweep`] harness: `--jobs N` picks the worker count
//! (default: all available cores; results are bit-identical at any
//! width), and every run writes a `drishti-sweep/v1` JSON report plus a
//! timing sidecar to `target/sweep/` (`--report PATH` overrides the
//! destination). The remaining binaries accept and ignore `--jobs` so
//! `all_experiments` can forward one flag set to the whole suite.

use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::metrics::{mean, MixMetrics};
use drishti_sim::runner::{alone_ipcs, mix_metrics, run_mix, RunConfig, RunResult};
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::report::{SweepReport, SweepTiming};
use drishti_sim::sweep::{journal, run_sweep_resumable, JobKind, JobOutput, SweepJob};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::replay::TraceCache;
use std::path::PathBuf;
use std::sync::Arc;

const OPTS_USAGE: &str = "usage: [--full] [--mixes N] [--cores a,b,c] [--accesses N] \
[--jobs N] [--report PATH] [--resume] [--telemetry] [--epoch N] \
[--sample-interval N] [--sample-warmup N]";

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOpts {
    /// Paper-scale run (70 mixes, 4/16/32 cores, long traces).
    pub full: bool,
    /// Number of mixes per configuration.
    pub mixes: usize,
    /// Core counts to evaluate.
    pub cores: Vec<usize>,
    /// Measured accesses per core.
    pub accesses: u64,
    /// Sweep worker threads (0 = all available cores).
    pub jobs: usize,
    /// Report destination override (default: `target/sweep/<name>.json`).
    pub report: Option<PathBuf>,
    /// Resume an interrupted sweep from its `<report>.journal`: journaled
    /// cells are loaded, only the unfinished remainder is simulated. The
    /// final report is byte-identical either way.
    pub resume: bool,
    /// Sample per-epoch telemetry timelines during every run.
    pub telemetry: bool,
    /// Telemetry epoch length in engine steps (0 = library default).
    pub epoch: u64,
    /// Interval-sampling period in records (0 = full simulation).
    pub sample_interval: u64,
    /// Warm records before each detailed window.
    pub sample_warmup: u64,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            full: false,
            mixes: 6,
            cores: vec![4, 16],
            accesses: 80_000,
            jobs: 0,
            report: None,
            resume: false,
            telemetry: false,
            epoch: 0,
            sample_interval: 0,
            sample_warmup: 0,
        }
    }
}

impl ExpOpts {
    /// Parse an argument list. Unknown or malformed arguments are
    /// rejected with an actionable message.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = ExpOpts::default();
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--full" => {
                    opts.full = true;
                    opts.mixes = 70;
                    opts.cores = vec![4, 16, 32];
                    opts.accesses = 400_000;
                    i += 1;
                    continue;
                }
                "--telemetry" => {
                    opts.telemetry = true;
                    i += 1;
                    continue;
                }
                "--resume" => {
                    opts.resume = true;
                    i += 1;
                    continue;
                }
                "--epoch" => {
                    opts.epoch = parse_num(flag, &value(args, i, flag)?)?;
                    opts.telemetry = true; // an explicit epoch implies telemetry
                }
                "--mixes" => {
                    opts.mixes = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--accesses" => {
                    opts.accesses = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--jobs" => {
                    opts.jobs = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--report" => {
                    opts.report = Some(PathBuf::from(value(args, i, flag)?));
                }
                "--sample-interval" => {
                    opts.sample_interval = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--sample-warmup" => {
                    opts.sample_warmup = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--cores" => {
                    opts.cores = value(args, i, flag)?
                        .split(',')
                        .map(|c| parse_num("--cores", c))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 2;
        }
        if opts.mixes == 0 || opts.accesses == 0 {
            return Err("--mixes and --accesses must be at least 1".to_string());
        }
        if opts.cores.is_empty() || opts.cores.contains(&0) {
            return Err("--cores needs at least one nonzero core count".to_string());
        }
        opts.sampling_spec().validate()?;
        Ok(opts)
    }

    /// Parse `std::env::args`, exiting with status 2 (and the usage
    /// string on stderr) on malformed arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExpOpts::parse(&args).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\n{OPTS_USAGE}");
            std::process::exit(2);
        })
    }

    /// The telemetry spec these options describe.
    pub fn telemetry_spec(&self) -> TelemetrySpec {
        if !self.telemetry {
            return TelemetrySpec::off();
        }
        let steps = if self.epoch == 0 {
            drishti_sim::telemetry::DEFAULT_EPOCH_STEPS
        } else {
            self.epoch
        };
        TelemetrySpec::sampling(steps)
    }

    /// The interval-sampling schedule these options describe.
    pub fn sampling_spec(&self) -> SamplingSpec {
        SamplingSpec::every(self.sample_interval, self.sample_warmup)
    }

    /// The run configuration for `cores` cores.
    pub fn rc(&self, cores: usize) -> RunConfig {
        RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: self.accesses,
            warmup_accesses: self.accesses / 4,
            record_llc_stream: false,
            sampling: self.sampling_spec(),
            telemetry: self.telemetry_spec(),
        }
    }

    /// The paper's main mix set scaled to `self.mixes` (half homogeneous,
    /// half heterogeneous, like the paper's 35 + 35).
    pub fn paper_mixes(&self, cores: usize) -> Vec<Mix> {
        drishti_trace::mix::paper_mixes(cores, self.mixes.div_ceil(2), self.mixes / 2)
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag} needs a number, got `{s}`"))
}

/// One evaluated (mix, policy) cell.
#[derive(Debug)]
pub struct Cell {
    /// Name the policy reported.
    pub policy: String,
    /// Weighted speedup normalised to the same mix under LRU, ×100 − 100
    /// (i.e. "% improvement over LRU", the paper's headline metric).
    pub ws_improvement_pct: f64,
    /// The raw run result.
    pub result: RunResult,
    /// Mix metrics against alone-IPC baselines.
    pub metrics: MixMetrics,
}

/// Evaluation of one mix under LRU plus a set of policies.
#[derive(Debug)]
pub struct MixEval {
    /// The mix name.
    pub mix: String,
    /// LRU baseline run.
    pub lru: RunResult,
    /// LRU weighted speedup (the normalisation denominator).
    pub lru_ws: f64,
    /// LRU mix metrics.
    pub lru_metrics: MixMetrics,
    /// Per-policy cells, in the order requested.
    pub cells: Vec<Cell>,
}

/// Run `mix` under LRU and every `(policy, organisation)` pair.
pub fn evaluate_mix(
    mix: &Mix,
    policies: &[(PolicyKind, DrishtiConfig)],
    rc: &RunConfig,
) -> MixEval {
    let alone = alone_ipcs(mix, rc);
    let lru = run_mix(
        mix,
        PolicyKind::Lru,
        DrishtiConfig::baseline(mix.cores()),
        rc,
    );
    let lru_metrics = mix_metrics(&lru, &alone);
    let lru_ws = lru_metrics.weighted_speedup();
    let cells = policies
        .iter()
        .map(|(pk, cfg)| {
            let result = run_mix(mix, *pk, cfg.clone(), rc);
            let metrics = mix_metrics(&result, &alone);
            Cell {
                policy: result.policy.clone(),
                ws_improvement_pct: (metrics.weighted_speedup() / lru_ws - 1.0) * 100.0,
                result,
                metrics,
            }
        })
        .collect();
    MixEval {
        mix: mix.name.clone(),
        lru,
        lru_ws,
        lru_metrics,
        cells,
    }
}

/// Mean % WS improvement per policy across a set of mix evaluations.
pub fn mean_improvements(evals: &[MixEval]) -> Vec<(String, f64)> {
    if evals.is_empty() {
        return Vec::new();
    }
    (0..evals[0].cells.len())
        .map(|p| {
            let vals: Vec<f64> = evals
                .iter()
                .map(|e| e.cells[p].ws_improvement_pct)
                .collect();
            (evals[0].cells[p].policy.clone(), mean(&vals))
        })
        .collect()
}

/// One batch of mixes evaluated under one `(policies, run-config)` pair —
/// e.g. "all 4-core mixes under the headline policies". Binaries hand a
/// list of groups to [`sweep_groups`], which flattens every group into one
/// job batch so cells from *different* core counts also run concurrently.
#[derive(Debug, Clone)]
pub struct MixGroup {
    /// Group label used in report summaries (e.g. `"4c"`).
    pub label: String,
    /// The mixes to evaluate.
    pub mixes: Vec<Mix>,
    /// The `(policy, organisation)` pairs to compare against LRU.
    pub policies: Vec<(PolicyKind, DrishtiConfig)>,
    /// The run configuration shared by the group's cells.
    pub rc: RunConfig,
}

/// One evaluated group: the input mixes paired with their evaluations
/// (same order), ready for figure-specific filtering and averaging.
#[derive(Debug)]
pub struct GroupEval {
    /// The group's label.
    pub label: String,
    /// The group's mixes, in evaluation order.
    pub mixes: Vec<Mix>,
    /// One [`MixEval`] per mix.
    pub evals: Vec<MixEval>,
}

/// A sweep in which one or more cells panicked. The surviving cells are
/// intentionally discarded: a partial figure is worse than a loud failure
/// (CI must go red, not quietly average over the missing cells).
#[derive(Debug)]
pub struct SweepFailed(pub Vec<drishti_sim::sweep::JobFailure>);

impl std::fmt::Display for SweepFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} sweep cell(s) failed:", self.0.len())?;
        for fail in &self.0 {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

/// Per-mix job layout inside a group: alone-IPC baselines, the LRU
/// normalisation run, then one run per compared policy.
const JOBS_PER_MIX_FIXED: usize = 2;

/// Evaluate every group's mixes on the parallel sweep harness.
///
/// Flattens all groups into one dense job batch (per mix: one alone-IPC
/// job, one LRU job, one job per policy), executes it on
/// [`drishti_sim::sweep::run_sweep_resumable`] with `opts.jobs` workers
/// and a shared [`TraceCache`], and aggregates deterministically by job
/// id — output is bit-identical for any worker count. Returns the
/// per-group evaluations plus the enriched [`SweepReport`] (per-cell
/// `ws`/`ws_improvement_pct`, per-group mean-improvement summaries) and
/// the host-side [`SweepTiming`].
pub fn sweep_groups(
    name: &str,
    groups: &[MixGroup],
    opts: &ExpOpts,
) -> Result<(Vec<GroupEval>, SweepReport, SweepTiming), SweepFailed> {
    let mut jobs = Vec::new();
    for group in groups {
        let stride = group.policies.len() + JOBS_PER_MIX_FIXED;
        for mix in &group.mixes {
            let base = jobs.len();
            jobs.push(SweepJob {
                id: base,
                label: format!("{}/alone", mix.name),
                seed: SweepJob::derive_seed(base),
                rc: group.rc.clone(),
                kind: JobKind::AloneIpcs { mix: mix.clone() },
            });
            jobs.push(SweepJob {
                id: base + 1,
                label: format!("{}/lru/baseline", mix.name),
                seed: SweepJob::derive_seed(base + 1),
                rc: group.rc.clone(),
                kind: JobKind::Run {
                    mix: mix.clone(),
                    policy: PolicyKind::Lru,
                    org: DrishtiConfig::baseline(mix.cores()),
                    org_label: "baseline".to_string(),
                },
            });
            for (p, (pk, cfg)) in group.policies.iter().enumerate() {
                jobs.push(SweepJob {
                    id: base + JOBS_PER_MIX_FIXED + p,
                    label: format!("{}/{}/{}", mix.name, pk.label(), cfg.label()),
                    seed: SweepJob::derive_seed(base + JOBS_PER_MIX_FIXED + p),
                    rc: group.rc.clone(),
                    kind: JobKind::Run {
                        mix: mix.clone(),
                        policy: *pk,
                        org: cfg.clone(),
                        org_label: cfg.label(),
                    },
                });
            }
            debug_assert_eq!(jobs.len(), base + stride);
        }
    }

    let cache = Arc::new(TraceCache::new());
    // Every sweep is journaled beside its report: completed cells land in
    // `<report>.journal` as they finish, so a killed run can be picked up
    // with `--resume`. The journal is removed again by [`write_reports`]
    // on clean completion. A journal that exists but belongs to a
    // different job set is a hard refusal (exit 2), not a silent re-run.
    let journal_file = journal::journal_path(&report_path(opts, name));
    let outcome = run_sweep_resumable(&jobs, opts.jobs, &cache, &journal_file, opts.resume)
        .unwrap_or_else(|err| {
            eprintln!(
                "error: cannot resume from {}: {err}",
                journal_file.display()
            );
            std::process::exit(2);
        });
    let timing = SweepTiming::from_outcome(name, &outcome);
    let failures: Vec<_> = outcome.failures().into_iter().cloned().collect();
    if !failures.is_empty() {
        return Err(SweepFailed(failures));
    }
    let mut report = SweepReport::from_outcome(name, &jobs, &outcome);
    report
        .config
        .push(("mixes".to_string(), opts.mixes.to_string()));
    report
        .config
        .push(("accesses".to_string(), opts.accesses.to_string()));
    report.config.push((
        "cores".to_string(),
        groups
            .iter()
            .map(|g| g.rc.system.cores.to_string())
            .collect::<Vec<_>>()
            .join(","),
    ));
    // Sampled runs are not byte-comparable to full runs, so stamp the
    // schedule into the config (only when on — full-run reports keep
    // their historical bytes).
    if opts.sampling_spec().enabled() {
        report.config.push((
            "sample_interval".to_string(),
            opts.sample_interval.to_string(),
        ));
        report
            .config
            .push(("sample_warmup".to_string(), opts.sample_warmup.to_string()));
    }

    // Fold outputs back into per-mix evaluations, enriching the report's
    // cells with the LRU-normalised metrics as we go. Outputs arrive in
    // job-id order, which is exactly construction order.
    let mut outputs = outcome
        .outputs
        .into_iter()
        .map(|o| o.expect("failures handled above"));
    let mut next_id = 0;
    let mut group_evals = Vec::with_capacity(groups.len());
    for group in groups {
        let mut evals = Vec::with_capacity(group.mixes.len());
        for mix in &group.mixes {
            let alone = match outputs.next().expect("alone output") {
                JobOutput::AloneIpcs(a) => a,
                JobOutput::Run(_) => unreachable!("job layout: alone first"),
            };
            let lru = match outputs.next().expect("lru output") {
                JobOutput::Run(r) => *r,
                JobOutput::AloneIpcs(_) => unreachable!("job layout: lru second"),
            };
            let lru_metrics = mix_metrics(&lru, &alone);
            let lru_ws = lru_metrics.weighted_speedup();
            let lru_id = next_id + 1;
            enrich_cell(&mut report, lru_id, lru_ws, 0.0);
            let cells = group
                .policies
                .iter()
                .enumerate()
                .map(|(p, _)| {
                    let result = match outputs.next().expect("policy output") {
                        JobOutput::Run(r) => *r,
                        JobOutput::AloneIpcs(_) => unreachable!("job layout: runs after lru"),
                    };
                    let metrics = mix_metrics(&result, &alone);
                    let ws_improvement_pct = (metrics.weighted_speedup() / lru_ws - 1.0) * 100.0;
                    enrich_cell(
                        &mut report,
                        next_id + JOBS_PER_MIX_FIXED + p,
                        metrics.weighted_speedup(),
                        ws_improvement_pct,
                    );
                    Cell {
                        policy: result.policy.clone(),
                        ws_improvement_pct,
                        result,
                        metrics,
                    }
                })
                .collect();
            next_id += group.policies.len() + JOBS_PER_MIX_FIXED;
            evals.push(MixEval {
                mix: mix.name.clone(),
                lru,
                lru_ws,
                lru_metrics,
                cells,
            });
        }
        // Per-group summary: mean WS improvement per (policy, org) column.
        let pairs = group
            .policies
            .iter()
            .enumerate()
            .map(|(p, (pk, cfg))| {
                let vals: Vec<f64> = evals
                    .iter()
                    .map(|e| e.cells[p].ws_improvement_pct)
                    .collect();
                (format!("{}/{}", pk.label(), cfg.label()), mean(&vals))
            })
            .collect();
        report
            .summary
            .push((format!("mean_ws_improvement_pct/{}", group.label), pairs));
        group_evals.push(GroupEval {
            label: group.label.clone(),
            mixes: group.mixes.clone(),
            evals,
        });
    }
    debug_assert!(outputs.next().is_none(), "all outputs consumed");
    Ok((group_evals, report, timing))
}

fn enrich_cell(report: &mut SweepReport, id: usize, ws: f64, ws_improvement_pct: f64) {
    let cell = report.cell_mut(id).expect("run cell present in report");
    cell.metrics.push(("ws".to_string(), ws));
    cell.metrics
        .push(("ws_improvement_pct".to_string(), ws_improvement_pct));
}

/// The report path a sweep named `name` will write to: `--report` or the
/// default `target/sweep/<name>.json`. The completion journal lives
/// beside it (`<report>.journal`).
pub fn report_path(opts: &ExpOpts, name: &str) -> PathBuf {
    opts.report
        .clone()
        .unwrap_or_else(|| drishti_sim::sweep::report::default_report_path(name))
}

/// Write `report` (and its timing sidecar) to `opts.report` or the
/// default `target/sweep/<name>.json`, and announce both on stderr
/// together with the timing line. A successfully written report marks
/// clean completion, so the sweep's journal (now redundant) is removed.
/// Returns the report path.
pub fn write_reports(
    opts: &ExpOpts,
    report: &SweepReport,
    timing: &SweepTiming,
) -> std::io::Result<PathBuf> {
    let path = report_path(opts, &report.name);
    report.write(&path)?;
    journal::remove_on_success(&path)?;
    // Timeline file names go in the host-dependent timing sidecar so the
    // main report stays byte-comparable with telemetry on or off.
    let mut timing = timing.clone();
    timing.attach_timelines(report, &path);
    let timing_path = timing.write_beside(&path)?;
    eprintln!("{}", timing.line());
    eprintln!(
        "report: {} (timing: {})",
        path.display(),
        timing_path.display()
    );
    Ok(path)
}

/// Run a sweep-driven experiment binary's body and convert sweep
/// failures into a nonzero exit (CI must fail when a cell errors).
pub fn exit_on_sweep_failure<T>(result: Result<T, SweepFailed>) -> T {
    result.unwrap_or_else(|failed| {
        eprintln!("error: {failed}");
        std::process::exit(1);
    })
}

/// The four headline configurations of the paper's main figures:
/// Hawkeye, D-Hawkeye, Mockingjay, D-Mockingjay.
pub fn headline_policies(cores: usize) -> Vec<(PolicyKind, DrishtiConfig)> {
    vec![
        (PolicyKind::Hawkeye, DrishtiConfig::baseline(cores)),
        (PolicyKind::Hawkeye, DrishtiConfig::drishti(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
        (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
    ]
}

/// Print a markdown-style table row.
pub fn row(label: &str, values: &[String]) {
    print!("| {label:<28} |");
    for v in values {
        print!(" {v:>12} |");
    }
    println!();
}

/// Print a markdown-style table header.
pub fn header(label: &str, columns: &[String]) {
    row(label, columns);
    print!("|{}|", "-".repeat(30));
    for _ in columns {
        print!("{}|", "-".repeat(14));
    }
    println!();
}

/// Format a percentage.
pub fn pct(v: f64) -> String {
    format!("{v:+.1}%")
}

/// Format a float.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_trace::presets::Benchmark;

    #[test]
    fn evaluate_mix_smoke() {
        let mix = Mix::homogeneous(Benchmark::Deepsjeng, 4, 1);
        let rc = RunConfig {
            system: SystemConfig::paper_baseline(4),
            accesses_per_core: 3_000,
            warmup_accesses: 500,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        };
        let eval = evaluate_mix(
            &mix,
            &[(PolicyKind::Srrip, DrishtiConfig::baseline(4))],
            &rc,
        );
        assert_eq!(eval.cells.len(), 1);
        assert!(eval.lru_ws > 0.0);
        assert!(eval.cells[0].ws_improvement_pct.is_finite());
        let means = mean_improvements(&[eval]);
        assert_eq!(means.len(), 1);
        assert_eq!(means[0].0, "srrip");
    }

    #[test]
    fn headline_policies_are_four() {
        let hp = headline_policies(4);
        assert_eq!(hp.len(), 4);
    }
}
