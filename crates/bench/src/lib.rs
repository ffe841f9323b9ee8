//! Experiment harness shared by the per-figure/per-table binaries.
//!
//! Every binary reproduces one table or figure of the Drishti paper (see
//! DESIGN.md §4 for the index and EXPERIMENTS.md for paper-vs-measured
//! results) and is one [`Figure`] of the [`figures`] registry. They share
//! a common protocol:
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
//! # One sweep per run
//!
//! [`run`] evaluates the union of the requested figures' groups as one
//! [`sweep_groups`] call, which simulates each distinct cell once however
//! many figures read it. `--jobs N` picks the worker count (default: all
//! available cores; results are bit-identical at any width), `--resume`
//! picks up a killed run from its journal, and one `drishti-sweep/v1`
//! report plus a timing sidecar lands in `target/sweep/` (`--report PATH`
//! overrides the destination).

pub mod figures;

use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::metrics::{mean, MixMetrics};
use drishti_sim::runner::{mix_metrics, RunConfig, RunResult};
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::report::{SweepReport, SweepTiming};
use drishti_sim::sweep::{journal, run_sweep_resumable};
use drishti_sim::sweep::{JobKind, JobOutput, SweepJob, SweepOutcome};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::replay::TraceCache;
use std::collections::HashMap;
use std::ops::Range;
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
    /// The raw run result, shared by every group that planned this cell.
    pub result: Arc<RunResult>,
    /// Mix metrics against alone-IPC baselines.
    pub metrics: MixMetrics,
}

/// Evaluation of one mix under LRU plus a set of policies.
#[derive(Debug)]
pub struct MixEval {
    /// The mix name.
    pub mix: String,
    /// LRU baseline run.
    pub lru: Arc<RunResult>,
    /// LRU weighted speedup (the normalisation denominator).
    pub lru_ws: f64,
    /// LRU mix metrics.
    pub lru_metrics: MixMetrics,
    /// Per-policy cells, in the order requested.
    pub cells: Vec<Cell>,
}

/// Mean % WS improvement per policy across a set of mix evaluations.
pub fn mean_improvements(evals: &[MixEval]) -> Vec<(String, f64)> {
    let means = column_means(evals.iter(), |c, _| c.ws_improvement_pct);
    let names = evals.iter().take(1).flat_map(|e| &e.cells);
    names.map(|c| c.policy.clone()).zip(means).collect()
}

/// Per policy column, the mean over `evals` of `f` applied to the
/// column's cell and its mix evaluation; empty when `evals` is.
fn column_means<'a>(
    evals: impl Iterator<Item = &'a MixEval> + Clone,
    f: impl Fn(&Cell, &MixEval) -> f64,
) -> Vec<f64> {
    let columns = evals.clone().next().map_or(0, |e| e.cells.len());
    (0..columns)
        .map(|p| mean(&evals.clone().map(|e| f(&e.cells[p], e)).collect::<Vec<_>>()))
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

/// Evaluate every group's mixes on the parallel sweep harness.
///
/// Plans per mix an alone-IPC slot, an LRU slot and one slot per policy,
/// and runs each distinct cell ([`SweepJob::key`]: mix, policy,
/// organisation and run configuration) once, numbered in
/// first-seen order, sharing its output among the slots that planned it;
/// without repeats the job list is the per-slot layout. The batch runs
/// journaled beside the report (see `--resume`) and aggregates by job id,
/// so the output is bit-identical for any worker count. Returns the
/// per-group evaluations, the enriched [`SweepReport`] (per-cell
/// `ws`/`ws_improvement_pct`, per-group mean-improvement summaries) and
/// the host-side [`SweepTiming`].
pub fn sweep_groups(
    name: &str,
    groups: &[MixGroup],
    opts: &ExpOpts,
) -> Result<(Vec<GroupEval>, SweepReport, SweepTiming), SweepFailed> {
    let mut jobs: Vec<SweepJob> = Vec::new();
    let mut slots: Vec<usize> = Vec::new();
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut plan = |label: String, rc: &RunConfig, kind: JobKind| {
        let id = jobs.len();
        let seed = SweepJob::derive_seed(id);
        let job = SweepJob {
            id,
            label,
            seed,
            rc: rc.clone(),
            kind,
        };
        let id = *ids.entry(job.key()).or_insert_with(|| {
            jobs.push(job);
            id
        });
        slots.push(id);
    };
    for group in groups {
        for mix in &group.mixes {
            let kind = JobKind::AloneIpcs { mix: mix.clone() };
            plan(format!("{}/alone", mix.name), &group.rc, kind);
            let lru = (PolicyKind::Lru, DrishtiConfig::baseline(mix.cores()));
            for (policy, org) in std::iter::once(lru).chain(group.policies.iter().cloned()) {
                let label = format!("{}/{}/{}", mix.name, policy.label(), org.label());
                let (mix, org_label) = (mix.clone(), org.label());
                let kind = JobKind::Run {
                    mix,
                    policy,
                    org,
                    org_label,
                };
                plan(label, &group.rc, kind);
            }
        }
    }

    let outcome = run_journaled(name, &jobs, opts)?;
    let timing = SweepTiming::from_outcome(name, &outcome);
    let mut report = SweepReport::from_outcome(name, &jobs, &outcome);
    report
        .config
        .push(("mixes".to_string(), opts.mixes.to_string()));
    report
        .config
        .push(("accesses".to_string(), opts.accesses.to_string()));
    let mut cores: Vec<String> = Vec::new();
    for g in groups {
        let c = g.rc.system.cores.to_string();
        if !cores.contains(&c) {
            cores.push(c);
        }
    }
    report.config.push(("cores".to_string(), cores.join(",")));
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

    // Fold the outputs back into per-mix evaluations, slot by slot in
    // planning order, enriching each distinct cell's report entry with
    // its LRU-normalised metrics once (a shared cell has the same alone
    // IPCs and LRU baseline wherever it is planned).
    let outputs: Vec<JobOutput> = outcome
        .outputs
        .into_iter()
        .map(|o| o.expect("failures handled above"))
        .collect();
    let run = |id: usize| match &outputs[id] {
        JobOutput::Run(r) => Arc::clone(r),
        JobOutput::AloneIpcs(_) => unreachable!("job layout: run slots follow the alone IPCs"),
    };
    let mut slots = slots.into_iter();
    let mut next = || slots.next().expect("one job per planned slot");
    let mut enriched = vec![false; jobs.len()];
    let mut enrich = |report: &mut SweepReport, id: usize, ws: f64, ws_improvement_pct: f64| {
        if !std::mem::replace(&mut enriched[id], true) {
            let cell = report.cell_mut(id).expect("run cell present in report");
            cell.metrics.push(("ws".to_string(), ws));
            cell.metrics
                .push(("ws_improvement_pct".to_string(), ws_improvement_pct));
        }
    };
    let mut group_evals = Vec::with_capacity(groups.len());
    for group in groups {
        let mut evals = Vec::with_capacity(group.mixes.len());
        for mix in &group.mixes {
            let alone = outputs[next()].unwrap_alone();
            let lru_id = next();
            let lru = run(lru_id);
            let lru_metrics = mix_metrics(&lru, alone);
            let lru_ws = lru_metrics.weighted_speedup();
            enrich(&mut report, lru_id, lru_ws, 0.0);
            let cells = group
                .policies
                .iter()
                .map(|_| {
                    let id = next();
                    let result = run(id);
                    let metrics = mix_metrics(&result, alone);
                    let ws = metrics.weighted_speedup();
                    let ws_improvement_pct = (ws / lru_ws - 1.0) * 100.0;
                    enrich(&mut report, id, ws, ws_improvement_pct);
                    Cell {
                        policy: result.policy.clone(),
                        ws_improvement_pct,
                        result,
                        metrics,
                    }
                })
                .collect();
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
    debug_assert!(slots.next().is_none(), "all slots consumed");
    Ok((group_evals, report, timing))
}

/// Run `jobs` on the sweep harness with `opts.jobs` workers, generating
/// traces on demand ([`TraceCache`]), journaled beside the report of the
/// sweep `name`:
/// completed cells land in `<report>.journal` as they finish, so a killed
/// run can be picked up with `--resume`, and [`write_reports`] removes the
/// journal on clean completion. A journal of another job set is refused
/// with exit 2, not silently re-run.
fn run_journaled(
    name: &str,
    jobs: &[SweepJob],
    opts: &ExpOpts,
) -> Result<SweepOutcome, SweepFailed> {
    let journal_file = journal::journal_path(&report_path(opts, name));
    let cache = Arc::new(TraceCache::new());
    let outcome = run_sweep_resumable(jobs, opts.jobs, &cache, &journal_file, opts.resume)
        .unwrap_or_else(|err| {
            eprintln!(
                "error: cannot resume from {}: {err}",
                journal_file.display()
            );
            std::process::exit(2);
        });
    let failures: Vec<_> = outcome.failures().into_iter().cloned().collect();
    if failures.is_empty() {
        Ok(outcome)
    } else {
        Err(SweepFailed(failures))
    }
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

/// One table or figure of the paper: the mix groups it evaluates and how
/// it prints them. The [`figures`] registry holds every one.
pub struct Figure {
    /// The binary's name, which also names its report.
    pub name: &'static str,
    /// The groups whose LRU-normalised cells the figure reads.
    pub groups: fn(&ExpOpts) -> Vec<MixGroup>,
    /// Print the figure from its groups' evaluations (in `groups` order),
    /// adding any figure-level rows to the report's summary.
    pub print: fn(&ExpOpts, &[GroupEval], &mut SweepReport),
}

impl Figure {
    /// The figure `name` reading `groups` and printing with `print`.
    const fn new(
        name: &'static str,
        groups: fn(&ExpOpts) -> Vec<MixGroup>,
        print: fn(&ExpOpts, &[GroupEval], &mut SweepReport),
    ) -> Self {
        Figure {
            name,
            groups,
            print,
        }
    }

    /// A figure with no groups: it simulates, if at all, while it prints.
    const fn plain(
        name: &'static str,
        print: fn(&ExpOpts, &[GroupEval], &mut SweepReport),
    ) -> Self {
        Figure::new(name, |_| Vec::new(), print)
    }
}

/// The union of `figures`' groups, in order, and each figure's range in
/// it. With more than one figure each group label gains its figure's
/// name, so the report's summary sections stay distinct.
fn plan(figures: &[&Figure], opts: &ExpOpts) -> (Vec<MixGroup>, Vec<Range<usize>>) {
    let mut groups = Vec::new();
    let mut spans = Vec::with_capacity(figures.len());
    for fig in figures {
        let start = groups.len();
        groups.extend((fig.groups)(opts).into_iter().map(|mut g| {
            if figures.len() > 1 {
                g.label = format!("{}/{}", fig.name, g.label);
            }
            g
        }));
        spans.push(start..groups.len());
    }
    (groups, spans)
}

/// Run `figures`: parse the options once, evaluate the union of
/// `figures`' groups as one [`sweep_groups`] call, print every figure in
/// order and write one report, named after the figure when there is one
/// and `all_experiments` otherwise (none when there are no groups).
///
/// Over several figures each is introduced by a banner, and a figure that
/// runs its own sweep (`resilience`) writes its report beside this one,
/// named after itself. A figure that panics is reported and the others
/// still print; the run then exits 1 without a report, keeping its
/// journal for `--resume`. Failed cells exit 1, malformed options 2.
pub fn run(figures: &[&Figure]) {
    const RULE: &str = "================================================================";
    let opts = ExpOpts::from_args();
    let several = figures.len() > 1;
    let name = if several {
        "all_experiments"
    } else {
        figures[0].name
    };
    let (groups, spans) = plan(figures, &opts);
    let (evals, mut report, timing) = if groups.is_empty() {
        (Vec::new(), SweepReport::new(name), None)
    } else {
        let (evals, report, timing) = exit_on_sweep_failure(sweep_groups(name, &groups, &opts));
        (evals, report, Some(timing))
    };
    let mut failed = Vec::new();
    for (fig, span) in figures.iter().zip(spans) {
        let mut fig_opts = opts.clone();
        if several {
            println!("\n{RULE}\n==> {}\n{RULE}", fig.name);
            fig_opts.report = opts
                .report
                .as_ref()
                .map(|r| r.with_file_name(format!("{}.json", fig.name)));
        }
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (fig.print)(&fig_opts, &evals[span], &mut report)
        }));
        if body.is_err() {
            eprintln!("!! {} failed", fig.name);
            failed.push(fig.name);
        }
    }
    if several {
        println!("\n{RULE}");
        if failed.is_empty() {
            println!("all {} experiments completed", figures.len());
        } else {
            println!("{} experiments FAILED: {failed:?}", failed.len());
        }
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
    if let Some(timing) = timing {
        if let Err(e) = write_reports(&opts, &report, &timing) {
            eprintln!("error: failed to write sweep report: {e}");
            std::process::exit(1);
        }
    }
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

/// Print a table row of `values`, each formatted by `fmt`.
fn row_of(label: &str, values: &[f64], fmt: fn(f64) -> String) {
    row(label, &values.iter().map(|&v| fmt(v)).collect::<Vec<_>>());
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
    use figures::{FIG13_MAIN_PERFORMANCE, FIG14_MPKI_REDUCTION, FIG15_ENERGY};
    use figures::{TABLE5_WPKI, TABLE6_METRICS};

    fn tiny_opts(mixes: &str, cores: &str) -> ExpOpts {
        let tag = format!("{}-{mixes}x{cores}", std::process::id());
        let report = std::env::temp_dir().join(format!("drishti-bench-{tag}.json"));
        let args = format!("--accesses 2000 --jobs 1 --mixes {mixes} --cores {cores} --report");
        let mut args: Vec<String> = args.split(' ').map(String::from).collect();
        args.push(report.to_string_lossy().into_owned());
        ExpOpts::parse(&args).expect("test options parse")
    }

    /// Evaluate `groups` as one sweep, removing the journal it leaves.
    fn sweep(groups: &[MixGroup], opts: &ExpOpts) -> (Vec<GroupEval>, SweepReport, SweepTiming) {
        let out = sweep_groups("test", groups, opts).expect("no cell fails");
        std::fs::remove_file(journal::journal_path(&report_path(opts, "test"))).unwrap();
        out
    }

    #[test]
    fn identical_groups_share_every_cell() {
        let opts = tiny_opts("1", "2");
        let group = MixGroup {
            label: "2c".to_string(),
            mixes: opts.paper_mixes(2),
            policies: vec![(PolicyKind::Srrip, DrishtiConfig::baseline(2))],
            rc: opts.rc(2),
        };
        let (evals, report, timing) = sweep(&[group.clone(), group], &opts);
        // One alone-IPC job and two runs, each simulated once and each
        // enriched once in the report.
        assert_eq!((timing.cells, report.cells.len()), (3, 2));
        for cell in &report.cells {
            assert_eq!(cell.metrics.iter().filter(|(k, _)| k == "ws").count(), 1);
        }
        assert_eq!(format!("{:?}", evals[0]), format!("{:?}", evals[1]));
        let [a, b] = [0, 1].map(|g| &evals[g].evals[0].cells[0].result);
        assert!(Arc::ptr_eq(a, b));
        let means = mean_improvements(&evals[0].evals);
        assert_eq!(means.len(), 1);
        assert_eq!(means[0].0, "srrip");
        assert!(means[0].1.is_finite());
    }

    #[test]
    fn headline_views_simulate_only_fig13s_cells() {
        let opts = tiny_opts("2", "2,4");
        let views = [
            &FIG13_MAIN_PERFORMANCE,
            &FIG14_MPKI_REDUCTION,
            &TABLE5_WPKI,
            &FIG15_ENERGY,
            &TABLE6_METRICS,
        ];
        let (groups, spans) = plan(&views, &opts);
        let (evals, _, timing) = sweep(&groups, &opts);
        let (_, _, fig13) = sweep(&(FIG13_MAIN_PERFORMANCE.groups)(&opts), &opts);
        assert_eq!(timing.cells, fig13.cells);
        for (fig, span) in views.iter().zip(spans) {
            let (alone, _, _) = sweep(&(fig.groups)(&opts), &opts);
            assert_eq!(span.len(), alone.len(), "{}", fig.name);
            for (union, alone) in evals[span].iter().zip(&alone) {
                assert_eq!(union.label, format!("{}/{}", fig.name, alone.label));
                let [union, alone] = [union, alone].map(|g| format!("{:?}", (&g.mixes, &g.evals)));
                assert_eq!(union, alone, "{}", fig.name);
            }
        }
    }

    #[test]
    fn headline_policies_are_four() {
        let hp = headline_policies(4);
        assert_eq!(hp.len(), 4);
    }
}
