//! The `drishti-perf` trajectory-gate harness (ROADMAP item 3).
//!
//! Runs a *pinned* cell matrix — 2 fig13 mixes × {LRU, Mockingjay} ×
//! {baseline, drishti} on a 4-core system with fixed seeds and geometry —
//! once cell-by-cell on the calling thread and once through the sweep
//! pool, and reports throughput (engine steps/sec, measured accesses/sec,
//! sweep cells/sec) plus the trace-store encoding density and the cache
//! counters that explain sweep-side reuse. The matrix is deliberately
//! frozen: two reports produced by different checkouts on the same host
//! measure the same work, so their ratio is the simulator's speedup.
//!
//! The report is schema-stamped `drishti-perf/v1` and written to
//! `BENCH_<YYYYMMDD>.json` (committed at the repo root to pin the
//! trajectory; see DESIGN.md §15). Everything host-dependent — OS, CPU
//! count, build profile, timestamp — is quarantined in the `host` block so
//! the measurement fields stay comparable across machines *of the same
//! kind* and ratios stay meaningful on any one machine.

use crate::parse_num;
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::engine::Engine;
use drishti_sim::runner::{run_mix_cached, RunConfig};
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::json::Json;
use drishti_sim::sweep::{run_sweep_resumable, JobKind, SweepJob};
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::store::write_trace;
use drishti_trace::{TraceRecord, WorkloadGen};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The report's schema stamp.
pub const PERF_SCHEMA: &str = "drishti-perf/v1";

/// Cores (= LLC slices) of the pinned matrix.
pub const PERF_CORES: usize = 4;

/// Default measured accesses per core (warm-up is a quarter on top).
pub const PERF_ACCESSES: u64 = 40_000;

/// Measured accesses per core under `--quick`.
pub const PERF_QUICK_ACCESSES: u64 = 12_000;

const PERF_USAGE: &str = "usage: drishti-perf [--trials N] [--accesses N] [--jobs N] [--out PATH] \
[--compare PATH] [--quick]";

/// Command-line options of the `drishti-perf` binary.
#[derive(Debug, Clone)]
pub struct PerfOpts {
    /// Timing trials per pass; the best (minimum wall time) is reported.
    pub trials: usize,
    /// Measured accesses per core.
    pub accesses: u64,
    /// Sweep-pool worker threads (0 = all available cores).
    pub jobs: usize,
    /// Report destination (default: `BENCH_<YYYYMMDD>.json` in the
    /// working directory).
    pub out: Option<PathBuf>,
    /// A previous `drishti-perf/v1` report to compare against; >10%
    /// regressions are reported as warnings (never a failure).
    pub compare: Option<PathBuf>,
    /// Single fast trial at reduced scale (CI smoke / ci.sh snapshot).
    pub quick: bool,
}

impl Default for PerfOpts {
    fn default() -> Self {
        PerfOpts {
            trials: 3,
            accesses: PERF_ACCESSES,
            jobs: 0,
            out: None,
            compare: None,
            quick: false,
        }
    }
}

impl PerfOpts {
    /// Parse an argument list. Unknown or malformed arguments are
    /// rejected with an actionable message.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = PerfOpts::default();
        let mut explicit_accesses = None;
        let mut explicit_trials = None;
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--quick" => {
                    opts.quick = true;
                    i += 1;
                    continue;
                }
                "--trials" => {
                    explicit_trials = Some(parse_num(flag, &value(args, i, flag)?)?);
                }
                "--accesses" => {
                    explicit_accesses = Some(parse_num(flag, &value(args, i, flag)?)?);
                }
                "--jobs" => {
                    opts.jobs = parse_num(flag, &value(args, i, flag)?)?;
                }
                "--out" => {
                    opts.out = Some(PathBuf::from(value(args, i, flag)?));
                }
                "--compare" => {
                    opts.compare = Some(PathBuf::from(value(args, i, flag)?));
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 2;
        }
        if opts.quick {
            opts.trials = 1;
            opts.accesses = PERF_QUICK_ACCESSES;
        }
        if let Some(t) = explicit_trials {
            opts.trials = t;
        }
        if let Some(a) = explicit_accesses {
            opts.accesses = a;
        }
        if opts.trials == 0 {
            return Err("--trials must be at least 1".to_string());
        }
        if opts.accesses < 4 {
            return Err("--accesses must be at least 4".to_string());
        }
        Ok(opts)
    }

    /// Parse `std::env::args`, exiting with status 2 (and the usage
    /// string on stderr) on malformed arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        PerfOpts::parse(&args).unwrap_or_else(|msg| {
            eprintln!("error: {msg}\n{PERF_USAGE}");
            std::process::exit(2);
        })
    }

    /// Warm-up accesses per core (a quarter of the measured budget, like
    /// the experiment binaries).
    pub fn warmup(&self) -> u64 {
        self.accesses / 4
    }

    /// The run configuration shared by every cell of the matrix.
    pub fn rc(&self) -> RunConfig {
        RunConfig {
            system: SystemConfig::paper_baseline(PERF_CORES),
            accesses_per_core: self.accesses,
            warmup_accesses: self.warmup(),
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        }
    }
}

/// One cell of the pinned matrix.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// `mix/policy/org` label, e.g. `homo-00-mcf/mockingjay/drishti`.
    pub label: String,
    /// The mix (fixed fig13 seeds).
    pub mix: Mix,
    /// The replacement policy.
    pub policy: PolicyKind,
    /// The organisation (baseline or drishti).
    pub org: DrishtiConfig,
}

/// The pinned cell matrix: the first fig13 homogeneous and heterogeneous
/// mix (fixed seeds) × {LRU, Mockingjay} × {baseline, drishti}.
pub fn pinned_cells() -> Vec<PerfCell> {
    let mixes = drishti_trace::mix::paper_mixes(PERF_CORES, 1, 1);
    let policies = [PolicyKind::Lru, PolicyKind::Mockingjay];
    let orgs = [
        DrishtiConfig::baseline(PERF_CORES),
        DrishtiConfig::drishti(PERF_CORES),
    ];
    let mut cells = Vec::new();
    for mix in &mixes {
        for policy in policies {
            for org in &orgs {
                cells.push(PerfCell {
                    label: format!("{}/{}/{}", mix.name, policy.label(), org.label()),
                    mix: mix.clone(),
                    policy,
                    org: org.clone(),
                });
            }
        }
    }
    cells
}

/// Timing of one measured pass (best trial).
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Best wall-clock seconds across trials.
    pub wall_sec: f64,
    /// Engine scheduling steps executed by the pass (deterministic).
    pub steps: u64,
    /// Measured (post-warm-up) accesses simulated by the pass.
    pub accesses: u64,
}

impl PassTiming {
    /// Engine scheduling steps per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall_sec
    }

    /// Measured accesses per wall-clock second.
    pub fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_sec
    }
}

/// Cores of the multi-chip throughput cell: the scaling study's 64-slice
/// shape, every core active.
pub const MULTICHIP_CORES: usize = 64;

/// Chips of the multi-chip throughput cell.
pub const MULTICHIP_CHIPS: usize = 4;

/// Timing of the multi-chip cell plus the inter-chip traffic it moved
/// (asserting the serialized gateway path was actually on the hot path).
#[derive(Debug, Clone, Copy)]
pub struct MultichipTiming {
    /// Best trial.
    pub timing: PassTiming,
    /// Inter-chip messages delivered during the best trial.
    pub interchip_messages: u64,
}

/// The complete `drishti-perf/v1` measurement.
#[derive(Debug)]
pub struct PerfReport {
    /// Options the matrix ran with.
    pub opts: PerfOpts,
    /// Cell labels, in run order.
    pub cell_labels: Vec<String>,
    /// Single-threaded pass: whole matrix, best trial.
    pub single: PassTiming,
    /// Per-cell best wall seconds of the single-threaded pass.
    pub single_cells: Vec<(String, f64, u64)>,
    /// Sweep-pool pass: whole matrix, best trial.
    pub pool: PassTiming,
    /// Worker threads the pool ran with.
    pub pool_workers: usize,
    /// Sweep cells completed per second (best pool trial).
    pub pool_cells_per_sec: f64,
    /// Trace-cache `(hits, misses)` during the best pool trial.
    pub trace_cache: (u64, u64),
    /// Warm-checkpoint `(hits, misses)` during the best pool trial.
    pub warm_ckpt: (u64, u64),
    /// `(records, file bytes)` of the trace-store encoding probe.
    pub trace_store: (u64, u64),
    /// Multi-chip cell timing ([`MULTICHIP_CORES`] cores over
    /// [`MULTICHIP_CHIPS`] chips, all cores active).
    pub multichip: MultichipTiming,
}

impl PerfReport {
    /// Encoded bytes per trace record.
    pub fn bytes_per_record(&self) -> f64 {
        self.trace_store.1 as f64 / self.trace_store.0 as f64
    }

    /// Serialise to `drishti-perf/v1` JSON.
    pub fn to_json_string(&self) -> String {
        let mut matrix = Json::obj();
        matrix.push("cores", Json::UInt(PERF_CORES as u64));
        matrix.push(
            "cells",
            Json::Arr(
                self.cell_labels
                    .iter()
                    .map(|l| Json::Str(l.clone()))
                    .collect(),
            ),
        );
        matrix.push("accesses_per_core", Json::UInt(self.opts.accesses));
        matrix.push("warmup_accesses", Json::UInt(self.opts.warmup()));
        matrix.push("trials", Json::UInt(self.opts.trials as u64));
        matrix.push("quick", Json::Bool(self.opts.quick));

        let mut single = Json::obj();
        single.push("wall_sec", Json::Num(self.single.wall_sec));
        single.push("steps", Json::UInt(self.single.steps));
        single.push("steps_per_sec", Json::Num(self.single.steps_per_sec()));
        single.push(
            "accesses_per_sec",
            Json::Num(self.single.accesses_per_sec()),
        );
        single.push(
            "cells",
            Json::Arr(
                self.single_cells
                    .iter()
                    .map(|(label, wall, steps)| {
                        let mut c = Json::obj();
                        c.push("cell", Json::Str(label.clone()));
                        c.push("wall_sec", Json::Num(*wall));
                        c.push("cell_steps_per_sec", Json::Num(*steps as f64 / *wall));
                        c
                    })
                    .collect(),
            ),
        );

        let mut pool = Json::obj();
        pool.push("workers", Json::UInt(self.pool_workers as u64));
        pool.push("wall_sec", Json::Num(self.pool.wall_sec));
        pool.push("steps_per_sec", Json::Num(self.pool.steps_per_sec()));
        pool.push("cells_per_sec", Json::Num(self.pool_cells_per_sec));
        pool.push("trace_cache_hits", Json::UInt(self.trace_cache.0));
        pool.push("trace_cache_misses", Json::UInt(self.trace_cache.1));
        pool.push("warm_ckpt_hits", Json::UInt(self.warm_ckpt.0));
        pool.push("warm_ckpt_misses", Json::UInt(self.warm_ckpt.1));

        let mut store = Json::obj();
        store.push("records", Json::UInt(self.trace_store.0));
        store.push("bytes", Json::UInt(self.trace_store.1));
        store.push("bytes_per_record", Json::Num(self.bytes_per_record()));

        let mut multichip = Json::obj();
        multichip.push("cores", Json::UInt(MULTICHIP_CORES as u64));
        multichip.push("chips", Json::UInt(MULTICHIP_CHIPS as u64));
        multichip.push("steps", Json::UInt(self.multichip.timing.steps));
        multichip.push("wall_sec", Json::Num(self.multichip.timing.wall_sec));
        multichip.push(
            "steps_per_sec",
            Json::Num(self.multichip.timing.steps_per_sec()),
        );
        multichip.push(
            "accesses_per_sec",
            Json::Num(self.multichip.timing.accesses_per_sec()),
        );
        multichip.push(
            "interchip_messages",
            Json::UInt(self.multichip.interchip_messages),
        );

        let mut host = Json::obj();
        host.push("os", Json::Str(std::env::consts::OS.to_string()));
        host.push("arch", Json::Str(std::env::consts::ARCH.to_string()));
        host.push(
            "cpus",
            Json::UInt(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(0),
            ),
        );
        host.push(
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        );
        host.push("timestamp_unix", Json::UInt(unix_now()));

        let mut root = Json::obj();
        root.push("schema", Json::Str(PERF_SCHEMA.to_string()));
        root.push("matrix", matrix);
        root.push("single_thread", single);
        root.push("sweep_pool", pool);
        root.push("trace_store", store);
        root.push("multichip", multichip);
        root.push("host", host);
        root.to_pretty_string()
    }

    /// Write the report to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Today's UTC date as `YYYYMMDD`, for the `BENCH_<date>.json` file name.
/// Uses the proleptic-Gregorian civil-from-days algorithm so the binary
/// needs no date-time dependency.
pub fn utc_date_stamp() -> String {
    let days = (unix_now() / 86_400) as i64;
    // Howard Hinnant's civil_from_days, for day counts since 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}{m:02}{d:02}")
}

/// Default report path: `BENCH_<YYYYMMDD>.json` in the working directory.
pub fn default_bench_path() -> PathBuf {
    PathBuf::from(format!("BENCH_{}.json", utc_date_stamp()))
}

/// Engine scheduling steps one cell executes: every active core pulls
/// exactly `warmup + accesses` records, one per step.
fn steps_per_cell(opts: &PerfOpts) -> u64 {
    PERF_CORES as u64 * (opts.warmup() + opts.accesses)
}

/// Time the multi-chip cell: the scaling study's 64-slice / 4-chip shape
/// with every core active on the heterogeneous fig13 workload set, under
/// D-Mockingjay with the hierarchical predictor fabric. The cell is
/// interconnect-bound — every demand and predictor message can cross a
/// serialized gateway — so its
/// steps/sec tracks the cost of the inter-chip link model itself. The
/// best trial must have moved inter-chip traffic, or the cell silently
/// degenerated into a flat mesh.
fn measure_multichip(opts: &PerfOpts, cache: &Arc<TraceCache>) -> MultichipTiming {
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), MULTICHIP_CORES, 13);
    let len = opts.warmup() + opts.accesses;
    // Pre-generate so the trial times the simulator, not the generator.
    let _ = cache.workloads_for(&mix, len);

    let system = SystemConfig::with_chips(MULTICHIP_CORES, MULTICHIP_CHIPS);
    let org = DrishtiConfig::drishti(MULTICHIP_CORES).with_chips(MULTICHIP_CHIPS);
    let mut best_wall = f64::INFINITY;
    let mut interchip_messages = 0;
    for _ in 0..opts.trials {
        let workloads: Vec<Option<Box<dyn WorkloadGen>>> = cache
            .workloads_for(&mix, len)
            .into_iter()
            .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
            .collect();
        let pol = PolicyKind::Mockingjay.build(&system.llc, org.clone());
        let mut engine = Engine::new(
            system.clone(),
            workloads,
            pol,
            opts.accesses,
            opts.warmup(),
            false,
        );
        let t = Instant::now();
        let per_core = engine.run();
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(per_core.len(), MULTICHIP_CORES);
        let ic = engine.mesh().interchip_stats().messages;
        assert!(
            ic > 0,
            "multichip cell moved no inter-chip traffic — the measurement is vacuous"
        );
        if wall < best_wall {
            best_wall = wall;
            interchip_messages = ic;
        }
    }
    MultichipTiming {
        timing: PassTiming {
            wall_sec: best_wall,
            steps: MULTICHIP_CORES as u64 * len,
            accesses: MULTICHIP_CORES as u64 * opts.accesses,
        },
        interchip_messages,
    }
}

/// Write `records` through the real on-disk trace codec and return
/// `(records written, file bytes)`.
fn probe_trace_store(name: &str, seed: u64, records: &[TraceRecord]) -> (u64, u64) {
    let path = std::env::temp_dir().join(format!("drishti-perf-{}.drtr", std::process::id()));
    let written = write_trace(&path, name, seed, records).expect("trace-store probe write");
    let bytes = std::fs::metadata(&path)
        .expect("trace-store probe stat")
        .len();
    let _ = std::fs::remove_file(&path);
    (written, bytes)
}

/// Run the pinned matrix and assemble the report. Traces are generated
/// into the shared cache *before* any timing starts, so both passes
/// measure the simulator, not the workload generator.
pub fn run_perf(opts: &PerfOpts) -> PerfReport {
    let cells = pinned_cells();
    let rc = opts.rc();
    let cache = Arc::new(TraceCache::new());
    let len = opts.warmup() + opts.accesses;

    // Pre-generate every trace the matrix replays.
    for cell in &cells {
        let _ = cache.workloads_for(&cell.mix, len);
    }

    // Single-threaded pass: best-of-N over the whole matrix, per-cell
    // minima tracked for the table.
    let mut best_wall = f64::INFINITY;
    let mut cell_walls = vec![f64::INFINITY; cells.len()];
    for _ in 0..opts.trials {
        let t_pass = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            let t_cell = Instant::now();
            let r = run_mix_cached(&cell.mix, cell.policy, cell.org.clone(), &rc, &cache);
            assert_eq!(r.per_core.len(), PERF_CORES);
            cell_walls[i] = cell_walls[i].min(t_cell.elapsed().as_secs_f64());
        }
        best_wall = best_wall.min(t_pass.elapsed().as_secs_f64());
    }
    let single = PassTiming {
        wall_sec: best_wall,
        steps: steps_per_cell(opts) * cells.len() as u64,
        accesses: PERF_CORES as u64 * opts.accesses * cells.len() as u64,
    };

    // Sweep-pool pass: the same matrix as one job batch per trial.
    let jobs: Vec<SweepJob> = cells
        .iter()
        .enumerate()
        .map(|(id, cell)| SweepJob {
            id,
            label: cell.label.clone(),
            seed: SweepJob::derive_seed(id),
            rc: rc.clone(),
            kind: JobKind::Run {
                mix: cell.mix.clone(),
                policy: cell.policy,
                org: cell.org.clone(),
                org_label: cell.org.label(),
            },
        })
        .collect();
    let mut pool_wall = f64::INFINITY;
    let mut pool_workers = 0;
    let mut pool_cells_per_sec = 0.0;
    let mut trace_cache = (0, 0);
    let mut warm_ckpt = (0, 0);
    let journal = std::env::temp_dir().join(format!("drishti-perf-{}.journal", std::process::id()));
    for _ in 0..opts.trials {
        let before = cache.stats();
        let _ = std::fs::remove_file(&journal);
        let outcome = run_sweep_resumable(&jobs, opts.jobs, &cache, &journal, false)
            .expect("fresh journal cannot be foreign");
        let failures = outcome.failures();
        assert!(
            failures.is_empty(),
            "perf cells must not fail: {failures:?}"
        );
        let wall = outcome.wall.as_secs_f64();
        if wall < pool_wall {
            pool_wall = wall;
            pool_workers = outcome.workers;
            pool_cells_per_sec = outcome.cells_per_sec();
            let after = cache.stats();
            trace_cache = (after.0 - before.0, after.1 - before.1);
            warm_ckpt = outcome.warm_stats;
        }
    }
    let _ = std::fs::remove_file(&journal);
    let pool = PassTiming {
        wall_sec: pool_wall,
        steps: single.steps,
        accesses: single.accesses,
    };

    // Trace-store encoding density: the first mix's core-0 stream.
    let probe = &cells[0].mix;
    let records = cache.get(probe.benchmarks[0], probe.seeds[0], len);
    let trace_store = probe_trace_store(probe.benchmarks[0].label(), probe.seeds[0], &records);
    let multichip = measure_multichip(opts, &cache);

    PerfReport {
        opts: opts.clone(),
        cell_labels: cells.iter().map(|c| c.label.clone()).collect(),
        single,
        single_cells: cells
            .iter()
            .zip(&cell_walls)
            .map(|(c, &w)| (c.label.clone(), w, steps_per_cell(opts)))
            .collect(),
        pool,
        pool_workers,
        pool_cells_per_sec,
        trace_cache,
        warm_ckpt,
        trace_store,
        multichip,
    }
}

/// Extract the first `"key": <number>` after the first occurrence of
/// `section` in a `drishti-perf/v1` report. A deliberately narrow scanner
/// — it only needs to read files this crate itself wrote.
pub fn extract_metric(json: &str, section: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{section}\""))?;
    let tail = &json[at..];
    let k = tail.find(&format!("\"{key}\""))?;
    let tail = &tail[k..];
    let colon = tail.find(':')?;
    let rest = tail[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare this report's headline rates against a previous report's JSON.
/// Returns human-readable lines; regressions beyond `tolerance` (e.g.
/// `0.10` = 10%) are prefixed with `warning:`. Never fails — the perf
/// snapshot is informative, not enforcing.
pub fn compare_reports(report: &PerfReport, baseline_json: &str, tolerance: f64) -> Vec<String> {
    let mut lines = Vec::new();
    // steps_per_sec is a rate and comparable across matrix sizes;
    // cells_per_sec is not (a --quick cell is a smaller unit of work), so
    // it is only compared when both runs measured the same cell size.
    let same_shape = extract_metric(baseline_json, "matrix", "accesses_per_core")
        .is_some_and(|base| base as u64 == report.opts.accesses);
    let mut pairs = vec![(
        "single_thread",
        "steps_per_sec",
        report.single.steps_per_sec(),
    )];
    if same_shape {
        pairs.push(("sweep_pool", "cells_per_sec", report.pool_cells_per_sec));
    } else {
        lines.push(
            "note: baseline ran a different accesses_per_core; comparing rates only".to_string(),
        );
        pairs.push(("sweep_pool", "steps_per_sec", report.pool.steps_per_sec()));
    }
    // Shape-independent: steps/sec on the pinned 64-core / 4-chip cell.
    // Baselines that predate multi-chip support lack the section and skip
    // cleanly.
    pairs.push((
        "multichip",
        "steps_per_sec",
        report.multichip.timing.steps_per_sec(),
    ));
    for (section, key, now) in pairs {
        match extract_metric(baseline_json, section, key) {
            Some(base) if base > 0.0 => {
                let ratio = now / base;
                let line = format!(
                    "{section}.{key}: {now:.0} vs baseline {base:.0} ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                );
                if ratio < 1.0 - tolerance {
                    lines.push(format!("warning: perf regression — {line}"));
                } else {
                    lines.push(line);
                }
            }
            _ => lines.push(format!(
                "note: baseline has no {section}.{key}; skipping comparison"
            )),
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<PerfOpts, String> {
        PerfOpts::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_quick() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.trials, 3);
        assert_eq!(d.accesses, PERF_ACCESSES);
        let q = parse(&["--quick"]).unwrap();
        assert_eq!(q.trials, 1);
        assert_eq!(q.accesses, PERF_QUICK_ACCESSES);
    }

    #[test]
    fn explicit_flags_override_quick() {
        let o = parse(&["--quick", "--trials", "2", "--accesses", "5000"]).unwrap();
        assert!(o.quick);
        assert_eq!(o.trials, 2);
        assert_eq!(o.accesses, 5000);
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        assert!(parse(&["--trials"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--accesses", "1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn pinned_matrix_is_eight_cells_and_stable() {
        let cells = pinned_cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].label, pinned_cells()[0].label);
        assert!(cells.iter().any(|c| c.label.contains("mockingjay/drishti")));
        assert!(cells.iter().any(|c| c.label.contains("lru/baseline")));
        for c in &cells {
            assert_eq!(c.mix.cores(), PERF_CORES);
        }
    }

    #[test]
    fn date_stamp_shape() {
        let d = utc_date_stamp();
        assert_eq!(d.len(), 8);
        assert!(d.chars().all(|c| c.is_ascii_digit()));
        assert!(d.as_str() >= "20260101", "{d}");
    }

    #[test]
    fn metric_extraction_reads_own_output() {
        let json = "{\n  \"single_thread\": {\n    \"steps_per_sec\": 123456.75\n  },\n  \
                    \"sweep_pool\": {\n    \"cells_per_sec\": 8.5\n  }\n}\n";
        assert_eq!(
            extract_metric(json, "single_thread", "steps_per_sec"),
            Some(123456.75)
        );
        assert_eq!(
            extract_metric(json, "sweep_pool", "cells_per_sec"),
            Some(8.5)
        );
        assert_eq!(extract_metric(json, "sweep_pool", "missing"), None);
    }

    fn fake_report(accesses: u64) -> PerfReport {
        let mut opts = parse(&[]).unwrap();
        opts.accesses = accesses;
        let pass = PassTiming {
            wall_sec: 1.0,
            steps: 1_000_000,
            accesses,
        };
        PerfReport {
            opts,
            cell_labels: vec!["cell".into()],
            single: pass,
            single_cells: vec![("cell".into(), 1.0, 1_000_000)],
            pool: pass,
            pool_workers: 1,
            pool_cells_per_sec: 8.0,
            trace_cache: (0, 0),
            warm_ckpt: (0, 0),
            trace_store: (1, 1),
            multichip: MultichipTiming {
                timing: pass,
                interchip_messages: 1,
            },
        }
    }

    #[test]
    fn comparison_warns_on_regression_and_matches_shape() {
        // Same matrix shape: cells_per_sec is compared, and a >10% drop
        // in steps/sec is flagged (warn-only by contract).
        let baseline = format!(
            "{{\n  \"matrix\": {{\n    \"accesses_per_core\": {}\n  }},\n               \"single_thread\": {{\n    \"steps_per_sec\": 2000000.0\n  }},\n               \"sweep_pool\": {{\n    \"steps_per_sec\": 900000.0,\n                 \"cells_per_sec\": 8.5\n  }}\n}}\n",
            PERF_ACCESSES
        );
        let report = fake_report(PERF_ACCESSES);
        let lines = compare_reports(&report, &baseline, 0.10);
        assert!(
            lines[0].starts_with("warning: perf regression"),
            "{lines:?}"
        );
        assert!(lines.iter().any(|l| l.contains("cells_per_sec")));

        // Different accesses_per_core (e.g. --quick vs full): cell
        // throughput is incomparable, so only rates are compared.
        let quick = fake_report(PERF_QUICK_ACCESSES);
        let lines = compare_reports(&quick, &baseline, 0.10);
        assert!(
            lines[0].contains("different accesses_per_core"),
            "{lines:?}"
        );
        assert!(!lines.iter().any(|l| l.contains("cells_per_sec")));
        assert!(lines.iter().any(|l| l.contains("sweep_pool.steps_per_sec")));
    }

    #[test]
    fn trace_store_probe_measures_file_bytes() {
        let records = TraceCache::new().get(Benchmark::Mcf, 1, 5_000);
        let (written, bytes) = probe_trace_store(Benchmark::Mcf.label(), 1, &records);
        assert_eq!(written, records.len() as u64);
        let per_record = bytes as f64 / written as f64;
        assert!(
            per_record > 1.0 && per_record < 24.0,
            "{per_record} B/record is not an encoded size"
        );
    }

    #[test]
    fn comparison_ignores_retired_sections_of_the_committed_baseline() {
        let committed = include_str!("../../../BENCH_20260809.json");
        let lines = compare_reports(&fake_report(PERF_ACCESSES), committed, 0.10);
        assert!(lines
            .iter()
            .any(|l| l.contains("single_thread.steps_per_sec")));
        assert!(
            !lines.iter().any(|l| l.contains("engine_compare")),
            "{lines:?}"
        );
    }

    #[test]
    fn comparison_skips_multichip_on_pre_topology_baselines() {
        // Baselines written before multi-chip support have no multichip
        // section; the comparison must note and skip, never fail.
        let baseline = "{\n  \"single_thread\": {\n    \"steps_per_sec\": 1.0\n  }\n}\n";
        let report = fake_report(PERF_ACCESSES);
        let lines = compare_reports(&report, baseline, 0.10);
        assert!(
            lines
                .iter()
                .any(|l| l.contains("no multichip.steps_per_sec") && l.starts_with("note:")),
            "{lines:?}"
        );
    }
}
