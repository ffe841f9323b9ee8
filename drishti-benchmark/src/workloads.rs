//! The four pinned workloads, the cells each one runs, and one trial of
//! them.
//!
//! A *cell* is one engine: a system shape, a policy and organisation, and
//! a trace per active core. A *trial* runs every cell of a workload once,
//! closed-loop on the calling thread (the next cell starts when the
//! previous one returns). Each cell's output is reduced to a fingerprint
//! so trials, seeds and commits can be compared exactly.

use crate::stats::fnv1a64;
use drishti_bench::{headline_policies, sweep_groups, write_reports, ExpOpts, MixGroup};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::conformance::refcache::RefCache;
use drishti_sim::engine::{CoreResult, Engine};
use drishti_sim::runner::RunConfig;
use drishti_sim::sweep::{JobKind, SweepJob};
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::WorkloadGen;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Where every file the benchmark writes goes, relative to the working
/// directory (the repository root).
pub const OUT_DIR: &str = "target/benchmark";

/// The sweep name of the reduced Figure 13 workload: the experiment
/// binary's own, so at the default seed the report bytes equal those of
/// `fig13_main_performance --mixes 2 --cores 16 --accesses 12500 --jobs 1`.
const FIG13_NAME: &str = "fig13_main_performance";

/// Added to every sim-point seed per unit of `--seed` above 1. Each mix
/// keeps its benchmark draw, so every seed runs the same workload shape
/// on fresh inputs; seed 1 leaves the mixes exactly as the experiment
/// binaries build them.
const SEED_STRIDE: u64 = 1_000_003;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4 cores, two homogeneous mixes under LRU and the four headline
    /// configurations: LLC, policy and fabric heavy.
    Llc4c,
    /// The 16 alone-IPC runs of a 16-core mix: private caches, core model
    /// and engine construction heavy; policy and fabric idle.
    Alone16c,
    /// 64 cores on 4 chips under D-Mockingjay: mesh, topology and
    /// scheduler heavy.
    Multichip64c,
    /// A reduced Figure 13 through the sweep harness: trace cache,
    /// warm checkpoints, journal and report emission.
    Fig13,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Llc4c,
        Workload::Alone16c,
        Workload::Multichip64c,
        Workload::Fig13,
    ];

    /// The workload's name on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Llc4c => "llc-4c",
            Workload::Alone16c => "alone-16c",
            Workload::Multichip64c => "multichip-64c",
            Workload::Fig13 => "fig13-16c",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Measured accesses per core; warm-up is a quarter of it on top, as
    /// in the experiment binaries, and statistics start after it. A trial
    /// takes 1.3–3 s on a 2-CPU host, so a 15 s budget times several.
    /// The alone runs stay long enough that first-touch page faults of
    /// each fresh 32 MB LLC do not dominate them. `quick` shrinks every
    /// workload to a smoke-test size.
    pub fn accesses(self, quick: bool) -> u64 {
        match (self, quick) {
            (Workload::Alone16c, false) => 200_000,
            (Workload::Llc4c, false) => 50_000,
            (Workload::Multichip64c | Workload::Fig13, false) => 12_500,
            (Workload::Llc4c, true) => 2_000,
            (Workload::Alone16c | Workload::Fig13, true) => 800,
            (Workload::Multichip64c, true) => 400,
        }
    }

    /// The cells one trial runs, in order. For [`Workload::Fig13`] these
    /// are the engines its sweep builds (per mix: one alone run per core,
    /// LRU, then the four headline configurations); the trial itself runs
    /// them through the sweep harness.
    pub fn cells(self, seed: u64, quick: bool) -> Vec<Cell> {
        let accesses = self.accesses(quick);
        match self {
            Workload::Llc4c => {
                let mut cells = Vec::new();
                for bench in [Benchmark::Mcf, Benchmark::Lbm] {
                    let mix = reseed(Mix::homogeneous(bench, 4, 1), seed);
                    cells.extend(run_cells(&mix, SystemConfig::paper_baseline(4), accesses));
                }
                cells
            }
            Workload::Alone16c => {
                let mix = reseed(Mix::heterogeneous(&Benchmark::spec_and_gap(), 16, 1), seed);
                alone_cells(&mix, accesses)
            }
            Workload::Multichip64c => {
                let mix = reseed(Mix::heterogeneous(&Benchmark::spec_and_gap(), 64, 13), seed);
                vec![Cell {
                    label: format!("{}/mockingjay/drishti", mix.name),
                    kind: CellKind::Run,
                    system: SystemConfig::with_chips(64, 4),
                    policy: PolicyKind::Mockingjay,
                    org: DrishtiConfig::drishti(64).with_chips(4),
                    accesses,
                    mix,
                }]
            }
            Workload::Fig13 => fig13_mixes(seed, accesses)
                .iter()
                .flat_map(|mix| {
                    let mut cells = alone_cells(mix, accesses);
                    cells.extend(run_cells(mix, SystemConfig::paper_baseline(16), accesses));
                    cells
                })
                .collect(),
        }
    }
}

/// Shift every sim-point seed of `mix` for `--seed seed`.
fn reseed(mut mix: Mix, seed: u64) -> Mix {
    let shift = seed.wrapping_sub(1).wrapping_mul(SEED_STRIDE);
    for s in &mut mix.seeds {
        *s = s.wrapping_add(shift);
    }
    mix
}

/// LRU plus the four headline configurations on `mix`.
fn run_cells(mix: &Mix, system: SystemConfig, accesses: u64) -> Vec<Cell> {
    let cores = mix.cores();
    std::iter::once((PolicyKind::Lru, DrishtiConfig::baseline(cores)))
        .chain(headline_policies(cores))
        .map(|(policy, org)| Cell {
            label: format!("{}/{}/{}", mix.name, policy.label(), org.label()),
            kind: CellKind::Run,
            mix: mix.clone(),
            system: system.clone(),
            policy,
            org,
            accesses,
        })
        .collect()
}

/// One LRU engine per core of `mix`, with only that core active.
fn alone_cells(mix: &Mix, accesses: u64) -> Vec<Cell> {
    let cores = mix.cores();
    (0..cores)
        .map(|c| Cell {
            label: format!("{}/alone-c{c:02}", mix.name),
            kind: CellKind::Alone(c),
            mix: mix.clone(),
            system: SystemConfig::paper_baseline(cores),
            policy: PolicyKind::Lru,
            org: DrishtiConfig::baseline(cores),
            accesses,
        })
        .collect()
}

/// Whether a cell runs its whole mix or one core of it alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Every core of the mix is active.
    Run,
    /// Only this core is active (an alone-IPC run).
    Alone(usize),
}

/// One engine of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `mix/policy/org` or `mix/alone-cNN`.
    pub label: String,
    /// Whole-mix run or alone run.
    pub kind: CellKind,
    /// The workload mix (benchmark and sim-point seed per core).
    pub mix: Mix,
    /// The simulated system.
    pub system: SystemConfig,
    /// The LLC replacement policy.
    pub policy: PolicyKind,
    /// The predictor organisation.
    pub org: DrishtiConfig,
    /// Measured accesses per active core.
    pub accesses: u64,
}

impl Cell {
    /// Warm-up accesses per active core.
    pub fn warmup(&self) -> u64 {
        self.accesses / 4
    }

    /// Records each active core replays.
    pub fn trace_len(&self) -> u64 {
        self.warmup() + self.accesses
    }

    /// The active cores.
    pub fn active(&self) -> Vec<usize> {
        match self.kind {
            CellKind::Run => (0..self.mix.cores()).collect(),
            CellKind::Alone(c) => vec![c],
        }
    }

    /// Engine steps one run takes: one trace record of one active core
    /// per step.
    pub fn steps(&self) -> u64 {
        self.active().len() as u64 * self.trace_len()
    }

    /// Build the cell's policy and engine, replaying traces from `cache`
    /// (which generates any it does not hold yet).
    pub fn engine(&self, cache: &TraceCache, record_llc_stream: bool) -> Engine {
        let mut workloads: Vec<Option<Box<dyn WorkloadGen>>> =
            (0..self.system.cores).map(|_| None).collect();
        for c in self.active() {
            let trace = cache.replay(self.mix.benchmarks[c], self.mix.seeds[c], self.trace_len());
            workloads[c] = Some(Box::new(trace));
        }
        let policy = self.policy.build(&self.system.llc, self.org.clone());
        Engine::new(
            self.system.clone(),
            workloads,
            policy,
            self.accesses,
            self.warmup(),
            record_llc_stream,
        )
    }

    /// The run configuration the sweep harness would give this cell.
    pub fn run_config(&self) -> RunConfig {
        let mut rc = RunConfig::quick(self.system.cores);
        rc.system = self.system.clone();
        rc.accesses_per_core = self.accesses;
        rc.warmup_accesses = self.warmup();
        rc
    }
}

/// The sweep jobs equivalent to `cells`, in the order `sweep_groups`
/// lays them out: a mix's alone runs form one alone-IPC job.
pub fn sweep_jobs(cells: &[Cell]) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for cell in cells {
        let (label, kind) = match cell.kind {
            CellKind::Run => (
                cell.label.clone(),
                JobKind::Run {
                    mix: cell.mix.clone(),
                    policy: cell.policy,
                    org: cell.org.clone(),
                    org_label: cell.org.label(),
                },
            ),
            CellKind::Alone(0) => (
                format!("{}/alone", cell.mix.name),
                JobKind::AloneIpcs {
                    mix: cell.mix.clone(),
                },
            ),
            CellKind::Alone(_) => continue,
        };
        let id = jobs.len();
        jobs.push(SweepJob {
            id,
            label,
            seed: SweepJob::derive_seed(id),
            rc: cell.run_config(),
            kind,
        });
    }
    jobs
}

/// Fingerprint of a finished engine: FNV-1a over the `Debug` text of
/// per-core results, LLC, DRAM, mesh and fabric statistics and the
/// policy's counters (which carry the predictor-fabric counters).
pub fn fingerprint(engine: &Engine, per_core: &[CoreResult]) -> u64 {
    let policy = engine.llc().policy();
    let text = format!(
        "{per_core:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        engine.llc().stats(),
        engine.dram().stats(),
        engine.mesh().stats(),
        policy.fabric_stats(),
        policy.diagnostics()
    );
    fnv1a64(text.as_bytes())
}

/// Host time and output of one cell run.
#[derive(Debug, Clone)]
struct CellRun {
    /// Output fingerprint, or why the cell failed.
    outcome: Result<u64, String>,
    /// Seconds in policy construction plus `Engine::new`.
    new_s: f64,
    /// Seconds in `Engine::run`.
    run_s: f64,
}

/// Run `cell` once. With `checked`, a reference shadow cache watches
/// every LLC event and the cross-counter invariants are checked at the
/// end; any violation fails the cell. A panic fails the cell too.
fn run_cell(cell: &Cell, cache: &TraceCache, checked: bool) -> CellRun {
    let mut new_s = 0.0;
    let mut run_s = 0.0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let mut engine = cell.engine(cache, false);
        if checked {
            engine.set_llc_observer(Box::new(RefCache::new(&cell.system.llc)));
        }
        new_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let per_core = engine.run();
        run_s = t.elapsed().as_secs_f64();
        if checked {
            check_engine(&mut engine)?;
        }
        Ok(fingerprint(&engine, &per_core))
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
    CellRun {
        outcome: outcome.map_err(|e| format!("{}: {e}", cell.label)),
        new_s,
        run_s,
    }
}

fn check_engine(engine: &mut Engine) -> Result<(), String> {
    let observer = engine
        .take_llc_observer()
        .ok_or("shadow cache was not installed")?;
    let shadow = observer
        .as_any()
        .downcast_ref::<RefCache>()
        .ok_or("installed observer is not the shadow cache")?;
    if let Some(v) = shadow.violation() {
        return Err(format!("shadow cache: {v}"));
    }
    let broken = drishti_sim::telemetry::check_invariants(engine.llc(), engine.dram());
    if !broken.is_empty() {
        return Err(format!("invariants: {}", broken.join("; ")));
    }
    Ok(())
}

/// The text of a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// Host time of one timed unit of a trial: a cell of an engine workload,
/// or the whole sweep of the sweep workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    /// Engine steps simulated.
    pub steps: u64,
    /// Seconds inside `Engine::run` (the sweep's own wall time for the
    /// sweep workload, whose engines run inside the harness).
    pub run_s: f64,
    /// Wall seconds of the unit, construction and output included.
    pub wall_s: f64,
}

/// One trial of a workload: per-op fingerprints plus host timing.
#[derive(Debug, Clone)]
pub struct Trial {
    /// `(label, fingerprint or error)` per op. An engine workload has one
    /// op per cell; the sweep workload has one op per sweep job, all
    /// sharing the report's fingerprint.
    pub ops: Vec<(String, Result<u64, String>)>,
    /// Host time per timed unit, in a fixed order across trials.
    pub units: Vec<Unit>,
}

/// Run every cell of an engine workload once, on this thread.
fn engine_trial(cells: &[Cell], cache: &TraceCache, checked: bool) -> Trial {
    let mut trial = Trial {
        ops: Vec::with_capacity(cells.len()),
        units: Vec::with_capacity(cells.len()),
    };
    for cell in cells {
        let run = run_cell(cell, cache, checked);
        trial.units.push(Unit {
            steps: cell.steps(),
            run_s: run.run_s,
            wall_s: run.new_s + run.run_s,
        });
        trial.ops.push((cell.label.clone(), run.outcome));
    }
    trial
}

/// The report path of the sweep workload.
fn fig13_report_path() -> PathBuf {
    PathBuf::from(OUT_DIR).join("fig13-16c.json")
}

/// The experiment options `fig13_main_performance --mixes 2 --cores 16
/// --accesses N --jobs 1` parses, writing its report under [`OUT_DIR`].
fn fig13_opts(accesses: u64) -> ExpOpts {
    let args: Vec<String> = [
        "--mixes",
        "2",
        "--cores",
        "16",
        "--accesses",
        &accesses.to_string(),
        "--jobs",
        "1",
        "--report",
        &fig13_report_path().to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    ExpOpts::parse(&args).expect("the pinned fig13 arguments parse")
}

fn fig13_mixes(seed: u64, accesses: u64) -> Vec<Mix> {
    fig13_opts(accesses)
        .paper_mixes(16)
        .into_iter()
        .map(|m| reseed(m, seed))
        .collect()
}

/// One trial of the sweep workload: `sweep_groups` plus `write_reports`,
/// exactly as the Figure 13 binary calls them. Every job shares one
/// fingerprint, the report's bytes.
pub fn fig13_trial(cells: &[Cell], seed: u64, quick: bool) -> Trial {
    let accesses = Workload::Fig13.accesses(quick);
    let opts = fig13_opts(accesses);
    let jobs = sweep_jobs(cells);
    let group = MixGroup {
        label: "16c".to_string(),
        mixes: fig13_mixes(seed, accesses),
        policies: headline_policies(16),
        rc: opts.rc(16),
    };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (_, report, timing) = sweep_groups(FIG13_NAME, std::slice::from_ref(&group), &opts)
            .map_err(|failed| {
                failed
                    .0
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            })?;
        let path = write_reports(&opts, &report, &timing)
            .map_err(|e| format!("cannot write the sweep report: {e}"))?;
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
        Ok::<_, String>((fnv1a64(&bytes), timing))
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
    let wall_s = start.elapsed().as_secs_f64();
    let (outcome, run_s) = match result {
        Ok((fp, timing)) => (Ok(fp), timing.wall_ms / 1e3),
        Err(e) => (Err(e), wall_s),
    };
    Trial {
        ops: jobs
            .iter()
            .map(|j| (j.label.clone(), outcome.clone()))
            .collect(),
        units: vec![Unit {
            steps: cells.iter().map(Cell::steps).sum(),
            run_s,
            wall_s,
        }],
    }
}

/// Run one trial of `workload`, checked or not (the sweep workload has
/// no shadow check: its engines run inside the harness).
pub fn trial(
    workload: Workload,
    cells: &[Cell],
    cache: &TraceCache,
    seed: u64,
    quick: bool,
    checked: bool,
) -> Trial {
    match workload {
        Workload::Fig13 => fig13_trial(cells, seed, quick),
        _ => engine_trial(cells, cache, checked),
    }
}

/// Set-up seconds of one trial: a fresh trace cache generating every
/// trace the trial replays, plus policy construction and `Engine::new`
/// for every cell. Each engine is dropped before the next is built, as
/// in a trial.
pub fn setup_once(cells: &[Cell]) -> f64 {
    let cache = TraceCache::new();
    let mut total = 0.0;
    for cell in cells {
        let t = Instant::now();
        let engine = cell.engine(&cache, false);
        total += t.elapsed().as_secs_f64();
        drop(engine);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let llc = Workload::Llc4c.cells(1, false);
        assert_eq!(llc.len(), 10);
        assert_eq!(llc.iter().map(Cell::steps).sum::<u64>(), 2_500_000);
        let alone = Workload::Alone16c.cells(1, false);
        assert_eq!(alone.len(), 16);
        assert_eq!(alone.iter().map(Cell::steps).sum::<u64>(), 4_000_000);
        let multi = Workload::Multichip64c.cells(1, false);
        assert_eq!(multi.iter().map(Cell::steps).sum::<u64>(), 1_000_000);
        let fig13 = Workload::Fig13.cells(1, false);
        assert_eq!(fig13.len(), 2 * (16 + 5));
        assert_eq!(sweep_jobs(&fig13).len(), 12);
        assert_eq!(fig13.iter().map(Cell::steps).sum::<u64>(), 3_000_000);
    }

    #[test]
    fn seed_moves_inputs_but_not_the_benchmark_draw() {
        let a = Workload::Alone16c.cells(1, true);
        let b = Workload::Alone16c.cells(7, true);
        assert_eq!(a[0].mix.benchmarks, b[0].mix.benchmarks);
        assert_ne!(a[0].mix.seeds, b[0].mix.seeds);
        // Seed 1 is the experiment binaries' own mix set.
        let fig13 = Workload::Fig13.cells(1, true);
        assert_eq!(
            fig13[0].mix,
            drishti_trace::mix::paper_mixes(16, 1, 1)[0],
            "seed 1 must reproduce fig13's first mix"
        );
    }

    #[test]
    fn sweep_jobs_mirror_the_fig13_layout() {
        let jobs = sweep_jobs(&Workload::Fig13.cells(1, true));
        let labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels[0], "homo-00-mcf/alone");
        assert!(labels[1].ends_with("/lru/baseline"));
        assert!(labels[5].ends_with("/mockingjay/drishti"));
        assert_eq!(labels[6], "hetero-01/alone");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
    }
}
