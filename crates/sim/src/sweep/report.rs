//! Structured sweep results: the `drishti-sweep/v1` JSON schema.
//!
//! A sweep produces two files under `target/sweep/` (or wherever
//! `--report` points):
//!
//! * `<name>.json` — the [`SweepReport`]: per-cell metrics, fault
//!   counters, seeds, and figure-level summary statistics. Everything in
//!   it is a deterministic function of the sweep's configuration, so two
//!   runs of the same sweep are **byte-identical regardless of worker
//!   count** — CI diffs a `--jobs 1` run against a `--jobs max` run.
//! * `<name>.timing.json` — the [`SweepTiming`] sidecar: wall-clock,
//!   cells/second, worker count. Host-dependent by
//!   nature, hence kept out of the byte-comparable report.
//!
//! When cells ran with telemetry enabled, each cell's timeline lands in a
//! third kind of file, `<name>.cell<id>.timeline.json`
//! (`drishti-telemetry/v1`, see DESIGN.md §11). Timelines are *separate
//! files* and the main report never mentions them, so the byte-determinism
//! contract holds with telemetry on or off; the timing sidecar lists the
//! timeline file names for discoverability.
//!
//! See DESIGN.md §10 for the full schema.

use super::json::Json;
use super::{JobKind, JobOutput, SweepJob, SweepOutcome};
use crate::metrics::FaultSummary;
use crate::telemetry::TelemetryTimeline;
use std::io;
use std::path::{Path, PathBuf};

/// The schema identifier stamped into every report.
pub const SCHEMA: &str = "drishti-sweep/v1";

/// One cell of a sweep report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Job id (dense, report-ordered).
    pub id: usize,
    /// Mix name.
    pub mix: String,
    /// Core count of the cell's system.
    pub cores: usize,
    /// Policy name as the policy reported it (e.g. `"d-mockingjay"`).
    pub policy: String,
    /// Organisation label (`"baseline"`, `"drishti"`, ablations, …).
    pub org: String,
    /// The job's seed.
    pub seed: u64,
    /// Ordered `(name, value)` metric pairs; emitters append
    /// figure-specific metrics (e.g. `ws_improvement_pct`) to the
    /// standard set.
    pub metrics: Vec<(String, f64)>,
    /// Fault counters, present only when the run observed faults.
    pub faults: Option<FaultSummary>,
}

impl CellReport {
    fn to_json(&self) -> Json {
        let mut cell = Json::obj();
        cell.push("id", Json::UInt(self.id as u64))
            .push("mix", Json::Str(self.mix.clone()))
            .push("cores", Json::UInt(self.cores as u64))
            .push("policy", Json::Str(self.policy.clone()))
            .push("org", Json::Str(self.org.clone()))
            .push("seed", Json::UInt(self.seed));
        let mut metrics = Json::obj();
        for (k, v) in &self.metrics {
            metrics.push(k, Json::Num(*v));
        }
        cell.push("metrics", metrics);
        if let Some(f) = &self.faults {
            let mut faults = Json::obj();
            for (k, v) in f.entries() {
                faults.push(k, Json::UInt(v));
            }
            cell.push("faults", faults);
        }
        cell
    }
}

/// One row of the `scenario_coverage` table: how many `Run` cells a sweep
/// executed per `(family, scenario, cores)` bucket. Families come from
/// [`drishti_trace::scenario::family_label`]; the table makes "which
/// workload shapes did this sweep actually exercise?" a first-class,
/// diffable part of the report (DESIGN.md §18).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRow {
    /// Scenario family: `"phase"`, `"adversarial"`, `"datacenter"`,
    /// `"synthetic"`, or `"ingested"` when the CLI preloaded external
    /// traces (see [`SweepReport::mark_ingested`]).
    pub family: String,
    /// Scenario identifier — the mix name.
    pub scenario: String,
    /// Core count of the mix.
    pub cores: usize,
    /// Number of `Run` cells over this scenario (policies × orgs × seeds).
    pub cells: u64,
}

/// Aggregate the coverage table from a job list: every `Run` job counts
/// toward its `(family, mix name, cores)` bucket; `AloneIpcs` jobs are
/// baselines, not scenarios, and are excluded. Rows come out sorted by
/// `(family, scenario, cores)`, so the table is a pure, order-free
/// function of the job list — byte-identical at any worker count.
pub fn scenario_coverage_rows(jobs: &[SweepJob]) -> Vec<CoverageRow> {
    let mut buckets: std::collections::BTreeMap<(String, String, usize), u64> =
        std::collections::BTreeMap::new();
    for job in jobs {
        if let JobKind::Run { mix, .. } = &job.kind {
            let key = (
                drishti_trace::scenario::family_label(mix).to_string(),
                mix.name.clone(),
                mix.cores(),
            );
            *buckets.entry(key).or_insert(0) += 1;
        }
    }
    buckets
        .into_iter()
        .map(|((family, scenario, cores), cells)| CoverageRow {
            family,
            scenario,
            cores,
            cells,
        })
        .collect()
}

/// The deterministic report of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep name (usually the experiment binary's name).
    pub name: String,
    /// Configuration echo — `(key, value)` pairs describing the sweep's
    /// knobs, so a report is self-describing.
    pub config: Vec<(String, String)>,
    /// Per-cell results, ordered by job id.
    pub cells: Vec<CellReport>,
    /// Cells that panicked: `(id, label, message)` triples. Non-empty
    /// reports here must fail the producing process.
    pub errors: Vec<(usize, String, String)>,
    /// Figure-level summary sections: `(section, [(key, value)])`.
    pub summary: Vec<(String, Vec<(String, f64)>)>,
    /// Scenario-coverage table (see [`scenario_coverage_rows`]). Filled by
    /// [`SweepReport::from_outcome`]; serialised only when non-empty, so
    /// hand-built reports and pre-§18 consumers are unaffected.
    pub scenario_coverage: Vec<CoverageRow>,
    /// Per-cell telemetry timelines `(cell id, timeline)`, present when
    /// the cells ran with telemetry enabled. Written to side files by
    /// [`SweepReport::write`]; never serialised into the main report.
    pub timelines: Vec<(usize, TelemetryTimeline)>,
}

impl SweepReport {
    /// An empty report named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SweepReport {
            name: name.into(),
            config: Vec::new(),
            cells: Vec::new(),
            errors: Vec::new(),
            summary: Vec::new(),
            scenario_coverage: Vec::new(),
            timelines: Vec::new(),
        }
    }

    /// Build the standard per-cell report from a sweep's jobs and
    /// outputs: every `Run` cell gets the standard metric set (IPC,
    /// MPKI, WPKI, predictor APKI, uncore energy), every failure is
    /// recorded under `errors`. `AloneIpcs` cells carry no report row of
    /// their own — emitters fold them into derived metrics (weighted
    /// speedup) instead.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` and `outcome.outputs` differ in length.
    pub fn from_outcome(
        name: impl Into<String>,
        jobs: &[SweepJob],
        outcome: &SweepOutcome,
    ) -> Self {
        assert_eq!(jobs.len(), outcome.outputs.len(), "jobs/outputs mismatch");
        let mut report = SweepReport::new(name);
        report.scenario_coverage = scenario_coverage_rows(jobs);
        for (job, out) in jobs.iter().zip(&outcome.outputs) {
            match out {
                Err(fail) => {
                    report
                        .errors
                        .push((fail.id, fail.label.clone(), fail.message.clone()));
                }
                Ok(JobOutput::AloneIpcs(_)) => {}
                Ok(JobOutput::Run(r)) => {
                    let JobKind::Run { mix, org_label, .. } = &job.kind else {
                        panic!("Run output from a non-Run job {}", job.id);
                    };
                    let faults = r.fault_summary();
                    report.cells.push(CellReport {
                        id: job.id,
                        mix: mix.name.clone(),
                        cores: mix.cores(),
                        policy: r.policy.clone(),
                        org: org_label.clone(),
                        seed: job.seed,
                        metrics: vec![
                            ("total_ipc".to_string(), r.total_ipc()),
                            ("llc_mpki".to_string(), r.llc_mpki()),
                            ("wpki".to_string(), r.wpki()),
                            ("predictor_apki".to_string(), r.predictor_apki()),
                            (
                                "uncore_energy_uj".to_string(),
                                r.energy.total_pj() as f64 / 1e6,
                            ),
                        ],
                        faults: (!faults.is_clean()).then_some(faults),
                    });
                    if let Some(tl) = &r.telemetry {
                        report.timelines.push((job.id, tl.clone()));
                    }
                }
            }
        }
        report
    }

    /// The cell with job id `id`, for emitters appending derived metrics.
    pub fn cell_mut(&mut self, id: usize) -> Option<&mut CellReport> {
        self.cells.iter_mut().find(|c| c.id == id)
    }

    /// Serialise to the `drishti-sweep/v1` JSON document.
    pub fn to_json_string(&self) -> String {
        let mut root = Json::obj();
        root.push("schema", Json::Str(SCHEMA.to_string()))
            .push("name", Json::Str(self.name.clone()));
        let mut config = Json::obj();
        for (k, v) in &self.config {
            config.push(k, Json::Str(v.clone()));
        }
        root.push("config", config);
        root.push(
            "cells",
            Json::Arr(self.cells.iter().map(CellReport::to_json).collect()),
        );
        root.push(
            "errors",
            Json::Arr(
                self.errors
                    .iter()
                    .map(|(id, label, msg)| {
                        let mut e = Json::obj();
                        e.push("id", Json::UInt(*id as u64))
                            .push("label", Json::Str(label.clone()))
                            .push("message", Json::Str(msg.clone()));
                        e
                    })
                    .collect(),
            ),
        );
        let mut summary = Json::obj();
        for (section, pairs) in &self.summary {
            let mut sec = Json::obj();
            for (k, v) in pairs {
                sec.push(k, Json::Num(*v));
            }
            summary.push(section, sec);
        }
        root.push("summary", summary);
        if !self.scenario_coverage.is_empty() {
            root.push(
                "scenario_coverage",
                Json::Arr(
                    self.scenario_coverage
                        .iter()
                        .map(|row| {
                            let mut r = Json::obj();
                            r.push("family", Json::Str(row.family.clone()))
                                .push("scenario", Json::Str(row.scenario.clone()))
                                .push("cores", Json::UInt(row.cores as u64))
                                .push("cells", Json::UInt(row.cells));
                            r
                        })
                        .collect(),
                ),
            );
        }
        root.to_pretty_string()
    }

    /// Relabel the coverage table for a run fed by *external* (ingested or
    /// recorded-elsewhere) traces: every row's family becomes `"ingested"`
    /// and rows that collide after relabeling merge. Called by the
    /// `drishti-sim` CLI when `--trace-file` preloads traces whose header
    /// name matches no built-in benchmark — family classification by mix
    /// contents would be a lie there, since the mix is only a stand-in for
    /// the foreign trace.
    pub fn mark_ingested(&mut self) {
        let mut buckets: std::collections::BTreeMap<(String, usize), u64> =
            std::collections::BTreeMap::new();
        for row in &self.scenario_coverage {
            *buckets
                .entry((row.scenario.clone(), row.cores))
                .or_insert(0) += row.cells;
        }
        self.scenario_coverage = buckets
            .into_iter()
            .map(|((scenario, cores), cells)| CoverageRow {
                family: "ingested".to_string(),
                scenario,
                cores,
                cells,
            })
            .collect();
    }

    /// Write the report to `path`, creating parent directories. Any
    /// collected telemetry timelines land beside it, one file per cell
    /// (see [`timeline_path`]); the report file itself is unaffected by
    /// their presence.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        write_file(path, &self.to_json_string())?;
        for (id, tl) in &self.timelines {
            tl.write(&timeline_path(path, *id))?;
        }
        Ok(())
    }
}

/// The host-dependent timing sidecar of a sweep — the part that is *not*
/// covered by the determinism contract.
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Sweep name.
    pub name: String,
    /// Worker threads used.
    pub workers: usize,
    /// Total cells executed (including alone-IPC cells).
    pub cells: usize,
    /// Cells that panicked.
    pub failed: usize,
    /// Wall-clock milliseconds for the whole batch.
    pub wall_ms: f64,
    /// Completed cells per wall-clock second.
    pub cells_per_sec: f64,
    /// Telemetry timeline files written beside the report (file names
    /// only), empty when telemetry was off. Listed here — not in the main
    /// report — so the byte-determinism contract is unaffected.
    pub timeline_files: Vec<String>,
    /// Cells loaded from a completion journal under `--resume` instead of
    /// simulated. Host-history-dependent, hence sidecar-only.
    pub resumed_cells: usize,
    /// Journal append failures (journaling degraded to plain execution).
    pub ckpt_write_failures: u64,
}

impl SweepTiming {
    /// Extract the timing view of an outcome.
    pub fn from_outcome(name: impl Into<String>, outcome: &SweepOutcome) -> Self {
        SweepTiming {
            name: name.into(),
            workers: outcome.workers,
            cells: outcome.outputs.len(),
            failed: outcome.failures().len(),
            wall_ms: outcome.wall.as_secs_f64() * 1e3,
            cells_per_sec: outcome.cells_per_sec(),
            timeline_files: Vec::new(),
            resumed_cells: outcome.resumed_cells,
            ckpt_write_failures: outcome.ckpt_write_failures,
        }
    }

    /// Record the timeline files that [`SweepReport::write`] will emit for
    /// `report` at `report_path`, so the sidecar points readers at them.
    pub fn attach_timelines(&mut self, report: &SweepReport, report_path: &Path) {
        self.timeline_files = report
            .timelines
            .iter()
            .filter_map(|(id, _)| {
                timeline_path(report_path, *id)
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
            })
            .collect();
    }

    /// Serialise to JSON.
    pub fn to_json_string(&self) -> String {
        let mut root = Json::obj();
        root.push("schema", Json::Str(format!("{SCHEMA}-timing")))
            .push("name", Json::Str(self.name.clone()))
            .push("workers", Json::UInt(self.workers as u64))
            .push("cells", Json::UInt(self.cells as u64))
            .push("failed", Json::UInt(self.failed as u64))
            .push("wall_ms", Json::Num(self.wall_ms))
            .push("cells_per_sec", Json::Num(self.cells_per_sec));
        // Resume/checkpoint counters appear only when nonzero, like the
        // timeline list, so pre-existing sidecar consumers see no change
        // on plain sweeps.
        if self.resumed_cells > 0 {
            root.push("resumed_cells", Json::UInt(self.resumed_cells as u64));
        }
        if self.ckpt_write_failures > 0 {
            root.push("ckpt_write_failures", Json::UInt(self.ckpt_write_failures));
        }
        if !self.timeline_files.is_empty() {
            root.push(
                "timelines",
                Json::Arr(
                    self.timeline_files
                        .iter()
                        .map(|f| Json::Str(f.clone()))
                        .collect(),
                ),
            );
        }
        root.to_pretty_string()
    }

    /// Write the sidecar next to `report_path` (`x.json` →
    /// `x.timing.json`), creating parent directories.
    pub fn write_beside(&self, report_path: &Path) -> io::Result<PathBuf> {
        let path = timing_path(report_path);
        write_file(&path, &self.to_json_string())?;
        Ok(path)
    }

    /// One human-readable line, for the experiment binaries' stderr.
    pub fn line(&self) -> String {
        let mut line = format!(
            "sweep {}: {} cells on {} worker(s) in {:.0} ms ({:.2} cells/s)",
            self.name, self.cells, self.workers, self.wall_ms, self.cells_per_sec
        );
        if self.resumed_cells > 0 {
            line.push_str(&format!(", {} resumed from journal", self.resumed_cells));
        }
        if self.ckpt_write_failures > 0 {
            line.push_str(&format!(
                ", journaling degraded after {} write failure(s)",
                self.ckpt_write_failures
            ));
        }
        line
    }
}

/// The default report path for a sweep: `target/sweep/<name>.json`.
pub fn default_report_path(name: &str) -> PathBuf {
    PathBuf::from("target/sweep").join(format!("{name}.json"))
}

/// The timing-sidecar path for a report path (`x.json` → `x.timing.json`).
pub fn timing_path(report_path: &Path) -> PathBuf {
    report_path.with_extension("timing.json")
}

/// The telemetry-timeline path of cell `id` for a report path
/// (`x.json` → `x.cell007.timeline.json`).
pub fn timeline_path(report_path: &Path, id: usize) -> PathBuf {
    report_path.with_extension(format!("cell{id:03}.timeline.json"))
}

fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunConfig;
    use drishti_core::config::DrishtiConfig;
    use drishti_policies::factory::PolicyKind;
    use drishti_trace::mix::Mix;
    use drishti_trace::presets::Benchmark;
    use drishti_trace::scenario::datacenter_mix;

    fn run_job(id: usize, mix: Mix) -> SweepJob {
        SweepJob {
            id,
            label: format!("{}/{id}", mix.name),
            seed: SweepJob::derive_seed(id),
            rc: RunConfig::quick(mix.cores()),
            kind: JobKind::Run {
                mix,
                policy: PolicyKind::Lru,
                org: DrishtiConfig::baseline(4),
                org_label: "baseline".to_string(),
            },
        }
    }

    fn scenario_jobs() -> Vec<SweepJob> {
        let phase = Mix::homogeneous(Benchmark::PhaseMcfLbm, 4, 1);
        vec![
            run_job(0, phase.clone()),
            run_job(1, phase.clone()),
            run_job(2, datacenter_mix(4, 7)),
            run_job(3, Mix::homogeneous(Benchmark::Mcf, 4, 1)),
            SweepJob {
                id: 4,
                label: "alone".to_string(),
                seed: SweepJob::derive_seed(4),
                rc: RunConfig::quick(4),
                kind: JobKind::AloneIpcs { mix: phase },
            },
        ]
    }

    #[test]
    fn coverage_rows_aggregate_run_cells_by_family() {
        let rows = scenario_coverage_rows(&scenario_jobs());
        assert_eq!(rows.len(), 3, "one row per (family, scenario, cores)");
        assert_eq!(rows[0].family, "datacenter");
        assert_eq!(rows[0].scenario, "dc-07");
        assert_eq!((rows[0].cores, rows[0].cells), (4, 1));
        assert_eq!(rows[1].family, "phase");
        assert_eq!(rows[1].cells, 2, "two cells over the phase mix");
        assert_eq!(rows[2].family, "synthetic");
        // Order-free: reversing the job list yields identical rows.
        let mut rev = scenario_jobs();
        rev.reverse();
        assert_eq!(rows, scenario_coverage_rows(&rev));
    }

    #[test]
    fn coverage_serialises_only_when_present() {
        let empty = sample_report();
        assert!(!empty.to_json_string().contains("scenario_coverage"));
        let mut r = sample_report();
        r.scenario_coverage = scenario_coverage_rows(&scenario_jobs());
        let s = r.to_json_string();
        assert!(s.contains("\"scenario_coverage\""));
        assert!(s.contains("\"family\": \"phase\""));
        assert!(s.contains("\"scenario\": \"dc-07\""));
        assert!(s.contains("\"cells\": 2"));
    }

    #[test]
    fn mark_ingested_relabels_and_merges() {
        let mut r = sample_report();
        r.scenario_coverage = scenario_coverage_rows(&scenario_jobs());
        r.mark_ingested();
        assert_eq!(r.scenario_coverage.len(), 3);
        assert!(r
            .scenario_coverage
            .iter()
            .all(|row| row.family == "ingested"));
        assert_eq!(
            r.scenario_coverage.iter().map(|r| r.cells).sum::<u64>(),
            4,
            "cell counts survive relabeling"
        );
    }

    fn sample_report() -> SweepReport {
        let mut r = SweepReport::new("unit");
        r.config.push(("cores".to_string(), "4".to_string()));
        r.cells.push(CellReport {
            id: 1,
            mix: "homo-mcf".to_string(),
            cores: 4,
            policy: "lru".to_string(),
            org: "baseline".to_string(),
            seed: 42,
            metrics: vec![("total_ipc".to_string(), 2.5)],
            faults: None,
        });
        r.summary.push((
            "mean_ws_improvement_pct".to_string(),
            vec![("lru".to_string(), 0.0)],
        ));
        r
    }

    #[test]
    fn report_serialises_all_sections() {
        let s = sample_report().to_json_string();
        for needle in [
            "\"schema\": \"drishti-sweep/v1\"",
            "\"name\": \"unit\"",
            "\"cores\": \"4\"",
            "\"mix\": \"homo-mcf\"",
            "\"total_ipc\": 2.5",
            "\"errors\": []",
            "\"mean_ws_improvement_pct\"",
        ] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn identical_reports_serialise_identically() {
        assert_eq!(
            sample_report().to_json_string(),
            sample_report().to_json_string()
        );
    }

    #[test]
    fn paths_are_derived_consistently() {
        let p = default_report_path("fig13");
        assert_eq!(p, PathBuf::from("target/sweep/fig13.json"));
        assert_eq!(
            timing_path(&p),
            PathBuf::from("target/sweep/fig13.timing.json")
        );
        assert_eq!(
            timeline_path(&p, 7),
            PathBuf::from("target/sweep/fig13.cell007.timeline.json")
        );
    }

    #[test]
    fn timelines_stay_out_of_the_main_report() {
        let mut r = sample_report();
        let plain = r.to_json_string();
        r.timelines.push((
            1,
            TelemetryTimeline {
                policy: "lru".to_string(),
                epoch_steps: 100,
                check_invariants: false,
                cores: 4,
                slices: 4,
                channels: 1,
                epochs: Vec::new(),
            },
        ));
        assert_eq!(
            r.to_json_string(),
            plain,
            "timelines must not change report bytes"
        );

        let mut t = SweepTiming {
            name: "x".to_string(),
            workers: 1,
            cells: 1,
            failed: 0,
            wall_ms: 1.0,
            cells_per_sec: 1.0,
            timeline_files: Vec::new(),
            resumed_cells: 0,
            ckpt_write_failures: 0,
        };
        assert!(!t.to_json_string().contains("timelines"));
        t.attach_timelines(&r, &default_report_path("unit"));
        assert_eq!(t.timeline_files, vec!["unit.cell001.timeline.json"]);
        assert!(t
            .to_json_string()
            .contains("\"unit.cell001.timeline.json\""));
    }

    #[test]
    fn timing_line_mentions_workers_and_rate() {
        let mut t = SweepTiming {
            name: "x".to_string(),
            workers: 8,
            cells: 16,
            failed: 0,
            wall_ms: 1000.0,
            cells_per_sec: 16.0,
            timeline_files: Vec::new(),
            resumed_cells: 0,
            ckpt_write_failures: 0,
        };
        let line = t.line();
        assert!(line.contains("8 worker(s)"));
        assert!(line.contains("16.00 cells/s"));
        assert!(t.to_json_string().contains("\"wall_ms\": 1000"));
        assert!(!line.contains("resumed"));
        let json = t.to_json_string();
        assert!(!json.contains("resumed_cells"));
        assert!(!json.contains("ckpt_write_failures"));

        t.resumed_cells = 5;
        t.ckpt_write_failures = 1;
        assert!(t.line().contains("5 resumed from journal"));
        assert!(t.line().contains("1 write failure(s)"));
        let json = t.to_json_string();
        assert!(json.contains("\"resumed_cells\": 5"));
        assert!(json.contains("\"ckpt_write_failures\": 1"));
    }
}
