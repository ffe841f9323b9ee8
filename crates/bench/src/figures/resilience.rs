//! Resilience study: speedup vs. uncore fault rate.
//!
//! Sweeps message-drop probability over {0, 5, 10, 25, 50}% for the
//! headline policies under both the baseline and the Drishti predictor
//! organisation, with every run's IPC normalised to the *fault-free* run
//! of the same (policy, organisation). The interesting question is the
//! shape of the curve: a policy whose degradation path works loses
//! performance smoothly as the fabric gets lossier, never hangs, and
//! never collapses — its slices fall back to static SRRIP-like insertion
//! when predictions stop arriving instead of blocking on them.
//!
//! Every `(policy, organisation, drop-rate)` cell is an independent
//! [`SweepJob`] on the parallel harness. The figure has no mix groups and
//! runs its own sweep while it prints, because its normalisation
//! baseline is the fault-free cell of the same variant, not LRU. A fixed
//! fault seed carried by each job makes every row reproducible
//! bit-for-bit at any `--jobs` width; the report lands in
//! `target/sweep/resilience.json`.

use super::*;
use crate::{run_journaled, write_reports};
use drishti_noc::faults::FaultConfig;
use drishti_sim::runner::RunConfig;
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::report::SweepTiming;
use drishti_sim::sweep::{JobKind, SweepJob};
use drishti_sim::telemetry::TelemetrySpec;

pub const RESILIENCE: Figure = Figure::plain("resilience", print);

const FAULT_SEED: u64 = 42;
const DROP_PCTS: [f64; 5] = [0.0, 5.0, 10.0, 25.0, 50.0];

fn print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(8);
    let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), cores, 1);
    println!(
        "# Resilience: total IPC vs. uncore message-drop rate ({cores} cores, mix {})\n",
        mix.name
    );

    let variants: Vec<(PolicyKind, &str)> = vec![
        (PolicyKind::Mockingjay, "baseline"),
        (PolicyKind::Mockingjay, "drishti"),
        (PolicyKind::Hawkeye, "baseline"),
        (PolicyKind::Hawkeye, "drishti"),
    ];

    // One job per (variant, drop-rate) cell; the job's seed is the cell's
    // fault seed, so the whole batch is order-free.
    let mut jobs = Vec::new();
    for (policy, org) in &variants {
        for &drop_pct in &DROP_PCTS {
            let faults = FaultConfig::with_drops(FAULT_SEED, drop_pct);
            let drishti = match *org {
                "drishti" => DrishtiConfig::drishti(cores),
                _ => DrishtiConfig::baseline(cores),
            }
            .with_faults(faults.clone());
            let id = jobs.len();
            jobs.push(SweepJob {
                id,
                label: format!("{}/{}/{org}/drop{drop_pct}", mix.name, policy.label()),
                seed: FAULT_SEED,
                rc: RunConfig {
                    system: SystemConfig::with_faults(cores, faults),
                    accesses_per_core: opts.accesses,
                    warmup_accesses: opts.accesses / 4,
                    record_llc_stream: false,
                    sampling: SamplingSpec::off(),
                    telemetry: TelemetrySpec::off(),
                },
                kind: JobKind::Run {
                    mix: mix.clone(),
                    policy: *policy,
                    org: drishti,
                    org_label: (*org).to_string(),
                },
            });
        }
    }

    let outcome =
        run_journaled("resilience", &jobs, opts).unwrap_or_else(|failed| panic!("{failed}"));
    let timing = SweepTiming::from_outcome("resilience", &outcome);
    let run_cell = |idx: usize| {
        outcome.outputs[idx]
            .as_ref()
            .expect("failures handled above")
            .unwrap_run()
    };
    let mut report = SweepReport::from_outcome("resilience", &jobs, &outcome);
    report
        .config
        .push(("fault_seed".to_string(), FAULT_SEED.to_string()));
    report
        .config
        .push(("accesses".to_string(), opts.accesses.to_string()));
    report.config.push(("cores".to_string(), cores.to_string()));

    header(
        "policy/org",
        &DROP_PCTS
            .iter()
            .map(|p| format!("{p:.0}% drop"))
            .collect::<Vec<_>>(),
    );

    for (v, (policy, org)) in variants.iter().enumerate() {
        let base = v * DROP_PCTS.len();
        let healthy = run_cell(base);
        assert!(
            healthy.fault_summary().is_clean(),
            "zero-rate run of {}/{org} reports faults",
            policy.label()
        );
        let healthy_ipc = healthy.total_ipc();
        let mut cells = Vec::new();
        for (d, &drop_pct) in DROP_PCTS.iter().enumerate() {
            let r = run_cell(base + d);
            let ipc = r.total_ipc();
            let rel = if healthy_ipc > 0.0 {
                ipc / healthy_ipc
            } else {
                0.0
            };
            cells.push(format!("{} ({}×)", f2(ipc), f2(rel)));
            let cell = report.cell_mut(base + d).expect("run cell in report");
            cell.metrics.push(("drop_pct".to_string(), drop_pct));
            cell.metrics.push(("rel_ipc".to_string(), rel));
        }
        row(&format!("{}/{org}", policy.label()), &cells);
        let worst = run_cell(base + DROP_PCTS.len() - 1).fault_summary();
        println!(
            "    at 50%: mesh drops {} (retries {}), fabric fallbacks {}, dropped trainings {}",
            worst.mesh_dropped,
            worst.mesh_retries,
            worst.fallback_decisions,
            worst.dropped_trainings
        );
    }

    println!("\ncells: absolute total IPC (relative to the same variant's fault-free run)");
    println!("graceful degradation = relative IPC declines smoothly and every run completes");
    if let Err(e) = write_reports(opts, &report, &timing) {
        panic!("failed to write the resilience report: {e}");
    }
}
