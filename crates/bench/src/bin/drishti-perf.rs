//! `drishti-perf`: the simulator-throughput trajectory gate (ROADMAP
//! item 3; see DESIGN.md §15).
//!
//! Runs the pinned cell matrix (2 fig13 mixes × {LRU, Mockingjay} ×
//! {baseline, drishti}, 4 cores, fixed seeds) single-threaded and through
//! the sweep pool, prints the per-cell steps/sec table, and writes a
//! `drishti-perf/v1` report to `BENCH_<YYYYMMDD>.json` (override with
//! `--out`). `--compare PATH` prints a report-only comparison against a
//! previous baseline — a >10% regression warns, never fails.

use drishti_bench::perf::{
    compare_reports, default_bench_path, run_perf, PerfOpts, MULTICHIP_CHIPS, MULTICHIP_CORES,
};

fn main() {
    let opts = PerfOpts::from_args();
    println!("# drishti-perf: pinned-matrix simulator throughput\n");
    let report = run_perf(&opts);

    println!("{:<44} {:>10} {:>14}", "cell", "wall s", "steps/sec");
    for (label, wall, steps) in &report.single_cells {
        println!("{label:<44} {wall:>10.3} {:>14.0}", *steps as f64 / *wall);
    }
    println!(
        "\nsingle-thread: {:.0} steps/sec, {:.0} accesses/sec ({} steps in {:.3} s, best of {})",
        report.single.steps_per_sec(),
        report.single.accesses_per_sec(),
        report.single.steps,
        report.single.wall_sec,
        report.opts.trials,
    );
    println!(
        "sweep pool ({} workers): {:.0} steps/sec, {:.2} cells/sec \
         (trace cache {}h/{}m, warm ckpt {}h/{}m)",
        report.pool_workers,
        report.pool.steps_per_sec(),
        report.pool_cells_per_sec,
        report.trace_cache.0,
        report.trace_cache.1,
        report.warm_ckpt.0,
        report.warm_ckpt.1,
    );
    println!(
        "trace store: {:.2} bytes/record over {} records",
        report.bytes_per_record(),
        report.trace_store.0
    );
    println!(
        "multichip ({MULTICHIP_CORES} cores / {MULTICHIP_CHIPS} chips, all active): \
         {:.0} steps/sec, {:.0} accesses/sec ({} inter-chip messages)",
        report.multichip.timing.steps_per_sec(),
        report.multichip.timing.accesses_per_sec(),
        report.multichip.interchip_messages,
    );

    if let Some(baseline) = &opts.compare {
        match std::fs::read_to_string(baseline) {
            Ok(json) => {
                println!("\ncomparison vs {}:", baseline.display());
                for line in compare_reports(&report, &json, 0.10) {
                    println!("  {line}");
                }
            }
            Err(e) => println!(
                "\nnote: cannot read baseline {}: {e}; skipping comparison",
                baseline.display()
            ),
        }
    }

    let out = opts.out.clone().unwrap_or_else(default_bench_path);
    if let Err(e) = report.write(&out) {
        eprintln!("error: failed to write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("\nreport: {}", out.display());
}
