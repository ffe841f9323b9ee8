//! The untraced run: set-up, warm-up, timed trials and the final checked
//! trial of one workload, reduced to the end-to-end metrics.
//!
//! Host noise on a shared machine is one-sided: contention for the
//! memory system from neighbours slows memory-bound code by up to ~40%
//! for stretches of a fraction of a second to many seconds, and nothing
//! makes it faster. A rate is therefore reported at every timed unit's
//! fastest trial (best of n per cell, summed over the cells); the rates
//! at every unit's median and quartile times describe the run's spread.

use crate::catalog::{Metric, END_TO_END};
use crate::check::{pinned, Checker};
use crate::stats::{median, quartiles, Summary};
use crate::workloads::{setup_once, trial, Workload};
use drishti_trace::replay::TraceCache;
use std::time::{Duration, Instant};

/// Set-up repetitions run for at least this long, and at least
/// [`MIN_SETUP_REPS`] times; `setup_s` is their median.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUP_REPS: usize = 5;
const MAX_SETUP_REPS: usize = 50;

/// Timed trials a `--seconds` budget runs at least.
const MIN_TRIALS: usize = 3;

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed; every sim-point seed derives from it.
    pub seed: u64,
    /// Measurement budget: timed trials run until it is spent.
    pub seconds: f64,
    /// A fixed number of timed trials instead of the budget.
    pub trials: Option<usize>,
    /// Smoke-test sizes (no pinned fingerprints).
    pub quick: bool,
}

impl RunOpts {
    /// Whether this run's fingerprints are pinned in `expected.txt`.
    pub fn pinned(&self) -> bool {
        self.seed == 1 && !self.quick
    }
}

/// What an untraced run measured.
#[derive(Debug)]
pub struct Measured {
    /// Each end-to-end metric with its summary over the run's samples.
    pub metrics: Vec<(Metric, Summary)>,
    /// Ops attempted and failures.
    pub check: Checker,
    /// Seconds per trial inside `Engine::run` (the sweep's wall time for
    /// the sweep workload), from per-unit medians: the baseline of the
    /// tracing overhead.
    pub engine_run_s: f64,
}

/// Measure `workload`: repeated set-ups, one discarded warm-up trial
/// (which fills the trace cache and sets the reference fingerprints),
/// timed trials until the budget is spent, the peak RSS, then one
/// checked trial under the reference shadow cache. The checked trial
/// runs last so its shadow state stays out of the peak RSS.
pub fn measure(workload: Workload, o: &RunOpts) -> Measured {
    let cells = workload.cells(o.seed, o.quick);
    let mut setup = Vec::new();
    let start = Instant::now();
    while setup.len() < MIN_SETUP_REPS
        || (start.elapsed().as_secs_f64() < SETUP_BUDGET_S && setup.len() < MAX_SETUP_REPS)
    {
        setup.push(setup_once(&cells));
    }

    let cache = TraceCache::new();
    let mut check = Checker::default();
    let warm = trial(workload, &cells, &cache, o.seed, o.quick, false);
    let pins = o.pinned().then(|| pinned(workload));
    check.reference(&warm, pins.as_deref());

    let budget = Duration::from_secs_f64(o.seconds);
    let start = Instant::now();
    let mut timed = Vec::new();
    loop {
        let done = match o.trials {
            Some(n) => timed.len() >= n,
            None => timed.len() >= MIN_TRIALS && start.elapsed() >= budget,
        };
        if done {
            break;
        }
        let t = trial(workload, &cells, &cache, o.seed, o.quick, false);
        check.compare(&t);
        timed.push(t);
    }
    let rss = peak_rss_mib();
    if workload != Workload::Fig13 {
        let checked = trial(workload, &cells, &cache, o.seed, o.quick, true);
        check.compare(&checked);
    }

    // Per-unit time samples across the timed trials.
    let units = warm.units.len();
    let per_unit = |f: fn(&crate::workloads::Unit) -> f64| -> Vec<Vec<f64>> {
        (0..units)
            .map(|i| timed.iter().map(|t| f(&t.units[i])).collect())
            .collect()
    };
    let runs = per_unit(|u| u.run_s);
    let walls = per_unit(|u| u.wall_s);
    let steps: u64 = warm.units.iter().map(|u| u.steps).sum();
    let summaries = [
        rate(steps as f64, &runs),
        rate(warm.ops.len() as f64, &walls),
        Summary::of(&setup),
        Summary::of(&[rss]),
    ];
    Measured {
        metrics: END_TO_END.iter().copied().zip(summaries).collect(),
        check,
        engine_run_s: runs.iter().map(|r| median(r)).sum(),
    }
}

/// `amount` per second of a trial in which every unit takes its fastest
/// time (the reported value), its median time, or its slow or fast
/// quartile time (the rate's quartiles).
fn rate(amount: f64, unit_times: &[Vec<f64>]) -> Summary {
    let (mut best, mut fast, mut mid, mut slow) = (0.0, 0.0, 0.0, 0.0);
    for times in unit_times {
        let (q1, q3) = quartiles(times);
        best += times.iter().copied().fold(f64::INFINITY, f64::min);
        fast += q1;
        mid += median(times);
        slow += q3;
    }
    Summary {
        value: amount / best,
        q1: amount / slow,
        median: amount / mid,
        q3: amount / fast,
        n: unit_times.first().map_or(0, Vec::len),
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (not Linux).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_takes_each_unit_at_its_fastest_trial() {
        // Unit 0 is slowed in two of three trials, unit 1 in one.
        let units = vec![vec![3.0, 1.0, 9.0], vec![2.0, 4.0, 2.0]];
        let s = rate(30.0, &units);
        assert_eq!(s.value, 10.0);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.n, 3);
        assert!(s.q1 < s.median && s.median <= s.q3 && s.q3 <= s.value);
    }
}
