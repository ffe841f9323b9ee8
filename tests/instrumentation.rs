//! Integration tests of the paper-figure instrumentation paths: the ETR
//! logging used by Figs 3/18, the captured LLC stream used by Fig 2, the
//! per-set counters used by Fig 5 / Table 1, and the offline oracle.

use drishti::core::config::DrishtiConfig;
use drishti::noc::slicehash::{SliceHasher, XorFoldHash};
use drishti::policies::factory::PolicyKind;
use drishti::policies::mockingjay::Mockingjay;
use drishti::policies::opt::simulate_opt;
use drishti::sim::config::SystemConfig;
use drishti::sim::pcstats::pc_slice_concentration;
use drishti::sim::runner::{run_mix, run_mix_with_policy, RunConfig};
use drishti::sim::sampling::SamplingSpec;
use drishti::sim::telemetry::TelemetrySpec;
use drishti::trace::mix::Mix;
use drishti::trace::presets::Benchmark;

fn rc(cores: usize, accesses: u64, record: bool) -> RunConfig {
    RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: accesses,
        warmup_accesses: accesses / 4,
        record_llc_stream: record,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    }
}

#[test]
fn etr_log_survives_the_policy_moving_into_the_engine() {
    let cores = 4;
    let mix = Mix::homogeneous(Benchmark::Xalan, cores, 1);
    let cfg = rc(cores, 20_000, true);
    // Find a hot PC from a probe run.
    let probe = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &cfg);
    let mut counts = std::collections::HashMap::new();
    for a in probe.llc_stream.iter().filter(|a| a.kind.is_demand()) {
        *counts.entry(a.pc).or_insert(0u64) += 1;
    }
    let (pc, n) = counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .expect("stream nonempty");
    assert!(n > 10, "probe found no hot PC");

    let geom = cfg.system.llc;
    let mut policy = Mockingjay::new(&geom, &DrishtiConfig::baseline(cores));
    let handle = policy.enable_etr_log(pc);
    let _ = run_mix_with_policy(&mix, Box::new(policy), &cfg);
    let log = handle.borrow();
    assert!(!log.is_empty(), "predictions for the hot PC must be logged");
    assert!(log.iter().all(|s| s.core < cores && s.slice < cores));
}

#[test]
fn llc_stream_supports_fig2_and_the_oracle() {
    let cores = 4;
    let mix = Mix::homogeneous(Benchmark::PrKron, cores, 2);
    let cfg = rc(cores, 30_000, true);
    let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &cfg);
    assert!(!r.llc_stream.is_empty());

    // Fig 2 analysis on the captured stream.
    let h = XorFoldHash::new();
    let stats = pc_slice_concentration(&r.llc_stream, cores, |l| h.slice_of(l, cores));
    let avg = stats.average();
    assert!(
        avg > 0.5,
        "pr-like workloads must show concentrated PCs, got {avg}"
    );

    // OPT on the same stream is an upper bound for the demand hit ratio the
    // LLC achieved.
    let opt = simulate_opt(&r.llc_stream, &cfg.system.llc);
    let observed_hits = r.llc.demand_accesses - r.llc.demand_misses;
    assert!(
        opt.hits + r.llc.prefetch_accesses >= observed_hits,
        "OPT ({}) cannot lose to LRU ({observed_hits})",
        opt.hits
    );
}

#[test]
fn set_counters_expose_mcf_skew_for_table1() {
    let cores = 4;
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 3);
    let cfg = rc(cores, 60_000, false);
    let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &cfg);
    // Coefficient of variation of per-set MPKA: mcf must show visible skew.
    let mpkas: Vec<f64> = r
        .set_counters
        .iter()
        .flat_map(|s| s.iter())
        .filter(|c| c.accesses > 0)
        .map(|c| c.mpka())
        .collect();
    assert!(mpkas.len() > 1000, "most sets should be touched");
    let mean = mpkas.iter().sum::<f64>() / mpkas.len() as f64;
    let var = mpkas.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / mpkas.len() as f64;
    let cv = var.sqrt() / mean;
    assert!(cv > 0.05, "mcf per-set MPKA should be skewed, cv={cv}");
}

#[test]
fn storage_budget_matches_paper_table3() {
    use drishti::core::budget::Budget;
    assert!((Budget::hawkeye(false).total_kib() - 28.0).abs() < 0.05);
    assert!((Budget::hawkeye(true).total_kib() - 20.75).abs() < 0.05);
    assert!((Budget::mockingjay(false).total_kib() - 31.91).abs() < 0.2);
    assert!((Budget::mockingjay(true).total_kib() - 28.95).abs() < 0.2);
}
