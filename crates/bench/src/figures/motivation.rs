//! The motivation study (§3): how slicing scatters a PC's loads and skews
//! per-set pressure, and what that does to the predictors' view.

use super::*;
use drishti_core::config::SamplingMode;
use drishti_mem::llc::LlcGeometry;
use drishti_noc::slicehash::{SliceHasher, XorFoldHash};
use drishti_policies::mockingjay::Mockingjay;
use drishti_policies::opt::oracle_etr_for_pc;
use drishti_sim::pcstats::pc_slice_concentration;
use drishti_sim::runner::{run_mix_with_policy, RunConfig};
use drishti_trace::WorkloadGen;

/// Figure 2: fraction of PCs per core (excluding single-load PCs) whose
/// demand loads map to exactly one LLC slice, for 16-core mixes.
///
/// Paper: 66.2% average across 35 homogeneous + 35 heterogeneous mixes;
/// xalan is the worst (~40%, heavily scattered PCs), pr the best. The
/// metric is policy- and prefetcher-independent, so it is computed on the
/// recorded LLC-level demand stream of an LRU run.
pub const FIG02_PC_SCATTER: Figure = Figure::plain("fig02_pc_scatter", fig02_print);

fn fig02_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(16);
    let mut rc = opts.rc(cores);
    rc.record_llc_stream = true;
    println!("# Figure 2: fraction of multi-load PCs mapping to one slice ({cores} cores)\n");
    let hasher = XorFoldHash::new();

    // Named homogeneous case studies first (the paper calls out xalan low,
    // pr high), then the mixed set for the average.
    let mut mixes = vec![
        Mix::homogeneous(Benchmark::Xalan, cores, 400),
        Mix::homogeneous(Benchmark::Mcf, cores, 401),
        Mix::homogeneous(Benchmark::PrKron, cores, 402),
    ];
    mixes.extend(opts.paper_mixes(cores));

    let mut fractions = Vec::new();
    println!("{:<24} {:>22}", "mix", "one-slice PCs (avg %)");
    for mix in &mixes {
        let r = run_mix(mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
        let stats =
            pc_slice_concentration(&r.llc_stream, cores, |line| hasher.slice_of(line, cores));
        let avg = stats.average() * 100.0;
        println!("{:<24} {avg:>21.1}%", mix.name);
        fractions.push(avg);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len() as f64;
    println!("\naverage: {mean:.1}%  (paper: 66.2% average; xalan ≈40% — lowest)");
}

/// Figure 3 (and the companion Figure 18): predicted ETR values for the
/// loads of one hot PC under the *myopic* view (per-slice predictors), the
/// *global* view (per-core-yet-global predictor) and Drishti's view
/// (global + dynamic sampled cache), against the *oracle* view (true
/// forward reuse distance), on a 16-core homogeneous xalan mix.
///
/// Paper: myopic predictions scatter away from the oracle; the global view
/// tracks it closely; Drishti's view ≈ the global view (Fig 18).
pub const FIG03_ETR_VIEWS: Figure = Figure::plain("fig03_etr_views", fig03_print);

/// Pick the PC with the most LLC demand loads in a probe run, the lowest
/// such PC on a tie so that the pick does not depend on hash order (the
/// paper hand-picks 0x59cdbf for xalancbmk).
fn hottest_pc(mix: &Mix, rc: &RunConfig, cores: usize) -> u64 {
    let mut rc = rc.clone();
    rc.record_llc_stream = true;
    let geom = rc.system.llc;
    let policy = Box::new(Mockingjay::new(&geom, &DrishtiConfig::baseline(cores)));
    let r = run_mix_with_policy(mix, policy, &rc);
    let mut counts = std::collections::HashMap::new();
    for a in r.llc_stream.iter().filter(|a| a.kind.is_demand()) {
        *counts.entry(a.pc).or_insert(0u64) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(pc, c)| (c, std::cmp::Reverse(pc)))
        .map(|(pc, _)| pc)
        .unwrap_or(0)
}

fn summarize(label: &str, samples: &[u8]) -> f64 {
    if samples.is_empty() {
        println!("{label:<10} (no samples)");
        return 0.0;
    }
    let mut s: Vec<u8> = samples.to_vec();
    s.sort_unstable();
    let mean = s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
    let p = |q: f64| s[((s.len() - 1) as f64 * q) as usize];
    println!(
        "{label:<10} n={:<7} mean={mean:>6.1}  p10={:>3}  p50={:>3}  p90={:>3}",
        s.len(),
        p(0.1),
        p(0.5),
        p(0.9)
    );
    mean
}

fn fig03_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(16);
    let rc = opts.rc(cores);
    let mix = Mix::homogeneous(Benchmark::Xalan, cores, 77);
    println!("# Figure 3/18: ETR views for the hottest xalan PC ({cores} cores)\n");

    let pc = hottest_pc(&mix, &rc, cores);
    println!("target PC: {pc:#x}\n");
    let geom: LlcGeometry = rc.system.llc;

    // Oracle: true forward set-local reuse distances of that PC's loads.
    let trace: Vec<_> = {
        let mut gens = mix.build();
        let mut all = Vec::new();
        for (core, g) in gens.iter_mut().enumerate() {
            for r in g.collect((rc.warmup_accesses + rc.accesses_per_core) as usize) {
                all.push(drishti_mem::access::Access::load(core, r.pc, r.line));
            }
        }
        all
    };
    let oracle = oracle_etr_for_pc(&trace, &geom, pc, 1, 127);
    let oracle_mean = summarize("oracle", &oracle);

    let views = [
        ("myopic", DrishtiConfig::baseline(cores)),
        ("global", DrishtiConfig::global_view_only(cores)),
        ("drishti", DrishtiConfig::drishti(cores)),
    ];
    let mut deviations = Vec::new();
    for (label, cfg) in views {
        let mut policy = Mockingjay::new(&geom, &cfg);
        let handle = policy.enable_etr_log(pc);
        let _ = run_mix_with_policy(&mix, Box::new(policy), &rc);
        let samples: Vec<u8> = handle.borrow().iter().map(|s| s.pred_units).collect();
        let mean = summarize(label, &samples);
        deviations.push((label, (mean - oracle_mean).abs()));
    }
    println!("\n|mean − oracle-mean| per view:");
    for (label, d) in &deviations {
        println!("  {label:<10} {d:.1}");
    }
    println!("\npaper: myopic deviates from oracle; global ≈ oracle; drishti ≈ global");
}

/// Figure 4: frequency distribution of predicted reuse values under the
/// myopic vs. global views — ETR classes for Mockingjay (a: xalan, b: pr)
/// and RRIP values for Hawkeye (c: xalan, d: pr), on 16-core homogeneous
/// mixes.
///
/// Paper: the myopic/global distributions differ much more for xalan
/// (scattered PCs) than for pr (concentrated PCs).
pub const FIG04_PRED_HIST: Figure = Figure::plain("fig04_pred_hist", fig04_print);

/// L1 distance between two normalised distributions (0 = identical,
/// 2 = disjoint).
fn l1(a: &[u64], b: &[u64]) -> f64 {
    let sa: u64 = a.iter().sum();
    let sb: u64 = b.iter().sum();
    if sa == 0 || sb == 0 {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as f64 / sa as f64 - y as f64 / sb as f64).abs())
        .sum()
}

fn hist_from_diag(diag: &[(String, u64)], keys: &[&str]) -> Vec<u64> {
    let get = |k: &str| diag.iter().find(|(n, _)| n == k).map_or(0, |(_, v)| *v);
    keys.iter().map(|k| get(k)).collect()
}

fn fig04_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(16);
    let rc = opts.rc(cores);
    println!("# Figure 4: predicted-value distributions, myopic vs global view\n");
    for bench in [Benchmark::Xalan, Benchmark::PrKron] {
        let mix = Mix::homogeneous(bench, cores, 9);
        for pk in [PolicyKind::Mockingjay, PolicyKind::Hawkeye] {
            let myopic = run_mix(&mix, pk, DrishtiConfig::baseline(cores), &rc);
            let global = run_mix(&mix, pk, DrishtiConfig::global_view_only(cores), &rc);
            // Hawkeye exposes its insertion split through diagnostics;
            // Mockingjay's fill classes are proxied the same way
            // (friendly ↔ short-distance, averse ↔ bypass/INF classes).
            let (hm, hg) = match pk {
                PolicyKind::Hawkeye => (
                    hist_from_diag(&myopic.diagnostics, &["fills_friendly", "fills_averse"]),
                    hist_from_diag(&global.diagnostics, &["fills_friendly", "fills_averse"]),
                ),
                _ => (
                    hist_from_diag(
                        &myopic.diagnostics,
                        &["pred_q0", "pred_q1", "pred_q2", "pred_q3"],
                    ),
                    hist_from_diag(
                        &global.diagnostics,
                        &["pred_q0", "pred_q1", "pred_q2", "pred_q3"],
                    ),
                ),
            };
            println!(
                "{:<10} {:<12} myopic={:?} global={:?}  L1-divergence={:.3}",
                bench.label(),
                pk.label(),
                hm,
                hg,
                l1(&hm, &hg)
            );
        }
    }
    println!("\npaper: divergence(xalan) >> divergence(pr) for both policies");
}

/// Figure 5: misses per kilo-access (MPKA) per LLC set for 16-core
/// homogeneous mcf, gcc and lbm mixes.
///
/// Paper: mcf — strong skew (many sets under 100 MPKA, a few very hot);
/// gcc — milder skew; lbm — uniform MPKA across all sets (streaming).
pub const FIG05_SET_MPKA: Figure = Figure::plain("fig05_set_mpka", fig05_print);

fn fig05_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(16);
    let rc = opts.rc(cores);
    println!("# Figure 5: per-set MPKA distribution ({cores} cores, slice 0)\n");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "mix", "min", "p50", "p90", "max", "mean", "cv(stddev/mean)"
    );
    for bench in [Benchmark::Mcf, Benchmark::Gcc, Benchmark::Lbm] {
        let mix = Mix::homogeneous(bench, cores, 3);
        let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
        // Aggregate MPKA across all slices' sets.
        let mut mpkas: Vec<f64> = r
            .set_counters
            .iter()
            .flat_map(|slice| slice.iter())
            .filter(|c| c.accesses > 0)
            .map(|c| c.mpka())
            .collect();
        mpkas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = mpkas.len();
        let mean = mpkas.iter().sum::<f64>() / n as f64;
        let var = mpkas.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean.max(1e-9);
        println!(
            "{:<8} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>10.1} {:>12.3}",
            bench.label(),
            mpkas[0],
            mpkas[n / 2],
            mpkas[n * 9 / 10],
            mpkas[n - 1],
            mean,
            cv
        );
    }
    println!("\npaper shape: cv(mcf) > cv(gcc) >> cv(lbm) ≈ 0 (uniform)");
}

/// Table 1: speedup on top of Mockingjay (random sampled sets) when the
/// sampled sets are chosen by per-set MPKA, for a 16-core homogeneous mcf
/// mix: Case I — top-32 MPKA sets; Case II — bottom-32; Case III — 16 top
/// + 16 bottom.
///
/// Paper: Case I +16.4%, Case II +8.3%, Case III +9.5% — the high-MPKA
/// sets carry the training signal.
pub const TABLE1_SAMPLING_CASES: Figure = Figure::plain("table1_sampling_cases", table1_print);

fn table1_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(16);
    let rc = opts.rc(cores);
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 5);
    println!("# Table 1: MPKA-informed sampled-set selection, 16-core mcf\n");

    // Profile per-set MPKA under LRU (the workload's intrinsic per-set
    // pressure, paper Fig 5), then evaluate Mockingjay with each selection.
    let profile = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(cores), &rc);
    let baseline = run_mix(
        &mix,
        PolicyKind::Mockingjay,
        DrishtiConfig::baseline(cores),
        &rc,
    );
    let baseline_ipc = baseline.total_ipc();

    // Rank each slice's sets by MPKA.
    let ranked: Vec<Vec<usize>> = profile
        .set_counters
        .iter()
        .map(|slice| {
            let mut idx: Vec<usize> = (0..slice.len()).collect();
            idx.sort_by(|&a, &b| {
                slice[b]
                    .mpka()
                    .partial_cmp(&slice[a].mpka())
                    .expect("finite")
            });
            idx
        })
        .collect();

    let n = 32.min(rc.system.llc.sets_per_slice);
    let cases: Vec<(&str, Vec<Vec<usize>>)> = vec![
        (
            "Case I (top-32 MPKA)",
            ranked.iter().map(|r| r[..n].to_vec()).collect(),
        ),
        (
            "Case II (bottom-32 MPKA)",
            ranked.iter().map(|r| r[r.len() - n..].to_vec()).collect(),
        ),
        (
            "Case III (16 top + 16 bottom)",
            ranked
                .iter()
                .map(|r| {
                    let mut v = r[..n / 2].to_vec();
                    v.extend_from_slice(&r[r.len() - n / 2..]);
                    v
                })
                .collect(),
        ),
    ];

    println!("baseline Mockingjay (random sampled sets) total IPC: {baseline_ipc:.3}\n");
    for (label, lists) in cases {
        let mut cfg = DrishtiConfig::baseline(cores);
        cfg.sampling = SamplingMode::Explicit(lists);
        let r = run_mix(&mix, PolicyKind::Mockingjay, cfg, &rc);
        println!(
            "{label:<32} speedup over random sampling: {:+.1}%",
            (r.total_ipc() / baseline_ipc - 1.0) * 100.0
        );
    }
    println!("\npaper: +16.4% / +8.3% / +9.5% — Case I (high-MPKA) must win");
}
