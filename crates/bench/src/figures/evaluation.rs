//! The main evaluation (§5): the headline policies against LRU. Figures
//! 13–16 and Tables 5–6 are views of the same cells.

use super::*;

/// Figure 13: performance improvement of Hawkeye, D-Hawkeye, Mockingjay and
/// D-Mockingjay over LRU on 4-, 16- and 32-core systems with 8, 32 and
/// 64 MB sliced LLCs, across homogeneous + heterogeneous mixes.
///
/// Every `(mix, policy, organisation)` cell — across *all* requested core
/// counts — goes into one job batch, and the report written to
/// `target/sweep/` is bit-identical for any `--jobs` value (the CI
/// determinism gate diffs `--jobs 1` against `--jobs 8` on exactly this
/// binary).
///
/// Paper values (average normalised weighted speedup over LRU):
///   4 cores:  Hawkeye +3.1%, D-Hawkeye +4.2%, Mockingjay +6.4%, D-Mockingjay +6.9%
///   16 cores: (trend between 4 and 32)
///   32 cores: Hawkeye +3.3%, D-Hawkeye +5.6%, Mockingjay +6.7%, D-Mockingjay +13.2%
pub const FIG13_MAIN_PERFORMANCE: Figure =
    Figure::new("fig13_main_performance", headline_groups, fig13_print);

fn fig13_print(_: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    println!("# Figure 13: normalised weighted speedup over LRU\n");
    headline_header("cores (LLC)");
    for g in groups {
        let cores = g.mixes[0].cores();
        mean_row(&format!("{cores} cores ({} MB)", cores * 2), &g.evals);
    }
    println!("\npaper: 4-core +3.1/+4.2/+6.4/+6.9; 32-core +3.3/+5.6/+6.7/+13.2");
}

/// Figure 14: LLC miss (MPKI) reduction over LRU on 4/16/32 cores,
/// averaged across the homogeneous + heterogeneous mixes.
///
/// Paper values: 4 cores — Hawkeye −12.9%, D-Hawkeye −14.5%,
/// Mockingjay −23.8%, D-Mockingjay −24.0%; 32 cores — Hawkeye −10.6%,
/// D-Hawkeye −14.1%, Mockingjay −21.2%, D-Mockingjay −24.1%.
pub const FIG14_MPKI_REDUCTION: Figure =
    Figure::new("fig14_mpki_reduction", headline_groups, fig14_print);

fn fig14_print(_: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    println!("# Figure 14: LLC MPKI reduction vs LRU (more negative = better)\n");
    headline_header("cores");
    for g in groups {
        let missed = g.evals.iter().filter(|e| e.lru.llc_mpki() > 0.0);
        let reductions = column_means(missed, |c, e| {
            (c.result.llc_mpki() / e.lru.llc_mpki() - 1.0) * 100.0
        });
        row_of(&format!("{} cores", g.mixes[0].cores()), &reductions, pct);
    }
    println!("\npaper: 4-core -12.9/-14.5/-23.8/-24.0; 32-core -10.6/-14.1/-21.2/-24.1");
}

/// Table 5: average LLC write-backs per kilo-instruction (WPKI) for LRU,
/// Hawkeye, D-Hawkeye, Mockingjay and D-Mockingjay.
///
/// Paper values (16 cores): LRU 0.18, Hawkeye 1.15, D-Hawkeye 2.63,
/// Mockingjay 7.16, D-Mockingjay 7.02 — Belady-mimicking policies assign
/// dirty lines the lowest priority, so write-back traffic rises sharply
/// versus LRU.
pub const TABLE5_WPKI: Figure = Figure::new("table5_wpki", headline_groups, table5_print);

fn table5_print(_: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    println!("# Table 5: LLC WPKI (write-backs per kilo-instruction)\n");
    header(
        "cores",
        &["lru", "hawkeye", "d-hawkeye", "mockingjay", "d-mockingjay"].map(String::from),
    );
    for g in groups {
        let mut values = vec![mean(
            &g.evals.iter().map(|e| e.lru.wpki()).collect::<Vec<_>>(),
        )];
        values.extend(column_means(g.evals.iter(), |c, _| c.result.wpki()));
        row_of(&format!("{} cores", g.mixes[0].cores()), &values, f2);
    }
    println!("\npaper (16 cores): 0.18 / 1.15 / 2.63 / 7.16 / 7.02");
    println!("shape check: every Belady-mimicking policy must exceed LRU's WPKI.");
}

/// Figure 15: uncore (LLC + NoC + DRAM, plus NOCSTAR for D-variants)
/// dynamic energy, normalised to LRU, on 16- and 32-core systems.
///
/// Paper values (32 cores): Hawkeye 0.98, Mockingjay 0.95, D-Hawkeye 0.97,
/// D-Mockingjay 0.91 (lower is better; savings come from fewer DRAM reads
/// and LLC write-backs).
pub const FIG15_ENERGY: Figure = Figure::new("fig15_energy", headline_groups, fig15_print);

fn fig15_print(_: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    println!("# Figure 15: uncore energy normalised to LRU (lower is better)\n");
    headline_header("cores");
    for g in groups {
        let ratios = column_means(g.evals.iter(), |c, e| {
            c.result.energy.normalized_to(&e.lru.energy)
        });
        row_of(&format!("{} cores", g.mixes[0].cores()), &ratios, f2);
    }
    println!("\npaper (32 cores): 0.98 / 0.97 / 0.95 / 0.91");
}

/// Table 6: weighted speedup, harmonic speedup, unfairness and maximum
/// individual slowdown for Hawkeye/D-Hawkeye/Mockingjay/D-Mockingjay on a
/// 32-core, 64 MB system.
///
/// Paper values: WS +3.3/+5.6/+6.7/+13.3 %, HS +3.4/+5/+4.5/+12.8 %,
/// Unfairness 1.2/1.2/1.30/1.28, MIS 41.4/40/37/34.2 %.
pub const TABLE6_METRICS: Figure = Figure::new("table6_metrics", table6_groups, table6_print);

fn table6_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    paper_groups(opts, &[last_cores(opts)], headline_policies)
}

fn table6_print(opts: &ExpOpts, groups: &[GroupEval], report: &mut SweepReport) {
    // Table 6 is a single-core-count table; use the largest requested.
    let cores = last_cores(opts);
    println!("# Table 6: multi-programmed metrics on {cores} cores\n");
    let policies = headline_policies(cores);
    let evals = &groups[0].evals;
    headline_header("metric");
    let ws = column_means(evals.iter(), |c, _| c.ws_improvement_pct);
    row_of("WS improvement", &ws, pct);
    let hs = column_means(evals.iter(), |c, e| {
        (c.metrics.harmonic_speedup() / e.lru_metrics.harmonic_speedup() - 1.0) * 100.0
    });
    row_of("HS improvement", &hs, pct);
    let unf = column_means(evals.iter(), |c, _| c.metrics.unfairness());
    row_of("Unfairness", &unf, f2);
    let mis = column_means(evals.iter(), |c, _| {
        c.metrics.max_individual_slowdown() * 100.0
    });
    row_of("MIS (%)", &mis, |v| format!("{v:.1}"));
    // The table's aggregates also go into the report summary, keyed by
    // the same policy/org columns as the per-group WS means.
    for (section, values) in [("mean_hs_improvement_pct", &hs), ("mean_unfairness", &unf)] {
        report.summary.push((
            section.to_string(),
            policies
                .iter()
                .zip(values)
                .map(|((pk, cfg), v)| (format!("{}/{}", pk.label(), cfg.label()), *v))
                .collect(),
        ));
    }
    println!("\npaper (32 cores): WS +3.3/+5.6/+6.7/+13.3; HS +3.4/+5/+4.5/+12.8;");
    println!("                  unfairness 1.2/1.2/1.30/1.28; MIS 41.4/40/37/34.2");
}

/// Figure 16: per-mix performance of Mockingjay vs D-Mockingjay on 32-core
/// systems, sorted by improvement (an "S-curve").
///
/// Paper: D-Mockingjay ≥ Mockingjay on every mix; max 77% (mcf homo) vs
/// 59%, xalan homo 26% vs 20%.
pub const FIG16_SCURVE: Figure = Figure::new("fig16_scurve", fig16_groups, fig16_print);

fn fig16_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    paper_groups(opts, &[last_cores(opts)], |cores| {
        vec![
            (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
            (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
        ]
    })
}

fn fig16_print(opts: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    let cores = last_cores(opts);
    println!("# Figure 16: per-mix WS improvement over LRU, sorted ({cores} cores)\n");
    let mut rows: Vec<(String, f64, f64)> = groups[0]
        .evals
        .iter()
        .map(|e| {
            (
                e.mix.clone(),
                e.cells[0].ws_improvement_pct,
                e.cells[1].ws_improvement_pct,
            )
        })
        .collect();
    rows.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
    println!("{:<24} {:>12} {:>14}", "mix", "mockingjay", "d-mockingjay");
    let mut wins = 0;
    for (name, mj, dmj) in &rows {
        println!("{name:<24} {mj:>11.1}% {dmj:>13.1}%");
        if dmj >= mj {
            wins += 1;
        }
    }
    println!(
        "\nD-Mockingjay >= Mockingjay on {wins}/{} mixes (paper: all mixes)",
        rows.len()
    );
}

/// Figure 17: utility of each Drishti enhancement on Mockingjay (32-core
/// mixes): baseline Mockingjay → + per-core global predictor ("global
/// view") → + dynamic sampled cache (full D-Mockingjay), split by
/// SPEC-dominated vs GAP-dominated mixes.
///
/// Paper: Mockingjay 3.8% (SPEC+GAP homo) / 9.7% (hetero); global view
/// raises SPEC to ~7.4% and GAP to ~6.9%; +DSC reaches 10.2% (SPEC) /
/// 8.5% (GAP).
pub const FIG17_ABLATION: Figure = Figure::new("fig17_ablation", fig17_groups, fig17_print);

fn fig17_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    paper_groups(opts, &[last_cores(opts)], |cores| {
        vec![
            (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
            (
                PolicyKind::Mockingjay,
                DrishtiConfig::global_view_only(cores),
            ),
            (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
            (PolicyKind::Mockingjay, DrishtiConfig::dsc_only(cores)),
        ]
    })
}

fn fig17_print(opts: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    let cores = last_cores(opts);
    println!("# Figure 17: Drishti enhancement ablation on Mockingjay ({cores} cores)\n");
    let g = &groups[0];
    header(
        "mix class",
        &["baseline", "global-view", "global+DSC", "DSC-only"].map(String::from),
    );
    for (label, filter) in [("homogeneous", true), ("heterogeneous", false)] {
        let class = g.mixes.iter().zip(&g.evals);
        let class = class.filter(|(m, _)| m.is_homogeneous() == filter);
        let means = column_means(class.map(|(_, e)| e), |c, _| c.ws_improvement_pct);
        if !means.is_empty() {
            row_of(label, &means, pct);
        }
    }
    println!("\npaper: global view contributes most of the gain; DSC adds on top");
    println!("(Mockingjay 3.8→6→9.7% homo; the DSC also halves sampled-set storage).");
}
