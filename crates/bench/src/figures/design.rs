//! The design space (§4): predictor traffic, the predictor interconnect,
//! the sampler/predictor organisations and the storage budget.

use super::*;
use drishti_core::budget::Budget;
use drishti_core::fabric::FabricKind;
use drishti_core::org::{DesignPoint, PredictorOrg, SamplerOrg};

/// Figure 10: predictor accesses (training + prediction lookups) per
/// kilo-instruction, centralized global predictor vs. Drishti's per-core
/// global predictors, on 4/8/16/32 cores.
///
/// Paper: centralized — >65 APKI average at 32 cores (max 257.76, mcf);
/// per-core — 2.46 APKI average per core (max 8.05). The point is that a
/// single centralized structure must absorb the *sum* of all cores'
/// traffic, while per-core structures split it.
pub const FIG10_PREDICTOR_APKI: Figure = Figure::plain("fig10_predictor_apki", fig10_print);

fn fig10_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    println!("# Figure 10: predictor accesses per kilo-instruction\n");
    println!(
        "{:<8} {:>22} {:>26}",
        "cores", "centralized (total)", "per-core global (per bank)"
    );
    for &cores in &opts.cores {
        let rc = opts.rc(cores);
        let mixes = opts.paper_mixes(cores);
        let mut centralized = Vec::new();
        let mut per_core = Vec::new();
        for mix in &mixes {
            let c = run_mix(
                mix,
                PolicyKind::Mockingjay,
                DrishtiConfig::centralized(cores),
                &rc,
            );
            centralized.push(c.predictor_apki());
            let d = run_mix(
                mix,
                PolicyKind::Mockingjay,
                DrishtiConfig::drishti(cores),
                &rc,
            );
            // Per-core banks split the same traffic across `cores` banks.
            per_core.push(d.predictor_apki() / cores as f64);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "{cores:<8} {:>22.2} {:>26.2}",
            avg(&centralized),
            avg(&per_core)
        );
    }
    println!("\npaper (32 cores): centralized >65 APKI (max 257.8); per-core 2.46 (max 8.05)");
}

/// Figure 11a: slowdown of D-Mockingjay when the slice↔predictor traffic
/// rides the existing mesh instead of NOCSTAR, vs. baseline Mockingjay, on
/// 4/16/32 cores.
///
/// Paper: −2.8% (4 cores), −5.5% (16), −9% (32; up to −40% for mcf homo) —
/// without a low-latency interconnect, the benefit of global training is
/// nullified by the added fill-path latency.
pub const FIG11A_NO_NOCSTAR: Figure = Figure::new("fig11a_no_nocstar", fig11a_groups, fig11a_print);

fn fig11a_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    paper_groups(opts, &opts.cores, |cores| {
        vec![
            (PolicyKind::Mockingjay, DrishtiConfig::baseline(cores)),
            (PolicyKind::Mockingjay, DrishtiConfig::drishti(cores)),
            (
                PolicyKind::Mockingjay,
                DrishtiConfig::drishti_without_nocstar(cores),
            ),
        ]
    })
}

fn fig11a_print(_: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    println!("# Figure 11a: D-Mockingjay without NOCSTAR (mesh fabric) vs Mockingjay\n");
    println!(
        "{:<8} {:>16} {:>18} {:>22}",
        "cores", "mockingjay", "d-mockingjay", "d-mockingjay (mesh)"
    );
    for g in groups {
        let avg = mean_improvements(&g.evals);
        println!(
            "{:<8} {:>16} {:>18} {:>22}",
            g.mixes[0].cores(),
            pct(avg[0].1),
            pct(avg[1].1),
            pct(avg[2].1)
        );
    }
    println!("\npaper: mesh-fabric slowdown vs Mockingjay grows with cores (−2.8/−5.5/−9%)");
}

/// Figure 11b: sensitivity of D-Mockingjay to the slice↔predictor
/// interconnect latency (1…30 cycles) on a 32-core system.
///
/// Paper: latencies below five cycles cost nothing; ~20 cycles is where the
/// slowdown becomes significant (the mesh's average latency at 32 cores).
pub const FIG11B_LATENCY_SWEEP: Figure =
    Figure::new("fig11b_latency_sweep", fig11b_groups, fig11b_print);

/// Predictor-interconnect latencies in cycles, one row each.
const LATENCIES: [u64; 6] = [1, 3, 5, 10, 20, 30];

fn fig11b_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    let cores = last_cores(opts);
    LATENCIES
        .iter()
        .map(|&latency| MixGroup {
            label: format!("latency{latency}"),
            mixes: opts.paper_mixes(cores),
            policies: vec![(
                PolicyKind::Mockingjay,
                DrishtiConfig::drishti_fixed_latency(cores, latency),
            )],
            rc: opts.rc(cores),
        })
        .collect()
}

fn fig11b_print(opts: &ExpOpts, groups: &[GroupEval], _: &mut SweepReport) {
    let cores = last_cores(opts);
    println!("# Figure 11b: predictor-interconnect latency sensitivity ({cores} cores)\n");
    println!("{:<12} {:>26}", "latency", "D-Mockingjay WS vs LRU");
    for (g, latency) in groups.iter().zip(LATENCIES) {
        println!(
            "{latency:<12} {:>26}",
            pct(mean_improvements(&g.evals)[0].1)
        );
    }
    println!("\npaper: flat below 5 cycles, visibly degrading by 20–30 cycles");
}

/// Table 2: the sampler/predictor organisation design space — global view,
/// bandwidth demand and broadcast requirement per choice — measured rather
/// than asserted.
///
/// For each design point we run a 16-core mix and report the fabric
/// traffic it generates: centralized organisations funnel everything
/// through one node (high bandwidth), global-sampler organisations
/// broadcast every training to all predictor banks.
pub const TABLE2_DESIGN_SPACE: Figure = Figure::plain("table2_design_space", table2_print);

fn table2_print(opts: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    let cores = opts.cores.last().copied().unwrap_or(16);
    let rc = opts.rc(cores);
    let mix = Mix::homogeneous(Benchmark::Mcf, cores, 11);
    println!("# Table 2: design-space measurement ({cores}-core mcf)\n");
    println!(
        "{:<34} {:>7} {:>11} {:>11} {:>12}",
        "sampler/predictor", "global?", "msgs/KI", "broadcasts", "mean lat"
    );
    for point in DesignPoint::design_space() {
        let mut cfg = DrishtiConfig::baseline(cores);
        cfg.predictor_org = point.predictor;
        cfg.sampler_org = point.sampler;
        cfg.fabric = match (point.predictor, point.sampler) {
            (PredictorOrg::LocalPerSlice, SamplerOrg::LocalPerSlice) => FabricKind::Local,
            _ => FabricKind::Mesh,
        };
        let r = run_mix(&mix, PolicyKind::Mockingjay, cfg, &rc);
        let instr = r.total_instructions().max(1);
        let msgs_per_ki = r.fabric.messages as f64 * 1000.0 / instr as f64;
        println!(
            "{:<34} {:>7} {:>11.1} {:>11} {:>12.1}",
            format!("{}/{}", point.sampler, point.predictor),
            if point.global_view() { "yes" } else { "no" },
            msgs_per_ki,
            if point.broadcast() { "yes" } else { "no" },
            r.fabric.mean_latency(),
        );
    }
    println!("\npaper Table 2: only local-sampler + distributed (per-core) predictor");
    println!("achieves a global view with low bandwidth and no broadcast.");
}

/// Table 3: per-core hardware budget with and without Drishti for a 16-way
/// 2 MB LLC slice. Purely structural — computed by
/// [`drishti_core::budget`], no simulation.
///
/// Paper: Hawkeye 28 KB → 20.75 KB; Mockingjay 31.91 KB → 28.95 KB
/// (savings of 7.25 KB and 2.96 KB per core).
pub const TABLE3_BUDGET: Figure = Figure::plain("table3_budget", table3_print);

fn table3_print(_: &ExpOpts, _: &[GroupEval], _: &mut SweepReport) {
    println!("# Table 3: per-core storage budget (16-way 2 MB slice)\n");
    for (policy, make) in [
        ("Hawkeye", Budget::hawkeye as fn(bool) -> Budget),
        ("Mockingjay", Budget::mockingjay as fn(bool) -> Budget),
    ] {
        for with in [false, true] {
            let b = make(with);
            println!(
                "{policy} {}:",
                if with {
                    "with Drishti"
                } else {
                    "without Drishti"
                }
            );
            for c in &b.components {
                println!("    {:<22} {:>7.2} KB", c.name, c.kib());
            }
            println!("    {:<22} {:>7.2} KB\n", "Total", b.total_kib());
        }
        println!(
            "  Drishti saves {:.2} KB per core on {policy}\n",
            Budget::drishti_savings_kib(&policy.to_lowercase())
        );
    }
    println!("paper: Hawkeye 28 → 20.75 KB; Mockingjay 31.91 → 28.95 KB");
}
