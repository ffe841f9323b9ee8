//! Slice-count scaling study (DESIGN.md §17): Drishti vs LRU/Mockingjay
//! as the sliced LLC grows from 8 to 256 slices, spread over 1-, 2- and
//! 4-chip topologies with serializing inter-chip links.
//!
//! The paper evaluates Drishti on single-chip meshes up to 128 cores
//! (§5.3). This study extends the axis: once the slice count outgrows
//! one die, the NOCSTAR side-band no longer reaches every slice at mesh
//! latency — cross-chip predictor lookups pay the serialized gateway
//! path, recreating the Fig 11 latency tension at scale. Each rung of
//! the ladder is labelled `s<slices>c<chips>`; the 1-chip rungs use the
//! flat-mesh configuration and their report cells are byte-identical to
//! a flat-topology run of the same shape.
//!
//! The report written to `target/sweep/scaling.json` carries one
//! `scaling_ws_improvement_pct/*` summary row per policy — the
//! speedup-vs-slice-count table.

use super::*;

pub const SCALING: Figure = Figure::new("scaling", groups, print);

/// Keep the total simulated work per cell roughly constant as the slice
/// count grows: ~480k measured accesses per run, never fewer than 1k per
/// core.
fn capped_accesses(requested: u64, slices: usize) -> u64 {
    requested.min((480_000 / slices as u64).max(1_000))
}

/// The default ladder: total slices × chips. Two rungs share a slice
/// count (16×1 vs 16×2) so the chip split itself is isolated once, and
/// the top rungs push past the paper's 128-core ceiling.
fn default_ladder() -> Vec<(usize, usize)> {
    vec![
        (8, 1),
        (16, 1),
        (16, 2),
        (32, 2),
        (64, 4),
        (128, 4),
        (256, 4),
    ]
}

/// Chips for a user-supplied slice count: grow the package with the die
/// area, falling back to one chip when the count does not divide.
fn auto_chips(slices: usize) -> usize {
    for chips in [
        if slices <= 8 {
            1
        } else if slices <= 32 {
            2
        } else {
            4
        },
        2,
        1,
    ] {
        if slices.is_multiple_of(chips) {
            return chips;
        }
    }
    1
}

/// The ladder these options ask for: `(slices, chips)` per rung.
fn ladder(opts: &ExpOpts) -> Vec<(usize, usize)> {
    if opts.cores == vec![4, 16] {
        default_ladder()
    } else {
        opts.cores.iter().map(|&s| (s, auto_chips(s))).collect()
    }
}

fn groups(opts: &ExpOpts) -> Vec<MixGroup> {
    let take = if opts.full {
        opts.mixes
    } else {
        opts.mixes.min(2)
    };
    ladder(opts)
        .into_iter()
        .map(|(slices, chips)| {
            let mut rc = opts.rc(slices);
            rc.system = SystemConfig::with_chips(slices, chips);
            rc.accesses_per_core = capped_accesses(opts.accesses, slices);
            rc.warmup_accesses = rc.accesses_per_core / 4;
            MixGroup {
                label: format!("s{slices}c{chips}"),
                mixes: opts.paper_mixes(slices).into_iter().take(take).collect(),
                policies: vec![
                    (
                        PolicyKind::Mockingjay,
                        DrishtiConfig::baseline(slices).with_chips(chips),
                    ),
                    (
                        PolicyKind::Mockingjay,
                        DrishtiConfig::drishti(slices).with_chips(chips),
                    ),
                ],
                rc,
            }
        })
        .collect()
}

fn print(opts: &ExpOpts, groups: &[GroupEval], report: &mut SweepReport) {
    println!(
        "# Scaling study: weighted speedup over LRU, 8 → 256 slices
"
    );
    // The speedup-vs-slice-count table: one summary row per policy
    // column, one (rung label, mean WS improvement) pair per rung.
    let columns = ["mockingjay/baseline", "mockingjay/drishti"];
    for (p, col) in columns.iter().enumerate() {
        let pairs: Vec<(String, f64)> = groups
            .iter()
            .map(|g| (g.label.clone(), mean_improvements(&g.evals)[p].1))
            .collect();
        report
            .summary
            .push((format!("scaling_ws_improvement_pct/{col}"), pairs));
    }

    header("slices × chips", &columns.map(String::from));
    for (g, (slices, chips)) in groups.iter().zip(ladder(opts)) {
        mean_row(&format!("{slices} slices / {chips} chip(s)"), &g.evals);
    }
    println!(
        "\npaper: single-chip advantage persists to 128 cores (§5.3); \
         past one die the side-band pays the serialized gateway path"
    );
}
