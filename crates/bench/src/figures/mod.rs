//! The registry: every table and figure of the paper as one [`Figure`],
//! a constant named after its binary, grouped by paper section (plus the
//! `scaling` and `resilience` studies). A figure built from
//! LRU-normalised mix evaluations lists its [`MixGroup`]s, and
//! [`crate::run`] evaluates the union of the requested figures' groups as
//! one sweep, in which Figures 13–16 and Tables 5–6 read the same cells
//! and the sensitivity figures share their LRU baselines. The others have
//! no groups and simulate while they print.

use crate::{column_means, f2, header, headline_policies, mean_improvements, pct, row, row_of};
use crate::{ExpOpts, Figure, GroupEval, MixEval, MixGroup};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::metrics::mean;
use drishti_sim::runner::run_mix;
use drishti_sim::sweep::report::SweepReport;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;

mod design;
mod evaluation;
mod motivation;
mod resilience;
mod scaling;
mod sensitivity;

pub use design::*;
pub use evaluation::*;
pub use motivation::*;
pub use resilience::RESILIENCE;
pub use scaling::SCALING;
pub use sensitivity::*;

/// Every figure, in the order `all_experiments` prints them.
pub const ALL: &[&Figure] = &[
    &FIG02_PC_SCATTER,
    &FIG03_ETR_VIEWS,
    &FIG04_PRED_HIST,
    &FIG05_SET_MPKA,
    &TABLE1_SAMPLING_CASES,
    &FIG10_PREDICTOR_APKI,
    &FIG11A_NO_NOCSTAR,
    &FIG11B_LATENCY_SWEEP,
    &TABLE2_DESIGN_SPACE,
    &TABLE3_BUDGET,
    &FIG13_MAIN_PERFORMANCE,
    &FIG14_MPKI_REDUCTION,
    &TABLE5_WPKI,
    &FIG15_ENERGY,
    &TABLE6_METRICS,
    &FIG16_SCURVE,
    &FIG17_ABLATION,
    &FIG19_SERVER,
    &FIG20_LLC_SIZE,
    &FIG21_L2_SIZE,
    &FIG22_DRAM_CHANNELS,
    &FIG23_PREFETCHERS,
    &TABLE8_OTHER_POLICIES,
    &TABLE7_APPLICABILITY,
    &SCALABILITY,
    &SCALING,
    &RESILIENCE,
];

/// The core count of a single-core-count figure: the last one requested.
fn last_cores(opts: &ExpOpts) -> usize {
    opts.cores.last().copied().unwrap_or(16)
}

/// One group per core count in `cores`, labelled `<cores>c`: the paper
/// mixes under `policies` at the default run configuration.
fn paper_groups(
    opts: &ExpOpts,
    cores: &[usize],
    policies: impl Fn(usize) -> Vec<(PolicyKind, DrishtiConfig)>,
) -> Vec<MixGroup> {
    cores
        .iter()
        .map(|&cores| MixGroup {
            label: format!("{cores}c"),
            mixes: opts.paper_mixes(cores),
            policies: policies(cores),
            rc: opts.rc(cores),
        })
        .collect()
}

/// The headline cells of Figures 13–15 and Table 5: the paper mixes under
/// the headline policies at every requested core count.
fn headline_groups(opts: &ExpOpts) -> Vec<MixGroup> {
    paper_groups(opts, &opts.cores, headline_policies)
}

/// The headline policies on the paper mixes (only the homogeneous ones
/// when `homo_only`) on a non-default `system`, for the
/// sensitivity figures 20–23.
fn headline_on(opts: &ExpOpts, label: String, system: SystemConfig, homo_only: bool) -> MixGroup {
    let mut group = paper_groups(opts, &[system.cores], headline_policies).remove(0);
    group.mixes.retain(|m| !homo_only || m.is_homogeneous());
    group.rc.system = system;
    MixGroup { label, ..group }
}

/// The table header over the four headline columns.
fn headline_header(label: &str) {
    header(
        label,
        &["hawkeye", "d-hawkeye", "mockingjay", "d-mockingjay"].map(String::from),
    );
}

/// A row of mean WS improvements over LRU, one per policy column.
fn mean_row(label: &str, evals: &[MixEval]) {
    row_of(
        label,
        &column_means(evals.iter(), |c, _| c.ws_improvement_pct),
        pct,
    );
}
