//! Every metric the benchmark emits, with its unit and direction.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a unit test keeps the two equal.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, direction and, for end-to-end metrics, the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [Metric; 4] = [
    e2e("sim_steps_per_s", "steps/s", Higher, 0.25),
    e2e("sweep_cells_per_s", "cells/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.05),
];

/// Per-layer metrics of the traced run, named by module.
pub const PER_LAYER: [Metric; 46] = [
    // drishti_trace
    layer("trace.gen_ns_per_record", "ns", Lower),
    layer("trace.replay_ns_per_record", "ns", Lower),
    layer("trace.store_bytes_per_record", "B", Lower),
    layer("trace.cache_hit_ratio", "ratio", Higher),
    // drishti_mem::cache + prefetch
    layer("l1.ns_per_access", "ns", Lower),
    layer("l1.miss_ratio", "ratio", Lower),
    layer("l2.ns_per_access", "ns", Lower),
    layer("l2.miss_ratio", "ratio", Lower),
    layer("prefetch.ns_per_train", "ns", Lower),
    layer("prefetch.requests_per_kstep", "1/kstep", Lower),
    // drishti_mem::llc
    layer("llc.ns_per_lookup", "ns", Lower),
    layer("llc.ns_per_fill", "ns", Lower),
    layer("llc.lookups_per_step", "1/step", Lower),
    layer("llc.hit_ratio", "ratio", Higher),
    layer("llc.bypass_ratio", "ratio", Lower),
    layer("llc.dirty_evictions_per_kstep", "1/kstep", Lower),
    // drishti_policies
    layer("policy.ns_per_access", "ns", Lower),
    // drishti_core::fabric + NOCSTAR
    layer("fabric.ns_per_op", "ns", Lower),
    layer("fabric.ops_per_kstep", "1/kstep", Lower),
    layer("fabric.fallbacks", "count", Lower),
    // drishti_noc::topology / mesh
    layer("noc.ns_per_traverse", "ns", Lower),
    layer("noc.msgs_per_step", "1/step", Lower),
    layer("noc.contention_cycles_per_msg", "cycles", Lower),
    layer("noc.interchip_msgs_per_step", "1/step", Lower),
    // drishti_mem::dram
    layer("dram.ns_per_op", "ns", Lower),
    layer("dram.ops_per_kstep", "1/kstep", Lower),
    layer("dram.row_hit_ratio", "ratio", Higher),
    layer("dram.mean_read_latency_cycles", "cycles", Lower),
    // drishti_sim::engine (scheduler + core model) and the step profile
    layer("engine.ns_per_step", "ns", Lower),
    layer("engine.new_ms", "ms", Lower),
    layer("engine.residual_ns_per_step", "ns", Lower),
    layer("share.trace", "share", Lower),
    layer("share.l1l2", "share", Lower),
    layer("share.prefetch", "share", Lower),
    layer("share.llc", "share", Lower),
    layer("share.policy", "share", Lower),
    layer("share.fabric", "share", Lower),
    layer("share.noc", "share", Lower),
    layer("share.dram", "share", Lower),
    layer("share.residual", "share", Lower),
    // drishti_sim::ckpt + sweep
    layer("ckpt.save_ms", "ms", Lower),
    layer("ckpt.restore_ms", "ms", Lower),
    layer("ckpt.bytes", "B", Lower),
    layer("sweep.warm_ckpt_misses", "count", Lower),
    layer("sweep.pool_overhead_share", "share", Lower),
    layer("sweep.report_emit_ms", "ms", Lower),
];
