//! One-call experiment runners.
//!
//! Every bench target boils down to: build a mix, run it under several
//! policies, normalise to LRU. [`run_mix`] does one (mix, policy,
//! organisation) run; [`alone_ipcs`] produces the `IPC_alone` baselines the
//! multi-programmed metrics need (measured under LRU, the paper's baseline
//! policy, and reusable across policies for a given mix).

use crate::config::SystemConfig;
use crate::energy::EnergyBreakdown;
use crate::engine::{CoreResult, Engine};
use crate::metrics::{FaultSummary, MixMetrics};
use crate::sampling::SamplingSpec;
use crate::telemetry::{TelemetrySpec, TelemetryTimeline};
use drishti_core::config::DrishtiConfig;
use drishti_mem::access::Access;
use drishti_mem::dram::DramStats;
use drishti_mem::llc::{LlcStats, SetCounters};
use drishti_mem::policy::LlcPolicy;
use drishti_noc::NocStats;
use drishti_policies::factory::PolicyKind;
use drishti_trace::mix::Mix;
use drishti_trace::replay::TraceCache;
use drishti_trace::WorkloadGen;

/// Parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The hardware configuration.
    pub system: SystemConfig,
    /// Measured accesses per core.
    pub accesses_per_core: u64,
    /// Warm-up accesses per core before measurement.
    pub warmup_accesses: u64,
    /// Capture the LLC-level demand stream (needed by oracle studies).
    pub record_llc_stream: bool,
    /// Interval sampling (off by default; see [`crate::sampling`]). When
    /// on, per-core counts in [`RunResult`] are *sampled* (detailed
    /// windows only); ratios like IPC and weighted speedup are directly
    /// comparable to a full run.
    pub sampling: SamplingSpec,
    /// Epoch-sampled telemetry (off by default; see [`crate::telemetry`]).
    pub telemetry: TelemetrySpec,
}

impl RunConfig {
    /// A shape-preserving quick configuration for `cores` cores.
    pub fn quick(cores: usize) -> Self {
        RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: 60_000,
            warmup_accesses: 15_000,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        }
    }

    /// A longer configuration (closer to the paper's 200 M instructions).
    pub fn full(cores: usize) -> Self {
        RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: 400_000,
            warmup_accesses: 100_000,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        }
    }
}

/// The complete output of one simulation run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Name reported by the policy (e.g. `"d-mockingjay"`).
    pub policy: String,
    /// Per-core performance.
    pub per_core: Vec<CoreResult>,
    /// Aggregate LLC statistics.
    pub llc: LlcStats,
    /// Per-set LLC counters, per slice (Fig 5, Table 1). Empty in a sweep
    /// cell's result: at 16 B per LLC set they would be most of what a
    /// sweep keeps per cell, and only the plain-run figures, which call
    /// [`run_mix`], read them.
    pub set_counters: Vec<Vec<SetCounters>>,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Demand-mesh statistics.
    pub mesh: NocStats,
    /// Predictor-fabric statistics.
    pub fabric: NocStats,
    /// Uncore energy breakdown.
    pub energy: EnergyBreakdown,
    /// Policy diagnostics (`(name, value)` pairs).
    pub diagnostics: Vec<(String, u64)>,
    /// Captured LLC demand stream (empty unless requested).
    pub llc_stream: Vec<Access>,
    /// Collected telemetry timeline (`None` unless requested).
    pub telemetry: Option<TelemetryTimeline>,
}

drishti_noc::impl_persist_fields!(RunResult {
    policy,
    per_core,
    llc,
    set_counters,
    dram,
    mesh,
    fabric,
    energy,
    diagnostics,
    llc_stream,
    telemetry,
});

impl RunResult {
    /// Sum of per-core IPCs.
    pub fn total_ipc(&self) -> f64 {
        self.per_core.iter().map(CoreResult::ipc).sum()
    }

    /// Per-core IPC vector.
    pub fn ipcs(&self) -> Vec<f64> {
        self.per_core.iter().map(CoreResult::ipc).collect()
    }

    /// Total instructions retired during measurement.
    pub fn total_instructions(&self) -> u64 {
        self.per_core.iter().map(|c| c.instructions).sum()
    }

    /// Average LLC demand misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            0.0
        } else {
            let misses: u64 = self.per_core.iter().map(|c| c.llc_misses).sum();
            misses as f64 * 1000.0 / instr as f64
        }
    }

    /// LLC→DRAM write-backs per kilo-instruction (paper Table 5).
    pub fn wpki(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            0.0
        } else {
            self.llc.dram_writebacks as f64 * 1000.0 / instr as f64
        }
    }

    /// One named diagnostics counter (0 when the policy doesn't report it).
    fn diag(&self, key: &str) -> u64 {
        self.diagnostics
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Fold the run's fault-injection counters — demand mesh, predictor
    /// fabric, policy degradation diagnostics, DRAM — into one summary.
    /// [`FaultSummary::is_clean`] on a healthy run.
    pub fn fault_summary(&self) -> FaultSummary {
        FaultSummary {
            mesh_dropped: self.mesh.dropped,
            mesh_retries: self.mesh.retries,
            fabric_dropped: self.fabric.dropped,
            dropped_predictions: self.diag("fabric_dropped_predictions"),
            fallback_decisions: self.diag("fabric_fallbacks"),
            dropped_trainings: self.diag("fabric_dropped_trainings"),
            retried_trainings: self.diag("fabric_retried_trainings"),
            dram_resteered: self.dram.resteered,
            fault_delay_cycles: self.mesh.fault_delay_cycles
                + self.fabric.fault_delay_cycles
                + self.dram.fault_delay_cycles,
        }
    }

    /// Predictor accesses (train + predict) per kilo-instruction per core
    /// (paper Fig 10).
    pub fn predictor_apki(&self) -> f64 {
        let instr = self.total_instructions();
        if instr == 0 {
            return 0.0;
        }
        let train = self.diag("predictor_train");
        let predict = self.diag("predictor_predict");
        (train + predict) as f64 * 1000.0 / instr as f64
    }

    /// Fold a finished engine's state into a run result: its per-core
    /// results, subsystem statistics, captured LLC stream and telemetry
    /// timeline (the last two are moved out of the engine).
    pub fn from_engine(engine: &mut Engine) -> RunResult {
        let llc = *engine.llc().stats();
        let set_counters = (0..engine.config().llc.slices)
            .map(|s| engine.llc().set_counters(s).to_vec())
            .collect();
        let dram = *engine.dram().stats();
        let mesh = engine.mesh().stats();
        let fabric = engine.llc().policy().fabric_stats();
        let energy = EnergyBreakdown::from_stats(&llc, &mesh, &dram, &fabric);
        RunResult {
            policy: engine.llc().policy().name(),
            per_core: engine.results(),
            llc,
            set_counters,
            dram,
            mesh,
            fabric,
            energy,
            diagnostics: engine.llc().policy().diagnostics(),
            llc_stream: std::mem::take(&mut engine.llc_stream),
            telemetry: engine.take_timeline(),
        }
    }
}

fn run_engine(
    mix_workloads: Vec<Option<Box<dyn WorkloadGen>>>,
    policy: Box<dyn LlcPolicy>,
    rc: &RunConfig,
) -> RunResult {
    let mut engine = Engine::new(
        rc.system.clone(),
        mix_workloads,
        policy,
        rc.accesses_per_core,
        rc.warmup_accesses,
        rc.record_llc_stream,
    );
    engine.set_sampling(rc.sampling);
    engine.set_telemetry(rc.telemetry);
    engine.run();
    RunResult::from_engine(&mut engine)
}

/// Checkpoint behaviour of one [`run_with_workloads_checkpointed`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCkpt<'a> {
    /// Restore the engine from this `drishti-ckpt/v5` file before running
    /// (the run then covers only the remaining accesses).
    pub restore: Option<&'a std::path::Path>,
    /// Write checkpoints to this path (atomically, via a `.tmp` sibling).
    pub save: Option<&'a std::path::Path>,
    /// With `save`: checkpoint every this many engine steps *and* at the
    /// end. 0 = final checkpoint only.
    pub every: u64,
}

/// Like [`run_with_workloads`], with crash-recovery checkpointing: the
/// engine can start from a `drishti-ckpt/v5` file and/or write one
/// periodically and at completion. A restored run is bit-identical to an
/// uninterrupted one (the workloads must be built from the same mix or
/// trace files — the checkpoint stores the stream *position*, not the
/// records, and refuses configurations it was not saved under).
///
/// # Panics
///
/// Panics if `workloads.len()` differs from the system's core count.
pub fn run_with_workloads_checkpointed(
    workloads: Vec<Option<Box<dyn WorkloadGen>>>,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
    ckpt: &RunCkpt<'_>,
) -> Result<RunResult, crate::ckpt::CkptError> {
    assert_eq!(
        workloads.len(),
        rc.system.cores,
        "one workload slot per core"
    );
    let pol = policy.build(&rc.system.llc, drishti);
    let mut engine = Engine::new(
        rc.system.clone(),
        workloads,
        pol,
        rc.accesses_per_core,
        rc.warmup_accesses,
        rc.record_llc_stream,
    );
    engine.set_sampling(rc.sampling);
    engine.set_telemetry(rc.telemetry);
    if let Some(path) = ckpt.restore {
        crate::ckpt::restore_engine(&mut engine, path)?;
    }
    match ckpt.save {
        Some(path) if ckpt.every > 0 => {
            while !engine.run_steps(ckpt.every) {
                crate::ckpt::save_engine(&engine, path)?;
            }
            crate::ckpt::save_engine(&engine, path)?;
        }
        Some(path) => {
            engine.run_steps(u64::MAX);
            crate::ckpt::save_engine(&engine, path)?;
        }
        None => {
            engine.run_steps(u64::MAX);
        }
    }
    Ok(RunResult::from_engine(&mut engine))
}

/// Run explicitly supplied workloads (`None` = idle core) under `policy`
/// with organisation `drishti` — the entry point for externally sourced
/// traces (e.g. [`drishti_trace::store::StreamingTrace`] boxes replaying
/// on-disk files without materialising them in RAM).
///
/// # Panics
///
/// Panics if `workloads.len()` differs from the system's core count.
pub fn run_with_workloads(
    workloads: Vec<Option<Box<dyn WorkloadGen>>>,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
) -> RunResult {
    assert_eq!(
        workloads.len(),
        rc.system.cores,
        "one workload slot per core"
    );
    let pol = policy.build(&rc.system.llc, drishti);
    run_engine(workloads, pol, rc)
}

/// Run `mix` under `policy` with organisation `drishti`.
///
/// # Panics
///
/// Panics if the mix's core count differs from the system's.
pub fn run_mix(mix: &Mix, policy: PolicyKind, drishti: DrishtiConfig, rc: &RunConfig) -> RunResult {
    assert_eq!(mix.cores(), rc.system.cores, "mix/system core mismatch");
    let workloads = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    let pol = policy.build(&rc.system.llc, drishti);
    run_engine(workloads, pol, rc)
}

/// Like [`run_mix`], but taking each core's trace from `cache`, which
/// streams the trace files registered with it and generates the rest —
/// the sweep harness's per-cell entry point. Without files the result
/// equals [`run_mix`]'s.
///
/// # Panics
///
/// Panics if the mix's core count differs from the system's.
pub fn run_mix_cached(
    mix: &Mix,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
    cache: &TraceCache,
) -> RunResult {
    assert_eq!(mix.cores(), rc.system.cores, "mix/system core mismatch");
    let len = rc.warmup_accesses + rc.accesses_per_core;
    let workloads = mix
        .benchmarks
        .iter()
        .zip(&mix.seeds)
        .map(|(&b, &s)| Some(Box::new(cache.replay(b, s, len)) as Box<dyn WorkloadGen>))
        .collect();
    let pol = policy.build(&rc.system.llc, drishti);
    run_engine(workloads, pol, rc)
}

/// Like [`alone_ipcs`], but taking each core's trace from `cache` (see
/// [`run_mix_cached`]).
pub fn alone_ipcs_cached(mix: &Mix, rc: &RunConfig, cache: &TraceCache) -> Vec<f64> {
    let len = rc.warmup_accesses + rc.accesses_per_core;
    (0..mix.cores())
        .map(|c| {
            let mut workloads: Vec<Option<Box<dyn WorkloadGen>>> =
                (0..mix.cores()).map(|_| None).collect();
            workloads[c] = Some(Box::new(cache.replay(mix.benchmarks[c], mix.seeds[c], len)));
            let pol = PolicyKind::Lru.build(&rc.system.llc, DrishtiConfig::baseline(mix.cores()));
            let r = run_engine(workloads, pol, rc);
            r.per_core[c].ipc()
        })
        .collect()
}

/// Run `mix` under an explicitly constructed policy object (used by the
/// instrumented case studies, e.g. Mockingjay with ETR logging).
pub fn run_mix_with_policy(mix: &Mix, policy: Box<dyn LlcPolicy>, rc: &RunConfig) -> RunResult {
    assert_eq!(mix.cores(), rc.system.cores, "mix/system core mismatch");
    let workloads = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    run_engine(workloads, policy, rc)
}

/// `IPC_alone` per core: each core's workload run by itself on the same
/// hardware (all other cores idle), under the LRU baseline policy.
pub fn alone_ipcs(mix: &Mix, rc: &RunConfig) -> Vec<f64> {
    (0..mix.cores())
        .map(|c| {
            let mut workloads: Vec<Option<Box<dyn WorkloadGen>>> =
                (0..mix.cores()).map(|_| None).collect();
            workloads[c] = Some(Box::new(mix.build_core(c)));
            let pol = PolicyKind::Lru.build(&rc.system.llc, DrishtiConfig::baseline(mix.cores()));
            let r = run_engine(workloads, pol, rc);
            r.per_core[c].ipc()
        })
        .collect()
}

/// Mix metrics of a run against alone-IPC baselines.
///
/// # Panics
///
/// Panics when `alone` does not have one baseline per core of the run —
/// a silent `zip` truncation here would quietly misattribute speedups.
pub fn mix_metrics(result: &RunResult, alone: &[f64]) -> MixMetrics {
    assert_eq!(
        result.per_core.len(),
        alone.len(),
        "one alone-IPC baseline per core: run has {} cores, {} baselines given",
        result.per_core.len(),
        alone.len()
    );
    let together: Vec<f64> = result
        .per_core
        .iter()
        .zip(alone)
        .filter(|(c, _)| c.cycles > 0)
        .map(|(c, _)| c.ipc())
        .collect();
    let alone_active: Vec<f64> = result
        .per_core
        .iter()
        .zip(alone)
        .filter(|(c, _)| c.cycles > 0)
        .map(|(_, &a)| a)
        .collect();
    MixMetrics::new(&together, &alone_active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_trace::presets::Benchmark;

    fn tiny_rc(cores: usize) -> RunConfig {
        RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: 4_000,
            warmup_accesses: 500,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        }
    }

    #[test]
    fn run_mix_produces_complete_result() {
        let mix = Mix::homogeneous(Benchmark::Gcc, 4, 1);
        let r = run_mix(
            &mix,
            PolicyKind::Srrip,
            DrishtiConfig::baseline(4),
            &tiny_rc(4),
        );
        assert_eq!(r.policy, "srrip");
        assert_eq!(r.per_core.len(), 4);
        assert!(r.total_ipc() > 0.0);
        assert!(r.llc.demand_accesses > 0);
        assert!(r.energy.total_pj() > 0);
        assert_eq!(r.set_counters.len(), 4);
    }

    #[test]
    fn alone_ipcs_positive_and_plausible() {
        let mix = Mix::homogeneous(Benchmark::Deepsjeng, 4, 1);
        let alone = alone_ipcs(&mix, &tiny_rc(4));
        assert_eq!(alone.len(), 4);
        for a in alone {
            assert!(a > 0.05 && a < 6.0, "{a}");
        }
    }

    #[test]
    fn metrics_pipeline_end_to_end() {
        let mix = Mix::homogeneous(Benchmark::Mcf, 4, 1);
        let rc = tiny_rc(4);
        let alone = alone_ipcs(&mix, &rc);
        let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &rc);
        let m = mix_metrics(&r, &alone);
        let ws = m.weighted_speedup();
        assert!(ws > 0.0 && ws <= 4.2, "weighted speedup {ws}");
    }

    #[test]
    fn wpki_is_finite_and_nonnegative() {
        let mix = Mix::homogeneous(Benchmark::Lbm, 4, 1);
        let r = run_mix(
            &mix,
            PolicyKind::Lru,
            DrishtiConfig::baseline(4),
            &tiny_rc(4),
        );
        assert!(r.wpki() >= 0.0);
        assert!(r.wpki().is_finite());
    }

    #[test]
    fn cached_run_is_bit_identical_to_direct_run() {
        let mix = Mix::heterogeneous(&drishti_trace::presets::Benchmark::spec_and_gap(), 4, 5);
        let rc = tiny_rc(4);
        let cache = TraceCache::new();
        let direct = run_mix(&mix, PolicyKind::Srrip, DrishtiConfig::baseline(4), &rc);
        let cached = run_mix_cached(
            &mix,
            PolicyKind::Srrip,
            DrishtiConfig::baseline(4),
            &rc,
            &cache,
        );
        assert_eq!(direct.per_core, cached.per_core);
        assert_eq!(format!("{:?}", direct.llc), format!("{:?}", cached.llc));
        assert_eq!(alone_ipcs(&mix, &rc), alone_ipcs_cached(&mix, &rc, &cache));
    }

    #[test]
    fn drishti_variant_reports_apki() {
        let mix = Mix::homogeneous(Benchmark::Mcf, 4, 1);
        let r = run_mix(
            &mix,
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(4),
            &tiny_rc(4),
        );
        assert_eq!(r.policy, "d-mockingjay");
        assert!(r.predictor_apki() > 0.0);
    }
}
