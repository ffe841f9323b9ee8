//! Trace-driven many-core simulator for the Drishti reproduction.
//!
//! This crate assembles the substrates (`drishti-mem`, `drishti-noc`,
//! `drishti-policies`, `drishti-trace`) into the paper's evaluation
//! platform: per-core L1D/L2 with prefetchers, a sliced NUCA LLC governed
//! by a pluggable replacement policy, a mesh NoC, DDR DRAM channels, and a
//! simple out-of-order core model with ROB-bounded memory-level
//! parallelism (see DESIGN.md §3 for the substitution argument versus
//! ChampSim).
//!
//! * [`ckpt`] — the `drishti-ckpt/v5` checkpoint container: complete
//!   engine state on disk with per-section checksums, for bit-identical
//!   crash resume (DESIGN.md §14);
//! * [`config::SystemConfig`] — every knob the paper sweeps (core count,
//!   LLC slice size, L2 size, DRAM channels, prefetchers);
//! * [`conformance`] — the differential reference interpreter, the
//!   metamorphic-relation executor, and the seed-derived fuzz cells the
//!   `drishti-fuzz` binary drives;
//! * [`engine::Engine`] — min-clock actor scheduling of the cores through
//!   the shared memory system;
//! * [`metrics`] — weighted speedup, harmonic speedup, maximum individual
//!   slowdown, unfairness, MPKI/WPKI/APKI;
//! * [`energy`] — uncore (LLC + NoC + DRAM (+ NOCSTAR)) dynamic energy;
//! * [`pcstats`] — the PC-to-slice concentration analysis of paper Fig 2;
//! * [`runner`] — one-call experiment helpers (`run_mix`, alone-IPC
//!   baselines, normalised speedups);
//! * [`sampling`] — warmup/detailed interval sampling: fast-forward most
//!   of the trace, warm the hierarchy before each measured window, and
//!   extrapolate counts to full-run estimates;
//! * [`sweep`] — the parallel sweep harness: a std-only work-stealing
//!   pool over `(mix, policy, organisation)` cells with deterministic
//!   aggregation, traces generated on demand, and JSON sweep reports;
//! * [`telemetry`] — zero-overhead-when-disabled epoch sampling of
//!   per-core, per-slice, NoC and DRAM counters, with invariant checkers
//!   and `drishti-telemetry/v1` JSON timelines.
//!
//! # Example: one tiny 4-core run
//!
//! ```
//! use drishti_core::config::DrishtiConfig;
//! use drishti_policies::factory::PolicyKind;
//! use drishti_sim::config::SystemConfig;
//! use drishti_sim::runner::{run_mix, RunConfig};
//! use drishti_trace::mix::Mix;
//! use drishti_trace::presets::Benchmark;
//!
//! let mix = Mix::homogeneous(Benchmark::Gcc, 4, 1);
//! let rc = RunConfig {
//!     system: SystemConfig::paper_baseline(4),
//!     accesses_per_core: 20_000,
//!     warmup_accesses: 2_000,
//!     record_llc_stream: false,
//!     sampling: drishti_sim::sampling::SamplingSpec::off(),
//!     telemetry: drishti_sim::telemetry::TelemetrySpec::off(),
//! };
//! let r = run_mix(&mix, PolicyKind::Lru, DrishtiConfig::baseline(4), &rc);
//! assert!(r.total_ipc() > 0.0);
//! ```

pub mod ckpt;
pub mod config;
pub mod conformance;
pub mod energy;
pub mod engine;
pub mod metrics;
pub mod pcstats;
pub mod runner;
pub mod sampling;
pub mod sweep;
pub mod telemetry;
