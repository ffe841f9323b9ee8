//! # Drishti — a reproduction of "Do Not Forget Slicing While Designing
//! # Last-Level Cache Replacement Policies for Many-Core Systems" (MICRO 2025)
//!
//! This crate is the facade over the reproduction's workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`noc`] | mesh NoC, NOCSTAR side-band interconnect, slice hashing |
//! | [`mem`] | caches, sliced LLC, DRAM, prefetchers |
//! | [`core`] | **the paper's contribution**: predictor organisations, dynamic sampled cache, storage budget |
//! | [`policies`] | LRU, SRRIP, DIP, SHiP++, Hawkeye, Mockingjay, Glider, CHROME, Belady OPT |
//! | [`trace`] | synthetic SPEC/GAP/server-like workloads and mixes |
//! | [`sim`] | the trace-driven many-core engine, metrics, energy |
//!
//! The paper in one paragraph: modern LLC replacement policies (Hawkeye,
//! Mockingjay, …) pair a *sampled cache* with a PC-indexed *reuse
//! predictor*. On commercial many-core parts the LLC is *sliced* — one
//! slice per core, addresses spread by a complex hash — and the naive port
//! instantiates both structures per slice. The paper shows that (i) each
//! slice's predictor then trains on a myopic fragment of every PC's
//! behaviour, and (ii) randomly chosen sampled sets often carry no
//! training signal. Drishti fixes both: a *per-core-yet-global* predictor
//! reachable from every slice over a 3-cycle NOCSTAR interconnect, and a
//! *dynamic sampled cache* that samples the highest-MPKA sets — improving
//! 32-core weighted speedup over LRU from 3.3%→5.6% (Hawkeye) and
//! 6.7%→13.2% (Mockingjay) while *saving* storage.
//!
//! # Quickstart
//!
//! ```
//! use drishti::core::config::DrishtiConfig;
//! use drishti::policies::factory::PolicyKind;
//! use drishti::sim::config::SystemConfig;
//! use drishti::sim::runner::{run_mix, RunConfig};
//! use drishti::trace::mix::Mix;
//! use drishti::trace::presets::Benchmark;
//!
//! let cores = 4;
//! let mix = Mix::homogeneous(Benchmark::Mcf, cores, 1);
//! let rc = RunConfig {
//!     system: SystemConfig::paper_baseline(cores),
//!     accesses_per_core: 20_000,
//!     warmup_accesses: 5_000,
//!     record_llc_stream: false,
//!     sampling: drishti::sim::sampling::SamplingSpec::off(),
//!     telemetry: drishti::sim::telemetry::TelemetrySpec::off(),
//! };
//! let baseline = run_mix(&mix, PolicyKind::Mockingjay, DrishtiConfig::baseline(cores), &rc);
//! let drishti = run_mix(&mix, PolicyKind::Mockingjay, DrishtiConfig::drishti(cores), &rc);
//! println!("mockingjay {:.3} vs d-mockingjay {:.3}", baseline.total_ipc(), drishti.total_ipc());
//! ```
//!
//! See `examples/` for runnable scenarios, `crates/bench/src/bin/` for the
//! per-table/figure reproduction harness, DESIGN.md for the system
//! inventory and EXPERIMENTS.md for paper-vs-measured results.

pub use drishti_core as core;
pub use drishti_mem as mem;
pub use drishti_noc as noc;
pub use drishti_policies as policies;
pub use drishti_sim as sim;
pub use drishti_trace as trace;
