//! The Drishti enhancements (MICRO 2025).
//!
//! State-of-the-art LLC replacement policies (Hawkeye, Mockingjay, SHiP++,
//! Glider, CHROME, …) are built from two seminal structures: a *sampled
//! cache* that observes a few LLC sets, and a PC-indexed *reuse predictor*
//! trained by the sampler. On a sliced LLC, the naive port instantiates both
//! per slice, and the paper identifies two resulting pathologies:
//!
//! 1. **Myopic predictions** (Observation I): loads of one PC scatter over
//!    slices via the complex address hash, so each slice's predictor is
//!    trained on a fragment of the PC's behaviour.
//! 2. **Under-utilised sampled sets** (Observation II): randomly chosen
//!    sampled sets often have few misses and contribute little training
//!    signal, while high-MPKA sets go unobserved.
//!
//! Drishti's two enhancements, both implemented here:
//!
//! * **Enhancement I** ([`org`], [`fabric`]): keep the sampled cache local
//!   per slice but make the reuse predictor *per-core and yet global* — one
//!   predictor per core, placed at the core's home tile, reachable from
//!   every slice over a dedicated 3-cycle NOCSTAR interconnect. This gives
//!   every slice a global view of each PC's reuse without the bandwidth
//!   bottleneck of a centralized predictor or the broadcast cost of a
//!   global sampled cache (paper Table 2).
//! * **Enhancement II** ([`dsc`]): a *dynamic sampled cache* — per-slice
//!   8-bit saturating counters identify the sets with the highest
//!   misses-per-kilo-access over a 32 K-access monitoring window; the top-N
//!   become the sampled sets for the next 128 K accesses. Workloads with
//!   uniform per-set demand (streaming, e.g. lbm) are detected and fall
//!   back to random selection.
//!
//! [`budget`] reproduces the paper's per-core storage accounting (Table 3)
//! and [`config`] bundles everything into named configurations
//! (`baseline`, `drishti`, ablations). Under the injected uncore faults of
//! [`drishti_noc::faults`] the predictor fabric degrades gracefully: lost
//! lookups fall back to a static insertion and lost trainings are retried
//! a bounded number of times ([`fabric`]).
//!
//! # Example
//!
//! ```
//! use drishti_core::config::DrishtiConfig;
//!
//! // The full Drishti configuration for a 32-core system.
//! let cfg = DrishtiConfig::drishti(32);
//! let fabric = cfg.build_fabric();
//! assert_eq!(fabric.org().to_string(), "per-core-global");
//! ```

pub mod budget;
pub mod config;
pub mod dsc;
pub mod fabric;
pub mod org;
pub mod select;
