//! LLC replacement policies for the Drishti reproduction.
//!
//! Implements the policies the paper evaluates, all behind
//! [`drishti_mem::policy::LlcPolicy`]:
//!
//! * [`lru::Lru`] — the baseline every figure normalises to;
//! * [`srrip::Srrip`], [`dip::Dip`] and [`drrip::Drrip`] — the memoryless
//!   seminal policies (Table 7's first row; their set-dueling benefits from
//!   Drishti's dynamic sampled sets);
//! * [`sdbp::Sdbp`] — sampling dead block prediction (Table 7);
//! * [`ship::ShipPp`] — SHiP++ signature-based hit prediction (Table 8);
//! * [`hawkeye::Hawkeye`] — Belady-mimicking binary reuse classification
//!   (OPTgen + sampled cache + PC predictor), CRC-2 winner;
//! * [`mockingjay::Mockingjay`] — multi-class Belady mimicry with
//!   estimated-time-remaining (ETR) counters;
//! * [`glider::Glider`] — a simplified integer-SVM (ISVM) predictor over a
//!   PC history register, trained by OPTgen (Table 8);
//! * [`chrome::Chrome`] — a simplified online-RL (SARSA) cache manager
//!   (Table 8);
//! * [`opt`] — the offline Belady oracle and reuse-distance tooling used by
//!   the paper's oracle comparisons (Figs 3, 18).
//!
//! Every prediction-based policy takes a
//! [`drishti_core::config::DrishtiConfig`], which decides whether its
//! sampled cache and predictor are per-slice (myopic baseline), centralized,
//! or Drishti's per-core-yet-global organisation with a dynamic sampled
//! cache — so `D-Hawkeye` is simply `Hawkeye` built with
//! `DrishtiConfig::drishti(cores)`.
//!
//! SDBP, Hawkeye, Mockingjay and Glider train on one sampled cache, the
//! crate-private `sampler` module: each slice's set selector and sampled
//! sets, the reselection flush, the tag lookup, stalest-entry eviction
//! and the restore check on entry cores. [`common`] holds the rest of
//! the scaffold every policy shares: per-line metadata
//! ([`common::PerLine`], which also answers conformance probes),
//! selector construction, the `d-` naming and the RRIP victim search.
//!
//! [`factory::PolicyKind`] gives a uniform way to construct any of them.
//!
//! # Example
//!
//! ```
//! use drishti_core::config::DrishtiConfig;
//! use drishti_mem::llc::LlcGeometry;
//! use drishti_policies::factory::PolicyKind;
//!
//! let geom = LlcGeometry::per_core_2mb(4);
//! let d_mockingjay = PolicyKind::Mockingjay.build(&geom, DrishtiConfig::drishti(4));
//! assert_eq!(d_mockingjay.name(), "d-mockingjay");
//! ```

pub mod chrome;
pub mod common;
pub mod dip;
pub mod drrip;
pub mod factory;
pub mod glider;
pub mod hawkeye;
pub mod lru;
pub mod mockingjay;
pub mod opt;
pub(crate) mod sampler;
pub mod sdbp;
pub mod ship;
pub mod srrip;
