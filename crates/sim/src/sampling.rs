//! Warmup/detailed interval sampling (SMARTS-style).
//!
//! A full run simulates every record of the span. A sampled run divides
//! the span into fixed-stride periods of `interval` records and simulates
//! each period in three phases:
//!
//! ```text
//! |-- fast-forward ----------------|-- warm W --|-- detailed D --|
//! 0                                                       interval
//! ```
//!
//! * **fast-forward** — records advance the core clock (instructions
//!   retire at issue width) but skip the memory hierarchy entirely;
//! * **warm** — the last `W` records before each detailed window run
//!   through the full hierarchy so caches, predictors and queues regain
//!   state, but count no metrics;
//! * **detailed** — the final `D = interval /` [`DETAILED_DIVISOR`]
//!   records are fully simulated *and* measured.
//!
//! Placing the detailed window at the period *end* means it always follows
//! its own warm window — the first period needs no special case.
//!
//! Ratio metrics (IPC, MPKI, weighted speedup) come straight out of the
//! measured windows; count metrics (instructions, misses) are estimates
//! and must be scaled by [`SamplingSpec::scale`] /
//! [`SamplingSpec::extrapolate`] to full-run magnitudes.
//!
//! **Representativeness caveat**: sampling assumes the detailed windows
//! are representative of the whole stream. Fixed-stride windows can alias
//! with program phase behaviour, and short warm windows under-warm large
//! LLCs (cold-start bias). `tests/sampling.rs` bounds the weighted-speedup
//! error at [`WS_ERROR_BOUND`] on the paper's preset mixes; treat sampled
//! numbers outside preset-like workloads with care. See DESIGN.md §12 and
//! "Improving the Representativeness of Simulation Intervals for the
//! Cache Memory System" (PAPERS.md).

use crate::engine::CoreResult;

/// Detailed window length as a fraction of the interval: `D = max(P/10, 1)`.
pub const DETAILED_DIVISOR: u64 = 10;

/// Documented bound on the relative weighted-speedup error of a sampled
/// run vs the full run on the fig13 preset mixes (asserted by
/// `tests/sampling.rs`).
pub const WS_ERROR_BOUND: f64 = 0.15;

/// What the engine does with one trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Advance the core clock only; skip the memory hierarchy.
    FastForward,
    /// Full simulation, no metric counting (state warming).
    Warm,
    /// Full simulation, metrics counted.
    Detailed,
}

/// Fixed-stride sampling schedule. `interval == 0` disables sampling:
/// every record is fully simulated, and the run is one measurement window
/// that opens at the run-level warmup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Period length in records per core (0 = sampling off).
    pub interval: u64,
    /// Warm records simulated (uncounted) before each detailed window.
    pub warmup: u64,
}

impl SamplingSpec {
    /// Sampling disabled — the default everywhere.
    pub fn off() -> Self {
        SamplingSpec {
            interval: 0,
            warmup: 0,
        }
    }

    /// Sample every `interval` records, warming `warmup` records before
    /// each detailed window. Call [`validate`](SamplingSpec::validate)
    /// before use.
    pub fn every(interval: u64, warmup: u64) -> Self {
        SamplingSpec { interval, warmup }
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.interval > 0
    }

    /// Records measured per period.
    pub fn detailed_len(&self) -> u64 {
        (self.interval / DETAILED_DIVISOR).max(1)
    }

    /// Checks internal consistency; the CLI surfaces the message at exit 2.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval == 0 {
            if self.warmup > 0 {
                return Err("--sample-warmup requires --sample-interval".into());
            }
            return Ok(());
        }
        let d = self.detailed_len();
        if self.warmup + d > self.interval {
            return Err(format!(
                "sample warmup {} + detailed window {d} exceed the interval {} \
                 (need warmup <= interval - interval/{DETAILED_DIVISOR})",
                self.warmup, self.interval
            ));
        }
        Ok(())
    }

    /// The phase of span position `pos` (records processed so far on the
    /// core) in a run that warms up for `run_warmup` records. Without
    /// sampling that is `Warm` below `run_warmup` and `Detailed` from it
    /// on; under sampling each period's own warm phase replaces the
    /// run-level warmup.
    pub fn phase_of(&self, pos: u64, run_warmup: u64) -> Phase {
        if !self.enabled() {
            return if pos < run_warmup {
                Phase::Warm
            } else {
                Phase::Detailed
            };
        }
        let in_period = pos % self.interval;
        let d = self.detailed_len();
        if in_period >= self.interval - d {
            Phase::Detailed
        } else if in_period >= self.interval - d - self.warmup {
            Phase::Warm
        } else {
            Phase::FastForward
        }
    }

    /// How many of the first `span` positions are detailed (measured).
    pub fn detailed_in(&self, span: u64) -> u64 {
        if !self.enabled() {
            return span;
        }
        let d = self.detailed_len();
        let first = self.interval - d; // first detailed position per period
        (span / self.interval) * d + (span % self.interval).saturating_sub(first).min(d)
    }

    /// Full-run scale factor for count metrics over a `span`-record run:
    /// `span / measured_records`. `1.0` when sampling is off or nothing
    /// is measured.
    pub fn scale(&self, span: u64) -> f64 {
        let measured = self.detailed_in(span);
        if measured == 0 || !self.enabled() {
            1.0
        } else {
            span as f64 / measured as f64
        }
    }

    /// Extrapolates a sampled [`CoreResult`]'s counts to full-run
    /// estimates. Ratio metrics (`ipc()`, `llc_mpki()`) are unchanged up
    /// to rounding; use this only when absolute magnitudes matter.
    pub fn extrapolate(&self, r: &CoreResult, span: u64) -> CoreResult {
        let s = self.scale(span);
        let scale = |v: u64| (v as f64 * s).round() as u64;
        CoreResult {
            instructions: scale(r.instructions),
            cycles: scale(r.cycles),
            accesses: scale(r.accesses),
            llc_misses: scale(r.llc_misses),
        }
    }
}

impl Default for SamplingSpec {
    fn default() -> Self {
        SamplingSpec::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_spec_validates_and_scales_to_one() {
        let s = SamplingSpec::off();
        assert!(s.validate().is_ok());
        assert!(!s.enabled());
        assert_eq!(s.scale(10_000), 1.0);
        assert_eq!(s.detailed_in(123), 123);
        // One window, opened at the run-level warmup.
        assert_eq!(s.phase_of(0, 0), Phase::Detailed);
        assert_eq!(s.phase_of(499, 500), Phase::Warm);
        assert_eq!(s.phase_of(500, 500), Phase::Detailed);
        assert_eq!(s.phase_of(u64::MAX, 500), Phase::Detailed);
    }

    #[test]
    fn warmup_without_interval_rejected() {
        assert!(SamplingSpec::every(0, 5).validate().is_err());
    }

    #[test]
    fn oversized_warmup_rejected() {
        // interval 100 → detailed 10, so warmup may be at most 90.
        assert!(SamplingSpec::every(100, 90).validate().is_ok());
        assert!(SamplingSpec::every(100, 91).validate().is_err());
    }

    #[test]
    fn phase_layout_puts_detailed_at_period_end() {
        let s = SamplingSpec::every(100, 20); // skip 70 | warm 20 | detail 10
        assert_eq!(s.phase_of(0, 0), Phase::FastForward);
        assert_eq!(s.phase_of(69, 0), Phase::FastForward);
        assert_eq!(s.phase_of(70, 0), Phase::Warm);
        assert_eq!(s.phase_of(89, 0), Phase::Warm);
        assert_eq!(s.phase_of(90, 0), Phase::Detailed);
        assert_eq!(s.phase_of(99, 0), Phase::Detailed);
        assert_eq!(s.phase_of(100, 0), Phase::FastForward); // next period
    }

    #[test]
    fn detailed_in_counts_exactly() {
        let s = SamplingSpec::every(100, 20);
        // Brute force against phase_of.
        for span in [0u64, 1, 50, 90, 99, 100, 101, 250, 1000, 1234] {
            let brute = (0..span)
                .filter(|&p| s.phase_of(p, 0) == Phase::Detailed)
                .count() as u64;
            assert_eq!(s.detailed_in(span), brute, "span {span}");
        }
    }

    #[test]
    fn tiny_interval_still_measures() {
        let s = SamplingSpec::every(5, 2); // detailed = max(0,1) = 1
        assert_eq!(s.detailed_len(), 1);
        assert!(s.validate().is_ok());
        assert_eq!(s.detailed_in(5), 1);
    }

    #[test]
    fn extrapolation_scales_counts_not_ratios() {
        let s = SamplingSpec::every(100, 20); // 10% measured
        let measured = CoreResult {
            instructions: 1_000,
            cycles: 2_000,
            accesses: 100,
            llc_misses: 10,
        };
        let full = s.extrapolate(&measured, 10_000);
        assert_eq!(full.instructions, 10_000);
        assert_eq!(full.cycles, 20_000);
        assert!((full.ipc() - measured.ipc()).abs() < 1e-12);
        assert!((full.llc_mpki() - measured.llc_mpki()).abs() < 1e-12);
    }
}
