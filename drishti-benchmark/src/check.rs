//! The output check: pinned fingerprints and cross-trial agreement.
//!
//! Every op (one cell, or one sweep job) yields a fingerprint. The first
//! trial of a run is the reference: at the default seed and size it must
//! match the fingerprints pinned in `expected.txt`, and every later trial
//! must match it exactly. A panic, a failed shadow check or a mismatch
//! counts the op as failed.

use crate::workloads::{Trial, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The pinned fingerprints, one `workload label hex` line each.
const EXPECTED: &str = include_str!("../expected.txt");

/// Where `--bless` writes the pinned fingerprints.
pub fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.txt")
}

/// The pinned `(label, fingerprint)` pairs of `workload`, in file order.
pub fn pinned(workload: Workload) -> Vec<(String, u64)> {
    parse_expected(EXPECTED, workload)
}

fn parse_expected(text: &str, workload: Workload) -> Vec<(String, u64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (w, label, hex) = (parts.next()?, parts.next()?, parts.next()?);
            let fp = u64::from_str_radix(hex, 16).ok()?;
            (w == workload.name()).then(|| (label.to_string(), fp))
        })
        .collect()
}

/// Render pinned fingerprints in the `expected.txt` format.
pub fn render_expected(entries: &[(Workload, String, u64)]) -> String {
    let mut out = String::from(
        "# Output fingerprints of every drishti-benchmark op at the default seed\n\
         # and size: `workload label fnv1a64`. Rewrite with `--bless` (see README).\n",
    );
    for (w, label, fp) in entries {
        let _ = writeln!(out, "{} {label} {fp:016x}", w.name());
    }
    out
}

/// Counts ops and collects failures over a run's trials.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Vec<(String, Result<u64, String>)>,
    /// Ops attempted.
    pub attempted: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
}

impl Checker {
    /// Ops that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Take `trial` as the reference; with `pinned`, check it against the
    /// pinned fingerprints too.
    pub fn reference(&mut self, trial: &Trial, pinned: Option<&[(String, u64)]>) {
        for (label, outcome) in &trial.ops {
            self.attempted += 1;
            let verdict = match (outcome, pinned) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), None) => Ok(()),
                (Ok(fp), Some(pins)) => match pins.iter().find(|(l, _)| l == label) {
                    Some((_, want)) if want == fp => Ok(()),
                    Some((_, want)) => Err(format!(
                        "{label}: fingerprint {fp:016x} differs from pinned {want:016x}"
                    )),
                    None => Err(format!("{label}: no pinned fingerprint (run --bless)")),
                },
            };
            if let Err(e) = verdict {
                self.failures.push(e);
            }
        }
        self.reference = trial.ops.clone();
    }

    /// Check that `trial` reproduces the reference trial op for op.
    pub fn compare(&mut self, trial: &Trial) {
        for (i, (label, outcome)) in trial.ops.iter().enumerate() {
            self.attempted += 1;
            match (outcome, self.reference.get(i)) {
                (Err(e), _) => self.failures.push(e.clone()),
                (Ok(fp), Some((_, Ok(want)))) if fp == want => {}
                (Ok(fp), _) => self.failures.push(format!(
                    "{label}: fingerprint {fp:016x} differs from trial 1"
                )),
            }
        }
    }

    /// Count one extra op with its outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(ops: &[(&str, Result<u64, String>)]) -> Trial {
        Trial {
            ops: ops
                .iter()
                .map(|(l, o)| (l.to_string(), o.clone()))
                .collect(),
            units: Vec::new(),
        }
    }

    #[test]
    fn expected_file_round_trips() {
        let entries = vec![
            (Workload::Llc4c, "a/lru/baseline".to_string(), 0xdead_beef),
            (Workload::Fig13, "b/alone-c00".to_string(), 7),
        ];
        let text = render_expected(&entries);
        assert_eq!(
            parse_expected(&text, Workload::Llc4c),
            vec![("a/lru/baseline".to_string(), 0xdead_beef)]
        );
        assert_eq!(parse_expected(&text, Workload::Fig13).len(), 1);
        assert!(parse_expected(&text, Workload::Alone16c).is_empty());
    }

    #[test]
    fn mismatches_panics_and_missing_pins_fail() {
        let mut c = Checker::default();
        let pins = vec![("x".to_string(), 1), ("y".to_string(), 2)];
        c.reference(
            &trial(&[("x", Ok(1)), ("y", Ok(3)), ("z", Ok(4))]),
            Some(&pins),
        );
        assert_eq!(c.attempted, 3);
        assert_eq!(c.failed(), 2, "{:?}", c.failures);
        c.compare(&trial(&[
            ("x", Ok(1)),
            ("y", Ok(3)),
            ("z", Err("boom".into())),
        ]));
        assert_eq!(c.attempted, 6);
        assert_eq!(c.failed(), 3);
        c.compare(&trial(&[("x", Ok(9)), ("y", Ok(3)), ("z", Ok(4))]));
        assert_eq!(c.failed(), 4);
        c.op(Ok(()));
        c.op(Err("resume".into()));
        assert_eq!((c.attempted, c.failed()), (11, 5));
    }
}
