//! `drishti-benchmark compare A.json B.json`: the A/B verdict per
//! workload and end-to-end metric.

use crate::catalog::{Better, Metric, END_TO_END};
use crate::json::{as_f64, get, parse, Json};
use std::path::Path;

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the metric's bound.
    Ok,
    /// Worse than A by more than the bound.
    Regressed,
    /// Either side's interquartile range is wider than the bound, so the
    /// runs cannot resolve a change of that size.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reported value and quartiles of one metric on one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Reported value.
    pub value: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn relative_iqr(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// Judge B against A for `metric`. Returns the verdict and B's change
/// relative to A's value.
pub fn judge(metric: &Metric, a: Side, b: Side) -> (Verdict, f64) {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let delta = if a.value == 0.0 {
        0.0
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let worse = match metric.better {
        Better::Higher => -delta,
        Better::Lower => delta,
    };
    let verdict = if a.relative_iqr() > bound || b.relative_iqr() > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, delta)
}

/// The per-workload records of a result file: `result.json` of a full
/// run, or one workload's record.
fn workloads(doc: &Json) -> Vec<(String, &Json)> {
    match (get(doc, "workloads"), get(doc, "workload")) {
        (Some(Json::Obj(pairs)), _) => pairs.iter().map(|(k, v)| (k.clone(), v)).collect(),
        (_, Some(Json::Str(name))) => vec![(name.clone(), doc)],
        _ => Vec::new(),
    }
}

fn side(record: &Json, metric: &str) -> Option<Side> {
    let m = get(get(record, "metrics")?, metric)?;
    Some(Side {
        q1: as_f64(get(m, "q1")?)?,
        value: as_f64(get(m, "value")?)?,
        q3: as_f64(get(m, "q3")?)?,
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison of two result files. Returns the exit code: 0
/// when nothing regressed, 1 on a regression, 2 when a file cannot be
/// read or the two share no workload.
pub fn run(a: &Path, b: &Path) -> i32 {
    let (doc_a, doc_b) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let right = workloads(&doc_b);
    let mut rows = 0;
    let mut regressed = false;
    println!(
        "{:<14} {:<18} {:>14} {:>8} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "A value", "A iqr", "B value", "B iqr", "delta"
    );
    for (name, rec_a) in workloads(&doc_a) {
        let Some((_, rec_b)) = right.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(rec_a, metric.name), side(rec_b, metric.name)) else {
                continue;
            };
            let (verdict, delta) = judge(metric, sa, sb);
            regressed |= verdict == Verdict::Regressed;
            rows += 1;
            println!(
                "{name:<14} {:<18} {:>14.6} {:>7.2}% {:>14.6} {:>7.2}% {:>+7.2}%  {} (bound {:.0}%)",
                metric.name,
                sa.value,
                sa.relative_iqr() * 100.0,
                sb.value,
                sb.relative_iqr() * 100.0,
                delta * 100.0,
                verdict.label(),
                metric.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    if rows == 0 {
        eprintln!("error: the two files share no workload metric");
        return 2;
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side {
            q1: value * (1.0 - spread / 2.0),
            value,
            q3: value * (1.0 + spread / 2.0),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steps = END_TO_END[0];
        assert_eq!(steps.name, "sim_steps_per_s");
        assert_eq!(judge(&steps, s(100.0, 0.02), s(80.0, 0.02)).0, Verdict::Ok);
        assert_eq!(
            judge(&steps, s(100.0, 0.02), s(70.0, 0.02)).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&steps, s(100.0, 0.02), s(130.0, 0.02)).0, Verdict::Ok);
        assert_eq!(
            judge(&steps, s(100.0, 0.40), s(70.0, 0.02)).0,
            Verdict::Unresolved
        );
        let rss = END_TO_END[3];
        assert_eq!(rss.name, "peak_rss_mib");
        assert_eq!(
            judge(&rss, s(100.0, 0.0), s(106.0, 0.0)).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&rss, s(100.0, 0.0), s(90.0, 0.0)).0, Verdict::Ok);
    }

    #[test]
    fn reads_full_and_single_workload_files() {
        let single = parse(
            "{\"workload\": \"llc-4c\", \"metrics\": {\"setup_s\": \
             {\"q1\": 1, \"value\": 2, \"q3\": 3}}}",
        )
        .unwrap();
        let w = workloads(&single);
        assert_eq!(w.len(), 1);
        assert_eq!(
            side(w[0].1, "setup_s"),
            Some(Side {
                q1: 1.0,
                value: 2.0,
                q3: 3.0
            })
        );
        let mut all = Json::obj();
        let mut ws = Json::obj();
        ws.push("llc-4c", single.clone()).push("alone-16c", single);
        all.push("workloads", ws);
        assert_eq!(workloads(&all).len(), 2);
    }
}
