//! `drishti-benchmark`: end-to-end host metrics and an outside-in layer
//! profile of the Drishti simulator on four pinned workloads.
//!
//! ```text
//! drishti-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--trials N] [--quick]
//! drishti-benchmark --bless
//! drishti-benchmark compare A.json B.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of stdout is a JSON object: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without it, every workload runs in its own child
//! process, one at a time, and the results land in
//! `target/benchmark/result.json` (plus `layers.json` and the Perfetto
//! `trace.json` with `--trace 1`). See README.md.

mod catalog;
mod check;
mod compare;
mod json;
mod layers;
mod measure;
mod stats;
mod trace;
mod workloads;

use catalog::{Metric, END_TO_END, PER_LAYER};
use json::{as_f64, compact, get, parse, Json};
use measure::{measure, RunOpts};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workloads::{Workload, OUT_DIR};

/// Record schema of every file the benchmark writes.
const SCHEMA: &str = "drishti-benchmark/v1";

/// Default measurement budget per workload, in seconds (`run_seconds`
/// in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Exit code of a malformed command line.
const USAGE_EXIT: i32 = 2;

const USAGE: &str = "usage: drishti-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--trials N] [--quick]
       drishti-benchmark --bless
       drishti-benchmark compare A.json B.json
workloads: llc-4c, alone-16c, multichip-64c, fig13-16c";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Cli {
    /// Run one workload, or all of them.
    Run {
        workload: Option<Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
        trials: Option<usize>,
        quick: bool,
    },
    /// Re-pin the default-seed fingerprints.
    Bless,
    /// Compare two result files.
    Compare(PathBuf, PathBuf),
    /// Print usage.
    Help,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Cli::Compare(PathBuf::from(a), PathBuf::from(b))),
            _ => Err("compare takes exactly two result files".to_string()),
        };
    }
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut trials = None;
    let mut quick = false;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(Cli::Help),
            "--quick" => quick = true,
            "--bless" => bless = true,
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds needs a positive number, got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                };
            }
            "--trials" => {
                let v = value()?;
                trials =
                    Some(v.parse::<usize>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--trials needs a count of at least 1, got `{v}`")
                    })?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if bless {
        if workload.is_some() || seed != 1 || quick || trace || trials.is_some() {
            return Err("--bless pins the default run and takes no other flag".to_string());
        }
        return Ok(Cli::Bless);
    }
    Ok(Cli::Run {
        workload,
        seed,
        seconds,
        trace,
        trials,
        quick,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            USAGE_EXIT
        }
        Ok(Cli::Help) => {
            println!("{USAGE}");
            0
        }
        Ok(Cli::Compare(a, b)) => compare::run(&a, &b),
        Ok(Cli::Bless) => bless(),
        Ok(Cli::Run {
            workload,
            seed,
            seconds,
            trace,
            trials,
            quick,
        }) => {
            let o = RunOpts {
                seed,
                seconds,
                trials,
                quick,
            };
            match workload {
                Some(w) => run_one(w, &o, trace),
                None => run_all(&o, trace),
            }
        }
    };
    std::process::exit(code);
}

fn header(workload: Workload, o: &RunOpts, trace: bool, check: &check::Checker) -> Json {
    let mut rec = Json::obj();
    rec.push("schema", Json::Str(SCHEMA.to_string()))
        .push("workload", Json::Str(workload.name().to_string()))
        .push("seed", Json::UInt(o.seed))
        .push("quick", Json::Bool(o.quick))
        .push("trace", Json::Bool(trace))
        .push("correct", Json::Bool(check.failed() == 0))
        .push("attempted", Json::UInt(check.attempted))
        .push("failed", Json::UInt(check.failed()))
        .push(
            "failures",
            Json::Arr(
                check
                    .failures
                    .iter()
                    .take(50)
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        );
    rec
}

/// The closing stdout line: `correct`, `attempted`, `failed` and the
/// metrics with their units, as one JSON object.
fn final_line(check: &check::Checker, metrics: &[(Metric, f64)]) -> String {
    let mut ms = Json::obj();
    for (m, v) in metrics {
        let mut o = Json::obj();
        o.push("value", Json::Num(*v))
            .push("unit", Json::Str(m.unit.to_string()));
        ms.push(m.name, o);
    }
    let mut root = Json::obj();
    root.push("correct", Json::Bool(check.failed() == 0))
        .push("attempted", Json::UInt(check.attempted))
        .push("failed", Json::UInt(check.failed()))
        .push("metrics", ms);
    compact(&root)
}

fn record_path(workload: Workload, trace: bool) -> PathBuf {
    let suffix = if trace { "layers.json" } else { "json" };
    PathBuf::from(OUT_DIR).join(format!("{}.{suffix}", workload.name()))
}

fn write_json(path: &Path, value: &Json) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, value.to_pretty_string()));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn report_failures(workload: Workload, check: &check::Checker) {
    eprintln!(
        "{}: {} ops, {} failed",
        workload.name(),
        check.attempted,
        check.failed()
    );
    for f in check.failures.iter().take(10) {
        eprintln!("  FAIL {f}");
    }
}

/// Run one workload in this process and print the closing JSON line.
fn run_one(workload: Workload, o: &RunOpts, trace: bool) -> i32 {
    let _ = std::fs::create_dir_all(OUT_DIR);
    if trace {
        let t = layers::traced_run(workload, o);
        let mut rec = header(workload, o, true, &t.check);
        let mut ls = Json::obj();
        for (m, v) in &t.layers {
            eprintln!("{}: {:<32} {v:>14.4} {}", workload.name(), m.name, m.unit);
            let mut e = Json::obj();
            e.push("value", Json::Num(*v))
                .push("unit", Json::Str(m.unit.to_string()));
            ls.push(m.name, e);
        }
        rec.push("layers", ls)
            .push("engine_run_s", Json::Num(t.engine_run_s))
            .push("pid", Json::UInt(u64::from(std::process::id())))
            .push("spans", trace::spans_to_json(&t.spans));
        write_json(&record_path(workload, true), &rec);
        report_failures(workload, &t.check);
        println!("{}", final_line(&t.check, &t.layers));
    } else {
        let m = measure(workload, o);
        let mut rec = header(workload, o, false, &m.check);
        let mut ms = Json::obj();
        for (metric, s) in &m.metrics {
            eprintln!(
                "{}: {:<18} {:>14.4} {:<8} (median {:.4}, q1 {:.4}, q3 {:.4}, n={})",
                workload.name(),
                metric.name,
                s.value,
                metric.unit,
                s.median,
                s.q1,
                s.q3,
                s.n
            );
            let mut e = Json::obj();
            e.push("value", Json::Num(s.value))
                .push("median", Json::Num(s.median))
                .push("q1", Json::Num(s.q1))
                .push("q3", Json::Num(s.q3))
                .push("n", Json::UInt(s.n as u64))
                .push("unit", Json::Str(metric.unit.to_string()))
                .push("better", Json::Str(metric.better.label().to_string()))
                .push("bound", Json::Num(metric.bound.unwrap_or(0.0)));
            ms.push(metric.name, e);
        }
        rec.push("metrics", ms)
            .push("engine_run_s", Json::Num(m.engine_run_s));
        write_json(&record_path(workload, false), &rec);
        report_failures(workload, &m.check);
        let values: Vec<(Metric, f64)> = m.metrics.iter().map(|(m, s)| (*m, s.value)).collect();
        println!("{}", final_line(&m.check, &values));
    }
    0
}

/// Run `workload` in a child process and read back its record.
fn run_child(workload: Workload, o: &RunOpts, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = o.trials {
        cmd.args(["--trials", &n.to_string()]);
    }
    if o.quick {
        cmd.arg("--quick");
    }
    let path = record_path(workload, trace);
    let _ = std::fs::remove_file(&path);
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            out.status
        ));
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(rec: &Json, path: &[&str]) -> f64 {
    let mut v = rec;
    for key in path {
        match get(v, key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    as_f64(v).unwrap_or(0.0)
}

/// Run every workload, each in its own child process, one at a time.
fn run_all(o: &RunOpts, trace: bool) -> i32 {
    let mut failed = 0.0;
    let mut results = Json::obj();
    let mut records = Vec::new();
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>16} {:>3} unit",
        "workload", "metric", "value", "q1", "q3", "n"
    );
    for w in Workload::ALL {
        let rec = match run_child(w, o, false) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        for m in &END_TO_END {
            println!(
                "{:<14} {:<18} {:>16.4} {:>16.4} {:>16.4} {:>3} {}",
                w.name(),
                m.name,
                num(&rec, &["metrics", m.name, "value"]),
                num(&rec, &["metrics", m.name, "q1"]),
                num(&rec, &["metrics", m.name, "q3"]),
                num(&rec, &["metrics", m.name, "n"]),
                m.unit
            );
        }
        println!(
            "{:<14} ops attempted {}, failed {}",
            w.name(),
            num(&rec, &["attempted"]),
            num(&rec, &["failed"])
        );
        failed += num(&rec, &["failed"]);
        records.push((w, num(&rec, &["engine_run_s"])));
        results.push(w.name(), rec);
    }
    let mut root = Json::obj();
    root.push("schema", Json::Str(SCHEMA.to_string()))
        .push("seed", Json::UInt(o.seed))
        .push("workloads", results);
    let path = PathBuf::from(OUT_DIR).join("result.json");
    write_json(&path, &root);
    println!("wrote {}", path.display());

    if trace {
        let mut layers = Json::obj();
        let mut tracks = Vec::new();
        for (w, untraced_run_s) in records {
            let rec = match run_child(w, o, true) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            for m in &PER_LAYER {
                println!(
                    "{:<14} {:<32} {:>16.4} {}",
                    w.name(),
                    m.name,
                    num(&rec, &["layers", m.name, "value"]),
                    m.unit
                );
            }
            let traced_run_s = num(&rec, &["engine_run_s"]);
            println!(
                "{:<14} tracing overhead: engine.run {traced_run_s:.3} s traced vs {untraced_run_s:.3} s \
                 untraced median ({:+.1}%)",
                w.name(),
                (traced_run_s / untraced_run_s - 1.0) * 100.0
            );
            failed += num(&rec, &["failed"]);
            let spans = get(&rec, "spans")
                .map(trace::spans_from_json)
                .unwrap_or_default();
            tracks.push((w.name().to_string(), num(&rec, &["pid"]) as u64, spans));
            layers.push(w.name(), get(&rec, "layers").cloned().unwrap_or(Json::Null));
        }
        let path = PathBuf::from(OUT_DIR).join("layers.json");
        write_json(&path, &layers);
        println!("wrote {}", path.display());
        let path = PathBuf::from(OUT_DIR).join("trace.json");
        write_json(&path, &trace::chrome_trace(&tracks));
        println!("wrote {} (open in Perfetto)", path.display());
    }
    i32::from(failed > 0.0)
}

/// Rewrite `expected.txt` from one trial of every workload at the
/// default seed and size.
fn bless() -> i32 {
    let mut entries = Vec::new();
    for w in Workload::ALL {
        let cells = w.cells(1, false);
        let cache = drishti_trace::replay::TraceCache::new();
        let t = workloads::trial(w, &cells, &cache, 1, false, false);
        for (label, outcome) in t.ops {
            match outcome {
                Ok(fp) => entries.push((w, label, fp)),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
    }
    let path = check::expected_path();
    match std::fs::write(&path, check::render_expected(&entries)) {
        Ok(()) => {
            println!(
                "pinned {} fingerprints in {}",
                entries.len(),
                path.display()
            );
            0
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_trace::replay::TraceCache;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_and_unit_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} emitted twice", m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn strs(v: &Json) -> Vec<String> {
        match v {
            Json::Arr(items) => items
                .iter()
                .map(|i| json::as_str(i).expect("string").to_string())
                .collect(),
            _ => panic!("expected an array"),
        }
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        match get(doc, key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json lacks `{key}`"),
        }
    }

    #[test]
    fn benchmark_json_matches_what_the_binary_emits() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Json::Obj(pairs) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(strs(get(&doc, "paths").unwrap()), ["drishti-benchmark"]);
        let command = strs(get(&doc, "command").unwrap());
        assert!(command.contains(&"drishti-benchmark/Cargo.toml".to_string()));
        assert_eq!(num(&doc, &["run_seconds"]), DEFAULT_SECONDS);

        let names = |key: &str| -> Vec<String> {
            entries(&doc, key)
                .iter()
                .map(|e| json::as_str(get(e, "name").unwrap()).unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        for (list, key) in [
            (&END_TO_END[..], "end_to_end"),
            (&PER_LAYER[..], "per_layer"),
        ] {
            let declared = entries(&doc, key);
            assert_eq!(declared.len(), list.len(), "{key}");
            for (d, m) in declared.iter().zip(list) {
                assert_eq!(json::as_str(get(d, "name").unwrap()), Some(m.name));
                assert_eq!(json::as_str(get(d, "unit").unwrap()), Some(m.unit));
                assert_eq!(
                    json::as_str(get(d, "better").unwrap()),
                    Some(m.better.label())
                );
                assert_eq!(get(d, "bound").and_then(as_f64), m.bound, "{}", m.name);
            }
        }
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        for bad in [
            &["--frobnicate"][..],
            &["--trials", "0"],
            &["--trials", "many"],
            &["--workload", "llc-8c"],
            &["--workload"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed", "-1"],
            &["--bless", "--seed", "2"],
            &["compare", "only-one.json"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(USAGE_EXIT, 2);
    }

    #[test]
    fn the_benchmark_json_command_line_parses() {
        let cli = parse_args(&args(&[
            "--workload",
            "alone-16c",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            cli,
            Cli::Run {
                workload: Some(Workload::Alone16c),
                seed: 7,
                seconds: 10.0,
                trace: true,
                trials: None,
                quick: false
            }
        );
        assert_eq!(parse_args(&args(&["--bless"])).unwrap(), Cli::Bless);
        assert_eq!(
            parse_args(&args(&["compare", "a.json", "b.json"])).unwrap(),
            Cli::Compare("a.json".into(), "b.json".into())
        );
    }

    #[test]
    fn final_line_is_one_json_object() {
        let mut c = check::Checker::default();
        c.op(Ok(()));
        let line = final_line(&c, &[(END_TO_END[2], 0.8127)]);
        assert!(!line.contains('\n'));
        let v = parse(&line).unwrap();
        assert_eq!(get(&v, "correct"), Some(&Json::Bool(true)));
        assert_eq!(num(&v, &["attempted"]), 1.0);
        assert_eq!(num(&v, &["failed"]), 0.0);
        assert_eq!(num(&v, &["metrics", "setup_s", "value"]), 0.8127);
        assert_eq!(
            get(&v, "metrics")
                .and_then(|m| get(m, "setup_s"))
                .and_then(|m| get(m, "unit")),
            Some(&Json::Str("s".to_string()))
        );
    }

    #[test]
    fn quick_workloads_repeat_their_fingerprints() {
        for w in Workload::ALL {
            let cells = w.cells(1, true);
            let cache = TraceCache::new();
            let first = workloads::trial(w, &cells, &cache, 1, true, false);
            let second = workloads::trial(w, &cells, &cache, 1, true, w != Workload::Fig13);
            assert!(!first.ops.is_empty());
            assert_eq!(first.ops.len(), second.ops.len());
            for ((label, a), (_, b)) in first.ops.iter().zip(&second.ops) {
                let a = a.as_ref().unwrap_or_else(|e| panic!("{e}"));
                let b = b.as_ref().unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(a, b, "{} {label}", w.name());
            }
        }
    }

    #[test]
    fn quick_traced_run_profiles_every_layer() {
        let o = RunOpts {
            seed: 3,
            seconds: 1.0,
            trials: None,
            quick: true,
        };
        let t = layers::traced_run(Workload::Llc4c, &o);
        assert_eq!(t.check.failed(), 0, "{:?}", t.check.failures);
        assert_eq!(t.layers.len(), PER_LAYER.len());
        let get = |name: &str| t.layers.iter().find(|(m, _)| m.name == name).unwrap().1;
        let shares: f64 = t
            .layers
            .iter()
            .filter(|(m, _)| m.name.starts_with("share."))
            .map(|(_, v)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert!(get("engine.ns_per_step") > 0.0);
        assert!(get("llc.lookups_per_step") > 0.0);
        assert!(
            get("fabric.ops_per_kstep") > 0.0,
            "D-policies use the fabric"
        );
        assert!(get("ckpt.bytes") > 0.0);
        assert!(t.spans.iter().any(|s| s.name == "engine.run"));
    }
}
