//! In-memory spans of the traced run and their Chrome trace-event export.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer, kept in memory, and written when the run ends. Nesting
//! is by time: a span lies inside every span whose interval covers it.
//! `trace.json` opens in Perfetto, one process (and track) per workload.

use crate::json::{as_f64, as_str, get, Json};
use std::time::Instant;

/// One closed span, in microseconds from the run's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call or phase name, e.g. `engine.run`.
    pub name: String,
    /// Start, µs since the tracer was created.
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Collects spans for one process.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Closed spans, in closing order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Close a span named `name` that opened at `start`; returns its
    /// length in seconds.
    pub fn close(&mut self, name: &str, start: Instant) -> f64 {
        let dur = start.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            ts_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        dur.as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.close(name, start);
        out
    }
}

/// Spans as stored in a per-workload record.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                let mut o = Json::obj();
                o.push("name", Json::Str(s.name.clone()))
                    .push("ts", Json::Num(s.ts_us))
                    .push("dur", Json::Num(s.dur_us));
                o
            })
            .collect(),
    )
}

/// Spans read back from a per-workload record.
pub fn spans_from_json(value: &Json) -> Vec<Span> {
    match value {
        Json::Arr(items) => items
            .iter()
            .filter_map(|s| {
                Some(Span {
                    name: as_str(get(s, "name")?)?.to_string(),
                    ts_us: as_f64(get(s, "ts")?)?,
                    dur_us: as_f64(get(s, "dur")?)?,
                })
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Chrome trace-event JSON for `tracks`: `(workload, pid, spans)`, one
/// process per workload with its spans as complete (`X`) events.
pub fn chrome_trace(tracks: &[(String, u64, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (workload, pid, spans) in tracks {
        for meta in ["process_name", "thread_name"] {
            let mut args = Json::obj();
            args.push("name", Json::Str(workload.clone()));
            let mut e = Json::obj();
            e.push("name", Json::Str(meta.to_string()))
                .push("ph", Json::Str("M".to_string()))
                .push("pid", Json::UInt(*pid))
                .push("tid", Json::UInt(1))
                .push("args", args);
            events.push(e);
        }
        for s in spans {
            let mut e = Json::obj();
            e.push("name", Json::Str(s.name.clone()))
                .push("cat", Json::Str("drishti-benchmark".to_string()))
                .push("ph", Json::Str("X".to_string()))
                .push("ts", Json::Num(s.ts_us))
                .push("dur", Json::Num(s.dur_us))
                .push("pid", Json::UInt(*pid))
                .push("tid", Json::UInt(1));
            events.push(e);
        }
    }
    let mut root = Json::obj();
    root.push("traceEvents", Json::Arr(events))
        .push("displayTimeUnit", Json::Str("ms".to_string()));
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_trace_events() {
        let mut t = Tracer::default();
        let outer = Instant::now();
        t.span("inner", || std::hint::black_box(1 + 1));
        t.close("outer", outer);
        assert_eq!(t.spans.len(), 2);
        let (inner, outer) = (&t.spans[0], &t.spans[1]);
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1e-3);

        assert_eq!(spans_from_json(&spans_to_json(&t.spans)), t.spans);
        let doc = chrome_trace(&[("llc-4c".to_string(), 42, t.spans.clone())]);
        let parsed = crate::json::parse(&doc.to_pretty_string()).unwrap();
        let Some(Json::Arr(events)) = get(&parsed, "traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(events.len(), 4, "two metadata events plus two spans");
        for e in events {
            let ph = as_str(get(e, "ph").unwrap()).unwrap();
            assert!(ph == "M" || ph == "X");
            assert_eq!(as_f64(get(e, "pid").unwrap()), Some(42.0));
            if ph == "X" {
                assert!(as_f64(get(e, "ts").unwrap()).is_some());
                assert!(as_f64(get(e, "dur").unwrap()).is_some());
            }
        }
    }
}
