//! Per-core trace sources for sweep cells.
//!
//! The sweep harness runs the same (benchmark, seed) workload under many
//! policies and organisations, and a weighted-speedup figure replays each
//! core's trace once more alone. A synthetic workload is a deterministic
//! function of `(benchmark, seed)`, so [`TraceCache`] stores none of them:
//! [`TraceCache::replay`] hands each cell a [`ReplayWorkload`] that runs
//! the generator on the fly: a record costs tens of nanoseconds to
//! generate against hundreds per engine step, while keeping every trace
//! of a sweep resident costs tens of MiB (DESIGN.md §12).
//!
//! Traces read from disk (`drishti-sim --trace-file` sweeps) are
//! registered per `(benchmark, seed)` with [`TraceCache::add_file`]; their
//! replays stream the file through a [`StreamingTrace`], one decoded frame
//! resident per core, exactly as a single run does.
//!
//! Replay is bit-exact: a generated replay equals a fresh
//! `bench.build(seed)` record for record, and a file-backed one equals the
//! file's own [`StreamingTrace`].

use crate::presets::Benchmark;
use crate::store::StreamingTrace;
use crate::synthetic::SyntheticWorkload;
use crate::{TraceRecord, WorkloadGen};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`WorkloadGen`] serving one core of a sweep cell (see
/// [`TraceCache::replay`]).
#[derive(Debug)]
pub struct ReplayWorkload {
    source: Source,
}

#[derive(Debug)]
enum Source {
    /// `bench.build(seed)`, rebuilt once `len` records have been served.
    Generated {
        gen: SyntheticWorkload,
        bench: Benchmark,
        seed: u64,
        len: u64,
        served: u64,
    },
    /// A registered trace file, wrapping at its own end.
    File(StreamingTrace),
}

impl WorkloadGen for ReplayWorkload {
    fn name(&self) -> &str {
        match &self.source {
            Source::Generated { gen, .. } => gen.name(),
            Source::File(stream) => stream.name(),
        }
    }

    fn next_record(&mut self) -> TraceRecord {
        match &mut self.source {
            Source::Generated {
                gen,
                bench,
                seed,
                len,
                served,
            } => {
                if *served == *len {
                    *gen = bench.build(*seed);
                    *served = 0;
                }
                *served += 1;
                gen.next_record()
            }
            Source::File(stream) => stream.next_record(),
        }
    }

    /// A generated replay repeats every `len` records, so only `n % len`
    /// of them are generated; a file-backed one seeks
    /// ([`StreamingTrace`]'s `skip_records`).
    fn skip_records(&mut self, n: u64) {
        let n = match &mut self.source {
            Source::Generated { len, .. } => n % *len,
            Source::File(stream) => return stream.skip_records(n),
        };
        for _ in 0..n {
            self.next_record();
        }
    }
}

/// The trace source of a sweep: generates each `(benchmark, seed)`
/// workload on demand, or streams the trace file registered for it.
///
/// It holds no trace, so any number of concurrent cells share one through
/// an `Arc` at no cost beyond their own generators and file frames.
#[derive(Debug, Default)]
pub struct TraceCache {
    /// Trace files that replace generation, per `(benchmark, seed)`.
    files: HashMap<(Benchmark, u64), PathBuf>,
    file_replays: AtomicU64,
    generated: AtomicU64,
}

impl TraceCache {
    /// A source that generates every workload.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Serve `bench` at `seed` from the `drishti-trace/v1` file at `path`
    /// instead of generating it. Every replay opens the file again, and
    /// [`StreamingTrace::open`] validates it again, so validate it once
    /// up front to make a bad file an argument error rather than a failed
    /// cell. The first file registered for a key wins.
    pub fn add_file(&mut self, bench: Benchmark, seed: u64, path: impl Into<PathBuf>) {
        self.files
            .entry((bench, seed))
            .or_insert_with(|| path.into());
    }

    /// A [`WorkloadGen`] for `bench` at `seed`: its registered file,
    /// streamed and wrapping at the file's end, or else the generator run
    /// on the fly and rebuilt every `len` records, so that the stream
    /// repeats every `len` records as a stored `len`-record trace would.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero (an empty stream cannot satisfy the
    /// infinite-generator contract), or if a registered file no longer
    /// opens.
    pub fn replay(&self, bench: Benchmark, seed: u64, len: u64) -> ReplayWorkload {
        assert!(len > 0, "cannot replay an empty trace");
        let source = match self.files.get(&(bench, seed)) {
            Some(path) => {
                self.file_replays.fetch_add(1, Ordering::Relaxed);
                let stream = StreamingTrace::open(path)
                    .unwrap_or_else(|e| panic!("trace {}: {e}", path.display()));
                Source::File(stream)
            }
            None => {
                self.generated.fetch_add(1, Ordering::Relaxed);
                Source::Generated {
                    gen: bench.build(seed),
                    bench,
                    seed,
                    len,
                    served: 0,
                }
            }
        };
        ReplayWorkload { source }
    }

    /// The first `len` records of [`replay`](TraceCache::replay)'s stream.
    pub fn get(&self, bench: Benchmark, seed: u64, len: u64) -> Vec<TraceRecord> {
        let mut replay = self.replay(bench, seed, len);
        (0..len).map(|_| replay.next_record()).collect()
    }

    /// `(file_backed, generated)`: replays handed out so far that stream
    /// a registered file, and that run a generator.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.file_replays.load(Ordering::Relaxed),
            self.generated.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_equals_generation() {
        let cache = TraceCache::new();
        let mut replayed = cache.replay(Benchmark::Mcf, 7, 500);
        let mut fresh = Benchmark::Mcf.build(7);
        for _ in 0..500 {
            assert_eq!(replayed.next_record(), fresh.next_record());
        }
    }

    #[test]
    fn replay_wraps_around() {
        let cache = TraceCache::new();
        let mut w = cache.replay(Benchmark::Lbm, 1, 10);
        let first: Vec<_> = w.collect(10);
        let wrapped: Vec<_> = w.collect(10);
        assert_eq!(first, wrapped);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_rejected() {
        let _ = TraceCache::new().replay(Benchmark::Mcf, 1, 0);
    }

    #[test]
    fn registered_file_replaces_generation() {
        let path =
            std::env::temp_dir().join(format!("drishti-replay-test-{}.drtr", std::process::id()));
        let records = Benchmark::Gcc.build(9).collect(300);
        crate::store::write_trace(&path, "gcc", 9, &records).unwrap();
        let mut cache = TraceCache::new();
        cache.add_file(Benchmark::Gcc, 9, &path);
        cache.add_file(Benchmark::Gcc, 9, "ignored: the first file wins");
        // The file wraps at its own end, whatever length is asked for.
        let mut w = cache.replay(Benchmark::Gcc, 9, 100);
        assert_eq!(w.collect(300), records);
        assert_eq!(w.next_record(), records[0]);
        let _ = cache.replay(Benchmark::Gcc, 10, 100);
        assert_eq!(cache.stats(), (1, 1));
        std::fs::remove_file(&path).unwrap();
    }
}
