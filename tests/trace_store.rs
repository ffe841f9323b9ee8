//! Integration tests for the `drishti-trace/v1` on-disk store: codec
//! round-trips (property-based), typed corruption reporting, streaming
//! replay bit-identity with bounded memory, and the sweep's trace source:
//! generated replays' wrap and skip contract, and trace files streamed
//! into sweep cells exactly as into a single run (see DESIGN.md §12).

use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::runner::{run_with_workloads, RunConfig};
use drishti_sim::sweep::{run_sweep, JobKind, SweepJob};
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::store::{
    read_trace, write_trace, StoreError, StreamingTrace, TraceWriter, DEFAULT_FRAME_LEN,
};
use drishti_trace::{TraceRecord, WorkloadGen};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// A scratch file under the OS temp dir, removed on drop.
struct TempTrace(PathBuf);

impl TempTrace {
    fn new(tag: &str) -> Self {
        TempTrace(std::env::temp_dir().join(format!(
            "drishti-store-test-{}-{tag}.drtr",
            std::process::id()
        )))
    }
}

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn flip_byte(path: &PathBuf, offset: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[offset] ^= 0xff;
    std::fs::write(path, bytes).unwrap();
}

/// Byte length of the header for a trace named `name`: magic (8) +
/// version (4) + frame_len (4) + seed (8) + count (8) + name_len (2).
fn header_len(name: &str) -> usize {
    8 + 4 + 4 + 8 + 8 + 2 + name.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary record streams round-trip bit-exactly through the codec,
    /// across frame boundaries (frame_len 64 forces many frames) and with
    /// the full value range of every field (zig-zag deltas must survive
    /// pc/line jumps in both directions).
    #[test]
    fn round_trip_is_bit_exact(
        recs in prop::collection::vec(
            (0u32..5_000, any::<u64>(), any::<u64>(), any::<bool>()),
            1..300,
        )
    ) {
        let records: Vec<TraceRecord> = recs
            .iter()
            .map(|&(instr_gap, pc, line, is_store)| TraceRecord {
                instr_gap,
                pc,
                line,
                is_store,
            })
            .collect();
        let file = TempTrace::new("prop");
        let mut w = TraceWriter::with_frame_len(&file.0, "prop", 42, 64).unwrap();
        for &r in &records {
            w.push(r).unwrap();
        }
        prop_assert_eq!(w.finish().unwrap(), records.len() as u64);
        let (meta, back) = read_trace(&file.0).unwrap();
        prop_assert_eq!(&meta.name, "prop");
        prop_assert_eq!(meta.seed, 42);
        prop_assert_eq!(meta.records, records.len() as u64);
        prop_assert_eq!(back, records);
    }
}

/// The two degenerate sizes deserve explicit coverage: a one-record trace
/// round-trips, and an empty trace reads back empty but is rejected as a
/// workload (the generator contract is an infinite stream).
#[test]
fn empty_and_single_record_traces() {
    let one = TempTrace::new("one");
    let rec = TraceRecord {
        instr_gap: 7,
        pc: 0xdead_beef,
        line: u64::MAX,
        is_store: true,
    };
    write_trace(&one.0, "one", 1, &[rec]).unwrap();
    let (meta, back) = read_trace(&one.0).unwrap();
    assert_eq!(meta.records, 1);
    assert_eq!(back, vec![rec]);
    let mut stream = StreamingTrace::open(&one.0).unwrap();
    // A single record wraps forever.
    for _ in 0..5 {
        assert_eq!(stream.next_record(), rec);
    }

    let empty = TempTrace::new("empty");
    write_trace(&empty.0, "empty", 2, &[]).unwrap();
    let (meta, back) = read_trace(&empty.0).unwrap();
    assert_eq!(meta.records, 0);
    assert!(back.is_empty());
    assert!(matches!(
        StreamingTrace::open(&empty.0),
        Err(StoreError::EmptyTrace)
    ));
}

fn sample_records(n: usize) -> Vec<TraceRecord> {
    Benchmark::Mcf.build(3).collect(n)
}

/// A file cut mid-frame reports `Truncated` naming the incomplete frame —
/// for both the one-shot reader and the streaming open — never a panic.
#[test]
fn truncated_file_names_the_frame() {
    let file = TempTrace::new("trunc");
    let records = sample_records(1_000);
    let mut w = TraceWriter::with_frame_len(&file.0, "mcf", 3, 256).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    // 1000 records at 256/frame = frames 0..=3; cutting 10 bytes off the
    // end lands inside the last frame.
    let bytes = std::fs::read(&file.0).unwrap();
    std::fs::write(&file.0, &bytes[..bytes.len() - 10]).unwrap();
    assert!(matches!(
        read_trace(&file.0),
        Err(StoreError::Truncated { frame: 3 })
    ));
    assert!(matches!(
        StreamingTrace::open(&file.0),
        Err(StoreError::Truncated { frame: 3 })
    ));
}

/// A wrong magic is reported as `BadMagic`, and an unknown container
/// version as `UnsupportedVersion`.
#[test]
fn bad_magic_and_version_are_typed() {
    let file = TempTrace::new("magic");
    write_trace(&file.0, "mcf", 3, &sample_records(10)).unwrap();
    flip_byte(&file.0, 0);
    assert!(matches!(
        read_trace(&file.0),
        Err(StoreError::BadMagic { .. })
    ));
    flip_byte(&file.0, 0); // restore magic…
    flip_byte(&file.0, 8); // …then corrupt the version field
    assert!(matches!(
        read_trace(&file.0),
        Err(StoreError::UnsupportedVersion(_))
    ));
}

/// A flipped payload byte is caught by the frame checksum, naming the
/// corrupt frame (here frame 1, not 0).
#[test]
fn flipped_payload_byte_names_the_frame() {
    let file = TempTrace::new("flip");
    let records = sample_records(512);
    let mut w = TraceWriter::with_frame_len(&file.0, "mcf", 3, 256).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    // Locate frame 1: header, then frame 0's 16-byte header + payload.
    let bytes = std::fs::read(&file.0).unwrap();
    let f0 = header_len("mcf");
    let payload0 = u32::from_le_bytes(bytes[f0..f0 + 4].try_into().unwrap()) as usize;
    let f1 = f0 + 16 + payload0;
    flip_byte(&file.0, f1 + 16 + 5); // 5 bytes into frame 1's payload
    assert!(matches!(
        read_trace(&file.0),
        Err(StoreError::ChecksumMismatch { frame: 1, .. })
    ));
    assert!(matches!(
        StreamingTrace::open(&file.0),
        Err(StoreError::ChecksumMismatch { frame: 1, .. })
    ));
}

/// A writer dropped without `finish()` leaves the count placeholder in the
/// header; the reader refuses the half-written file instead of replaying a
/// silently short trace.
#[test]
fn unfinished_writer_is_rejected() {
    let file = TempTrace::new("unfinished");
    let mut w = TraceWriter::with_frame_len(&file.0, "mcf", 3, 4).unwrap();
    for &r in &sample_records(10) {
        w.push(r).unwrap();
    }
    drop(w); // no finish()
    assert!(matches!(read_trace(&file.0), Err(StoreError::BadHeader(_))));
}

/// Record → replay is bit-identical: a streamed file yields exactly the
/// generator's records, and past the end it wraps to the beginning (the
/// per-frame delta reset makes the rewind exact).
#[test]
fn streaming_replay_matches_generation_and_wraps() {
    let file = TempTrace::new("replay");
    let records = Benchmark::Gcc.build(11).collect(3_000);
    let mut w = TraceWriter::with_frame_len(&file.0, "gcc", 11, 256).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    let mut stream = StreamingTrace::open(&file.0).unwrap();
    assert_eq!(stream.name(), "gcc");
    assert_eq!(stream.meta().seed, 11);
    let mut fresh = Benchmark::Gcc.build(11);
    for i in 0..3_000 {
        assert_eq!(stream.next_record(), fresh.next_record(), "record {i}");
    }
    // Wraparound: the next 500 records repeat the first 500.
    for (i, &want) in records.iter().take(500).enumerate() {
        assert_eq!(stream.next_record(), want, "wrapped record {i}");
    }
}

/// Checkpoint restore repositions on-disk workloads with
/// `skip_records`: after reading `r` records and skipping `n`, the stream
/// yields exactly what a fresh reader yields after `r + n` `next_record`
/// calls — including skips that land mid-frame, on a frame boundary, and
/// past the wrap point, from the start or from mid-stream (after 5
/// records, skipping 3 yields record 8).
#[test]
fn skip_records_repositions_bit_exactly() {
    let file = TempTrace::new("skip");
    let records = Benchmark::Gcc.build(13).collect(1_000);
    let mut w = TraceWriter::with_frame_len(&file.0, "gcc", 13, 256).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    // Mid-frame, exact frame boundary, last record, and wrapped skips,
    // from a fresh reader and then from mid-stream.
    let fresh = [0u64, 7, 256, 300, 999, 1_000, 1_003, 2_511].map(|n| (0, n));
    let mid_stream = [
        (5u64, 3u64),
        (200, 100),
        (300, 699),
        (990, 15),
        (1_001, 2_400),
    ];
    for (read, skip) in fresh.into_iter().chain(mid_stream) {
        let mut skipped = StreamingTrace::open(&file.0).unwrap();
        for _ in 0..read {
            skipped.next_record();
        }
        skipped.skip_records(skip);
        let mut stepped = StreamingTrace::open(&file.0).unwrap();
        for _ in 0..read + skip {
            stepped.next_record();
        }
        for i in 0..600 {
            assert_eq!(
                skipped.next_record(),
                stepped.next_record(),
                "read {read}, skip {skip}, record {i}"
            );
        }
    }
}

/// The acceptance criterion of ISSUE 4: on a trace at least 10× a small
/// byte budget, the streaming reader's resident trace data never exceeds
/// that budget while replaying the whole file — one decoded frame plus
/// one raw payload, not the trace.
#[test]
fn streaming_reader_memory_stays_bounded() {
    let file = TempTrace::new("bounded");
    let records = Benchmark::Lbm.build(5).collect(50_000);
    let decoded_bytes = records.len() * std::mem::size_of::<TraceRecord>();
    let mut w = TraceWriter::with_frame_len(&file.0, "lbm", 5, 512).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    let budget = decoded_bytes / 10;
    assert!(
        decoded_bytes >= 10 * budget,
        "trace must be ≥ 10× the budget for the test to mean anything"
    );
    let mut stream = StreamingTrace::open(&file.0).unwrap();
    let mut peak = 0usize;
    for (i, &want) in records.iter().enumerate() {
        assert_eq!(stream.next_record(), want, "record {i}");
        peak = peak.max(stream.resident_bytes());
    }
    assert!(
        peak <= budget,
        "streaming reader held {peak} bytes, budget {budget} (trace {decoded_bytes})"
    );
    // Sanity: it did hold *something* (one frame's worth).
    assert!(peak >= 512 * std::mem::size_of::<TraceRecord>());
}

/// Records at the extremes of every field: pc and line jump between 0 and
/// `u64::MAX` in both directions, `instr_gap` reaches `u32::MAX`, and both
/// store values occur.
const EXTREMES: [TraceRecord; 4] = [
    TraceRecord {
        instr_gap: u32::MAX,
        pc: 0,
        line: u64::MAX,
        is_store: true,
    },
    TraceRecord {
        instr_gap: 0,
        pc: u64::MAX,
        line: 0,
        is_store: false,
    },
    TraceRecord {
        instr_gap: u32::MAX,
        pc: u64::MAX,
        line: u64::MAX,
        is_store: false,
    },
    TraceRecord {
        instr_gap: 1,
        pc: 0,
        line: 0,
        is_store: true,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary records, extremes included, written to a trace file and
    /// registered with the sweep's trace source replay bit-exactly across
    /// two wraparounds, where the frame's delta chain restarts from zero.
    #[test]
    fn registered_file_replays_bit_exactly_across_wraps(
        recs in prop::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u64>(), any::<bool>()),
            0..200,
        ),
        at in any::<usize>(),
    ) {
        let mut records: Vec<TraceRecord> = recs
            .iter()
            .map(|&(instr_gap, pc, line, is_store)| TraceRecord {
                instr_gap,
                pc,
                line,
                is_store,
            })
            .collect();
        let at = at % (records.len() + 1);
        records.splice(at..at, EXTREMES);
        let len = records.len() as u64;
        let file = TempTrace::new("registered");
        // Small frames, so that replays cross frame boundaries too.
        let mut w = TraceWriter::with_frame_len(&file.0, "prop", 1, 64).unwrap();
        for &r in &records {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let mut cache = TraceCache::new();
        cache.add_file(Benchmark::Mcf, 1, &file.0);
        let mut replay = cache.replay(Benchmark::Mcf, 1, len);
        for (i, want) in records.iter().cycle().take(3 * records.len()).enumerate() {
            prop_assert_eq!(replay.next_record(), *want, "record {}", i);
        }
        prop_assert_eq!(cache.get(Benchmark::Mcf, 1, len), records);
        prop_assert_eq!(cache.stats(), (2, 0), "the file left nothing to generate");
    }

    /// A replay that has served `k` records and then skips `n` serves
    /// record `(k + n) mod len` next, for any `n`.
    #[test]
    fn replay_skip_lands_on_n_mod_len(
        len in 1u64..300,
        k in 0u64..600,
        n in any::<u64>(),
        small in 0u64..1_000,
    ) {
        let cache = TraceCache::new();
        let records = cache.get(Benchmark::Gcc, 5, len);
        for n in [n, small] {
            let mut replay = cache.replay(Benchmark::Gcc, 5, len);
            for _ in 0..k {
                replay.next_record();
            }
            replay.skip_records(n);
            let at = ((u128::from(k) + u128::from(n)) % u128::from(len)) as usize;
            prop_assert_eq!(replay.next_record(), records[at], "k {} n {}", k, n);
        }
    }
}

/// An external trace (a header name matching no built-in benchmark, as
/// ingested ChampSim files have) shorter than the span wraps, and a sweep
/// that streams it gives every cell the per-core results of the
/// single-run streaming replay, at 1 and at 4 workers. Core 1 has no
/// file and is generated.
#[test]
fn external_trace_shorter_than_the_span_wraps_identically_in_sweeps() {
    let file = TempTrace::new("external");
    let rc = RunConfig {
        accesses_per_core: 2_500,
        warmup_accesses: 500,
        ..RunConfig::quick(2)
    };
    let records = Benchmark::Xalan.build(4).collect(700);
    assert!((records.len() as u64) < rc.warmup_accesses + rc.accesses_per_core);
    write_trace(&file.0, "champsim-external", 0, &records).unwrap();
    let mix = Mix::homogeneous(Benchmark::Mcf, 2, 1);
    let policies = [PolicyKind::Lru, PolicyKind::Hawkeye, PolicyKind::Mockingjay];
    let jobs: Vec<SweepJob> = policies
        .iter()
        .enumerate()
        .map(|(id, &policy)| SweepJob {
            id,
            label: format!("{}/{}/baseline", mix.name, policy.label()),
            seed: SweepJob::derive_seed(id),
            rc: rc.clone(),
            kind: JobKind::Run {
                mix: mix.clone(),
                policy,
                org: DrishtiConfig::baseline(2),
                org_label: "baseline".to_string(),
            },
        })
        .collect();
    let single: Vec<_> = policies
        .iter()
        .map(|&policy| {
            let stream = StreamingTrace::open(&file.0).unwrap();
            let workloads: Vec<Option<Box<dyn WorkloadGen>>> =
                vec![Some(Box::new(stream)), Some(Box::new(mix.build_core(1)))];
            run_with_workloads(workloads, policy, DrishtiConfig::baseline(2), &rc).per_core
        })
        .collect();
    for workers in [1, 4] {
        let mut cache = TraceCache::new();
        cache.add_file(mix.benchmarks[0], mix.seeds[0], &file.0);
        let cache = Arc::new(cache);
        let out = run_sweep(&jobs, workers, &cache);
        for ((job, got), want) in jobs.iter().zip(&out.outputs).zip(&single) {
            let got = &got.as_ref().unwrap().unwrap_run().per_core;
            assert_eq!(got, want, "{} at {workers} workers", job.label);
        }
        let cells = jobs.len() as u64;
        assert_eq!(
            cache.stats(),
            (cells, cells),
            "one file and one generator per cell"
        );
    }
}

/// `DEFAULT_FRAME_LEN` traces (the writer default) still round-trip — the
/// single-frame fast path the other tests bypass with tiny frames.
#[test]
fn default_frame_len_round_trips() {
    let file = TempTrace::new("default-frame");
    let records = sample_records(DEFAULT_FRAME_LEN as usize + 100);
    write_trace(&file.0, "mcf", 3, &records).unwrap();
    let (meta, back) = read_trace(&file.0).unwrap();
    assert_eq!(meta.frame_len, DEFAULT_FRAME_LEN);
    assert_eq!(back, records);
}

/// `write_trace` returns the record count, and the frame codec actually
/// compresses: a 5,000-record mcf trace encodes to between 1 and 24 bytes
/// per record on disk (24 is the in-memory `TraceRecord` size).
#[test]
fn write_trace_counts_records_and_encodes_densely() {
    let file = TempTrace::new("density");
    let records = sample_records(5_000);
    let written = write_trace(&file.0, "mcf", 3, &records).unwrap();
    assert_eq!(written, records.len() as u64);
    let bytes = std::fs::metadata(&file.0).unwrap().len();
    let per_record = bytes as f64 / written as f64;
    assert!(
        per_record > 1.0 && per_record < 24.0,
        "{per_record} B/record is not an encoded size"
    );
}
