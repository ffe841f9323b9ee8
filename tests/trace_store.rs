//! Integration tests for the `drishti-trace/v1` on-disk store: codec
//! round-trips (property-based), typed corruption reporting, streaming
//! replay bit-identity with bounded memory, and the two-tier trace
//! cache's pointer-equality contract under concurrency (see DESIGN.md
//! §12).

use drishti_sim::runner::{run_mix, run_mix_cached, RunConfig};
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::store::{
    read_trace, write_trace, StoreError, StreamingTrace, TraceWriter, DEFAULT_FRAME_LEN,
};
use drishti_trace::{TraceRecord, WorkloadGen};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

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
/// `skip_records`: after skipping `n`, the stream yields exactly what a
/// fresh reader yields after `n` `next_record` calls — including skips
/// that land mid-frame, on a frame boundary, and past the wrap point.
#[test]
fn skip_records_repositions_bit_exactly() {
    let file = TempTrace::new("skip");
    let records = Benchmark::Gcc.build(13).collect(1_000);
    let mut w = TraceWriter::with_frame_len(&file.0, "gcc", 13, 256).unwrap();
    for &r in &records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    // Mid-frame, exact frame boundary, last record, and wrapped skips.
    for skip in [0u64, 7, 256, 300, 999, 1_000, 1_003, 2_511] {
        let mut skipped = StreamingTrace::open(&file.0).unwrap();
        skipped.skip_records(skip);
        let mut stepped = StreamingTrace::open(&file.0).unwrap();
        for _ in 0..skip {
            stepped.next_record();
        }
        for i in 0..600 {
            assert_eq!(
                skipped.next_record(),
                stepped.next_record(),
                "skip {skip}, record {i}"
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

/// Satellite regression test: a byte-capped cache still upholds the
/// pointer-equality contract for concurrently racing cells. Every thread
/// acquires the contended key, churns the cache past its budget with
/// other keys (forcing evictions), and re-acquires — all copies must be
/// one `Arc` because at least one racer holds it alive throughout.
#[test]
fn capped_cache_shares_one_arc_across_racing_threads() {
    let rec = std::mem::size_of::<TraceRecord>();
    // Budget: one 200-record trace; the churn keys guarantee evictions.
    let cache = Arc::new(TraceCache::with_budget(200 * rec));
    let threads = 8;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let first = cache.get(Benchmark::Mcf, 1, 200);
                // Churn: distinct keys large enough to evict everything
                // not pinned by an outstanding Arc.
                for seed in 0..4 {
                    let _ = cache.get(Benchmark::Gcc, seed + t as u64 * 10, 200);
                }
                let again = cache.get(Benchmark::Mcf, 1, 200);
                assert!(
                    Arc::ptr_eq(&first, &again),
                    "thread {t} saw the shared trace replaced mid-flight"
                );
                barrier.wait(); // all threads still hold `first` here
                first
            })
        })
        .collect();
    let arcs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (t, a) in arcs.iter().enumerate() {
        assert!(
            Arc::ptr_eq(&arcs[0], a),
            "thread {t} got a different Arc for the same key"
        );
    }
    assert!(
        cache.resident_bytes() <= 2 * 200 * rec,
        "budget is a soft cap: at most budget + one trace resident"
    );
}

/// Determinism across tiers: a run whose traces were evicted and spilled
/// to disk produces results identical to an uncapped in-RAM run — the
/// budget only moves where the bytes live.
#[test]
fn capped_spilling_cache_preserves_run_results() {
    let mix = Mix::heterogeneous(&[Benchmark::Mcf, Benchmark::Gcc, Benchmark::Lbm], 2, 7);
    let rc = RunConfig {
        accesses_per_core: 2_500,
        warmup_accesses: 500,
        ..RunConfig::quick(2)
    };
    let reference = run_mix(
        &mix,
        drishti_policies::factory::PolicyKind::Lru,
        drishti_core::config::DrishtiConfig::baseline(2),
        &rc,
    );
    let rec = std::mem::size_of::<TraceRecord>();
    let dir = std::env::temp_dir().join(format!("drishti-store-test-{}-spill", std::process::id()));
    // Budget below one core's trace (3000 records) forces spill traffic.
    let cache = TraceCache::with_spill(2_000 * rec, &dir).unwrap();
    for round in 0..3 {
        let r = run_mix_cached(
            &mix,
            drishti_policies::factory::PolicyKind::Lru,
            drishti_core::config::DrishtiConfig::baseline(2),
            &rc,
            &cache,
        );
        assert_eq!(
            r.per_core, reference.per_core,
            "round {round} diverged from the generated run"
        );
    }
    drop(cache);
    let _ = std::fs::remove_dir(&dir);
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
