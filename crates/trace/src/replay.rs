//! Trace materialisation and sharing.
//!
//! The sweep harness runs the same (benchmark, seed) workload under many
//! policies and organisations. Generating the synthetic stream is cheap
//! but not free — and, more importantly, regenerating it per cell makes
//! every cell pay the cost again. [`TraceCache`] materialises each
//! workload's record stream exactly once, as an [`EncodedTrace`] behind
//! an [`Arc`], and [`ReplayWorkload`] replays the shared trace as a
//! normal [`WorkloadGen`], decoding one record per call.
//!
//! Replay is bit-exact: [`crate::synthetic::SyntheticWorkload`] is a
//! deterministic function of `(benchmark, seed)`, so a replayed run equals
//! a freshly generated one record for record (see the workspace-level
//! `tests/sweep.rs` proof).
//!
//! # Encoded traces
//!
//! A cached trace stays in the `drishti-trace/v1` record encoding
//! ([`store`](crate::store)): `varint(instr_gap << 1 | is_store)`,
//! zig-zag Δpc, zig-zag Δline, 4–6 bytes per record against the 24 of a
//! decoded [`TraceRecord`]. The whole trace is one delta chain with no
//! frames or checksums, since these bytes never leave the process. A
//! replay's state is a byte offset plus the previous pc and line; at the
//! end of the chain it wraps to offset 0 with zeroed deltas. The cache
//! keeps no decoded copy of a trace and builds none on the way in:
//! generation, [`TraceCache::insert`] and spill reloads all stream
//! records straight into the encoder.
//!
//! # Two tiers
//!
//! The cache has an in-RAM tier and an optional on-disk tier. The RAM
//! tier holds strong `Arc`s up to a configurable budget of encoded bytes
//! ([`TraceCache::with_budget`]); beyond it, the least-recently-used
//! trace is evicted — spilled to a [`store`](crate::store) file first when
//! a spill directory is configured ([`TraceCache::with_spill`]), so the
//! next request re-reads it instead of regenerating. Entries also keep a
//! [`Weak`] handle, so a trace still alive in running cells is re-shared
//! without touching disk. Every tier transition is lossless (the codec
//! round-trips bit-exactly), so **results are byte-identical at any
//! budget** — the budget only moves where the bytes live. The pointer
//! -equality contract survives capping: concurrent
//! [`encoded`](TraceCache::encoded) calls for the same key always resolve
//! to one `Arc` while any copy of it is alive.

use crate::presets::Benchmark;
use crate::store::codec::DeltaChain;
use crate::store::{StoreError, StreamingTrace, TraceWriter};
use crate::{TraceRecord, WorkloadGen};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Why decoding a cached trace cannot fail: its bytes were written by
/// [`DeltaChain::encode`] in this process and never change.
const IN_PROCESS: &str = "an encoded trace decodes: its bytes come from this process's encoder";

/// One trace in the `drishti-trace/v1` record encoding, as a single
/// delta chain from its first record to its last (see the module docs).
#[derive(Debug)]
pub struct EncodedTrace {
    bytes: Box<[u8]>,
    len: u64,
}

impl EncodedTrace {
    /// Encodes `records` in order.
    pub(crate) fn encode(records: impl IntoIterator<Item = TraceRecord>) -> Self {
        let mut bytes = Vec::new();
        let mut chain = DeltaChain::default();
        let mut len = 0;
        for r in records {
            chain.encode(&r, &mut bytes);
            len += 1;
        }
        EncodedTrace {
            bytes: bytes.into_boxed_slice(),
            len,
        }
    }

    /// Number of records.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether the trace holds no records.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoding in bytes: what the cache's budget counts.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The records, decoded in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let mut pos = 0;
        let mut chain = DeltaChain::default();
        (0..self.len).map(move |_| chain.decode(&self.bytes, &mut pos).expect(IN_PROCESS))
    }
}

/// A [`WorkloadGen`] that replays a shared [`EncodedTrace`], decoding one
/// record per call.
///
/// Engines pull exactly as many records as their configured access count;
/// should a caller pull past the end anyway, the stream wraps around (the
/// `WorkloadGen` contract is an infinite generator).
pub struct ReplayWorkload {
    name: String,
    records: Arc<EncodedTrace>,
    /// Byte offset of the next record.
    pos: usize,
    /// Delta state before the next record.
    chain: DeltaChain,
}

impl ReplayWorkload {
    /// Replay `records` under the benchmark-style name `name`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty — an empty stream cannot satisfy the
    /// infinite-generator contract.
    pub fn new(name: impl Into<String>, records: Arc<EncodedTrace>) -> Self {
        assert!(!records.is_empty(), "cannot replay an empty trace");
        ReplayWorkload {
            name: name.into(),
            records,
            pos: 0,
            chain: DeltaChain::default(),
        }
    }

    /// The shared encoded trace (for pointer-equality checks in tests).
    pub fn records(&self) -> &Arc<EncodedTrace> {
        &self.records
    }
}

impl std::fmt::Debug for ReplayWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayWorkload")
            .field("name", &self.name)
            .field("len", &self.records.len())
            .field("pos", &self.pos)
            .finish()
    }
}

impl WorkloadGen for ReplayWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_record(&mut self) -> TraceRecord {
        if self.pos == self.records.bytes.len() {
            self.pos = 0;
            self.chain = DeltaChain::default();
        }
        self.chain
            .decode(&self.records.bytes, &mut self.pos)
            .expect(IN_PROCESS)
    }

    /// The stream repeats every `len` records, so only `n % len` of them
    /// are decoded.
    fn skip_records(&mut self, n: u64) {
        for _ in 0..n % self.records.len() {
            self.next_record();
        }
    }
}

/// Cache key: `(benchmark, seed, length)` pins a workload trace exactly.
type TraceKey = (Benchmark, u64, u64);

/// One cached trace across its tier lifecycle.
#[derive(Debug)]
struct Entry {
    /// RAM tier: present while the entry is under budget.
    strong: Option<Arc<EncodedTrace>>,
    /// Outstanding-Arc tier: lets racing cells re-share an evicted trace
    /// that some cell still replays, preserving pointer equality.
    weak: Weak<EncodedTrace>,
    /// Encoded size, counted against the budget while `strong` is held.
    bytes: usize,
    /// LRU stamp (cache-wide monotonic tick of the last `get`).
    last_use: u64,
    /// Disk tier: spill file location, once written.
    spill: Option<PathBuf>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<TraceKey, Entry>,
    /// Bytes held by strong entries (the RAM tier).
    resident: usize,
    /// Monotonic use counter driving LRU.
    tick: u64,
}

/// A concurrent, seed-keyed, two-tier cache of encoded workload traces.
///
/// Keys are `(benchmark, seed, length)`; values are `Arc<EncodedTrace>`s
/// shared by every cell that replays the same workload. Generation happens
/// outside the map lock so concurrent misses on *different* keys never
/// serialise; two racing misses on the *same* key both generate, but the
/// first insertion wins and both callers receive the same `Arc` (pointer
/// equality is part of the contract — it is what makes the cache a cache).
///
/// The byte budget is a soft cap on the RAM tier's encoded bytes: the
/// trace being requested is never evicted on its own behalf, so a single
/// trace larger than the whole budget still works (resident peaks at
/// budget + one trace). Spill-file I/O failures degrade gracefully — the
/// entry is evicted without a disk copy and the next miss regenerates it.
#[derive(Debug)]
pub struct TraceCache {
    inner: Mutex<Inner>,
    /// RAM-tier byte budget (`usize::MAX` = unbounded).
    budget: usize,
    /// Where evicted traces spill; `None` disables the disk tier.
    spill_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    spills: AtomicU64,
    disk_loads: AtomicU64,
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::new()
    }
}

/// Writes `trace` to `path` as a `drishti-trace/v1` file, streaming its
/// records through the writer one at a time.
fn spill_trace(
    path: &Path,
    name: &str,
    seed: u64,
    trace: &EncodedTrace,
) -> Result<u64, StoreError> {
    let mut w = TraceWriter::create(path, name, seed)?;
    for r in trace.iter() {
        w.push(r)?;
    }
    w.finish()
}

/// Re-encodes the spill file at `path`, or `None` when it fails
/// [`StreamingTrace::open`]'s validation or does not hold `len` records
/// (the caller then regenerates). A file that changes after that
/// validation panics mid-read, as any `StreamingTrace` does.
fn reload_trace(path: &Path, len: u64) -> Option<EncodedTrace> {
    let mut stream = StreamingTrace::open(path).ok()?;
    (stream.meta().records == len)
        .then(|| EncodedTrace::encode((0..len).map(|_| stream.next_record())))
}

impl TraceCache {
    /// An empty, unbounded cache (RAM tier only — the behaviour every
    /// existing call site expects).
    pub fn new() -> Self {
        TraceCache::with_budget(usize::MAX)
    }

    /// An empty cache whose RAM tier is capped at `budget_bytes` of
    /// encoded trace data, evicting LRU entries past it (no disk tier:
    /// evicted traces are regenerated on the next miss).
    pub fn with_budget(budget_bytes: usize) -> Self {
        TraceCache {
            inner: Mutex::new(Inner::default()),
            budget: budget_bytes,
            spill_dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
        }
    }

    /// A capped cache that spills evicted traces to `drishti-trace/v1`
    /// files under `dir` (created if missing) and reloads them from disk
    /// instead of regenerating.
    pub fn with_spill(budget_bytes: usize, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut cache = TraceCache::with_budget(budget_bytes);
        cache.spill_dir = Some(dir);
        Ok(cache)
    }

    fn spill_path(&self, key: &TraceKey) -> Option<PathBuf> {
        let (bench, seed, len) = key;
        self.spill_dir
            .as_ref()
            .map(|d| d.join(format!("{}-{seed}-{len}.drtr", bench.label())))
    }

    /// Evicts LRU strong entries until the RAM tier fits the budget,
    /// never evicting `keep` (the trace being served). Spills to disk
    /// when configured; a spill write failure just forfeits the disk copy.
    fn enforce_budget(&self, inner: &mut Inner, keep: &TraceKey) {
        while inner.resident > self.budget {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, e)| e.strong.is_some() && *k != keep)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(vkey) = victim else { break };
            let path = self.spill_path(&vkey);
            let entry = inner.entries.get_mut(&vkey).expect("victim exists");
            let trace = entry.strong.take().expect("victim is strong");
            inner.resident -= entry.bytes;
            if entry.spill.is_none() {
                if let Some(path) = path {
                    let (bench, seed, _) = vkey;
                    if spill_trace(&path, bench.label(), seed, &trace).is_ok() {
                        entry.spill = Some(path);
                        self.spills.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// The live copy of `key`, if any: its RAM-tier `Arc`, or an evicted
    /// one that some cell still replays, which is re-admitted.
    fn live(&self, inner: &mut Inner, key: &TraceKey) -> Option<Arc<EncodedTrace>> {
        let entry = inner.entries.get_mut(key)?;
        if let Some(strong) = &entry.strong {
            return Some(Arc::clone(strong));
        }
        let alive = entry.weak.upgrade()?;
        entry.strong = Some(Arc::clone(&alive));
        inner.resident += entry.bytes;
        self.enforce_budget(inner, key);
        Some(alive)
    }

    /// Promotes `trace` to the RAM tier for `key` and trims to budget.
    fn admit(&self, inner: &mut Inner, key: TraceKey, trace: &Arc<EncodedTrace>) {
        inner.tick += 1;
        let tick = inner.tick;
        let bytes = trace.encoded_bytes();
        let entry = inner.entries.entry(key).or_insert_with(|| Entry {
            strong: None,
            weak: Weak::new(),
            bytes,
            last_use: tick,
            spill: None,
        });
        entry.last_use = tick;
        if entry.strong.is_none() {
            entry.strong = Some(Arc::clone(trace));
            entry.weak = Arc::downgrade(trace);
            inner.resident += entry.bytes;
        }
        self.enforce_budget(inner, &key);
    }

    /// The shared encoded trace of `bench` at `seed`, `len` records long.
    /// Generated on first request, shared thereafter; possibly reloaded
    /// from the disk tier if it was spilled in between.
    pub fn encoded(&self, bench: Benchmark, seed: u64, len: u64) -> Arc<EncodedTrace> {
        let key = (bench, seed, len);
        // Fast path under the lock: RAM tier, or an outstanding Arc.
        let spill = {
            let mut inner = self.inner.lock().expect("trace cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key) {
                entry.last_use = tick;
            }
            if let Some(trace) = self.live(&mut inner, &key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return trace;
            }
            inner.entries.get(&key).and_then(|e| e.spill.clone())
        };
        // Slow path without the lock: disk tier, else generate.
        let reloaded = spill.and_then(|path| reload_trace(&path, len));
        if reloaded.is_some() {
            self.disk_loads.fetch_add(1, Ordering::Relaxed);
        }
        let trace = reloaded.unwrap_or_else(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut g = bench.build(seed);
            EncodedTrace::encode((0..len).map(|_| g.next_record()))
        });
        self.share(key, Arc::new(trace))
    }

    /// Admits `trace` under `key` unless a racer got there first, in
    /// which case every caller shares the racer's `Arc`.
    fn share(&self, key: TraceKey, trace: Arc<EncodedTrace>) -> Arc<EncodedTrace> {
        let mut inner = self.inner.lock().expect("trace cache poisoned");
        if let Some(live) = self.live(&mut inner, &key) {
            return live;
        }
        self.admit(&mut inner, key, &trace);
        trace
    }

    /// A decoded copy of the trace of `bench` at `seed`, `len` records
    /// long (see [`encoded`](TraceCache::encoded)).
    pub fn get(&self, bench: Benchmark, seed: u64, len: u64) -> Vec<TraceRecord> {
        self.encoded(bench, seed, len).iter().collect()
    }

    /// Preloads a trace (e.g. read from a `--trace-file`) so later
    /// requests for its key share it without generating. The records are
    /// encoded as they arrive. First insertion wins: if the key is
    /// already live, the existing `Arc` is returned instead.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn insert(
        &self,
        bench: Benchmark,
        seed: u64,
        records: impl IntoIterator<Item = TraceRecord>,
    ) -> Arc<EncodedTrace> {
        let trace = EncodedTrace::encode(records);
        assert!(!trace.is_empty(), "cannot cache an empty trace");
        self.share((bench, seed, trace.len()), Arc::new(trace))
    }

    /// A replaying [`WorkloadGen`] for `bench` at `seed`, backed by the
    /// shared trace.
    pub fn replay(&self, bench: Benchmark, seed: u64, len: u64) -> ReplayWorkload {
        ReplayWorkload::new(bench.label(), self.encoded(bench, seed, len))
    }

    /// One replaying workload per core of `mix`, each `len` records long.
    pub fn workloads_for(&self, mix: &crate::mix::Mix, len: u64) -> Vec<ReplayWorkload> {
        mix.benchmarks
            .iter()
            .zip(&mix.seeds)
            .map(|(&b, &s)| self.replay(b, s, len))
            .collect()
    }

    /// `(hits, misses)` so far. A sweep of `C` cells over `M` distinct
    /// workloads should report `C·cores − M` hits (when nothing is
    /// evicted; disk reloads count as neither).
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// `(spills, disk_loads)`: traces written to and re-read from the
    /// disk tier.
    pub fn tier_stats(&self) -> (u64, u64) {
        (
            self.spills.load(Ordering::Relaxed),
            self.disk_loads.load(Ordering::Relaxed),
        )
    }

    /// Encoded bytes currently held by the RAM tier. At most `budget` +
    /// the size of the largest single trace (the soft-cap guarantee).
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("trace cache poisoned").resident
    }
}

impl Drop for TraceCache {
    fn drop(&mut self) {
        // Spill files are scratch state owned by this cache instance;
        // best-effort cleanup, never fail a drop.
        if let Ok(inner) = self.inner.get_mut() {
            for entry in inner.entries.values() {
                if let Some(path) = &entry.spill {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encoded size of the `len`-record trace of `bench` at seed 1.
    fn encoded_size(bench: Benchmark, len: u64) -> usize {
        TraceCache::new().encoded(bench, 1, len).encoded_bytes()
    }

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
    fn cache_shares_one_arc_per_key() {
        let cache = TraceCache::new();
        let a = cache.encoded(Benchmark::Gcc, 3, 100);
        let b = cache.encoded(Benchmark::Gcc, 3, 100);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.encoded(Benchmark::Gcc, 4, 100);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats(), (1, 2));
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
    fn workloads_for_mix_cover_every_core() {
        let cache = TraceCache::new();
        let mix = crate::mix::Mix::homogeneous(Benchmark::Xalan, 4, 9);
        let ws = cache.workloads_for(&mix, 50);
        assert_eq!(ws.len(), 4);
        // Distinct seeds → distinct traces; same call again → shared Arcs.
        let again = cache.workloads_for(&mix, 50);
        for (w, a) in ws.iter().zip(&again) {
            assert!(Arc::ptr_eq(w.records(), a.records()));
        }
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_rejected() {
        let _ = ReplayWorkload::new("x", Arc::new(EncodedTrace::encode([])));
    }

    #[test]
    fn budget_evicts_lru_and_regenerates_identically() {
        let (mcf, gcc, lbm) = (
            encoded_size(Benchmark::Mcf, 100),
            encoded_size(Benchmark::Gcc, 100),
            encoded_size(Benchmark::Lbm, 100),
        );
        // Room for any two of the three traces, not all three.
        let budget = (mcf + gcc).max(gcc + lbm);
        let cache = TraceCache::with_budget(budget);
        let a = cache.encoded(Benchmark::Mcf, 1, 100);
        let a_snapshot: Vec<_> = a.iter().collect();
        let _b = cache.encoded(Benchmark::Gcc, 1, 100);
        drop(a); // no outstanding Arc → eviction really frees it
        let _c = cache.encoded(Benchmark::Lbm, 1, 100);
        assert!(cache.resident_bytes() <= budget);
        // Mcf (LRU) was evicted; regeneration is bit-identical.
        assert_eq!(cache.get(Benchmark::Mcf, 1, 100), a_snapshot);
        assert_eq!(cache.stats().1, 4, "mcf regenerated after eviction");
    }

    #[test]
    fn outstanding_arc_survives_eviction_pointer_equal() {
        let cache = TraceCache::with_budget(encoded_size(Benchmark::Mcf, 100));
        let a = cache.encoded(Benchmark::Mcf, 1, 100);
        let _b = cache.encoded(Benchmark::Gcc, 1, 100); // evicts mcf from RAM tier
                                                        // The held Arc keeps the trace alive: a re-request re-shares it.
        let a2 = cache.encoded(Benchmark::Mcf, 1, 100);
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.stats().1, 2, "no regeneration while an Arc lives");
    }

    #[test]
    fn spill_tier_round_trips() {
        let dir = std::env::temp_dir().join(format!("drishti-spill-test-{}", std::process::id()));
        let budget = encoded_size(Benchmark::Mcf, 100);
        let cache = TraceCache::with_spill(budget, &dir).unwrap();
        let a_snapshot = cache.get(Benchmark::Mcf, 1, 100);
        drop(cache.encoded(Benchmark::Gcc, 1, 100)); // spills mcf…
        drop(cache.encoded(Benchmark::Mcf, 1, 100)); // …gcc spills, mcf reloads
        let a2 = cache.get(Benchmark::Mcf, 1, 100);
        assert_eq!(a2, a_snapshot, "disk round-trip is bit-identical");
        let (spills, disk_loads) = cache.tier_stats();
        assert!(spills >= 1, "eviction spilled to {}", dir.display());
        assert!(disk_loads >= 1, "reload came from the disk tier");
        assert_eq!(cache.stats().1, 2, "the reload regenerated nothing");
        drop(cache);
        let _ = std::fs::remove_dir(&dir); // cache Drop removed the files
    }

    #[test]
    fn insert_preloads_and_first_insert_wins() {
        let cache = TraceCache::new();
        let records: Vec<_> = Benchmark::Mcf.build(5).collect(50);
        let a = cache.insert(Benchmark::Mcf, 5, records.clone());
        // A request for the same key shares the preloaded copy, no generation.
        let b = cache.encoded(Benchmark::Mcf, 5, 50);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().1, 0, "preload avoided generation");
        assert_eq!(cache.get(Benchmark::Mcf, 5, 50), records);
        // A second insert yields the existing Arc, not the new one.
        let c = cache.insert(Benchmark::Mcf, 5, records);
        assert!(Arc::ptr_eq(&a, &c));
    }
}
