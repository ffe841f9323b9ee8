//! The traced run: one more pass over a workload with spans around every
//! call into a layer, and the per-layer profile derived from it.
//!
//! The profile is taken from the outside, through public functions only.
//! Each cell runs once with its LLC-level stream captured; the stream is
//! then replayed, cold, into fresh instances of each layer (the sliced
//! LLC under the cell's policy and under LRU, the mesh, the predictor
//! fabric, DRAM), and each core's trace through fresh private caches and
//! prefetchers, timing every call. A layer's share of an engine step is
//! its replayed cost per call times the calls the engine made (from the
//! engine's own counters), over the engine's measured time; the residual
//! is what no replay accounts for — the scheduler and core model.
//! Replays start cold and the private-cache walk has no MSHR budget, so
//! they approximate the in-engine cost; the residual absorbs the
//! difference.

use crate::catalog::{Metric, PER_LAYER};
use crate::check::{pinned, Checker};
use crate::measure::RunOpts;
use crate::trace::{Span, Tracer};
use crate::workloads::{
    fig13_trial, fingerprint, panic_message, sweep_jobs, Cell, Trial, Workload, OUT_DIR,
};
use drishti_mem::access::{Access, AccessKind};
use drishti_mem::cache::PrivateCache;
use drishti_mem::dram::Dram;
use drishti_mem::llc::SlicedLlc;
use drishti_mem::LineAddr;
use drishti_noc::mesh::{ADDRESS_PACKET_FLITS, DATA_PACKET_FLITS};
use drishti_noc::topology::ChipTopology;
use drishti_policies::factory::PolicyKind;
use drishti_sim::ckpt::{restore_engine_bytes, save_engine_bytes};
use drishti_sim::runner::{alone_ipcs_cached, run_mix_cached};
use drishti_sim::sweep::report::SweepReport;
use drishti_sim::sweep::{run_sweep_resumable, JobKind, JobOutput};
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::store::write_trace;
use drishti_trace::{TraceRecord, WorkloadGen};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Save and restore repetitions of the checkpoint probe.
const CKPT_REPS: usize = 3;

/// What the traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric, in catalogue order.
    pub layers: Vec<(Metric, f64)>,
    /// Ops attempted and failures.
    pub check: Checker,
    /// Seconds inside `Engine::run` during the traced trial (the sweep's
    /// wall time for the sweep workload).
    pub engine_run_s: f64,
    /// The recorded spans.
    pub spans: Vec<Span>,
}

/// Host time and counts accumulated over a workload's replays and engine
/// runs. `*_ns` fields are nanoseconds.
#[derive(Debug, Default)]
struct Totals {
    // drishti_trace
    gen_ns: f64,
    gen_records: u64,
    replay_ns: f64,
    replay_records: u64,
    store_bytes: u64,
    store_records: u64,
    cache_hits: u64,
    cache_misses: u64,
    // private caches, per distinct trace
    records: u64,
    l1_ns: f64,
    l1_calls: u64,
    l1_misses: u64,
    l2_ns: f64,
    l2_calls: u64,
    l2_demand: u64,
    l2_misses: u64,
    pf_ns: f64,
    pf_trains: u64,
    pf_requests: u64,
    // engine runs and their counters
    steps: u64,
    run_ns: f64,
    new_ms: Vec<f64>,
    llc_accesses: u64,
    llc_misses: u64,
    llc_bypasses: u64,
    llc_dirty_evictions: u64,
    noc_msgs: u64,
    noc_contention: u64,
    interchip_msgs: u64,
    dram_reads: u64,
    dram_writes: u64,
    dram_row_hits: u64,
    dram_read_latency: u64,
    fabric_ops: u64,
    fabric_fallbacks: u64,
    // replays of captured LLC streams
    lookups: u64,
    lookup_ns: f64,
    fills: u64,
    fill_ns: f64,
    policy_extra_ns: f64,
    policy_accesses: u64,
    fabric_replay_ns: f64,
    fabric_replay_ops: u64,
    traverses: u64,
    noc_ns: f64,
    dram_replay_ops: u64,
    dram_ns: f64,
    // estimated engine time per layer (ns), summed over cells
    est_trace: f64,
    est_l1l2: f64,
    est_prefetch: f64,
    est_llc: f64,
    est_policy: f64,
    est_fabric: f64,
    est_noc: f64,
    est_dram: f64,
    // checkpoint and sweep probes
    ckpt_save_ms: f64,
    ckpt_restore_ms: f64,
    ckpt_bytes: u64,
    warm_ckpt_misses: u64,
    pool_overhead_share: f64,
    report_emit_ms: f64,
}

/// Private-cache and prefetcher replay of one core's trace.
#[derive(Debug, Clone, Copy, Default)]
struct PrivateReplay {
    l1_ns: f64,
    l1_calls: u64,
    l1_misses: u64,
    l2_ns: f64,
    l2_calls: u64,
    l2_demand: u64,
    l2_misses: u64,
    pf_ns: f64,
    pf_trains: u64,
    pf_requests: u64,
}

/// Run `workload` once more with tracing on and derive every per-layer
/// metric.
pub fn traced_run(workload: Workload, o: &RunOpts) -> Traced {
    let mut tracer = Tracer::default();
    let mut check = Checker::default();
    let mut tot = Totals::default();
    let cells = workload.cells(o.seed, o.quick);
    let cache = Arc::new(TraceCache::new());
    let timer_ns = timer_overhead_ns();

    // drishti_trace: the trial's trace requests, in trial order, against a
    // fresh cache (the sweep harness's own cache sees the same sequence),
    // then generation, replay and the on-disk codec per distinct trace.
    let t = Instant::now();
    for cell in &cells {
        for c in cell.active() {
            let _ = cache.replay(cell.mix.benchmarks[c], cell.mix.seeds[c], cell.trace_len());
        }
    }
    tracer.close("trace.generate", t);
    (tot.cache_hits, tot.cache_misses) = cache.stats();
    let traces = distinct_traces(&cells);
    trace_layer(&traces, &cache, &mut tracer, &mut tot);
    let private = private_layer(&traces, &cells, &cache, &mut tracer, &mut tot);

    // The traced trial, profiling every cell as it runs.
    let trial_start = Instant::now();
    let (trial, profile_ops, engine_run_s) = if workload == Workload::Fig13 {
        let trial = tracer.span("sweep.run", || fig13_trial(&cells, o.seed, o.quick));
        let ops = profile_cells(&cells, &cache, &private, timer_ns, &mut tracer, &mut tot);
        let sweep_s = trial.units.iter().map(|u| u.run_s).sum();
        (trial, ops, sweep_s)
    } else {
        let ops = profile_cells(&cells, &cache, &private, timer_ns, &mut tracer, &mut tot);
        let trial = Trial {
            ops: ops.clone(),
            units: Vec::new(),
        };
        (trial, ops, tot.run_ns / 1e9)
    };
    tracer.close("trial", trial_start);
    let pins = o.pinned().then(|| pinned(workload));
    check.reference(&trial, pins.as_deref());

    // drishti_sim::ckpt: save and restore a warmed engine, then finish the
    // restored one; it must end exactly where the uninterrupted run did.
    let probe = cells.last().expect("every workload has cells");
    let want = profile_ops
        .iter()
        .find(|(l, _)| *l == probe.label)
        .and_then(|(_, fp)| fp.as_ref().ok().copied());
    check.op(ckpt_probe(probe, &cache, want, &mut tracer, &mut tot));

    // drishti_sim::sweep: the same jobs serially and through the pool.
    for outcome in sweep_probe(workload, &cells, &cache, &mut tracer, &mut tot) {
        check.op(outcome);
    }

    let layers = metrics(&tot);
    let residual = layers
        .iter()
        .find(|(m, _)| m.name == "share.residual")
        .map_or(0.0, |(_, v)| *v);
    if residual < 0.0 {
        eprintln!(
            "warning: {}: share.residual is {residual:.3}: the replays account for more \
             than the engine's measured time",
            workload.name()
        );
    }
    Traced {
        layers,
        check,
        engine_run_s,
        spans: tracer.spans,
    }
}

/// Cost of one `Instant::now()`, subtracted from every per-call interval.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 100_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..N {
        last = black_box(Instant::now());
    }
    last.duration_since(start).as_nanos() as f64 / f64::from(N)
}

fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// `(benchmark, seed, length)` of every trace the cells replay, once each.
fn distinct_traces(cells: &[Cell]) -> Vec<(Benchmark, u64, u64)> {
    let mut out: Vec<(Benchmark, u64, u64)> = Vec::new();
    for cell in cells {
        for c in cell.active() {
            let key = (cell.mix.benchmarks[c], cell.mix.seeds[c], cell.trace_len());
            if !out.contains(&key) {
                out.push(key);
            }
        }
    }
    out
}

fn trace_layer(
    traces: &[(Benchmark, u64, u64)],
    cache: &TraceCache,
    tracer: &mut Tracer,
    tot: &mut Totals,
) {
    let t = Instant::now();
    for &(bench, seed, len) in traces {
        let mut g = bench.build(seed);
        for _ in 0..len {
            black_box(g.next_record());
        }
        tot.gen_records += len;
    }
    tot.gen_ns = ns(t);
    tracer.close("trace.gen", t);

    let t = Instant::now();
    for &(bench, seed, len) in traces {
        let mut r = cache.replay(bench, seed, len);
        for _ in 0..len {
            black_box(r.next_record());
        }
        tot.replay_records += len;
    }
    tot.replay_ns = ns(t);
    tracer.close("trace.replay", t);

    let (bench, seed, len) = traces[0];
    let path = PathBuf::from(OUT_DIR).join(format!("probe-{}.drtr", std::process::id()));
    let t = Instant::now();
    let _ = std::fs::create_dir_all(OUT_DIR);
    let written = write_trace(&path, bench.label(), seed, &cache.get(bench, seed, len));
    tracer.close("trace.store", t);
    if let (Ok(records), Ok(meta)) = (written, std::fs::metadata(&path)) {
        tot.store_bytes = meta.len();
        tot.store_records = records;
    }
    let _ = std::fs::remove_file(&path);
}

/// Replay each distinct trace through fresh private caches and
/// prefetchers (see [`replay_private`]).
fn private_layer(
    traces: &[(Benchmark, u64, u64)],
    cells: &[Cell],
    cache: &TraceCache,
    tracer: &mut Tracer,
    tot: &mut Totals,
) -> HashMap<(Benchmark, u64), PrivateReplay> {
    let system = &cells[0].system;
    let mut out = HashMap::new();
    for &(bench, seed, len) in traces {
        let records = cache.get(bench, seed, len);
        let rep = replay_private(system, &records, tracer);
        tot.records += len;
        tot.l1_ns += rep.l1_ns;
        tot.l1_calls += rep.l1_calls;
        tot.l1_misses += rep.l1_misses;
        tot.l2_ns += rep.l2_ns;
        tot.l2_calls += rep.l2_calls;
        tot.l2_demand += rep.l2_demand;
        tot.l2_misses += rep.l2_misses;
        tot.pf_ns += rep.pf_ns;
        tot.pf_trains += rep.pf_trains;
        tot.pf_requests += rep.pf_requests;
        out.insert((bench, seed), rep);
    }
    out
}

/// One call into a private cache.
#[derive(Debug, Clone, Copy)]
enum CacheCall {
    Access(LineAddr, bool),
    Fill(LineAddr, bool),
    Peek(LineAddr),
}

fn call(cache: &mut PrivateCache, op: CacheCall) {
    match op {
        CacheCall::Access(line, dirty) => {
            black_box(cache.access(line, dirty));
        }
        CacheCall::Fill(line, dirty) => {
            black_box(cache.fill(line, dirty));
        }
        CacheCall::Peek(line) => {
            black_box(cache.peek(line));
        }
    }
}

/// Per-level call logs of one core's trace, in engine order.
#[derive(Debug, Default)]
struct CallLog {
    l1: Vec<CacheCall>,
    l2: Vec<CacheCall>,
    l1_pf: Vec<(u64, LineAddr, bool)>,
    l2_pf: Vec<(u64, LineAddr, bool)>,
    l1_misses: u64,
    l2_demand: u64,
    l2_misses: u64,
}

/// The engine's private-cache walk for `records`: L1 probe and L1
/// prefetcher training; on an L1 miss, L2 probe, L2 prefetcher training
/// and L2 fill, then L1 fill with a dirty L1 victim written into L2; then
/// the prefetches each level asked for. It departs from the engine only
/// where the engine needs time: no MSHR budget caps prefetches, and
/// prefetch usefulness feedback is not given.
fn walk_private(system: &drishti_sim::config::SystemConfig, records: &[TraceRecord]) -> CallLog {
    fn l1_call(log: &mut CallLog, c: &mut PrivateCache, op: CacheCall) -> bool {
        log.l1.push(op);
        apply(c, op)
    }
    fn l2_call(log: &mut CallLog, c: &mut PrivateCache, op: CacheCall) -> bool {
        log.l2.push(op);
        apply(c, op)
    }
    fn apply(c: &mut PrivateCache, op: CacheCall) -> bool {
        match op {
            CacheCall::Access(line, dirty) => c.access(line, dirty),
            CacheCall::Fill(line, dirty) => c.fill(line, dirty).is_some(),
            CacheCall::Peek(line) => c.peek(line),
        }
    }
    let mut log = CallLog::default();
    let mut l1 = PrivateCache::new(system.l1d);
    let mut l2 = PrivateCache::new(system.l2);
    let mut l1_pf = system.l1_prefetcher.build();
    let mut l2_pf = system.l2_prefetcher.build();
    let (mut l1_reqs, mut l2_reqs) = (Vec::new(), Vec::new());
    for r in records {
        let hit = l1_call(&mut log, &mut l1, CacheCall::Access(r.line, r.is_store));
        log.l1_pf.push((r.pc, r.line, hit));
        l1_reqs.clear();
        l1_pf.on_access(r.pc, r.line, hit, &mut l1_reqs);
        l2_reqs.clear();
        if !hit {
            log.l1_misses += 1;
            log.l2_demand += 1;
            let l2_hit = l2_call(&mut log, &mut l2, CacheCall::Access(r.line, false));
            log.l2_pf.push((r.pc, r.line, l2_hit));
            l2_pf.on_access(r.pc, r.line, l2_hit, &mut l2_reqs);
            if !l2_hit {
                log.l2_misses += 1;
                l2_call(&mut log, &mut l2, CacheCall::Fill(r.line, false));
            }
            log.l1.push(CacheCall::Fill(r.line, r.is_store));
            if let Some(victim) = l1.fill(r.line, r.is_store) {
                if !l2_call(&mut log, &mut l2, CacheCall::Access(victim.line, true)) {
                    l2_call(&mut log, &mut l2, CacheCall::Fill(victim.line, true));
                }
            }
        }
        for req in &l1_reqs {
            if l1_call(&mut log, &mut l1, CacheCall::Peek(req.line)) {
                continue;
            }
            if !l2_call(&mut log, &mut l2, CacheCall::Access(req.line, false)) {
                l2_call(&mut log, &mut l2, CacheCall::Fill(req.line, false));
            }
            l1_call(&mut log, &mut l1, CacheCall::Fill(req.line, false));
        }
        for req in &l2_reqs {
            if !l2_call(&mut log, &mut l2, CacheCall::Peek(req.line)) {
                l2_call(&mut log, &mut l2, CacheCall::Fill(req.line, false));
            }
        }
    }
    log
}

/// Time each layer's calls of [`walk_private`] against fresh instances:
/// the recorded calls reproduce the walk exactly, so each timed pass
/// makes only its own layer's calls.
fn replay_private(
    system: &drishti_sim::config::SystemConfig,
    records: &[TraceRecord],
    tracer: &mut Tracer,
) -> PrivateReplay {
    let log = walk_private(system, records);
    let mut rep = PrivateReplay {
        l1_calls: log.l1.len() as u64,
        l1_misses: log.l1_misses,
        l2_calls: log.l2.len() as u64,
        l2_demand: log.l2_demand,
        l2_misses: log.l2_misses,
        pf_trains: (log.l1_pf.len() + log.l2_pf.len()) as u64,
        ..PrivateReplay::default()
    };

    let mut l1 = PrivateCache::new(system.l1d);
    let t = Instant::now();
    for &op in &log.l1 {
        call(&mut l1, op);
    }
    rep.l1_ns = ns(t);
    tracer.close("cache.l1", t);

    let mut l2 = PrivateCache::new(system.l2);
    let t = Instant::now();
    for &op in &log.l2 {
        call(&mut l2, op);
    }
    rep.l2_ns = ns(t);
    tracer.close("cache.l2", t);

    let mut reqs = Vec::with_capacity(16);
    let t = Instant::now();
    for (log, kind) in [
        (&log.l1_pf, system.l1_prefetcher),
        (&log.l2_pf, system.l2_prefetcher),
    ] {
        let mut pf = kind.build();
        for &(pc, line, hit) in log {
            pf.on_access(pc, line, hit, &mut reqs);
            rep.pf_requests += reqs.len() as u64;
            reqs.clear();
        }
    }
    rep.pf_ns = ns(t);
    tracer.close("prefetch.train", t);
    rep
}

fn diag(diagnostics: &[(String, u64)], key: &str) -> u64 {
    diagnostics
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |(_, v)| *v)
}

/// Run every cell with its LLC stream captured and profile the layers on
/// it. Returns `(label, fingerprint)` per cell.
fn profile_cells(
    cells: &[Cell],
    cache: &TraceCache,
    private: &HashMap<(Benchmark, u64), PrivateReplay>,
    timer_ns: f64,
    tracer: &mut Tracer,
    tot: &mut Totals,
) -> Vec<(String, Result<u64, String>)> {
    cells
        .iter()
        .map(|cell| {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                profile_cell(cell, cache, private, timer_ns, tracer, tot)
            }))
            .unwrap_or_else(|p| Err(panic_message(p.as_ref())))
            .map_err(|e| format!("{}: {e}", cell.label));
            (cell.label.clone(), outcome)
        })
        .collect()
}

fn profile_cell(
    cell: &Cell,
    cache: &TraceCache,
    private: &HashMap<(Benchmark, u64), PrivateReplay>,
    timer_ns: f64,
    tracer: &mut Tracer,
    tot: &mut Totals,
) -> Result<u64, String> {
    let t = Instant::now();
    let mut engine = cell.engine(cache, true);
    tot.new_ms.push(tracer.close("engine.new", t) * 1e3);
    let t = Instant::now();
    let per_core = engine.run();
    let run_ns = ns(t);
    tracer.close("engine.run", t);
    let fp = fingerprint(&engine, &per_core);

    let steps = cell.steps() as f64;
    let llc = *engine.llc().stats();
    let dram = *engine.dram().stats();
    let noc = engine.mesh().stats();
    let diagnostics = engine.llc().policy().diagnostics();
    let fabric_ops =
        diag(&diagnostics, "predictor_train") + diag(&diagnostics, "predictor_predict");
    tot.steps += cell.steps();
    tot.run_ns += run_ns;
    tot.llc_accesses += llc.total_accesses();
    tot.llc_misses += llc.total_misses();
    tot.llc_bypasses += llc.bypasses;
    tot.llc_dirty_evictions += llc.dram_writebacks;
    tot.noc_msgs += noc.messages;
    tot.noc_contention += noc.contention_cycles;
    tot.interchip_msgs += engine.mesh().interchip_stats().messages;
    tot.dram_reads += dram.reads;
    tot.dram_writes += dram.writes;
    tot.dram_row_hits += dram.row_hits;
    tot.dram_read_latency += dram.total_read_latency;
    tot.fabric_ops += fabric_ops;
    tot.fabric_fallbacks += diag(&diagnostics, "fabric_fallbacks");

    // Replay timestamps advance at the run's own pace: its measured
    // cycles spread over the captured stream.
    let stream = std::mem::take(&mut engine.llc_stream);
    drop(engine);
    let cycles = per_core.iter().map(|r| r.cycles).max().unwrap_or(0);
    let step = cycles as f64 / stream.len().max(1) as f64;

    let t = Instant::now();
    let own = replay_llc(cell, cell.policy, &stream, step, timer_ns, true);
    tracer.close("llc.replay", t);
    // Per-access costs of an empty stream (a cell with no L2 miss while
    // measuring) are zero, not NaN.
    let n = (stream.len() as f64).max(1.0);
    let lru_ns_per_access = if cell.policy == PolicyKind::Lru {
        (own.lookup_ns + own.fill_ns) / n
    } else {
        let t = Instant::now();
        let lru = replay_llc(cell, PolicyKind::Lru, &stream, step, timer_ns, false);
        tracer.close("llc.replay_lru", t);
        tot.policy_extra_ns += own.lookup_ns + own.fill_ns - (lru.lookup_ns + lru.fill_ns);
        (lru.lookup_ns + lru.fill_ns) / n
    };
    tot.policy_accesses += stream.len() as u64;
    tot.lookups += stream.len() as u64;
    tot.lookup_ns += own.lookup_ns;
    tot.fills += own.fills;
    tot.fill_ns += own.fill_ns;
    let own_ns_per_access = (own.lookup_ns + own.fill_ns) / n;

    let t = Instant::now();
    let mut mesh = ChipTopology::new(cell.system.topology, cell.system.cores);
    for (i, (a, &slice)) in stream.iter().zip(&own.slices).enumerate() {
        let cycle = (i as f64 * step) as u64;
        black_box(mesh.traverse(a.core, slice, cycle, ADDRESS_PACKET_FLITS));
        black_box(mesh.traverse(slice, a.core, cycle, DATA_PACKET_FLITS));
    }
    let noc_ns = ns(t);
    tracer.close("noc.traverse", t);
    tot.noc_ns += noc_ns;
    tot.traverses += 2 * stream.len() as u64;
    let noc_per_traverse = noc_ns / (2.0 * n);

    let mut fabric_per_op = 0.0;
    if fabric_ops > 0 {
        let t = Instant::now();
        let mut fabric = cell.org.build_fabric();
        for (i, (a, &slice)) in stream.iter().zip(&own.slices).enumerate() {
            let cycle = (i as f64 * step) as u64;
            black_box(fabric.predict(slice, a.core, cycle));
            black_box(fabric.train(slice, a.core, cycle));
        }
        let fabric_ns = ns(t);
        tracer.close("fabric.replay", t);
        tot.fabric_replay_ns += fabric_ns;
        tot.fabric_replay_ops += 2 * stream.len() as u64;
        fabric_per_op = fabric_ns / (2.0 * n);
    }

    let t = Instant::now();
    let mut dram_model = Dram::new(cell.system.dram);
    for &(line, write, cycle) in &own.dram_ops {
        if write {
            dram_model.write(line, cycle);
        } else {
            black_box(dram_model.read(line, cycle));
        }
    }
    let dram_ns = ns(t);
    tracer.close("dram.replay", t);
    tot.dram_ns += dram_ns;
    tot.dram_replay_ops += own.dram_ops.len() as u64;
    let dram_per_op = dram_ns / own.dram_ops.len().max(1) as f64;

    // This cell's estimated engine time per layer.
    let llc_calls = llc.total_accesses() as f64;
    let fabric_est = fabric_per_op * fabric_ops as f64;
    tot.est_trace += tot.replay_ns / tot.replay_records.max(1) as f64 * steps;
    for c in cell.active() {
        let rep = private[&(cell.mix.benchmarks[c], cell.mix.seeds[c])];
        tot.est_l1l2 += rep.l1_ns + rep.l2_ns;
        tot.est_prefetch += rep.pf_ns;
    }
    tot.est_llc += lru_ns_per_access * llc_calls;
    tot.est_policy += (own_ns_per_access - lru_ns_per_access) * llc_calls - fabric_est;
    tot.est_fabric += fabric_est;
    tot.est_noc += noc_per_traverse * 2.0 * llc_calls;
    tot.est_dram += dram_per_op * (dram.reads + dram.writes) as f64;
    Ok(fp)
}

/// One cold replay of a captured LLC stream.
#[derive(Debug, Default)]
struct LlcReplay {
    lookup_ns: f64,
    fill_ns: f64,
    fills: u64,
    /// Slice of each access (kept on request).
    slices: Vec<usize>,
    /// `(line, is_write, cycle)` of each DRAM request the replay made
    /// (kept on request).
    dram_ops: Vec<(LineAddr, bool, u64)>,
}

/// Replay `stream` into a fresh LLC under `policy`, timing each
/// `lookup` and, on a miss, each `fill`, the way the engine calls them.
fn replay_llc(
    cell: &Cell,
    policy: PolicyKind,
    stream: &[Access],
    step: f64,
    timer_ns: f64,
    keep: bool,
) -> LlcReplay {
    let geom = cell.system.llc;
    let mut llc = SlicedLlc::new(geom, policy.build(&geom, cell.org.clone()));
    let mut out = LlcReplay::default();
    for (i, a) in stream.iter().enumerate() {
        let cycle = (i as f64 * step) as u64;
        let t0 = Instant::now();
        let look = llc.lookup(a, cycle);
        let t1 = Instant::now();
        out.lookup_ns += t1.duration_since(t0).as_nanos() as f64 - timer_ns;
        if keep {
            out.slices.push(look.slice);
        }
        if look.hit {
            continue;
        }
        let fill = llc.fill(a, cycle);
        out.fill_ns += t1.elapsed().as_nanos() as f64 - timer_ns;
        out.fills += 1;
        if keep {
            if a.kind != AccessKind::Writeback {
                out.dram_ops.push((a.line, false, cycle));
            }
            if let Some(victim) = fill.writeback {
                out.dram_ops.push((victim, true, cycle));
            }
            if fill.bypassed && a.kind == AccessKind::Writeback {
                out.dram_ops.push((a.line, true, cycle));
            }
        }
    }
    out
}

fn ckpt_probe(
    cell: &Cell,
    cache: &TraceCache,
    want: Option<u64>,
    tracer: &mut Tracer,
    tot: &mut Totals,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut engine = cell.engine(cache, false);
        engine.run_to_warm();
        let mut bytes = Vec::new();
        let mut saves = Vec::new();
        for _ in 0..CKPT_REPS {
            let t = Instant::now();
            bytes = save_engine_bytes(&engine);
            saves.push(tracer.close("ckpt.save", t) * 1e3);
        }
        drop(engine);
        let mut restores = Vec::new();
        let mut restored = None;
        for _ in 0..CKPT_REPS {
            let mut fresh = cell.engine(cache, false);
            let t = Instant::now();
            let r = restore_engine_bytes(&mut fresh, &bytes);
            restores.push(tracer.close("ckpt.restore", t) * 1e3);
            r.map_err(|e| format!("restore failed: {e}"))?;
            restored = Some(fresh);
        }
        tot.ckpt_save_ms = crate::stats::median(&saves);
        tot.ckpt_restore_ms = crate::stats::median(&restores);
        tot.ckpt_bytes = bytes.len() as u64;
        let mut engine = restored.expect("at least one restore");
        let t = Instant::now();
        let per_core = engine.run();
        tracer.close("ckpt.resumed_run", t);
        let got = fingerprint(&engine, &per_core);
        match want {
            Some(w) if w == got => Ok(()),
            Some(w) => Err(format!(
                "resumed run ends at {got:016x}, the uninterrupted run at {w:016x}"
            )),
            None => Err("the uninterrupted run failed".to_string()),
        }
    }))
    .unwrap_or_else(|p| Err(panic_message(p.as_ref())))
    .map_err(|e| format!("{}/ckpt-resume: {e}", cell.label))
}

/// Run the workload's jobs serially on this thread, then through
/// `run_sweep_resumable` on one worker; every pool output must equal the
/// serial one. Returns one outcome per job (or one for a pool failure).
fn sweep_probe(
    workload: Workload,
    cells: &[Cell],
    cache: &Arc<TraceCache>,
    tracer: &mut Tracer,
    tot: &mut Totals,
) -> Vec<Result<(), String>> {
    let jobs = sweep_jobs(cells);
    let t = Instant::now();
    let serial: Vec<String> = jobs
        .iter()
        .map(|job| match &job.kind {
            JobKind::Run {
                mix, policy, org, ..
            } => format!(
                "{:?}",
                run_mix_cached(mix, *policy, org.clone(), &job.rc, cache).per_core
            ),
            JobKind::AloneIpcs { mix } => format!("{:?}", alone_ipcs_cached(mix, &job.rc, cache)),
        })
        .collect();
    let serial_s = tracer.close("sweep.serial", t);

    let _ = std::fs::create_dir_all(OUT_DIR);
    let journal = PathBuf::from(OUT_DIR).join(format!("{}.probe.journal", workload.name()));
    let _ = std::fs::remove_file(&journal);
    let t = Instant::now();
    let outcome = run_sweep_resumable(&jobs, 1, cache, &journal, false);
    let pool_s = tracer.close("sweep.pool", t);
    let _ = std::fs::remove_file(&journal);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return vec![Err(format!("{}/sweep: {e}", workload.name()))],
    };
    tot.pool_overhead_share = pool_s / serial_s - 1.0;
    tot.warm_ckpt_misses = outcome.warm_stats.1;

    let checks = jobs
        .iter()
        .zip(&outcome.outputs)
        .zip(&serial)
        .map(|((job, out), want)| {
            let got = match out {
                Ok(JobOutput::Run(r)) => format!("{:?}", r.per_core),
                Ok(JobOutput::AloneIpcs(a)) => format!("{a:?}"),
                Err(f) => return Err(format!("{}/sweep: {f}", job.label)),
            };
            if &got == want {
                Ok(())
            } else {
                Err(format!(
                    "{}/sweep: pool result differs from the serial run",
                    job.label
                ))
            }
        })
        .collect();

    let path = PathBuf::from(OUT_DIR).join(format!("{}.probe.json", workload.name()));
    let t = Instant::now();
    let report = SweepReport::from_outcome(format!("{}-probe", workload.name()), &jobs, &outcome);
    let written = report.write(&path);
    tot.report_emit_ms = tracer.close("sweep.report", t) * 1e3;
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    checks
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reduce the totals to the catalogue's per-layer metrics.
fn metrics(t: &Totals) -> Vec<(Metric, f64)> {
    let steps = t.steps as f64;
    let kstep = steps / 1e3;
    let run = t.run_ns;
    let shares = [
        t.est_trace,
        t.est_l1l2,
        t.est_prefetch,
        t.est_llc,
        t.est_policy,
        t.est_fabric,
        t.est_noc,
        t.est_dram,
    ];
    let residual_ns = run - shares.iter().sum::<f64>();
    let new_ms = if t.new_ms.is_empty() {
        0.0
    } else {
        crate::stats::median(&t.new_ms)
    };
    let values: [f64; 46] = [
        ratio(t.gen_ns, t.gen_records as f64),
        ratio(t.replay_ns, t.replay_records as f64),
        ratio(t.store_bytes as f64, t.store_records as f64),
        ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
        ratio(t.l1_ns, t.l1_calls as f64),
        ratio(t.l1_misses as f64, t.records as f64),
        ratio(t.l2_ns, t.l2_calls as f64),
        ratio(t.l2_misses as f64, t.l2_demand as f64),
        ratio(t.pf_ns, t.pf_trains as f64),
        ratio(t.pf_requests as f64, t.records as f64 / 1e3),
        ratio(t.lookup_ns, t.lookups as f64),
        ratio(t.fill_ns, t.fills as f64),
        ratio(t.llc_accesses as f64, steps),
        1.0 - ratio(t.llc_misses as f64, t.llc_accesses as f64),
        ratio(t.llc_bypasses as f64, t.llc_misses as f64),
        ratio(t.llc_dirty_evictions as f64, kstep),
        ratio(t.policy_extra_ns, t.policy_accesses as f64),
        ratio(t.fabric_replay_ns, t.fabric_replay_ops as f64),
        ratio(t.fabric_ops as f64, kstep),
        t.fabric_fallbacks as f64,
        ratio(t.noc_ns, t.traverses as f64),
        ratio(t.noc_msgs as f64, steps),
        ratio(t.noc_contention as f64, t.noc_msgs as f64),
        ratio(t.interchip_msgs as f64, steps),
        ratio(t.dram_ns, t.dram_replay_ops as f64),
        ratio((t.dram_reads + t.dram_writes) as f64, kstep),
        ratio(
            t.dram_row_hits as f64,
            (t.dram_reads + t.dram_writes) as f64,
        ),
        ratio(t.dram_read_latency as f64, t.dram_reads as f64),
        ratio(run, steps),
        new_ms,
        ratio(residual_ns, steps),
        ratio(t.est_trace, run),
        ratio(t.est_l1l2, run),
        ratio(t.est_prefetch, run),
        ratio(t.est_llc, run),
        ratio(t.est_policy, run),
        ratio(t.est_fabric, run),
        ratio(t.est_noc, run),
        ratio(t.est_dram, run),
        ratio(residual_ns, run),
        t.ckpt_save_ms,
        t.ckpt_restore_ms,
        t.ckpt_bytes as f64,
        t.warm_ckpt_misses as f64,
        t.pool_overhead_share,
        t.report_emit_ms,
    ];
    PER_LAYER.iter().copied().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let t = Totals {
            steps: 1000,
            run_ns: 1e6,
            est_trace: 1e5,
            est_llc: 3e5,
            est_noc: 2e5,
            ..Totals::default()
        };
        let m = metrics(&t);
        let sum: f64 = m
            .iter()
            .filter(|(m, _)| m.name.starts_with("share."))
            .map(|(_, v)| v)
            .sum();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
        let residual = m
            .iter()
            .find(|(m, _)| m.name == "share.residual")
            .unwrap()
            .1;
        assert!((residual - 0.4).abs() < 1e-12);
    }
}
