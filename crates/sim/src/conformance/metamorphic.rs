//! The metamorphic-relation executor.
//!
//! Each relation re-runs a cell under a transform that a *correct*
//! simulator must be invariant to (exactly, or within a stated
//! tolerance), with the [`RefCache`] shadow attached to every run so the
//! hard contracts are checked along the way. The four relations and the
//! level each is asserted at (see DESIGN.md §13 for the full rationale):
//!
//! 1. **PC relabeling** ([`check_pc_relabel`]) — relabel every PC through
//!    a keyed bijection. At the *engine* level, prefetcher table
//!    collisions legitimately change, so only the hard contracts are
//!    asserted. At the *direct-LLC* level (fixed access stream, `cycle =
//!    i`), PC-oblivious policies must produce exactly identical aggregate
//!    hit/miss counts.
//! 2. **Core-ID permutation** ([`check_core_permutation`]) — permute
//!    which tile runs which workload of a *homogeneous* mix. Mesh
//!    distances shift per core, so per-core IPCs move slightly; the
//!    aggregate weighted speedup must agree within a small tolerance.
//! 3. **Slice-hash permutation** ([`check_slice_permutation`]) — relabel
//!    slice outputs through [`PermutedHash`]. Slice-oblivious policies
//!    (see [`slice_oblivious`]) must produce exactly identical aggregate
//!    hit/miss counts; every policy must keep all contracts.
//! 4. **Warmup-split composability** ([`check_warmup_split`]) — driving
//!    [`Engine::run_steps`] in chunks must be bit-identical to one
//!    uninterrupted [`Engine::run`].

use crate::conformance::refcache::{RefCache, Violation};
use crate::engine::{CoreResult, Engine};
use crate::runner::{alone_ipcs, mix_metrics, run_mix, RunCkpt, RunConfig};
use drishti_core::config::DrishtiConfig;
use drishti_mem::access::Access;
use drishti_mem::llc::{LlcGeometry, LlcStats, SliceCounters, SlicedLlc};
use drishti_noc::slicehash::{PermutedHash, SliceHasher, XorFoldHash};
use drishti_policies::factory::PolicyKind;
use drishti_trace::mix::Mix;
use drishti_trace::transform::relabel_pc;
use drishti_trace::{TraceRecord, WorkloadGen};

/// Bits of the PC that relabeling permutes. High bits are preserved so
/// any core/kind tagging encoded there (the fuzzer does this) survives.
pub const RELABEL_BITS: u32 = 40;

/// Whether a policy's decisions are invariant under relabeling of slice
/// indices.
///
/// LRU and SRRIP keep only per-line state, identical across slices, so
/// permuting slice labels permutes isomorphic state and aggregate counts
/// are exactly preserved. DIP and DRRIP seed their dueling-set selectors
/// *by slice index* (`build_selector(s, ..)`), so a permuted slice uses
/// different leader sets; prediction-based policies bank predictors and
/// sampled sets by slice. For those, the relation only asserts contracts.
pub fn slice_oblivious(kind: PolicyKind) -> bool {
    matches!(kind, PolicyKind::Lru | PolicyKind::Srrip)
}

/// A [`WorkloadGen`] adaptor that bijectively relabels PCs on the fly.
#[derive(Debug)]
pub struct RelabeledGen<G> {
    inner: G,
    key: u64,
}

impl<G: WorkloadGen> RelabeledGen<G> {
    /// Wrap `inner`, relabeling with `key` over [`RELABEL_BITS`] bits.
    pub fn new(inner: G, key: u64) -> Self {
        RelabeledGen { inner, key }
    }
}

impl<G: WorkloadGen> WorkloadGen for RelabeledGen<G> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_record(&mut self) -> TraceRecord {
        let r = self.inner.next_record();
        TraceRecord {
            pc: relabel_pc(r.pc, self.key, RELABEL_BITS),
            ..r
        }
    }
}

/// Aggregate outcome of a shadow-checked run.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedRun {
    /// Per-core measured results.
    pub per_core: Vec<CoreResult>,
    /// LLC aggregate stats.
    pub llc: LlcStats,
    /// Per-slice counters.
    pub slices: Vec<SliceCounters>,
}

/// Run a mix through the full engine with a [`RefCache`] shadow attached.
///
/// Returns the run summary, or the first contract [`Violation`].
pub fn run_mix_checked(
    mix: &Mix,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
    relabel_key: Option<u64>,
) -> Result<CheckedRun, Violation> {
    assert_eq!(mix.cores(), rc.system.cores, "mix/system core mismatch");
    let workloads: Vec<Option<Box<dyn WorkloadGen>>> = mix
        .build()
        .into_iter()
        .map(|w| match relabel_key {
            Some(key) => Some(Box::new(RelabeledGen::new(w, key)) as Box<dyn WorkloadGen>),
            None => Some(Box::new(w) as Box<dyn WorkloadGen>),
        })
        .collect();
    let mut engine = Engine::new(
        rc.system.clone(),
        workloads,
        policy.build(&rc.system.llc, drishti),
        rc.accesses_per_core,
        rc.warmup_accesses,
        false,
    );
    engine.set_llc_observer(Box::new(RefCache::new(&rc.system.llc)));
    let per_core = engine.run();
    let obs = engine.take_llc_observer().expect("observer installed");
    let shadow = obs
        .as_any()
        .downcast_ref::<RefCache>()
        .expect("RefCache observer");
    if let Some(v) = shadow.violation() {
        return Err(v.clone());
    }
    Ok(CheckedRun {
        per_core,
        llc: *engine.llc().stats(),
        slices: engine.llc().slice_counters().to_vec(),
    })
}

/// Interleave a mix's per-core traces round-robin into one LLC-level
/// access stream (`per_core` records from each core).
pub fn interleaved_accesses(mix: &Mix, per_core: usize) -> Vec<Access> {
    let mut gens: Vec<_> = mix.build();
    let mut out = Vec::with_capacity(per_core * gens.len());
    for _ in 0..per_core {
        for (core, g) in gens.iter_mut().enumerate() {
            let r = g.next_record();
            out.push(if r.is_store {
                Access::store(core, r.pc, r.line)
            } else {
                Access::load(core, r.pc, r.line)
            });
        }
    }
    out
}

/// Replay an access stream directly against a fresh [`SlicedLlc`]
/// (`cycle = i`), with a [`RefCache`] shadow attached.
///
/// Returns aggregate `(hits, misses)`, or the first [`Violation`].
pub fn llc_replay(
    policy: PolicyKind,
    drishti: DrishtiConfig,
    geom: &LlcGeometry,
    hasher: Box<dyn SliceHasher>,
    accesses: &[Access],
) -> Result<(u64, u64), Violation> {
    let mut llc = SlicedLlc::with_hasher(*geom, policy.build(geom, drishti), hasher);
    llc.set_observer(Box::new(RefCache::new(geom)));
    for (i, acc) in accesses.iter().enumerate() {
        if !llc.lookup(acc, i as u64).hit {
            llc.fill(acc, i as u64);
        }
    }
    let obs = llc.take_observer().expect("observer installed");
    let shadow = obs
        .as_any()
        .downcast_ref::<RefCache>()
        .expect("RefCache observer");
    if let Some(v) = shadow.violation() {
        return Err(v.clone());
    }
    let (mut hits, mut misses) = (0u64, 0u64);
    for s in llc.slice_counters() {
        hits += s.hits;
        misses += s.misses;
    }
    Ok((hits, misses))
}

/// Relation 1: PC relabeling.
///
/// Engine level: both the original and the relabeled run must hold every
/// hard contract (decisions may differ — prefetchers and PC-trained
/// predictors legitimately react to the labels). Direct-LLC level: for
/// PC-oblivious policies (`!is_prediction_based`, which also never duel
/// on PC), aggregate hit/miss counts must match exactly.
pub fn check_pc_relabel(
    mix: &Mix,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
    key: u64,
) -> Result<(), String> {
    run_mix_checked(mix, policy, drishti.clone(), rc, None)
        .map_err(|v| format!("pc-relabel: original run violated contract: {v}"))?;
    run_mix_checked(mix, policy, drishti.clone(), rc, Some(key))
        .map_err(|v| format!("pc-relabel: relabeled run violated contract: {v}"))?;

    if !policy.is_prediction_based() {
        let per_core = (rc.accesses_per_core / 4).max(256) as usize;
        let original = interleaved_accesses(mix, per_core);
        let relabeled: Vec<Access> = original
            .iter()
            .map(|a| Access {
                pc: relabel_pc(a.pc, key, RELABEL_BITS),
                ..*a
            })
            .collect();
        let a = llc_replay(
            policy,
            drishti.clone(),
            &rc.system.llc,
            Box::new(XorFoldHash::new()),
            &original,
        )
        .map_err(|v| format!("pc-relabel: LLC replay violated contract: {v}"))?;
        let b = llc_replay(
            policy,
            drishti,
            &rc.system.llc,
            Box::new(XorFoldHash::new()),
            &relabeled,
        )
        .map_err(|v| format!("pc-relabel: relabeled LLC replay violated contract: {v}"))?;
        if a != b {
            return Err(format!(
                "pc-relabel: {policy} is PC-oblivious but aggregate (hits, misses) changed \
                 under relabeling: {a:?} vs {b:?}"
            ));
        }
    }
    Ok(())
}

/// Relation 2: core-ID permutation on a homogeneous mix.
///
/// Workload `c` moves to tile `perm[c]`; alone-IPC baselines move with
/// it. Weighted speedup must agree within `tolerance` (relative).
///
/// # Panics
///
/// Panics if `mix` is not homogeneous or `perm` is not a permutation of
/// `0..cores`.
pub fn check_core_permutation(
    mix: &Mix,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
    perm: &[usize],
    tolerance: f64,
) -> Result<(), String> {
    assert!(
        mix.is_homogeneous(),
        "core permutation is only a relation on homogeneous mixes"
    );
    let cores = mix.cores();
    assert_eq!(perm.len(), cores, "permutation length");
    {
        let mut seen = vec![false; cores];
        for &p in perm {
            assert!(p < cores && !seen[p], "not a permutation: {perm:?}");
            seen[p] = true;
        }
    }

    let alone = alone_ipcs(mix, rc);
    let base = run_mix(mix, policy, drishti.clone(), rc);
    let ws_base = mix_metrics(&base, &alone).weighted_speedup();

    let mut workloads: Vec<Option<Box<dyn WorkloadGen>>> = (0..cores).map(|_| None).collect();
    let mut alone_perm = vec![0.0; cores];
    for c in 0..cores {
        workloads[perm[c]] = Some(Box::new(mix.build_core(c)) as Box<dyn WorkloadGen>);
        alone_perm[perm[c]] = alone[c];
    }
    let pol = policy.build(&rc.system.llc, drishti);
    let permuted = crate::runner::run(workloads, pol, rc, &RunCkpt::default())
        .expect("a run without checkpoints does no I/O");
    let ws_perm = mix_metrics(&permuted, &alone_perm).weighted_speedup();

    let rel = (ws_base - ws_perm).abs() / ws_base.max(f64::MIN_POSITIVE);
    if rel > tolerance {
        return Err(format!(
            "core-permutation: weighted speedup moved {rel:.4} (> {tolerance}) under {perm:?}: \
             {ws_base:.4} vs {ws_perm:.4}"
        ));
    }
    Ok(())
}

/// Relation 3: slice-hash permutation, at the direct-LLC level.
///
/// Every policy must hold all contracts under the permuted hash; policies
/// for which [`slice_oblivious`] is true must additionally produce
/// exactly identical aggregate hit/miss counts.
///
/// # Panics
///
/// Panics (inside [`PermutedHash::new`]) if `perm` is not a permutation
/// of `0..geom.slices`.
pub fn check_slice_permutation(
    mix: &Mix,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    geom: &LlcGeometry,
    perm: Vec<usize>,
    per_core: usize,
) -> Result<(), String> {
    let accesses = interleaved_accesses(mix, per_core);
    let a = llc_replay(
        policy,
        drishti.clone(),
        geom,
        Box::new(XorFoldHash::new()),
        &accesses,
    )
    .map_err(|v| format!("slice-permutation: identity run violated contract: {v}"))?;
    let b = llc_replay(
        policy,
        drishti,
        geom,
        Box::new(PermutedHash::new(XorFoldHash::new(), perm.clone())),
        &accesses,
    )
    .map_err(|v| format!("slice-permutation: permuted run violated contract: {v}"))?;
    if slice_oblivious(policy) && a != b {
        return Err(format!(
            "slice-permutation: {policy} is slice-oblivious but aggregate (hits, misses) \
             changed under {perm:?}: {a:?} vs {b:?}"
        ));
    }
    Ok(())
}

/// Relation 4: warmup-split composability.
///
/// One engine runs uninterrupted; a second is driven by repeated
/// [`Engine::run_steps`] calls of `chunk` steps. Per-core results, LLC
/// stats and per-slice counters must be bit-identical, and both runs must
/// hold every contract.
pub fn check_warmup_split(
    mix: &Mix,
    policy: PolicyKind,
    drishti: DrishtiConfig,
    rc: &RunConfig,
    chunk: u64,
) -> Result<(), String> {
    assert!(chunk > 0, "chunk must be positive");
    let whole = run_mix_checked(mix, policy, drishti.clone(), rc, None)
        .map_err(|v| format!("warmup-split: uninterrupted run violated contract: {v}"))?;

    let workloads: Vec<Option<Box<dyn WorkloadGen>>> = mix
        .build()
        .into_iter()
        .map(|w| Some(Box::new(w) as Box<dyn WorkloadGen>))
        .collect();
    let mut engine = Engine::new(
        rc.system.clone(),
        workloads,
        policy.build(&rc.system.llc, drishti),
        rc.accesses_per_core,
        rc.warmup_accesses,
        false,
    );
    engine.set_llc_observer(Box::new(RefCache::new(&rc.system.llc)));
    while !engine.run_steps(chunk) {}
    let obs = engine.take_llc_observer().expect("observer installed");
    if let Some(v) = obs
        .as_any()
        .downcast_ref::<RefCache>()
        .expect("RefCache observer")
        .violation()
    {
        return Err(format!("warmup-split: chunked run violated contract: {v}"));
    }
    let split = CheckedRun {
        per_core: engine.results(),
        llc: *engine.llc().stats(),
        slices: engine.llc().slice_counters().to_vec(),
    };
    if whole != split {
        return Err(format!(
            "warmup-split: chunked run (chunk = {chunk}) diverged from uninterrupted run:\n\
             whole: {whole:?}\nsplit: {split:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_trace::presets::Benchmark;

    fn tiny_rc(cores: usize) -> RunConfig {
        let mut rc = RunConfig::quick(cores);
        rc.accesses_per_core = 2_000;
        rc.warmup_accesses = 400;
        rc
    }

    #[test]
    fn relabeled_gen_preserves_structure() {
        let mix = Mix::homogeneous(Benchmark::Mcf, 1, 9);
        let mut a = mix.build_core(0);
        let mut b = RelabeledGen::new(mix.build_core(0), 0xfeed);
        for _ in 0..200 {
            let ra = a.next_record();
            let rb = b.next_record();
            assert_eq!(ra.line, rb.line);
            assert_eq!(ra.is_store, rb.is_store);
            assert_eq!(ra.instr_gap, rb.instr_gap);
            assert_eq!(rb.pc, relabel_pc(ra.pc, 0xfeed, RELABEL_BITS));
        }
    }

    #[test]
    fn pc_relabel_holds_for_lru() {
        let mix = Mix::homogeneous(Benchmark::Mcf, 2, 11);
        let rc = tiny_rc(2);
        check_pc_relabel(
            &mix,
            PolicyKind::Lru,
            DrishtiConfig::baseline(2),
            &rc,
            0xabc,
        )
        .expect("relation must hold");
    }

    #[test]
    fn warmup_split_holds_for_srrip() {
        let mix = Mix::homogeneous(Benchmark::Xalan, 2, 5);
        let rc = tiny_rc(2);
        check_warmup_split(
            &mix,
            PolicyKind::Srrip,
            DrishtiConfig::baseline(2),
            &rc,
            313,
        )
        .expect("relation must hold");
    }

    #[test]
    fn slice_permutation_holds_for_slice_oblivious_policies() {
        let mix = Mix::homogeneous(Benchmark::Lbm, 4, 3);
        let geom = LlcGeometry {
            slices: 4,
            sets_per_slice: 64,
            ways: 4,
            latency: 20,
        };
        for kind in [PolicyKind::Lru, PolicyKind::Srrip] {
            check_slice_permutation(
                &mix,
                kind,
                DrishtiConfig::baseline(4),
                &geom,
                vec![2, 0, 3, 1],
                1_000,
            )
            .expect("relation must hold");
        }
    }

    #[test]
    fn injected_corruption_fails_the_relations() {
        // The sabotage hook corrupts a counter; llc_replay must report it.
        let mix = Mix::homogeneous(Benchmark::Mcf, 2, 7);
        let accesses = interleaved_accesses(&mix, 500);
        let geom = LlcGeometry {
            slices: 2,
            sets_per_slice: 32,
            ways: 4,
            latency: 20,
        };
        let mut llc = SlicedLlc::new(
            geom,
            PolicyKind::Lru.build(&geom, DrishtiConfig::baseline(2)),
        );
        llc.set_observer(Box::new(RefCache::new(&geom)));
        llc.inject_fill_miscount(3);
        for (i, acc) in accesses.iter().enumerate() {
            if !llc.lookup(acc, i as u64).hit {
                llc.fill(acc, i as u64);
            }
        }
        let obs = llc.take_observer().unwrap();
        let shadow = obs.as_any().downcast_ref::<RefCache>().unwrap();
        let v = shadow.violation().expect("corruption must be caught");
        assert_eq!(v.contract, "counter-telescoping");
    }
}
