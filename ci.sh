#!/usr/bin/env bash
# Local CI gate: everything a pull request must pass, fully offline.
#
#   ./ci.sh          # build + test + fmt + clippy + rustdoc + byte-diff gates
#                    # + reduced-scale sweeps + one traced benchmark trial
#                    # against the pinned fingerprints
#   ./ci.sh --quick  # skip the release build, rustdoc, the reduced-scale
#                    # sweeps and the benchmark trial (debug test run, fmt,
#                    # clippy and the byte-diff gates still run)
#
# This script is the whole gate: the CI workflow runs it and nothing else.
#
# The workspace vendors its only external dev-dependency (a proptest API
# shim under shims/), so --offline always works and no network access is
# ever required.

set -euo pipefail
cd "$(dirname "$0")"

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n==> %s\n' "$*"; }

if [[ $quick -eq 0 ]]; then
  step "cargo build --release --offline --workspace"
  cargo build --release --offline --workspace
fi

step "cargo test --offline"
cargo test -q --offline --workspace

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

if [[ $quick -eq 0 ]]; then
  step "cargo doc --offline --no-deps (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace
fi

# Determinism gate: the sweep report must be byte-identical no matter how
# many workers ran it. Run a small fig13 sweep serially and maximally
# parallel with the same configuration and diff the JSON reports; any
# byte of difference fails CI. (Runs in --quick too — it is the core
# contract of the sweep harness.)
step "sweep determinism gate (--jobs 1 vs --jobs max)"
profile_dir=debug
if [[ $quick -eq 0 ]]; then
  profile_dir=release
  build_flags=(--release)
else
  build_flags=()
fi
cargo build -q --offline "${build_flags[@]}" -p drishti-bench --bin fig13_main_performance
gate_args=(--mixes 2 --cores 4 --accesses 10000)
# Gate outputs land in a per-invocation temp dir under target/ so
# concurrent ci.sh runs cannot clobber each other's reports; it is removed
# on success and left behind on failure for artifact upload (CI globs
# target/ci-gate.*).
mkdir -p target
out=$(mktemp -d target/ci-gate.XXXXXX)
"target/$profile_dir/fig13_main_performance" "${gate_args[@]}" \
  --jobs 1 --report "$out/determinism_j1.json" >/dev/null
"target/$profile_dir/fig13_main_performance" "${gate_args[@]}" \
  --jobs 8 --report "$out/determinism_j8.json" >/dev/null
if ! diff -u "$out/determinism_j1.json" "$out/determinism_j8.json"; then
  echo "FAIL: sweep report differs between --jobs 1 and --jobs 8" >&2
  exit 1
fi
echo "reports byte-identical across worker counts"

# Telemetry gate: epoch sampling is observation-only, so the same sweep
# with --telemetry must produce a main report byte-identical to the
# telemetry-off one — timelines land in separate *.timeline.json files.
step "telemetry gate (--telemetry report must byte-match)"
rm -f "$out"/telemetry_on.cell*.timeline.json
"target/$profile_dir/fig13_main_performance" "${gate_args[@]}" \
  --jobs 8 --telemetry --epoch 2000 --report "$out/telemetry_on.json" >/dev/null
if ! diff -u "$out/determinism_j8.json" "$out/telemetry_on.json"; then
  echo "FAIL: --telemetry changed the sweep report bytes" >&2
  exit 1
fi
timelines=("$out"/telemetry_on.cell*.timeline.json)
if [[ ! -e "${timelines[0]}" ]]; then
  echo "FAIL: --telemetry produced no timeline files in $out" >&2
  exit 1
fi
if ! grep -q '"schema": "drishti-telemetry/v1"' "${timelines[0]}"; then
  echo "FAIL: ${timelines[0]} lacks the drishti-telemetry/v1 schema stamp" >&2
  exit 1
fi
echo "telemetry-on report byte-identical; ${#timelines[@]} timeline file(s)"

# Record/replay gate: a sweep replayed from on-disk drishti-trace/v1
# files must produce a byte-identical drishti-sweep/v1 report to the same
# sweep over freshly generated traces, at --jobs 1 and --jobs 8. (Runs in
# --quick too — bit-identity is the whole point of the trace store.)
step "record/replay gate (on-disk traces vs generated, --jobs 1/8)"
cargo build -q --offline "${build_flags[@]}" -p drishti-sim --bin drishti-sim
sim="target/$profile_dir/drishti-sim"
rr_args=(--cores 4 --mix homo:mcf --policy lru,hawkeye --org baseline,drishti
         --accesses 8000 --warmup 2000)
"$sim" "${rr_args[@]}" --record "$out/rr_trace" \
  --jobs 2 --report "$out/rr_generated.json" >/dev/null 2>&1
"$sim" "${rr_args[@]}" --trace-file "$out/rr_trace" \
  --jobs 1 --report "$out/rr_replay_j1.json" >/dev/null
"$sim" "${rr_args[@]}" --trace-file "$out/rr_trace" \
  --jobs 8 --report "$out/rr_replay_j8.json" >/dev/null
for replay in "$out/rr_replay_j1.json" "$out/rr_replay_j8.json"; do
  if ! diff -u "$out/rr_generated.json" "$replay"; then
    echo "FAIL: replayed sweep report $replay differs from the generated run" >&2
    exit 1
  fi
done
echo "replayed reports byte-identical to the generated run at --jobs 1 and 8"

# Scaling-smoke gate: the multi-chip topology must preserve the sweep
# harness's worker-count determinism with inter-chip link queues in the
# loop. Run one small 2-chip rung of the scaling study at --jobs 1 and
# --jobs 8 and demand byte-identical reports. (Runs in --quick too.)
step "scaling-smoke gate (2-chip sweep, --jobs 1/8 byte-diff)"
cargo build -q --offline "${build_flags[@]}" -p drishti-bench --bin scaling
scaling="target/$profile_dir/scaling"
sc_args=(--mixes 1 --cores 16 --accesses 6000)
for jobs in 1 8; do
  "$scaling" "${sc_args[@]}" --jobs "$jobs" --report "$out/scaling_j${jobs}.json" >/dev/null
done
if ! diff -u "$out/scaling_j1.json" "$out/scaling_j8.json"; then
  echo "FAIL: 2-chip scaling report differs between --jobs 1 and --jobs 8" >&2
  exit 1
fi
echo "2-chip scaling reports byte-identical across worker counts"

# Crash-resume gate: SIGKILL a journaled sweep mid-flight, resume it with
# --resume, and demand the final report is byte-identical to an
# uninterrupted run's — and that the clean completion removed the
# journal. If the victim finishes before the kill lands the gate degrades
# to a no-op resume, which must still byte-match. (Runs in --quick too —
# crash-resumability is a core contract of the sweep harness.)
step "crash-resume gate (SIGKILL mid-sweep, --resume byte-identity)"
fig13="target/$profile_dir/fig13_main_performance"
resume_report="$out/resume_gate.json"
resume_journal="$resume_report.journal"
rm -f "$resume_report" "$resume_journal"
"$fig13" "${gate_args[@]}" --jobs 8 --report "$out/resume_ref.json" >/dev/null
"$fig13" "${gate_args[@]}" --jobs 8 --report "$resume_report" >/dev/null 2>&1 &
victim=$!
# Kill once at least one cell landed in the journal (28-byte header, then
# one entry per completed cell); give up waiting after ~10s.
for _ in $(seq 1 200); do
  journal_bytes=$(wc -c < "$resume_journal" 2>/dev/null || echo 0)
  [[ "$journal_bytes" -gt 28 ]] && break
  kill -0 "$victim" 2>/dev/null || break
  sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
if [[ -e "$resume_report" ]]; then
  echo "note: sweep completed before SIGKILL; resuming a finished sweep instead"
fi
"$fig13" "${gate_args[@]}" --jobs 8 --report "$resume_report" --resume >/dev/null
if ! diff -u "$out/resume_ref.json" "$resume_report"; then
  echo "FAIL: resumed sweep report differs from the uninterrupted run" >&2
  exit 1
fi
if [[ -e "$resume_journal" ]]; then
  echo "FAIL: clean completion left $resume_journal behind" >&2
  exit 1
fi
echo "killed sweep resumed to a byte-identical report; journal cleaned up"

# Checkpoint gate: a single run checkpointed with --save (every 15000
# steps and at completion) must restore to the same per-core IPC, under
# Mockingjay and under Glider (whose sampler layout moved in v5), and a
# file whose header claims an older container (drishti-ckpt/v1 to /v4)
# must be refused by version with a typed error (exit 2, not a panic's
# 101). The .drck files stay in $out for upload if the gate fails.
# (Runs in --quick too.)
step "checkpoint gate (--save/--restore IPC, v1 to v4 refused by version)"
ck_args=(--cores 4 --mix homo:mcf --org drishti --accesses 20000 --warmup 5000)
for policy in mockingjay glider; do
  run_args=("${ck_args[@]}" --policy "$policy")
  "$sim" "${run_args[@]}" --save "$out/gate_$policy.drck" --checkpoint-every 15000 \
    >"$out/ckpt_saved_$policy.txt"
  "$sim" "${run_args[@]}" --restore "$out/gate_$policy.drck" >"$out/ckpt_restored_$policy.txt"
  if ! diff -u <(grep 'IPC' "$out/ckpt_saved_$policy.txt") \
               <(grep 'IPC' "$out/ckpt_restored_$policy.txt"); then
    echo "FAIL: the restored $policy run's IPC differs from the checkpointed run's" >&2
    exit 1
  fi
done
# Bytes 8-11 of the header hold the container version (little-endian u32).
for v in 1 2 3 4; do
  cp "$out/gate_mockingjay.drck" "$out/gate_v$v.drck"
  printf "\\x0$v\\x00\\x00\\x00" | dd of="$out/gate_v$v.drck" bs=1 seek=8 conv=notrunc status=none
  old_status=0
  "$sim" "${ck_args[@]}" --policy mockingjay --restore "$out/gate_v$v.drck" >/dev/null \
    2>"$out/ckpt_v$v.err" || old_status=$?
  if [[ $old_status -ne 2 ]] || ! grep -q "drishti-ckpt/v$v" "$out/ckpt_v$v.err"; then
    echo "FAIL: a drishti-ckpt/v$v header was not refused by version (exit $old_status)" >&2
    cat "$out/ckpt_v$v.err" >&2
    exit 1
  fi
done
echo "restored mockingjay and glider runs match the checkpointed runs; drishti-ckpt/v1 to /v4 refused by version"

# Fuzz-smoke gate: 64 seed-derived conformance cells (differential
# RefCache shadow + metamorphic re-runs) with the pinned CI seed must run
# clean; failures persist shrunk target/fuzz/*.drtr repro files for
# upload. The gate then proves the harness detects real violations:
# --inject-violation arms the hidden fill-miscount sabotage, which must
# be caught, shrunk, persisted, and replayed bit-identically. (Runs in
# --quick too — the fuzzer is fast and is the conformance safety net.)
step "fuzz-smoke gate (drishti-fuzz, pinned seed)"
cargo build -q --offline "${build_flags[@]}" -p drishti-sim --bin drishti-fuzz
fuzz="target/$profile_dir/drishti-fuzz"
"$fuzz" --cells 64 --steps 2000 --seed 0xd15c0 --out target/fuzz
echo "64 cells clean"
inject_out=target/fuzz-selftest
rm -rf "$inject_out"
if "$fuzz" --cells 2 --steps 2000 --seed 0xd15c0 --inject-violation \
    --out "$inject_out" >/dev/null 2>&1; then
  echo "FAIL: --inject-violation cells were not detected" >&2
  exit 1
fi
repros=("$inject_out"/failure-*.drtr)
if [[ ! -e "${repros[0]}" ]]; then
  echo "FAIL: injected failures produced no .drtr repro files" >&2
  exit 1
fi
# A reproducing replay exits 1 by design — that exact status is asserted.
replay_status=0
replay_out=$("$fuzz" --replay "${repros[0]}" --inject-violation) || replay_status=$?
if [[ $replay_status -ne 1 ]] || ! grep -q "reproduced:" <<<"$replay_out"; then
  echo "FAIL: persisted repro ${repros[0]} did not replay the violation" >&2
  echo "$replay_out" >&2
  exit 1
fi
rm -rf "$inject_out"
echo "injected violation caught, shrunk, persisted and replayed"

# Scenario-smoke gate: the scenario families and the coverage table must
# preserve the harness's byte-determinism contracts, and ChampSim
# ingestion must be deterministic and end-to-end usable. Part 1 runs the
# scenarios study (adversarial search + all three families) at --jobs 1
# and --jobs 8 and demands byte-identical reports, scenario_coverage
# table included. Part 2
# synthesizes a demo ChampSim trace, ingests it twice (byte-diffing the
# .drtr outputs), and replays the ingested trace (4114 records, shorter
# than the 7000-record run, so it wraps) through a sweep whose cells
# stream it from disk, at --jobs 1
# and --jobs 8: the two reports must be byte-identical and carry the
# "ingested" coverage family. (Runs in --quick too — the coverage table
# is new report surface.)
step "scenario-smoke gate (families x jobs, ingest round-trip)"
cargo build -q --offline "${build_flags[@]}" -p drishti-bench --bin scenarios
scenarios="target/$profile_dir/scenarios"
scn_args=(--mixes 1 --cores 4 --accesses 6000)
for jobs in 1 8; do
  "$scenarios" "${scn_args[@]}" --jobs "$jobs" --report "$out/scenarios_j${jobs}.json" >/dev/null
done
if ! diff -u "$out/scenarios_j1.json" "$out/scenarios_j8.json"; then
  echo "FAIL: scenarios report differs between --jobs 1 and --jobs 8" >&2
  exit 1
fi
if ! grep -q '"scenario_coverage"' "$out/scenarios_j1.json"; then
  echo "FAIL: scenarios report lacks the scenario_coverage table" >&2
  exit 1
fi
echo "scenario reports byte-identical across worker counts"
"$sim" --ingest-demo "$out/demo.champsim" >/dev/null
"$sim" --ingest "$out/demo.champsim" --ingest-out "$out/ingest_a.drtr" >/dev/null
"$sim" --ingest "$out/demo.champsim" --ingest-out "$out/ingest_b.drtr" >/dev/null
if ! cmp "$out/ingest_a.drtr" "$out/ingest_b.drtr"; then
  echo "FAIL: ingesting the same ChampSim input twice produced different .drtr bytes" >&2
  exit 1
fi
cp "$out/ingest_a.drtr" "$out/scn_ext.core00.drtr"
for jobs in 1 8; do
  "$sim" --cores 1 --mix homo:mcf --policy lru,hawkeye,mockingjay --org baseline,drishti \
    --accesses 6000 --warmup 1000 --trace-file "$out/scn_ext" \
    --jobs "$jobs" --report "$out/scn_ingested_j${jobs}.json" >/dev/null 2>&1
done
if ! diff -u "$out/scn_ingested_j1.json" "$out/scn_ingested_j8.json"; then
  echo "FAIL: ingested-trace sweep report differs between --jobs 1 and --jobs 8" >&2
  exit 1
fi
if ! grep -q '"family": "ingested"' "$out/scn_ingested_j1.json"; then
  echo "FAIL: externally-ingested replay report lacks the ingested coverage family" >&2
  exit 1
fi
echo "ingest round-trip byte-identical; ingested sweep byte-identical at --jobs 1/8 and covered as 'ingested'"

# Sweep-smoke gate: one reduced all_experiments pass (every figure, its
# cells planned as one deduplicated sweep) at --jobs 1 and --jobs 8, whose
# reports must be byte-identical, the reduced resilience sweep, a
# drishti-sim multi-policy sweep and the 1-to-4-chip scaling ladder must
# each run every cell (a failed cell or figure exits 1). Their reports
# stay in $out for upload if a step fails. Skipped under --quick, whose
# debug binaries would take minutes.
if [[ $quick -eq 0 ]]; then
  step "sweep-smoke gate (all_experiments --jobs 1/8 byte-diff, resilience, CLI sweep, scaling ladder)"
  smoke_args=(--mixes 2 --cores 8 --accesses 20000)
  for jobs in 1 8; do
    target/release/all_experiments "${smoke_args[@]}" --jobs "$jobs" \
      --report "$out/all_j${jobs}.json" >/dev/null
  done
  if ! diff -u "$out/all_j1.json" "$out/all_j8.json"; then
    echo "FAIL: all_experiments report differs between --jobs 1 and --jobs 8" >&2
    exit 1
  fi
  target/release/resilience --accesses 20000 --report "$out/resilience_smoke.json" >/dev/null
  "$sim" --cores 4 --mix homo:mcf --policy hawkeye,mockingjay --org baseline,drishti \
    --accesses 20000 --warmup 5000 --report "$out/cli_sweep_smoke.json" >/dev/null
  "$scaling" --mixes 1 --accesses 20000 --report "$out/scaling_ladder.json" >/dev/null
  echo "all_experiments reports byte-identical; every sweep ran every cell"
fi

if [[ $quick -eq 0 ]]; then
  step "release-mode oracle/golden/telemetry/scheduler/scenario tests"
  cargo test -q --offline --release --test oracle --test golden --test telemetry \
    --test scheduler --test scenarios --test ingest
fi

# The benchmark package declares its own [workspace], so --workspace never
# builds it; its tests pin the simulator API it drives.
step "drishti-benchmark tests"
cargo test -q --offline --manifest-path drishti-benchmark/Cargo.toml

# Benchmark fingerprint gate: one trial of every drishti-benchmark
# workload at the default seed and sizes checks each op against the
# fingerprints pinned in drishti-benchmark/expected.txt. The traced pass
# (--trace 1) then checks, on all four workloads at the same sizes, that a
# saved and restored checkpoint resumes to the uninterrupted result and
# that run_sweep_resumable's outputs equal the same jobs run serially.
# Any failure exits 1. Results, layers.json and the Perfetto trace.json
# land in target/benchmark/. About 135 s on 2 CPUs (70 s untraced).
# Skipped under ci.sh --quick.
if [[ $quick -eq 0 ]]; then
  step "drishti-benchmark --trials 1 --trace 1 (pinned fingerprints, traced probes)"
  cargo run -q --release --offline --manifest-path drishti-benchmark/Cargo.toml -- \
    --trials 1 --trace 1
fi

rm -rf "$out"
step "OK"
