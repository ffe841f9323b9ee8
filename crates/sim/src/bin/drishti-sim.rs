//! `drishti-sim`: command-line driver for one-off simulations.
//!
//! ```text
//! drishti-sim --cores 16 --policy mockingjay --org drishti --mix homo:mcf
//! drishti-sim --cores 8 --policy hawkeye --org baseline --mix hetero:3 \
//!             --accesses 200000 --l2-kib 1024 --llc-mib 4 --channels 2
//! drishti-sim --cores 8 --policy mockingjay --org drishti \
//!             --drop-pct 5 --fault-seed 42 --jitter 4 --dram-outage 0:50000:5000
//! drishti-sim --cores 8 --policy hawkeye,mockingjay --org baseline,drishti \
//!             --jobs 4 --report target/sweep/quick.json
//! ```
//!
//! With a single `(policy, org)` cell and no `--report`, prints per-core
//! IPC, LLC/DRAM statistics, predictor-fabric traffic and the uncore
//! energy breakdown for the requested configuration. With fault injection
//! enabled it also reports the resilience counters (drops, retries,
//! fallbacks, re-steers).
//!
//! `--policy` and `--org` also accept comma-separated lists: every
//! `(policy, org)` combination becomes one cell of a parallel sweep
//! (`--jobs N` workers, 0 = one per CPU), printed as a compact table and
//! optionally written as a deterministic JSON report via `--report`.
//!
//! Argument handling never panics: every malformed or inconsistent input
//! exits with status 2 and an actionable message. A sweep cell that fails
//! internally exits with status 1 after reporting every failed cell.

use drishti_core::config::DrishtiConfig;
use drishti_noc::faults::{FaultConfig, OutageWindow};
use drishti_noc::topology::{ChipLinkConfig, TopologyConfig};
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::runner::{run_with_workloads_checkpointed, RunCkpt, RunConfig};
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::sweep::report::{SweepReport, SweepTiming};
use drishti_sim::sweep::{journal, run_sweep, run_sweep_resumable, JobKind, SweepJob};
use drishti_sim::telemetry::{TelemetrySpec, DEFAULT_EPOCH_STEPS};
use drishti_trace::ingest;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use drishti_trace::replay::TraceCache;
use drishti_trace::store::{StreamingTrace, TraceWriter};
use drishti_trace::WorkloadGen;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USAGE: &str = "usage: drishti-sim [--cores N] [--policy P[,P...]] [--org O[,O...]] [--mix M]
       [--accesses N] [--warmup N] [--l2-kib K] [--llc-mib M] [--channels C]
       [--jobs N] [--report PATH] [--resume]
       [--save PATH] [--restore PATH] [--checkpoint-every N]
       [--record PREFIX | --trace-file PREFIX]
       [--sample-interval N] [--sample-warmup N]
       [--telemetry] [--epoch N] [--check-invariants]
       [--fault-seed S] [--drop-pct F] [--jitter J]
       [--link-outage PERIOD:LEN] [--dram-outage CH:START:LEN]...
       [--chips N] [--chip-link-latency C] [--chip-link-serialization C]
       [--ingest INPUT [--ingest-out PATH]] [--ingest-demo PATH]
  P: lru srrip dip drrip sdbp ship++ hawkeye mockingjay glider chrome
  O: baseline drishti global-view dsc-only centralized mesh
  M: homo:<bench> | hetero:<seed> | dc:<seed>
     (bench: mcf xalan lbm gcc ... plus scenario presets phase-mcf-lbm
      phase-xalan-pr phase-server-batch adv-scatter; dc:<seed> builds the
      datacenter consolidation mix — server cores plus batch thrashers)
  sweeps: comma-separated --policy/--org lists run every combination as a
  parallel sweep on --jobs workers (0 = one per CPU); --report writes the
  deterministic JSON report (plus a .timing.json sidecar) to PATH.
  crash recovery: sweeps with --report journal completed cells to
  PATH.journal; after a crash, re-running with --resume simulates only the
  unfinished cells and produces a byte-identical report. Single runs take
  --save PATH to write a drishti-ckpt/v5 engine checkpoint at completion
  (with --checkpoint-every N, also every N engine steps, atomically), and
  --restore PATH to continue a checkpointed run; a restored run's results
  are bit-identical to an uninterrupted one.
  traces: --record writes each core's stream to PREFIX.coreNN.drtr
  (drishti-trace/v1) before running; --trace-file replays such files
  instead of generating (recorded traces must match the mix's
  benchmarks/seeds and hold >= warmup+accesses records; replay is
  bit-identical to generation). External traces — header names matching
  no built-in benchmark, e.g. ingested ChampSim files — skip the
  name/seed checks, wrap around when shorter than the run, and label the
  report's scenario_coverage table `ingested`. Every run and sweep cell
  streams its files from disk, one decoded frame resident per core.
  ingest: --ingest INPUT converts a ChampSim-format trace losslessly to
  drishti-trace/v1 (--ingest-out PATH, default INPUT with a .drtr
  extension) and exits; replay it with --trace-file. --ingest-demo PATH
  writes a small synthetic ChampSim-format file (a deterministic
  fixture for smoke tests) and exits.
  sampling: --sample-interval P fast-forwards most of each P-record
  period, warms the hierarchy for the --sample-warmup records before the
  detailed window (the last P/10 records), and measures only there;
  reported counts are sampled, ratios (IPC, MPKI) comparable to full runs.
  telemetry: --telemetry samples per-core/slice/NoC/DRAM counters every
  --epoch engine steps (default 5000; --epoch implies --telemetry) into a
  drishti-telemetry/v1 timeline — printed as a per-epoch table for single
  runs, written as <report>.cellNNN.timeline.json files for sweeps;
  --check-invariants runs the counter invariant checkers in release too.
  faults: --drop-pct is a percentage (0..=100) of uncore messages lost,
  --jitter a max per-message latency jitter in cycles, --link-outage a
  recurring link blackout, --dram-outage a one-shot channel blackout
  window (repeatable). --fault-seed makes the fault stream reproducible.
  topology: --chips N splits the tiles over N chips (default 1), each its
  own mesh, joined by serializing inter-chip links; N must divide --cores.
  --chip-link-latency / --chip-link-serialization set the per-hop head
  latency and cycles-per-flit of those links (defaults 32 and 4). NOCSTAR
  stays intra-chip: cross-chip predictor traffic pays the inter-chip
  segment. --chips 1 is bit-identical to a flat single-chip run.";

/// Most LLC-slice plus L2 lines a simulated machine may hold: 32× the
/// 256-core scaling study's LLC.
const MAX_CACHE_LINES: usize = 1 << 28;

/// Everything the CLI accepts, fully validated.
struct CliArgs {
    cores: usize,
    policies: Vec<PolicyKind>,
    orgs: Vec<String>,
    mix_spec: String,
    accesses: u64,
    warmup: u64,
    l2_kib: usize,
    llc_mib: usize,
    channels: Option<usize>,
    jobs: usize,
    report: Option<PathBuf>,
    resume: bool,
    save: Option<PathBuf>,
    restore: Option<PathBuf>,
    checkpoint_every: u64,
    record: Option<PathBuf>,
    trace_file: Option<PathBuf>,
    sample_interval: u64,
    sample_warmup: u64,
    telemetry: bool,
    epoch: u64,
    check_invariants: bool,
    faults: FaultConfig,
    chips: usize,
    chip_link: ChipLinkConfig,
    ingest: Option<PathBuf>,
    ingest_out: Option<PathBuf>,
    ingest_demo: Option<PathBuf>,
}

impl CliArgs {
    /// The telemetry spec these flags describe.
    fn telemetry_spec(&self) -> TelemetrySpec {
        if !self.telemetry {
            return TelemetrySpec::off();
        }
        TelemetrySpec {
            epoch_steps: if self.epoch == 0 {
                DEFAULT_EPOCH_STEPS
            } else {
                self.epoch
            },
            check_invariants: self.check_invariants,
        }
    }

    /// The sampling schedule these flags describe (validated in
    /// `parse_args`).
    fn sampling_spec(&self) -> SamplingSpec {
        SamplingSpec::every(self.sample_interval, self.sample_warmup)
    }

    /// Records each core pulls: warmup plus measured accesses.
    fn span(&self) -> u64 {
        self.warmup + self.accesses
    }

    /// The multi-chip topology these flags describe (validated in
    /// `parse_args`).
    fn topology(&self) -> TopologyConfig {
        TopologyConfig {
            chips: self.chips,
            link: self.chip_link,
        }
    }
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            cores: 8,
            policies: vec![PolicyKind::Mockingjay],
            orgs: vec!["baseline".to_string()],
            mix_spec: "homo:mcf".to_string(),
            accesses: 100_000,
            warmup: 25_000,
            l2_kib: 512,
            llc_mib: 2,
            channels: None,
            jobs: 0,
            report: None,
            resume: false,
            save: None,
            restore: None,
            checkpoint_every: 0,
            record: None,
            trace_file: None,
            sample_interval: 0,
            sample_warmup: 0,
            telemetry: false,
            epoch: 0,
            check_invariants: false,
            faults: FaultConfig::none(),
            chips: 1,
            chip_link: ChipLinkConfig::default(),
            ingest: None,
            ingest_out: None,
            ingest_demo: None,
        }
    }
}

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    PolicyKind::all()
        .into_iter()
        .find(|p| p.label() == s)
        .ok_or_else(|| {
            let known: Vec<_> = PolicyKind::all().iter().map(|p| p.label()).collect();
            format!("unknown policy `{s}` (known: {})", known.join(" "))
        })
}

fn parse_bench(s: &str) -> Result<Benchmark, String> {
    Benchmark::from_label(s).ok_or_else(|| format!("unknown benchmark `{s}`"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag} needs a number, got `{s}`"))
}

/// `CH:START:LEN` → a one-shot DRAM channel outage window.
fn parse_dram_outage(s: &str) -> Result<OutageWindow, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [ch, start, len] = parts.as_slice() else {
        return Err(format!("--dram-outage wants CH:START:LEN, got `{s}`"));
    };
    Ok(OutageWindow {
        channel: parse_num("--dram-outage channel", ch)?,
        start: parse_num("--dram-outage start", start)?,
        len: parse_num("--dram-outage len", len)?,
    })
}

/// `PERIOD:LEN` → a recurring link blackout.
fn parse_link_outage(s: &str) -> Result<(u64, u64), String> {
    let (period, len) = s
        .split_once(':')
        .ok_or_else(|| format!("--link-outage wants PERIOD:LEN, got `{s}`"))?;
    Ok((
        parse_num("--link-outage period", period)?,
        parse_num("--link-outage len", len)?,
    ))
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut cli = CliArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err(String::new()); // usage-only exit
        }
        // Value-less flags, handled before the value extraction below.
        match flag {
            "--telemetry" => {
                cli.telemetry = true;
                i += 1;
                continue;
            }
            "--check-invariants" => {
                cli.check_invariants = true;
                i += 1;
                continue;
            }
            "--resume" => {
                cli.resume = true;
                i += 1;
                continue;
            }
            _ => {}
        }
        let val = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--cores" => cli.cores = parse_num(flag, val)?,
            "--policy" => {
                cli.policies = val
                    .split(',')
                    .map(parse_policy)
                    .collect::<Result<Vec<_>, _>>()?
            }
            "--org" => cli.orgs = val.split(',').map(str::to_string).collect(),
            "--mix" => cli.mix_spec = val.clone(),
            "--accesses" => cli.accesses = parse_num(flag, val)?,
            "--warmup" => cli.warmup = parse_num(flag, val)?,
            "--l2-kib" => cli.l2_kib = parse_num(flag, val)?,
            "--llc-mib" => cli.llc_mib = parse_num(flag, val)?,
            "--channels" => cli.channels = Some(parse_num(flag, val)?),
            "--jobs" => cli.jobs = parse_num(flag, val)?,
            "--report" => cli.report = Some(PathBuf::from(val)),
            "--save" => cli.save = Some(PathBuf::from(val)),
            "--restore" => cli.restore = Some(PathBuf::from(val)),
            "--checkpoint-every" => cli.checkpoint_every = parse_num(flag, val)?,
            "--record" => cli.record = Some(PathBuf::from(val)),
            "--trace-file" => cli.trace_file = Some(PathBuf::from(val)),
            "--sample-interval" => cli.sample_interval = parse_num(flag, val)?,
            "--sample-warmup" => cli.sample_warmup = parse_num(flag, val)?,
            "--epoch" => {
                cli.epoch = parse_num(flag, val)?;
                cli.telemetry = true; // an explicit epoch implies telemetry
            }
            "--fault-seed" => cli.faults.seed = parse_num(flag, val)?,
            "--drop-pct" => cli.faults.drop_pct = parse_num(flag, val)?,
            "--jitter" => cli.faults.jitter = parse_num(flag, val)?,
            "--link-outage" => {
                let (period, len) = parse_link_outage(val)?;
                cli.faults.link_outage_period = period;
                cli.faults.link_outage_len = len;
            }
            "--dram-outage" => cli.faults.dram_outages.push(parse_dram_outage(val)?),
            "--chips" => cli.chips = parse_num(flag, val)?,
            "--chip-link-latency" => cli.chip_link.latency = parse_num(flag, val)?,
            "--chip-link-serialization" => cli.chip_link.serialization = parse_num(flag, val)?,
            "--ingest" => cli.ingest = Some(PathBuf::from(val)),
            "--ingest-out" => cli.ingest_out = Some(PathBuf::from(val)),
            "--ingest-demo" => cli.ingest_demo = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }

    // Cross-flag consistency: catch impossible runs before they start.
    if cli.ingest_out.is_some() && cli.ingest.is_none() {
        return Err("--ingest-out needs --ingest INPUT".to_string());
    }
    if cli.cores == 0 {
        return Err("--cores must be at least 1".to_string());
    }
    if cli.policies.is_empty() {
        return Err("--policy needs at least one policy".to_string());
    }
    if cli.orgs.is_empty() {
        return Err("--org needs at least one organisation".to_string());
    }
    if cli.accesses == 0 {
        return Err("--accesses must be at least 1".to_string());
    }
    if cli.warmup >= cli.accesses {
        return Err(format!(
            "--warmup ({}) must be smaller than --accesses ({}); nothing would be measured",
            cli.warmup, cli.accesses
        ));
    }
    // Set counts are KiB × 2 (L2) and MiB × 1024 (LLC slice) and must be
    // powers of two, so the sizes must be too.
    for (flag, size) in [("--l2-kib", cli.l2_kib), ("--llc-mib", cli.llc_mib)] {
        if !size.is_power_of_two() {
            return Err(format!("{flag} must be a power of two, got {size}"));
        }
    }
    // Every core brings an LLC slice (MiB × 2^14 lines) and an L2 (KiB ×
    // 2^4 lines). Bound the machine's total so an absurd size is a usage
    // error instead of an aborted allocation.
    let lines = cli
        .llc_mib
        .checked_mul(1 << 14)
        .zip(cli.l2_kib.checked_mul(1 << 4))
        .and_then(|(slice, l2)| slice.checked_add(l2))
        .and_then(|per_core| per_core.checked_mul(cli.cores));
    if lines.is_none_or(|n| n > MAX_CACHE_LINES) {
        return Err(format!(
            "--cores {} with --llc-mib {} and --l2-kib {} is too large: more than \
             2^28 simulated cache lines",
            cli.cores, cli.llc_mib, cli.l2_kib
        ));
    }
    if cli.record.is_some() && cli.trace_file.is_some() {
        return Err("--record and --trace-file are mutually exclusive".to_string());
    }
    let sweep_mode = cli.policies.len() > 1 || cli.orgs.len() > 1 || cli.report.is_some();
    if cli.checkpoint_every > 0 && cli.save.is_none() {
        return Err(
            "--checkpoint-every needs --save PATH as the checkpoint destination".to_string(),
        );
    }
    if sweep_mode && (cli.save.is_some() || cli.restore.is_some()) {
        return Err(
            "--save/--restore checkpoint a single run; for sweeps use --report with --resume"
                .to_string(),
        );
    }
    if cli.resume && cli.report.is_none() {
        return Err("--resume needs --report PATH (the journal lives at PATH.journal)".to_string());
    }
    if cli.restore.is_some() && cli.sampling_spec().enabled() {
        return Err("--restore does not support sampled runs; drop --sample-interval".to_string());
    }
    cli.sampling_spec().validate()?;
    if cli.channels == Some(0) {
        return Err("--channels must be at least 1".to_string());
    }
    if cli.telemetry && cli.epoch == 0 && cli.accesses < DEFAULT_EPOCH_STEPS {
        // Not an error — the final partial epoch is always flushed — but a
        // custom epoch usually gives a more useful timeline.
        eprintln!(
            "note: default epoch ({DEFAULT_EPOCH_STEPS} steps) is coarse for --accesses {}; \
             consider --epoch",
            cli.accesses
        );
    }
    cli.faults.validate()?;
    cli.topology()
        .validate(cli.cores)
        .map_err(|e| format!("--chips: {e}"))?;
    if let Some(ch) = cli.channels {
        if let Some(w) = cli.faults.dram_outages.iter().find(|w| w.channel >= ch) {
            return Err(format!(
                "--dram-outage names channel {} but only {ch} channel(s) exist",
                w.channel
            ));
        }
    }
    Ok(cli)
}

fn build_mix(cli: &CliArgs) -> Result<Mix, String> {
    match cli.mix_spec.split_once(':') {
        Some(("homo", bench)) => Ok(Mix::homogeneous(parse_bench(bench)?, cli.cores, 1)),
        Some(("hetero", seed)) => Ok(Mix::heterogeneous(
            &Benchmark::spec_and_gap(),
            cli.cores,
            parse_num("--mix hetero seed", seed)?,
        )),
        Some(("dc", seed)) => Ok(drishti_trace::scenario::datacenter_mix(
            cli.cores,
            parse_num("--mix dc seed", seed)?,
        )),
        _ => Err(format!(
            "--mix wants homo:<bench>, hetero:<seed> or dc:<seed>, got `{}`",
            cli.mix_spec
        )),
    }
}

fn build_org(cli: &CliArgs, org: &str) -> Result<DrishtiConfig, String> {
    const KNOWN: &str = "baseline drishti global-view dsc-only centralized mesh";
    let cfg = match org {
        "baseline" => DrishtiConfig::baseline(cli.cores),
        "drishti" => DrishtiConfig::drishti(cli.cores),
        "global-view" => DrishtiConfig::global_view_only(cli.cores),
        "dsc-only" => DrishtiConfig::dsc_only(cli.cores),
        "centralized" => DrishtiConfig::centralized(cli.cores),
        "mesh" => DrishtiConfig::drishti_without_nocstar(cli.cores),
        other => return Err(format!("unknown org `{other}` (known: {KNOWN})")),
    };
    // The predictor fabric degrades under the same fault stream as the
    // rest of the uncore, and sees the same chip boundaries as the demand
    // interconnect.
    let mut cfg = cfg.with_faults(cli.faults.clone()).with_chips(cli.chips);
    cfg.chip_link = cli.chip_link;
    Ok(cfg)
}

fn run_config(cli: &CliArgs) -> RunConfig {
    let mut system = SystemConfig::paper_baseline(cli.cores);
    system.l2 = drishti_mem::cache::CacheConfig::l2_with_kib(cli.l2_kib);
    system.llc = drishti_mem::llc::LlcGeometry::per_core_mib(cli.cores, cli.llc_mib);
    if let Some(ch) = cli.channels {
        system.dram = drishti_mem::dram::DramConfig::with_channels(ch);
    }
    system.faults = cli.faults.clone();
    system.topology = cli.topology();
    RunConfig {
        system,
        accesses_per_core: cli.accesses,
        warmup_accesses: cli.warmup,
        record_llc_stream: false,
        sampling: cli.sampling_spec(),
        telemetry: cli.telemetry_spec(),
    }
}

/// Per-core trace file path under a `--record`/`--trace-file` prefix.
fn core_trace_path(prefix: &Path, core: usize) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push(format!(".core{core:02}.drtr"));
    PathBuf::from(s)
}

/// `--record`: write each core's stream (warmup + accesses records) to
/// `PREFIX.coreNN.drtr`, streaming records from the generator into the
/// writer.
fn record_traces(cli: &CliArgs, mix: &Mix) -> Result<(), String> {
    let prefix = cli.record.as_ref().expect("caller checked --record");
    if let Some(dir) = prefix.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    for c in 0..mix.cores() {
        let (bench, seed) = (mix.benchmarks[c], mix.seeds[c]);
        let path = core_trace_path(prefix, c);
        let mut gen = bench.build(seed);
        let written = TraceWriter::create(&path, bench.label(), seed)
            .and_then(|mut w| {
                for _ in 0..cli.span() {
                    w.push(gen.next_record())?;
                }
                w.finish()
            })
            .map_err(|e| format!("recording {}: {e}", path.display()))?;
        eprintln!("recorded: {} ({written} records)", path.display());
    }
    Ok(())
}

/// Validates one `--trace-file` header against the mix slot it will
/// drive. Returns whether the trace is *external*: a header name that
/// matches no built-in benchmark (an ingested ChampSim trace, or one
/// recorded by another tool) cannot satisfy the name/seed contract by
/// construction, so those checks don't apply — the trace is replayed
/// as-is on this core, wrapping around if it is shorter than the run.
/// Recorded traces of built-in benchmarks keep the strict checks: a
/// mismatch there means the file silently drives a different workload
/// than the mix claims, which must be a hard error, not a footgun.
fn check_trace_meta(
    path: &Path,
    meta: &drishti_trace::store::TraceMeta,
    bench: Benchmark,
    seed: u64,
    span: u64,
) -> Result<bool, String> {
    if Benchmark::from_label(&meta.name).is_none() {
        eprintln!(
            "note: {} is an external trace (`{}`, {} records); replacing \
             this core's `{}` workload",
            path.display(),
            meta.name,
            meta.records,
            bench.label()
        );
        if meta.records < span {
            eprintln!(
                "note: {} holds {} records, run needs {span}; the trace \
                 wraps around (bit-identical to streaming replay)",
                path.display(),
                meta.records
            );
        }
        return Ok(true);
    }
    if meta.name != bench.label() {
        return Err(format!(
            "{}: trace is `{}` but the mix wants `{}` on this core; \
             point --trace-file at the matching recording or change --mix",
            path.display(),
            meta.name,
            bench.label()
        ));
    }
    if meta.seed != seed {
        return Err(format!(
            "{}: trace seed {} does not match the mix seed {seed}; \
             re-record with this mix or adjust the mix spec",
            path.display(),
            meta.seed
        ));
    }
    if meta.records < span {
        return Err(format!(
            "{}: trace holds {} records but the run needs {span} \
             (warmup + accesses); re-record with matching lengths",
            path.display(),
            meta.records
        ));
    }
    Ok(false)
}

/// Opens core `c`'s `--trace-file`, which validates it (refusing a
/// zero-record file), and checks its header against the mix slot it will
/// drive. Returns the file, its stream and whether the trace is external.
fn open_trace_file(
    cli: &CliArgs,
    mix: &Mix,
    c: usize,
) -> Result<(PathBuf, StreamingTrace, bool), String> {
    let path = core_trace_path(cli.trace_file.as_ref().expect("caller checked"), c);
    let stream = StreamingTrace::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (bench, seed) = (mix.benchmarks[c], mix.seeds[c]);
    let external = check_trace_meta(&path, stream.meta(), bench, seed, cli.span())?;
    Ok((path, stream, external))
}

/// `--trace-file`, single-run mode: one bounded-memory [`StreamingTrace`]
/// per core.
fn open_streaming_workloads(
    cli: &CliArgs,
    mix: &Mix,
) -> Result<Vec<Option<Box<dyn WorkloadGen>>>, String> {
    (0..mix.cores())
        .map(|c| {
            let (_, stream, _) = open_trace_file(cli, mix, c)?;
            Ok(Some(Box::new(stream) as Box<dyn WorkloadGen>))
        })
        .collect()
}

/// `--trace-file`, sweep mode: validate every core's file once, up front,
/// and register it with the sweep's trace source, whose replays stream it
/// as a single run does (an external trace shorter than the span wraps).
/// Returns the source and whether any trace is external (the report's
/// coverage table is then relabelled `ingested`).
fn trace_file_source(cli: &CliArgs, mix: &Mix) -> Result<(TraceCache, bool), String> {
    let mut cache = TraceCache::new();
    let mut any_external = false;
    for c in 0..mix.cores() {
        let (path, _, external) = open_trace_file(cli, mix, c)?;
        any_external |= external;
        cache.add_file(mix.benchmarks[c], mix.seeds[c], path);
    }
    Ok((cache, any_external))
}

/// Number of instructions in the `--ingest-demo` fixture: big enough to
/// span several `.drtr` frames after conversion, small enough that the CI
/// smoke gate's round-trip is instant.
const INGEST_DEMO_INSTRUCTIONS: usize = 4_096;

/// `--ingest` / `--ingest-demo`: standalone trace-conversion modes; the
/// process exits after them without simulating.
fn run_ingest(cli: &CliArgs) -> Result<(), String> {
    if let Some(out) = &cli.ingest_demo {
        let bytes = ingest::synthesize_demo(INGEST_DEMO_INSTRUCTIONS, 0xD311);
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(out, &bytes).map_err(|e| format!("writing {}: {e}", out.display()))?;
        println!(
            "demo ChampSim trace: {} ({INGEST_DEMO_INSTRUCTIONS} instructions, {} bytes)",
            out.display(),
            bytes.len()
        );
    }
    if let Some(input) = &cli.ingest {
        let out = cli
            .ingest_out
            .clone()
            .unwrap_or_else(|| input.with_extension("drtr"));
        let stats = ingest::ingest_champsim(input, &out)
            .map_err(|e| format!("ingesting {}: {e}", input.display()))?;
        println!(
            "ingested: {} -> {} ({} instructions, {} records: {} loads + {} stores)",
            input.display(),
            out.display(),
            stats.instructions,
            stats.records,
            stats.loads,
            stats.stores
        );
    }
    Ok(())
}

/// Detailed single-cell output (the classic `drishti-sim` report).
fn run_single(cli: &CliArgs) -> Result<(), String> {
    let mix = build_mix(cli)?;
    let drishti = build_org(cli, &cli.orgs[0])?;
    let rc = run_config(cli);
    let policy = cli.policies[0];

    let chips = if cli.chips > 1 {
        format!(" chips={}", cli.chips)
    } else {
        String::new()
    };
    println!(
        "mix={} policy={} org={} cores={}{chips} llc={}MB/core l2={}KB",
        mix.name,
        policy.label(),
        cli.orgs[0],
        cli.cores,
        cli.llc_mib,
        cli.l2_kib
    );
    if !cli.faults.is_noop() {
        println!(
            "faults: seed={} drop={}% jitter={} link-outage={}/{} dram-outages={}",
            cli.faults.seed,
            cli.faults.drop_pct,
            cli.faults.jitter,
            cli.faults.link_outage_len,
            cli.faults.link_outage_period,
            cli.faults.dram_outages.len()
        );
    }
    if rc.sampling.enabled() {
        println!(
            "sampling: interval={} warmup={} detailed={} — measuring {}/{} records (scale ×{:.1})",
            rc.sampling.interval,
            rc.sampling.warmup,
            rc.sampling.detailed_len(),
            rc.sampling.detailed_in(cli.span()),
            cli.span(),
            rc.sampling.scale(cli.span())
        );
    }
    if cli.record.is_some() {
        record_traces(cli, &mix)?;
    }
    let t = std::time::Instant::now();
    let ckpt = RunCkpt {
        restore: cli.restore.as_deref(),
        save: cli.save.as_deref(),
        every: cli.checkpoint_every,
    };
    if let Some(path) = ckpt.restore {
        println!("restoring checkpoint: {}", path.display());
    }
    let workloads = if cli.trace_file.is_some() {
        let workloads = open_streaming_workloads(cli, &mix)?;
        println!("replaying {} on-disk traces (streaming)", mix.cores());
        workloads
    } else {
        mix.build()
            .into_iter()
            .map(|w| Some(Box::new(w) as Box<dyn drishti_trace::WorkloadGen>))
            .collect()
    };
    let r = run_with_workloads_checkpointed(workloads, policy, drishti, &rc, &ckpt)
        .map_err(|e| e.to_string())?;
    if let Some(path) = ckpt.save {
        println!("checkpoint written: {}", path.display());
    }
    println!("\nsimulated in {:.1?}\n", t.elapsed());

    println!("policy reported: {}", r.policy);
    println!("total IPC      : {:.3}", r.total_ipc());
    for (c, cr) in r.per_core.iter().enumerate() {
        println!(
            "  core {c:>2} ({:<10}) IPC {:.3}  MPKI {:.1}",
            mix.benchmarks[c].label(),
            cr.ipc(),
            cr.llc_mpki()
        );
    }
    println!("\nLLC    : {:?}", r.llc);
    println!(
        "DRAM   : reads {} writes {} mean-read-lat {:.0}",
        r.dram.reads,
        r.dram.writes,
        r.dram.mean_read_latency()
    );
    println!(
        "mesh   : msgs {} mean-lat {:.1}",
        r.mesh.messages,
        r.mesh.mean_latency()
    );
    println!(
        "fabric : msgs {} mean-lat {:.1} energy {} pJ",
        r.fabric.messages,
        r.fabric.mean_latency(),
        r.fabric.energy_pj
    );
    println!(
        "energy : LLC {} + NoC {} + DRAM {} + fabric {} = {} µJ",
        r.energy.llc_pj / 1_000_000,
        r.energy.noc_pj / 1_000_000,
        r.energy.dram_pj / 1_000_000,
        r.energy.fabric_pj / 1_000_000,
        r.energy.total_pj() / 1_000_000
    );
    let faults = r.fault_summary();
    if !cli.faults.is_noop() || !faults.is_clean() {
        println!("\nresilience:");
        for (name, value) in faults.entries() {
            println!("  {name:<22} {value}");
        }
    }
    println!("diag   : {:?}", r.diagnostics);
    if let Some(tl) = &r.telemetry {
        println!(
            "\ntelemetry ({} epochs of {} steps):",
            tl.epochs.len(),
            tl.epoch_steps
        );
        println!(
            "{:>6} {:>10} {:>7} {:>7} {:>9} {:>9} {:>8} {:>9}",
            "epoch", "end-step", "IPC", "MPKI", "llc-hits", "llc-miss", "noc-msg", "dram-r/w"
        );
        for e in &tl.epochs {
            let instructions: u64 = e.per_core.iter().map(|c| c.instructions).sum();
            let cycles = e.per_core.iter().map(|c| c.cycles).max().unwrap_or(0);
            let misses: u64 = e.per_core.iter().map(|c| c.llc_misses).sum();
            let ipc = if cycles > 0 {
                instructions as f64 / cycles as f64
            } else {
                0.0
            };
            let mpki = if instructions > 0 {
                misses as f64 * 1000.0 / instructions as f64
            } else {
                0.0
            };
            let hits: u64 = e.slices.iter().map(|s| s.hits).sum();
            let slice_misses: u64 = e.slices.iter().map(|s| s.misses).sum();
            let (dr, dw) = e
                .dram
                .iter()
                .fold((0u64, 0u64), |(r, w), c| (r + c.reads, w + c.writes));
            println!(
                "{:>6} {:>10} {:>7.3} {:>7.1} {:>9} {:>9} {:>8} {:>5}/{}",
                e.index, e.end_step, ipc, mpki, hits, slice_misses, e.noc.messages, dr, dw
            );
        }
    }
    Ok(())
}

/// Multi-cell sweep over every `(policy, org)` combination on one mix.
///
/// Returns the process exit code: cell failures are runtime errors (1),
/// not usage errors (2).
fn run_sweep_cli(cli: &CliArgs) -> Result<i32, String> {
    let mix = build_mix(cli)?;
    let rc = run_config(cli);
    let mut jobs = Vec::new();
    for policy in &cli.policies {
        for org in &cli.orgs {
            let cfg = build_org(cli, org)?;
            let id = jobs.len();
            jobs.push(SweepJob {
                id,
                label: format!("{}/{}/{org}", mix.name, policy.label()),
                seed: SweepJob::derive_seed(id),
                rc: rc.clone(),
                kind: JobKind::Run {
                    mix: mix.clone(),
                    policy: *policy,
                    org: cfg,
                    org_label: org.clone(),
                },
            });
        }
    }

    println!(
        "mix={} cores={} cells={} ({} policies × {} orgs)",
        mix.name,
        cli.cores,
        jobs.len(),
        cli.policies.len(),
        cli.orgs.len()
    );
    if cli.record.is_some() {
        record_traces(cli, &mix)?;
    }
    let (cache, external_traces) = if cli.trace_file.is_some() {
        let source = trace_file_source(cli, &mix)?;
        println!("replaying {} on-disk traces (streaming)", mix.cores());
        source
    } else {
        (TraceCache::new(), false)
    };
    let cache = Arc::new(cache);
    // Sweeps with a report destination are journaled beside it so a
    // killed run can continue with --resume; report-less sweeps have no
    // stable place for a journal and run unjournaled.
    let outcome = match &cli.report {
        Some(path) => {
            let journal_file = journal::journal_path(path);
            run_sweep_resumable(&jobs, cli.jobs, &cache, &journal_file, cli.resume)
                .map_err(|e| format!("cannot resume from {}: {e}", journal_file.display()))?
        }
        None => run_sweep(&jobs, cli.jobs, &cache),
    };
    let mut timing = SweepTiming::from_outcome("drishti-sim", &outcome);

    println!(
        "\n{:<28} {:>8} {:>8} {:>10}",
        "policy/org", "IPC", "MPKI", "energy µJ"
    );
    for (job, out) in jobs.iter().zip(&outcome.outputs) {
        match out {
            Ok(o) => {
                let r = o.unwrap_run();
                println!(
                    "{:<28} {:>8.3} {:>8.1} {:>10}",
                    format!(
                        "{}/{}",
                        job.label.rsplit('/').nth(1).unwrap_or("?"),
                        job.label.rsplit('/').next().unwrap_or("?")
                    ),
                    r.total_ipc(),
                    r.llc_mpki(),
                    r.energy.total_pj() / 1_000_000
                );
            }
            Err(f) => println!("{:<28} FAILED: {}", job.label, f.message),
        }
    }
    eprintln!("{}", timing.line());

    if let Some(path) = &cli.report {
        let mut report = SweepReport::from_outcome("drishti-sim", &jobs, &outcome);
        if external_traces {
            report.mark_ingested();
        }
        report.config.push(("mix".to_string(), mix.name.clone()));
        report
            .config
            .push(("cores".to_string(), cli.cores.to_string()));
        report
            .config
            .push(("accesses".to_string(), cli.accesses.to_string()));
        report
            .write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        // Timeline file names live in the host-dependent timing sidecar so
        // the main report stays byte-comparable with telemetry on or off.
        timing.attach_timelines(&report, path);
        let tpath = timing
            .write_beside(path)
            .map_err(|e| format!("writing timing sidecar: {e}"))?;
        eprintln!("report: {}", path.display());
        eprintln!("timing: {}", tpath.display());
        for (id, _) in &report.timelines {
            eprintln!(
                "timeline: {}",
                drishti_sim::sweep::report::timeline_path(path, *id).display()
            );
        }
    }

    let failures = outcome.failures();
    if !failures.is_empty() {
        // The journal (if any) is deliberately kept: completed cells can
        // be reused with --resume after the failure is fixed.
        eprintln!("error: {} sweep cell(s) failed", failures.len());
        return Ok(1);
    }
    if let Some(path) = &cli.report {
        // Clean completion: the report supersedes the journal.
        journal::remove_on_success(path)
            .map_err(|e| format!("removing journal beside {}: {e}", path.display()))?;
    }
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                // --help: requested output, so stdout (errors go to stderr)
                println!("{USAGE}");
                std::process::exit(0);
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.ingest.is_some() || cli.ingest_demo.is_some() {
        if let Err(msg) = run_ingest(&cli) {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
        return;
    }
    let single_cell = cli.policies.len() == 1 && cli.orgs.len() == 1;
    if single_cell && cli.report.is_none() {
        if let Err(msg) = run_single(&cli) {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    } else {
        match run_sweep_cli(&cli) {
            Ok(code) => std::process::exit(code),
            Err(msg) => {
                eprintln!("error: {msg}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drishti_trace::store::write_trace;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cache_sizes_must_be_powers_of_two() {
        for args in [["--llc-mib", "3"], ["--l2-kib", "3"], ["--l2-kib", "100"]] {
            let err = parse(&args).err().expect("non-power-of-two size accepted");
            assert!(err.contains(args[0]) && err.contains(args[1]), "{err}");
        }
        assert!(parse(&["--llc-mib", "4", "--l2-kib", "1024"]).is_ok());
    }

    #[test]
    fn cache_sizes_whose_byte_count_overflows_are_rejected() {
        // Parsing only: none of these machines is built.
        for args in [
            ["--llc-mib", "17592186044416"],
            ["--l2-kib", "9223372036854775808"],
            ["--llc-mib", "1099511627776"],
            ["--l2-kib", "1099511627776"],
            ["--cores", "1099511627776"],
        ] {
            let err = parse(&args).err().expect("overflowing size accepted");
            assert!(err.contains(args[0]) && err.contains(args[1]), "{err}");
        }
    }

    /// A zero-record external trace (an ingested empty ChampSim file) is
    /// refused by the sweep's up-front validation as it is by the
    /// single-run open, instead of wrapping nothing forever.
    #[test]
    fn sweep_refuses_an_empty_external_trace_up_front() {
        let prefix = std::env::temp_dir().join(format!("drishti-sim-empty-{}", std::process::id()));
        let path = core_trace_path(&prefix, 0);
        write_trace(&path, "champsim-empty", 0, &[]).expect("write the empty trace");
        let prefix = prefix.to_str().expect("temp path is UTF-8");
        let cli = parse(&[
            "--cores",
            "1",
            "--mix",
            "homo:mcf",
            "--policy",
            "lru",
            "--org",
            "baseline",
            "--accesses",
            "2000",
            "--warmup",
            "500",
            "--trace-file",
            prefix,
        ])
        .expect("valid arguments");
        let mix = build_mix(&cli).expect("valid mix");
        let outcome = trace_file_source(&cli, &mix);
        let _ = std::fs::remove_file(&path);
        let err = outcome.expect_err("an empty trace was registered");
        assert!(err.contains("trace holds zero records"), "{err}");
    }
}
