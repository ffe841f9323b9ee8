//! Criterion end-to-end benchmarks: one miniature simulation per headline
//! configuration (the building block every table/figure binary repeats),
//! timing full engine throughput — cores + caches + NoC + DRAM + policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drishti_core::config::DrishtiConfig;
use drishti_policies::factory::PolicyKind;
use drishti_sim::config::SystemConfig;
use drishti_sim::runner::{run_mix, RunConfig};
use drishti_sim::sampling::SamplingSpec;
use drishti_sim::telemetry::TelemetrySpec;
use drishti_trace::mix::Mix;
use drishti_trace::presets::Benchmark;
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let cores = 4;
    let rc = RunConfig {
        system: SystemConfig::paper_baseline(cores),
        accesses_per_core: 10_000,
        warmup_accesses: 1_000,
        record_llc_stream: false,
        sampling: SamplingSpec::off(),
        telemetry: TelemetrySpec::off(),
    };
    let mix = Mix::homogeneous(Benchmark::Gcc, cores, 1);
    let mut group = c.benchmark_group("end_to_end_4core_gcc");
    group.sample_size(10);
    for (label, pk, cfg) in [
        ("lru", PolicyKind::Lru, DrishtiConfig::baseline(cores)),
        (
            "hawkeye",
            PolicyKind::Hawkeye,
            DrishtiConfig::baseline(cores),
        ),
        (
            "d-hawkeye",
            PolicyKind::Hawkeye,
            DrishtiConfig::drishti(cores),
        ),
        (
            "mockingjay",
            PolicyKind::Mockingjay,
            DrishtiConfig::baseline(cores),
        ),
        (
            "d-mockingjay",
            PolicyKind::Mockingjay,
            DrishtiConfig::drishti(cores),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &pk, |b, &pk| {
            b.iter(|| black_box(run_mix(&mix, pk, cfg.clone(), &rc).total_ipc()));
        });
    }
    group.finish();
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_scaling");
    group.sample_size(10);
    for cores in [4usize, 8] {
        let rc = RunConfig {
            system: SystemConfig::paper_baseline(cores),
            accesses_per_core: 5_000,
            warmup_accesses: 500,
            record_llc_stream: false,
            sampling: SamplingSpec::off(),
            telemetry: TelemetrySpec::off(),
        };
        let mix = Mix::heterogeneous(&Benchmark::spec_and_gap(), cores, 1);
        group.bench_with_input(BenchmarkId::from_parameter(cores), &cores, |b, _| {
            b.iter(|| {
                black_box(
                    run_mix(
                        &mix,
                        PolicyKind::Mockingjay,
                        DrishtiConfig::drishti(cores),
                        &rc,
                    )
                    .total_ipc(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end, bench_scaling);
criterion_main!(benches);
