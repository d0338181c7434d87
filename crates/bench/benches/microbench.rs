//! Criterion micro-benchmarks for the building blocks of the reproduction:
//! performance-model evaluation, profiling, PARIS planning, ELSA decisions,
//! the DES event loop, MIG placement search, and trace generation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use paris_elsa::dnn::ModelKind;
use paris_elsa::paris::PartitionSnapshot;
use paris_elsa::prelude::*;

fn bench_perf_model(c: &mut Criterion) {
    let perf = PerfModel::new(DeviceSpec::a100());
    let resnet = ModelKind::ResNet50.build();
    let bert = ModelKind::BertBase.build();
    let mut group = c.benchmark_group("perf_model");
    group.bench_function("resnet50_inference_estimate", |b| {
        b.iter(|| black_box(perf.inference(&resnet, black_box(8), ProfileSize::G3)));
    });
    group.bench_function("bert_inference_estimate", |b| {
        b.iter(|| black_box(perf.inference(&bert, black_box(8), ProfileSize::G3)));
    });
    group.finish();
}

fn bench_profiling(c: &mut Criterion) {
    let perf = PerfModel::new(DeviceSpec::a100());
    let mobilenet = ModelKind::MobileNet.build();
    c.bench_function("profile_table_mobilenet_5sizes_32batches", |b| {
        b.iter(|| {
            black_box(ProfileTable::profile(
                &mobilenet,
                &perf,
                &ProfileSize::ALL,
                32,
            ))
        });
    });
}

fn bench_paris_planning(c: &mut Criterion) {
    let perf = PerfModel::new(DeviceSpec::a100());
    let resnet = ModelKind::ResNet50.build();
    let table = ProfileTable::profile(&resnet, &perf, &ProfileSize::ALL, 32);
    let dist = BatchDistribution::paper_default();
    c.bench_function("paris_plan_48gpc_8gpu", |b| {
        b.iter(|| {
            black_box(
                Paris::new(&table, &dist)
                    .plan(GpcBudget::new(48, 8))
                    .unwrap(),
            )
        });
    });
}

fn bench_elsa_decision(c: &mut Criterion) {
    let perf = PerfModel::new(DeviceSpec::a100());
    let resnet = ModelKind::ResNet50.build();
    let table = ProfileTable::profile(&resnet, &perf, &ProfileSize::ALL, 32);
    let elsa = Elsa::new(ElsaConfig::new(table.sla_target_ns(1.5)));
    let mut group = c.benchmark_group("elsa_decision");
    for n in [8usize, 32, 128] {
        let snapshots: Vec<PartitionSnapshot> = (0..n)
            .map(|i| PartitionSnapshot {
                size: ProfileSize::ALL[i % 5],
                queued_work_ns: (i as u64) * 1_000_000,
                remaining_current_ns: 500_000,
            })
            .collect();
        group.bench_function(format!("{n}_partitions"), |b| {
            b.iter(|| black_box(elsa.place(black_box(8), &table, &snapshots)));
        });
    }
    group.finish();
}

fn bench_des_event_loop(c: &mut Criterion) {
    c.bench_function("des_100k_events", |b| {
        b.iter_batched(
            || {
                let mut sim = paris_elsa::des::Simulation::new();
                for i in 0..100_000u64 {
                    sim.schedule_at(SimTime::from_nanos(i * 13 % 1_000_000), i);
                }
                sim
            },
            |mut sim| {
                let mut count = 0u64;
                while let Some((_, v)) = sim.next_event() {
                    count = count.wrapping_add(v);
                }
                black_box(count)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_mig_placement(c: &mut Criterion) {
    use paris_elsa::gpu::{valid_gpu_configurations, GpuLayout};
    c.bench_function("mig_place_4_2_1", |b| {
        b.iter(|| {
            black_box(GpuLayout::place(&[
                ProfileSize::G4,
                ProfileSize::G2,
                ProfileSize::G1,
            ]))
        });
    });
    c.bench_function("mig_enumerate_valid_configs", |b| {
        b.iter(|| black_box(valid_gpu_configurations()));
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let gen = TraceGenerator::new(1_000.0, BatchDistribution::paper_default(), 42);
    c.bench_function("trace_10k_queries", |b| {
        b.iter(|| black_box(gen.generate_count(10_000)));
    });
}

/// The scheduler hot path itself: a dispatch-heavy trace pushed through
/// FIFS and ELSA servers at 8/56/224 partitions, run at `Summary` detail so
/// the loop is allocation-free and the numbers isolate per-query dispatch
/// cost. Uses the same [`paris_bench::dispatch_workload`] configuration as
/// the `bench_server` bin, whose `BENCH_server.json` tracks this quantity
/// across PRs.
fn bench_dispatch_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_path_20k_queries");
    for n in paris_bench::DISPATCH_BENCH_PARTITIONS {
        let (fifs, elsa, trace) = paris_bench::dispatch_workload(n, 20_000, 7);
        for (name, server) in [("fifs", &fifs), ("elsa", &elsa)] {
            group.bench_function(format!("{name}_{n}_partitions"), |b| {
                b.iter(|| {
                    black_box(server.run_stream_sla(
                        trace.iter().copied(),
                        ReportDetail::Summary,
                        server.config().sla_ns,
                    ))
                });
            });
        }
    }
    group.finish();
}

fn bench_server_run(c: &mut Criterion) {
    let bed = Testbed::paper_default(ModelKind::MobileNet);
    let fifs = bed
        .server(DesignPoint::HomogeneousFifs(ProfileSize::G2))
        .unwrap();
    let elsa = bed.server(DesignPoint::ParisElsa).unwrap();
    let trace = TraceGenerator::new(1_000.0, bed.distribution().clone(), 7).generate_for(1.0);
    let mut group = c.benchmark_group("server_run_1s_at_1kqps");
    group.sample_size(20);
    group.bench_function("fifs", |b| {
        b.iter(|| black_box(fifs.run(&trace)));
    });
    group.bench_function("paris_elsa", |b| {
        b.iter(|| black_box(elsa.run(&trace)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_perf_model,
    bench_profiling,
    bench_paris_planning,
    bench_elsa_decision,
    bench_dispatch_path,
    bench_des_event_loop,
    bench_mig_placement,
    bench_trace_generation,
    bench_server_run
);
criterion_main!(benches);
