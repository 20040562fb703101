//! Criterion benchmarks of the measurement + inference pipeline: world
//! materialisation, DNS measurement, scanning, and the four strategies
//! (the ablation DESIGN.md calls out: what does each data source cost?).

use mx_bench::microbench::{black_box, BenchmarkId, Criterion};
use mx_bench::{criterion_group, criterion_main};

use mx_analysis::observe::observe_world;
use mx_corpus::{Dataset, ScenarioConfig, Study};
use mx_infer::{ObservationSet, Pipeline, Strategy};

fn bench_world_build(c: &mut Criterion) {
    let study = Study::generate(ScenarioConfig::small(7));
    c.bench_function("world_materialise_small", |b| {
        b.iter(|| black_box(study.world_at(8)).truth.len())
    });
}

fn bench_measurement(c: &mut Criterion) {
    let study = Study::generate(ScenarioConfig::small(7));
    let world = study.world_at(8);
    c.bench_function("observe_world_small", |b| {
        b.iter(|| black_box(observe_world(&world)).per_dataset.len())
    });
}

fn observation() -> ObservationSet {
    let study = Study::generate(ScenarioConfig::small(7));
    let world = study.world_at(8);
    let data = observe_world(&world);
    data.dataset(Dataset::Alexa).unwrap().clone()
}

fn bench_strategies(c: &mut Criterion) {
    let obs = observation();
    let mut g = c.benchmark_group("inference_strategy");
    for strategy in Strategy::ALL {
        let pipeline = match strategy {
            Strategy::PriorityBased => {
                Pipeline::priority_based(mx_corpus::provider_knowledge(10))
            }
            other => Pipeline::new(other),
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(strategy.label()),
            &obs,
            |b, obs| b.iter(|| black_box(pipeline.run(obs)).domains.len()),
        );
    }
    g.finish();
}

fn bench_cert_grouping(c: &mut Criterion) {
    let obs = observation();
    let psl = mx_psl::PublicSuffixList::builtin();
    c.bench_function("certificate_preprocessing", |b| {
        b.iter(|| black_box(mx_infer::certgroup::preprocess(&obs, &psl)).group_count())
    });
}

/// Thread scaling of the full pipeline over the shared `mx_par` pool.
/// On a single-core host every point degenerates to the serial path.
/// The end-to-end numbers come from the `perfbench/` workloads, which
/// run at width 1.
fn bench_thread_scaling(c: &mut Criterion) {
    let obs = observation();
    let pipeline = Pipeline::priority_based(mx_corpus::provider_knowledge(10));
    let mut g = c.benchmark_group("pipeline_threads");
    for &n in &[1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &obs, |b, obs| {
            b.iter(|| mx_par::install(n, || black_box(pipeline.run(obs)).domains.len()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_world_build,
    bench_measurement,
    bench_strategies,
    bench_cert_grouping,
    bench_thread_scaling
);
criterion_main!(benches);
