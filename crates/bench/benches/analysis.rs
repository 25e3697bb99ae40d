//! Analysis-pipeline benchmarks: the paper's per-stage costs over a
//! generated trace — trace generation, enrichment + categorization, path
//! analysis, interception detection.

use certchain_bench::Lab;
use certchain_chainlab::matchpath::analyze;
use certchain_chainlab::{CrossSignRegistry, Pipeline, PipelineOptions};
use certchain_workload::{CampusProfile, CampusTrace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn tiny_profile() -> CampusProfile {
    // Smaller than `quick` so per-iteration time stays sane under Criterion.
    CampusProfile {
        seed: 7,
        chain_scale: 0.0005,
        conn_scale: 0.00005,
        public_chains: 100,
        public_conns_per_chain: 2,
    }
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group.sample_size(10);
    group.bench_function("generate_tiny_trace", |b| {
        b.iter(|| CampusTrace::generate(tiny_profile()))
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let trace = CampusTrace::generate(tiny_profile());
    let weights: Vec<f64> = trace.conn_meta.iter().map(|m| m.weight).collect();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("full_analysis_tiny_trace", |b| {
        b.iter(|| {
            let pipeline = Pipeline::new(
                &trace.eco.trust,
                &trace.ct_index,
                CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
            );
            pipeline.analyze(&trace.ssl_records, &trace.x509_records, Some(&weights))
        })
    });
    group.finish();
}

/// Unit-weight input, like every CLI path: a weighted batch ingests on
/// one worker, so it would not measure the parallel fold.
fn bench_pipeline_threads(c: &mut Criterion) {
    let trace = CampusTrace::generate(tiny_profile());
    let mut group = c.benchmark_group("pipeline/threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let pipeline = Pipeline::with_options(
                        &trace.eco.trust,
                        &trace.ct_index,
                        CrossSignRegistry::from_disclosures(&trace.cross_sign_disclosures),
                        PipelineOptions {
                            threads,
                            ..PipelineOptions::default()
                        },
                    );
                    pipeline.analyze(&trace.ssl_records, &trace.x509_records, None)
                })
            },
        );
    }
    group.finish();
}

fn bench_trace_generation_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload/threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| b.iter(|| CampusTrace::generate_with(tiny_profile(), threads)),
        );
    }
    group.finish();
}

fn bench_matchpath(c: &mut Criterion) {
    let lab = Lab::new(tiny_profile());
    // Pick a long hybrid chain for a representative path analysis.
    let chain = lab
        .analysis
        .chains
        .iter()
        .max_by_key(|c| c.certs.len())
        .expect("chains exist");
    let registry = CrossSignRegistry::new();
    c.bench_function("matchpath/longest_chain", |b| {
        b.iter(|| analyze(std::hint::black_box(&chain.certs), &registry))
    });
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_pipeline,
    bench_pipeline_threads,
    bench_trace_generation_threads,
    bench_matchpath
);
criterion_main!(benches);
