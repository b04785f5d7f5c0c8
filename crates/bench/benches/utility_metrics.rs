//! Microbenchmark: each Table II utility metric on the Arenas-email
//! substitute (identifies which metrics dominate the Tables III-V cost and
//! justifies the paper's reduced Table V metric set), plus the utility-loss
//! evaluation of a TPP-shaped release: a 50,000-node BA graph with about
//! 1% of its edges deleted, measured from scratch and against a kept
//! baseline of the original.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tpp_bench::fixtures::ba_released_workload;
use tpp_datasets::arenas_email_like;
use tpp_metrics::{
    assortativity, average_clustering, average_core_number, louvain_modularity,
    sampled_path_length, second_largest_laplacian_eigenvalue, triangle_counts, utility_loss,
    UtilityBaseline, UtilityConfig,
};

fn bench_metrics(c: &mut Criterion) {
    let g = arenas_email_like(1);
    let mut group = c.benchmark_group("utility_metrics");
    group.sample_size(10);
    group.bench_function("clustering", |b| {
        b.iter(|| black_box(average_clustering(&g)));
    });
    group.bench_function("triangle_counts", |b| {
        b.iter(|| black_box(triangle_counts(&g)));
    });
    group.bench_function("assortativity", |b| {
        b.iter(|| black_box(assortativity(&g)));
    });
    group.bench_function("core_number", |b| {
        b.iter(|| black_box(average_core_number(&g)));
    });
    group.bench_function("path_length_sampled_64", |b| {
        b.iter(|| black_box(sampled_path_length(&g, 64, 3)));
    });
    group.bench_function("second_eigenvalue", |b| {
        b.iter(|| black_box(second_largest_laplacian_eigenvalue(&g, 3)));
    });
    group.bench_function("louvain_modularity", |b| {
        b.iter(|| black_box(louvain_modularity(&g, 3)));
    });
    group.finish();
}

fn bench_tpp_release(c: &mut Criterion) {
    // 200k edges, 2,000 of them deleted: the shape of a `tpp protect`
    // release (hidden targets plus protectors) on ba_50k.
    let original = tpp_graph::generators::barabasi_albert(50_000, 4, 17);
    let (released, _) = ba_released_workload(50_000, 4, 17, 2_000);
    let config = UtilityConfig::large_graph(1);
    let baseline = UtilityBaseline::new(&original, &config);
    let mut group = c.benchmark_group("utility_loss_ba50k_1pct");
    group.sample_size(10);
    group.bench_function("clustering_original", |b| {
        b.iter(|| black_box(average_clustering(&original)));
    });
    group.bench_function("triangle_counts_original", |b| {
        b.iter(|| black_box(triangle_counts(&original)));
    });
    group.bench_function("utility_loss", |b| {
        b.iter(|| black_box(utility_loss(&original, &released, &config)));
    });
    group.bench_function("baseline_loss", |b| {
        b.iter(|| black_box(baseline.loss(&original, &released)));
    });
    group.finish();
}

criterion_group!(benches, bench_metrics, bench_tpp_release);
criterion_main!(benches);
