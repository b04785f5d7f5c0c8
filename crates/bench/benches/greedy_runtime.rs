//! Benchmark backing Fig. 5: one greedy protector selection at budget
//! k = 5 per algorithm, scalable `-R` implementations on the Arenas-email
//! substitute (plain variants are covered by `ablation_evaluators`).
//!
//! A second group scores CT/WT with many targets: 1,000 random targets on
//! a Holme–Kim 20k graph (rectri, TBD division, budget 100). There every
//! round probes thousands of candidates against a 1,000-target open set,
//! so per-target scoring cost dominates; the 20-target cases hide it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tpp_core::{
    ct_greedy, divide_budget, sgb_greedy, wt_greedy, BudgetDivision, GreedyConfig, TppInstance,
};
use tpp_datasets::arenas_email_like;
use tpp_motif::Motif;

fn bench_greedy(c: &mut Criterion) {
    let instance = TppInstance::with_random_targets(arenas_email_like(1), 20, 7);
    let k = 5;
    let mut group = c.benchmark_group("greedy_runtime");
    group.sample_size(20);
    for motif in Motif::ALL {
        let cfg = GreedyConfig::scalable(motif);
        group.bench_with_input(BenchmarkId::new("sgb_r", motif.name()), &motif, |b, _| {
            b.iter(|| black_box(sgb_greedy(&instance, k, &cfg)));
        });
        let budgets = divide_budget(BudgetDivision::Tbd, k, &instance, motif);
        group.bench_with_input(
            BenchmarkId::new("ct_r_tbd", motif.name()),
            &motif,
            |b, _| {
                b.iter(|| black_box(ct_greedy(&instance, &budgets, &cfg).unwrap()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("wt_r_tbd", motif.name()),
            &motif,
            |b, _| {
                b.iter(|| black_box(wt_greedy(&instance, &budgets, &cfg).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_many_targets(c: &mut Criterion) {
    let g = tpp_graph::generators::holme_kim(20_000, 4, 0.4, 1);
    let instance = TppInstance::with_random_targets(g, 1_000, 1);
    let motif = Motif::RecTri;
    let cfg = GreedyConfig::scalable(motif);
    let budgets = divide_budget(BudgetDivision::Tbd, 100, &instance, motif);
    let mut group = c.benchmark_group("greedy_runtime_hk20k_1000_targets");
    group.sample_size(10);
    group.bench_function("ct_r_tbd_k100", |b| {
        b.iter(|| black_box(ct_greedy(&instance, &budgets, &cfg).unwrap()));
    });
    group.bench_function("wt_r_tbd_k100", |b| {
        b.iter(|| black_box(wt_greedy(&instance, &budgets, &cfg).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_many_targets);
criterion_main!(benches);
