//! Criterion benches for the ablation dimensions: polarity-mode cost
//! and SP-engine cost (accuracy is covered by the `ablations` binary;
//! these measure what each choice *costs*).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ser_epp::{EppAnalysis, PolarityMode};
use ser_gen::{iscas89_like, RandomDag};
use ser_oracle::CorrelationSp;
use ser_sp::{IndependentSp, InputProbs, MonteCarloSp, SpEngine};

/// Tracked vs merged polarity: the merged variant does strictly less
/// bookkeeping — how much does the paper's accuracy cost in time?
fn bench_polarity_modes(c: &mut Criterion) {
    let circuit = iscas89_like("s953").unwrap();
    let sp = IndependentSp::new()
        .compute(&circuit, &InputProbs::default())
        .unwrap();
    let analysis = EppAnalysis::new(&circuit, sp).unwrap();
    let site = circuit.inputs()[0];
    let mut group = c.benchmark_group("ablation/polarity");
    group.bench_function("tracked", |b| {
        b.iter(|| analysis.site_with(std::hint::black_box(site), PolarityMode::Tracked))
    });
    group.bench_function("merged", |b| {
        b.iter(|| analysis.site_with(std::hint::black_box(site), PolarityMode::Merged))
    });
    group.finish();
}

/// SP engine cost on a mid-size random DAG (independent is linear,
/// correlation quadratic, Monte-Carlo proportional to vectors).
fn bench_sp_engines(c: &mut Criterion) {
    let circuit = RandomDag::new(24, 400).with_reconvergence(0.6).build(7);
    let probs = InputProbs::default();
    let mut group = c.benchmark_group("ablation/sp_engine");
    group.sample_size(10);
    for (name, engine) in [
        (
            "independent",
            Box::new(IndependentSp::new()) as Box<dyn SpEngine>,
        ),
        ("correlation", Box::new(CorrelationSp::new())),
        ("monte-carlo-10k", Box::new(MonteCarloSp::new(10_000))),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, e| {
            b.iter(|| e.compute(&circuit, &probs).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_polarity_modes, bench_sp_engines);
criterion_main!(benches);
