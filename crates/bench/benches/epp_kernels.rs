//! Criterion benches for the analytical EPP kernels (Figure 1 and the
//! per-site pass that dominates Table 2's `SysT` column).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ser_epp::{EppAnalysis, FourValue};
use ser_gen::{figure1, iscas89_like, s27};
use ser_netlist::GateKind;
use ser_sp::{IndependentSp, InputProbs, SpEngine};

/// The Fig. 1 kernel: one four-value OR-rule application (the paper's
/// worked example, the innermost operation of the whole method).
fn bench_rule_application(c: &mut Criterion) {
    let cc = FourValue::from_signal_probability(0.3);
    let d = FourValue::new(0.2, 0.0, 0.8, 0.0);
    let g = FourValue::new(0.0, 0.7, 0.3, 0.0);
    c.bench_function("rule/or3_figure1", |b| {
        b.iter(|| ser_epp::propagate(std::hint::black_box(GateKind::Or), &[cc, d, g]))
    });
    c.bench_function("rule/xor3", |b| {
        b.iter(|| ser_epp::propagate(std::hint::black_box(GateKind::Xor), &[cc, d, g]))
    });
}

/// Per-site EPP pass on the embedded circuits.
fn bench_site_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("epp_site");
    for circuit in [figure1(), s27()] {
        let sp = IndependentSp::new()
            .compute(&circuit, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&circuit, sp).unwrap();
        let site = circuit.node_ids().next().unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(circuit.name().to_owned()),
            &analysis,
            |b, analysis| b.iter(|| analysis.site(std::hint::black_box(site))),
        );
    }
    group.finish();
}

/// Whole-circuit sweep (all nodes) on the smaller Table 2 stand-ins,
/// converted to owned per-site results — the quantity reported as
/// `SysT`.
fn bench_all_sites(c: &mut Criterion) {
    use ser_epp::{PolarityMode, RunCtx, WorkspacePool};
    let mut group = c.benchmark_group("epp_all_sites");
    group.sample_size(10);
    for name in ["s298", "s953"] {
        let circuit = iscas89_like(name).unwrap();
        let sp = IndependentSp::new()
            .compute(&circuit, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&circuit, sp).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &analysis,
            |b, analysis| {
                let sites: Vec<_> = analysis.circuit().node_ids().collect();
                b.iter(|| {
                    analysis
                        .sweep(
                            &sites,
                            PolarityMode::Tracked,
                            &RunCtx::new(1, &WorkspacePool::new()),
                        )
                        .to_site_epps()
                })
            },
        );
    }
    group.finish();
}

/// The batched cone-plan sweep against `ser-oracle`'s per-site
/// reference loop on the same circuits: the arena engine vs DFS + sort
/// + AoS scratch.
fn bench_batched_sweep(c: &mut Criterion) {
    use ser_epp::{PolarityMode, RunCtx, WorkspacePool};
    use ser_oracle::ReferenceEpp;
    let mut group = c.benchmark_group("epp_sweep");
    group.sample_size(10);
    for name in ["s298", "s953"] {
        let circuit = iscas89_like(name).unwrap();
        let sp = IndependentSp::new()
            .compute(&circuit, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&circuit, sp).unwrap();
        let pool = WorkspacePool::new();
        let sites: Vec<_> = circuit.node_ids().collect();
        let ctx = RunCtx::new(1, &pool);
        // Warm the plan cache so the bench measures the steady state.
        let _ = analysis.sweep(&sites, PolarityMode::Tracked, &ctx);
        group.bench_with_input(
            BenchmarkId::new("batched", name),
            &analysis,
            |b, analysis| b.iter(|| analysis.sweep(&sites, PolarityMode::Tracked, &ctx)),
        );
        group.bench_with_input(
            BenchmarkId::new("reference", name),
            &analysis,
            |b, analysis| {
                let mut reference = ReferenceEpp::new(analysis);
                b.iter(|| {
                    analysis
                        .circuit()
                        .node_ids()
                        .map(|id| reference.site(id, PolarityMode::Tracked).p_sensitized())
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rule_application,
    bench_site_pass,
    bench_all_sites,
    bench_batched_sweep
);
criterion_main!(benches);
