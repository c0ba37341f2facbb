//! Cross-engine validation: the analytical EPP method, the Monte-Carlo
//! baseline and the exact oracle must tell one consistent story across
//! circuit families.

use ser_oracle::ExactEpp;
use ser_suite::epp::{CircuitSerAnalysis, EppAnalysis};
use ser_suite::gen::{
    c17, equality_comparator, iscas89_like, parity_tree, ripple_carry_adder, s27, xor_from_nands,
    RandomDag,
};
use ser_suite::netlist::Circuit;
use ser_suite::sim::{BitSim, MonteCarlo};
use ser_suite::sp::{IndependentSp, InputProbs, SpEngine};

/// Analytical vs exact on every node; returns (mean, max) abs error.
fn analytic_vs_exact(circuit: &Circuit) -> (f64, f64) {
    let probs = InputProbs::default();
    let sp = IndependentSp::new().compute(circuit, &probs).unwrap();
    let analysis = EppAnalysis::new(circuit, sp).unwrap();
    let oracle = ExactEpp::new();
    let mut sum = 0.0;
    let mut max = 0.0f64;
    let mut n = 0usize;
    for id in circuit.node_ids() {
        let a = analysis.site(id).p_sensitized();
        let e = oracle.site(circuit, &probs, id).unwrap().p_sensitized;
        let d = (a - e).abs();
        sum += d;
        max = max.max(d);
        n += 1;
    }
    (sum / n as f64, max)
}

#[test]
fn trees_are_exact() {
    // Fanout-free structures: the analytical method must be exact.
    let (mean, max) = analytic_vs_exact(&parity_tree(12));
    assert!(max < 1e-9, "parity tree: max error {max}");
    assert_eq!(mean, mean.min(1e-9));
}

#[test]
fn comparator_is_near_exact() {
    // The comparator's only sharing is at the wide final AND.
    let (_, max) = analytic_vs_exact(&equality_comparator(6));
    assert!(max < 1e-9, "comparator: max error {max}");
}

#[test]
fn c17_close_to_exact() {
    let (mean, max) = analytic_vs_exact(&c17());
    assert!(mean < 0.05, "c17 mean error {mean}");
    assert!(max < 0.25, "c17 max error {max}");
}

#[test]
fn xor_from_nands_reconvergence_error_bounded() {
    let (mean, max) = analytic_vs_exact(&xor_from_nands());
    // The canonical worst case for the paper's method: XOR built from
    // NANDs is *all* reconvergence. Site `a` truly always flips y
    // (P_sens = 1.0) but the independence-assuming rules report 0.375.
    // This is a real, documented limitation (the paper's own %Dif grows
    // to 11-12% on its reconvergence-heavy circuits); the assertion
    // pins the measured band so regressions are caught.
    assert!(mean > 0.10, "error suspiciously small: {mean}");
    assert!(mean < 0.30, "xor-of-nands mean error {mean}");
    assert!(max <= 0.625 + 1e-12, "worst node error {max}");
}

#[test]
fn adder_families_stay_accurate() {
    for n in [2usize, 4, 6] {
        let c = ripple_carry_adder(n);
        let (mean, _) = analytic_vs_exact(&c);
        assert!(mean < 0.08, "rca{n} mean error {mean}");
    }
}

#[test]
fn random_dags_mean_error_small() {
    for seed in 0..4 {
        let c = RandomDag::new(10, 40).with_reconvergence(0.5).build(seed);
        let (mean, _) = analytic_vs_exact(&c);
        // Moderate-reconvergence random DAGs: worst observed mean over
        // these seeds is ~0.13 (documented approximation error).
        assert!(mean < 0.2, "dag seed {seed}: mean error {mean}");
    }
}

#[test]
fn monte_carlo_agrees_with_exact() {
    // The baseline itself must converge to the oracle.
    let c = c17();
    let probs = InputProbs::default();
    let sim = BitSim::new(&c).unwrap();
    let mc = MonteCarlo::new(100_000).with_seed(5);
    let oracle = ExactEpp::new();
    for id in c.node_ids() {
        let m = mc.estimate_site(&sim, id).p_sensitized;
        let e = oracle.site(&c, &probs, id).unwrap().p_sensitized;
        assert!((m - e).abs() < 0.01, "node {id}: mc {m} vs exact {e}");
    }
}

#[test]
fn s27_analytical_vs_monte_carlo() {
    // The real ISCAS'89 s27: compare the two methods the paper compares.
    let c = s27();
    let outcome = CircuitSerAnalysis::new().run(&c).unwrap();
    let sim = BitSim::new(&c).unwrap();
    let mc = MonteCarlo::new(50_000).with_seed(17);
    let mut worst = 0.0f64;
    for id in c.node_ids() {
        let a = outcome.site(id).p_sensitized();
        let m = mc.estimate_site(&sim, id).p_sensitized;
        worst = worst.max((a - m).abs());
    }
    // s27's cross-coupled NOR state logic is reconvergence-dense: the
    // worst node disagrees by ~0.38 (measured; a genuine limitation of
    // the independence-assuming rules, see EXPERIMENTS.md). The bound
    // pins the band.
    assert!(worst < 0.5, "worst disagreement {worst}");
}

#[test]
fn synthetic_benchmark_end_to_end() {
    // The full Table 2 pipeline on the smallest profile stand-in.
    let c = iscas89_like("s298").unwrap();
    let outcome = CircuitSerAnalysis::new().run(&c).unwrap();
    let sim = BitSim::new(&c).unwrap();
    let mc = MonteCarlo::new(5_000).with_seed(3);
    // Sample a few sites; both methods must broadly agree.
    let sites: Vec<_> = c.node_ids().step_by(17).take(10).collect();
    let mut sum_diff = 0.0;
    for &site in &sites {
        let a = outcome.site(site).p_sensitized();
        let m = mc.estimate_site(&sim, site).p_sensitized;
        sum_diff += (a - m).abs();
    }
    let mean_diff = sum_diff / sites.len() as f64;
    // A band, not a point estimate: the sampled mean moves with the
    // synthetic circuit's reconvergence density, which depends on the
    // PRNG stream behind `synthesize` (~0.27 with the vendored PRNG).
    assert!(mean_diff < 0.35, "mean disagreement {mean_diff}");
}

#[test]
fn merged_polarity_never_underestimates_arrival_on_xor_cancellation() {
    use ser_suite::epp::PolarityMode;
    // On the canonical cancellation circuit the merged mode reports
    // arrival where the tracked mode correctly reports none.
    let c = ser_suite::netlist::parse_bench(
        "INPUT(a)\nOUTPUT(y)\nu = NOT(a)\nv = NOT(a)\ny = XOR(u, v)\n",
        "cancel",
    )
    .unwrap();
    let sp = IndependentSp::new()
        .compute(&c, &InputProbs::default())
        .unwrap();
    let analysis = EppAnalysis::new(&c, sp).unwrap();
    let a = c.find("a").unwrap();
    let tracked = analysis.site_with(a, PolarityMode::Tracked).p_sensitized();
    let merged = analysis.site_with(a, PolarityMode::Merged).p_sensitized();
    assert_eq!(tracked, 0.0);
    assert_eq!(merged, 0.0, "XOR cancellation is polarity-independent");
    // Where merged DOES differ: opposite-parity reconvergence at AND.
    let c = ser_suite::netlist::parse_bench(
        "INPUT(a)\nOUTPUT(y)\nu = NOT(a)\nv = BUF(a)\ny = AND(u, v)\n",
        "opp",
    )
    .unwrap();
    let sp = IndependentSp::new()
        .compute(&c, &InputProbs::default())
        .unwrap();
    let analysis = EppAnalysis::new(&c, sp).unwrap();
    let a = c.find("a").unwrap();
    let tracked = analysis.site_with(a, PolarityMode::Tracked).p_sensitized();
    let merged = analysis.site_with(a, PolarityMode::Merged).p_sensitized();
    assert!(merged > tracked, "merged {merged} vs tracked {tracked}");
}
