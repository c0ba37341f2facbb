//! The batched cone-plan sweep must be **bit-identical** to the
//! retained per-site reference path (`site_with_workspace`) — same
//! `P_sensitized`, same per-point tuples, same gate counts, for every
//! site, in both polarity modes, regardless of thread count. This is
//! the contract that lets the whole product run on the fast engine
//! while the slow engine stays the semantic definition.

use proptest::prelude::*;
use ser_suite::epp::{
    EppAnalysis, KernelBackend, PolarityMode, SiteWorkspace, SweepResults, WorkspacePool,
};
use ser_suite::gen::RandomDag;
use ser_suite::netlist::Circuit;
use ser_suite::sp::{IndependentSp, InputProbs, SpEngine};

fn dag_strategy() -> impl Strategy<Value = (usize, usize, f64, f64, u64)> {
    (
        2usize..8,   // inputs
        3usize..120, // gates (crosses the single-thread threshold)
        0.0f64..1.0, // reconvergence
        0.0f64..0.5, // xor fraction
        0u64..1_000, // seed
    )
}

fn build(inputs: usize, gates: usize, reconv: f64, xf: f64, seed: u64) -> Circuit {
    RandomDag::new(inputs, gates)
        .with_reconvergence(reconv)
        .with_xor_fraction(xf)
        .build(seed)
}

/// Asserts one sweep against per-site reference passes, bit for bit.
fn assert_sweep_matches_reference(
    circuit: &Circuit,
    analysis: &EppAnalysis,
    sweep: &SweepResults,
    polarity: PolarityMode,
) {
    assert_eq!(sweep.len(), circuit.len());
    let mut ws = SiteWorkspace::new(analysis);
    for id in circuit.node_ids() {
        let reference = analysis.site_with_workspace(id, polarity, &mut ws);
        let batched = sweep.site(id);
        assert_eq!(batched.site(), reference.site());
        // `==` on f64 and on the tuple types: exact bit-identity, no
        // epsilon anywhere.
        assert_eq!(
            batched.p_sensitized(),
            reference.p_sensitized(),
            "site {id} ({polarity:?})"
        );
        assert_eq!(batched.on_path_gates(), reference.on_path_gates());
        assert_eq!(batched.per_point(), reference.per_point());
    }
}

/// Runs one full-circuit sweep under each rule-core backend and
/// asserts the SIMD run, the scalar run and the per-site reference all
/// agree bit for bit. On hosts without AVX2 the forced-AVX2 run
/// degrades to the scalar twin, so the identity (trivially) still
/// holds — the cross-backend half of this check is only meaningful on
/// x86-64, which is where CI runs it.
fn assert_backends_agree(circuit: &Circuit, analysis: &EppAnalysis, polarity: PolarityMode) {
    let pool = WorkspacePool::new();
    let sites: Vec<_> = circuit.node_ids().collect();
    let scalar =
        analysis.sweep_sites_with_backend(&sites, polarity, 1, &pool, KernelBackend::Scalar);
    let simd = analysis.sweep_sites_with_backend(
        &sites,
        polarity,
        1,
        &pool,
        KernelBackend::Avx2.sanitized(),
    );
    assert_eq!(scalar, simd, "backends diverged ({polarity:?})");
    assert_sweep_matches_reference(circuit, analysis, &scalar, polarity);
}

/// Sequential circuits (DFF-clipped cones, flip-flop observe points)
/// go through the same identity, deterministically.
#[test]
fn sequential_circuits_bit_identical() {
    use ser_suite::gen::{accumulator, iscas89_like, lfsr, shift_register};
    for c in [
        shift_register(8),
        lfsr(&[7, 5, 4, 3]),
        accumulator(4),
        iscas89_like("s298").unwrap(),
    ] {
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let pool = WorkspacePool::new();
        let sites: Vec<_> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let single = analysis.sweep_sites_with(&sites, polarity, 1, &pool);
            let multi = analysis.sweep_sites_with(&sites, polarity, 4, &pool);
            assert_eq!(single, multi, "{} ({polarity:?})", c.name());
            let mut ws = SiteWorkspace::new(&analysis);
            for id in c.node_ids() {
                let reference = analysis.site_with_workspace(id, polarity, &mut ws);
                let batched = single.site(id);
                assert_eq!(batched.p_sensitized(), reference.p_sensitized());
                assert_eq!(batched.per_point(), reference.per_point());
                assert_eq!(batched.on_path_gates(), reference.on_path_gates());
            }
        }
    }
}

/// Forced backends on sequential circuits: the chain/tail kernel sees
/// DFF-clipped cones and flip-flop observe points under both rule-core
/// implementations.
#[test]
fn sequential_circuits_backend_invariant() {
    use ser_suite::gen::{accumulator, iscas89_like, lfsr, shift_register};
    for c in [
        shift_register(8),
        lfsr(&[7, 5, 4, 3]),
        accumulator(4),
        iscas89_like("s298").unwrap(),
    ] {
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            assert_backends_agree(&c, &analysis, polarity);
        }
    }
}

/// Denormal and clamp-edge values through `new_clamped` on both
/// backends: inputs pinned to exact 0, exact 1, the smallest normal,
/// the smallest subnormal and 1−ε drive the rule cores into gradual
/// underflow (long AND/OR products collapse toward subnormals and
/// zero) and into the 0/1 clamp — where `max`/`min` ordering, not just
/// arithmetic, must match lane for lane.
#[test]
fn denormal_and_clamp_edge_inputs_backend_invariant() {
    let edges = [
        0.0,
        1.0,
        f64::MIN_POSITIVE, // smallest normal
        5e-324,            // smallest subnormal
        1.0 - f64::EPSILON,
        0.5,
    ];
    // Deep, reconvergent, XOR-heavy: long fused products plus the
    // shuffle-based XOR core, over several seeds so the edge values
    // land on varied gate mixes.
    for seed in [3u64, 17, 40] {
        let c = build(6, 90, 0.8, 0.3, seed);
        let mut probs = InputProbs::uniform(0.5);
        for (i, &id) in c.inputs().iter().enumerate() {
            probs = probs.with(id, edges[i % edges.len()]);
        }
        let sp = IndependentSp::new().compute(&c, &probs).unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            assert_backends_agree(&c, &analysis, polarity);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SIMD sweep vs scalar sweep vs per-site reference on random
    /// DAGs: the three engines must agree bit for bit in both polarity
    /// modes. This is the backend-forcing companion of
    /// `sweep_bit_identical_to_reference` — it pins each run's rule
    /// cores instead of trusting the runtime dispatch.
    #[test]
    fn forced_backends_bit_identical((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build(inputs, gates, reconv, xf, seed);
        let sp = IndependentSp::new().compute(&c, &InputProbs::default()).unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            assert_backends_agree(&c, &analysis, polarity);
        }
    }

    /// Batched sweep == per-site reference, Tracked and Merged, on
    /// random DAGs spanning tree-like to densely reconvergent.
    #[test]
    fn sweep_bit_identical_to_reference((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build(inputs, gates, reconv, xf, seed);
        let sp = IndependentSp::new().compute(&c, &InputProbs::default()).unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let pool = WorkspacePool::new();
        let sites: Vec<_> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let sweep = analysis.sweep_sites_with(&sites, polarity, 1, &pool);
            assert_sweep_matches_reference(&c, &analysis, &sweep, polarity);
        }
    }

    /// Thread count must not change a single bit: the scheduler's
    /// dynamic batch assignment stitches results back in site order.
    #[test]
    fn sweep_thread_count_invariant((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build(inputs, gates, reconv, xf, seed);
        let sp = IndependentSp::new().compute(&c, &InputProbs::default()).unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let pool = WorkspacePool::new();
        let sites: Vec<_> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let single = analysis.sweep_sites_with(&sites, polarity, 1, &pool);
            for threads in [2usize, 5, 8] {
                let multi = analysis.sweep_sites_with(&sites, polarity, threads, &pool);
                prop_assert_eq!(&single, &multi, "{} threads ({:?})", threads, polarity);
            }
            // And the multi-threaded arena still matches the reference.
            let multi = analysis.sweep_sites_with(&sites, polarity, 4, &pool);
            assert_sweep_matches_reference(&c, &analysis, &multi, polarity);
        }
    }

    /// The owned conversion (`sweep(..).to_site_epps()`) inherits the
    /// same identity.
    #[test]
    fn all_sites_matches_reference((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build(inputs, gates, reconv, xf, seed);
        let sp = IndependentSp::new().compute(&c, &InputProbs::default()).unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let owned = analysis.sweep(3, &WorkspacePool::new()).to_site_epps();
        let mut ws = SiteWorkspace::new(&analysis);
        for (id, got) in c.node_ids().zip(&owned) {
            let reference = analysis.site_with_workspace(id, PolarityMode::Tracked, &mut ws);
            prop_assert_eq!(got, &reference, "site {}", id);
        }
    }
}
