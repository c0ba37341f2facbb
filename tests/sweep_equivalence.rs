//! The batched cone-plan sweep must be **bit-identical** to
//! `ser-oracle`'s per-site reference kernel ([`ReferenceEpp`]) — same
//! `P_sensitized`, same per-point tuples, same gate counts, for every
//! site, in both polarity modes, regardless of thread count, and
//! whether it runs on the circuit's whole plans or, once the byte
//! budget declines those, on per-batch plans. This is the contract
//! that lets the whole product run on the fast engine while the slow
//! engine stays the semantic definition.

use proptest::prelude::*;
use ser_oracle::ReferenceEpp;
use ser_suite::epp::{Arrivals, EppAnalysis, PolarityMode, RunCtx, SweepResults, WorkspacePool};
use ser_suite::gen::RandomDag;
use ser_suite::netlist::{Circuit, NodeId};
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

/// Where a sweep's cone plans come from.
#[derive(Debug, Clone, Copy)]
enum Plans {
    /// The circuit's plans, built once and cached on its artifacts.
    Whole,
    /// Plans built per batch of sites: the plan slot is primed
    /// declined, as the byte budget leaves an oversized circuit.
    PerBatch,
}

/// The analysis of `circuit` under `probs`, on fresh artifacts whose
/// plan slot `plans` decides.
fn analysis_on(circuit: &Circuit, probs: &InputProbs, plans: Plans) -> EppAnalysis {
    let sp = IndependentSp::new().compute(circuit, probs).unwrap();
    let analysis = EppAnalysis::new(circuit, sp).unwrap();
    if let Plans::PerBatch = plans {
        assert!(analysis.artifacts().prime_cone_plans(None));
    }
    analysis
}

/// Asserts one sweep against per-site reference passes, bit for bit.
fn assert_sweep_matches_reference(
    circuit: &Circuit,
    analysis: &EppAnalysis,
    sweep: &SweepResults,
    polarity: PolarityMode,
) {
    assert_eq!(sweep.len(), circuit.len());
    let mut oracle = ReferenceEpp::new(analysis);
    for id in circuit.node_ids() {
        let reference = oracle.site(id, polarity);
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
        assert_eq!(batched.per_point(), Some(reference.per_point()));
    }
}

/// Runs one full-circuit sweep on each plan source a sweep can run on
/// (the circuit's whole plans, per-batch plans once the slot is
/// declined), on one and on three threads, and asserts every run
/// agrees with the per-site reference bit for bit.
fn assert_backends_agree(circuit: &Circuit, probs: &InputProbs, polarity: PolarityMode) {
    let pool = WorkspacePool::new();
    let sites: Vec<_> = circuit.node_ids().collect();
    for plans in [Plans::Whole, Plans::PerBatch] {
        let analysis = analysis_on(circuit, probs, plans);
        for threads in [1usize, 3] {
            let sweep = analysis.sweep(&sites, polarity, &RunCtx::new(threads, &pool));
            assert_sweep_matches_reference(circuit, &analysis, &sweep, polarity);
        }
        if let Plans::PerBatch = plans {
            assert!(analysis.artifacts().cone_plans_primed().is_none());
        }
    }
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
            let single = analysis.sweep(&sites, polarity, &RunCtx::new(1, &pool));
            let multi = analysis.sweep(&sites, polarity, &RunCtx::new(4, &pool));
            assert_eq!(single, multi, "{} ({polarity:?})", c.name());
            let mut oracle = ReferenceEpp::new(&analysis);
            for id in c.node_ids() {
                let reference = oracle.site(id, polarity);
                let batched = single.site(id);
                assert_eq!(batched.p_sensitized(), reference.p_sensitized());
                assert_eq!(batched.per_point(), Some(reference.per_point()));
                assert_eq!(batched.on_path_gates(), reference.on_path_gates());
            }
        }
    }
}

/// Both plan sources on sequential circuits: the chain/tail kernel
/// sees DFF-clipped cones and flip-flop observe points on whole and
/// on per-batch plans, and the per-site reference kernel must return
/// the same bits.
#[test]
fn sequential_circuits_backend_invariant() {
    use ser_suite::gen::{accumulator, iscas89_like, lfsr, shift_register};
    for c in [
        shift_register(8),
        lfsr(&[7, 5, 4, 3]),
        accumulator(4),
        iscas89_like("s298").unwrap(),
    ] {
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            assert_backends_agree(&c, &InputProbs::default(), polarity);
        }
    }
}

/// Denormal and clamp-edge values through `new_clamped` in both
/// kernels: inputs pinned to exact 0, exact 1, the smallest normal,
/// the smallest subnormal and 1−ε drive the rule cores into gradual
/// underflow (long AND/OR products collapse toward subnormals and
/// zero) and into the 0/1 clamp, and the planned sweep, on whole and
/// on per-batch plans, must still match the per-site reference bit for
/// bit.
#[test]
fn denormal_and_clamp_edge_inputs_bit_identical() {
    let edges = [
        0.0,
        1.0,
        f64::MIN_POSITIVE, // smallest normal
        5e-324,            // smallest subnormal
        1.0 - f64::EPSILON,
        0.5,
    ];
    // Deep, reconvergent, XOR-heavy: long fused products plus the XOR
    // core, over several seeds so the edge values land on varied gate
    // mixes.
    for seed in [3u64, 17, 40] {
        let c = build(6, 90, 0.8, 0.3, seed);
        let mut probs = InputProbs::uniform(0.5);
        for (i, &id) in c.inputs().iter().enumerate() {
            probs = probs.with(id, edges[i % edges.len()]);
        }
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            assert_backends_agree(&c, &probs, polarity);
        }
    }
}

/// A deterministic circuit of wide gates: every AND/NAND/OR/NOR/
/// XOR/XNOR kind at 1, 4, 5 and 9 pins (so pin rows are exactly full,
/// padded, and continued past the first row), pins drawn from the last
/// dozen signals so cones reconverge, and a repeated first pin on about
/// one pin in five.
fn wide_gate_circuit(seed: u64) -> Circuit {
    const KINDS: [&str; 6] = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR"];
    const ARITIES: [usize; 4] = [1, 4, 5, 9];
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    };
    let mut signals: Vec<String> = (0..10).map(|i| format!("i{i}")).collect();
    let mut src: String = signals.iter().map(|s| format!("INPUT({s})\n")).collect();
    let gates = 5 * KINDS.len() * ARITIES.len();
    for g in 0..gates {
        let kind = KINDS[g % KINDS.len()];
        let arity = ARITIES[(g / KINDS.len()) % ARITIES.len()];
        let mut pins: Vec<&str> = Vec::with_capacity(arity);
        for p in 0..arity {
            let pin = if p > 0 && next() % 5 == 0 {
                pins[0]
            } else {
                &signals[signals.len() - 1 - next() % signals.len().min(12)]
            };
            pins.push(pin);
        }
        src.push_str(&format!("g{g} = {kind}({})\n", pins.join(", ")));
        signals.push(format!("g{g}"));
    }
    for g in (gates - 8..gates).chain([gates / 2, gates / 3]) {
        src.push_str(&format!("OUTPUT(g{g})\n"));
    }
    ser_suite::netlist::parse_bench(&src, "wide").unwrap()
}

/// Gates of 1, 4, 5 and 9 pins, duplicate pins included, on whole and
/// per-batch plans, on one and four threads, in both polarity modes:
/// every site matches the per-site reference bit for bit. Random DAGs
/// and the synthetic profiles draw at most four pins, so this is what
/// covers the padded rows and their continuation.
#[test]
fn wide_gates_bit_identical() {
    for seed in [1u64, 2, 3] {
        let c = wide_gate_circuit(seed);
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let pool = WorkspacePool::new();
            let sites: Vec<_> = c.node_ids().collect();
            assert!(sites.len() >= ser_suite::epp::SINGLE_THREAD_SWEEP_THRESHOLD);
            for plans in [Plans::Whole, Plans::PerBatch] {
                let analysis = analysis_on(&c, &InputProbs::default(), plans);
                for threads in [1usize, 4] {
                    let sweep = analysis.sweep(&sites, polarity, &RunCtx::new(threads, &pool));
                    assert_sweep_matches_reference(&c, &analysis, &sweep, polarity);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sweeps on whole plans and on per-batch plans vs the per-site
    /// reference on random DAGs: all must agree bit for bit in both
    /// polarity modes. This is the plan-forcing companion of
    /// `sweep_bit_identical_to_reference` — it pins each run's plans
    /// through the artifacts' plan slot instead of trusting the budget.
    #[test]
    fn forced_backends_bit_identical((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build(inputs, gates, reconv, xf, seed);
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            assert_backends_agree(&c, &InputProbs::default(), polarity);
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
            let sweep = analysis.sweep(&sites, polarity, &RunCtx::new(1, &pool));
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
            let single = analysis.sweep(&sites, polarity, &RunCtx::new(1, &pool));
            for threads in [2usize, 5, 8] {
                let multi = analysis.sweep(&sites, polarity, &RunCtx::new(threads, &pool));
                prop_assert_eq!(&single, &multi, "{} threads ({:?})", threads, polarity);
            }
            // And the multi-threaded arena still matches the reference.
            let multi = analysis.sweep(&sites, polarity, &RunCtx::new(4, &pool));
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
        let sites: Vec<_> = c.node_ids().collect();
        let owned = analysis
            .sweep(&sites, PolarityMode::Tracked, &RunCtx::new(3, &WorkspacePool::new()))
            .to_site_epps()
            .expect("a kept sweep");
        let mut oracle = ReferenceEpp::new(&analysis);
        for (id, got) in c.node_ids().zip(&owned) {
            let reference = oracle.site(id, PolarityMode::Tracked);
            prop_assert_eq!(got, &reference, "site {}", id);
        }
    }
}

/// Circuits big enough that a strict subset of their nodes still
/// crosses the single-thread threshold.
fn subset_dag_strategy() -> impl Strategy<Value = (usize, usize, f64, u64, u64)> {
    (
        2usize..8,    // inputs
        80usize..200, // gates
        0.0f64..1.0,  // reconvergence
        0u64..1_000,  // circuit seed
        0u64..1_000,  // subset seed
    )
}

/// A shuffled, non-dense subset of `circuit`'s nodes, between
/// `SINGLE_THREAD_SWEEP_THRESHOLD` sites and all nodes but one — the
/// shape of the what-if tiers' and the daemon's site lists.
fn shuffled_subset(circuit: &Circuit, seed: u64) -> Vec<NodeId> {
    // splitmix64: a dependency-free, seeded draw.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut sites: Vec<NodeId> = circuit.node_ids().collect();
    for i in (1..sites.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        sites.swap(i, j);
    }
    let min = ser_suite::epp::SINGLE_THREAD_SWEEP_THRESHOLD;
    let keep = min + (next() as usize) % (sites.len() - min);
    sites.truncate(keep);
    if sites.iter().enumerate().all(|(i, s)| s.index() == i) {
        // The identity prefix: reversed, it is no longer dense.
        sites.reverse();
    }
    sites
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The threaded stitch on the site lists production sends: a
    /// shuffled, non-dense subset large enough to cross the threshold,
    /// under every thread count and both plan sources, must return
    /// each site's reference result bit for bit, in request order.
    #[test]
    fn shuffled_subset_sweep_matches_reference(
        (inputs, gates, reconv, seed, subset_seed) in subset_dag_strategy()
    ) {
        let c = build(inputs, gates, reconv, 0.2, seed);
        let probs = InputProbs::default();
        let sites = shuffled_subset(&c, subset_seed);
        prop_assert!(sites.len() >= ser_suite::epp::SINGLE_THREAD_SWEEP_THRESHOLD);
        prop_assert!(sites.len() < c.len());
        let pool = WorkspacePool::new();
        let analyses = [Plans::Whole, Plans::PerBatch].map(|p| (p, analysis_on(&c, &probs, p)));
        let mut oracle = ReferenceEpp::new(&analyses[0].1);
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let reference: Vec<_> = sites.iter().map(|&s| oracle.site(s, polarity)).collect();
            for threads in [1usize, 2, 3, 5] {
                for (plans, analysis) in &analyses {
                    let sweep = analysis.sweep(&sites, polarity, &RunCtx::new(threads, &pool));
                    prop_assert_eq!(sweep.sites(), sites.as_slice());
                    for (pos, want) in reference.iter().enumerate() {
                        prop_assert_eq!(
                            &sweep.get(pos).to_site_epp().expect("a kept sweep"),
                            want,
                            "position {} ({} threads, {:?}, {:?})",
                            pos,
                            threads,
                            plans,
                            polarity
                        );
                    }
                }
            }
        }
    }

    /// A folded sweep keeps the per-site numbers and nothing else: on
    /// the shuffled subset and on the whole circuit, under every thread
    /// count, both polarities and both plan sources, its sites,
    /// `p_sensitized` and `on_path_gates` equal the kept sweep's bit
    /// for bit, and no per-point read answers.
    #[test]
    fn folded_sweep_matches_kept_sweep(
        (inputs, gates, reconv, seed, subset_seed) in subset_dag_strategy()
    ) {
        let c = build(inputs, gates, reconv, 0.2, seed);
        let probs = InputProbs::default();
        let analyses = [Plans::Whole, Plans::PerBatch].map(|p| (p, analysis_on(&c, &probs, p)));
        let whole: Vec<NodeId> = c.node_ids().collect();
        let pool = WorkspacePool::new();
        for sites in [shuffled_subset(&c, subset_seed), whole] {
            for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
                for threads in [1usize, 2, 3, 5] {
                    for (plans, analysis) in &analyses {
                        let kept_ctx = RunCtx::new(threads, &pool);
                        let fold_ctx = RunCtx { arrivals: Arrivals::Fold, ..kept_ctx };
                        let kept = analysis.sweep(&sites, polarity, &kept_ctx);
                        let folded = analysis.sweep(&sites, polarity, &fold_ctx);
                        let what = format!("{threads} threads, {plans:?}, {polarity:?}");
                        prop_assert_eq!(folded.sites(), kept.sites(), "{}", what);
                        for (f, k) in folded.iter().zip(kept.iter()) {
                            prop_assert_eq!(
                                f.p_sensitized().to_bits(),
                                k.p_sensitized().to_bits(),
                                "site {} ({})",
                                f.site(),
                                what
                            );
                            prop_assert_eq!(f.on_path_gates(), k.on_path_gates(), "{}", what);
                            prop_assert!(f.per_point().is_none(), "{}", what);
                            prop_assert!(f.to_site_epp().is_none(), "{}", what);
                        }
                        prop_assert_eq!(folded.total_points(), None, "{}", what);
                        prop_assert!(folded.to_site_epps().is_none(), "{}", what);
                        prop_assert!(folded != kept, "{}", what);
                    }
                }
            }
        }
    }
}

/// Asserts two sweeps of the same sites agree bit for bit: sites,
/// `P_sensitized` bits, gate counts and every per-point tuple.
fn assert_bitwise_eq(got: &SweepResults, want: &SweepResults, what: &str) {
    assert_eq!(got.sites(), want.sites(), "{what}");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(
            g.p_sensitized().to_bits(),
            w.p_sensitized().to_bits(),
            "site {} ({what})",
            g.site()
        );
        assert_eq!(g.on_path_gates(), w.on_path_gates(), "{what}");
        let bits = |r: &ser_suite::epp::SweepSiteRef<'_>| -> Vec<[u64; 4]> {
            r.per_point()
                .expect("a kept sweep")
                .iter()
                .map(|p| {
                    [p.value.pa(), p.value.pa_bar(), p.value.p0(), p.value.p1()].map(f64::to_bits)
                })
                .collect()
        };
        assert_eq!(bits(&g), bits(&w), "site {} ({what})", g.site());
    }
}

/// One pool serves alternating circuits: two unrelated circuits, then
/// a circuit and its TMR-edited twin (new artifacts, a new position
/// order and a new SP vector). Every round sweeps a shuffled site
/// subset and makes single-site calls on the shared pool, on whole and
/// on per-batch plans, and every result must equal a fresh pool's bit
/// for bit: a pooled workspace's position plane is back at rest after
/// every site and laid out again whenever its SP vector or its order
/// changes.
#[test]
fn shared_pool_alternating_circuits_matches_fresh_pools() {
    use ser_suite::netlist::harden_tmr;
    let a = build(5, 150, 0.6, 0.2, 11);
    let b = build(7, 130, 0.4, 0.3, 12);
    let gate = a
        .node_ids()
        .filter(|&id| a.node(id).kind().is_logic())
        .nth(20)
        .expect("a has logic gates");
    let twin = harden_tmr(&a, &[gate]).unwrap();
    assert_ne!(twin.len(), a.len());
    let probs = InputProbs::default();
    for (x, y) in [(&a, &b), (&a, &twin)] {
        for plans in [Plans::Whole, Plans::PerBatch] {
            let pair = [
                (x, analysis_on(x, &probs, plans)),
                (y, analysis_on(y, &probs, plans)),
            ];
            let shared = WorkspacePool::new();
            for round in 0..3u64 {
                for (circuit, analysis) in &pair {
                    let sites = shuffled_subset(circuit, round);
                    for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
                        let what =
                            format!("{} round {round}, {plans:?}, {polarity:?}", circuit.len());
                        let fresh = WorkspacePool::new();
                        let got = analysis.sweep(&sites, polarity, &RunCtx::new(2, &shared));
                        let want = analysis.sweep(&sites, polarity, &RunCtx::new(2, &fresh));
                        assert_bitwise_eq(&got, &want, &what);
                        for &site in sites.iter().take(8) {
                            let got = analysis.sweep(&[site], polarity, &RunCtx::new(1, &shared));
                            let fresh = WorkspacePool::new();
                            let want = analysis.sweep(&[site], polarity, &RunCtx::new(1, &fresh));
                            assert_bitwise_eq(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }
}
