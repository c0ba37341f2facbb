//! The suffix-shared cone-plan arena must plan **exactly** the cones
//! the retained per-site-DFS reference builder plans — same members in
//! the same order, same fanin classification, same observe refs, same
//! deterministic budget decisions — for every circuit shape. Both
//! representations materialize to [`SitePlan`]s, which is where the
//! comparison happens: the arena stores chain tails once as bitset
//! windows, the flat reference stores every cone in full, and the
//! materialized plans must be indistinguishable.
//!
//! (The downstream identity — the 4-wide plan kernel vs
//! `site_with_workspace` — is proptest-enforced separately in
//! `tests/sweep_equivalence.rs`.)

use proptest::prelude::*;
use ser_suite::gen::RandomDag;
use ser_suite::netlist::{Circuit, ConePlans, FlatConePlans, TopoArtifacts};

fn dag_strategy() -> impl Strategy<Value = (usize, usize, f64, f64, u64)> {
    (
        2usize..8,   // inputs
        3usize..120, // gates
        0.0f64..1.0, // reconvergence
        0.0f64..0.5, // xor fraction
        0u64..1_000, // seed
    )
}

fn build_dag(inputs: usize, gates: usize, reconv: f64, xf: f64, seed: u64) -> Circuit {
    RandomDag::new(inputs, gates)
        .with_reconvergence(reconv)
        .with_xor_fraction(xf)
        .build(seed)
}

/// Asserts the suffix-shared arena and the flat DFS reference plan the
/// identical cones on `circuit`, and that each builder's budget
/// decision is deterministic against its own accounting (arena bytes
/// for the suffix-shared arena, logical members for the flat layout,
/// which is built on 1 and N worker threads).
fn assert_builders_agree(circuit: &Circuit) {
    let topo = TopoArtifacts::compute(circuit).unwrap();
    let reference = FlatConePlans::build(circuit, &topo, usize::MAX, 1)
        .expect("unbounded build cannot decline");
    let logical = reference.total_members();
    let shared = ConePlans::build(circuit, &topo, usize::MAX, None)
        .expect("no cancel token to trip")
        .expect("unbounded build cannot decline");
    assert_eq!(
        shared.logical_members(),
        logical as u64,
        "{}: logical member accounting",
        circuit.name()
    );
    assert!(
        shared.stored_members() <= logical,
        "{}: sharing cannot store more than the flat layout",
        circuit.name()
    );
    for site in circuit.node_ids() {
        assert_eq!(
            shared.plan(site).materialize(circuit),
            reference.plan(site).materialize(),
            "{}: site {site}",
            circuit.name()
        );
    }

    // Budget semantics, arena side: the budget counts arena bytes,
    // declines one byte below the exact count and accepts identically
    // at it.
    let bytes = shared.arena_bytes();
    assert!(
        ConePlans::build(circuit, &topo, bytes - 1, None)
            .expect("no cancel token to trip")
            .is_none(),
        "{}: arena builder must decline under its byte budget",
        circuit.name()
    );
    let at_budget = ConePlans::build(circuit, &topo, bytes, None)
        .expect("no cancel token to trip")
        .expect("exact budget fits");
    assert_eq!(at_budget, shared, "{} at budget", circuit.name());

    // Budget semantics, flat side: counts logical members.
    for threads in [1usize, 4] {
        if logical > 0 {
            assert!(
                FlatConePlans::build(circuit, &topo, logical - 1, threads).is_none(),
                "{}: flat builder must decline under its logical-member budget",
                circuit.name()
            );
        }
        assert!(
            FlatConePlans::build(circuit, &topo, logical, threads).is_some(),
            "{}: flat builder accepts at its exact total",
            circuit.name()
        );
    }
}

/// Sequential circuits: DFF-clipped cones, flip-flop observe points,
/// feedback through state — deterministically covered.
#[test]
fn sequential_circuits_identical_plans() {
    use ser_suite::gen::{accumulator, iscas89_like, lfsr, shift_register};
    for c in [
        shift_register(8),
        lfsr(&[7, 5, 4, 3]),
        accumulator(4),
        iscas89_like("s298").unwrap(),
        iscas89_like("s953").unwrap(),
    ] {
        assert_builders_agree(&c);
    }
}

/// The member accounting of the bitset windows matches the sorted
/// position lists they replaced: `stored_members` (chain entries plus
/// tail members) and `logical_members` on s953 are the list form's
/// figures.
#[test]
fn s953_member_counts_are_unchanged() {
    let c = ser_suite::gen::iscas89_like("s953").unwrap();
    let topo = TopoArtifacts::compute(&c).unwrap();
    let plans = ConePlans::build(&c, &topo, usize::MAX, None)
        .expect("no cancel token to trip")
        .expect("unbounded build cannot decline");
    assert_eq!(plans.stored_members(), 26_381);
    assert_eq!(plans.logical_members(), 36_587);
}

/// An anchor next to the inputs whose two fanouts sit at the far end
/// of the topological order: its window spans the whole circuit while
/// it holds three members. The byte budget still bounds it exactly —
/// a member count would not — and the sparse window decodes like the
/// flat oracle.
#[test]
fn sparse_windows_stay_bounded() {
    let gates = 300;
    let mut src = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n");
    src.push_str("n0 = NOT(b)\n");
    for i in 1..gates {
        src.push_str(&format!("n{i} = NOT(n{})\n", i - 1));
    }
    let last = gates - 1;
    src.push_str(&format!("y = AND(a, n{last})\nz = OR(a, n{last})\n"));
    let c = ser_suite::netlist::parse_bench(&src, "sparse").unwrap();
    let topo = TopoArtifacts::compute(&c).unwrap();
    let plans = ConePlans::build(&c, &topo, usize::MAX, None)
        .expect("no cancel token to trip")
        .expect("unbounded build cannot decline");
    let a = c.find("a").unwrap();
    let tail = plans.plan(a).tail();
    assert_eq!(tail.len(), 3, "a, y and z");
    assert_eq!(
        tail.window().len(),
        c.len().div_ceil(64),
        "the window spans the circuit"
    );

    let bytes = plans.arena_bytes();
    assert!(ConePlans::build(&c, &topo, bytes - 1, None)
        .expect("no cancel token to trip")
        .is_none());
    let at_budget = ConePlans::build(&c, &topo, bytes, None)
        .expect("no cancel token to trip")
        .expect("exact budget fits");
    assert_eq!(at_budget, plans);

    let flat = FlatConePlans::build(&c, &topo, usize::MAX, 1).expect("unbounded");
    for site in c.node_ids() {
        assert_eq!(
            plans.plan(site).materialize(&c),
            flat.plan(site).materialize(),
            "site {site}"
        );
    }
}

/// A chain above the flat builder's parallel threshold: cone sizes
/// from the whole chain down to 1, exercising the arena's chain-node
/// fast path and windows that span the whole circuit. Because every `g{i}`
/// has two fanouts downstream of the AND gates' `s{i}` side inputs,
/// the circuit mixes long shared suffixes with per-site prefixes.
#[test]
fn long_chain_above_parallel_threshold() {
    let stages = 1200;
    let mut src = String::from("INPUT(x0)\n");
    for i in 0..stages {
        src.push_str(&format!("INPUT(s{i})\n"));
    }
    src.push_str(&format!("OUTPUT(g{})\n", stages - 1));
    for i in 0..stages {
        let prev = if i == 0 {
            "x0".to_owned()
        } else {
            format!("g{}", i - 1)
        };
        src.push_str(&format!("g{i} = AND({prev}, s{i})\n"));
    }
    let c = ser_suite::netlist::parse_bench(&src, "chain").unwrap();
    let topo = TopoArtifacts::compute(&c).unwrap();
    let shared = ConePlans::build(&c, &topo, usize::MAX, None)
        .expect("no cancel token to trip")
        .expect("unbounded build cannot decline");
    // A pure single-output chain is the best case for suffix sharing:
    // the logical sum-of-cones is quadratic in the stage count while
    // the arena stays linear.
    assert!(
        shared.logical_members() > 100 * shared.stored_members() as u64,
        "chain should dedup by orders of magnitude: {} logical vs {} stored",
        shared.logical_members(),
        shared.stored_members()
    );
    assert_builders_agree(&c);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DAGs spanning tree-like to densely reconvergent, XOR-light
    /// to XOR-heavy: the arena's anchor/chain classification and window
    /// union must reproduce the DFS cone discovery exactly,
    /// including each builder's budget decision.
    #[test]
    fn random_dags_identical_plans((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build_dag(inputs, gates, reconv, xf, seed);
        assert_builders_agree(&c);
    }
}
