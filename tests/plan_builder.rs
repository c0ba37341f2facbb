//! The suffix-shared cone-plan arena must plan **exactly** the cones
//! the paper's forward DFS defines — same members in the same order,
//! same fanin classification, same observe refs — for every circuit
//! shape, and its byte budget must decide deterministically.
//!
//! The oracle is built here, independently of the arena: per site,
//! [`FanoutCone::extract`] gives the members, sorted by topological
//! position, and every fanin and observe point is classified against
//! that set. Both sides meet as [`SitePlan`]s: the arena stores chain
//! tails once as bitset windows, and its materialized plans must be
//! indistinguishable from the oracle's.
//!
//! Plans built per batch of sites ([`ConePlans::for_sites`], what a
//! sweep runs on when the byte budget declines the whole-circuit
//! plans) meet the same oracle site by site, and the batch size
//! [`ConePlans::sites_per_batch`] picks keeps them within the budget.
//!
//! (The downstream identity — the plan kernel vs `ser-oracle`'s
//! per-site reference kernel — is proptest-enforced separately in
//! `tests/sweep_equivalence.rs`.)

use proptest::prelude::*;
use ser_suite::gen::RandomDag;
use ser_suite::netlist::{
    parse_bench, Circuit, CircuitBuilder, ConePlans, FaninRef, FanoutCone, NodeId, SitePlan,
    TopoArtifacts,
};

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

/// The oracle plan of `site`: the members of its [`FanoutCone`] in
/// topological order (the site first); each non-site member's fanins
/// on-path at their cone-local index when in the cone, else off-path by
/// node id; and every observe point whose signal is in the cone, as
/// `(index in topo.observe_points(), cone-local index)`, sorted.
fn oracle_plan(circuit: &Circuit, topo: &TopoArtifacts, site: NodeId) -> SitePlan {
    let mut members = FanoutCone::extract(circuit, site).on_path().to_vec();
    members.sort_unstable_by_key(|&m| topo.position(m));
    let mut local = vec![None; circuit.len()];
    for (i, &m) in members.iter().enumerate() {
        local[m.index()] = Some(i);
    }
    let fanin_refs = members
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let pins = if i == 0 {
                &[][..]
            } else {
                circuit.node(m).fanin()
            };
            pins.iter()
                .map(|&f| local[f.index()].map_or(FaninRef::OffPath(f.index()), FaninRef::OnPath))
                .collect()
        })
        .collect();
    // Walking the observe points in order yields the pairs sorted.
    let observe_refs = (0u32..)
        .zip(topo.observe_points())
        .filter_map(|(o, p)| local[p.signal().index()].map(|l| (o, l as u32)))
        .collect();
    SitePlan {
        site,
        kinds: members.iter().map(|&m| circuit.node(m).kind()).collect(),
        members,
        fanin_refs,
        observe_refs,
    }
}

/// Asserts the suffix-shared arena plans every site of `circuit`
/// exactly as [`oracle_plan`] does, that its whole-circuit totals are
/// the oracle's, that its byte-budget decision is exact and
/// deterministic, and that per-batch plans agree with the oracle too.
fn assert_builders_agree(circuit: &Circuit) {
    let topo = TopoArtifacts::compute(circuit).unwrap();
    let shared = ConePlans::build(circuit, &topo, usize::MAX, None)
        .expect("no cancel token to trip")
        .expect("unbounded build cannot decline");
    let oracle: Vec<SitePlan> = circuit
        .node_ids()
        .map(|site| oracle_plan(circuit, &topo, site))
        .collect();
    for (site, expected) in circuit.node_ids().zip(&oracle) {
        assert_eq!(
            &shared.plan(site).materialize(circuit),
            expected,
            "{}: site {site}",
            circuit.name()
        );
    }
    let logical: u64 = oracle.iter().map(|p| p.members.len() as u64).sum();
    assert_eq!(
        shared.logical_members(),
        logical,
        "{}: logical member accounting",
        circuit.name()
    );
    assert_eq!(
        shared.max_cone_len(),
        oracle.iter().map(|p| p.members.len()).max().unwrap_or(0),
        "{}: largest cone",
        circuit.name()
    );
    assert_eq!(
        shared.total_observe_refs(),
        oracle
            .iter()
            .map(|p| p.observe_refs.len() as u64)
            .sum::<u64>(),
        "{}: observe ref accounting",
        circuit.name()
    );
    assert!(
        shared.stored_members() as u64 <= logical,
        "{}: sharing cannot store more than every cone in full",
        circuit.name()
    );

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

    // Per-batch plans, in batches of one site, of seven and of the
    // whole circuit, plan every site of their batch as the oracle does.
    // The sites go in reverse id order, so a batch is not a prefix of
    // the topological order.
    let mut sites: Vec<NodeId> = circuit.node_ids().collect();
    sites.reverse();
    for batch in [1, 7, sites.len().max(1)] {
        for chunk in sites.chunks(batch) {
            let plans = ConePlans::for_sites(circuit, &topo, chunk);
            for &site in chunk {
                assert_eq!(
                    &plans.plan(site).materialize(circuit),
                    &oracle[site.index()],
                    "{}: site {site}, batches of {batch}",
                    circuit.name()
                );
            }
        }
    }
}

/// The paper's Fig. 1 circuit (H = OR(C, D, G): C off-path, D and G
/// on-path for site A).
const FIG1: &str = "INPUT(A)\nINPUT(B)\nINPUT(C)\nINPUT(F)\nOUTPUT(H)\n\
E = NOT(A)\nD = AND(A, B)\nG = AND(E, F)\nH = OR(C, D, G)\n";

/// Deterministic shapes: sequential circuits (DFF-clipped cones,
/// flip-flop observe points, feedback through state), plus small
/// hand-written ones — Fig. 1, a duplicated fanin pin (`AND(a, a)`
/// carries two on-path refs), a cone clipped at a DFF, reconvergence
/// through an XOR, and the empty circuit.
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
    for (name, src) in [
        ("fig1", FIG1),
        ("dup", "INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n"),
        ("seq", "INPUT(x)\nOUTPUT(z)\ng = NOT(x)\nq = DFF(g)\nz = NOT(q)\n"),
        (
            "reconv",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NOT(a)\nv = NAND(a, b)\nw = XOR(u, v)\ny = OR(w, u)\n",
        ),
    ] {
        assert_builders_agree(&parse_bench(src, name).unwrap());
    }
    assert_builders_agree(&CircuitBuilder::new("empty").finish().unwrap());
}

/// Under a budget too small for one batch of the whole circuit, the
/// batch size [`ConePlans::sites_per_batch`] picks cuts several
/// batches, and the plans of as many batches as there are workers
/// never exceed the budget together. Every batch still plans its
/// sites as the oracle does.
#[test]
fn per_batch_plans_stay_within_budget() {
    let c = ser_suite::gen::iscas89_like("s953").unwrap();
    let topo = TopoArtifacts::compute(&c).unwrap();
    let sites: Vec<NodeId> = c.node_ids().collect();
    let frame = ConePlans::for_sites(&c, &topo, &[]).arena_bytes();
    for workers in [1usize, 3] {
        let budget = workers * (frame + 4096);
        let k = ConePlans::sites_per_batch(&c, &topo, budget, workers);
        assert!(
            k > 1 && k < c.len(),
            "{workers} workers: {k} sites per batch"
        );
        let mut largest = 0;
        for chunk in sites.chunks(k) {
            let plans = ConePlans::for_sites(&c, &topo, chunk);
            largest = largest.max(plans.arena_bytes());
            for &site in chunk {
                assert_eq!(
                    plans.plan(site).materialize(&c),
                    oracle_plan(&c, &topo, site),
                    "site {site}"
                );
            }
        }
        assert!(
            workers * largest <= budget,
            "{workers} workers x {largest} B exceed {budget} B"
        );
    }
    // A share smaller than the circuit-sized tables still sweeps, one
    // site per batch.
    assert_eq!(ConePlans::sites_per_batch(&c, &topo, frame, 2), 1);
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
/// oracle.
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
    let c = parse_bench(&src, "sparse").unwrap();
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

    for site in c.node_ids() {
        assert_eq!(
            plans.plan(site).materialize(&c),
            oracle_plan(&c, &topo, site),
            "site {site}"
        );
    }
}

/// A 1,200-stage AND chain with side inputs, 2,401 nodes: cone sizes
/// from the whole chain down to 1. Every node but the output has
/// exactly one successor, so every site is a chain node sharing the
/// output's one-member tail, and the oracle checks each per-site path
/// against the DFS cone.
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
    let c = parse_bench(&src, "chain").unwrap();
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
    /// union must reproduce the DFS cone discovery exactly, and its byte
    /// budget must decide exactly.
    #[test]
    fn random_dags_identical_plans((inputs, gates, reconv, xf, seed) in dag_strategy()) {
        let c = build_dag(inputs, gates, reconv, xf, seed);
        assert_builders_agree(&c);
    }
}
