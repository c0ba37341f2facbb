//! The what-if engine's one non-negotiable contract: after any
//! sequence of incremental edits, the spliced state is bit-for-bit the
//! state a from-scratch analysis of the edited circuit would produce.
//! Enforced here over random DAGs and sequential circuits, random edit
//! sequences (TMR, kind swap, input change), and 1 vs N threads.

use std::sync::Arc;

use proptest::prelude::*;
use ser_suite::epp::{
    AnalysisSession, Arrivals, Edit, PolarityMode, RunCtx, SweepResults, WhatIfAbort, WhatIfSession,
};
use ser_suite::gen::{lfsr, s27, RandomDag};
use ser_suite::netlist::{
    parse_bench, write_bench, CancelCause, CancelToken, Circuit, GateKind, NodeId, TopoArtifacts,
};
use ser_suite::sp::InputProbs;

/// Picks the `i`-th TMR-able gate (cyclically) — deterministic from
/// the raw pick, valid for any circuit with at least one logic gate.
fn pick_gate(c: &Circuit, raw: usize) -> Option<NodeId> {
    let gates: Vec<NodeId> = c
        .node_ids()
        .filter(|&id| c.node(id).kind().is_logic())
        .collect();
    if gates.is_empty() {
        None
    } else {
        Some(gates[raw % gates.len()])
    }
}

/// Decodes one raw `(op, pick, knob)` triple into an applicable edit.
fn decode_edit(c: &Circuit, op: u8, pick: usize, knob: u64) -> Option<Edit> {
    match op % 3 {
        0 => pick_gate(c, pick).map(Edit::Tmr),
        1 => {
            let node = pick_gate(c, pick)?;
            let kinds = [
                GateKind::And,
                GateKind::Or,
                GateKind::Nand,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
            ];
            let kind = kinds[knob as usize % kinds.len()];
            if kind.arity_ok(c.node(node).fanin().len()) {
                Some(Edit::SwapKind(node, kind))
            } else {
                None
            }
        }
        _ => {
            // A fresh assignment: new default plus one override on a
            // (cyclically) picked primary input.
            let default = 0.05 + (knob % 19) as f64 / 20.0;
            let inputs: Vec<NodeId> = c
                .node_ids()
                .filter(|&id| c.node(id).kind() == GateKind::Input)
                .collect();
            let mut probs = InputProbs::uniform(default);
            if !inputs.is_empty() {
                probs = probs.with(inputs[pick % inputs.len()], (knob % 7) as f64 / 8.0);
            }
            Some(Edit::SetInputs(probs))
        }
    }
}

/// `session`'s whole-circuit sweep under [`Arrivals::Fold`].
fn folded_sweep(session: &AnalysisSession, threads: usize) -> SweepResults {
    let sites: Vec<NodeId> = session.circuit().node_ids().collect();
    let ctx = RunCtx {
        arrivals: Arrivals::Fold,
        ..RunCtx::new(threads, session.workspace_pool())
    };
    session.epp().sweep(&sites, PolarityMode::Tracked, &ctx)
}

/// Applies a raw edit script and checks the oracle after every step,
/// then unwinds via revert and checks the base state survived intact.
/// Every state holds folded results: no per-point arrivals.
fn check_script(circuit: Circuit, script: &[(u8, usize, u64)], threads: usize) {
    let session = AnalysisSession::new(circuit).expect("base session compiles");
    let base_results = folded_sweep(&session, threads);
    let mut wf = WhatIfSession::new(session, threads);
    assert_eq!(
        *wf.results().as_ref(),
        base_results,
        "base cache equals a direct folded sweep"
    );
    assert_eq!(wf.results().total_points(), None);

    let mut applied = 0usize;
    for &(op, pick, knob) in script {
        let Some(edit) = decode_edit(wf.circuit(), op, pick, knob) else {
            continue;
        };
        let before = wf.total_ser();
        let Ok(outcome) = wf.apply(edit) else {
            // The edited circuit failed to compile (e.g. its
            // sequential SP fixed point did not converge): the state
            // must be untouched.
            assert_eq!(wf.total_ser().to_bits(), before.to_bits());
            continue;
        };
        applied += 1;
        assert_eq!(outcome.depth, wf.depth());
        assert_eq!(outcome.total_sites, wf.circuit().len());
        assert_eq!(outcome.deltas.len(), outcome.dirty_sites);
        assert_eq!(wf.results().total_points(), None, "depth {}", wf.depth());

        let (full, full_total) = wf.full_recompute().expect("oracle compiles");
        assert_eq!(
            *wf.results().as_ref(),
            full,
            "incremental sweep differs from scratch after edit {applied}"
        );
        assert_eq!(
            wf.total_ser().to_bits(),
            full_total.to_bits(),
            "incremental total differs from scratch after edit {applied}"
        );
    }

    for _ in 0..applied {
        assert!(wf.revert().is_some());
        assert_eq!(wf.results().total_points(), None, "depth {}", wf.depth());
    }
    assert!(wf.revert().is_none(), "base cannot be reverted");
    assert_eq!(
        *wf.results().as_ref(),
        base_results,
        "unwinding restores the base results bitwise"
    );
}

fn script_strategy() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    proptest::collection::vec((0u8..255, 0usize..64, 0u64..1_000), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random combinational DAGs, random edit scripts, single thread.
    #[test]
    fn whatif_matches_oracle_on_dags(
        (inputs, gates, reconv, seed) in (2usize..6, 4usize..24, 0.0f64..1.0, 0u64..500),
        script in script_strategy(),
    ) {
        let c = RandomDag::new(inputs, gates)
            .with_reconvergence(reconv)
            .build(seed);
        check_script(c, &script, 1);
    }

    /// Same contract under a multi-threaded sweep schedule.
    #[test]
    fn whatif_matches_oracle_multithreaded(
        (inputs, gates, seed) in (2usize..6, 4usize..24, 0u64..500),
        script in script_strategy(),
    ) {
        let c = RandomDag::new(inputs, gates).with_reconvergence(0.5).build(seed);
        check_script(c, &script, 4);
    }

    /// Sequential circuits: the SP leg falls back to the fixed-point
    /// scratch compute, and cones clip at flip-flops.
    #[test]
    fn whatif_matches_oracle_sequential(
        pick in 0usize..3,
        script in script_strategy(),
    ) {
        let taps: &[&[usize]] = &[&[1, 3], &[2, 5], &[1, 2, 4]];
        check_script(lfsr(taps[pick]), &script, 2);
    }
}

/// A deterministic end-to-end pass on s27 covering all three edit
/// kinds at depth 3 — the shape the service's advise loop produces.
#[test]
fn whatif_s27_all_edit_kinds_stacked() {
    let c = s27();
    let session = AnalysisSession::new(c).expect("s27 compiles");
    let mut wf = WhatIfSession::new(session, 2);

    let gate = pick_gate(wf.circuit(), 0).expect("s27 has gates");
    let gate_name = wf.circuit().node(gate).name().to_owned();
    let o1 = wf.apply(Edit::Tmr(gate)).expect("tmr applies");
    assert!(o1.dirty_sites > 0);
    assert_eq!(
        o1.deltas.iter().filter(|d| d.old_p.is_none()).count(),
        6,
        "one TMR edit introduces exactly 6 new sites (3 replicas + voter tree internals)"
    );
    assert!(
        wf.circuit().find(&format!("{gate_name}__r0")).is_some(),
        "replica gates exist in the edited circuit"
    );

    let swap_target = pick_gate(wf.circuit(), 3).expect("gates remain");
    let kind = if wf.circuit().node(swap_target).kind() == GateKind::And {
        GateKind::Or
    } else {
        GateKind::And
    };
    wf.apply(Edit::SwapKind(swap_target, kind))
        .expect("swap applies");
    wf.apply(Edit::SetInputs(InputProbs::uniform(0.25)))
        .expect("inputs apply");

    let (full, full_total) = wf.full_recompute().expect("oracle compiles");
    assert_eq!(*wf.results().as_ref(), full);
    assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
    assert_eq!(wf.depth(), 3);

    assert!(wf.revert().is_some());
    assert!(wf.revert().is_some());
    assert_eq!(wf.total_ser().to_bits(), o1.total.to_bits());
}

/// TMR of one gate twice: the second edit hardens the voter, which
/// keeps the gate's name, so its replicas take the next free stem
/// instead of colliding with the first edit's. Both a gate with fanout
/// and a fanout-free gate stack, and every state matches the
/// from-scratch oracle.
#[test]
fn tmr_twice_on_one_gate_matches_oracle() {
    let c = s27();
    let with_fanout = c
        .node_ids()
        .find(|&id| c.node(id).kind().is_logic() && !c.node(id).fanout().is_empty())
        .expect("s27 has an internal gate");
    let sink = c
        .node_ids()
        .find(|&id| c.node(id).kind().is_logic() && c.node(id).fanout().is_empty())
        .expect("s27 has a fanout-free gate");
    for gate in [with_fanout, sink] {
        let name = c.node(gate).name().to_owned();
        let session = AnalysisSession::new(c.clone()).expect("s27 compiles");
        let mut wf = WhatIfSession::new(session, 2);
        for round in 1..=2 {
            let target = wf.circuit().find(&name).expect("the voter keeps the name");
            wf.apply(Edit::Tmr(target)).expect("TMR applies again");
            let (full, full_total) = wf.full_recompute().expect("oracle compiles");
            assert_eq!(*wf.results().as_ref(), full, "{name} round {round}");
            assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
        }
        assert!(wf.circuit().find(&format!("{name}__r0")).is_some());
        assert!(wf.circuit().find(&format!("{name}__2__r0")).is_some());
        assert_eq!(wf.depth(), 2);
    }
}

/// A tripped token aborts an edit (TMR of a gate with fanout, on a
/// sequential circuit) before any state is pushed: depth,
/// results and total are bitwise what they were, and the next
/// uncancelled apply still matches the from-scratch oracle.
#[test]
fn cancelled_apply_leaves_the_session_untouched() {
    let session = AnalysisSession::new(s27()).expect("s27 compiles");
    let mut wf = WhatIfSession::new(session, 2);
    let c = Arc::clone(wf.circuit());
    assert!(c.node_ids().any(|id| c.node(id).kind() == GateKind::Dff));
    let gate = c
        .node_ids()
        .find(|&id| c.node(id).kind().is_logic() && !c.node(id).fanout().is_empty())
        .expect("s27 has a logic gate with fanout");

    let results = Arc::clone(wf.results());
    let total = wf.total_ser();
    let token = CancelToken::new();
    token.cancel();
    let abort = wf
        .apply_cancellable(Edit::Tmr(gate), Some(&token))
        .expect_err("a tripped token aborts the edit");
    assert!(matches!(
        abort,
        WhatIfAbort::Cancelled(CancelCause::Cancelled)
    ));
    assert_eq!(wf.depth(), 0);
    assert_eq!(*wf.results().as_ref(), *results);
    assert_eq!(wf.total_ser().to_bits(), total.to_bits());

    let outcome = wf.apply(Edit::Tmr(gate)).expect("tmr applies");
    assert_eq!(outcome.depth, 1);
    let (full, full_total) = wf.full_recompute().expect("oracle compiles");
    assert_eq!(*wf.results().as_ref(), full);
    assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
}

/// An `lfsr` plus one fanout-free logic gate: a primary output reading
/// the register and its feedback (the bare `lfsr` has none).
fn lfsr_with_sink() -> Circuit {
    let mut text = write_bench(&lfsr(&[1, 3]));
    text.push_str("OUTPUT(z)\nz = AND(q0, fb)\n");
    parse_bench(&text, "lfsr_sink").expect("valid netlist")
}

/// TMR of a fanout-free gate takes the one what-if path and dirties
/// exactly the gate's combinational fan-in closure on the old circuit,
/// mapped to the new ids, plus the six gates the edit inserts; the
/// edited state matches the from-scratch oracle.
#[test]
fn fanout_free_tmr_dirties_its_fan_in_closure_and_the_inserts() {
    for c in [s27(), lfsr_with_sink()] {
        let topo = TopoArtifacts::compute(&c).expect("the circuit orders");
        let sinks: Vec<NodeId> = c
            .node_ids()
            .filter(|&id| c.node(id).kind().is_logic() && c.node(id).fanout().is_empty())
            .collect();
        assert!(!sinks.is_empty(), "{} has a fanout-free gate", c.name());
        for gate in sinks {
            let name = c.node(gate).name();
            let closure = topo.comb_ancestors(&c, std::iter::once(gate));
            let session = AnalysisSession::new(c.clone()).expect("base compiles");
            let mut wf = WhatIfSession::new(session, 2);
            let outcome = wf.apply(Edit::Tmr(gate)).expect("TMR applies");
            let edited = wf.circuit();
            let mut want: Vec<NodeId> = c
                .node_ids()
                .filter(|id| closure[id.index()])
                .map(|id| edited.find(c.node(id).name()).expect("names survive TMR"))
                .collect();
            let inserted: Vec<NodeId> = edited
                .node_ids()
                .filter(|&id| c.find(edited.node(id).name()).is_none())
                .collect();
            assert_eq!(inserted.len(), 6, "{name}");
            want.extend(inserted);
            want.sort_unstable();
            let got: Vec<NodeId> = outcome.deltas.iter().map(|d| d.node).collect();
            assert_eq!(got, want, "{}: TMR of {name}", c.name());
            assert_eq!(outcome.dirty_sites, want.len());

            let (full, full_total) = wf.full_recompute().expect("oracle compiles");
            assert_eq!(*wf.results().as_ref(), full, "{}: TMR of {name}", c.name());
            assert_eq!(wf.total_ser().to_bits(), full_total.to_bits());
        }
    }
}
