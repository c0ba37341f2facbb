//! Circuit transformations: TMR (triple modular redundancy) hardening.
//!
//! The paper's conclusion motivates EPP with selective hardening:
//! "identify the most vulnerable components to be protected by soft
//! error hardening techniques." This module implements the archetypal
//! such technique — triplicate a gate and vote — so the suite can close
//! the loop: rank, protect, re-analyze.
//!
//! An SEU striking any *one* of the three copies is outvoted (the other
//! two copies compute the same value from the same fanins), so a TMR'd
//! gate's own soft errors are fully masked. Errors arriving *through*
//! the gate from upstream still propagate — all three copies flip
//! together — which is the correct semantics: TMR protects a gate's own
//! upsets, not its inputs'.

use std::collections::BTreeSet;

use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// Applies TMR to the given gates, returning the hardened circuit.
///
/// Each selected node must be a logic gate (primary inputs, flip-flops
/// and constants cannot be triplicated by this transform). The gate is
/// replaced by three copies (`stem__r0`, `stem__r1`, `stem__r2`) and a
/// 2-of-3 majority voter (the AND pairs `stem__v01`, `stem__v12`,
/// `stem__v02` into an OR); the voter output keeps the original name so
/// outputs and downstream logic are untouched. The stem is the gate's
/// name, or `name__2`, `name__3`, … — the first whose six inserted
/// names are all unused — so hardening a voter again (it keeps the
/// hardened gate's name) never reuses an earlier TMR's names.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidNodeId`] if a node id is out of
/// range, or [`NetlistError::BadArity`] wrapped as a semantic error if
/// a selected node is not a logic gate.
///
/// # Examples
///
/// ```
/// use ser_netlist::{parse_bench, harden_tmr};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let y = c.find("y").unwrap();
/// let hardened = harden_tmr(&c, &[y])?;
/// // One gate became 3 copies + 4 voter gates.
/// assert_eq!(hardened.num_gates(), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn harden_tmr(circuit: &Circuit, nodes: &[NodeId]) -> Result<Circuit, NetlistError> {
    let mut selected = vec![false; circuit.len()];
    for &id in nodes {
        let node = circuit.try_node(id)?;
        if !node.kind().is_logic() {
            return Err(NetlistError::BadArity {
                name: node.name().to_owned(),
                kind: node.kind().to_string(),
                got: node.fanin().len(),
            });
        }
        selected[id.index()] = true;
    }

    let mut taken = BTreeSet::new();
    let mut b = CircuitBuilder::new(format!("{}_tmr", circuit.name()));
    // Recreate every node in arena order; names are preserved, so
    // name-based references (gate_named) resolve regardless of order.
    for (id, node) in circuit.iter() {
        let fanin_names: Vec<String> = node
            .fanin()
            .iter()
            .map(|&f| circuit.node(f).name().to_owned())
            .collect();
        match node.kind() {
            GateKind::Input => {
                b.input(node.name());
            }
            GateKind::Const0 => {
                b.constant(node.name(), false);
            }
            GateKind::Const1 => {
                b.constant(node.name(), true);
            }
            GateKind::Dff => {
                b.gate_named(node.name(), GateKind::Dff, &fanin_names);
            }
            kind if selected[id.index()] => {
                // Three copies feeding a 2-of-3 majority voter that
                // inherits the original name.
                let name = node.name();
                let stem = tmr_stem(circuit, name, &mut taken);
                let copy0 = format!("{stem}__r0");
                let copy1 = format!("{stem}__r1");
                let copy2 = format!("{stem}__r2");
                b.gate_named(&copy0, kind, &fanin_names);
                b.gate_named(&copy1, kind, &fanin_names);
                b.gate_named(&copy2, kind, &fanin_names);
                let p01 = format!("{stem}__v01");
                let p12 = format!("{stem}__v12");
                let p02 = format!("{stem}__v02");
                b.gate_named(&p01, GateKind::And, &[copy0.clone(), copy1.clone()]);
                b.gate_named(&p12, GateKind::And, &[copy1, copy2.clone()]);
                b.gate_named(&p02, GateKind::And, &[copy0, copy2]);
                b.gate_named(name, GateKind::Or, &[p01, p12, p02]);
            }
            kind => {
                b.gate_named(node.name(), kind, &fanin_names);
            }
        }
    }
    for &po in circuit.outputs() {
        b.mark_output_named(circuit.node(po).name());
    }
    b.finish()
}

/// The suffixes of the six gates TMR inserts per hardened gate: three
/// replicas, then the voter's three AND pairs.
const TMR_SUFFIXES: [&str; 6] = ["r0", "r1", "r2", "v01", "v12", "v02"];

/// The first stem — `name`, then `name__2`, `name__3`, … — whose six
/// inserted names `{stem}__{suffix}` are neither nodes of `circuit` nor
/// already `taken` by another gate of the same transform; records
/// them as taken.
fn tmr_stem(circuit: &Circuit, name: &str, taken: &mut BTreeSet<String>) -> String {
    let inserted = |stem: &str| TMR_SUFFIXES.map(|suffix| format!("{stem}__{suffix}"));
    let stem = (1usize..)
        .map(|k| match k {
            1 => name.to_owned(),
            _ => format!("{name}__{k}"),
        })
        .find(|stem| {
            inserted(stem)
                .iter()
                .all(|n| circuit.find(n).is_none() && !taken.contains(n))
        })
        .expect("a finite circuit leaves some stem unused");
    taken.extend(inserted(&stem));
    stem
}

/// Replaces one logic gate's kind, keeping its name, fanins and every
/// other node untouched. The returned circuit keeps the original name:
/// a kind swap is an in-place ECO, not a derived variant.
///
/// Both the current node and the replacement `kind` must be pure logic
/// ([`GateKind::is_logic`]), and the node's existing fanin count must
/// satisfy the new kind's [`GateKind::arity_ok`] — so a 3-input gate
/// cannot become a NOT.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidNodeId`] if `node` is out of range,
/// or [`NetlistError::BadArity`] if either kind check above fails.
///
/// # Examples
///
/// ```
/// use ser_netlist::{parse_bench, swap_kind, GateKind};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let y = c.find("y").unwrap();
/// let swapped = swap_kind(&c, y, GateKind::Nor)?;
/// assert_eq!(swapped.node(swapped.find("y").unwrap()).kind(), GateKind::Nor);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn swap_kind(circuit: &Circuit, node: NodeId, kind: GateKind) -> Result<Circuit, NetlistError> {
    let target = circuit.try_node(node)?;
    if !target.kind().is_logic() || !kind.is_logic() || !kind.arity_ok(target.fanin().len()) {
        return Err(NetlistError::BadArity {
            name: target.name().to_owned(),
            kind: kind.to_string(),
            got: target.fanin().len(),
        });
    }

    let mut b = CircuitBuilder::new(circuit.name().to_owned());
    for (id, n) in circuit.iter() {
        let fanin_names: Vec<String> = n
            .fanin()
            .iter()
            .map(|&f| circuit.node(f).name().to_owned())
            .collect();
        match n.kind() {
            GateKind::Input => {
                b.input(n.name());
            }
            GateKind::Const0 => {
                b.constant(n.name(), false);
            }
            GateKind::Const1 => {
                b.constant(n.name(), true);
            }
            k => {
                let k = if id == node { kind } else { k };
                b.gate_named(n.name(), k, &fanin_names);
            }
        }
    }
    for &po in circuit.outputs() {
        b.mark_output_named(circuit.node(po).name());
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_bench;

    #[test]
    fn single_gate_tmr_counts() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let y = c.find("y").unwrap();
        let h = harden_tmr(&c, &[y]).unwrap();
        assert_eq!(h.name(), "t_tmr");
        assert_eq!(h.num_gates(), 7); // 3 copies + 3 AND + 1 OR
        assert_eq!(h.num_inputs(), 2);
        assert_eq!(h.num_outputs(), 1);
        // The PO is still named y (the voter).
        let yv = h.outputs()[0];
        assert_eq!(h.node(yv).name(), "y");
        assert_eq!(h.node(yv).kind(), GateKind::Or);
    }

    #[test]
    fn tmr_applied_twice_to_one_gate_picks_fresh_names() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let once = harden_tmr(&c, &[c.find("y").unwrap()]).unwrap();
        // The voter keeps `y`: hardening it again takes the next stem.
        let twice = harden_tmr(&once, &[once.find("y").unwrap()]).unwrap();
        assert_eq!(twice.num_gates(), 7 + 6);
        for suffix in TMR_SUFFIXES {
            assert!(twice.find(&format!("y__{suffix}")).is_some(), "{suffix}");
            assert!(twice.find(&format!("y__2__{suffix}")).is_some(), "{suffix}");
        }
        // The second voter reads the first one's output through its
        // replicas, and still drives the output.
        let y = twice.find("y").unwrap();
        assert_eq!(twice.node(y).kind(), GateKind::Or);
        assert_eq!(twice.outputs(), &[y]);
        let r0 = twice.find("y__2__r0").unwrap();
        assert_eq!(
            twice.node(r0).kind(),
            GateKind::Or,
            "a copy of the first voter"
        );
        // A third round, and a circuit that already holds a `y__2__*`
        // name, move on to the next free stem.
        let thrice = harden_tmr(&twice, &[y]).unwrap();
        assert!(thrice.find("y__3__v02").is_some());
        let clash = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(y__r1)\ny = NOT(a)\ny__r1 = NOT(a)\n",
            "clash",
        )
        .unwrap();
        let h = harden_tmr(&clash, &[clash.find("y").unwrap()]).unwrap();
        assert!(h.find("y__2__r1").is_some());
        assert!(h.find("y__r0").is_none(), "the whole stem moves on");
    }

    #[test]
    fn rejects_non_gate_nodes() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let a = c.find("a").unwrap();
        assert!(harden_tmr(&c, &[a]).is_err());
    }

    #[test]
    fn sequential_circuit_tmr() {
        let c = parse_bench(
            "INPUT(x)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(x)\nz = AND(q, x)\n",
            "s",
        )
        .unwrap();
        let d = c.find("d").unwrap();
        let h = harden_tmr(&c, &[d]).unwrap();
        assert_eq!(h.num_dffs(), 1);
        // The DFF still reads the (voted) d.
        let q = h.find("q").unwrap();
        let dv = h.node(q).fanin()[0];
        assert_eq!(h.node(dv).name(), "d");
    }

    #[test]
    fn swap_kind_replaces_exactly_one_kind() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nm = AND(a, b)\ny = OR(m, a)\n",
            "t",
        )
        .unwrap();
        let m = c.find("m").unwrap();
        let s = swap_kind(&c, m, GateKind::Nand).unwrap();
        assert_eq!(s.name(), "t", "kind swap keeps the circuit name");
        assert_eq!(s.len(), c.len());
        for (id, node) in c.iter() {
            let sn = s.node(s.find(node.name()).unwrap());
            let expect = if id == m { GateKind::Nand } else { node.kind() };
            assert_eq!(sn.kind(), expect, "{}", node.name());
            let fanins: Vec<&str> = sn.fanin().iter().map(|&f| s.node(f).name()).collect();
            let orig: Vec<&str> = node.fanin().iter().map(|&f| c.node(f).name()).collect();
            assert_eq!(fanins, orig, "{}", node.name());
        }
    }

    #[test]
    fn swap_kind_rejects_bad_targets() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(d)\nOUTPUT(y)\nq = DFF(d)\ny = AND(a, b, q)\n",
            "t",
        )
        .unwrap();
        let a = c.find("a").unwrap();
        let q = c.find("q").unwrap();
        let y = c.find("y").unwrap();
        assert!(swap_kind(&c, a, GateKind::Not).is_err(), "input target");
        assert!(swap_kind(&c, q, GateKind::And).is_err(), "dff target");
        assert!(swap_kind(&c, y, GateKind::Dff).is_err(), "non-logic kind");
        assert!(swap_kind(&c, y, GateKind::Not).is_err(), "arity mismatch");
        assert!(swap_kind(&c, y, GateKind::Xor).is_ok(), "n-ary swap ok");
    }

    #[test]
    fn empty_selection_is_identity_modulo_name() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let h = harden_tmr(&c, &[]).unwrap();
        assert_eq!(h.num_gates(), c.num_gates());
        assert_eq!(h.num_inputs(), c.num_inputs());
    }
}
