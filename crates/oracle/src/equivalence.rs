//! Combinational equivalence checking via BDDs.
//!
//! The hardening transforms must not change circuit function; this
//! module proves it (or produces a counterexample) by building both
//! circuits' output functions over a shared variable space and
//! comparing canonical BDDs. Inputs and outputs are matched *by name* —
//! the invariant [`harden_tmr`](ser_netlist::harden_tmr) maintains.
//! Flip-flop Q outputs are treated as free pseudo-inputs (also matched
//! by name), so two sequential circuits are compared cycle-for-cycle.

// ser-lint: allow(no-hash-iter) — the source-name → variable map below
// is used for keyed lookup only, never iterated.
use std::collections::HashMap;

use ser_netlist::{Circuit, GateKind, NodeId};
use ser_sp::SpError;

use crate::bdd::{Bdd, BddOverflow, BddRef};

/// Result of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// All matched outputs compute identical functions.
    Equivalent,
    /// Some output differs; a satisfying input assignment is included.
    Inequivalent {
        /// Name of the first differing output.
        output: String,
        /// A concrete input assignment (by source name) exposing the
        /// difference; sources not listed are "don't care" (take 0).
        witness: Vec<(String, bool)>,
    },
    /// The circuits' interfaces do not line up.
    InterfaceMismatch {
        /// Human-readable reason.
        reason: String,
    },
}

/// Checks combinational equivalence of two circuits with matching
/// source and output names.
///
/// # Errors
///
/// [`SpError::CircuitTooLarge`] if the BDDs exceed `node_limit`;
/// [`SpError::Netlist`] if a circuit cannot be ordered.
///
/// # Examples
///
/// ```
/// use ser_netlist::{harden_tmr, parse_bench};
/// use ser_oracle::{check_equivalence, Equivalence};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "t")?;
/// let y = c.find("y").unwrap();
/// let hardened = harden_tmr(&c, &[y])?;
/// assert_eq!(check_equivalence(&c, &hardened, 1 << 20)?, Equivalence::Equivalent);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_equivalence(
    left: &Circuit,
    right: &Circuit,
    node_limit: usize,
) -> Result<Equivalence, SpError> {
    // --- Interface matching by name. -----------------------------------
    let source_names = |c: &Circuit| -> Vec<String> {
        c.inputs()
            .iter()
            .chain(c.dffs().iter())
            .map(|&id| c.node(id).name().to_owned())
            .collect()
    };
    let mut lsrc = source_names(left);
    let mut rsrc = source_names(right);
    lsrc.sort();
    rsrc.sort();
    if lsrc != rsrc {
        return Ok(Equivalence::InterfaceMismatch {
            reason: format!("source sets differ: {lsrc:?} vs {rsrc:?}"),
        });
    }
    let lout: Vec<&str> = left
        .outputs()
        .iter()
        .map(|&o| left.node(o).name())
        .collect();
    let rout: Vec<&str> = right
        .outputs()
        .iter()
        .map(|&o| right.node(o).name())
        .collect();
    if lout.len() != rout.len() || {
        let mut a = lout.clone();
        let mut b = rout.clone();
        a.sort_unstable();
        b.sort_unstable();
        a != b
    } {
        return Ok(Equivalence::InterfaceMismatch {
            reason: format!("output sets differ: {lout:?} vs {rout:?}"),
        });
    }

    // --- Shared variable space. ----------------------------------------
    // ser-lint: allow(no-hash-iter) — keyed lookup by source name only.
    let var_index: HashMap<&str, usize> = lsrc
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut m = Bdd::new(var_index.len(), node_limit);

    let lfuncs = build_functions(&mut m, left, &var_index)?;
    let rfuncs = build_functions(&mut m, right, &var_index)?;

    // --- Compare outputs by name. ---------------------------------------
    for &lo in left.outputs() {
        let name = left.node(lo).name();
        let ro = right.find(name).expect("output names matched above");
        let lf = lfuncs[lo.index()];
        let rf = rfuncs[ro.index()];
        if lf != rf {
            // Canonicity makes difference a handle comparison; extract a
            // witness from the XOR.
            let diff = m.xor(lf, rf)?;
            let assignment = satisfying_assignment(&m, diff);
            let witness = assignment
                .into_iter()
                .map(|(v, b)| (lsrc[v].clone(), b))
                .collect();
            return Ok(Equivalence::Inequivalent {
                output: name.to_owned(),
                witness,
            });
        }
    }
    Ok(Equivalence::Equivalent)
}

/// Builds per-node BDDs for `circuit` using a shared manager whose
/// variables are indexed by source *name*.
fn build_functions(
    m: &mut Bdd,
    circuit: &Circuit,
    // ser-lint: allow(no-hash-iter) — keyed lookup by source name only.
    var_index: &HashMap<&str, usize>,
) -> Result<Vec<BddRef>, BddOverflow> {
    let order = ser_netlist::topo_order(circuit).expect("caller validated");
    let mut funcs = vec![BddRef::FALSE; circuit.len()];
    let mut fanins: Vec<BddRef> = Vec::new();
    for id in order {
        let node = circuit.node(id);
        funcs[id.index()] = match node.kind() {
            GateKind::Input | GateKind::Dff => m.var(var_index[node.name()])?,
            GateKind::Const0 => BddRef::FALSE,
            GateKind::Const1 => BddRef::TRUE,
            kind => {
                fanins.clear();
                fanins.extend(node.fanin().iter().map(|f| funcs[f.index()]));
                m.gate(kind, &fanins)?
            }
        };
    }
    Ok(funcs)
}

/// Any satisfying assignment of a non-FALSE function: walk toward TRUE.
fn satisfying_assignment(m: &Bdd, f: BddRef) -> Vec<(usize, bool)> {
    let mut path = Vec::new();
    m.walk_to_true(f, &mut path);
    path
}

/// The nodes TMR'd by [`harden_tmr`](ser_netlist::harden_tmr) keep
/// their pre-transform ids only in the original circuit; this helper
/// maps a hardening plan's node choices to the replica names whose SER
/// vanishes after the transform. It names the replicas of a gate
/// hardened for the first time, whose stem is the gate's own name; a
/// gate hardened again (its voter) gets the next free stem instead.
#[must_use]
pub fn tmr_replica_names(circuit: &Circuit, node: NodeId) -> [String; 3] {
    let name = circuit.node(node).name();
    [
        format!("{name}__r0"),
        format!("{name}__r1"),
        format!("{name}__r2"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::{harden_tmr, parse_bench};

    #[test]
    fn identical_circuits_equivalent() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "t").unwrap();
        assert_eq!(
            check_equivalence(&c, &c, 1 << 16).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn structurally_different_but_equal() {
        // XOR vs its NAND decomposition.
        let a = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "x").unwrap();
        let b = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NAND(a, b)\nv = NAND(a, u)\nw = NAND(b, u)\ny = NAND(v, w)\n",
            "nx",
        )
        .unwrap();
        assert_eq!(
            check_equivalence(&a, &b, 1 << 16).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn inequivalent_with_witness() {
        let a = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and").unwrap();
        let b = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "or").unwrap();
        match check_equivalence(&a, &b, 1 << 16).unwrap() {
            Equivalence::Inequivalent { output, witness } => {
                assert_eq!(output, "y");
                // Verify the witness actually differs: AND != OR exactly
                // when exactly one input is 1.
                let ones = witness.iter().filter(|(_, v)| *v).count();
                assert_eq!(ones, 1, "witness {witness:?}");
            }
            other => panic!("expected inequivalence, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_detected() {
        let a = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let b = parse_bench("INPUT(x)\nOUTPUT(y)\ny = NOT(x)\n", "t").unwrap();
        assert!(matches!(
            check_equivalence(&a, &b, 1 << 16).unwrap(),
            Equivalence::InterfaceMismatch { .. }
        ));
    }

    #[test]
    fn tmr_preserves_function_formally() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nu = NAND(a, b)\nv = XOR(u, c)\ny = OR(v, a)\nz = AND(u, v)\n",
            "f",
        )
        .unwrap();
        let targets: Vec<_> = ["u", "v", "y"].iter().map(|n| c.find(n).unwrap()).collect();
        let h = harden_tmr(&c, &targets).unwrap();
        assert_eq!(
            check_equivalence(&c, &h, 1 << 18).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn sequential_compared_cycle_for_cycle() {
        // Same next-state/output logic expressed differently.
        let a = parse_bench(
            "INPUT(x)\nOUTPUT(y)\nq = DFF(d)\nd = NOT(x)\ny = AND(q, x)\n",
            "s1",
        )
        .unwrap();
        let b = parse_bench(
            "INPUT(x)\nOUTPUT(y)\nq = DFF(d)\nnx = NOT(x)\nd = BUF(nx)\ny = AND(x, q)\n",
            "s2",
        )
        .unwrap();
        assert_eq!(
            check_equivalence(&a, &b, 1 << 16).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn replica_names_helper() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let y = c.find("y").unwrap();
        let names = tmr_replica_names(&c, y);
        assert_eq!(names[0], "y__r0");
        assert_eq!(names[2], "y__r2");
    }
}
