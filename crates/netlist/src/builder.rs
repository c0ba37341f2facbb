//! Incremental construction of [`Circuit`]s.

use std::collections::HashMap;

use crate::circuit::{Circuit, Node, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::topo;

/// Builds a [`Circuit`] node by node, deferring validation to
/// [`finish`](CircuitBuilder::finish).
///
/// Nodes may be created in any order; forward references are expressed by
/// creating the driven gate after its drivers (ids are handed out on
/// creation). The `.bench` parser, which must tolerate uses before
/// definitions, goes through [`gate_named`](CircuitBuilder::gate_named)
/// with string operands instead.
///
/// # Examples
///
/// ```
/// use ser_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("half-adder");
/// let a = b.input("a");
/// let c = b.input("b");
/// let sum = b.gate("sum", GateKind::Xor, &[a, c]);
/// let carry = b.gate("carry", GateKind::And, &[a, c]);
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let circuit = b.finish().unwrap();
/// assert_eq!(circuit.num_gates(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    names: HashMap<String, NodeId>,
    /// Gates declared with string operands not yet resolved:
    /// (gate id, operand names).
    pending: Vec<(NodeId, Vec<String>)>,
    /// Output declarations by name (resolved in `finish`).
    pending_outputs: Vec<String>,
    duplicate: Option<String>,
}

impl CircuitBuilder {
    /// Creates an empty builder for a circuit called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            names: HashMap::new(),
            pending: Vec::new(),
            pending_outputs: Vec::new(),
            duplicate: None,
        }
    }

    fn add_node(&mut self, name: &str, kind: GateKind, fanin: Vec<NodeId>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        if self.names.insert(name.to_owned(), id).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.to_owned());
        }
        self.nodes.push(Node {
            name: name.to_owned(),
            kind,
            fanin,
            fanout: Vec::new(),
        });
        id
    }

    /// Adds a primary input and returns its id.
    pub fn input(&mut self, name: &str) -> NodeId {
        let id = self.add_node(name, GateKind::Input, Vec::new());
        self.inputs.push(id);
        id
    }

    /// Adds a constant-0 or constant-1 node.
    pub fn constant(&mut self, name: &str, value: bool) -> NodeId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.add_node(name, kind, Vec::new())
    }

    /// Adds a D flip-flop driven by `data` and returns the Q-output id.
    pub fn dff(&mut self, name: &str, data: NodeId) -> NodeId {
        let id = self.add_node(name, GateKind::Dff, vec![data]);
        self.dffs.push(id);
        id
    }

    /// Adds a logic gate with already-resolved fanin ids.
    pub fn gate(&mut self, name: &str, kind: GateKind, fanin: &[NodeId]) -> NodeId {
        self.add_node(name, kind, fanin.to_vec())
    }

    /// Adds a gate (or flip-flop) whose fanins are *signal names*, which
    /// may not exist yet. Resolution happens in [`finish`](Self::finish);
    /// this is the entry point used by the `.bench` parser.
    pub fn gate_named<S: AsRef<str>>(&mut self, name: &str, kind: GateKind, fanin: &[S]) -> NodeId {
        let id = self.add_node(name, kind, Vec::new());
        if kind == GateKind::Dff {
            self.dffs.push(id);
        }
        let operands = fanin.iter().map(|s| s.as_ref().to_owned()).collect();
        self.pending.push((id, operands));
        id
    }

    /// Marks an existing node as a primary output. A node may be marked
    /// more than once; duplicates are kept (mirroring repeated `OUTPUT`
    /// lines) only the first time.
    pub fn mark_output(&mut self, id: NodeId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Marks a signal as a primary output by name; the signal may be
    /// declared later. Resolution happens in [`finish`](Self::finish).
    pub fn mark_output_named(&mut self, name: &str) {
        self.pending_outputs.push(name.to_owned());
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resolves pending names, computes fanout lists, validates arities
    /// and acyclicity, and produces the final [`Circuit`].
    ///
    /// # Errors
    ///
    /// - [`NetlistError::DuplicateSignal`] if a name was defined twice.
    /// - [`NetlistError::UndefinedSignal`] if a named operand was never
    ///   defined.
    /// - [`NetlistError::UndrivenOutput`] if an output name was never
    ///   defined.
    /// - [`NetlistError::BadArity`] if a gate has an illegal fanin count.
    /// - [`NetlistError::CombinationalCycle`] if the combinational part
    ///   of the circuit is cyclic.
    pub fn finish(mut self) -> Result<Circuit, NetlistError> {
        if let Some(name) = self.duplicate.take() {
            return Err(NetlistError::DuplicateSignal { name });
        }
        // Resolve pending gate operands.
        for (id, operands) in std::mem::take(&mut self.pending) {
            let mut fanin = Vec::with_capacity(operands.len());
            for op in operands {
                let Some(&src) = self.names.get(&op) else {
                    return Err(NetlistError::UndefinedSignal { name: op });
                };
                fanin.push(src);
            }
            self.nodes[id.index()].fanin = fanin;
        }
        // Resolve pending outputs.
        for name in std::mem::take(&mut self.pending_outputs) {
            let Some(&id) = self.names.get(&name) else {
                return Err(NetlistError::UndrivenOutput { name });
            };
            if !self.outputs.contains(&id) {
                self.outputs.push(id);
            }
        }
        // Fanout lists.
        let mut fanouts: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &src in &node.fanin {
                fanouts[src.index()].push(NodeId::from_index(i));
            }
        }
        for (node, fo) in self.nodes.iter_mut().zip(fanouts) {
            node.fanout = fo;
        }
        let circuit = Circuit::from_parts(
            self.name,
            self.nodes,
            self.inputs,
            self.outputs,
            self.dffs,
            self.names,
        );
        circuit.validate()?;
        // Acyclicity of the combinational graph.
        topo::topo_order(&circuit)?;
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_reference_by_name() {
        let mut b = CircuitBuilder::new("fw");
        // Gate uses "a" before it is declared.
        let g = b.gate_named("g", GateKind::Not, &["a"]);
        let a = b.input("a");
        b.mark_output(g);
        let c = b.finish().unwrap();
        assert_eq!(c.node(g).fanin(), &[a]);
    }

    #[test]
    fn undefined_operand_is_an_error() {
        let mut b = CircuitBuilder::new("bad");
        b.gate_named("g", GateKind::Not, &["ghost"]);
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::UndefinedSignal {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn duplicate_name_is_an_error() {
        let mut b = CircuitBuilder::new("dup");
        b.input("x");
        b.input("x");
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::DuplicateSignal { name: "x".into() }
        );
    }

    #[test]
    fn undriven_output_is_an_error() {
        let mut b = CircuitBuilder::new("o");
        b.input("x");
        b.mark_output_named("y");
        assert_eq!(
            b.finish().unwrap_err(),
            NetlistError::UndrivenOutput { name: "y".into() }
        );
    }

    #[test]
    fn bad_arity_is_an_error() {
        let mut b = CircuitBuilder::new("arity");
        let x = b.input("x");
        let y = b.input("y");
        b.gate("g", GateKind::Not, &[x, y]);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::BadArity { got: 2, .. }
        ));
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        let mut b = CircuitBuilder::new("cyc");
        // g = NOT(h), h = NOT(g) — a combinational loop.
        let g = b.gate_named("g", GateKind::Not, &["h"]);
        b.gate_named("h", GateKind::Not, &["g"]);
        b.mark_output(g);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::CombinationalCycle { .. }
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = DFF(d); d = NOT(q) — legal: the loop crosses a flip-flop.
        let mut b = CircuitBuilder::new("tff");
        let q = b.gate_named("q", GateKind::Dff, &["d"]);
        b.gate_named("d", GateKind::Not, &["q"]);
        b.mark_output(q);
        let c = b.finish().unwrap();
        assert_eq!(c.num_dffs(), 1);
    }

    #[test]
    fn duplicate_output_marks_collapse() {
        let mut b = CircuitBuilder::new("oo");
        let x = b.input("x");
        b.mark_output(x);
        b.mark_output(x);
        b.mark_output_named("x");
        let c = b.finish().unwrap();
        assert_eq!(c.outputs(), &[x]);
    }

    #[test]
    fn constants() {
        let mut b = CircuitBuilder::new("k");
        let zero = b.constant("zero", false);
        let one = b.constant("one", true);
        let g = b.gate("g", GateKind::And, &[zero, one]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        assert_eq!(c.node(zero).kind(), GateKind::Const0);
        assert_eq!(c.node(one).kind(), GateKind::Const1);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn builder_len() {
        let mut b = CircuitBuilder::new("n");
        assert!(b.is_empty());
        b.input("x");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn fanout_multiplicity_for_repeated_pin() {
        // g = AND(x, x): x should appear twice in g's fanin and g twice
        // in x's fanout (edge multiplicity preserved).
        let mut b = CircuitBuilder::new("multi");
        let x = b.input("x");
        let g = b.gate("g", GateKind::And, &[x, x]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        assert_eq!(c.node(g).fanin(), &[x, x]);
        assert_eq!(c.node(x).fanout(), &[g, g]);
    }
}
