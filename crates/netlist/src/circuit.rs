//! The gate-level circuit arena.

use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;

/// Index of a node inside one [`Circuit`]'s arena.
///
/// Node ids are dense (`0..circuit.len()`), stable for the lifetime of the
/// circuit, and meaningless across circuits. They index plain `Vec`s, which
/// is what makes the per-node traversal kernels of the EPP engine cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("circuit larger than u32::MAX nodes"))
    }

    /// The raw index, for use with slices sized `circuit.len()`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the circuit: a primary input, flip-flop, constant or gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) kind: GateKind,
    pub(crate) fanin: Vec<NodeId>,
    pub(crate) fanout: Vec<NodeId>,
}

impl Node {
    /// The node's signal name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Fanin node ids, in declaration order. For a [`GateKind::Dff`] this
    /// is the single D-pin driver.
    #[must_use]
    pub fn fanin(&self) -> &[NodeId] {
        &self.fanin
    }

    /// Fanout node ids (every node that lists this one in its fanin),
    /// in ascending id order. A node driving `k` pins of the same gate
    /// appears `k` times, mirroring the multiplicity of edges.
    #[must_use]
    pub fn fanout(&self) -> &[NodeId] {
        &self.fanout
    }
}

/// A gate-level sequential circuit.
///
/// The arena holds every signal as a [`Node`]; primary inputs and D
/// flip-flops are node kinds. Primary outputs are a *list of node ids*
/// (the `.bench` format marks existing signals as outputs rather than
/// introducing new nodes).
///
/// For combinational analyses (signal probability, EPP, bit-parallel
/// simulation) the circuit is viewed as a DAG whose **sources** are
/// primary inputs, flip-flop outputs (Q) and constants, and whose
/// **sinks** are primary outputs and flip-flop inputs (D). The paper's
/// `P_sensitized` counts propagation to either kind of sink.
///
/// # Examples
///
/// ```
/// use ser_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("toy");
/// let a = b.input("a");
/// let bb = b.input("b");
/// let g = b.gate("g", GateKind::And, &[a, bb]);
/// b.mark_output(g);
/// let c = b.finish().unwrap();
/// assert_eq!(c.num_inputs(), 2);
/// assert_eq!(c.outputs(), &[g]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// [`structural_hash`](Self::structural_hash), computed once at
    /// construction. Declared first so the derived `PartialEq` rejects a
    /// different netlist after one `u64` compare.
    fingerprint: u64,
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) dffs: Vec<NodeId>,
    pub(crate) names: HashMap<String, NodeId>,
}

impl Circuit {
    /// The circuit's name (e.g. `"s953"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (inputs + flip-flops + constants + gates).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the circuit has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from a different circuit).
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Fallible variant of [`node`](Self::node).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNodeId`] if `id` is out of range.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, NetlistError> {
        self.nodes
            .get(id.index())
            .ok_or(NetlistError::InvalidNodeId {
                index: id.index(),
                len: self.nodes.len(),
            })
    }

    /// Iterate over `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// All node ids, in arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Primary input ids, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output ids, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Flip-flop node ids, in declaration order.
    #[must_use]
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops.
    #[must_use]
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Number of logic gates (excludes inputs, flip-flops and constants).
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_logic()).count()
    }

    /// Look a node up by signal name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Combinational *sources*: primary inputs, flip-flop outputs and
    /// constants — the nodes with no combinational fanin.
    pub fn comb_sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter()
            .filter(|(_, n)| {
                matches!(
                    n.kind,
                    GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
                )
            })
            .map(|(id, _)| id)
    }

    /// Combinational *sinks* where an error becomes observable: each
    /// primary output, plus each flip-flop's D driver. A node is yielded
    /// once per sink role it plays (a signal can be both a PO and feed a
    /// DFF); call `.collect::<BTreeSet<_>>()` to deduplicate.
    pub fn observe_points(&self) -> impl Iterator<Item = ObservePoint> + '_ {
        let pos = self
            .outputs
            .iter()
            .map(|&id| ObservePoint::PrimaryOutput(id));
        let ffs = self.dffs.iter().map(|&ff| ObservePoint::FlipFlop {
            dff: ff,
            data: self.nodes[ff.index()].fanin[0],
        });
        pos.chain(ffs)
    }

    /// Returns `true` if the circuit is purely combinational.
    #[must_use]
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }

    /// Assembles a circuit from finished parts and computes its
    /// fingerprint — the one place a `Circuit` is constructed
    /// ([`CircuitBuilder::finish`](crate::CircuitBuilder::finish)).
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        inputs: Vec<NodeId>,
        outputs: Vec<NodeId>,
        dffs: Vec<NodeId>,
        names: HashMap<String, NodeId>,
    ) -> Self {
        Circuit {
            fingerprint: fingerprint(&name, &nodes, &outputs),
            name,
            nodes,
            inputs,
            outputs,
            dffs,
            names,
        }
    }

    /// A 64-bit structural fingerprint of the netlist: name, every
    /// node's (name, kind, fanin), and the output list, folded with
    /// FNV-1a. Identical netlists always hash equal; it is a
    /// *fingerprint*, so distinct netlists can collide (64 bits,
    /// non-cryptographic) — consumers that must never confuse circuits
    /// should confirm equality on a hash match, the way `SerService`'s
    /// session cache does before serving a warm session.
    ///
    /// Computed once, when the circuit is built
    /// ([`CircuitBuilder::finish`](crate::CircuitBuilder::finish)), so
    /// reading it is O(1). The fold is pinned — `tests/fingerprint.rs`
    /// checks it against an independent copy and two recorded values —
    /// so every `netlist_hash` the service reports stays stable.
    ///
    /// The hash is deterministic across processes and platforms (no
    /// `RandomState`), so it can be logged, compared between runs and
    /// used as a stable cache key.
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        self.fingerprint
    }

    /// Internal validation used by the builder and parser: arity checks
    /// and fanout consistency. Exposed for tests of hand-built circuits.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] for an illegal fanin count.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for node in &self.nodes {
            if !node.kind.arity_ok(node.fanin.len()) {
                return Err(NetlistError::BadArity {
                    name: node.name.clone(),
                    kind: node.kind.to_string(),
                    got: node.fanin.len(),
                });
            }
        }
        Ok(())
    }
}

/// The FNV-1a fold behind [`Circuit::structural_hash`]: the circuit
/// name, the node count, each node's (name, `0xFF`, kind, fanin count,
/// fanin ids) and the output list, little-endian, one byte at a time.
fn fingerprint(name: &str, nodes: &[Node], outputs: &[NodeId]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(name.as_bytes());
    eat(&(nodes.len() as u64).to_le_bytes());
    for node in nodes {
        eat(node.name.as_bytes());
        eat(&[0xFF, node.kind as u8]);
        eat(&(node.fanin.len() as u32).to_le_bytes());
        for f in &node.fanin {
            eat(&(f.0).to_le_bytes());
        }
    }
    eat(&(outputs.len() as u64).to_le_bytes());
    for o in outputs {
        eat(&(o.0).to_le_bytes());
    }
    h
}

/// The bridge that lets every owned analysis entry point (`BitSim`,
/// `EppAnalysis`, `AnalysisSession`, …) keep accepting `&Circuit` at
/// call sites: a borrowed circuit is promoted to a shared handle by
/// cloning it once. Hot paths that already hold an `Arc<Circuit>`
/// should pass (a clone of) the `Arc` instead, which is O(1).
impl From<&Circuit> for std::sync::Arc<Circuit> {
    fn from(circuit: &Circuit) -> Self {
        std::sync::Arc::new(circuit.clone())
    }
}

/// A point at which a propagating error becomes observable.
///
/// `P_sensitized` in the paper is computed over *all* observe points
/// reachable from the error site: primary outputs and flip-flops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObservePoint {
    /// A primary output; the observed signal is the output node itself.
    PrimaryOutput(NodeId),
    /// A flip-flop; the observed signal is the D-pin driver `data`.
    FlipFlop {
        /// The flip-flop node.
        dff: NodeId,
        /// The node driving the flip-flop's D pin.
        data: NodeId,
    },
}

impl ObservePoint {
    /// The signal whose logic value is observed at this point.
    #[must_use]
    pub fn signal(self) -> NodeId {
        match self {
            ObservePoint::PrimaryOutput(id) => id,
            ObservePoint::FlipFlop { data, .. } => data,
        }
    }

    /// `true` if this observe point is a flip-flop (the error would be
    /// *latched* rather than leaving the circuit).
    #[must_use]
    pub fn is_flip_flop(self) -> bool {
        matches!(self, ObservePoint::FlipFlop { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    fn tiny() -> Circuit {
        // a, b inputs; g = AND(a,b); f = DFF(g); h = OR(f, a); output h, g
        let mut b = CircuitBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let g = b.gate("g", GateKind::And, &[a, bb]);
        let f = b.dff("f", g);
        let h = b.gate("h", GateKind::Or, &[f, a]);
        b.mark_output(h);
        b.mark_output(g);
        b.finish().unwrap()
    }

    #[test]
    fn counts() {
        let c = tiny();
        assert_eq!(c.len(), 5);
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 2);
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_gates(), 2);
        assert!(!c.is_empty());
        assert!(!c.is_combinational());
    }

    #[test]
    fn find_by_name() {
        let c = tiny();
        let g = c.find("g").unwrap();
        assert_eq!(c.node(g).name(), "g");
        assert_eq!(c.node(g).kind(), GateKind::And);
        assert!(c.find("nope").is_none());
    }

    #[test]
    fn fanout_is_consistent_with_fanin() {
        let c = tiny();
        for (id, node) in c.iter() {
            for &fi in node.fanin() {
                assert!(
                    c.node(fi).fanout().contains(&id),
                    "{fi} missing fanout to {id}"
                );
            }
            for &fo in node.fanout() {
                assert!(
                    c.node(fo).fanin().contains(&id),
                    "{fo} missing fanin from {id}"
                );
            }
        }
    }

    #[test]
    fn observe_points_cover_pos_and_ffs() {
        let c = tiny();
        let pts: Vec<ObservePoint> = c.observe_points().collect();
        assert_eq!(pts.len(), 3); // two POs + one FF
        let h = c.find("h").unwrap();
        let g = c.find("g").unwrap();
        let f = c.find("f").unwrap();
        assert!(pts.contains(&ObservePoint::PrimaryOutput(h)));
        assert!(pts.contains(&ObservePoint::PrimaryOutput(g)));
        assert!(pts.contains(&ObservePoint::FlipFlop { dff: f, data: g }));
        // The FF observes the D driver signal.
        assert_eq!(ObservePoint::FlipFlop { dff: f, data: g }.signal(), g);
        assert!(ObservePoint::FlipFlop { dff: f, data: g }.is_flip_flop());
        assert!(!ObservePoint::PrimaryOutput(h).is_flip_flop());
    }

    #[test]
    fn comb_sources_are_inputs_and_ffs() {
        let c = tiny();
        let srcs: Vec<NodeId> = c.comb_sources().collect();
        assert_eq!(srcs.len(), 3);
        assert!(srcs.contains(&c.find("a").unwrap()));
        assert!(srcs.contains(&c.find("b").unwrap()));
        assert!(srcs.contains(&c.find("f").unwrap()));
    }

    #[test]
    fn try_node_out_of_range() {
        let c = tiny();
        let bad = NodeId::from_index(99);
        assert!(matches!(
            c.try_node(bad),
            Err(NetlistError::InvalidNodeId { index: 99, .. })
        ));
    }

    #[test]
    fn node_id_display_and_order() {
        let a = NodeId::from_index(3);
        let b = NodeId::from_index(7);
        assert!(a < b);
        assert_eq!(a.to_string(), "n3");
        assert_eq!(a.index(), 3);
    }

    #[test]
    fn structural_hash_distinguishes_netlists() {
        fn build(name: &str, kind: GateKind) -> Circuit {
            let mut b = CircuitBuilder::new(name);
            let a = b.input("a");
            let bb = b.input("b");
            let g = b.gate("g", kind, &[a, bb]);
            b.mark_output(g);
            b.finish().unwrap()
        }
        let c = build("tiny", GateKind::And);
        // Stable: same netlist, same hash, including across clones.
        assert_eq!(c.structural_hash(), c.structural_hash());
        assert_eq!(
            c.structural_hash(),
            build("tiny", GateKind::And).structural_hash()
        );
        // An Arc promoted from a borrow hashes identically.
        let shared: std::sync::Arc<Circuit> = (&c).into();
        assert_eq!(shared.structural_hash(), c.structural_hash());

        // A single gate-kind change or a rename flips the hash.
        assert_ne!(
            c.structural_hash(),
            build("tiny", GateKind::Or).structural_hash()
        );
        assert_ne!(
            c.structural_hash(),
            build("tiny2", GateKind::And).structural_hash()
        );
        assert_ne!(c.structural_hash(), tiny().structural_hash());
    }
}
