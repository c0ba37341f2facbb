//! The bit-parallel combinational evaluation engine.

use std::sync::Arc;

use ser_netlist::{Circuit, GateKind, NetlistError, NodeId};

/// A compiled bit-parallel simulator over one circuit.
///
/// Construction computes a topological evaluation schedule once; every
/// call to [`run`](BitSim::run) then evaluates 64 patterns in a single
/// sweep. Flip-flop values are *inputs* to a combinational evaluation —
/// sequential behaviour is layered on top by
/// [`SeqSim`](crate::SeqSim).
///
/// The simulator **owns** its circuit through an `Arc`: it has no
/// lifetime parameter, can be cached, cloned and moved across threads
/// freely (session layers and services build on this). Constructors
/// accept anything convertible into an `Arc<Circuit>` — pass a borrowed
/// `&Circuit` for convenience (cloned once) or an `Arc` you already
/// hold (O(1)).
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sim::BitSim;
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let sim = BitSim::new(&c)?;
/// // Two packed patterns: (a,b) = (1,0) in bit 0 and (1,1) in bit 1.
/// let values = sim.run(&[0b11, 0b10]);
/// let y = c.find("y").unwrap();
/// assert_eq!(values[y.index()] & 0b11, 0b10);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitSim {
    circuit: Arc<Circuit>,
    /// Topological schedule over combinational edges.
    order: Vec<NodeId>,
    /// Source nodes (inputs then flip-flops, in declaration order): the
    /// signals a caller must assign.
    sources: Vec<NodeId>,
}

impl BitSim {
    /// Compiles a simulator for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit's
    /// combinational graph is cyclic.
    pub fn new(circuit: impl Into<Arc<Circuit>>) -> Result<Self, NetlistError> {
        let circuit = circuit.into();
        let order = ser_netlist::topo_order(&circuit)?;
        // Freshly computed order: no re-validation needed.
        Ok(Self::from_parts(circuit, order))
    }

    /// Compiles a simulator around a topological order the caller
    /// already computed (e.g. cached
    /// [`TopoArtifacts`](ser_netlist::TopoArtifacts) handed out by a
    /// session layer), skipping the sort entirely.
    ///
    /// The caller-supplied order is validated (O(V+E), once per
    /// compilation): a bad schedule would silently corrupt every
    /// simulation built on it.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a topological order of `circuit`'s
    /// combinational graph.
    #[must_use]
    pub fn with_schedule(circuit: impl Into<Arc<Circuit>>, order: Vec<NodeId>) -> Self {
        let circuit = circuit.into();
        assert!(
            ser_netlist::is_topo_order(&circuit, &order),
            "schedule must be a topological order of the circuit"
        );
        Self::from_parts(circuit, order)
    }

    fn from_parts(circuit: Arc<Circuit>, order: Vec<NodeId>) -> Self {
        let sources = circuit
            .inputs()
            .iter()
            .chain(circuit.dffs().iter())
            .copied()
            .collect();
        BitSim {
            circuit,
            order,
            sources,
        }
    }

    /// The circuit this simulator was compiled for.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The shared handle to that circuit — O(1) to clone, the way a
    /// session or service hands the same netlist to further consumers.
    #[must_use]
    pub fn circuit_arc(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The signals a caller assigns: primary inputs first (declaration
    /// order), then flip-flop outputs (declaration order).
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The evaluation schedule (a topological order of all nodes).
    #[must_use]
    pub fn schedule(&self) -> &[NodeId] {
        &self.order
    }

    /// Evaluates 64 packed patterns given one word per source signal
    /// (ordered as [`sources`](Self::sources)) and returns the value
    /// word of every node, indexed by [`NodeId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `source_words.len() != self.sources().len()`.
    #[must_use]
    pub fn run(&self, source_words: &[u64]) -> Vec<u64> {
        let mut values = vec![0u64; self.circuit.len()];
        self.run_into(source_words, &mut values);
        values
    }

    /// Like [`run`](Self::run) but reuses a caller-provided buffer of
    /// length `circuit.len()` (the inner loop of the Monte-Carlo
    /// baseline calls this millions of times).
    ///
    /// # Panics
    ///
    /// Panics if `source_words` or `values` have the wrong length.
    pub fn run_into(&self, source_words: &[u64], values: &mut [u64]) {
        assert_eq!(
            source_words.len(),
            self.sources.len(),
            "expected one word per source signal"
        );
        assert_eq!(values.len(), self.circuit.len(), "value buffer length");
        for (&src, &word) in self.sources.iter().zip(source_words) {
            values[src.index()] = word;
        }
        self.propagate(values);
    }

    /// Runs the combinational sweep assuming source values are already
    /// written into `values`; fills every other node.
    pub fn propagate(&self, values: &mut [u64]) {
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        for &id in &self.order {
            let node = self.circuit.node(id);
            match node.kind() {
                GateKind::Input | GateKind::Dff => {} // assigned by caller
                kind => {
                    fanin_buf.clear();
                    fanin_buf.extend(node.fanin().iter().map(|f| values[f.index()]));
                    values[id.index()] = kind.eval_word(&fanin_buf);
                }
            }
        }
    }

    /// Evaluates a single scalar pattern (one bool per source) — a thin
    /// convenience wrapper used by tests and examples; bit 0 of each
    /// word carries the value.
    #[must_use]
    pub fn run_scalar(&self, source_bits: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = source_bits.iter().map(|&b| u64::from(b)).collect();
        self.run(&words).into_iter().map(|w| w & 1 != 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::{parse_bench, CircuitBuilder};

    fn full_adder() -> Circuit {
        parse_bench(
            "
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
axb = XOR(a, b)
sum = XOR(axb, cin)
ab = AND(a, b)
ac = AND(axb, cin)
cout = OR(ab, ac)
",
            "fa",
        )
        .unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let c = full_adder();
        let sim = BitSim::new(&c).unwrap();
        let sum = c.find("sum").unwrap();
        let cout = c.find("cout").unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let vals = sim.run_scalar(&[a, b, cin]);
                    let total = u8::from(a) + u8::from(b) + u8::from(cin);
                    assert_eq!(vals[sum.index()], total & 1 == 1, "sum({a},{b},{cin})");
                    assert_eq!(vals[cout.index()], total >= 2, "cout({a},{b},{cin})");
                }
            }
        }
    }

    #[test]
    fn bit_parallel_matches_scalar() {
        let c = full_adder();
        let sim = BitSim::new(&c).unwrap();
        // Pack all 8 assignments into one block.
        let mut words = [0u64; 3];
        for p in 0..8u32 {
            for s in 0..3 {
                if p >> s & 1 != 0 {
                    words[s as usize] |= 1 << p;
                }
            }
        }
        let packed = sim.run(&words);
        for p in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|s| p >> s & 1 != 0).collect();
            let scalar = sim.run_scalar(&bits);
            for (id, &b) in scalar.iter().enumerate() {
                assert_eq!(packed[id] >> p & 1 != 0, b, "node {id} pattern {p}");
            }
        }
    }

    #[test]
    fn dff_is_a_source() {
        // q = DFF(d); d = NOT(q); out = BUF(q)
        let mut b = CircuitBuilder::new("seq");
        let q = b.gate_named("q", GateKind::Dff, &["d"]);
        let d = b.gate_named("d", GateKind::Not, &["q"]);
        let out = b.gate("out", GateKind::Buf, &[q]);
        b.mark_output(out);
        let c = b.finish().unwrap();
        let sim = BitSim::new(&c).unwrap();
        assert_eq!(sim.sources(), &[q]);
        let vals = sim.run(&[1]); // q = 1 in pattern 0
        assert_eq!(vals[out.index()] & 1, 1);
        assert_eq!(vals[d.index()] & 1, 0); // d = NOT(q)
    }

    #[test]
    fn constants_evaluate() {
        let mut b = CircuitBuilder::new("k");
        let one = b.constant("one", true);
        let zero = b.constant("zero", false);
        let g = b.gate("g", GateKind::Xor, &[one, zero]);
        b.mark_output(g);
        let c = b.finish().unwrap();
        let sim = BitSim::new(&c).unwrap();
        let vals = sim.run(&[]);
        assert_eq!(vals[one.index()], !0);
        assert_eq!(vals[zero.index()], 0);
        assert_eq!(vals[g.index()], !0);
    }

    #[test]
    #[should_panic(expected = "one word per source")]
    fn wrong_source_count_panics() {
        let c = full_adder();
        let sim = BitSim::new(&c).unwrap();
        let _ = sim.run(&[0, 0]);
    }

    #[test]
    fn schedule_is_topological() {
        let c = full_adder();
        let sim = BitSim::new(&c).unwrap();
        assert!(ser_netlist::is_topo_order(&c, sim.schedule()));
    }
}
