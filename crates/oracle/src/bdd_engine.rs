//! The BDD-backed exact signal-probability engine.
//!
//! Same exactness as [`ExactSp`](crate::ExactSp), different scaling
//! law: enumeration is exponential in *input count*, BDDs are linear in
//! *BDD size* — so wide-but-benign circuits (adders, comparators,
//! random control logic) become tractable. Flip-flop outputs are free
//! 0.5 sources (the suite's combinational view).

use ser_netlist::{Circuit, GateKind, NodeId};
use ser_sp::{InputProbs, SpEngine, SpError, SpVector};

use crate::bdd::{Bdd, BddRef};
use crate::exact::source_probs;

/// Exact SP via BDDs.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_oracle::BddSp;
/// use ser_sp::{InputProbs, SpEngine};
///
/// // 32 inputs: far beyond enumeration, trivial for BDDs.
/// let mut src = String::new();
/// for i in 0..32 { src.push_str(&format!("INPUT(i{i})\n")); }
/// src.push_str("OUTPUT(y)\ny = AND(");
/// src.push_str(&(0..32).map(|i| format!("i{i}")).collect::<Vec<_>>().join(", "));
/// src.push_str(")\n");
/// let c = parse_bench(&src, "wide")?;
/// let sp = BddSp::new().compute(&c, &InputProbs::uniform(0.5))?;
/// let y = c.find("y").unwrap();
/// assert!((sp.get(y) - 0.5f64.powi(32)).abs() < 1e-18);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddSp {
    node_limit: usize,
}

impl BddSp {
    /// Creates the engine with the default node limit (2^21 ≈ 2M BDD
    /// nodes, ~50 MB including tables).
    #[must_use]
    pub fn new() -> Self {
        BddSp {
            node_limit: 1 << 21,
        }
    }

    /// Adjusts the BDD node limit.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_node_limit(mut self, n: usize) -> Self {
        assert!(n >= 2, "limit must hold the constants");
        self.node_limit = n;
        self
    }

    /// Builds per-node BDDs for the whole circuit (shared manager),
    /// which the exact-EPP oracle reuses.
    ///
    /// Returns the manager, the per-node function handles, and the
    /// per-variable probabilities.
    ///
    /// # Errors
    ///
    /// [`SpError::CircuitTooLarge`] when the node limit is hit;
    /// [`SpError::Netlist`] for cyclic circuits.
    pub(crate) fn build(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
    ) -> Result<(Bdd, Vec<BddRef>, Vec<f64>), SpError> {
        let order = ser_netlist::topo_order(circuit)?;
        let sources: Vec<NodeId> = circuit
            .inputs()
            .iter()
            .chain(circuit.dffs().iter())
            .copied()
            .collect();
        let var_probs = source_probs(circuit, &sources, inputs);
        let mut var_of = vec![usize::MAX; circuit.len()];
        for (v, &s) in sources.iter().enumerate() {
            var_of[s.index()] = v;
        }
        let mut m = Bdd::new(sources.len(), self.node_limit);
        let mut funcs: Vec<BddRef> = vec![BddRef::FALSE; circuit.len()];
        let mut fanins: Vec<BddRef> = Vec::new();
        for id in order {
            let node = circuit.node(id);
            funcs[id.index()] = match node.kind() {
                GateKind::Input | GateKind::Dff => m.var(var_of[id.index()])?,
                GateKind::Const0 => BddRef::FALSE,
                GateKind::Const1 => BddRef::TRUE,
                kind => {
                    fanins.clear();
                    fanins.extend(node.fanin().iter().map(|f| funcs[f.index()]));
                    m.gate(kind, &fanins)?
                }
            };
        }
        Ok((m, funcs, var_probs))
    }
}

impl Default for BddSp {
    fn default() -> Self {
        BddSp::new()
    }
}

impl SpEngine for BddSp {
    fn name(&self) -> &'static str {
        "bdd"
    }

    fn compute(&self, circuit: &Circuit, inputs: &InputProbs) -> Result<SpVector, SpError> {
        let (m, funcs, var_probs) = self.build(circuit, inputs)?;
        let values = funcs
            .into_iter()
            .map(|f| m.probability(f, &var_probs).clamp(0.0, 1.0))
            .collect();
        Ok(SpVector::new(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSp;
    use ser_netlist::parse_bench;

    #[test]
    fn matches_enumeration_oracle() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = NAND(a, b)\nv = NOR(u, c)\nw = XOR(a, v)\ny = AND(w, u)\n",
            "mix",
        )
        .unwrap();
        let a = c.find("a").unwrap();
        let probs = InputProbs::uniform(0.5).with(a, 0.3);
        let bdd = BddSp::new().compute(&c, &probs).unwrap();
        let enumr = ExactSp::new().compute(&c, &probs).unwrap();
        assert!(
            bdd.max_abs_diff(&enumr) < 1e-12,
            "max diff {}",
            bdd.max_abs_diff(&enumr)
        );
    }

    #[test]
    fn exact_on_reconvergence() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)\n", "rc").unwrap();
        let sp = BddSp::new().compute(&c, &InputProbs::default()).unwrap();
        assert_eq!(sp.get(c.find("y").unwrap()), 0.0);
    }

    #[test]
    fn wide_support_tractable() {
        // 40-input parity: enumeration impossible, BDD linear.
        let mut src = String::new();
        for i in 0..40 {
            src.push_str(&format!("INPUT(i{i})\n"));
        }
        src.push_str("OUTPUT(y)\ny = XOR(");
        src.push_str(
            &(0..40)
                .map(|i| format!("i{i}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        src.push_str(")\n");
        let c = parse_bench(&src, "parity40").unwrap();
        let sp = BddSp::new().compute(&c, &InputProbs::uniform(0.3)).unwrap();
        let want = (1.0 - (1.0f64 - 0.6).powi(40)) / 2.0;
        assert!((sp.get(c.find("y").unwrap()) - want).abs() < 1e-12);
    }

    #[test]
    fn node_limit_reported() {
        // An 8-bit multiplier's middle bits are BDD-hostile; with a tiny
        // limit even small circuits overflow deterministically.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "t",
        )
        .unwrap();
        let err = BddSp::new()
            .with_node_limit(3)
            .compute(&c, &InputProbs::default())
            .unwrap_err();
        assert!(matches!(err, SpError::CircuitTooLarge { .. }));
    }

    #[test]
    fn sequential_ffs_are_half_sources() {
        let c = parse_bench("INPUT(x)\nOUTPUT(y)\nq = DFF(y)\ny = AND(q, x)\n", "s").unwrap();
        let sp = BddSp::new().compute(&c, &InputProbs::default()).unwrap();
        assert!((sp.get(c.find("q").unwrap()) - 0.5).abs() < 1e-12);
        assert!((sp.get(c.find("y").unwrap()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn engine_name() {
        assert_eq!(BddSp::new().name(), "bdd");
    }
}
