//! The classic topological signal-probability pass (Parker–McCluskey
//! zero-order: every gate's fanins are treated as independent).
//!
//! This is the engine the paper assumes: linear time, exact on fanout-
//! free circuits, approximate under reconvergence. Sequential circuits
//! are handled by fixed-point iteration over the flip-flop probabilities
//! (FF outputs start at 0.5 and are replaced by their D-input
//! probability until convergence).

use ser_netlist::{Circuit, GateKind, NodeId};

use crate::types::{InputProbs, SpEngine, SpError, SpVector};

/// Probability that a gate's output is 1 given independent fanin
/// probabilities.
///
/// # Panics
///
/// Panics (debug) on an illegal fanin count and for
/// [`GateKind::Input`] (inputs have no defining function).
#[must_use]
fn gate_output_probability(kind: GateKind, fanin_probs: &[f64]) -> f64 {
    debug_assert!(kind.arity_ok(fanin_probs.len()));
    match kind {
        GateKind::Input => panic!("primary input has no defining function"),
        GateKind::Const0 => 0.0,
        GateKind::Const1 => 1.0,
        GateKind::Dff | GateKind::Buf => fanin_probs[0],
        GateKind::Not => 1.0 - fanin_probs[0],
        GateKind::And => fanin_probs.iter().product(),
        GateKind::Nand => 1.0 - fanin_probs.iter().product::<f64>(),
        GateKind::Or => 1.0 - fanin_probs.iter().map(|p| 1.0 - p).product::<f64>(),
        GateKind::Nor => fanin_probs.iter().map(|p| 1.0 - p).product(),
        // P(odd parity) folds pairwise: p ⊕ q = p(1-q) + q(1-p).
        GateKind::Xor => fanin_probs
            .iter()
            .fold(0.0, |acc, &p| acc * (1.0 - p) + p * (1.0 - acc)),
        GateKind::Xnor => {
            1.0 - fanin_probs
                .iter()
                .fold(0.0, |acc, &p| acc * (1.0 - p) + p * (1.0 - acc))
        }
    }
}

/// The independent (zero-order) topological SP engine.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sp::{IndependentSp, InputProbs, SpEngine};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let sp = IndependentSp::new().compute(&c, &InputProbs::uniform(0.5))?;
/// let y = c.find("y").unwrap();
/// assert!((sp.get(y) - 0.25).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndependentSp {
    max_iterations: usize,
    tolerance: f64,
}

impl IndependentSp {
    /// Creates the engine with defaults suited to the ISCAS'89-scale
    /// circuits (at most 50 fixed-point iterations, tolerance `1e-9`).
    #[must_use]
    pub fn new() -> Self {
        IndependentSp {
            max_iterations: 50,
            tolerance: 1e-9,
        }
    }

    /// Sets the maximum number of sequential fixed-point iterations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[must_use]
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one iteration");
        self.max_iterations = n;
        self
    }

    /// Sets the convergence tolerance on flip-flop probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not a positive finite number.
    #[must_use]
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        assert!(tol.is_finite() && tol > 0.0, "tolerance must be positive");
        self.tolerance = tol;
        self
    }

    /// One topological sweep computing every non-source node; PI and FF
    /// slots of `out` must already hold their probabilities.
    fn sweep(circuit: &Circuit, order: &[NodeId], out: &mut [f64]) {
        let mut fanin_buf: Vec<f64> = Vec::with_capacity(8);
        for &id in order {
            let node = circuit.node(id);
            match node.kind() {
                GateKind::Input | GateKind::Dff => {}
                kind => {
                    fanin_buf.clear();
                    fanin_buf.extend(node.fanin().iter().map(|f| out[f.index()]));
                    out[id.index()] = gate_output_probability(kind, &fanin_buf);
                }
            }
        }
    }
}

impl IndependentSp {
    /// Frontier-seeded forward recomputation — the what-if engine's
    /// SP-invalidation fast path. Starting from `base` (a vector this
    /// engine previously computed for a circuit that agrees with
    /// `circuit` everywhere outside `frontier`'s forward closure), only
    /// nodes downstream of the frontier are re-evaluated; everything
    /// else keeps its `base` value untouched.
    ///
    /// For a **combinational** circuit the result is bit-for-bit the
    /// vector [`compute_with_order`](SpEngine::compute_with_order)
    /// would produce from scratch: every recomputed node sees bitwise
    /// identical fanin values and applies the identical arithmetic, and
    /// every skipped node is, by the caller's contract, already at its
    /// from-scratch value. For a **sequential** circuit the fixed-point
    /// trajectory is global (every flip-flop participates in the same
    /// convergence test), so this falls back to a full from-scratch
    /// computation — still bitwise identical to the oracle path, just
    /// not incremental.
    ///
    /// The caller owns the contract that `base` is valid outside the
    /// frontier closure: pass every node whose defining function,
    /// fanins or input probability changed (new nodes included).
    ///
    /// # Errors
    ///
    /// Returns [`SpError`] only on the sequential fallback (no
    /// convergence).
    ///
    /// # Panics
    ///
    /// Panics if `base` does not cover exactly `circuit.len()` nodes.
    pub fn recompute_forward(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
        order: &[NodeId],
        base: &SpVector,
        frontier: &[NodeId],
    ) -> Result<SpVector, SpError> {
        assert_eq!(
            base.len(),
            circuit.len(),
            "base vector must cover every node"
        );
        if circuit.num_dffs() != 0 {
            return self.compute_with_order(circuit, inputs, order);
        }
        let mut values = base.as_slice().to_vec();
        let mut dirty = vec![false; circuit.len()];
        for &f in frontier {
            dirty[f.index()] = true;
        }
        let mut fanin_buf: Vec<f64> = Vec::with_capacity(8);
        for &id in order {
            let node = circuit.node(id);
            if !dirty[id.index()] && !node.fanin().iter().any(|f| dirty[f.index()]) {
                continue;
            }
            dirty[id.index()] = true;
            match node.kind() {
                GateKind::Input => values[id.index()] = inputs.probability(id),
                GateKind::Dff => unreachable!("combinational circuit has no flip-flops"),
                kind => {
                    fanin_buf.clear();
                    fanin_buf.extend(node.fanin().iter().map(|f| values[f.index()]));
                    values[id.index()] = gate_output_probability(kind, &fanin_buf);
                }
            }
        }
        Ok(SpVector::new(values))
    }
}

impl Default for IndependentSp {
    fn default() -> Self {
        IndependentSp::new()
    }
}

impl SpEngine for IndependentSp {
    fn name(&self) -> &'static str {
        "independent"
    }

    fn compute(&self, circuit: &Circuit, inputs: &InputProbs) -> Result<SpVector, SpError> {
        let order = ser_netlist::topo_order(circuit)?;
        self.compute_with_order(circuit, inputs, &order)
    }

    /// The sort is this engine's only structural pass, so a cached
    /// order makes SP recomputation (e.g. a session's input-probability
    /// invalidation) purely arithmetic.
    fn compute_with_order(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
        order: &[NodeId],
    ) -> Result<SpVector, SpError> {
        debug_assert!(
            ser_netlist::is_topo_order(circuit, order),
            "caller-provided order must be a topological order of the circuit"
        );
        let mut values = vec![0.0f64; circuit.len()];
        for &pi in circuit.inputs() {
            values[pi.index()] = inputs.probability(pi);
        }
        for &dff in circuit.dffs() {
            values[dff.index()] = 0.5;
        }
        if circuit.num_dffs() == 0 {
            Self::sweep(circuit, order, &mut values);
            return Ok(SpVector::new(values));
        }
        let mut residual = f64::INFINITY;
        for _ in 0..self.max_iterations {
            Self::sweep(circuit, order, &mut values);
            residual = 0.0f64;
            for &dff in circuit.dffs() {
                let d = circuit.node(dff).fanin()[0];
                let next = values[d.index()];
                residual = residual.max((next - values[dff.index()]).abs());
                values[dff.index()] = next;
            }
            if residual <= self.tolerance {
                // One final sweep so node values reflect converged FFs.
                Self::sweep(circuit, order, &mut values);
                return Ok(SpVector::new(values));
            }
        }
        Err(SpError::NoConvergence {
            iterations: self.max_iterations,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;

    fn sp_of(src: &str, signal: &str) -> f64 {
        let c = parse_bench(src, "t").unwrap();
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::uniform(0.5))
            .unwrap();
        sp.get(c.find(signal).unwrap())
    }

    #[test]
    fn basic_gate_probabilities() {
        assert!(
            (sp_of("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "y") - 0.25).abs() < 1e-12
        );
        assert!((sp_of("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "y") - 0.75).abs() < 1e-12);
        assert!(
            (sp_of("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "y") - 0.75).abs() < 1e-12
        );
        assert!(
            (sp_of("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOR(a, b)\n", "y") - 0.25).abs() < 1e-12
        );
        assert!((sp_of("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "y") - 0.5).abs() < 1e-12);
        assert!((sp_of("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "y") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn three_input_and() {
        let y = sp_of(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n",
            "y",
        );
        assert!((y - 0.125).abs() < 1e-12);
    }

    #[test]
    fn weighted_inputs() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let a = c.find("a").unwrap();
        let probs = InputProbs::uniform(0.5).with(a, 0.9);
        let sp = IndependentSp::new().compute(&c, &probs).unwrap();
        let y = c.find("y").unwrap();
        assert!((sp.get(y) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn xor_parity_fold_matches_enumeration() {
        // 3 inputs with p = 0.3 each: P(odd) computed by enumeration.
        let probs = [0.3, 0.3, 0.3];
        let mut want = 0.0;
        for assignment in 0u32..8 {
            let ones = assignment.count_ones();
            if ones % 2 == 1 {
                let mut w = 1.0;
                for (i, p) in probs.iter().enumerate() {
                    w *= if assignment >> i & 1 != 0 {
                        *p
                    } else {
                        1.0 - *p
                    };
                }
                want += w;
            }
        }
        let got = gate_output_probability(GateKind::Xor, &probs);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        let got_n = gate_output_probability(GateKind::Xnor, &probs);
        assert!((got_n - (1.0 - want)).abs() < 1e-12);
    }

    #[test]
    fn reconvergence_is_approximate_by_design() {
        // y = AND(a, a) has true SP 0.5; the independent engine says 0.25.
        // This documented inaccuracy is exactly what the correlation
        // engine and the exact oracle quantify.
        let y = sp_of("INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "y");
        assert!((y - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sequential_fixed_point_toggle() {
        // q = DFF(d), d = NOT(q): the steady-state probability of q is 0.5
        // (it toggles forever). The fixed point of p -> 1-p from 0.5 is
        // immediate.
        let c = parse_bench("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n", "tff").unwrap();
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let q = c.find("q").unwrap();
        assert!((sp.get(q) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sequential_and_feedback_converges_to_zero() {
        // q = DFF(d), d = AND(q, x): q's probability decays to 0.
        let c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = AND(q, x)\n", "decay").unwrap();
        let sp = IndependentSp::new()
            .with_tolerance(1e-12)
            .with_max_iterations(2000)
            .compute(&c, &InputProbs::default())
            .unwrap();
        let q = c.find("q").unwrap();
        assert!(sp.get(q) < 1e-3, "q decayed to {}", sp.get(q));
    }

    #[test]
    fn oscillating_fixed_point_reports_no_convergence() {
        // q = DFF(d), d = NOT(q) converges from 0.5 instantly, but if we
        // bias the input so the map is p -> 1 - p starting *off* the fixed
        // point... the FF starts at 0.5 which IS the fixed point; build a
        // genuinely oscillating system instead: two cross-coupled FFs
        // q1 = DFF(NOT(q2)), q2 = DFF(BUF(q1)) — map (p1,p2) -> (1-p2, p1)
        // has fixed point (0.5, 0.5); starting at (0.5, 0.5) converges.
        // To observe divergence we need asymmetric start, which the engine
        // does not expose — so instead check convergence *succeeds* here
        // and that the iteration cap is honoured via a tiny cap on a slow
        // converger.
        let c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = AND(q, x)\n", "slow").unwrap();
        let err = IndependentSp::new()
            .with_tolerance(1e-15)
            .with_max_iterations(3)
            .compute(&c, &InputProbs::default())
            .unwrap_err();
        assert!(matches!(err, SpError::NoConvergence { iterations: 3, .. }));
    }

    #[test]
    fn recompute_forward_matches_scratch_bitwise() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\nv = OR(u, c)\ny = XOR(v, a)\n",
            "t",
        )
        .unwrap();
        let order = ser_netlist::topo_order(&c).unwrap();
        let engine = IndependentSp::new();
        let a = c.find("a").unwrap();
        let before = InputProbs::uniform(0.5);
        let after = before.clone().with(a, 0.9);
        let base = engine.compute_with_order(&c, &before, &order).unwrap();
        let scratch = engine.compute_with_order(&c, &after, &order).unwrap();
        let incremental = engine
            .recompute_forward(&c, &after, &order, &base, &[a])
            .unwrap();
        for id in c.node_ids() {
            assert_eq!(
                incremental.get(id).to_bits(),
                scratch.get(id).to_bits(),
                "node {id} must match from-scratch bitwise"
            );
        }
        // Nodes outside the frontier closure keep their base values.
        let b = c.find("b").unwrap();
        assert_eq!(incremental.get(b).to_bits(), base.get(b).to_bits());
    }

    #[test]
    fn recompute_forward_sequential_falls_back_to_scratch() {
        let c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = AND(q, x)\n", "seq").unwrap();
        let order = ser_netlist::topo_order(&c).unwrap();
        let engine = IndependentSp::new();
        let x = c.find("x").unwrap();
        let before = InputProbs::default();
        let after = InputProbs::uniform(0.5).with(x, 0.25);
        let base = engine.compute_with_order(&c, &before, &order).unwrap();
        let scratch = engine.compute_with_order(&c, &after, &order).unwrap();
        let incremental = engine
            .recompute_forward(&c, &after, &order, &base, &[x])
            .unwrap();
        for id in c.node_ids() {
            assert_eq!(incremental.get(id).to_bits(), scratch.get(id).to_bits());
        }
    }

    #[test]
    fn constants_have_exact_probability() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\nk = CONST1()\ny = AND(a, k)\n", "k").unwrap();
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        assert_eq!(sp.get(c.find("k").unwrap()), 1.0);
        assert!((sp.get(c.find("y").unwrap()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn engine_reports_name() {
        assert_eq!(IndependentSp::new().name(), "independent");
    }
}
