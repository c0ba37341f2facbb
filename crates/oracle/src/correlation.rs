//! Pairwise-correlation-aware signal probability.
//!
//! The independent engine's error comes from reconvergent fanout: the
//! fanins of a gate are treated as independent even when they share
//! support. This engine propagates, alongside each probability, a
//! *pairwise correlation coefficient*
//! `C(u, v) = P(u ∧ v) / (P(u) · P(v))`
//! between every tracked pair of signals (first-order spatial
//! correlation in the spirit of Ercolani et al.). Products of
//! correlations approximate higher-order terms, so the result is still
//! approximate under three-way reconvergence, but collapses the common
//! two-path cases exactly — including the degenerate `AND(a, a)`,
//! because the diagonal is `C(u, u) = 1 / P(u)`.
//!
//! The pair matrix is quadratic in node count, so the engine enforces a
//! size limit; it is an *accuracy ablation* for small and medium
//! circuits, not a replacement for the linear-time independent pass.
//!
//! Flip-flop outputs are treated as independent 0.5 sources (the same
//! combinational view as [`ExactSp`](crate::ExactSp)).

use ser_netlist::{Circuit, GateKind, NodeId};
use ser_sp::{InputProbs, SpEngine, SpError, SpVector};

/// Internal binary-decomposed operation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BOp {
    /// Independent source with a fixed probability.
    Source(f64),
    /// NOT of one operand.
    Not(usize),
    /// Buffer of one operand.
    Buf(usize),
    /// Two-input AND.
    And2(usize, usize),
    /// Two-input OR.
    Or2(usize, usize),
    /// Two-input XOR.
    Xor2(usize, usize),
}

/// The correlation-aware SP engine.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_oracle::CorrelationSp;
/// use ser_sp::{InputProbs, SpEngine};
///
/// // XOR built from NANDs: reconvergence defeats the independent
/// // engine, but pairwise correlations recover the exact 0.5.
/// let c = parse_bench(
///     "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NAND(a, b)\nv = NAND(a, u)\nw = NAND(b, u)\ny = NAND(v, w)\n",
///     "x",
/// )?;
/// let sp = CorrelationSp::new().compute(&c, &InputProbs::uniform(0.5))?;
/// assert!((sp.get(c.find("y").unwrap()) - 0.5).abs() < 0.05);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelationSp {
    max_nodes: usize,
}

const P_EPS: f64 = 1e-12;

impl CorrelationSp {
    /// Creates the engine with the default tracked-node limit (4096
    /// internal nodes, ~134 MB of pair storage worst case).
    #[must_use]
    pub fn new() -> Self {
        CorrelationSp { max_nodes: 4096 }
    }

    /// Adjusts the tracked-node limit.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[cfg(test)]
    fn with_max_nodes(mut self, n: usize) -> Self {
        assert!(n > 0, "limit must be positive");
        self.max_nodes = n;
        self
    }

    /// Binary-decomposes the circuit in topological order. Returns the
    /// internal op list and, per circuit node, its internal index.
    fn decompose(circuit: &Circuit, inputs: &InputProbs) -> (Vec<BOp>, Vec<usize>) {
        let order = ser_netlist::topo_order(circuit).expect("validated by caller");
        let mut ops: Vec<BOp> = Vec::with_capacity(circuit.len() * 2);
        let mut map = vec![usize::MAX; circuit.len()];
        for id in order {
            let node = circuit.node(id);
            let internal = match node.kind() {
                GateKind::Input => push(&mut ops, BOp::Source(inputs.probability(id))),
                GateKind::Dff => push(&mut ops, BOp::Source(0.5)),
                GateKind::Const0 => push(&mut ops, BOp::Source(0.0)),
                GateKind::Const1 => push(&mut ops, BOp::Source(1.0)),
                GateKind::Buf => push(&mut ops, BOp::Buf(map[node.fanin()[0].index()])),
                GateKind::Not => push(&mut ops, BOp::Not(map[node.fanin()[0].index()])),
                GateKind::And => chain(
                    &mut ops,
                    &map,
                    node.fanin(),
                    BOp::And2 as fn(usize, usize) -> BOp,
                ),
                GateKind::Or => chain(&mut ops, &map, node.fanin(), BOp::Or2),
                GateKind::Xor => chain(&mut ops, &map, node.fanin(), BOp::Xor2),
                GateKind::Nand => {
                    let a = chain(&mut ops, &map, node.fanin(), BOp::And2);
                    push(&mut ops, BOp::Not(a))
                }
                GateKind::Nor => {
                    let a = chain(&mut ops, &map, node.fanin(), BOp::Or2);
                    push(&mut ops, BOp::Not(a))
                }
                GateKind::Xnor => {
                    let a = chain(&mut ops, &map, node.fanin(), BOp::Xor2);
                    push(&mut ops, BOp::Not(a))
                }
            };
            map[id.index()] = internal;
        }
        (ops, map)
    }
}

fn push(ops: &mut Vec<BOp>, op: BOp) -> usize {
    ops.push(op);
    ops.len() - 1
}

/// Folds an n-ary gate into a left-leaning chain of binary ops.
fn chain(
    ops: &mut Vec<BOp>,
    map: &[usize],
    fanin: &[NodeId],
    make: fn(usize, usize) -> BOp,
) -> usize {
    let mut acc = map[fanin[0].index()];
    if fanin.len() == 1 {
        // Single-input AND/OR/XOR degenerates to a buffer.
        return push(ops, BOp::Buf(acc));
    }
    for f in &fanin[1..] {
        let rhs = map[f.index()];
        acc = push(ops, make(acc, rhs));
    }
    acc
}

/// Dense symmetric pair matrix with a `1/P` diagonal.
struct PairMatrix {
    n: usize,
    data: Vec<f64>,
}

impl PairMatrix {
    fn new(n: usize) -> Self {
        PairMatrix {
            n,
            data: vec![1.0; n * n],
        }
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }
}

/// Feasibility-clamps a correlation coefficient: `P(u ∧ v)` must lie in
/// `[max(0, P(u)+P(v)-1), min(P(u), P(v))]`.
fn clamp_cor(c: f64, pu: f64, pv: f64) -> f64 {
    if pu < P_EPS || pv < P_EPS {
        return 1.0;
    }
    let lo = ((pu + pv - 1.0).max(0.0)) / (pu * pv);
    let hi = pu.min(pv) / (pu * pv);
    // Mathematically lo <= hi; floating point can invert them by an ULP
    // when pu + pv ≈ 1, so order defensively.
    c.clamp(lo.min(hi), hi.max(lo))
}

impl Default for CorrelationSp {
    fn default() -> Self {
        CorrelationSp::new()
    }
}

impl SpEngine for CorrelationSp {
    fn name(&self) -> &'static str {
        "correlation"
    }

    // `w` walks the triangular correlation matrix and indexes both `p`
    // and `cor` rows in lockstep; an iterator form would obscure that.
    #[allow(clippy::needless_range_loop)]
    fn compute(&self, circuit: &Circuit, inputs: &InputProbs) -> Result<SpVector, SpError> {
        // Validate acyclicity up front (decompose expects it).
        ser_netlist::topo_order(circuit)?;
        let (ops, map) = CorrelationSp::decompose(circuit, inputs);
        let n = ops.len();
        if n > self.max_nodes {
            return Err(SpError::CircuitTooLarge {
                nodes: n,
                limit: self.max_nodes,
            });
        }
        let mut p = vec![0.0f64; n];
        let mut cor = PairMatrix::new(n);

        for y in 0..n {
            // 1. Probability of y.
            let py = match ops[y] {
                BOp::Source(q) => q,
                BOp::Buf(u) => p[u],
                BOp::Not(u) => 1.0 - p[u],
                BOp::And2(u, v) => p[u] * p[v] * cor.get(u, v),
                BOp::Or2(u, v) => p[u] + p[v] - p[u] * p[v] * cor.get(u, v),
                BOp::Xor2(u, v) => p[u] + p[v] - 2.0 * p[u] * p[v] * cor.get(u, v),
            };
            let py = py.clamp(0.0, 1.0);
            p[y] = py;

            // 2. Correlation of y with every earlier node w.
            match ops[y] {
                BOp::Source(_) => {
                    // Independent of everything; rows already 1.0.
                }
                BOp::Buf(u) => {
                    for w in 0..y {
                        cor.set(y, w, cor.get(u, w));
                    }
                }
                BOp::Not(u) => {
                    let pu = p[u];
                    for w in 0..y {
                        let c = if py < P_EPS || p[w] < P_EPS {
                            1.0
                        } else {
                            // P(y ∧ w) = P(w) − P(u ∧ w).
                            let puw = pu * p[w] * cor.get(u, w);
                            clamp_cor((p[w] - puw) / (py * p[w]), py, p[w])
                        };
                        cor.set(y, w, c);
                    }
                }
                BOp::And2(u, v) => {
                    for w in 0..y {
                        let c = if py < P_EPS || p[w] < P_EPS {
                            1.0
                        } else {
                            // First-order: P(u ∧ v ∧ w) ≈ P(u)P(v)P(w)·C(uv)C(uw)C(vw);
                            // dividing by P(y)P(w) leaves C(uw)·C(vw).
                            clamp_cor(cor.get(u, w) * cor.get(v, w), py, p[w])
                        };
                        cor.set(y, w, c);
                    }
                }
                BOp::Or2(u, v) => {
                    let (pu, pv) = (p[u], p[v]);
                    let cuv = cor.get(u, v);
                    for w in 0..y {
                        let c = if py < P_EPS || p[w] < P_EPS {
                            1.0
                        } else {
                            let pw = p[w];
                            let puw = pu * pw * cor.get(u, w);
                            let pvw = pv * pw * cor.get(v, w);
                            let puvw = pu * pv * pw * cuv * cor.get(u, w) * cor.get(v, w);
                            clamp_cor((puw + pvw - puvw) / (py * pw), py, pw)
                        };
                        cor.set(y, w, c);
                    }
                }
                BOp::Xor2(u, v) => {
                    let (pu, pv) = (p[u], p[v]);
                    let cuv = cor.get(u, v);
                    for w in 0..y {
                        let c = if py < P_EPS || p[w] < P_EPS {
                            1.0
                        } else {
                            let pw = p[w];
                            let puw = pu * pw * cor.get(u, w);
                            let pvw = pv * pw * cor.get(v, w);
                            let puvw = pu * pv * pw * cuv * cor.get(u, w) * cor.get(v, w);
                            clamp_cor((puw + pvw - 2.0 * puvw) / (py * pw), py, pw)
                        };
                        cor.set(y, w, c);
                    }
                }
            }

            // 3. Diagonal: C(y, y) = P(y ∧ y) / P(y)² = 1 / P(y).
            let diag = if py < P_EPS { 1.0 } else { 1.0 / py };
            cor.data[y * n + y] = diag;
        }

        let values = circuit
            .node_ids()
            .map(|id| p[map[id.index()]])
            .collect::<Vec<_>>();
        Ok(SpVector::new(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSp;
    use ser_netlist::parse_bench;
    use ser_sp::IndependentSp;

    fn engines_on(src: &str, signal: &str, p: f64) -> (f64, f64, f64) {
        let c = parse_bench(src, "t").unwrap();
        let probs = InputProbs::uniform(p);
        let id = c.find(signal).unwrap();
        let exact = ExactSp::new().compute(&c, &probs).unwrap().get(id);
        let indep = IndependentSp::new().compute(&c, &probs).unwrap().get(id);
        let corr = CorrelationSp::new().compute(&c, &probs).unwrap().get(id);
        (exact, indep, corr)
    }

    #[test]
    fn matches_independent_on_trees() {
        // Without reconvergence all three engines agree.
        let (exact, indep, corr) = engines_on(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "y",
            0.3,
        );
        assert!((exact - indep).abs() < 1e-12);
        assert!((exact - corr).abs() < 1e-9, "{exact} vs {corr}");
    }

    #[test]
    fn self_reconvergence_exact() {
        // y = AND(a, a): diagonal 1/P makes this exact.
        let (exact, indep, corr) = engines_on("INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "y", 0.5);
        assert!((corr - exact).abs() < 1e-9, "corr {corr} exact {exact}");
        assert!((indep - exact).abs() > 0.2, "independent must be off here");
    }

    #[test]
    fn xor_of_same_signal_is_zero() {
        let (exact, _, corr) = engines_on("INPUT(a)\nOUTPUT(y)\ny = XOR(a, a)\n", "y", 0.4);
        assert!(exact.abs() < 1e-12);
        assert!(corr.abs() < 1e-9, "corr said {corr}");
    }

    #[test]
    fn two_path_reconvergence_beats_independent() {
        // XOR from 4 NANDs — the classic reconvergent structure.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NAND(a, b)\nv = NAND(a, u)\nw = NAND(b, u)\ny = NAND(v, w)\n";
        let (exact, indep, corr) = engines_on(src, "y", 0.5);
        let err_indep = (indep - exact).abs();
        let err_corr = (corr - exact).abs();
        assert!(
            err_corr < err_indep,
            "correlation ({corr}) should beat independent ({indep}) vs exact ({exact})"
        );
        // First-order pairwise propagation leaves ~0.034 here (vs 0.109
        // for the independent engine, a 3.2x improvement).
        assert!(err_corr < 0.05, "err_corr = {err_corr}");
    }

    #[test]
    fn biased_inputs_two_path() {
        let src =
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\nv = AND(a, c)\ny = OR(u, v)\n";
        let (exact, indep, corr) = engines_on(src, "y", 0.7);
        let err_indep = (indep - exact).abs();
        let err_corr = (corr - exact).abs();
        assert!(
            err_corr <= err_indep + 1e-12,
            "corr {corr}, indep {indep}, exact {exact}"
        );
        assert!(err_corr < 0.03, "corr error {err_corr}");
    }

    #[test]
    fn nary_gates_decompose() {
        // 4-input NOR with shared signal: exercises the chain path.
        let src = "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NOR(a, b, c, a)\n";
        let (exact, _, corr) = engines_on(src, "y", 0.5);
        assert!((corr - exact).abs() < 0.02, "corr {corr} exact {exact}");
    }

    #[test]
    fn node_limit_enforced() {
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
        let err = CorrelationSp::new()
            .with_max_nodes(1)
            .compute(&c, &InputProbs::default())
            .unwrap_err();
        assert!(matches!(err, SpError::CircuitTooLarge { limit: 1, .. }));
    }

    #[test]
    fn constants_and_dffs_are_sources() {
        let src = "INPUT(x)\nOUTPUT(y)\nk = CONST1()\nq = DFF(y)\ny = AND(q, k, x)\n";
        let c = parse_bench(src, "t").unwrap();
        let sp = CorrelationSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        assert_eq!(sp.get(c.find("k").unwrap()), 1.0);
        assert!((sp.get(c.find("q").unwrap()) - 0.5).abs() < 1e-12);
        assert!((sp.get(c.find("y").unwrap()) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn probabilities_stay_in_unit_interval_on_dense_reconvergence() {
        // A deliberately nasty mesh of shared signals.
        let src = "
INPUT(a)
INPUT(b)
OUTPUT(z)
u = XOR(a, b)
v = NAND(u, a)
w = NOR(u, b)
x = AND(v, w, u)
y = OR(v, x, a)
z = XNOR(y, x)
";
        let c = parse_bench(src, "mesh").unwrap();
        let sp = CorrelationSp::new()
            .compute(&c, &InputProbs::uniform(0.5))
            .unwrap();
        for (id, _) in c.iter() {
            let v = sp.get(id);
            assert!((0.0..=1.0).contains(&v), "sp({id}) = {v}");
        }
    }
}
