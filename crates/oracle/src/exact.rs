//! Exact SP and exact EPP by weighted exhaustive enumeration — the
//! oracles the approximate engines and the analytical rules are
//! validated against.
//!
//! Both enumerate every assignment of the circuit's sources (primary
//! inputs *and* flip-flop outputs) and weight each assignment by its
//! probability under the input distribution. [`ExactSp`] accumulates
//! per-node weighted one-counts; [`ExactEpp`] simulates the fault-free
//! and faulty circuits of one error site and accumulates the exact
//! probability that the erroneous value reaches each observe point
//! (split by polarity) and the exact `P_sensitized`. Exponential in the
//! source count, so guarded by a limit.
//!
//! Note on sequential circuits: flip-flop outputs are treated as free
//! 0.5-probability sources (the combinational view). That matches what
//! the other engines' *single-sweep* semantics mean, but is not the
//! steady-state FF distribution; these are oracles for the
//! combinational propagation step, not for the sequential fixed point.

use ser_epp::FourValue;
use ser_netlist::{Circuit, FanoutCone, GateKind, NodeId, ObservePoint};
use ser_sim::{BitSim, ExhaustivePatterns, PatternBlock, PatternSource, SiteFaultSim};
use ser_sp::{InputProbs, SpEngine, SpError, SpVector};

/// Per-source probability of being 1, in `sources` order: primary
/// inputs from `inputs`, flip-flops at 0.5 (the combinational view).
pub(crate) fn source_probs(circuit: &Circuit, sources: &[NodeId], inputs: &InputProbs) -> Vec<f64> {
    sources
        .iter()
        .map(|&s| {
            if circuit.inputs().contains(&s) {
                inputs.probability(s)
            } else {
                0.5
            }
        })
        .collect()
}

/// Weighted exhaustive enumeration of `sim`'s sources: calls `visit`
/// once per 64-pattern block with the block and the `(pattern, weight)`
/// pairs of its assignments that have nonzero probability, in pattern
/// order.
///
/// # Errors
///
/// [`SpError::TooManySources`] if `sim` has more than `max_sources`
/// sources.
fn enumerate(
    sim: &BitSim,
    inputs: &InputProbs,
    max_sources: usize,
    mut visit: impl FnMut(&PatternBlock, &[(u32, f64)]),
) -> Result<(), SpError> {
    let sources = sim.sources();
    if sources.len() > max_sources {
        return Err(SpError::TooManySources {
            got: sources.len(),
            limit: max_sources,
        });
    }
    let source_p = source_probs(sim.circuit(), sources, inputs);
    let mut weighted = Vec::with_capacity(64);
    let mut patterns = ExhaustivePatterns::new(sources.len());
    while let Some(block) = patterns.next_block() {
        weighted.clear();
        for p in 0..block.count() {
            let mut w = 1.0f64;
            for (s, &ps) in source_p.iter().enumerate() {
                w *= if block.bit(s, p) { ps } else { 1.0 - ps };
            }
            if w != 0.0 {
                weighted.push((p, w));
            }
        }
        visit(&block, &weighted);
    }
    Ok(())
}

/// The exact (exhaustive-enumeration) SP engine.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_oracle::ExactSp;
/// use ser_sp::{InputProbs, SpEngine};
///
/// // Reconvergent: y = AND(a, a) is exactly a.
/// let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "t")?;
/// let sp = ExactSp::new().compute(&c, &InputProbs::uniform(0.5))?;
/// assert!((sp.get(c.find("y").unwrap()) - 0.5).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactSp {
    max_sources: usize,
}

impl ExactSp {
    /// Creates the engine with the default source limit (24, i.e. at
    /// most ~16.8M evaluated assignments).
    #[must_use]
    pub fn new() -> Self {
        ExactSp { max_sources: 24 }
    }

    /// Raises or lowers the source-count limit.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 63.
    #[cfg(test)]
    fn with_max_sources(mut self, n: usize) -> Self {
        assert!((1..=63).contains(&n), "limit must be 1..=63");
        self.max_sources = n;
        self
    }
}

impl Default for ExactSp {
    fn default() -> Self {
        ExactSp::new()
    }
}

impl SpEngine for ExactSp {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn compute(&self, circuit: &Circuit, inputs: &InputProbs) -> Result<SpVector, SpError> {
        let sim = BitSim::new(circuit)?;
        let mut acc = vec![0.0f64; circuit.len()];
        let mut total_weight = 0.0f64;
        enumerate(&sim, inputs, self.max_sources, |block, weighted| {
            let values = sim.run(block.words());
            for &(p, w) in weighted {
                total_weight += w;
                for (slot, word) in acc.iter_mut().zip(&values) {
                    if word >> p & 1 != 0 {
                        *slot += w;
                    }
                }
            }
        })?;
        debug_assert!((total_weight - 1.0).abs() < 1e-9, "weights sum to 1");
        // Clamp away accumulated rounding.
        let probs = acc
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect::<Vec<_>>();
        Ok(SpVector::new(probs))
    }
}

/// Exact per-observe-point arrival probabilities for one site.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSiteEpp {
    /// The error site.
    pub site: NodeId,
    /// Exact `(point, Pa, Pā)` triples for every reachable observe point.
    pub per_point: Vec<(ObservePoint, f64, f64)>,
    /// Exact probability that at least one observe point sees the error.
    pub p_sensitized: f64,
}

impl ExactSiteEpp {
    /// Exact arrival probability `Pa + Pā` at `signal`, if reachable.
    #[must_use]
    pub fn arrival_at(&self, signal: NodeId) -> Option<f64> {
        self.per_point
            .iter()
            .find(|(p, _, _)| p.signal() == signal)
            .map(|&(_, pa, pab)| pa + pab)
    }

    /// What the paper's independence combination would give on the
    /// *exact* per-point arrivals (isolates the error contributed by
    /// the output-independence assumption alone).
    #[cfg(test)]
    fn p_sensitized_if_outputs_independent(&self) -> f64 {
        ser_epp::combine_sensitization(self.per_point.iter().map(|&(_, pa, pab)| pa + pab))
    }
}

/// The exact EPP oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactEpp {
    max_sources: usize,
}

impl ExactEpp {
    /// Creates the oracle with the default source limit (22 → at most
    /// ~4M assignments per site).
    #[must_use]
    pub fn new() -> Self {
        ExactEpp { max_sources: 22 }
    }

    /// Computes the exact EPP of `site` under the input distribution.
    ///
    /// Flip-flop outputs are enumerated as free 0.5-probability sources
    /// (the combinational single-cycle view, matching the analytical
    /// engine).
    ///
    /// # Errors
    ///
    /// [`SpError::TooManySources`] if the circuit has more sources than
    /// the limit; [`SpError::Netlist`] if it cannot be simulated.
    pub fn site(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
        site: NodeId,
    ) -> Result<ExactSiteEpp, SpError> {
        let sim = BitSim::new(circuit)?;
        self.site_with_sim(&sim, inputs, site)
    }

    /// Like [`site`](Self::site) but reusing a compiled simulator
    /// (e.g. the one an [`AnalysisSession`](ser_epp::AnalysisSession)
    /// caches, via its `bit_sim()`), so repeated oracle queries skip the
    /// per-call topological sort.
    ///
    /// # Examples
    ///
    /// One session feeds the analytical engine, the exact oracle and the
    /// Monte-Carlo baseline without recompiling anything:
    ///
    /// ```
    /// use ser_netlist::parse_bench;
    /// use ser_sim::MonteCarlo;
    /// use ser_epp::AnalysisSession;
    /// use ser_oracle::ExactEpp;
    ///
    /// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
    /// let session = AnalysisSession::new(&c)?;
    /// let a = c.find("a").unwrap();
    ///
    /// let analytic = session.site(a).p_sensitized();
    /// let exact = ExactEpp::new()
    ///     .site_with_sim(session.bit_sim(), session.inputs(), a)?
    ///     .p_sensitized;
    /// let mc = session
    ///     .monte_carlo_site(&MonteCarlo::new(20_000).with_seed(1), a)
    ///     .p_sensitized;
    /// assert!((analytic - exact).abs() < 1e-12);
    /// assert!((analytic - mc).abs() < 0.02);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SpError::TooManySources`] if the circuit has more sources than
    /// the limit.
    pub fn site_with_sim(
        &self,
        sim: &BitSim,
        inputs: &InputProbs,
        site: NodeId,
    ) -> Result<ExactSiteEpp, SpError> {
        let fault = SiteFaultSim::new(sim, site);
        let mut good = vec![0u64; sim.circuit().len()];
        let mut scratch = vec![0u64; sim.circuit().len()];
        let mut p_sens = 0.0f64;
        let mut acc: Vec<(ObservePoint, f64, f64)> = fault
            .observe_points()
            .iter()
            .map(|&p| (p, 0.0, 0.0))
            .collect();
        enumerate(sim, inputs, self.max_sources, |block, weighted| {
            sim.run_into(block.words(), &mut good);
            scratch.copy_from_slice(&good);
            let outcome = fault.inject(sim, &good, &mut scratch);
            for &(p, w) in weighted {
                if outcome.any_diff >> p & 1 != 0 {
                    p_sens += w;
                }
                for (slot, masks) in acc.iter_mut().zip(&outcome.per_point) {
                    if masks.even >> p & 1 != 0 {
                        slot.1 += w;
                    }
                    if masks.odd >> p & 1 != 0 {
                        slot.2 += w;
                    }
                }
            }
        })?;
        Ok(ExactSiteEpp {
            site,
            per_point: acc,
            p_sensitized: p_sens.clamp(0.0, 1.0),
        })
    }

    /// Exact four-value tuple at one observed signal (diagnostic helper
    /// for rule-level comparisons): returns `(Pa, Pā, P0, P1)` where the
    /// blocked cases are split by the signal's fault-free value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`site`](Self::site).
    pub fn tuple_at(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
        site: NodeId,
        signal: NodeId,
    ) -> Result<FourValue, SpError> {
        let sim = BitSim::new(circuit)?;
        // The site's fanout cone in evaluation order: the nodes whose
        // faulty value is re-derived per block (flip-flops hold).
        let cone = FanoutCone::extract(circuit, site);
        let schedule: Vec<NodeId> = sim
            .schedule()
            .iter()
            .copied()
            .filter(|&id| {
                id != site && cone.contains(id) && circuit.node(id).kind() != GateKind::Dff
            })
            .collect();
        let mut good = vec![0u64; circuit.len()];
        let mut scratch = vec![0u64; circuit.len()];
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        let (mut pa, mut pab, mut p0, mut p1) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        enumerate(&sim, inputs, self.max_sources, |block, weighted| {
            sim.run_into(block.words(), &mut good);
            scratch.copy_from_slice(&good);
            scratch[site.index()] = !good[site.index()];
            for &id in &schedule {
                let node = circuit.node(id);
                fanin_buf.clear();
                fanin_buf.extend(node.fanin().iter().map(|f| scratch[f.index()]));
                scratch[id.index()] = node.kind().eval_word(&fanin_buf);
            }
            let faulty_sig = scratch[signal.index()];
            let good_sig = good[signal.index()];
            let a_val = !good[site.index()];
            for &(p, w) in weighted {
                let differs = (good_sig ^ faulty_sig) >> p & 1 != 0;
                if differs {
                    let matches_a = ((faulty_sig ^ a_val) >> p) & 1 == 0;
                    if matches_a {
                        pa += w;
                    } else {
                        pab += w;
                    }
                } else if faulty_sig >> p & 1 != 0 {
                    p1 += w;
                } else {
                    p0 += w;
                }
            }
        })?;
        Ok(FourValue::new_clamped(pa, pab, p0, p1))
    }
}

impl Default for ExactEpp {
    fn default() -> Self {
        ExactEpp::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BddExactEpp;
    use ser_epp::{AnalysisSession, EppAnalysis};
    use ser_netlist::parse_bench;
    use ser_sim::MonteCarlo;
    use ser_sp::IndependentSp;

    #[test]
    fn matches_independent_on_tree() {
        // Fanout-free circuit: independent SP is exact.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\nu = AND(a, b)\nv = OR(c, d)\ny = XOR(u, v)\n",
            "tree",
        )
        .unwrap();
        let probs = InputProbs::uniform(0.3);
        let exact = ExactSp::new().compute(&c, &probs).unwrap();
        let indep = IndependentSp::new().compute(&c, &probs).unwrap();
        assert!(exact.max_abs_diff(&indep) < 1e-12);
    }

    #[test]
    fn differs_from_independent_under_reconvergence() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NAND(a, b)\nv = NAND(a, u)\nw = NAND(b, u)\ny = NAND(v, w)\n",
            "xor-of-nands",
        )
        .unwrap();
        // This is XOR(a,b): exact P(y) = 0.5.
        let exact = ExactSp::new()
            .compute(&c, &InputProbs::uniform(0.5))
            .unwrap();
        let y = c.find("y").unwrap();
        assert!((exact.get(y) - 0.5).abs() < 1e-12);
        let indep = IndependentSp::new()
            .compute(&c, &InputProbs::uniform(0.5))
            .unwrap();
        assert!(
            (indep.get(y) - 0.5).abs() > 0.01,
            "independent should be biased here, got {}",
            indep.get(y)
        );
    }

    #[test]
    fn weighted_inputs_exact() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "w").unwrap();
        let a = c.find("a").unwrap();
        let b = c.find("b").unwrap();
        let probs = InputProbs::uniform(0.5).with(a, 0.2).with(b, 0.7);
        let exact = ExactSp::new().compute(&c, &probs).unwrap();
        // P(y) = 1 - 0.8*0.3 = 0.76.
        assert!((exact.get(c.find("y").unwrap()) - 0.76).abs() < 1e-12);
    }

    #[test]
    fn source_limit_enforced() {
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!("INPUT(i{i})\n"));
        }
        src.push_str("OUTPUT(y)\ny = AND(");
        src.push_str(
            &(0..30)
                .map(|i| format!("i{i}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        src.push_str(")\n");
        let c = parse_bench(&src, "big").unwrap();
        let err = ExactSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap_err();
        assert_eq!(err, SpError::TooManySources { got: 30, limit: 24 });
    }

    #[test]
    fn source_limit_adjustable() {
        // A 10-input circuit under a lowered limit errors; raising the
        // limit back admits it.
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!("INPUT(i{i})\n"));
        }
        src.push_str("OUTPUT(y)\ny = OR(");
        src.push_str(
            &(0..10)
                .map(|i| format!("i{i}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        src.push_str(")\n");
        let c = parse_bench(&src, "mid").unwrap();
        let err = ExactSp::new()
            .with_max_sources(5)
            .compute(&c, &InputProbs::default())
            .unwrap_err();
        assert_eq!(err, SpError::TooManySources { got: 10, limit: 5 });
        let sp = ExactSp::new()
            .with_max_sources(10)
            .compute(&c, &InputProbs::default())
            .unwrap();
        // P(OR of 10 halves) = 1 - 2^-10.
        let y = c.find("y").unwrap();
        assert!((sp.get(y) - (1.0 - 1.0 / 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn dffs_count_as_half_probability_sources() {
        let c = parse_bench("INPUT(x)\nOUTPUT(y)\nq = DFF(y)\ny = AND(q, x)\n", "s").unwrap();
        let exact = ExactSp::new().compute(&c, &InputProbs::default()).unwrap();
        // Combinational view: P(q) = 0.5, P(y) = 0.25.
        assert!((exact.get(c.find("q").unwrap()) - 0.5).abs() < 1e-12);
        assert!((exact.get(c.find("y").unwrap()) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multi_block_enumeration() {
        // 8 inputs = 256 assignments = 4 blocks; parity tree has exact 0.5.
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("INPUT(i{i})\n"));
        }
        src.push_str("OUTPUT(y)\ny = XOR(i0, i1, i2, i3, i4, i5, i6, i7)\n");
        let c = parse_bench(&src, "parity").unwrap();
        let exact = ExactSp::new()
            .compute(&c, &InputProbs::uniform(0.3))
            .unwrap();
        // P(odd) over 8 independent p=0.3 bits: (1-(1-2p)^8)/2.
        let want = (1.0 - (1.0f64 - 0.6).powi(8)) / 2.0;
        assert!((exact.get(c.find("y").unwrap()) - want).abs() < 1e-12);
    }

    #[test]
    fn exact_matches_analytical_on_tree() {
        // Fanout-free circuit: the analytical rules are exact.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "tree",
        )
        .unwrap();
        let probs = InputProbs::uniform(0.5);
        let sp = IndependentSp::new().compute(&c, &probs).unwrap();
        let epp = EppAnalysis::new(&c, sp).unwrap();
        let a = c.find("a").unwrap();
        let analytical = epp.site(a);
        let exact = ExactEpp::new().site(&c, &probs, a).unwrap();
        assert!(
            (analytical.p_sensitized() - exact.p_sensitized).abs() < 1e-12,
            "analytical {} vs exact {}",
            analytical.p_sensitized(),
            exact.p_sensitized
        );
    }

    #[test]
    fn exact_detects_reconvergence_error() {
        // Reconvergent AND-AND-OR where the analytical method's
        // independence assumption bites: same-signal reconvergence.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\nv = OR(a, b)\ny = AND(u, v)\n",
            "recon",
        )
        .unwrap();
        let probs = InputProbs::uniform(0.5);
        let b = c.find("b").unwrap();
        let exact = ExactEpp::new().site(&c, &probs, b).unwrap();
        // Enumerate by hand: flip b; y = AND(AND(a,b), OR(a,b)) = a AND b.
        // y_good = a·b, y_fault = a·(¬b); differs iff a=1. P = 0.5.
        assert!((exact.p_sensitized - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tuple_at_matches_site_arrival() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "t").unwrap();
        let probs = InputProbs::uniform(0.5);
        let a = c.find("a").unwrap();
        let y = c.find("y").unwrap();
        let site = ExactEpp::new().site(&c, &probs, a).unwrap();
        let tuple = ExactEpp::new().tuple_at(&c, &probs, a, y).unwrap();
        assert!((tuple.p_arrival() - site.arrival_at(y).unwrap()).abs() < 1e-12);
        // NAND: error passes iff b=1 (P=0.5), with odd parity.
        assert!((tuple.pa_bar() - 0.5).abs() < 1e-12);
        assert_eq!(tuple.pa(), 0.0);
        assert!((tuple.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn epp_source_limit_enforced() {
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!("INPUT(i{i})\n"));
        }
        src.push_str("OUTPUT(y)\ny = OR(");
        src.push_str(
            &(0..30)
                .map(|i| format!("i{i}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        src.push_str(")\n");
        let c = parse_bench(&src, "wide").unwrap();
        let y = c.find("y").unwrap();
        let err = ExactEpp::new()
            .site(&c, &InputProbs::default(), y)
            .unwrap_err();
        assert!(matches!(err, SpError::TooManySources { got: 30, .. }));
    }

    #[test]
    fn weighted_inputs_exact_epp() {
        // AND gate, side input probability 0.9: P_sens(a) = 0.9 exactly.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "w").unwrap();
        let b = c.find("b").unwrap();
        let a = c.find("a").unwrap();
        let probs = InputProbs::uniform(0.5).with(b, 0.9);
        let exact = ExactEpp::new().site(&c, &probs, a).unwrap();
        assert!((exact.p_sensitized - 0.9).abs() < 1e-12);
    }

    #[test]
    fn output_independence_diagnostic() {
        // Two outputs observing the SAME gated path: y1 = AND(a,b),
        // y2 = BUF(y1). Exact joint P_sens = 0.5, but combining the two
        // exact per-point arrivals as if independent gives 0.75.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = BUF(y1)\n",
            "dep",
        )
        .unwrap();
        let a = c.find("a").unwrap();
        let exact = ExactEpp::new().site(&c, &InputProbs::default(), a).unwrap();
        assert!((exact.p_sensitized - 0.5).abs() < 1e-12);
        assert!((exact.p_sensitized_if_outputs_independent() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn oracles_agree_through_the_session() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "toy",
        )
        .unwrap();
        let session = AnalysisSession::new(&c).unwrap();
        let a = c.find("a").unwrap();
        let analytic = session.site(a).p_sensitized();
        let exact = ExactEpp::new()
            .site_with_sim(session.bit_sim(), session.inputs(), a)
            .unwrap();
        let bdd = BddExactEpp::new().site(&c, session.inputs(), a).unwrap();
        // Fanout-free circuit: all three agree exactly.
        assert!((analytic - exact.p_sensitized).abs() < 1e-12);
        assert!((analytic - bdd.p_sensitized).abs() < 1e-12);
        let mc = session.monte_carlo_site(&MonteCarlo::new(20_000).with_seed(1), a);
        assert!((analytic - mc.p_sensitized).abs() < 0.02);
    }
}
