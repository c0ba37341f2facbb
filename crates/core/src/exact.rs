//! Exact EPP by weighted exhaustive enumeration — the oracle the
//! analytical rules are validated against.
//!
//! For a given error site, enumerate every assignment of the circuit's
//! sources, simulate the fault-free and faulty circuits, and accumulate
//! the exact probability that the erroneous value reaches each observe
//! point (split by polarity) and the exact `P_sensitized`. Exponential
//! in the source count; guarded by a limit.

use ser_netlist::{Circuit, NodeId, ObservePoint};
use ser_sim::{BitSim, ExhaustivePatterns, PatternSource, SiteFaultSim};
use ser_sp::{InputProbs, SpError};

use crate::four_value::FourValue;

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
        crate::engine::combine_sensitization(self.per_point.iter().map(|&(_, pa, pab)| pa + pab))
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

    /// Adjusts the source-count limit.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 63.
    #[must_use]
    pub fn with_max_sources(mut self, n: usize) -> Self {
        assert!((1..=63).contains(&n), "limit must be 1..=63");
        self.max_sources = n;
        self
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
    /// (e.g. the one cached by an
    /// [`AnalysisSession`](crate::AnalysisSession)), so repeated oracle
    /// queries skip the per-call topological sort.
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
        let circuit = sim.circuit();
        let sources: Vec<NodeId> = sim.sources().to_vec();
        if sources.len() > self.max_sources {
            return Err(SpError::TooManySources {
                got: sources.len(),
                limit: self.max_sources,
            });
        }
        let source_p: Vec<f64> = sources
            .iter()
            .map(|&s| {
                if circuit.inputs().contains(&s) {
                    inputs.probability(s)
                } else {
                    0.5
                }
            })
            .collect();
        let fault = SiteFaultSim::new(sim, site);
        let mut good = vec![0u64; circuit.len()];
        let mut scratch = vec![0u64; circuit.len()];
        let mut p_sens = 0.0f64;
        let mut acc: Vec<(ObservePoint, f64, f64)> = fault
            .observe_points()
            .iter()
            .map(|&p| (p, 0.0, 0.0))
            .collect();
        let mut patterns = ExhaustivePatterns::new(sources.len());
        while let Some(block) = patterns.next_block() {
            sim.run_into(block.words(), &mut good);
            scratch.copy_from_slice(&good);
            let outcome = fault.inject(sim, &good, &mut scratch);
            for p in 0..block.count() {
                let mut w = 1.0f64;
                for (s, &ps) in source_p.iter().enumerate() {
                    w *= if block.bit(s, p) { ps } else { 1.0 - ps };
                }
                if w == 0.0 {
                    continue;
                }
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
        }
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
        let sources: Vec<NodeId> = sim.sources().to_vec();
        if sources.len() > self.max_sources {
            return Err(SpError::TooManySources {
                got: sources.len(),
                limit: self.max_sources,
            });
        }
        let source_p: Vec<f64> = sources
            .iter()
            .map(|&s| {
                if circuit.inputs().contains(&s) {
                    inputs.probability(s)
                } else {
                    0.5
                }
            })
            .collect();
        let mut good = vec![0u64; circuit.len()];
        let mut scratch = vec![0u64; circuit.len()];
        let (mut pa, mut pab, mut p0, mut p1) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut patterns = ExhaustivePatterns::new(sources.len());
        while let Some(block) = patterns.next_block() {
            sim.run_into(block.words(), &mut good);
            scratch.copy_from_slice(&good);
            // Re-derive the faulty value of `signal` per pattern.
            scratch[site.index()] = !good[site.index()];
            let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
            let cone = ser_netlist::FanoutCone::extract(circuit, site);
            for &id in sim.schedule() {
                if id == site || !cone.contains(id) {
                    continue;
                }
                let node = circuit.node(id);
                if node.kind() == ser_netlist::GateKind::Dff {
                    continue;
                }
                fanin_buf.clear();
                fanin_buf.extend(node.fanin().iter().map(|f| scratch[f.index()]));
                scratch[id.index()] = node.kind().eval_word(&fanin_buf);
            }
            let faulty_sig = scratch[signal.index()];
            let good_sig = good[signal.index()];
            let a_val = !good[site.index()];
            for p in 0..block.count() {
                let mut w = 1.0f64;
                for (s, &ps) in source_p.iter().enumerate() {
                    w *= if block.bit(s, p) { ps } else { 1.0 - ps };
                }
                if w == 0.0 {
                    continue;
                }
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
            // Restore scratch.
            scratch.copy_from_slice(&good);
        }
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
    use crate::engine::EppAnalysis;
    use ser_netlist::parse_bench;
    use ser_sp::{IndependentSp, SpEngine};

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
    fn source_limit_enforced() {
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
}
