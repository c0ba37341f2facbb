//! The per-site reference kernel: the paper's EPP pass written out
//! step by step for one site, with no compiled plans — the definition
//! the planned sweep kernel ([`EppAnalysis::sweep`]) is checked
//! against bit for bit.
//!
//! For every error site:
//!
//! 1. **Path construction** — extract the fanout cone (on-path signals
//!    and gates) by forward DFS over an epoch-stamped visited array,
//!    stopping at flip-flops.
//! 2. **Ordering** — sort the cone by topological position.
//! 3. **EPP computation** — apply the Table-1 rules gate by gate, using
//!    four-value tuples on on-path signals and signal probabilities on
//!    off-path signals, in one linear pass.
//!
//! Finally `P_sensitized(n) = 1 − Π_j (1 − (Pa(POj) + Pā(POj)))` over
//! the observe points reachable from `n`, in observe order. Both
//! kernels call the same rule function and the same polarity and
//! sensitization folds on the same inputs in the same order, which is
//! what makes bit-identity the right contract.

use ser_epp::{
    combine_sensitization, propagate, EppAnalysis, FourValue, PointEpp, PolarityMode, SiteEpp,
};
use ser_netlist::{GateKind, NodeId};

/// The per-site reference kernel over one analysis, with its scratch:
/// epoch-stamped membership and value arrays sized to the circuit, so
/// consecutive sites cost O(cone log cone) rather than O(circuit) to
/// set up.
///
/// # Examples
///
/// ```
/// use ser_epp::{EppAnalysis, PolarityMode};
/// use ser_netlist::parse_bench;
/// use ser_oracle::ReferenceEpp;
/// use ser_sp::{IndependentSp, InputProbs, SpEngine};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let sp = IndependentSp::new().compute(&c, &InputProbs::default())?;
/// let analysis = EppAnalysis::new(&c, sp)?;
/// let a = c.find("a").unwrap();
/// let mut reference = ReferenceEpp::new(&analysis);
/// // The planned kernel agrees bit for bit.
/// assert_eq!(reference.site(a, PolarityMode::Tracked), analysis.site(a));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceEpp {
    analysis: EppAnalysis,
    stamp: Vec<u32>,
    epoch: u32,
    values: Vec<FourValue>,
    cone: Vec<NodeId>,
    stack: Vec<NodeId>,
    fanin_buf: Vec<FourValue>,
}

impl ReferenceEpp {
    /// The kernel over `analysis` (an O(1) clone of its shared
    /// artifacts) with scratch sized to its circuit.
    #[must_use]
    pub fn new(analysis: &EppAnalysis) -> Self {
        let n = analysis.circuit().len();
        ReferenceEpp {
            analysis: analysis.clone(),
            stamp: vec![0; n],
            epoch: 0,
            values: vec![FourValue::error_site(); n],
            cone: Vec::new(),
            stack: Vec::new(),
            fanin_buf: Vec::with_capacity(8),
        }
    }

    /// The one-pass EPP computation for one error site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for the circuit.
    #[must_use]
    pub fn site(&mut self, site: NodeId, polarity: PolarityMode) -> SiteEpp {
        let circuit = self.analysis.circuit();
        let topo = self.analysis.artifacts();
        let sp = self.analysis.signal_probabilities();
        // New epoch: previous stamps invalidate in O(1). On wrap, reset.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        // --- 1. Path construction: forward DFS, stopping at DFFs. ------
        self.cone.clear();
        self.stack.clear();
        self.stack.push(site);
        self.stamp[site.index()] = epoch;
        self.cone.push(site);
        while let Some(id) = self.stack.pop() {
            for &succ in circuit.node(id).fanout() {
                if circuit.node(succ).kind() == GateKind::Dff {
                    continue; // latched, not combinationally propagated
                }
                if self.stamp[succ.index()] != epoch {
                    self.stamp[succ.index()] = epoch;
                    self.cone.push(succ);
                    self.stack.push(succ);
                }
            }
        }

        // --- 2. Ordering: sort cone members topologically. --------------
        self.cone.sort_unstable_by_key(|id| topo.position(*id));

        // --- 3. EPP computation: one pass over the cone. ----------------
        self.values[site.index()] = FourValue::error_site();
        let mut gates = 0usize;
        for &id in &self.cone {
            if id == site {
                continue;
            }
            let node = circuit.node(id);
            debug_assert!(
                node.kind().is_logic(),
                "on-path non-site nodes are logic gates"
            );
            self.fanin_buf.clear();
            for &f in node.fanin() {
                let tuple = if self.stamp[f.index()] == epoch {
                    self.values[f.index()]
                } else {
                    // Off-path signal: described by its signal probability.
                    FourValue::from_signal_probability(sp.get(f))
                };
                self.fanin_buf.push(tuple);
            }
            self.values[id.index()] = polarity.apply(propagate(node.kind(), &self.fanin_buf));
            gates += 1;
        }

        let per_point: Vec<PointEpp> = topo
            .observe_points()
            .iter()
            .filter(|p| self.stamp[p.signal().index()] == epoch)
            .map(|&point| PointEpp {
                point,
                value: self.values[point.signal().index()],
            })
            .collect();
        let p_sensitized = combine_sensitization(per_point.iter().map(PointEpp::p_arrival));
        SiteEpp::from_parts(site, per_point, p_sensitized, gates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::{IndependentSp, InputProbs, SpEngine};

    const FIG1: &str = "
INPUT(A)
INPUT(B)
INPUT(C)
INPUT(F)
OUTPUT(H)
E = NOT(A)
D = AND(A, B)
G = AND(E, F)
H = OR(C, D, G)
";

    #[test]
    fn figure1_walkthrough() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let probs = InputProbs::uniform(0.5)
            .with(c.find("B").unwrap(), 0.2)
            .with(c.find("C").unwrap(), 0.3)
            .with(c.find("F").unwrap(), 0.7);
        let sp = IndependentSp::new().compute(&c, &probs).unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let mut reference = ReferenceEpp::new(&analysis);
        let a = c.find("A").unwrap();
        let r = reference.site(a, PolarityMode::Tracked);
        // P(H) = 0.042(a) + 0.392(ā) + 0.168(0) + 0.398(1).
        let h = r.arrival_at(c.find("H").unwrap()).unwrap();
        assert!((h.pa() - 0.042).abs() < 1e-12);
        assert!((h.pa_bar() - 0.392).abs() < 1e-12);
        assert!((r.p_sensitized() - 0.434).abs() < 1e-12);
        assert_eq!(r.on_path_gates(), 4);
        // Merged polarity overestimates: 0.532.
        let merged = reference.site(a, PolarityMode::Merged);
        assert!((merged.p_sensitized() - 0.532).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_and_epoch_wrap_change_nothing() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let analysis = EppAnalysis::new(&c, sp).unwrap();
        let mut reused = ReferenceEpp::new(&analysis);
        reused.epoch = u32::MAX - 2;
        for _ in 0..3 {
            for id in c.node_ids() {
                let fresh = ReferenceEpp::new(&analysis).site(id, PolarityMode::Tracked);
                assert_eq!(reused.site(id, PolarityMode::Tracked), fresh, "site {id}");
            }
        }
    }
}
