//! Random DAGs with controlled reconvergence — the knob the accuracy
//! ablations sweep.
//!
//! The paper's polarity tracking exists to handle reconvergent fanout;
//! its residual error grows with how much *correlated* reconvergence a
//! circuit has. [`RandomDag`] exposes that as a dial: `reconvergence`
//! close to 0 yields tree-like circuits (analytical EPP exact),
//! close to 1 yields dense shared-fanin meshes (worst case).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ser_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};

/// Configuration for a random combinational DAG.
///
/// # Examples
///
/// ```
/// use ser_gen::RandomDag;
///
/// let c = RandomDag::new(8, 60).with_reconvergence(0.8).build(42);
/// assert_eq!(c.num_inputs(), 8);
/// assert_eq!(c.num_gates(), 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomDag {
    inputs: usize,
    gates: usize,
    outputs: usize,
    reconvergence: f64,
    xor_fraction: f64,
}

impl RandomDag {
    /// A DAG over `inputs` primary inputs and exactly `gates` gates;
    /// defaults: 25% of gates become outputs (at least 1), moderate
    /// reconvergence 0.5, XOR fraction 0.1.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `gates` is 0.
    #[must_use]
    pub fn new(inputs: usize, gates: usize) -> Self {
        assert!(inputs > 0, "at least one input");
        assert!(gates > 0, "at least one gate");
        RandomDag {
            inputs,
            gates,
            outputs: (gates / 4).max(1),
            reconvergence: 0.5,
            xor_fraction: 0.1,
        }
    }

    /// Sets the number of primary outputs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than the gate count.
    #[cfg(test)]
    fn with_outputs(mut self, n: usize) -> Self {
        assert!(n > 0 && n <= self.gates, "outputs must be 1..=gates");
        self.outputs = n;
        self
    }

    /// Sets the reconvergence dial in `[0, 1]`: the probability that a
    /// gate's extra fanins are drawn from *already-used* nodes (sharing
    /// fanout stems) instead of fresh ones.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside `[0, 1]`.
    #[must_use]
    pub fn with_reconvergence(mut self, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&r), "reconvergence outside [0,1]");
        self.reconvergence = r;
        self
    }

    /// Sets the fraction of XOR/XNOR gates (error-transparent logic).
    ///
    /// # Panics
    ///
    /// Panics if `f` is outside `[0, 1]`.
    #[must_use]
    pub fn with_xor_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "xor fraction outside [0,1]");
        self.xor_fraction = f;
        self
    }

    /// Builds the circuit deterministically from `seed`.
    ///
    /// The reconvergence dial steers *extra* fanin picks by current
    /// fanout: a high dial prefers nodes that already drive exactly one
    /// pin (each such pick mints a new fanout stem), a low dial prefers
    /// driver-less nodes, and — when forced to reuse — the heaviest
    /// existing stem (which mints no new stem).
    #[must_use]
    pub fn build(&self, seed: u64) -> Circuit {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = CircuitBuilder::new(format!(
            "dag_i{}g{}r{:02}",
            self.inputs,
            self.gates,
            (self.reconvergence * 100.0) as u32
        ));
        let mut nodes: Vec<NodeId> = (0..self.inputs)
            .map(|i| b.input(&format!("i{i}")))
            .collect();
        let mut fanout: Vec<u32> = vec![0; self.inputs + self.gates];
        // Samples k candidates and keeps the best by `score` (higher
        // wins); ties keep the first.
        let sample_best = |nodes: &[NodeId],
                           rng: &mut SmallRng,
                           fanout: &[u32],
                           score: &dyn Fn(u32) -> i64|
         -> NodeId {
            let mut best = *nodes.choose(rng).expect("nodes exist");
            let mut best_score = score(fanout[best.index()]);
            for _ in 0..7 {
                let cand = *nodes.choose(rng).expect("nodes exist");
                let s = score(fanout[cand.index()]);
                if s > best_score {
                    best = cand;
                    best_score = s;
                }
            }
            best
        };
        for gi in 0..self.gates {
            let kind = if rng.gen_bool(self.xor_fraction) {
                if rng.gen_bool(0.5) {
                    GateKind::Xor
                } else {
                    GateKind::Xnor
                }
            } else {
                *[
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Not,
                ]
                .choose(&mut rng)
                .expect("non-empty")
            };
            let want = if kind == GateKind::Not {
                1
            } else {
                rng.gen_range(2..=3)
            };
            let mut fanin: Vec<NodeId> = Vec::with_capacity(want);
            // First fanin: most recent node (creates a long spine).
            fanin.push(*nodes.last().expect("inputs exist"));
            for _ in 1..want {
                let reconv = rng.gen_bool(self.reconvergence);
                let node = if reconv {
                    // Convert a single-fanout node into a stem (or touch
                    // an existing stem): never pick a fresh node.
                    sample_best(&nodes, &mut rng, &fanout, &|f| match f {
                        1 => 2,           // best: mints a brand-new stem
                        x if x >= 2 => 1, // fine: deepens an existing stem
                        _ => 0,           // fresh: avoid
                    })
                } else {
                    // Prefer fresh nodes; when none sampled, reuse the
                    // heaviest stem so no new stem is minted.
                    sample_best(&nodes, &mut rng, &fanout, &|f| {
                        if f == 0 {
                            i64::MAX
                        } else {
                            i64::from(f)
                        }
                    })
                };
                if !fanin.contains(&node) || kind == GateKind::Not {
                    fanin.push(node);
                } else {
                    fanin.push(*nodes.choose(&mut rng).expect("nodes exist"));
                }
            }
            let id = b.gate(&format!("g{gi}"), kind, &fanin);
            for &f in &fanin {
                fanout[f.index()] += 1;
            }
            nodes.push(id);
        }
        // Outputs: the driver-less sinks first, then the deepest gates.
        let gate_nodes = &nodes[self.inputs..];
        let mut outs: Vec<NodeId> = gate_nodes
            .iter()
            .copied()
            .filter(|n| fanout[n.index()] == 0)
            .collect();
        outs.truncate(self.outputs);
        let mut i = gate_nodes.len();
        while outs.len() < self.outputs && i > 0 {
            i -= 1;
            if !outs.contains(&gate_nodes[i]) {
                outs.push(gate_nodes[i]);
            }
        }
        for id in outs {
            b.mark_output(id);
        }
        b.finish().expect("random dag is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::CircuitStats;

    #[test]
    fn respects_counts() {
        let c = RandomDag::new(6, 40).with_outputs(5).build(1);
        assert_eq!(c.num_inputs(), 6);
        assert_eq!(c.num_gates(), 40);
        assert_eq!(c.num_outputs(), 5);
        assert!(c.is_combinational());
    }

    #[test]
    fn deterministic() {
        let cfg = RandomDag::new(5, 30);
        assert_eq!(cfg.build(9), cfg.build(9));
        assert_ne!(cfg.build(9), cfg.build(10));
    }

    #[test]
    fn reconvergence_dial_changes_stem_count() {
        let low = RandomDag::new(10, 200).with_reconvergence(0.05).build(3);
        let high = RandomDag::new(10, 200).with_reconvergence(0.95).build(3);
        let s_low = CircuitStats::compute(&low).unwrap();
        let s_high = CircuitStats::compute(&high).unwrap();
        assert!(
            s_high.fanout_stems > s_low.fanout_stems,
            "high dial {} stems vs low dial {}",
            s_high.fanout_stems,
            s_low.fanout_stems
        );
    }

    #[test]
    fn xor_fraction_dial() {
        let none = RandomDag::new(8, 150).with_xor_fraction(0.0).build(2);
        let lots = RandomDag::new(8, 150).with_xor_fraction(0.9).build(2);
        let count_xor = |c: &Circuit| {
            c.iter()
                .filter(|(_, n)| matches!(n.kind(), GateKind::Xor | GateKind::Xnor))
                .count()
        };
        assert_eq!(count_xor(&none), 0);
        assert!(count_xor(&lots) > 100);
    }

    #[test]
    fn all_dags_simulate_and_are_acyclic() {
        use ser_sim::BitSim;
        for seed in 0..5 {
            let c = RandomDag::new(4, 25).build(seed);
            let sim = BitSim::new(&c).unwrap();
            let v = sim.run(&[0, !0, 0xF0F0_F0F0_F0F0_F0F0, 7]);
            assert_eq!(v.len(), c.len());
        }
    }
}
