//! SCOAP testability vs EPP-based vulnerability: the classic structural
//! metric and the paper's probabilistic one should broadly agree on
//! *which* nodes are exposed — that agreement (and where it breaks) is
//! the reason an accurate, cheap P_sensitized is useful at all.

use ser_suite::epp::CircuitSerAnalysis;
use ser_suite::gen::{iscas89_like, RandomDag};
use ser_suite::netlist::Circuit;

use scoap::{Scoap, SCOAP_INFINITY};

/// Spearman rank correlation between two equally-long value slices.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    fn ranks(v: &[f64]) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite"));
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let n = xs.len() as f64;
    let mx = rx.iter().sum::<f64>() / n;
    let my = ry.iter().sum::<f64>() / n;
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = rx.iter().map(|a| (a - mx) * (a - mx)).sum();
    let vy: f64 = ry.iter().map(|b| (b - my) * (b - my)).sum();
    cov / (vx.sqrt() * vy.sqrt())
}

/// Collects (negated observability, P_sensitized) pairs over gates.
fn paired_metrics(circuit: &Circuit) -> (Vec<f64>, Vec<f64>) {
    let scoap = Scoap::compute(circuit).unwrap();
    let outcome = CircuitSerAnalysis::new().run(circuit).unwrap();
    let mut neg_co = Vec::new();
    let mut p_sens = Vec::new();
    for (id, node) in circuit.iter() {
        if !node.kind().is_logic() {
            continue;
        }
        let co = scoap.co(id);
        // Unobservable nodes: pin at the bottom of both rankings.
        let co_metric = if co >= SCOAP_INFINITY {
            -1e9
        } else {
            -f64::from(co)
        };
        neg_co.push(co_metric);
        p_sens.push(outcome.site(id).p_sensitized());
    }
    (neg_co, p_sens)
}

#[test]
fn easy_to_observe_correlates_with_sensitized_on_dags() {
    // Aggregate correlation across seeds; individual circuits vary.
    let mut total = 0.0;
    let seeds = 6u64;
    for seed in 0..seeds {
        let c = RandomDag::new(12, 60).with_reconvergence(0.4).build(seed);
        let (neg_co, p_sens) = paired_metrics(&c);
        total += spearman(&neg_co, &p_sens);
    }
    let mean_rho = total / seeds as f64;
    assert!(
        mean_rho > 0.3,
        "SCOAP observability should correlate with P_sensitized, rho = {mean_rho}"
    );
}

#[test]
fn correlates_on_synthetic_benchmark() {
    let c = iscas89_like("s344").unwrap();
    let (neg_co, p_sens) = paired_metrics(&c);
    let rho = spearman(&neg_co, &p_sens);
    assert!(rho > 0.2, "s344-like: rho = {rho}");
}

#[test]
fn unobservable_agrees_exactly() {
    // Where SCOAP says "infinite observability cost", EPP must say
    // P_sensitized = 0 — the two theories coincide at the boundary.
    let c = RandomDag::new(8, 30).build(3);
    let scoap = Scoap::compute(&c).unwrap();
    let outcome = CircuitSerAnalysis::new().run(&c).unwrap();
    for id in c.node_ids() {
        if scoap.co(id) >= SCOAP_INFINITY {
            assert_eq!(
                outcome.site(id).p_sensitized(),
                0.0,
                "node {id}: SCOAP-unobservable but EPP-sensitized"
            );
        }
        if outcome.site(id).p_sensitized() > 0.0 {
            assert!(
                scoap.co(id) < SCOAP_INFINITY,
                "node {id}: EPP-sensitized but SCOAP-unobservable"
            );
        }
    }
}

#[test]
fn spearman_self_test() {
    let xs = [1.0, 2.0, 3.0, 4.0];
    assert!((spearman(&xs, &xs) - 1.0).abs() < 1e-12);
    let ys = [4.0, 3.0, 2.0, 1.0];
    assert!((spearman(&xs, &ys) + 1.0).abs() < 1e-12);
}

mod scoap {
    //! SCOAP testability measures (Goldstein 1979): combinational
    //! controllabilities `CC0`/`CC1` and observability `CO`.
    //!
    //! SCOAP is the classic structural stand-in for exactly the question
    //! the paper answers probabilistically: *how hard is it to sensitize a
    //! path from a node to an output?* Having it in the suite lets the
    //! experiments compare EPP-based vulnerability ranking against the
    //! traditional testability-based ranking (a low-`CO` node is easy to
    //! observe, hence — all else equal — more SER-exposed).
    //!
    //! Conventions used here (combinational view, consistent with the rest
    //! of the suite): primary inputs and flip-flop outputs have
    //! `CC0 = CC1 = 1`; primary outputs *and flip-flop D pins* have
    //! `CO = 0`; unobservable/uncontrollable values saturate at
    //! [`SCOAP_INFINITY`].

    use ser_suite::netlist::{topo_order, Circuit, GateKind, NetlistError, NodeId};

    /// Saturation value for unreachable controllability/observability.
    pub const SCOAP_INFINITY: u32 = u32::MAX / 4;

    /// SCOAP numbers for every node of one circuit.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Scoap {
        cc0: Vec<u32>,
        cc1: Vec<u32>,
        co: Vec<u32>,
    }

    fn sat_add(a: u32, b: u32) -> u32 {
        a.saturating_add(b).min(SCOAP_INFINITY)
    }

    impl Scoap {
        /// Computes the three measures: one forward pass for `CC0`/`CC1`,
        /// one backward pass for `CO`.
        ///
        /// # Errors
        ///
        /// Returns [`NetlistError::CombinationalCycle`] if the circuit's
        /// combinational graph is cyclic.
        pub fn compute(circuit: &Circuit) -> Result<Self, NetlistError> {
            let order = topo_order(circuit)?;
            let n = circuit.len();
            let mut cc0 = vec![SCOAP_INFINITY; n];
            let mut cc1 = vec![SCOAP_INFINITY; n];

            // --- Forward: controllability. --------------------------------
            for &id in &order {
                let node = circuit.node(id);
                let i = id.index();
                match node.kind() {
                    GateKind::Input | GateKind::Dff => {
                        cc0[i] = 1;
                        cc1[i] = 1;
                    }
                    GateKind::Const0 => {
                        cc0[i] = 0;
                        cc1[i] = SCOAP_INFINITY;
                    }
                    GateKind::Const1 => {
                        cc0[i] = SCOAP_INFINITY;
                        cc1[i] = 0;
                    }
                    GateKind::Buf => {
                        let f = node.fanin()[0].index();
                        cc0[i] = sat_add(cc0[f], 1);
                        cc1[i] = sat_add(cc1[f], 1);
                    }
                    GateKind::Not => {
                        let f = node.fanin()[0].index();
                        cc0[i] = sat_add(cc1[f], 1);
                        cc1[i] = sat_add(cc0[f], 1);
                    }
                    GateKind::And | GateKind::Nand => {
                        // AND: 1 needs all inputs 1; 0 needs the cheapest 0.
                        let all1 = node
                            .fanin()
                            .iter()
                            .fold(0u32, |acc, f| sat_add(acc, cc1[f.index()]));
                        let min0 = node
                            .fanin()
                            .iter()
                            .map(|f| cc0[f.index()])
                            .min()
                            .expect("arity >= 1");
                        let (v1, v0) = (sat_add(all1, 1), sat_add(min0, 1));
                        if node.kind() == GateKind::And {
                            cc1[i] = v1;
                            cc0[i] = v0;
                        } else {
                            cc0[i] = v1;
                            cc1[i] = v0;
                        }
                    }
                    GateKind::Or | GateKind::Nor => {
                        let all0 = node
                            .fanin()
                            .iter()
                            .fold(0u32, |acc, f| sat_add(acc, cc0[f.index()]));
                        let min1 = node
                            .fanin()
                            .iter()
                            .map(|f| cc1[f.index()])
                            .min()
                            .expect("arity >= 1");
                        let (v0, v1) = (sat_add(all0, 1), sat_add(min1, 1));
                        if node.kind() == GateKind::Or {
                            cc0[i] = v0;
                            cc1[i] = v1;
                        } else {
                            cc1[i] = v0;
                            cc0[i] = v1;
                        }
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        // Fold pairwise: cost of parity-0 / parity-1.
                        let mut c0 = cc0[node.fanin()[0].index()];
                        let mut c1 = cc1[node.fanin()[0].index()];
                        for f in &node.fanin()[1..] {
                            let (f0, f1) = (cc0[f.index()], cc1[f.index()]);
                            let n0 = sat_add(c0, f0).min(sat_add(c1, f1));
                            let n1 = sat_add(c0, f1).min(sat_add(c1, f0));
                            c0 = n0;
                            c1 = n1;
                        }
                        if node.kind() == GateKind::Xor {
                            cc0[i] = sat_add(c0, 1);
                            cc1[i] = sat_add(c1, 1);
                        } else {
                            cc0[i] = sat_add(c1, 1);
                            cc1[i] = sat_add(c0, 1);
                        }
                    }
                }
            }

            // --- Backward: observability. ----------------------------------
            let mut co = vec![SCOAP_INFINITY; n];
            for &po in circuit.outputs() {
                co[po.index()] = 0;
            }
            for &ff in circuit.dffs() {
                // A value reaching a D pin is captured: observed.
                let d = circuit.node(ff).fanin()[0];
                co[d.index()] = 0;
            }
            for &id in order.iter().rev() {
                let node = circuit.node(id);
                if node.kind() == GateKind::Dff {
                    continue; // Q-observability flows from its own fanout only
                }
                let gate_co = co[id.index()];
                if gate_co >= SCOAP_INFINITY && node.kind().is_logic() {
                    // Still propagate: fanins may observe through other
                    // fanouts; nothing to add from this gate.
                }
                for (pin, &f) in node.fanin().iter().enumerate() {
                    let through = match node.kind() {
                        GateKind::Input | GateKind::Const0 | GateKind::Const1 => continue,
                        GateKind::Dff => continue,
                        GateKind::Buf | GateKind::Not => sat_add(gate_co, 1),
                        GateKind::And | GateKind::Nand => {
                            let side: u32 = node
                                .fanin()
                                .iter()
                                .enumerate()
                                .filter(|&(j, _)| j != pin)
                                .fold(0u32, |acc, (_, g)| sat_add(acc, cc1[g.index()]));
                            sat_add(sat_add(gate_co, side), 1)
                        }
                        GateKind::Or | GateKind::Nor => {
                            let side: u32 = node
                                .fanin()
                                .iter()
                                .enumerate()
                                .filter(|&(j, _)| j != pin)
                                .fold(0u32, |acc, (_, g)| sat_add(acc, cc0[g.index()]));
                            sat_add(sat_add(gate_co, side), 1)
                        }
                        GateKind::Xor | GateKind::Xnor => {
                            let side: u32 = node
                                .fanin()
                                .iter()
                                .enumerate()
                                .filter(|&(j, _)| j != pin)
                                .fold(0u32, |acc, (_, g)| {
                                    sat_add(acc, cc0[g.index()].min(cc1[g.index()]))
                                });
                            sat_add(sat_add(gate_co, side), 1)
                        }
                    };
                    let slot = &mut co[f.index()];
                    *slot = (*slot).min(through);
                }
            }

            Ok(Scoap { cc0, cc1, co })
        }

        /// 0-controllability of `id` (effort to set it to 0).
        #[must_use]
        pub fn cc0(&self, id: NodeId) -> u32 {
            self.cc0[id.index()]
        }

        /// 1-controllability of `id`.
        #[must_use]
        pub fn cc1(&self, id: NodeId) -> u32 {
            self.cc1[id.index()]
        }

        /// Observability of `id` (effort to propagate its value to an
        /// output or flip-flop; 0 = directly observed).
        #[must_use]
        pub fn co(&self, id: NodeId) -> u32 {
            self.co[id.index()]
        }

        /// Goldstein's combined testability of a stuck-at fault at `id`:
        /// `CC + CO` using the harder-to-set value.
        #[must_use]
        pub fn testability(&self, id: NodeId) -> u32 {
            sat_add(self.cc0(id).max(self.cc1(id)), self.co(id))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ser_suite::netlist::{parse_bench, CircuitBuilder};

        #[test]
        fn controllability_of_and_chain() {
            // y = AND(a, b): CC1(y) = 1+1+1 = 3, CC0(y) = 1+1 = 2.
            let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
            let s = Scoap::compute(&c).unwrap();
            let y = c.find("y").unwrap();
            assert_eq!(s.cc1(y), 3);
            assert_eq!(s.cc0(y), 2);
        }

        #[test]
        fn observability_through_and() {
            // y = AND(a, b), PO y: CO(y) = 0; CO(a) = 0 + CC1(b) + 1 = 2.
            let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
            let s = Scoap::compute(&c).unwrap();
            assert_eq!(s.co(c.find("y").unwrap()), 0);
            assert_eq!(s.co(c.find("a").unwrap()), 2);
        }

        #[test]
        fn inverter_swaps_controllability() {
            let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "t").unwrap();
            let s = Scoap::compute(&c).unwrap();
            let y = c.find("y").unwrap();
            assert_eq!(s.cc0(y), 2);
            assert_eq!(s.cc1(y), 2);
            assert_eq!(s.co(c.find("a").unwrap()), 1);
        }

        #[test]
        fn xor_controllability() {
            // y = XOR(a, b): CC1 = min(1+1, 1+1) + 1 = 3; CC0 likewise 3.
            let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n", "t").unwrap();
            let s = Scoap::compute(&c).unwrap();
            let y = c.find("y").unwrap();
            assert_eq!(s.cc0(y), 3);
            assert_eq!(s.cc1(y), 3);
            // CO(a) = 0 + min(CC0(b), CC1(b)) + 1 = 2.
            assert_eq!(s.co(c.find("a").unwrap()), 2);
        }

        #[test]
        fn constants() {
            let mut b = CircuitBuilder::new("k");
            let one = b.constant("one", true);
            let x = b.input("x");
            let g = b.gate("g", GateKind::And, &[one, x]);
            b.mark_output(g);
            let c = b.finish().unwrap();
            let s = Scoap::compute(&c).unwrap();
            assert_eq!(s.cc1(one), 0);
            assert_eq!(s.cc0(one), SCOAP_INFINITY);
            // g is 1 iff x is 1 (one is free): CC1(g) = 0 + 1 + 1.
            assert_eq!(s.cc1(g), 2);
        }

        #[test]
        fn dff_d_pin_is_observed() {
            let c = parse_bench(
                "INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(a)\nz = NOT(q)\n",
                "s",
            )
            .unwrap();
            let s = Scoap::compute(&c).unwrap();
            // d feeds the flip-flop: directly observed.
            assert_eq!(s.co(c.find("d").unwrap()), 0);
            // q is a pseudo-input with unit controllabilities.
            let q = c.find("q").unwrap();
            assert_eq!(s.cc0(q), 1);
            assert_eq!(s.cc1(q), 1);
            // a observes through the NOT into the D pin: CO = 0 + 1 = 1.
            assert_eq!(s.co(c.find("a").unwrap()), 1);
        }

        #[test]
        fn unobservable_saturates() {
            let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
            let s = Scoap::compute(&c).unwrap();
            assert_eq!(s.co(c.find("u").unwrap()), SCOAP_INFINITY);
            assert!(s.testability(c.find("u").unwrap()) >= SCOAP_INFINITY);
        }

        #[test]
        fn observability_takes_cheapest_fanout_branch() {
            // a drives both a deep path and a direct output.
            let c = parse_bench(
                "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\nu = AND(a, b)\ny = NOT(u)\nz = BUF(a)\n",
                "t",
            )
            .unwrap();
            let s = Scoap::compute(&c).unwrap();
            // Through z: CO = 0 + 1 = 1 (cheaper than through u/y).
            assert_eq!(s.co(c.find("a").unwrap()), 1);
        }

        #[test]
        fn testability_combines() {
            let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
            let s = Scoap::compute(&c).unwrap();
            let a = c.find("a").unwrap();
            // max(CC0, CC1) = 1; CO = 2 -> 3.
            assert_eq!(s.testability(a), 3);
        }
    }
}
