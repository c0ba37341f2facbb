//! The full SER model:
//! `SER(n) = R_SEU(n) × P_latched(n) × P_sensitized(n)`.
//!
//! The paper evaluates only the `P_sensitized` term (the expensive one)
//! and treats the other two as technology inputs; this module provides
//! the standard parameterizations so whole-circuit SER reports, node
//! rankings and hardening decisions can be produced.

use std::collections::BTreeMap;
use std::fmt;

use ser_netlist::{Circuit, GateKind, NodeId};

/// The raw SEU (bit-flip) rate of a node — "depends on the particle
/// flux, the energy of the particle, type and size of the gate, and the
/// device characteristics". Rates are in FIT-like arbitrary units; only
/// ratios matter to the rankings.
#[derive(Debug, Clone, PartialEq)]
pub enum RseuModel {
    /// Every node upsets at the same rate.
    Uniform(f64),
    /// Per-gate-kind rates (larger gates collect more charge); kinds
    /// missing from the table fall back to the default.
    PerKind {
        /// Rate per gate kind.
        rates: BTreeMap<GateKind, f64>,
        /// Fallback rate.
        default: f64,
    },
    /// Rate proportional to fanin count (a crude area proxy):
    /// `base × (1 + slope × fanin)`.
    FaninScaled {
        /// Rate of a zero-fanin node.
        base: f64,
        /// Additional rate per fanin pin.
        slope: f64,
    },
}

impl RseuModel {
    /// The upset rate of `node` in `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    fn rate(&self, circuit: &Circuit, node: NodeId) -> f64 {
        match self {
            RseuModel::Uniform(r) => *r,
            RseuModel::PerKind { rates, default } => rates
                .get(&circuit.node(node).kind())
                .copied()
                .unwrap_or(*default),
            RseuModel::FaninScaled { base, slope } => {
                base * (1.0 + slope * circuit.node(node).fanin().len() as f64)
            }
        }
    }
}

impl Default for RseuModel {
    /// Uniform unit rate (rankings then reflect `P_latched × P_sens`).
    fn default() -> Self {
        RseuModel::Uniform(1.0)
    }
}

/// The probability that an erroneous value which reached a storage
/// element is actually captured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlatchedModel {
    /// A constant capture probability.
    Constant(f64),
    /// The classic latching-window model: a transient of width `w` is
    /// captured by a clock of period `T` with window `(w + ts + th) / T`
    /// (clamped to 1), where `ts`/`th` are setup/hold times. All times
    /// in the same unit.
    LatchingWindow {
        /// Transient pulse width.
        pulse_width: f64,
        /// Flip-flop setup time.
        setup: f64,
        /// Flip-flop hold time.
        hold: f64,
        /// Clock period.
        clock_period: f64,
    },
}

impl PlatchedModel {
    /// The capture probability.
    ///
    /// # Panics
    ///
    /// Panics if a [`PlatchedModel::Constant`] probability is outside
    /// `[0, 1]` or a window parameter is non-positive where required.
    #[must_use]
    pub fn probability(&self) -> f64 {
        match *self {
            PlatchedModel::Constant(p) => {
                assert!((0.0..=1.0).contains(&p), "P_latched = {p} outside [0,1]");
                p
            }
            PlatchedModel::LatchingWindow {
                pulse_width,
                setup,
                hold,
                clock_period,
            } => {
                assert!(clock_period > 0.0, "clock period must be positive");
                assert!(
                    pulse_width >= 0.0 && setup >= 0.0 && hold >= 0.0,
                    "window parameters must be non-negative"
                );
                ((pulse_width + setup + hold) / clock_period).min(1.0)
            }
        }
    }
}

impl Default for PlatchedModel {
    /// Certain capture (rankings then reflect `R_SEU × P_sens`).
    fn default() -> Self {
        PlatchedModel::Constant(1.0)
    }
}

/// Per-node SER estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerEntry {
    /// The node.
    pub node: NodeId,
    /// Raw upset rate `R_SEU`.
    pub rseu: f64,
    /// Capture probability `P_latched`.
    pub platched: f64,
    /// Propagation probability `P_sensitized`.
    pub p_sensitized: f64,
    /// The product — this node's SER contribution.
    pub ser: f64,
}

/// Whole-circuit SER report: per-node entries plus the total.
#[derive(Debug, Clone, PartialEq)]
pub struct SerReport {
    entries: Vec<SerEntry>,
    total: f64,
}

impl SerReport {
    /// Assembles a report from per-node `P_sensitized` values and the
    /// two technology models.
    ///
    /// # Panics
    ///
    /// Panics if `p_sensitized.len() != circuit.len()`.
    #[must_use]
    pub fn assemble(
        circuit: &Circuit,
        p_sensitized: &[f64],
        rseu: &RseuModel,
        platched: &PlatchedModel,
    ) -> Self {
        assert_eq!(
            p_sensitized.len(),
            circuit.len(),
            "one P_sensitized per node"
        );
        let pl = platched.probability();
        let entries: Vec<SerEntry> = circuit
            .node_ids()
            .map(|node| {
                let r = rseu.rate(circuit, node);
                let ps = p_sensitized[node.index()];
                SerEntry {
                    node,
                    rseu: r,
                    platched: pl,
                    p_sensitized: ps,
                    ser: r * pl * ps,
                }
            })
            .collect();
        let total = entries.iter().map(|e| e.ser).sum();
        SerReport { entries, total }
    }

    /// Per-node entries in arena order.
    #[must_use]
    pub fn entries(&self) -> &[SerEntry] {
        &self.entries
    }

    /// The circuit's total SER (sum of node contributions).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Entries sorted by descending SER contribution — the paper's
    /// "identify the most vulnerable components" use-case.
    #[must_use]
    pub fn ranking(&self) -> Vec<SerEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| {
            b.ser
                .partial_cmp(&a.ser)
                .expect("SER values are finite")
                .then(a.node.cmp(&b.node))
        });
        sorted
    }

    /// The smallest set of nodes (by the greedy descending-SER order)
    /// whose combined contribution reaches `fraction` of the total;
    /// protecting them with hardened gates removes that share.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn cover_fraction(&self, fraction: f64) -> Vec<SerEntry> {
        assert!((0.0..=1.0).contains(&fraction), "fraction outside [0,1]");
        let target = self.total * fraction;
        let mut acc = 0.0;
        let mut chosen = Vec::new();
        for e in self.ranking() {
            if acc >= target || e.ser == 0.0 {
                break;
            }
            acc += e.ser;
            chosen.push(e);
        }
        chosen
    }
}

impl fmt::Display for SerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total SER: {:.6}", self.total)?;
        write!(f, "{} nodes", self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;

    fn toy() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, b)\n",
            "toy",
        )
        .unwrap()
    }

    #[test]
    fn uniform_rseu() {
        let c = toy();
        let m = RseuModel::Uniform(2.5);
        for id in c.node_ids() {
            assert_eq!(m.rate(&c, id), 2.5);
        }
    }

    #[test]
    fn per_kind_rseu() {
        let c = toy();
        let mut rates = BTreeMap::new();
        rates.insert(GateKind::And, 3.0);
        let m = RseuModel::PerKind {
            rates,
            default: 1.0,
        };
        assert_eq!(m.rate(&c, c.find("u").unwrap()), 3.0);
        assert_eq!(m.rate(&c, c.find("y").unwrap()), 1.0);
        assert_eq!(m.rate(&c, c.find("a").unwrap()), 1.0);
    }

    #[test]
    fn fanin_scaled_rseu() {
        let c = toy();
        let m = RseuModel::FaninScaled {
            base: 1.0,
            slope: 0.5,
        };
        // u has 2 fanins: 1 * (1 + 0.5*2) = 2.0; inputs: 1.0.
        assert_eq!(m.rate(&c, c.find("u").unwrap()), 2.0);
        assert_eq!(m.rate(&c, c.find("a").unwrap()), 1.0);
    }

    #[test]
    fn latching_window() {
        let m = PlatchedModel::LatchingWindow {
            pulse_width: 0.1,
            setup: 0.05,
            hold: 0.05,
            clock_period: 1.0,
        };
        assert!((m.probability() - 0.2).abs() < 1e-12);
        // Clamped at 1.
        let m = PlatchedModel::LatchingWindow {
            pulse_width: 2.0,
            setup: 0.0,
            hold: 0.0,
            clock_period: 1.0,
        };
        assert_eq!(m.probability(), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn constant_platched_validated() {
        let _ = PlatchedModel::Constant(1.5).probability();
    }

    #[test]
    fn report_totals_and_ranking() {
        let c = toy();
        // Fake P_sens: a=0.5, b=0.9, u=0.25, y=1.0.
        let ps: Vec<f64> = c
            .node_ids()
            .map(|id| match c.node(id).name() {
                "a" => 0.5,
                "b" => 0.9,
                "u" => 0.25,
                "y" => 1.0,
                _ => 0.0,
            })
            .collect();
        let report = SerReport::assemble(
            &c,
            &ps,
            &RseuModel::default(),
            &PlatchedModel::Constant(0.5),
        );
        assert!((report.total() - (0.5 + 0.9 + 0.25 + 1.0) * 0.5).abs() < 1e-12);
        let ranking = report.ranking();
        assert_eq!(c.node(ranking[0].node).name(), "y");
        assert_eq!(c.node(ranking[1].node).name(), "b");
        assert_eq!(c.node(ranking[3].node).name(), "u");
        // Display smoke test.
        assert!(report.to_string().contains("total SER"));
    }

    #[test]
    fn cover_fraction_greedy() {
        let c = toy();
        let ps = vec![0.5, 0.9, 0.25, 1.0];
        let report = SerReport::assemble(&c, &ps, &RseuModel::default(), &PlatchedModel::default());
        // Total = 2.65. Covering 50% (1.325) needs y (1.0) + b (0.9).
        let cover = report.cover_fraction(0.5);
        assert_eq!(cover.len(), 2);
        assert_eq!(c.node(cover[0].node).name(), "y");
        // Covering 0% needs nothing.
        assert!(report.cover_fraction(0.0).is_empty());
        // Covering 100% needs every nonzero node.
        assert_eq!(report.cover_fraction(1.0).len(), 4);
    }
}
