//! Exact EPP via BDDs — the oracle without the input-count wall.
//!
//! For an error site `n`, build the fault-free functions of every node,
//! then rebuild the site's fanout cone with the site's function
//! complemented (the SEU). For each observe point `j`,
//! `diff_j = good_j ⊕ faulty_j` is *the exact boolean condition* under
//! which the error is visible there, and `P(diff_j)` its exact arrival
//! probability — polarity-split via `faulty_j ≡ ¬good_n`. The union
//! `OR_j diff_j` gives exact `P_sensitized`, correlations between
//! outputs included (no independence assumption anywhere).

use ser_netlist::{Circuit, FanoutCone, NodeId, ObservePoint};
use ser_sp::{InputProbs, SpError};

use crate::bdd::BddRef;
use crate::{BddSp, ExactSiteEpp};

/// The BDD-backed exact EPP oracle.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sp::InputProbs;
/// use ser_oracle::BddExactEpp;
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let a = c.find("a").unwrap();
/// let exact = BddExactEpp::new().site(&c, &InputProbs::uniform(0.5), a)?;
/// assert!((exact.p_sensitized - 0.5).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BddExactEpp {
    /// Builds the fault-free functions and holds the node limit.
    sp: BddSp,
}

impl BddExactEpp {
    /// Creates the oracle with [`BddSp`]'s default node limit (2^21).
    #[must_use]
    pub fn new() -> Self {
        BddExactEpp { sp: BddSp::new() }
    }

    /// Adjusts the BDD node limit.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_node_limit(self, n: usize) -> Self {
        BddExactEpp {
            sp: self.sp.with_node_limit(n),
        }
    }

    /// Exact EPP for one error site.
    ///
    /// # Errors
    ///
    /// [`SpError::CircuitTooLarge`] when the BDD node limit is hit,
    /// [`SpError::Netlist`] for structurally invalid circuits.
    pub fn site(
        &self,
        circuit: &Circuit,
        inputs: &InputProbs,
        site: NodeId,
    ) -> Result<ExactSiteEpp, SpError> {
        let order = ser_netlist::topo_order(circuit)?;
        let (mut m, good, var_probs) = self.sp.build(circuit, inputs)?;

        // Faulty functions over the cone.
        let cone = FanoutCone::extract(circuit, site);
        let mut faulty = good.clone();
        faulty[site.index()] = m.not(good[site.index()])?;
        let mut fanins: Vec<BddRef> = Vec::new();
        for &id in &order {
            if id == site || !cone.contains(id) {
                continue;
            }
            let node = circuit.node(id);
            if !node.kind().is_logic() {
                continue;
            }
            fanins.clear();
            fanins.extend(node.fanin().iter().map(|f| faulty[f.index()]));
            faulty[id.index()] = m.gate(node.kind(), &fanins)?;
        }

        // The injected erroneous value a = ¬good(site).
        let a_val = faulty[site.index()];
        let mut any = BddRef::FALSE;
        let mut per_point: Vec<(ObservePoint, f64, f64)> = Vec::new();
        for point in cone.observe_points() {
            let sig = point.signal().index();
            let diff = m.xor(good[sig], faulty[sig])?;
            any = m.or(any, diff)?;
            // Even parity: faulty value equals `a`.
            let matches_a = {
                let x = m.xor(faulty[sig], a_val)?;
                m.not(x)?
            };
            let even = m.and(diff, matches_a)?;
            let not_matches = m.not(matches_a)?;
            let odd = m.and(diff, not_matches)?;
            per_point.push((
                *point,
                m.probability(even, &var_probs),
                m.probability(odd, &var_probs),
            ));
        }
        Ok(ExactSiteEpp {
            site,
            per_point,
            p_sensitized: m.probability(any, &var_probs).clamp(0.0, 1.0),
        })
    }
}

impl Default for BddExactEpp {
    fn default() -> Self {
        BddExactEpp::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactEpp;
    use ser_netlist::parse_bench;

    #[test]
    fn agrees_with_enumeration_oracle() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nu = NAND(a, b)\nv = NOR(u, c)\ny = XOR(a, v)\nz = AND(u, c)\n",
            "mix",
        )
        .unwrap();
        let probs = InputProbs::uniform(0.5);
        let bdd = BddExactEpp::new();
        let enumr = ExactEpp::new();
        for id in c.node_ids() {
            let x = bdd.site(&c, &probs, id).unwrap();
            let e = enumr.site(&c, &probs, id).unwrap();
            assert!(
                (x.p_sensitized - e.p_sensitized).abs() < 1e-12,
                "site {id}: bdd {} vs enum {}",
                x.p_sensitized,
                e.p_sensitized
            );
            for ((pp, pa, pab), (ep, ea, eab)) in x.per_point.iter().zip(&e.per_point) {
                assert_eq!(pp.signal(), ep.signal());
                assert!((pa - ea).abs() < 1e-12, "Pa at {:?}", pp);
                assert!((pab - eab).abs() < 1e-12, "Pā at {:?}", pp);
            }
        }
    }

    #[test]
    fn scales_past_enumeration() {
        // 30-input OR tree: enumeration refuses, BDD instant.
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
        let c = parse_bench(&src, "or30").unwrap();
        let probs = InputProbs::default();
        let site = c.find("i0").unwrap();
        assert!(ExactEpp::new().site(&c, &probs, site).is_err());
        let exact = BddExactEpp::new().site(&c, &probs, site).unwrap();
        // Error on i0 propagates iff all other 29 inputs are 0.
        assert!((exact.p_sensitized - 0.5f64.powi(29)).abs() < 1e-15);
    }

    #[test]
    fn weighted_inputs() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "w").unwrap();
        let b = c.find("b").unwrap();
        let a = c.find("a").unwrap();
        let probs = InputProbs::uniform(0.5).with(b, 0.9);
        let exact = BddExactEpp::new().site(&c, &probs, a).unwrap();
        assert!((exact.p_sensitized - 0.9).abs() < 1e-12);
    }

    #[test]
    fn polarity_split_exact() {
        // NAND passes with odd parity.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n", "n").unwrap();
        let a = c.find("a").unwrap();
        let exact = BddExactEpp::new()
            .site(&c, &InputProbs::default(), a)
            .unwrap();
        let (_, pa, pab) = exact.per_point[0];
        assert_eq!(pa, 0.0);
        assert!((pab - 0.5).abs() < 1e-12);
    }

    #[test]
    fn node_limit_respected() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "t",
        )
        .unwrap();
        let a = c.find("a").unwrap();
        let err = BddExactEpp::new()
            .with_node_limit(4)
            .site(&c, &InputProbs::default(), a)
            .unwrap_err();
        assert!(matches!(err, SpError::CircuitTooLarge { .. }));
    }
}
