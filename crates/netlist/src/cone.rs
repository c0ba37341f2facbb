//! Fanout/fanin cone extraction — step 1 of the paper's algorithm.
//!
//! "Path Construction: Extract all on-path signals (and gates) from `ni`
//! to every reachable primary output and/or flip-flop using the forward
//! Depth-First Search algorithm."
//!
//! Within one clock cycle an error does not pass *through* a flip-flop,
//! so the forward traversal stops at DFF nodes: reaching a D pin means
//! the error is latched (an observe point), not combinationally
//! propagated.
//!
//! [`FanoutCone`] is the *definitional* (per-site DFS) form of the
//! cone. The sweep engine compiles the same sets for every site at
//! once through the reverse-topological [`crate::ConePlans`] builder;
//! `tests/plan_builder.rs` builds its oracle plan for every site from
//! [`FanoutCone::extract`] and checks the compiled plans against it
//! member for member.

use crate::circuit::{Circuit, NodeId, ObservePoint};
use crate::gate::GateKind;

/// The fanout cone of a single error site: the paper's on-path signals,
/// on-path gates and off-path signals, plus the reachable observe points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutCone {
    /// The error site this cone was extracted for.
    site: NodeId,
    /// All on-path signals (nodes reachable from the site, site included),
    /// in ascending id order.
    on_path: Vec<NodeId>,
    /// Off-path signals: fanins of on-path gates that are not themselves
    /// on-path, in ascending id order, deduplicated.
    off_path: Vec<NodeId>,
    /// Observe points (POs / flip-flops) whose observed signal is on-path.
    observe_points: Vec<ObservePoint>,
    /// Dense membership mask indexed by node id.
    mask: Vec<bool>,
}

impl FanoutCone {
    /// Extracts the cone of `site` by forward DFS over combinational
    /// edges (stopping at flip-flops).
    ///
    /// # Panics
    ///
    /// Panics if `site` is not a node of `circuit`.
    #[must_use]
    pub fn extract(circuit: &Circuit, site: NodeId) -> Self {
        let n = circuit.len();
        assert!(site.index() < n, "error site {site} out of range");
        let mut mask = vec![false; n];
        // Iterative DFS; the paper cites CLRS DFS, any traversal order
        // yields the same reachable set.
        let mut stack = vec![site];
        mask[site.index()] = true;
        while let Some(id) = stack.pop() {
            for &succ in circuit.node(id).fanout() {
                // Do not propagate through a flip-flop within this cycle.
                if circuit.node(succ).kind() == GateKind::Dff {
                    continue;
                }
                if !mask[succ.index()] {
                    mask[succ.index()] = true;
                    stack.push(succ);
                }
            }
        }
        let on_path: Vec<NodeId> = circuit.node_ids().filter(|id| mask[id.index()]).collect();
        // Off-path: fanins of on-path *gates* that are not on-path.
        let mut off_mask = vec![false; n];
        for &id in &on_path {
            if id == site {
                continue; // the site's own fanins play no role
            }
            for &f in circuit.node(id).fanin() {
                if !mask[f.index()] {
                    off_mask[f.index()] = true;
                }
            }
        }
        let off_path: Vec<NodeId> = circuit
            .node_ids()
            .filter(|id| off_mask[id.index()])
            .collect();
        let observe_points: Vec<ObservePoint> = circuit
            .observe_points()
            .filter(|p| mask[p.signal().index()])
            .collect();
        FanoutCone {
            site,
            on_path,
            off_path,
            observe_points,
            mask,
        }
    }

    /// The error site.
    #[must_use]
    pub fn site(&self) -> NodeId {
        self.site
    }

    /// On-path signals (site included), ascending by id.
    #[must_use]
    pub fn on_path(&self) -> &[NodeId] {
        &self.on_path
    }

    /// Off-path signals, ascending by id.
    #[must_use]
    pub fn off_path(&self) -> &[NodeId] {
        &self.off_path
    }

    /// Observe points whose signal lies in the cone.
    #[must_use]
    pub fn observe_points(&self) -> &[ObservePoint] {
        &self.observe_points
    }

    /// `true` if `id` is an on-path signal.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.mask.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of on-path signals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.on_path.len()
    }

    /// `true` if the cone is just the site itself with no reachable
    /// observe point (the error is never observable).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.observe_points.is_empty()
    }

    /// Always `false`: a cone contains at least its site.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The transitive fanin of `targets` over combinational edges (stopping
/// at sources: inputs, flip-flops, constants). Returns a dense mask
/// indexed by node id; targets themselves are included.
#[must_use]
pub fn fanin_mask(circuit: &Circuit, targets: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; circuit.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    for &t in targets {
        if !mask[t.index()] {
            mask[t.index()] = true;
            stack.push(t);
        }
    }
    while let Some(id) = stack.pop() {
        if circuit.node(id).kind() == GateKind::Dff {
            continue; // Q does not combinationally depend on D
        }
        for &f in circuit.node(id).fanin() {
            if !mask[f.index()] {
                mask[f.index()] = true;
                stack.push(f);
            }
        }
    }
    mask
}

/// Ids of the primary inputs / flip-flop outputs / constants that the
/// value of any of `targets` depends on (the *support*).
#[cfg(test)]
fn support(circuit: &Circuit, targets: &[NodeId]) -> Vec<NodeId> {
    let mask = fanin_mask(circuit, targets);
    circuit
        .comb_sources()
        .filter(|id| mask[id.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    /// The Fig. 1 circuit of the paper (shape only):
    /// inputs a (site driver stand-in), B, C, F;
    /// D = AND(A, B); E = NOT(A); G = AND(E, F); H = OR(C, D, G); PO = H.
    fn fig1_shape() -> Circuit {
        let mut b = CircuitBuilder::new("fig1");
        let a = b.input("A");
        let sb = b.input("B");
        let sc = b.input("C");
        let sf = b.input("F");
        let e = b.gate("E", GateKind::Not, &[a]);
        let d = b.gate("D", GateKind::And, &[a, sb]);
        let g = b.gate("G", GateKind::And, &[e, sf]);
        let h = b.gate("H", GateKind::Or, &[sc, d, g]);
        b.mark_output(h);
        b.finish().unwrap()
    }

    #[test]
    fn fig1_on_off_path() {
        let c = fig1_shape();
        let a = c.find("A").unwrap();
        let cone = FanoutCone::extract(&c, a);
        let names =
            |ids: &[NodeId]| -> Vec<&str> { ids.iter().map(|&i| c.node(i).name()).collect() };
        // On-path: A, E, D, G, H — exactly the darkened gates of Fig. 1.
        assert_eq!(names(cone.on_path()), vec!["A", "E", "D", "G", "H"]);
        // Off-path: B, C, F.
        assert_eq!(names(cone.off_path()), vec!["B", "C", "F"]);
        assert_eq!(cone.observe_points().len(), 1);
        assert_eq!(cone.site(), a);
        assert!(cone.contains(c.find("H").unwrap()));
        assert!(!cone.contains(c.find("B").unwrap()));
        assert!(!cone.is_dead());
        assert_eq!(cone.len(), 5);
    }

    #[test]
    fn cone_of_output_is_itself() {
        let c = fig1_shape();
        let h = c.find("H").unwrap();
        let cone = FanoutCone::extract(&c, h);
        assert_eq!(cone.on_path(), &[h]);
        assert!(cone.off_path().is_empty());
        assert_eq!(cone.observe_points().len(), 1);
    }

    #[test]
    fn dead_cone_when_no_output_reachable() {
        // x -> g, g drives nothing and is not an output.
        let mut b = CircuitBuilder::new("dead");
        let x = b.input("x");
        let y = b.input("y");
        b.gate("g", GateKind::And, &[x, y]);
        // mark y as output so the circuit has one, but g is unobservable
        b.mark_output(y);
        let c = b.finish().unwrap();
        let g = c.find("g").unwrap();
        let cone = FanoutCone::extract(&c, g);
        assert!(cone.is_dead());
        assert!(!cone.is_empty());
    }

    #[test]
    fn traversal_stops_at_dff_but_observes_it() {
        // x -> g = NOT(x) -> q = DFF(g) -> z = NOT(q), PO z.
        // Cone of x: {x, g, z?}. z is NOT reachable within a cycle because
        // the path crosses the DFF; observe point is the DFF itself.
        let mut b = CircuitBuilder::new("seq");
        let x = b.input("x");
        let g = b.gate("g", GateKind::Not, &[x]);
        let q = b.dff("q", g);
        let z = b.gate("z", GateKind::Not, &[q]);
        b.mark_output(z);
        let c = b.finish().unwrap();
        let cone = FanoutCone::extract(&c, x);
        assert!(cone.contains(g));
        assert!(!cone.contains(q));
        assert!(!cone.contains(z));
        assert_eq!(cone.observe_points().len(), 1);
        assert!(cone.observe_points()[0].is_flip_flop());
        assert_eq!(cone.observe_points()[0].signal(), g);
    }

    #[test]
    fn fanin_support() {
        let c = fig1_shape();
        let d = c.find("D").unwrap();
        let sup = support(&c, &[d]);
        let names: Vec<&str> = sup.iter().map(|&i| c.node(i).name()).collect();
        assert_eq!(names, vec!["A", "B"]);
        let h = c.find("H").unwrap();
        let sup = support(&c, &[h]);
        assert_eq!(sup.len(), 4); // A, B, C, F
    }

    #[test]
    fn fanin_mask_stops_at_dff() {
        let mut b = CircuitBuilder::new("seq2");
        let x = b.input("x");
        let g = b.gate("g", GateKind::Not, &[x]);
        let q = b.dff("q", g);
        let z = b.gate("z", GateKind::Not, &[q]);
        b.mark_output(z);
        let c = b.finish().unwrap();
        let mask = fanin_mask(&c, &[z]);
        assert!(mask[z.index()]);
        assert!(mask[q.index()]);
        // The DFF cuts the backward traversal: g and x not in z's comb fanin.
        assert!(!mask[g.index()]);
        assert!(!mask[x.index()]);
        let sup = support(&c, &[z]);
        assert_eq!(sup, vec![q]);
    }
}
