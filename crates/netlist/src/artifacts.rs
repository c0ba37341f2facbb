//! Cached per-circuit structural artifacts.
//!
//! Every analysis in the suite needs the same three things before it can
//! touch a circuit: a topological order of the combinational graph, the
//! inverse position map (`node → rank in that order`), and the list of
//! observe points. Historically each entry point recomputed them;
//! [`TopoArtifacts`] computes them **once** so a session layer (see
//! `ser-epp`'s `AnalysisSession`) can hand the same compiled artifacts
//! to the EPP engine, the simulators and the signal-probability
//! engines.

use std::sync::{Arc, OnceLock};

use crate::circuit::{Circuit, NodeId, ObservePoint};
use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::plan::ConePlans;
use crate::topo;

/// The compiled structural context of one circuit: topological order,
/// topological positions, observe points and the DFF-clipped fanout
/// adjacency in CSR form, computed exactly once — plus a lazily built,
/// shared [`ConePlans`] cache for the whole-circuit sweep.
///
/// The artifacts are immutable and refer to the circuit only by node
/// ids, so they stay valid for as long as the circuit is unchanged and
/// can be shared freely (e.g. behind an `Arc`) between consumers.
///
/// # Examples
///
/// ```
/// use ser_netlist::{parse_bench, TopoArtifacts};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let topo = TopoArtifacts::compute(&c)?;
/// assert_eq!(topo.order().len(), c.len());
/// // The AND gate orders after both of its inputs.
/// let y = c.find("y").unwrap();
/// let a = c.find("a").unwrap();
/// assert!(topo.position(y) > topo.position(a));
/// assert_eq!(topo.observe_points().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopoArtifacts {
    order: Vec<NodeId>,
    position: Vec<u32>,
    observe: Vec<ObservePoint>,
    /// CSR offsets into `comb_fanout`: node `i`'s combinational
    /// successors are `comb_fanout[comb_fanout_off[i]..comb_fanout_off[i+1]]`.
    comb_fanout_off: Vec<u32>,
    /// Flattened DFF-clipped fanout lists (an error does not propagate
    /// *through* a flip-flop within a cycle, so edges into DFF nodes are
    /// dropped here once instead of being re-filtered per traversal).
    comb_fanout: Vec<NodeId>,
    /// Lazily built cone plans, shared by every clone of these
    /// artifacts (cloning shares the already-built cache). `Some(None)`
    /// records that the circuit's plan arena exceeded the member budget
    /// and per-site traversal should be used instead.
    plans: OnceLock<Option<Arc<ConePlans>>>,
}

/// Equality ignores the lazy plan cache: two artifacts are equal when
/// their structural content is.
impl PartialEq for TopoArtifacts {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
            && self.position == other.position
            && self.observe == other.observe
            && self.comb_fanout_off == other.comb_fanout_off
            && self.comb_fanout == other.comb_fanout
    }
}

impl TopoArtifacts {
    /// Computes the artifacts for `circuit`: one topological sort, one
    /// observe-point scan and one fanout-adjacency flattening.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit's
    /// combinational graph is cyclic.
    pub fn compute(circuit: &Circuit) -> Result<Self, NetlistError> {
        let order = topo::topo_order(circuit)?;
        let mut position = vec![0u32; circuit.len()];
        for (i, id) in order.iter().enumerate() {
            position[id.index()] = u32::try_from(i).expect("node count fits u32");
        }
        let observe = circuit.observe_points().collect();
        let mut comb_fanout_off = Vec::with_capacity(circuit.len() + 1);
        let mut comb_fanout = Vec::new();
        comb_fanout_off.push(0);
        for id in circuit.node_ids() {
            for &succ in circuit.node(id).fanout() {
                if circuit.node(succ).kind() != GateKind::Dff {
                    comb_fanout.push(succ);
                }
            }
            comb_fanout_off.push(u32::try_from(comb_fanout.len()).expect("edge count fits u32"));
        }
        Ok(TopoArtifacts {
            order,
            position,
            observe,
            comb_fanout_off,
            comb_fanout,
            plans: OnceLock::new(),
        })
    }

    /// The topological evaluation order over combinational edges.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Rank of each node in [`order`](Self::order), indexed by
    /// [`NodeId::index`].
    #[must_use]
    pub fn positions(&self) -> &[u32] {
        &self.position
    }

    /// Rank of one node in the topological order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the circuit these artifacts
    /// were computed from.
    #[must_use]
    pub fn position(&self, id: NodeId) -> u32 {
        self.position[id.index()]
    }

    /// The circuit's observe points (primary outputs, then flip-flops),
    /// in declaration order.
    #[must_use]
    pub fn observe_points(&self) -> &[ObservePoint] {
        &self.observe
    }

    /// The DFF-clipped combinational fanout of one node: every
    /// successor an error can combinationally propagate into.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the circuit these artifacts
    /// were computed from.
    #[must_use]
    pub fn comb_fanout(&self, id: NodeId) -> &[NodeId] {
        &self.comb_fanout[self.comb_fanout_off[id.index()] as usize
            ..self.comb_fanout_off[id.index() + 1] as usize]
    }

    /// Marks every node whose DFF-clipped cone intersects `seeds` —
    /// the what-if engine's dirty-*site* query. A site's cone is itself
    /// plus its forward closure over the clipped fanout, so the sites
    /// whose cones touch a seed are exactly the seeds' combinational
    /// ancestors (seeds included): the returned mask is computed by one
    /// backward traversal over fanin edges, never entering a flip-flop
    /// from below (an edge *into* a DFF is not a combinational edge, so
    /// a DFF seed is only ever in its own cone).
    ///
    /// Equivalent to testing every site's [`ConePlan`](crate::ConePlan) position list
    /// against the seed set (see
    /// [`ConePlan::intersects`](crate::ConePlan::intersects)),
    /// but O(ancestors + edges) instead of O(sum of cones).
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the circuit these artifacts were
    /// computed from, or a seed is out of range.
    #[must_use]
    pub fn comb_ancestors(
        &self,
        circuit: &Circuit,
        seeds: impl IntoIterator<Item = NodeId>,
    ) -> Vec<bool> {
        assert_eq!(circuit.len(), self.len(), "artifacts' own circuit");
        let mut marked = vec![false; circuit.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for seed in seeds {
            if !marked[seed.index()] {
                marked[seed.index()] = true;
                stack.push(seed);
            }
        }
        while let Some(id) = stack.pop() {
            // No combinational edge enters a DFF: stop walking up here.
            if circuit.node(id).kind() == GateKind::Dff {
                continue;
            }
            for &pred in circuit.node(id).fanin() {
                if !marked[pred.index()] {
                    marked[pred.index()] = true;
                    stack.push(pred);
                }
            }
        }
        marked
    }

    /// Marks the forward closure of `seeds` over the DFF-clipped
    /// fanout (seeds included) — the nodes an edit at the seeds can
    /// combinationally influence within one cycle.
    ///
    /// # Panics
    ///
    /// Panics if a seed is out of range.
    #[must_use]
    pub fn comb_descendants(&self, seeds: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut marked = vec![false; self.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for seed in seeds {
            if !marked[seed.index()] {
                marked[seed.index()] = true;
                stack.push(seed);
            }
        }
        while let Some(id) = stack.pop() {
            for &succ in self.comb_fanout(id) {
                if !marked[succ.index()] {
                    marked[succ.index()] = true;
                    stack.push(succ);
                }
            }
        }
        marked
    }

    /// The already-built cone plans, if any — a peek that never
    /// triggers compilation. The what-if engine uses this to decide
    /// whether a dirty re-sweep can ride the warm plan kernel or should
    /// take the per-site reference path instead of paying a cold plan
    /// compile it was created to avoid.
    #[must_use]
    pub fn cone_plans_primed(&self) -> Option<&Arc<ConePlans>> {
        self.plans.get().and_then(Option::as_ref)
    }

    /// The cached per-site cone plans, built on first use and shared by
    /// every consumer of these artifacts (the batched sweep engine reads
    /// them instead of re-running a DFS + sort per site per sweep).
    /// Compilation uses the reverse-topological merge builder
    /// ([`ConePlans::build`]) on every available core, which derives
    /// each cone from its successors' instead of rediscovering it by
    /// DFS.
    ///
    /// Returns `None` — once, cached — when the circuit's plan arena
    /// would exceed [`ConePlans::DEFAULT_MEMBER_BUDGET`] total cone
    /// members (sum-of-cones is Θ(n²) in the worst case); callers fall
    /// back to per-site traversal, which needs only O(n) scratch.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the circuit these artifacts were
    /// computed from.
    #[must_use]
    pub fn cone_plans(&self, circuit: &Circuit) -> Option<&Arc<ConePlans>> {
        assert_eq!(
            circuit.len(),
            self.len(),
            "cone plans require the artifacts' own circuit"
        );
        self.plans
            .get_or_init(|| {
                let threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                // Without a token the build cannot be cancelled, so
                // `Err` never occurs here.
                ConePlans::build(
                    circuit,
                    self,
                    ConePlans::DEFAULT_MEMBER_BUDGET,
                    threads,
                    None,
                )
                .ok()
                .flatten()
                .map(Arc::new)
            })
            .as_ref()
    }

    /// Seeds the plan cache with an already-settled outcome — plans
    /// loaded from a persistent [`PlanCache`](crate::PlanCache) entry
    /// or built under a cancel token, or `None` for a build the member
    /// budget declined — so [`cone_plans`](Self::cone_plans) returns it
    /// instead of compiling. Returns `false` — and changes nothing — if
    /// the slot was already built or primed for these artifacts.
    ///
    /// The caller is responsible for `plans` belonging to the same
    /// circuit as these artifacts (the service keys cache entries by
    /// [`Circuit::structural_hash`] and verifies circuit equality
    /// before reuse, exactly like its session cache).
    pub fn prime_cone_plans(&self, plans: Option<Arc<ConePlans>>) -> bool {
        self.plans.set(plans).is_ok()
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if computed from an empty circuit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_bench;

    #[test]
    fn artifacts_match_direct_computation() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(u)\nu = NAND(a, b)\nq = DFF(u)\ny = XOR(u, q)\n",
            "t",
        )
        .unwrap();
        let t = TopoArtifacts::compute(&c).unwrap();
        assert_eq!(t.order(), topo::topo_order(&c).unwrap().as_slice());
        assert!(topo::is_topo_order(&c, t.order()));
        assert_eq!(t.len(), c.len());
        assert!(!t.is_empty());
        for (i, &id) in t.order().iter().enumerate() {
            assert_eq!(t.position(id) as usize, i);
            assert_eq!(t.positions()[id.index()] as usize, i);
        }
        let direct: Vec<_> = c.observe_points().collect();
        assert_eq!(t.observe_points(), direct.as_slice());
    }

    #[test]
    fn cyclic_circuit_is_rejected() {
        // a = NOT(b); b = NOT(a) with no flip-flop in between.
        let src = "INPUT(x)\nOUTPUT(a)\na = NOT(b)\nb = NOT(a)\n";
        let c = parse_bench(src, "cyc");
        // The parser itself may reject the cycle; if it builds, the
        // artifacts must reject it.
        if let Ok(c) = c {
            assert!(matches!(
                TopoArtifacts::compute(&c),
                Err(NetlistError::CombinationalCycle { .. })
            ));
        }
    }

    #[test]
    fn comb_fanout_matches_filtered_node_fanout() {
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(u)\nu = NAND(a, b)\nq = DFF(u)\ny = XOR(u, q)\n",
            "t",
        )
        .unwrap();
        let t = TopoArtifacts::compute(&c).unwrap();
        for id in c.node_ids() {
            let expected: Vec<_> = c
                .node(id)
                .fanout()
                .iter()
                .copied()
                .filter(|&s| c.node(s).kind() != crate::GateKind::Dff)
                .collect();
            assert_eq!(t.comb_fanout(id), expected.as_slice(), "node {id}");
        }
        // u drives the DFF q and the XOR y: only y survives clipping.
        let u = c.find("u").unwrap();
        let y = c.find("y").unwrap();
        assert_eq!(t.comb_fanout(u), &[y]);
    }

    #[test]
    fn cone_plans_are_cached_and_shared() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let t = TopoArtifacts::compute(&c).unwrap();
        let p1 = std::sync::Arc::clone(t.cone_plans(&c).expect("tiny circuit fits budget"));
        let p2 = std::sync::Arc::clone(t.cone_plans(&c).unwrap());
        assert!(std::sync::Arc::ptr_eq(&p1, &p2), "built once, shared");
        assert_eq!(p1.len(), c.len());
        // Clones of the artifacts share the already-built cache.
        let t2 = t.clone();
        assert!(std::sync::Arc::ptr_eq(t2.cone_plans(&c).unwrap(), &p1));
        // Equality ignores cache state.
        let fresh = TopoArtifacts::compute(&c).unwrap();
        assert_eq!(t, fresh);
    }

    #[test]
    fn comb_ancestors_marks_exactly_cone_intersecting_sites() {
        // u = NAND(a,b); q = DFF(u); y = XOR(u,q): seeding y marks
        // everything combinationally upstream of y, clipped at the DFF.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(u)\nu = NAND(a, b)\nq = DFF(u)\ny = XOR(u, q)\n",
            "t",
        )
        .unwrap();
        let t = TopoArtifacts::compute(&c).unwrap();
        let y = c.find("y").unwrap();
        let got = t.comb_ancestors(&c, [y]);
        // Oracle: forward-DFS every site's cone and test membership.
        for site in c.node_ids() {
            let desc = t.comb_descendants([site]);
            assert_eq!(
                got[site.index()],
                desc[y.index()],
                "site {site}: ancestor mask must equal cone-contains-seed"
            );
        }
        // The DFF's cone is itself only: seeding q marks just q.
        let q = c.find("q").unwrap();
        let only_q = t.comb_ancestors(&c, [q]);
        assert_eq!(only_q.iter().filter(|&&m| m).count(), 1);
        assert!(only_q[q.index()]);
    }

    #[test]
    fn cone_plans_primed_is_a_peek() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t").unwrap();
        let t = TopoArtifacts::compute(&c).unwrap();
        assert!(t.cone_plans_primed().is_none(), "peek must not compile");
        let built = std::sync::Arc::clone(t.cone_plans(&c).unwrap());
        assert!(std::sync::Arc::ptr_eq(
            t.cone_plans_primed().unwrap(),
            &built
        ));
    }

    #[test]
    fn empty_circuit_artifacts() {
        let c = crate::builder::CircuitBuilder::new("empty")
            .finish()
            .unwrap();
        let t = TopoArtifacts::compute(&c).unwrap();
        assert!(t.is_empty());
        assert!(t.observe_points().is_empty());
    }
}
