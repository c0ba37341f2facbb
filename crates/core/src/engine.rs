//! The EPP analysis of one circuit — the paper's algorithm, steps 1–3,
//! plus the `P_sensitized` combination — and the values it produces.
//!
//! For every error site the paper builds the fanout cone (path
//! construction), orders it topologically, then applies the Table-1
//! rules gate by gate in one linear pass, with four-value tuples on
//! on-path signals and signal probabilities on off-path ones. Here
//! steps 1–2 are compiled once per circuit into cone plans
//! ([`ser_netlist::ConePlans`]) and step 3 is the planned kernel of
//! [`EppAnalysis::sweep`]; `ser-oracle`'s `ReferenceEpp` keeps the
//! three steps written out per site as the definition that kernel is
//! checked against.
//!
//! Finally `P_sensitized(n) = 1 − Π_j (1 − (Pa(POj) + Pā(POj)))` over
//! the observe points reachable from `n`.

use std::sync::{Arc, Mutex};

use ser_netlist::{Circuit, NetlistError, NodeId, ObservePoint, TopoArtifacts};
use ser_sp::SpVector;

use crate::four_value::FourValue;
use crate::sweep::{RunCtx, SweepWorkspace};

/// Whether the EPP pass distinguishes the two error polarities.
///
/// [`PolarityMode::Tracked`] is the paper's method: `Pa` and `Pā` are
/// separate, so opposite-polarity reconvergence (e.g. `a AND ā = 0`)
/// is handled. [`PolarityMode::Merged`] collapses them after every gate
/// — the naive "single erroneous value" model prior work used, kept as
/// an ablation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolarityMode {
    /// Track `Pa` and `Pā` separately (the paper's contribution).
    Tracked,
    /// Merge both polarities into one error probability after each gate.
    Merged,
}

impl PolarityMode {
    /// A gate's output as this mode keeps it: unchanged under
    /// [`Tracked`](Self::Tracked); under [`Merged`](Self::Merged), `Pā`
    /// collapsed into `Pa` — the "single error value" approximation
    /// the paper improves on. The sweep kernel and the reference
    /// oracle apply it after every gate.
    #[inline]
    #[must_use]
    pub fn apply(self, out: FourValue) -> FourValue {
        match self {
            PolarityMode::Tracked => out,
            PolarityMode::Merged => {
                FourValue::new_clamped(out.p_arrival(), 0.0, out.p0(), out.p1())
            }
        }
    }
}

/// Error arrival at one observe point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEpp {
    /// The observe point (primary output or flip-flop).
    pub point: ObservePoint,
    /// The four-value tuple at the observed signal.
    pub value: FourValue,
}

impl PointEpp {
    /// `Pa + Pā` at this point.
    #[must_use]
    pub fn p_arrival(&self) -> f64 {
        self.value.p_arrival()
    }
}

/// The result of one per-site EPP pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteEpp {
    site: NodeId,
    per_point: Vec<PointEpp>,
    p_sensitized: f64,
    on_path_gates: usize,
}

impl SiteEpp {
    /// Assembles a result from already-computed parts: the batched
    /// sweep's conversion into the owned per-site form, and the
    /// reference oracle's result.
    #[must_use]
    pub fn from_parts(
        site: NodeId,
        per_point: Vec<PointEpp>,
        p_sensitized: f64,
        on_path_gates: usize,
    ) -> Self {
        SiteEpp {
            site,
            per_point,
            p_sensitized,
            on_path_gates,
        }
    }

    /// The error site analyzed.
    #[must_use]
    pub fn site(&self) -> NodeId {
        self.site
    }

    /// Error arrival per reachable observe point.
    #[must_use]
    pub fn per_point(&self) -> &[PointEpp] {
        &self.per_point
    }

    /// The paper's `P_sensitized`: probability the erroneous value
    /// reaches at least one output or flip-flop.
    #[must_use]
    pub fn p_sensitized(&self) -> f64 {
        self.p_sensitized
    }

    /// Number of on-path gates the pass visited (cost indicator).
    #[must_use]
    pub fn on_path_gates(&self) -> usize {
        self.on_path_gates
    }

    /// Arrival tuple at a specific observed signal, if reachable.
    #[must_use]
    pub fn arrival_at(&self, signal: NodeId) -> Option<FourValue> {
        self.per_point
            .iter()
            .find(|p| p.point.signal() == signal)
            .map(|p| p.value)
    }
}

/// The compiled EPP analysis for one circuit: topological order and
/// signal probabilities are computed once, then any number of sites can
/// be analyzed in linear time each.
///
/// The analysis **owns** its circuit (`Arc<Circuit>`): no lifetime
/// parameter, `Clone` is O(1) (three `Arc` bumps), and values are
/// `Send + Sync + 'static`, so they can be cached in a service, moved
/// into worker closures or shared across threads freely.
///
/// # Examples
///
/// The paper's Fig. 1, reproduced end to end:
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sp::{InputProbs, IndependentSp, SpEngine};
/// use ser_epp::EppAnalysis;
///
/// // B, C, F carry the signal probabilities of the figure.
/// let c = parse_bench("
/// INPUT(A)
/// INPUT(B)
/// INPUT(C)
/// INPUT(F)
/// OUTPUT(H)
/// E = NOT(A)
/// D = AND(A, B)
/// G = AND(E, F)
/// H = OR(C, D, G)
/// ", "fig1")?;
/// let b = c.find("B").unwrap();
/// let cc = c.find("C").unwrap();
/// let ff = c.find("F").unwrap();
/// let probs = InputProbs::uniform(0.5).with(b, 0.2).with(cc, 0.3).with(ff, 0.7);
/// let sp = IndependentSp::new().compute(&c, &probs)?;
/// let epp = EppAnalysis::new(&c, sp)?;
///
/// let site = c.find("A").unwrap();
/// let result = epp.site(site);
/// let h = c.find("H").unwrap();
/// let at_h = result.arrival_at(h).unwrap();
/// assert!((at_h.pa() - 0.042).abs() < 1e-12);
/// assert!((at_h.pa_bar() - 0.392).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct EppAnalysis {
    circuit: Arc<Circuit>,
    /// Shared structural artifacts: topological positions, observe
    /// points and the cached cone plans the sweep kernel runs on.
    /// Behind an `Arc` so a session can hand the same compilation to
    /// every consumer.
    topo: Arc<TopoArtifacts>,
    sp: Arc<SpVector>,
}

impl EppAnalysis {
    /// Compiles the analysis: one topological sort, plus the signal
    /// probabilities the off-path handling will read.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// combinational graphs.
    ///
    /// # Panics
    ///
    /// Panics if `sp` does not cover exactly `circuit.len()` nodes.
    pub fn new(circuit: impl Into<Arc<Circuit>>, sp: SpVector) -> Result<Self, NetlistError> {
        let circuit = circuit.into();
        let topo = Arc::new(TopoArtifacts::compute(&circuit)?);
        Ok(Self::from_artifacts(circuit, topo, Arc::new(sp)))
    }

    /// Builds the analysis from already-compiled artifacts — the
    /// no-recompute constructor the session layer uses. The `Arc`s are
    /// cloned, not deep-copied, so this is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `topo` or `sp` do not cover exactly `circuit.len()`
    /// nodes.
    #[must_use]
    pub fn from_artifacts(
        circuit: impl Into<Arc<Circuit>>,
        topo: Arc<TopoArtifacts>,
        sp: Arc<SpVector>,
    ) -> Self {
        let circuit = circuit.into();
        assert_eq!(
            topo.len(),
            circuit.len(),
            "topo artifacts must cover every node"
        );
        assert_eq!(
            sp.len(),
            circuit.len(),
            "signal probabilities must cover every node"
        );
        EppAnalysis { circuit, topo, sp }
    }

    /// The circuit under analysis.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The shared handle to that circuit (O(1) to clone).
    #[must_use]
    pub fn circuit_arc(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The shared structural artifacts this analysis runs on.
    #[must_use]
    pub fn artifacts(&self) -> &Arc<TopoArtifacts> {
        &self.topo
    }

    /// The signal probabilities in use.
    #[must_use]
    pub fn signal_probabilities(&self) -> &SpVector {
        &self.sp
    }

    /// The shared SP handle — what the sweep workspaces pin their
    /// off-path SP lane plane to (`Arc::ptr_eq` identity).
    pub(crate) fn sp_arc(&self) -> &Arc<SpVector> {
        &self.sp
    }

    /// Runs the one-pass EPP computation for one error site: a
    /// [`sweep`](Self::sweep) of that site alone on one thread, in
    /// [`PolarityMode::Tracked`], converted to a [`SiteEpp`].
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for the circuit.
    #[must_use]
    pub fn site(&self, site: NodeId) -> SiteEpp {
        self.site_with(site, PolarityMode::Tracked)
    }

    /// Like [`site`](Self::site) but with an explicit polarity mode —
    /// the ablation hook for the paper's key design choice.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for the circuit.
    #[must_use]
    pub fn site_with(&self, site: NodeId, polarity: PolarityMode) -> SiteEpp {
        self.sweep(&[site], polarity, &RunCtx::new(1, &WorkspacePool::new()))
            .get(0)
            .to_site_epp()
            .expect("RunCtx::new keeps the arrivals")
    }
}

/// A checkout pool of per-thread sweep scratch shared across sweeps
/// and threads: a sweep pops a [`SweepWorkspace`] (or lazily creates
/// one) for each batch it runs, evaluates the batch allocation-free,
/// and pushes the workspace back for the next batch or sweep.
///
/// The pool is intentionally dumb — a mutexed stack. It is touched
/// twice per batch, and a threaded sweep cuts only eight batches per
/// worker, so contention is irrelevant; what matters is that the
/// scratch buffers survive between batches and sweeps instead of
/// being reallocated.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    sweep_slots: Mutex<Vec<SweepWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on first checkout.
    #[must_use]
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Pops pooled sweep scratch, or creates fresh scratch. Sweep
    /// workspaces grow to fit whatever cone plan they evaluate, so no
    /// size check is needed.
    #[must_use]
    pub fn checkout_sweep(&self) -> SweepWorkspace {
        self.sweep_slots
            .lock()
            .expect("pool lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns sweep scratch to the pool for reuse.
    pub fn give_back_sweep(&self, ws: SweepWorkspace) {
        self.sweep_slots.lock().expect("pool lock").push(ws);
    }

    /// Number of idle sweep workspaces currently pooled.
    #[must_use]
    pub fn idle_sweep(&self) -> usize {
        self.sweep_slots.lock().expect("pool lock").len()
    }
}

/// The paper's combination:
/// `P_sensitized = 1 − Π_j (1 − arrival_j)`.
#[must_use]
pub fn combine_sensitization<I: IntoIterator<Item = f64>>(arrivals: I) -> f64 {
    let miss: f64 = arrivals
        .into_iter()
        .map(|p| (1.0 - p).clamp(0.0, 1.0))
        .product();
    (1.0 - miss).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::{IndependentSp, InputProbs, SpEngine};

    fn analysis(c: &Circuit, probs: &InputProbs) -> EppAnalysis {
        let sp = IndependentSp::new().compute(c, probs).unwrap();
        EppAnalysis::new(c, sp).unwrap()
    }

    /// The whole-circuit [`PolarityMode::Tracked`] sweep on `threads`
    /// workers, as owned per-site results.
    fn sweep_all(epp: &EppAnalysis, threads: usize, pool: &WorkspacePool) -> Vec<SiteEpp> {
        let sites: Vec<NodeId> = epp.circuit().node_ids().collect();
        epp.sweep(
            &sites,
            PolarityMode::Tracked,
            &crate::RunCtx::new(threads, pool),
        )
        .to_site_epps()
        .expect("a kept sweep")
    }

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
    fn figure1_full_walkthrough() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let b = c.find("B").unwrap();
        let cc = c.find("C").unwrap();
        let ff = c.find("F").unwrap();
        let probs = InputProbs::uniform(0.5)
            .with(b, 0.2)
            .with(cc, 0.3)
            .with(ff, 0.7);
        let epp = analysis(&c, &probs);
        let result = epp.site(c.find("A").unwrap());

        // Intermediate values from the paper:
        // P(E) = 1(ā), P(G) = 0.7(ā) + 0.3(0), P(D) = 0.2(a) + 0.8(0).
        // Final: P(H) = 0.042(a) + 0.392(ā) + 0.168(0) + 0.398(1).
        let h = result.arrival_at(c.find("H").unwrap()).unwrap();
        assert!((h.pa() - 0.042).abs() < 1e-12);
        assert!((h.pa_bar() - 0.392).abs() < 1e-12);
        assert!((h.p0() - 0.168).abs() < 1e-12);
        assert!((h.p1() - 0.398).abs() < 1e-12);
        // One output: P_sensitized = Pa + Pā = 0.434.
        assert!((result.p_sensitized() - 0.434).abs() < 1e-12);
        // On-path gates: E, D, G, H.
        assert_eq!(result.on_path_gates(), 4);
        assert_eq!(result.site(), c.find("A").unwrap());
    }

    #[test]
    fn single_path_inverter_chain() {
        let c = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nu = NOT(a)\nv = NOT(u)\ny = NOT(v)\n",
            "ch",
        )
        .unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let r = epp.site(c.find("a").unwrap());
        assert_eq!(r.p_sensitized(), 1.0);
        // Odd number of inversions: arrives as ā.
        let y = r.arrival_at(c.find("y").unwrap()).unwrap();
        assert_eq!(y.pa_bar(), 1.0);
    }

    #[test]
    fn multi_output_combination() {
        // y1 = AND(a, b) [arrival 0.5], y2 = AND(a, c) [arrival 0.5]:
        // P_sens = 1 - 0.5*0.5 = 0.75 (exact here: b, c independent).
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y1)\nOUTPUT(y2)\ny1 = AND(a, b)\ny2 = AND(a, c)\n",
            "m",
        )
        .unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let r = epp.site(c.find("a").unwrap());
        assert_eq!(r.per_point().len(), 2);
        assert!((r.p_sensitized() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unobservable_site_is_zero() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let r = epp.site(c.find("u").unwrap());
        assert_eq!(r.p_sensitized(), 0.0);
        assert!(r.per_point().is_empty());
        assert_eq!(r.on_path_gates(), 0);
    }

    #[test]
    fn flip_flop_is_an_observe_point() {
        // site -> gate -> DFF: arrival at the D pin counts.
        let c = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(d)\nd = AND(a, b)\n",
            "ff",
        )
        .unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let r = epp.site(c.find("a").unwrap());
        assert_eq!(r.per_point().len(), 1);
        assert!(r.per_point()[0].point.is_flip_flop());
        assert!((r.p_sensitized() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn site_epp_of_output_is_certain() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let h = c.find("H").unwrap();
        let r = epp.site(h);
        assert_eq!(r.p_sensitized(), 1.0);
        let at_h = r.arrival_at(h).unwrap();
        assert_eq!(at_h.pa(), 1.0);
    }

    #[test]
    fn all_sites_sequential_equals_parallel() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let pool = WorkspacePool::new();
        let seq = sweep_all(&epp, 1, &pool);
        let par = sweep_all(&epp, 4, &pool);
        assert_eq!(seq.len(), c.len());
        assert_eq!(seq, par);
        // Both match one-site sweeps.
        for (id, r) in c.node_ids().zip(&seq) {
            assert_eq!(r, &epp.site(id));
        }
    }

    #[test]
    fn one_pool_serves_sweeps_of_different_circuits() {
        let small = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "small").unwrap();
        let big = parse_bench(FIG1, "fig1").unwrap();
        let probs = InputProbs::default();
        let epp_small = analysis(&small, &probs);
        let epp_big = analysis(&big, &probs);

        // Sweep scratch grows to whatever circuit it meets, so one pool
        // serves both circuits in turn, threaded or not.
        let pool = WorkspacePool::new();
        let r_big = sweep_all(&epp_big, 2, &pool);
        let r_small = sweep_all(&epp_small, 2, &pool);
        assert_eq!(pool.idle_sweep(), 1, "one workspace, reused");
        assert_eq!(r_big.len(), big.len());
        assert_eq!(r_small.len(), small.len());
        // Results are unaffected by the pool's history.
        assert_eq!(r_small, sweep_all(&epp_small, 1, &WorkspacePool::new()));
        assert_eq!(r_big, sweep_all(&epp_big, 1, &WorkspacePool::new()));
    }

    #[test]
    fn combine_sensitization_edge_cases() {
        assert_eq!(combine_sensitization([]), 0.0);
        assert_eq!(combine_sensitization([1.0]), 1.0);
        assert!((combine_sensitization([0.5, 0.5]) - 0.75).abs() < 1e-12);
        // Robust to tiny negative dust.
        assert!(combine_sensitization([1.0 + 1e-15]) <= 1.0);
    }

    #[test]
    fn merged_polarity_overestimates_on_figure1() {
        // On the paper's own example, collapsing polarity turns the
        // ā-vs-blocked distinction at H into extra "arrival" mass:
        // merged Pa(H) = 0.532 vs the correct Pa+Pā = 0.434.
        let c = parse_bench(FIG1, "fig1").unwrap();
        let b = c.find("B").unwrap();
        let cc = c.find("C").unwrap();
        let ff = c.find("F").unwrap();
        let probs = InputProbs::uniform(0.5)
            .with(b, 0.2)
            .with(cc, 0.3)
            .with(ff, 0.7);
        let epp = analysis(&c, &probs);
        let a = c.find("A").unwrap();
        let tracked = epp.site_with(a, PolarityMode::Tracked);
        let merged = epp.site_with(a, PolarityMode::Merged);
        assert!((tracked.p_sensitized() - 0.434).abs() < 1e-12);
        assert!((merged.p_sensitized() - 0.532).abs() < 1e-12);
        assert!(merged.p_sensitized() > tracked.p_sensitized());
        // And site() defaults to tracked.
        assert_eq!(epp.site(a), tracked);
    }

    #[test]
    fn xor_polarity_cancellation_detected() {
        // Two equal-parity paths into XOR: analytical EPP with polarity
        // tracking reports zero sensitization (matching reality).
        let c = parse_bench(
            "INPUT(a)\nOUTPUT(y)\nu = NOT(a)\nv = NOT(a)\ny = XOR(u, v)\n",
            "cancel",
        )
        .unwrap();
        let epp = analysis(&c, &InputProbs::default());
        let r = epp.site(c.find("a").unwrap());
        assert_eq!(
            r.p_sensitized(),
            0.0,
            "polarity tracking must cancel equal-parity XOR reconvergence"
        );
    }
}
