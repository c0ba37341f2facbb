//! The cached per-circuit analysis context.
//!
//! Every estimation path in the suite — the per-site EPP engine, the
//! whole-circuit [`CircuitSerAnalysis`](crate::CircuitSerAnalysis)
//! sweep, the exact oracles and the Monte-Carlo baseline — needs the
//! same compiled artifacts first: a topological order, the position
//! map, the observe points and a signal-probability vector.
//! Historically each entry point recomputed all of them per call.
//! [`AnalysisSession`] computes them **once** per circuit and hands
//! them out to every consumer, the way sequential estimation schemes
//! amortize state across repeated trials.
//!
//! Invalidation is deliberately coarse but cheap: changing the input
//! probabilities ([`set_inputs`](AnalysisSession::set_inputs)) re-runs
//! only the SP computation — reusing the cached topological order — and
//! bumps the session revision; the structural artifacts and the
//! compiled simulator survive untouched. The memos that depend on the
//! signal probabilities (the whole-circuit sweeps and the multi-cycle
//! tables) follow one rule: clones share them, and `set_inputs` — the
//! only writer of the SP vector — gives the session fresh, empty ones.
//! The circuit is held immutably behind an `Arc`, so structural edits
//! require a new session by construction.
//!
//! The session **owns** everything it caches (`Arc<Circuit>` plus the
//! already-`Arc`-shared artifacts): there is no lifetime parameter, a
//! session is `Send + Sync + 'static`, [`clone`](Clone::clone) is cheap
//! (`Arc` bumps; clones share the scratch pool and compiled simulator),
//! and sessions can be cached in an LRU, held across requests and moved
//! into worker threads — the substrate the multi-circuit `SerService`
//! batch front-end builds on.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ser_netlist::{Circuit, NodeId, TopoArtifacts};
use ser_sim::{BitSim, MonteCarlo, SiteEstimate};
use ser_sp::{IndependentSp, InputProbs, SpEngine, SpError, SpVector};

use crate::engine::{EppAnalysis, SiteEpp, WorkspacePool};

use crate::sweep::{RunCtx, SweepResults};
use crate::PolarityMode;

/// A compiled per-circuit analysis context: topological artifacts,
/// signal probabilities, a bit-parallel simulator and a workspace pool,
/// each computed at most once and shared by every estimation path.
///
/// # Examples
///
/// Input-probability changes invalidate only the SP layer:
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_sp::InputProbs;
/// use ser_epp::AnalysisSession;
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let mut session = AnalysisSession::new(&c)?;
/// assert_eq!(session.revision(), 1);
/// let b = c.find("b").unwrap();
/// session.set_inputs(InputProbs::uniform(0.5).with(b, 0.9))?;
/// assert_eq!(session.revision(), 2);
/// // The error on `a` now passes the AND 90% of the time.
/// let a = c.find("a").unwrap();
/// assert!((session.site(a).p_sensitized() - 0.9).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisSession {
    circuit: Arc<Circuit>,
    topo: Arc<TopoArtifacts>,
    inputs: InputProbs,
    sp: Arc<SpVector>,
    sp_time: Duration,
    /// Bumped on every SP invalidation; stamped into the SP vector's
    /// tag so consumers can detect staleness.
    revision: u64,
    /// The compiled bit-parallel simulator, built on first use from the
    /// cached schedule (never re-sorted). The cell itself sits behind an
    /// `Arc` so clones taken *before* the first use still share the one
    /// eventual compilation.
    sim: Arc<OnceLock<BitSim>>,
    /// The folded whole-circuit sweep of each [`PolarityMode`] under
    /// `sp`, indexed by `PolarityMode as usize`. Shared by clones;
    /// [`set_inputs`](Self::set_inputs) installs an empty one.
    whole_sweeps: Arc<[OnceLock<Arc<SweepResults>>; 2]>,
    /// The compiled multi-cycle frame-expansion tables under `sp`:
    /// repeated multi-cycle queries reuse them instead of re-running
    /// one EPP sweep per flip-flop. Same sharing and invalidation rule
    /// as `whole_sweeps`.
    multi_cycle: Arc<OnceLock<Arc<crate::MultiCycleEpp>>>,
    /// Shared by clones, so a cloned session reuses the same scratch.
    pool: Arc<WorkspacePool>,
}

impl AnalysisSession {
    /// Compiles a session with the customary uniform-0.5 inputs and the
    /// paper's default (independent, linear-time) SP engine.
    ///
    /// Accepts `&Circuit` (cloned once into a fresh `Arc`) or an
    /// `Arc<Circuit>` the caller already holds (O(1), shared).
    ///
    /// # Errors
    ///
    /// Returns [`SpError`] if the circuit cannot be topologically
    /// ordered or its signal probabilities do not converge.
    pub fn new(circuit: impl Into<Arc<Circuit>>) -> Result<Self, SpError> {
        Self::with_inputs(circuit, InputProbs::default())
    }

    /// Compiles a session under a caller-chosen input distribution.
    ///
    /// # Errors
    ///
    /// See [`new`](Self::new).
    pub fn with_inputs(
        circuit: impl Into<Arc<Circuit>>,
        inputs: InputProbs,
    ) -> Result<Self, SpError> {
        Self::with_engine(circuit, inputs, &IndependentSp::new())
    }

    /// Compiles a session with a caller-chosen SP engine (the SP-engine
    /// ablation entry point).
    ///
    /// # Errors
    ///
    /// Returns [`SpError`] from the engine, or a wrapped
    /// [`ser_netlist::NetlistError`] if the circuit cannot be ordered.
    pub fn with_engine(
        circuit: impl Into<Arc<Circuit>>,
        inputs: InputProbs,
        engine: &dyn SpEngine,
    ) -> Result<Self, SpError> {
        let circuit = circuit.into();
        let topo = Arc::new(TopoArtifacts::compute(&circuit)?);
        let sp_start = Instant::now();
        let sp = engine.compute_with_order(&circuit, &inputs, topo.order())?;
        let sp_time = sp_start.elapsed();
        Ok(AnalysisSession {
            circuit,
            topo,
            inputs,
            sp: Arc::new(sp.with_tag(1)),
            sp_time,
            revision: 1,
            sim: Arc::new(OnceLock::new()),
            whole_sweeps: Arc::default(),
            multi_cycle: Arc::default(),
            pool: Arc::new(WorkspacePool::new()),
        })
    }

    /// The circuit this session compiled.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The shared handle to that circuit — what a cache or service
    /// clones to hand the same netlist to further consumers (O(1)).
    #[must_use]
    pub fn circuit_arc(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The cached structural artifacts (topological order, positions,
    /// observe points).
    #[must_use]
    pub fn topo(&self) -> &Arc<TopoArtifacts> {
        &self.topo
    }

    /// The input-probability assignment currently in force.
    #[must_use]
    pub fn inputs(&self) -> &InputProbs {
        &self.inputs
    }

    /// The current signal probabilities, tagged with
    /// [`revision`](Self::revision).
    #[must_use]
    pub fn signal_probabilities(&self) -> &SpVector {
        &self.sp
    }

    /// Time the most recent SP computation took (Table 2's `SPT`).
    #[must_use]
    pub fn sp_time(&self) -> Duration {
        self.sp_time
    }

    /// The session revision: starts at 1, bumped by every SP
    /// invalidation. The SP vector's tag always equals it.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The shared scratch pool used by the sweeps.
    #[must_use]
    pub fn workspace_pool(&self) -> &WorkspacePool {
        &self.pool
    }

    /// Re-derives signal probabilities for a new input distribution
    /// with the default engine — the SP-only invalidation hook: the
    /// topological artifacts, compiled simulator and workspace pool are
    /// all kept, and the session gets empty
    /// [`whole_sweep_memo`](Self::whole_sweep_memo)s and multi-cycle
    /// slot.
    ///
    /// # Errors
    ///
    /// Returns [`SpError`] if the new probabilities do not converge; the
    /// session keeps its previous state in that case.
    pub fn set_inputs(&mut self, inputs: InputProbs) -> Result<(), SpError> {
        self.set_inputs_with_engine(inputs, &IndependentSp::new())
    }

    /// Like [`set_inputs`](Self::set_inputs) with a caller-chosen SP
    /// engine.
    ///
    /// # Errors
    ///
    /// See [`set_inputs`](Self::set_inputs).
    pub fn set_inputs_with_engine(
        &mut self,
        inputs: InputProbs,
        engine: &dyn SpEngine,
    ) -> Result<(), SpError> {
        let sp_start = Instant::now();
        let sp = engine.compute_with_order(&self.circuit, &inputs, self.topo.order())?;
        self.sp_time = sp_start.elapsed();
        self.revision += 1;
        self.sp = Arc::new(sp.with_tag(self.revision));
        self.inputs = inputs;
        // Clones taken before this call keep the memos of their own SP.
        self.whole_sweeps = Arc::default();
        self.multi_cycle = Arc::default();
        Ok(())
    }

    /// The one-pass EPP engine over the session's cached artifacts.
    /// O(1): the circuit handle, the topological artifacts and the SP
    /// vector are all shared, never recomputed. The returned analysis is
    /// owned and `'static` — it can be moved into a worker closure.
    #[must_use]
    pub fn epp(&self) -> EppAnalysis {
        EppAnalysis::from_artifacts(
            Arc::clone(&self.circuit),
            Arc::clone(&self.topo),
            Arc::clone(&self.sp),
        )
    }

    /// The compiled bit-parallel simulator, built once from the cached
    /// schedule and shared by every simulation-backed consumer (clones
    /// of the session included).
    #[must_use]
    pub fn bit_sim(&self) -> &BitSim {
        self.sim.get_or_init(|| {
            BitSim::with_schedule(Arc::clone(&self.circuit), self.topo.order().to_vec())
        })
    }

    /// Analytical EPP for one error site, through the session's shared
    /// cone plans: the planned kernel of
    /// [`sweep_sites(&[site], 1)`](Self::sweep_sites), converted to a
    /// [`SiteEpp`]. The plans are built on first use, exactly as
    /// [`sweep`](Self::sweep) builds them; when the byte budget
    /// declined them, the site is swept on plans built for it alone.
    /// Either way the result is bit-identical to
    /// [`EppAnalysis::site`].
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range for the circuit.
    #[must_use]
    pub fn site(&self, site: NodeId) -> SiteEpp {
        self.sweep_sites(&[site], 1)
            .get(0)
            .to_site_epp()
            .expect("sweep_sites keeps its arrivals")
    }

    /// The batched whole-circuit sweep over the session's cached cone
    /// plans: every node as an error site, in id order,
    /// [`PolarityMode::Tracked`](crate::PolarityMode::Tracked), results
    /// in one flat [`SweepResults`] arena. It is
    /// [`sweep_sites`](Self::sweep_sites) over
    /// `circuit().node_ids()`. The cone plans are compiled on first use
    /// and shared by every sweep this session (and its clones of the
    /// artifacts) ever runs.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn sweep(&self, threads: usize) -> SweepResults {
        let sites: Vec<NodeId> = self.circuit.node_ids().collect();
        self.sweep_sites(&sites, threads)
    }

    /// The batched sweep over an explicit site list (results in request
    /// order), sharing the session's cone plans and scratch pool:
    /// [`EppAnalysis::sweep`] with
    /// [`PolarityMode::Tracked`](crate::PolarityMode::Tracked) and
    /// [`RunCtx::new(threads, pool)`](RunCtx::new), which keeps the
    /// arrivals. Build an [`epp`](Self::epp) and a [`RunCtx`] to choose
    /// those.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or any site is out of range.
    #[must_use]
    pub fn sweep_sites(&self, sites: &[NodeId], threads: usize) -> SweepResults {
        self.epp().sweep(
            sites,
            crate::PolarityMode::Tracked,
            &RunCtx::new(threads, &self.pool),
        )
    }

    /// Monte-Carlo estimate for one site through the session's shared
    /// simulator.
    #[must_use]
    pub fn monte_carlo_site(&self, mc: &MonteCarlo, site: NodeId) -> SiteEstimate {
        mc.estimate_site(self.bit_sim(), site)
    }

    /// The multi-cycle frame expansion compiled on the session's
    /// artifacts (one EPP pass per flip-flop; no recomputation of order
    /// or SP). Always compiles fresh tables; prefer
    /// [`multi_cycle_cached`](Self::multi_cycle_cached) when the same
    /// session serves repeated multi-cycle queries.
    #[must_use]
    pub fn multi_cycle(&self) -> crate::MultiCycleEpp {
        crate::MultiCycleEpp::with_analysis(self.epp())
    }

    /// The multi-cycle frame-expansion tables, compiled **at most once
    /// per SP vector** and shared by clones: repeated multi-cycle
    /// requests skip the per-flip-flop EPP sweep entirely. A
    /// [`set_inputs`](Self::set_inputs) gives this session an empty
    /// slot, so its next call compiles against its new signal
    /// probabilities, while clones taken before keep the tables of
    /// theirs.
    ///
    /// # Examples
    ///
    /// ```
    /// use ser_netlist::parse_bench;
    /// use ser_epp::AnalysisSession;
    ///
    /// let c = parse_bench("INPUT(x)\nOUTPUT(y)\nu = NOT(x)\nq = DFF(u)\ny = NOT(q)\n", "p")?;
    /// let session = AnalysisSession::new(&c)?;
    /// let first = session.multi_cycle_cached();
    /// let again = session.multi_cycle_cached();
    /// assert!(std::sync::Arc::ptr_eq(&first, &again), "compiled once");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn multi_cycle_cached(&self) -> Arc<crate::MultiCycleEpp> {
        Arc::clone(
            self.multi_cycle
                .get_or_init(|| Arc::new(crate::MultiCycleEpp::with_analysis(self.epp()))),
        )
    }

    /// The memo of `polarity`'s folded whole-circuit sweep under this
    /// session's signal probabilities: every node as a site, in id
    /// order, under [`Arrivals::Fold`](crate::Arrivals::Fold) — the
    /// paper's per-site EPP values, from which the SER total follows.
    /// Whoever computes that sweep first stores it here (any other
    /// value breaks the readers); later readers share the `Arc`.
    ///
    /// The memo is shared by clones, and
    /// [`set_inputs`](Self::set_inputs) gives the session an empty one,
    /// so a stored sweep always belongs to the signal probabilities in
    /// force.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use ser_netlist::parse_bench;
    /// use ser_epp::{AnalysisSession, PolarityMode, WhatIfSession};
    ///
    /// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
    /// let session = AnalysisSession::new(&c)?;
    /// assert!(session.whole_sweep_memo(PolarityMode::Tracked).get().is_none());
    /// // A what-if stack's base is that sweep: opening one on a clone
    /// // fills the memo the clone shares with `session`.
    /// let whatif = WhatIfSession::new(session.clone(), 1);
    /// let memo = session.whole_sweep_memo(PolarityMode::Tracked).get().unwrap();
    /// assert!(Arc::ptr_eq(memo, whatif.results()));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn whole_sweep_memo(&self, polarity: PolarityMode) -> &OnceLock<Arc<SweepResults>> {
        &self.whole_sweeps[polarity as usize]
    }

    /// The shared handle to the current SP vector. Its **identity** is
    /// what uniquely names an input distribution: every
    /// [`set_inputs`](Self::set_inputs) installs a fresh `Arc`, while
    /// the numeric [`revision`](Self::revision) is a per-clone counter
    /// that diverged clones can collide on.
    #[must_use]
    pub fn signal_probabilities_arc(&self) -> &Arc<SpVector> {
        &self.sp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::{MonteCarloSp, SpEngine};

    fn toy() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "toy",
        )
        .unwrap()
    }

    #[test]
    fn session_matches_fresh_construction() {
        let c = toy();
        let session = AnalysisSession::new(&c).unwrap();
        let fresh_sp = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let fresh = EppAnalysis::new(&c, fresh_sp).unwrap();
        for id in c.node_ids() {
            assert_eq!(session.site(id), fresh.site(id), "site {id}");
        }
    }

    #[test]
    fn consumers_share_one_compilation() {
        let c = toy();
        let session = AnalysisSession::new(&c).unwrap();
        // Same Arc, not equal copies.
        let epp1 = session.epp();
        let epp2 = session.epp();
        assert!(Arc::ptr_eq(epp1.artifacts(), epp2.artifacts()));
        assert!(Arc::ptr_eq(epp1.artifacts(), session.topo()));
        // The simulator is compiled once and its schedule IS the cached
        // order.
        let sim = session.bit_sim();
        assert!(std::ptr::eq(sim, session.bit_sim()));
        assert_eq!(sim.schedule(), session.topo().order());
    }

    #[test]
    fn sp_only_invalidation_keeps_structure() {
        let c = toy();
        let mut session = AnalysisSession::new(&c).unwrap();
        let topo_before = Arc::clone(session.topo());
        let _ = session.bit_sim();
        assert_eq!(session.signal_probabilities().tag(), 1);

        let a = c.find("a").unwrap();
        session
            .set_inputs(InputProbs::uniform(0.5).with(a, 0.9))
            .unwrap();
        assert_eq!(session.revision(), 2);
        assert_eq!(session.signal_probabilities().tag(), 2);
        // Structure survived: same Arc, simulator still compiled.
        assert!(Arc::ptr_eq(session.topo(), &topo_before));
        assert_eq!(session.bit_sim().schedule(), topo_before.order());
        // And the new SP is actually in force.
        let u = c.find("u").unwrap();
        assert!((session.signal_probabilities().get(u) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn failed_invalidation_preserves_session() {
        // A sequential circuit whose SP iteration cannot converge under
        // an absurd engine budget: q = DFF(AND(q, x)) with 1 iteration.
        let c = parse_bench("INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nd = AND(q, x)\n", "seq").unwrap();
        let mut session = AnalysisSession::new(&c).unwrap();
        let sp_before = session.signal_probabilities().clone();
        let strict = IndependentSp::new()
            .with_tolerance(1e-15)
            .with_max_iterations(1);
        let err = session
            .set_inputs_with_engine(InputProbs::uniform(0.4), &strict)
            .unwrap_err();
        assert!(matches!(err, SpError::NoConvergence { .. }));
        assert_eq!(session.revision(), 1, "failed invalidation must not bump");
        assert_eq!(session.signal_probabilities(), &sp_before);
    }

    #[test]
    fn alternate_engine_sessions() {
        let c = toy();
        let mc_engine = MonteCarloSp::new(50_000).with_seed(3);
        let session = AnalysisSession::with_engine(&c, InputProbs::default(), &mc_engine).unwrap();
        let u = c.find("u").unwrap();
        assert!((session.site(u).p_sensitized() - 0.5).abs() < 0.02);
        assert_eq!(mc_engine.name(), "monte-carlo");
    }

    #[test]
    fn workspace_pool_is_reused_across_sweeps() {
        let c = toy();
        let session = AnalysisSession::new(&c).unwrap();
        assert_eq!(session.workspace_pool().idle_sweep(), 0);
        // Sweeps use pooled sweep scratch…
        let _ = session.sweep(1);
        assert_eq!(session.workspace_pool().idle_sweep(), 1);
        let _ = session.sweep(1);
        assert_eq!(
            session.workspace_pool().idle_sweep(),
            1,
            "reused, not re-created"
        );
        // …and so do single-site queries, which run the planned kernel.
        let _ = session.site(c.find("a").unwrap());
        assert_eq!(session.workspace_pool().idle_sweep(), 1);
        let _ = session.site(c.find("a").unwrap());
        assert_eq!(session.workspace_pool().idle_sweep(), 1);
    }

    #[test]
    fn whole_sweep_memo_is_shared_by_clones_and_emptied_by_set_inputs() {
        let c = toy();
        let mut session = AnalysisSession::new(&c).unwrap();
        let computed = std::cell::Cell::new(0);
        let fill = |s: &AnalysisSession| {
            Arc::clone(s.whole_sweep_memo(PolarityMode::Tracked).get_or_init(|| {
                computed.set(computed.get() + 1);
                Arc::new(s.sweep(1))
            }))
        };
        let first = fill(&session);
        assert!(Arc::ptr_eq(&first, &fill(&session)), "computed once");
        let before = session.clone();
        assert!(Arc::ptr_eq(&first, &fill(&before)), "shared by clones");
        assert_eq!(computed.get(), 1);
        assert!(session
            .whole_sweep_memo(PolarityMode::Merged)
            .get()
            .is_none());

        let a = c.find("a").unwrap();
        session
            .set_inputs(InputProbs::uniform(0.5).with(a, 0.9))
            .unwrap();
        assert!(session
            .whole_sweep_memo(PolarityMode::Tracked)
            .get()
            .is_none());
        let memo = before.whole_sweep_memo(PolarityMode::Tracked).get();
        assert!(
            Arc::ptr_eq(&first, memo.unwrap()),
            "the clone keeps its own"
        );
        let fresh = fill(&session);
        assert_eq!(computed.get(), 2);
        assert_ne!(*fresh, *first, "new inputs, new sweep");
        assert!(Arc::ptr_eq(&first, &fill(&before)));
    }

    #[test]
    fn multi_cycle_cache_compiles_once_per_revision() {
        let c = parse_bench(
            "INPUT(x)\nOUTPUT(y)\nu = NOT(x)\nq = DFF(u)\ny = NOT(q)\n",
            "pipe",
        )
        .unwrap();
        let mut session = AnalysisSession::new(&c).unwrap();
        let u = c.find("u").unwrap();

        let first = session.multi_cycle_cached();
        let again = session.multi_cycle_cached();
        assert!(Arc::ptr_eq(&first, &again), "same compiled tables");
        // Cached tables produce the same results as a fresh compile.
        assert_eq!(first.site(u, 3), session.multi_cycle().site(u, 3));
        // Clones share the cache slot.
        assert!(Arc::ptr_eq(&session.clone().multi_cycle_cached(), &first));

        // SP invalidation evicts by key: the next call recompiles
        // against the new signal probabilities.
        let x = c.find("x").unwrap();
        session
            .set_inputs(InputProbs::uniform(0.5).with(x, 0.9))
            .unwrap();
        let fresh = session.multi_cycle_cached();
        assert!(!Arc::ptr_eq(&fresh, &first), "revision bump recompiles");
        assert_eq!(fresh.site(u, 3), session.multi_cycle().site(u, 3));
        assert!(Arc::ptr_eq(&session.multi_cycle_cached(), &fresh));
    }

    #[test]
    fn multi_cycle_cache_is_safe_across_divergent_clones() {
        // Two clones of one session share the cache slot but then
        // diverge: both reach revision 2 with *different* inputs. The
        // SP-identity key must keep them from serving each other's
        // tables (a numeric revision key would not).
        let c = parse_bench(
            "INPUT(x)\nINPUT(z)\nOUTPUT(y)\nu = AND(x, z)\nq = DFF(u)\ny = NOT(q)\n",
            "pipe",
        )
        .unwrap();
        let base = AnalysisSession::new(&c).unwrap();
        let mut s1 = base.clone();
        let mut s2 = base.clone();
        // `z` masks the error on `x` at the AND, so the multi-cycle
        // observation probability genuinely depends on SP(z).
        let z = c.find("z").unwrap();
        s1.set_inputs(InputProbs::uniform(0.5).with(z, 0.1))
            .unwrap();
        s2.set_inputs(InputProbs::uniform(0.5).with(z, 0.9))
            .unwrap();
        assert_eq!(s1.revision(), s2.revision(), "revisions collide");

        let x = c.find("x").unwrap();
        let t1 = s1.multi_cycle_cached();
        let t2 = s2.multi_cycle_cached();
        assert!(!Arc::ptr_eq(&t1, &t2), "diverged clones get own tables");
        assert_eq!(t1.site(x, 2), s1.multi_cycle().site(x, 2));
        assert_eq!(t2.site(x, 2), s2.multi_cycle().site(x, 2));
        assert_ne!(t1.site(x, 2), t2.site(x, 2), "inputs differ");
    }
}
