//! Whole-circuit SER analysis: the user-facing facade tying together
//! signal probabilities, the per-site EPP pass, the SER model and
//! timing measurement (the quantities Table 2 reports).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ser_netlist::{Circuit, NodeId};
use ser_sp::{InputProbs, SpError};

use crate::engine::PolarityMode;
use crate::ser_model::{PlatchedModel, RseuModel, SerReport};
use crate::session::AnalysisSession;
use crate::sweep::{Arrivals, RunCtx, SweepResults, SweepSiteRef};

/// Configuration for a whole-circuit analysis run.
///
/// # Examples
///
/// ```
/// use ser_netlist::parse_bench;
/// use ser_epp::CircuitSerAnalysis;
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let outcome = CircuitSerAnalysis::new().run(&c)?;
/// let y = c.find("y").unwrap();
/// assert_eq!(outcome.p_sensitized()[y.index()], 1.0);
/// assert!(outcome.epp_time() > std::time::Duration::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CircuitSerAnalysis {
    inputs: InputProbs,
    rseu: RseuModel,
    platched: PlatchedModel,
    threads: usize,
}

impl CircuitSerAnalysis {
    /// Default analysis: uniform 0.5 inputs, unit `R_SEU`, certain
    /// `P_latched`, single-threaded.
    #[must_use]
    pub fn new() -> Self {
        CircuitSerAnalysis {
            inputs: InputProbs::default(),
            rseu: RseuModel::default(),
            platched: PlatchedModel::default(),
            threads: 1,
        }
    }

    /// Sets the primary-input probability distribution.
    #[must_use]
    pub fn with_inputs(mut self, inputs: InputProbs) -> Self {
        self.inputs = inputs;
        self
    }

    /// Sets the raw upset-rate model.
    #[must_use]
    pub fn with_rseu(mut self, rseu: RseuModel) -> Self {
        self.rseu = rseu;
        self
    }

    /// Sets the latching model.
    #[must_use]
    pub fn with_platched(mut self, platched: PlatchedModel) -> Self {
        self.platched = platched;
        self
    }

    /// Sets the number of worker threads for the per-site sweep.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread");
        self.threads = threads;
        self
    }

    /// Runs the analysis with the default (independent, linear-time)
    /// signal-probability engine. Compiles a one-shot
    /// [`AnalysisSession`]; callers doing more than one thing with the
    /// same circuit should build the session themselves and use
    /// [`run_with_session`](Self::run_with_session).
    ///
    /// # Errors
    ///
    /// Returns [`SpError`] if signal probabilities cannot be computed or
    /// the circuit is structurally invalid.
    pub fn run(&self, circuit: impl Into<Arc<Circuit>>) -> Result<AnalysisOutcome, SpError> {
        let session = AnalysisSession::with_inputs(circuit, self.inputs.clone())?;
        Ok(self.run_with_session(&session))
    }

    /// The core sweep over a compiled [`AnalysisSession`]: every
    /// per-circuit artifact (topological order, observe points, signal
    /// probabilities, scratch workspaces) comes from the session; this
    /// method only runs the per-site EPP passes and assembles the
    /// report. Running it twice on the same session recomputes nothing
    /// but the passes themselves.
    ///
    /// Note the sweep uses the session's signal probabilities — the
    /// builder's [`with_inputs`](Self::with_inputs) configuration
    /// applies only to entry points that compile the session
    /// themselves.
    ///
    /// The sweep folds its arrivals ([`Arrivals::Fold`]): the report
    /// needs only each site's `P_sensitized`, and the per-point
    /// arrivals a kept sweep stores would dominate the run's memory.
    #[must_use]
    pub fn run_with_session(&self, session: &AnalysisSession) -> AnalysisOutcome {
        let epp_start = Instant::now();
        let sites: Vec<NodeId> = session.circuit().node_ids().collect();
        let sweep = session.epp().sweep(
            &sites,
            PolarityMode::Tracked,
            &RunCtx {
                arrivals: Arrivals::Fold,
                ..RunCtx::new(self.threads, session.workspace_pool())
            },
        );
        let epp_time = epp_start.elapsed();
        let report = SerReport::assemble(
            session.circuit(),
            sweep.p_sensitized(),
            &self.rseu,
            &self.platched,
        );
        AnalysisOutcome {
            sweep,
            report,
            sp_time: session.sp_time(),
            epp_time,
        }
    }
}

impl Default for CircuitSerAnalysis {
    fn default() -> Self {
        CircuitSerAnalysis::new()
    }
}

/// Everything a whole-circuit analysis produces. Per-site results live
/// in one flat, folded [`SweepResults`] arena: each site's
/// `P_sensitized` and on-path gate count, no per-point arrivals.
/// [`site`](Self::site) hands out borrowed views, whose
/// [`per_point`](SweepSiteRef::per_point) is `None`; read one site's
/// arrivals with [`AnalysisSession::site`].
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    sweep: SweepResults,
    report: SerReport,
    sp_time: Duration,
    epp_time: Duration,
}

impl AnalysisOutcome {
    /// The folded sweep arena holding every per-site result, in arena
    /// order.
    #[must_use]
    pub fn sweep(&self) -> &SweepResults {
        &self.sweep
    }

    /// Number of sites analyzed (every node of the circuit).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sweep.len()
    }

    /// `true` only for an empty circuit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sweep.is_empty()
    }

    /// Per-node `P_sensitized`, in arena order.
    #[must_use]
    pub fn p_sensitized(&self) -> Vec<f64> {
        self.sweep.p_sensitized().to_vec()
    }

    /// The SER report (per-node entries, total, rankings).
    #[must_use]
    pub fn report(&self) -> &SerReport {
        &self.report
    }

    /// Time spent computing signal probabilities (Table 2's `SPT`).
    #[must_use]
    pub fn sp_time(&self) -> Duration {
        self.sp_time
    }

    /// Time spent in the per-site EPP sweep (Table 2's `SysT`).
    #[must_use]
    pub fn epp_time(&self) -> Duration {
        self.epp_time
    }

    /// Worker threads the sweep scheduler actually used (may be fewer
    /// than requested: small circuits run single-threaded below
    /// [`SINGLE_THREAD_SWEEP_THRESHOLD`](crate::SINGLE_THREAD_SWEEP_THRESHOLD)).
    #[must_use]
    pub fn threads_used(&self) -> usize {
        self.sweep.threads_used()
    }

    /// The site result for one node (a borrowed view into the folded
    /// arena: `P_sensitized` and the on-path gate count).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn site(&self, node: NodeId) -> SweepSiteRef<'_> {
        self.sweep.site(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::MonteCarloSp;

    fn toy() -> Circuit {
        parse_bench(
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nu = AND(a, b)\ny = OR(u, c)\n",
            "toy",
        )
        .unwrap()
    }

    #[test]
    fn default_run_produces_consistent_outcome() {
        let c = toy();
        let out = CircuitSerAnalysis::new().run(&c).unwrap();
        assert_eq!(out.len(), c.len());
        assert_eq!(out.p_sensitized().len(), c.len());
        assert_eq!(out.threads_used(), 1, "tiny circuit: one worker");
        // Output node: always sensitized.
        let y = c.find("y").unwrap();
        assert_eq!(out.site(y).p_sensitized(), 1.0);
        // u = AND(a,b) reaches y through OR gated by c (SP .5): 0.5.
        let u = c.find("u").unwrap();
        assert!((out.site(u).p_sensitized() - 0.5).abs() < 1e-12);
        // Total SER with unit models = sum of P_sens.
        let sum: f64 = out.p_sensitized().iter().sum();
        assert!((out.report().total() - sum).abs() < 1e-9);
    }

    #[test]
    fn threads_do_not_change_results() {
        let c = toy();
        let seq = CircuitSerAnalysis::new().run(&c).unwrap();
        let par = CircuitSerAnalysis::new().with_threads(4).run(&c).unwrap();
        assert_eq!(seq.p_sensitized(), par.p_sensitized());
    }

    #[test]
    fn alternate_sp_engine() {
        let c = toy();
        let session = AnalysisSession::with_engine(
            &c,
            InputProbs::default(),
            &MonteCarloSp::new(50_000).with_seed(3),
        )
        .unwrap();
        let out = CircuitSerAnalysis::new().run_with_session(&session);
        let u = c.find("u").unwrap();
        assert!((out.site(u).p_sensitized() - 0.5).abs() < 0.02);
    }

    #[test]
    fn models_scale_report() {
        let c = toy();
        let out = CircuitSerAnalysis::new()
            .with_rseu(RseuModel::Uniform(10.0))
            .with_platched(PlatchedModel::Constant(0.1))
            .run(&c)
            .unwrap();
        let sum: f64 = out.p_sensitized().iter().sum();
        assert!((out.report().total() - sum).abs() < 1e-9);
    }

    #[test]
    fn timings_are_recorded() {
        let c = toy();
        let out = CircuitSerAnalysis::new().run(&c).unwrap();
        assert!(out.epp_time() > Duration::ZERO);
        // sp_time may be arbitrarily small but is recorded.
        let _ = out.sp_time();
    }
}
