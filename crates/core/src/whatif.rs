//! Incremental what-if analysis: dirty-region re-analysis for the
//! rank → harden → re-rank loop.
//!
//! The paper's conclusion motivates EPP with selective hardening —
//! "identify the most vulnerable components to be protected" — and the
//! suite ships both halves of that loop ([`HardeningPlan`] ranks,
//! [`harden_tmr`] protects). But an edit used to mean a brand-new
//! circuit: new structural hash, new plan compile, full re-sweep. This
//! module makes an edit cost proportional to its *blast radius*
//! instead:
//!
//! 1. **SP forward recompute.** Signal probabilities are re-derived
//!    from the edit frontier only
//!    ([`IndependentSp::recompute_forward`]); upstream values are kept
//!    bit-for-bit.
//! 2. **Dirty region.** A site's sweep result can change only if its
//!    DFF-clipped cone evaluates different inputs: a member's kind or
//!    fanins changed, or a member reads a bitwise-changed signal
//!    probability (off-path pins included — which is why the seed set
//!    takes the *consumers* of every SP-changed node, not just the
//!    node). Site `s` is dirty iff `cone(s)` intersects that seed set,
//!    which is exactly `s ∈ backward-comb-closure(seeds)` — one
//!    [`TopoArtifacts::comb_ancestors`] pass over the fanin edges, no
//!    cone enumeration.
//! 3. **Re-sweep.** The edited circuit's [`ConePlans`] are compiled
//!    (a SetInputs edit keeps the current circuit and its plans), and
//!    the dirty sites are swept on them with the planned kernel, under
//!    [`Arrivals::Fold`](crate::Arrivals::Fold). Every edit takes this
//!    one path, TMR of a fanout-free gate included: its dirty region is
//!    the gate's combinational fan-in closure plus the six inserted
//!    gates.
//! 4. **Splice.** Each state stores only the per-site numbers
//!    (`P_sensitized` and the on-path gate count, ~16 B per site), so
//!    the next state is two per-site arrays: a dirty site takes its
//!    numbers from the re-sweep, a clean site carries them from the
//!    previous state by name (ids shift where TMR inserts nodes).
//!    Because every kernel involved is bit-identical and untouched
//!    cones read untouched inputs, the spliced arena equals a
//!    from-scratch folded sweep bit-for-bit —
//!    [`full_recompute`](WhatIfSession::full_recompute) is the
//!    enforcing oracle.
//!
//! Edits stack: each [`apply`](WhatIfSession::apply) pushes a state,
//! [`revert`](WhatIfSession::revert) pops one — the service's
//! `whatif` / `whatif_revert` ops drive exactly this pair.
//!
//! [`HardeningPlan`]: crate::HardeningPlan
//! [`harden_tmr`]: ser_netlist::harden_tmr
//! [`IndependentSp::recompute_forward`]: ser_sp::IndependentSp::recompute_forward
//! [`ConePlans`]: ser_netlist::ConePlans

use std::sync::Arc;
use std::time::{Duration, Instant};

use ser_netlist::{
    harden_tmr, swap_kind, CancelCause, CancelToken, Circuit, GateKind, NodeId, TopoArtifacts,
};
use ser_sp::{IndependentSp, InputProbs, SpError, SpVector};

use crate::engine::{EppAnalysis, PolarityMode, WorkspacePool};
use crate::ser_model::{PlatchedModel, RseuModel, SerReport};
use crate::session::AnalysisSession;
use crate::sweep::{Arrivals, RunCtx, SweepResults};

/// One circuit edit the what-if engine understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Protect one gate with triple modular redundancy
    /// ([`ser_netlist::harden_tmr`]); the voter keeps the gate's name.
    Tmr(NodeId),
    /// Replace one logic gate's kind in place
    /// ([`ser_netlist::swap_kind`]); names and fanins are untouched.
    SwapKind(NodeId, GateKind),
    /// Replace the input probability assignment.
    SetInputs(InputProbs),
}

/// Why a cancellable [`WhatIfSession::apply_cancellable`] ended
/// without pushing a state.
#[derive(Debug)]
pub enum WhatIfAbort {
    /// The edit was invalid or the edited circuit failed to compile.
    Compile(SpError),
    /// The cancellation token tripped during re-analysis; the
    /// session's edit stack is untouched (no state was pushed).
    Cancelled(CancelCause),
}

impl std::fmt::Display for WhatIfAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WhatIfAbort::Compile(e) => e.fmt(f),
            WhatIfAbort::Cancelled(cause) => cause.fmt(f),
        }
    }
}

impl std::error::Error for WhatIfAbort {}

impl From<SpError> for WhatIfAbort {
    fn from(e: SpError) -> Self {
        WhatIfAbort::Compile(e)
    }
}

impl From<ser_netlist::NetlistError> for WhatIfAbort {
    fn from(e: ser_netlist::NetlistError) -> Self {
        WhatIfAbort::Compile(e.into())
    }
}

impl From<CancelCause> for WhatIfAbort {
    fn from(cause: CancelCause) -> Self {
        WhatIfAbort::Cancelled(cause)
    }
}

/// What one [`WhatIfSession::apply`] did and what it changed.
#[derive(Debug, Clone)]
pub struct WhatIfOutcome {
    /// Total SER before the edit.
    pub previous_total: f64,
    /// Total SER after the edit.
    pub total: f64,
    /// Sites whose results were re-derived (dirty region size), all
    /// re-swept on the edited circuit's cone plans.
    pub dirty_sites: usize,
    /// Sites in the edited circuit (`dirty_sites / total_sites` is the
    /// dirty fraction the bench reports).
    pub total_sites: usize,
    /// Edit-stack depth after this apply (base = 0).
    pub depth: usize,
    /// Wall-clock time of the incremental pass.
    pub elapsed: Duration,
    /// Per-site `P_sensitized` change for every dirty site, in site-id
    /// order of the edited circuit.
    pub deltas: Vec<SiteDelta>,
}

/// One dirty site's before/after `P_sensitized`.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteDelta {
    /// Site id in the *edited* circuit.
    pub node: NodeId,
    /// The site's name — the stable key across edits (ids shift when
    /// TMR inserts nodes).
    pub name: String,
    /// `P_sensitized` before the edit; `None` for a site that did not
    /// exist (a TMR replica or voter-tree gate).
    pub old_p: Option<f64>,
    /// `P_sensitized` after the edit.
    pub new_p: f64,
}

/// One entry of the edit stack: a full analysis state.
#[derive(Debug, Clone)]
struct State {
    circuit: Arc<Circuit>,
    topo: Arc<TopoArtifacts>,
    inputs: InputProbs,
    sp: Arc<SpVector>,
    results: Arc<SweepResults>,
    total: f64,
}

/// An interactive what-if session: a base [`AnalysisSession`] plus its
/// cached whole-circuit [`SweepResults`], folded to the per-site
/// numbers, and a stack of edited states each derived incrementally
/// from the one below (module docs for the algorithm).
///
/// Signal probabilities are maintained with the paper's default
/// [`IndependentSp`] engine; a base session compiled with a different
/// engine would break the bit-identity contract with
/// [`full_recompute`](Self::full_recompute).
#[derive(Debug)]
pub struct WhatIfSession {
    base: AnalysisSession,
    engine: IndependentSp,
    threads: usize,
    stack: Vec<State>,
}

impl WhatIfSession {
    /// Opens a session on `session`'s Tracked whole-circuit folded
    /// sweep, taken from its
    /// [`whole_sweep_memo`](AnalysisSession::whole_sweep_memo). Only
    /// when the memo is empty does this pay the sweep (on `threads`
    /// workers, building the circuit's cone plans, which SetInputs
    /// edits then reuse), and it stores the result there for the
    /// session and its clones.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn new(session: AnalysisSession, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread");
        let results = Arc::clone(
            session
                .whole_sweep_memo(PolarityMode::Tracked)
                .get_or_init(|| Arc::new(fold_all(&session, threads))),
        );
        let total = Self::total_of(session.circuit(), &results);
        let state = State {
            circuit: Arc::clone(session.circuit_arc()),
            topo: Arc::clone(session.topo()),
            inputs: session.inputs().clone(),
            sp: Arc::clone(session.signal_probabilities_arc()),
            results,
            total,
        };
        WhatIfSession {
            base: session,
            engine: IndependentSp::new(),
            threads,
            stack: vec![state],
        }
    }

    fn total_of(circuit: &Circuit, results: &SweepResults) -> f64 {
        SerReport::assemble(
            circuit,
            results.p_sensitized(),
            &RseuModel::default(),
            &PlatchedModel::default(),
        )
        .total()
    }

    fn current(&self) -> &State {
        self.stack.last().expect("stack holds at least the base")
    }

    /// Edit-stack depth: 0 at the base, +1 per applied edit.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// The circuit of the current (topmost) state.
    #[must_use]
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.current().circuit
    }

    /// The input assignment of the current state.
    #[must_use]
    pub fn inputs(&self) -> &InputProbs {
        &self.current().inputs
    }

    /// The signal probabilities of the current state.
    #[must_use]
    pub fn signal_probabilities(&self) -> &Arc<SpVector> {
        &self.current().sp
    }

    /// The whole-circuit sweep results of the current state: folded,
    /// so they hold the per-site numbers and no per-point arrivals.
    #[must_use]
    pub fn results(&self) -> &Arc<SweepResults> {
        &self.current().results
    }

    /// Total SER of the current state (uniform `R_SEU`, constant
    /// `P_latched` — the ranking models).
    #[must_use]
    pub fn total_ser(&self) -> f64 {
        self.current().total
    }

    /// A full SER report over the current state.
    #[must_use]
    pub fn report(&self) -> SerReport {
        let cur = self.current();
        SerReport::assemble(
            &cur.circuit,
            cur.results.p_sensitized(),
            &RseuModel::default(),
            &PlatchedModel::default(),
        )
    }

    /// Applies one edit incrementally and pushes the resulting state.
    ///
    /// # Errors
    ///
    /// Returns the wrapped netlist error if the edit is invalid for
    /// the current circuit (non-logic TMR/swap target, arity-breaking
    /// kind), or the SP engine's error if the edited circuit cannot be
    /// ordered or its sequential fixed point does not converge.
    pub fn apply(&mut self, edit: Edit) -> Result<WhatIfOutcome, SpError> {
        self.apply_cancellable(edit, None).map_err(|e| match e {
            WhatIfAbort::Compile(e) => e,
            WhatIfAbort::Cancelled(_) => {
                unreachable!("an apply without a token cannot be cancelled")
            }
        })
    }

    /// [`apply`](Self::apply) with a cooperative [`CancelToken`],
    /// polled after the SP forward recompute, at the edited circuit's
    /// plan-build checkpoints, before the re-sweep and before the
    /// splice. A trip aborts with [`WhatIfAbort::Cancelled`] **before**
    /// any state is pushed: the edit stack, cached arenas and totals
    /// are exactly as they were, so a subsequent apply (or nothing at
    /// all) sees pre-request state.
    ///
    /// # Errors
    ///
    /// [`WhatIfAbort::Compile`] exactly where [`apply`](Self::apply)
    /// errors, [`WhatIfAbort::Cancelled`] when `cancel` trips at one
    /// of those points.
    pub fn apply_cancellable(
        &mut self,
        edit: Edit,
        cancel: Option<&CancelToken>,
    ) -> Result<WhatIfOutcome, WhatIfAbort> {
        let checkpoint = || -> Result<(), WhatIfAbort> {
            match cancel {
                Some(token) => Ok(token.check()?),
                None => Ok(()),
            }
        };
        let t0 = Instant::now();
        let cur = self.stack.last().expect("stack holds at least the base");

        // --- 1. Edited circuit + old→new id map + seed structure. ---
        let same_circuit = matches!(edit, Edit::SetInputs(_));
        let (circuit, fwd, structural_new, inputs) = match &edit {
            Edit::Tmr(node) => {
                let c = Arc::new(harden_tmr(&cur.circuit, &[*node])?);
                let fwd: Vec<NodeId> = cur
                    .circuit
                    .iter()
                    .map(|(_, n)| c.find(n.name()).expect("names survive TMR"))
                    .collect();
                let mut is_old = vec![false; c.len()];
                for &n in &fwd {
                    is_old[n.index()] = true;
                }
                // Changed structure: the inserted replica/voter-tree
                // gates, plus the voter itself (it keeps the edited
                // gate's name but computes a different function).
                let mut changed: Vec<NodeId> =
                    c.node_ids().filter(|n| !is_old[n.index()]).collect();
                changed.push(fwd[node.index()]);
                let inputs = remap_inputs(&cur.inputs, &cur.circuit, &c);
                (c, fwd, changed, inputs)
            }
            Edit::SwapKind(node, kind) => {
                let c = Arc::new(swap_kind(&cur.circuit, *node, *kind)?);
                debug_assert!(
                    cur.circuit
                        .iter()
                        .all(|(id, n)| c.node(id).name() == n.name()),
                    "kind swap preserves node ids"
                );
                let fwd: Vec<NodeId> = cur.circuit.node_ids().collect();
                (c, fwd, vec![*node], cur.inputs.clone())
            }
            Edit::SetInputs(new_inputs) => {
                let fwd: Vec<NodeId> = cur.circuit.node_ids().collect();
                (
                    Arc::clone(&cur.circuit),
                    fwd,
                    Vec::new(),
                    new_inputs.clone(),
                )
            }
        };
        let topo = if same_circuit {
            Arc::clone(&cur.topo)
        } else {
            Arc::new(TopoArtifacts::compute(&circuit)?)
        };

        // --- 2. SP forward recompute from the edit frontier. --------
        let sp = {
            let (base, frontier): (SpVector, Vec<NodeId>) = match &edit {
                Edit::Tmr(_) => {
                    // Old values carried into the new id space; the
                    // inserted gates start as placeholders and are
                    // seeded dirty, so the forward pass derives them.
                    let mut values = vec![0.0f64; circuit.len()];
                    for old in cur.circuit.node_ids() {
                        values[fwd[old.index()].index()] = cur.sp.get(old);
                    }
                    (SpVector::new(values), structural_new.clone())
                }
                Edit::SwapKind(node, _) => ((*cur.sp).clone(), vec![*node]),
                Edit::SetInputs(new_inputs) => {
                    let frontier: Vec<NodeId> = circuit
                        .node_ids()
                        .filter(|&id| circuit.node(id).kind() == GateKind::Input)
                        .filter(|&id| {
                            new_inputs.probability(id).to_bits()
                                != cur.inputs.probability(id).to_bits()
                        })
                        .collect();
                    ((*cur.sp).clone(), frontier)
                }
            };
            Arc::new(self.engine.recompute_forward(
                &circuit,
                &inputs,
                topo.order(),
                &base,
                &frontier,
            )?)
        };

        // SP recompute done — first cancellation point.
        checkpoint()?;

        // rev[new id] = old id, for splice copies and delta reporting.
        let mut rev: Vec<Option<NodeId>> = vec![None; circuit.len()];
        for old in cur.circuit.node_ids() {
            rev[fwd[old.index()].index()] = Some(old);
        }

        // The edited circuit's plans, built under the token (a SetInputs
        // edit shares the current circuit's, already built). Re-sweep
        // boundary after it.
        topo.cone_plans_cancellable(&circuit, cancel)?;
        checkpoint()?;
        let analysis =
            EppAnalysis::from_artifacts(Arc::clone(&circuit), Arc::clone(&topo), Arc::clone(&sp));

        // --- 3. Dirty region and one re-sweep on the edited circuit's
        // plans. Seeds = changed structure ∪ SP-changed nodes ∪ their
        // direct consumers (off-path pins read SP). -------------------
        let mut seeds: Vec<NodeId> = structural_new;
        for old in cur.circuit.node_ids() {
            let new = fwd[old.index()];
            if cur.sp.get(old).to_bits() != sp.get(new).to_bits() {
                seeds.push(new);
                seeds.extend_from_slice(circuit.node(new).fanout());
            }
        }
        let dirty = topo.comb_ancestors(&circuit, seeds.iter().copied());
        let sites: Vec<NodeId> = circuit.node_ids().filter(|id| dirty[id.index()]).collect();
        let resweep = analysis.sweep(
            &sites,
            PolarityMode::Tracked,
            &folding(self.threads, self.base.workspace_pool()),
        );

        // Splice boundary: the last chance to abort before the new
        // state is assembled.
        checkpoint()?;
        // --- 4. Splice the per-site numbers: a dirty site's from the
        // re-sweep, whose sites ascend in new id order like this walk,
        // so a plain cursor lines them up; a clean site's from the
        // previous state. ---------------------------------------------
        let mut p_sensitized = Vec::with_capacity(circuit.len());
        let mut on_path_gates = Vec::with_capacity(circuit.len());
        let mut cursor = 0usize;
        for id in circuit.node_ids() {
            let site = if dirty[id.index()] {
                let site = resweep.get(cursor);
                cursor += 1;
                debug_assert_eq!(site.site(), id, "re-sweep splice order");
                site
            } else {
                let old = rev[id.index()].expect("a clean site survives the edit");
                cur.results.get(old.index())
            };
            p_sensitized.push(site.p_sensitized());
            on_path_gates
                .push(u32::try_from(site.on_path_gates()).expect("on-path gate count fits u32"));
        }
        let results = SweepResults::dense_folded(p_sensitized, on_path_gates);

        // --- 5. Totals, deltas, push. --------------------------------
        let total = Self::total_of(&circuit, &results);
        let dirty_sites = dirty.iter().filter(|&&d| d).count();
        let deltas: Vec<SiteDelta> = circuit
            .node_ids()
            .filter(|id| dirty[id.index()])
            .map(|id| SiteDelta {
                node: id,
                name: circuit.node(id).name().to_owned(),
                old_p: rev[id.index()].map(|o| cur.results.p_sensitized()[o.index()]),
                new_p: results.p_sensitized()[id.index()],
            })
            .collect();
        let outcome = WhatIfOutcome {
            previous_total: cur.total,
            total,
            dirty_sites,
            total_sites: circuit.len(),
            depth: self.stack.len(),
            elapsed: t0.elapsed(),
            deltas,
        };
        let state = State {
            circuit,
            topo,
            inputs,
            sp,
            results: Arc::new(results),
            total,
        };
        self.stack.push(state);
        Ok(outcome)
    }

    /// Pops the topmost edit, restoring the previous state verbatim
    /// (results included — a revert re-derives nothing). Returns the
    /// restored total SER, or `None` at the base.
    pub fn revert(&mut self) -> Option<f64> {
        if self.stack.len() > 1 {
            self.stack.pop();
            Some(self.current().total)
        } else {
            None
        }
    }

    /// The oracle: analyzes the current state's circuit from scratch —
    /// fresh session, fresh plans, whole-circuit folded sweep — and returns
    /// `(results, total SER)`. The incremental state must agree
    /// bit-for-bit ([`SweepResults`] equality plus total bits); the
    /// proptests enforce it.
    ///
    /// # Errors
    ///
    /// Returns the SP engine's error (the same compile the base
    /// session ran).
    pub fn full_recompute(&self) -> Result<(SweepResults, f64), SpError> {
        let cur = self.current();
        let session = AnalysisSession::with_inputs(Arc::clone(&cur.circuit), cur.inputs.clone())?;
        let results = fold_all(&session, self.threads);
        let total = Self::total_of(&cur.circuit, &results);
        Ok((results, total))
    }
}

/// A [`RunCtx`] on `threads` workers over `pool` that folds its
/// arrivals: every sweep a what-if state holds.
fn folding(threads: usize, pool: &WorkspacePool) -> RunCtx<'_> {
    RunCtx {
        arrivals: Arrivals::Fold,
        ..RunCtx::new(threads, pool)
    }
}

/// `session`'s whole-circuit sweep, folded.
fn fold_all(session: &AnalysisSession, threads: usize) -> SweepResults {
    let sites: Vec<NodeId> = session.circuit().node_ids().collect();
    session.epp().sweep(
        &sites,
        PolarityMode::Tracked,
        &folding(threads, session.workspace_pool()),
    )
}

/// Rebuilds an input assignment against a re-built circuit: ids
/// shifted, names survived.
fn remap_inputs(inputs: &InputProbs, old: &Circuit, new: &Circuit) -> InputProbs {
    let mut out = InputProbs::uniform(inputs.default_probability());
    for (id, p) in inputs.overrides() {
        if let Ok(node) = old.try_node(id) {
            if let Some(new_id) = new.find(node.name()) {
                out = out.with(new_id, p);
            }
        }
    }
    out
}
