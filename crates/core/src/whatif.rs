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
//!    the dirty sites are swept on them with the planned kernel. TMR
//!    of a *fanout-free* gate takes a shortcut instead: only the
//!    hardened gate's own observe point can change, and the cached
//!    arena already records each dirty site's four-value state there,
//!    so the new arrival is one TMR-voter rule application per site,
//!    patched in during the splice (`SweepResults::splice_tmr_sink`)
//!    with no cone walk at all; the seven inserted gates alone are
//!    swept, on the same plans.
//! 4. **Splice.** Clean sites are copied from the cached arena
//!    (observe-point ids remapped where the arena ids shifted); the
//!    re-swept sites are spliced in by site id. Because every kernel
//!    involved is bit-identical and untouched cones read untouched
//!    inputs, the spliced arena equals a from-scratch sweep
//!    bit-for-bit — [`full_recompute`](WhatIfSession::full_recompute)
//!    is the enforcing oracle.
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
    harden_tmr, swap_kind, CancelCause, CancelToken, Circuit, GateKind, NodeId, ObservePoint,
    TopoArtifacts,
};
use ser_sp::{IndependentSp, InputProbs, SpError, SpVector};

use crate::engine::{EppAnalysis, PointEpp, PolarityMode};
use crate::rules::propagate;
use crate::ser_model::{PlatchedModel, RseuModel, SerReport};
use crate::session::AnalysisSession;
use crate::sweep::{RunCtx, SweepResults};

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
    /// Sites whose results were re-derived (dirty region size).
    pub dirty_sites: usize,
    /// Dirty sites re-derived on the edited circuit's cone plans: every
    /// dirty site, re-swept — or, for a fanout-free TMR edit, the seven
    /// gates the edit inserts or changes, re-swept, plus the surviving
    /// dirty sites, patched directly from the arrival the cached arena
    /// already holds at the hardened gate's observe point. Always
    /// equal to [`dirty_sites`](Self::dirty_sites).
    pub resweep_planned: usize,
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
/// cached whole-circuit [`SweepResults`], and a stack of edited states
/// each derived incrementally from the one below (module docs for the
/// algorithm).
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
    /// Opens a session, paying one whole-circuit sweep to fill the
    /// base results cache (this also builds the circuit's cone plans,
    /// which SetInputs edits then reuse).
    #[must_use]
    pub fn new(session: AnalysisSession, threads: usize) -> Self {
        let results = Arc::new(session.sweep(threads));
        Self::with_base_results(session, results, threads)
    }

    /// Opens a session around a sweep the caller already ran, without
    /// re-sweeping.
    ///
    /// # Panics
    ///
    /// Panics if `results` is not a dense whole-circuit sweep of the
    /// session's circuit (every node a site, in id order), or if it
    /// folded its arrivals ([`Arrivals::Fold`](crate::Arrivals::Fold)):
    /// the what-if splice copies them.
    #[must_use]
    pub fn with_base_results(
        session: AnalysisSession,
        results: Arc<SweepResults>,
        threads: usize,
    ) -> Self {
        assert!(threads > 0, "at least one thread");
        assert!(
            results.len() == session.circuit().len()
                && results
                    .sites()
                    .iter()
                    .enumerate()
                    .all(|(i, s)| s.index() == i),
            "base results must be a dense whole-circuit sweep"
        );
        assert!(
            results.total_points().is_some(),
            "base results must keep their arrivals"
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

    /// The whole-circuit sweep results of the current state.
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
    /// kind, duplicate replica names from re-TMR of a hardened gate),
    /// or the SP engine's error if the edited circuit cannot be
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
        let remap_point = |p: ObservePoint| match p {
            ObservePoint::PrimaryOutput(id) => ObservePoint::PrimaryOutput(fwd[id.index()]),
            ObservePoint::FlipFlop { dff, data } => ObservePoint::FlipFlop {
                dff: fwd[dff.index()],
                data: fwd[data.index()],
            },
        };
        let pool = self.base.workspace_pool();

        // The edited circuit's plans, built under the token (a SetInputs
        // edit shares the current circuit's, already built), for either
        // arm below. Re-sweep boundary after it.
        topo.cone_plans_cancellable(&circuit, cancel)?;
        checkpoint()?;
        let analysis =
            EppAnalysis::from_artifacts(Arc::clone(&circuit), Arc::clone(&topo), Arc::clone(&sp));

        // --- 3a. Sink-TMR fast path. --------------------------------
        // TMR of a fanout-free gate `g` changes no surviving node's SP
        // (the inserted gates have no old consumers), so the dirty
        // region is exactly g's combinational fan-in closure, and a
        // dirty site's per-point arrivals change **only** at g's own
        // primary-output observe point. No cone is re-walked: a stored
        // arrival at a primary output is the Tracked four-value state
        // of that node, the replicas reproduce that state bitwise
        // (same kind, same fanins, same on/off-path classification),
        // and the voter tree is two O(1) rule applications — so the
        // new arrival is the TMR voter rule applied to the arrival
        // each dirty site already has on record, substituted during
        // the splice with the paper's sensitization fold re-run in
        // observe order ([`SweepResults::splice_tmr_sink`]).
        let fast_target = match &edit {
            Edit::Tmr(node) if cur.circuit.node(*node).fanout().is_empty() => Some(*node),
            _ => None,
        };
        let (results, dirty, resweep_planned) = if let Some(g) = fast_target {
            // No surviving node is downstream of the insertion, so
            // every carried SP value is bitwise intact — except g
            // itself, whose slot the voter (a different function)
            // takes over; nothing consumes it.
            debug_assert!(cur.circuit.node_ids().filter(|&old| old != g).all(|old| cur
                .sp
                .get(old)
                .to_bits()
                == sp.get(fwd[old.index()]).to_bits()));
            let g_idx = g.index();
            debug_assert_eq!(fwd[g_idx].index(), g_idx + 6, "voter follows its 6 inserts");

            // Region over old ids; the dirty mask over new ids.
            let region_old = cur.topo.comb_ancestors(&cur.circuit, std::iter::once(g));
            let mut fast = region_old.clone();
            fast[g_idx] = false;
            let mut dirty = vec![false; circuit.len()];
            for v in cur.circuit.node_ids() {
                if region_old[v.index()] {
                    dirty[fwd[v.index()].index()] = true;
                }
            }
            for n in &structural_new {
                dirty[n.index()] = true;
            }
            let fast_count = fast.iter().filter(|&&f| f).count();

            // The 7 structurally new/changed sites (replicas, voter
            // pairs, voter) re-sweep on the edited circuit's plans;
            // their cones are the insertion itself.
            let struct_sites: Vec<NodeId> = (g_idx..g_idx + 7).map(NodeId::from_index).collect();
            let struct_res = analysis.sweep(
                &struct_sites,
                PolarityMode::Tracked,
                &RunCtx::new(self.threads, pool),
            );

            // Splice: bulk copy + in-place patch (the voter rule over
            // each dirty site's recorded arrival at g, one refold per
            // dirty site), the seven fresh sites in the gap.
            let results = cur
                .results
                .splice_tmr_sink(g_idx, &struct_res, &fast, |vr| {
                    let vt = propagate(GateKind::And, &[vr, vr]);
                    propagate(GateKind::Or, &[vt, vt, vt])
                });
            (results, dirty, fast_count + struct_sites.len())
        } else {
            // --- 3b. General path: dirty region, one re-sweep on the
            // edited circuit's plans, splice. Seeds = changed structure
            // ∪ SP-changed nodes ∪ their direct consumers (off-path
            // pins read SP). -------------------------------------------
            let mut seeds: Vec<NodeId> = structural_new.clone();
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
                &RunCtx::new(self.threads, pool),
            );

            // Splice boundary: the last chance to abort before the
            // new arena is assembled.
            checkpoint()?;
            // Splice into a fresh dense arena. The re-sweep's sites and
            // the splice walk both ascend in new id order, so a plain
            // cursor lines results up with sites.
            let mut cursor = 0usize;
            let results = SweepResults::assemble_dense(
                circuit.len(),
                cur.results
                    .total_points()
                    .expect("what-if states keep their arrivals"),
                |id, points| {
                    let i = id.index();
                    if dirty[i] {
                        let site = resweep.get(cursor);
                        cursor += 1;
                        debug_assert_eq!(site.site(), id, "re-sweep splice order");
                        points.extend_from_slice(
                            site.per_point().expect("the re-sweep keeps its arrivals"),
                        );
                        (site.p_sensitized(), gates_u32(site.on_path_gates()))
                    } else {
                        let old = rev[i].expect("a clean site survives the edit");
                        let site = cur.results.get(old.index());
                        let kept = site
                            .per_point()
                            .expect("what-if states keep their arrivals");
                        points.extend(kept.iter().map(|p| PointEpp {
                            point: remap_point(p.point),
                            value: p.value,
                        }));
                        (site.p_sensitized(), gates_u32(site.on_path_gates()))
                    }
                },
            );
            (results, dirty, sites.len())
        };

        // --- 4. Totals, deltas, push. --------------------------------
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
            resweep_planned,
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
    /// fresh session, fresh plans, whole-circuit sweep — and returns
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
        let results = session.sweep(self.threads);
        let total = Self::total_of(&cur.circuit, &results);
        Ok((results, total))
    }
}

fn gates_u32(gates: usize) -> u32 {
    u32::try_from(gates).expect("on-path gate count fits u32")
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
