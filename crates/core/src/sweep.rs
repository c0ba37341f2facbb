//! The batched whole-circuit sweep engine: precomputed cone plans, a
//! structure-of-arrays four-value kernel, and a work-stealing site
//! scheduler.
//!
//! The per-site reference path
//! ([`EppAnalysis::site_with_workspace`]) rebuilds each site's cone by
//! DFS, re-sorts it, and propagates tuples through a full-circuit AoS
//! `values` array — per site, per sweep. This module is the compiled
//! form of the same computation:
//!
//! - **Cone plans** ([`ser_netlist::ConePlans`], cached on the shared
//!   [`TopoArtifacts`](ser_netlist::TopoArtifacts)): the DFF-clipped
//!   cone in topo order with every fanin pre-classified as on-path
//!   (cone-local index) or off-path (SP lookup), computed once per
//!   circuit.
//! - **SoA planes** ([`SweepWorkspace`]): the four tuple components in
//!   flat `f64` slices indexed by cone-local position — the kernel
//!   reads fanins through the plan's indices and never touches
//!   circuit-sized scratch.
//! - **Scheduler**: an atomic-cursor work queue over cone-cost-balanced
//!   batches; workers claim the next batch when they finish their
//!   current one, so wildly varying cone sizes no longer leave threads
//!   idle the way the old static `n / threads` split did.
//!
//! Results land in a [`SweepResults`] arena — one shared `Vec` of
//! per-point arrivals with per-site ranges — so the steady-state sweep
//! performs no per-site heap allocation at all. The per-site reference
//! path is retained and the batched engine is bit-for-bit identical to
//! it (asserted by `tests/sweep_equivalence.rs`).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ser_netlist::{ConePlans, FaninRef, NodeId, ObservePoint};
use ser_sp::SpVector;

use crate::engine::{
    combine_sensitization, EppAnalysis, PointEpp, PolarityMode, SiteEpp, SiteWorkspace,
    WorkspacePool,
};
use crate::four_value::FourValue;
use crate::rules::{merge_polarity_v, propagate2_v, propagate_fused_v, RuleOp};
#[cfg(target_arch = "x86_64")]
use crate::simd::AvxVec;
use crate::simd::{KernelBackend, Lane4, LaneVec, ScalarVec};

/// Below this many sites a parallel sweep is all coordination and no
/// work: the scheduler runs single-threaded instead. (The old engine
/// hard-coded the same `64` inline.)
pub const SINGLE_THREAD_SWEEP_THRESHOLD: usize = 64;

/// How many batches the scheduler cuts per worker thread. More batches
/// means finer-grained stealing (better balance when cone sizes vary
/// wildly) at the cost of a little queue traffic.
const BATCHES_PER_THREAD: usize = 8;

/// How far ahead of the tail walk the kernel prefetches fanin rows —
/// far enough to cover a DRAM round trip at the walk's pace, near
/// enough that the lines still sit in L1/L2 when the walk arrives.
const PREFETCH_DISTANCE: usize = 8;

/// Per-thread scratch for the batched sweep: the `(Pa, Pā, P0, P1)`
/// value planes indexed by cone-local position, stored as one
/// 32-byte-aligned 4-wide lane array per position — so
/// reading or writing one tuple is a single bounds check and one
/// aligned 32-byte access: a `vmovapd` for the AVX2 backend, a plain
/// `[f64; 4]` copy for the scalar twin. Grows to the largest cone it
/// evaluates and is reused across sites, sweeps and circuits (pool it
/// via [`WorkspacePool::checkout_sweep`]).
#[derive(Debug, Default)]
pub struct SweepWorkspace {
    lanes: Vec<Lane4>,
    /// Per-site gather buffer for the chain path's observe refs —
    /// sorted by observe index, then merged with the shared tail's
    /// (already sorted) refs so points are emitted in the reference
    /// path's observe order.
    path_obs: Vec<(u32, u32)>,
    /// Per-topological-position membership stamps for the tail walk:
    /// `epoch << 32 | cone_local_index`, where the epoch is bumped
    /// once per site. A tail pin whose position carries the current
    /// epoch is on-path and its lanes sit at the stored cone-local
    /// index; anything else resolves off-path by signal probability.
    /// Stamps survive across sites/circuits (the epoch invalidates
    /// them in O(1); on wrap the table is cleared).
    pos_stamp: Vec<u64>,
    stamp_epoch: u32,
    /// The off-path **SP lane plane**: one precomputed
    /// `from_signal_probability` tuple per circuit position, so every
    /// off-path gather in the kernel is a single aligned 32-byte load
    /// instead of a recomputed (and re-range-checked) tuple.
    sp_lanes: Vec<Lane4>,
    /// The SP vector `sp_lanes` was built from, pinned so the plane
    /// survives across sweeps: an SP allocation is immutable and its
    /// address unique for as long as anything references it, so
    /// `Arc::ptr_eq` is a sound cache key (the same invariant the
    /// session's multi-cycle cache relies on).
    sp_pin: Option<Arc<SpVector>>,
}

impl SweepWorkspace {
    /// Fresh, empty scratch (planes grow on first use).
    #[must_use]
    pub fn new() -> Self {
        SweepWorkspace::default()
    }

    /// Current plane capacity (largest cone seen so far).
    #[must_use]
    pub fn plane_len(&self) -> usize {
        self.lanes.len()
    }

    fn ensure(&mut self, len: usize) {
        if self.lanes.len() < len {
            self.lanes.resize(len, Lane4::default());
        }
    }

    /// Builds (or reuses) the SP lane plane for `sp`. Validation
    /// happens here, once per distribution per workspace — a bad SP
    /// panics at plane build exactly as `from_signal_probability`
    /// would have panicked at first gather, instead of corrupting the
    /// sweep.
    fn ensure_sp_plane(&mut self, sp: &Arc<SpVector>) {
        if let Some(pin) = &self.sp_pin {
            if Arc::ptr_eq(pin, sp) {
                return;
            }
        }
        self.sp_pin = None;
        self.sp_lanes.clear();
        self.sp_lanes.extend(
            sp.as_slice()
                .iter()
                .map(|&x| Lane4(FourValue::from_signal_probability(x).lanes())),
        );
        self.sp_pin = Some(Arc::clone(sp));
    }

    /// Sizes the position-stamp table for a circuit of `n` positions
    /// and starts a fresh stamp epoch for the next site. Returns the
    /// epoch already shifted into the stamp's high half.
    fn next_epoch(&mut self, n: usize) -> u64 {
        if self.pos_stamp.len() < n {
            self.pos_stamp.resize(n, 0);
        }
        self.stamp_epoch = self.stamp_epoch.wrapping_add(1);
        if self.stamp_epoch == 0 {
            self.pos_stamp.fill(0);
            self.stamp_epoch = 1;
        }
        u64::from(self.stamp_epoch) << 32
    }
}

/// Read-only view of everything one sweep produced for one site.
///
/// Obtained from [`SweepResults::site`] / [`SweepResults::iter`];
/// borrows the arena, allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SweepSiteRef<'a> {
    results: &'a SweepResults,
    pos: usize,
}

impl<'a> SweepSiteRef<'a> {
    /// The error site analyzed.
    #[must_use]
    pub fn site(&self) -> NodeId {
        self.results.sites[self.pos]
    }

    /// Error arrival per reachable observe point (a slice into the
    /// sweep's shared arena).
    #[must_use]
    pub fn per_point(&self) -> &'a [PointEpp] {
        &self.results.points[self.results.point_off[self.pos] as usize
            ..self.results.point_off[self.pos + 1] as usize]
    }

    /// The paper's `P_sensitized` for this site.
    #[must_use]
    pub fn p_sensitized(&self) -> f64 {
        self.results.p_sensitized[self.pos]
    }

    /// Number of on-path gates the pass visited (cost indicator).
    #[must_use]
    pub fn on_path_gates(&self) -> usize {
        self.results.on_path_gates[self.pos] as usize
    }

    /// Arrival tuple at a specific observed signal, if reachable.
    #[must_use]
    pub fn arrival_at(&self, signal: NodeId) -> Option<FourValue> {
        self.per_point()
            .iter()
            .find(|p| p.point.signal() == signal)
            .map(|p| p.value)
    }

    /// Converts into the owned per-site form (allocates; prefer the
    /// borrowed accessors in hot paths).
    #[must_use]
    pub fn to_site_epp(&self) -> SiteEpp {
        SiteEpp::from_parts(
            self.site(),
            self.per_point().to_vec(),
            self.p_sensitized(),
            self.on_path_gates(),
        )
    }
}

/// Uniform read access to one site's EPP result, whether it lives in an
/// owned [`SiteEpp`] or borrows a [`SweepResults`] arena — what the SER
/// model assembly and the electrical-masking derating are generic over.
pub trait EppSiteView {
    /// The error site analyzed.
    fn site(&self) -> NodeId;
    /// Error arrival per reachable observe point.
    fn per_point(&self) -> &[PointEpp];
    /// The paper's `P_sensitized`.
    fn p_sensitized(&self) -> f64;
    /// Number of on-path gates visited.
    fn on_path_gates(&self) -> usize;
}

impl EppSiteView for SiteEpp {
    fn site(&self) -> NodeId {
        SiteEpp::site(self)
    }
    fn per_point(&self) -> &[PointEpp] {
        SiteEpp::per_point(self)
    }
    fn p_sensitized(&self) -> f64 {
        SiteEpp::p_sensitized(self)
    }
    fn on_path_gates(&self) -> usize {
        SiteEpp::on_path_gates(self)
    }
}

impl<T: EppSiteView> EppSiteView for &T {
    fn site(&self) -> NodeId {
        (**self).site()
    }
    fn per_point(&self) -> &[PointEpp] {
        (**self).per_point()
    }
    fn p_sensitized(&self) -> f64 {
        (**self).p_sensitized()
    }
    fn on_path_gates(&self) -> usize {
        (**self).on_path_gates()
    }
}

impl EppSiteView for SweepSiteRef<'_> {
    fn site(&self) -> NodeId {
        SweepSiteRef::site(self)
    }
    fn per_point(&self) -> &[PointEpp] {
        SweepSiteRef::per_point(self)
    }
    fn p_sensitized(&self) -> f64 {
        SweepSiteRef::p_sensitized(self)
    }
    fn on_path_gates(&self) -> usize {
        SweepSiteRef::on_path_gates(self)
    }
}

/// The flat arena a batched sweep fills: per-site `P_sensitized`,
/// on-path gate counts, and one shared `Vec<PointEpp>` addressed by
/// per-site ranges — no per-site heap allocation anywhere.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The analyzed sites, in request order.
    sites: Vec<NodeId>,
    /// `true` when `sites[i].index() == i` for all `i` (the
    /// whole-circuit sweep), enabling O(1) lookup by node id.
    dense: bool,
    p_sensitized: Vec<f64>,
    on_path_gates: Vec<u32>,
    /// `point_off[i]..point_off[i+1]` delimits site `i`'s slice of
    /// `points`. Length `sites.len() + 1`.
    point_off: Vec<u32>,
    points: Vec<PointEpp>,
    threads_used: usize,
}

/// Equality compares the *results* only — `threads_used` is scheduling
/// metadata, and a 1-thread sweep must equal an 8-thread sweep.
impl PartialEq for SweepResults {
    fn eq(&self, other: &Self) -> bool {
        self.sites == other.sites
            && self.p_sensitized == other.p_sensitized
            && self.on_path_gates == other.on_path_gates
            && self.point_off == other.point_off
            && self.points == other.points
    }
}

impl SweepResults {
    /// Number of sites analyzed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` if no sites were analyzed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The analyzed sites, in result order.
    #[must_use]
    pub fn sites(&self) -> &[NodeId] {
        &self.sites
    }

    /// Worker threads the scheduler actually used for this sweep (1 for
    /// sweeps under [`SINGLE_THREAD_SWEEP_THRESHOLD`]).
    #[must_use]
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// Per-site `P_sensitized`, parallel to [`sites`](Self::sites).
    #[must_use]
    pub fn p_sensitized(&self) -> &[f64] {
        &self.p_sensitized
    }

    /// Total per-point arrivals stored across all sites.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.points.len()
    }

    /// The result at position `pos` (request order).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    #[must_use]
    pub fn get(&self, pos: usize) -> SweepSiteRef<'_> {
        assert!(pos < self.sites.len(), "sweep position {pos} out of range");
        SweepSiteRef { results: self, pos }
    }

    /// The result for one site.
    ///
    /// # Panics
    ///
    /// Panics if `site` was not part of this sweep.
    #[must_use]
    pub fn site(&self, site: NodeId) -> SweepSiteRef<'_> {
        let pos = if self.dense {
            let i = site.index();
            assert!(i < self.sites.len(), "site {site} out of range");
            i
        } else {
            self.sites
                .iter()
                .position(|&s| s == site)
                .unwrap_or_else(|| panic!("site {site} was not analyzed by this sweep"))
        };
        SweepSiteRef { results: self, pos }
    }

    /// Iterates all site results in request order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SweepSiteRef<'_>> {
        (0..self.sites.len()).map(move |pos| SweepSiteRef { results: self, pos })
    }

    /// Converts the arena into owned per-site results (one heap `Vec`
    /// per site — the compatibility shim for the pre-arena API).
    #[must_use]
    pub fn to_site_epps(&self) -> Vec<SiteEpp> {
        self.iter().map(|r| r.to_site_epp()).collect()
    }

    /// Stitches several sweep arenas into one, in part order — how a
    /// service reassembles a sweep it fanned out as independent site
    /// batches over a shared executor. Per-site payloads are
    /// position-independent, so the concatenation is exactly the arena
    /// a single sweep over the concatenated site list would produce.
    /// `threads_used` becomes the number of parts (each part is one
    /// worker's output).
    #[must_use]
    pub fn concat<I: IntoIterator<Item = SweepResults>>(parts: I) -> SweepResults {
        let mut out = SweepResults {
            sites: Vec::new(),
            dense: false,
            p_sensitized: Vec::new(),
            on_path_gates: Vec::new(),
            point_off: vec![0],
            points: Vec::new(),
            threads_used: 0,
        };
        for part in parts {
            out.threads_used += 1;
            out.sites.extend_from_slice(&part.sites);
            out.p_sensitized.extend_from_slice(&part.p_sensitized);
            out.on_path_gates.extend_from_slice(&part.on_path_gates);
            let base = *out.point_off.last().expect("non-empty offsets");
            out.point_off
                .extend(part.point_off[1..].iter().map(|&o| o + base));
            out.points.extend_from_slice(&part.points);
        }
        out.dense = out.sites.iter().enumerate().all(|(i, s)| s.index() == i);
        out.threads_used = out.threads_used.max(1);
        out
    }

    /// Assembles a dense whole-circuit arena site by site — the splice
    /// primitive the what-if engine uses to merge re-swept dirty sites
    /// into a cached base sweep. `fill` is called once per node in id
    /// order; it appends the site's per-point arrivals to the shared
    /// arena and returns `(p_sensitized, on_path_gates)`. The result is
    /// indistinguishable from a fresh [`EppAnalysis::sweep`] producing
    /// the same per-site payloads (`threads_used` is 1; equality
    /// ignores it). `points_capacity` pre-sizes the shared arrival
    /// arena (a hint — the arena still grows if `fill` overshoots);
    /// splice callers pass the base arena's
    /// [`total_points`](Self::total_points), which is within a few
    /// sites of exact.
    #[must_use]
    pub fn assemble_dense(
        n_sites: usize,
        points_capacity: usize,
        mut fill: impl FnMut(NodeId, &mut Vec<PointEpp>) -> (f64, u32),
    ) -> SweepResults {
        let mut out = SweepResults {
            sites: (0..n_sites).map(NodeId::from_index).collect(),
            dense: true,
            p_sensitized: Vec::with_capacity(n_sites),
            on_path_gates: Vec::with_capacity(n_sites),
            point_off: Vec::with_capacity(n_sites + 1),
            points: Vec::with_capacity(points_capacity),
            threads_used: 1,
        };
        out.point_off.push(0);
        for i in 0..n_sites {
            let before = out.points.len();
            let (p_sens, gates) = fill(NodeId::from_index(i), &mut out.points);
            out.p_sensitized.push(p_sens);
            out.on_path_gates.push(gates);
            let n_points = u32::try_from(out.points.len() - before).expect("points fit u32");
            let last = *out.point_off.last().expect("non-empty offsets");
            out.point_off.push(last + n_points);
        }
        out
    }

    /// The sink-TMR splice, specialized from
    /// [`assemble_dense`](Self::assemble_dense) into bulk copies: `self`
    /// is the dense pre-edit arena, the gate at old index `g_idx` was
    /// hardened in place (six inserted nodes, so every id at or above
    /// `g_idx` shifts up by 6) and `struct_res` holds the seven freshly
    /// swept replacement sites in id order.
    ///
    /// The arena is its own probe: a fanout-free gate is observed as
    /// its own primary output, and a stored arrival at a primary
    /// output *is* the [`PolarityMode::Tracked`] four-value state of
    /// that node — exactly the state the three replicas reproduce
    /// bitwise after hardening (same kinds, same fanins, same
    /// on/off-path classification). So each `fast` site's new arrival
    /// at the gate's observe point is `voter_of` (the TMR voter rule)
    /// applied to the arrival the site already has on record, and no
    /// cone is re-walked at all. The patch runs in one pass per site:
    /// bulk `extend_from_slice`, voter substitution at the gate's
    /// point, id shift, and the sensitization fold re-run in observe
    /// order (plus the six voter-tree gates on the site's path count).
    ///
    /// Bit-for-bit equal to re-sweeping every `fast` site on the
    /// edited circuit: the copies, patches, and folds perform the same
    /// float operations in the same order as the kernel's own observe
    /// emission.
    #[must_use]
    pub(crate) fn splice_tmr_sink(
        &self,
        g_idx: usize,
        struct_res: &SweepResults,
        fast: &[bool],
        voter_of: impl Fn(FourValue) -> FourValue,
    ) -> SweepResults {
        debug_assert!(self.dense, "splice requires the dense base arena");
        debug_assert_eq!(struct_res.len(), 7, "replicas, voter pairs, voter");
        let n_old = self.sites.len();
        let g_point = ObservePoint::PrimaryOutput(NodeId::from_index(g_idx));
        let g_span = (self.point_off[g_idx + 1] - self.point_off[g_idx]) as usize;
        let mut out = SweepResults {
            sites: (0..n_old + 6).map(NodeId::from_index).collect(),
            dense: true,
            p_sensitized: Vec::with_capacity(n_old + 6),
            on_path_gates: Vec::with_capacity(n_old + 6),
            point_off: Vec::with_capacity(n_old + 7),
            points: Vec::with_capacity(self.points.len() - g_span + struct_res.points.len()),
            threads_used: 1,
        };
        out.point_off.push(0);
        let shift = |id: NodeId| {
            if id.index() >= g_idx {
                NodeId::from_index(id.index() + 6)
            } else {
                id
            }
        };
        let copy_patched = |out: &mut SweepResults, old: usize| {
            let start = out.points.len();
            out.points.extend_from_slice(
                &self.points[self.point_off[old] as usize..self.point_off[old + 1] as usize],
            );
            let mut patched = false;
            for p in &mut out.points[start..] {
                if fast[old] && p.point == g_point {
                    p.value = voter_of(p.value);
                    patched = true;
                }
                p.point = match p.point {
                    ObservePoint::PrimaryOutput(id) => ObservePoint::PrimaryOutput(shift(id)),
                    ObservePoint::FlipFlop { dff, data } => ObservePoint::FlipFlop {
                        dff: shift(dff),
                        data: shift(data),
                    },
                };
            }
            if patched {
                out.p_sensitized.push(combine_sensitization(
                    out.points[start..].iter().map(PointEpp::p_arrival),
                ));
            } else {
                out.p_sensitized.push(self.p_sensitized[old]);
            }
            out.on_path_gates
                .push(self.on_path_gates[old] + if fast[old] { 6 } else { 0 });
            let n = u32::try_from(out.points.len() - start).expect("points fit u32");
            let last = *out.point_off.last().expect("non-empty offsets");
            out.point_off.push(last + n);
        };
        for old in 0..g_idx {
            copy_patched(&mut out, old);
        }
        for s in 0..struct_res.len() {
            debug_assert_eq!(
                struct_res.sites[s].index(),
                g_idx + s,
                "struct splice order"
            );
            out.points.extend_from_slice(
                &struct_res.points
                    [struct_res.point_off[s] as usize..struct_res.point_off[s + 1] as usize],
            );
            out.p_sensitized.push(struct_res.p_sensitized[s]);
            out.on_path_gates.push(struct_res.on_path_gates[s]);
            let last = *out.point_off.last().expect("non-empty offsets");
            out.point_off
                .push(last + (struct_res.point_off[s + 1] - struct_res.point_off[s]));
        }
        for old in g_idx + 1..n_old {
            copy_patched(&mut out, old);
        }
        out
    }
}

/// Per-worker scratch for one sweep: SoA planes when cone plans are
/// available, a classic [`SiteWorkspace`] when the plan arena was
/// declined for size and the sweep falls back to per-site traversal.
enum SweepScratch {
    Plan(SweepWorkspace),
    Reference(SiteWorkspace),
}

impl SweepScratch {
    fn checkout(analysis: &EppAnalysis, pool: &WorkspacePool, planned: bool) -> Self {
        if planned {
            let mut ws = pool.checkout_sweep();
            // One plane build per worker per sweep — and usually none:
            // pooled workspaces keep their plane pinned to the exact SP
            // allocation, so repeat sweeps (and the service's
            // single-site requests) skip straight through.
            ws.ensure_sp_plane(analysis.sp_arc());
            SweepScratch::Plan(ws)
        } else {
            SweepScratch::Reference(pool.checkout(analysis))
        }
    }

    fn give_back(self, pool: &WorkspacePool) {
        match self {
            SweepScratch::Plan(ws) => pool.give_back_sweep(ws),
            SweepScratch::Reference(ws) => pool.give_back(ws),
        }
    }
}

/// One worker's output for one claimed batch: results for the
/// contiguous site range starting at `start`, stitched back in
/// position order after the join.
struct Segment {
    start: usize,
    p_sens: Vec<f64>,
    gates: Vec<u32>,
    point_counts: Vec<u32>,
    points: Vec<PointEpp>,
}

impl EppAnalysis {
    /// The batched whole-circuit sweep: every node as an error site,
    /// [`PolarityMode::Tracked`], results in one flat arena.
    ///
    /// Bit-for-bit identical to calling
    /// [`site_with_workspace`](Self::site_with_workspace) per node; the
    /// cone plans are built once per circuit (cached on the shared
    /// artifacts) and the scheduler hands cone-cost-balanced batches to
    /// `threads` workers through an atomic cursor.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    #[must_use]
    pub fn sweep(&self, threads: usize, pool: &WorkspacePool) -> SweepResults {
        let sites: Vec<NodeId> = self.circuit().node_ids().collect();
        self.sweep_sites_with(&sites, PolarityMode::Tracked, threads, pool)
    }

    /// The batched sweep over an explicit site list (e.g. only the
    /// flip-flops, for the multi-cycle frame expansion). Results come
    /// back in the same order as `sites`. The rule-core backend is
    /// selected here, once per sweep ([`KernelBackend::auto`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or any site is out of range.
    #[must_use]
    pub fn sweep_sites_with(
        &self,
        sites: &[NodeId],
        polarity: PolarityMode,
        threads: usize,
        pool: &WorkspacePool,
    ) -> SweepResults {
        self.sweep_sites_with_backend(sites, polarity, threads, pool, KernelBackend::auto())
    }

    /// Like [`sweep_sites_with`](Self::sweep_sites_with) with an
    /// explicit rule-core backend — the forcing hook the dual-backend
    /// equivalence tests and benches use. A backend the host cannot
    /// run degrades to [`KernelBackend::Scalar`]
    /// ([`KernelBackend::sanitized`]), so forcing is always safe.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or any site is out of range.
    #[must_use]
    pub fn sweep_sites_with_backend(
        &self,
        sites: &[NodeId],
        polarity: PolarityMode,
        threads: usize,
        pool: &WorkspacePool,
        backend: KernelBackend,
    ) -> SweepResults {
        assert!(threads > 0, "at least one thread");
        // `None` when the circuit's plan arena exceeds the member
        // budget: the sweep then runs the bit-identical per-site
        // reference kernel (O(n) scratch) under the same scheduler.
        let plans = self.artifacts().cone_plans(self.circuit()).cloned();
        self.sweep_impl(
            sites,
            polarity,
            threads,
            pool,
            plans.as_deref(),
            backend.sanitized(),
        )
    }

    /// The batched sweep over an explicit site list forced onto the
    /// per-site reference kernel (no cone plans consulted, none
    /// compiled). Bit-identical to the planned sweep; the what-if
    /// engine uses it to re-sweep a handful of structurally dirty
    /// sites on an edited circuit without paying that circuit's plan
    /// compile.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or any site is out of range.
    #[must_use]
    pub fn sweep_sites_unplanned(
        &self,
        sites: &[NodeId],
        polarity: PolarityMode,
        threads: usize,
        pool: &WorkspacePool,
    ) -> SweepResults {
        assert!(threads > 0, "at least one thread");
        self.sweep_impl(
            sites,
            polarity,
            threads,
            pool,
            None,
            KernelBackend::auto().sanitized(),
        )
    }

    fn sweep_impl(
        &self,
        sites: &[NodeId],
        polarity: PolarityMode,
        threads: usize,
        pool: &WorkspacePool,
        plans: Option<&ConePlans>,
        backend: KernelBackend,
    ) -> SweepResults {
        let dense = sites.iter().enumerate().all(|(i, s)| s.index() == i);
        let total_points: usize =
            plans.map_or(0, |p| sites.iter().map(|&s| p.plan(s).observe_len()).sum());

        let mut results = SweepResults {
            sites: sites.to_vec(),
            dense,
            p_sensitized: Vec::with_capacity(sites.len()),
            on_path_gates: Vec::with_capacity(sites.len()),
            point_off: Vec::with_capacity(sites.len() + 1),
            points: Vec::with_capacity(total_points),
            threads_used: 1,
        };
        results.point_off.push(0);

        if threads == 1 || sites.len() < SINGLE_THREAD_SWEEP_THRESHOLD {
            let mut scratch = SweepScratch::checkout(self, pool, plans.is_some());
            for &site in sites {
                let (p_sens, gates, n_points) = self.site_kernel(
                    plans,
                    site,
                    polarity,
                    &mut scratch,
                    &mut results.points,
                    backend,
                );
                results.p_sensitized.push(p_sens);
                results.on_path_gates.push(gates);
                let last = *results.point_off.last().expect("non-empty offsets");
                results.point_off.push(last + n_points);
            }
            scratch.give_back(pool);
            return results;
        }

        // --- Batch construction: contiguous position ranges balanced by
        // cone cost (uniform when no plans exist), oversubscribed so
        // fast workers steal the tail. --------------------------------
        let costs: Vec<usize> = match plans {
            Some(p) => sites.iter().map(|&s| p.plan(s).cost()).collect(),
            None => vec![1; sites.len()],
        };
        let total_cost: usize = costs.iter().sum();
        let target = (total_cost / (threads * BATCHES_PER_THREAD)).max(1);
        let mut batches: Vec<Range<usize>> = Vec::new();
        let mut start = 0usize;
        let mut acc = 0usize;
        for (pos, &c) in costs.iter().enumerate() {
            acc += c;
            if acc >= target {
                batches.push(start..pos + 1);
                start = pos + 1;
                acc = 0;
            }
        }
        if start < sites.len() {
            batches.push(start..sites.len());
        }

        let workers = threads.min(batches.len());
        results.threads_used = workers;
        let cursor = AtomicUsize::new(0);
        let mut segments: Vec<Segment> = Vec::with_capacity(batches.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let batches = &batches;
                    let this = &*self;
                    scope.spawn(move || {
                        let mut scratch = SweepScratch::checkout(this, pool, plans.is_some());
                        let mut segs: Vec<Segment> = Vec::new();
                        loop {
                            let b = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(range) = batches.get(b).cloned() else {
                                break;
                            };
                            let mut seg = Segment {
                                start: range.start,
                                p_sens: Vec::with_capacity(range.len()),
                                gates: Vec::with_capacity(range.len()),
                                point_counts: Vec::with_capacity(range.len()),
                                points: Vec::new(),
                            };
                            for pos in range {
                                let (p_sens, gates, n_points) = this.site_kernel(
                                    plans,
                                    sites[pos],
                                    polarity,
                                    &mut scratch,
                                    &mut seg.points,
                                    backend,
                                );
                                seg.p_sens.push(p_sens);
                                seg.gates.push(gates);
                                seg.point_counts.push(n_points);
                            }
                            segs.push(seg);
                        }
                        scratch.give_back(pool);
                        segs
                    })
                })
                .collect();
            for h in handles {
                segments.extend(h.join().expect("sweep worker panicked"));
            }
        });

        // Stitch segments back in position order: batches partition the
        // site list contiguously, so concatenation restores it exactly.
        segments.sort_unstable_by_key(|s| s.start);
        for seg in segments {
            debug_assert_eq!(seg.start, results.p_sensitized.len(), "contiguous stitch");
            results.p_sensitized.extend_from_slice(&seg.p_sens);
            results.on_path_gates.extend_from_slice(&seg.gates);
            for c in seg.point_counts {
                let last = *results.point_off.last().expect("non-empty offsets");
                results.point_off.push(last + c);
            }
            results.points.extend_from_slice(&seg.points);
        }
        results
    }

    /// Dispatches one site to the plan-driven kernel (on the sweep's
    /// selected rule-core backend) or, when the plan arena was
    /// declined for size, to the per-site reference kernel — all
    /// bit-identical, so the choice is invisible in the results.
    fn site_kernel(
        &self,
        plans: Option<&ConePlans>,
        site: NodeId,
        polarity: PolarityMode,
        scratch: &mut SweepScratch,
        points_out: &mut Vec<PointEpp>,
        backend: KernelBackend,
    ) -> (f64, u32, u32) {
        match (plans, scratch) {
            (Some(plans), SweepScratch::Plan(ws)) => match backend {
                KernelBackend::Scalar => {
                    self.plan_kernel::<ScalarVec>(plans, site, polarity, ws, points_out)
                }
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `backend` went through `sanitized()` at sweep
                // entry, so `Avx2` implies
                // `is_x86_feature_detected!("avx2")` held on this host.
                KernelBackend::Avx2 => unsafe {
                    self.plan_kernel_avx2(plans, site, polarity, ws, points_out)
                },
                #[cfg(not(target_arch = "x86_64"))]
                KernelBackend::Avx2 => {
                    unreachable!("sanitized backends exclude AVX2 off x86-64")
                }
            },
            (None, SweepScratch::Reference(ws)) => {
                let r = self.site_with_workspace(site, polarity, ws);
                let n_points = u32::try_from(r.per_point().len()).expect("points fit u32");
                points_out.extend_from_slice(r.per_point());
                let gates = u32::try_from(r.on_path_gates()).expect("cone fits u32");
                (r.p_sensitized(), gates, n_points)
            }
            _ => unreachable!("scratch kind always matches plan availability"),
        }
    }

    /// The allocation-free plan-driven kernel for one site: evaluates
    /// the suffix-shared cone — the chain path, then the shared tail —
    /// over the 4-wide lane planes, appends the per-point arrivals to
    /// `points_out`, and returns
    /// `(p_sensitized, on-path gates, points appended)`.
    ///
    /// **Path members** (cone positions `1..=prefix_len`) carry no
    /// packed refs at all: a chain node's only possible on-path fanin
    /// is its path predecessor (anything else reading it would make it
    /// an anchor), so each pin resolves by comparing the pin's node id
    /// against the previously walked node — the anchor at position
    /// `prefix_len` included. **Tail members** read their packed
    /// tail-local refs off the shared table, rebased by the path
    /// length. Observe points are the sorted path observes merged with
    /// the tail's presorted refs, so emission order matches the
    /// reference path's observe order exactly.
    ///
    /// Per gate, the rule is dispatched **once** ([`RuleOp::of`],
    /// outside the per-fanin loop) and the fused rule core consumes
    /// fanin lanes straight off the planes / SP vector — no
    /// intermediate tuple buffer, no per-fanin re-dispatch, one fused
    /// traversal where the slice-based rules made three.
    ///
    /// Performs the exact same float operations in the exact same order
    /// as [`site_with_workspace`](Self::site_with_workspace) — the two
    /// paths are bit-identical by construction, on either rule-core
    /// backend (the vector cores are lane-wise twins of the scalar
    /// ones; see `crates/core/src/rules.rs`).
    ///
    /// Generic over the lane-vector backend; `#[inline(always)]` so
    /// each monomorphization collapses into its entry point — in
    /// particular into `plan_kernel_avx2`'s `target_feature` scope,
    /// where the AVX2 intrinsics inline to single instructions.
    #[inline(always)]
    fn plan_kernel<V: LaneVec>(
        &self,
        plans: &ConePlans,
        site: NodeId,
        polarity: PolarityMode,
        ws: &mut SweepWorkspace,
        points_out: &mut Vec<PointEpp>,
    ) -> (f64, u32, u32) {
        let plan = plans.plan(site);
        let l = plan.prefix_len();
        let tail = plan.tail();
        let len = l + tail.len();
        ws.ensure(len);
        let epoch = ws.next_epoch(plans.len());
        debug_assert_eq!(
            ws.sp_lanes.len(),
            self.circuit().len(),
            "SP lane plane prepared at scratch checkout"
        );

        let circuit = self.circuit();
        // Split the workspace borrows once: the gather closures read
        // the SP plane while the value plane is written between gates.
        let SweepWorkspace {
            lanes,
            path_obs,
            pos_stamp,
            sp_lanes,
            ..
        } = ws;
        let sp_lanes: &[Lane4] = sp_lanes;

        lanes[0] = Lane4(FourValue::error_site().lanes());

        // Chain path: walk `next_of` hops; position `l` is the anchor
        // (the tail's first member), whose pins — like every path
        // member's — resolve by predecessor comparison. When `l == 0`
        // the site *is* the anchor and the walk is empty. Path observe
        // refs (positions `0..l`) gather into the sort buffer; the
        // anchor's observes live in the tail's presorted refs.
        path_obs.clear();
        if l > 0 {
            for &obs in plan.observes_of(site) {
                path_obs.push((obs, 0));
            }
        }
        let mut prev = site;
        for pos in 1..=l {
            let id = plan.next_of(prev);
            let node = circuit.node(id);
            let op = RuleOp::of(node.kind());
            let prev_lanes = V::load(&lanes[pos - 1]);
            let mut out = propagate_fused_v(
                op,
                node.fanin().iter().map(|&pin| {
                    if pin == prev {
                        prev_lanes
                    } else {
                        // Off-path: one aligned load off the SP plane
                        // (the tuple — and its range check — was
                        // computed once at plane build).
                        V::load(&sp_lanes[pin.index()])
                    }
                }),
            );
            if polarity == PolarityMode::Merged {
                // Collapse Pā into Pa after every gate — same ablation
                // transform as the reference path.
                out = merge_polarity_v(out);
            }
            lanes[pos] = out.store();
            if pos < l {
                for &obs in plan.observes_of(id) {
                    path_obs.push((obs, u32::try_from(pos).expect("cone fits u32")));
                }
            }
            prev = id;
        }

        // Shared tail: member `k` sits at cone position `l + k`. The
        // tail stores only topological positions; kinds and pins come
        // off the plans' per-position tables, and each pin classifies
        // on the fly against the walked cone: positions are stamped
        // with the site's epoch as their members are evaluated, every
        // fanin position is strictly below its consumer's, and no tail
        // member can read a path node (a path node's single successor
        // is the next path node) — so a current-epoch stamp is exactly
        // the old packed on-path ref, and anything else resolves by
        // signal probability. Same values, same order: bit-identical.
        let positions = tail.positions();
        pos_stamp[positions[0] as usize] = epoch | l as u64;
        for (k, &q) in positions.iter().enumerate().skip(1) {
            // Stay a few positions ahead of the walk: the per-position
            // fanin rows live in the shared plan arena, which outgrows
            // the LLC on the larger circuits, and the row address is
            // data-dependent (position → CSR offset → row), so the
            // hardware prefetcher cannot follow it.
            if let Some(&qn) = positions.get(k + PREFETCH_DISTANCE) {
                if let Some(first) = plans.fanins_at(qn).first() {
                    crate::simd::prefetch_t0(first);
                }
            }
            let op = RuleOp::of(plans.kind_at(q));
            let lanes_now: &[Lane4] = lanes;
            let stamp: &[u64] = pos_stamp;
            // Branchless fanin gather: whether a fanin is on-path is
            // data-dependent (the shared tail serves every site), so an
            // `if` here mispredicts constantly. Both candidate slots
            // are always safely indexable — stamps only ever hold
            // positions below the workspace high-water mark, and the
            // packed ref of an on-path fanin decodes to a harmless
            // in-range placeholder — so we resolve both and let a
            // conditional move pick the address.
            let gather = move |&(pf, off): &(u32, u32)| -> V {
                let s = stamp[pf as usize];
                let on_path = s & !0xFFFF_FFFF == epoch;
                let off_idx = match FaninRef::decode(off) {
                    FaninRef::OffPath(idx) => idx,
                    // Packed tail refs are always off-path; this arm
                    // only fires when `on_path` already won the select.
                    FaninRef::OnPath(_) => 0,
                };
                let src = std::hint::select_unpredictable(
                    on_path,
                    &lanes_now[(s as u32) as usize],
                    &sp_lanes[off_idx],
                );
                V::load(src)
            };
            let fanins = plans.fanins_at(q);
            let mut out = if fanins.len() == 2 {
                propagate2_v(op, gather(&fanins[0]), gather(&fanins[1]))
            } else {
                propagate_fused_v(op, fanins.iter().map(gather))
            };
            if polarity == PolarityMode::Merged {
                out = merge_polarity_v(out);
            }
            lanes[l + k] = out.store();
            pos_stamp[q as usize] = epoch | (l + k) as u64;
        }

        // Emit points in observe order: merge the sorted path observes
        // with the tail's (indices are unique per site, so the merge
        // is a strict interleave — the reference emission order).
        path_obs.sort_unstable();
        let tobs = tail.observe_refs();
        let observe: &[ObservePoint] = self.artifacts().observe_points();
        let first = points_out.len();
        let l32 = u32::try_from(l).expect("cone fits u32");
        let (mut i, mut j) = (0, 0);
        while i < path_obs.len() || j < tobs.len() {
            let take_path = j >= tobs.len() || (i < path_obs.len() && path_obs[i].0 < tobs[j].0);
            let (obs, local) = if take_path {
                let r = path_obs[i];
                i += 1;
                r
            } else {
                let r = (tobs[j].0, tobs[j].1 + l32);
                j += 1;
                r
            };
            points_out.push(PointEpp {
                point: observe[obs as usize],
                value: FourValue::from_lanes(lanes[local as usize].0),
            });
        }
        let p_sensitized =
            combine_sensitization(points_out[first..].iter().map(PointEpp::p_arrival));
        let gates = u32::try_from(len - 1).expect("cone fits u32");
        let n_points = u32::try_from(points_out.len() - first).expect("points fit u32");
        (p_sensitized, gates, n_points)
    }

    /// The AVX2 monomorphization of [`plan_kernel`](Self::plan_kernel)
    /// behind the one `target_feature` boundary: everything between
    /// here and the `__m256d` intrinsics is `#[inline(always)]`, so
    /// the whole per-site kernel compiles as a single AVX2 function.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the host supports AVX2
    /// (`is_x86_feature_detected!("avx2")`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn plan_kernel_avx2(
        &self,
        plans: &ConePlans,
        site: NodeId,
        polarity: PolarityMode,
        ws: &mut SweepWorkspace,
        points_out: &mut Vec<PointEpp>,
    ) -> (f64, u32, u32) {
        self.plan_kernel::<AvxVec>(plans, site, polarity, ws, points_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::parse_bench;
    use ser_sp::{IndependentSp, InputProbs, SpEngine};

    fn analysis(c: &ser_netlist::Circuit) -> EppAnalysis {
        let sp = IndependentSp::new()
            .compute(c, &InputProbs::default())
            .unwrap();
        EppAnalysis::new(c, sp).unwrap()
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
    fn sweep_matches_per_site_reference_bitwise() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<ser_netlist::NodeId> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let sweep = epp.sweep_sites_with(&sites, polarity, 1, &pool);
            assert_eq!(sweep.len(), c.len());
            for id in c.node_ids() {
                let reference = epp.site_with(id, polarity);
                let batched = sweep.site(id);
                assert_eq!(batched.site(), reference.site());
                // Exact f64 equality — bit-identity, not epsilon.
                assert_eq!(batched.p_sensitized(), reference.p_sensitized());
                assert_eq!(batched.on_path_gates(), reference.on_path_gates());
                assert_eq!(batched.per_point(), reference.per_point());
                assert_eq!(batched.to_site_epp(), reference);
            }
        }
    }

    #[test]
    fn forced_backends_are_bit_identical() {
        // Big enough that chains, shared tails and both gather paths
        // are all exercised; every backend the host can run must agree
        // bitwise with the per-site reference.
        let c = ser_gen_like_chain(120);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<ser_netlist::NodeId> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let scalar =
                epp.sweep_sites_with_backend(&sites, polarity, 1, &pool, KernelBackend::Scalar);
            let forced_avx2 =
                epp.sweep_sites_with_backend(&sites, polarity, 1, &pool, KernelBackend::Avx2);
            assert_eq!(scalar, forced_avx2, "{polarity:?}");
            for &site in &sites {
                assert_eq!(
                    scalar.site(site).to_site_epp(),
                    epp.site_with(site, polarity),
                    "{polarity:?}"
                );
            }
        }
    }

    #[test]
    fn sp_plane_is_pinned_and_rebuilt_on_new_sp() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let _ = epp.sweep(1, &pool);
        {
            let slots = pool.checkout_sweep();
            assert!(slots
                .sp_pin
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, epp.sp_arc())));
            assert_eq!(slots.sp_lanes.len(), c.len());
            pool.give_back_sweep(slots);
        }
        // A different SP allocation (same values) must rebuild the plane.
        let sp2 = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let epp2 = EppAnalysis::new(&c, sp2).unwrap();
        let r1 = epp.sweep(1, &pool);
        let r2 = epp2.sweep(1, &pool);
        assert_eq!(r1, r2);
        let slots = pool.checkout_sweep();
        assert!(slots
            .sp_pin
            .as_ref()
            .is_some_and(|p| Arc::ptr_eq(p, epp2.sp_arc())));
        pool.give_back_sweep(slots);
    }

    #[test]
    fn subset_sweep_preserves_request_order() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let h = c.find("H").unwrap();
        let a = c.find("A").unwrap();
        let subset = [h, a];
        let sweep = epp.sweep_sites_with(&subset, PolarityMode::Tracked, 1, &pool);
        assert_eq!(sweep.sites(), &subset);
        assert_eq!(sweep.get(0).site(), h);
        assert_eq!(sweep.get(1).site(), a);
        assert_eq!(sweep.site(a).to_site_epp(), epp.site(a));
        assert_eq!(sweep.site(h).to_site_epp(), epp.site(h));
    }

    #[test]
    #[should_panic(expected = "was not analyzed")]
    fn subset_sweep_rejects_unanalyzed_site() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let h = c.find("H").unwrap();
        let sweep = epp.sweep_sites_with(&[h], PolarityMode::Tracked, 1, &pool);
        let _ = sweep.site(c.find("A").unwrap());
    }

    #[test]
    fn small_sweeps_run_single_threaded() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sweep = epp.sweep(8, &pool);
        assert!(c.len() < SINGLE_THREAD_SWEEP_THRESHOLD);
        assert_eq!(sweep.threads_used(), 1);
    }

    #[test]
    fn parallel_sweep_reports_workers_and_matches_sequential() {
        // Large enough to cross the threshold.
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let seq = epp.sweep(1, &pool);
        let par = epp.sweep(4, &pool);
        assert_eq!(seq.threads_used(), 1);
        assert!(par.threads_used() >= 2, "got {}", par.threads_used());
        assert_eq!(seq.p_sensitized(), par.p_sensitized());
        assert_eq!(seq.to_site_epps(), par.to_site_epps());
    }

    /// A long AND chain with a side input per stage: cone sizes vary
    /// from the whole chain down to 1, exercising the cost balancing.
    fn ser_gen_like_chain(stages: usize) -> ser_netlist::Circuit {
        let mut src = String::from("INPUT(x0)\n");
        for i in 0..stages {
            src.push_str(&format!("INPUT(s{i})\n"));
        }
        src.push_str(&format!("OUTPUT(g{})\n", stages - 1));
        for i in 0..stages {
            let prev = if i == 0 {
                "x0".to_owned()
            } else {
                format!("g{}", i - 1)
            };
            src.push_str(&format!("g{i} = AND({prev}, s{i})\n"));
        }
        parse_bench(&src, "chain").unwrap()
    }

    #[test]
    fn planless_fallback_is_bit_identical() {
        // When the plan arena is declined for size, sweep_impl runs the
        // per-site reference kernel under the same scheduler. Force the
        // planless path directly and compare against the planned one.
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<ser_netlist::NodeId> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let planned = epp.sweep_sites_with(&sites, polarity, 1, &pool);
            for threads in [1usize, 4] {
                for backend in [KernelBackend::Scalar, KernelBackend::Avx2.sanitized()] {
                    let planless = epp.sweep_impl(&sites, polarity, threads, &pool, None, backend);
                    assert_eq!(planless, planned, "{threads} threads ({polarity:?})");
                }
            }
        }
        // The fallback checked out per-site workspaces, not sweep ones.
        assert!(pool.idle() >= 1);
    }

    #[test]
    fn sweep_workspaces_are_pooled() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle_sweep(), 0);
        let _ = epp.sweep(1, &pool);
        assert_eq!(pool.idle_sweep(), 1);
        let _ = epp.sweep(1, &pool);
        assert_eq!(pool.idle_sweep(), 1, "reused, not re-created");
    }

    #[test]
    fn dead_and_observed_sites_round_trip() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sweep = epp.sweep(1, &pool);
        let u = c.find("u").unwrap();
        assert_eq!(sweep.site(u).p_sensitized(), 0.0);
        assert!(sweep.site(u).per_point().is_empty());
        let b = c.find("b").unwrap();
        assert_eq!(sweep.site(b).p_sensitized(), 1.0);
        assert_eq!(sweep.site(b).arrival_at(b).unwrap().pa(), 1.0);
        assert_eq!(sweep.total_points(), 1, "only b's own arrival is stored");
    }

    #[test]
    fn empty_site_list_is_fine() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sweep = epp.sweep_sites_with(&[], PolarityMode::Tracked, 2, &pool);
        assert!(sweep.is_empty());
        assert_eq!(sweep.len(), 0);
        assert_eq!(sweep.total_points(), 0);
    }
}
