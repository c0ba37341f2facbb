//! The batched whole-circuit sweep engine: precomputed cone plans, a
//! structure-of-arrays four-value kernel, and a work-stealing site
//! scheduler.
//!
//! The paper's EPP pass builds each site's cone, orders it, then
//! propagates tuples through it — per site, per sweep. This module is
//! the compiled form of the same computation:
//!
//! - **Cone plans** ([`ser_netlist::ConePlans`], cached on the shared
//!   [`TopoArtifacts`](ser_netlist::TopoArtifacts)), computed once per
//!   circuit: each site's DFF-clipped cone is its chain path plus its
//!   anchor's shared tail, a bitset window over topological positions.
//!   The kernel walks the path, then the window's set bits in
//!   ascending (topological) order. When the circuit's plans exceed
//!   the byte budget, each batch of sites is swept on plans built for
//!   that batch alone ([`ConePlans::for_sites`]), sized so that the
//!   plans alive on every worker stay within the same budget.
//! - **Position plane** ([`SweepWorkspace`]): one 4-wide tuple per
//!   topological position of the circuit, plus two padding positions
//!   holding the AND and OR identities. At rest each position holds
//!   its signal's off-path (signal-probability) tuple. A site's walk
//!   writes each cone member's tuple at the member's position, so a
//!   pin reads its on-path value if the walk wrote its position and
//!   its signal probability otherwise, with one load and no branch.
//!   The walk restores every position it wrote before the next site.
//! - **Scheduler**: the site list is cut into contiguous,
//!   cone-cost-balanced batches, and workers claim the next batch
//!   through an atomic cursor when they finish their current one.
//!   Each batch runs the single-thread loop into its own
//!   [`SweepResults`], and [`SweepResults::concat`] joins the batches
//!   in position order — the same stitch the service uses for its
//!   executor parts. The join moves each batch's arrivals rather than
//!   copying them.
//!
//! [`EppAnalysis::sweep`] is the one way in. Its [`RunCtx`] carries the
//! choices that change how a sweep runs but never what it computes
//! (threads and scratch pool), plus whether it keeps its arrivals.
//!
//! Results land in a [`SweepResults`] arena — per-point arrivals in a
//! few large segments (one per batch), addressed by per-site ranges —
//! so the steady-state sweep performs no per-site heap allocation at
//! all. Under [`Arrivals::Fold`] the kernel writes each site's
//! arrivals into a per-batch scratch instead, cleared before every
//! site, and the arena keeps only the per-site `P_sensitized` and gate
//! counts: the same emission and the same fold, so those are
//! bit-identical to a kept sweep's, but every per-point read returns
//! `None`. `ser-oracle`'s per-site reference kernel is the definition:
//! the planned kernel is bit-for-bit identical to it (asserted by
//! `tests/sweep_equivalence.rs`) on whole and on per-batch plans,
//! because both run the same rule cores ([`crate::rules`]) on the same
//! inputs in the same order.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use ser_netlist::{ConePlans, NodeId, ObservePoint, TopoArtifacts};
use ser_sp::SpVector;

use crate::engine::{
    combine_sensitization, EppAnalysis, PointEpp, PolarityMode, SiteEpp, WorkspacePool,
};
use crate::four_value::FourValue;
use crate::rules::{propagate_pins, RuleOp, AND_IDENTITY, OR_IDENTITY};

/// Below this many sites a parallel sweep is all coordination and no
/// work: the scheduler runs single-threaded instead. (The old engine
/// hard-coded the same `64` inline.)
pub const SINGLE_THREAD_SWEEP_THRESHOLD: usize = 64;

/// How many batches the scheduler cuts per worker thread. More batches
/// means finer-grained stealing (better balance when cone sizes vary
/// wildly) at the cost of a little queue traffic.
const BATCHES_PER_THREAD: usize = 8;

/// One `(Pa, Pā, P0, P1)` tuple as a 32-byte-aligned lane array: the
/// slot type of the position plane, so a slot never straddles a cache
/// line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
struct Lane4([f64; 4]);

/// Per-thread scratch for the batched sweep: the **position plane**,
/// one `Lane4` per topological position of the circuit plus the two
/// padding positions the plans' AND and OR pin rows read
/// ([`ConePlans::pins_at`]), holding the AND identity `(0, 0, 0, 1)`
/// and the OR identity `(0, 0, 1, 0)`. At rest, position `q` holds the
/// off-path tuple `from_signal_probability(sp)` of the signal at `q`;
/// the kernel writes a cone member's tuple at its position while it
/// walks a site and restores the SP tuple afterwards, so reading or
/// writing one tuple is a single bounds check and one aligned 32-byte
/// copy. Reused across sites, sweeps and circuits (pool it via
/// [`WorkspacePool::checkout_sweep`]).
#[derive(Debug, Default)]
pub struct SweepWorkspace {
    plane: Vec<Lane4>,
    /// Per-site gather buffer for the chain path's observed tuples,
    /// copied out as the walk restores their positions — sorted by
    /// observe index, then merged with the shared tail's (already
    /// sorted) observes so points are emitted in the reference
    /// kernel's observe order.
    path_obs: Vec<(u32, Lane4)>,
    /// The SP vector `plane` was laid out from, pinned so the plane
    /// survives across sweeps: an SP allocation is immutable and its
    /// address unique for as long as anything references it, so
    /// `Arc::ptr_eq` is a sound cache key (the same invariant the
    /// session's multi-cycle cache relies on).
    sp_pin: Option<Arc<SpVector>>,
    /// The artifacts whose topological order `plane` was laid out in.
    /// A weak pin keeps the allocation, and so its address, from being
    /// reused without keeping the artifacts (and their cached plans)
    /// alive: a what-if edit's circuit has new artifacts and a new
    /// order.
    order_pin: Weak<TopoArtifacts>,
}

impl SweepWorkspace {
    /// Fresh, empty scratch (the plane is laid out on first use).
    #[must_use]
    pub fn new() -> Self {
        SweepWorkspace::default()
    }

    /// Lays out (or reuses) the position plane for `sp` in `topo`'s
    /// order. Validation happens here, once per distribution and order
    /// per workspace — a bad SP panics at plane build exactly as
    /// `from_signal_probability` would have panicked at first gather,
    /// instead of corrupting the sweep.
    fn ensure_plane(&mut self, sp: &Arc<SpVector>, topo: &Arc<TopoArtifacts>) {
        let same_sp = self.sp_pin.as_ref().is_some_and(|pin| Arc::ptr_eq(pin, sp));
        if same_sp && std::ptr::eq(self.order_pin.as_ptr(), Arc::as_ptr(topo)) {
            return;
        }
        self.sp_pin = None;
        let sp_of = sp.as_slice();
        self.plane.clear();
        self.plane.extend(
            topo.order()
                .iter()
                .map(|id| Lane4(FourValue::from_signal_probability(sp_of[id.index()]).lanes())),
        );
        self.plane.push(Lane4(AND_IDENTITY));
        self.plane.push(Lane4(OR_IDENTITY));
        self.sp_pin = Some(Arc::clone(sp));
        self.order_pin = Arc::downgrade(topo);
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
    /// sweep's arena), or `None` when the sweep ran under
    /// [`Arrivals::Fold`] and stored no arrivals. A kept site that
    /// reaches no observe point gives `Some` of an empty slice.
    #[must_use]
    pub fn per_point(&self) -> Option<&'a [PointEpp]> {
        let arrivals = self.results.arrivals.as_ref()?;
        Some(arrivals.points_of(self.pos))
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

    /// Converts into the owned per-site form (allocates; prefer the
    /// borrowed accessors in hot paths), or `None` when the sweep
    /// folded its arrivals.
    #[must_use]
    pub fn to_site_epp(&self) -> Option<SiteEpp> {
        Some(SiteEpp::from_parts(
            self.site(),
            self.per_point()?.to_vec(),
            self.p_sensitized(),
            self.on_path_gates(),
        ))
    }
}

/// The per-point arrivals of a sweep run under [`Arrivals::Keep`],
/// addressed by per-site ranges.
///
/// The arrivals are kept as segments, each the `Vec<PointEpp>` of a
/// contiguous run of sites: one for a single-thread sweep, one per
/// batch or part after [`SweepResults::concat`], which moves the
/// parts' segments instead of copying them. Segmentation is invisible
/// through the API, and equality ignores it.
#[derive(Debug, Clone)]
struct ArrivalStore {
    /// `point_off[i]..point_off[i+1]` delimits site `i`'s arrivals in
    /// the concatenation of all segments. Length `sites.len() + 1`.
    point_off: Vec<u32>,
    /// Position of each segment's first site, strictly increasing;
    /// parallel to `segments`. Segment `k` holds the arrivals of sites
    /// `seg_first[k]..seg_first[k + 1]` (or up to the end), starting at
    /// global offset `point_off[seg_first[k]]`.
    seg_first: Vec<u32>,
    segments: Vec<Vec<PointEpp>>,
}

impl PartialEq for ArrivalStore {
    fn eq(&self, other: &Self) -> bool {
        self.point_off == other.point_off
            && self
                .segments
                .iter()
                .flatten()
                .eq(other.segments.iter().flatten())
    }
}

impl ArrivalStore {
    /// A store with no site recorded yet and no segment, with room for
    /// `n_sites` sites in `n_segments` segments.
    fn with_capacity(n_sites: usize, n_segments: usize) -> Self {
        let mut point_off = Vec::with_capacity(n_sites + 1);
        point_off.push(0);
        ArrivalStore {
            point_off,
            seg_first: Vec::with_capacity(n_segments),
            segments: Vec::with_capacity(n_segments),
        }
    }

    /// A store with no site recorded yet and one segment, reserved for
    /// `points_capacity` arrivals.
    fn one_segment(n_sites: usize, points_capacity: usize) -> Self {
        let mut store = ArrivalStore::with_capacity(n_sites, 1);
        store.seg_first.push(0);
        store.segments.push(Vec::with_capacity(points_capacity));
        store
    }

    /// The last segment, which the next recorded site's arrivals are
    /// appended to.
    fn open_segment(&mut self) -> &mut Vec<PointEpp> {
        self.segments
            .last_mut()
            .expect("a store being filled has a segment")
    }

    /// Site `pos`'s arrivals: a binary search over the segment starts,
    /// then a slice of the one segment that holds them.
    fn points_of(&self, pos: usize) -> &[PointEpp] {
        let k = self
            .seg_first
            .partition_point(|&first| first as usize <= pos)
            - 1;
        let base = self.point_off[self.seg_first[k] as usize];
        let lo = (self.point_off[pos] - base) as usize;
        let hi = (self.point_off[pos + 1] - base) as usize;
        &self.segments[k][lo..hi]
    }

    fn total(&self) -> usize {
        *self.point_off.last().expect("non-empty offsets") as usize
    }

    /// Appends a part's arrivals, whose first site sits at position
    /// `site_base` of the joined arena, by moving its segments.
    fn append(&mut self, part: ArrivalStore, site_base: u32) {
        self.seg_first
            .extend(part.seg_first.iter().map(|&f| f + site_base));
        self.segments.extend(part.segments);
        let base = *self.point_off.last().expect("non-empty offsets");
        self.point_off
            .extend(part.point_off[1..].iter().map(|&o| o + base));
    }
}

/// The arena a batched sweep fills: per-site `P_sensitized` and
/// on-path gate counts and, under [`Arrivals::Keep`], the per-point
/// arrivals addressed by per-site ranges — no per-site heap allocation
/// anywhere.
///
/// A sweep run under [`Arrivals::Fold`] stores no arrivals: its
/// per-point reads ([`SweepSiteRef::per_point`],
/// [`to_site_epp`](SweepSiteRef::to_site_epp),
/// [`to_site_epps`](Self::to_site_epps),
/// [`total_points`](Self::total_points)) return `None`, never an empty
/// answer, and it never equals a kept sweep.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The analyzed sites, in request order.
    sites: Vec<NodeId>,
    /// `true` when `sites[i].index() == i` for all `i` (the
    /// whole-circuit sweep), enabling O(1) lookup by node id.
    dense: bool,
    p_sensitized: Vec<f64>,
    on_path_gates: Vec<u32>,
    /// `None` when the sweep folded its arrivals.
    arrivals: Option<ArrivalStore>,
    threads_used: usize,
}

/// Equality compares the *results* only — `threads_used` is scheduling
/// metadata, and a 1-thread sweep must equal an 8-thread sweep. A
/// folded sweep equals only another folded sweep.
impl PartialEq for SweepResults {
    fn eq(&self, other: &Self) -> bool {
        self.sites == other.sites
            && self.p_sensitized == other.p_sensitized
            && self.on_path_gates == other.on_path_gates
            && self.arrivals == other.arrivals
    }
}

impl SweepResults {
    /// An arena for `sites` with no site pushed yet, keeping its
    /// arrivals in `arrivals` (`None` folds them); fill it with
    /// [`push_site`](Self::push_site).
    fn empty(sites: Vec<NodeId>, dense: bool, arrivals: Option<ArrivalStore>) -> Self {
        let n_sites = sites.len();
        SweepResults {
            sites,
            dense,
            p_sensitized: Vec::with_capacity(n_sites),
            on_path_gates: Vec::with_capacity(n_sites),
            arrivals,
            threads_used: 1,
        }
    }

    /// A dense folded arena over every node of a circuit, in id order,
    /// from its per-site numbers: the state the what-if splice builds.
    /// It equals a folded whole-circuit sweep with the same numbers.
    pub(crate) fn dense_folded(p_sensitized: Vec<f64>, on_path_gates: Vec<u32>) -> Self {
        debug_assert_eq!(p_sensitized.len(), on_path_gates.len());
        SweepResults {
            sites: (0..p_sensitized.len()).map(NodeId::from_index).collect(),
            dense: true,
            p_sensitized,
            on_path_gates,
            arrivals: None,
            threads_used: 1,
        }
    }

    /// Records the next site, whose `n_points` arrivals were just
    /// appended to the open segment (if the arena keeps arrivals).
    fn push_site(&mut self, p_sensitized: f64, on_path_gates: u32, n_points: u32) {
        self.p_sensitized.push(p_sensitized);
        self.on_path_gates.push(on_path_gates);
        if let Some(arrivals) = &mut self.arrivals {
            let last = *arrivals.point_off.last().expect("non-empty offsets");
            arrivals.point_off.push(last + n_points);
        }
    }

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

    /// Total per-point arrivals stored across all sites, or `None` when
    /// the sweep folded its arrivals.
    #[must_use]
    pub fn total_points(&self) -> Option<usize> {
        self.arrivals.as_ref().map(ArrivalStore::total)
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
    /// per site — the compatibility shim for the pre-arena API), or
    /// `None` when the sweep folded its arrivals.
    #[must_use]
    pub fn to_site_epps(&self) -> Option<Vec<SiteEpp>> {
        self.arrivals.as_ref()?;
        self.iter().map(|r| r.to_site_epp()).collect()
    }

    /// Stitches several sweep arenas into one, in part order. Per-site
    /// payloads are position-independent, so the result is exactly the
    /// arena a single sweep over the concatenated site list would
    /// produce. Both fan-outs stitch with it: the service joins the
    /// executor parts it cut a sweep into, and [`EppAnalysis::sweep`]
    /// joins the batches its workers claimed. Only the small per-site
    /// arrays are copied (reserved at their summed lengths up front);
    /// each part's arrival segments are moved into the result, so no
    /// arrival is copied and every site's
    /// [`per_point`](SweepSiteRef::per_point) slice stays where its
    /// part put it. The result keeps arrivals only if every part kept
    /// them.
    ///
    /// `threads_used` becomes the number of parts (at least 1): one
    /// executor job per part in the service. The library's threaded
    /// sweep cuts more batches than it has workers, so it overwrites
    /// the count with its worker count.
    #[must_use]
    pub fn concat(parts: Vec<SweepResults>) -> SweepResults {
        let n_sites: usize = parts.iter().map(SweepResults::len).sum();
        let kept: Option<Vec<&ArrivalStore>> = parts.iter().map(|p| p.arrivals.as_ref()).collect();
        let arrivals = kept.map(|kept| {
            let n_segments = kept.iter().map(|a| a.segments.len()).sum();
            ArrivalStore::with_capacity(n_sites, n_segments)
        });
        let mut out = SweepResults {
            sites: Vec::with_capacity(n_sites),
            dense: false,
            p_sensitized: Vec::with_capacity(n_sites),
            on_path_gates: Vec::with_capacity(n_sites),
            arrivals,
            threads_used: parts.len().max(1),
        };
        for part in parts {
            // A part without sites has no arrivals; skipping it keeps
            // the segment starts strictly increasing.
            if part.is_empty() {
                continue;
            }
            let site_base = u32::try_from(out.sites.len()).expect("sites fit u32");
            if let (Some(out_arrivals), Some(part_arrivals)) = (&mut out.arrivals, part.arrivals) {
                out_arrivals.append(part_arrivals, site_base);
            }
            out.sites.extend_from_slice(&part.sites);
            out.p_sensitized.extend_from_slice(&part.p_sensitized);
            out.on_path_gates.extend_from_slice(&part.on_path_gates);
        }
        out.dense = is_dense(&out.sites);
        out
    }
}

/// Whether a sweep stores each site's per-point arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Store every site's arrival at every observe point it reaches,
    /// for the readers that need them: multi-cycle expansion and
    /// single-site reports.
    Keep,
    /// Fold each site's arrivals into its `P_sensitized` through a
    /// per-batch scratch and store none, for callers that read only
    /// the per-site numbers (the daemon's sweeps and every what-if
    /// state). `p_sensitized` and `on_path_gates` are bit-identical to
    /// [`Keep`](Self::Keep)'s; every per-point read of the result
    /// returns `None`.
    Fold,
}

/// How one sweep runs: threads and scratch pool never change what it
/// computes — every combination is bit-identical to the per-site
/// reference definition — and [`arrivals`](Self::arrivals) chooses
/// only whether the per-point arrivals are stored alongside.
///
/// Set a field on top of [`RunCtx::new`] to override it:
///
/// ```
/// use ser_epp::{Arrivals, RunCtx, WorkspacePool};
///
/// let pool = WorkspacePool::new();
/// let ctx = RunCtx {
///     arrivals: Arrivals::Fold,
///     ..RunCtx::new(2, &pool)
/// };
/// assert_eq!(ctx.threads, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunCtx<'a> {
    /// Worker threads; at least 1. A sweep of fewer than
    /// [`SINGLE_THREAD_SWEEP_THRESHOLD`] sites runs on one.
    pub threads: usize,
    /// Where workers check their scratch out of and back into.
    pub pool: &'a WorkspacePool,
    /// Whether the result stores the per-point arrivals.
    pub arrivals: Arrivals,
}

impl<'a> RunCtx<'a> {
    /// `threads` workers over `pool`, with [`Arrivals::Keep`].
    #[must_use]
    pub fn new(threads: usize, pool: &'a WorkspacePool) -> Self {
        RunCtx {
            threads,
            pool,
            arrivals: Arrivals::Keep,
        }
    }
}

/// The rule cores a sweep runs, by the name bench records carry. There
/// is one set: the fused scalar cores of `rules.rs`, which the planned
/// kernel shares with `ser-oracle`'s per-site reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The fused scalar rule cores.
    Scalar,
}

impl KernelBackend {
    /// The rule cores every sweep runs.
    #[must_use]
    pub fn auto() -> KernelBackend {
        KernelBackend::Scalar
    }

    /// The provenance string bench records carry (`"scalar"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
        }
    }
}

/// `true` when `sites[i].index() == i` for all `i`: the whole-circuit
/// site list, which [`SweepResults::site`] looks up in O(1).
fn is_dense(sites: &[NodeId]) -> bool {
    sites.iter().enumerate().all(|(i, s)| s.index() == i)
}

impl EppAnalysis {
    /// The batched sweep: EPP for every site in `sites`, results in one
    /// arena in request order, with or without the per-point arrivals
    /// as `ctx.arrivals` chooses. Pass
    /// `circuit().node_ids()` for the whole circuit, or any subset
    /// (e.g. only the flip-flops, for the multi-cycle frame expansion).
    ///
    /// Bit-for-bit identical to the per-site reference definition,
    /// whatever `ctx` holds. The cone plans are built once per circuit
    /// and cached on the shared artifacts; when the byte budget
    /// declines them, every batch of sites builds plans for itself
    /// ([`ConePlans::for_sites`]), at most
    /// [`ConePlans::sites_per_batch`] sites each. With more than one
    /// thread and at least [`SINGLE_THREAD_SWEEP_THRESHOLD`] sites, the
    /// sites are cut into cone-cost-balanced batches that
    /// `ctx.threads` workers claim through an atomic cursor;
    /// [`SweepResults::concat`] joins them.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.threads` is 0 or any site is out of range.
    #[must_use]
    pub fn sweep(
        &self,
        sites: &[NodeId],
        polarity: PolarityMode,
        ctx: &RunCtx<'_>,
    ) -> SweepResults {
        assert!(ctx.threads > 0, "at least one thread");
        let threads = if sites.len() < SINGLE_THREAD_SWEEP_THRESHOLD {
            1
        } else {
            ctx.threads
        };
        let whole = self.artifacts().cone_plans(self.circuit()).cloned();
        let batch_cap = match whole {
            Some(_) => sites.len(),
            None => ConePlans::sites_per_batch(
                self.circuit(),
                self.artifacts(),
                ConePlans::DEFAULT_BYTE_BUDGET,
                threads,
            ),
        };
        let run = |batch: &[NodeId]| match &whole {
            Some(plans) => self.sweep_batch(batch, polarity, ctx, plans),
            None => {
                let plans = ConePlans::for_sites(self.circuit(), self.artifacts(), batch);
                self.sweep_batch(batch, polarity, ctx, &plans)
            }
        };
        if threads == 1 && sites.len() <= batch_cap {
            return run(sites);
        }

        // --- Batch construction: contiguous position ranges balanced by
        // cone cost (uniform without whole-circuit plans) and capped at
        // `batch_cap` sites, oversubscribed so fast workers steal the
        // tail. -------------------------------------------------------
        let costs: Vec<usize> = match &whole {
            Some(p) => sites.iter().map(|&s| p.plan(s).cost()).collect(),
            None => vec![1; sites.len()],
        };
        let target = match threads {
            1 => usize::MAX,
            _ => (costs.iter().sum::<usize>() / (threads * BATCHES_PER_THREAD)).max(1),
        };
        let mut batches: Vec<Range<usize>> = Vec::new();
        let mut start = 0usize;
        let mut acc = 0usize;
        for (pos, &c) in costs.iter().enumerate() {
            acc += c;
            if acc >= target || pos + 1 - start == batch_cap {
                batches.push(start..pos + 1);
                start = pos + 1;
                acc = 0;
            }
        }
        if start < sites.len() {
            batches.push(start..sites.len());
        }

        let workers = threads.min(batches.len());
        let cursor = AtomicUsize::new(0);
        let mut parts: Vec<(usize, SweepResults)> = Vec::with_capacity(batches.len());
        let claim = || {
            let mut done = Vec::new();
            while let Some(range) = batches.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                done.push((range.start, run(&sites[range.clone()])));
            }
            done
        };
        if workers == 1 {
            parts = claim();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
                for h in handles {
                    parts.extend(h.join().expect("sweep worker panicked"));
                }
            });
        }

        // Batches partition the site list contiguously, so joining them
        // in position order restores it exactly.
        parts.sort_unstable_by_key(|&(start, _)| start);
        let mut results = SweepResults::concat(parts.into_iter().map(|(_, part)| part).collect());
        results.threads_used = workers;
        results
    }

    /// The single-thread sweep loop over one batch's plans: one scratch
    /// checkout, then every site in order into a fresh arena. Under
    /// [`Arrivals::Keep`] the arena holds one arrival segment, reserved
    /// up front at its exact size. Under [`Arrivals::Fold`] the kernel
    /// emits into a scratch that lives for this batch and is cleared
    /// before each site, so only the fold survives. The threaded sweep
    /// runs it once per claimed batch, and its segment outlives the
    /// stitch.
    fn sweep_batch(
        &self,
        sites: &[NodeId],
        polarity: PolarityMode,
        ctx: &RunCtx<'_>,
        plans: &ConePlans,
    ) -> SweepResults {
        let store = match ctx.arrivals {
            Arrivals::Keep => {
                let total_points: usize = sites.iter().map(|&s| plans.plan(s).observe_len()).sum();
                Some(ArrivalStore::one_segment(sites.len(), total_points))
            }
            Arrivals::Fold => None,
        };
        let mut results = SweepResults::empty(sites.to_vec(), is_dense(sites), store);
        let mut ws = ctx.pool.checkout_sweep();
        // One plane build per workspace per SP vector and order — and
        // usually none: pooled workspaces keep their plane pinned to
        // the exact SP allocation and artifacts, so repeat sweeps,
        // later batches and the service's single-site requests skip
        // straight through.
        ws.ensure_plane(self.sp_arc(), self.artifacts());
        let mut folded: Vec<PointEpp> = Vec::new();
        for &site in sites {
            let points_out = match &mut results.arrivals {
                Some(store) => store.open_segment(),
                None => {
                    folded.clear();
                    &mut folded
                }
            };
            let (p_sens, gates, n_points) =
                self.plan_kernel(plans, site, polarity, &mut ws, points_out);
            results.push_site(p_sens, gates, n_points);
        }
        ctx.pool.give_back_sweep(ws);
        results
    }

    /// The allocation-free plan-driven kernel for one site: evaluates
    /// the suffix-shared cone — the chain path, then the shared tail —
    /// on the workspace's position plane, appends the per-point
    /// arrivals to `points_out`, and returns
    /// `(p_sensitized, on-path gates, points appended)`.
    ///
    /// Every member, on the path or in the tail, is one step
    /// `plane[q] = rule(q, plane[pins of q])`: the pins are positions,
    /// and a position the walk wrote holds the on-path tuple while any
    /// other holds its signal-probability tuple, so no pin is
    /// classified (the `plan.rs` module docs give the three facts that
    /// make this exact). **Path members** are reached by `next_of`
    /// hops; a chain node's value is read only by the next path
    /// member, so the walk restores its position right after that
    /// member is written, copying its observed tuples out first.
    /// **Tail members** are the set bits of the anchor's window, walked
    /// in ascending position order. Observe points are the sorted path
    /// observes merged with the tail's observe row (ascending observe
    /// indices), so emission order matches the reference kernel's
    /// observe order exactly. A second pass over the window then
    /// restores the tail's positions, leaving the plane at rest.
    ///
    /// Per gate, the rule is dispatched **once** ([`RuleOp::of`],
    /// outside the per-pin loop), and AND/OR gates read fixed rows of
    /// four pins padded with the identity positions, so their loop has
    /// no per-gate trip count.
    ///
    /// Performs the exact same float operations in the exact same order
    /// as `ser-oracle`'s per-site reference kernel: both call the same
    /// rule cores and the same [`PolarityMode::apply`], so the two are
    /// bit-identical by construction.
    fn plan_kernel(
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
        let topo = self.artifacts();
        let sp = self.sp_arc().as_slice();
        let SweepWorkspace {
            plane, path_obs, ..
        } = ws;
        debug_assert_eq!(
            plane.len(),
            plans.len() + 2,
            "position plane laid out at scratch checkout"
        );
        let at_rest = |id: NodeId| Lane4(FourValue::off_path_lanes(sp[id.index()]));

        // Chain path: walk `next_of` hops from the site; the last hop
        // lands on the anchor (the tail's first member). When `l == 0`
        // the site *is* the anchor and the walk is empty. The path's
        // observes (the site and the chain nodes before the anchor)
        // gather into the sort buffer; the anchor's live in the tail's
        // observe row.
        path_obs.clear();
        let mut prev = site;
        let mut prev_pos = topo.position(site) as usize;
        plane[prev_pos] = Lane4(FourValue::error_site().lanes());
        for _ in 0..l {
            for &obs in plan.observes_of(prev) {
                path_obs.push((obs, plane[prev_pos]));
            }
            let id = plan.next_of(prev);
            let q = topo.position(id);
            plane[q as usize] = eval(plans, plane, q, polarity);
            plane[prev_pos] = at_rest(prev);
            prev = id;
            prev_pos = q as usize;
        }

        // Shared tail: the window's set bits in ascending position
        // order, the anchor (already written) first.
        let mut positions = tail.positions();
        let anchor = positions.next().expect("a tail holds its anchor");
        debug_assert_eq!(anchor as usize, prev_pos, "the path ends at the anchor");
        for q in positions {
            plane[q as usize] = eval(plans, plane, q, polarity);
        }

        // Emit points in observe order: merge the sorted path observes
        // with the tail's observe row (indices are unique per site, so
        // the merge is a strict interleave — the reference emission
        // order). A tail observe's tuple sits at its signal's position.
        path_obs.sort_unstable_by_key(|&(obs, _)| obs);
        let observe: &[ObservePoint] = topo.observe_points();
        let first = points_out.len();
        let mut emit = |obs: u32, lanes: Lane4| {
            points_out.push(PointEpp {
                point: observe[obs as usize],
                value: FourValue::from_lanes(lanes.0),
            });
        };
        let mut path = path_obs.iter().copied().peekable();
        for obs in tail.observes() {
            while let Some((o, lanes)) = path.next_if(|r| r.0 < obs) {
                emit(o, lanes);
            }
            emit(obs, plane[plans.observe_pos(obs) as usize]);
        }
        path.for_each(|(o, lanes)| emit(o, lanes));

        // Put the tail's positions back at rest for the next site.
        let order = topo.order();
        for q in tail.positions() {
            plane[q as usize] = at_rest(order[q as usize]);
        }

        let p_sensitized =
            combine_sensitization(points_out[first..].iter().map(PointEpp::p_arrival));
        let gates = u32::try_from(l + tail.len() - 1).expect("cone fits u32");
        let n_points = u32::try_from(points_out.len() - first).expect("points fit u32");
        (p_sensitized, gates, n_points)
    }
}

/// One member's step of the kernel: the rule of the gate at position
/// `q`, over its pins' tuples on the position plane, seen through the
/// polarity mode.
#[inline(always)]
fn eval(plans: &ConePlans, plane: &[Lane4], q: u32, polarity: PolarityMode) -> Lane4 {
    let op = RuleOp::of(plans.kind_at(q));
    let out = propagate_pins(op, plans.pins_at(q), |p| plane[p as usize].0);
    Lane4(polarity.apply(out).lanes())
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

    /// The whole-circuit [`PolarityMode::Tracked`] sweep on `threads`
    /// workers.
    fn sweep_all(epp: &EppAnalysis, threads: usize, pool: &WorkspacePool) -> SweepResults {
        let sites: Vec<NodeId> = epp.circuit().node_ids().collect();
        epp.sweep(&sites, PolarityMode::Tracked, &RunCtx::new(threads, pool))
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

    /// The whole sweep against one-site sweeps; the oracle check
    /// against `ser-oracle`'s reference kernel lives in
    /// `tests/sweep_equivalence.rs`.
    #[test]
    fn sweep_matches_per_site_reference_bitwise() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<ser_netlist::NodeId> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let sweep = epp.sweep(&sites, polarity, &RunCtx::new(1, &pool));
            assert_eq!(sweep.len(), c.len());
            for id in c.node_ids() {
                let reference = epp.site_with(id, polarity);
                let batched = sweep.site(id);
                assert_eq!(batched.site(), reference.site());
                // Exact f64 equality — bit-identity, not epsilon.
                assert_eq!(batched.p_sensitized(), reference.p_sensitized());
                assert_eq!(batched.on_path_gates(), reference.on_path_gates());
                assert_eq!(batched.per_point(), Some(reference.per_point()));
                assert_eq!(batched.to_site_epp().unwrap(), reference);
            }
        }
    }

    /// The same analysis on fresh artifacts whose plan slot is primed
    /// declined, as the byte budget leaves it: its sweeps run on
    /// per-batch plans.
    fn declined(epp: &EppAnalysis) -> EppAnalysis {
        let topo = ser_netlist::TopoArtifacts::compute(epp.circuit()).unwrap();
        assert!(topo.prime_cone_plans(None));
        EppAnalysis::from_artifacts(
            Arc::clone(epp.circuit_arc()),
            Arc::new(topo),
            Arc::clone(epp.sp_arc()),
        )
    }

    #[test]
    fn forced_backends_are_bit_identical() {
        // Big enough that chains, shared tails and both gather paths
        // are all exercised; the two plan sources a sweep can run on
        // (the circuit's cached plans and, once the slot is declined,
        // per-batch plans) must agree bitwise with one-site sweeps.
        let c = ser_gen_like_chain(120);
        let epp = analysis(&c);
        let per_batch = declined(&epp);
        let pool = WorkspacePool::new();
        let sites: Vec<ser_netlist::NodeId> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let ctx = RunCtx::new(1, &pool);
            let planned = epp.sweep(&sites, polarity, &ctx);
            assert_eq!(
                planned,
                per_batch.sweep(&sites, polarity, &ctx),
                "{polarity:?}"
            );
            for &site in &sites {
                assert_eq!(
                    planned.site(site).to_site_epp().unwrap(),
                    per_batch.site_with(site, polarity),
                    "{polarity:?}"
                );
            }
        }
        assert!(per_batch.artifacts().cone_plans_primed().is_none());
    }

    #[test]
    fn kernel_backend_is_the_scalar_cores() {
        assert_eq!(KernelBackend::auto(), KernelBackend::Scalar);
        assert_eq!(KernelBackend::auto().name(), "scalar");
    }

    #[test]
    fn sp_plane_is_pinned_and_rebuilt_on_new_sp() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let _ = sweep_all(&epp, 1, &pool);
        {
            let slots = pool.checkout_sweep();
            assert!(slots
                .sp_pin
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, epp.sp_arc())));
            assert!(std::ptr::eq(
                slots.order_pin.as_ptr(),
                Arc::as_ptr(epp.artifacts())
            ));
            assert_eq!(slots.plane.len(), c.len() + 2);
            pool.give_back_sweep(slots);
        }
        // A different SP allocation (same values) must rebuild the plane.
        let sp2 = IndependentSp::new()
            .compute(&c, &InputProbs::default())
            .unwrap();
        let epp2 = EppAnalysis::new(&c, sp2).unwrap();
        let r1 = sweep_all(&epp, 1, &pool);
        let r2 = sweep_all(&epp2, 1, &pool);
        assert_eq!(r1, r2);
        let slots = pool.checkout_sweep();
        assert!(slots
            .sp_pin
            .as_ref()
            .is_some_and(|p| Arc::ptr_eq(p, epp2.sp_arc())));
        pool.give_back_sweep(slots);

        // The same SP allocation over another circuit of as many nodes
        // (so another position order) must lay the plane out again:
        // the order is pinned too.
        // Gates declared consumers first, so its order is not FIG1's.
        let other = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(h)\nh = NOR(g, d)\ng = NAND(f, c)\nf = XOR(e, a)\ne = OR(d, b)\nd = AND(a, c)\nc = NOT(b)\n",
            "other",
        )
        .unwrap();
        assert_eq!(other.len(), c.len());
        let topo = Arc::new(ser_netlist::TopoArtifacts::compute(&other).unwrap());
        assert_ne!(topo.order(), epp.artifacts().order());
        let epp3 = EppAnalysis::from_artifacts(other, Arc::clone(&topo), Arc::clone(epp2.sp_arc()));
        let shared = sweep_all(&epp3, 1, &pool);
        assert_eq!(shared, sweep_all(&epp3, 1, &WorkspacePool::new()));
        let slots = pool.checkout_sweep();
        assert!(std::ptr::eq(slots.order_pin.as_ptr(), Arc::as_ptr(&topo)));
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
        let sweep = epp.sweep(&subset, PolarityMode::Tracked, &RunCtx::new(1, &pool));
        assert_eq!(sweep.sites(), &subset);
        assert_eq!(sweep.get(0).site(), h);
        assert_eq!(sweep.get(1).site(), a);
        assert_eq!(sweep.site(a).to_site_epp().unwrap(), epp.site(a));
        assert_eq!(sweep.site(h).to_site_epp().unwrap(), epp.site(h));
    }

    #[test]
    #[should_panic(expected = "was not analyzed")]
    fn subset_sweep_rejects_unanalyzed_site() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let h = c.find("H").unwrap();
        let sweep = epp.sweep(&[h], PolarityMode::Tracked, &RunCtx::new(1, &pool));
        let _ = sweep.site(c.find("A").unwrap());
    }

    #[test]
    fn small_sweeps_run_single_threaded() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sweep = sweep_all(&epp, 8, &pool);
        assert!(c.len() < SINGLE_THREAD_SWEEP_THRESHOLD);
        assert_eq!(sweep.threads_used(), 1);
    }

    #[test]
    fn parallel_sweep_reports_workers_and_matches_sequential() {
        // Large enough to cross the threshold.
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let seq = sweep_all(&epp, 1, &pool);
        let par = sweep_all(&epp, 4, &pool);
        assert_eq!(seq.threads_used(), 1);
        assert!(par.threads_used() >= 2, "got {}", par.threads_used());
        assert_eq!(seq.p_sensitized(), par.p_sensitized());
        assert_eq!(seq.to_site_epps().unwrap(), par.to_site_epps().unwrap());
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
        // When the plan arena is declined for size, the sweep runs the
        // planned kernel on per-batch plans under the same scheduler.
        // Prime the slot declined and compare against the planned one.
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let per_batch = declined(&epp);
        let pool = WorkspacePool::new();
        let sites: Vec<ser_netlist::NodeId> = c.node_ids().collect();
        for polarity in [PolarityMode::Tracked, PolarityMode::Merged] {
            let planned = epp.sweep(&sites, polarity, &RunCtx::new(1, &pool));
            for threads in [1usize, 4] {
                let planless = per_batch.sweep(&sites, polarity, &RunCtx::new(threads, &pool));
                assert_eq!(planless, planned, "{threads} threads ({polarity:?})");
            }
        }
        // The fallback never settled whole-circuit plans.
        assert!(per_batch.artifacts().cone_plans_primed().is_none());
    }

    #[test]
    fn sweep_workspaces_are_pooled() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle_sweep(), 0);
        let _ = sweep_all(&epp, 1, &pool);
        assert_eq!(pool.idle_sweep(), 1);
        let _ = sweep_all(&epp, 1, &pool);
        assert_eq!(pool.idle_sweep(), 1, "reused, not re-created");
    }

    #[test]
    fn dead_and_observed_sites_round_trip() {
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sweep = sweep_all(&epp, 1, &pool);
        let u = c.find("u").unwrap();
        assert_eq!(sweep.site(u).p_sensitized(), 0.0);
        assert!(sweep.site(u).per_point().unwrap().is_empty());
        let b = c.find("b").unwrap();
        assert_eq!(sweep.site(b).p_sensitized(), 1.0);
        let at_b = sweep
            .site(b)
            .per_point()
            .unwrap()
            .iter()
            .find(|p| p.point.signal() == b)
            .unwrap();
        assert_eq!(at_b.value.pa(), 1.0);
        assert_eq!(
            sweep.total_points(),
            Some(1),
            "only b's own arrival is stored"
        );
    }

    /// A kept sweep's arrival segments.
    fn segments(r: &SweepResults) -> &[Vec<PointEpp>] {
        &r.arrivals.as_ref().expect("kept sweep").segments
    }

    /// Sweeps `sites` as one single-thread part per chunk of `cuts`
    /// (chunk boundaries, so empty chunks give zero-site parts).
    fn sweep_parts(
        epp: &EppAnalysis,
        sites: &[NodeId],
        cuts: &[usize],
        pool: &WorkspacePool,
    ) -> Vec<SweepResults> {
        cuts.windows(2)
            .map(|w| {
                let ctx = RunCtx::new(1, pool);
                epp.sweep(&sites[w[0]..w[1]], PolarityMode::Tracked, &ctx)
            })
            .collect()
    }

    #[test]
    fn concat_moves_part_arrivals_in_place() {
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<NodeId> = c.node_ids().collect();
        let n = sites.len();
        let parts = sweep_parts(&epp, &sites, &[0, 37, 37, 150, n], &pool);
        let before: Vec<*const PointEpp> = parts
            .iter()
            .flat_map(|p| p.iter().map(|r| r.per_point().unwrap().as_ptr()))
            .collect();
        let stitched = SweepResults::concat(parts);
        let after: Vec<*const PointEpp> = stitched
            .iter()
            .map(|r| r.per_point().unwrap().as_ptr())
            .collect();
        assert_eq!(
            after, before,
            "every site's arrivals stay where its part put them"
        );
        assert_eq!(
            segments(&stitched).len(),
            3,
            "the zero-site part adds no segment"
        );
        assert_eq!(stitched, sweep_all(&epp, 1, &pool));
    }

    #[test]
    fn empty_parts_and_zero_point_boundary_sites_read_back_bitwise() {
        // `a` and `u` reach no observe point, `b` observes itself: cut
        // so that zero-point sites sit on every part boundary, with
        // zero-site parts in between and at both ends.
        let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(b)\nu = NOT(a)\n", "dead").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<NodeId> = c.node_ids().collect();
        let n = sites.len();
        let whole = sweep_all(&epp, 1, &pool);
        for cuts in [
            vec![0, 0, 1, 1, 2, 2, n, n],
            vec![0, 1, n],
            vec![0, 2, n],
            vec![0, n, n],
        ] {
            let stitched = SweepResults::concat(sweep_parts(&epp, &sites, &cuts, &pool));
            assert_eq!(stitched, whole, "cuts {cuts:?}");
            assert_eq!(stitched.total_points(), Some(1), "cuts {cuts:?}");
            assert!(stitched.dense);
            for &site in &sites {
                let (got, want) = (stitched.site(site), whole.site(site));
                assert_eq!(got.per_point(), want.per_point(), "cuts {cuts:?}");
                assert_eq!(
                    got.p_sensitized().to_bits(),
                    want.p_sensitized().to_bits(),
                    "cuts {cuts:?}"
                );
                assert_eq!(got.on_path_gates(), want.on_path_gates());
            }
        }
        let nothing = SweepResults::concat(sweep_parts(&epp, &sites, &[0, 0, 0], &pool));
        assert!(nothing.is_empty());
        assert_eq!(nothing.total_points(), Some(0));
        assert_eq!(nothing, SweepResults::concat(Vec::new()));
    }

    #[test]
    fn segmentation_is_invisible_to_equality() {
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let one = sweep_all(&epp, 1, &pool);
        let many = sweep_all(&epp, 4, &pool);
        assert_eq!(segments(&one).len(), 1);
        assert!(segments(&many).len() > 1, "got {}", segments(&many).len());
        assert_eq!(one, many);
        assert_eq!(many, one);
        // Stitching stitched results keeps every segment.
        let sites: Vec<NodeId> = c.node_ids().collect();
        let halves = [
            epp.sweep(&sites[..300], PolarityMode::Tracked, &RunCtx::new(4, &pool)),
            epp.sweep(&sites[300..], PolarityMode::Tracked, &RunCtx::new(4, &pool)),
        ];
        let n_segments: usize = halves.iter().map(|h| segments(h).len()).sum();
        let nested = SweepResults::concat(halves.into());
        assert_eq!(segments(&nested).len(), n_segments);
        assert_eq!(nested, one);
    }

    #[test]
    fn declined_segments_hold_no_slack() {
        // Per-batch plans reserve each batch's segment at its exact
        // size, as whole plans do.
        let c = ser_gen_like_chain(200);
        let per_batch = declined(&analysis(&c));
        let pool = WorkspacePool::new();
        let sites: Vec<NodeId> = c.node_ids().collect();
        let sweep = per_batch.sweep(&sites, PolarityMode::Tracked, &RunCtx::new(4, &pool));
        assert!(segments(&sweep).len() > 1);
        let capacity: usize = segments(&sweep).iter().map(Vec::capacity).sum();
        assert_eq!(Some(capacity), sweep.total_points());
    }

    #[test]
    fn folded_results_never_pass_for_kept_ones() {
        let c = ser_gen_like_chain(200);
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sites: Vec<NodeId> = c.node_ids().collect();
        let keep = RunCtx::new(1, &pool);
        let fold = RunCtx {
            arrivals: Arrivals::Fold,
            ..keep
        };
        // An empty folded sweep is folded, not an empty kept one.
        let empty = epp.sweep(&[], PolarityMode::Tracked, &fold);
        assert_eq!(empty.total_points(), None);
        assert!(empty.to_site_epps().is_none());
        assert_ne!(empty, epp.sweep(&[], PolarityMode::Tracked, &keep));
        // One folded part folds the stitch.
        let folded = epp.sweep(&sites, PolarityMode::Tracked, &fold);
        let mixed = SweepResults::concat(vec![
            epp.sweep(&sites[..100], PolarityMode::Tracked, &keep),
            epp.sweep(&sites[100..], PolarityMode::Tracked, &fold),
        ]);
        assert_eq!(mixed, folded);
        assert_eq!(mixed.total_points(), None);
        let threaded = RunCtx { threads: 4, ..fold };
        assert_eq!(epp.sweep(&sites, PolarityMode::Tracked, &threaded), folded);
    }

    #[test]
    fn empty_site_list_is_fine() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let epp = analysis(&c);
        let pool = WorkspacePool::new();
        let sweep = epp.sweep(&[], PolarityMode::Tracked, &RunCtx::new(2, &pool));
        assert!(sweep.is_empty());
        assert_eq!(sweep.len(), 0);
        assert_eq!(sweep.total_points(), Some(0));
    }
}
