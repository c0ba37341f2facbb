//! Precomputed per-site cone plans — the compiled form of the paper's
//! "path construction" step — in a **suffix-shared arena**.
//!
//! The per-site EPP pass needs, for every error site: the DFF-clipped
//! fanout cone in topological order, each cone member's gate kind, and
//! each member fanin classified as **on-path** (it carries a four-value
//! tuple, addressed by its cone-local position) or **off-path** (it is
//! described by its signal probability, addressed by node id). The
//! legacy sweep rediscovered all of this per site per sweep; the flat
//! arena of earlier revisions precomputed it once per circuit, but
//! stored every site's full cone — and in gate-level netlists most of
//! those members are duplicated suffixes: every node on a
//! single-fanout chain has a cone equal to *its path to the next
//! multi-fanout (or fanout-free) node* plus **that node's** cone.
//!
//! # The suffix-shared representation
//!
//! Classify every node by its DFF-clipped combinational fanout count:
//!
//! - **anchor** — 0 or ≥ 2 successors. Its cone is materialized once in
//!   the shared **tail arena** as a slice of ascending topological
//!   *positions* — and nothing else. A tail stores no per-member kinds
//!   or fanin refs: those live in circuit-sized **per-position tables**
//!   (`pos_kind`, `pos_fanin_off`/`pos_fanins`) shared by every tail,
//!   so the builder's phase-2 output is four bytes per stored member.
//! - **chain node** — exactly 1 successor. Its cone is *not* stored:
//!   it is the path `self → next → … → anchor` followed by the
//!   anchor's shared tail. Per node we store only O(1) scalars: the
//!   next chain hop, the tail id, the path length, and suffix
//!   pin/observe counts for O(1) `cost()`/`observe_len()`.
//!
//! Chain edges form in-trees toward anchors, so many sites share one
//! tail entry — the stored member count drops by the chain-sharing
//! factor, and the per-member footprint drops to one `u32`, which
//! together is what broke the old builder's store-bandwidth wall.
//!
//! On-path/off-path fanin classification is *not* precomputed per tail
//! member. Each `pos_fanins` entry carries the fanin's topological
//! position plus its packed **off-path** reference; the sweep kernel
//! decides on-path membership at evaluation time with an epoch-stamped
//! position scratch: as it evaluates a cone it stamps each member's
//! position with the member's cone-local index, and a fanin whose
//! position carries the current epoch's stamp is on-path at the
//! stamped index. Three facts make this exact (proptest-enforced
//! against the per-site-DFS [`FlatConePlans`] oracle in
//! `tests/plan_builder.rs`):
//!
//! 1. A path member's only possible on-path fanin is its path
//!    predecessor (a chain node has exactly one combinational
//!    successor, so any other cone member reading it would make it an
//!    anchor) — the kernel resolves path fanins by comparing the pin
//!    against the previously walked node, and no tail member can read
//!    a path chain node for the same reason.
//! 2. Every fanin sits at a strictly lower topological position than
//!    its consumer and cone members are evaluated in ascending
//!    position order, so stamping members as they are written covers
//!    every on-path pin before it is read.
//! 3. Cone order is path positions ascending followed by the anchor's
//!    cone (all at strictly greater topological positions), which is
//!    exactly the flat arena's position-sorted member order; observe
//!    indices are unique per site, so merging the sorted path observes
//!    with the tail's observes preserves the reference emission order.
//!
//! # How the plans are built
//!
//! Phase 1 walks positions reverse-topologically and merges cones
//! **only for anchors** — merge inputs are virtual two-segment
//! sequences (a lazily walked chain path plus an already-built tail
//! slice), so the dominant single-successor `memcpy` of the old
//! builder disappears entirely, and the merged position arena is
//! adopted as the tail arena zero-copy. Phase 2 only records tail
//! bounds, per-tail pin totals, and sorted observe refs; the
//! per-position kind/fanin tables are a single linear pass over the
//! circuit. The member budget is enforced in the sequential phase 1
//! and counts **stored** (deduplicated) members: one entry per chain
//! node plus the shared tail arena — the number that reflects actual
//! memory.
//!
//! The original per-site-DFS builder is retained as
//! [`FlatConePlans`] — the semantic definition the suffix-shared
//! builder is checked against bit for bit.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::artifacts::TopoArtifacts;
use crate::cancel::{CancelCause, CancelToken};
use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;

/// Bit marking a fanin reference as off-path (node index) rather than
/// on-path (cone-local index).
const OFF_PATH_BIT: u32 = 1 << 31;

/// Sentinel for "no next chain hop" (the node is an anchor).
pub(crate) const NO_NEXT: u32 = u32::MAX;

/// One decoded fanin reference of a cone member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaninRef {
    /// The fanin is inside the cone: its value is the four-value tuple
    /// at this cone-local position.
    OnPath(usize),
    /// The fanin is outside the cone: its value is the signal
    /// probability of this node (by [`NodeId::index`]).
    OffPath(usize),
}

impl FaninRef {
    /// Decodes a packed reference.
    #[inline]
    #[must_use]
    pub fn decode(raw: u32) -> Self {
        if raw & OFF_PATH_BIT == 0 {
            FaninRef::OnPath(raw as usize)
        } else {
            FaninRef::OffPath((raw & !OFF_PATH_BIT) as usize)
        }
    }

    fn encode_on_path(local: u32) -> u32 {
        debug_assert_eq!(local & OFF_PATH_BIT, 0, "cone larger than 2^31");
        local
    }

    fn encode_off_path(node: NodeId) -> u32 {
        let idx = u32::try_from(node.index()).expect("node index fits u32");
        debug_assert_eq!(idx & OFF_PATH_BIT, 0, "circuit larger than 2^31 nodes");
        idx | OFF_PATH_BIT
    }
}

/// One site's plan fully decoded into owned, self-contained form — the
/// comparison currency between the suffix-shared [`ConePlans`] and the
/// flat [`FlatConePlans`] oracle (both [`materialize`](ConePlan::materialize)
/// to this), and a convenient debugging view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SitePlan {
    /// The error site.
    pub site: NodeId,
    /// Cone members in topological order; `members[0]` is the site.
    pub members: Vec<NodeId>,
    /// Gate kind per member.
    pub kinds: Vec<GateKind>,
    /// Decoded fanin references per member, in fanin declaration order
    /// (duplicates preserved); empty for member 0.
    pub fanin_refs: Vec<Vec<FaninRef>>,
    /// `(observe index, cone-local position)` pairs ordered by observe
    /// index.
    pub observe_refs: Vec<(u32, u32)>,
}

/// The compiled cone plans of every site of one circuit in the
/// suffix-shared arena (the `plan.rs` module docs describe the layout
/// and the builder).
///
/// Per-node tables hold each chain node's O(1) entry (next hop, tail
/// id, path length, suffix counts); the tail table stores each
/// anchor's cone exactly once. A site's logical cone is its chain path
/// followed by its anchor's shared tail — reconstructed on the fly by
/// the sweep kernel and by [`ConePlan::materialize`].
///
/// # Examples
///
/// ```
/// use ser_netlist::{parse_bench, FaninRef, TopoArtifacts};
///
/// let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
/// let topo = TopoArtifacts::compute(&c)?;
/// let plans = topo.cone_plans(&c).expect("tiny circuit fits the plan budget");
/// let a = c.find("a").unwrap();
/// let plan = plans.plan(a);
/// assert_eq!(plan.len(), 2); // a itself plus the AND gate
/// // The AND gate reads one on-path fanin (a, cone-local 0) and one
/// // off-path fanin (b, by node id).
/// let decoded = plan.materialize(&c);
/// let b = c.find("b").unwrap();
/// assert!(decoded.fanin_refs[1].contains(&FaninRef::OnPath(0)));
/// assert!(decoded.fanin_refs[1].contains(&FaninRef::OffPath(b.index())));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConePlans {
    // ---- per-node tables, indexed by `NodeId::index` (length n) ----
    /// Next hop on the chain path (node index); [`NO_NEXT`] for
    /// anchors.
    pub(crate) chain_next: Vec<u32>,
    /// Tail-table id of the node's anchor (an anchor's own id).
    pub(crate) tail_of: Vec<u32>,
    /// Number of path members before the shared tail (0 for anchors).
    pub(crate) prefix_len: Vec<u32>,
    /// Fanin pins of the path members strictly after this node, the
    /// anchor included — with the tail's interior pin count this gives
    /// O(1) [`cost`](ConePlan::cost).
    pub(crate) path_pins_after: Vec<u32>,
    /// Observe points on the path from this node (inclusive) to the
    /// anchor (exclusive) — O(1) [`observe_len`](ConePlan::observe_len).
    pub(crate) path_obs_from: Vec<u32>,
    /// CSR offsets per node into `node_obs`. Length `n + 1`.
    pub(crate) node_obs_off: Vec<u32>,
    /// Observe-point indices of each node's signal (total = number of
    /// observe points — one signal each).
    pub(crate) node_obs: Vec<u32>,
    // ---- per-position tables, indexed by topological position
    //      (length n; tiny, cache-resident) ----
    /// Node id at each position (the topological order).
    pub(crate) pos_node: Vec<NodeId>,
    /// Gate kind at each position.
    pub(crate) pos_kind: Vec<GateKind>,
    /// CSR offsets per position into `pos_fanins`. Length `n + 1`.
    pub(crate) pos_fanin_off: Vec<u32>,
    /// Fanin pins in declaration order (duplicates preserved) as
    /// `(fanin topological position, packed off-path ref)` — the
    /// off-path encoding of a pin is cone-independent, so it is
    /// computed exactly once here.
    pub(crate) pos_fanins: Vec<(u32, u32)>,
    // ---- shared tail table, one entry per anchor, in topological
    //      position order of the anchors ----
    /// Per tail: start of the cone's slice in `tail_positions`.
    pub(crate) tail_start: Vec<u32>,
    /// Per tail: end of that slice.
    pub(crate) tail_end: Vec<u32>,
    /// Per tail: total fanin pin count of the members after the anchor
    /// — O(1) [`cost`](ConePlan::cost).
    pub(crate) tail_pins: Vec<u32>,
    /// Every anchor's cone as ascending topological positions (anchor
    /// first) — the phase-1 merge arena, adopted as-is. A member's
    /// kind and pins resolve through the per-position tables; on-path
    /// classification happens in the consumer against its walked cone
    /// (see the [module docs](self)).
    pub(crate) tail_positions: Vec<u32>,
    /// Per tail: range into `tail_obs`. Length `T + 1`.
    pub(crate) tail_obs_off: Vec<u32>,
    /// `(observe index, tail-local position)` pairs ordered by observe
    /// index.
    pub(crate) tail_obs: Vec<(u32, u32)>,
    // ---- global ----
    /// Largest *logical* cone size over all sites (workspace sizing).
    pub(crate) max_cone_len: usize,
    /// Number of chain nodes (each stores one deduplicated member).
    pub(crate) chain_count: usize,
    /// Sum of logical cone sizes over all sites — what the flat arena
    /// used to store.
    pub(crate) logical_members: u64,
    /// Sum of per-site reachable observe points — the exact arena size
    /// a whole-circuit sweep's per-point results need.
    pub(crate) logical_observe_refs: u64,
}

impl ConePlans {
    /// Default budget for the **stored** (deduplicated) member count of
    /// one circuit's plan arena: one entry per chain node plus the
    /// shared tail arena. Stored members are Θ(n²) in the worst case
    /// (densely reconvergent anchor-heavy circuits), so consumers must
    /// be prepared for [`build`](Self::build) to decline and fall back
    /// to per-site traversal.
    ///
    /// Earlier revisions budgeted *logical* members (sum of cone
    /// sizes); chain-dominated circuits whose logical total blew that
    /// budget now fit comfortably, because their suffixes are stored
    /// once.
    pub const DEFAULT_MEMBER_BUDGET: usize = 1 << 26;

    /// How many contiguous anchor ranges the parallel packing cuts per
    /// worker (oversubscription + an atomic claim cursor balance the
    /// unknown cone sizes).
    const CHUNKS_PER_THREAD: usize = 8;

    /// How many phase-1 anchor merges / phase-2 tail packings run
    /// between cooperative cancellation checkpoints. Small enough that
    /// a trip lands within a few milliseconds even on the largest
    /// benches, large enough that the poll is free.
    pub(crate) const CANCEL_CHECK_EVERY: usize = 4096;

    /// Builds the suffix-shared plans for every node of `circuit`.
    /// `topo` supplies the positions and the DFF-clipped fanout
    /// adjacency. The result is identical whatever `threads` is, and
    /// decodes site-for-site identically to [`FlatConePlans`].
    ///
    /// Returns `Ok(None)` as soon as the arena would exceed
    /// `max_members` **stored** members (chain entries plus the shared
    /// tail arena) — the guard that keeps pathological Θ(n²) circuits
    /// from exhausting memory (the per-site reference path handles
    /// them in O(n) scratch instead). Pass `usize::MAX` for no budget.
    ///
    /// Phase 1 (sequential, reverse-topological) merges cones for
    /// anchors only and enforces the budget — the decision is
    /// deterministic by construction. Phase 1 and the phase-2 tail
    /// packing poll `cancel` every few thousand anchors and abort
    /// mid-compile when it trips, dropping all partial state; a
    /// declined build and a cancelled one stay distinguishable (the
    /// first falls back to per-site traversal, the second aborts the
    /// request).
    ///
    /// # Errors
    ///
    /// The [`CancelCause`] when `cancel` trips before the build
    /// finishes.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or `topo` was not computed from
    /// `circuit`.
    pub fn build(
        circuit: &Circuit,
        topo: &TopoArtifacts,
        max_members: usize,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<Self>, CancelCause> {
        assert!(threads > 0, "at least one thread");
        let n = circuit.len();
        assert_eq!(topo.len(), n, "artifacts must cover every node");

        let Some(tc) = TailCones::build(topo, max_members, cancel)? else {
            return Ok(None);
        };
        let order = topo.order();

        // Observe points indexed by observed signal, in observe order.
        let observe = topo.observe_points();
        let mut obs_of_signal: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, p) in observe.iter().enumerate() {
            obs_of_signal[p.signal().index()].push(u32::try_from(i).expect("observe fits u32"));
        }

        // Tail ids: anchors in ascending topological position order.
        let mut tail_id_of_pos = vec![0u32; n];
        let mut anchors: Vec<u32> = Vec::new();
        for (p, id) in tail_id_of_pos.iter_mut().enumerate() {
            if tc.next_pos[p] == NO_NEXT {
                *id = u32::try_from(anchors.len()).expect("anchors fit u32");
                anchors.push(u32::try_from(p).expect("node count fits u32"));
            }
        }

        // Per-node chain tables, filled back-to-front so each chain
        // node reads its successor's already-computed suffix scalars.
        let mut chain_next = vec![NO_NEXT; n];
        let mut tail_of = vec![0u32; n];
        let mut prefix_len = vec![0u32; n];
        let mut path_pins_after = vec![0u32; n];
        let mut path_obs_from = vec![0u32; n];
        for p in (0..n).rev() {
            let v = order[p].index();
            if tc.next_pos[p] == NO_NEXT {
                tail_of[v] = tail_id_of_pos[p];
            } else {
                let s = order[tc.next_pos[p] as usize];
                let si = s.index();
                chain_next[v] = u32::try_from(si).expect("node index fits u32");
                tail_of[v] = tail_of[si];
                prefix_len[v] = prefix_len[si] + 1;
                path_pins_after[v] = u32::try_from(circuit.node(s).fanin().len())
                    .expect("pins fit u32")
                    + path_pins_after[si];
                path_obs_from[v] =
                    u32::try_from(obs_of_signal[v].len()).expect("obs fit u32") + path_obs_from[si];
            }
        }

        // Per-node observe CSR (tiny: one entry per observe point).
        let mut node_obs_off = Vec::with_capacity(n + 1);
        let mut node_obs = Vec::with_capacity(observe.len());
        node_obs_off.push(0);
        for obs in &obs_of_signal {
            node_obs.extend_from_slice(obs);
            node_obs_off.push(u32::try_from(node_obs.len()).expect("observe refs fit u32"));
        }

        let tables = PackTables::build(circuit, topo, &obs_of_signal);

        // Phase 2: per-tail scalars only — slice bounds, interior pin
        // totals, and the sorted observe refs. Everything per-member
        // (kind, pins, on-path classification) resolves through the
        // per-position tables at consumption time, so nothing of the
        // old per-tail member/kind/ref copies is materialized at all.
        let t_count = anchors.len();
        let mut tail_start = Vec::with_capacity(t_count);
        let mut tail_end = Vec::with_capacity(t_count);
        let mut tail_pins = Vec::with_capacity(t_count);
        let mut tail_obs_off = Vec::with_capacity(t_count + 1);
        let mut tail_obs: Vec<(u32, u32)> = Vec::new();
        let mut site_obs: Vec<(u32, u32)> = Vec::new();
        tail_obs_off.push(0u32);
        for (packed, &p) in anchors.iter().enumerate() {
            if packed % Self::CANCEL_CHECK_EVERY == 0 {
                if let Some(token) = cancel {
                    token.check()?;
                }
            }
            let p = p as usize;
            tail_start.push(tc.start[p]);
            tail_end.push(tc.end[p]);
            let cone = tc.cone(p);
            let mut pins = 0u32;
            site_obs.clear();
            for (k, &q) in cone.iter().enumerate() {
                let q = q as usize;
                if k > 0 {
                    pins += tables.fanin_off[q + 1] - tables.fanin_off[q];
                }
                for &obs in tables.observes_of(q) {
                    site_obs.push((obs, u32::try_from(k).expect("cone fits u32")));
                }
            }
            site_obs.sort_unstable();
            tail_obs.extend_from_slice(&site_obs);
            tail_pins.push(pins);
            tail_obs_off.push(u32::try_from(tail_obs.len()).expect("observe refs fit u32"));
        }

        let mut plans = ConePlans {
            chain_next,
            tail_of,
            prefix_len,
            path_pins_after,
            path_obs_from,
            node_obs_off,
            node_obs,
            pos_node: order.to_vec(),
            pos_kind: tables.kind_by_pos,
            pos_fanin_off: tables.fanin_off,
            pos_fanins: tables.fanins,
            tail_start,
            tail_end,
            tail_pins,
            tail_positions: tc.arena,
            tail_obs_off,
            tail_obs,
            max_cone_len: 0,
            chain_count: tc.chain_count,
            logical_members: 0,
            logical_observe_refs: 0,
        };
        for v in 0..n {
            let t = plans.tail_of[v] as usize;
            let tail_len = (plans.tail_end[t] - plans.tail_start[t]) as usize;
            let len = plans.prefix_len[v] as usize + tail_len;
            let obs = plans.path_obs_from[v] as u64
                + u64::from(plans.tail_obs_off[t + 1] - plans.tail_obs_off[t]);
            plans.max_cone_len = plans.max_cone_len.max(len);
            plans.logical_members += len as u64;
            plans.logical_observe_refs += obs;
        }
        Ok(Some(plans))
    }

    /// Number of sites covered (one plan per circuit node).
    #[must_use]
    pub fn len(&self) -> usize {
        self.chain_next.len()
    }

    /// `true` for an empty circuit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest logical cone size over all sites — the capacity a
    /// cone-local value plane needs.
    #[must_use]
    pub fn max_cone_len(&self) -> usize {
        self.max_cone_len
    }

    /// **Stored** (deduplicated) members: one entry per chain node
    /// plus the shared tail arena — the quantity the member budget
    /// bounds, proportional to the arena's actual memory.
    #[must_use]
    pub fn stored_members(&self) -> usize {
        self.chain_count + self.tail_positions.len()
    }

    /// **Logical** members: the sum of per-site cone sizes — what the
    /// flat arena used to store. `logical_members / stored_members` is
    /// the suffix-sharing factor.
    #[must_use]
    pub fn logical_members(&self) -> u64 {
        self.logical_members
    }

    /// Number of shared tail entries (anchors).
    #[must_use]
    pub fn tail_count(&self) -> usize {
        self.tail_start.len()
    }

    /// Node id at topological position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    #[must_use]
    pub fn node_at(&self, pos: u32) -> NodeId {
        self.pos_node[pos as usize]
    }

    /// Gate kind at topological position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    #[must_use]
    pub fn kind_at(&self, pos: u32) -> GateKind {
        self.pos_kind[pos as usize]
    }

    /// Fanin pins of the node at position `pos`, in declaration order
    /// (duplicates preserved), as `(fanin position, packed off-path
    /// ref)` pairs. The packed ref decodes via [`FaninRef::decode`] to
    /// the pin's [`FaninRef::OffPath`] form; whether the pin is
    /// actually on-path for a given cone is decided by the consumer
    /// (membership of the fanin position in the cone walked so far).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    #[must_use]
    pub fn fanins_at(&self, pos: u32) -> &[(u32, u32)] {
        let pos = pos as usize;
        &self.pos_fanins[self.pos_fanin_off[pos] as usize..self.pos_fanin_off[pos + 1] as usize]
    }

    /// Total reachable observe points over all sites — the exact arena
    /// size a whole-circuit sweep's per-point results need.
    #[must_use]
    pub fn total_observe_refs(&self) -> u64 {
        self.logical_observe_refs
    }

    /// Heap bytes of the arena (every table, exact element sizes) —
    /// the `arena_bytes` the sweep benchmark reports.
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        fn bytes<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        bytes(&self.chain_next)
            + bytes(&self.tail_of)
            + bytes(&self.prefix_len)
            + bytes(&self.path_pins_after)
            + bytes(&self.path_obs_from)
            + bytes(&self.node_obs_off)
            + bytes(&self.node_obs)
            + bytes(&self.pos_node)
            + bytes(&self.pos_kind)
            + bytes(&self.pos_fanin_off)
            + bytes(&self.pos_fanins)
            + bytes(&self.tail_start)
            + bytes(&self.tail_end)
            + bytes(&self.tail_pins)
            + bytes(&self.tail_positions)
            + bytes(&self.tail_obs_off)
            + bytes(&self.tail_obs)
    }

    /// The plan of one site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn plan(&self, site: NodeId) -> ConePlan<'_> {
        assert!(site.index() < self.len(), "site {site} out of range");
        ConePlan {
            plans: self,
            site: site.index(),
        }
    }
}

/// A borrowed view of one site's plan inside the suffix-shared
/// [`ConePlans`]: the chain path (walked via
/// [`next_of`](Self::next_of)) followed by the shared
/// [`tail`](Self::tail). All size/cost accessors are O(1).
#[derive(Debug, Clone, Copy)]
pub struct ConePlan<'a> {
    plans: &'a ConePlans,
    site: usize,
}

impl<'a> ConePlan<'a> {
    /// The error site this plan was compiled for.
    #[must_use]
    pub fn site(&self) -> NodeId {
        NodeId::from_index(self.site)
    }

    /// Number of path members before the shared tail (0 when the site
    /// is an anchor). The anchor sits at cone-local position
    /// `prefix_len()`; tail member `k` sits at `prefix_len() + k`.
    #[must_use]
    pub fn prefix_len(&self) -> usize {
        self.plans.prefix_len[self.site] as usize
    }

    /// The shared tail of this plan (the site's anchor's cone).
    #[must_use]
    pub fn tail(&self) -> TailView<'a> {
        TailView {
            plans: self.plans,
            tail: self.plans.tail_of[self.site] as usize,
        }
    }

    /// Logical cone size (site included); at least 1. O(1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.prefix_len() + self.tail().len()
    }

    /// Always `false`: a cone contains at least its site.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of reachable observe points. O(1).
    #[must_use]
    pub fn observe_len(&self) -> usize {
        self.plans.path_obs_from[self.site] as usize + self.tail().observe_refs().len()
    }

    /// `true` if no observe point is reachable from the site.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.observe_len() == 0
    }

    /// Evaluation cost indicator: logical members plus fanin
    /// references — proportional to the work one EPP pass over this
    /// cone performs. O(1).
    #[must_use]
    pub fn cost(&self) -> usize {
        let t = self.tail().tail;
        self.len()
            + self.plans.path_pins_after[self.site] as usize
            + self.plans.tail_pins[t] as usize
    }

    /// `true` iff any cone member is marked. `marked` is indexed by
    /// node id and must cover every node. The chain path is walked via
    /// [`next_of`](Self::next_of); tail members resolve through the
    /// suffix-shared position tables ([`ConePlans::node_at`]). Early
    /// exit on the first hit, so a miss costs one full cone scan and a
    /// hit typically far less.
    ///
    /// # Panics
    ///
    /// Panics if `marked` is shorter than the circuit.
    #[must_use]
    pub fn intersects(&self, marked: &[bool]) -> bool {
        let mut cur = self.site();
        for _ in 0..self.prefix_len() {
            if marked[cur.index()] {
                return true;
            }
            cur = self.next_of(cur);
        }
        self.tail()
            .positions()
            .iter()
            .any(|&q| marked[self.plans.node_at(q).index()])
    }

    /// The next hop on the chain path after `node`. Valid for the site
    /// and every path member before the anchor; the hop after the last
    /// chain node is the anchor itself.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `node` is an anchor.
    #[inline]
    #[must_use]
    pub fn next_of(&self, node: NodeId) -> NodeId {
        let next = self.plans.chain_next[node.index()];
        debug_assert_ne!(next, NO_NEXT, "next_of called on an anchor");
        NodeId::from_index(next as usize)
    }

    /// Observe-point indices of `node`'s signal (the artifacts'
    /// observe order).
    #[inline]
    #[must_use]
    pub fn observes_of(&self, node: NodeId) -> &'a [u32] {
        let v = node.index();
        &self.plans.node_obs
            [self.plans.node_obs_off[v] as usize..self.plans.node_obs_off[v + 1] as usize]
    }

    /// Cone members in topological order; the first is the site.
    #[must_use]
    pub fn members(&self) -> PlanMembers<'a> {
        PlanMembers {
            plans: self.plans,
            next_node: u32::try_from(self.site).expect("node index fits u32"),
            path_left: self.plans.prefix_len[self.site],
            tail: self.tail().positions().iter(),
        }
    }

    /// Decodes the plan into owned, self-contained [`SitePlan`] form —
    /// resolving path fanins by predecessor comparison and rebasing
    /// tail-local references, exactly as the sweep kernel does. This
    /// is the representation `tests/plan_builder.rs` compares against
    /// the flat oracle.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the circuit the plans were built
    /// from.
    #[must_use]
    pub fn materialize(&self, circuit: &Circuit) -> SitePlan {
        let l = self.prefix_len();
        let tail = self.tail();
        let len = l + tail.len();
        let mut members = Vec::with_capacity(len);
        let mut kinds = Vec::with_capacity(len);
        let mut fanin_refs: Vec<Vec<FaninRef>> = Vec::with_capacity(len);

        // Path members 0..l: the site carries no refs; each subsequent
        // path member's only possible on-path pin is its predecessor.
        // When `l == 0` the site *is* the anchor — its member/kind rows
        // come from the tail below, only the empty ref row is its own.
        let site = self.site();
        if l > 0 {
            members.push(site);
            kinds.push(circuit.node(site).kind());
        }
        fanin_refs.push(Vec::new());
        let mut prev = site;
        for pos in 1..=l {
            let id = self.next_of(prev);
            let node = circuit.node(id);
            if pos < l {
                members.push(id);
                kinds.push(node.kind());
            }
            // Anchor (pos == l) members/kinds come from the tail below;
            // its refs are still resolved here, predecessor-compared.
            let refs: Vec<FaninRef> = node
                .fanin()
                .iter()
                .map(|&pin| {
                    if pin == prev {
                        FaninRef::OnPath(pos - 1)
                    } else {
                        FaninRef::OffPath(pin.index())
                    }
                })
                .collect();
            fanin_refs.push(refs);
            prev = id;
        }

        // Tail members at cone positions l..len. A tail pin is on-path
        // iff its position is in the tail itself (a path node's single
        // successor is the next path node, so no tail member can read
        // one); the cone-local index of tail member k is l + k.
        let positions = tail.positions();
        members.extend(positions.iter().map(|&q| self.plans.node_at(q)));
        kinds.extend(positions.iter().map(|&q| self.plans.kind_at(q)));
        // ser-lint: allow(no-hash-iter) — position→local-index lookup;
        // only `get` is called on it, and the fanin_refs built from it
        // follow the deterministic `positions` order, never map order.
        let local_of: std::collections::HashMap<u32, usize> = positions
            .iter()
            .enumerate()
            .map(|(k, &q)| (q, l + k))
            .collect();
        for &q in &positions[1..] {
            fanin_refs.push(
                self.plans
                    .fanins_at(q)
                    .iter()
                    .map(|&(pf, off)| match local_of.get(&pf) {
                        Some(&loc) => FaninRef::OnPath(loc),
                        None => FaninRef::decode(off),
                    })
                    .collect(),
            );
        }
        debug_assert_eq!(members.len(), len);
        debug_assert_eq!(fanin_refs.len(), len);

        // Observe refs: sorted path observes merged with the tail's
        // (already sorted) observes, rebased by +l. Observe indices
        // are unique per site, so the merge is a strict interleave.
        let mut path_obs: Vec<(u32, u32)> = Vec::new();
        if l > 0 {
            let mut cur = site;
            for pos in 0..l {
                for &obs in self.observes_of(cur) {
                    path_obs.push((obs, u32::try_from(pos).expect("cone fits u32")));
                }
                if pos + 1 < l {
                    cur = self.next_of(cur);
                }
            }
        }
        path_obs.sort_unstable();
        let tobs = tail.observe_refs();
        let mut observe_refs = Vec::with_capacity(path_obs.len() + tobs.len());
        let (mut i, mut j) = (0, 0);
        let l32 = u32::try_from(l).expect("cone fits u32");
        while i < path_obs.len() || j < tobs.len() {
            let take_path = j >= tobs.len() || (i < path_obs.len() && path_obs[i].0 < tobs[j].0);
            if take_path {
                observe_refs.push(path_obs[i]);
                i += 1;
            } else {
                observe_refs.push((tobs[j].0, tobs[j].1 + l32));
                j += 1;
            }
        }

        SitePlan {
            site,
            members,
            kinds,
            fanin_refs,
            observe_refs,
        }
    }
}

/// Iterator over a plan's logical members: the chain path, then the
/// shared tail slice.
#[derive(Debug, Clone)]
pub struct PlanMembers<'a> {
    plans: &'a ConePlans,
    next_node: u32,
    path_left: u32,
    tail: std::slice::Iter<'a, u32>,
}

impl Iterator for PlanMembers<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.path_left > 0 {
            let id = self.next_node as usize;
            self.next_node = self.plans.chain_next[id];
            self.path_left -= 1;
            Some(NodeId::from_index(id))
        } else {
            self.tail.next().map(|&q| self.plans.node_at(q))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.path_left as usize + self.tail.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for PlanMembers<'_> {}

/// A borrowed view of one shared tail entry (an anchor's cone).
#[derive(Debug, Clone, Copy)]
pub struct TailView<'a> {
    plans: &'a ConePlans,
    tail: usize,
}

impl<'a> TailView<'a> {
    fn member_range(&self) -> Range<usize> {
        self.plans.tail_start[self.tail] as usize..self.plans.tail_end[self.tail] as usize
    }

    /// Number of tail members (anchor included); at least 1.
    #[must_use]
    pub fn len(&self) -> usize {
        self.member_range().len()
    }

    /// Always `false`: a tail contains at least its anchor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tail members as ascending topological positions; the first is
    /// the anchor. Resolve a member's node id, gate kind and fanin
    /// pins through [`ConePlans::node_at`], [`ConePlans::kind_at`] and
    /// [`ConePlans::fanins_at`]; a pin is on-path iff its position is
    /// in this slice (tail-local index = slice index, cone-local index
    /// = that plus the site's path length).
    #[must_use]
    pub fn positions(&self) -> &'a [u32] {
        &self.plans.tail_positions[self.member_range()]
    }

    /// Reachable observe points as `(observe index, tail-local
    /// position)` pairs, ordered by observe index.
    #[must_use]
    pub fn observe_refs(&self) -> &'a [(u32, u32)] {
        &self.plans.tail_obs[self.plans.tail_obs_off[self.tail] as usize
            ..self.plans.tail_obs_off[self.tail + 1] as usize]
    }
}

/// Per-topo-position lookup tables compiled once per build for the
/// tail packing pass — the flat-array form of everything the
/// per-member loop needs, so packing never chases a pointer into a
/// `Node`:
///
/// - the gate kind,
/// - each fanin pin as `(fanin topo position, pre-packed off-path
///   ref)` — the off-path encoding of a pin is site-independent, so it
///   is computed exactly once here,
/// - the observe-point indices of the position's signal.
struct PackTables {
    kind_by_pos: Vec<GateKind>,
    /// CSR offsets per position into `fanins`. Length `n + 1`.
    fanin_off: Vec<u32>,
    /// Fanin pins in declaration order, duplicates preserved.
    fanins: Vec<(u32, u32)>,
    /// CSR offsets per position into `observes`. Length `n + 1`.
    obs_off: Vec<u32>,
    /// Observe-point indices (the artifacts' observe order).
    observes: Vec<u32>,
}

impl PackTables {
    fn build(circuit: &Circuit, topo: &TopoArtifacts, obs_of_signal: &[Vec<u32>]) -> Self {
        let n = circuit.len();
        let mut tables = PackTables {
            kind_by_pos: Vec::with_capacity(n),
            fanin_off: Vec::with_capacity(n + 1),
            fanins: Vec::new(),
            obs_off: Vec::with_capacity(n + 1),
            observes: Vec::new(),
        };
        tables.fanin_off.push(0);
        tables.obs_off.push(0);
        for &id in topo.order() {
            let node = circuit.node(id);
            tables.kind_by_pos.push(node.kind());
            for &f in node.fanin() {
                tables
                    .fanins
                    .push((topo.position(f), FaninRef::encode_off_path(f)));
            }
            tables
                .fanin_off
                .push(u32::try_from(tables.fanins.len()).expect("edge count fits u32"));
            tables
                .observes
                .extend_from_slice(&obs_of_signal[id.index()]);
            tables
                .obs_off
                .push(u32::try_from(tables.observes.len()).expect("observe refs fit u32"));
        }
        tables
    }

    fn observes_of(&self, pos: usize) -> &[u32] {
        &self.observes[self.obs_off[pos] as usize..self.obs_off[pos + 1] as usize]
    }
}

/// Phase-1 output: the chain classification and every **anchor's**
/// cone as ascending topological positions in one flat arena.
///
/// Built back-to-front: when anchor position `p` is processed, every
/// combinational successor (all at positions `> p`) already has its
/// cone available — as an arena slice (anchor successor) or as a
/// virtual two-segment sequence (chain successor: its lazily walked
/// path plus its own anchor's arena slice). `p`'s cone is `[p]`
/// followed by the duplicate-free sorted merge of those sequences.
/// Chain positions get **no** arena entry — that is the suffix
/// sharing, and it removes the single-successor `memcpy` that made
/// the old flat builder store-bandwidth-bound.
struct TailCones {
    /// Per topo position: the single successor's position for chain
    /// nodes, [`NO_NEXT`] for anchors.
    next_pos: Vec<u32>,
    /// Per topo position (anchors only): start of the cone's arena
    /// slice.
    start: Vec<u32>,
    /// Per topo position (anchors only): end of that slice.
    end: Vec<u32>,
    /// All anchor cones, concatenated in build order.
    arena: Vec<u32>,
    /// Number of chain nodes (each counts as one stored member).
    chain_count: usize,
}

/// A merge cursor over one successor's (possibly virtual) cone:
/// first the chain path positions, then the anchor's arena slice.
#[derive(Clone, Copy)]
struct ConeCursor {
    /// Current path position, or [`NO_NEXT`] once in slice mode.
    pos: u32,
    /// Arena slice range (set on entering slice mode).
    idx: u32,
    end: u32,
}

impl ConeCursor {
    fn new(q: u32, next_pos: &[u32], start: &[u32], end: &[u32]) -> Self {
        if next_pos[q as usize] == NO_NEXT {
            ConeCursor {
                pos: NO_NEXT,
                idx: start[q as usize],
                end: end[q as usize],
            }
        } else {
            ConeCursor {
                pos: q,
                idx: 0,
                end: 0,
            }
        }
    }

    #[inline]
    fn peek(&self, arena: &[u32]) -> Option<u32> {
        if self.pos != NO_NEXT {
            Some(self.pos)
        } else if self.idx < self.end {
            Some(arena[self.idx as usize])
        } else {
            None
        }
    }

    #[inline]
    fn advance(&mut self, next_pos: &[u32], start: &[u32], end: &[u32]) {
        if self.pos != NO_NEXT {
            let np = self.pos as usize;
            let next = next_pos[np] as usize;
            debug_assert_ne!(next_pos[np], NO_NEXT);
            if next_pos[next] == NO_NEXT {
                // Reached the anchor: switch to its arena slice (which
                // starts with the anchor itself).
                self.pos = NO_NEXT;
                self.idx = start[next];
                self.end = end[next];
            } else {
                self.pos = next_pos[np];
            }
        } else {
            self.idx += 1;
        }
    }
}

impl TailCones {
    /// One anchor's cone as ascending topological positions (the
    /// anchor's own position first).
    fn cone(&self, pos: usize) -> &[u32] {
        debug_assert_eq!(self.next_pos[pos], NO_NEXT, "cone() wants an anchor");
        &self.arena[self.start[pos] as usize..self.end[pos] as usize]
    }

    /// Runs the reverse-topological anchor-only merge pass. Returns
    /// `Ok(None)` as soon as stored members (chain entries + the
    /// arena) exceed `max_members` — a sequential,
    /// scheduling-independent decision — and `Err` when the
    /// cancellation token trips at an anchor checkpoint.
    fn build(
        topo: &TopoArtifacts,
        max_members: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<Self>, CancelCause> {
        let n = topo.len();
        let order = topo.order();
        let mut next_pos = vec![NO_NEXT; n];
        let mut chain_count = 0usize;
        for (p, np) in next_pos.iter_mut().enumerate() {
            let succs = topo.comb_fanout(order[p]);
            if succs.len() == 1 {
                *np = topo.position(succs[0]);
                chain_count += 1;
            }
        }
        if chain_count > max_members {
            return Ok(None);
        }

        let mut start = vec![0u32; n];
        let mut end = vec![0u32; n];
        let mut arena: Vec<u32> = Vec::with_capacity(n - chain_count);
        // Cursor scratch for the rare ≥ 3-way merges; reused.
        let mut cursors: Vec<ConeCursor> = Vec::new();
        let mut merged = 0usize;
        for p in (0..n).rev() {
            if next_pos[p] != NO_NEXT {
                continue;
            }
            if merged.is_multiple_of(ConePlans::CANCEL_CHECK_EVERY) {
                if let Some(token) = cancel {
                    token.check()?;
                }
            }
            merged += 1;
            let cone_start = arena.len();
            arena.push(u32::try_from(p).expect("node count fits u32"));
            let succs = topo.comb_fanout(order[p]);
            // Anchors have 0 or ≥ 2 successors by definition, so the
            // merge is always a true multi-way dedup merge.
            match succs.len() {
                0 => {}
                2 => {
                    // Dominant shape: a tight two-pointer merge. Any
                    // chain-path prefix is drained element-wise first;
                    // once both cursors sit in their anchor slices the
                    // inner loop is branch-light array traversal.
                    // Merged output is pushed straight into the arena:
                    // cursors address it by index, so reallocation
                    // while reading earlier regions is sound.
                    let mut a = ConeCursor::new(topo.position(succs[0]), &next_pos, &start, &end);
                    let mut b = ConeCursor::new(topo.position(succs[1]), &next_pos, &start, &end);
                    while a.pos != NO_NEXT || b.pos != NO_NEXT {
                        let (Some(x), Some(y)) = (a.peek(&arena), b.peek(&arena)) else {
                            break;
                        };
                        arena.push(x.min(y));
                        if x <= y {
                            a.advance(&next_pos, &start, &end);
                        }
                        if y <= x {
                            b.advance(&next_pos, &start, &end);
                        }
                    }
                    if a.pos == NO_NEXT && b.pos == NO_NEXT {
                        let (mut i, ae) = (a.idx as usize, a.end as usize);
                        let (mut j, be) = (b.idx as usize, b.end as usize);
                        while i < ae && j < be {
                            let (x, y) = (arena[i], arena[j]);
                            arena.push(x.min(y));
                            i += usize::from(x <= y);
                            j += usize::from(y <= x);
                        }
                        a.idx = i as u32;
                        b.idx = j as u32;
                    }
                    // At most one cursor still holds elements; append
                    // its remainder (path part, then slice memcpy).
                    for mut c in [a, b] {
                        if c.peek(&arena).is_none() {
                            continue;
                        }
                        while c.pos != NO_NEXT {
                            arena.push(c.pos);
                            c.advance(&next_pos, &start, &end);
                        }
                        arena.extend_from_within(c.idx as usize..c.end as usize);
                    }
                }
                _ => {
                    cursors.clear();
                    cursors.extend(
                        succs
                            .iter()
                            .map(|&s| ConeCursor::new(topo.position(s), &next_pos, &start, &end)),
                    );
                    loop {
                        let mut min = u32::MAX;
                        let mut live = 0usize;
                        let mut last = 0usize;
                        for (ci, c) in cursors.iter().enumerate() {
                            if let Some(v) = c.peek(&arena) {
                                live += 1;
                                last = ci;
                                min = min.min(v);
                            }
                        }
                        match live {
                            0 => break,
                            1 => {
                                // Lone survivor: bulk-append the
                                // remainder (walk the path part,
                                // memcpy the slice part).
                                let mut c = cursors[last];
                                while c.pos != NO_NEXT {
                                    arena.push(c.pos);
                                    c.advance(&next_pos, &start, &end);
                                }
                                arena.extend_from_within(c.idx as usize..c.end as usize);
                                break;
                            }
                            _ => {
                                arena.push(min);
                                for c in &mut cursors {
                                    if c.peek(&arena) == Some(min) {
                                        c.advance(&next_pos, &start, &end);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if chain_count + arena.len() > max_members {
                return Ok(None);
            }
            start[p] = u32::try_from(cone_start).expect("cone members fit u32");
            end[p] = u32::try_from(arena.len()).expect("cone members fit u32");
        }
        Ok(Some(TailCones {
            next_pos,
            start,
            end,
            arena,
            chain_count,
        }))
    }
}

// ---------------------------------------------------------------------------
// The flat per-site-DFS oracle
// ---------------------------------------------------------------------------

/// The original flat cone-plan arena, built by per-site DFS — retained
/// as the **semantic reference**: every site's full cone is stored
/// (members, kinds, per-member packed refs, observe refs), with no
/// suffix sharing. The suffix-shared [`ConePlans`] is proptest-checked
/// to [`materialize`](ConePlan::materialize) site-for-site identically
/// to [`FlatConePlan::materialize`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlatConePlans {
    member_off: Vec<u32>,
    members: Vec<NodeId>,
    kinds: Vec<GateKind>,
    member_fanin_off: Vec<u32>,
    fanin_refs: Vec<u32>,
    observe_off: Vec<u32>,
    observe_refs: Vec<(u32, u32)>,
    max_cone_len: usize,
}

impl FlatConePlans {
    /// Builds the flat plans with per-site DFS discovery on `threads`
    /// workers, or `None` past a **logical**-member budget (the flat
    /// arena stores every site's full cone, so its memory is
    /// proportional to the logical total, unlike
    /// [`ConePlans::build`]'s stored-member budget; pass `usize::MAX`
    /// for none). The per-site DFS loop is embarrassingly parallel:
    /// workers claim contiguous site ranges through an atomic cursor
    /// and the fragments are stitched back in site order; the budget
    /// is a shared counter whose decline decision is deterministic
    /// (the total is scheduling-independent).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or `topo` was not computed from
    /// `circuit`.
    #[must_use]
    pub fn build(
        circuit: &Circuit,
        topo: &TopoArtifacts,
        max_members: usize,
        threads: usize,
    ) -> Option<Self> {
        assert!(threads > 0, "at least one thread");
        let n = circuit.len();
        assert_eq!(topo.len(), n, "artifacts must cover every node");

        let observe = topo.observe_points();
        let mut obs_of_signal: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, p) in observe.iter().enumerate() {
            obs_of_signal[p.signal().index()].push(u32::try_from(i).expect("observe fits u32"));
        }

        let spent = AtomicUsize::new(0);
        let over_budget = AtomicBool::new(false);
        let budget = BuildBudget {
            max_members,
            spent: &spent,
            over_budget: &over_budget,
        };

        let chunks: Vec<PlanChunk> = if threads == 1 || n < FLAT_PARALLEL_BUILD_THRESHOLD {
            let mut scratch = ChunkScratch::new(n);
            vec![build_chunk_reference(
                circuit,
                topo,
                &obs_of_signal,
                0..n,
                &budget,
                &mut scratch,
            )?]
        } else {
            let chunk_len = n.div_ceil(threads * ConePlans::CHUNKS_PER_THREAD).max(1);
            let ranges: Vec<Range<usize>> = (0..n)
                .step_by(chunk_len)
                .map(|start| start..(start + chunk_len).min(n))
                .collect();
            let cursor = AtomicUsize::new(0);
            let mut parts: Vec<(usize, PlanChunk)> = Vec::with_capacity(ranges.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads.min(ranges.len()))
                    .map(|_| {
                        let cursor = &cursor;
                        let ranges = &ranges;
                        let budget = &budget;
                        let obs_of_signal = &obs_of_signal;
                        scope.spawn(move || {
                            // One scratch per worker, reused across
                            // every range it claims.
                            let mut scratch = ChunkScratch::new(n);
                            let mut built: Vec<(usize, PlanChunk)> = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some(range) = ranges.get(i).cloned() else {
                                    break;
                                };
                                if budget.exceeded() {
                                    break;
                                }
                                let Some(chunk) = build_chunk_reference(
                                    circuit,
                                    topo,
                                    obs_of_signal,
                                    range.clone(),
                                    budget,
                                    &mut scratch,
                                ) else {
                                    break;
                                };
                                built.push((range.start, chunk));
                            }
                            built
                        })
                    })
                    .collect();
                for h in handles {
                    parts.extend(h.join().expect("plan build worker panicked"));
                }
            });
            if budget.exceeded() {
                return None;
            }
            parts.sort_unstable_by_key(|&(start, _)| start);
            debug_assert_eq!(parts.len(), ranges.len(), "every range built");
            parts.into_iter().map(|(_, chunk)| chunk).collect()
        };

        // Adopt a lone fragment; otherwise stitch with offset
        // rebasing (all payload entries are position-independent).
        if chunks.len() == 1 {
            let chunk = chunks.into_iter().next().expect("one chunk");
            debug_assert_eq!(chunk.member_off.len(), n + 1);
            return Some(FlatConePlans {
                member_off: chunk.member_off,
                members: chunk.members,
                kinds: chunk.kinds,
                member_fanin_off: chunk.member_fanin_off,
                fanin_refs: chunk.fanin_refs,
                observe_off: chunk.observe_off,
                observe_refs: chunk.observe_refs,
                max_cone_len: chunk.max_cone_len,
            });
        }
        let mut plans = FlatConePlans {
            member_off: Vec::with_capacity(n + 1),
            members: Vec::new(),
            kinds: Vec::new(),
            member_fanin_off: vec![0],
            fanin_refs: Vec::new(),
            observe_off: Vec::with_capacity(n + 1),
            observe_refs: Vec::new(),
            max_cone_len: 0,
        };
        plans.member_off.push(0);
        plans.observe_off.push(0);
        for chunk in chunks {
            let member_base = u32::try_from(plans.members.len()).expect("cone members fit u32");
            let fanin_base = u32::try_from(plans.fanin_refs.len()).expect("fanin refs fit u32");
            let observe_base =
                u32::try_from(plans.observe_refs.len()).expect("observe refs fit u32");
            plans.members.extend_from_slice(&chunk.members);
            plans.kinds.extend_from_slice(&chunk.kinds);
            plans.fanin_refs.extend_from_slice(&chunk.fanin_refs);
            plans.observe_refs.extend_from_slice(&chunk.observe_refs);
            plans
                .member_off
                .extend(chunk.member_off[1..].iter().map(|&o| o + member_base));
            plans
                .member_fanin_off
                .extend(chunk.member_fanin_off[1..].iter().map(|&o| o + fanin_base));
            plans
                .observe_off
                .extend(chunk.observe_off[1..].iter().map(|&o| o + observe_base));
            plans.max_cone_len = plans.max_cone_len.max(chunk.max_cone_len);
        }
        debug_assert_eq!(plans.member_off.len(), n + 1);
        Some(plans)
    }

    /// Number of sites covered (one plan per circuit node).
    #[must_use]
    pub fn len(&self) -> usize {
        self.member_off.len() - 1
    }

    /// `true` for an empty circuit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest cone size over all sites.
    #[must_use]
    pub fn max_cone_len(&self) -> usize {
        self.max_cone_len
    }

    /// Total (logical) cone members over all sites — the flat arena
    /// stores every one of them.
    #[must_use]
    pub fn total_members(&self) -> usize {
        self.members.len()
    }

    /// Total reachable observe points over all sites.
    #[must_use]
    pub fn total_observe_refs(&self) -> usize {
        self.observe_refs.len()
    }

    /// Heap bytes of the flat arena — the baseline `arena_bytes` the
    /// suffix-shared layout is compared against.
    #[must_use]
    pub fn arena_bytes(&self) -> usize {
        fn bytes<T>(v: &[T]) -> usize {
            std::mem::size_of_val(v)
        }
        bytes(&self.member_off)
            + bytes(&self.members)
            + bytes(&self.kinds)
            + bytes(&self.member_fanin_off)
            + bytes(&self.fanin_refs)
            + bytes(&self.observe_off)
            + bytes(&self.observe_refs)
    }

    /// The flat plan of one site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn plan(&self, site: NodeId) -> FlatConePlan<'_> {
        assert!(site.index() < self.len(), "site {site} out of range");
        FlatConePlan {
            plans: self,
            site: site.index(),
        }
    }
}

/// Below this many nodes the flat build runs on one thread.
const FLAT_PARALLEL_BUILD_THRESHOLD: usize = 1024;

/// A borrowed view of one site's plan inside [`FlatConePlans`].
#[derive(Debug, Clone, Copy)]
pub struct FlatConePlan<'a> {
    plans: &'a FlatConePlans,
    site: usize,
}

impl<'a> FlatConePlan<'a> {
    /// The error site this plan was compiled for.
    #[must_use]
    pub fn site(&self) -> NodeId {
        NodeId::from_index(self.site)
    }

    fn member_range(&self) -> Range<usize> {
        self.plans.member_off[self.site] as usize..self.plans.member_off[self.site + 1] as usize
    }

    /// Number of cone members (site included); at least 1.
    #[must_use]
    pub fn len(&self) -> usize {
        self.member_range().len()
    }

    /// Always `false`: a cone contains at least its site.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cone members in topological order; `members()[0]` is the site.
    #[must_use]
    pub fn members(&self) -> &'a [NodeId] {
        &self.plans.members[self.member_range()]
    }

    /// Gate kinds parallel to [`members`](Self::members).
    #[must_use]
    pub fn kinds(&self) -> &'a [GateKind] {
        &self.plans.kinds[self.member_range()]
    }

    /// Packed fanin references of cone member `pos` (cone-local
    /// on-path values; decode with [`FaninRef::decode`]). Empty for
    /// `pos == 0` (the site).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range for the cone.
    #[must_use]
    pub fn fanin_refs(&self, pos: usize) -> &'a [u32] {
        let range = self.member_range();
        assert!(pos < range.len(), "cone member {pos} out of range");
        let m = range.start + pos;
        &self.plans.fanin_refs
            [self.plans.member_fanin_off[m] as usize..self.plans.member_fanin_off[m + 1] as usize]
    }

    /// Reachable observe points as `(observe index, cone-local
    /// position)` pairs, ordered by observe index.
    #[must_use]
    pub fn observe_refs(&self) -> &'a [(u32, u32)] {
        &self.plans.observe_refs[self.plans.observe_off[self.site] as usize
            ..self.plans.observe_off[self.site + 1] as usize]
    }

    /// `true` if no observe point is reachable from the site.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.observe_refs().is_empty()
    }

    /// Evaluation cost indicator: cone members plus fanin references.
    #[must_use]
    pub fn cost(&self) -> usize {
        let range = self.member_range();
        let fanins = self.plans.member_fanin_off[range.end] as usize
            - self.plans.member_fanin_off[range.start] as usize;
        range.len() + fanins
    }

    /// Decodes the plan into owned [`SitePlan`] form — the flat arena
    /// already stores everything, so this is a straight copy.
    #[must_use]
    pub fn materialize(&self) -> SitePlan {
        SitePlan {
            site: self.site(),
            members: self.members().to_vec(),
            kinds: self.kinds().to_vec(),
            fanin_refs: (0..self.len())
                .map(|pos| {
                    self.fanin_refs(pos)
                        .iter()
                        .map(|&raw| FaninRef::decode(raw))
                        .collect()
                })
                .collect(),
            observe_refs: self.observe_refs().to_vec(),
        }
    }
}

/// One contiguous site range's share of the flat plan arena, offsets
/// local to the fragment (rebased during the stitch). All payload
/// entries — members, kinds, fanin refs (cone-local or node-id), and
/// observe refs — are position-independent, which is what makes the
/// parallel build's concatenation exact.
struct PlanChunk {
    member_off: Vec<u32>,
    members: Vec<NodeId>,
    kinds: Vec<GateKind>,
    member_fanin_off: Vec<u32>,
    fanin_refs: Vec<u32>,
    observe_off: Vec<u32>,
    observe_refs: Vec<(u32, u32)>,
    max_cone_len: usize,
}

/// Per-worker scratch for the flat build: epoch-stamped membership,
/// the node → cone-local map and the traversal buffers, allocated once
/// per worker and reused across every range the worker claims (the
/// epoch counter carries over, invalidating old stamps in O(1)).
struct ChunkScratch {
    stamp: Vec<u32>,
    local: Vec<u32>,
    epoch: u32,
    cone: Vec<NodeId>,
    stack: Vec<NodeId>,
    site_obs: Vec<(u32, u32)>,
}

impl ChunkScratch {
    fn new(n: usize) -> Self {
        ChunkScratch {
            stamp: vec![0u32; n],
            local: vec![0u32; n],
            epoch: 0,
            cone: Vec::new(),
            stack: Vec::new(),
            site_obs: Vec::new(),
        }
    }
}

/// Shared member-budget accounting for the chunked flat build.
struct BuildBudget<'a> {
    max_members: usize,
    spent: &'a AtomicUsize,
    over_budget: &'a AtomicBool,
}

impl BuildBudget<'_> {
    /// Charges one cone's members; `false` means the arena just
    /// exceeded the budget (the flag is raised so sibling workers stop
    /// early). The accumulated total is order-independent, so whether
    /// the overall build declines is deterministic.
    fn charge(&self, members: usize) -> bool {
        let charged = self.spent.fetch_add(members, Ordering::Relaxed);
        if charged + members > self.max_members {
            self.over_budget.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    fn exceeded(&self) -> bool {
        self.over_budget.load(Ordering::Relaxed)
    }
}

/// Builds the flat plan fragment for `sites` (a contiguous id range)
/// with per-site-DFS discovery: DFS over the DFF-clipped fanout
/// adjacency, sort by topological position, classify fanins against
/// the epoch-stamped membership. Charges every cone against the shared
/// member budget and returns `None` on overflow.
fn build_chunk_reference(
    circuit: &Circuit,
    topo: &TopoArtifacts,
    obs_of_signal: &[Vec<u32>],
    sites: Range<usize>,
    budget: &BuildBudget<'_>,
    scratch: &mut ChunkScratch,
) -> Option<PlanChunk> {
    let mut chunk = PlanChunk {
        member_off: Vec::with_capacity(sites.len() + 1),
        members: Vec::new(),
        kinds: Vec::new(),
        member_fanin_off: vec![0],
        fanin_refs: Vec::new(),
        observe_off: Vec::with_capacity(sites.len() + 1),
        observe_refs: Vec::new(),
        max_cone_len: 0,
    };
    chunk.member_off.push(0);
    chunk.observe_off.push(0);

    let ChunkScratch {
        stamp,
        local,
        epoch,
        cone,
        stack,
        site_obs,
    } = scratch;

    for site_idx in sites {
        let site = NodeId::from_index(site_idx);
        // New epoch: previous stamps invalidate in O(1). On wrap, reset.
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            stamp.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;

        // DFS over the DFF-clipped fanout adjacency.
        cone.clear();
        stack.clear();
        stamp[site_idx] = epoch;
        cone.push(site);
        stack.push(site);
        while let Some(id) = stack.pop() {
            for &succ in topo.comb_fanout(id) {
                if stamp[succ.index()] != epoch {
                    stamp[succ.index()] = epoch;
                    cone.push(succ);
                    stack.push(succ);
                }
            }
        }
        // Topological order within the cone (positions are a total
        // order, so this matches any stable per-site re-sort).
        cone.sort_unstable_by_key(|id| topo.position(*id));
        debug_assert_eq!(cone[0], site, "site orders first in its own cone");
        if !budget.charge(cone.len()) {
            return None;
        }
        chunk.max_cone_len = chunk.max_cone_len.max(cone.len());

        for (pos, &id) in cone.iter().enumerate() {
            local[id.index()] = u32::try_from(pos).expect("cone fits u32");
        }
        site_obs.clear();
        for (pos, &id) in cone.iter().enumerate() {
            let node = circuit.node(id);
            chunk.members.push(id);
            chunk.kinds.push(node.kind());
            if pos > 0 {
                debug_assert!(
                    node.kind().is_logic(),
                    "on-path non-site nodes are logic gates"
                );
                for &f in node.fanin() {
                    chunk.fanin_refs.push(if stamp[f.index()] == epoch {
                        FaninRef::encode_on_path(local[f.index()])
                    } else {
                        FaninRef::encode_off_path(f)
                    });
                }
            }
            chunk
                .member_fanin_off
                .push(u32::try_from(chunk.fanin_refs.len()).expect("fanin refs fit u32"));
            for &obs in &obs_of_signal[id.index()] {
                site_obs.push((obs, u32::try_from(pos).expect("cone fits u32")));
            }
        }
        site_obs.sort_unstable();
        chunk.observe_refs.extend_from_slice(site_obs);
        chunk
            .member_off
            .push(u32::try_from(chunk.members.len()).expect("cone members fit u32"));
        chunk
            .observe_off
            .push(u32::try_from(chunk.observe_refs.len()).expect("observe refs fit u32"));
    }
    Some(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cone::FanoutCone;
    use crate::parse::parse_bench;

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

    /// The unbudgeted, uncancelled build.
    fn build_all(c: &Circuit, topo: &TopoArtifacts) -> ConePlans {
        build_with_budget(c, topo, usize::MAX).expect("no budget to decline")
    }

    fn build_with_budget(
        c: &Circuit,
        topo: &TopoArtifacts,
        max_members: usize,
    ) -> Option<ConePlans> {
        ConePlans::build(c, topo, max_members, 1, None).expect("no token to trip")
    }

    /// Decodes every site of both builders and asserts they agree.
    fn assert_matches_flat(c: &Circuit) {
        let topo = TopoArtifacts::compute(c).unwrap();
        let shared = build_all(c, &topo);
        let flat = FlatConePlans::build(c, &topo, usize::MAX, 1).unwrap();
        for id in c.node_ids() {
            assert_eq!(
                shared.plan(id).materialize(c),
                flat.plan(id).materialize(),
                "{} site {id}",
                c.name()
            );
        }
        assert_eq!(shared.max_cone_len(), flat.max_cone_len(), "{}", c.name());
        assert_eq!(
            shared.logical_members(),
            flat.total_members() as u64,
            "{}",
            c.name()
        );
        assert_eq!(
            shared.total_observe_refs(),
            flat.total_observe_refs() as u64,
            "{}",
            c.name()
        );
    }

    #[test]
    fn plans_match_fanout_cones() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        assert_eq!(plans.len(), c.len());
        for id in c.node_ids() {
            let plan = plans.plan(id);
            let decoded = plan.materialize(&c);
            let cone = FanoutCone::extract(&c, id);
            // Same membership (plan is topo-sorted, cone id-sorted).
            let mut plan_members = decoded.members.clone();
            plan_members.sort_unstable();
            assert_eq!(plan_members, cone.on_path(), "site {id}");
            assert_eq!(decoded.members[0], id, "site first");
            assert_eq!(plan.len(), decoded.members.len(), "O(1) len agrees");
            // The members() iterator walks the same logical cone.
            let walked: Vec<NodeId> = plan.members().collect();
            assert_eq!(walked, decoded.members);
            // Topological order.
            for w in decoded.members.windows(2) {
                assert!(topo.position(w[0]) < topo.position(w[1]));
            }
            // Observe points match.
            assert_eq!(decoded.observe_refs.len(), cone.observe_points().len());
            assert_eq!(plan.observe_len(), decoded.observe_refs.len());
            assert_eq!(plan.is_dead(), cone.is_dead());
            for &(obs, local) in &decoded.observe_refs {
                let p = topo.observe_points()[obs as usize];
                assert_eq!(decoded.members[local as usize], p.signal());
            }
        }
    }

    #[test]
    fn fanin_classification_is_exact() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        let a = c.find("A").unwrap();
        let decoded = plans.plan(a).materialize(&c);
        let cone = FanoutCone::extract(&c, a);
        for (pos, &member) in decoded.members.iter().enumerate() {
            if pos == 0 {
                assert!(decoded.fanin_refs[0].is_empty(), "site has no refs");
                continue;
            }
            let node = c.node(member);
            let refs = &decoded.fanin_refs[pos];
            assert_eq!(refs.len(), node.fanin().len(), "one ref per fanin pin");
            for (&r, &f) in refs.iter().zip(node.fanin()) {
                match r {
                    FaninRef::OnPath(local) => {
                        assert!(cone.contains(f), "{f} claimed on-path");
                        assert_eq!(decoded.members[local], f);
                    }
                    FaninRef::OffPath(idx) => {
                        assert!(!cone.contains(f), "{f} claimed off-path");
                        assert_eq!(idx, f.index());
                    }
                }
            }
        }
        // Fig. 1: H = OR(C, D, G) with C off-path, D and G on-path.
        let h_pos = decoded
            .members
            .iter()
            .position(|&m| m == c.find("H").unwrap())
            .unwrap();
        let h_refs = &decoded.fanin_refs[h_pos];
        assert!(matches!(h_refs[0], FaninRef::OffPath(_)), "C off-path");
        assert!(matches!(h_refs[1], FaninRef::OnPath(_)), "D on-path");
        assert!(matches!(h_refs[2], FaninRef::OnPath(_)), "G on-path");
    }

    #[test]
    fn intersects_agrees_with_membership() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        // Every (site, single-node seed) pair: intersects == membership.
        for site in c.node_ids() {
            let plan = plans.plan(site);
            for seed in c.node_ids() {
                let mut marked = vec![false; c.len()];
                marked[seed.index()] = true;
                assert_eq!(
                    plan.intersects(&marked),
                    plan.members().any(|m| m == seed),
                    "site {site} seed {seed}"
                );
            }
        }
        // And the empty mask never intersects.
        let empty = vec![false; c.len()];
        for site in c.node_ids() {
            assert!(!plans.plan(site).intersects(&empty));
        }
    }

    #[test]
    fn duplicate_fanin_pins_are_preserved() {
        // y = AND(a, a): the plan must carry two references to `a`.
        let c = parse_bench("INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n", "dup").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        let a = c.find("a").unwrap();
        let decoded = plans.plan(a).materialize(&c);
        assert_eq!(decoded.members.len(), 2);
        assert_eq!(
            decoded.fanin_refs[1],
            vec![FaninRef::OnPath(0), FaninRef::OnPath(0)],
            "both pins resolve to local 0"
        );
        assert_matches_flat(&c);
    }

    #[test]
    fn dff_clips_the_cone_but_is_observed() {
        let c = parse_bench(
            "INPUT(x)\nOUTPUT(z)\ng = NOT(x)\nq = DFF(g)\nz = NOT(q)\n",
            "seq",
        )
        .unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        let x = c.find("x").unwrap();
        let decoded = plans.plan(x).materialize(&c);
        let member_names: Vec<&str> = decoded.members.iter().map(|&m| c.node(m).name()).collect();
        assert_eq!(member_names, vec!["x", "g"], "cone stops at the DFF");
        assert_eq!(decoded.observe_refs.len(), 1);
        let (obs, local) = decoded.observe_refs[0];
        assert!(topo.observe_points()[obs as usize].is_flip_flop());
        assert_eq!(c.node(decoded.members[local as usize]).name(), "g");
        assert_matches_flat(&c);
    }

    #[test]
    fn cost_counts_members_and_fanins() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        let a = c.find("A").unwrap();
        // Cone {A, E, D, G, H}: 5 members; fanins E:1, D:2, G:2, H:3 = 8.
        assert_eq!(plans.plan(a).cost(), 13);
        assert!(plans.max_cone_len() >= 5);
        // The O(1) cost of every site equals the decoded pin total.
        for id in c.node_ids() {
            let plan = plans.plan(id);
            let decoded = plan.materialize(&c);
            let pins: usize = decoded.fanin_refs.iter().map(Vec::len).sum();
            assert_eq!(plan.cost(), decoded.members.len() + pins, "site {id}");
        }
        assert_eq!(
            plans.total_observe_refs(),
            c.node_ids()
                .map(|i| plans.plan(i).observe_len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn suffix_sharing_dedups_chain_members() {
        // FIG1: anchors are A (2 successors) and H (none); the other 6
        // nodes are chain nodes. Stored = 6 chain entries + the two
        // tail cones {A,E,D,G,H} and {H} = 12, against 19 logical.
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        assert_eq!(plans.tail_count(), 2);
        assert_eq!(plans.stored_members(), 12);
        assert_eq!(
            plans.logical_members(),
            c.node_ids()
                .map(|i| plans.plan(i).len() as u64)
                .sum::<u64>()
        );
        assert!(plans.logical_members() > plans.stored_members() as u64);
        assert!(plans.arena_bytes() > 0);
    }

    #[test]
    fn bounded_build_counts_stored_members() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let full = build_all(&c, &topo);
        let stored = full.stored_members();
        // The stored (deduplicated) total is what the budget bounds:
        // a budget below it declines, at it the build is identical.
        assert!(build_with_budget(&c, &topo, stored - 1).is_none());
        let bounded = build_with_budget(&c, &topo, stored).unwrap();
        assert_eq!(bounded, full);
        // The logical total no longer matters: FIG1 stores 12 of 19
        // logical members, so a budget between the two still fits.
        assert!(stored < full.logical_members() as usize);
        assert!(build_with_budget(&c, &topo, stored + 1).is_some());
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        // A chain with side inputs: 2,401 nodes (above the parallel
        // threshold), cone sizes from the whole chain down to 1.
        let stages = 1200;
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
        let c = parse_bench(&src, "chain").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let sequential = ConePlans::build(&c, &topo, usize::MAX, 1, None)
            .unwrap()
            .unwrap();
        for threads in [2, 4, 7] {
            let parallel = ConePlans::build(&c, &topo, usize::MAX, threads, None)
                .unwrap()
                .unwrap();
            assert_eq!(parallel, sequential, "{threads} threads");
        }
        // The budget decision is deterministic in parallel too: decline
        // below the stored total, accept at it.
        let stored = sequential.stored_members();
        assert!(ConePlans::build(&c, &topo, stored - 1, 4, None)
            .unwrap()
            .is_none());
        let at_budget = ConePlans::build(&c, &topo, stored, 4, None)
            .unwrap()
            .unwrap();
        assert_eq!(at_budget, sequential);
        // Every chain node shares the suffix: the stored total is
        // linear while the logical total is quadratic.
        assert!(sequential.logical_members() > 10 * sequential.stored_members() as u64);
    }

    #[test]
    fn suffix_shared_matches_flat_oracle() {
        for (name, src) in [
            ("fig1", FIG1),
            ("dup", "INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\n"),
            ("seq", "INPUT(x)\nOUTPUT(z)\ng = NOT(x)\nq = DFF(g)\nz = NOT(q)\n"),
            (
                "reconv",
                "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = NOT(a)\nv = NAND(a, b)\nw = XOR(u, v)\ny = OR(w, u)\n",
            ),
        ] {
            let c = parse_bench(src, name).unwrap();
            assert_matches_flat(&c);
        }
    }

    #[test]
    fn cancelled_build_aborts_and_live_token_is_identical() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let reference = build_all(&c, &topo);

        // A live token changes nothing: the build is bit-identical.
        let live = crate::CancelToken::new();
        let with_token = ConePlans::build(&c, &topo, usize::MAX, 1, Some(&live))
            .unwrap()
            .unwrap();
        assert_eq!(with_token, reference);

        // A tripped token aborts at the first checkpoint with its
        // cause; the budget decline stays distinguishable.
        let tripped = crate::CancelToken::new();
        tripped.cancel();
        assert_eq!(
            ConePlans::build(&c, &topo, usize::MAX, 1, Some(&tripped)),
            Err(crate::CancelCause::Cancelled)
        );
        let expired = crate::CancelToken::with_deadline(std::time::Instant::now());
        assert_eq!(
            ConePlans::build(&c, &topo, usize::MAX, 1, Some(&expired)),
            Err(crate::CancelCause::DeadlineExceeded)
        );
        assert_eq!(ConePlans::build(&c, &topo, 1, 1, Some(&live)), Ok(None));
    }

    #[test]
    fn empty_circuit_has_no_plans() {
        let c = crate::builder::CircuitBuilder::new("empty")
            .finish()
            .unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let plans = build_all(&c, &topo);
        assert!(plans.is_empty());
        assert_eq!(plans.max_cone_len(), 0);
        assert_eq!(plans.stored_members(), 0);
        let flat = FlatConePlans::build(&c, &topo, usize::MAX, 1).unwrap();
        assert!(flat.is_empty());
    }
}
