//! Precomputed per-site cone plans — the compiled form of the paper's
//! "path construction" step — in a **suffix-shared arena** of bitset
//! windows.
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
//! - **anchor** — 0 or ≥ 2 successors. Its cone is stored once in the
//!   shared **tail arena** as a **bitset window** over topological
//!   positions: the words `p / 64 ..= max_pos / 64`, where `p` is the
//!   anchor's position and `max_pos` the largest position in its cone.
//!   Every cone member sits at a position above its anchor, so the
//!   anchor's own bit is the lowest bit set, and walking the set bits
//!   upward yields the members in topological order. A tail stores no
//!   per-member kinds or fanin refs: those live in circuit-sized
//!   **per-position tables** (`pos_kind`, `pos_pin_off`/`pos_pins`)
//!   shared by every tail. Its observe points are one row of bits over
//!   the observe indices (set bits walk in observe order, the order a
//!   sweep emits points in); a point's signal position comes from the
//!   circuit-sized `obs_pos` table.
//! - **chain node** — exactly 1 successor. Its cone is *not* stored:
//!   it is the path `self → next → … → anchor` followed by the
//!   anchor's shared tail. Per node we store only O(1) scalars: the
//!   next chain hop, the tail id, the path length, and suffix
//!   pin/observe counts for O(1) `cost()`/`observe_len()`.
//!
//! Chain edges form in-trees toward anchors, so many sites share one
//! tail entry, and a window spends one bit per position it spans where
//! a sorted position list spent four bytes per member: s9234's tail
//! store is 1.6 MB as windows and was 27.7 MB as lists.
//!
//! On-path/off-path fanin classification is *not* precomputed per tail
//! member. A `pos_pins` row holds only fanin **positions**, and the
//! sweep kernel reads every pin from one value plane indexed by
//! topological position: each position holds its signal's off-path
//! (signal-probability) tuple until the site's walk writes the
//! member's four-value tuple there, and the walk restores it
//! afterwards. A pin is therefore on-path exactly when its position
//! was written earlier in the same walk. Three facts make this exact
//! (proptest-enforced in `tests/plan_builder.rs` against an oracle
//! built from [`FanoutCone::extract`](crate::FanoutCone::extract)):
//!
//! 1. A path member's only possible on-path fanin is its path
//!    predecessor (a chain node has exactly one combinational
//!    successor, so any other cone member reading it would make it an
//!    anchor), and no tail member can read a path chain node for the
//!    same reason. So a path member's value is read once, by the next
//!    path member, and the walk may restore its position right after.
//! 2. Every fanin sits at a strictly lower topological position than
//!    its consumer and cone members are evaluated in ascending
//!    position order, so every on-path pin is written before it is
//!    read, and every position not in the cone still holds its
//!    signal-probability tuple.
//! 3. Cone order is path positions ascending followed by the anchor's
//!    cone (all at strictly greater topological positions), which is
//!    exactly the cone sorted by topological position; observe
//!    indices are unique per site, so merging the sorted path observes
//!    with the tail's observe row preserves the reference emission
//!    order. A tail observe's value sits at its signal's position.
//!
//! AND/NAND and OR/NOR rows are padded to a multiple of four pins with
//! two sentinel positions past the circuit's own: `n` (the node count)
//! pads AND-class rows and `n + 1` OR-class rows. A consumer's plane
//! holds the rule's identity tuple there, so a padded row reads as
//! exactly its real pins (see [`ConePlans::pins_at`]). XOR/XNOR,
//! BUF/NOT and the flip-flop D pin hold their true pin count.
//!
//! # How the plans are built
//!
//! One reverse-topological pass visits the anchors. When anchor `p` is
//! reached, every successor (all at positions above `p`) already has
//! its cone: a successor anchor's window, or — for a chain successor —
//! its path plus its own anchor's window. `p`'s window is its own bit,
//! OR the bits of each chain path, OR each successor anchor's window at
//! its word offset: word ORs, no sorted-list merge. The same step
//! records the tail's member count (the popcount), its pin total (the
//! window ANDed with bit planes of the per-position fanin counts) and
//! its observe row (the window ANDed with the observed positions).
//!
//! The byte budget bounds real memory: it is measured the way
//! [`ConePlans::arena_bytes`] measures, and checked before each window
//! is appended, so the decision is exact and deterministic.
//!
//! When the budget declines the whole-circuit plans, a sweep builds
//! plans per batch of sites instead ([`ConePlans::for_sites`]): the
//! same chain pass, per-position tables and per-tail counts, but a
//! tail table holding only the batch's anchors, each window set by a
//! forward walk over the fanout, and observe rows for those tails
//! only. [`ConePlans::sites_per_batch`] sizes the batches so that the
//! plans alive on every worker stay within the budget.
//!
//! The per-site definition of a cone is the paper's forward DFS,
//! [`FanoutCone::extract`](crate::FanoutCone::extract);
//! `tests/plan_builder.rs` checks every site's
//! [`materialize`](ConePlan::materialize) against it bit for bit.

use crate::artifacts::TopoArtifacts;
use crate::cancel::{CancelCause, CancelToken};
use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;

/// Sentinel for "no next chain hop" (the node is an anchor).
const NO_NEXT: u32 = u32::MAX;

/// Sentinel tail id of a node whose anchor per-batch plans left out.
const NO_TAIL: u32 = u32::MAX;

/// Bytes of one `u32` table entry, for the batch-size bound.
const U32: usize = std::mem::size_of::<u32>();

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

/// The sentinel position that pads a gate's pin row to a multiple of
/// four, relative to the circuit's node count `n`: `n` for AND/NAND,
/// `n + 1` for OR/NOR, and `None` for the kinds whose rows hold their
/// true pin count.
fn pad_position(kind: GateKind, n: u32) -> Option<u32> {
    match kind {
        GateKind::And | GateKind::Nand => Some(n),
        GateKind::Or | GateKind::Nor => Some(n + 1),
        _ => None,
    }
}

/// Slots a gate of `kind` with `pins` fanin pins takes in the pin
/// table: its pins rounded up to whole rows of four when the kind pads.
fn stored_pins(kind: GateKind, pins: usize) -> usize {
    match pad_position(kind, 0) {
        Some(_) => pins.div_ceil(4) * 4,
        None => pins,
    }
}

/// One site's plan fully decoded into owned, self-contained form — what
/// [`ConePlan::materialize`] returns, the form `tests/plan_builder.rs`
/// compares against an oracle built from
/// [`FanoutCone`](crate::FanoutCone), and a convenient debugging view.
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
/// anchor's cone exactly once, as a bitset window. A site's logical
/// cone is its chain path followed by its anchor's shared tail —
/// reconstructed on the fly by the sweep kernel and by
/// [`ConePlan::materialize`].
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
    chain_next: Vec<u32>,
    /// Tail-table id of the node's anchor (an anchor's own id).
    tail_of: Vec<u32>,
    /// Number of path members before the shared tail (0 for anchors).
    prefix_len: Vec<u32>,
    /// Fanin pins of the path members strictly after this node, the
    /// anchor included — with the tail's interior pin count this gives
    /// O(1) [`cost`](ConePlan::cost).
    path_pins_after: Vec<u32>,
    /// Observe points on the path from this node (inclusive) to the
    /// anchor (exclusive) — O(1) [`observe_len`](ConePlan::observe_len).
    path_obs_from: Vec<u32>,
    /// CSR offsets per node into `node_obs`. Length `n + 1`.
    node_obs_off: Vec<u32>,
    /// Observe-point indices of each node's signal (total = number of
    /// observe points — one signal each).
    node_obs: Vec<u32>,
    // ---- per-position tables, indexed by topological position
    //      (length n; tiny, cache-resident) ----
    /// Node id at each position (the topological order).
    pos_node: Vec<NodeId>,
    /// Gate kind at each position.
    pos_kind: Vec<GateKind>,
    /// CSR offsets per position into `pos_pins`. Length `n + 1`.
    pos_pin_off: Vec<u32>,
    /// Fanin pin positions in declaration order (duplicates
    /// preserved), AND/OR-class rows padded to a multiple of four with
    /// their sentinel position (see [`pins_at`](Self::pins_at)).
    pos_pins: Vec<u32>,
    // ---- shared tail table, one entry per anchor, in build order
    //      (descending anchor position) ----
    /// Per tail: the anchor's topological position. The window's first
    /// word covers positions `anchor / 64 * 64 ..`.
    tail_anchor: Vec<u32>,
    /// Per tail: member count, anchor included (the window's popcount).
    tail_len: Vec<u32>,
    /// Per tail: total fanin pin count of the members after the anchor
    /// — O(1) [`cost`](ConePlan::cost).
    tail_pins: Vec<u32>,
    /// CSR offsets per tail into `tail_words`. Length `T + 1`.
    tail_word_off: Vec<u32>,
    /// Every anchor's cone as a bitset window over topological
    /// positions. A member's kind and pins resolve through the
    /// per-position tables; on-path classification happens in the
    /// consumer against its walked cone (see the [module docs](self)).
    tail_words: Vec<u64>,
    /// Per tail: one row of `ceil(observe points / 64)` words, bit `o`
    /// set iff observe point `o`'s signal is a tail member. Set bits
    /// walk in observe order, the order sweeps emit points in.
    tail_obs_words: Vec<u64>,
    /// Topological position of each observe point's signal, in observe
    /// order.
    obs_pos: Vec<u32>,
    // ---- global ----
    /// Largest *logical* cone size over all sites.
    max_cone_len: usize,
    /// Sum of logical cone sizes over all sites — what the flat arena
    /// used to store.
    logical_members: u64,
    /// Sum of per-site reachable observe points — the exact arena size
    /// a whole-circuit sweep's per-point results need.
    logical_observe_refs: u64,
}

impl ConePlans {
    /// Default budget for one circuit's plan arena, in bytes as
    /// [`arena_bytes`](Self::arena_bytes) counts them. Windows are
    /// Θ(n²) bits in the worst case (densely reconvergent anchor-heavy
    /// circuits), so consumers must be prepared for
    /// [`build`](Self::build) to decline; a sweep then builds plans per
    /// batch of sites ([`for_sites`](Self::for_sites)) under the same
    /// budget.
    pub const DEFAULT_BYTE_BUDGET: usize = 256 << 20;

    /// How many anchors the build processes between cooperative
    /// cancellation checkpoints. Small enough that a trip lands within
    /// a few milliseconds even on the largest benches, large enough
    /// that the poll is free.
    const CANCEL_CHECK_EVERY: usize = 4096;

    /// Builds the suffix-shared plans for every node of `circuit`.
    /// `topo` supplies the positions and the DFF-clipped fanout
    /// adjacency. Every site decodes
    /// ([`materialize`](ConePlan::materialize)) to the cone
    /// [`FanoutCone::extract`](crate::FanoutCone::extract) defines, in
    /// topological order.
    ///
    /// Returns `Ok(None)` as soon as the plans would exceed `max_bytes`
    /// as [`arena_bytes`](Self::arena_bytes) counts them — checked
    /// before each window is appended, so a decline never allocates
    /// past the budget. That guard keeps pathological Θ(n²) circuits
    /// from exhausting memory: a sweep of a declined circuit builds
    /// plans per batch of sites instead ([`for_sites`](Self::for_sites)).
    /// Pass `usize::MAX` for no budget.
    ///
    /// The build polls `cancel` every few thousand anchors and aborts
    /// mid-compile when it trips, dropping all partial state; a
    /// declined build and a cancelled one stay distinguishable (the
    /// first sweeps on per-batch plans, the second aborts the request).
    ///
    /// # Errors
    ///
    /// The [`CancelCause`] when `cancel` trips before the build
    /// finishes.
    ///
    /// # Panics
    ///
    /// Panics if `topo` was not computed from `circuit`.
    pub fn build(
        circuit: &Circuit,
        topo: &TopoArtifacts,
        max_bytes: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<Option<Self>, CancelCause> {
        let (mut plans, frame) = ConePlans::frame(circuit, topo);
        let order = topo.order();
        plans.alloc_tails(frame.anchors.len());
        // Everything but the windows has its final size now.
        let fixed_bytes = plans.arena_bytes();
        if fixed_bytes > max_bytes {
            return Ok(None);
        }

        // Anchors in tail-id order: descending position, so every
        // successor anchor's window is built before it is read.
        let mut window: Vec<u64> = Vec::new();
        for (t, &p) in frame.anchors.iter().enumerate() {
            if t % Self::CANCEL_CHECK_EVERY == 0 {
                if let Some(token) = cancel {
                    token.check()?;
                }
            }
            let p = p as usize;
            let base = p / 64;
            let succs = topo.comb_fanout(order[p]);
            let window_end = |a: usize| {
                plans.tail_anchor[a] as usize / 64
                    + (plans.tail_word_off[a + 1] - plans.tail_word_off[a]) as usize
            };
            let end = succs
                .iter()
                .map(|&s| window_end(plans.tail_of[s.index()] as usize))
                .fold(base + 1, usize::max);
            let words_after = plans.tail_words.len() + (end - base);
            if fixed_bytes + words_after * std::mem::size_of::<u64>() > max_bytes {
                return Ok(None);
            }
            window.clear();
            window.resize(end - base, 0);
            window[0] = 1 << (p % 64);
            for &s in succs {
                let mut q = topo.position(s) as usize;
                while frame.next_pos[q] != NO_NEXT {
                    window[q / 64 - base] |= 1 << (q % 64);
                    q = frame.next_pos[q] as usize;
                }
                let a = plans.tail_of[order[q].index()] as usize;
                let words = &plans.tail_words
                    [plans.tail_word_off[a] as usize..plans.tail_word_off[a + 1] as usize];
                for (w, &x) in window[q / 64 - base..].iter_mut().zip(words) {
                    *w |= x;
                }
            }
            plans.fill_tail(t, p, &window, &frame);
        }
        plans.count_logical();
        Ok(Some(plans))
    }

    /// Builds plans for `sites` alone: the whole build's per-node and
    /// per-position tables, but a tail table that holds only the
    /// anchors of `sites`, with observe rows for those tails only. It
    /// is what a sweep runs on, batch by batch, when the byte budget
    /// declined the whole-circuit plans: a batch of k sites needs at
    /// most k windows, so its size is chosen to fit
    /// ([`sites_per_batch`](Self::sites_per_batch)).
    ///
    /// Each window comes from a forward walk over the DFF-clipped
    /// fanout that sets the bit of every position it reaches — the
    /// successors' windows, which the whole build ORs together, are
    /// not built here. [`plan`](Self::plan) answers for every node
    /// whose anchor is one of these tails (every site in `sites`
    /// included) and panics for any other.
    ///
    /// # Panics
    ///
    /// Panics if `topo` was not computed from `circuit` or a site is
    /// out of range.
    #[must_use]
    pub fn for_sites(circuit: &Circuit, topo: &TopoArtifacts, sites: &[NodeId]) -> Self {
        let (mut plans, frame) = ConePlans::frame(circuit, topo);
        // The sites' anchors, renumbered densely in the whole build's
        // tail order; every other anchor's nodes lose their tail.
        let mut local = vec![NO_TAIL; frame.anchors.len()];
        for &s in sites {
            local[plans.tail_of[s.index()] as usize] = 0;
        }
        let mut t_count = 0usize;
        for id in &mut local {
            if *id != NO_TAIL {
                *id = u32::try_from(t_count).expect("tail count fits u32");
                t_count += 1;
            }
        }
        for t in &mut plans.tail_of {
            *t = local[*t as usize];
        }
        plans.alloc_tails(t_count);

        // One circuit-wide bitset, set by each walk and cleared over
        // the walked window after it is copied out.
        let mut bits = vec![0u64; circuit.len().div_ceil(64)];
        let mut stack: Vec<NodeId> = Vec::new();
        for (&p, &t) in frame.anchors.iter().zip(&local) {
            if t == NO_TAIL {
                continue;
            }
            let p = p as usize;
            bits[p / 64] |= 1 << (p % 64);
            let mut max_pos = p;
            stack.push(topo.order()[p]);
            while let Some(v) = stack.pop() {
                for &s in topo.comb_fanout(v) {
                    let q = topo.position(s) as usize;
                    if bits[q / 64] >> (q % 64) & 1 == 0 {
                        bits[q / 64] |= 1 << (q % 64);
                        max_pos = max_pos.max(q);
                        stack.push(s);
                    }
                }
            }
            let window = &mut bits[p / 64..=max_pos / 64];
            plans.fill_tail(t as usize, p, window, &frame);
            window.fill(0);
        }
        plans.count_logical();
        plans
    }

    /// How many sites one [`for_sites`](Self::for_sites) build may
    /// cover so that `workers` such plans alive at once stay within
    /// `max_bytes` as [`arena_bytes`](Self::arena_bytes) counts them.
    /// Every batch repeats the circuit-sized tables, and each of its
    /// at most k tails adds a window of at most `ceil(n / 64)` words
    /// and one observe row. At least 1: a circuit whose tables alone
    /// exceed the share still gets its sites swept, one per batch.
    #[must_use]
    pub fn sites_per_batch(
        circuit: &Circuit,
        topo: &TopoArtifacts,
        max_bytes: usize,
        workers: usize,
    ) -> usize {
        let (n, observes) = (circuit.len(), topo.observe_points().len());
        let pins: usize = circuit
            .iter()
            .map(|(_, node)| stored_pins(node.kind(), node.fanin().len()))
            .sum();
        let per_tail =
            4 * U32 + (n.div_ceil(64) + observes.div_ceil(64)) * std::mem::size_of::<u64>();
        let share = max_bytes / workers.max(1);
        (share.saturating_sub(Self::frame_bytes(n, observes, pins)) / per_tail).max(1)
    }

    /// Bytes of the tables every build holds whatever its tails: five
    /// per-node chain tables, the node observe CSR, the per-position
    /// tables (`pins` stored pin slots, padding included), the observe
    /// positions and the tail offsets' leading 0.
    fn frame_bytes(n: usize, observes: usize, pins: usize) -> usize {
        U32 * (5 * n + (n + 1) + observes)
            + n * (std::mem::size_of::<NodeId>() + std::mem::size_of::<GateKind>())
            + U32 * (n + 1)
            + pins * U32
            + U32 * (observes + 1)
    }

    /// The chain pass and the per-position tables, shared by both
    /// builds: plans with every per-node and per-position table at its
    /// final size and an empty tail table, plus what only the build
    /// reads. A node with exactly one combinational successor is a
    /// chain node and shares its successor's tail id; every other node
    /// is an anchor and opens the next tail id, so tail ids follow
    /// descending anchor position.
    fn frame(circuit: &Circuit, topo: &TopoArtifacts) -> (Self, Frame) {
        let n = circuit.len();
        assert_eq!(topo.len(), n, "artifacts must cover every node");
        let order = topo.order();

        // Observe points indexed by observed signal, in observe order.
        let observe = topo.observe_points();
        let mut obs_of_signal: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, p) in observe.iter().enumerate() {
            obs_of_signal[p.signal().index()].push(u32::try_from(i).expect("observe fits u32"));
        }

        // The per-node chain tables, back to front so each chain node
        // reads its successor's entries.
        let mut next_pos = vec![NO_NEXT; n];
        let mut anchors = Vec::new();
        let mut chain_next = vec![NO_NEXT; n];
        let mut tail_of = vec![0u32; n];
        let mut prefix_len = vec![0u32; n];
        let mut path_pins_after = vec![0u32; n];
        let mut path_obs_from = vec![0u32; n];
        for p in (0..n).rev() {
            let v = order[p].index();
            if let [s] = *topo.comb_fanout(order[p]) {
                let si = s.index();
                next_pos[p] = topo.position(s);
                tail_of[v] = tail_of[si];
                chain_next[v] = u32::try_from(si).expect("node index fits u32");
                prefix_len[v] = prefix_len[si] + 1;
                path_pins_after[v] = u32::try_from(circuit.node(s).fanin().len())
                    .expect("pins fit u32")
                    + path_pins_after[si];
                path_obs_from[v] =
                    u32::try_from(obs_of_signal[v].len()).expect("obs fit u32") + path_obs_from[si];
            } else {
                tail_of[v] = u32::try_from(anchors.len()).expect("tail count fits u32");
                anchors.push(u32::try_from(p).expect("node count fits u32"));
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

        let tables = PosTables::build(circuit, topo, &obs_of_signal);
        let plans = ConePlans {
            chain_next,
            tail_of,
            prefix_len,
            path_pins_after,
            path_obs_from,
            node_obs_off,
            node_obs,
            pos_node: order.to_vec(),
            pos_kind: tables.kind,
            pos_pin_off: tables.pin_off,
            pos_pins: tables.pins,
            tail_anchor: Vec::new(),
            tail_len: Vec::new(),
            tail_pins: Vec::new(),
            tail_word_off: vec![0],
            tail_words: Vec::new(),
            tail_obs_words: Vec::new(),
            obs_pos: observe.iter().map(|o| topo.position(o.signal())).collect(),
            max_cone_len: 0,
            logical_members: 0,
            logical_observe_refs: 0,
        };
        let frame = Frame {
            next_pos,
            anchors,
            observed: tables.observed,
            pin_planes: tables.pin_planes,
        };
        (plans, frame)
    }

    /// Sizes the tail table for `t_count` tails, windows still empty.
    fn alloc_tails(&mut self, t_count: usize) {
        self.tail_anchor = vec![0; t_count];
        self.tail_len = vec![0; t_count];
        self.tail_pins = vec![0; t_count];
        self.tail_word_off = vec![0; t_count + 1];
        self.tail_obs_words = vec![0; t_count * self.obs_pos.len().div_ceil(64)];
    }

    /// Appends tail `t`'s window — anchor at position `p`, the words
    /// covering positions `p / 64 * 64 ..` — and records its member
    /// count (the popcount), its pin total (the window ANDed with the
    /// fanin-count bit planes) and its observe row (the window ANDed
    /// with the observed positions), a word at a time. Tails are
    /// filled in id order.
    fn fill_tail(&mut self, t: usize, p: usize, window: &[u64], frame: &Frame) {
        let base = p / 64;
        let stride = self.obs_pos.len().div_ceil(64);
        let mut len = 0u32;
        let mut pins = 0u32;
        let obs_row = &mut self.tail_obs_words[t * stride..(t + 1) * stride];
        for (i, &w) in window.iter().enumerate() {
            let word = base + i;
            let mut observed = w & frame.observed[word];
            while observed != 0 {
                let v = self.pos_node[word * 64 + observed.trailing_zeros() as usize].index();
                let (lo, hi) = (self.node_obs_off[v], self.node_obs_off[v + 1]);
                for &obs in &self.node_obs[lo as usize..hi as usize] {
                    obs_row[obs as usize / 64] |= 1 << (obs % 64);
                }
                observed &= observed - 1;
            }
            for (b, plane) in frame.pin_planes.iter().enumerate() {
                pins += (w & plane[word]).count_ones() << b;
            }
            len += w.count_ones();
        }
        // The anchor's own pins belong to the paths that reach it.
        pins -= frame.pins_at(p);

        self.tail_words.extend_from_slice(window);
        self.tail_anchor[t] = u32::try_from(p).expect("node count fits u32");
        self.tail_len[t] = len;
        self.tail_pins[t] = pins;
        self.tail_word_off[t + 1] =
            u32::try_from(self.tail_words.len()).expect("window words fit u32");
    }

    /// The logical totals over every node these plans answer for.
    fn count_logical(&mut self) {
        for v in 0..self.len() {
            if self.tail_of[v] == NO_TAIL {
                continue;
            }
            let plan = self.plan(NodeId::from_index(v));
            let (len, obs) = (plan.len(), plan.observe_len());
            self.max_cone_len = self.max_cone_len.max(len);
            self.logical_members += len as u64;
            self.logical_observe_refs += obs as u64;
        }
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

    /// Largest logical cone size over all sites.
    #[must_use]
    pub fn max_cone_len(&self) -> usize {
        self.max_cone_len
    }

    /// **Stored** (deduplicated) members: one entry per chain node
    /// plus every tail's members — the cones the arena holds once.
    #[must_use]
    pub fn stored_members(&self) -> usize {
        let chain_nodes = self.len() - self.tail_count();
        chain_nodes + self.tail_len.iter().map(|&len| len as usize).sum::<usize>()
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
    fn tail_count(&self) -> usize {
        self.tail_len.len()
    }

    /// Node id at topological position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    #[must_use]
    fn node_at(&self, pos: u32) -> NodeId {
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

    /// Fanin pin positions of the node at position `pos`, in
    /// declaration order (duplicates preserved). AND/NAND rows are
    /// padded to a multiple of four with position `len()`, OR/NOR rows
    /// with `len() + 1`: a value plane that holds the AND identity
    /// `(0, 0, 0, 1)` and the OR identity `(0, 0, 1, 0)` at those two
    /// positions makes each padded pin a factor of exactly 1. Every
    /// other kind's row holds its true pin count. Whether a pin is
    /// on-path for a given cone is decided by the consumer (see the
    /// `plan` module docs).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[inline]
    #[must_use]
    pub fn pins_at(&self, pos: u32) -> &[u32] {
        let pos = pos as usize;
        &self.pos_pins[self.pos_pin_off[pos] as usize..self.pos_pin_off[pos + 1] as usize]
    }

    /// Topological position of observe point `obs`'s signal (`obs`
    /// indexes the artifacts' observe order).
    ///
    /// # Panics
    ///
    /// Panics if `obs` is out of range.
    #[inline]
    #[must_use]
    pub fn observe_pos(&self, obs: u32) -> u32 {
        self.obs_pos[obs as usize]
    }

    /// Total reachable observe points over all sites — the exact arena
    /// size a whole-circuit sweep's per-point results need.
    #[must_use]
    pub fn total_observe_refs(&self) -> u64 {
        self.logical_observe_refs
    }

    /// Heap bytes of the arena (every table, exact element sizes) —
    /// the quantity [`build`](Self::build)'s budget bounds and the
    /// `arena_bytes` the sweep benchmark reports.
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
            + bytes(&self.pos_pin_off)
            + bytes(&self.pos_pins)
            + bytes(&self.tail_anchor)
            + bytes(&self.tail_len)
            + bytes(&self.tail_pins)
            + bytes(&self.tail_word_off)
            + bytes(&self.tail_words)
            + bytes(&self.tail_obs_words)
            + bytes(&self.obs_pos)
    }

    /// The plan of one site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range, or is not covered by plans
    /// built [`for_sites`](Self::for_sites).
    #[must_use]
    pub fn plan(&self, site: NodeId) -> ConePlan<'_> {
        assert!(site.index() < self.len(), "site {site} out of range");
        assert_ne!(
            self.tail_of[site.index()],
            NO_TAIL,
            "site {site} is not covered by these per-batch plans"
        );
        ConePlan {
            plans: self,
            site: site.index(),
        }
    }
}

/// A borrowed view of one site's plan inside the suffix-shared
/// [`ConePlans`]: the chain path (walked via
/// [`next_of`](Self::next_of)) followed by the shared
/// [`tail`](Self::tail). The size and cost accessors are O(1).
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

    /// Number of reachable observe points: O(1) for the path, a
    /// popcount over the tail's observe row for the rest.
    #[must_use]
    pub fn observe_len(&self) -> usize {
        self.plans.path_obs_from[self.site] as usize + self.tail().observes().len()
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
            tail: self.tail().positions(),
        }
    }

    /// Decodes the plan into owned, self-contained [`SitePlan`] form —
    /// resolving path fanins by predecessor comparison and each tail
    /// pin by whether its position is a tail member, the membership
    /// the sweep kernel's position plane encodes (see the `plan`
    /// module docs). This is the representation `tests/plan_builder.rs`
    /// compares against its [`FanoutCone`](crate::FanoutCone)-based
    /// oracle.
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
        // one); the cone-local index of tail member k is l + k. Padding
        // positions (at or past the node count) are no pins.
        let positions: Vec<u32> = tail.positions().collect();
        members.extend(positions.iter().map(|&q| self.plans.node_at(q)));
        kinds.extend(positions.iter().map(|&q| self.plans.kind_at(q)));
        let n = self.plans.len();
        for &q in &positions[1..] {
            fanin_refs.push(
                self.plans
                    .pins_at(q)
                    .iter()
                    .filter(|&&pf| (pf as usize) < n)
                    .map(|&pf| match positions.binary_search(&pf) {
                        Ok(k) => FaninRef::OnPath(l + k),
                        Err(_) => FaninRef::OffPath(self.plans.node_at(pf).index()),
                    })
                    .collect(),
            );
        }
        debug_assert_eq!(members.len(), len);
        debug_assert_eq!(fanin_refs.len(), len);

        // Observe refs: sorted path observes merged with the tail's
        // (ascending) observes, whose signals sit at tail rank + l.
        // Observe indices are unique per site, so the merge is a strict
        // interleave.
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
        let tobs: Vec<(u32, u32)> = tail
            .observes()
            .map(|obs| {
                let rank = positions
                    .binary_search(&self.plans.observe_pos(obs))
                    .expect("a tail observe's signal is a tail member");
                (obs, u32::try_from(l + rank).expect("cone fits u32"))
            })
            .collect();
        let mut observe_refs = Vec::with_capacity(path_obs.len() + tobs.len());
        let (mut i, mut j) = (0, 0);
        while i < path_obs.len() || j < tobs.len() {
            let take_path = j >= tobs.len() || (i < path_obs.len() && path_obs[i].0 < tobs[j].0);
            if take_path {
                observe_refs.push(path_obs[i]);
                i += 1;
            } else {
                observe_refs.push(tobs[j]);
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
/// shared tail's window.
#[derive(Debug, Clone)]
pub struct PlanMembers<'a> {
    plans: &'a ConePlans,
    next_node: u32,
    path_left: u32,
    tail: SetBits<'a>,
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
            self.tail.next().map(|q| self.plans.node_at(q))
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
    /// Number of tail members (anchor included); at least 1.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.tail_len[self.tail] as usize
    }

    /// Always `false`: a tail contains at least its anchor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tail's bitset window: bit `b` of word `i` is set iff
    /// topological position `base + 64 * i + b` is a tail member, where
    /// `base` is the anchor's position rounded down to a multiple of 64.
    /// The lowest set bit is the anchor.
    #[must_use]
    pub fn window(&self) -> &'a [u64] {
        let off = &self.plans.tail_word_off;
        &self.plans.tail_words[off[self.tail] as usize..off[self.tail + 1] as usize]
    }

    /// The topological position bit 0 of the window's first word
    /// stands for: the anchor's position rounded down to a multiple of
    /// 64.
    #[must_use]
    fn window_base(&self) -> u32 {
        self.plans.tail_anchor[self.tail] & !63
    }

    /// Tail members as ascending topological positions (the window's
    /// set bits); the first is the anchor. Resolve a member's gate kind
    /// and fanin pins through [`ConePlans::kind_at`] and
    /// [`ConePlans::pins_at`]; a pin is
    /// on-path iff its position is a tail member (tail-local index =
    /// rank among the members, cone-local index = that plus the site's
    /// path length).
    #[must_use]
    pub fn positions(&self) -> SetBits<'a> {
        SetBits::new(self.window(), self.window_base(), self.len())
    }

    /// Indices of the observe points whose signals are tail members, in
    /// ascending (observe) order. Resolve an index's signal position
    /// through [`ConePlans::observe_pos`].
    #[must_use]
    pub fn observes(&self) -> SetBits<'a> {
        let stride = self.plans.obs_pos.len().div_ceil(64);
        let row = &self.plans.tail_obs_words[self.tail * stride..(self.tail + 1) * stride];
        let count = row.iter().map(|w| w.count_ones() as usize).sum();
        SetBits::new(row, 0, count)
    }
}

/// The set bits of a bitset, as ascending `u32` indices: a tail's
/// members as topological positions ([`TailView::positions`]) or its
/// observe points as observe indices ([`TailView::observes`]).
#[derive(Debug, Clone)]
pub struct SetBits<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Index of bit 0 of `word`.
    base: u32,
    /// The current word, bits already yielded cleared.
    word: u64,
    left: usize,
}

impl<'a> SetBits<'a> {
    /// The set bits of `words`, bit 0 of the first word standing for
    /// `base`; `count` is their popcount.
    fn new(words: &'a [u64], base: u32, count: usize) -> Self {
        SetBits {
            words: words.iter(),
            base: base.wrapping_sub(64),
            word: 0,
            left: count,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            self.word = *self.words.next()?;
            self.base = self.base.wrapping_add(64);
        }
        let q = self.base + self.word.trailing_zeros();
        self.word &= self.word - 1;
        self.left -= 1;
        Some(q)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SetBits<'_> {}

/// What only a build reads, beside the plans' own tables: each
/// position's next chain hop ([`NO_NEXT`] at anchors), the anchor
/// positions in tail-id order, and [`PosTables`]' observed-position
/// bitset and fanin-count planes.
struct Frame {
    next_pos: Vec<u32>,
    anchors: Vec<u32>,
    observed: Vec<u64>,
    pin_planes: Vec<Vec<u64>>,
}

impl Frame {
    /// The true fanin count of the node at position `p`, padding
    /// excluded, read back off the bit planes.
    fn pins_at(&self, p: usize) -> u32 {
        (0..)
            .zip(&self.pin_planes)
            .map(|(b, plane)| ((plane[p / 64] >> (p % 64)) as u32 & 1) << b)
            .sum()
    }
}

/// Per-topo-position tables compiled once per build. The kind and pin
/// tables become [`ConePlans`]' own; the rest only serve the window
/// pass:
///
/// - the gate kind,
/// - each fanin pin's topo position, AND/OR-class rows padded to whole
///   rows of four with their sentinel position,
/// - a bitset of the positions whose signals are observed,
/// - the true fanin counts as bit planes: plane `b` holds bit `b` of
///   every position's count, so a window's pin total is
///   `Σ_b popcount(window & plane_b) << b`.
struct PosTables {
    kind: Vec<GateKind>,
    /// CSR offsets per position into `pins`. Length `n + 1`.
    pin_off: Vec<u32>,
    /// Fanin pin positions in declaration order, duplicates preserved,
    /// padded per [`pad_position`].
    pins: Vec<u32>,
    /// Bit `q` set iff position `q` has an observe point.
    observed: Vec<u64>,
    /// Fanin-count bit planes, one bit per position each.
    pin_planes: Vec<Vec<u64>>,
}

impl PosTables {
    fn build(circuit: &Circuit, topo: &TopoArtifacts, obs_of_signal: &[Vec<u32>]) -> Self {
        let n = circuit.len();
        let n32 = u32::try_from(n).expect("node count fits u32");
        let words = n.div_ceil(64);
        let mut tables = PosTables {
            kind: Vec::with_capacity(n),
            pin_off: Vec::with_capacity(n + 1),
            pins: Vec::new(),
            observed: vec![0; words],
            pin_planes: Vec::new(),
        };
        tables.pin_off.push(0);
        for (p, &id) in topo.order().iter().enumerate() {
            let node = circuit.node(id);
            tables.kind.push(node.kind());
            let row_start = tables.pins.len();
            tables
                .pins
                .extend(node.fanin().iter().map(|&f| topo.position(f)));
            if let Some(pad) = pad_position(node.kind(), n32) {
                let padded = row_start + stored_pins(node.kind(), node.fanin().len());
                tables.pins.resize(padded, pad);
            }
            tables
                .pin_off
                .push(u32::try_from(tables.pins.len()).expect("edge count fits u32"));
            let pins = node.fanin().len();
            let planes = (usize::BITS - pins.leading_zeros()) as usize;
            if tables.pin_planes.len() < planes {
                tables.pin_planes.resize(planes, vec![0; words]);
            }
            for (b, plane) in tables.pin_planes.iter_mut().enumerate() {
                if pins >> b & 1 == 1 {
                    plane[p / 64] |= 1 << (p % 64);
                }
            }
            if !obs_of_signal[id.index()].is_empty() {
                tables.observed[p / 64] |= 1 << (p % 64);
            }
        }
        tables
    }
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

    fn build_with_budget(c: &Circuit, topo: &TopoArtifacts, max_bytes: usize) -> Option<ConePlans> {
        ConePlans::build(c, topo, max_bytes, None).expect("no token to trip")
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

    /// The flat plan of `site`, built without the arena: the members of
    /// its [`FanoutCone`] in topological order, each fanin classified
    /// against that set, and the observe points whose signal it holds.
    fn flat_plan(c: &Circuit, topo: &TopoArtifacts, site: NodeId) -> SitePlan {
        let mut members = FanoutCone::extract(c, site).on_path().to_vec();
        members.sort_unstable_by_key(|&m| topo.position(m));
        let mut local = vec![None; c.len()];
        for (i, &m) in members.iter().enumerate() {
            local[m.index()] = Some(i);
        }
        let fanin_refs = members
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let pins = if i == 0 { &[][..] } else { c.node(m).fanin() };
                pins.iter()
                    .map(|&f| {
                        local[f.index()].map_or(FaninRef::OffPath(f.index()), FaninRef::OnPath)
                    })
                    .collect()
            })
            .collect();
        let observe_refs = (0u32..)
            .zip(topo.observe_points())
            .filter_map(|(o, p)| local[p.signal().index()].map(|l| (o, l as u32)))
            .collect();
        SitePlan {
            site,
            kinds: members.iter().map(|&m| c.node(m).kind()).collect(),
            members,
            fanin_refs,
            observe_refs,
        }
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
            let topo = TopoArtifacts::compute(&c).unwrap();
            let shared = build_all(&c, &topo);
            let flat: Vec<SitePlan> = c.node_ids().map(|id| flat_plan(&c, &topo, id)).collect();
            for (id, expected) in c.node_ids().zip(&flat) {
                assert_eq!(&shared.plan(id).materialize(&c), expected, "{name} site {id}");
            }
            let max_len = flat.iter().map(|p| p.members.len()).max().unwrap_or(0);
            assert_eq!(shared.max_cone_len(), max_len, "{name}");
            let logical: u64 = flat.iter().map(|p| p.members.len() as u64).sum();
            assert_eq!(shared.logical_members(), logical, "{name}");
            let observes: u64 = flat.iter().map(|p| p.observe_refs.len() as u64).sum();
            assert_eq!(shared.total_observe_refs(), observes, "{name}");
        }
    }

    #[test]
    fn bounded_build_counts_arena_bytes() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let full = build_all(&c, &topo);
        let bytes = full.arena_bytes();
        // The budget bounds the arena's bytes exactly: one byte below
        // them declines, at them the build is identical.
        assert!(build_with_budget(&c, &topo, bytes - 1).is_none());
        let bounded = build_with_budget(&c, &topo, bytes).unwrap();
        assert_eq!(bounded, full);
    }

    #[test]
    fn long_chain_stores_linear_and_budgets_exactly() {
        // A chain with side inputs: 2,401 nodes, cone sizes from the
        // whole chain down to 1.
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
        let full = build_all(&c, &topo);
        // The budget decision is exact: decline one byte below the
        // arena, accept identically at it.
        let bytes = full.arena_bytes();
        assert!(build_with_budget(&c, &topo, bytes - 1).is_none());
        assert_eq!(build_with_budget(&c, &topo, bytes).unwrap(), full);
        // Every chain node shares the suffix: the stored total is
        // linear while the logical total is quadratic.
        assert!(full.logical_members() > 10 * full.stored_members() as u64);
    }

    #[test]
    fn cancelled_build_aborts_and_live_token_is_identical() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let reference = build_all(&c, &topo);

        // A live token changes nothing: the build is bit-identical.
        let live = crate::CancelToken::new();
        let with_token = ConePlans::build(&c, &topo, usize::MAX, Some(&live))
            .unwrap()
            .unwrap();
        assert_eq!(with_token, reference);

        // A tripped token aborts at the first checkpoint with its
        // cause; the budget decline stays distinguishable.
        let tripped = crate::CancelToken::new();
        tripped.cancel();
        assert_eq!(
            ConePlans::build(&c, &topo, usize::MAX, Some(&tripped)),
            Err(crate::CancelCause::Cancelled)
        );
        let expired = crate::CancelToken::with_deadline(std::time::Instant::now());
        assert_eq!(
            ConePlans::build(&c, &topo, usize::MAX, Some(&expired)),
            Err(crate::CancelCause::DeadlineExceeded)
        );
        assert_eq!(ConePlans::build(&c, &topo, 1, Some(&live)), Ok(None));
    }

    #[test]
    fn per_batch_plans_hold_only_their_anchors() {
        let c = parse_bench(FIG1, "fig1").unwrap();
        let topo = TopoArtifacts::compute(&c).unwrap();
        let whole = build_all(&c, &topo);
        // The batch bound's circuit-sized tables are exactly what a
        // build with no tail holds.
        let none = ConePlans::for_sites(&c, &topo, &[]);
        let pins = c
            .iter()
            .map(|(_, n)| stored_pins(n.kind(), n.fanin().len()))
            .sum();
        let frame = ConePlans::frame_bytes(c.len(), topo.observe_points().len(), pins);
        assert_eq!(none.arena_bytes(), frame);
        // H is its own anchor: one tail, which also serves every chain
        // node ending at H. A is an anchor outside the batch.
        let h = c.find("H").unwrap();
        let batch = ConePlans::for_sites(&c, &topo, &[h]);
        assert_eq!(batch.tail_count(), 1);
        assert_eq!(batch.plan(h).materialize(&c), whole.plan(h).materialize(&c));
        let cc = c.find("C").unwrap();
        assert_eq!(
            batch.plan(cc).materialize(&c),
            whole.plan(cc).materialize(&c)
        );
        // H, then C, D, G one hop away and B, E, F two hops away.
        assert_eq!(batch.logical_members(), 1 + 3 * 2 + 3 * 3);
        let a = c.find("A").unwrap();
        let outside = std::panic::catch_unwind(|| batch.plan(a).len());
        assert!(outside.is_err(), "A's anchor is not in the batch");
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
    }
}
