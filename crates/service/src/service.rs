//! The multi-circuit batch front-end.
//!
//! [`SerService`] is the ROADMAP's "heavy traffic" loop made concrete:
//! compiled [`AnalysisSession`]s are kept warm in a bounded LRU keyed
//! by [`Circuit::structural_hash`], and every request — sweep, site,
//! multi-cycle, Monte-Carlo — runs as small jobs on **one shared
//! executor**, so concurrent requests against different circuits
//! interleave across the worker pool instead of serializing.
//!
//! The service exists because the session layer became *owned*: an
//! `Arc<AnalysisSession>` is `Send + Sync + 'static`, so it can sit in
//! a cache, be handed to any number of concurrent requests, and be
//! moved into executor closures — none of which the old
//! `AnalysisSession<'circuit>` could do.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use ser_epp::{
    multi_cycle_monte_carlo, multi_cycle_monte_carlo_sequential, AnalysisSession, Edit,
    MultiCycleMcAbort, MultiCycleMcEstimate, MultiCycleResult, PolarityMode, SiteEpp, SweepResults,
    WhatIfAbort, WhatIfOutcome, WhatIfSession,
};
use ser_netlist::{CancelToken, Circuit, ConePlans, NodeId, PlanCache};
use ser_sim::{MonteCarlo, SequentialMonteCarlo, SiteEstimate};
use ser_sp::{InputProbs, SpVector};

use crate::executor::Executor;
use crate::lru::Lru;
use crate::request::{
    MultiCycleRequest, Request, Response, ResponseMeta, ResponsePayload, ServiceError, SiteRequest,
};
use crate::sync::lock_clean;

/// Tuning knobs of a [`SerService`].
#[derive(Debug, Clone)]
pub struct SerServiceConfig {
    /// Warm sessions kept in the LRU; the least-recently-used session
    /// is evicted when a new circuit arrives at capacity. Must be ≥ 1.
    pub max_sessions: usize,
    /// Executor worker threads. Must be ≥ 1.
    pub threads: usize,
    /// Sites per executor job when a sweep is fanned out. Smaller
    /// batches interleave better with concurrent requests; larger
    /// batches have less queue overhead. Must be ≥ 1.
    pub sweep_batch_sites: usize,
    /// Whole-circuit sweep responses kept in the cross-request cache
    /// (LRU, keyed by `(netlist hash, inputs revision, polarity)`).
    /// `0` disables response caching.
    pub max_sweep_responses: usize,
    /// Directory of the persistent compile-artifact cache
    /// ([`PlanCache`]). When set, session compilation first tries the
    /// cached cone plans for the circuit's structural hash (skipping
    /// plan compilation entirely on a hit) and persists freshly built
    /// plans on a miss — so a restarted or newly spawned replica pays
    /// cold plan compile at most once per circuit, ever. `None`
    /// disables persistence.
    pub plan_cache_dir: Option<PathBuf>,
    /// Byte budget for the persistent plan cache directory. When set,
    /// every store evicts least-recently-used `.serplan` entries
    /// (oldest mtime first; loads re-date their entry) until the
    /// directory fits — so a long-lived fleet's cache disk stays
    /// bounded. `None` (the default) leaves the directory unbounded.
    /// Ignored when `plan_cache_dir` is `None`.
    pub plan_cache_max_bytes: Option<u64>,
    /// Largest Monte-Carlo vector count one request may ask for
    /// (fixed-count or sequential-rule cap alike). Requests over the
    /// ceiling are rejected with [`ServiceError::CapExceeded`] *before*
    /// any executor job is enqueued, so one greedy client cannot pin a
    /// worker for hours. Must be ≥ 1.
    pub max_vectors: u64,
    /// Largest multi-cycle frame-expansion depth one request may ask
    /// for. Same up-front rejection discipline. Must be ≥ 1.
    pub max_cycles: usize,
    /// Largest multi-cycle simulation run count one request may ask
    /// for. Same up-front rejection discipline. Must be ≥ 1.
    pub max_runs: u64,
    /// What-if sessions kept warm, one per base netlist (LRU, keyed by
    /// [`Circuit::structural_hash`]). Each holds the edit stack and the
    /// dense base sweep that make incremental re-analysis cheap. Must
    /// be ≥ 1.
    pub max_whatif_sessions: usize,
}

impl Default for SerServiceConfig {
    fn default() -> Self {
        SerServiceConfig {
            max_sessions: 8,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            sweep_batch_sites: 256,
            max_sweep_responses: 32,
            plan_cache_dir: None,
            plan_cache_max_bytes: None,
            // Permissive but finite: far above anything the benches or
            // the paper's experiments ask for, low enough that a typo'd
            // `1e18` cannot wedge a worker.
            max_vectors: 1_000_000_000,
            max_cycles: 4_096,
            max_runs: 1_000_000_000,
            max_whatif_sessions: 4,
        }
    }
}

/// Counters the service keeps (monotonic over its lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that found a warm session in the cache.
    pub session_hits: u64,
    /// Requests that had to compile a session.
    pub session_misses: u64,
    /// Sessions evicted to make room.
    pub evictions: u64,
    /// Sessions currently cached.
    pub sessions_cached: usize,
    /// Whole-circuit sweep requests served straight from the
    /// cross-request response cache (no executor jobs at all).
    pub sweep_cache_hits: u64,
    /// Cacheable sweep requests that had to run (and then populated
    /// the cache).
    pub sweep_cache_misses: u64,
    /// Sweep responses currently cached.
    pub sweep_responses_cached: usize,
    /// Session compiles whose cone plans were loaded from the
    /// persistent artifact cache (plan compilation skipped).
    pub plan_cache_hits: u64,
    /// Session compiles that built plans fresh while a persistent
    /// cache was configured (the entry was absent, stale or invalid;
    /// the built plans were persisted for next time).
    pub plan_cache_misses: u64,
    /// Persistent-cache entries evicted by the byte cap
    /// ([`SerServiceConfig::plan_cache_max_bytes`]) across every store
    /// this service performed. Always 0 on an unbounded cache.
    pub plan_cache_evictions: u64,
    /// What-if sessions currently warm (one per base netlist).
    pub whatif_sessions_cached: usize,
    /// Requests aborted at a cooperative checkpoint — an explicit
    /// cancel or an expired deadline. Partial work was dropped; no
    /// cache was populated from a cancelled request.
    pub requests_cancelled: u64,
    /// Connections the TCP front door reaped for idling past the
    /// configured idle timeout (see
    /// [`TcpTransport::with_idle_timeout`](crate::TcpTransport::with_idle_timeout)).
    pub idle_reaped: u64,
}

/// Cross-request sweep-response cache key: `(netlist hash, polarity)`.
/// The *inputs* dimension is not part of the key — every entry pins
/// the exact `Arc<SpVector>` its sweep was computed under, and lookups
/// require pointer identity with the resolved session's current SP
/// vector. That is what makes invalidation airtight: session revision
/// numbers are per-clone counters that diverged clones (or an
/// evict-recompile cycle) can collide on, but an SP *allocation* is
/// unique per distribution for as long as anything references it —
/// and the entry itself keeps it alive, so pointer reuse is
/// impossible. [`SerService::set_inputs`] additionally purges the
/// hash's entries so stale arenas don't linger until overwritten.
type SweepKey = (u64, PolarityMode);

struct SweepCacheEntry {
    /// The SP vector the cached sweep was computed under (identity is
    /// the validity check — see [`SweepKey`]).
    sp: Arc<SpVector>,
    results: Arc<SweepResults>,
}

/// One warm what-if session per base netlist. The entry is an
/// `Arc<Mutex<…>>` so the edit/revert critical section is **per
/// netlist**: a long re-sweep of one circuit's what-if stack never
/// blocks edits against another circuit (the outer map lock is held
/// only for the lookup).
#[derive(Clone)]
struct WhatIfEntry {
    /// The *base* (unedited) circuit the stack grew from — the
    /// collision guard, exactly like the session cache's `same_circuit`
    /// check: a hash-colliding different netlist must never be handed
    /// another circuit's edit stack.
    base: Arc<Circuit>,
    session: Arc<Mutex<WhatIfSession>>,
}

/// The multi-circuit SER service: warm compiled sessions in a bounded
/// LRU, with every request fanned out onto one shared executor.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use ser_netlist::parse_bench;
/// use ser_service::{Request, SerService, SweepRequest};
///
/// let c: Arc<_> = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?.into();
/// let service = SerService::with_defaults();
/// let response = service.submit(&c, Request::Sweep(SweepRequest::default()))?;
/// let sweep = response.as_sweep().unwrap();
/// assert_eq!(sweep.len(), c.len());
/// assert!(!response.meta.warm_session, "first request compiles");
/// // Same netlist again: served from the warm cache.
/// let again = service.submit(&c, Request::Sweep(SweepRequest::default()))?;
/// assert!(again.meta.warm_session);
/// assert_eq!(again.as_sweep().unwrap(), sweep);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SerService {
    config: SerServiceConfig,
    executor: Executor,
    cache: Mutex<Lru<u64, Arc<AnalysisSession>>>,
    sweep_cache: Mutex<Lru<SweepKey, SweepCacheEntry>>,
    /// Last `set_inputs` distribution per netlist hash — consulted when
    /// a session is (re)compiled, so eviction cannot silently revert a
    /// circuit to default inputs.
    inputs_overrides: Mutex<HashMap<u64, InputProbs>>,
    /// Persistent compile-artifact cache (`None` when not configured).
    plan_cache: Option<PlanCache>,
    /// Warm what-if sessions, one per base netlist hash.
    whatif: Mutex<Lru<u64, WhatIfEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    sweep_hits: AtomicU64,
    sweep_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    cancelled: AtomicU64,
    /// Shared with the TCP transport's per-connection line streams —
    /// they bump it when an idle connection is reaped, the service
    /// only reads it for [`stats`](Self::stats).
    idle_reaped: Arc<AtomicU64>,
}

/// A progress event emitted while a streaming-capable request runs —
/// the service-level signal the wire protocol turns into `progress`
/// frames. Events are advisory: they never change what the final
/// [`Response`] contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// A sweep's executor parts completing; `sites_done` is cumulative.
    Sweep {
        /// Sites evaluated so far.
        sites_done: usize,
        /// Sites the sweep will evaluate in total.
        sites_total: usize,
    },
    /// A sequential (Mendo-rule) Monte-Carlo run's trial counters, at
    /// doubling vector thresholds starting at
    /// [`MC_PROGRESS_FIRST_AT`](SerService::MC_PROGRESS_FIRST_AT).
    MonteCarlo {
        /// Vectors simulated so far.
        vectors: u64,
        /// Sensitized observations so far.
        sensitized: u64,
    },
}

/// A progress callback. Invoked from executor workers (Monte-Carlo)
/// and from the collecting thread (sweep parts), so it must be
/// `Send + Sync`; keep it cheap — it runs on the request's hot path.
pub type ProgressFn = Arc<dyn Fn(Progress) + Send + Sync>;

/// One job of a [`SerService::submit_batch`]: the circuit, the typed
/// request, an optional per-job progress sink and an optional per-job
/// cancel token.
pub type BatchJob = (
    Arc<Circuit>,
    Request,
    Option<ProgressFn>,
    Option<CancelToken>,
);

/// One executor job's output, tagged `(job, part)` for reassembly.
enum Part {
    Sweep(SweepResults),
    Site(SiteEpp),
    MultiCycle(MultiCycleResult, Option<MultiCycleMcEstimate>),
    MonteCarlo(SiteEstimate),
}

/// `(job, part, result, completed_at)` — the timestamp is taken by the
/// worker the moment the part finishes, so per-job wall time never
/// includes time spent preparing or collecting *other* jobs.
type PartMsg = (usize, usize, Result<Part, ServiceError>, Instant);

/// A validated job waiting for its parts.
struct Prepared {
    session: Arc<AnalysisSession>,
    warm: bool,
    started: Instant,
    /// Number of executor jobs this request fans out to.
    parts: usize,
    request: Request,
    /// A response served straight from the sweep cache (no parts).
    cached: Option<ResponsePayload>,
    /// When set, the assembled sweep response populates the cache
    /// under this key, pinned to this SP vector.
    cache_key: Option<(SweepKey, Arc<SpVector>)>,
    /// Progress sink, when the submitter asked for streaming.
    progress: Option<ProgressFn>,
    /// Total sweep sites (for [`Progress::Sweep`] events; 0 for
    /// non-sweep requests).
    sweep_sites_total: usize,
}

impl SerService {
    /// Creates a service with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configuration field is 0.
    #[must_use]
    pub fn new(config: SerServiceConfig) -> Self {
        assert!(config.max_sessions > 0, "cache at least one session");
        assert!(
            config.sweep_batch_sites > 0,
            "batches need at least one site"
        );
        assert!(config.max_vectors > 0, "allow at least one vector");
        assert!(config.max_cycles > 0, "allow at least one cycle");
        assert!(config.max_runs > 0, "allow at least one run");
        assert!(
            config.max_whatif_sessions > 0,
            "cache at least one what-if session"
        );
        SerService {
            executor: Executor::new(config.threads),
            cache: Mutex::new(Lru::new(config.max_sessions)),
            sweep_cache: Mutex::new(Lru::new(config.max_sweep_responses)),
            whatif: Mutex::new(Lru::new(config.max_whatif_sessions)),
            plan_cache: config
                .plan_cache_dir
                .clone()
                .map(|dir| PlanCache::new(dir).with_max_bytes(config.plan_cache_max_bytes)),
            config,
            inputs_overrides: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            sweep_hits: AtomicU64::new(0),
            sweep_misses: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            idle_reaped: Arc::default(),
        }
    }

    /// Creates a service with [`SerServiceConfig::default`].
    #[must_use]
    pub fn with_defaults() -> Self {
        SerService::new(SerServiceConfig::default())
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SerServiceConfig {
        &self.config
    }

    /// Current cache/request counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            session_hits: self.hits.load(Ordering::Relaxed),
            session_misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            sessions_cached: lock_clean(&self.cache).len(),
            sweep_cache_hits: self.sweep_hits.load(Ordering::Relaxed),
            sweep_cache_misses: self.sweep_misses.load(Ordering::Relaxed),
            sweep_responses_cached: lock_clean(&self.sweep_cache).len(),
            plan_cache_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_cache_evictions: self.plan_evictions.load(Ordering::Relaxed),
            whatif_sessions_cached: lock_clean(&self.whatif).len(),
            requests_cancelled: self.cancelled.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
        }
    }

    /// The shared idle-reap counter the TCP transport bumps when it
    /// reaps an idle connection; surfaced as
    /// [`ServiceStats::idle_reaped`].
    #[must_use]
    pub fn idle_reap_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.idle_reaped)
    }

    /// Looks up a cached whole-circuit sweep response, refreshing its
    /// LRU recency on hit. `sp` must be the resolved session's current
    /// SP vector: an entry computed under any other vector — stale
    /// inputs, a diverged clone, even a hash-colliding circuit — fails
    /// the pointer-identity check and reads as a miss (the miss's own
    /// insert then replaces the stale entry).
    fn sweep_cache_get(&self, key: &SweepKey, sp: &Arc<SpVector>) -> Option<Arc<SweepResults>> {
        let mut cache = lock_clean(&self.sweep_cache);
        let entry = cache.get(key)?;
        Arc::ptr_eq(&entry.sp, sp).then(|| Arc::clone(&entry.results))
    }

    /// Re-derives the signal probabilities of `circuit`'s warm session
    /// under a new input distribution — the service-level
    /// `set_inputs`: the session keeps its structural artifacts, cone
    /// plans, compiled simulator and scratch pool, its revision is
    /// bumped, and every cached sweep response for this netlist is
    /// dropped. The distribution is also **recorded per netlist hash**,
    /// so if the session is later LRU-evicted, its recompilation
    /// restores the same inputs instead of silently reverting to the
    /// defaults. Returns the new session revision (informational —
    /// response-cache validity is keyed by SP-vector identity, not by
    /// this number).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Compile`] when the session cannot be
    /// compiled or the new probabilities do not converge; the warm
    /// session, the response cache and the recorded inputs are left
    /// untouched in that case.
    pub fn set_inputs(
        &self,
        circuit: &Arc<Circuit>,
        inputs: InputProbs,
    ) -> Result<u64, ServiceError> {
        let (session, _) = self.session(circuit, None)?;
        let mut updated = (*session).clone();
        updated.set_inputs(inputs.clone())?;
        let revision = updated.revision();
        let key = circuit.structural_hash();

        // Record the distribution so eviction + recompile restores it…
        lock_clean(&self.inputs_overrides).insert(key, inputs);

        // …purge this netlist's cached sweep responses…
        lock_clean(&self.sweep_cache).retain(|&(hash, _), _| hash != key);

        // …then swap the updated session in (same eviction discipline
        // as `session`, in case the entry vanished between the locks).
        if lock_clean(&self.cache).insert(key, Arc::new(updated)) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(revision)
    }

    /// The warm what-if session for `circuit`: the per-netlist edit
    /// stack behind [`whatif_apply`](Self::whatif_apply) /
    /// [`whatif_revert`](Self::whatif_revert). Created on first use by
    /// cloning the warm [`AnalysisSession`] (so the what-if loop never
    /// pays a cold compile while the analysis session is cached) and
    /// seeding the dense base sweep from the cross-request response
    /// cache when its arena is still valid for the session's current SP
    /// vector — a client that swept first starts editing without
    /// re-sweeping at all.
    fn whatif_session(
        &self,
        circuit: &Arc<Circuit>,
        cancel: Option<&CancelToken>,
    ) -> Result<Arc<Mutex<WhatIfSession>>, ServiceError> {
        let key = circuit.structural_hash();
        if let Some(entry) = lookup(&mut lock_clean(&self.whatif), key, circuit, |e| &e.base) {
            return Ok(entry.session);
        }

        // Build outside the lock — the base sweep can be expensive.
        let (session, _) = self.session(circuit, cancel)?;
        let sp = Arc::clone(session.signal_probabilities_arc());
        let wf = match self.sweep_cache_get(&(key, PolarityMode::Tracked), &sp) {
            Some(results) => {
                WhatIfSession::with_base_results((*session).clone(), results, self.config.threads)
            }
            None => WhatIfSession::new((*session).clone(), self.config.threads),
        };
        let wf = Arc::new(Mutex::new(wf));

        let mut cache = lock_clean(&self.whatif);
        if let Some(winner) = lookup(&mut cache, key, circuit, |e| &e.base) {
            // Lost a build race; adopt the winner (its stack may
            // already hold edits this caller wants to extend).
            return Ok(winner.session);
        }
        cache.insert(
            key,
            WhatIfEntry {
                base: Arc::clone(circuit),
                session: Arc::clone(&wf),
            },
        );
        Ok(wf)
    }

    /// Applies one incremental edit to `circuit`'s what-if stack and
    /// returns the engine's outcome: new total SER, per-site deltas
    /// over the dirty region, and the re-sweep tier split. The first
    /// call against a netlist creates the stack by cloning the warm
    /// analysis session (and reusing a cached whole-circuit sweep when
    /// one is valid); later calls pay only the dirty-region
    /// re-analysis.
    ///
    /// `edit` is a *resolver*, not an [`Edit`]: it receives the stack's
    /// **current** (possibly already-edited) circuit, because that is
    /// the circuit names must resolve against — after a TMR edit the
    /// interesting nodes (`u__r0`, voter internals) do not exist in the
    /// base netlist the caller loaded.
    ///
    /// # Errors
    ///
    /// Whatever `edit` returns, or [`ServiceError::Compile`] when the
    /// edited circuit's signal probabilities cannot be computed (the
    /// stack is left untouched).
    pub fn whatif_apply(
        &self,
        circuit: &Arc<Circuit>,
        edit: impl FnOnce(&Circuit) -> Result<Edit, ServiceError>,
    ) -> Result<WhatIfOutcome, ServiceError> {
        self.whatif_apply_cancellable(circuit, edit, None)
    }

    /// [`whatif_apply`](Self::whatif_apply) with a cooperative
    /// [`CancelToken`] — the wire `whatif` op's entry point. The token
    /// is polled at the session compile's plan-build checkpoints and at
    /// the re-sweep's tier boundaries (SP recompute → reference tier →
    /// planned tier → splice). A trip at either leaves the edit stack
    /// exactly as it was — the partially re-analyzed state is dropped,
    /// never pushed — and counts in
    /// [`ServiceStats::requests_cancelled`].
    pub(crate) fn whatif_apply_cancellable(
        &self,
        circuit: &Arc<Circuit>,
        edit: impl FnOnce(&Circuit) -> Result<Edit, ServiceError>,
        cancel: Option<&CancelToken>,
    ) -> Result<WhatIfOutcome, ServiceError> {
        let outcome = self.whatif_session(circuit, cancel).and_then(|wf| {
            let mut wf = lock_clean(&wf);
            let edit = edit(wf.circuit())?;
            wf.apply_cancellable(edit, cancel).map_err(|e| match e {
                WhatIfAbort::Compile(e) => ServiceError::Compile(e),
                WhatIfAbort::Cancelled(cause) => ServiceError::Cancelled(cause),
            })
        });
        if matches!(outcome, Err(ServiceError::Cancelled(_))) {
            self.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Pops the most recent what-if edit of `circuit`'s stack and
    /// returns `(remaining depth, restored total SER)`. Reverting never
    /// recomputes anything — the previous state was kept verbatim.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidRequest`] when the netlist has no what-if
    /// stack or the stack is already at its base state.
    pub fn whatif_revert(&self, circuit: &Arc<Circuit>) -> Result<(usize, f64), ServiceError> {
        let key = circuit.structural_hash();
        let wf = {
            let mut cache = lock_clean(&self.whatif);
            match cache.get(&key) {
                Some(entry) if same_circuit(&entry.base, circuit) => Arc::clone(&entry.session),
                _ => {
                    return Err(ServiceError::InvalidRequest(
                        "no what-if session for this netlist — apply an edit first".into(),
                    ))
                }
            }
        };
        let mut wf = lock_clean(&wf);
        match wf.revert() {
            Some(total) => Ok((wf.depth(), total)),
            None => Err(ServiceError::InvalidRequest(
                "what-if stack is at the base state — nothing to revert".into(),
            )),
        }
    }

    /// The warm session for `circuit`: cached if its netlist hash is
    /// known, compiled (session + cone plans) and cached otherwise.
    /// Returns the session and whether it was warm.
    ///
    /// Compilation happens outside the cache lock, so a slow compile
    /// never blocks requests against other circuits; if two threads
    /// race to compile the same netlist, the first insert wins and the
    /// loser adopts it.
    ///
    /// On a cache miss the cone-plan compile polls `cancel` at its
    /// merge/anchor checkpoints, and a trip aborts the compile with
    /// [`ServiceError::Cancelled`]. Nothing partial is cached, so the
    /// next — uncancelled — request compiles from scratch and gets
    /// bit-identical plans.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Compile`] when the circuit cannot be
    /// compiled (cyclic, SP divergence), [`ServiceError::Cancelled`]
    /// when `cancel` trips mid-compile.
    pub fn session(
        &self,
        circuit: &Arc<Circuit>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Arc<AnalysisSession>, bool), ServiceError> {
        let key = circuit.structural_hash();
        let warm = lookup(&mut lock_clean(&self.cache), key, circuit, |s| {
            s.circuit_arc()
        });
        if let Some(session) = warm {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((session, true));
        }

        // Miss: compile outside the lock, under the last distribution
        // `set_inputs` recorded for this netlist (if any) so an LRU
        // eviction never silently reverts a circuit to default inputs.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let override_inputs = lock_clean(&self.inputs_overrides).get(&key).cloned();
        let session = Arc::new(match override_inputs {
            Some(inputs) => AnalysisSession::with_inputs(Arc::clone(circuit), inputs)?,
            None => AnalysisSession::new(Arc::clone(circuit))?,
        });
        // Cone plans are settled here so a "warm" session really is
        // warm — the first sweep against it pays no plan build. A valid
        // persistent-cache entry skips the build; absent/corrupt/stale
        // entries read as a miss, and the freshly built plans are then
        // persisted (best-effort) so the next cold process skips it.
        let plans = match self.plan_cache.as_ref().and_then(|cache| cache.load(key)) {
            // `load` verified version, key and checksum; the length
            // check guards the residual 64-bit fingerprint collision (a
            // different circuit of identical size would produce wrong
            // plans undetected, but so would any other fingerprint
            // consumer — the session cache's equality check already
            // gates reuse of *sessions* across colliding netlists).
            Some(plans) if plans.len() == circuit.len() => {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(plans))
            }
            _ => {
                if self.plan_cache.is_some() {
                    self.plan_misses.fetch_add(1, Ordering::Relaxed);
                }
                let built = ConePlans::build(
                    circuit,
                    session.topo(),
                    ConePlans::DEFAULT_MEMBER_BUDGET,
                    self.config.threads,
                    cancel,
                )
                .map_err(ServiceError::Cancelled)?
                .map(Arc::new);
                if let (Some(cache), Some(plans)) = (&self.plan_cache, &built) {
                    // Best-effort persist; the eviction count is the
                    // only part of a failed store worth surfacing.
                    if let Ok(outcome) = cache.store(key, plans) {
                        self.plan_evictions
                            .fetch_add(outcome.evicted as u64, Ordering::Relaxed);
                    }
                }
                built
            }
        };
        session.topo().prime_cone_plans(plans);

        let mut cache = lock_clean(&self.cache);
        if let Some(winner) = lookup(&mut cache, key, circuit, |s| s.circuit_arc()) {
            // Lost a compile race; adopt the winner.
            return Ok((winner, true));
        }
        if cache.insert(key, Arc::clone(&session)) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok((session, false))
    }

    /// Serves one request. Equivalent to a one-element
    /// [`submit_batch`](Self::submit_batch) with no progress sink and
    /// no cancel token; the request's jobs still fan out across the
    /// shared executor.
    ///
    /// # Errors
    ///
    /// See [`ServiceError`].
    pub fn submit(
        &self,
        circuit: &Arc<Circuit>,
        request: Request,
    ) -> Result<Response, ServiceError> {
        self.submit_batch(vec![(Arc::clone(circuit), request, None, None)])
            .pop()
            .unwrap_or_else(|| {
                Err(ServiceError::Internal(
                    "batch returned no response for its one job".into(),
                ))
            })
    }

    /// Serves a batch of requests, possibly against different circuits.
    /// Every request's jobs are enqueued up front, so sweeps on
    /// distinct circuits run interleaved on the shared workers; the
    /// responses come back in submission order.
    ///
    /// Results are **bit-identical** to running each request directly
    /// on its session: the sweep fan-out re-partitions sites across
    /// jobs, but each site is evaluated by the same plan kernel over
    /// the same shared artifacts.
    ///
    /// A job's progress sink receives [`Progress`] events while it
    /// runs: sweep part completions as they are collected, and — for
    /// sequential Monte-Carlo requests — interim trial counters from
    /// the worker at doubling vector thresholds (first at
    /// [`MC_PROGRESS_FIRST_AT`](Self::MC_PROGRESS_FIRST_AT), so short
    /// runs stay quiet and long runs emit O(log n) events). Progress
    /// reporting observes the run, it never reshapes it. Requests
    /// served straight from the response cache complete without any
    /// progress events.
    ///
    /// A job's cancel token is polled between executor parts (sweep
    /// site batches), between Monte-Carlo observation blocks, at the
    /// multi-cycle simulation's block boundaries and inside a cold
    /// session's plan compile; a trip aborts that job with
    /// [`ServiceError::Cancelled`], drops every partial part, and
    /// populates **no** cache. Tokens are independent: cancelling one
    /// job never disturbs its neighbours — their parts keep running
    /// and their responses stay bit-identical to a solo run.
    #[must_use]
    pub fn submit_batch(&self, jobs: Vec<BatchJob>) -> Vec<Result<Response, ServiceError>> {
        let (tx, rx) = mpsc::channel::<PartMsg>();
        let mut prepared: Vec<Result<Prepared, ServiceError>> = Vec::with_capacity(jobs.len());

        for (job_idx, (circuit, request, progress, cancel)) in jobs.into_iter().enumerate() {
            match self.prepare(&circuit, request, progress, cancel, job_idx, &tx) {
                Ok(p) => prepared.push(Ok(p)),
                Err(e) => prepared.push(Err(e)),
            }
        }
        drop(tx);

        // Collect every part; per-job wall time runs from the job's own
        // submission to the worker-side completion stamp of its slowest
        // part — never inflated by neighbouring jobs' compiles or by
        // when this thread got around to draining the channel.
        let expected: usize = prepared
            .iter()
            .map(|p| p.as_ref().map(|p| p.parts).unwrap_or(0))
            .sum();
        let mut parts: Vec<Vec<(usize, Result<Part, ServiceError>)>> =
            prepared.iter().map(|_| Vec::new()).collect();
        let mut walls: Vec<Duration> = prepared
            .iter()
            .map(|p| match p {
                // Jobs with no executor parts (e.g. an empty site list)
                // are complete as soon as they were prepared.
                Ok(p) if p.parts == 0 => p.started.elapsed(),
                _ => Duration::ZERO,
            })
            .collect();
        let mut sites_done: Vec<usize> = vec![0; prepared.len()];
        for _ in 0..expected {
            // A worker that panics dies without sending; its `tx` clone
            // drops and `recv` errors once the live parts are drained.
            // Stop collecting — the part-count check below converts the
            // shortfall into a structured `Internal` error for the
            // affected job instead of panicking the collector (and,
            // through a poisoned lock, the whole daemon).
            let Ok((job_idx, part_idx, part, completed_at)) = rx.recv() else {
                break;
            };
            if let Ok(prep) = &prepared[job_idx] {
                walls[job_idx] =
                    walls[job_idx].max(completed_at.saturating_duration_since(prep.started));
                // Sweep parts double as progress ticks: report them as
                // they land, from this (collecting) thread.
                if let (Some(sink), Ok(Part::Sweep(results))) = (&prep.progress, &part) {
                    sites_done[job_idx] += results.len();
                    sink(Progress::Sweep {
                        sites_done: sites_done[job_idx],
                        sites_total: prep.sweep_sites_total,
                    });
                }
            }
            parts[job_idx].push((part_idx, part));
        }

        let responses: Vec<Result<Response, ServiceError>> = prepared
            .into_iter()
            .zip(parts)
            .zip(walls)
            .map(|((prep, mut parts), wall)| {
                let prep = prep?;
                let payload = match prep.cached {
                    Some(payload) => payload,
                    None => {
                        if parts.len() != prep.parts {
                            return Err(ServiceError::Internal(format!(
                                "a worker died mid-request: {} of {} parts reported",
                                parts.len(),
                                prep.parts
                            )));
                        }
                        parts.sort_unstable_by_key(|&(idx, _)| idx);
                        let payload = assemble(&prep.request, parts)?;
                        if let (Some((key, sp)), ResponsePayload::Sweep(results)) =
                            (prep.cache_key, &payload)
                        {
                            lock_clean(&self.sweep_cache).insert(
                                key,
                                SweepCacheEntry {
                                    sp,
                                    results: Arc::clone(results),
                                },
                            );
                        }
                        payload
                    }
                };
                Ok(Response {
                    meta: ResponseMeta {
                        circuit: prep.session.circuit().name().to_owned(),
                        netlist_hash: prep.session.circuit().structural_hash(),
                        warm_session: prep.warm,
                        wall,
                    },
                    payload,
                })
            })
            .collect();
        for response in &responses {
            if matches!(response, Err(ServiceError::Cancelled(_))) {
                self.cancelled.fetch_add(1, Ordering::Relaxed);
            }
        }
        responses
    }

    /// First vector threshold at which a streaming sequential
    /// Monte-Carlo run reports [`Progress::MonteCarlo`]; later reports
    /// come at each doubling (512, 1024, …), so a run of `n` vectors
    /// emits ⌈log₂(n / 256)⌉ + 1 events — enough cadence for a client
    /// progress bar, bounded even for million-vector runs.
    pub const MC_PROGRESS_FIRST_AT: u64 = 256;

    /// Validates one request, resolves its session and enqueues its
    /// executor jobs. Returns the bookkeeping needed to reassemble.
    fn prepare(
        &self,
        circuit: &Arc<Circuit>,
        request: Request,
        progress: Option<ProgressFn>,
        cancel: Option<CancelToken>,
        job_idx: usize,
        tx: &mpsc::Sender<PartMsg>,
    ) -> Result<Prepared, ServiceError> {
        let started = Instant::now();
        if let Some(token) = &cancel {
            token.check().map_err(ServiceError::Cancelled)?;
        }
        validate(circuit, &request, &self.config)?;
        let (session, warm) = self.session(circuit, cancel.as_ref())?;

        // Whole-circuit sweeps are a pure function of the netlist, the
        // SP vector and the polarity — serve repeats straight from the
        // response cache, enqueueing nothing.
        let mut cache_key = None;
        if let Request::Sweep(req) = &request {
            if req.sites.is_none() && self.config.max_sweep_responses > 0 {
                let key = (circuit.structural_hash(), req.polarity);
                let sp = Arc::clone(session.signal_probabilities_arc());
                if let Some(results) = self.sweep_cache_get(&key, &sp) {
                    self.sweep_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Prepared {
                        session,
                        warm,
                        started,
                        parts: 0,
                        request,
                        cached: Some(ResponsePayload::Sweep(results)),
                        cache_key: None,
                        progress: None,
                        sweep_sites_total: 0,
                    });
                }
                self.sweep_misses.fetch_add(1, Ordering::Relaxed);
                cache_key = Some((key, sp));
            }
        }

        let mut sweep_sites_total = 0;
        let parts = match &request {
            Request::Sweep(req) => {
                let sites: Vec<NodeId> = match &req.sites {
                    Some(sites) => sites.clone(),
                    None => circuit.node_ids().collect(),
                };
                sweep_sites_total = sites.len();
                let polarity = req.polarity;
                let batches: Vec<Vec<NodeId>> = sites
                    .chunks(self.config.sweep_batch_sites)
                    .map(<[NodeId]>::to_vec)
                    .collect();
                let n_parts = batches.len();
                for (part_idx, batch) in batches.into_iter().enumerate() {
                    let session = Arc::clone(&session);
                    let tx = tx.clone();
                    let cancel = cancel.clone();
                    self.executor.spawn(move || {
                        // Cancelled jobs still send their part — the
                        // collector blocks for exactly `parts` messages,
                        // so a silent return would hang the batch.
                        let part = match check(cancel.as_ref()) {
                            Err(e) => Err(e),
                            Ok(()) => {
                                let epp = session.epp();
                                Ok(Part::Sweep(epp.sweep_sites_with(
                                    &batch,
                                    polarity,
                                    1,
                                    session.workspace_pool(),
                                )))
                            }
                        };
                        let _ = tx.send((job_idx, part_idx, part, Instant::now()));
                    });
                }
                n_parts
            }
            Request::Site(SiteRequest { site }) => {
                let site = *site;
                let session = Arc::clone(&session);
                let tx = tx.clone();
                let cancel = cancel.clone();
                self.executor.spawn(move || {
                    let part = match check(cancel.as_ref()) {
                        Err(e) => Err(e),
                        Ok(()) => Ok(Part::Site(session.site(site))),
                    };
                    let _ = tx.send((job_idx, 0, part, Instant::now()));
                });
                1
            }
            Request::MultiCycle(req) => {
                let req = *req;
                let session = Arc::clone(&session);
                let tx = tx.clone();
                let sink = progress.clone();
                let cancel = cancel.clone();
                self.executor.spawn(move || {
                    let part = run_multi_cycle(&session, &req, sink, cancel.as_ref());
                    let _ = tx.send((job_idx, 0, part, Instant::now()));
                });
                1
            }
            Request::MonteCarlo(req) => {
                let req = *req;
                let session = Arc::clone(&session);
                let tx = tx.clone();
                let sink = progress.clone();
                let cancel = cancel.clone();
                self.executor.spawn(move || {
                    let part = (|| {
                        check(cancel.as_ref())?;
                        let estimate = match req.target_error {
                            Some(eps) => {
                                let rule = SequentialMonteCarlo::new(eps)
                                    .with_seed(req.seed)
                                    .with_max_vectors(req.vectors);
                                // The observer cannot perturb the run
                                // (bit-identical), and the token is
                                // polled at the same block cadence.
                                rule.estimate_site(
                                    session.bit_sim(),
                                    req.site,
                                    cancel.as_ref(),
                                    mc_progress(sink),
                                )
                                .map_err(ServiceError::Cancelled)?
                            }
                            None => MonteCarlo::new(req.vectors)
                                .with_seed(req.seed)
                                .estimate_site(session.bit_sim(), req.site),
                        };
                        Ok(Part::MonteCarlo(estimate))
                    })();
                    let _ = tx.send((job_idx, 0, part, Instant::now()));
                });
                1
            }
        };
        Ok(Prepared {
            session,
            warm,
            started,
            parts,
            request,
            cached: None,
            cache_key,
            progress,
            sweep_sites_total,
        })
    }
}

/// One executor job's cooperative token poll: `Ok` with no token or a
/// live one, [`ServiceError::Cancelled`] once the token trips.
fn check(cancel: Option<&CancelToken>) -> Result<(), ServiceError> {
    match cancel {
        Some(token) => token.check().map_err(ServiceError::Cancelled),
        None => Ok(()),
    }
}

/// `true` when a cached session's circuit really is the submitted one.
/// The pointer check covers callers that resubmit the same `Arc`; the
/// structural comparison (O(n), still far cheaper than a recompile)
/// guards against 64-bit hash collisions serving the wrong circuit.
fn same_circuit(cached: &Arc<Circuit>, submitted: &Arc<Circuit>) -> bool {
    Arc::ptr_eq(cached, submitted) || cached == submitted
}

/// The cache entry under `key` when it was built from `circuit`, marked
/// most recently used. An entry from a *different* netlist under the
/// same 64-bit hash is dropped instead: never serve the wrong circuit's
/// state. The colliding circuits contend for one slot (correct, just
/// not warm for both).
fn lookup<V: Clone>(
    cache: &mut Lru<u64, V>,
    key: u64,
    circuit: &Arc<Circuit>,
    built_from: impl Fn(&V) -> &Arc<Circuit>,
) -> Option<V> {
    match cache.get(&key) {
        Some(entry) if same_circuit(built_from(entry), circuit) => Some(entry.clone()),
        Some(_) => {
            cache.remove(&key);
            None
        }
        None => None,
    }
}

/// The observer a sequential (Mendo-rule) Monte-Carlo leg runs under:
/// it forwards the `(vectors, sensitized)` tick to `sink` as
/// [`Progress::MonteCarlo`] at doubling vector thresholds starting at
/// [`SerService::MC_PROGRESS_FIRST_AT`], and does nothing without a
/// sink.
fn mc_progress(sink: Option<ProgressFn>) -> impl FnMut(u64, u64) {
    let mut next = SerService::MC_PROGRESS_FIRST_AT;
    move |vectors, sensitized| {
        if let Some(sink) = &sink {
            if vectors >= next {
                while next <= vectors {
                    next = next.saturating_mul(2);
                }
                sink(Progress::MonteCarlo {
                    vectors,
                    sensitized,
                });
            }
        }
    }
}

/// The multi-cycle leg runs analytic + optional simulation in one job
/// (both are single-site and cheap relative to a sweep). With a
/// progress sink, the sequential (Mendo-rule) simulation reports its
/// run counters at the same doubling thresholds as the single-cycle
/// Monte-Carlo leg — same observer, same cadence, bit-identical result.
fn run_multi_cycle(
    session: &AnalysisSession,
    req: &MultiCycleRequest,
    progress: Option<ProgressFn>,
    cancel: Option<&CancelToken>,
) -> Result<Part, ServiceError> {
    check(cancel)?;
    // The frame-expansion tables are compiled once per session per SP
    // revision (`multi_cycle_cached`), so repeated multi-cycle requests
    // against a warm session skip the per-flip-flop sweep entirely.
    let analytic = session.multi_cycle_cached().site(req.site, req.cycles);
    let monte_carlo = match req.monte_carlo {
        None => None,
        Some(mc) => Some(match mc.target_error {
            Some(eps) => multi_cycle_monte_carlo_sequential(
                Arc::clone(session.circuit_arc()),
                req.site,
                req.cycles,
                eps,
                mc.runs,
                mc.seed,
                &mut mc_progress(progress),
                cancel,
            )
            .map_err(|e| match e {
                MultiCycleMcAbort::Simulation(e) => ServiceError::Simulation(e),
                MultiCycleMcAbort::Cancelled(cause) => ServiceError::Cancelled(cause),
            })?,
            None => {
                let cumulative = multi_cycle_monte_carlo(
                    Arc::clone(session.circuit_arc()),
                    req.site,
                    req.cycles,
                    mc.runs,
                    mc.seed,
                )
                .map_err(ServiceError::Simulation)?;
                MultiCycleMcEstimate {
                    cumulative,
                    runs: mc.runs,
                    stopped_by_rule: false,
                }
            }
        }),
    };
    Ok(Part::MultiCycle(analytic, monte_carlo))
}

/// Rejects malformed requests before any job is enqueued, so executor
/// jobs never panic — and enforces the operator-configured work
/// ceilings (`max_vectors` / `max_cycles` / `max_runs`) at the same
/// chokepoint, so an over-cap request is refused before it costs
/// anything.
fn validate(
    circuit: &Circuit,
    request: &Request,
    config: &SerServiceConfig,
) -> Result<(), ServiceError> {
    let len = circuit.len();
    let check_site = |site: NodeId| {
        if site.index() < len {
            Ok(())
        } else {
            Err(ServiceError::SiteOutOfRange { site, len })
        }
    };
    let check_eps = |eps: Option<f64>| match eps {
        Some(e) if !(e.is_finite() && e > 0.0 && e < 1.0) => Err(ServiceError::InvalidRequest(
            format!("target_error {e} outside (0, 1)"),
        )),
        _ => Ok(()),
    };
    let check_cap = |what: &'static str, requested: u64, cap: u64| {
        if requested > cap {
            Err(ServiceError::CapExceeded {
                what,
                requested,
                cap,
            })
        } else {
            Ok(())
        }
    };
    match request {
        Request::Sweep(req) => {
            for &site in req.sites.iter().flatten() {
                check_site(site)?;
            }
            Ok(())
        }
        Request::Site(req) => check_site(req.site),
        Request::MultiCycle(req) => {
            check_site(req.site)?;
            if req.cycles == 0 {
                return Err(ServiceError::InvalidRequest("cycles must be ≥ 1".into()));
            }
            check_cap("cycles", req.cycles as u64, config.max_cycles as u64)?;
            if let Some(mc) = req.monte_carlo {
                if mc.runs == 0 {
                    return Err(ServiceError::InvalidRequest("runs must be ≥ 1".into()));
                }
                check_cap("runs", mc.runs, config.max_runs)?;
                check_eps(mc.target_error)?;
            }
            Ok(())
        }
        Request::MonteCarlo(req) => {
            check_site(req.site)?;
            if req.vectors == 0 {
                return Err(ServiceError::InvalidRequest("vectors must be ≥ 1".into()));
            }
            check_cap("vectors", req.vectors, config.max_vectors)?;
            check_eps(req.target_error)
        }
    }
}

/// Reassembles a request's parts (already in part order) into its
/// response payload.
fn assemble(
    request: &Request,
    parts: Vec<(usize, Result<Part, ServiceError>)>,
) -> Result<ResponsePayload, ServiceError> {
    match request {
        Request::Sweep(_) => {
            let mut arenas = Vec::with_capacity(parts.len());
            for (_, part) in parts {
                match part? {
                    Part::Sweep(results) => arenas.push(results),
                    _ => unreachable!("sweep jobs produce sweep parts"),
                }
            }
            Ok(ResponsePayload::Sweep(Arc::new(SweepResults::concat(
                arenas,
            ))))
        }
        Request::Site(_) => match single(parts)? {
            Part::Site(site) => Ok(ResponsePayload::Site(site)),
            _ => unreachable!("site jobs produce site parts"),
        },
        Request::MultiCycle(_) => match single(parts)? {
            Part::MultiCycle(analytic, monte_carlo) => Ok(ResponsePayload::MultiCycle {
                analytic,
                monte_carlo,
            }),
            _ => unreachable!("multi-cycle jobs produce multi-cycle parts"),
        },
        Request::MonteCarlo(_) => match single(parts)? {
            Part::MonteCarlo(estimate) => Ok(ResponsePayload::MonteCarlo(estimate)),
            _ => unreachable!("monte-carlo jobs produce monte-carlo parts"),
        },
    }
}

fn single(parts: Vec<(usize, Result<Part, ServiceError>)>) -> Result<Part, ServiceError> {
    debug_assert_eq!(parts.len(), 1, "single-part request");
    match parts.into_iter().next() {
        Some((_, part)) => part,
        None => Err(ServiceError::Internal(
            "single-part request reported no parts".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::{parse_bench, CancelCause};

    #[test]
    fn a_whatif_cancelled_in_its_cold_compile_is_counted() {
        let circuit: Arc<Circuit> = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nu = AND(a, b)\ny = NOT(u)\n",
            "t",
        )
        .unwrap()
        .into();
        let u = circuit.find("u").unwrap();
        let service = SerService::with_defaults();
        // Cold netlist: the what-if stack compiles a session first, and
        // its plan build polls the token at anchor 0.
        let tripped = CancelToken::new();
        tripped.cancel();
        let outcome =
            service.whatif_apply_cancellable(&circuit, |_| Ok(Edit::Tmr(u)), Some(&tripped));
        assert!(
            matches!(
                outcome,
                Err(ServiceError::Cancelled(CancelCause::Cancelled))
            ),
            "{outcome:?}"
        );
        assert_eq!(service.stats().requests_cancelled, 1);
        assert_eq!(service.stats().whatif_sessions_cached, 0);
        // Nothing partial was cached: the next apply compiles and lands.
        let outcome = service
            .whatif_apply(&circuit, |_| Ok(Edit::Tmr(u)))
            .unwrap();
        assert_eq!(outcome.depth, 1);
        assert_eq!(service.stats().requests_cancelled, 1);
    }
}
