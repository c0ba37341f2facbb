//! Typed requests and responses of the [`SerService`](crate::SerService).
//!
//! Requests name sites by [`NodeId`] (resolve names with
//! [`Circuit::find`](ser_netlist::Circuit::find) first) and responses
//! return the engines' native result types — the sweep response keeps
//! its results in the flat [`SweepResults`] arena rather than exploding
//! them into per-site heap objects.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use ser_epp::{MultiCycleMcEstimate, MultiCycleResult, PolarityMode, SiteEpp, SweepResults};
use ser_netlist::NodeId;
use ser_sim::SiteEstimate;
use ser_sp::SpError;

/// One unit of work against one circuit.
#[derive(Debug, Clone)]
pub enum Request {
    /// Analytical EPP over many sites (the whole circuit by default).
    Sweep(SweepRequest),
    /// Analytical EPP for a single site.
    Site(SiteRequest),
    /// Multi-cycle frame expansion for a single site, optionally
    /// cross-checked by differential sequential simulation.
    MultiCycle(MultiCycleRequest),
    /// Single-cycle Monte-Carlo baseline for a single site.
    MonteCarlo(MonteCarloRequest),
}

/// Analytical sweep request.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Explicit site list, or `None` for every node of the circuit.
    pub sites: Option<Vec<NodeId>>,
    /// Polarity handling; [`PolarityMode::Tracked`] is the paper's
    /// method and the default.
    pub polarity: PolarityMode,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            sites: None,
            polarity: PolarityMode::Tracked,
        }
    }
}

/// Single-site analytical request.
#[derive(Debug, Clone, Copy)]
pub struct SiteRequest {
    /// The error site.
    pub site: NodeId,
}

/// Multi-cycle request: analytical frame expansion, plus an optional
/// simulation cross-check.
#[derive(Debug, Clone, Copy)]
pub struct MultiCycleRequest {
    /// The error site.
    pub site: NodeId,
    /// Clock cycles to follow the error through (≥ 1; cycle 0 is the
    /// SEU cycle).
    pub cycles: usize,
    /// When set, also run the differential sequential simulation.
    pub monte_carlo: Option<MultiCycleMcRequest>,
}

/// Simulation leg of a [`MultiCycleRequest`].
#[derive(Debug, Clone, Copy)]
pub struct MultiCycleMcRequest {
    /// Fixed run count — or, when [`target_error`](Self::target_error)
    /// is set, the hard cap of the sequential stopping rule.
    pub runs: u64,
    /// Mendo normalized-error target; `Some(ε)` switches from a fixed
    /// run count to the inverse-binomial stopping rule.
    pub target_error: Option<f64>,
    /// PRNG seed (responses are deterministic given a seed).
    pub seed: u64,
}

/// Single-cycle Monte-Carlo request.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloRequest {
    /// The error site.
    pub site: NodeId,
    /// Fixed vector count — or, when [`target_error`](Self::target_error)
    /// is set, the hard cap of the sequential stopping rule.
    pub vectors: u64,
    /// Mendo normalized-error target; `Some(ε)` uses
    /// [`SequentialMonteCarlo`](ser_sim::SequentialMonteCarlo) instead
    /// of a fixed vector count.
    pub target_error: Option<f64>,
    /// PRNG seed (responses are deterministic given a seed).
    pub seed: u64,
}

/// Everything the service reports about how a request was served.
#[derive(Debug, Clone)]
pub struct ResponseMeta {
    /// Name of the circuit the request ran against.
    pub circuit: String,
    /// The session cache key ([`Circuit::structural_hash`](ser_netlist::Circuit::structural_hash)).
    pub netlist_hash: u64,
    /// `true` when the request hit an already-compiled warm session;
    /// `false` when this request paid the compile.
    pub warm_session: bool,
    /// Wall-clock time from submission to assembled response.
    pub wall: Duration,
}

/// A served request: provenance plus the engine's native result.
#[derive(Debug, Clone)]
pub struct Response {
    /// How the request was served.
    pub meta: ResponseMeta,
    /// The result payload.
    pub payload: ResponsePayload,
}

/// The result payload of a [`Response`].
#[derive(Debug, Clone)]
pub enum ResponsePayload {
    /// Sweep results, arena-backed (one allocation pool for all sites),
    /// behind an `Arc` so a session's whole-sweep memo serves repeat
    /// whole-circuit sweeps without copying the arena.
    /// The service sweeps with
    /// [`Arrivals::Fold`](ser_epp::Arrivals::Fold): the per-site
    /// numbers are there, and every per-point read returns `None`.
    Sweep(Arc<SweepResults>),
    /// Single-site analytical result.
    Site(SiteEpp),
    /// Multi-cycle results.
    MultiCycle {
        /// The analytical frame expansion.
        analytic: MultiCycleResult,
        /// The simulation cross-check, when requested.
        monte_carlo: Option<MultiCycleMcEstimate>,
    },
    /// Monte-Carlo estimate.
    MonteCarlo(SiteEstimate),
}

impl Response {
    /// The sweep arena, if this was a sweep response.
    #[must_use]
    pub fn as_sweep(&self) -> Option<&SweepResults> {
        match &self.payload {
            ResponsePayload::Sweep(results) => Some(results.as_ref()),
            _ => None,
        }
    }

    /// The single-site result, if this was a site response.
    #[must_use]
    pub fn as_site(&self) -> Option<&SiteEpp> {
        match &self.payload {
            ResponsePayload::Site(site) => Some(site),
            _ => None,
        }
    }

    /// The Monte-Carlo estimate, if this was a Monte-Carlo response.
    #[must_use]
    pub fn as_monte_carlo(&self) -> Option<&SiteEstimate> {
        match &self.payload {
            ResponsePayload::MonteCarlo(estimate) => Some(estimate),
            _ => None,
        }
    }
}

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServiceError {
    /// Session compilation failed (bad circuit, SP divergence).
    Compile(SpError),
    /// A request named a site outside the circuit.
    SiteOutOfRange {
        /// The offending site.
        site: NodeId,
        /// Number of nodes in the circuit.
        len: usize,
    },
    /// A request parameter was out of range.
    InvalidRequest(String),
    /// A request asked for more work than the operator-configured
    /// ceiling allows ([`SerServiceConfig`](crate::SerServiceConfig)'s
    /// `max_vectors` / `max_cycles` / `max_runs`). Rejected up front,
    /// before the request reaches the executor.
    CapExceeded {
        /// Which knob was exceeded (`"vectors"`, `"cycles"`, `"runs"`).
        what: &'static str,
        /// What the request asked for.
        requested: u64,
        /// The configured ceiling.
        cap: u64,
    },
    /// The simulation leg failed structurally.
    Simulation(ser_netlist::NetlistError),
    /// The request was aborted at a cooperative checkpoint: an
    /// explicit `cancel` or an expired deadline. Partial results were
    /// dropped, never cached or spliced.
    Cancelled(ser_netlist::CancelCause),
    /// The service itself failed: a worker thread died before
    /// reporting its parts. The request is lost but the daemon keeps
    /// serving — this maps to the wire's `internal` code instead of
    /// panicking the collector thread.
    Internal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "session compilation failed: {e}"),
            ServiceError::SiteOutOfRange { site, len } => {
                write!(f, "site {site} out of range for a {len}-node circuit")
            }
            ServiceError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServiceError::CapExceeded {
                what,
                requested,
                cap,
            } => {
                write!(
                    f,
                    "requested {requested} {what} exceeds the service cap of {cap}"
                )
            }
            ServiceError::Simulation(e) => write!(f, "simulation failed: {e}"),
            ServiceError::Cancelled(cause) => write!(f, "request aborted: {cause}"),
            ServiceError::Internal(msg) => write!(f, "internal service failure: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Compile(e) => Some(e),
            ServiceError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpError> for ServiceError {
    fn from(e: SpError) -> Self {
        ServiceError::Compile(e)
    }
}
