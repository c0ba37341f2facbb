//! The versioned wire protocol: envelopes, frames, and the
//! transport-agnostic request engine.
//!
//! - **Envelopes** — every request is one JSON object line carrying a
//!   protocol version (`"v": 2`), an optional client-chosen request
//!   id (echoed on every frame of the reply), a typed `"op"`, and
//!   op-specific parameters that may be **nested containers** (an
//!   input-distribution object for `set_inputs`, a simulation config
//!   for `multi_cycle`, a site array for subset sweeps).
//! - **Frames** — a reply is a sequence of framed lines: zero or more
//!   `progress` frames (sweep part completions; sequential
//!   Monte-Carlo trial counters at doubling thresholds), zero or more
//!   `chunk` frames (a sweep's per-site values, paged), then exactly
//!   one `result` **or** `error` frame. Long-running Monte-Carlo jobs
//!   are why frames exist at all — Mendo's sequential estimator has
//!   data-dependent runtime, so the wire format is designed for
//!   partial responses rather than having them bolted on.
//! - **Structured errors** — every failure is a `{code, message}`
//!   object with a closed set of [`ErrorCode`]s, not a prose string.
//! - **Transport decoupling** — the engine speaks through the
//!   [`Transport`] trait ([`StdioTransport`] here,
//!   [`TcpTransport`](crate::net::TcpTransport) in `net`), so the
//!   protocol has no opinion about sockets, and progress frames can be
//!   written from executor workers mid-request through the shared,
//!   lock-protected [`FrameSink`].
//! - **One dialect** — a line without `"v": 2` is refused with an
//!   `unsupported_version` error frame. The unversioned flat dialect
//!   of earlier releases is no longer served; a `batch` envelope
//!   covers its multi-job use.
//! - **A solo op is a batch of one** — a `sweep`, `site`,
//!   `monte_carlo` or `multi_cycle` envelope is served exactly like a
//!   one-job `batch` minus the summary frame: one resolver, one
//!   service submit, one reply writer. A solo op therefore answers
//!   byte for byte like the same job inside a `batch`.
//! - **Unique in-flight ids** — a request id names exactly one
//!   in-flight request (a `batch` names its jobs too), so a `cancel`
//!   can never reach another client's work. A request reusing a live
//!   id is refused with `bad_request` before any work.
//!
//! Numbers in v2 frames render in shortest round-trip form, so a
//! client parsing a `result` frame recovers **bit-identical** `f64`s
//! to an in-process [`SerService::submit`] call — asserted over real
//! TCP in `tests/net.rs`.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ser_epp::{Edit, PolarityMode, SweepResults, WhatIfOutcome};
use ser_netlist::{
    parse_bench, parse_verilog, CancelCause, CancelToken, Circuit, GateKind, NodeId,
};
use ser_sp::InputProbs;

use crate::json::{self, fmt_f64, json_escape, JsonValue};
use crate::lru::Lru;
use crate::request::{
    MonteCarloRequest, MultiCycleMcRequest, MultiCycleRequest, Request, Response, ResponsePayload,
    ServiceError, SiteRequest, SweepRequest,
};
use crate::service::{Progress, ProgressFn, SerService};
use crate::sync::{lock_clean, wait_clean};

/// The protocol version this engine speaks — the only one it serves.
pub const PROTOCOL_VERSION: u64 = 2;

/// Monte-Carlo vector budget when a request does not set one.
const DEFAULT_VECTORS: u64 = 10_000;
/// PRNG seed when a request does not set one (the simulator crate's
/// customary seed).
const DEFAULT_SEED: u64 = 0xE5EED;

/// Every `"op"` spelling [`parse_wire_line`] accepts in a v2 envelope,
/// the `epp`/`mc` aliases included. This table is load-bearing twice
/// over: `ser-lint`'s `wire-doc-sync` rule reads it to check that each
/// op is documented in README's wire-protocol section, and the
/// protocol tests parse a minimal envelope per entry to prove the
/// table matches what `parse_v2` actually dispatches (so it cannot
/// drift from the `match`).
pub const WIRE_OPS: &[&str] = &[
    "hello",
    "stats",
    "set_inputs",
    "sweep",
    "site",
    "epp",
    "monte_carlo",
    "mc",
    "multi_cycle",
    "whatif",
    "whatif_revert",
    "cancel",
    "batch",
];

// ---------------------------------------------------------------------
// Structured errors
// ---------------------------------------------------------------------

/// The closed set of protocol error codes. Codes are the machine-
/// readable half of every error object; messages are for humans and
/// carry no stability guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line is not well-formed JSON (or is truncated).
    Parse,
    /// The envelope names a protocol version this server cannot serve.
    UnsupportedVersion,
    /// The envelope's `op` is not one this server knows.
    UnknownOp,
    /// A parameter is missing, mistyped, out of range, or not read by
    /// the op (unread fields fail loudly rather than silently).
    BadRequest,
    /// A named netlist file or circuit node does not exist.
    NotFound,
    /// Session compilation failed (cyclic circuit, SP divergence).
    Compile,
    /// The simulation leg failed structurally.
    Simulation,
    /// The request asked for more work than the service's configured
    /// ceiling allows (`max_vectors` / `max_cycles` / `max_runs`).
    CapExceeded,
    /// The connection has not presented the server's shared secret.
    Unauthorized,
    /// The connection exhausted its per-client request quota.
    QuotaExceeded,
    /// The request was aborted by an explicit `cancel` op before it
    /// completed. Partial results were dropped; no cache was touched.
    Cancelled,
    /// The request's `deadline_ms` passed before it completed. Same
    /// clean-abort contract as `cancelled`.
    DeadlineExceeded,
    /// The server failed internally (I/O mid-request, a worker died).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Compile => "compile",
            ErrorCode::Simulation => "simulation",
            ErrorCode::CapExceeded => "cap_exceeded",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::QuotaExceeded => "quota_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured wire error: `{code, message}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Creates an error.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// Renders the error *object* (`{"code": ..., "message": ...}`) —
    /// the payload of an `error` frame.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "{{\"code\": \"{}\", \"message\": \"{}\"}}",
            self.code,
            json_escape(&self.message)
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl From<&ServiceError> for WireError {
    fn from(e: &ServiceError) -> Self {
        let code = match e {
            ServiceError::Compile(_) => ErrorCode::Compile,
            ServiceError::SiteOutOfRange { .. } => ErrorCode::NotFound,
            ServiceError::InvalidRequest(_) => ErrorCode::BadRequest,
            ServiceError::CapExceeded { .. } => ErrorCode::CapExceeded,
            ServiceError::Simulation(_) => ErrorCode::Simulation,
            ServiceError::Cancelled(CancelCause::Cancelled) => ErrorCode::Cancelled,
            ServiceError::Cancelled(CancelCause::DeadlineExceeded) => ErrorCode::DeadlineExceeded,
            ServiceError::Internal(_) => ErrorCode::Internal,
        };
        WireError::new(code, e.to_string())
    }
}

impl From<ServiceError> for WireError {
    fn from(e: ServiceError) -> Self {
        WireError::from(&e)
    }
}

// ---------------------------------------------------------------------
// Envelope parsing
// ---------------------------------------------------------------------

/// One parsed v2 envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRequest {
    /// The client's request id, echoed on every frame of the reply —
    /// and, while the request is in flight, the handle a concurrent
    /// `cancel` op (from any connection) targets. Unique among
    /// in-flight requests: a request reusing a live id is refused.
    pub id: Option<String>,
    /// The operation.
    pub op: WireOp,
    /// Server-side deadline, milliseconds from receipt. Honored on
    /// every op: once it passes, the request aborts at its next
    /// cooperative checkpoint with a `deadline_exceeded` error frame.
    pub deadline_ms: Option<u64>,
}

/// A v2 operation with its parameters (node/input names unresolved —
/// resolution against the loaded circuit happens at dispatch).
#[derive(Debug, Clone, PartialEq)]
pub enum WireOp {
    /// Connection handshake; carries the shared secret when the server
    /// requires one.
    Hello {
        /// The shared secret, if the client presents one.
        token: Option<String>,
    },
    /// Service counters (sessions, caches) — closes the ROADMAP's
    /// "expose `stats` on the wire" item.
    Stats,
    /// Re-derive a circuit's input distribution (the wire form of
    /// [`SerService::set_inputs`]).
    SetInputs(SetInputsOp),
    /// Whole-circuit (or subset) analytical sweep.
    Sweep(SweepOp),
    /// Single-site analytical EPP.
    Site(SiteOp),
    /// Single-cycle Monte-Carlo; streams progress when sequential.
    MonteCarlo(MonteCarloOp),
    /// Multi-cycle frame expansion with an optional nested simulation
    /// config.
    MultiCycle(MultiCycleOp),
    /// Apply one incremental edit to a netlist's warm what-if stack
    /// and stream the dirty-region per-site deltas.
    WhatIf(WhatIfOp),
    /// Pop the most recent edit of a netlist's what-if stack.
    WhatIfRevert(WhatIfRevertOp),
    /// Trip the cancel token of an in-flight request by its client id.
    /// Races cleanly with completion: a `cancel` that arrives after the
    /// target's result frame reports `found: false` and changes
    /// nothing.
    Cancel(CancelOp),
    /// A nested array of analysis jobs served as one envelope: every
    /// job's executor parts interleave on the shared workers, each job
    /// answers with its own id-echoed frames, and a final batch result
    /// frame summarizes the outcome.
    Batch(BatchOp),
}

/// Parameters of a v2 `cancel`.
#[derive(Debug, Clone, PartialEq)]
pub struct CancelOp {
    /// The client-chosen `id` of the request to cancel.
    pub target: String,
}

/// Parameters of a v2 `batch`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOp {
    /// The analysis jobs (sweep / site / monte_carlo / multi_cycle
    /// only), each a nested envelope without a `"v"` field. A job's
    /// `id` scopes its frames and its cancel handle; the batch
    /// envelope's `id` cancels every job at once.
    pub jobs: Vec<WireRequest>,
}

impl BatchOp {
    /// Most jobs one `batch` envelope may carry; larger workloads
    /// split across envelopes (the executor interleaves them anyway).
    pub const MAX_JOBS: usize = 256;
}

/// Parameters of a v2 `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOp {
    /// Netlist path.
    pub netlist: String,
    /// Explicit site-name list (`None` = every node).
    pub sites: Option<Vec<String>>,
    /// Polarity handling (default tracked — the paper's method).
    pub polarity: PolarityMode,
    /// Ranking length in the result frame (default 5).
    pub top: Option<usize>,
    /// When set, page every site's `p_sensitized` into `chunk` frames
    /// of this many sites before the result frame.
    pub chunk_sites: Option<usize>,
    /// Emit `progress` frames as sweep parts complete (default off —
    /// sweeps are usually fast; opt in for huge circuits).
    pub progress: bool,
}

/// Parameters of a v2 `site`.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteOp {
    /// Netlist path.
    pub netlist: String,
    /// Site name.
    pub node: String,
}

/// Parameters of a v2 `monte_carlo`.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloOp {
    /// Netlist path.
    pub netlist: String,
    /// Site name.
    pub node: String,
    /// Vector budget (fixed count) or cap (sequential rule).
    pub vectors: Option<u64>,
    /// Mendo normalized-error target; switches to the sequential rule.
    pub target_error: Option<f64>,
    /// PRNG seed.
    pub seed: Option<u64>,
    /// Stream `progress` frames while a sequential run is under way
    /// (default on; meaningless without `target_error`).
    pub progress: bool,
}

/// Parameters of a v2 `multi_cycle`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCycleOp {
    /// Netlist path.
    pub netlist: String,
    /// Site name.
    pub node: String,
    /// Clock cycles to follow the error through (≥ 1).
    pub cycles: usize,
    /// The nested simulation-leg config, when requested.
    pub monte_carlo: Option<MultiCycleMcOp>,
    /// Stream `progress` frames while a sequential simulation leg is
    /// under way (default on; meaningless without
    /// `monte_carlo.target_error`) — the same doubling-threshold run
    /// counters the single-cycle `monte_carlo` op reports.
    pub progress: bool,
}

/// The nested `"monte_carlo"` object of a v2 `multi_cycle`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCycleMcOp {
    /// Fixed run count, or the sequential rule's cap.
    pub runs: u64,
    /// Mendo normalized-error target.
    pub target_error: Option<f64>,
    /// PRNG seed.
    pub seed: Option<u64>,
}

/// Parameters of a v2 `whatif` — one incremental edit against the
/// netlist's warm what-if stack. Node names resolve against the
/// stack's **current** (possibly already-edited) circuit, so a client
/// can TMR a replica it created one edit ago.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfOp {
    /// Netlist path (names the *base* circuit; the stack is keyed by
    /// its structural hash).
    pub netlist: String,
    /// The edit to apply.
    pub edit: WhatIfEditOp,
    /// Per-site deltas per `chunk` frame (default 256).
    pub chunk_sites: usize,
}

/// The `"edit"` of a v2 `whatif`, discriminated by the envelope's
/// `"edit"` string.
#[derive(Debug, Clone, PartialEq)]
pub enum WhatIfEditOp {
    /// `"edit": "tmr"` — protect `node` with triple modular redundancy.
    Tmr {
        /// Gate name, resolved against the stack's current circuit.
        node: String,
    },
    /// `"edit": "swap_kind"` — replace `node`'s gate function in place.
    SwapKind {
        /// Gate name, resolved against the stack's current circuit.
        node: String,
        /// The replacement function.
        kind: GateKind,
    },
    /// `"edit": "set_inputs"` — a new input distribution (same nested
    /// `"inputs"` object as the `set_inputs` op).
    SetInputs {
        /// Probability for inputs without an override.
        default_p: f64,
        /// Per-input overrides, by node name.
        overrides: Vec<(String, f64)>,
    },
}

impl WhatIfEditOp {
    /// The wire spelling echoed in the result frame.
    #[must_use]
    pub fn kind_str(&self) -> &'static str {
        match self {
            WhatIfEditOp::Tmr { .. } => "tmr",
            WhatIfEditOp::SwapKind { .. } => "swap_kind",
            WhatIfEditOp::SetInputs { .. } => "set_inputs",
        }
    }
}

/// Parameters of a v2 `whatif_revert`.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfRevertOp {
    /// Netlist path (names the base circuit whose stack to pop).
    pub netlist: String,
}

/// Parameters of a v2 `set_inputs`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetInputsOp {
    /// Netlist path.
    pub netlist: String,
    /// Probability for inputs without an override (default 0.5).
    pub default_p: f64,
    /// Per-input overrides, by node name.
    pub overrides: Vec<(String, f64)>,
}

/// Parses one request line into a v2 envelope.
///
/// # Errors
///
/// Returns a structured [`WireError`]: `parse` for malformed JSON,
/// `unsupported_version` for a missing `"v"` or one this server cannot
/// serve, `unknown_op` / `bad_request` for envelope-level problems.
pub fn parse_wire_line(line: &str) -> Result<WireRequest, WireError> {
    let pairs = json::parse_object(line).map_err(|e| WireError::new(ErrorCode::Parse, e))?;
    let Some(version) = pairs.iter().find(|(k, _)| k == "v").map(|(_, v)| v) else {
        return Err(WireError::new(
            ErrorCode::UnsupportedVersion,
            format!(
                "missing \"v\": this server speaks v{PROTOCOL_VERSION} envelopes only \
                 (unversioned lines are no longer served)"
            ),
        ));
    };
    match version.as_count() {
        Some(v) if v == PROTOCOL_VERSION => {}
        Some(v) => {
            return Err(WireError::new(
                ErrorCode::UnsupportedVersion,
                format!("this server speaks v{PROTOCOL_VERSION} (got v{v})"),
            ))
        }
        None => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                format!("\"v\" must be an integer, got {}", version.type_name()),
            ))
        }
    }
    parse_v2(pairs)
}

/// Field cursor over an envelope's pairs: every field must be taken by
/// the op's parser, or the envelope is rejected — unknown keys fail
/// loudly rather than silently falling back to a default.
struct Fields {
    pairs: Vec<(String, Option<JsonValue>)>,
}

impl Fields {
    fn new(pairs: Vec<(String, JsonValue)>) -> Self {
        Fields {
            pairs: pairs.into_iter().map(|(k, v)| (k, Some(v))).collect(),
        }
    }

    fn take(&mut self, key: &str) -> Option<JsonValue> {
        self.pairs
            .iter_mut()
            .find(|(k, v)| k == key && v.is_some())
            .and_then(|(_, v)| v.take())
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, WireError> {
        match self.take(key) {
            None => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(other) => Err(bad(format!(
                "`{key}` must be a string, got {}",
                other.type_name()
            ))),
        }
    }

    fn need_str(&mut self, key: &str, op: &str) -> Result<String, WireError> {
        self.take_str(key)?
            .ok_or_else(|| bad(format!("`{key}` is required for op `{op}`")))
    }

    fn take_count(&mut self, key: &str) -> Result<Option<u64>, WireError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v.as_count().map(Some).ok_or_else(|| {
                bad(format!(
                    "`{key}` must be a non-negative integer, got {}",
                    v.type_name()
                ))
            }),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, WireError> {
        match self.take(key) {
            None => Ok(None),
            Some(JsonValue::Num(n)) => Ok(Some(n)),
            Some(JsonValue::Null) => Ok(None),
            Some(other) => Err(bad(format!(
                "`{key}` must be a number, got {}",
                other.type_name()
            ))),
        }
    }

    fn take_bool(&mut self, key: &str, default: bool) -> Result<bool, WireError> {
        match self.take(key) {
            None => Ok(default),
            Some(JsonValue::Bool(b)) => Ok(b),
            Some(other) => Err(bad(format!(
                "`{key}` must be a boolean, got {}",
                other.type_name()
            ))),
        }
    }

    /// Every key must have been taken; leftovers fail loudly.
    fn finish(self, op: &str) -> Result<(), WireError> {
        match self.pairs.iter().find(|(_, v)| v.is_some()) {
            None => Ok(()),
            Some((key, _)) => Err(bad(format!("`{key}` is not read by op `{op}`"))),
        }
    }
}

fn bad(message: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadRequest, message)
}

fn parse_v2(pairs: Vec<(String, JsonValue)>) -> Result<WireRequest, WireError> {
    let mut fields = Fields::new(pairs);
    let _ = fields.take("v");
    let id = fields.take_str("id")?;
    let deadline_ms = fields.take_count("deadline_ms")?;
    let op_name = fields.need_str("op", "<envelope>")?;
    let op = match op_name.as_str() {
        "hello" => WireOp::Hello {
            token: fields.take_str("token")?,
        },
        "stats" => WireOp::Stats,
        "set_inputs" => {
            let netlist = fields.need_str("netlist", "set_inputs")?;
            let (default_p, overrides) = parse_inputs_object(fields.take("inputs"))?;
            WireOp::SetInputs(SetInputsOp {
                netlist,
                default_p,
                overrides,
            })
        }
        "sweep" => {
            let netlist = fields.need_str("netlist", "sweep")?;
            let sites = match fields.take("sites") {
                None => None,
                Some(JsonValue::Arr(items)) => {
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            JsonValue::Str(name) => names.push(name),
                            other => {
                                return Err(bad(format!(
                                    "`sites` entries must be node-name strings, got {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    if names.is_empty() {
                        return Err(bad("`sites` must not be empty (omit it for all nodes)"));
                    }
                    Some(names)
                }
                Some(other) => {
                    return Err(bad(format!(
                        "`sites` must be an array, got {}",
                        other.type_name()
                    )))
                }
            };
            let polarity = match fields.take_str("polarity")?.as_deref() {
                None | Some("tracked") => PolarityMode::Tracked,
                Some("merged") => PolarityMode::Merged,
                Some(other) => {
                    return Err(bad(format!(
                        "`polarity` must be \"tracked\" or \"merged\", got \"{other}\""
                    )))
                }
            };
            let chunk_sites = fields.take_count("chunk_sites")?.map(|n| n as usize);
            if chunk_sites == Some(0) {
                return Err(bad("`chunk_sites` must be ≥ 1"));
            }
            WireOp::Sweep(SweepOp {
                netlist,
                sites,
                polarity,
                top: fields.take_count("top")?.map(|n| n as usize),
                chunk_sites,
                progress: fields.take_bool("progress", false)?,
            })
        }
        "site" | "epp" => WireOp::Site(SiteOp {
            netlist: fields.need_str("netlist", "site")?,
            node: fields.need_str("node", "site")?,
        }),
        "monte_carlo" | "mc" => WireOp::MonteCarlo(MonteCarloOp {
            netlist: fields.need_str("netlist", "monte_carlo")?,
            node: fields.need_str("node", "monte_carlo")?,
            vectors: fields.take_count("vectors")?,
            target_error: fields.take_f64("target_error")?,
            seed: fields.take_count("seed")?,
            progress: fields.take_bool("progress", true)?,
        }),
        "multi_cycle" => {
            let netlist = fields.need_str("netlist", "multi_cycle")?;
            let node = fields.need_str("node", "multi_cycle")?;
            let cycles = fields
                .take_count("cycles")?
                .ok_or_else(|| bad("`cycles` is required for multi_cycle"))?
                as usize;
            let monte_carlo = match fields.take("monte_carlo") {
                None | Some(JsonValue::Null) => None,
                Some(JsonValue::Obj(inner)) => {
                    let mut mc = Fields::new(inner);
                    let parsed = MultiCycleMcOp {
                        runs: mc
                            .take_count("runs")?
                            .ok_or_else(|| bad("`monte_carlo.runs` is required"))?,
                        target_error: mc.take_f64("target_error")?,
                        seed: mc.take_count("seed")?,
                    };
                    mc.finish("multi_cycle.monte_carlo")?;
                    Some(parsed)
                }
                Some(other) => {
                    return Err(bad(format!(
                        "`monte_carlo` must be an object, got {}",
                        other.type_name()
                    )))
                }
            };
            WireOp::MultiCycle(MultiCycleOp {
                netlist,
                node,
                cycles,
                monte_carlo,
                progress: fields.take_bool("progress", true)?,
            })
        }
        "whatif" => {
            let netlist = fields.need_str("netlist", "whatif")?;
            let edit = match fields.need_str("edit", "whatif")?.as_str() {
                "tmr" => WhatIfEditOp::Tmr {
                    node: fields.need_str("node", "whatif")?,
                },
                "swap_kind" => WhatIfEditOp::SwapKind {
                    node: fields.need_str("node", "whatif")?,
                    kind: parse_gate_kind(&fields.need_str("kind", "whatif")?)?,
                },
                "set_inputs" => {
                    let (default_p, overrides) = parse_inputs_object(fields.take("inputs"))?;
                    WhatIfEditOp::SetInputs {
                        default_p,
                        overrides,
                    }
                }
                other => {
                    return Err(bad(format!(
                        "`edit` must be \"tmr\", \"swap_kind\" or \"set_inputs\", got \"{other}\""
                    )))
                }
            };
            let chunk_sites = fields.take_count("chunk_sites")?.unwrap_or(256) as usize;
            if chunk_sites == 0 {
                return Err(bad("`chunk_sites` must be ≥ 1"));
            }
            WireOp::WhatIf(WhatIfOp {
                netlist,
                edit,
                chunk_sites,
            })
        }
        "whatif_revert" => WireOp::WhatIfRevert(WhatIfRevertOp {
            netlist: fields.need_str("netlist", "whatif_revert")?,
        }),
        "cancel" => WireOp::Cancel(CancelOp {
            target: fields.need_str("target", "cancel")?,
        }),
        "batch" => {
            let items = match fields.take("jobs") {
                Some(JsonValue::Arr(items)) => items,
                Some(other) => {
                    return Err(bad(format!(
                        "`jobs` must be an array, got {}",
                        other.type_name()
                    )))
                }
                None => return Err(bad("`jobs` is required for op `batch`")),
            };
            if items.is_empty() {
                return Err(bad("`jobs` must not be empty"));
            }
            if items.len() > BatchOp::MAX_JOBS {
                return Err(bad(format!(
                    "`jobs` is capped at {} per batch envelope",
                    BatchOp::MAX_JOBS
                )));
            }
            let mut jobs = Vec::with_capacity(items.len());
            for (idx, item) in items.into_iter().enumerate() {
                let pairs = match item {
                    JsonValue::Obj(pairs) => pairs,
                    other => {
                        return Err(bad(format!(
                            "`jobs[{idx}]` must be an object, got {}",
                            other.type_name()
                        )))
                    }
                };
                let job =
                    parse_v2(pairs).map_err(|e| bad(format!("`jobs[{idx}]`: {}", e.message)))?;
                match job.op {
                    WireOp::Sweep(_)
                    | WireOp::Site(_)
                    | WireOp::MonteCarlo(_)
                    | WireOp::MultiCycle(_) => {}
                    _ => {
                        return Err(bad(format!(
                            "`jobs[{idx}]` must be a sweep/site/monte_carlo/multi_cycle job"
                        )))
                    }
                }
                jobs.push(job);
            }
            WireOp::Batch(BatchOp { jobs })
        }
        other => {
            return Err(WireError::new(
                ErrorCode::UnknownOp,
                format!("unknown op `{other}`"),
            ))
        }
    };
    fields.finish(&op_name)?;
    Ok(WireRequest {
        id,
        op,
        deadline_ms,
    })
}

/// Parses a `whatif` `"kind"` string into the replacement gate
/// function — logic kinds only, because a swap to `input`/`dff`/const
/// is not a function change but a structural rewrite the what-if
/// engine does not model.
fn parse_gate_kind(name: &str) -> Result<GateKind, WireError> {
    match name {
        "and" => Ok(GateKind::And),
        "nand" => Ok(GateKind::Nand),
        "or" => Ok(GateKind::Or),
        "nor" => Ok(GateKind::Nor),
        "not" => Ok(GateKind::Not),
        "buf" => Ok(GateKind::Buf),
        "xor" => Ok(GateKind::Xor),
        "xnor" => Ok(GateKind::Xnor),
        other => Err(bad(format!(
            "`kind` must be a logic gate (and/nand/or/nor/not/buf/xor/xnor), got \"{other}\""
        ))),
    }
}

/// Parses a `set_inputs` `"inputs"` object:
/// `{"default": p, "overrides": {"name": p, ...}}` (both parts
/// optional). Probabilities are validated here so a bad request is a
/// structured error, not a panic deep in `InputProbs`.
fn parse_inputs_object(value: Option<JsonValue>) -> Result<(f64, Vec<(String, f64)>), WireError> {
    let check = |what: &str, p: f64| -> Result<f64, WireError> {
        if p.is_finite() && (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(bad(format!("{what} probability {p} outside [0, 1]")))
        }
    };
    match value {
        None => Ok((0.5, Vec::new())),
        Some(JsonValue::Obj(inner)) => {
            let mut fields = Fields::new(inner);
            let default_p = match fields.take_f64("default")? {
                Some(p) => check("`inputs.default`", p)?,
                None => 0.5,
            };
            let overrides = match fields.take("overrides") {
                None => Vec::new(),
                Some(JsonValue::Obj(pairs)) => {
                    let mut out = Vec::with_capacity(pairs.len());
                    for (name, v) in pairs {
                        let p = v.as_f64().ok_or_else(|| {
                            bad(format!(
                                "`inputs.overrides.{name}` must be a number, got {}",
                                v.type_name()
                            ))
                        })?;
                        out.push((name, check("override", p)?));
                    }
                    out
                }
                Some(other) => {
                    return Err(bad(format!(
                        "`inputs.overrides` must be an object, got {}",
                        other.type_name()
                    )))
                }
            };
            fields.finish("set_inputs.inputs")?;
            Ok((default_p, overrides))
        }
        Some(other) => Err(bad(format!(
            "`inputs` must be an object, got {}",
            other.type_name()
        ))),
    }
}

// ---------------------------------------------------------------------
// Frame rendering
// ---------------------------------------------------------------------

/// `{"v": 2, "id": ..., "frame": "<kind>"` — every v2 frame's opening.
fn frame_head(kind: &str, id: Option<&str>) -> String {
    match id {
        Some(id) => format!(
            "{{\"v\": {PROTOCOL_VERSION}, \"id\": \"{}\", \"frame\": \"{kind}\"",
            json_escape(id)
        ),
        None => format!("{{\"v\": {PROTOCOL_VERSION}, \"id\": null, \"frame\": \"{kind}\""),
    }
}

/// Renders a v2 error frame.
#[must_use]
pub fn render_error_frame(id: Option<&str>, error: &WireError) -> String {
    format!(
        "{}, \"error\": {}}}",
        frame_head("error", id),
        error.render()
    )
}

/// Renders a v2 progress frame for a service [`Progress`] event.
#[must_use]
pub fn render_progress_frame(id: Option<&str>, progress: &Progress) -> String {
    let head = frame_head("progress", id);
    match progress {
        Progress::Sweep {
            sites_done,
            sites_total,
        } => format!(
            "{head}, \"op\": \"sweep\", \"sites_done\": {sites_done}, \"sites_total\": {sites_total}}}"
        ),
        Progress::MonteCarlo { vectors, sensitized } => format!(
            "{head}, \"op\": \"monte_carlo\", \"vectors\": {vectors}, \"sensitized\": {sensitized}, \"interim_p\": {}}}",
            fmt_f64(*sensitized as f64 / *vectors as f64)
        ),
    }
}

/// Formats one probability: shortest round-trip (bit-identical on
/// parse) in full precision, else a fixed 6-decimal form.
fn fmt_prob(p: f64, full_precision: bool) -> String {
    if full_precision {
        fmt_f64(p)
    } else {
        format!("{p:.6}")
    }
}

/// Renders a served [`Response`]'s meta + payload as the *fields* of a
/// response object (no surrounding braces) — a `result` frame prefixes
/// the envelope head. `top` caps a sweep's ranking (`None` = 5);
/// `full_precision` selects the round-trip float form every frame
/// uses (`false` gives 6 decimals, for human-facing output).
#[must_use]
pub fn response_fields(
    top: Option<usize>,
    circuit: &Circuit,
    response: &Response,
    full_precision: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "\"circuit\": \"{}\", \"netlist_hash\": \"{:016x}\", \"warm\": {}, \"wall_us\": {}",
        json_escape(&response.meta.circuit),
        response.meta.netlist_hash,
        response.meta.warm_session,
        response.meta.wall.as_micros()
    );
    match &response.payload {
        ResponsePayload::Sweep(sweep) => {
            let total: f64 = sweep.p_sensitized().iter().sum();
            let _ = write!(
                out,
                ", \"op\": \"sweep\", \"nodes\": {}, \"total_p_sensitized\": {}",
                sweep.len(),
                fmt_prob(total, full_precision)
            );
            let top = top.unwrap_or(5);
            if top > 0 {
                let mut ranked: Vec<usize> = (0..sweep.len()).collect();
                ranked
                    .sort_by(|&a, &b| sweep.p_sensitized()[b].total_cmp(&sweep.p_sensitized()[a]));
                out.push_str(", \"top\": [");
                for (i, &pos) in ranked.iter().take(top).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let site = sweep.get(pos);
                    let _ = write!(
                        out,
                        "{{\"node\": \"{}\", \"p_sensitized\": {}}}",
                        json_escape(circuit.node(site.site()).name()),
                        fmt_prob(site.p_sensitized(), full_precision)
                    );
                }
                out.push(']');
            }
        }
        ResponsePayload::Site(site) => {
            let _ = write!(
                out,
                ", \"op\": \"site\", \"node\": \"{}\", \"p_sensitized\": {}, \"on_path_gates\": {}",
                json_escape(circuit.node(site.site()).name()),
                fmt_prob(site.p_sensitized(), full_precision),
                site.on_path_gates()
            );
        }
        ResponsePayload::MonteCarlo(est) => {
            let _ = write!(
                out,
                ", \"op\": \"monte_carlo\", \"node\": \"{}\", \"p_sensitized\": {}, \"vectors\": {}",
                json_escape(circuit.node(est.site).name()),
                fmt_prob(est.p_sensitized, full_precision),
                est.vectors
            );
        }
        ResponsePayload::MultiCycle {
            analytic,
            monte_carlo,
        } => {
            let join = |values: &[f64]| {
                values
                    .iter()
                    .map(|&p| fmt_prob(p, full_precision))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = write!(
                out,
                ", \"op\": \"multi_cycle\", \"node\": \"{}\", \"cumulative\": [{}]",
                json_escape(circuit.node(analytic.site).name()),
                join(&analytic.cumulative)
            );
            if let Some(mc) = monte_carlo {
                let _ = write!(
                    out,
                    ", \"mc_cumulative\": [{}], \"mc_runs\": {}, \"mc_stopped_by_rule\": {}",
                    join(&mc.cumulative),
                    mc.runs,
                    mc.stopped_by_rule
                );
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Transport abstraction
// ---------------------------------------------------------------------

/// A blocking source of request lines from one client.
pub trait LineStream: Send {
    /// The next line (without its terminator); `Ok(None)` when the
    /// client is done. A final unterminated fragment is returned as a
    /// line — the parser turns a truncated frame into a `parse` error
    /// rather than dropping it silently.
    fn next_line(&mut self) -> io::Result<Option<String>>;
}

/// The write half of a connection: a cloneable, thread-safe sink of
/// response frames. Executor workers hold clones so sequential
/// Monte-Carlo progress streams out *while the request runs*; the
/// mutex keeps every frame line atomic on the wire.
///
/// A sink that errors once is **dead**: every later [`send`]
/// fails fast without touching the writer. Combined with the TCP
/// transport's write timeout, this bounds how long a client that has
/// stopped reading can block a shared executor worker mid-stream — one
/// stalled write, then nothing.
///
/// [`send`]: FrameSink::send
#[derive(Clone)]
pub struct FrameSink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    dead: Arc<std::sync::atomic::AtomicBool>,
}

impl std::fmt::Debug for FrameSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameSink").finish_non_exhaustive()
    }
}

impl FrameSink {
    /// Wraps a writer.
    #[must_use]
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        FrameSink {
            writer: Arc::new(Mutex::new(Box::new(writer))),
            dead: Arc::default(),
        }
    }

    /// Replaces the sink's writer with `wrap(old_writer)` — the hook
    /// the chaos harness uses to interpose a fault-injecting writer
    /// (byte-split writes, mid-frame failures) between the protocol
    /// engine and the transport without either knowing. Frames sent
    /// while the swap runs wait on the sink's own mutex, so no frame
    /// is ever split across the old and new writer.
    pub fn wrap_writer(&self, wrap: impl FnOnce(Box<dyn Write + Send>) -> Box<dyn Write + Send>) {
        let mut w = lock_clean(&self.writer);
        let inner = std::mem::replace(&mut *w, Box::new(io::sink()));
        *w = wrap(inner);
    }

    /// Writes one frame as a line and flushes (line-buffered framing:
    /// a client may act on every line as it arrives). The frame and
    /// its terminator go down in a **single** write, so an unbuffered
    /// writer (a TCP socket) sends one packet per frame — two writes
    /// would tickle Nagle vs delayed-ACK into a ~40ms stall per reply.
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's first error; every send
    /// after an error fails immediately (the sink is dead — a partial
    /// frame may be on the wire, so nothing coherent can follow it).
    pub fn send(&self, frame: &str) -> io::Result<()> {
        use std::sync::atomic::Ordering;
        if self.dead.load(Ordering::Acquire) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "frame sink is dead after an earlier write failure",
            ));
        }
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        let mut w = self
            .writer
            .lock()
            .map_err(|_| io::Error::other("frame sink poisoned"))?;
        let result = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        if result.is_err() {
            self.dead.store(true, Ordering::Release);
        }
        result
    }
}

/// One client connection: a line source, a frame sink, and a label for
/// diagnostics.
pub struct Connection {
    /// Incoming request lines.
    pub lines: Box<dyn LineStream>,
    /// Outgoing frames.
    pub sink: FrameSink,
    /// Who this is (peer address, or `"stdio"`).
    pub peer: String,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

/// A source of client connections — the I/O half the protocol engine
/// is decoupled from. Two implementations ship: [`StdioTransport`]
/// (one connection over stdin/stdout) and
/// [`TcpTransport`](crate::net::TcpTransport).
pub trait Transport {
    /// Blocks for the next client; `Ok(None)` when the transport is
    /// closed (stdio after its single connection, TCP after shutdown).
    fn accept(&mut self) -> io::Result<Option<Connection>>;
}

/// The stdin/stdout transport: exactly one connection, then end of
/// transport. `ser-cli serve` shares every byte of protocol logic with
/// the TCP front door through it.
#[derive(Debug, Default)]
pub struct StdioTransport {
    served: bool,
}

impl StdioTransport {
    /// Creates the transport.
    #[must_use]
    pub fn new() -> Self {
        StdioTransport::default()
    }
}

/// Any buffered reader is a line source: stdin for `ser-cli serve`, a
/// request file for `ser-cli batch`.
impl<R: BufRead + Send> LineStream for R {
    fn next_line(&mut self) -> io::Result<Option<String>> {
        let mut buf = String::new();
        if self.read_line(&mut buf)? == 0 {
            return Ok(None);
        }
        while buf.ends_with('\n') || buf.ends_with('\r') {
            buf.pop();
        }
        Ok(Some(buf))
    }
}

impl Transport for StdioTransport {
    fn accept(&mut self) -> io::Result<Option<Connection>> {
        if self.served {
            return Ok(None);
        }
        self.served = true;
        Ok(Some(Connection {
            lines: Box::new(io::BufReader::new(io::stdin())),
            sink: FrameSink::new(io::stdout()),
            peer: "stdio".to_owned(),
        }))
    }
}

/// Runs the engine over a transport: each accepted connection is
/// served on its own thread until the transport closes, then every
/// connection thread is joined — the graceful-shutdown path for the
/// TCP front door (stop accepting, finish in-flight clients, return).
///
/// # Errors
///
/// Propagates transport `accept` failures; per-connection I/O errors
/// only end their own connection.
pub fn serve(transport: &mut dyn Transport, engine: &Arc<ProtocolEngine>) -> io::Result<()> {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while let Some(conn) = transport.accept()? {
        let engine = Arc::clone(engine);
        handles.push(std::thread::spawn(move || {
            // A client that vanishes mid-reply is routine, not fatal.
            let _ = engine.serve_connection(conn);
        }));
        handles.retain(|h| !h.is_finished());
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Tuning knobs of a [`ProtocolEngine`].
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// When set, every connection must open with a `hello` op carrying
    /// this token before anything else is served.
    pub auth_token: Option<String>,
    /// Per-client request quota: after this many served ops (anything
    /// but `hello`), further requests get `quota_exceeded` and the
    /// connection closes. `None` = unlimited.
    pub quota: Option<u64>,
    /// Server-wide cap on concurrently executing requests; arrivals
    /// beyond it wait their turn (backpressure, not rejection). `0` =
    /// unlimited.
    pub max_inflight: usize,
}

/// Counting gate bounding concurrently executing requests.
#[derive(Debug)]
struct InflightGate {
    limit: usize,
    active: Mutex<usize>,
    freed: Condvar,
}

impl InflightGate {
    fn acquire(&self) -> InflightPermit<'_> {
        if self.limit > 0 {
            let mut active = lock_clean(&self.active);
            while *active >= self.limit {
                active = wait_clean(&self.freed, active);
            }
            *active += 1;
        }
        InflightPermit { gate: self }
    }
}

struct InflightPermit<'a> {
    gate: &'a InflightGate,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        if self.gate.limit > 0 {
            *lock_clean(&self.gate.active) -= 1;
            self.gate.freed.notify_one();
        }
    }
}

/// Per-connection protocol state.
#[derive(Debug, Default)]
struct ConnState {
    /// Lines served (for the quota).
    served: u64,
    /// Whether the shared secret has been presented.
    authed: bool,
    /// Whether the one quota-free handshake has been spent.
    greeted: bool,
}

/// Whether the connection continues after a line.
enum Flow {
    Continue,
    Close,
}

/// The transport-agnostic request engine: parses envelope lines,
/// dispatches them onto a shared [`SerService`], and writes the
/// framed reply — including mid-request progress frames — through the
/// connection's [`FrameSink`]. One engine serves every connection of a
/// server, so the session/response caches and the netlist cache are
/// shared across clients.
#[derive(Debug)]
pub struct ProtocolEngine {
    service: Arc<SerService>,
    config: EngineConfig,
    /// Parsed netlists by path, shared by every connection.
    circuits: Mutex<Lru<String, Arc<Circuit>>>,
    inflight: InflightGate,
    /// In-flight cancel handles, keyed by client request id. Engine-
    /// wide on purpose: a connection's serve loop is sequential, so a
    /// `cancel` necessarily arrives on a *different* connection than
    /// the request it targets. An id belongs to exactly one in-flight
    /// request — a reuse is refused at registration — so the `Vec`
    /// holds one request's tokens: a single token, or under a batch id
    /// every job of that batch.
    cancels: Mutex<HashMap<String, Vec<CancelToken>>>,
}

/// Engine-wide netlist cache bound: a daemon legitimately serving more
/// distinct netlists than this at once is running a batch workload
/// through the wrong front end; re-parsing the overflow is correct,
/// just slower. Eviction only drops the cache's own handle; sessions
/// already compiled from an evicted circuit keep their `Arc`s.
const NETLIST_CACHE_CAPACITY: usize = 64;

/// One request's claim on its ids in the cancel registry. Registering
/// checks and inserts every id in one critical section, so two racing
/// requests with the same id cannot both pass. Dropping the guard —
/// however the request ends: result, error, panic unwinding past the
/// dispatch — releases the ids, so a late `cancel` can never trip a
/// *future* request that reuses one.
struct CancelGuard<'a> {
    registry: &'a Mutex<HashMap<String, Vec<CancelToken>>>,
    ids: Vec<String>,
}

impl<'a> CancelGuard<'a> {
    /// Claims every id in `entries` for one request.
    ///
    /// # Errors
    ///
    /// A `bad_request` [`WireError`] naming the first id that is live
    /// in the registry or repeated within `entries`; nothing is
    /// registered then.
    fn register(
        registry: &'a Mutex<HashMap<String, Vec<CancelToken>>>,
        entries: Vec<(String, Vec<CancelToken>)>,
    ) -> Result<Self, WireError> {
        let mut map = lock_clean(registry);
        for (i, (id, _)) in entries.iter().enumerate() {
            let clash = if map.contains_key(id) {
                "is already in flight"
            } else if entries[..i].iter().any(|(seen, _)| seen == id) {
                "appears twice in this request"
            } else {
                continue;
            };
            return Err(bad(format!(
                "request id `{id}` {clash}; ids must be unique among in-flight requests"
            )));
        }
        let ids = entries.iter().map(|(id, _)| id.clone()).collect();
        map.extend(entries);
        Ok(CancelGuard { registry, ids })
    }
}

impl Drop for CancelGuard<'_> {
    fn drop(&mut self) {
        let mut map = lock_clean(self.registry);
        for id in &self.ids {
            map.remove(id);
        }
    }
}

impl ProtocolEngine {
    /// Creates an engine over a service.
    #[must_use]
    pub fn new(service: Arc<SerService>, config: EngineConfig) -> Self {
        ProtocolEngine {
            inflight: InflightGate {
                limit: config.max_inflight,
                active: Mutex::new(0),
                freed: Condvar::new(),
            },
            service,
            config,
            circuits: Mutex::new(Lru::new(NETLIST_CACHE_CAPACITY)),
            cancels: Mutex::new(HashMap::new()),
        }
    }

    /// The shared service.
    #[must_use]
    pub fn service(&self) -> &Arc<SerService> {
        &self.service
    }

    /// Requests currently holding an inflight permit. The chaos tests
    /// assert this returns to zero after every fault schedule — a
    /// leaked permit would eventually wedge the gate shut.
    #[must_use]
    pub fn inflight_active(&self) -> usize {
        *lock_clean(&self.inflight.active)
    }

    /// Request ids with live cancel registrations. Like
    /// [`inflight_active`](Self::inflight_active), must drain to zero
    /// once no request is in flight — the registry is RAII-guarded.
    #[must_use]
    pub fn cancel_registrations(&self) -> usize {
        lock_clean(&self.cancels).len()
    }

    /// Serves one client connection to completion: reads lines,
    /// answers frames, enforces auth and quota, stops at end of
    /// stream or on a fatal protocol violation.
    ///
    /// # Errors
    ///
    /// Returns the first unrecoverable I/O error (client gone).
    pub fn serve_connection(&self, conn: Connection) -> io::Result<()> {
        let mut lines = conn.lines;
        let sink = conn.sink;
        let mut state = ConnState::default();
        while let Some(line) = lines.next_line()? {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            match self.handle_line(trimmed, &mut state, &sink)? {
                Flow::Continue => {}
                Flow::Close => break,
            }
        }
        Ok(())
    }

    /// Parses and dispatches one request line, writing every frame of
    /// the reply.
    fn handle_line(&self, line: &str, state: &mut ConnState, sink: &FrameSink) -> io::Result<Flow> {
        let parsed = parse_wire_line(line);

        // Auth gate first — it covers unparseable lines too, so an
        // unauthenticated client cannot elicit unlimited error replies
        // by sending garbage: with a token configured, the first line
        // must be a valid hello, and anything else (including a line
        // that does not parse) closes the connection.
        if self.config.auth_token.is_some() && !state.authed {
            if let Ok(WireRequest {
                id,
                op: WireOp::Hello { token },
                ..
            }) = &parsed
            {
                if token.as_deref() == self.config.auth_token.as_deref() {
                    state.authed = true;
                    state.greeted = true;
                    sink.send(&hello_frame(id.as_deref()))?;
                    return Ok(Flow::Continue);
                }
                sink.send(&render_error_frame(
                    id.as_deref(),
                    &WireError::new(ErrorCode::Unauthorized, "bad or missing token"),
                ))?;
                return Ok(Flow::Close);
            }
            sink.send(&render_error_frame(
                None,
                &WireError::new(
                    ErrorCode::Unauthorized,
                    "this server requires a hello op with a token first",
                ),
            ))?;
            return Ok(Flow::Close);
        }

        // The first hello is the quota-free handshake; repeats fall
        // through to the quota gate like any other op, so a hello loop
        // cannot elicit unlimited replies.
        if let Ok(WireRequest {
            id,
            op: WireOp::Hello { .. },
            ..
        }) = &parsed
        {
            if !state.greeted {
                state.authed = true;
                state.greeted = true;
                sink.send(&hello_frame(id.as_deref()))?;
                return Ok(Flow::Continue);
            }
        }

        // Quota gate: every post-handshake line counts, parseable or
        // not — a quota that garbage lines bypassed would be no quota.
        if let Some(quota) = self.config.quota {
            if state.served >= quota {
                let id = parsed.as_ref().ok().and_then(|req| req.id.as_deref());
                sink.send(&render_error_frame(
                    id,
                    &WireError::new(
                        ErrorCode::QuotaExceeded,
                        format!("request quota ({quota}) exhausted for this connection"),
                    ),
                ))?;
                return Ok(Flow::Close);
            }
        }
        state.served += 1;

        match parsed {
            Ok(req) => {
                if let Err(e) = self.dispatch(&req, sink)? {
                    sink.send(&render_error_frame(req.id.as_deref(), &e))?;
                }
            }
            Err(e) => sink.send(&render_error_frame(None, &e))?,
        }
        Ok(Flow::Continue)
    }

    /// Serves one op, writing progress/chunk/result frames. The outer
    /// `io::Result` is transport failure; the inner result reports a
    /// protocol-level error for the caller to frame.
    fn dispatch(&self, req: &WireRequest, sink: &FrameSink) -> io::Result<Result<(), WireError>> {
        let id = req.id.as_deref();
        // A token exists whenever the request carries an id (so a
        // concurrent `cancel` can find it) or a deadline; ops that
        // never reach a compute leg still honor it via the pre-check.
        let token = match (&req.id, req.deadline_ms) {
            (None, None) => None,
            (_, Some(ms)) => Some(CancelToken::with_timeout(Duration::from_millis(ms))),
            (Some(_), None) => Some(CancelToken::new()),
        };
        let _guard = match (&req.id, &token, &req.op) {
            // A batch claims its ids together with its jobs' tokens.
            (_, _, WireOp::Batch(_)) => None,
            (Some(rid), Some(token), _) => {
                match CancelGuard::register(&self.cancels, vec![(rid.clone(), vec![token.clone()])])
                {
                    Ok(guard) => Some(guard),
                    Err(e) => return Ok(Err(e)),
                }
            }
            _ => None,
        };
        if let Some(token) = &token {
            if let Err(cause) = token.check() {
                return Ok(Err((&ServiceError::Cancelled(cause)).into()));
            }
        }
        match &req.op {
            // Only *repeated* hellos land here (the first is answered
            // quota-free before dispatch); they count like any op.
            WireOp::Hello { .. } => {
                sink.send(&hello_frame(id))?;
                Ok(Ok(()))
            }
            WireOp::Stats => {
                let s = self.service.stats();
                sink.send(&format!(
                    "{}, \"op\": \"stats\", \"session_hits\": {}, \"session_misses\": {}, \
                     \"evictions\": {}, \"sessions_cached\": {}, \"sweep_cache_hits\": {}, \
                     \"sweep_cache_misses\": {}, \"sweep_responses_cached\": {}, \
                     \"requests_cancelled\": {}, \"idle_reaped\": {}}}",
                    frame_head("result", id),
                    s.session_hits,
                    s.session_misses,
                    s.evictions,
                    s.sessions_cached,
                    s.sweep_cache_hits,
                    s.sweep_cache_misses,
                    s.sweep_responses_cached,
                    s.requests_cancelled,
                    s.idle_reaped
                ))?;
                Ok(Ok(()))
            }
            WireOp::SetInputs(op) => match self.run_set_inputs(op) {
                Ok((circuit, revision)) => {
                    sink.send(&format!(
                        "{}, \"op\": \"set_inputs\", \"circuit\": \"{}\", \
                         \"netlist_hash\": \"{:016x}\", \"revision\": {revision}}}",
                        frame_head("result", id),
                        json_escape(circuit.name()),
                        circuit.structural_hash()
                    ))?;
                    Ok(Ok(()))
                }
                Err(e) => Ok(Err(e)),
            },
            // A solo compute op is a batch of one without the summary
            // frame: same resolver, same submit, same reply writer.
            WireOp::Sweep(_) | WireOp::Site(_) | WireOp::MonteCarlo(_) | WireOp::MultiCycle(_) => {
                match self.resolve_job(req, token.clone(), sink) {
                    Ok(job) => {
                        self.run_jobs(vec![job], sink)?;
                        Ok(Ok(()))
                    }
                    Err(e) => Ok(Err(e)),
                }
            }
            WireOp::WhatIf(op) => self.run_whatif(id, op, sink, token.as_ref()),
            WireOp::Cancel(op) => {
                let found = {
                    let map = lock_clean(&self.cancels);
                    match map.get(&op.target) {
                        Some(tokens) => {
                            for token in tokens {
                                token.cancel();
                            }
                            true
                        }
                        None => false,
                    }
                };
                sink.send(&format!(
                    "{}, \"op\": \"cancel\", \"target\": \"{}\", \"found\": {found}}}",
                    frame_head("result", id),
                    json_escape(&op.target)
                ))?;
                Ok(Ok(()))
            }
            WireOp::Batch(op) => self.run_batch(id, op, req.deadline_ms, sink),
            WireOp::WhatIfRevert(op) => match self.run_whatif_revert(op) {
                Ok((circuit, depth, total)) => {
                    sink.send(&format!(
                        "{}, \"op\": \"whatif_revert\", \"circuit\": \"{}\", \
                         \"netlist_hash\": \"{:016x}\", \"total_ser\": {}, \"depth\": {depth}}}",
                        frame_head("result", id),
                        json_escape(circuit.name()),
                        circuit.structural_hash(),
                        fmt_f64(total)
                    ))?;
                    Ok(Ok(()))
                }
                Err(e) => Ok(Err(e)),
            },
        }
    }

    fn run_set_inputs(&self, op: &SetInputsOp) -> Result<(Arc<Circuit>, u64), WireError> {
        let circuit = self.load_circuit(&op.netlist)?;
        let mut inputs = InputProbs::uniform(op.default_p);
        for (name, p) in &op.overrides {
            inputs = inputs.with(resolve_node(&circuit, name)?, *p);
        }
        let _permit = self.inflight.acquire();
        let revision = self.service.set_inputs(&circuit, inputs)?;
        Ok((circuit, revision))
    }

    /// Serves a `whatif` op: applies the edit to the netlist's warm
    /// stack, pages the dirty-region per-site deltas into `chunk`
    /// frames (`old_p` is `null` for sites the edit introduced), then
    /// sends a result frame with the new total and the re-sweep
    /// telemetry. The incremental engine guarantees the spliced state
    /// is bit-identical to a from-scratch analysis, so the wire totals
    /// can be compared bitwise against a full `sweep` of the edited
    /// circuit.
    fn run_whatif(
        &self,
        id: Option<&str>,
        op: &WhatIfOp,
        sink: &FrameSink,
        cancel: Option<&CancelToken>,
    ) -> io::Result<Result<(), WireError>> {
        let circuit = match self.load_circuit(&op.netlist) {
            Ok(c) => c,
            Err(e) => return Ok(Err(e)),
        };
        let _permit = self.inflight.acquire();
        // The resolver runs against the stack's *current* circuit; a
        // resolution failure is stashed so its error code (not_found /
        // bad_request) survives the trip through `ServiceError`.
        let mut resolve_err: Option<WireError> = None;
        let result = self.service.whatif_apply_cancellable(
            &circuit,
            |current| {
                build_whatif_edit(current, &op.edit).map_err(|e| {
                    let msg = e.message.clone();
                    resolve_err = Some(e);
                    ServiceError::InvalidRequest(msg)
                })
            },
            cancel,
        );
        let outcome: WhatIfOutcome = match result {
            Ok(o) => o,
            Err(e) => {
                return Ok(Err(match resolve_err {
                    Some(wire) => wire,
                    None => e.into(),
                }))
            }
        };

        let mut chunks = 0usize;
        for (seq, chunk) in outcome.deltas.chunks(op.chunk_sites).enumerate() {
            let mut frame = format!("{}, \"seq\": {seq}, \"deltas\": [", frame_head("chunk", id));
            for (i, delta) in chunk.iter().enumerate() {
                if i > 0 {
                    frame.push_str(", ");
                }
                let old = match delta.old_p {
                    Some(p) => fmt_f64(p),
                    None => "null".to_owned(),
                };
                frame.push_str(&format!(
                    "{{\"node\": \"{}\", \"old_p\": {old}, \"new_p\": {}}}",
                    json_escape(&delta.name),
                    fmt_f64(delta.new_p)
                ));
            }
            frame.push_str("]}");
            sink.send(&frame)?;
            chunks = seq + 1;
        }
        sink.send(&format!(
            "{}, \"op\": \"whatif\", \"circuit\": \"{}\", \"netlist_hash\": \"{:016x}\", \
             \"edit\": \"{}\", \"total_ser\": {}, \"previous_ser\": {}, \"dirty_sites\": {}, \
             \"resweep_planned\": {}, \"resweep_reference\": {}, \"total_sites\": {}, \
             \"depth\": {}, \"elapsed_us\": {}, \"chunks\": {chunks}}}",
            frame_head("result", id),
            json_escape(circuit.name()),
            circuit.structural_hash(),
            op.edit.kind_str(),
            fmt_f64(outcome.total),
            fmt_f64(outcome.previous_total),
            outcome.dirty_sites,
            outcome.resweep_planned,
            outcome.resweep_reference,
            outcome.total_sites,
            outcome.depth,
            outcome.elapsed.as_micros()
        ))?;
        Ok(Ok(()))
    }

    fn run_whatif_revert(
        &self,
        op: &WhatIfRevertOp,
    ) -> Result<(Arc<Circuit>, usize, f64), WireError> {
        let circuit = self.load_circuit(&op.netlist)?;
        let _permit = self.inflight.acquire();
        let (depth, total) = self.service.whatif_revert(&circuit)?;
        Ok((circuit, depth, total))
    }

    /// Serves a `batch` op: every job is resolved up front (any
    /// resolution failure rejects the whole batch before any work is
    /// enqueued), then all jobs are submitted together so their
    /// executor parts interleave on the shared workers. Each job
    /// answers with its own id-echoed progress/chunk/result (or error)
    /// frames, in job order, then one batch-level result frame closes
    /// the envelope. One inflight permit covers the whole batch — it
    /// is one wire request.
    ///
    /// Cancellation: each job's token registers under the job's own id
    /// and every job's token under the batch envelope's id, so a client
    /// can cancel one job surgically or the whole batch at once; a
    /// batch-level `deadline_ms` combines with per-job deadlines
    /// (earlier wins). The ids are claimed before any job is resolved,
    /// so a live or repeated id refuses the batch before any work.
    fn run_batch(
        &self,
        id: Option<&str>,
        op: &BatchOp,
        deadline_ms: Option<u64>,
        sink: &FrameSink,
    ) -> io::Result<Result<(), WireError>> {
        let tokens: Vec<CancelToken> = op
            .jobs
            .iter()
            .map(|job| match (deadline_ms, job.deadline_ms) {
                (Some(a), Some(b)) => CancelToken::with_timeout(Duration::from_millis(a.min(b))),
                (Some(ms), None) | (None, Some(ms)) => {
                    CancelToken::with_timeout(Duration::from_millis(ms))
                }
                (None, None) => CancelToken::new(),
            })
            .collect();
        let mut entries = Vec::new();
        if let Some(bid) = id {
            entries.push((bid.to_owned(), tokens.clone()));
        }
        for (job, token) in op.jobs.iter().zip(&tokens) {
            if let Some(jid) = &job.id {
                entries.push((jid.clone(), vec![token.clone()]));
            }
        }
        let _guard = match CancelGuard::register(&self.cancels, entries) {
            Ok(guard) => guard,
            Err(e) => return Ok(Err(e)),
        };
        let mut jobs = Vec::with_capacity(op.jobs.len());
        for (job, token) in op.jobs.iter().zip(tokens) {
            match self.resolve_job(job, Some(token), sink) {
                Ok(j) => jobs.push(j),
                Err(e) => return Ok(Err(e)),
            }
        }
        let errors = self.run_jobs(jobs, sink)?;
        sink.send(&format!(
            "{}, \"op\": \"batch\", \"jobs\": {}, \"errors\": {errors}}}",
            frame_head("result", id),
            op.jobs.len()
        ))?;
        Ok(Ok(()))
    }

    /// Resolves one compute job (`sweep` / `site` / `monte_carlo` /
    /// `multi_cycle`) — a solo op or one job of a `batch` — against its
    /// netlist into a submittable request, with a progress sink that
    /// writes id-echoed `progress` frames when the op streams.
    fn resolve_job(
        &self,
        job: &WireRequest,
        token: Option<CancelToken>,
        sink: &FrameSink,
    ) -> Result<ComputeJob, WireError> {
        let progress_sink = |want: bool| -> Option<ProgressFn> {
            want.then(|| -> ProgressFn {
                let sink = sink.clone();
                let id: Option<String> = job.id.clone();
                Arc::new(move |p: Progress| {
                    let _ = sink.send(&render_progress_frame(id.as_deref(), &p));
                })
            })
        };
        let (circuit, request, progress, top, chunk_sites) = match &job.op {
            WireOp::Sweep(op) => {
                let circuit = self.load_circuit(&op.netlist)?;
                let sites = match &op.sites {
                    None => None,
                    Some(names) => Some(
                        names
                            .iter()
                            .map(|name| resolve_node(&circuit, name))
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                };
                let request = Request::Sweep(SweepRequest {
                    sites,
                    polarity: op.polarity,
                });
                let progress = progress_sink(op.progress);
                (circuit, request, progress, op.top, op.chunk_sites)
            }
            WireOp::Site(op) => {
                let circuit = self.load_circuit(&op.netlist)?;
                let site = resolve_node(&circuit, &op.node)?;
                (
                    circuit,
                    Request::Site(SiteRequest { site }),
                    None,
                    None,
                    None,
                )
            }
            WireOp::MonteCarlo(op) => {
                let circuit = self.load_circuit(&op.netlist)?;
                let request = Request::MonteCarlo(MonteCarloRequest {
                    site: resolve_node(&circuit, &op.node)?,
                    vectors: op.vectors.unwrap_or(DEFAULT_VECTORS),
                    target_error: op.target_error,
                    seed: op.seed.unwrap_or(DEFAULT_SEED),
                });
                let progress = progress_sink(op.progress && op.target_error.is_some());
                (circuit, request, progress, None, None)
            }
            WireOp::MultiCycle(op) => {
                let circuit = self.load_circuit(&op.netlist)?;
                let request = Request::MultiCycle(MultiCycleRequest {
                    site: resolve_node(&circuit, &op.node)?,
                    cycles: op.cycles,
                    monte_carlo: op.monte_carlo.as_ref().map(|mc| MultiCycleMcRequest {
                        runs: mc.runs,
                        target_error: mc.target_error,
                        seed: mc.seed.unwrap_or(DEFAULT_SEED),
                    }),
                });
                // Progress only makes sense when the simulation leg runs
                // under the sequential stopping rule (data-dependent
                // runtime).
                let streaming = op.progress
                    && op
                        .monte_carlo
                        .as_ref()
                        .is_some_and(|mc| mc.target_error.is_some());
                (circuit, request, progress_sink(streaming), None, None)
            }
            // Unreachable in practice: dispatch and the batch parser
            // route only compute ops here.
            _ => {
                return Err(bad(
                    "only sweep/site/monte_carlo/multi_cycle are compute jobs",
                ))
            }
        };
        Ok(ComputeJob {
            id: job.id.clone(),
            circuit,
            request,
            progress,
            token,
            top,
            chunk_sites,
        })
    }

    /// Submits resolved compute jobs together under one inflight permit
    /// — their executor parts interleave on the shared workers — then
    /// writes each job's reply in job order: `chunk` frames and a
    /// `result` frame, or one `error` frame. Returns how many jobs
    /// answered with an error frame.
    fn run_jobs(&self, jobs: Vec<ComputeJob>, sink: &FrameSink) -> io::Result<usize> {
        let _permit = self.inflight.acquire();
        let results = self.service.submit_batch(
            jobs.iter()
                .map(|j| {
                    (
                        Arc::clone(&j.circuit),
                        j.request.clone(),
                        j.progress.clone(),
                        j.token.clone(),
                    )
                })
                .collect(),
        );
        let mut errors = 0usize;
        for (job, result) in jobs.iter().zip(results) {
            let id = job.id.as_deref();
            match result {
                Ok(response) => {
                    let mut chunks = 0usize;
                    if let (Some(chunk_sites), ResponsePayload::Sweep(sweep)) =
                        (job.chunk_sites, &response.payload)
                    {
                        chunks = send_sweep_chunks(sink, id, &job.circuit, sweep, chunk_sites)?;
                    }
                    let chunk_note = if job.chunk_sites.is_some() {
                        format!(", \"chunks\": {chunks}")
                    } else {
                        String::new()
                    };
                    sink.send(&format!(
                        "{}, {}{chunk_note}}}",
                        frame_head("result", id),
                        response_fields(job.top, &job.circuit, &response, true)
                    ))?;
                }
                Err(e) => {
                    errors += 1;
                    sink.send(&render_error_frame(id, &WireError::from(&e)))?;
                }
            }
        }
        Ok(errors)
    }

    /// Loads (or reuses) a netlist by path. The cache is engine-wide:
    /// every connection shares one parse and one `Arc<Circuit>` per
    /// path, which also keeps the service's session cache keyed
    /// consistently.
    fn load_circuit(&self, path: &str) -> Result<Arc<Circuit>, WireError> {
        if let Some(c) = lock_clean(&self.circuits).get(path) {
            return Ok(Arc::clone(c));
        }
        let text = std::fs::read_to_string(path).map_err(|e| {
            WireError::new(ErrorCode::NotFound, format!("cannot read `{path}`: {e}"))
        })?;
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("circuit");
        let circuit = if path.ends_with(".v") || path.ends_with(".sv") {
            parse_verilog(&text)
        } else {
            parse_bench(&text, stem)
        }
        .map_err(|e| {
            WireError::new(ErrorCode::BadRequest, format!("cannot parse `{path}`: {e}"))
        })?;
        let circuit = Arc::new(circuit);
        lock_clean(&self.circuits).insert(path.to_owned(), Arc::clone(&circuit));
        Ok(circuit)
    }
}

fn hello_frame(id: Option<&str>) -> String {
    format!(
        "{}, \"op\": \"hello\", \"protocol\": {PROTOCOL_VERSION}, \"server\": \"ser-service\"}}",
        frame_head("result", id)
    )
}

/// Resolves a wire-level what-if edit against the stack's current
/// circuit into the engine's typed [`Edit`].
fn build_whatif_edit(circuit: &Circuit, edit: &WhatIfEditOp) -> Result<Edit, WireError> {
    match edit {
        WhatIfEditOp::Tmr { node } => Ok(Edit::Tmr(resolve_node(circuit, node)?)),
        WhatIfEditOp::SwapKind { node, kind } => {
            Ok(Edit::SwapKind(resolve_node(circuit, node)?, *kind))
        }
        WhatIfEditOp::SetInputs {
            default_p,
            overrides,
        } => {
            let mut inputs = InputProbs::uniform(*default_p);
            for (name, p) in overrides {
                inputs = inputs.with(resolve_node(circuit, name)?, *p);
            }
            Ok(Edit::SetInputs(inputs))
        }
    }
}

/// One resolved compute job, ready to submit: the loaded circuit, the
/// typed request with its progress sink and cancel token, and the
/// reply bookkeeping [`ProtocolEngine::run_jobs`] needs after the
/// executor returns.
struct ComputeJob {
    id: Option<String>,
    circuit: Arc<Circuit>,
    request: Request,
    progress: Option<ProgressFn>,
    token: Option<CancelToken>,
    top: Option<usize>,
    chunk_sites: Option<usize>,
}

/// Pages a sweep's per-site values into id-echoed `chunk` frames;
/// returns the number of chunk frames sent.
fn send_sweep_chunks(
    sink: &FrameSink,
    id: Option<&str>,
    circuit: &Circuit,
    sweep: &SweepResults,
    chunk_sites: usize,
) -> io::Result<usize> {
    let mut chunks = 0usize;
    for (seq, first) in (0..sweep.len()).step_by(chunk_sites).enumerate() {
        let mut frame = format!(
            "{}, \"seq\": {seq}, \"first\": {first}, \"sites\": [",
            frame_head("chunk", id)
        );
        for pos in first..(first + chunk_sites).min(sweep.len()) {
            if pos > first {
                frame.push_str(", ");
            }
            let site = sweep.get(pos);
            frame.push_str(&format!(
                "{{\"node\": \"{}\", \"p_sensitized\": {}}}",
                json_escape(circuit.node(site.site()).name()),
                fmt_f64(site.p_sensitized())
            ));
        }
        frame.push_str("]}");
        sink.send(&frame)?;
        chunks = seq + 1;
    }
    Ok(chunks)
}

fn resolve_node(circuit: &Circuit, name: &str) -> Result<NodeId, WireError> {
    circuit.find(name).ok_or_else(|| {
        WireError::new(
            ErrorCode::NotFound,
            format!("no node named `{name}` in `{}`", circuit.name()),
        )
    })
}
