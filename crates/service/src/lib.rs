//! # ser-service — the multi-circuit SER estimation daemon
//!
//! The ROADMAP's "heavy traffic" loop: keep many compiled circuits
//! **warm** and serve typed estimation requests against them from one
//! shared worker pool — in-process, over stdin/stdout, or over TCP.
//!
//! The pieces, bottom up:
//!
//! - [`SerService`] — warm [`AnalysisSession`](ser_epp::AnalysisSession)s
//!   in a bounded LRU keyed by
//!   [`Circuit::structural_hash`](ser_netlist::Circuit::structural_hash),
//!   with typed requests ([`SweepRequest`], [`SiteRequest`],
//!   [`MultiCycleRequest`], [`MonteCarloRequest`]), arena-backed
//!   responses, cross-request response caching, streaming
//!   [`Progress`] events ([`SerService::submit_batch`]), and warm
//!   per-netlist what-if stacks ([`SerService::whatif_apply`] /
//!   [`SerService::whatif_revert`]) for the interactive
//!   rank → harden → re-rank loop.
//! - [`Executor`] — the shared FIFO worker pool every request fans out
//!   onto, so concurrent sweeps on different circuits interleave
//!   instead of serializing.
//! - [`protocol`] — the versioned wire API: envelope requests
//!   (`{"v": 2, "id": ..., "op": ...}` with nested parameters),
//!   framed replies (`progress` / `chunk` / `result` / `error`),
//!   structured `{code, message}` errors, cooperative cancellation
//!   (the `cancel` op and per-request `deadline_ms`, both backed by
//!   [`CancelToken`](ser_netlist::CancelToken)s threaded through every
//!   compute leg), multi-job `batch` envelopes, and the
//!   transport-agnostic [`ProtocolEngine`] behind the [`Transport`]
//!   trait.
//! - [`net`] — the std-only TCP front door ([`TcpTransport`]):
//!   connection threads feeding the shared engine, optional
//!   shared-secret auth, per-client request quotas, a server-wide
//!   in-flight cap, idle-connection reaping, graceful shutdown.
//! - [`chaos`] — deterministic seeded fault injection
//!   ([`ChaosTransport`]): torn writes, mid-frame disconnects,
//!   injected read errors — the harness the robustness tests drive the
//!   whole stack through.
//! - [`json`] — the hand-rolled nested JSON layer the protocol parses
//!   and renders with (the suite is offline; no serde).
//!
//! All of it rides on the owned-session redesign: sessions are
//! `Send + Sync + 'static` `Arc` handles, so caching them, sharing them
//! across connection threads and moving them into executor closures is
//! safe by construction.
//!
//! # Examples
//!
//! Two circuits served interleaved from one warm cache:
//!
//! ```
//! use std::sync::Arc;
//! use ser_netlist::parse_bench;
//! use ser_service::{Request, SerService, SweepRequest};
//!
//! let and2: Arc<_> =
//!     parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "and2")?.into();
//! let or2: Arc<_> =
//!     parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "or2")?.into();
//! let service = SerService::with_defaults();
//! let responses = service.submit_batch(vec![
//!     (Arc::clone(&and2), Request::Sweep(SweepRequest::default()), None, None),
//!     (Arc::clone(&or2), Request::Sweep(SweepRequest::default()), None, None),
//! ]);
//! for r in &responses {
//!     assert_eq!(r.as_ref().unwrap().as_sweep().unwrap().len(), 3);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same service as a TCP daemon (see [`net`] for the client side):
//!
//! ```no_run
//! use std::sync::Arc;
//! use ser_service::{serve, EngineConfig, ProtocolEngine, SerService, TcpTransport};
//!
//! let engine = Arc::new(ProtocolEngine::new(
//!     Arc::new(SerService::with_defaults()),
//!     EngineConfig { auth_token: Some("secret".into()), ..EngineConfig::default() },
//! ));
//! let mut transport = TcpTransport::bind("0.0.0.0:7453")?;
//! serve(&mut transport, &engine)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
mod executor;
pub mod json;
mod lru;
pub mod net;
pub mod protocol;
mod request;
mod service;
mod sync;

pub use chaos::{ChaosLines, ChaosSchedule, ChaosTransport, ChaosWriter};
pub use executor::Executor;
pub use json::{json_escape, JsonValue};
pub use net::{TcpShutdownHandle, TcpTransport};
pub use protocol::{
    parse_wire_line, serve, BatchOp, CancelOp, Connection, EngineConfig, ErrorCode, FrameSink,
    LineStream, MonteCarloOp, MultiCycleMcOp, MultiCycleOp, ProtocolEngine, SetInputsOp, SiteOp,
    StdioTransport, SweepOp, Transport, WhatIfEditOp, WhatIfOp, WhatIfRevertOp, WireError, WireOp,
    WireRequest, PROTOCOL_VERSION, WIRE_OPS,
};
pub use request::{
    MonteCarloRequest, MultiCycleMcRequest, MultiCycleRequest, Request, Response, ResponseMeta,
    ResponsePayload, ServiceError, SiteRequest, SweepRequest,
};
pub use service::{BatchJob, Progress, ProgressFn, SerService, SerServiceConfig, ServiceStats};
