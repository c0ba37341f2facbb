//! EPP-based soft error rate estimation — the core of the suite.
//!
//! This crate implements the contribution of *"An Accurate SER
//! Estimation Method Based on Propagation Probability"* (Asadi &
//! Tahoori, DATE 2005): a one-pass analytical computation of the Error
//! Propagation Probability (EPP) from any error site to all reachable
//! outputs, replacing random fault-injection simulation.
//!
//! The building blocks, bottom to top:
//!
//! - [`FourValue`] — the `(Pa, Pā, P0, P1)` propagation tuple,
//! - [`propagate`] — Table 1's per-gate rules (all gate kinds),
//! - [`EppAnalysis`] — the one-pass EPP and `P_sensitized` per error
//!   site, swept over cone plans compiled once per circuit,
//! - [`RseuModel`]/[`PlatchedModel`]/[`SerReport`] — the full
//!   `SER = R_SEU × P_latched × P_sensitized` model with rankings,
//! - [`AnalysisSession`] — the cached per-circuit context: topological
//!   order, observe points, signal probabilities, the compiled
//!   simulator and the scratch pool, each computed once and shared by
//!   every estimation path (with SP-only invalidation on
//!   input-probability changes),
//! - [`CircuitSerAnalysis`] — the whole-circuit facade with timing
//!   (Table 2's `SysT`/`SPT` split),
//! - [`HardeningPlan`] — greedy selective hardening (the conclusion's
//!   use-case),
//! - [`MultiCycleEpp`] — sequential frame expansion (extension).
//!
//! # Examples
//!
//! Rank the most vulnerable gates of a circuit:
//!
//! ```
//! use ser_netlist::parse_bench;
//! use ser_epp::CircuitSerAnalysis;
//!
//! let c = parse_bench("
//! INPUT(a)
//! INPUT(b)
//! INPUT(c)
//! OUTPUT(y)
//! u = AND(a, b)
//! y = OR(u, c)
//! ", "toy")?;
//! let outcome = CircuitSerAnalysis::new().run(&c)?;
//! let top = outcome.report().ranking()[0];
//! // The output node itself is the most exposed site.
//! assert_eq!(c.node(top.node).name(), "y");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod engine;
mod four_value;
mod hardening;
mod multi_cycle;
mod rules;
mod ser_model;
mod session;
mod sweep;
mod whatif;

pub use analysis::{AnalysisOutcome, CircuitSerAnalysis};
pub use engine::{
    combine_sensitization, EppAnalysis, PointEpp, PolarityMode, SiteEpp, WorkspacePool,
};
pub use four_value::FourValue;
pub use hardening::{HardeningChoice, HardeningCost, HardeningPlan};
pub use multi_cycle::{
    multi_cycle_monte_carlo, multi_cycle_monte_carlo_sequential, MultiCycleEpp, MultiCycleMcAbort,
    MultiCycleMcEstimate, MultiCycleResult,
};
pub use rules::propagate;
pub use ser_model::{PlatchedModel, RseuModel, SerEntry, SerReport};
pub use session::AnalysisSession;
pub use sweep::{
    Arrivals, KernelBackend, RunCtx, SweepResults, SweepSiteRef, SweepWorkspace,
    SINGLE_THREAD_SWEEP_THRESHOLD,
};
pub use whatif::{Edit, SiteDelta, WhatIfAbort, WhatIfOutcome, WhatIfSession};
