//! Signal-probability engines.
//!
//! The paper's EPP computation consumes the *signal probability* (SP) of
//! every off-path signal — "the probability of l having logic value 1"
//! (Parker & McCluskey). The paper treats SP as an input computed by
//! other design-flow steps and reports its cost separately (the `SPT`
//! column of Table 2); this crate therefore provides interchangeable
//! engines behind one trait:
//!
//! - [`IndependentSp`] — the classic linear-time topological pass
//!   (exact on trees, approximate under reconvergent fanout),
//! - [`MonteCarloSp`] — simulation-based estimates,
//! - [`ExactSp`] — weighted exhaustive enumeration (an oracle for small
//!   circuits),
//! - [`BddSp`] — exact via [`bdd`] (scales with BDD size instead of
//!   input count),
//! - [`CorrelationSp`] — pairwise-correlation propagation (an accuracy
//!   ablation between independent and exact).
//!
//! # Examples
//!
//! ```
//! use ser_netlist::parse_bench;
//! use ser_sp::{ExactSp, IndependentSp, InputProbs, SpEngine};
//!
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n", "t")?;
//! let probs = InputProbs::uniform(0.5);
//! let fast = IndependentSp::new().compute(&c, &probs)?;
//! let oracle = ExactSp::new().compute(&c, &probs)?;
//! // No reconvergence here, so the linear-time engine is exact.
//! assert!(fast.max_abs_diff(&oracle) < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bdd;
mod bdd_engine;
mod correlation;
mod exact;
mod independent;
mod monte;
mod types;

pub use bdd_engine::BddSp;
pub use correlation::CorrelationSp;
pub use exact::ExactSp;
pub use independent::IndependentSp;
pub use monte::MonteCarloSp;
pub use types::{InputProbs, SpEngine, SpError, SpVector};
