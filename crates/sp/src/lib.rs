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
//! - [`MonteCarloSp`] — simulation-based estimates.
//!
//! The exact engines these are validated against (exhaustive, BDD) and
//! the correlation ablation live in the `ser-oracle` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod independent;
mod monte;
mod types;

pub use independent::IndependentSp;
pub use monte::MonteCarloSp;
pub use types::{InputProbs, SpEngine, SpError, SpVector};
