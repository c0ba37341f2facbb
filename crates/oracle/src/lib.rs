//! Exact oracles for the SER suite — what the estimators are checked
//! against, kept out of the crates the daemon links.
//!
//! - [`ExactSp`] and [`ExactEpp`] — weighted exhaustive enumeration of
//!   every source assignment (small circuits),
//! - [`BddSp`] and [`BddExactEpp`] — the same exact answers via BDDs,
//!   which scale with BDD size instead of input count,
//! - [`CorrelationSp`] — pairwise-correlation SP propagation (an
//!   accuracy ablation between independent and exact SP),
//! - [`check_equivalence`] — BDD proof that a hardening transform kept
//!   the circuit's function,
//! - [`ReferenceEpp`] — the paper's per-site EPP pass (cone DFS, sort,
//!   one propagation pass) with no compiled plans: the definition the
//!   planned sweep kernel must match bit for bit.
//!
//! The exact oracles treat flip-flop outputs as free 0.5-probability
//! sources: the combinational single-cycle view the analytical engines
//! take.
//!
//! # Examples
//!
//! ```
//! use ser_netlist::parse_bench;
//! use ser_oracle::ExactSp;
//! use ser_sp::{IndependentSp, InputProbs, SpEngine};
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

mod bdd;
mod bdd_engine;
mod correlation;
mod equivalence;
mod exact;
mod exact_bdd;
mod reference;

pub use bdd_engine::BddSp;
pub use correlation::CorrelationSp;
pub use equivalence::{check_equivalence, tmr_replica_names, Equivalence};
pub use exact::{ExactEpp, ExactSiteEpp, ExactSp};
pub use exact_bdd::BddExactEpp;
pub use reference::ReferenceEpp;
