//! Bit-parallel logic simulation, SEU fault injection and the
//! Monte-Carlo `P_sensitized` baseline.
//!
//! This crate is the *random simulation method* the paper compares
//! against, built as a first-class substrate: a 64-way bit-parallel
//! combinational engine ([`BitSim`]), a sequential stepper ([`SeqSim`]),
//! cone-restricted SEU injection ([`SiteFaultSim`]) and the Monte-Carlo
//! estimator ([`MonteCarlo`]).
//!
//! # Examples
//!
//! Estimate how often an SEU at a gate reaches an output:
//!
//! ```
//! use ser_netlist::parse_bench;
//! use ser_sim::{BitSim, MonteCarlo};
//!
//! let c = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n", "t")?;
//! let sim = BitSim::new(&c)?;
//! let a = c.find("a").unwrap();
//! let est = MonteCarlo::new(10_000).with_seed(1).estimate_site(&sim, a);
//! // The AND's side input blocks the error half the time.
//! assert!((est.p_sensitized - 0.5).abs() < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod fault;
mod monte_carlo;
mod naive;
mod pattern;
mod sequential;

pub use engine::BitSim;
pub use fault::{FaultOutcome, ObserveMasks, SiteFaultSim};
pub use monte_carlo::{MonteCarlo, PointEstimate, SequentialMonteCarlo, SiteEstimate};
pub use naive::NaiveMonteCarlo;
pub use pattern::{
    ExhaustivePatterns, PatternBlock, PatternSource, RandomPatterns, WeightedPatterns,
};
pub use sequential::SeqSim;
