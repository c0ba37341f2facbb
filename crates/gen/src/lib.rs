//! Benchmark-circuit substrate for the SER suite.
//!
//! The paper evaluates on the ISCAS'89 benchmarks — distribution-
//! restricted netlists this repository does not ship. This crate
//! provides everything the experiments need instead:
//!
//! - [`figure1`], [`c17`], [`s27`], [`xor_from_nands`] — exact embedded
//!   circuits (the paper's worked example and the tiny classics),
//! - [`TABLE2`]/[`profile`]/[`synthesize`]/[`iscas89_like`] —
//!   deterministic synthetic stand-ins matching each Table 2 circuit's
//!   published structural profile (EPP's cost and accuracy depend on
//!   source/sink counts, gate count, depth and fanout shape, which the
//!   profile pins),
//! - structured generators ([`ripple_carry_adder`], [`parity_tree`],
//!   [`mux_tree`], [`equality_comparator`]) with known functionality,
//! - sequential generators ([`shift_register`], [`counter`], [`lfsr`],
//!   [`accumulator`]),
//! - [`RandomDag`] — reconvergence-controlled random circuits for the
//!   accuracy ablations.
//!
//! # Examples
//!
//! ```
//! use ser_gen::{iscas89_like, TABLE2};
//!
//! let c = iscas89_like("s1238").unwrap();
//! assert_eq!(c.num_gates(), TABLE2[2].gates);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod known;
mod profiles;
mod random_dag;
mod sequential_gen;
mod structured;
mod synthetic;

pub use known::{c17, figure1, s27, xor_from_nands};
pub use profiles::{profile, Profile, SMALL, TABLE2};
pub use random_dag::RandomDag;
pub use sequential_gen::{accumulator, counter, lfsr, shift_register};
pub use structured::{equality_comparator, mux_tree, parity_tree, ripple_carry_adder};
pub use synthetic::{iscas89_like, synthesize};
