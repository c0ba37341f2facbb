//! Gate-level netlist IR and structural algorithms.
//!
//! This crate is the substrate every other crate in the suite builds on:
//! a compact arena-based circuit representation
//! ([`Circuit`]/[`Node`]/[`NodeId`]), an ISCAS `.bench` parser and
//! writer, and the structural algorithms the paper's EPP computation
//! needs — topological ordering, levelization and fanout-cone
//! extraction.
//!
//! # Examples
//!
//! Parse a netlist, inspect it, extract the fanout cone of a node:
//!
//! ```
//! use ser_netlist::{parse_bench, FanoutCone};
//!
//! let src = "
//! INPUT(a)
//! INPUT(b)
//! OUTPUT(y)
//! u = NAND(a, b)
//! v = NAND(a, u)
//! w = NAND(b, u)
//! y = NAND(v, w)
//! ";
//! let c = parse_bench(src, "half-xor")?;
//! assert_eq!(c.num_gates(), 4);
//!
//! // The cone of `u` reaches the single output through v and w.
//! let u = c.find("u").unwrap();
//! let cone = FanoutCone::extract(&c, u);
//! assert_eq!(cone.on_path().len(), 4); // u, v, w, y
//! assert_eq!(cone.observe_points().len(), 1);
//! # Ok::<(), ser_netlist::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod artifacts;
mod builder;
mod cancel;
mod circuit;
mod cone;
mod error;
mod gate;
mod parse;
mod plan;
mod stats;
mod topo;
mod transform;
mod verilog;
mod write;

pub use artifacts::TopoArtifacts;
pub use builder::CircuitBuilder;
pub use cancel::{CancelCause, CancelToken};
pub use circuit::{Circuit, Node, NodeId, ObservePoint};
pub use cone::{fanin_mask, FanoutCone};
pub use error::{NetlistError, ParseError};
pub use gate::{GateKind, ParseGateKindError};
pub use parse::parse_bench;
pub use plan::{ConePlan, ConePlans, FaninRef, PlanMembers, SetBits, SitePlan, TailView};
pub use stats::CircuitStats;
pub use topo::{depth, is_topo_order, levelize, topo_order};
pub use transform::{harden_tmr, swap_kind};
pub use verilog::{parse_verilog, write_verilog};
pub use write::write_bench;
