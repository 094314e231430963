//! Flow algorithms for the CoNEXT 2005 reproduction.
//!
//! Section 4.3 of the paper models `PPM(k)` as a **Minimum Edge Cost Flow**
//! (MECF) on an auxiliary graph `S → w_e → w_t → T`, and observes that the
//! classical greedy heuristics are exactly minimum-cost-flow computations on
//! a linear relaxation of that graph; Section 5.4 solves the dynamic
//! re-optimization `PPME*(x, h, k)` as a plain min-cost flow. This crate
//! provides the machinery:
//!
//! * [`FlowNetwork`] — a directed flow network with `f64` capacities and
//!   per-unit costs, stored in the usual paired-residual-arc form;
//! * [`mincost`] — successive shortest paths with node potentials
//!   (Bellman–Ford bootstrap, Dijkstra with reduced costs afterwards);
//! * [`mecf`] — construction of the paper's auxiliary graph from edge
//!   indices and weighted traffic edge lists, with caller-chosen
//!   `(S, w_e)` costs; the placement crate runs the **flow greedy**
//!   (min-cost flow with `1/load(e)` costs, the paper's formalization of
//!   "pick the most loaded link first") on it.
//!
//! All capacities/costs are `f64` with explicit tolerances ([`FLOW_EPS`])
//! because traffic volumes in the paper are real-valued bandwidths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mecf;
pub mod mincost;
mod network;

pub use network::{ArcId, FlowNetwork, NodeRef};

/// Flows below this magnitude are treated as zero.
pub const FLOW_EPS: f64 = 1e-9;
