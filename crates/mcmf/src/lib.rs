//! The MECF flow relaxation for the CoNEXT 2005 reproduction.
//!
//! Section 4.3 of the paper models `PPM(k)` as a **Minimum Edge Cost Flow**
//! (MECF) on an auxiliary graph `S → w_e → w_t → T`, and observes that the
//! classical greedy heuristics are exactly minimum-cost-flow computations on
//! a linear relaxation of that graph. Every arc out of `S` and into a
//! traffic node is uncapacitated, so that min-cost flow has a closed form
//! and no general flow network is needed:
//!
//! * [`mecf`] — the relaxation under edge fixings (installed, forbidden,
//!   free): each traffic's cheapest allowed edge, then a fractional
//!   knapsack up to `k·V`, kept incrementally across fixings
//!   ([`mecf::FlowBound`]). The placement crate reads its root as the
//!   paper's **flow greedy** (`1/load(e)` costs, the formalization of
//!   "pick the most loaded link first") and its nodes as the bounds of
//!   the flow-bound branch-and-bound.
//!
//! All volumes are `f64` with explicit tolerances ([`FLOW_EPS`]) because
//! traffic volumes in the paper are real-valued bandwidths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mecf;

/// Flows below this magnitude are treated as zero.
pub const FLOW_EPS: f64 = 1e-9;
