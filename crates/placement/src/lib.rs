//! Monitor-placement algorithms from *Optimal Positioning of Active and
//! Passive Monitoring Devices* (Chaudet, Fleury, Guérin Lassous, Rivano,
//! Voge — CoNEXT 2005).
//!
//! This crate is the paper's contribution proper, built on the substrates
//! of the workspace (`netgraph`, `milp`, `mcmf`, `popgen`):
//!
//! * [`instance`] — the combinatorial monitoring instance (`PPM(k)`,
//!   Section 4.1) and its preprocessing (identical-support merging);
//! * [`setcover`] — the Minimum (Partial) Set Cover kernel with the greedy
//!   algorithm and its Slavík approximation bound (Section 4.2);
//! * [`reduction`] — both directions of Theorem 1 (`MSC ≡ PPM(1)`),
//!   constructing actual graphs and traffic sets;
//! * [`passive`] — `PPM(k)` solvers: the paper's decreasing-load greedy,
//!   the adaptive (set-cover) greedy, the flow greedy on the MECF
//!   relaxation, the flow-bound branch-and-bound, the LP 1 arc-path MIP
//!   for cross-validation and brute force for tests; the exact LP 2 MIP
//!   and its incremental / budget-constrained variants (Sections 4.3–4.4)
//!   run through [`solve`];
//! * [`sampling`] — `PPME(h, k)` with setup and exploitation costs and
//!   multi-routed traffics (Section 5, Linear Program 3);
//! * [`dynamic`] — `PPME*(x, h, k)` rate re-optimization (an LP) plus the
//!   threshold controller of Section 5.4;
//! * [`active`] — probe-set computation and beacon placement: the baseline
//!   of Nguyen–Thiran \[15\], the improved greedy, and the exact ILP
//!   (Section 6);
//! * [`cascade`] — Section 7's first future-work item: the refined
//!   independent-sampling model where rates on a path combine as
//!   `1 − Π(1 − r_e)` instead of adding;
//! * [`campaign`] — Section 7's third future-work item: measurement
//!   campaigns that re-route traffic over alternative paths to maximize
//!   the monitored ratio for a fixed deployment;
//! * [`delta`] — sweep grids as chains of deltas: one mutable instance
//!   whose exact solves are warm-started point to point (LP basis reuse)
//!   and whose link failures re-route only the crossing traffics;
//! * [`solve`] — the unified solve API: one typed [`SolveRequest`] →
//!   [`SolveOutcome`] pair, the only public way to run an exact LP 2 or
//!   budget solve, shared by the batch, delta-chain, and service entry
//!   points;
//! * [`resilience`] — Monte-Carlo resilience campaigns: a fixed placement
//!   scored over a sampled failure ensemble through one warm delta chain,
//!   plus the stochastic-aware greedy on expected coverage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod campaign;
pub mod cascade;
pub mod delta;
pub mod dynamic;
pub mod instance;
pub mod passive;
pub mod reduction;
pub mod resilience;
pub mod sampling;
pub mod setcover;
pub mod solve;

pub use delta::DeltaInstance;
pub use instance::PpmInstance;
pub use passive::PpmSolution;
pub use resilience::{EnsembleScore, ScenarioScore};
pub use solve::{
    ApmSolution, DegradeReason, Objective, PlacementError, SolveMethod, SolveOutcome, SolveRequest,
};
