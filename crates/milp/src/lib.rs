//! A small, self-contained LP / mixed-integer-linear-programming solver.
//!
//! The CoNEXT 2005 paper solves its 0–1 programs with CPLEX ("To solve this
//! 0−1 MIP problem we use CPLEX solver", Section 4.4). No ILP solver is
//! available offline, so this crate implements the required machinery from
//! scratch:
//!
//! * [`Model`] — a builder for linear programs with per-variable bounds and
//!   integrality marks, linear constraints (`≤`, `=`, `≥`) and a
//!   minimization or maximization objective;
//! * a **bounded-variable revised primal simplex** over a size-dispatched
//!   basis backend ([`lu`]: Markowitz-ordered sparse LU with product-form
//!   eta updates and hyper-sparse FTRAN/BTRAN at scale, a dense explicit
//!   inverse below ~200 rows), devex pricing over a candidate list with a
//!   Bland anti-cycling fallback, and an artificial-variable phase 1
//!   ([`Model::solve_lp`]);
//! * a **branch-and-bound** driver for the integer variables with root
//!   cutting planes, reliability branching (pseudocost scores seeded by
//!   strong-branch probes, most-fractional tie-breaking), best-bound node
//!   selection with depth-first plunging in one serial search, bound
//!   rounding whenever the objective is integral, a rounding incumbent
//!   heuristic, and node and work limits ([`Model::solve_mip`]);
//!   every node LP, cut re-solve and strong-branch probe starts from its
//!   parent's basis, the tuning is fixed, and [`MipOptions`] holds only
//!   the limits and the gap;
//! * a light **presolve** (fixed-variable substitution, empty/redundant row
//!   elimination), always applied inside [`Model::solve_mip`].
//!
//! The solver targets the instance sizes of the paper and its scale-up
//! experiments (tens of binaries, thousands of continuous variables and
//! rows): the constraint matrix lives in a compressed sparse-column store
//! shared by presolve and both simplex variants, all linear algebra is
//! sparse, there is no `unsafe`, and every routine is unit-tested against
//! brute force (and the LU kernels against a dense inverse) on small
//! instances.
//!
//! # Example
//!
//! ```
//! use milp::{Model, Sense, Cmp, VarKind};
//!
//! // min x + y  s.t.  x + 2y >= 3,  3x + y >= 4,  x,y >= 0
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
//! let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
//! m.add_constr(vec![(x, 1.0), (y, 2.0)], milp::Cmp::Ge, 3.0);
//! m.add_constr(vec![(x, 3.0), (y, 1.0)], milp::Cmp::Ge, 4.0);
//! let sol = m.solve_lp().unwrap();
//! assert!((sol.objective - 2.0).abs() < 1e-6); // x = 1, y = 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod cuts;
mod error;
pub mod lu;
mod model;
mod presolve;
mod scaling;
mod simplex;
mod solution;
pub mod tol;

pub use branch_bound::{MipOptions, MipOutcome, MipWarmStart};
pub use error::SolverError;
pub use model::{Cmp, ConstrId, Model, Sense, VarId, VarKind};
pub use simplex::LpWarmStart;
pub use solution::{Solution, SolveStatus};

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SolverError>;

/// Feasibility tolerance at unit scale: a constraint is satisfied when
/// violated by less than this amount. Kept as a re-export of
/// [`tol::FEAS_REL`] for API compatibility; internal comparisons apply it
/// relative to the magnitude of the quantity compared (see [`tol`]).
pub const FEAS_TOL: f64 = tol::FEAS_REL;

/// Integrality tolerance at unit scale: a value within this distance of an
/// integer is considered integral by the branch-and-bound. Re-export of
/// [`tol::INT_REL`]; internal checks use the scale-relative
/// [`tol::is_int`].
pub const INT_TOL: f64 = tol::INT_REL;
