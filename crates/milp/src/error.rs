use std::fmt;

/// Errors reported by model construction and the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A variable id did not belong to the model it was used with.
    InvalidVar {
        /// The offending variable index.
        var: usize,
        /// Number of variables in the model.
        var_count: usize,
    },
    /// A constraint id did not belong to the model it was used with.
    InvalidConstr {
        /// The offending constraint index.
        constr: usize,
        /// Number of constraints in the model.
        constr_count: usize,
    },
    /// A variable was declared with `lo > hi` or non-finite/NaN data.
    InvalidBounds {
        /// Variable name.
        name: String,
        /// Declared lower bound.
        lo: f64,
        /// Declared upper bound.
        hi: f64,
    },
    /// A coefficient or right-hand side was NaN or infinite.
    InvalidCoefficient {
        /// Human-readable location of the coefficient.
        context: String,
        /// The offending value.
        value: f64,
    },
    /// The problem has no feasible solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The simplex exceeded its iteration budget (numerical trouble or a
    /// genuinely enormous instance).
    IterationLimit {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// Branch-and-bound stopped at a limit without proving optimality and
    /// without any incumbent. (When an incumbent exists the solver returns
    /// it with [`crate::SolveStatus::Feasible`] instead.)
    NodeLimitNoSolution {
        /// Nodes explored before giving up.
        nodes: usize,
    },
    /// A cooperative work budget (see [`crate::MipOptions::work_budget`])
    /// was exhausted mid-solve. [`crate::Model::solve_mip`] intercepts it
    /// and returns [`crate::MipOutcome::Interrupted`] carrying the best
    /// incumbent and dual bound instead; callers see this variant only
    /// from [`crate::MipOutcome::into_solution`].
    Interrupted {
        /// Deterministic work units (simplex iterations + refactorizations
        /// + branch-and-bound nodes) spent before the budget tripped.
        work_spent: u64,
    },
    /// The accuracy monitor could not certify the final solution: the
    /// relative primal residual stayed above the certification threshold
    /// even after refactorization and Markowitz-tolerance tightening.
    /// Returned instead of a silently wrong answer.
    Numerical {
        /// The measured relative primal residual.
        residual: f64,
        /// The certification threshold it failed to meet.
        tolerance: f64,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::InvalidVar { var, var_count } => {
                write!(
                    f,
                    "variable index {var} out of range (model has {var_count} variables)"
                )
            }
            SolverError::InvalidConstr {
                constr,
                constr_count,
            } => {
                write!(
                    f,
                    "constraint index {constr} out of range (model has {constr_count} constraints)"
                )
            }
            SolverError::InvalidBounds { name, lo, hi } => {
                write!(f, "invalid bounds [{lo}, {hi}] on variable {name}")
            }
            SolverError::InvalidCoefficient { context, value } => {
                write!(f, "invalid coefficient {value} in {context}")
            }
            SolverError::Infeasible => write!(f, "problem is infeasible"),
            SolverError::Unbounded => write!(f, "objective is unbounded"),
            SolverError::IterationLimit { iterations } => {
                write!(
                    f,
                    "simplex iteration limit reached after {iterations} iterations"
                )
            }
            SolverError::NodeLimitNoSolution { nodes } => {
                write!(
                    f,
                    "node limit reached after {nodes} nodes with no feasible solution found"
                )
            }
            SolverError::Interrupted { work_spent } => {
                write!(f, "work budget exhausted after {work_spent} work units")
            }
            SolverError::Numerical {
                residual,
                tolerance,
            } => {
                write!(
                    f,
                    "solution could not be certified: relative residual {residual:.3e} \
                     exceeds tolerance {tolerance:.3e}"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {}
