use crate::branch_bound::{self, MipOptions, MipOutcome, MipWarmStart};
use crate::simplex::LpWarmStart;
use crate::{simplex, Result, Solution, SolverError};

/// Identifier of a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

/// Identifier of a linear constraint in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstrId(pub(crate) u32);

impl VarId {
    /// Dense index of this variable, usable with [`Solution::values`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ConstrId {
    /// Dense index of this constraint.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

/// Continuity class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (branch-and-bound enforces this).
    Integer,
    /// Shorthand for an integer variable with bounds `[0, 1]` — the `x_e`
    /// and `y_i` placement variables of the paper.
    Binary,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: String,
    pub lo: f64,
    pub hi: f64,
    pub cost: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    /// Sparse row: (variable index, coefficient), deduplicated and sorted.
    pub terms: Vec<(u32, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// FNV-1a offset basis (shared by the per-column fingerprints and the
/// scaling fingerprints in [`crate::scaling`]).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Feeds one 8-byte word into an FNV-1a state.
pub(crate) fn fnv_step(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A linear program / mixed-integer linear program under construction.
///
/// Variables and constraints are added incrementally; [`Model::solve_lp`]
/// solves the continuous relaxation (ignoring integrality marks) and
/// [`Model::solve_mip`] enforces integrality with branch-and-bound.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constrs: Vec<Constraint>,
    /// Compressed sparse-column view of the constraint matrix: per
    /// structural variable, its `(row, coefficient)` entries with rows
    /// ascending. Maintained incrementally by [`Model::try_add_constr`] /
    /// [`Model::set_constr`] so presolve and both simplex variants share
    /// one column store instead of re-deriving it from the rows per solve.
    pub(crate) cols: Vec<Vec<(u32, f64)>>,
    /// Structural fingerprint per column (FNV-1a over the column's
    /// `(row, coefficient)` entries). [`Model::set_constr`] re-hashes only
    /// the columns it touched, and warm-start validity is judged on the
    /// fingerprints of the *basic* columns alone — an edit to a column
    /// outside the stored basis keeps the snapshot reusable.
    pub(crate) col_fp: Vec<u64>,
    /// Optional warm-start solution (values for all variables) used as the
    /// initial incumbent by branch-and-bound.
    pub(crate) initial: Option<Vec<f64>>,
}

impl Model {
    /// Creates an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            constrs: Vec::new(),
            cols: Vec::new(),
            col_fp: Vec::new(),
            initial: None,
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// `lo`/`hi` may be infinite for one-sided bounds. [`VarKind::Binary`]
    /// forces bounds `[0, 1]` regardless of the arguments.
    ///
    /// # Panics
    ///
    /// Panics on NaN data or `lo > hi`; use [`Model::try_add_var`] for a
    /// fallible variant.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lo: f64,
        hi: f64,
        cost: f64,
    ) -> VarId {
        self.try_add_var(name, kind, lo, hi, cost)
            .expect("invalid variable")
    }

    /// Fallible variant of [`Model::add_var`].
    pub fn try_add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lo: f64,
        hi: f64,
        cost: f64,
    ) -> Result<VarId> {
        let name = name.into();
        let (lo, hi) = match kind {
            VarKind::Binary => (0.0, 1.0),
            _ => (lo, hi),
        };
        if lo.is_nan() || hi.is_nan() || lo > hi || lo == f64::INFINITY || hi == f64::NEG_INFINITY {
            return Err(SolverError::InvalidBounds { name, lo, hi });
        }
        if !cost.is_finite() {
            return Err(SolverError::InvalidCoefficient {
                context: format!("objective coefficient of {name}"),
                value: cost,
            });
        }
        let integer = !matches!(kind, VarKind::Continuous);
        let id = VarId(self.vars.len() as u32);
        self.vars.push(Variable {
            name,
            lo,
            hi,
            cost,
            integer,
        });
        self.cols.push(Vec::new());
        self.col_fp.push(FNV_OFFSET);
        Ok(id)
    }

    /// Adds the linear constraint `Σ coeff·var  cmp  rhs` and returns its id.
    ///
    /// Repeated variables in `terms` are summed. Zero coefficients are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics on unknown variables or non-finite data; use
    /// [`Model::try_add_constr`] for a fallible variant.
    pub fn add_constr(&mut self, terms: Vec<(VarId, f64)>, cmp: Cmp, rhs: f64) -> ConstrId {
        self.try_add_constr(terms, cmp, rhs)
            .expect("invalid constraint")
    }

    /// Fallible variant of [`Model::add_constr`].
    pub fn try_add_constr(
        &mut self,
        terms: Vec<(VarId, f64)>,
        cmp: Cmp,
        rhs: f64,
    ) -> Result<ConstrId> {
        let row_idx = self.constrs.len();
        if !rhs.is_finite() {
            return Err(SolverError::InvalidCoefficient {
                context: format!("rhs of constraint {row_idx}"),
                value: rhs,
            });
        }
        let merged = self.normalize_terms(terms, row_idx)?;
        // Extend the column store: rows arrive in ascending order, so an
        // append keeps each column sorted, and the column fingerprint
        // extends its FNV chain without a re-hash.
        for &(v, a) in &merged {
            self.cols[v as usize].push((row_idx as u32, a));
            self.col_fp[v as usize] = fnv_step(
                fnv_step(self.col_fp[v as usize], row_idx as u64),
                a.to_bits(),
            );
        }
        let id = ConstrId(row_idx as u32);
        self.constrs.push(Constraint {
            terms: merged,
            cmp,
            rhs,
        });
        Ok(id)
    }

    /// Validates, sorts, merges, and zero-prunes a raw term list for row
    /// `row_idx` (shared by [`Model::try_add_constr`] and
    /// [`Model::try_set_constr`]).
    fn normalize_terms(&self, terms: Vec<(VarId, f64)>, row_idx: usize) -> Result<Vec<(u32, f64)>> {
        let mut dense: Vec<(u32, f64)> = Vec::with_capacity(terms.len());
        for (v, a) in terms {
            if v.index() >= self.vars.len() {
                return Err(SolverError::InvalidVar {
                    var: v.index(),
                    var_count: self.vars.len(),
                });
            }
            if !a.is_finite() {
                return Err(SolverError::InvalidCoefficient {
                    context: format!(
                        "constraint {row_idx}, variable {}",
                        self.vars[v.index()].name
                    ),
                    value: a,
                });
            }
            dense.push((v.0, a));
        }
        dense.sort_by_key(|&(v, _)| v);
        // Merge duplicates, drop exact zeros.
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(dense.len());
        for (v, a) in dense {
            match merged.last_mut() {
                Some((lv, la)) if *lv == v => *la += a,
                _ => merged.push((v, a)),
            }
        }
        merged.retain(|&(_, a)| a != 0.0);
        Ok(merged)
    }

    /// Overwrites the coefficients of constraint `c` (comparison and
    /// right-hand side are kept; use [`Model::set_rhs`] for the latter).
    ///
    /// Only the columns named by the old or new term list are re-hashed,
    /// so a warm start whose basis avoids those columns stays valid (see
    /// [`crate::LpWarmStart`]).
    ///
    /// # Panics
    ///
    /// Panics on unknown variables or non-finite coefficients; use
    /// [`Model::try_set_constr`] for a fallible variant.
    pub fn set_constr(&mut self, c: ConstrId, terms: Vec<(VarId, f64)>) {
        self.try_set_constr(c, terms).expect("invalid constraint");
    }

    /// Fallible variant of [`Model::set_constr`].
    pub fn try_set_constr(&mut self, c: ConstrId, terms: Vec<(VarId, f64)>) -> Result<()> {
        let row = c.index();
        if row >= self.constrs.len() {
            return Err(SolverError::InvalidConstr {
                constr: row,
                constr_count: self.constrs.len(),
            });
        }
        let merged = self.normalize_terms(terms, row)?;
        let old = std::mem::replace(&mut self.constrs[row].terms, merged.clone());
        // Touched columns: union of the old and new support.
        let mut touched: Vec<u32> = old.iter().chain(&merged).map(|&(v, _)| v).collect();
        touched.sort_unstable();
        touched.dedup();
        for &v in &touched {
            let col = &mut self.cols[v as usize];
            // Drop the old entry for this row (columns are row-sorted).
            if let Ok(i) = col.binary_search_by_key(&(row as u32), |e| e.0) {
                col.remove(i);
            }
            // Insert the new entry, keeping the sort.
            if let Ok(i) = merged.binary_search_by_key(&v, |e| e.0) {
                let a = merged[i].1;
                let at = col.partition_point(|e| e.0 < row as u32);
                col.insert(at, (row as u32, a));
            }
            // Re-hash only this column.
            let mut h = FNV_OFFSET;
            for &(r, a) in self.cols[v as usize].iter() {
                h = fnv_step(fnv_step(h, r as u64), a.to_bits());
            }
            self.col_fp[v as usize] = h;
        }
        Ok(())
    }

    /// Folds fixed variable `j` (value `val`) out of every row containing
    /// it, shifting right-hand sides. Uses the column store to touch only
    /// the rows that actually hold `j` — the presolve fast path. Returns
    /// whether any row changed.
    pub(crate) fn fold_out_var(&mut self, j: usize, val: f64) -> bool {
        let entries = std::mem::take(&mut self.cols[j]);
        if entries.is_empty() {
            return false;
        }
        for &(row, a) in &entries {
            let c = &mut self.constrs[row as usize];
            c.rhs -= a * val;
            if let Ok(i) = c.terms.binary_search_by_key(&(j as u32), |t| t.0) {
                c.terms.remove(i);
            }
        }
        self.col_fp[j] = FNV_OFFSET;
        true
    }

    /// Combined structural fingerprint of the columns in `basic`
    /// (structural columns only — slack columns are fully determined by
    /// their row's comparison operator, which a warm-start rebuild re-reads
    /// from the model). Order-independent, so it can be compared against a
    /// snapshot taken from the same basic set.
    pub(crate) fn basis_fingerprint(&self, basic: &[u32]) -> u64 {
        let n = self.vars.len();
        let mut h = 0u64;
        for &c in basic {
            if (c as usize) < n {
                h = h.wrapping_add(fnv_step(
                    fnv_step(FNV_OFFSET, c as u64),
                    self.col_fp[c as usize],
                ));
            }
        }
        h
    }

    /// Overwrites the objective coefficient of `v`.
    pub fn set_cost(&mut self, v: VarId, cost: f64) {
        self.vars[v.index()].cost = cost;
    }

    /// Tightens/overwrites the bounds of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn set_bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        assert!(
            !lo.is_nan() && !hi.is_nan() && lo <= hi,
            "invalid bounds [{lo}, {hi}]"
        );
        let var = &mut self.vars[v.index()];
        var.lo = lo;
        var.hi = hi;
    }

    /// Fixes `v` to `value` (used for the incremental-deployment variant of
    /// the paper, where already-installed devices have `x_e = 1`).
    pub fn fix_var(&mut self, v: VarId, value: f64) {
        self.set_bounds(v, value, value);
    }

    /// Overwrites the right-hand side of constraint `c` — the perturbation
    /// behind warm-started sweep chains (e.g. the coverage target of the
    /// paper's `PPM(k)` program moving along a `k` grid).
    ///
    /// # Panics
    ///
    /// Panics when `rhs` is not finite.
    pub fn set_rhs(&mut self, c: ConstrId, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite, got {rhs}");
        self.constrs[c.index()].rhs = rhs;
    }

    /// Supplies a warm-start solution used as the initial incumbent by
    /// [`Model::solve_mip`] (it is validated for feasibility first, and
    /// ignored when infeasible).
    pub fn set_initial_solution(&mut self, values: Vec<f64>) {
        self.initial = Some(values);
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constr_count(&self) -> usize {
        self.constrs.len()
    }

    /// The [`VarId`] at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn var(&self, i: usize) -> VarId {
        assert!(i < self.vars.len(), "variable index {i} out of range");
        VarId(i as u32)
    }

    /// The [`ConstrId`] at dense index `i` (insertion order).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn constr(&self, i: usize) -> ConstrId {
        assert!(i < self.constrs.len(), "constraint index {i} out of range");
        ConstrId(i as u32)
    }

    /// Evaluates the objective of an assignment (in the model's sense).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.vars.iter().zip(values).map(|(v, &x)| v.cost * x).sum()
    }

    /// Checks an assignment against bounds and constraints with *relative*
    /// tolerance `tol`: a bound may be exceeded by `tol · (1 + |bound|)`
    /// and a row by `tol · (1 + |rhs| + Σ|aᵢⱼ·xⱼ|)` — the same
    /// scale-relative contract the solver itself certifies against (see
    /// [`crate::tol`]), so a solution accepted at unit scale stays
    /// accepted under an exact power-of-two rescaling of the model.
    /// Returns a description of the first violation found.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> std::result::Result<(), String> {
        if values.len() != self.vars.len() {
            return Err(format!(
                "expected {} values, got {}",
                self.vars.len(),
                values.len()
            ));
        }
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            let eps = |b: f64| {
                if b.is_finite() {
                    tol * (1.0 + b.abs())
                } else {
                    tol
                }
            };
            if x < v.lo - eps(v.lo) || x > v.hi + eps(v.hi) {
                return Err(format!(
                    "variable {} = {x} outside [{}, {}]",
                    v.name, v.lo, v.hi
                ));
            }
            if v.integer && !crate::tol::is_int(x) {
                return Err(format!("variable {} = {x} not integral", v.name));
            }
        }
        for (r, c) in self.constrs.iter().enumerate() {
            let mut lhs = 0.0f64;
            let mut mag = 0.0f64;
            for &(v, a) in &c.terms {
                let t = a * values[v as usize];
                lhs += t;
                mag += t.abs();
            }
            let eps = tol * (1.0 + c.rhs.abs() + mag);
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + eps,
                Cmp::Eq => (lhs - c.rhs).abs() <= eps,
                Cmp::Ge => lhs >= c.rhs - eps,
            };
            if !ok {
                return Err(format!("constraint {r}: lhs = {lhs} vs rhs = {}", c.rhs));
            }
        }
        Ok(())
    }

    /// Builds an *equivalent* model under a power-of-two change of
    /// variables and row scaling: variable `j` is substituted by
    /// `x_j = 2^col_pow[j] · y_j` and row `i` multiplied by
    /// `2^row_pow[i]`. Powers of two are exact in binary floating point,
    /// so the rescaled model has exactly the same optimal objective and
    /// feasibility status as `self` — it only *looks* badly scaled.
    ///
    /// Integer/binary variables keep scale 1 regardless of `col_pow`
    /// (integrality is not preserved under non-unit substitution). An
    /// initial solution is transformed along. This is the generator behind
    /// the ill-conditioning differential tests.
    ///
    /// # Panics
    ///
    /// Panics when `row_pow`/`col_pow` do not match the constraint /
    /// variable counts.
    pub fn equivalently_rescaled(&self, row_pow: &[i32], col_pow: &[i32]) -> Model {
        assert_eq!(row_pow.len(), self.constrs.len(), "row_pow length");
        assert_eq!(col_pow.len(), self.vars.len(), "col_pow length");
        let s: Vec<f64> = self
            .vars
            .iter()
            .zip(col_pow)
            .map(|(v, &p)| if v.integer { 1.0 } else { (p as f64).exp2() })
            .collect();
        let mut out = Model::new(self.sense);
        for (j, v) in self.vars.iter().enumerate() {
            let kind = if v.integer {
                VarKind::Integer
            } else {
                VarKind::Continuous
            };
            out.add_var(
                v.name.clone(),
                kind,
                v.lo / s[j],
                v.hi / s[j],
                v.cost * s[j],
            );
        }
        for (i, c) in self.constrs.iter().enumerate() {
            let t = (row_pow[i] as f64).exp2();
            let terms: Vec<(VarId, f64)> = c
                .terms
                .iter()
                .map(|&(v, a)| (VarId(v), a * t * s[v as usize]))
                .collect();
            out.add_constr(terms, c.cmp, c.rhs * t);
        }
        if let Some(init) = &self.initial {
            out.initial = Some(init.iter().zip(&s).map(|(&x, &sj)| x / sj).collect());
        }
        out
    }

    /// Solves the continuous relaxation (integrality marks ignored).
    pub fn solve_lp(&self) -> Result<Solution> {
        simplex::solve(self, None, None, &mut 0).map(|(s, _)| s)
    }

    /// Solves the continuous relaxation, optionally warm-starting from the
    /// basis of a previous solve of the *same-structured* model (see
    /// [`LpWarmStart`] for the contract), and returns the solution plus a
    /// basis snapshot for the next re-solve.
    ///
    /// With `None` (or a shape-incompatible snapshot) this is a cold
    /// solve, bitwise equal to [`Model::solve_lp`]. After bound or
    /// right-hand-side perturbations the warm path re-optimizes with the
    /// dual simplex — typically a handful of pivots instead of a full
    /// two-phase solve.
    pub fn solve_lp_warm(
        &self,
        warm: Option<&LpWarmStart>,
    ) -> Result<(Solution, Option<LpWarmStart>)> {
        simplex::solve(self, warm, None, &mut 0)
    }

    /// Solves the mixed-integer program by branch and bound.
    ///
    /// `warm` seeds the root LP from the root basis of a previous solve of
    /// a perturbed sibling model, and the returned [`MipWarmStart`] carries
    /// this solve's root basis to the next link of the chain. A `k`-grid
    /// of `PPM(k)` programs differs only in one right-hand side, so each
    /// point's root relaxation starts from the previous point's optimal
    /// basis. Within one call, every branch-and-bound node re-solves from
    /// its parent's basis, and strong-branch probes from their node's.
    ///
    /// The outcome follows the anytime contract: when
    /// [`MipOptions::work_budget`] trips mid-search this returns
    /// [`MipOutcome::Interrupted`] carrying the best incumbent found and
    /// the sharpest dual bound proven, instead of an error. With no budget
    /// (or a budget at least as large as the uninterrupted solve's
    /// [`Solution::work`]) the result is [`MipOutcome::Complete`].
    /// [`MipOutcome::into_solution`] unwraps an unbudgeted outcome.
    pub fn solve_mip(
        &self,
        opts: &MipOptions,
        warm: Option<&MipWarmStart>,
    ) -> Result<(MipOutcome, Option<MipWarmStart>)> {
        branch_bound::solve(self, opts, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_kind_forces_unit_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, -5.0, 5.0, 1.0);
        assert_eq!(m.vars[x.index()].lo, 0.0);
        assert_eq!(m.vars[x.index()].hi, 1.0);
        assert!(m.vars[x.index()].integer);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        let c = m.add_constr(vec![(x, 1.0), (x, 2.0), (x, -3.0)], Cmp::Le, 1.0);
        assert!(m.constrs[c.index()].terms.is_empty()); // 1 + 2 - 3 = 0 dropped
    }

    #[test]
    fn rejects_bad_bounds() {
        let mut m = Model::new(Sense::Minimize);
        assert!(m
            .try_add_var("x", VarKind::Continuous, 2.0, 1.0, 0.0)
            .is_err());
        assert!(m
            .try_add_var("x", VarKind::Continuous, f64::NAN, 1.0, 0.0)
            .is_err());
        assert!(m
            .try_add_var("x", VarKind::Continuous, f64::INFINITY, f64::INFINITY, 0.0)
            .is_err());
    }

    #[test]
    fn try_set_constr_rejects_foreign_constr_id() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        m.add_constr(vec![(x, 1.0)], Cmp::Le, 1.0);
        let ghost = ConstrId(7);
        assert!(matches!(
            m.try_set_constr(ghost, vec![(x, 2.0)]),
            Err(SolverError::InvalidConstr {
                constr: 7,
                constr_count: 1
            })
        ));
    }

    #[test]
    fn rejects_unknown_var_in_constraint() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        let ghost = VarId(9);
        assert!(m.try_add_constr(vec![(ghost, 1.0)], Cmp::Le, 1.0).is_err());
    }

    #[test]
    fn rejects_nan_coefficient() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        assert!(m.try_add_constr(vec![(x, f64::NAN)], Cmp::Le, 1.0).is_err());
        assert!(m
            .try_add_constr(vec![(x, 1.0)], Cmp::Le, f64::INFINITY)
            .is_err());
    }

    #[test]
    fn feasibility_checker_reports_violations() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Binary, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x, 1.0)], Cmp::Ge, 1.0);
        assert!(m.check_feasible(&[1.0], 1e-9).is_ok());
        assert!(m.check_feasible(&[0.0], 1e-9).is_err()); // constraint violated
        assert!(m.check_feasible(&[0.5], 1e-9).is_err()); // not integral
        assert!(m.check_feasible(&[2.0], 1e-9).is_err()); // out of bounds
        assert!(m.check_feasible(&[], 1e-9).is_err()); // wrong arity
    }

    #[test]
    fn objective_value_respects_costs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0, -1.0);
        let _ = (x, y);
        assert_eq!(m.objective_value(&[1.0, 1.0]), 1.0);
    }
}
