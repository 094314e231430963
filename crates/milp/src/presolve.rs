//! Presolve reductions applied before branch-and-bound.
//!
//! Three passes run to fixpoint:
//!
//! 1. **Fixed-variable substitution** — variables with `lo == hi` are
//!    removed and folded into right-hand sides (this is also how the
//!    incremental-deployment variant of the paper gets cheap: installed
//!    devices enter as fixed `x_e = 1`).
//! 2. **Singleton rows** — a row with one variable is a bound; it is
//!    converted into a bound tightening (with integral rounding for
//!    integer variables) and dropped.
//! 3. **Redundant rows** — rows whose worst-case activity over the variable
//!    bounds already satisfies the comparison are dropped; rows whose
//!    best-case activity cannot reach it prove infeasibility.

use crate::model::{Cmp, Model};
use crate::{tol, Result, SolverError, FEAS_TOL};

/// Disposition of an original variable after presolve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarMap {
    /// Kept, at this index in the reduced model.
    Kept(usize),
    /// Fixed to a constant and removed.
    Fixed(f64),
}

/// A reduced model together with the mapping back to the original space.
#[derive(Debug, Clone)]
pub(crate) struct Presolved {
    pub model: Model,
    map: Vec<VarMap>,
}

impl Presolved {
    /// Expands reduced-space values to the original variable space.
    pub fn expand(&self, reduced: &[f64]) -> Vec<f64> {
        self.map
            .iter()
            .map(|m| match *m {
                VarMap::Kept(j) => reduced[j],
                VarMap::Fixed(v) => v,
            })
            .collect()
    }

    /// Projects original-space values down to the reduced space.
    pub fn reduce(&self, full: &[f64]) -> Vec<f64> {
        let kept = self
            .map
            .iter()
            .filter(|m| matches!(m, VarMap::Kept(_)))
            .count();
        let mut out = vec![0.0; kept];
        for (i, m) in self.map.iter().enumerate() {
            if let VarMap::Kept(j) = *m {
                out[j] = full[i];
            }
        }
        out
    }
}

/// Runs the reductions; errors with [`SolverError::Infeasible`] when a row
/// is proven unsatisfiable.
pub(crate) fn presolve(model: &Model) -> Result<Presolved> {
    let mut m = model.clone();
    // Working bounds (tightened in place) and fixation values.
    let mut fixed: Vec<Option<f64>> = vec![None; m.vars.len()];
    let mut live_rows: Vec<bool> = vec![true; m.constrs.len()];

    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 10 {
        changed = false;
        rounds += 1;

        // Pass 1: detect fixed variables (range below the scale-relative
        // fix epsilon counts as fixed).
        for (j, v) in m.vars.iter().enumerate() {
            if fixed[j].is_none() && (v.hi - v.lo).abs() <= tol::fix_eps(v.lo) {
                if v.integer && !tol::is_int(v.lo) {
                    return Err(SolverError::Infeasible);
                }
                fixed[j] = Some(v.lo);
                changed = true;
            }
        }

        // Fold fixations into rows via the model's column store: only the
        // rows that actually contain a fixed variable are touched (the
        // rows, right-hand sides, and per-column fingerprints all stay in
        // sync; a second fold of the same variable is a no-op because its
        // column is already empty).
        for (j, f) in fixed.iter().enumerate() {
            if let Some(val) = *f {
                changed |= m.fold_out_var(j, val);
            }
        }

        // Pass 2 & 3: singleton and redundant rows.
        for r in 0..m.constrs.len() {
            if !live_rows[r] {
                continue;
            }
            let (terms, cmp, rhs) = (
                m.constrs[r].terms.clone(),
                m.constrs[r].cmp,
                m.constrs[r].rhs,
            );

            if terms.is_empty() {
                let eps = FEAS_TOL * (1.0 + rhs.abs());
                let ok = match cmp {
                    Cmp::Le => 0.0 <= rhs + eps,
                    Cmp::Eq => rhs.abs() <= eps,
                    Cmp::Ge => 0.0 >= rhs - eps,
                };
                if !ok {
                    return Err(SolverError::Infeasible);
                }
                live_rows[r] = false;
                changed = true;
                continue;
            }

            if terms.len() == 1 {
                let (vj, a) = terms[0];
                let j = vj as usize;
                let var = &mut m.vars[j];
                // a * x  cmp  rhs  →  bound on x, direction flips with sign.
                let bound = rhs / a;
                match (cmp, a > 0.0) {
                    (Cmp::Le, true) | (Cmp::Ge, false) => {
                        let b = if var.integer {
                            (bound + tol::int_eps(bound)).floor()
                        } else {
                            bound
                        };
                        if b < var.hi {
                            var.hi = b;
                        }
                    }
                    (Cmp::Ge, true) | (Cmp::Le, false) => {
                        let b = if var.integer {
                            (bound - tol::int_eps(bound)).ceil()
                        } else {
                            bound
                        };
                        if b > var.lo {
                            var.lo = b;
                        }
                    }
                    (Cmp::Eq, _) => {
                        var.lo = var.lo.max(bound);
                        var.hi = var.hi.min(bound);
                    }
                }
                if var.lo > var.hi + tol::fix_eps(var.hi) {
                    return Err(SolverError::Infeasible);
                }
                live_rows[r] = false;
                changed = true;
                continue;
            }

            // Activity bounds.
            let mut min_act = 0.0f64;
            let mut max_act = 0.0f64;
            for &(v, a) in &terms {
                let var = &m.vars[v as usize];
                let (l, h) = (var.lo, var.hi);
                if a > 0.0 {
                    min_act += a * l;
                    max_act += a * h;
                } else {
                    min_act += a * h;
                    max_act += a * l;
                }
            }
            // Scale-relative row epsilon: grows with the rhs and with the
            // largest *finite* activity magnitude the row's bounds allow
            // (an unbounded activity must not produce an infinite epsilon,
            // which would mark every such row redundant).
            let amag = [min_act, max_act]
                .into_iter()
                .filter(|a| a.is_finite())
                .fold(0.0f64, |acc, a| acc.max(a.abs()));
            let eps = FEAS_TOL * (1.0 + rhs.abs() + amag);
            match cmp {
                Cmp::Le => {
                    if max_act <= rhs + eps {
                        live_rows[r] = false;
                        changed = true;
                    } else if min_act > rhs + eps {
                        return Err(SolverError::Infeasible);
                    }
                }
                Cmp::Ge => {
                    if min_act >= rhs - eps {
                        live_rows[r] = false;
                        changed = true;
                    } else if max_act < rhs - eps {
                        return Err(SolverError::Infeasible);
                    }
                }
                Cmp::Eq => {
                    if min_act > rhs + eps || max_act < rhs - eps {
                        return Err(SolverError::Infeasible);
                    }
                    // Equalities are only droppable when both sides pin it.
                    if (min_act - rhs).abs() <= eps && (max_act - rhs).abs() <= eps {
                        live_rows[r] = false;
                        changed = true;
                    }
                }
            }
        }
    }

    // Assemble the reduced model.
    let mut map = Vec::with_capacity(m.vars.len());
    let mut reduced = Model::new(m.sense);
    for (j, v) in m.vars.iter().enumerate() {
        match fixed[j] {
            Some(val) => map.push(VarMap::Fixed(val)),
            None => {
                let kind = if v.integer {
                    crate::VarKind::Integer
                } else {
                    crate::VarKind::Continuous
                };
                let id = reduced.add_var(v.name.clone(), kind, v.lo, v.hi, v.cost);
                map.push(VarMap::Kept(id.index()));
            }
        }
    }
    for (r, c) in m.constrs.iter().enumerate() {
        if !live_rows[r] {
            continue;
        }
        let terms: Vec<_> = c
            .terms
            .iter()
            .map(|&(v, a)| match map[v as usize] {
                VarMap::Kept(j) => (crate::VarId(j as u32), a),
                VarMap::Fixed(_) => unreachable!("fixed vars were folded out"),
            })
            .collect();
        reduced.add_constr(terms, c.cmp, c.rhs);
    }

    Ok(Presolved {
        model: reduced,
        map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense, VarKind};

    #[test]
    fn fixed_vars_are_folded() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 2.0, 2.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        let p = presolve(&m).unwrap();
        assert_eq!(p.model.var_count(), 1);
        // Row became y >= 3: a singleton, folded into y's bound.
        assert_eq!(p.model.constr_count(), 0);
        assert_eq!(p.model.vars[0].lo, 3.0);
        let expanded = p.expand(&[3.0]);
        assert_eq!(expanded, vec![2.0, 3.0]);
        assert_eq!(p.reduce(&[2.0, 3.0]), vec![3.0]);
    }

    #[test]
    fn singleton_row_tightens_integer_bound() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 2.0)], Cmp::Le, 5.0);
        let p = presolve(&m).unwrap();
        assert_eq!(p.model.constr_count(), 0);
        assert_eq!(p.model.vars[0].hi, 2.0); // floor(2.5)
    }

    #[test]
    fn redundant_row_dropped() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 5.0); // always true
        let p = presolve(&m).unwrap();
        assert_eq!(p.model.constr_count(), 0);
    }

    #[test]
    fn impossible_row_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 1.0);
        m.add_constr(vec![(x, 1.0)], Cmp::Ge, 3.0);
        assert_eq!(presolve(&m).unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn empty_row_consistency() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 1.0, 1.0, 1.0);
        // After substitution: 0 >= 2 - 1 -> infeasible.
        m.add_constr(vec![(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(presolve(&m).unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn fractional_fixed_integer_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", VarKind::Integer, 0.5, 0.5, 1.0);
        assert_eq!(presolve(&m).unwrap_err(), SolverError::Infeasible);
    }

    #[test]
    fn chained_fixations_cascade() {
        // x fixed -> row becomes singleton on y -> y gets fixed by Eq row.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 1.0, 1.0, 0.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, 0.0);
        let z = m.add_var("z", VarKind::Continuous, 0.0, 10.0, 1.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0); // y = 3
        m.add_constr(vec![(y, 1.0), (z, 1.0)], Cmp::Ge, 5.0); // z >= 2
        let p = presolve(&m).unwrap();
        assert_eq!(p.model.var_count(), 1); // only z remains
        assert_eq!(p.model.vars[0].lo, 2.0);
        let expanded = p.expand(&[2.0]);
        assert_eq!(expanded, vec![1.0, 3.0, 2.0]);
    }
}
