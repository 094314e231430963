//! Integration stress tests for the milp crate: classical problem families
//! with independently computable optima.

use milp::{Cmp, MipOptions, Model, Sense, Solution, SolveStatus, VarKind};

/// A default-options solve's solution.
fn mip(m: &Model) -> milp::Result<Solution> {
    m.solve_mip(&MipOptions::default(), None)
        .and_then(|(out, _)| out.into_solution())
}

/// Assignment problem: n×n cost matrix, MIP vs brute-force permutations.
fn solve_assignment(costs: &[Vec<f64>]) -> (f64, f64) {
    let n = costs.len();
    let mut m = Model::new(Sense::Minimize);
    let mut xs = vec![vec![]; n];
    for i in 0..n {
        for j in 0..n {
            xs[i].push(m.add_var(format!("x{i}_{j}"), VarKind::Binary, 0.0, 1.0, costs[i][j]));
        }
    }
    for i in 0..n {
        let row: Vec<_> = (0..n).map(|j| (xs[i][j], 1.0)).collect();
        m.add_constr(row, Cmp::Eq, 1.0);
        let col: Vec<_> = (0..n).map(|j| (xs[j][i], 1.0)).collect();
        m.add_constr(col, Cmp::Eq, 1.0);
    }
    let sol = mip(&m).expect("assignment always feasible");
    assert_eq!(sol.status, SolveStatus::Optimal);
    m.check_feasible(&sol.values, 1e-6)
        .expect("solution must validate");

    // Brute force over permutations.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best = f64::INFINITY;
    permute(&mut perm, 0, &mut |p| {
        let c: f64 = p.iter().enumerate().map(|(i, &j)| costs[i][j]).sum();
        if c < best {
            best = c;
        }
    });
    (sol.objective, best)
}

fn permute(p: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == p.len() {
        f(p);
        return;
    }
    for i in k..p.len() {
        p.swap(k, i);
        permute(p, k + 1, f);
        p.swap(k, i);
    }
}

#[test]
fn assignment_matches_brute_force() {
    // Deterministic pseudo-random 6x6 matrix.
    let n = 6;
    let costs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| ((i * 7 + j * 13) % 17) as f64 + 1.0)
                .collect()
        })
        .collect();
    let (mip, brute) = solve_assignment(&costs);
    assert!((mip - brute).abs() < 1e-6, "mip {mip} vs brute {brute}");
}

#[test]
fn assignment_with_ties() {
    let n = 5;
    let costs: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| ((i + j) % 3) as f64).collect())
        .collect();
    let (mip, brute) = solve_assignment(&costs);
    assert!((mip - brute).abs() < 1e-6);
}

/// Balanced transportation problem with integral supplies/demands: the LP
/// optimum is integral (total unimodularity) and verifiable by hand on a
/// 2×3 instance.
#[test]
fn transportation_lp_is_integral_and_optimal() {
    // Supplies: [20, 30]; demands: [10, 25, 15].
    // Costs:  s0: [8, 6, 10], s1: [9, 12, 13].
    let mut m = Model::new(Sense::Minimize);
    let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
    let supplies = [20.0, 30.0];
    let demands = [10.0, 25.0, 15.0];
    let mut x = vec![vec![]; 2];
    for i in 0..2 {
        for j in 0..3 {
            x[i].push(m.add_var(
                format!("x{i}{j}"),
                VarKind::Continuous,
                0.0,
                f64::INFINITY,
                costs[i][j],
            ));
        }
    }
    for i in 0..2 {
        let row: Vec<_> = (0..3).map(|j| (x[i][j], 1.0)).collect();
        m.add_constr(row, Cmp::Le, supplies[i]);
    }
    for j in 0..3 {
        let col: Vec<_> = (0..2).map(|i| (x[i][j], 1.0)).collect();
        m.add_constr(col, Cmp::Ge, demands[j]);
    }
    let sol = m.solve_lp().unwrap();
    m.check_feasible(&sol.values, 1e-6).unwrap();
    // Hand-computed optimum: send s0 -> d1 20 (cost 6); s1 -> d0 10 (9),
    // s1 -> d1 5 (12), s1 -> d2 15 (13) = 120 + 90 + 60 + 195 = 465.
    assert!(
        (sol.objective - 465.0).abs() < 1e-6,
        "obj = {}",
        sol.objective
    );
    // Integral by unimodularity.
    for v in &sol.values {
        assert!((v - v.round()).abs() < 1e-6);
    }
}

/// A chain of big-M-free implications: y_i >= y_{i+1} with a budget —
/// stresses bound propagation through presolve and the B&B.
#[test]
fn monotone_chain_with_budget() {
    let n = 12;
    let mut m = Model::new(Sense::Maximize);
    let ys: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("y{i}"), VarKind::Binary, 0.0, 1.0, (n - i) as f64))
        .collect();
    for w in ys.windows(2) {
        m.add_constr(vec![(w[0], 1.0), (w[1], -1.0)], Cmp::Ge, 0.0);
    }
    let all: Vec<_> = ys.iter().map(|&y| (y, 1.0)).collect();
    m.add_constr(all, Cmp::Le, 5.0);
    let sol = mip(&m).unwrap();
    // Monotone + budget 5 -> take the first five: 12+11+10+9+8 = 50.
    assert!(
        (sol.objective - 50.0).abs() < 1e-6,
        "obj = {}",
        sol.objective
    );
    for (i, &y) in ys.iter().enumerate() {
        let expect = if i < 5 { 1.0 } else { 0.0 };
        assert!((sol.value(y) - expect).abs() < 1e-6, "y{i}");
    }
}

/// Fractional knapsack LP against the exact greedy closed form.
#[test]
fn fractional_knapsack_closed_form() {
    let values = [60.0, 100.0, 120.0];
    let weights = [10.0, 20.0, 30.0];
    let cap = 50.0;
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (0..3)
        .map(|i| m.add_var(format!("x{i}"), VarKind::Continuous, 0.0, 1.0, values[i]))
        .collect();
    let terms: Vec<_> = xs.iter().zip(&weights).map(|(&x, &w)| (x, w)).collect();
    m.add_constr(terms, Cmp::Le, cap);
    let sol = m.solve_lp().unwrap();
    // Greedy by density: item0 (6/kg), item1 (5/kg), then 2/3 of item2:
    // 60 + 100 + 80 = 240.
    assert!((sol.objective - 240.0).abs() < 1e-6);
}

/// 0/1 knapsack against dynamic programming.
#[test]
fn knapsack_01_matches_dp() {
    let values = [10.0, 40.0, 30.0, 50.0, 35.0, 25.0, 5.0];
    let weights = [5.0, 4.0, 6.0, 3.0, 2.0, 7.0, 1.0];
    let cap = 10usize;
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (0..values.len())
        .map(|i| m.add_var(format!("x{i}"), VarKind::Binary, 0.0, 1.0, values[i]))
        .collect();
    let terms: Vec<_> = xs.iter().zip(&weights).map(|(&x, &w)| (x, w)).collect();
    m.add_constr(terms, Cmp::Le, cap as f64);
    let sol = mip(&m).unwrap();

    // Integer-weight DP.
    let mut dp = vec![0.0f64; cap + 1];
    for i in 0..values.len() {
        let w = weights[i] as usize;
        for c in (w..=cap).rev() {
            dp[c] = dp[c].max(dp[c - w] + values[i]);
        }
    }
    assert!(
        (sol.objective - dp[cap]).abs() < 1e-6,
        "mip {} vs dp {}",
        sol.objective,
        dp[cap]
    );
}

/// Infeasible system detected through either presolve or phase 1.
#[test]
fn infeasible_chain() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, 1.0);
    m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 15.0);
    m.add_constr(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
    assert!(matches!(m.solve_lp(), Err(milp::SolverError::Infeasible)));
    assert!(matches!(mip(&m), Err(milp::SolverError::Infeasible)));
}

/// Degenerate LP with many redundant constraints still terminates and is
/// correct (anti-cycling safeguard).
#[test]
fn degenerate_pyramid() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
    let y = m.add_var("y", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
    let z = m.add_var("z", VarKind::Continuous, 0.0, f64::INFINITY, 1.0);
    // Many planes through the same apex (1,1,1).
    for a in 1..=6 {
        let af = a as f64;
        m.add_constr(vec![(x, af), (y, 1.0), (z, 1.0)], Cmp::Le, af + 2.0);
        m.add_constr(vec![(x, 1.0), (y, af), (z, 1.0)], Cmp::Le, af + 2.0);
        m.add_constr(vec![(x, 1.0), (y, 1.0), (z, af)], Cmp::Le, af + 2.0);
    }
    let sol = m.solve_lp().unwrap();
    assert!(
        (sol.objective - 3.0).abs() < 1e-6,
        "obj = {}",
        sol.objective
    );
}
