//! Bit-identity pin for the warm dual simplex and the basis kernels.
//!
//! Seeded chains of boxed-variable LPs are perturbed link by link —
//! covering and packing right-hand sides moved, boxes pinned or cut —
//! and re-solved warm from the previous link's basis, which drives the
//! long-step dual ratio test through its bound flips. A two-row chain
//! whose dual walk outruns the dual phase's iteration guard pins the
//! cold fallback. Budgeted `solve_mip` runs of the shipped engine over
//! LP2-shaped covering programs (node warm starts, cuts, strong-branch
//! probes), six of them branching past the root, follow.
//! Every objective and value bit, every iteration, work and node count,
//! and every outcome kind is folded into one FNV-1a digest.
//!
//! The digest is a golden: a change to the simplex or the LU kernels
//! that is meant to be a pure speed-up must leave it untouched. A change
//! that moves it changes pivot paths, and therefore answers under a
//! budget; re-pin it only on purpose.

use milp::{
    Cmp, LpWarmStart, MipOptions, MipOutcome, Model, Sense, Solution, SolverError, VarKind,
};

/// The digest of everything below, pinned when the anytime solves moved
/// to the one serial search (recorded on the code before that change).
/// The six small covering
/// programs close in at most five nodes and pin the root (cuts, first
/// probes, rounding); the six deep ones take 7–15 nodes each and pin the
/// search below it, including open nodes past the snapshot cap that
/// refactorize a stripped basis when popped.
const WARM_BITS_DIGEST: u64 = 0x21fd_481d_1492_2a2a;

/// SplitMix64: a tiny seeded generator, so the instances cannot drift
/// with any generator crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, on a 1/1024 grid so the data is exact.
    fn grid(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 1024.0) as u64;
        lo + (self.next() % steps.max(1)) as f64 / 1024.0
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn solution(&mut self, s: &Solution) {
        self.word(s.objective.to_bits());
        self.word(s.gap.to_bits());
        self.word(s.iterations as u64);
        self.word(s.work);
        self.word(s.nodes as u64);
        for v in &s.values {
            self.word(v.to_bits());
        }
    }

    fn error(&mut self, e: &SolverError) {
        let tag = match e {
            SolverError::Infeasible => 1,
            SolverError::Unbounded => 2,
            SolverError::Interrupted { work_spent } => {
                self.word(*work_spent);
                3
            }
            _ => 4,
        };
        self.word(0xE000 + tag);
    }
}

/// A boxed covering/packing LP: `n` variables in `[0, u_j]` with
/// `u_j ∈ {1, 2}`, mostly positive costs, and sparse rows with small
/// positive coefficients — covering rows (`≥`) at 30% of their largest
/// activity, packing rows (`≤`) at 70%. Each row keeps that largest
/// activity beside it, so perturbations stay in feasible territory.
struct BoxedLp {
    model: Model,
    hi: Vec<f64>,
    /// `(is covering, largest activity Σ a_ij u_j)` per row.
    rows: Vec<(bool, f64)>,
}

fn boxed_lp(rng: &mut Rng, n: usize, m: usize) -> BoxedLp {
    let mut model = Model::new(Sense::Minimize);
    let mut hi = Vec::with_capacity(n);
    let vars: Vec<_> = (0..n)
        .map(|j| {
            let u = 1.0 + rng.below(2) as f64;
            let cost = if rng.below(5) == 0 {
                -rng.grid(0.5, 2.0)
            } else {
                rng.grid(0.5, 4.0)
            };
            hi.push(u);
            model.add_var(format!("x{j}"), VarKind::Continuous, 0.0, u, cost)
        })
        .collect();
    let mut rows = Vec::with_capacity(m);
    for _ in 0..m {
        let mut support: Vec<usize> = (0..3 + rng.below(6)).map(|_| rng.below(n)).collect();
        support.sort_unstable();
        support.dedup();
        let terms: Vec<_> = support
            .iter()
            .map(|&j| (vars[j], 1.0 + rng.below(3) as f64))
            .collect();
        let most: f64 = terms.iter().map(|&(v, a)| a * hi[v.index()]).sum();
        let covering = rng.below(10) < 7;
        let (cmp, rhs) = if covering {
            (Cmp::Ge, (0.3 * most).floor())
        } else {
            (Cmp::Le, (0.7 * most).ceil())
        };
        model.add_constr(terms, cmp, rhs);
        rows.push((covering, most));
    }
    BoxedLp { model, hi, rows }
}

/// One chain link: two perturbations of the base LP — a covering row
/// raised toward its largest activity, a packing row lowered, a box
/// pinned to one end, or an upper bound cut — so every link pushes basic
/// values off their bounds and the dual phase repairs them, mostly by
/// flipping boxed columns.
fn link(rng: &mut Rng, base: &BoxedLp) -> Model {
    let mut model = base.model.clone();
    for _ in 0..2 {
        match rng.below(3) {
            0 => {
                let i = rng.below(base.rows.len());
                let (covering, most) = base.rows[i];
                let rhs = if covering {
                    (rng.grid(0.5, 0.9) * most).floor()
                } else {
                    (rng.grid(0.3, 0.6) * most).ceil()
                };
                model.set_rhs(model.constr(i), rhs);
            }
            1 => {
                let j = rng.below(base.hi.len());
                let at = if rng.below(2) == 0 { 0.0 } else { base.hi[j] };
                model.set_bounds(model.var(j), at, at);
            }
            _ => {
                let j = rng.below(base.hi.len());
                model.set_bounds(model.var(j), 0.0, base.hi[j] * rng.grid(0.25, 0.75));
            }
        }
    }
    model
}

/// Folds one seeded warm chain into `digest`; returns the dual flips and
/// the cold fallbacks it took.
fn lp_chain(seed: u64, n: usize, m: usize, links: usize, digest: &mut Digest) -> (usize, usize) {
    let mut rng = Rng(seed);
    let base = boxed_lp(&mut rng, n, m);
    let mut basis: Option<LpWarmStart> = None;
    let (mut flips, mut fallbacks) = (0, 0);
    for k in 0..=links {
        let model = if k == 0 {
            base.model.clone()
        } else {
            link(&mut rng, &base)
        };
        match model.solve_lp_warm(basis.as_ref()) {
            Ok((s, b)) => {
                digest.solution(&s);
                flips += s.dual_flips;
                fallbacks += s.warm_fallbacks;
                if b.is_some() {
                    basis = b;
                }
            }
            Err(e) => digest.error(&e),
        }
    }
    (flips, fallbacks)
}

/// A chain over one two-row LP with `n` columns: `min Σ s_j² x_j` with
/// `Σ x_j = 1`, `Σ 2 s_j x_j = 2 s̄` and `x ≥ 0`, for `s_j = j/16`. The
/// optimum mixes the two columns around `s̄`, and its dual feasible
/// region is a polygon with one edge per column. Each link moves `s̄`
/// to the other end of the range, so the warm dual simplex walks the
/// polygon one vertex per pivot — past the dual phase's `4m + 100`
/// iteration guard when `n` is large — and the cold fallback answers.
/// Folds every link into `digest`; returns the fallbacks taken.
fn polygon_chain(n: usize, links: usize, digest: &mut Digest) -> usize {
    let mut model = Model::new(Sense::Minimize);
    let s: Vec<f64> = (0..n).map(|j| j as f64 / 16.0).collect();
    let xs: Vec<_> = s
        .iter()
        .enumerate()
        .map(|(j, &sj)| {
            model.add_var(
                format!("x{j}"),
                VarKind::Continuous,
                0.0,
                f64::INFINITY,
                sj * sj,
            )
        })
        .collect();
    model.add_constr(xs.iter().map(|&x| (x, 1.0)).collect(), Cmp::Eq, 1.0);
    let mean = model.add_constr(
        xs.iter().zip(&s).map(|(&x, &sj)| (x, 2.0 * sj)).collect(),
        Cmp::Eq,
        0.0,
    );
    let mut basis: Option<LpWarmStart> = None;
    let mut fallbacks = 0;
    for k in 0..=links {
        let target = if k % 2 == 0 { 2.0 } else { s[n - 1] - 2.0 } + 1.0 / 32.0;
        model.set_rhs(mean, 2.0 * target);
        match model.solve_lp_warm(basis.as_ref()) {
            Ok((sol, b)) => {
                digest.solution(&sol);
                fallbacks += sol.warm_fallbacks;
                if b.is_some() {
                    basis = b;
                }
            }
            Err(e) => digest.error(&e),
        }
    }
    fallbacks
}

/// An LP2-shaped covering program: binary `x_e` at unit cost, one VUB
/// row per traffic, one coverage row at fraction `k`.
fn covering(seed: u64, edges: usize, traffics: usize, k: f64) -> Model {
    let mut rng = Rng(seed);
    let mut model = Model::new(Sense::Minimize);
    let xs: Vec<_> = (0..edges)
        .map(|e| model.add_var(format!("x{e}"), VarKind::Binary, 0.0, 1.0, 1.0))
        .collect();
    let mut coverage = Vec::with_capacity(traffics);
    let mut total = 0.0;
    for t in 0..traffics {
        let vol = 1.0 + rng.below(8) as f64;
        total += vol;
        let d = model.add_var(format!("d{t}"), VarKind::Continuous, 0.0, 1.0, 0.0);
        let mut support: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(edges)).collect();
        support.sort_unstable();
        support.dedup();
        let mut terms: Vec<_> = support.iter().map(|&e| (xs[e], 1.0)).collect();
        terms.push((d, -1.0));
        model.add_constr(terms, Cmp::Ge, 0.0);
        coverage.push((d, vol));
    }
    model.add_constr(coverage, Cmp::Ge, k * total);
    model
}

/// The engine `placement::passive::exact` ships, with an optional work
/// budget.
fn engine(work_budget: Option<u64>) -> MipOptions {
    MipOptions {
        work_budget,
        ..Default::default()
    }
}

/// Folds one budgeted anytime solve into `digest`; returns its flips.
fn anytime(model: &Model, opts: &MipOptions, digest: &mut Digest) -> usize {
    match model.solve_mip(opts, None) {
        Ok((MipOutcome::Complete(s), _)) => {
            digest.word(0xC0);
            digest.solution(&s);
            s.dual_flips
        }
        Ok((
            MipOutcome::Interrupted {
                incumbent,
                bound,
                work_spent,
            },
            _,
        )) => {
            digest.word(0x1D);
            digest.word(bound.to_bits());
            digest.word(work_spent);
            match &incumbent {
                Some(s) => {
                    digest.solution(s);
                    s.dual_flips
                }
                None => {
                    digest.word(0);
                    0
                }
            }
        }
        Err(e) => {
            digest.error(&e);
            0
        }
    }
}

#[test]
fn warm_chains_and_anytime_solves_keep_their_bits() {
    let mut digest = Digest::new();
    let (mut lp_flips, mut lp_fallbacks) = (0, 0);
    let mut fold = |(f, b): (usize, usize)| {
        lp_flips += f;
        lp_fallbacks += b;
    };
    // Dense-inverse bases (m ≤ 200): many short chains.
    for seed in 0..24u64 {
        let n = 20 + (seed as usize * 7) % 41;
        let m = 10 + (seed as usize * 5) % 31;
        fold(lp_chain(seed, n, m, 12, &mut digest));
    }
    // Sparse-LU bases with eta chains (m > 200).
    for seed in 100..102u64 {
        fold(lp_chain(seed, 260, 220, 6, &mut digest));
    }
    // The dual walk that outruns the guard.
    lp_fallbacks += polygon_chain(400, 4, &mut digest);
    assert!(lp_flips > 0, "the LP chains never flipped a bound");
    assert!(lp_fallbacks > 0, "no warm attempt fell back cold");

    let mut mip_flips = 0;
    let small = (0..6u64).map(|seed| {
        covering(
            1000 + seed,
            10 + seed as usize,
            12 + 2 * seed as usize,
            0.85,
        )
    });
    // (seed, edges, traffics) of covering programs that branch: 7 to 15
    // nodes each.
    let deep = [
        (2003, 36, 78),
        (2006, 30, 60),
        (2007, 32, 66),
        (2008, 34, 72),
        (2009, 36, 78),
        (2010, 38, 84),
    ]
    .map(|(seed, edges, traffics)| covering(seed, edges, traffics, 0.85));
    for (case, model) in small.chain(deep).enumerate() {
        let full = match model.solve_mip(&engine(None), None) {
            Ok((MipOutcome::Complete(s), _)) => s.work,
            other => panic!("case {case}: unbudgeted solve did not complete: {other:?}"),
        };
        for budget in [full / 5, full / 2, full] {
            let mut at = Digest::new();
            mip_flips += anytime(&model, &engine(Some(budget)), &mut at);
            digest.word(at.0);
        }
    }
    assert!(mip_flips > 0, "the anytime solves never flipped a bound");

    assert_eq!(
        digest.0, WARM_BITS_DIGEST,
        "warm-path bits moved: digest {:#018x}",
        digest.0
    );
}

/// The warm node re-solves of a deep covering search stay warm. With a
/// one-flip-per-iteration dual ratio test, a column flipped for one
/// leaving row flipped back for the next, and these six searches fell
/// back cold 33 times, charging 28,040 work units for 12,684 iterations
/// of successful solves; the long-step test finishes every re-solve
/// warm, and nearly every work unit is an iteration that counts.
#[test]
fn deep_covering_searches_stay_warm() {
    let (mut fallbacks, mut work, mut iterations) = (0, 0, 0);
    for seed in 0..6u64 {
        let model = covering(5000 + seed, 40, 90, 0.85);
        match model.solve_mip(&engine(None), None) {
            Ok((MipOutcome::Complete(s), _)) => {
                fallbacks += s.warm_fallbacks;
                work += s.work;
                iterations += s.iterations as u64;
            }
            other => panic!("seed {seed}: unbudgeted solve did not complete: {other:?}"),
        }
    }
    assert!(fallbacks <= 3, "{fallbacks} warm re-solves fell back cold");
    assert!(
        work * 4 <= iterations * 5,
        "{work} work units for {iterations} iterations"
    );
}
