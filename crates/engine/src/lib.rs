//! # engine — parallel scenario engine
//!
//! Runs experiment sweeps (`ScenarioSpec`) across a pool of worker threads
//! and aggregates per-case results into a deterministic [`ScenarioReport`].
//!
//! ## Model
//!
//! A scenario is a grid of **cases**: every *point* of the sweep's x-axis
//! crossed with every *seed*. Cases are independent by contract — the case
//! closure receives a [`Case`] (point, indices and seed) and must derive
//! everything it needs from those and from read-only captures, never from
//! mutable shared state. Under that contract the engine guarantees:
//!
//! * **determinism** — results are collected into slots indexed by case
//!   number and aggregated in slot order, so a run with `N` worker threads
//!   produces *byte-identical* reports to the serial run (pinned by this
//!   crate's unit tests and by `crates/bench/tests/engine_parity.rs`);
//! * **work conservation** — workers pull the next unclaimed case from a
//!   shared atomic cursor, so uneven case costs (e.g. an exact solver next
//!   to a greedy one) still load-balance.
//!
//! ## Shared set-up
//!
//! Cases frequently share an expensive, seed-determined set-up: the seeded
//! instance every k-point of a sweep starts from, or the deployment a whole
//! budget sweep reuses. A chained sweep builds it once at the top of its
//! chain closure (one chain per seed). A per-case sweep builds one set-up
//! per seed up front with [`Engine::run_pool`] and indexes it by
//! [`Case::seed`], so every value is typed and built exactly once.
//!
//! See `DESIGN.md` (workspace root) for the threading model rationale.

#![forbid(unsafe_code)]

pub mod report;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use report::ScenarioReport;

/// A sweep description: named x-axis points crossed with seeds.
#[derive(Debug, Clone)]
pub struct ScenarioSpec<P> {
    /// Scenario name (used as the report name).
    pub name: String,
    /// X-axis points, in output order.
    pub points: Vec<P>,
    /// Seeds `0..seeds_per_point` run for every point.
    pub seeds_per_point: u64,
}

impl<P> ScenarioSpec<P> {
    pub fn new(name: impl Into<String>, points: Vec<P>) -> Self {
        ScenarioSpec {
            name: name.into(),
            points,
            seeds_per_point: 1,
        }
    }

    pub fn with_seeds(mut self, seeds: u64) -> Self {
        self.seeds_per_point = seeds.max(1);
        self
    }
}

/// One unit of work handed to the case closure.
pub struct Case<'a, P> {
    /// The sweep point this case belongs to.
    pub point: &'a P,
    /// Index of `point` within `ScenarioSpec::points`.
    pub point_index: usize,
    /// Seed in `0..seeds_per_point`.
    pub seed: u64,
}

/// One *chain* of work handed to the chain closure: every point of the
/// sweep for a single seed, to be processed in order by one worker.
///
/// Chains exist for warm-started solvers: successive sweep points are
/// near-identical programs, so a chain closure can carry solver state
/// (an LP basis, a route cache) from point to point. Because a chain is
/// confined to one worker and is keyed by seed alone, the engine's
/// determinism contract is unchanged — results land in the same
/// `[point][seed]` slots as an unchained run.
pub struct ChainCase<'a, P> {
    /// All sweep points, in `ScenarioSpec::points` order.
    pub points: &'a [P],
    /// Seed in `0..seeds_per_point`.
    pub seed: u64,
}

/// The scenario engine: a worker-pool executor for [`ScenarioSpec`]s.
#[derive(Debug, Clone)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// Single-threaded reference engine (the determinism baseline).
    pub fn serial() -> Self {
        Engine { threads: 1 }
    }

    /// Engine with exactly `n` worker threads (clamped to at least 1).
    pub fn with_threads(n: usize) -> Self {
        Engine { threads: n.max(1) }
    }

    /// Thread count from `POPMON_THREADS`, else the machine's available
    /// parallelism, else 1.
    pub fn from_env() -> Self {
        let threads = std::env::var("POPMON_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Engine::with_threads(threads)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every case of the grid and returns the results grouped by
    /// point (outer vec in point order, inner vec in seed order).
    ///
    /// The case closure must be deterministic in `(point, seed)`; see the
    /// crate docs for the full independence contract.
    pub fn run_cases<P, R, F>(&self, spec: &ScenarioSpec<P>, case: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(Case<'_, P>) -> R + Sync,
    {
        let seeds = spec.seeds_per_point.max(1);
        let total = spec.points.len() * seeds as usize;

        let run_one = |i: usize| {
            let point_index = i / seeds as usize;
            let seed = (i % seeds as usize) as u64;
            case(Case {
                point: &spec.points[point_index],
                point_index,
                seed,
            })
        };

        let mut results = self.run_pool(total, run_one).into_iter();
        (0..spec.points.len())
            .map(|_| results.by_ref().take(seeds as usize).collect())
            .collect()
    }

    /// Runs the grid as per-seed *chains*: one work unit per seed, whose
    /// closure visits every point in order and returns one result per
    /// point. Returns results grouped by point (outer vec in point order,
    /// inner vec in seed order) — the same shape as
    /// [`Engine::run_cases`], so aggregation code is interchangeable.
    ///
    /// The chain closure must be deterministic in `seed` and must return
    /// exactly `points.len()` results; carrying solver state across the
    /// points of one chain is the intended use (see [`ChainCase`]).
    ///
    /// # Panics
    ///
    /// Panics when a chain returns the wrong number of results.
    pub fn run_seed_chains<P, R, F>(&self, spec: &ScenarioSpec<P>, chain: F) -> Vec<Vec<R>>
    where
        P: Sync,
        R: Send,
        F: Fn(ChainCase<'_, P>) -> Vec<R> + Sync,
    {
        let seeds = spec.seeds_per_point.max(1) as usize;

        let run_one = |seed: usize| {
            let out = chain(ChainCase {
                points: &spec.points,
                seed: seed as u64,
            });
            assert_eq!(
                out.len(),
                spec.points.len(),
                "chain for seed {seed} returned {} results for {} points",
                out.len(),
                spec.points.len()
            );
            out
        };

        // Transpose seed-major chains into the point-major grouping.
        let mut chains: Vec<std::vec::IntoIter<R>> = self
            .run_pool(seeds, run_one)
            .into_iter()
            .map(Vec::into_iter)
            .collect();
        (0..spec.points.len())
            .map(|_| {
                chains
                    .iter_mut()
                    .map(|it| it.next().expect("length checked above"))
                    .collect()
            })
            .collect()
    }

    /// [`Engine::run_seed_chains`] + per-point CSV rendering: the chained
    /// counterpart of [`Engine::run_report`], producing byte-identical
    /// reports for any thread count.
    pub fn run_chain_report<P, R, F, G>(
        &self,
        spec: &ScenarioSpec<P>,
        header: impl Into<String>,
        chain: F,
        row: G,
    ) -> ScenarioReport
    where
        P: Sync,
        R: Send,
        F: Fn(ChainCase<'_, P>) -> Vec<R> + Sync,
        G: Fn(&P, &[R]) -> String,
    {
        render(spec, header.into(), &self.run_seed_chains(spec, chain), row)
    }

    /// Runs the grid and renders one CSV row per point via `row`.
    ///
    /// `row` receives the point and its seed-ordered case results; the
    /// returned [`ScenarioReport`] is byte-identical for any thread count.
    pub fn run_report<P, R, F, G>(
        &self,
        spec: &ScenarioSpec<P>,
        header: impl Into<String>,
        case: F,
        row: G,
    ) -> ScenarioReport
    where
        P: Sync,
        R: Send,
        F: Fn(Case<'_, P>) -> R + Sync,
        G: Fn(&P, &[R]) -> String,
    {
        render(spec, header.into(), &self.run_cases(spec, case), row)
    }

    /// Runs `job(i)` for every `i` in `0..n` on up to [`Engine::threads`]
    /// scoped workers that pull indices off one atomic cursor, and returns
    /// the results in index order whatever order they finished in. With
    /// one thread, or one job, the jobs run inline.
    ///
    /// This is the pool under every `run_*` method; sweeps also call it
    /// directly to build one shared set-up per seed before their cases run.
    pub fn run_pool<R, J>(&self, n: usize, job: J) -> Vec<R>
    where
        R: Send,
        J: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(job).collect();
        }
        let cursor = AtomicUsize::new(0);
        let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = job(i);
                    results.lock().expect("result store poisoned")[i] = Some(r);
                });
            }
        });
        results
            .into_inner()
            .expect("result store poisoned")
            .into_iter()
            .map(|r| r.expect("worker pool left a job unfilled"))
            .collect()
    }
}

/// One CSV row per point: `row` gets the point and its seed-ordered
/// results.
fn render<P, R>(
    spec: &ScenarioSpec<P>,
    header: String,
    grouped: &[Vec<R>],
    row: impl Fn(&P, &[R]) -> String,
) -> ScenarioReport {
    ScenarioReport {
        name: spec.name.clone(),
        header,
        rows: spec
            .points
            .iter()
            .zip(grouped)
            .map(|(p, results)| row(p, results))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_order() {
        let spec = ScenarioSpec::new("shape", vec![10usize, 20, 30]).with_seeds(4);
        let grouped = Engine::serial().run_cases(&spec, |c| (*c.point, c.seed));
        assert_eq!(grouped.len(), 3);
        for (pi, row) in grouped.iter().enumerate() {
            assert_eq!(row.len(), 4);
            for (s, &(p, seed)) in row.iter().enumerate() {
                assert_eq!(p, spec.points[pi]);
                assert_eq!(seed, s as u64);
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let spec = ScenarioSpec::new("parity", (0..17u64).collect()).with_seeds(5);
        let case = |c: Case<'_, u64>| {
            // Arbitrary deterministic arithmetic with some work imbalance.
            let mut acc = c.point.wrapping_mul(0x9E37_79B9).wrapping_add(c.seed);
            for _ in 0..(c.point % 7) * 1000 {
                acc = acc.rotate_left(7) ^ 0xDEAD_BEEF;
            }
            acc
        };
        let serial = Engine::serial().run_cases(&spec, case);
        let parallel = Engine::with_threads(4).run_cases(&spec, case);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let spec = ScenarioSpec::new("report", vec![1.0f64, 2.0, 4.0]).with_seeds(3);
        let mk = |e: Engine| {
            e.run_report(
                &spec,
                "x,sum",
                |c| c.point * (c.seed as f64 + 1.0),
                |p, rs| format!("{p},{}", rs.iter().sum::<f64>()),
            )
        };
        let a = mk(Engine::serial());
        let b = mk(Engine::with_threads(3));
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.rows.len(), 3);
    }

    #[test]
    fn from_env_is_positive() {
        assert!(Engine::from_env().threads() >= 1);
    }

    #[test]
    fn chained_matches_unchained_and_is_thread_invariant() {
        let spec = ScenarioSpec::new("chain", (0..9u64).collect()).with_seeds(4);
        let case = |p: u64, seed: u64| p.wrapping_mul(31).wrapping_add(seed * 7);
        let unchained = Engine::serial().run_cases(&spec, |c| case(*c.point, c.seed));
        let chain = |c: ChainCase<'_, u64>| -> Vec<u64> {
            // Stateful chain: an accumulator threads through the points,
            // but each emitted result depends only on (point, seed).
            let mut acc = 0u64;
            c.points
                .iter()
                .map(|&p| {
                    acc = acc.wrapping_add(1);
                    case(p, c.seed)
                })
                .collect()
        };
        let serial = Engine::serial().run_seed_chains(&spec, chain);
        let parallel = Engine::with_threads(4).run_seed_chains(&spec, chain);
        assert_eq!(serial, unchained);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "returned 1 results for 3 points")]
    fn chain_length_mismatch_panics() {
        let spec = ScenarioSpec::new("bad", vec![1u32, 2, 3]);
        let _ = Engine::serial().run_seed_chains(&spec, |_c| vec![0u32]);
    }

    #[test]
    fn chain_report_matches_case_report() {
        let spec = ScenarioSpec::new("report", vec![1.0f64, 2.0, 4.0]).with_seeds(3);
        let a = Engine::serial().run_report(
            &spec,
            "x,sum",
            |c| c.point * (c.seed as f64 + 1.0),
            |p, rs| format!("{p},{}", rs.iter().sum::<f64>()),
        );
        let b = Engine::with_threads(3).run_chain_report(
            &spec,
            "x,sum",
            |c: ChainCase<'_, f64>| c.points.iter().map(|p| p * (c.seed as f64 + 1.0)).collect(),
            |p, rs| format!("{p},{}", rs.iter().sum::<f64>()),
        );
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn run_pool_returns_results_in_index_order() {
        let job = |i: usize| {
            // Uneven work so parallel jobs finish out of order.
            let mut acc = i as u64;
            for _ in 0..(i % 5) * 2000 {
                acc = acc.rotate_left(3) ^ 0x5151;
            }
            (i, acc)
        };
        let serial = Engine::serial().run_pool(23, job);
        assert!(serial.iter().enumerate().all(|(i, r)| r.0 == i));
        assert_eq!(Engine::with_threads(4).run_pool(23, job), serial);
        assert!(Engine::with_threads(4).run_pool(0, job).is_empty());
    }
}
