//! Criterion groups for the hot paths the perf subsystem tracks: graph
//! substrate at the 80/150-router scale, simplex pivoting, the MECF
//! branch-and-bound, greedy set-cover, and the end-to-end figure-8
//! pipeline. `bench_report` runs the same code paths on a fixed grid and
//! records the numbers to `BENCH_popmon.json`; these benches are the
//! interactive view (`cargo bench -p popmon-bench`).

use criterion::{criterion_group, criterion_main, Criterion};

use netgraph::NodeId;
use placement::instance::PpmInstance;
use placement::passive::{greedy_static, solve_ppm_mecf_bb, ExactOptions};
use placement::solve::SolveRequest;
use popgen::{FamilySpec, GravitySpec, PopSpec, TrafficSpec};

/// Dijkstra trees and Yen k-SP on the large presets (figures 9-11 and the
/// section-7 scale experiment live on these graphs).
fn bench_graph_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_large");
    let (g150, _) = PopSpec::large_150().build().router_subgraph();
    g.bench_function("dijkstra_tree_150", |b| {
        let mut src = 0u32;
        b.iter(|| {
            let t = netgraph::dijkstra::shortest_path_tree(&g150, NodeId(src)).unwrap();
            src = (src + 1) % g150.node_count() as u32;
            t.distance(NodeId(1))
        })
    });
    let (g80, _) = PopSpec::paper_80().build().router_subgraph();
    let routers: Vec<NodeId> = g80.nodes().collect();
    g.bench_function("ksp4_80", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let s = routers[(i * 7 + 1) % routers.len()];
            let t = routers[(i * 13 + 5) % routers.len()];
            i += 1;
            if s == t {
                0
            } else {
                netgraph::ksp::k_shortest_paths(&g80, s, t, 4)
                    .unwrap()
                    .len()
            }
        })
    });
    g.finish();
}

/// Simplex pivoting on LP2 relaxations (the pricing loop is the hot path
/// the candidate-list optimization targets).
fn bench_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_pivoting");
    let pop10 = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop10, 3);
    let merged = PpmInstance::from_traffic(&pop10.graph, &ts).merged();
    let (lp2, _) = placement::passive::build_lp2(&merged, 0.95);
    g.bench_function("lp2_relaxation_10router", |b| {
        b.iter(|| lp2.solve_lp().unwrap().iterations)
    });
    let pop15 = PopSpec::paper_15().build();
    let ts15 = TrafficSpec::default().generate(&pop15, 1);
    let merged15 = PpmInstance::from_traffic(&pop15.graph, &ts15).merged();
    let (lp2_15, _) = placement::passive::build_lp2(&merged15, 0.9);
    g.sample_size(2);
    g.bench_function("lp2_relaxation_15router", |b| {
        b.iter(|| lp2_15.solve_lp().unwrap().iterations)
    });
    g.finish();
}

/// The figure-8 exact solver and its greedy warm-start at full instance
/// size (15 routers, 1980 traffics).
fn bench_fig8_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_pipeline");
    let pop = PopSpec::paper_15().build();
    g.sample_size(5);
    g.bench_function("end_to_end_k75_seed0", |b| {
        b.iter(|| {
            let ts = TrafficSpec::default().generate(&pop, 0);
            let inst = PpmInstance::from_traffic(&pop.graph, &ts);
            let greedy = greedy_static(&inst, 0.75).unwrap().device_count();
            let opts = ExactOptions {
                max_nodes: 50_000,
                time_limit: Some(std::time::Duration::from_secs(120)),
                ..Default::default()
            };
            let exact = solve_ppm_mecf_bb(&inst, 0.75, &opts)
                .unwrap()
                .device_count();
            (greedy, exact)
        })
    });
    let ts = TrafficSpec::default().generate(&pop, 0);
    let inst = PpmInstance::from_traffic(&pop.graph, &ts);
    g.bench_function("greedy_setcover_k90", |b| {
        b.iter(|| greedy_static(&inst, 0.9).unwrap().device_count())
    });
    g.sample_size(3);
    g.bench_function("mecf_bb_k80", |b| {
        let opts = ExactOptions {
            max_nodes: 100_000,
            time_limit: Some(std::time::Duration::from_secs(60)),
            ..Default::default()
        };
        b.iter(|| solve_ppm_mecf_bb(&inst, 0.8, &opts).unwrap().device_count())
    });
    g.finish();
}

/// The instance-space generators (`popgen::families`): per-family
/// generation cost at the 80-router scale, plus gravity traffic and the
/// end-to-end placement pipeline on a generated 30-router Waxman instance
/// (the `xp_topology_families` hot path).
fn bench_families(c: &mut Criterion) {
    let mut g = c.benchmark_group("instance_space");
    for (name, spec) in [
        ("waxman_80_generate", FamilySpec::waxman(80, 30)),
        ("ba_80_generate", FamilySpec::barabasi_albert(80, 30)),
        ("hier_80_generate", FamilySpec::hier_isp(80, 30)),
    ] {
        g.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                spec.build(seed).unwrap().graph.edge_count()
            })
        });
    }
    let waxman30 = FamilySpec::waxman(30, 15).build(0).unwrap();
    g.bench_function("gravity_traffic_waxman30", |b| {
        b.iter(|| GravitySpec::default().generate(&waxman30, 0).total_volume())
    });
    g.sample_size(5);
    g.bench_function("family_pipeline_waxman30_k90", |b| {
        let opts = popmon_bench::scenarios::family_exact_options();
        b.iter(|| {
            let ts = GravitySpec::default().generate(&waxman30, 0);
            let inst = PpmInstance::from_traffic(&waxman30.graph, &ts);
            let greedy = greedy_static(&inst, 0.9).unwrap().device_count();
            let exact = solve_ppm_mecf_bb(&inst, 0.9, &opts).unwrap().device_count();
            (greedy, exact)
        })
    });
    g.finish();
}

/// The warm-start layer: LP re-optimization from a prior basis along a
/// coverage-target chain (vs. the cold solve above), the warm-chained
/// exact k-grid of fig7, and delta-aware k-SP re-routing under link
/// failures (vs. routing every pair from scratch).
fn bench_warm_start(c: &mut Criterion) {
    let mut g = c.benchmark_group("warm_start");
    let pop10 = PopSpec::paper_10().build();
    let ts = TrafficSpec::default().generate(&pop10, 3);
    let inst = PpmInstance::from_traffic(&pop10.graph, &ts);
    let merged = inst.merged();
    let total = inst.total_volume();

    let (mut lp2, _) = placement::passive::build_lp2(&merged, 0.75);
    let target_row = lp2.constr(lp2.constr_count() - 1);
    g.bench_function("lp2_rhs_chain_warm_10router", |b| {
        b.iter(|| {
            let mut basis = None;
            let mut iters = 0usize;
            for k in [0.75, 0.8, 0.85, 0.9, 0.95, 1.0] {
                lp2.set_rhs(target_row, k * total);
                let (s, next) = lp2.solve_lp_warm(basis.as_ref()).unwrap();
                iters += s.iterations;
                basis = next;
            }
            iters
        })
    });
    g.sample_size(10);
    g.bench_function("fig7_exact_kgrid_chained", |b| {
        b.iter(|| {
            let mut chain = placement::delta::DeltaInstance::from_instance(&inst);
            let mut devices = 0usize;
            for k in [0.75, 0.8, 0.85, 0.9, 0.95, 1.0] {
                let out = chain.solve(&SolveRequest::ppm(k)).unwrap();
                devices += out.into_ppm().unwrap().device_count();
            }
            devices
        })
    });

    let (g80, _) = PopSpec::paper_80().build().router_subgraph();
    let routers: Vec<NodeId> = g80.nodes().collect();
    let pairs: Vec<(NodeId, NodeId)> = (0..24)
        .map(|i| {
            (
                routers[(i * 7 + 1) % routers.len()],
                routers[(i * 13 + 5) % routers.len()],
            )
        })
        .filter(|(a, b)| a != b)
        .collect();
    let plan = netgraph::delta::RoutePlan::compute(&g80, &pairs, 4, &[]).unwrap();
    let fail = netgraph::EdgeId(plan.routes(0)[0].edges()[0].0);
    g.bench_function("ksp4_80_reroute_delta", |b| {
        b.iter(|| plan.reroute_avoiding(&g80, &[fail]).unwrap().1)
    });
    g.bench_function("ksp4_80_reroute_scratch", |b| {
        b.iter(|| {
            netgraph::delta::RoutePlan::compute(&g80, &pairs, 4, &[fail])
                .unwrap()
                .pairs()
                .len()
        })
    });
    g.finish();
}

/// The sparse LU kernels behind the simplex basis (`milp::lu`):
/// factorization, hyper-sparse FTRAN/BTRAN, and product-form update
/// chains, on an LP2-shaped synthetic basis (unit-diagonal spine, short
/// sub-diagonal bands, and a dense coupling row — the shape the
/// flow-conservation + coverage structure of the paper's programs
/// produces at the 1000-row Figure 8 scale).
fn bench_sparse_lu(c: &mut Criterion) {
    let m = 1000usize;
    let cols: Vec<Vec<(u32, f64)>> = (0..m)
        .map(|j| {
            let mut col = vec![(j as u32, 2.0 + (j % 5) as f64 * 0.25)];
            for t in 1..=(j % 4) {
                let r = j + t * 7;
                if r < m - 1 {
                    col.push((r as u32, 0.5 + (t as f64) * 0.125));
                }
            }
            if j != m - 1 {
                col.push((m as u32 - 1, 0.0625 + (j % 3) as f64 * 0.03125));
            }
            col.sort_unstable_by_key(|e| e.0);
            col
        })
        .collect();
    let refs: Vec<&[(u32, f64)]> = cols.iter().map(|c| c.as_slice()).collect();

    let mut g = c.benchmark_group("sparse_lu");
    g.bench_function("factorize_1000", |b| {
        b.iter(|| milp::lu::Basis::factorize_sparse(m, &refs).unwrap().m())
    });

    let basis = milp::lu::Basis::factorize_sparse(m, &refs).unwrap();
    let dense_rhs: Vec<f64> = (0..m).map(|i| ((i % 13) as f64 - 6.0) * 0.5).collect();
    g.bench_function("ftran_dense_rhs_1000", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut x = dense_rhs.clone();
            basis.ftran(&mut x, &mut scratch);
            x[0]
        })
    });
    g.bench_function("ftran_unit_rhs_1000", |b| {
        let mut scratch = Vec::new();
        let mut unit = 0usize;
        b.iter(|| {
            let mut x = vec![0.0; m];
            unit = (unit + 1) % m;
            x[unit] = 1.0;
            basis.ftran(&mut x, &mut scratch);
            x[unit]
        })
    });
    g.bench_function("btran_unit_rhs_1000", |b| {
        let mut scratch = Vec::new();
        let mut unit = 0usize;
        b.iter(|| {
            let mut x = vec![0.0; m];
            unit = (unit + 1) % m;
            x[unit] = 1.0;
            basis.btran(&mut x, &mut scratch);
            x[unit]
        })
    });

    // A 64-pivot product-form update chain (half the MAX_ETAS cap) plus
    // one solve per pivot — the steady-state simplex pattern.
    g.sample_size(10);
    g.bench_function("update_chain_64_1000", |b| {
        b.iter(|| {
            let mut basis = milp::lu::Basis::factorize_sparse(m, &refs).unwrap();
            let mut scratch = Vec::new();
            let mut acc = 0.0;
            for k in 0..64usize {
                let pos = (k * 131 + 7) % m;
                let mut w = vec![0.0; m];
                w[(k * 17) % m] = 3.0;
                w[(k * 29 + 3) % m] = 1.0;
                basis.ftran(&mut w, &mut scratch);
                if w[pos].abs() > 1e-6 {
                    basis.update(pos, &w).unwrap();
                }
                let mut x = vec![0.0; m];
                x[(k * 41) % m] = 1.0;
                basis.btran(&mut x, &mut scratch);
                acc += x[0];
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(
    hotpaths,
    bench_graph_substrate,
    bench_simplex,
    bench_fig8_pipeline,
    bench_families,
    bench_warm_start,
    bench_sparse_lu
);
criterion_main!(hotpaths);
