//! Figure 3: the greedy counter-example POP.
//!
//! The POP carries four traffics — two of weight 2 crossing a shared link
//! of load 4, and two of weight 1 — and `PPM(1)` is solved by two devices
//! on the load-3 links, while the greedy starts with the load-4 link and
//! ends up with three devices.
//!
//! Output: one row per algorithm with its device count and selection.

use placement::instance::PpmInstance;
use placement::passive::{brute_force_ppm, greedy_adaptive, greedy_static};
use placement::solve::{solve_instance, SolveRequest};

fn main() {
    let inst = PpmInstance::new(
        5,
        vec![
            (2.0, vec![0, 1]),
            (2.0, vec![0, 2]),
            (1.0, vec![1, 3]),
            (1.0, vec![2, 4]),
        ],
    );

    println!("algorithm,devices,edges,coverage");
    let greedy = greedy_static(&inst, 1.0).expect("feasible");
    println!(
        "greedy_static,{},{:?},{}",
        greedy.device_count(),
        greedy.edges,
        greedy.coverage
    );
    let adaptive = greedy_adaptive(&inst, 1.0).expect("feasible");
    println!(
        "greedy_adaptive,{},{:?},{}",
        adaptive.device_count(),
        adaptive.edges,
        adaptive.coverage
    );
    let ilp = solve_instance(&inst, &SolveRequest::ppm(1.0))
        .expect("valid request")
        .into_ppm()
        .expect("feasible");
    println!(
        "ilp,{},{:?},{}",
        ilp.device_count(),
        ilp.edges,
        ilp.coverage
    );
    let brute = brute_force_ppm(&inst, 1.0).expect("feasible");
    println!(
        "brute_force,{},{:?},{}",
        brute.device_count(),
        brute.edges,
        brute.coverage
    );

    assert_eq!(
        greedy.device_count(),
        3,
        "paper: greedy gives three measurement points"
    );
    assert_eq!(
        ilp.device_count(),
        2,
        "paper: an optimal solution is two measurement points"
    );
    eprintln!("figure 3 reproduced: greedy = 3 devices, optimal = 2 devices");
}
