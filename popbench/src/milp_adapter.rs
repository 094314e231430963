//! The benchmark's only call into `milp`'s solve methods. When the
//! solver's API changes, this is the one function to retarget.

use milp::Solution;
use placement::passive::build_lp2;
use placement::PpmInstance;

/// The root relaxation of Linear Program 2 on `inst` at coverage `k`.
pub fn lp2_root(inst: &PpmInstance, k: f64) -> Result<Solution, String> {
    let (model, _) = build_lp2(inst, k);
    model
        .solve_lp()
        .map_err(|e| format!("LP2 root relaxation failed: {e}"))
}
