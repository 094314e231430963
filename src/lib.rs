//! # popmon — Optimal Positioning of Active and Passive Monitoring Devices
//!
//! Facade crate for the reproduction of Chaudet, Fleury, Guérin Lassous,
//! Rivano & Voge, *Optimal Positioning of Active and Passive Monitoring
//! Devices*, CoNEXT 2005.
//!
//! This crate re-exports the whole workspace so that applications can write
//! `use popmon::placement::...` without tracking individual crates:
//!
//! * [`netgraph`] — graph substrate (shortest paths, k-shortest paths);
//! * [`milp`] — from-scratch LP/MIP solver standing in for CPLEX;
//! * [`mcmf`] — min-cost flow and the MECF auxiliary graph;
//! * [`popgen`] — POP topology and traffic-matrix generators;
//! * [`placement`] — the paper's contribution: PPM(k), PPME(h,k),
//!   PPME*(x,h,k) and active beacon placement;
//! * [`engine`] — the parallel scenario engine driving experiment sweeps
//!   across a worker pool with deterministic reports.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and `DESIGN.md` for
//! the crate graph, the experiment index, and the engine's threading
//! model.

#![forbid(unsafe_code)]

pub use engine;
pub use mcmf;
pub use milp;
pub use netgraph;
pub use placement;
pub use popgen;
