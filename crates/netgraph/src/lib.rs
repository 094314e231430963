//! Graph substrate for the POP monitoring library.
//!
//! This crate provides the network model used throughout the reproduction of
//! *Optimal Positioning of Active and Passive Monitoring Devices* (CoNEXT
//! 2005): an undirected multigraph `G = (V, E)` whose nodes are routers (or
//! virtual customer/peer endpoints) and whose edges are communication links.
//!
//! The crate is deliberately small and dependency-free. It offers:
//!
//! * [`Graph`] — an undirected multigraph with per-edge routing weights,
//!   built through [`GraphBuilder`] and stored in adjacency-list form;
//! * [`Path`] — a validated node/edge sequence between two endpoints;
//! * [`dijkstra`] — single-source shortest-path trees and a single-pair
//!   search that avoids given nodes and edges (the re-route primitive of
//!   routed delta chains), with deterministic tie-breaking (so that
//!   experiments are reproducible);
//! * [`ksp`] — Yen's algorithm for the k shortest loopless paths over the
//!   whole graph (it takes no ban list), used for the multi-routed
//!   traffics of the paper's Section 5 and the re-routing campaigns;
//! * [`bfs`] — unweighted traversal and connectivity checks;
//! * [`dot`] — Graphviz export used by the figure-regeneration binaries.
//!
//! # Example
//!
//! ```
//! use netgraph::{GraphBuilder, dijkstra};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node("a");
//! let c = b.add_node("c");
//! let d = b.add_node("d");
//! b.add_edge(a, c, 1.0);
//! b.add_edge(c, d, 1.0);
//! b.add_edge(a, d, 5.0);
//! let g = b.build();
//!
//! let tree = dijkstra::shortest_path_tree(&g, a).expect("valid source");
//! let path = tree.path_to(&g, d).expect("connected");
//! assert_eq!(path.nodes().len(), 3); // a -> c -> d beats the direct 5.0 edge
//! assert_eq!(tree.distance(d), Some(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod dijkstra;
pub mod dot;
mod error;
mod graph;
pub mod ksp;
mod path;

pub use error::GraphError;
pub use graph::{EdgeId, Graph, GraphBuilder, NodeId};
pub use path::Path;

/// Convenience alias used by all algorithms in this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
