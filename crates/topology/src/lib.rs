//! AS-level Internet topology model for the STAMP reproduction.
//!
//! This crate provides every *static* (non-simulated) piece of the paper's
//! world model:
//!
//! * [`graph`] — the relationship-annotated AS graph (customer–provider and
//!   peer–peer links): one adjacency table every neighbour list is a slice
//!   of, one constructor, [`GraphBuilder::build`] as the validator of the
//!   acyclicity assumption the paper relies on (§2.1, footnote 1), and
//!   [`AsGraph::without_links`] as a filter that needs no second validation.
//! * [`path`] — AS paths, the valley-free state machine, and the
//!   uphill/downhill decomposition that Lemmas 3.1/3.2 are stated over.
//! * [`routing`] — a static solver for the unique Gao–Rexford stable routing
//!   state (prefer-customer, valley-free export, shortest AS path,
//!   deterministic tiebreak). Used as ground truth for simulator convergence
//!   and for "does a policy path still exist" reachability queries.
//! * [`gen`] — a seeded synthetic Internet-like topology generator
//!   (substitute for the paper's RouteViews-derived snapshot; see DESIGN.md §2).
//! * [`caida`] — CAIDA serial-1 relationship file I/O so real inferred
//!   topologies can be dropped in.
//! * [`infer`] — Gao's AS relationship inference algorithm (the paper infers
//!   its topology with it; we close the loop by re-inferring from simulated
//!   routing tables).
//! * [`uphill`] — the customer→provider DAG: path counting to tier-1 ASes and
//!   uniform path sampling, the machinery behind the paper's Φ analysis.
//! * [`disjoint`] — node-disjointness queries over the uphill DAG (good
//!   locked-blue-path checks, 2-disjoint-paths existence via unit max-flow).
//!
//! Everything is deterministic given a seed; nothing here performs I/O other
//! than the explicit CAIDA (de)serialisers.

#![forbid(unsafe_code)]

pub mod caida;
pub mod disjoint;
pub mod error;
pub mod gen;
pub mod graph;
pub mod infer;
pub mod path;
pub mod routing;
pub mod uphill;

pub use error::TopologyError;
pub use gen::{generate, GenConfig};
pub use graph::{
    AsGraph, AsId, GraphBuilder, LinkId, LinkKind, Relation, SessEnds, SessEntry, SessId,
};
pub use path::{split_uphill_downhill, ValleyCheck};
pub use routing::{RouteKind, StaticRoute, StaticRoutes};
