//! queryd — a resident what-if query service over warm baselines.
//!
//! The campaign runner answers "how does protocol P handle scenario S?"
//! by converging a fresh instance per cell; its warm-start cache
//! (DESIGN.md §12) checkpoints a converged baseline once and forks it
//! per cell, bit-identically. This crate completes that thought:
//! instead of a batch that converges, measures and exits, a *daemon*
//! converges every `(protocol, destination)` baseline once at startup,
//! keeps the checkpoints resident, and answers an open-ended stream of
//! what-if questions — each one a fork, never a re-convergence.
//!
//! Three layers, separable on purpose:
//!
//! * [`protocol`] — the plain-text wire format: [`protocol::Request`] /
//!   [`protocol::Response`] with the same exact parse/format round-trip
//!   contract as the `.scn` DSL (`format(parse(x)) == canonical(x)`,
//!   byte-for-byte), and typed rejection of junk;
//! * [`engine`] — the resident [`engine::QueryEngine`]: owns the
//!   topology, the converged sessions and the [`stamp_workload`]
//!   baseline cache, and answers each what-if as a cell list through the
//!   campaign runner's own `run_cells`, so every answer is bit-identical
//!   to a cold batch run of the same cell;
//! * [`server`] — serving loops over any `BufRead`/`Write` pair (stdin,
//!   TCP, in-memory buffers for tests).
//!
//! See DESIGN.md §13 for the grammar, the resident-baseline lifecycle
//! and the fork-equals-cold determinism argument.

#![forbid(unsafe_code)]

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{QueryEngine, QueryError, QuerydConfig};
pub use protocol::{
    proto_token, Request, RequestError, Response, ResponseParseError, WhatIfShape,
    MAX_REQUEST_LINE, MAX_SCN_EVENTS,
};
pub use server::{serve, serve_tcp, DaemonArgs, USAGE};
