//! Path-vector BGP engine over the deterministic event kernel.
//!
//! This crate implements the message-level BGP model the paper simulates
//! (§6.2), structured so the two protocol variants the paper studies —
//! R-BGP (`stamp_rbgp`) and STAMP (`stamp_core`) — reuse the same machinery
//! and run on *identical* scenarios:
//!
//! * [`types`] — prefixes, process instances (STAMP's red/blue "colours"),
//!   routes, the paper's two new path attributes (`Lock`, `ET`), R-BGP's
//!   root-cause information, and update messages;
//! * [`patharena`] — hash-consed AS-path storage: every path is interned
//!   once, routes are `Copy` handles, prepend is an O(1) child intern;
//! * [`rib`] — Adj-RIB-In storage and the BGP decision process, whose
//!   order is one value ([`rib::Criterion`]) and whose one walk can say why
//!   each stored route lost;
//! * [`speaker`] — the [`Speaker`]: everything that is BGP about one AS
//!   (Adj-RIB-In, selections, Adj-RIB-Out, learn → decide → install →
//!   export → advertise), written once and keyed by process, so R-BGP and
//!   STAMP hold one and add only their delta;
//! * [`router`] — the [`router::RouterLogic`] trait every protocol
//!   implements, plus [`router::BgpRouter`], the unmodified-BGP baseline:
//!   a speaker running one process with nothing added;
//! * [`engine`] — the event loop: FIFO sessions with U[10 ms, 20 ms]
//!   delays, peer-based MRAI of 30 s × U[0.75, 1.0] with coalescing,
//!   link/node failure injection, message counters and convergence
//!   detection;
//! * [`feed`] — the touched feed: which ASes' forwarding rows may have
//!   changed since an observer last looked.
//!
//! Omitted BGP features (deliberately, matching the paper's model): iBGP and
//! MED (each AS is one node; the paper argues centralised intra-AS routing
//! sidesteps iBGP issues), route reflection, communities, prefix
//! aggregation, and KEEPALIVE/OPEN session management (sessions exist iff
//! the underlying link is up).

#![forbid(unsafe_code)]

pub mod engine;
pub mod feed;
pub mod patharena;
pub mod rib;
pub mod router;
pub mod speaker;
pub mod types;

pub use engine::{Engine, EngineConfig, RunStats, ScenarioEvent};
pub use feed::{FeedCursor, Touched};
pub use patharena::{PathArena, PathId};
pub use rib::{DecisionOutcome, RibEntry, RibIn};
pub use router::{BgpRouter, OutMsg, RouterCtx, RouterLogic};
pub use speaker::Speaker;
pub use types::{
    Color, EventType, PathAttrs, PrefixId, ProcId, RootCause, Route, UpdateKind, UpdateMsg,
};
