//! Data-plane tracing and transient-problem accounting.
//!
//! The paper's headline metric (Figures 2 and 3) is the *number of ASes
//! experiencing transient problems* — routing loops or loss of reachability
//! — while the control plane converges after an injected routing event.
//! This crate measures it:
//!
//! * [`view`] — the [`view::ForwardingView`] abstraction: a deterministic
//!   forwarding function over `(AS, packet context)` states. One
//!   [`view::EngineView`] serves every protocol; plain BGP, R-BGP (pinned
//!   failover circuits) and STAMP (colour × switched-bit contexts, §5.1's
//!   at-most-one colour switch) each say only their forwarding step
//!   ([`view::DataPlane`]);
//! * [`trace`] — classification of every AS's data path as
//!   delivered / loop / blackhole in O(states) via memoised walks of the
//!   functional graph, from scratch (the oracle);
//! * [`tracker`] — accumulation across a convergence window: an AS counts
//!   as *affected* if its packets would loop or blackhole at any
//!   observation instant while the post-event topology still admits a
//!   valley-free path from it (permanent partition is not a *transient*
//!   problem). It keeps the classification up to date incrementally
//!   (`classifier`): one observation re-examines the rows the engine's
//!   touched feed reports and the states that reach a changed one. A
//!   tracker can start from a baseline's [`Classification`] instead of
//!   from nothing, so that even its first observation costs only what
//!   changed since the baseline.

#![forbid(unsafe_code)]

mod classifier;
pub mod trace;
pub mod tracker;
pub mod view;

pub use classifier::Classification;
pub use trace::{classify_all, Outcome};
pub use tracker::{ObserverWork, TransientTracker};
pub use view::{
    BgpView, DataPlane, EngineView, ForwardingView, RbgpView, StampView, StaticView, Step,
};
