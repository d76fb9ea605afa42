//! Facade crate for the STAMP reproduction: re-exports every workspace
//! crate under one roof for the examples and integration tests.
//!
//! STAMP (Liao, Gao, Guérin, Zhang — ReArch'08/CoNEXT 2008) runs a *red*
//! and a *blue* BGP process in every AS; selective announcements to
//! providers make the two computed paths downhill node disjoint, so any
//! single routing event leaves a working path to every destination.
//!
//! The one entry point for running protocols is the [`sim`] facade: a
//! fluent builder ([`sim::Sim::on`]), the closed protocol axis
//! ([`sim::Protocol`]) and a typed probe API ([`sim::Probe`]).
//!
//! # Example: complementary paths on the paper's diamond
//!
//! ```
//! use stamp_repro::bgp::types::{Color, PrefixId};
//! use stamp_repro::sim::Sim;
//! use stamp_repro::topology::{AsId, GraphBuilder};
//! use stamp_repro::workload::{Protocol, RunParams};
//!
//! // Two tier-1 peers, one provider per side, a multi-homed origin below.
//! let mut b = GraphBuilder::new();
//! b.preregister(5);
//! b.peering(0, 1).unwrap();
//! b.customer_of(2, 0).unwrap();
//! b.customer_of(3, 1).unwrap();
//! b.customer_of(4, 2).unwrap();
//! b.customer_of(4, 3).unwrap();
//! let g = b.build().unwrap();
//!
//! // Run STAMP on it through the unified facade: protocol choice is a
//! // builder parameter, not a code path.
//! let prefix = PrefixId(0);
//! let mut sim = Sim::on(&g)
//!     .protocol(Protocol::Stamp)
//!     .originate(AsId(4), prefix)
//!     .seed(1)
//!     .params(RunParams::fast())
//!     .build()
//!     .expect("AS 4 is in the topology");
//! sim.converge();
//!
//! // Every AS ends up with a route on both processes; the typed accessor
//! // reaches STAMP-specific state through the same session.
//! let engine = sim.stamp().expect("built as STAMP");
//! for v in g.ases() {
//!     if v == AsId(4) { continue; }
//!     let r = engine.router(v);
//!     assert!(r.selection(prefix, Color::Red).is_some());
//!     assert!(r.selection(prefix, Color::Blue).is_some());
//! }
//! ```
//!
//! See `DESIGN.md` for the system inventory (§9 covers the sim facade),
//! `EXPERIMENTS.md` for the paper-vs-measured record, and the `examples/`
//! directory for runnable scenarios.

#![forbid(unsafe_code)]

pub use stamp_bgp as bgp;
pub use stamp_core as stamp;
pub use stamp_eventsim as eventsim;
pub use stamp_experiments as experiments;
pub use stamp_forwarding as forwarding;
pub use stamp_policy as policy;
pub use stamp_queryd as queryd;
pub use stamp_rbgp as rbgp;
pub use stamp_topology as topology;
pub use stamp_workload as workload;

pub use stamp_workload::sim;
pub use stamp_workload::sim::Sim;
