//! Route policy as data: regimes, a `.pol` DSL, and compiled dense
//! decision tables.
//!
//! The paper's evaluation (§2.1) hardwires one policy world —
//! prefer-customer local preference plus the valley-free export gate.
//! This crate turns that world into *one point in a space*: a
//! [`PolicyRegime`] value bundles per-relation preferences, an ordered
//! import rule list and a per-relation export gate, prints to and parses
//! from a plain-text `.pol` document with the same exact round-trip
//! guarantee the workload crate's `.scn` format has, and lowers to a
//! [`CompiledRegime`] of dense arrays so the simulator's hot paths never
//! interpret rules. Campaigns sweep regimes the way they sweep failure
//! scenarios; the default regime reproduces the original hardwired
//! semantics bit for bit.
//!
//! * [`model`] — [`PrefixSet`], [`CommunitySet`], [`CommunityBits`] (a
//!   fixed 64-bit community word so routes stay `Copy`), [`Matcher`],
//!   [`Action`], [`Rule`] and [`PolicyList`];
//! * [`regime`] — [`PolicyRegime`] plus the four built-ins
//!   (`gao-rexford` default, `shortest-path`, `prefer-peer`,
//!   `long-path-tax`) and a naive reference interpreter for property
//!   tests;
//! * [`dsl`] — the `.pol` printer/parser with typed [`PolError`]s;
//! * [`compile`] — [`CompiledRegime`]: per-relation preference arrays,
//!   the 4×3 export gate matrix, per-relation community deny masks and
//!   pre-folded import rules.
//!
//! The crate deliberately depends only on the topology layer (for
//! [`Relation`](stamp_topology::Relation)): routers hand it flattened
//! facts ([`ImportCtx`]) instead of their own route types, so the
//! dependency arrow points policy ← bgp, never the other way. See
//! DESIGN.md §14.

#![forbid(unsafe_code)]

pub mod compile;
pub mod dsl;
pub mod model;
pub mod regime;

pub use compile::{CompileError, CompiledRegime, ImportCtx, ImportOutcome};
pub use dsl::{parse_pol, valid_name, PolError, PolErrorKind};
pub use model::{
    learned_idx, rel_idx, Action, CommunityBits, CommunitySet, Matcher, PolicyList, PrefixSet, Rule,
};
pub use regime::{PolicyRegime, LEARNED_RELS, TO_RELS};
