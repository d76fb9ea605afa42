//! Deterministic discrete-event simulation kernel.
//!
//! The paper's evaluation (§6.2) uses an event-driven simulator with
//! message-level BGP dynamics: processing and transmission delays uniform in
//! [10 ms, 20 ms] and a peer-based MRAI timer of 30 s × U[0.75, 1.0]. This
//! crate is that simulator's kernel, kept protocol-agnostic:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time;
//! * [`Scheduler`] — a stable-ordered event queue: events at equal times pop
//!   in insertion order, which (together with seeded RNG) makes every run
//!   bit-reproducible;
//! * [`FifoChannel`] — a point-to-point delivery model with random per-message
//!   delay that still preserves FIFO ordering, as BGP sessions run over TCP
//!   and never reorder updates;
//! * [`DelayModel`] / [`LossModel`] — delay sampling and fault injection;
//! * [`rng_stream`] — cheap deterministic derivation of independent RNG
//!   streams from a master seed (delays, MRAI factors, workload and
//!   timeline choices all get their own stream so adding a consumer never
//!   perturbs the others; the topology generator seeds its own `Rng` from
//!   `GenConfig::seed`);
//! * [`fxhash`] — a deterministic FxHash-style fast hasher for the
//!   id-keyed maps that remain off the hot path (SipHash costs more than
//!   the lookup it guards on small integer keys), and [`Fnv1a`], the one
//!   FNV-1a behind every pinned fingerprint;
//! * [`textfmt`] — the one tokenizer of every line-oriented text surface
//!   (`.scn`, `.pol`, queryd requests and frames, argv): line walker,
//!   token [`textfmt::Cursor`], the name charset, the fixed-point assertion.
//!
//! Following the smoltcp design ethos, the kernel is single-threaded and
//! allocation-light; parallelism lives one level up (independent scenario
//! instances run on separate threads in `stamp_workload::run_cells`).

#![forbid(unsafe_code)]

pub mod channel;
pub mod check;
pub mod fxhash;
pub mod queue;
pub mod rng;
pub mod textfmt;
pub mod time;

pub use channel::{DelayModel, FifoChannel, LossModel};
pub use fxhash::{Fnv1a, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use queue::Scheduler;
pub use rng::{derive_seed, rng_stream, Rng};
pub use time::{SimDuration, SimTime};

/// `impl Clone` for a struct whose copy is purely field-wise, from one
/// field list: `clone_in_place!(Type { a, b, c });`, or for a generic
/// struct `clone_in_place!(Type<E> { a, b });` (each parameter bound by
/// `Clone`).
///
/// `clone_from` rewinds `self` onto `source` in place — every field goes
/// through its own `clone_from`, so `Vec`s and hash maps keep their buffers
/// where they can. Both methods destructure without `..`: a field missing
/// from the list does not compile, so a new field cannot be added without
/// a copy decision. Types that share, drop or replace a field (`Engine`,
/// `EngineKind`, `Sim`) write their impl by hand.
#[macro_export]
macro_rules! clone_in_place {
    ($ty:ident $(<$($p:ident),+>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$($p: Clone),+>)? Clone for $ty $(<$($p),+>)? {
            fn clone(&self) -> Self {
                let $ty { $($field),+ } = self;
                $ty { $($field: Clone::clone($field)),+ }
            }

            // simlint::hot
            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),+ } = source;
                $(Clone::clone_from(&mut self.$field, $field);)+
            }
        }
    };
}
