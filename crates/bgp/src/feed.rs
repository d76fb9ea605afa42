//! The touched feed: which ASes' forwarding rows *may* have changed since
//! an observer last looked.
//!
//! The engine marks an AS every time something its forwarding row reads is
//! written — its router ran an event, or the liveness of one of its own
//! sessions flipped — and an observer that remembers a [`FeedCursor`] asks
//! for the marks made since. Observing therefore costs what the event
//! touched, not what the topology holds (DESIGN.md §12).
//!
//! The feed is a ring of `n` AS ids. An AS already marked since the newest
//! cursor was handed out is not marked again (one compare), so between two
//! looks at most `n` entries are written and an observer that looks at
//! every tick never loses its place. An observer that fell more than a
//! ring behind is told "everything", and so is every observer whose cursor
//! predates a new epoch: the engine starts one when every row may have
//! changed at once — a rewind (`Engine::clone_from` rewrites every router
//! behind the feed's back), or a link or node flip under a router whose
//! rows read liveness beyond its own sessions (`RouterLogic::WIDE_LIVENESS`).

use stamp_topology::AsId;
use std::sync::atomic::{AtomicU64, Ordering};

/// An observer's place in one engine's touched feed. The default cursor
/// has never looked, so its first read reports everything dirty. A cursor
/// belongs to the engine that advanced it (or a clone of that engine taken
/// afterwards); it means nothing to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeedCursor {
    /// Feed epoch the cursor was taken in (`0` = never looked; live epochs
    /// start at 1).
    epoch: u64,
    /// Entries the feed had written when the cursor was taken.
    seq: u64,
}

/// What changed since a cursor last looked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touched<'a> {
    /// Every row may have changed: a first look, a cursor a ring behind,
    /// or one from an earlier epoch (a rewind, or a liveness flip under a
    /// router whose rows read liveness beyond its own sessions).
    All,
    /// Only these ASes' rows may have changed: the two halves of the ring,
    /// oldest first. An AS appears at most once unless another observer
    /// looked in between.
    Rows(&'a [AsId], &'a [AsId]),
}

#[derive(Debug)]
pub(crate) struct TouchFeed {
    /// The ring; fixed length `max(n, 1)`.
    ring: Vec<AsId>,
    /// Next write slot (`head % ring.len()`).
    pos: usize,
    /// Entries ever written.
    head: u64,
    /// Per AS: `head` right after its latest entry (`0` = never written).
    marked_at: Vec<u64>,
    /// `head` when a cursor was last handed out: entries at or below it
    /// are already owed to that cursor, so an AS marked after it need not
    /// be written twice. Atomic only so that readers holding `&Engine` can
    /// move it; writers hold `&mut` and use `get_mut`.
    fence: AtomicU64,
    epoch: u64,
}

impl TouchFeed {
    pub(crate) fn new(n: usize) -> TouchFeed {
        TouchFeed {
            ring: vec![AsId(0); n.max(1)],
            pos: 0,
            head: 0,
            marked_at: vec![0; n],
            fence: AtomicU64::new(0),
            epoch: 1,
        }
    }

    /// `v`'s row may have changed. One compare when `v` is already in the
    /// feed for every cursor that could still read it; one store otherwise.
    // simlint::hot
    #[inline]
    pub(crate) fn touch(&mut self, v: AsId) {
        let fence = *self.fence.get_mut();
        let Some(at) = self.marked_at.get_mut(v.index()).filter(|at| **at <= fence) else {
            return;
        };
        if let Some(slot) = self.ring.get_mut(self.pos) {
            *slot = v;
        }
        self.pos += 1;
        if self.pos == self.ring.len() {
            self.pos = 0;
        }
        self.head += 1;
        *at = self.head;
    }

    /// Every row may have changed behind the feed's back (the engine is
    /// now `n` ASes wide): a new epoch, and every outstanding cursor is
    /// lost.
    pub(crate) fn invalidate(&mut self, n: usize) {
        if self.marked_at.len() != n {
            *self = TouchFeed {
                epoch: self.epoch,
                ..TouchFeed::new(n)
            };
        }
        self.epoch += 1;
    }

    /// The marks made since `cursor` last looked, and move `cursor` to now.
    // simlint::hot
    pub(crate) fn since(&self, cursor: &mut FeedCursor) -> Touched<'_> {
        let seen = *cursor;
        *cursor = FeedCursor {
            epoch: self.epoch,
            seq: self.head,
        };
        // Relaxed: the fence is only ever read through `&mut self`, and
        // handing a `&mut Engine` to another thread already synchronises.
        self.fence.store(self.head, Ordering::Relaxed);
        if seen.epoch != self.epoch {
            return Touched::All;
        }
        let cap = self.ring.len();
        let (older, newer) = match self
            .head
            .checked_sub(seen.seq)
            .and_then(|k| usize::try_from(k).ok())
        {
            Some(k) if k <= self.pos => (self.pos - k..self.pos, 0..0),
            Some(k) if k <= cap => (cap - (k - self.pos)..cap, 0..self.pos),
            _ => return Touched::All,
        };
        match (self.ring.get(older), self.ring.get(newer)) {
            (Some(a), Some(b)) => Touched::Rows(a, b),
            // A slice that cannot be formed: cannot tell.
            _ => Touched::All,
        }
    }
}

impl Clone for TouchFeed {
    fn clone(&self) -> TouchFeed {
        TouchFeed {
            ring: self.ring.clone(),
            pos: self.pos,
            head: self.head,
            marked_at: self.marked_at.clone(),
            fence: AtomicU64::new(self.fence.load(Ordering::Relaxed)),
            epoch: self.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(t: Touched<'_>) -> Option<Vec<u32>> {
        match t {
            Touched::All => None,
            Touched::Rows(a, b) => Some(a.iter().chain(b).map(|v| v.0).collect()),
        }
    }

    #[test]
    fn first_look_is_everything_then_only_what_was_touched() {
        let mut f = TouchFeed::new(4);
        f.touch(AsId(2));
        let mut c = FeedCursor::default();
        assert_eq!(f.since(&mut c), Touched::All);
        assert_eq!(rows(f.since(&mut c)), Some(vec![]));
        f.touch(AsId(1));
        f.touch(AsId(3));
        f.touch(AsId(1));
        assert_eq!(rows(f.since(&mut c)), Some(vec![1, 3]));
        assert_eq!(rows(f.since(&mut c)), Some(vec![]));
    }

    #[test]
    fn nobody_looking_writes_each_as_once() {
        let mut f = TouchFeed::new(3);
        for _ in 0..100 {
            for v in 0..3 {
                f.touch(AsId(v));
            }
        }
        assert_eq!(f.head, 3);
    }

    #[test]
    fn an_as_touched_again_after_a_look_is_reported_again() {
        let mut f = TouchFeed::new(3);
        let mut c = FeedCursor::default();
        f.since(&mut c);
        for round in 0..10 {
            f.touch(AsId(round % 3));
            f.touch(AsId(round % 3));
            assert_eq!(rows(f.since(&mut c)), Some(vec![round % 3]));
        }
    }

    #[test]
    fn the_ring_wraps_and_a_reader_a_ring_behind_is_lost() {
        let mut f = TouchFeed::new(3);
        let (mut slow, mut fast) = (FeedCursor::default(), FeedCursor::default());
        f.since(&mut slow);
        f.touch(AsId(0));
        f.touch(AsId(1));
        f.since(&mut fast);
        f.touch(AsId(1));
        f.touch(AsId(2));
        // Four entries in a ring of three: `fast` reads across the wrap,
        // `slow` fell off the end.
        assert_eq!(rows(f.since(&mut fast)), Some(vec![1, 2]));
        assert_eq!(f.since(&mut slow), Touched::All);
        assert_eq!(rows(f.since(&mut slow)), Some(vec![]));
    }

    #[test]
    fn invalidate_loses_every_cursor() {
        let mut f = TouchFeed::new(2);
        let (mut a, mut b) = (FeedCursor::default(), FeedCursor::default());
        f.since(&mut a);
        f.since(&mut b);
        f.touch(AsId(1));
        assert_eq!(rows(f.since(&mut a)), Some(vec![1]));
        f.invalidate(2);
        assert_eq!(f.since(&mut a), Touched::All);
        assert_eq!(f.since(&mut b), Touched::All);
        assert_eq!(rows(f.since(&mut b)), Some(vec![]));
    }
}
