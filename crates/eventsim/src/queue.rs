//! Stable-ordered event queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry: ordered by `(time, seq)` so that simultaneous events
/// pop in insertion order (determinism) and the payload never needs `Ord`.
#[derive(Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic future-event list.
///
/// The scheduler tracks the current simulation time: it advances to an
/// event's timestamp when the event is popped. Scheduling in the past is a
/// logic error and panics (it would silently reorder causality otherwise).
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Hand-written so `clone_from` reuses the heap's backing allocation — the
/// engine's checkpoint/restore path restores schedulers in place, and the
/// derived impl would rebuild the heap from scratch on every restore.
impl<E: Clone> Clone for Scheduler<E> {
    fn clone(&self) -> Self {
        Scheduler {
            heap: self.heap.clone(),
            now: self.now,
            seq: self.seq,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // BinaryHeap's clone_from delegates to Vec's, which keeps the
        // existing allocation when capacity suffices.
        self.heap.clone_from(&source.heap);
        self.now = source.now;
        self.seq = source.seq;
    }
}

impl<E> Scheduler<E> {
    /// Empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Current simulation time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at` (must not precede `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} < now={now}",
            at = at.as_micros(),
            now = self.now.as_micros()
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        Some((e.time, e.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(30), "c");
        s.schedule_at(SimTime::from_millis(10), "a");
        s.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(7), ());
        assert_eq!(s.now(), SimTime::ZERO);
        assert_eq!(s.peek_time(), Some(SimTime::from_millis(7)));
        s.pop();
        assert_eq!(s.now(), SimTime::from_millis(7));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), 1);
        s.pop();
        s.schedule_after(SimDuration::from_millis(5), 2);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), ());
        s.pop();
        s.schedule_at(SimTime::from_millis(5), ());
    }

    #[test]
    fn counts_scheduled_events() {
        let mut s = Scheduler::new();
        for i in 0..5 {
            s.schedule_at(SimTime::from_millis(i), i);
        }
        s.pop();
        assert_eq!(s.len(), 4);
    }
}
