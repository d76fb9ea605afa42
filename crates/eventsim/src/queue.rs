//! Stable-ordered event queue.
//!
//! The heap orders 16-byte keys, `(time_us, seq << 24 | slot)` packed into
//! one `u128`; the events themselves wait in a slab of 1024-slot chunks
//! beside it, so a sift moves and compares a key and never a payload.
//! DESIGN.md §10.5 has the layout and its bounds.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Low bits of a heap key that name the event's slab slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u128 = (1 << SLOT_BITS) - 1;
/// Slots pending at once: one past the largest slot a key can name.
const MAX_PENDING: u32 = 1 << SLOT_BITS;
/// Insertions over a scheduler's life: one past the largest sequence number
/// the key's high bits hold.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);
/// Slots per slab chunk: 1024 events stay below the allocator's mmap
/// threshold, where one flat buffer of every slot would not.
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;

/// A deterministic future-event list.
///
/// The scheduler tracks the current simulation time: it advances to an
/// event's timestamp when the event is popped. Scheduling in the past is a
/// logic error and panics (it would silently reorder causality otherwise).
/// Events at equal times pop in insertion order: a key's sequence number is
/// unique, so the slot in its low bits never decides.
pub struct Scheduler<E> {
    /// Min-heap of keys `time_us << 64 | seq << SLOT_BITS | slot`: one
    /// integer compare orders `(time, seq)`.
    heap: BinaryHeap<Reverse<u128>>,
    /// Event payloads: slot `s` is `chunks[s >> CHUNK_BITS][s % CHUNK]`.
    /// Every slot handed out since the heap last drained is pending or free.
    chunks: Vec<Vec<Option<E>>>,
    /// Freed slots; the last one freed is reused first.
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

// A rewind keeps the buffers of the chunks both sides hold (`Vec::clone_from`
// copies element-wise into the target's own), and a drained source's chunks
// are empty, so copying it allocates no payload.
crate::clone_in_place!(Scheduler<E> { heap, chunks, free, now, seq });

impl<E> Scheduler<E> {
    /// Empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            chunks: Vec::new(),
            free: Vec::new(),
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
        assert!(
            self.seq < MAX_SEQ,
            "scheduler sequence exhausted: {MAX_SEQ} events inserted"
        );
        let slot = self.park(event);
        let order = self.seq << SLOT_BITS | u64::from(slot);
        self.heap.push(Reverse(
            u128::from(at.as_micros()) << 64 | u128::from(order),
        ));
        self.seq += 1;
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let time = time_of(key);
        debug_assert!(time >= self.now);
        self.now = time;
        // The mask keeps 24 bits, so the conversion cannot fail.
        let slot = u32::try_from(key & SLOT_MASK).unwrap_or(u32::MAX);
        let event = self.cell(slot).and_then(Option::take);
        if self.heap.is_empty() {
            // Drained: every slot is free, and the chunks keep their buffers.
            self.free.clear();
            self.chunks.iter_mut().for_each(Vec::clear);
        } else {
            self.free.push(slot);
        }
        // simlint::allow(panic, "a key in the heap names a slot its event still fills")
        Some((time, event.expect("a pending key names a filled slot")))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| time_of(key))
    }

    /// Store `event` in the last slot freed, or else in the next fresh one,
    /// and return the slot.
    fn park(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            // simlint::allow(panic, "a freed slot lies in a chunk that still holds it")
            *self.cell(slot).expect("a freed slot's chunk holds it") = Some(event);
            return slot;
        }
        // No slot is free, so every slot handed out is pending: the next
        // fresh one is the heap's length.
        let fresh = self.heap.len();
        let slot = u32::try_from(fresh).unwrap_or(u32::MAX);
        assert!(
            slot < MAX_PENDING,
            "scheduler full: {MAX_PENDING} events pending"
        );
        match self.chunks.get_mut(fresh >> CHUNK_BITS) {
            Some(chunk) => chunk.push(Some(event)),
            None => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(Some(event));
                self.chunks.push(chunk);
            }
        }
        slot
    }

    /// The slab cell of a handed-out slot.
    #[inline]
    fn cell(&mut self, slot: u32) -> Option<&mut Option<E>> {
        let slot = slot as usize;
        self.chunks
            .get_mut(slot >> CHUNK_BITS)
            .and_then(|chunk| chunk.get_mut(slot & (CHUNK - 1)))
    }
}

/// The time in a key's high 64 bits.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::time::SimDuration;
    use std::cmp::Ordering;

    /// The reference: every event rides in the heap beside its `(time,
    /// seq)` key.
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

    #[derive(Clone)]
    struct Reference<E> {
        heap: BinaryHeap<Entry<E>>,
        now: SimTime,
        seq: u64,
    }

    impl<E> Reference<E> {
        fn new() -> Self {
            Reference {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        fn schedule_at(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now);
            self.heap.push(Entry {
                time: at,
                seq: self.seq,
                event,
            });
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let e = self.heap.pop()?;
            self.now = e.time;
            Some((e.time, e.event))
        }
    }

    fn payload_capacity<E>(s: &Scheduler<E>) -> usize {
        s.chunks.iter().map(Vec::capacity).sum()
    }

    fn chunk_buffers<E>(s: &Scheduler<E>) -> Vec<*const Option<E>> {
        s.chunks.iter().map(|c| c.as_ptr()).collect()
    }

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
    #[should_panic(expected = "scheduler sequence exhausted")]
    fn rejects_a_sequence_past_its_bits() {
        let mut s = Scheduler::new();
        s.seq = MAX_SEQ;
        s.schedule_at(SimTime::ZERO, ());
    }

    #[test]
    fn len_counts_pending_events() {
        let mut s = Scheduler::new();
        for i in 0..5 {
            s.schedule_at(SimTime::from_millis(i), i);
        }
        s.pop();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn a_drained_copy_holds_no_payload_and_a_rewind_keeps_its_chunks() {
        let mut s = Scheduler::new();
        for i in 0..3 * CHUNK as u64 {
            s.schedule_at(SimTime::from_micros(i % 97), i);
        }
        while s.pop().is_some() {}
        assert_eq!(s.chunks.len(), 3);
        assert!(
            payload_capacity(&s) >= 3 * CHUNK,
            "a drain keeps the buffers"
        );
        assert!(s.chunks.iter().all(Vec::is_empty) && s.free.is_empty());
        let copy = s.clone();
        assert_eq!(payload_capacity(&copy), 0);

        // A working scheduler, rewound onto a source with pending events
        // in fewer chunks than it holds, keeps the buffers it shares.
        let mut source = s.clone();
        for i in 0..CHUNK as u64 + 5 {
            source.schedule_at(SimTime::from_secs(1), i);
        }
        let mine = chunk_buffers(&s);
        s.clone_from(&source);
        assert_eq!(chunk_buffers(&s)[..2], mine[..2]);
        let popped: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(popped, (0..CHUNK as u64 + 5).collect::<Vec<_>>());
        // And a second rewind, onto the drained copy, still allocates nothing.
        let mine = chunk_buffers(&s);
        s.clone_from(&copy);
        assert_eq!(chunk_buffers(&s)[..], mine[..]);
        assert!(s.is_empty());
    }

    /// One step of the random mix, applied to both queues.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// `n` events at `now + 0..spread` µs.
        Schedule {
            n: usize,
            spread: u64,
        },
        /// `n` events at one instant.
        Burst {
            n: usize,
            after: u64,
        },
        /// One event hours ahead.
        FarFuture,
        Pop {
            n: usize,
        },
        Drain,
        /// Snapshot both queues (`clone`) into one of three slots.
        Checkpoint {
            into: usize,
        },
        /// Rewind both onto a slot's snapshot (`clone_from`).
        Rewind {
            from: usize,
        },
    }

    fn step(rng: &mut crate::rng::Rng) -> Step {
        match rng.gen_range(0u32..16) {
            0..=4 => Step::Schedule {
                n: rng.gen_range(1usize..2 * CHUNK),
                spread: rng.gen_range(1u64..40_000_000),
            },
            5 | 6 => Step::Burst {
                n: rng.gen_range(1usize..300),
                after: rng.gen_range(0u64..3),
            },
            7 => Step::FarFuture,
            8..=11 => Step::Pop {
                n: rng.gen_range(1usize..3 * CHUNK),
            },
            12 => Step::Drain,
            13 => Step::Checkpoint {
                into: rng.gen_range(0usize..3),
            },
            _ => Step::Rewind {
                from: rng.gen_range(0usize..3),
            },
        }
    }

    fn assert_same(s: &Scheduler<u64>, r: &Reference<u64>, at: &str) {
        assert_eq!(s.now(), r.now, "{at}: now");
        assert_eq!(s.len(), r.heap.len(), "{at}: len");
        assert_eq!(s.is_empty(), r.heap.is_empty(), "{at}: is_empty");
        assert_eq!(
            s.peek_time(),
            r.heap.peek().map(|e| e.time),
            "{at}: peek_time"
        );
    }

    #[test]
    fn keys_and_slab_pop_exactly_as_the_reference() {
        let (mut chunks_above, mut chunks_below) = (0, 0);
        check::cases(48, 0x5c4e_d01e, |rng| {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut r: Reference<u64> = Reference::new();
            // Snapshots taken at different depths, so a rewind lands on a
            // source holding more chunks than the target, or fewer.
            let mut saved: [(Scheduler<u64>, Reference<u64>); 3] =
                std::array::from_fn(|_| (Scheduler::new(), Reference::new()));
            let mut payload = 0u64;
            for k in 0..rng.gen_range(20usize..60) {
                let st = step(rng);
                let at = format!("step {k} {st:?}");
                match st {
                    Step::Schedule { n, spread } => {
                        for _ in 0..n {
                            let t = SimTime::from_micros(
                                s.now().as_micros() + rng.gen_range(0..spread),
                            );
                            s.schedule_at(t, payload);
                            r.schedule_at(t, payload);
                            payload += 1;
                        }
                    }
                    Step::Burst { n, after } => {
                        let t = s.now() + SimDuration::from_micros(after);
                        for _ in 0..n {
                            s.schedule_at(t, payload);
                            r.schedule_at(t, payload);
                            payload += 1;
                        }
                    }
                    Step::FarFuture => {
                        let t = s.now() + SimDuration::from_secs(rng.gen_range(3_600u64..400_000));
                        s.schedule_at(t, payload);
                        r.schedule_at(t, payload);
                        payload += 1;
                    }
                    Step::Pop { n } => {
                        for _ in 0..n {
                            assert_eq!(s.pop(), r.pop(), "{at}");
                            assert_same(&s, &r, &at);
                        }
                    }
                    Step::Drain => {
                        while let Some(e) = r.pop() {
                            assert_eq!(s.pop(), Some(e), "{at}");
                        }
                        assert_eq!(s.pop(), None, "{at}");
                        assert!(s.free.is_empty() && s.chunks.iter().all(Vec::is_empty));
                    }
                    Step::Checkpoint { into } => saved[into] = (s.clone(), r.clone()),
                    Step::Rewind { from } => {
                        let (saved_s, saved_r) = &saved[from];
                        match s.chunks.len().cmp(&saved_s.chunks.len()) {
                            Ordering::Greater => chunks_above += 1,
                            Ordering::Less => chunks_below += 1,
                            Ordering::Equal => {}
                        }
                        s.clone_from(saved_s);
                        r.clone_from(saved_r);
                    }
                }
                assert_same(&s, &r, &at);
            }
            while let Some(e) = r.pop() {
                assert_eq!(s.pop(), Some(e));
            }
            assert!(s.is_empty());
        });
        // Both rewind directions were exercised, more than a few times.
        assert!(
            chunks_above >= 8 && chunks_below >= 8,
            "{chunks_above} / {chunks_below}"
        );
    }
}
