//! Stable-ordered event queue.
//!
//! The heap orders 16-byte keys, `(time_us, seq << 24 | slot)` packed into
//! one `u128`; the events themselves wait in a slab of 1024-slot chunks
//! beside it, so a sift moves and compares a key and never a payload.
//! A place in that order can be reserved ahead of its event ([`Ticket`]):
//! the event enters the heap only if it is ever scheduled, and pops where it
//! would have popped had it been scheduled when its place was reserved.
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

/// A place in the scheduler's `(time, seq)` order: a heap key without its
/// slot. Tickets compare in pop order, and the default ticket precedes
/// every place a scheduler hands out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u128);

impl Ticket {
    /// The place of sequence number `seq` at `at`.
    #[inline]
    fn new(at: SimTime, seq: u64) -> Ticket {
        Ticket(u128::from(at.as_micros()) << 64 | u128::from(seq) << SLOT_BITS)
    }

    /// The instant this place falls on.
    #[inline]
    fn time(self) -> SimTime {
        time_of(self.0)
    }
}

/// A deterministic future-event list.
///
/// The scheduler tracks the current simulation time: it advances to an
/// event's timestamp when the event is popped. Scheduling in the past is a
/// logic error and panics (it would silently reorder causality otherwise).
/// Events at equal times pop in insertion order: a key's sequence number is
/// unique, so the slot in its low bits never decides. An event scheduled
/// into a [`Scheduler::reserve`]d place pops in reservation order instead.
pub struct Scheduler<E> {
    /// Min-heap of keys `time_us << 64 | seq << SLOT_BITS | slot`: one
    /// integer compare orders `(time, seq)`.
    heap: BinaryHeap<Reverse<u128>>,
    /// Event payloads: slot `s` is `chunks[s >> CHUNK_BITS][s % CHUNK]`.
    /// Every slot handed out since the heap last drained is pending or free.
    chunks: Vec<Vec<Option<E>>>,
    /// Freed slots; the last one freed is reused first.
    free: Vec<u32>,
    /// The place of the last event popped (or the one
    /// [`Scheduler::advance_to`] moved to); its time is the clock.
    cursor: Ticket,
    /// The next sequence number. It starts at 1: the default ticket,
    /// sequence 0 at time zero, is never handed out, so it precedes every
    /// place that is.
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
crate::clone_in_place!(Scheduler<E> { heap, chunks, free, cursor, seq });

impl<E> Scheduler<E> {
    /// Empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            chunks: Vec::new(),
            free: Vec::new(),
            cursor: Ticket::default(),
            seq: 1,
        }
    }

    /// Current simulation time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.cursor.time()
    }

    /// The place of the event being handled: the last one popped. A
    /// reserved place after it has not been reached yet.
    #[inline]
    pub fn cursor(&self) -> Ticket {
        self.cursor
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
        let ticket = self.reserve(at);
        self.schedule_reserved(ticket, event);
    }

    /// Take the place an event scheduled at `at` now would take, without
    /// scheduling one: it uses up a sequence number exactly as
    /// [`Scheduler::schedule_at`] does. A place never scheduled into costs
    /// nothing more.
    pub fn reserve(&mut self, at: SimTime) -> Ticket {
        assert!(
            at >= self.now(),
            "scheduling into the past: at={at} < now={now}",
            at = at.as_micros(),
            now = self.now().as_micros()
        );
        assert!(
            self.seq < MAX_SEQ,
            "scheduler sequence exhausted: {MAX_SEQ} events inserted"
        );
        let ticket = Ticket::new(at, self.seq);
        self.seq += 1;
        ticket
    }

    /// Schedule `event` into a place [`Scheduler::reserve`] handed out and
    /// the clock has not passed. At most one event may fill a place.
    pub fn schedule_reserved(&mut self, ticket: Ticket, event: E) {
        assert!(
            ticket > self.cursor,
            "scheduling into the past: a reserved place at={at} the clock has passed",
            at = ticket.time().as_micros()
        );
        let slot = self.park(event);
        self.heap.push(Reverse(ticket.0 | u128::from(slot)));
    }

    /// Schedule `event` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule_at(self.now() + delay, event);
    }

    /// Move the clock of a drained scheduler to `at`, past every place
    /// reserved so far: where popping events scheduled into the places
    /// reserved up to `at` would have left it.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now(), "advancing into the past");
        assert!(self.is_empty(), "advancing past a pending event");
        self.cursor = Ticket::new(at, self.seq - 1);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        debug_assert!(key > self.cursor.0);
        self.cursor = Ticket(key & !SLOT_MASK);
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
        let time = self.now();
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
        /// The sequence number of the last entry popped.
        popped: u64,
        seq: u64,
    }

    impl<E> Reference<E> {
        fn new() -> Self {
            Reference {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                popped: 0,
                seq: 1,
            }
        }

        /// Use up a sequence number, as a place reserved and never filled
        /// does.
        fn skip(&mut self) {
            self.seq += 1;
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
            self.popped = e.seq;
            Some((e.time, e.event))
        }

        /// The place of the next entry.
        fn next(&self) -> Option<Ticket> {
            self.heap.peek().map(|e| Ticket::new(e.time, e.seq))
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
    fn advance_to_passes_every_reserved_place() {
        let mut s = Scheduler::new();
        assert!(Ticket::default() < s.reserve(SimTime::ZERO));
        s.schedule_at(SimTime::from_millis(1), 0);
        let late = s.reserve(SimTime::from_millis(9));
        let later = s.reserve(SimTime::from_millis(9));
        s.pop();
        assert!(s.cursor() < late);
        s.advance_to(SimTime::from_millis(9));
        assert_eq!(s.now(), SimTime::from_millis(9));
        assert!(s.cursor() > late && s.cursor() >= later);
        // A place reserved afterwards lies ahead of the cursor again.
        let next = s.reserve(SimTime::from_millis(9));
        assert!(s.cursor() < next);
        s.schedule_reserved(next, 1);
        assert_eq!(s.pop(), Some((SimTime::from_millis(9), 1)));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_a_reserved_place_the_clock_has_passed() {
        let mut s = Scheduler::new();
        let t = s.reserve(SimTime::from_millis(2));
        s.schedule_at(SimTime::from_millis(3), 0);
        s.pop();
        s.schedule_reserved(t, 1);
    }

    #[test]
    #[should_panic(expected = "advancing past a pending event")]
    fn advance_to_rejects_a_pending_event() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_millis(2), ());
        s.advance_to(SimTime::from_millis(1));
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
        /// `n` places at `now + 0..spread` µs, each either filled later
        /// (the reference schedules its event now) or never (a lapse).
        Reserve {
            n: usize,
            spread: u64,
        },
        /// Fill every reserved place now, ahead of its turn.
        FillAll,
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
        match rng.gen_range(0u32..19) {
            16 | 17 => Step::Reserve {
                n: rng.gen_range(1usize..CHUNK),
                spread: rng.gen_range(1u64..40_000_000),
            },
            18 => Step::FillAll,
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

    /// Places reserved in the scheduler whose events the reference already
    /// holds, with their payloads.
    type Held = Vec<(Ticket, u64)>;

    fn assert_same(s: &Scheduler<u64>, r: &Reference<u64>, held: &Held, at: &str) {
        assert_eq!(s.now(), r.now, "{at}: now");
        assert_eq!(s.cursor(), Ticket::new(r.now, r.popped), "{at}: cursor");
        assert_eq!(s.len() + held.len(), r.heap.len(), "{at}: len");
        let next_held = held.iter().map(|&(t, _)| t.time()).min();
        let next = match (s.peek_time(), next_held) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        assert_eq!(next, r.heap.peek().map(|e| e.time), "{at}: peek_time");
    }

    /// Pop both queues once and compare, first filling the reserved
    /// place whose turn it is, as the engine fills an MRAI timer's place
    /// before the clock reaches it. Returns whether an event popped.
    fn pop_both(s: &mut Scheduler<u64>, r: &mut Reference<u64>, held: &mut Held, at: &str) -> bool {
        if let Some(next) = r.next() {
            if let Some(i) = held.iter().position(|&(t, _)| t == next) {
                let (ticket, payload) = held.swap_remove(i);
                s.schedule_reserved(ticket, payload);
            }
        }
        let want = r.pop();
        assert_eq!(s.pop(), want, "{at}");
        want.is_some()
    }

    #[test]
    fn keys_and_slab_pop_exactly_as_the_reference() {
        let (mut chunks_above, mut chunks_below) = (0, 0);
        let (mut filled, mut lapsed) = (0, 0);
        check::cases(96, 0x5c4e_d01e, |rng| {
            let mut s: Scheduler<u64> = Scheduler::new();
            let mut r: Reference<u64> = Reference::new();
            let mut held: Held = Vec::new();
            // Snapshots taken at different depths, so a rewind lands on a
            // source holding more chunks than the target, or fewer.
            let mut saved: [(Scheduler<u64>, Reference<u64>, Held); 3] =
                std::array::from_fn(|_| (Scheduler::new(), Reference::new(), Vec::new()));
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
                    Step::Reserve { n, spread } => {
                        for _ in 0..n {
                            let t = SimTime::from_micros(
                                s.now().as_micros() + rng.gen_range(0..spread),
                            );
                            let ticket = s.reserve(t);
                            if rng.gen_range(0u32..3) == 0 {
                                r.skip();
                                lapsed += 1;
                            } else {
                                r.schedule_at(t, payload);
                                held.push((ticket, payload));
                                payload += 1;
                                filled += 1;
                            }
                        }
                    }
                    Step::FillAll => {
                        for (ticket, payload) in held.drain(..) {
                            s.schedule_reserved(ticket, payload);
                        }
                    }
                    Step::Pop { n } => {
                        for _ in 0..n {
                            pop_both(&mut s, &mut r, &mut held, &at);
                            assert_same(&s, &r, &held, &at);
                        }
                    }
                    Step::Drain => {
                        while pop_both(&mut s, &mut r, &mut held, &at) {}
                        assert!(held.is_empty());
                        assert!(s.free.is_empty() && s.chunks.iter().all(Vec::is_empty));
                    }
                    Step::Checkpoint { into } => {
                        saved[into] = (s.clone(), r.clone(), held.clone());
                    }
                    Step::Rewind { from } => {
                        let (saved_s, saved_r, saved_held) = &saved[from];
                        match s.chunks.len().cmp(&saved_s.chunks.len()) {
                            Ordering::Greater => chunks_above += 1,
                            Ordering::Less => chunks_below += 1,
                            Ordering::Equal => {}
                        }
                        s.clone_from(saved_s);
                        r.clone_from(saved_r);
                        held.clone_from(saved_held);
                    }
                }
                assert_same(&s, &r, &held, &at);
            }
            while pop_both(&mut s, &mut r, &mut held, "final drain") {}
            assert!(s.is_empty() && held.is_empty());
        });
        // Both rewind directions were exercised, more than a few times,
        // and reserved places were both filled and left to lapse.
        assert!(
            chunks_above >= 8 && chunks_below >= 8,
            "{chunks_above} / {chunks_below}"
        );
        assert!(filled >= 1000 && lapsed >= 500, "{filled} / {lapsed}");
    }
}
