//! Event queue internals: a slab-backed hierarchical timer wheel in front of a ready heap.
//!
//! * Payloads live in a **slab** (payload and sequence arrays plus a free list). Slots are
//!   reused, so a steady-state simulation performs no allocation per event, and every slot
//!   records the **sequence number** of its occupant: cancellation just clears it and frees
//!   the slot — `O(1)`, no tombstone set — and stale timing entries are skipped when they
//!   surface.
//! * Timing lives in the **wheel**: [`LEVELS`] levels of 64 buckets, each level covering 64×
//!   the span of the one below (tick = 2^[`TICK_SHIFT`] ns). An entry is bucketed by the
//!   highest 6-bit digit in which its tick differs from the cursor and cascades toward level 0
//!   as the cursor advances. Push and cancel are `O(1)` amortized.
//! * Entries whose tick the cursor has reached wait in the **ready heap**, a binary min-heap
//!   on `(time, sequence)`: the wheel orders ticks, the heap orders within one. Fixed link
//!   delays put every node's periodic rounds on a shared time lattice, so at 50k gossip
//!   vnodes thousands of entries share one 65 µs tick. The heap keeps push and pop at
//!   `O(log r)` in that population `r`; a sorted buffer would shift the whole tick on nearly
//!   every push, since a new entry almost always carries the largest key of its instant.
//! * Entries beyond the wheel horizon (≈ 52 days of virtual time — mostly "never" timers at
//!   [`SimTime::MAX`]) wait in a small **overflow heap** ordered the same way and are merged
//!   in when the cursor approaches them.
//!
//! Determinism is preserved exactly: every push still draws a global **sequence number**, and
//! both heaps pop in `(time, sequence)` order, so two events scheduled for the same instant
//! always execute in the order they were scheduled — the property the reproduction's
//! byte-identity pins rely on, checked against a reference model queue by
//! `tests/prop_engine.rs`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the tick length in nanoseconds: one tick = 65536 ns (~65 µs). Sub-tick ordering is
/// handled by the `(time, seq)` ready heap, so the tick only bounds bucketing
/// granularity, not timing accuracy — a coarser tick just means fewer cascade hops for the
/// second-scale delays that dominate network scenarios.
const TICK_SHIFT: u32 = 16;
/// log2 of the bucket count per level.
const LEVEL_BITS: u32 = 6;
/// Buckets per level.
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Number of wheel levels. Horizon = 64^6 ticks = 2^36 ticks ≈ 52 days of virtual time;
/// longer timers (mostly "never" sentinels) go to the overflow heap.
const LEVELS: usize = 6;
/// Ticks the wheel can represent relative to the cursor.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// Internally this is the event's slab slot plus its globally unique sequence number — the
/// sequence doubles as the liveness tag, so a stale id (the event already fired, was
/// cancelled, or the slot was reused) simply fails to cancel. A 64-bit sequence cannot wrap
/// within any realizable run, unlike a per-slot generation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl EventId {
    /// The event's globally unique sequence number (also its FIFO tie-break rank).
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// A timing entry in the wheel, ready heap or overflow heap. The payload stays in the slab;
/// the entry is a small `Copy` record so bucket moves are cheap.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Heap wrapper ordering entries as a min-heap on `(time, seq)`, shared by the ready and
/// overflow heaps.
struct HeapEntry(Entry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) surfaces first.
        other.0.key().cmp(&self.0.key())
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A cancellable priority queue of timed events (timer wheel + slab, see the module docs).
pub struct EventQueue<E> {
    /// Payload slab; index = [`EventId::slot`]. Kept parallel to `seqs` so the frequent
    /// liveness probes (stale-entry checks during cascading) touch a dense array instead of
    /// striding over fat payload slots.
    payloads: Vec<Option<E>>,
    /// Sequence number of the event currently occupying each slot (`u64::MAX` = free). Stale
    /// wheel entries and ids are detected by comparing against it.
    seqs: Vec<u64>,
    /// Free slab slots awaiting reuse.
    free: Vec<u32>,
    /// `LEVELS * 64` buckets, level-major.
    buckets: Vec<Vec<Entry>>,
    /// One occupancy bit per bucket, per level.
    occupied: [u64; LEVELS],
    /// Entries whose tick the cursor has reached, as a min-heap on `(time, seq)`. Rounds
    /// synchronized on a time lattice put thousands of entries in one tick, so its cost must
    /// stay logarithmic in its population (see the module docs).
    ready: BinaryHeap<HeapEntry>,
    /// Entries beyond the wheel horizon.
    overflow: BinaryHeap<HeapEntry>,
    /// Current wheel position, in ticks. No wheel entry has `tick < cursor`.
    cursor: u64,
    /// Next global sequence number (the FIFO tie-breaker).
    next_seq: u64,
    /// Live (scheduled, not cancelled, not fired) events.
    live: usize,
    /// Scratch buffer for redistributing a bucket without reallocating.
    scratch: Vec<Entry>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            payloads: Vec::new(),
            seqs: Vec::new(),
            free: Vec::new(),
            buckets: (0..LEVELS * SLOTS_PER_LEVEL).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            ready: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            live: 0,
            scratch: Vec::new(),
        }
    }

    /// Pre-sizes the slab for `events` concurrently pending events, so arrival bursts do not
    /// regrow it mid-run.
    pub fn reserve(&mut self, events: usize) {
        let additional = events.saturating_sub(self.payloads.len());
        self.payloads.reserve(additional);
        self.seqs.reserve(additional);
        self.free.reserve(additional);
        self.ready.reserve(events.min(1024));
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slab slots currently allocated (live events plus free-list capacity).
    pub fn slot_capacity(&self) -> usize {
        self.payloads.len()
    }

    /// Schedules `payload` at absolute time `time` and returns its id.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.payloads[i as usize].is_none());
                self.payloads[i as usize] = Some(payload);
                self.seqs[i as usize] = seq;
                i
            }
            None => {
                let i = self.payloads.len() as u32;
                self.payloads.push(Some(payload));
                self.seqs.push(seq);
                i
            }
        };
        self.live += 1;
        self.place(Entry { time, seq, slot });
        EventId { seq, slot }
    }

    /// Cancels a previously scheduled event. Returns true if the event was still pending.
    ///
    /// This is `O(1)`: the payload slot is freed and its generation bumped; the timing entry
    /// left behind in the wheel is skipped when it surfaces.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let index = id.slot as usize;
        match (self.seqs.get(index), self.payloads.get_mut(index)) {
            (Some(&seq), Some(payload)) if seq == id.seq && payload.is_some() => {
                *payload = None;
                self.seqs[index] = u64::MAX;
                self.free.push(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.advance();
        self.ready.peek().map(|e| e.0.time)
    }

    /// Removes and returns the next live event as `(time, id, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.advance();
        self.pop_ready()
    }

    /// Removes and returns the next live event only if it is due at or before `deadline` —
    /// the run loop's fused peek-and-pop (a separate peek would cascade the wheel twice per
    /// event).
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, EventId, E)> {
        self.advance();
        if self.ready.peek()?.0.time > deadline {
            return None;
        }
        self.pop_ready()
    }

    /// Pops the (already advanced-to) next ready entry.
    fn pop_ready(&mut self) -> Option<(SimTime, EventId, E)> {
        let HeapEntry(entry) = self.ready.pop()?;
        debug_assert_eq!(self.seqs[entry.slot as usize], entry.seq);
        let payload = self.payloads[entry.slot as usize]
            .take()
            .expect("live entry has a payload");
        self.seqs[entry.slot as usize] = u64::MAX;
        self.free.push(entry.slot);
        self.live -= 1;
        Some((
            entry.time,
            EventId {
                seq: entry.seq,
                slot: entry.slot,
            },
            payload,
        ))
    }

    /// True if the entry still refers to a live slot. Touches only the dense sequence array.
    fn is_live(&self, e: &Entry) -> bool {
        self.seqs[e.slot as usize] == e.seq
    }

    /// Files a timing entry into the ready heap, a wheel bucket or the overflow heap,
    /// according to its distance from the cursor.
    fn place(&mut self, entry: Entry) {
        let t = tick_of(entry.time);
        if t <= self.cursor {
            self.ready.push(HeapEntry(entry));
            return;
        }
        let diff = t ^ self.cursor;
        let highest_bit = 63 - diff.leading_zeros();
        if highest_bit >= HORIZON_BITS {
            // Beyond the wheel horizon (or a rotation carry at the top level): the overflow
            // heap holds it until the cursor gets close.
            self.overflow.push(HeapEntry(entry));
            return;
        }
        let level = (highest_bit / LEVEL_BITS) as usize;
        let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS_PER_LEVEL as u64 - 1)) as usize;
        self.buckets[level * SLOTS_PER_LEVEL + slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Ensures the top of `ready` is the next live event, cascading wheel buckets and merging
    /// due overflow entries as needed.
    fn advance(&mut self) {
        loop {
            // Skip stale (cancelled) entries as they surface at the top.
            while let Some(&HeapEntry(e)) = self.ready.peek() {
                if self.is_live(&e) {
                    return;
                }
                self.ready.pop();
            }
            if self.live == 0 {
                // Nothing live anywhere: stale bookkeeping is dropped lazily as it surfaces.
                return;
            }
            // Advance the cursor to the earliest pending position: the lowest occupied wheel
            // level always holds the earliest bucket (level-l candidates start strictly after
            // every level-(l-1) candidate by construction), compared against the overflow head.
            let wheel = self.next_wheel_candidate();
            let overflow = self.next_overflow_tick();
            let target = match (wheel, overflow) {
                (Some(w), Some(o)) => w.min(o),
                (Some(w), None) => w,
                (None, Some(o)) => o,
                (None, None) => {
                    debug_assert_eq!(self.live, 0, "live events but nothing scheduled");
                    return;
                }
            };
            debug_assert!(target > self.cursor, "cursor must move forward");
            self.cursor = target;
            // Entering a bucket's range obliges us to cascade it, whatever moved the cursor
            // there — a wheel candidate (its own bucket) or an overflow entry that is due
            // inside a coarser bucket's span.
            self.cascade_entered_buckets();
            self.merge_due_overflow();
        }
    }

    /// Range-start tick of the earliest occupied wheel bucket strictly ahead of the cursor.
    fn next_wheel_candidate(&self) -> Option<u64> {
        for level in 0..LEVELS {
            let shift = LEVEL_BITS * level as u32;
            let digit = (self.cursor >> shift) & (SLOTS_PER_LEVEL as u64 - 1);
            // Occupied slots at this level are strictly ahead of the cursor's digit: buckets at
            // or behind it were cascaded when the cursor entered their range.
            let ahead = self.occupied[level] & !((1u64 << digit) | ((1u64 << digit) - 1));
            if ahead != 0 {
                let slot = ahead.trailing_zeros() as u64;
                // Range start: cursor's digits above this level, the found slot at this level,
                // zeros below.
                let above_mask = !(((1u64 << LEVEL_BITS) << shift) - 1);
                return Some((self.cursor & above_mask) | (slot << shift));
            }
        }
        None
    }

    /// Tick of the earliest live overflow entry, discarding stale heads.
    fn next_overflow_tick(&mut self) -> Option<u64> {
        while let Some(&HeapEntry(e)) = self.overflow.peek() {
            if self.is_live(&e) {
                return Some(tick_of(e.time));
            }
            self.overflow.pop();
        }
        None
    }

    /// Cascades every bucket whose range the cursor now lies in, from the coarsest level down
    /// (entries re-placed from level `l` can land in the cursor's bucket at a level below `l`,
    /// which the next iteration then picks up). Entries whose tick equals the cursor end up in
    /// the ready heap; its `(time, seq)` order restores exact order, so cascade order does not
    /// matter.
    fn cascade_entered_buckets(&mut self) {
        for level in (0..LEVELS).rev() {
            let shift = LEVEL_BITS * level as u32;
            let digit = ((self.cursor >> shift) & (SLOTS_PER_LEVEL as u64 - 1)) as usize;
            if self.occupied[level] & (1u64 << digit) != 0 {
                self.drain_bucket(level, digit);
            }
        }
    }

    /// Empties a bucket, re-placing its live entries relative to the current cursor and
    /// dropping stale (cancelled) ones.
    fn drain_bucket(&mut self, level: usize, slot: usize) {
        let idx = level * SLOTS_PER_LEVEL + slot;
        self.occupied[level] &= !(1u64 << slot);
        let mut scratch = std::mem::take(&mut self.scratch);
        debug_assert!(scratch.is_empty());
        // Swap allocations so steady-state cascading never reallocates bucket storage.
        std::mem::swap(&mut self.buckets[idx], &mut scratch);
        for entry in scratch.drain(..) {
            if self.is_live(&entry) {
                self.place(entry);
            }
        }
        self.scratch = scratch;
    }

    /// Merges overflow entries that are now due (tick ≤ cursor) into the ready heap.
    fn merge_due_overflow(&mut self) {
        while let Some(&HeapEntry(e)) = self.overflow.peek() {
            if !self.is_live(&e) {
                self.overflow.pop();
                continue;
            }
            if tick_of(e.time) > self.cursor {
                break;
            }
            self.overflow.pop();
            self.ready.push(HeapEntry(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn sub_tick_times_pop_in_time_order() {
        // Distinct times within one wheel tick (65536 ns) must still order by time, not seq.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(700), "late");
        q.push(SimTime::from_nanos(5), "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    fn descending_burst_in_one_tick_pops_in_time_then_seq_order() {
        // A lattice burst: 10k entries land in the tick the cursor is in, pushed latest-first
        // (pairs share an instant), so every push carries the largest seq of the tick.
        const N: u64 = 10_000;
        let base = 1u64 << 30; // tick-aligned
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(base), N);
        assert_eq!(
            q.pop().map(|(_, _, p)| p),
            Some(N),
            "moves the cursor into the tick"
        );
        for i in 0..N {
            q.push(SimTime::from_nanos(base + (N - 1 - i) / 2 * 13), i);
        }
        assert_eq!(
            tick_of(SimTime::from_nanos(base + N * 13 / 2)),
            tick_of(SimTime::from_nanos(base))
        );
        let popped: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, id, _)| (t, id.raw()))
            .collect();
        assert_eq!(popped.len(), N as usize);
        assert!(
            popped.windows(2).all(|w| w[0] < w[1]),
            "must pop in ascending (time, seq)"
        );
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { seq: 0, slot: 42 }));
    }

    #[test]
    fn cancelled_slot_is_reused_without_id_confusion() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        assert!(q.cancel(a));
        // The slot is reused for the next push, but the old id must stay dead.
        let b = q.push(SimTime::from_secs(2), "b");
        assert_eq!(a.slot, b.slot, "slot should be reused");
        assert!(!q.cancel(a), "stale id must not cancel the new event");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("b"));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut q = EventQueue::new();
        // Beyond the 19.5 h wheel horizon, including the "never" sentinel.
        q.push(SimTime::MAX, "never");
        q.push(SimTime::from_secs(100_000), "far");
        q.push(SimTime::from_secs(1), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["near", "far", "never"]);
    }

    #[test]
    fn overflow_ties_with_wheel_respect_seq_order() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(100_000);
        q.push(far, "via-overflow"); // seq 0, beyond horizon at cursor 0
                                     // Pop an earlier event to advance the cursor until `far` is within the horizon...
        q.push(SimTime::from_secs(99_000), "advance");
        assert_eq!(q.pop().map(|(_, _, p)| p), Some("advance"));
        // ...then schedule a second event for the same instant; it lands in the wheel but has
        // a larger seq, so the overflow entry must still pop first.
        q.push(far, "via-wheel"); // seq 2
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec!["via-overflow", "via-wheel"]);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 1);
        q.push(SimTime::from_millis(30), 3);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(1));
        // Pushed after a pop, due before the remaining event.
        q.push(SimTime::from_millis(20), 2);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(2));
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(3));
    }

    #[test]
    fn slab_reuses_slots_across_pops() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.push(SimTime::from_millis(round), round);
            let (_, _, p) = q.pop().unwrap();
            assert_eq!(p, round);
        }
        assert!(
            q.slot_capacity() <= 2,
            "steady-state push/pop must reuse slots, got {}",
            q.slot_capacity()
        );
    }

    #[test]
    fn reserve_pre_sizes_the_slab() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.reserve(1000);
        let before = q.payloads.capacity();
        assert!(before >= 1000);
        for i in 0..1000 {
            q.push(SimTime::from_millis(i), i as u32);
        }
        assert_eq!(q.payloads.capacity(), before, "no regrow during the burst");
    }
}
