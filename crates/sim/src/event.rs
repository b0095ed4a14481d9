//! The future event list.
//!
//! A simulation is driven by popping events off an [`EventQueue`] in
//! non-decreasing time order. Ties are broken by scheduling order (a
//! monotonically increasing sequence number), which makes the execution
//! order a *total* order and hence the whole simulation deterministic.
//!
//! # Implementation
//!
//! The queue is an indexed 4-ary min-heap over a slab of scheduled
//! entries. The heap stores slot indices ordered by `(time, seq)`; each
//! slab entry remembers its current heap position, so [`EventQueue::cancel`]
//! removes the entry from the middle of the heap in O(log n) — there is no
//! tombstone set to consult on every pop, and no hashing anywhere on the
//! schedule/pop/cancel paths. Slots are recycled through a free list;
//! a stale handle (the event already fired or was cancelled) is detected
//! by comparing the handle's sequence number against the slot's current
//! occupant.

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Ordering and equality follow the scheduling sequence number, so ids
/// compare in scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    /// Scheduling sequence number; compared first, and unique per event.
    seq: u64,
    /// Slab slot the event occupied when scheduled.
    slot: u32,
}

impl EventId {
    /// Returns the raw sequence number backing this id.
    pub fn as_u64(self) -> u64 {
        self.seq
    }
}

/// Branching factor of the heap. A wider node trades deeper comparisons
/// per `sift_down` level for a much shallower tree, which wins for the
/// pop-heavy workload of a DES kernel.
const D: usize = 4;

/// A slab entry. `payload: None` marks a free slot (its index is on the
/// free list and `seq`/`pos` are stale).
#[derive(Debug)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
    /// Current index in `EventQueue::heap`.
    pos: u32,
    payload: Option<E>,
}

/// A deterministic future event list over payload type `E`.
///
/// # Examples
///
/// ```
/// use wadc_sim::event::EventQueue;
/// use wadc_sim::time::{SimDuration, SimTime};
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_secs(2), "second");
/// q.schedule_in(SimDuration::from_secs(1), "first");
/// let (t, _, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_secs(1), "first"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Slot indices, heap-ordered by the slots' `(at, seq)`.
    heap: Vec<u32>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            high_water: 0,
        }
    }

    /// Restores the queue to its freshly-constructed state — clock at
    /// zero, sequence counter at zero, nothing scheduled — while keeping
    /// every buffer's capacity. A reset queue is indistinguishable from
    /// `EventQueue::new()` to any caller (same ids, same order, same
    /// high-water), so run arenas can recycle queues between runs.
    ///
    /// Payloads still scheduled are dropped; callers that pool payload
    /// boxes should drain the queue first.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.high_water = 0;
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live (not cancelled) events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deepest the queue has ever been: the maximum of [`len`] over
    /// every schedule so far. Maintained unconditionally (one compare per
    /// schedule) so observability hooks can read it without having been
    /// attached from the start.
    ///
    /// [`len`]: EventQueue::len
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The heap ordering key of the slot at heap position `pos`.
    #[inline]
    fn key_at(&self, pos: usize) -> (SimTime, u64) {
        let s = &self.slots[self.heap[pos] as usize];
        (s.at, s.seq)
    }

    /// Moves the entry at heap position `pos` rootward while it precedes
    /// its parent; returns its final position.
    fn sift_up(&mut self, mut pos: usize) -> usize {
        while pos > 0 {
            let parent = (pos - 1) / D;
            if self.key_at(pos) < self.key_at(parent) {
                self.heap.swap(pos, parent);
                self.slots[self.heap[pos] as usize].pos = pos as u32;
                self.slots[self.heap[parent] as usize].pos = parent as u32;
                pos = parent;
            } else {
                break;
            }
        }
        pos
    }

    /// Moves the entry at heap position `pos` leafward while any child
    /// precedes it.
    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let first = pos * D + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + D).min(self.heap.len());
            let mut best = first;
            let mut best_key = self.key_at(first);
            for c in (first + 1)..last {
                let k = self.key_at(c);
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key < self.key_at(pos) {
                self.heap.swap(pos, best);
                self.slots[self.heap[pos] as usize].pos = pos as u32;
                self.slots[self.heap[best] as usize].pos = best as u32;
                pos = best;
            } else {
                break;
            }
        }
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; in debug builds it panics,
    /// in release builds the event fires "now" (at the current clock value).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than [`EventQueue::now`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling event in the past");
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let pos = self.heap.len() as u32;
        let slot = match self.free.pop() {
            Some(s) => {
                let entry = &mut self.slots[s as usize];
                entry.at = at;
                entry.seq = seq;
                entry.pos = pos;
                entry.payload = Some(payload);
                s
            }
            None => {
                self.slots.push(Slot {
                    at,
                    seq,
                    pos,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(slot);
        self.high_water = self.high_water.max(self.heap.len());
        self.sift_up(self.heap.len() - 1);
        EventId { seq, slot }
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule(self.now + delay, payload)
    }

    /// Schedules `payload` to fire at the current time, after all events
    /// already scheduled for the current time.
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule(self.now, payload)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (and will now never fire), `false` if it had already
    /// fired or been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            // The slot is free, or recycled by a later event: the handle's
            // event already fired or was already cancelled.
            Some(s) if s.payload.is_some() && s.seq == id.seq => {}
            _ => return false,
        }
        let pos = self.slots[id.slot as usize].pos as usize;
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos < self.heap.len() {
            self.slots[self.heap[pos] as usize].pos = pos as u32;
            // The entry moved into the hole came from a leaf; it may belong
            // either rootward or leafward of the hole.
            if self.sift_up(pos) == pos {
                self.sift_down(pos);
            }
        }
        let entry = &mut self.slots[id.slot as usize];
        entry.payload = None;
        self.free.push(id.slot);
        true
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        let &root = self.heap.first()?;
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.slots[self.heap[0] as usize].pos = 0;
            self.sift_down(0);
        }
        let entry = &mut self.slots[root as usize];
        let at = entry.at;
        let seq = entry.seq;
        let payload = entry.payload.take().expect("scheduled slot has a payload");
        self.free.push(root);
        self.now = at;
        Some((at, EventId { seq, slot: root }, payload))
    }

    /// Returns the timestamp of the next live event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&s| self.slots[s as usize].at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        let (_, _, e) = q.pop().unwrap();
        assert_eq!(e, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), ());
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_slot_reuse_returns_false() {
        // After an event fires, its slab slot is recycled by the next
        // schedule; the stale handle must not cancel the new occupant.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "old");
        q.pop();
        q.schedule(SimTime::from_secs(2), "new");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().2, "new");
    }

    #[test]
    fn schedule_now_orders_after_existing_same_time_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.schedule_now(2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn ties_break_by_scheduling_order_not_insertion_pattern() {
        // Tie order must follow *scheduling* order even when the tied
        // events are interleaved with earlier and later ones, and must
        // survive cancellations in the middle of the tie group.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        q.schedule(t, "x");
        q.schedule(SimTime::from_secs(3), "early");
        let y = q.schedule(t, "y");
        q.schedule(SimTime::from_secs(9), "late");
        q.schedule(t, "z");
        q.cancel(y);
        q.schedule(t, "w");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["early", "x", "z", "w", "late"]);
    }

    #[test]
    fn same_time_events_scheduled_while_popping_run_last() {
        // An event scheduled for "now" from inside a handler (the engine's
        // schedule_now fast path for co-located messages) runs after every
        // event already pending at that instant.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 2);
        let mut order = Vec::new();
        while let Some((_, _, e)) = q.pop() {
            order.push(e);
            if e == 1 {
                q.schedule_now(3);
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(5), "second");
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    fn matches_reference_model_under_random_churn() {
        // Drive the indexed heap and a naive sorted-list model with the
        // same deterministic schedule/cancel/pop mix; every pop must agree
        // on (time, seq, payload). This pins the exact total order the
        // golden digests depend on.
        use crate::rng::Rng64;

        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: Vec<(SimTime, u64, u64)> = Vec::new(); // (at, seq, payload)
        let mut ids: Vec<EventId> = Vec::new();
        let mut rng = Rng64::seed_from_u64(0xC0FFEE);
        for step in 0..5_000u64 {
            match rng.range_usize(4) {
                // Schedule (twice as likely as the other ops).
                0 | 1 => {
                    let at = q.now() + SimDuration::from_micros(rng.range_u64(0, 1_000));
                    let id = q.schedule(at, step);
                    model.push((at.max(q.now()), id.as_u64(), step));
                    ids.push(id);
                }
                // Cancel a remembered id (possibly already fired).
                2 if !ids.is_empty() => {
                    let id = ids.swap_remove(rng.range_usize(ids.len()));
                    let in_model = model.iter().position(|&(_, seq, _)| seq == id.as_u64());
                    assert_eq!(q.cancel(id), in_model.is_some());
                    if let Some(i) = in_model {
                        model.swap_remove(i);
                    }
                }
                // Pop.
                _ => {
                    model.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
                    let expected = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    let got = q.pop().map(|(at, id, e)| (at, id.as_u64(), e));
                    assert_eq!(got, expected, "divergence at step {step}");
                }
            }
            assert_eq!(q.len(), model.len());
            model.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
            assert_eq!(q.peek_time(), model.first().map(|&(at, _, _)| at));
        }
        // Drain: order must match the model exactly.
        model.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        let drained: Vec<(SimTime, u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(at, id, e)| (at, id.as_u64(), e))
            .collect();
        assert_eq!(drained, model);
    }

    #[test]
    fn reset_queue_is_indistinguishable_from_fresh() {
        let mut q = EventQueue::new();
        for i in 0..40 {
            q.schedule(SimTime::from_secs(i % 5), i);
        }
        for _ in 0..25 {
            q.pop();
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.high_water(), 0);
        // Same ids, same order, same clock as a brand-new queue.
        let mut fresh = EventQueue::new();
        let seqs: Vec<u64> = (0..10)
            .map(|i| q.schedule(SimTime::from_secs(10 - i), i).as_u64())
            .collect();
        let fresh_seqs: Vec<u64> = (0..10)
            .map(|i| fresh.schedule(SimTime::from_secs(10 - i), i).as_u64())
            .collect();
        assert_eq!(seqs, fresh_seqs);
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| fresh.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..5 {
            q.schedule(SimTime::from_secs(i + 1), i as u32);
        }
        assert_eq!(q.high_water(), 5);
        q.pop();
        q.pop();
        // Draining never lowers the high-water mark ...
        assert_eq!(q.high_water(), 5);
        q.schedule(SimTime::from_secs(60), 9);
        // ... and refilling below the peak leaves it unchanged.
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water(), 5);
    }
}
