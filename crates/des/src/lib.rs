//! Discrete-event simulation kernel for the iBridge reproduction.
//!
//! The whole storage cluster (clients, network, servers, disks, SSDs) runs
//! in *virtual time*: components schedule typed events on a central
//! calendar and a single-threaded loop dispatches them in timestamp order.
//! Virtual time makes every experiment deterministic for a given seed and
//! lets a laptop "measure" hours of cluster I/O in seconds.
//!
//! The kernel is deliberately small and generic:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`Simulation`] — clock + event calendar with cancellation and a
//!   deterministic, intrinsic tie-break for same-instant events.
//! * [`rng`] — reproducible per-stream random number generators.
//! * [`stats`] — counters, EWMA (the paper's 1/8–7/8 decay), histograms.
//!
//! # Example
//!
//! ```
//! use ibridge_des::{Simulation, SimDuration};
//!
//! let mut sim: Simulation<&'static str> = Simulation::new();
//! sim.schedule_in(SimDuration::from_millis(5), "second");
//! sim.schedule_in(SimDuration::from_millis(1), "first");
//! let (t, ev) = sim.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t.as_nanos(), 1_000_000);
//! ```

pub mod fxhash;
pub mod rng;
pub mod stats;
mod time;

pub use time::{SimDuration, SimTime};

use std::cmp::Ordering;
use std::collections::binary_heap::BinaryHeap;

/// Opaque handle to a scheduled event, used for cancellation.
///
/// Handles are unique over the lifetime of a [`Simulation`]; cancelling an
/// already-fired or already-cancelled event is a harmless no-op.
///
/// Internally a handle packs a slot index into the cancellation slab and
/// that slot's generation at scheduling time, so stale handles (the event
/// fired, the slot was recycled) are detected without any bookkeeping on
/// the dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Sentinel slot for events scheduled through the [`Simulation::post_at`]
/// family: not cancellable, zero slab traffic.
const NO_SLOT: u32 = u32::MAX;

/// Bits of an event key holding the per-node sequence; the source node
/// sits above them.
const SEQ_BITS: u32 = 48;

/// One entry of the cancellation slab. `gen` increments every time the
/// slot is recycled, invalidating old [`EventId`]s.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    cancelled: bool,
}

struct Scheduled<E> {
    at: SimTime,
    /// `(source node) << 48 | (per-node sequence)`: the intrinsic
    /// tie-break for events at the same instant. Comparing the packed
    /// word compares `(node, seq)` lexicographically.
    key: u64,
    slot: u32,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // BinaryHeap is a max-heap; invert so the smallest (time, key) pops
    // first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// A discrete-event simulation: a virtual clock plus an event calendar.
///
/// `E` is the caller-defined event type.
///
/// # Event order
///
/// Events pop in `(time, source node, per-node sequence)` order. Every
/// post names the node it comes from ([`post_from`](Simulation::post_from),
/// [`schedule_from`](Simulation::schedule_from)); the sequence number is
/// drawn from a counter owned by that node, never from a global insertion
/// counter. Two same-instant events therefore fire in an order that is a
/// property of the simulated system — which node sent them, and in what
/// order that node sent them — not of how the caller happened to
/// interleave its posts. The unnamed variants post from node 0, so a
/// caller that never names a node gets plain FIFO tie-breaking.
///
/// Two scheduling families exist:
///
/// * [`schedule_at`](Simulation::schedule_at) and friends return an
///   [`EventId`] for later [`cancel`](Simulation::cancel)lation. Each such
///   event borrows a slot in a small recycled slab; cancellation is a flag
///   write, and the pop path checks the flag by index — no hashing, no
///   allocation.
/// * [`post_at`](Simulation::post_at) and friends are the fire-and-forget
///   fast path for events that are never cancelled (the vast majority in
///   a cluster run): they skip the slab entirely.
pub struct Simulation<E> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    /// Per-node post counters (the intrinsic sequence source), indexed
    /// by node; grown on a node's first post.
    node_seq: Vec<u64>,
    /// Cancellation slab, indexed by `Scheduled::slot`.
    slots: Vec<Slot>,
    /// Recycled slab indices.
    free: Vec<u32>,
    /// Number of cancelled events still sitting in `queue`.
    tombstones: usize,
    dispatched: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation with the clock at time zero.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            node_seq: vec![0],
            slots: Vec::new(),
            free: Vec::new(),
            tombstones: 0,
            dispatched: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far (diagnostics).
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending (not yet fired, not cancelled) events.
    pub fn pending(&self) -> usize {
        self.queue.len() - self.tombstones
    }

    #[inline]
    fn check_future(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
    }

    /// Draws the next intrinsic key for an event posted by `src`.
    #[inline]
    fn alloc_key(&mut self, src: u16) -> u64 {
        let i = src as usize;
        if i >= self.node_seq.len() {
            self.node_seq.resize(i + 1, 0);
        }
        let seq = self.node_seq[i];
        debug_assert!(seq < (1 << SEQ_BITS), "per-node sequence exhausted");
        self.node_seq[i] = seq + 1;
        ((src as u64) << SEQ_BITS) | seq
    }

    /// Schedules `event` at absolute time `at`, returning a handle for
    /// [`cancel`](Simulation::cancel). Prefer [`post_at`](Simulation::post_at)
    /// when the event will never be cancelled.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: an event in the
    /// past would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.schedule_from(0, at, event)
    }

    /// [`schedule_at`](Simulation::schedule_at) on behalf of node `src`:
    /// same-instant ties break by `(src, src's post count)`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_from(&mut self, src: u16, at: SimTime, event: E) -> EventId {
        self.check_future(at);
        let key = self.alloc_key(src);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.slots.len() as u32;
                assert!(slot < NO_SLOT, "cancellation slab exhausted");
                self.slots.push(Slot {
                    gen: 0,
                    cancelled: false,
                });
                slot
            }
        };
        self.queue.push(Scheduled {
            at,
            key,
            slot,
            event,
        });
        EventId::pack(slot, self.slots[slot as usize].gen)
    }

    /// Schedules `event` after delay `d` from now (cancellable).
    pub fn schedule_in(&mut self, d: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + d, event)
    }

    /// Schedules `event` to fire immediately (at the current time, after
    /// any node-0 events already scheduled for this instant; cancellable).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule_at(self.now, event)
    }

    /// Fire-and-forget variant of [`schedule_at`](Simulation::schedule_at):
    /// the event cannot be cancelled, and in exchange the calendar does no
    /// slab bookkeeping on either the push or the pop path. This is the
    /// right call for the millions of protocol events a cluster run emits.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    #[inline]
    pub fn post_at(&mut self, at: SimTime, event: E) {
        self.post_from(0, at, event);
    }

    /// [`post_at`](Simulation::post_at) on behalf of node `src`:
    /// same-instant ties break by `(src, src's post count)`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    #[inline]
    pub fn post_from(&mut self, src: u16, at: SimTime, event: E) {
        self.check_future(at);
        let key = self.alloc_key(src);
        self.queue.push(Scheduled {
            at,
            key,
            slot: NO_SLOT,
            event,
        });
    }

    /// Fire-and-forget [`schedule_in`](Simulation::schedule_in).
    #[inline]
    pub fn post_in(&mut self, d: SimDuration, event: E) {
        self.post_at(self.now + d, event);
    }

    /// Fire-and-forget [`schedule_now`](Simulation::schedule_now).
    #[inline]
    pub fn post_now(&mut self, event: E) {
        self.post_at(self.now, event);
    }

    /// Cancels a previously scheduled event. No-op if it already fired or
    /// was already cancelled (the handle's generation no longer matches).
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot() as usize) {
            if slot.gen == id.gen() && !slot.cancelled {
                slot.cancelled = true;
                self.tombstones += 1;
            }
        }
    }

    /// Recycles the slab slot of a popped cancellable event; returns true
    /// when the event had been cancelled.
    #[inline]
    fn retire_slot(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        let was_cancelled = std::mem::take(&mut s.cancelled);
        self.free.push(slot);
        if was_cancelled {
            self.tombstones -= 1;
        }
        was_cancelled
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the calendar is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(s) = self.queue.pop() {
            if s.slot != NO_SLOT && self.retire_slot(s.slot) {
                continue;
            }
            debug_assert!(s.at >= self.now, "calendar yielded an event in the past");
            self.now = s.at;
            self.dispatched += 1;
            return Some((s.at, s.event));
        }
        None
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(s) = self.queue.peek() {
            if s.slot != NO_SLOT && self.slots[s.slot as usize].cancelled {
                let slot = s.slot;
                self.queue.pop();
                self.retire_slot(slot);
                continue;
            }
            return Some(s.at);
        }
        None
    }

    /// Advances the clock to `t` without dispatching anything.
    ///
    /// Useful at the end of a run to account for trailing idle time.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or if an event is pending before `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot move the clock backwards");
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "advance_to({t:?}) would skip a pending event at {next:?}"
            );
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule_at(SimTime::from_millis(3), 3);
        sim.schedule_at(SimTime::from_millis(1), 1);
        sim.schedule_at(SimTime::from_millis(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim: Simulation<u32> = Simulation::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule_in(SimDuration::from_secs(1), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.pop();
        assert_eq!(sim.now(), SimTime::from_secs(1));
        // schedule_in is relative to the new now.
        sim.schedule_in(SimDuration::from_secs(1), ());
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    fn cancelled_events_are_skipped() {
        let mut sim: Simulation<u32> = Simulation::new();
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        sim.schedule_at(SimTime::from_millis(2), 2);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        let (_, e) = sim.pop().unwrap();
        assert_eq!(e, 2);
        assert!(sim.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim: Simulation<u32> = Simulation::new();
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        let (_, e) = sim.pop().unwrap();
        assert_eq!(e, 1);
        sim.cancel(a);
        sim.schedule_at(SimTime::from_millis(2), 2);
        assert_eq!(sim.pop().unwrap().1, 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        sim.pop();
        sim.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut sim: Simulation<u32> = Simulation::new();
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        sim.schedule_at(SimTime::from_millis(5), 2);
        sim.cancel(a);
        assert_eq!(sim.peek_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.advance_to(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "skip a pending event")]
    fn advance_to_refuses_to_skip_events() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), ());
        sim.advance_to(SimTime::from_secs(2));
    }

    #[test]
    fn schedule_now_fires_after_existing_same_instant_events() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.schedule_now(1);
        sim.schedule_now(2);
        assert_eq!(sim.pop().unwrap().1, 1);
        assert_eq!(sim.pop().unwrap().1, 2);
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut sim: Simulation<u32> = Simulation::new();
        let ids: Vec<_> = (0..10)
            .map(|i| sim.schedule_at(SimTime::from_millis(i), 0))
            .collect();
        for id in ids.iter().take(5) {
            sim.cancel(*id);
        }
        assert_eq!(sim.pending(), 5);
    }

    #[test]
    fn pending_survives_cancel_after_fire() {
        // Regression: cancelling an already-fired event used to leave a
        // stale entry in the cancelled set, underflowing pending().
        let mut sim: Simulation<u32> = Simulation::new();
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        assert_eq!(sim.pop().unwrap().1, 1);
        sim.cancel(a);
        assert_eq!(sim.pending(), 0);
        sim.schedule_at(SimTime::from_millis(2), 2);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop().unwrap().1, 2);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn stale_handle_does_not_cancel_slot_reuser() {
        // The slot of a fired event is recycled; the old handle must not
        // cancel whichever event inherited the slot.
        let mut sim: Simulation<u32> = Simulation::new();
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        sim.pop();
        let _b = sim.schedule_at(SimTime::from_millis(2), 2); // reuses a's slot
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop().unwrap().1, 2);
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut sim: Simulation<u32> = Simulation::new();
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        sim.schedule_at(SimTime::from_millis(2), 2);
        sim.cancel(a);
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.pop().unwrap().1, 2);
        assert!(sim.pop().is_none());
    }

    #[test]
    fn posted_events_interleave_with_scheduled() {
        let mut sim: Simulation<u32> = Simulation::new();
        sim.post_at(SimTime::from_millis(2), 2);
        let a = sim.schedule_at(SimTime::from_millis(1), 1);
        sim.post_now(0);
        sim.cancel(a);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 2]);
    }

    #[test]
    fn post_in_is_relative_to_now() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.post_in(SimDuration::from_secs(1), ());
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        sim.post_in(SimDuration::from_secs(1), ());
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn posted_fifo_ties_with_mixed_families() {
        let mut sim: Simulation<u32> = Simulation::new();
        let t = SimTime::from_micros(3);
        sim.post_at(t, 0);
        sim.schedule_at(t, 1);
        sim.post_at(t, 2);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn same_instant_ties_break_by_node_then_per_node_seq() {
        // Posted out of node order: ties must pop by (node, that node's
        // post count), not by global insertion order.
        let mut sim: Simulation<u32> = Simulation::new();
        let t = SimTime::from_micros(5);
        sim.post_from(2, t, 20);
        sim.post_from(1, t, 10);
        sim.post_from(2, t, 21);
        sim.post_from(0, t, 0);
        sim.post_from(1, t, 11);
        sim.post_from(3, SimTime::from_micros(3), 30);
        let order: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![30, 0, 10, 11, 20, 21]);
    }

    #[test]
    fn interleaving_posts_across_nodes_does_not_change_order() {
        // Each node posts the same sequence; only the interleaving
        // between nodes differs. A global insertion counter would pop
        // the two calendars in different orders.
        let run = |interleave: &[u16]| {
            let mut sim: Simulation<(u16, u32)> = Simulation::new();
            let mut next = [0u32; 3];
            for &n in interleave {
                let i = next[n as usize];
                next[n as usize] += 1;
                sim.post_from(n, SimTime::from_micros(1 + u64::from(i % 2)), (n, i));
            }
            std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect::<Vec<_>>()
        };
        let a = run(&[0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let b = run(&[2, 2, 2, 1, 0, 1, 0, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(a[..3], [(0, 0), (0, 2), (1, 0)]);
    }

    #[test]
    fn node_keyed_cancellation_matches_unkeyed() {
        // Cancellation is keyed by slab slot, not by the event key:
        // cancelling a node-3 timer leaves node 1's same-instant event,
        // and a stale handle cannot cancel the slot's next user.
        let mut sim: Simulation<u32> = Simulation::new();
        let t = SimTime::from_millis(1);
        let a = sim.schedule_from(3, t, 3);
        sim.post_from(1, t, 1);
        sim.schedule_from(3, t, 4);
        sim.cancel(a);
        assert_eq!(sim.pending(), 2);
        assert_eq!(sim.pop().unwrap().1, 1);
        assert_eq!(sim.pop().unwrap().1, 4);
        let b = sim.schedule_from(2, SimTime::from_millis(2), 5); // reuses a's slot
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        sim.cancel(b);
        assert!(sim.pop().is_none());
        assert_eq!(sim.dispatched(), 2);
    }
}
