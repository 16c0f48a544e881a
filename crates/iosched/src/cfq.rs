//! CFQ-style I/O scheduler.
//!
//! The paper's data-server disks run Linux CFQ. The behaviours that shape
//! its experiments, all modelled here:
//!
//! * **Per-stream queues** — each client process's sub-requests form one
//!   stream; the scheduler serves one stream at a time in round-robin
//!   time slices.
//! * **In-slice elevator** — within the active stream, requests dispatch
//!   in ascending-LBN order starting from the disk head, so a
//!   well-aligned stream turns into near-sequential disk access.
//! * **Anticipation (slice idling)** — when the active stream's queue
//!   runs dry, the scheduler idles briefly (`slice_idle`, 8 ms in Linux)
//!   instead of seeking away, betting that the synchronous process will
//!   immediately issue its next, nearby request. This is what preserves
//!   spatial locality under high process counts — and what unaligned
//!   fragments defeat.
//! * **Merging** — front/back merging against *any* queued request
//!   (capped at `max_merge_sectors`), producing the 128 KB dispatches of
//!   Fig. 2(c) when two processes' stripes interleave.
//!
//! # Storage
//!
//! Streams come and go constantly: a stream whose queue runs dry departs
//! (forgetting its seek history), and its process's next sub-request
//! brings it back as a new stream. The queues are laid out so that this
//! churn, and every steady-state `add`/merge/`dispatch`, allocates
//! nothing once the scheduler has seen its peak load:
//!
//! * **Request slab** — queued [`BlockRequest`] bodies live in one
//!   scheduler-owned `Vec`; dispatching a request frees its slot onto a
//!   free list, and the next queued request reuses it.
//! * **Per-stream index** — each stream keeps a `Vec` of 24-byte
//!   `(lbn, seq, slot)` entries sorted by `(lbn, seq)`. The key is the
//!   request's LBN *when it was queued* plus a global arrival number; a
//!   front merge moves the request's start but never its key, so the
//!   elevator order and later merge lookups see exactly what a map keyed
//!   at insertion time would. Lookups are binary searches, and with the
//!   bodies in the slab an insert or removal moves only small entries.
//! * **Spare pool** — a departing stream's emptied index goes to a pool;
//!   the next new stream takes it from there, so index capacity is never
//!   freed and reallocated.
//! * **Bursts give memory back** — capacity beyond 256 requests is not
//!   kept: a drained slab shrinks to that size, and a departing index
//!   larger than that is freed instead of pooled, so a write burst
//!   of thousands of requests does not stay resident.
//! * **Stream table** — the streams sit in a `Vec` sorted by id, so the
//!   merge scan visits them in ascending [`StreamId`] order (never in a
//!   hash-seed-dependent one), and each carries a flag saying whether it
//!   waits in the round-robin list.

use crate::{BlockRequest, Decision, Scheduler, StreamId};
use ibridge_des::{SimDuration, SimTime};
use ibridge_device::Lbn;
use std::collections::VecDeque;

/// Tuning knobs of [`Cfq`], defaults matching Linux CFQ's.
#[derive(Debug, Clone)]
pub struct CfqConfig {
    /// Time slice given to each stream before rotating to the next.
    pub slice: SimDuration,
    /// Anticipation window: how long to idle on an empty active stream.
    pub slice_idle: SimDuration,
    /// Maximum size of a merged request, in sectors.
    pub max_merge_sectors: u64,
    /// Mean inter-request seek distance (sectors) beyond which a stream
    /// is considered *seeky* and gets no anticipation idling — Linux's
    /// `CFQQ_SEEK_THR` behaviour (8192 sectors = 4 MB).
    pub seeky_threshold: u64,
    /// Treat writes as CFQ's *async class*: all writes share one queue
    /// regardless of issuing stream, with no anticipation idling —
    /// Linux's buffered-writeback behaviour. Reads stay per-stream sync
    /// queues.
    pub async_writes: bool,
}

impl Default for CfqConfig {
    fn default() -> Self {
        CfqConfig {
            slice: SimDuration::from_millis(100),
            slice_idle: SimDuration::from_millis(8),
            max_merge_sectors: 256,
            seeky_threshold: 8192,
            async_writes: true,
        }
    }
}

/// Most requests a drained slab keeps room for, and the largest index
/// capacity the spare pool takes. Steady-state queues fit (sync streams
/// stay under 16 requests, BTIO's async write stream peaks at 64–255); a
/// write burst of thousands gives its memory back once it drains,
/// instead of staying resident for the rest of the run.
const RETAIN: usize = 256;

/// One queued request in a stream's index: its insertion-time sort key
/// `(lbn, seq)` and the slab slot holding its body.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    lbn: Lbn,
    seq: u64,
    slot: u32,
}

#[derive(Debug)]
struct StreamQ {
    id: StreamId,
    /// Queued requests, sorted by `(lbn, seq)`.
    index: Vec<IndexEntry>,
    /// End LBN of the last request added to this stream.
    last_end: Option<Lbn>,
    /// Decayed mean of inter-request seek distance, in sectors.
    seek_mean: f64,
    /// Waiting in [`Cfq::rr`] for a slice.
    in_rr: bool,
}

/// CFQ scheduler state.
///
/// Queued requests live in a slab with a free list, indexed per stream
/// by sorted `(lbn, seq, slot)` vectors that departing streams hand to a
/// spare pool; see the [module docs](self#storage). Steady-state
/// operation allocates nothing.
///
/// ```
/// use ibridge_iosched::{BlockRequest, Cfq, CfqConfig, Decision, Scheduler};
/// use ibridge_des::SimTime;
/// use ibridge_device::IoDir;
///
/// let mut cfq = Cfq::new(CfqConfig::default());
/// let t = SimTime::ZERO;
/// cfq.add(t, BlockRequest::new(IoDir::Read, 128, 8, /*stream*/ 1, t, 0));
/// cfq.add(t, BlockRequest::new(IoDir::Read, 136, 8, /*stream*/ 1, t, 1));
/// // Adjacent same-direction requests merged into one dispatch:
/// let Decision::Request(r) = cfq.dispatch(t, 0) else { panic!() };
/// assert_eq!((r.lbn, r.sectors), (128, 16));
/// ```
#[derive(Debug)]
pub struct Cfq {
    cfg: CfqConfig,
    /// Streams with queued requests (plus the active one), sorted by id.
    streams: Vec<StreamQ>,
    /// Queued request bodies; `None` slots are listed in `free`.
    slab: Vec<Option<BlockRequest>>,
    free: Vec<u32>,
    /// Emptied indexes of departed streams, reused by new streams.
    spare: Vec<Vec<IndexEntry>>,
    /// Streams with queued requests, awaiting a slice (excludes `active`).
    rr: VecDeque<StreamId>,
    active: Option<StreamId>,
    slice_end: SimTime,
    /// Anticipation deadline; `Some` while idling on an empty active queue.
    idle_until: Option<SimTime>,
    seq: u64,
    total: usize,
}

impl Cfq {
    /// Creates a CFQ scheduler.
    pub fn new(cfg: CfqConfig) -> Self {
        Cfq {
            cfg,
            streams: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            rr: VecDeque::new(),
            active: None,
            slice_end: SimTime::ZERO,
            idle_until: None,
            seq: 0,
            total: 0,
        }
    }

    /// Disables anticipation (used by the `ablate-anticipation` bench).
    pub fn without_anticipation(mut self) -> Self {
        self.cfg.slice_idle = SimDuration::ZERO;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &CfqConfig {
        &self.cfg
    }

    /// Position of stream `id` in `streams`, or where it would go.
    fn find(&self, id: StreamId) -> Result<usize, usize> {
        self.streams.binary_search_by_key(&id, |q| q.id)
    }

    /// Removes the stream at `pos`, keeping its index for reuse unless a
    /// burst grew it past [`RETAIN`]. A returning stream starts afresh,
    /// with no seek history.
    fn depart(&mut self, pos: usize) {
        let mut index = self.streams.remove(pos).index;
        if index.capacity() <= RETAIN {
            index.clear();
            self.spare.push(index);
        }
    }

    /// Attempts to merge `req` into any queued request; returns it back
    /// if no merge is possible.
    fn try_merge(&mut self, req: BlockRequest) -> Option<BlockRequest> {
        let max = self.cfg.max_merge_sectors;
        let end = req.end();
        for q in &self.streams {
            // Back merge: a queued request ending exactly at req.lbn.
            // Check the one with the largest key below (req.lbn, 0).
            let below = q.index.partition_point(|e| e.lbn < req.lbn);
            if let Some(e) = below.checked_sub(1).map(|i| q.index[i]) {
                let queued = self.slab[e.slot as usize].as_mut().expect("indexed slot");
                if queued.can_back_merge(&req, max) {
                    queued.back_merge(req);
                    return None;
                }
            }
            // Front merge: a queued request keyed exactly at req.end().
            let at = q.index.partition_point(|e| e.lbn < end);
            if let Some(&e) = q.index.get(at).filter(|e| e.lbn == end) {
                let queued = self.slab[e.slot as usize].as_mut().expect("indexed slot");
                if queued.can_front_merge(&req, max) {
                    queued.front_merge(req);
                    return None;
                }
            }
        }
        Some(req)
    }

    /// Removes from the stream at `pos` the next request at/after `head`,
    /// else its lowest-keyed one (one-way elevator with wrap).
    fn pop_elevator(&mut self, pos: usize, head: Lbn) -> BlockRequest {
        let index = &mut self.streams[pos].index;
        let at = index.partition_point(|e| e.lbn < head);
        let e = index.remove(if at == index.len() { 0 } else { at });
        self.free.push(e.slot);
        self.slab[e.slot as usize].take().expect("indexed slot")
    }

    fn activate_next(&mut self, now: SimTime) -> bool {
        while let Some(s) = self.rr.pop_front() {
            let Ok(pos) = self.find(s) else { continue };
            self.streams[pos].in_rr = false;
            if !self.streams[pos].index.is_empty() {
                self.active = Some(s);
                self.slice_end = now + self.cfg.slice;
                self.idle_until = None;
                return true;
            }
            // Stale entry for a stream that no longer has requests.
            self.depart(pos);
        }
        false
    }
}

/// The shared stream id of the async (write) class.
pub const ASYNC_STREAM: StreamId = u64::MAX - 7;

impl Scheduler for Cfq {
    fn add(&mut self, _now: SimTime, mut req: BlockRequest) {
        if self.cfg.async_writes && req.dir.is_write() {
            req.stream = ASYNC_STREAM;
        }
        let stream = req.stream;
        let Some(req) = self.try_merge(req) else {
            return; // merged into an existing queued request
        };
        self.total += 1;
        self.seq += 1;
        let (lbn, seq, end) = (req.lbn, self.seq, req.end());
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(req);
                slot
            }
            None => {
                self.slab.push(Some(req));
                u32::try_from(self.slab.len() - 1).expect("queued requests fit a u32")
            }
        };
        let pos = self.find(stream).unwrap_or_else(|pos| {
            let index = self.spare.pop().unwrap_or_default();
            let q = StreamQ {
                id: stream,
                index,
                last_end: None,
                seek_mean: 0.0,
                in_rr: false,
            };
            self.streams.insert(pos, q);
            pos
        });
        let q = &mut self.streams[pos];
        if let Some(last) = q.last_end {
            let dist = last.abs_diff(lbn) as f64;
            q.seek_mean = q.seek_mean * 0.875 + dist * 0.125;
        }
        q.last_end = Some(end);
        let at = q.index.partition_point(|e| (e.lbn, e.seq) < (lbn, seq));
        q.index.insert(at, IndexEntry { lbn, seq, slot });
        if self.active == Some(stream) {
            // The anticipated arrival came: stop idling.
            self.idle_until = None;
        } else if !q.in_rr {
            q.in_rr = true;
            self.rr.push_back(stream);
        }
    }

    fn dispatch(&mut self, now: SimTime, head: Lbn) -> Decision {
        loop {
            let Some(a) = self.active else {
                if !self.activate_next(now) {
                    return Decision::Empty;
                }
                continue;
            };
            let pos = self.find(a).ok();
            if let Some(p) = pos.filter(|&p| !self.streams[p].index.is_empty()) {
                if now >= self.slice_end && !self.rr.is_empty() {
                    // Slice expired with other streams waiting: rotate.
                    self.streams[p].in_rr = true;
                    self.rr.push_back(a);
                    self.active = None;
                    self.idle_until = None;
                    continue;
                }
                let req = self.pop_elevator(p, head);
                self.total -= 1;
                if self.total == 0 && self.slab.capacity() > RETAIN {
                    // A burst grew the slab and every slot is now free:
                    // give the excess back.
                    self.slab.clear();
                    self.free.clear();
                    self.slab.shrink_to(RETAIN);
                    self.free.shrink_to(RETAIN);
                }
                self.idle_until = None;
                return Decision::Request(req);
            }
            // Active queue is empty: anticipate, then deactivate.
            // Seeky streams get no idling (Linux disables anticipation
            // when a queue's mean seek distance is large — idling on a
            // random-access stream wastes the disk for nothing).
            let seeky = a == ASYNC_STREAM
                || pos.is_some_and(|p| self.streams[p].seek_mean > self.cfg.seeky_threshold as f64);
            match self.idle_until {
                None if !seeky && self.cfg.slice_idle > SimDuration::ZERO => {
                    let deadline = now + self.cfg.slice_idle;
                    self.idle_until = Some(deadline);
                    return Decision::WaitUntil(deadline);
                }
                Some(d) if !seeky && now < d => return Decision::WaitUntil(d),
                _ => {
                    // Seeky, or anticipation over (or disabled): the
                    // stream departs.
                    if let Some(p) = pos {
                        self.depart(p);
                    }
                    self.active = None;
                    self.idle_until = None;
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_device::IoDir;

    fn req(stream: StreamId, lbn: Lbn, sectors: u64) -> BlockRequest {
        BlockRequest::new(IoDir::Read, lbn, sectors, stream, SimTime::ZERO, lbn)
    }

    fn cfq() -> Cfq {
        Cfq::new(CfqConfig::default())
    }

    #[test]
    fn single_stream_dispatches_in_elevator_order() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 300, 8));
        s.add(t, req(1, 100, 8));
        s.add(t, req(1, 200, 8));
        let mut order = Vec::new();
        let mut head = 0;
        while let Decision::Request(r) = s.dispatch(t, head) {
            head = r.end();
            order.push(r.lbn);
        }
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn elevator_wraps_to_lowest() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(1, 200, 8));
        // Head is past both: wraps to 100.
        let Decision::Request(r) = s.dispatch(t, 500) else {
            panic!("expected a request")
        };
        assert_eq!(r.lbn, 100);
    }

    #[test]
    fn active_stream_served_exclusively_until_empty() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(2, 900, 8));
        s.add(t, req(1, 108, 8)); // merges with 100 actually — use a gap
        s.add(t, req(1, 400, 8));
        let Decision::Request(first) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(first.stream, 1);
        let Decision::Request(second) = s.dispatch(t, first.end()) else {
            panic!()
        };
        assert_eq!(second.stream, 1, "stream 1 still has requests queued");
    }

    #[test]
    fn empty_active_stream_triggers_anticipation() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(2, 900, 8));
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(r.stream, 1);
        // Stream 1 is empty but stream 2 waits: CFQ idles anyway.
        let d = s.dispatch(t, r.end());
        assert_eq!(
            d,
            Decision::WaitUntil(t + SimDuration::from_millis(8)),
            "must anticipate stream 1's next request"
        );
    }

    #[test]
    fn anticipated_arrival_is_served_before_other_streams() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        s.add(t0, req(1, 100, 8));
        s.add(t0, req(2, 900, 8));
        let Decision::Request(r) = s.dispatch(t0, 0) else {
            panic!()
        };
        let t1 = t0 + SimDuration::from_millis(1);
        let Decision::WaitUntil(_) = s.dispatch(t1, r.end()) else {
            panic!()
        };
        // The anticipated request arrives within the idle window.
        let t2 = t0 + SimDuration::from_millis(3);
        s.add(t2, req(1, 200, 8));
        let Decision::Request(r2) = s.dispatch(t2, r.end()) else {
            panic!()
        };
        assert_eq!(r2.stream, 1);
        assert_eq!(r2.lbn, 200);
    }

    #[test]
    fn expired_anticipation_rotates_to_next_stream() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        s.add(t0, req(1, 100, 8));
        s.add(t0, req(2, 900, 8));
        let Decision::Request(_) = s.dispatch(t0, 0) else {
            panic!()
        };
        let Decision::WaitUntil(d) = s.dispatch(t0, 108) else {
            panic!()
        };
        // Idle window passes with no arrival.
        let Decision::Request(r) = s.dispatch(d, 108) else {
            panic!()
        };
        assert_eq!(r.stream, 2);
    }

    #[test]
    fn slice_expiry_rotates_between_busy_streams() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        for i in 0..10 {
            // Strided so nothing merges.
            s.add(t0, req(1, 1_000 + i * 100, 8));
            s.add(t0, req(2, 900_000 + i * 100, 8));
        }
        let Decision::Request(r) = s.dispatch(t0, 0) else {
            panic!()
        };
        assert_eq!(r.stream, 1);
        // Past the slice, stream 2 must get its turn.
        let late = t0 + SimDuration::from_millis(150);
        let Decision::Request(r) = s.dispatch(late, r.end()) else {
            panic!()
        };
        assert_eq!(r.stream, 2);
    }

    #[test]
    fn cross_stream_merging_happens() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 128, 128));
        s.add(t, req(2, 256, 128)); // adjacent, different stream
        assert_eq!(s.len(), 1, "adjacent cross-stream requests should merge");
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(r.sectors, 256);
        assert_eq!(r.tags.len(), 2);
    }

    #[test]
    fn merge_cap_prevents_oversize_requests() {
        let mut s = Cfq::new(CfqConfig {
            max_merge_sectors: 128,
            ..Default::default()
        });
        let t = SimTime::ZERO;
        s.add(t, req(1, 0, 128));
        s.add(t, req(1, 128, 8));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn without_anticipation_switches_immediately() {
        let mut s = cfq().without_anticipation();
        let t = SimTime::ZERO;
        s.add(t, req(1, 100, 8));
        s.add(t, req(2, 900, 8));
        let Decision::Request(_) = s.dispatch(t, 0) else {
            panic!()
        };
        let Decision::Request(r) = s.dispatch(t, 108) else {
            panic!()
        };
        assert_eq!(r.stream, 2, "no idling when anticipation disabled");
    }

    #[test]
    fn len_tracks_queue_and_merges() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        assert!(s.is_empty());
        s.add(t, req(1, 0, 8));
        s.add(t, req(1, 8, 8)); // merges
        s.add(t, req(1, 100, 8));
        assert_eq!(s.len(), 2);
        let _ = s.dispatch(t, 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn front_merge_via_scheduler() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        s.add(t, req(1, 108, 8));
        s.add(t, req(1, 100, 8)); // front-merges onto 108
        assert_eq!(s.len(), 1);
        let Decision::Request(r) = s.dispatch(t, 0) else {
            panic!()
        };
        assert_eq!(r.lbn, 100);
        assert_eq!(r.sectors, 16);
    }

    #[test]
    fn seeky_stream_gets_no_idling() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        // Stream 1 issues widely scattered requests: becomes seeky.
        let mut lbn = 0;
        for i in 0..10u64 {
            lbn += 5_000_000 + i;
            s.add(t, req(1, lbn, 8));
        }
        s.add(t, req(2, 42, 8));
        // Drain stream 1 entirely.
        let mut head = 0;
        for _ in 0..10 {
            let Decision::Request(r) = s.dispatch(t, head) else {
                panic!()
            };
            assert_eq!(r.stream, 1);
            head = r.end();
        }
        // Stream 1's queue is empty; a sequential stream would idle, but
        // a seeky one must rotate straight to stream 2.
        let Decision::Request(r) = s.dispatch(t, head) else {
            panic!()
        };
        assert_eq!(r.stream, 2, "seeky stream must not be anticipated");
    }

    #[test]
    fn sequential_stream_is_not_marked_seeky() {
        let mut s = cfq();
        let t = SimTime::ZERO;
        // Tight forward strides: stays sequential-ish.
        for i in 0..10u64 {
            s.add(t, req(1, i * 1000, 8));
        }
        s.add(t, req(2, 900_000_000, 8));
        let mut head = 0;
        for _ in 0..10 {
            let Decision::Request(r) = s.dispatch(t, head) else {
                panic!()
            };
            head = r.end();
        }
        assert!(
            matches!(s.dispatch(t, head), Decision::WaitUntil(_)),
            "non-seeky stream should be anticipated"
        );
    }

    /// Pins a known deviation from Linux: a departing stream forgets its
    /// seek history (Linux keeps it with the io context). A stream that
    /// departs after every request measures no seek distance on its
    /// return, so scattered one-request visits are never judged seeky and
    /// are each granted the idle window; the same requests queued
    /// without a departure make the stream seeky.
    #[test]
    fn departed_stream_forgets_its_seek_history() {
        let idle = SimDuration::from_millis(8);
        let mut s = cfq();
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            let lbn = i * 1_000_000;
            s.add(t, req(1, lbn, 8));
            let Decision::Request(r) = s.dispatch(t, 0) else {
                panic!()
            };
            assert_eq!(r.lbn, lbn);
            assert_eq!(
                s.dispatch(t, r.end()),
                Decision::WaitUntil(t + idle),
                "visit {i}: a returning stream is anticipated however far it jumped"
            );
            t += idle;
            assert_eq!(s.dispatch(t, r.end()), Decision::Empty, "stream departs");
        }
        // The same scattered requests from a stream that never departs.
        let mut s = cfq();
        let t = SimTime::ZERO;
        for i in 0..4u64 {
            s.add(t, req(1, i * 1_000_000, 8));
        }
        let mut head = 0;
        while let Decision::Request(r) = s.dispatch(t, head) {
            head = r.end();
        }
        assert!(s.is_empty(), "seeky stream departs without idling");
    }

    #[test]
    fn anticipation_deadline_is_stable_across_queries() {
        let mut s = cfq();
        let t0 = SimTime::ZERO;
        s.add(t0, req(1, 100, 8));
        let Decision::Request(_) = s.dispatch(t0, 0) else {
            panic!()
        };
        let Decision::WaitUntil(d1) = s.dispatch(t0, 108) else {
            panic!()
        };
        let t1 = t0 + SimDuration::from_millis(2);
        let Decision::WaitUntil(d2) = s.dispatch(t1, 108) else {
            panic!()
        };
        assert_eq!(d1, d2, "re-querying must not extend the idle window");
    }
}
