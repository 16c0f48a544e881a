//! The CFQ scheduler's queues, checked two ways:
//!
//! * **Differential:** a B-tree reference model (`RefCfq`, the scheduler's
//!   earlier storage, kept here as an oracle only) and [`Cfq`] are driven
//!   with the same random sequences of `add` and `dispatch`, and must agree
//!   on every decision, every dispatched request and `len()` after every
//!   step. The sequences cover both directions, flush-barrier writes, the
//!   async write class on and off, 1–12 streams, merges onto requests an
//!   earlier front merge moved, streams that depart and return, the
//!   elevator wrap, and bursts larger than the capacity a drained
//!   scheduler keeps.
//! * **Allocation-free steady state:** once warm, thousands of add/dispatch
//!   rounds in which every stream departs and returns perform no heap
//!   allocation.
//!
//! The binary installs a counting global allocator whose counters are
//! thread-local, so each test measures only its own thread.

use ibridge_repro::iosched::cfq::ASYNC_STREAM;
use ibridge_repro::iosched::{BlockRequest, Cfq, CfqConfig, Decision, Scheduler};
use ibridge_repro::prelude::*;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting the calling thread's allocations.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a thread-local counter and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Paths of the model a generated sequence exercised, summed over cases
/// to check that the generator reaches every behaviour under test.
#[derive(Debug, Default)]
struct Coverage {
    back_merges: u64,
    front_merges: u64,
    /// Merge or elevator picks of a request whose key a front merge left
    /// behind its start.
    moved_key_hits: u64,
    /// Elevator picks that wrapped to the lowest key.
    wraps: u64,
    /// Streams that departed and later returned.
    returns: u64,
    /// Departures that skipped anticipation because the stream was seeky.
    seeky_departures: u64,
    /// Bursts that queued more requests than a drained slab keeps.
    bursts: u64,
}

type QKey = (u64, u64);

#[derive(Debug, Default)]
struct RefStreamQ {
    queue: BTreeMap<QKey, BlockRequest>,
    last_end: Option<u64>,
    seek_mean: f64,
}

/// The reference model: per-stream `BTreeMap`s keyed by the request's
/// insertion-time `(lbn, seq)`, a `BTreeMap` of streams and a linear scan
/// of the round-robin list.
struct RefCfq {
    cfg: CfqConfig,
    streams: BTreeMap<u64, RefStreamQ>,
    rr: VecDeque<u64>,
    active: Option<u64>,
    slice_end: SimTime,
    idle_until: Option<SimTime>,
    seq: u64,
    total: usize,
    departed: BTreeSet<u64>,
    cov: Coverage,
}

impl RefCfq {
    fn new(cfg: CfqConfig) -> Self {
        RefCfq {
            cfg,
            streams: BTreeMap::new(),
            rr: VecDeque::new(),
            active: None,
            slice_end: SimTime::ZERO,
            idle_until: None,
            seq: 0,
            total: 0,
            departed: Default::default(),
            cov: Coverage::default(),
        }
    }

    fn depart(&mut self, s: u64) {
        if self.streams.remove(&s).is_some() {
            self.departed.insert(s);
        }
    }

    fn try_merge(&mut self, req: BlockRequest) -> Option<BlockRequest> {
        let max = self.cfg.max_merge_sectors;
        for q in self.streams.values_mut() {
            if let Some((&key, _)) = q.queue.range(..(req.lbn, 0)).next_back() {
                let queued = q.queue.get_mut(&key).expect("key just seen");
                if queued.can_back_merge(&req, max) {
                    self.cov.back_merges += 1;
                    self.cov.moved_key_hits += u64::from(key.0 != queued.lbn);
                    queued.back_merge(req);
                    return None;
                }
            }
            if let Some((&key, _)) = q.queue.range((req.end(), 0)..).next() {
                if key.0 == req.end() {
                    let queued = q.queue.get_mut(&key).expect("key just seen");
                    if queued.can_front_merge(&req, max) {
                        self.cov.front_merges += 1;
                        self.cov.moved_key_hits += u64::from(key.0 != queued.lbn);
                        queued.front_merge(req);
                        return None;
                    }
                }
            }
        }
        Some(req)
    }

    fn activate_next(&mut self, now: SimTime) -> bool {
        while let Some(s) = self.rr.pop_front() {
            let non_empty = self.streams.get(&s).is_some_and(|q| !q.queue.is_empty());
            if non_empty {
                self.active = Some(s);
                self.slice_end = now + self.cfg.slice;
                self.idle_until = None;
                return true;
            }
            self.depart(s);
        }
        false
    }
}

impl Scheduler for RefCfq {
    fn add(&mut self, _now: SimTime, mut req: BlockRequest) {
        if self.cfg.async_writes && req.dir.is_write() {
            req.stream = ASYNC_STREAM;
        }
        let stream = req.stream;
        let Some(req) = self.try_merge(req) else {
            return;
        };
        self.total += 1;
        self.seq += 1;
        let key = (req.lbn, self.seq);
        let is_new = !self.streams.contains_key(&stream);
        if is_new && self.departed.contains(&stream) {
            self.cov.returns += 1;
        }
        let end = req.end();
        let lbn = req.lbn;
        let q = self.streams.entry(stream).or_default();
        if let Some(last) = q.last_end {
            let dist = last.abs_diff(lbn) as f64;
            q.seek_mean = q.seek_mean * 0.875 + dist * 0.125;
        }
        q.last_end = Some(end);
        q.queue.insert(key, req);
        if self.active == Some(stream) {
            self.idle_until = None;
        } else if is_new || !self.rr.contains(&stream) {
            self.rr.push_back(stream);
        }
    }

    fn dispatch(&mut self, now: SimTime, head: u64) -> Decision {
        loop {
            let Some(a) = self.active else {
                if !self.activate_next(now) {
                    return Decision::Empty;
                }
                continue;
            };
            let queue_empty = self.streams.get(&a).is_none_or(|q| q.queue.is_empty());
            if !queue_empty {
                if now >= self.slice_end && !self.rr.is_empty() {
                    self.rr.push_back(a);
                    self.active = None;
                    self.idle_until = None;
                    continue;
                }
                let q = self.streams.get_mut(&a).expect("active stream exists");
                let key = match q.queue.range((head, 0)..).next() {
                    Some((&k, _)) => k,
                    None => {
                        self.cov.wraps += 1;
                        *q.queue.keys().next().expect("non-empty")
                    }
                };
                let req = q.queue.remove(&key).expect("key just seen");
                self.cov.moved_key_hits += u64::from(key.0 != req.lbn);
                self.total -= 1;
                self.idle_until = None;
                return Decision::Request(req);
            }
            let seeky = a == ASYNC_STREAM
                || self
                    .streams
                    .get(&a)
                    .is_some_and(|q| q.seek_mean > self.cfg.seeky_threshold as f64);
            match self.idle_until {
                _ if seeky => {
                    self.cov.seeky_departures += 1;
                    self.depart(a);
                    self.active = None;
                    self.idle_until = None;
                }
                None if self.cfg.slice_idle > SimDuration::ZERO => {
                    let deadline = now + self.cfg.slice_idle;
                    self.idle_until = Some(deadline);
                    return Decision::WaitUntil(deadline);
                }
                Some(d) if now < d => return Decision::WaitUntil(d),
                _ => {
                    self.depart(a);
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

/// A scheduler configuration drawn from `bits`: short slices so streams
/// rotate, small merge caps so merges are refused, the async write class
/// on or off and anticipation on or off.
fn config(bits: u64) -> CfqConfig {
    CfqConfig {
        slice: SimDuration::from_millis([5, 20, 100][(bits % 3) as usize]),
        slice_idle: if bits >> 2 & 3 == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_millis(8)
        },
        max_merge_sectors: [16, 48, 256][(bits >> 4 & 3) as usize % 3],
        seeky_threshold: 8192,
        async_writes: bits >> 6 & 1 == 1,
    }
}

/// A request drawn from `a`: a dense region (8-sector grid, so adjacent
/// requests merge front and back) or a far one (seek distances past the
/// seeky threshold, and past the 65,536 sectors a returning stream needs).
fn request(a: u64, streams: u64, now: SimTime, tag: u64) -> BlockRequest {
    let stream = a % streams;
    let dir = if a >> 8 & 3 == 0 {
        IoDir::Write
    } else {
        IoDir::Read
    };
    let lbn = if a >> 10 & 7 == 0 {
        (a >> 13 & 63) * 200_000
    } else {
        (stream % 3) * 4_096 + (a >> 13 & 63) * 8
    };
    let sectors = [8, 8, 16, 24][(a >> 20 & 3) as usize];
    let mut r = BlockRequest::new(dir, lbn, sectors, stream, now, tag);
    if dir.is_write() && a >> 22 & 7 == 0 {
        r = r.with_fua();
    }
    if a >> 25 & 7 == 0 {
        r = r.with_rmw_edges((a >> 28 & 1) as u8 + 1);
    }
    r
}

proptest! {
    /// Every case, checked step by step; the coverage it reached is
    /// added to [`COVERAGE`].
    fn differential_cases(
        setup in (any::<u64>(), 1u64..13),
        ops in prop::collection::vec((0u8..16, any::<u64>()), 300..700),
    ) {
        let (bits, streams) = setup;
        let cfg = config(bits);
        let mut model = RefCfq::new(cfg.clone());
        let mut cfq = Cfq::new(cfg);
        let mut now = SimTime::ZERO;
        let mut head = 0u64;
        for (step, &(kind, a)) in ops.iter().enumerate() {
            match kind {
                // Adds dominate so queues build up and merge.
                0..=7 => {
                    let r = request(a, streams, now, step as u64);
                    model.add(now, r.clone());
                    cfq.add(now, r);
                }
                // Dispatch from the head the last dispatch left.
                8..=12 => {
                    let d = model.dispatch(now, head);
                    prop_assert_eq!(&cfq.dispatch(now, head), &d, "step {}", step);
                    match d {
                        Decision::Request(r) => head = r.end(),
                        // Sometimes sleep through the window, sometimes
                        // let an arrival cut it short.
                        Decision::WaitUntil(t) if a & 1 == 0 => now = t,
                        _ => {}
                    }
                }
                // Dispatch from anywhere, so the elevator wraps.
                13 => {
                    let h = a % 300_000;
                    let d = model.dispatch(now, h);
                    prop_assert_eq!(&cfq.dispatch(now, h), &d, "step {}", step);
                    if let Decision::Request(r) = d {
                        head = r.end();
                    }
                }
                // A burst far past what the slab keeps once drained, then
                // a full drain; the sequence goes on with the shrunk slab.
                15 if a % 8 == 0 => {
                    for i in 0..260 + (a >> 3) % 200 {
                        let r = request(a.rotate_left(i as u32) ^ i, streams, now, i);
                        model.add(now, r.clone());
                        cfq.add(now, r);
                    }
                    COVERAGE.with(|c| c.borrow_mut().bursts += u64::from(model.len() > 256));
                    drain(&mut model, &mut cfq, &mut now, &mut head);
                }
                // Time passes: within, at or past the idle window, or
                // past the slice.
                _ => {
                    let us = [500, 3_000, 8_000, 9_000, 120_000][(a % 5) as usize];
                    now += SimDuration::from_micros(us);
                }
            }
            prop_assert_eq!(cfq.len(), model.len(), "step {}", step);
        }
        drain(&mut model, &mut cfq, &mut now, &mut head);
        COVERAGE.with(|c| {
            let mut c = c.borrow_mut();
            c.back_merges += model.cov.back_merges;
            c.front_merges += model.cov.front_merges;
            c.moved_key_hits += model.cov.moved_key_hits;
            c.wraps += model.cov.wraps;
            c.returns += model.cov.returns;
            c.seeky_departures += model.cov.seeky_departures;
        });
    }
}

/// Dispatches from both schedulers until they are empty, sleeping
/// through every idle window, and checks that they agree at each step.
fn drain(model: &mut RefCfq, cfq: &mut Cfq, now: &mut SimTime, head: &mut u64) {
    loop {
        let d = model.dispatch(*now, *head);
        assert_eq!(cfq.dispatch(*now, *head), d);
        match d {
            Decision::Request(r) => *head = r.end(),
            Decision::WaitUntil(t) => *now = t,
            Decision::Empty => break,
        }
    }
    assert_eq!(cfq.len(), 0);
}

thread_local! {
    static COVERAGE: RefCell<Coverage> = RefCell::new(Coverage::default());
}

#[test]
fn cfq_matches_the_btree_reference() {
    differential_cases();
    COVERAGE.with(|c| {
        let c = c.borrow();
        assert!(c.back_merges > 0, "{c:?}");
        assert!(c.front_merges > 0, "{c:?}");
        assert!(c.moved_key_hits > 0, "{c:?}");
        assert!(c.wraps > 0, "{c:?}");
        assert!(c.returns > 0, "{c:?}");
        assert!(c.seeky_departures > 0, "{c:?}");
        assert!(c.bursts > 0, "{c:?}");
    });
}

/// One round: three read streams (one of them with a back merge) and a
/// write each queue a request, then the scheduler drains to empty, so
/// every stream departs, most after their idle window expires.
fn churn_round(s: &mut Cfq, now: &mut SimTime, head: &mut u64, i: u64) {
    for k in 0..3 {
        let stream = (i + k * 4) % 12;
        let lbn = (i * 7_919 + k * 1_231) % 50_000 * 64;
        s.add(
            *now,
            BlockRequest::new(IoDir::Read, lbn, 8, stream, *now, i),
        );
        if k == 0 {
            s.add(
                *now,
                BlockRequest::new(IoDir::Read, lbn + 8, 8, stream, *now, i),
            );
        }
    }
    let w = (i * 104_729) % 50_000 * 64 + 32;
    s.add(*now, BlockRequest::new(IoDir::Write, w, 16, 99, *now, i));
    loop {
        match s.dispatch(*now, *head) {
            Decision::Request(r) => *head = r.end(),
            Decision::WaitUntil(t) => *now = t,
            Decision::Empty => break,
        }
    }
    *now += SimDuration::from_millis(1);
}

#[test]
fn steady_state_add_and_dispatch_allocate_nothing() {
    let mut s = Cfq::new(CfqConfig::default());
    let mut now = SimTime::ZERO;
    let mut head = 0;
    for i in 0..1_000 {
        churn_round(&mut s, &mut now, &mut head, i);
    }
    let start = now;
    let before = allocs();
    for i in 1_000..11_000 {
        churn_round(&mut s, &mut now, &mut head, i);
    }
    let made = allocs() - before;
    assert!(s.is_empty());
    assert!(
        now - start >= SimDuration::from_millis(10_000 * 8),
        "streams must sit out their idle windows and depart"
    );
    assert_eq!(made, 0, "steady-state CFQ allocated {made} times");
}
