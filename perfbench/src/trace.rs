//! Outside-in host-time tracing of the traced run.
//!
//! The benchmark cannot see inside the simulator, so it times the calls
//! into each layer's public functions from outside:
//!
//! * top-level spans around input generation, fault-plan arming,
//!   `Cluster::new`, `Cluster::preallocate` and each `Cluster::run`;
//! * leaf spans around every call into a [`CachePolicy`] (the `core`
//!   layer) through [`TracedPolicy`], and every `Workload::next` through
//!   [`Issued`].
//!
//! Leaf spans are far too many to keep one by one (millions per run), so
//! each is folded into its open top-level span as it ends: per leaf kind,
//! a call count and the summed duration. Top-level spans stay in memory
//! and are written out when the run ends. A span's self time is its
//! duration minus the time its children cover; by construction the self
//! times of all layers sum to the summed top-level spans.

use ibridge_des::SimTime;
use ibridge_device::Lbn;
use ibridge_localfs::ExtentList;
use ibridge_pvfs::{
    CachePolicy, CacheStats, EntryId, FlushId, FlushOp, LogCorruption, MaintStats, Placement,
    RestartReport, SubRequest, WorkItem, Workload,
};
use std::cell::RefCell;
use std::time::Instant;

/// A top-level span: one call from the benchmark into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Top {
    /// Trace synthesis and workload construction (`workloads`).
    Gen,
    /// Fault-plan generation, `FaultPlan::parse`, `Cluster::set_fault_plan`.
    Plan,
    /// `Cluster::new` (`pvfs`, with `core` policy construction inside).
    Build,
    /// `Cluster::preallocate` (`localfs` extent allocation).
    Prealloc,
    /// `Cluster::run` (`pvfs` and the engine below it, `core` inside).
    Run,
}

impl Top {
    /// Layer metric that receives the span's self time.
    pub fn layer(self) -> &'static str {
        match self {
            Top::Gen => "workloads.gen_s",
            Top::Plan => "faults.plan_s",
            Top::Build => "pvfs.build_s",
            Top::Prealloc => "localfs.preallocate_s",
            Top::Run => "pvfs.self_s",
        }
    }
}

/// A leaf span kind: calls that run inside a top-level span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leaf {
    /// `CachePolicy::place`.
    Place,
    /// `read_admission` + `admission_complete`.
    Admit,
    /// `flush_batch` + `flush_complete`.
    Flush,
    /// `log_maintenance`.
    Maint,
    /// `audit` (the online invariant auditor's policy checks).
    Audit,
    /// Every other policy call (T reports, broadcasts, stats, restarts).
    CoreOther,
    /// Policy construction inside `Cluster::new`.
    CoreNew,
    /// `Workload::next`.
    Next,
}

/// Number of leaf kinds.
pub const N_LEAVES: usize = 8;

impl Leaf {
    /// Every leaf kind, in table order.
    pub const ALL: [Leaf; N_LEAVES] = [
        Leaf::Place,
        Leaf::Admit,
        Leaf::Flush,
        Leaf::Maint,
        Leaf::Audit,
        Leaf::CoreOther,
        Leaf::CoreNew,
        Leaf::Next,
    ];

    /// Layer metric that receives the leaf's time.
    pub fn layer(self) -> &'static str {
        match self {
            Leaf::Place => "core.place_s",
            Leaf::Admit => "core.admit_s",
            Leaf::Flush => "core.flush_s",
            Leaf::Maint => "core.maint_s",
            Leaf::Audit => "core.audit_s",
            Leaf::CoreOther => "core.other_s",
            Leaf::CoreNew => "core.new_s",
            Leaf::Next => "workloads.next_s",
        }
    }
}

/// One recorded top-level span with its folded children.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which call.
    pub top: Top,
    /// Start, ns since the recorder was armed.
    pub start_ns: u64,
    /// End, ns since the recorder was armed.
    pub end_ns: u64,
    /// Per leaf kind: calls made inside this span.
    pub child_calls: [u64; N_LEAVES],
    /// Per leaf kind: summed duration of those calls, ns.
    pub child_ns: [u64; N_LEAVES],
}

impl Span {
    /// Span duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time covered by child spans, ns.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns()
            .saturating_sub(self.child_ns.iter().sum::<u64>())
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<Span>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms the recorder on this thread, dropping any earlier spans.
pub fn arm() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        })
    });
}

/// Disarms the recorder and returns every top-level span. A span left
/// open by a panic (the auditor aborts a run that way) ends here.
pub fn disarm() -> Vec<Span> {
    REC.with(|r| r.borrow_mut().take())
        .map(|mut rec| {
            if let Some(mut span) = rec.open.take() {
                span.end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.spans.push(span);
            }
            rec.spans
        })
        .unwrap_or_default()
}

/// Runs `f` inside a top-level span when the recorder is armed.
pub fn top<R>(top: Top, f: impl FnOnce() -> R) -> R {
    let armed = REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return false;
        };
        assert!(rec.open.is_none(), "top-level spans do not nest");
        let now = rec.origin.elapsed().as_nanos() as u64;
        rec.open = Some(Span {
            top,
            start_ns: now,
            end_ns: now,
            child_calls: [0; N_LEAVES],
            child_ns: [0; N_LEAVES],
        });
        true
    });
    let out = f();
    if armed {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("armed above");
            let mut span = rec.open.take().expect("opened above");
            span.end_ns = rec.origin.elapsed().as_nanos() as u64;
            rec.spans.push(span);
        });
    }
    out
}

/// Folds one finished leaf call into the open top-level span.
fn leaf_done(leaf: Leaf, started: Instant) {
    let ns = started.elapsed().as_nanos() as u64;
    REC.with(|r| {
        if let Some(span) = r.borrow_mut().as_mut().and_then(|rec| rec.open.as_mut()) {
            span.child_calls[leaf as usize] += 1;
            span.child_ns[leaf as usize] += ns;
        }
    });
}

/// Times `f` as a leaf span.
#[inline]
pub fn leaf<R>(leaf: Leaf, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    leaf_done(leaf, t);
    out
}

/// `CachePolicy` decorator timing every call into the wrapped policy.
#[derive(Debug)]
pub struct TracedPolicy(pub Box<dyn CachePolicy>);

impl CachePolicy for TracedPolicy {
    fn place(&mut self, now: SimTime, sub: &SubRequest, disk_lbn: Lbn) -> Placement {
        leaf(Leaf::Place, || self.0.place(now, sub, disk_lbn))
    }

    fn read_admission(&mut self, now: SimTime, sub: &SubRequest) -> Option<(EntryId, ExtentList)> {
        leaf(Leaf::Admit, || self.0.read_admission(now, sub))
    }

    fn admission_complete(&mut self, now: SimTime, entry: EntryId) {
        leaf(Leaf::Admit, || self.0.admission_complete(now, entry))
    }

    fn flush_batch(&mut self, now: SimTime, max_bytes: u64) -> Vec<FlushOp> {
        leaf(Leaf::Flush, || self.0.flush_batch(now, max_bytes))
    }

    fn flush_complete(&mut self, now: SimTime, id: FlushId) {
        leaf(Leaf::Flush, || self.0.flush_complete(now, id))
    }

    fn report_t(&self) -> f64 {
        leaf(Leaf::CoreOther, || self.0.report_t())
    }

    fn receive_broadcast(&mut self, t_values: &[f64]) {
        leaf(Leaf::CoreOther, || self.0.receive_broadcast(t_values))
    }

    fn dirty_bytes(&self) -> u64 {
        leaf(Leaf::CoreOther, || self.0.dirty_bytes())
    }

    fn stats(&self) -> CacheStats {
        leaf(Leaf::CoreOther, || self.0.stats())
    }

    fn log_maintenance(&mut self, now: SimTime, idle: bool) {
        leaf(Leaf::Maint, || self.0.log_maintenance(now, idle))
    }

    fn maint_stats(&self) -> MaintStats {
        leaf(Leaf::CoreOther, || self.0.maint_stats())
    }

    fn server_restart(&mut self, now: SimTime) -> RestartReport {
        leaf(Leaf::CoreOther, || self.0.server_restart(now))
    }

    fn ssd_lost(&mut self, now: SimTime) -> u64 {
        leaf(Leaf::CoreOther, || self.0.ssd_lost(now))
    }

    fn is_degraded(&self) -> bool {
        leaf(Leaf::CoreOther, || self.0.is_degraded())
    }

    fn inject_corruption(&mut self, now: SimTime, corruption: LogCorruption) -> u64 {
        leaf(Leaf::CoreOther, || {
            self.0.inject_corruption(now, corruption)
        })
    }

    fn audit(&self) -> Result<(), String> {
        leaf(Leaf::Audit, || self.0.audit())
    }
}

/// `Workload` decorator counting what the generator issues; with `timed`
/// set it also times each `next` call as a leaf span.
pub struct Issued {
    inner: Box<dyn Workload>,
    timed: bool,
    /// Requests handed to the cluster.
    pub requests: u64,
    /// Bytes of those requests.
    pub bytes: u64,
}

impl Issued {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Workload>, timed: bool) -> Self {
        Issued {
            inner,
            timed,
            requests: 0,
            bytes: 0,
        }
    }
}

impl Workload for Issued {
    fn procs(&self) -> usize {
        self.inner.procs()
    }

    fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
        let item = if self.timed {
            leaf(Leaf::Next, || self.inner.next(proc, iter))
        } else {
            self.inner.next(proc, iter)
        };
        if let Some(it) = &item {
            self.requests += 1;
            self.bytes += it.req.len;
        }
        item
    }

    fn barrier(&self) -> bool {
        self.inner.barrier()
    }

    fn in_barrier(&self, proc: usize) -> bool {
        self.inner.in_barrier(proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_fold_into_their_top_span_and_a_panic_closes_it() {
        arm();
        top(Top::Run, || {
            leaf(Leaf::Place, || ());
            leaf(Leaf::Place, || ());
            leaf(Leaf::Next, || ());
        });
        leaf(Leaf::Place, || ()); // outside any top span: not recorded
        let aborted = std::panic::catch_unwind(|| top(Top::Run, || panic!("audit failed")));
        assert!(aborted.is_err());
        let spans = disarm();
        assert_eq!(spans.len(), 2, "the aborted span is closed, not lost");
        let s = &spans[0];
        assert_eq!(s.child_calls[Leaf::Place as usize], 2);
        assert_eq!(s.child_calls[Leaf::Next as usize], 1);
        assert_eq!(s.self_ns() + s.child_ns.iter().sum::<u64>(), s.dur_ns());
        assert!(disarm().is_empty(), "disarmed");
    }
}
