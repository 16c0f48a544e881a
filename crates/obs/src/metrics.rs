//! Virtual-time latency metrics registry.
//!
//! Phase latencies land in fixed-bucket [`Log2Hist`]s keyed on
//! nanoseconds of virtual time; per-server aggregates and the
//! measured-vs-predicted `T_i` residuals are plain integer sums. Every
//! piece of state merges by addition, so the order in which parallel
//! workers flush their thread-local registries cannot change the final
//! numbers — metrics output is deterministic at any `--jobs` level.
//!
//! Recording goes to a thread-local registry (one relaxed atomic load
//! when metrics are off); worker registries merge into the process
//! global either when a trace task scope ends or when the thread dies.
//! [`snapshot`] flushes the calling thread and clones the global.

use ibridge_des::stats::Log2Hist;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A timed phase of the request pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Whole client request: issue to last sub-reply.
    Request,
    /// Client → server network hop (request message).
    NetRequest,
    /// Server CPU admission queue.
    SrvQueue,
    /// Server job served by the primary disk, submit → group done.
    SrvJobDisk,
    /// Server job served by the SSD cache, submit → group done.
    SrvJobSsd,
    /// Server → client network hop (reply message).
    NetReply,
    /// I/O-scheduler queue on an HDD, submit → dispatch.
    SchedQueueHdd,
    /// I/O-scheduler queue on an SSD, submit → dispatch.
    SchedQueueSsd,
    /// HDD service time of one dispatched request.
    DevServiceHdd,
    /// SSD service time of one dispatched request.
    DevServiceSsd,
    /// Positional (seek + rotation) share of HDD service time.
    DevSeekHdd,
    /// Transfer share of HDD service time.
    DevTransferHdd,
    /// Per-message link occupancy + propagation (any hop).
    NetTx,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const N_PHASES: usize = 13;

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Request,
        Phase::NetRequest,
        Phase::SrvQueue,
        Phase::SrvJobDisk,
        Phase::SrvJobSsd,
        Phase::NetReply,
        Phase::SchedQueueHdd,
        Phase::SchedQueueSsd,
        Phase::DevServiceHdd,
        Phase::DevServiceSsd,
        Phase::DevSeekHdd,
        Phase::DevTransferHdd,
        Phase::NetTx,
    ];

    /// Registry index.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Request => "request",
            Phase::NetRequest => "net:req",
            Phase::SrvQueue => "srv:queue",
            Phase::SrvJobDisk => "srv:job:disk",
            Phase::SrvJobSsd => "srv:job:ssd",
            Phase::NetReply => "net:reply",
            Phase::SchedQueueHdd => "sched:queue:hdd",
            Phase::SchedQueueSsd => "sched:queue:ssd",
            Phase::DevServiceHdd => "dev:service:hdd",
            Phase::DevServiceSsd => "dev:service:ssd",
            Phase::DevSeekHdd => "dev:seek:hdd",
            Phase::DevTransferHdd => "dev:transfer:hdd",
            Phase::NetTx => "net:tx",
        }
    }
}

/// Entry class of a served sub-request (mirrors the cache's entry types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubClass {
    /// Unaligned fragment of a striped request.
    Fragment,
    /// Small random request.
    Random,
    /// Aligned bulk part.
    Bulk,
}

/// Number of entry classes.
pub const N_CLASSES: usize = 3;

impl SubClass {
    /// Every class, in rendering order.
    pub const ALL: [SubClass; N_CLASSES] = [SubClass::Fragment, SubClass::Random, SubClass::Bulk];

    /// Registry index.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SubClass::Fragment => "fragment",
            SubClass::Random => "random",
            SubClass::Bulk => "bulk",
        }
    }
}

/// Per-server aggregates: job counts/latency split by serving device,
/// and summed measured-vs-predicted `T_i` (per-request disk busy time).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerAgg {
    /// Served sub-requests (jobs completed).
    pub subs: u64,
    /// Bytes served.
    pub bytes: u64,
    /// Summed job latency for disk-served jobs, ns.
    pub disk_ns: u64,
    /// Disk-served job count.
    pub disk_subs: u64,
    /// Summed job latency for SSD-served jobs, ns.
    pub ssd_ns: u64,
    /// SSD-served job count.
    pub ssd_subs: u64,
    /// Summed predicted per-request disk busy time (Eq. 1 model), ns.
    pub ti_pred_ns: u64,
    /// Summed measured per-request disk busy time, ns.
    pub ti_meas_ns: u64,
    /// Number of runs contributing a `T_i` sample.
    pub ti_runs: u64,
}

impl ServerAgg {
    fn merge(&mut self, o: &ServerAgg) {
        self.subs += o.subs;
        self.bytes += o.bytes;
        self.disk_ns += o.disk_ns;
        self.disk_subs += o.disk_subs;
        self.ssd_ns += o.ssd_ns;
        self.ssd_subs += o.ssd_subs;
        self.ti_pred_ns += o.ti_pred_ns;
        self.ti_meas_ns += o.ti_meas_ns;
        self.ti_runs += o.ti_runs;
    }
}

/// Replicated-metadata-service aggregates: election/failover counters
/// plus the client-side degradation signal (`stale_t_decisions`). All
/// counters are virtual-time deterministic and merge by addition.
#[derive(Debug, Clone, Copy, Default)]
pub struct MdsAgg {
    /// Runs that recorded MDS activity.
    pub runs: u64,
    /// Leader elections started.
    pub elections: u64,
    /// Client-visible leader changes.
    pub leader_changes: u64,
    /// Virtual-time ns spent without a client-visible leader.
    pub recovery_ticks: u64,
    /// Client scheduling decisions taken while the MDS was unreachable
    /// (i.e. on possibly-stale T values).
    pub stale_t_decisions: u64,
    /// Metadata updates proposed to the replicated log.
    pub proposals: u64,
    /// Log entries committed at majority.
    pub commits: u64,
}

impl MdsAgg {
    fn merge(&mut self, o: &MdsAgg) {
        self.runs += o.runs;
        self.elections += o.elections;
        self.leader_changes += o.leader_changes;
        self.recovery_ticks += o.recovery_ticks;
        self.stale_t_decisions += o.stale_t_decisions;
        self.proposals += o.proposals;
        self.commits += o.commits;
    }

    /// True if no run has recorded MDS activity.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }
}

/// Backup-log maintenance aggregates: segmented-log turnover
/// (seal/compact/reclaim), checkpointing, and scrubbing, summed across
/// servers and runs. Counters only — per-run gauges (live segments,
/// live bytes) don't merge meaningfully and stay in the run report.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintAgg {
    /// Runs that recorded maintenance activity.
    pub runs: u64,
    /// Maintenance ticks delivered by the writeback daemon.
    pub ticks: u64,
    /// Ticks skipped because the cache device was busy.
    pub busy_skips: u64,
    /// Foreground backup records appended.
    pub records_appended: u64,
    /// Tombstone records appended for retired entries.
    pub tombstones: u64,
    /// Records superseded in place by clean updates.
    pub supersedes: u64,
    /// Bytes of foreground backup records appended.
    pub backup_bytes: u64,
    /// Segments sealed.
    pub segments_sealed: u64,
    /// Segments condemned by the compactor.
    pub segments_compacted: u64,
    /// Condemned segments reclaimed at a later barrier.
    pub segments_reclaimed: u64,
    /// Live records rewritten by compaction.
    pub records_rewritten: u64,
    /// Bytes rewritten — the write-amplification numerator.
    pub rewrite_bytes: u64,
    /// Indexed checkpoints written.
    pub checkpoints: u64,
    /// Records serialized into checkpoints.
    pub checkpoint_records: u64,
    /// Bytes of checkpoint images written.
    pub checkpoint_bytes: u64,
    /// Cold segments walked by the scrubber.
    pub scrub_segments: u64,
    /// Records CRC-verified by the scrubber.
    pub scrub_records: u64,
    /// Latent bit-rot hits repaired before any restart saw them.
    pub scrub_repairs: u64,
}

impl MaintAgg {
    fn merge(&mut self, o: &MaintAgg) {
        self.runs += o.runs;
        self.ticks += o.ticks;
        self.busy_skips += o.busy_skips;
        self.records_appended += o.records_appended;
        self.tombstones += o.tombstones;
        self.supersedes += o.supersedes;
        self.backup_bytes += o.backup_bytes;
        self.segments_sealed += o.segments_sealed;
        self.segments_compacted += o.segments_compacted;
        self.segments_reclaimed += o.segments_reclaimed;
        self.records_rewritten += o.records_rewritten;
        self.rewrite_bytes += o.rewrite_bytes;
        self.checkpoints += o.checkpoints;
        self.checkpoint_records += o.checkpoint_records;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.scrub_segments += o.scrub_segments;
        self.scrub_records += o.scrub_records;
        self.scrub_repairs += o.scrub_repairs;
    }

    /// True if no run has recorded maintenance activity.
    pub fn is_empty(&self) -> bool {
        self.runs == 0
    }
}

/// The full metrics registry.
#[derive(Debug, Clone)]
pub struct Registry {
    /// One latency histogram per [`Phase`] (ns of virtual time).
    pub phases: [Log2Hist; N_PHASES],
    /// Job latency per [`SubClass`] (ns).
    pub classes: [Log2Hist; N_CLASSES],
    /// Bytes served per [`SubClass`].
    pub class_bytes: [u64; N_CLASSES],
    /// Per-server aggregates, keyed by server id.
    pub servers: BTreeMap<u16, ServerAgg>,
    /// Replicated-MDS aggregates.
    pub mds: MdsAgg,
    /// Backup-log maintenance aggregates.
    pub maint: MaintAgg,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            phases: [Log2Hist::new(); N_PHASES],
            classes: [Log2Hist::new(); N_CLASSES],
            class_bytes: [0; N_CLASSES],
            servers: BTreeMap::new(),
            mds: MdsAgg::default(),
            maint: MaintAgg::default(),
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|h| h.count() == 0)
            && self.servers.is_empty()
            && self.mds.is_empty()
            && self.maint.is_empty()
    }

    /// Merges another registry into this one (pure addition).
    pub fn merge(&mut self, o: &Registry) {
        for (a, b) in self.phases.iter_mut().zip(o.phases.iter()) {
            a.merge(b);
        }
        for (a, b) in self.classes.iter_mut().zip(o.classes.iter()) {
            a.merge(b);
        }
        for (a, b) in self.class_bytes.iter_mut().zip(o.class_bytes.iter()) {
            *a += b;
        }
        for (&s, agg) in &o.servers {
            self.servers.entry(s).or_default().merge(agg);
        }
        self.mds.merge(&o.mds);
        self.maint.merge(&o.maint);
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Thread-local slot whose destructor merges into the global registry,
/// so pool workers that die inside a scope never lose samples.
struct LocalSlot(Option<Box<Registry>>);

impl Drop for LocalSlot {
    fn drop(&mut self) {
        if let Some(reg) = self.0.take() {
            merge_global(&reg);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSlot> = const { RefCell::new(LocalSlot(None)) };
}

static GLOBAL: Mutex<Option<Box<Registry>>> = Mutex::new(None);

fn merge_global(reg: &Registry) {
    if reg.is_empty() {
        return;
    }
    let mut g = GLOBAL.lock().unwrap();
    g.get_or_insert_with(|| Box::new(Registry::new()))
        .merge(reg);
}

fn with_local(f: impl FnOnce(&mut Registry)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        f(slot.0.get_or_insert_with(|| Box::new(Registry::new())));
    });
}

/// Records one phase latency sample (ns). No-op unless metrics are on.
pub fn record_phase(phase: Phase, ns: u64) {
    if !crate::metrics_on() {
        return;
    }
    with_local(|r| r.phases[phase.idx()].record(ns));
}

/// Records a served sub-request: per-class latency/bytes and the
/// per-server device split. No-op unless metrics are on.
pub fn record_sub(server: u16, class: SubClass, at_disk: bool, ns: u64, bytes: u64) {
    if !crate::metrics_on() {
        return;
    }
    with_local(|r| {
        r.classes[class.idx()].record(ns);
        r.class_bytes[class.idx()] += bytes;
        let agg = r.servers.entry(server).or_default();
        agg.subs += 1;
        agg.bytes += bytes;
        if at_disk {
            agg.disk_ns += ns;
            agg.disk_subs += 1;
        } else {
            agg.ssd_ns += ns;
            agg.ssd_subs += 1;
        }
    });
}

/// Records one run's measured-vs-predicted per-request disk busy time
/// for `server` (both in ns). No-op unless metrics are on.
pub fn record_ti(server: u16, pred_ns: u64, meas_ns: u64) {
    if !crate::metrics_on() {
        return;
    }
    with_local(|r| {
        let agg = r.servers.entry(server).or_default();
        agg.ti_pred_ns += pred_ns;
        agg.ti_meas_ns += meas_ns;
        agg.ti_runs += 1;
    });
}

/// Records one run's replicated-MDS counters. No-op unless metrics are
/// on or every counter is zero (single-MDS healthy runs leave no trace).
pub fn record_mds(agg: &MdsAgg) {
    if !crate::metrics_on() || agg.is_empty() {
        return;
    }
    with_local(|r| r.mds.merge(agg));
}

/// Records one run's backup-log maintenance counters. No-op unless
/// metrics are on and some maintenance happened (stock-policy runs and
/// maintenance-free iBridge runs leave no trace).
pub fn record_maint(agg: &MaintAgg) {
    if !crate::metrics_on() || agg.is_empty() {
        return;
    }
    with_local(|r| r.maint.merge(agg));
}

/// Merges the calling thread's local registry into the global one.
pub fn flush_local() {
    LOCAL.with(|slot| {
        if let Some(reg) = slot.borrow_mut().0.take() {
            merge_global(&reg);
        }
    });
}

/// Flushes the calling thread and returns a copy of the global registry.
pub fn snapshot() -> Registry {
    flush_local();
    GLOBAL
        .lock()
        .unwrap()
        .as_deref()
        .cloned()
        .unwrap_or_default()
}

/// Clears the global registry and the calling thread's local one.
/// Test-support only.
pub fn reset() {
    LOCAL.with(|slot| slot.borrow_mut().0 = None);
    *GLOBAL.lock().unwrap() = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    static LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _g = lock();
        reset();
        assert!(!crate::metrics_on());
        record_phase(Phase::Request, 100);
        record_sub(0, SubClass::Bulk, true, 5, 4096);
        assert!(snapshot().is_empty());
        reset();
    }

    #[test]
    fn phases_and_subs_accumulate() {
        let _g = lock();
        reset();
        crate::set_metrics(true);
        record_phase(Phase::Request, 1000);
        record_phase(Phase::Request, 3000);
        record_sub(2, SubClass::Fragment, false, 500, 1024);
        record_sub(2, SubClass::Bulk, true, 9000, 65536);
        record_ti(2, 40, 50);
        crate::set_metrics(false);
        let snap = snapshot();
        assert_eq!(snap.phases[Phase::Request.idx()].count(), 2);
        assert_eq!(snap.phases[Phase::Request.idx()].sum(), 4000);
        assert_eq!(snap.classes[SubClass::Fragment.idx()].count(), 1);
        assert_eq!(snap.class_bytes[SubClass::Bulk.idx()], 65536);
        let agg = snap.servers.get(&2).unwrap();
        assert_eq!(agg.subs, 2);
        assert_eq!(agg.ssd_subs, 1);
        assert_eq!(agg.disk_subs, 1);
        assert_eq!(agg.ti_pred_ns, 40);
        assert_eq!(agg.ti_meas_ns, 50);
        assert_eq!(agg.ti_runs, 1);
        reset();
    }

    #[test]
    fn cross_thread_merge_via_flush() {
        let _g = lock();
        reset();
        crate::set_metrics(true);
        // Workers flush explicitly (as the pool's task scopes do):
        // scoped-join alone does not order TLS destructors before the
        // scope returns.
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    record_phase(Phase::NetTx, 250);
                    flush_local();
                });
            }
        });
        crate::set_metrics(false);
        let snap = snapshot();
        assert_eq!(snap.phases[Phase::NetTx.idx()].count(), 4);
        reset();
    }

    #[test]
    fn registry_merge_matches_single() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.phases[Phase::SrvQueue.idx()].record(10);
        b.phases[Phase::SrvQueue.idx()].record(30);
        b.servers.entry(1).or_default().subs = 7;
        a.merge(&b);
        assert_eq!(a.phases[Phase::SrvQueue.idx()].count(), 2);
        assert_eq!(a.servers.get(&1).unwrap().subs, 7);
    }
}
