//! The cluster: clients, network, metadata server and data servers wired
//! onto one discrete-event calendar.
//!
//! [`Cluster::run`] executes a [`Workload`] to completion — including the
//! end-of-run writeback drain, which the paper deliberately counts in
//! program execution time — and returns a [`RunStats`] with everything
//! the experiment harness needs (throughput, request latencies, per-
//! server device statistics and blktrace-style dispatch histograms).
//!
//! A cluster can be run multiple times without rebuilding: file-system
//! allocations and cache contents persist, which is how the harness
//! warms the iBridge cache before read experiments (the paper relies on
//! the same effect across repeated production runs).
//!
//! # Structure
//!
//! One calendar ([`Simulation`]) drives the whole cluster. A run's state
//! has two sides that interact only through events:
//!
//! * the **client side** owns the clients and the metadata server — the
//!   workload, per-process bookkeeping, the in-flight parent table, the
//!   retry protocol and the MDS T-value table (`CoordPersist` is its
//!   cross-run state);
//! * the **server side** owns the data servers — one `ServerCell` per
//!   server with its devices, policy, link and crash/epoch state — and
//!   the in-flight job table.
//!
//! The client side files each sub-request's `PendingJob` in the server
//! side's job table as it sends it, SSD loss steers the MDS off via
//! `Ev::SteerOff`, and the end-of-run drain is kicked by `DrainTick`s. Every post names its source node (clients and MDS
//! are node 0, server `s` is node `s + 1`), so same-instant events fire
//! in the calendar's intrinsic `(time, source node, per-node sequence)`
//! order. Probabilistic network impairments draw from per-node RNG
//! streams ([`ibridge_faults::NetDecider`]).

use crate::layout::Layout;
use crate::policy::{BitRotTarget, CachePolicy, CacheStats, LogCorruption, MaintStats};
use crate::proto::{FileRequest, SubRequest};
use crate::server::{DataServer, DevKind, JobId, ServerConfig, ServerOut};
use crate::workload::Workload;
use ibridge_des::fxhash::FxHashMap as HashMap;
use ibridge_des::stats::{Histogram, MeanTracker};
use ibridge_des::{EventId, SimDuration, SimTime, Simulation};
use ibridge_faults::{
    FaultDev, FaultInjector, FaultPlan, FaultStats, NetDecider, RetryConfig, RotTarget, TimedFault,
};
use ibridge_iosched::{Action, DevStats};
use ibridge_localfs::FileHandle;
use ibridge_mds::{
    Action as MdsAction, Entry as MdsEntry, MdsConfig, MdsGroup, MdsStats, Msg as MdsMsg,
};
use ibridge_net::{Link, LinkConfig, NetDecision};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calendar events dispatched by every [`Cluster::run`] in this process,
/// across all threads — the implementation-throughput denominator for the
/// harness's `--bench-report` (events per wall-second).
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Total calendar events dispatched by all cluster runs so far in this
/// process (monotone; updated once per run, so it is cheap and safe to
/// poll from another thread).
pub fn total_events_dispatched() -> u64 {
    TOTAL_EVENTS.load(Ordering::Relaxed)
}

static TOTAL_RETRIES: AtomicU64 = AtomicU64::new(0);
static TOTAL_TIMEOUTS: AtomicU64 = AtomicU64::new(0);
static TOTAL_DROPPED_MSGS: AtomicU64 = AtomicU64::new(0);
static TOTAL_DIRTY_LOST: AtomicU64 = AtomicU64::new(0);
static TOTAL_DEGRADED_NS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FSCK_SCANNED: AtomicU64 = AtomicU64::new(0);
static TOTAL_FSCK_QUARANTINED: AtomicU64 = AtomicU64::new(0);
static TOTAL_STALE_T: AtomicU64 = AtomicU64::new(0);
static TOTAL_MDS_ELECTIONS: AtomicU64 = AtomicU64::new(0);
static TOTAL_MDS_LEADER_CHANGES: AtomicU64 = AtomicU64::new(0);
static TOTAL_MDS_RECOVERY_NS: AtomicU64 = AtomicU64::new(0);
/// Auditor passes are counted even on faultless runs (the auditor is a
/// verification knob, not a fault), so this lives outside the
/// `is_zero`-gated flush below.
static TOTAL_AUDITS: AtomicU64 = AtomicU64::new(0);

/// Process-wide backup-log maintenance totals (segmented log,
/// checkpoints, compaction, scrub), folded once per run across servers.
/// `None` until a run with a maintaining policy flushes counters.
/// Counters only — per-run gauges are zeroed before folding.
static TOTAL_MAINT: std::sync::Mutex<Option<MaintStats>> = std::sync::Mutex::new(None);

/// Snapshot of the process-wide maintenance counters (monotone; updated
/// once per run, like [`total_fault_counters`]). All-zero until an
/// iBridge run with backup-log maintenance has completed.
pub fn total_maint_counters() -> MaintStats {
    TOTAL_MAINT.lock().unwrap().unwrap_or_default()
}

/// Process-wide fault/recovery totals, aggregated once per run across all
/// worker threads (the harness's `--bench-report` pulls these next to the cache
/// counters). All zero unless a fault plan was armed — except `audits`,
/// which counts invariant-auditor passes on any run with auditing on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    /// Sub-request retransmissions.
    pub retries: u64,
    /// Client-side sub-request timeouts.
    pub timeouts: u64,
    /// Messages lost to crashes or injected network drops.
    pub dropped_messages: u64,
    /// Dirty bytes lost to SSD device failures.
    pub dirty_bytes_lost: u64,
    /// Summed per-server degraded time, nanoseconds.
    pub degraded_ns: u64,
    /// Backup records scanned by restart recovery fscks.
    pub fsck_records_scanned: u64,
    /// Backup records quarantined by restart recovery fscks.
    pub fsck_records_quarantined: u64,
    /// Client scheduling decisions taken while no metadata service was
    /// reachable (stale-T degradation).
    pub stale_t_decisions: u64,
    /// Replicated-MDS leader elections started.
    pub mds_elections: u64,
    /// Client-visible MDS leader changes.
    pub mds_leader_changes: u64,
    /// Virtual-time nanoseconds the replicated MDS spent without a
    /// client-visible leader (failover recovery windows).
    pub mds_failover_recovery_ticks: u64,
    /// Online invariant-auditor passes completed.
    pub audits: u64,
}

impl FaultTotals {
    /// Field-wise `self - earlier`: the activity between two snapshots
    /// of the process-wide totals.
    pub fn since(&self, earlier: &FaultTotals) -> FaultTotals {
        FaultTotals {
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            dropped_messages: self.dropped_messages - earlier.dropped_messages,
            dirty_bytes_lost: self.dirty_bytes_lost - earlier.dirty_bytes_lost,
            degraded_ns: self.degraded_ns - earlier.degraded_ns,
            fsck_records_scanned: self.fsck_records_scanned - earlier.fsck_records_scanned,
            fsck_records_quarantined: self.fsck_records_quarantined
                - earlier.fsck_records_quarantined,
            stale_t_decisions: self.stale_t_decisions - earlier.stale_t_decisions,
            mds_elections: self.mds_elections - earlier.mds_elections,
            mds_leader_changes: self.mds_leader_changes - earlier.mds_leader_changes,
            mds_failover_recovery_ticks: self.mds_failover_recovery_ticks
                - earlier.mds_failover_recovery_ticks,
            audits: self.audits - earlier.audits,
        }
    }
}

/// Snapshot of the process-wide fault counters (monotone; updated once
/// per run, like [`total_events_dispatched`]).
pub fn total_fault_counters() -> FaultTotals {
    FaultTotals {
        retries: TOTAL_RETRIES.load(Ordering::Relaxed),
        timeouts: TOTAL_TIMEOUTS.load(Ordering::Relaxed),
        dropped_messages: TOTAL_DROPPED_MSGS.load(Ordering::Relaxed),
        dirty_bytes_lost: TOTAL_DIRTY_LOST.load(Ordering::Relaxed),
        degraded_ns: TOTAL_DEGRADED_NS.load(Ordering::Relaxed),
        fsck_records_scanned: TOTAL_FSCK_SCANNED.load(Ordering::Relaxed),
        fsck_records_quarantined: TOTAL_FSCK_QUARANTINED.load(Ordering::Relaxed),
        stale_t_decisions: TOTAL_STALE_T.load(Ordering::Relaxed),
        mds_elections: TOTAL_MDS_ELECTIONS.load(Ordering::Relaxed),
        mds_leader_changes: TOTAL_MDS_LEADER_CHANGES.load(Ordering::Relaxed),
        mds_failover_recovery_ticks: TOTAL_MDS_RECOVERY_NS.load(Ordering::Relaxed),
        audits: TOTAL_AUDITS.load(Ordering::Relaxed),
    }
}

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of data servers (the paper's testbed: 8).
    pub n_servers: usize,
    /// Stripe unit in bytes (PVFS2 default: 64 KB).
    pub stripe_unit: u64,
    /// Interconnect parameters.
    pub link: LinkConfig,
    /// Per-server configuration.
    pub server: ServerConfig,
    /// Client-side fragment/random threshold in bytes (paper: 20 KB).
    pub threshold: u64,
    /// Enable iBridge's client-side fragment flagging.
    pub flag_fragments: bool,
    /// Interval of the per-server T-value report to the MDS (paper: 1 s).
    pub report_interval: SimDuration,
    /// Metadata-service replicas. `1` (the default) is the classic
    /// single MDS — a SPOF whose crash degrades clients to stale T
    /// values. `> 1` runs a raft-style replicated group (entirely on
    /// the client node, in virtual time): T reports and steering
    /// updates go through a majority-committed log, and the group
    /// survives leader crashes and partitions via deterministic
    /// seeded elections.
    pub mds_replicas: usize,
    /// Interval of the writeback daemon's idle check.
    pub writeback_interval: SimDuration,
    /// Maximum per-request client-side jitter (OS scheduling noise,
    /// network variance), drawn uniformly. This is what desynchronises
    /// the processes — the paper's "nondeterminism of parallel
    /// execution" that defeats in-kernel prefetching and merging.
    pub client_jitter: SimDuration,
    /// Experiment seed (jitter and any stochastic workload draws).
    pub seed: u64,
    /// Virtual-time cadence of the online invariant auditor: every
    /// elapsed interval the cluster cross-checks its live servers'
    /// policy invariants and the process-epoch monotonicity, aborting
    /// with a structured diagnostic on the first violation. `None`
    /// disables auditing. The auditor is synchronous and read-only — it
    /// posts no events and draws no randomness, so an audited run is
    /// byte-identical to an unaudited one.
    pub audit_interval: Option<SimDuration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_servers: 8,
            stripe_unit: 64 * 1024,
            link: LinkConfig::qdr_infiniband(),
            server: ServerConfig::default(),
            threshold: 20 * 1024,
            flag_fragments: false,
            report_interval: SimDuration::from_secs(1),
            mds_replicas: 1,
            writeback_interval: SimDuration::from_millis(100),
            client_jitter: SimDuration::from_millis(10),
            seed: 42,
            audit_interval: None,
        }
    }
}

/// Node id of the clients and the MDS.
const COORD: u16 = 0;

/// Node id of data server `s` (clients and the MDS are node 0).
fn srv_node(s: usize) -> u16 {
    s as u16 + 1
}

#[derive(Debug)]
enum Ev {
    /// Process is ready to fetch its next work item.
    Wake { proc: usize },
    /// Think time elapsed; issue the request.
    Issue { proc: usize, req: FileRequest },
    /// Sub-request message reached its server (its record is already in
    /// the job table).
    SubArrive { server: usize, job: JobId },
    /// Server CPU admitted the sub-request. `epoch` is the server's
    /// process epoch at admission: a crash bumps it, so executions queued
    /// by the dead process are discarded instead of acting on the
    /// restarted one.
    SubExec {
        server: usize,
        job: JobId,
        epoch: u32,
    },
    /// A device finished its in-flight request. `epoch` guards against
    /// completions of a device instance that a crash or SSD loss has
    /// since torn down and rebuilt.
    DevComplete {
        server: usize,
        kind: DevKind,
        epoch: u32,
    },
    /// A device anticipation timer fired.
    DevRecheck {
        server: usize,
        kind: DevKind,
        gen: u64,
        epoch: u32,
    },
    /// A sub-reply reached the client. `sub_idx` identifies the
    /// sub-request within its parent so duplicate replies (retries,
    /// network duplication) are detected and dropped.
    Reply {
        proc: usize,
        parent: u64,
        sub_idx: u32,
    },
    /// A scheduled fault fires (only when a plan is armed).
    Fault(TimedFault),
    /// Client-side retransmission timer for one sub-request (only when a
    /// plan is armed; cancelled when the reply arrives).
    SubTimeout { parent: u64, sub_idx: u32 },
    /// Periodic T-value report from a server.
    Report { server: usize },
    /// The report reached the MDS.
    ReportArrive { server: usize, t: f64 },
    /// The MDS broadcast reached a server. The table is shared: one
    /// snapshot per report, not one clone per destination server.
    /// `version` is the metadata version the snapshot reflects (the
    /// replicated log's commit index when the MDS is replicated, a
    /// plain counter otherwise); servers assert it never regresses.
    Broadcast {
        server: usize,
        version: u64,
        table: Arc<[f64]>,
    },
    /// An intra-MDS-group raft message or timer (replicated MDS only).
    /// The whole group lives on the client node, so these are node-0
    /// self-posts.
    Mds(MdsMsg),
    /// Re-proposal of a metadata update that found no reachable MDS
    /// leader: the client-facing path backs off and retries instead of
    /// silently dropping the update.
    MdsRetry { entry: MdsEntry, attempt: u32 },
    /// Periodic writeback-daemon check.
    WritebackTick { server: usize },
    /// End-of-run drain kick, posted by the coordinator to every server
    /// (and locally by a mid-drain restart).
    DrainTick { server: usize },
    /// A server lost its SSD: the MDS zeroes that server's T slot so
    /// fragments stop being steered at it. The table lives on the
    /// client node, one link lookahead away from the failing server.
    SteerOff { server: usize },
}

/// Cluster-side record of one in-flight sub-request: filed in the job
/// table when the client sends it, removed when the reply leaves the
/// server or the message or job is lost.
#[derive(Debug)]
struct PendingJob {
    /// Taken (moved into the server) when the CPU admits the job; the
    /// reply size is precomputed so the reply path never needs it back.
    sub: Option<SubRequest>,
    reply_bytes: u64,
    proc: usize,
    parent: u64,
    server: usize,
    sub_idx: u32,
}

/// Client-side in-flight record of one sub-request, kept only while a
/// fault plan is armed: the original message for retransmission, the
/// attempt count, and the pending timeout timer.
#[derive(Debug)]
struct SubTrack {
    sub: SubRequest,
    attempt: u32,
    done: bool,
    timeout: Option<EventId>,
}

#[derive(Debug)]
struct ParentState {
    proc: usize,
    pending: usize,
    issued_at: SimTime,
    /// In-flight table for retry/dedup; empty when no plan is armed.
    subs: Vec<SubTrack>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ProcState {
    Running,
    AtBarrier,
    Done,
}

// Observability hooks. Each is one relaxed atomic load when the
// corresponding collector is off; none touches the calendar or the RNG.

/// Client → server request hop: `NetRequest` metric + `net:req` span.
fn obs_net_req(
    now: SimTime,
    arrive: SimTime,
    proc: usize,
    parent: u64,
    sub_idx: u32,
    server: usize,
) {
    use ibridge_obs::{metrics, trace};
    let d = (arrive - now).as_nanos();
    metrics::record_phase(metrics::Phase::NetRequest, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: d,
            node: trace::CLIENT_NODE,
            lane: proc as u16,
            name: "net:req",
            id: trace::span_id(parent, sub_idx),
            aux: server as u64,
        });
    }
}

/// Server CPU admission queue: `SrvQueue` metric + `srv:queue` span.
fn obs_srv_queue(now: SimTime, exec_at: SimTime, server: usize, job: JobId) {
    use ibridge_obs::{metrics, trace};
    let d = (exec_at - now).as_nanos();
    metrics::record_phase(metrics::Phase::SrvQueue, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: d,
            node: trace::server_node(server),
            lane: 0,
            name: "srv:queue",
            id: job,
            aux: 0,
        });
    }
}

/// Server → client reply hop: `NetReply` metric + `net:reply` span.
fn obs_net_reply(
    now: SimTime,
    arrive: SimTime,
    server: usize,
    parent: u64,
    sub_idx: u32,
    reply_bytes: u64,
) {
    use ibridge_obs::{metrics, trace};
    let d = (arrive - now).as_nanos();
    metrics::record_phase(metrics::Phase::NetReply, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: d,
            node: trace::server_node(server),
            lane: 0,
            name: "net:reply",
            id: trace::span_id(parent, sub_idx),
            aux: reply_bytes,
        });
    }
}

/// Trace lane for replicated-MDS spans on the client node — far above
/// any real process lane, so MDS activity sorts into its own swimlane.
const MDS_TRACE_LANE: u16 = u16::MAX;

/// One replicated log entry, proposal → majority commit:
/// `mds:replicate` span (id = commit index).
fn obs_mds_replicate(proposed_at: SimTime, committed_at: SimTime, index: u64) {
    use ibridge_obs::trace;
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: proposed_at.as_nanos(),
            dur_ns: (committed_at - proposed_at).as_nanos(),
            node: trace::CLIENT_NODE,
            lane: MDS_TRACE_LANE,
            name: "mds:replicate",
            id: index,
            aux: 0,
        });
    }
}

/// A leadership change in the MDS group: `mds:leader` span (id = term,
/// aux = elected replica, or `u64::MAX` for "leaderless").
fn obs_mds_leader(now: SimTime, leader: Option<usize>, term: u64) {
    use ibridge_obs::trace;
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: now.as_nanos(),
            dur_ns: 0,
            node: trace::CLIENT_NODE,
            lane: MDS_TRACE_LANE,
            name: "mds:leader",
            id: term,
            aux: leader.map_or(u64::MAX, |l| l as u64),
        });
    }
}

/// Whole client request, issue → last sub-reply: `Request` metric +
/// `request` span.
fn obs_request_done(issued_at: SimTime, wait: SimDuration, proc: usize, parent: u64) {
    use ibridge_obs::{metrics, trace};
    let d = wait.as_nanos();
    metrics::record_phase(metrics::Phase::Request, d);
    if ibridge_obs::tracing_on() {
        trace::record(trace::Span {
            ts_ns: issued_at.as_nanos(),
            dur_ns: d,
            node: trace::CLIENT_NODE,
            lane: proc as u16,
            name: "request",
            id: parent,
            aux: 0,
        });
    }
}

fn dev_idx(kind: DevKind) -> usize {
    match kind {
        DevKind::Primary => 0,
        DevKind::Cache => 1,
    }
}

fn devkind(dev: FaultDev) -> DevKind {
    match dev {
        FaultDev::Primary => DevKind::Primary,
        FaultDev::Cache => DevKind::Cache,
    }
}

/// Folds a plan's server id into the cluster's range so one plan file
/// works across cluster sizes.
fn clamp_fault(f: TimedFault, n: usize) -> TimedFault {
    match f {
        TimedFault::Crash { server } => TimedFault::Crash { server: server % n },
        TimedFault::Restart { server } => TimedFault::Restart { server: server % n },
        TimedFault::SsdLoss { server } => TimedFault::SsdLoss { server: server % n },
        TimedFault::SlowStart {
            server,
            dev,
            factor,
        } => TimedFault::SlowStart {
            server: server % n,
            dev,
            factor,
        },
        TimedFault::SlowEnd { server, dev } => TimedFault::SlowEnd {
            server: server % n,
            dev,
        },
        TimedFault::TornWrite { server, records } => TimedFault::TornWrite {
            server: server % n,
            records,
        },
        TimedFault::BitRot {
            server,
            sectors,
            seed,
            target,
        } => TimedFault::BitRot {
            server: server % n,
            sectors,
            seed,
            target,
        },
        TimedFault::MdsCrash
        | TimedFault::MdsRestart
        | TimedFault::MdsLeaderCrash
        | TimedFault::MdsLeaderRestart
        | TimedFault::MdsPartitionStart
        | TimedFault::MdsPartitionHeal => f,
    }
}

/// The data server a fault targets, or `None` for MDS faults: decides
/// which node posts a scheduled fault and which side handles it.
fn fault_server(f: &TimedFault) -> Option<usize> {
    match *f {
        TimedFault::Crash { server }
        | TimedFault::Restart { server }
        | TimedFault::SsdLoss { server }
        | TimedFault::SlowStart { server, .. }
        | TimedFault::SlowEnd { server, .. }
        | TimedFault::TornWrite { server, .. }
        | TimedFault::BitRot { server, .. } => Some(server),
        TimedFault::MdsCrash
        | TimedFault::MdsRestart
        | TimedFault::MdsLeaderCrash
        | TimedFault::MdsLeaderRestart
        | TimedFault::MdsPartitionStart
        | TimedFault::MdsPartitionHeal => None,
    }
}

/// Per-server statistics captured at the end of a run.
#[derive(Debug, Clone)]
pub struct ServerRunStats {
    /// Primary device counters.
    pub primary: DevStats,
    /// Cache device counters (if configured).
    pub cache: Option<DevStats>,
    /// Policy counters.
    pub policy: CacheStats,
    /// Backup-log maintenance counters (segmented log, checkpoints,
    /// compaction, scrub) — all zero for policies without a backup log.
    pub maint: MaintStats,
    /// Dispatch-size histogram of primary-device reads (sectors).
    pub primary_reads: Histogram,
    /// Dispatch-size histogram of primary-device writes (sectors).
    pub primary_writes: Histogram,
    /// Readahead page-cache hits served without device I/O.
    pub ra_hits: u64,
    /// Bytes of those hits.
    pub ra_bytes: u64,
}

/// Results of one workload run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall time to full quiescence (includes the writeback drain, as
    /// the paper's methodology requires).
    pub elapsed: SimDuration,
    /// Wall time until the last process finished its last request.
    pub client_elapsed: SimDuration,
    /// Client-level bytes moved.
    pub bytes: u64,
    /// Client-level requests issued.
    pub requests: u64,
    /// Per-request completion latency, milliseconds.
    pub latency_ms: MeanTracker,
    /// Latency distribution, bucketed in whole milliseconds
    /// (percentiles via [`Histogram::quantile`]).
    pub latency_hist_ms: Histogram,
    /// Total time processes spent waiting on I/O (summed across procs).
    pub io_time: SimDuration,
    /// Total compute (think) time (summed across procs).
    pub think_time: SimDuration,
    /// Calendar events dispatched during this run (simulator work, not a
    /// property of the simulated system).
    pub events_dispatched: u64,
    /// Bytes moved by each process (heterogeneous-workload accounting).
    pub proc_bytes: Vec<u64>,
    /// When each process finished, relative to run start.
    pub proc_done: Vec<SimDuration>,
    /// Per-server breakdown.
    pub servers: Vec<ServerRunStats>,
    /// Fault/recovery counters (all zero unless a plan was armed).
    pub faults: FaultStats,
}

impl RunStats {
    /// Aggregate throughput over the full run (drain included), MB/s.
    pub fn throughput_mbps(&self) -> f64 {
        if self.elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Throughput over the client phase only, MB/s.
    pub fn client_throughput_mbps(&self) -> f64 {
        if self.client_elapsed == SimDuration::ZERO {
            return 0.0;
        }
        self.bytes as f64 / self.client_elapsed.as_secs_f64() / 1e6
    }

    /// Fraction of client bytes served by the SSD caches.
    pub fn ssd_served_fraction(&self) -> f64 {
        let ssd: u64 = self.servers.iter().map(|s| s.policy.bytes_ssd).sum();
        let disk: u64 = self.servers.iter().map(|s| s.policy.bytes_disk).sum();
        if ssd + disk == 0 {
            0.0
        } else {
            ssd as f64 / (ssd + disk) as f64
        }
    }

    /// Combined dispatch histogram of all primary devices (reads).
    pub fn combined_read_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.servers {
            h.merge(&s.primary_reads);
        }
        h
    }

    /// Combined dispatch histogram of all primary devices (writes).
    pub fn combined_write_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in &self.servers {
            h.merge(&s.primary_writes);
        }
        h
    }

    /// Throughput of a subset of processes, MB/s: their bytes over the
    /// time the slowest of them took (per-benchmark numbers in
    /// heterogeneous runs, cf. Fig. 12).
    pub fn group_throughput_mbps(&self, procs: std::ops::Range<usize>) -> f64 {
        let bytes: u64 = self.proc_bytes[procs.clone()].iter().sum();
        let slowest = self.proc_done[procs]
            .iter()
            .max()
            .copied()
            .unwrap_or(SimDuration::ZERO);
        if slowest == SimDuration::ZERO {
            return 0.0;
        }
        bytes as f64 / slowest.as_secs_f64() / 1e6
    }
}

/// Cross-run state of the client side: the clients' RNG and id
/// counters, and the metadata server.
struct CoordPersist {
    mds_link: Link,
    mds_table: Vec<f64>,
    /// Metadata server currently crashed: T-value reports are dropped
    /// and broadcasts stall until its restart. (Single-MDS path only;
    /// a replicated group tracks availability via its leader instead.)
    mds_down: bool,
    /// Replicated MDS group (`mds_replicas > 1`); `None` runs the
    /// legacy single-MDS path byte-identically to before.
    mds: Option<MdsGroup>,
    /// Monotone metadata version stamped on broadcasts: the replicated
    /// log's commit index, or a plain counter on the single-MDS path.
    mds_version: u64,
    jitter_rng: StdRng,
    next_job: u64,
    next_parent: u64,
    /// Per-node network-impairment dice for client → server messages
    /// (`None` when no plan with net windows is armed).
    decider: Option<NetDecider>,
}

/// Cross-run state of one data server.
struct ServerCell {
    server: DataServer,
    /// Server → client reply link.
    link: Link,
    /// Process currently crashed.
    down: bool,
    /// Process epoch (bumped on crash).
    srv_epoch: u32,
    /// Device epochs, `[primary, cache]` (crash bumps both, SSD loss
    /// bumps only the cache slot).
    dev_epoch: [u32; 2],
    /// Count of overlapping degradation causes (down, slow window, lost
    /// SSD); time with depth > 0 accrues to [`FaultStats::degraded`].
    degraded_depth: u32,
    degraded_since: SimTime,
    /// Highest metadata version seen in a broadcast — the server-side
    /// T-monotonicity check (versions must never regress).
    bcast_version: u64,
    /// Per-node network-impairment dice for this server's replies.
    decider: Option<NetDecider>,
}

/// The simulated cluster.
pub struct Cluster {
    cfg: ClusterConfig,
    sim: Simulation<Ev>,
    coord: CoordPersist,
    cells: Vec<ServerCell>,
    /// Armed fault schedule; `None` keeps every fault path inert so an
    /// unarmed cluster is byte-identical to one that never saw a plan.
    injector: Option<FaultInjector>,
}

impl Cluster {
    /// Builds a cluster; `make_policy` constructs each server's cache
    /// policy (e.g. `|_| Box::new(StockPolicy::new())`).
    pub fn new(cfg: ClusterConfig, make_policy: impl Fn(usize) -> Box<dyn CachePolicy>) -> Self {
        let shared = cfg.server.clone();
        Self::heterogeneous(cfg, move |_| shared.clone(), make_policy)
    }

    /// Builds a cluster with per-server configurations — e.g. one
    /// degraded disk among healthy ones, the scenario where Eq. (3)'s
    /// bottleneck detection matters.
    pub fn heterogeneous(
        cfg: ClusterConfig,
        make_server: impl Fn(usize) -> ServerConfig,
        make_policy: impl Fn(usize) -> Box<dyn CachePolicy>,
    ) -> Self {
        assert!(cfg.n_servers > 0, "cluster needs at least one server");
        assert!(
            cfg.n_servers < usize::from(u16::MAX),
            "node ids are 16 bits"
        );
        let cells = (0..cfg.n_servers)
            .map(|s| ServerCell {
                server: DataServer::new(s, make_server(s), make_policy(s)),
                link: Link::new(cfg.link.clone()),
                down: false,
                srv_epoch: 0,
                dev_epoch: [0, 0],
                degraded_depth: 0,
                degraded_since: SimTime::ZERO,
                bcast_version: 0,
                decider: None,
            })
            .collect();
        Cluster {
            coord: CoordPersist {
                mds_link: Link::new(cfg.link.clone()),
                mds_table: vec![0.0; cfg.n_servers],
                mds_down: false,
                mds: (cfg.mds_replicas > 1).then(|| {
                    MdsGroup::new(MdsConfig::new(cfg.mds_replicas, cfg.seed, cfg.link.clone()))
                }),
                mds_version: 0,
                jitter_rng: ibridge_des::rng::stream_rng(
                    cfg.seed,
                    ibridge_des::rng::streams::CLIENT,
                ),
                next_job: 0,
                next_parent: 0,
                decider: None,
            },
            sim: Simulation::new(),
            cells,
            injector: None,
            cfg,
        }
    }

    /// Arms `plan` for the next run: its schedule is injected (times
    /// relative to that run's start) and the client switches to the
    /// plan's timeout/retry protocol. A faultless plan arms nothing at
    /// all — the run is byte-identical to one on a cluster that never
    /// saw a plan. Server ids in the plan are taken modulo `n_servers`.
    ///
    /// Each node gets its own impairment-decision RNG stream, so the
    /// dice one node rolls do not depend on how its messages interleave
    /// with any other node's.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.injector = (!plan.is_faultless()).then(|| FaultInjector::new(plan, self.cfg.seed));
        let seed = self.cfg.seed;
        let inj = self.injector.as_ref();
        self.coord.decider = inj.and_then(|inj| inj.net_decider(seed, COORD));
        for (s, cell) in self.cells.iter_mut().enumerate() {
            cell.decider = inj.and_then(|inj| inj.net_decider(seed, srv_node(s)));
        }
    }

    /// The striping layout used for all files.
    pub fn layout(&self) -> Layout {
        Layout::new(self.cfg.stripe_unit, self.cfg.n_servers)
    }

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Direct server access (inspection in tests/harness).
    pub fn server(&self, i: usize) -> &DataServer {
        &self.cells[i].server
    }

    /// Preallocates a striped file of `logical_bytes` across the servers
    /// (the experiment data sets exist before measurement, as in the
    /// paper's setup).
    pub fn preallocate(&mut self, file: FileHandle, logical_bytes: u64) {
        let layout = Layout::new(self.cfg.stripe_unit, self.cfg.n_servers);
        let su = layout.stripe_unit;
        let units = logical_bytes.div_ceil(su);
        for (s, cell) in self.cells.iter_mut().enumerate() {
            // Units owned by server s among 0..units.
            let owned = units / layout.n_servers as u64
                + u64::from(units % layout.n_servers as u64 > s as u64);
            if owned > 0 {
                cell.server.preallocate(file, owned * su);
            }
        }
    }

    /// Runs `workload` to completion (including writeback drain);
    /// returns the run's statistics.
    ///
    /// State (file allocations, cache contents, device head positions)
    /// persists across calls, enabling warm-cache measurements.
    pub fn run(&mut self, workload: &mut dyn Workload) -> RunStats {
        let n_procs = workload.procs();
        assert!(n_procs > 0, "workload has no processes");
        let n_servers = self.cfg.n_servers;
        let start = self.sim.now();
        let dispatched_before = self.sim.dispatched();
        let layout = self.layout();
        let ibridge = self.cfg.flag_fragments;

        // Fault machinery. Everything below is inert when no plan is
        // armed: no extra events, no RNG draws, identical event order.
        let faults = self.injector.is_some();
        let retry = self
            .injector
            .as_ref()
            .map(|inj| inj.retry().clone())
            .unwrap_or_default();
        let mut coord_fault_ids: Vec<EventId> = Vec::new();
        let mut server_fault_ids: Vec<Vec<EventId>> = vec![Vec::new(); n_servers];
        if let Some(inj) = self.injector.as_mut() {
            // `arm` hands the timeline out exactly once, so a cluster
            // re-run without re-arming does not re-inject old faults.
            let timeline: Vec<(SimDuration, TimedFault)> = inj.arm().to_vec();
            for (off, f) in timeline {
                // Each fault is posted by the node it targets.
                // Cancellable: the run drains the calendar to empty, so
                // faults pending past their target's quiescence are
                // unscheduled.
                let f = clamp_fault(f, n_servers);
                match fault_server(&f) {
                    Some(s) => {
                        let id = self
                            .sim
                            .schedule_from(srv_node(s), start + off, Ev::Fault(f));
                        server_fault_ids[s].push(id);
                    }
                    None => {
                        let id = self.sim.schedule_from(COORD, start + off, Ev::Fault(f));
                        coord_fault_ids.push(id);
                    }
                }
            }
        }
        for cell in &mut self.cells {
            // Degradation persisting from an earlier run (e.g. a lost
            // SSD) accrues from this run's start.
            if cell.degraded_depth > 0 {
                cell.degraded_since = start;
            }
            cell.server.prepare_run();
        }

        // Observability. Recording is read-only with respect to the
        // simulation — it posts no events and draws no randomness — so a
        // traced run is byte-identical to an untraced one. The device
        // snapshot anchors this run's measured-vs-predicted T_i deltas.
        ibridge_obs::trace::run_begin();
        let obs_dev0: Vec<ibridge_iosched::DevStats> = if ibridge_obs::metrics_on() {
            self.cells
                .iter()
                .map(|c| c.server.primary().stats())
                .collect()
        } else {
            Vec::new()
        };

        let client_links: Vec<Link> = (0..n_procs)
            .map(|_| Link::new(self.cfg.link.clone()))
            .collect();
        let use_barrier = workload.barrier();
        let barrier_mask: Vec<bool> = (0..n_procs).map(|p| workload.in_barrier(p)).collect();

        for proc in 0..n_procs {
            self.sim.post_from(COORD, start, Ev::Wake { proc });
        }
        // Re-arm the replicated-MDS group's timers for this run (the
        // drain cancelled them at the end of the previous run).
        let mds_before = self.coord.mds.as_ref().map(|g| g.stats());
        if let Some(g) = self.coord.mds.as_mut() {
            let mut acts = Vec::new();
            g.resume(start, &mut acts);
            for a in acts {
                if let MdsAction::Deliver { at, msg } = a {
                    self.sim.post_from(COORD, at, Ev::Mds(msg));
                }
            }
        }
        if ibridge {
            for server in 0..n_servers {
                let node = srv_node(server);
                self.sim.post_from(
                    node,
                    start + self.cfg.report_interval,
                    Ev::Report { server },
                );
                self.sim.post_from(
                    node,
                    start + self.cfg.writeback_interval,
                    Ev::WritebackTick { server },
                );
            }
        }

        let Cluster {
            cfg,
            sim,
            coord,
            cells,
            ..
        } = self;
        let cfg: &ClusterConfig = cfg;
        let shared = Shared {
            cfg,
            layout,
            ibridge,
            faults,
            start,
        };
        let mut st = RunState {
            co: ClientSide {
                p: coord,
                workload,
                retry,
                client_links,
                proc_state: vec![ProcState::Running; n_procs],
                proc_iter: vec![0u64; n_procs],
                active: n_procs,
                parents: HashMap::default(),
                latency_ms: MeanTracker::new(),
                latency_hist_ms: Histogram::new(),
                io_time: SimDuration::ZERO,
                think_time: SimDuration::ZERO,
                bytes: 0,
                requests: 0,
                client_done_at: start,
                proc_bytes: vec![0u64; n_procs],
                proc_done: vec![SimDuration::ZERO; n_procs],
                use_barrier,
                barrier_mask,
                drain_kicked: false,
                fault_ids: coord_fault_ids,
                fstats: FaultStats::default(),
                pieces_scratch: Vec::new(),
                subs_scratch: Vec::new(),
                tracks_spare: Vec::new(),
                mds_shutdown: false,
                mds_acts: Vec::new(),
            },
            sv: ServerSide {
                next_audit: cfg.audit_interval.map(|iv| start + iv),
                audit_epochs: cells.iter().map(|c| c.srv_epoch).collect(),
                audits: 0,
                jobs: HashMap::default(),
                out: ServerOut::default(),
                fstats: FaultStats::default(),
                draining: false,
                was_quiescent: false,
                quiesced_at: start,
                fault_ids: server_fault_ids,
                cell_was_q: vec![false; n_servers],
                lost_jobs: Vec::new(),
                cells,
            },
        };
        while let Some((now, ev)) = sim.pop() {
            dispatch(&shared, sim, &mut st, now, ev);
        }

        // The calendar ran to empty; trailing impaired messages
        // (delayed or duplicated replies) may dispatch after the last
        // meaningful work, so the run's end is bookkept: the last
        // client completion and the servers' drain quiescence.
        let end = st.co.client_done_at.max(st.sv.quiesced_at);

        // A final audit closes the run: recovered state must be sound
        // at quiescence, not just at the last cadence tick.
        if cfg.audit_interval.is_some() {
            server_audit(&mut st.sv, end);
            TOTAL_AUDITS.fetch_add(1 + st.sv.audits, Ordering::Relaxed);
        }
        let RunState { co, sv } = st;

        let events_dispatched = sim.dispatched() - dispatched_before;
        TOTAL_EVENTS.fetch_add(events_dispatched, Ordering::Relaxed);

        let mut fstats = co.fstats;
        fstats.absorb(&sv.fstats);

        // Close out the replicated group for this run: accrue any
        // still-open leaderless window to `end`, then fold the per-run
        // stats delta (the group persists across runs) into the fault
        // counters.
        let mut mds_run = MdsStats::default();
        if let Some(g) = co.p.mds.as_mut() {
            g.finish(end);
            let s = g.stats();
            let b = mds_before.unwrap_or_default();
            mds_run = MdsStats {
                elections: s.elections - b.elections,
                leader_changes: s.leader_changes - b.leader_changes,
                recovery_ticks: s.recovery_ticks - b.recovery_ticks,
                log_replayed: s.log_replayed - b.log_replayed,
                proposals: s.proposals - b.proposals,
                commits: s.commits - b.commits,
            };
            fstats.mds_elections += mds_run.elections;
            fstats.mds_leader_changes += mds_run.leader_changes;
            fstats.mds_recovery_ticks += mds_run.recovery_ticks;
        }
        if ibridge_obs::metrics_on() && (co.p.mds.is_some() || fstats.stale_t_decisions > 0) {
            ibridge_obs::metrics::record_mds(&ibridge_obs::metrics::MdsAgg {
                runs: 1,
                elections: mds_run.elections,
                leader_changes: mds_run.leader_changes,
                recovery_ticks: mds_run.recovery_ticks,
                stale_t_decisions: fstats.stale_t_decisions,
                proposals: mds_run.proposals,
                commits: mds_run.commits,
            });
        }
        for cell in sv.cells.iter_mut() {
            // Close degradation windows still open at run end (a lost
            // SSD degrades the server for the rest of its life).
            if cell.degraded_depth > 0 {
                fstats.degraded += end - cell.degraded_since;
                cell.degraded_since = end;
            }
        }

        // Measured-vs-predicted T_i: the policy's Eq. 1 model forecasts
        // per-request disk busy time; compare it to this run's actual
        // per-request busy delta on the primary device. Restarted servers
        // get fresh devices mid-run, which would make the delta negative
        // — those runs contribute no sample.
        if ibridge_obs::metrics_on() {
            for (s_id, (cell, d0)) in sv.cells.iter().zip(&obs_dev0).enumerate() {
                let pred_s = cell.server.policy().report_t();
                let st = cell.server.primary().stats();
                if pred_s > 0.0 && st.requests > d0.requests && st.busy >= d0.busy {
                    let meas =
                        (st.busy.as_nanos() - d0.busy.as_nanos()) / (st.requests - d0.requests);
                    let pred = (pred_s * 1e9).round() as u64;
                    ibridge_obs::metrics::record_ti(s_id as u16, pred, meas);
                }
            }
        }

        if !fstats.is_zero() {
            TOTAL_RETRIES.fetch_add(fstats.retries, Ordering::Relaxed);
            TOTAL_TIMEOUTS.fetch_add(fstats.timeouts, Ordering::Relaxed);
            TOTAL_DROPPED_MSGS.fetch_add(fstats.dropped_messages, Ordering::Relaxed);
            TOTAL_DIRTY_LOST.fetch_add(fstats.dirty_bytes_lost, Ordering::Relaxed);
            TOTAL_DEGRADED_NS.fetch_add(fstats.degraded.as_nanos(), Ordering::Relaxed);
            TOTAL_FSCK_SCANNED.fetch_add(fstats.fsck_records_scanned, Ordering::Relaxed);
            TOTAL_FSCK_QUARANTINED.fetch_add(fstats.fsck_records_quarantined, Ordering::Relaxed);
            TOTAL_STALE_T.fetch_add(fstats.stale_t_decisions, Ordering::Relaxed);
            TOTAL_MDS_ELECTIONS.fetch_add(fstats.mds_elections, Ordering::Relaxed);
            TOTAL_MDS_LEADER_CHANGES.fetch_add(fstats.mds_leader_changes, Ordering::Relaxed);
            TOTAL_MDS_RECOVERY_NS.fetch_add(fstats.mds_recovery_ticks, Ordering::Relaxed);
        }
        let servers: Vec<ServerRunStats> = sv
            .cells
            .iter()
            .map(|cell| {
                let s = &cell.server;
                let (ra_hits, ra_bytes) = s.readahead_hits();
                ServerRunStats {
                    primary: s.primary().stats(),
                    cache: s.cache().map(|c| c.stats()),
                    policy: s.policy().stats(),
                    maint: s.policy().maint_stats(),
                    primary_reads: s.primary().tracer().reads().clone(),
                    primary_writes: s.primary().tracer().writes().clone(),
                    ra_hits,
                    ra_bytes,
                }
            })
            .collect();
        {
            // Fold this run's maintenance counters into the process-wide
            // totals. Gauges are per-run snapshots, not monotone — keep
            // them out of the cumulative totals.
            let mut m = MaintStats::default();
            for s in &servers {
                m.absorb(&s.maint);
            }
            m.live_segments = 0;
            m.live_records = 0;
            m.live_backup_bytes = 0;
            if !m.is_zero() {
                let mut tot = TOTAL_MAINT.lock().unwrap();
                tot.get_or_insert_with(MaintStats::default).absorb(&m);
            }
            if ibridge_obs::metrics_on() && !m.is_zero() {
                ibridge_obs::metrics::record_maint(&ibridge_obs::metrics::MaintAgg {
                    runs: 1,
                    ticks: m.ticks,
                    busy_skips: m.busy_skips,
                    records_appended: m.records_appended,
                    tombstones: m.tombstones,
                    supersedes: m.supersedes,
                    backup_bytes: m.backup_bytes,
                    segments_sealed: m.segments_sealed,
                    segments_compacted: m.segments_compacted,
                    segments_reclaimed: m.segments_reclaimed,
                    records_rewritten: m.records_rewritten,
                    rewrite_bytes: m.rewrite_bytes,
                    checkpoints: m.checkpoints,
                    checkpoint_records: m.checkpoint_records,
                    checkpoint_bytes: m.checkpoint_bytes,
                    scrub_segments: m.scrub_segments,
                    scrub_records: m.scrub_records,
                    scrub_repairs: m.scrub_repairs,
                });
            }
        }
        RunStats {
            elapsed: end - start,
            client_elapsed: co.client_done_at - start,
            bytes: co.bytes,
            requests: co.requests,
            latency_ms: co.latency_ms,
            latency_hist_ms: co.latency_hist_ms,
            io_time: co.io_time,
            think_time: co.think_time,
            events_dispatched,
            proc_bytes: co.proc_bytes,
            proc_done: co.proc_done,
            servers,
            faults: fstats,
        }
    }
}

/// Read-only run parameters shared by every event handler.
struct Shared<'c> {
    cfg: &'c ClusterConfig,
    layout: Layout,
    ibridge: bool,
    /// A plan is armed: track sub-requests for timeout/retry/dedup.
    faults: bool,
    /// This run's start time (net-impairment windows are relative to it).
    start: SimTime,
}

/// Per-run state of one [`Cluster::run`]: the client side and the
/// server side.
struct RunState<'r> {
    co: ClientSide<'r>,
    sv: ServerSide<'r>,
}

/// Per-run state of the client side (clients + MDS).
struct ClientSide<'r> {
    p: &'r mut CoordPersist,
    workload: &'r mut dyn Workload,
    retry: RetryConfig,
    client_links: Vec<Link>,
    proc_state: Vec<ProcState>,
    proc_iter: Vec<u64>,
    active: usize,
    parents: HashMap<u64, ParentState>,
    latency_ms: MeanTracker,
    latency_hist_ms: Histogram,
    io_time: SimDuration,
    think_time: SimDuration,
    bytes: u64,
    requests: u64,
    client_done_at: SimTime,
    proc_bytes: Vec<u64>,
    proc_done: Vec<SimDuration>,
    use_barrier: bool,
    barrier_mask: Vec<bool>,
    drain_kicked: bool,
    /// Pending scheduled MDS faults, cancelled at the drain kick so the
    /// calendar can run to empty.
    fault_ids: Vec<EventId>,
    fstats: FaultStats,
    /// Scratch for request decomposition, reused across every Issue:
    /// after warm-up the client path performs no allocation.
    pieces_scratch: Vec<(usize, u64, u64)>,
    subs_scratch: Vec<SubRequest>,
    /// Emptied `ParentState::subs` tables of completed parents, reused
    /// by the next parents issued (only filled while a plan is armed).
    tracks_spare: Vec<Vec<SubTrack>>,
    /// The end-of-run drain started: replicated-MDS timers stop
    /// re-arming so the calendar can run to empty.
    mds_shutdown: bool,
    /// Scratch for MDS actions, reused across every MDS event.
    mds_acts: Vec<MdsAction>,
}

/// Per-run state of the server side.
struct ServerSide<'r> {
    cells: &'r mut [ServerCell],
    /// In-flight jobs of every server, filed by the client side when it
    /// sends each sub-request.
    jobs: HashMap<JobId, PendingJob>,
    /// Reused across every calendar event: after warm-up the event loop
    /// performs no allocation for server output handling.
    out: ServerOut,
    fstats: FaultStats,
    /// The end-of-run drain has started.
    draining: bool,
    /// All cells quiescent at the last event (transition detector for
    /// `quiesced_at`).
    was_quiescent: bool,
    /// When the servers last became quiescent during the drain.
    quiesced_at: SimTime,
    /// Pending scheduled faults per cell, cancelled when that server
    /// reaches quiescence during the drain.
    fault_ids: Vec<Vec<EventId>>,
    cell_was_q: Vec<bool>,
    lost_jobs: Vec<JobId>,
    next_audit: Option<SimTime>,
    audit_epochs: Vec<u32>,
    audits: u64,
}

/// Routes one event to the side that handles it: the event type alone
/// decides client vs server.
fn dispatch(sh: &Shared, sim: &mut Simulation<Ev>, st: &mut RunState<'_>, now: SimTime, ev: Ev) {
    match ev {
        Ev::Wake { .. }
        | Ev::Issue { .. }
        | Ev::Reply { .. }
        | Ev::SubTimeout { .. }
        | Ev::ReportArrive { .. }
        | Ev::SteerOff { .. }
        | Ev::Mds(_)
        | Ev::MdsRetry { .. } => coord_event(sh, sim, &mut st.co, &mut st.sv.jobs, now, ev),
        Ev::Fault(ref f) if fault_server(f).is_none() => {
            coord_event(sh, sim, &mut st.co, &mut st.sv.jobs, now, ev)
        }
        _ => {
            server_event(sh, sim, &mut st.sv, now, ev);
            server_tail(sh, sim, &mut st.sv, now);
        }
    }
}

/// Handles one client/MDS event.
fn coord_event(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    co: &mut ClientSide,
    jobs: &mut HashMap<JobId, PendingJob>,
    now: SimTime,
    ev: Ev,
) {
    match ev {
        Ev::Wake { proc } => {
            debug_assert_eq!(co.proc_state[proc], ProcState::Running);
            match co.workload.next(proc, co.proc_iter[proc]) {
                None => {
                    co.proc_state[proc] = ProcState::Done;
                    co.proc_done[proc] = now - sh.start;
                    co.active -= 1;
                    if co.active == 0 {
                        co.client_done_at = now;
                        if !co.drain_kicked {
                            co.drain_kicked = true;
                            // Kick the end-of-run drain. The kick crosses
                            // the fabric like any other message, one link
                            // lookahead ahead. Scheduled MDS faults can no
                            // longer matter; cancel them so the calendar
                            // drains to empty.
                            let l = sh.cfg.link.lookahead();
                            for server in 0..sh.cfg.n_servers {
                                sim.post_from(COORD, now + l, Ev::DrainTick { server });
                            }
                            for id in co.fault_ids.drain(..) {
                                sim.cancel(id);
                            }
                            // Stop replicated-MDS timers from re-arming:
                            // pending Mds/MdsRetry events become no-ops.
                            co.mds_shutdown = true;
                        }
                    } else if co.use_barrier {
                        // A departing process may release the barrier.
                        maybe_release_barrier(sim, &mut co.proc_state, &co.barrier_mask);
                    }
                }
                Some(item) => {
                    co.proc_iter[proc] += 1;
                    co.think_time += item.think;
                    let jitter = match sh.cfg.client_jitter.as_nanos() {
                        0 => SimDuration::ZERO,
                        max => SimDuration::from_nanos(co.p.jitter_rng.gen_range(0..max)),
                    };
                    let delay = item.think + jitter;
                    if delay > SimDuration::ZERO {
                        sim.post_from(
                            COORD,
                            now + delay,
                            Ev::Issue {
                                proc,
                                req: item.req,
                            },
                        );
                    } else {
                        sim.post_from(
                            COORD,
                            now,
                            Ev::Issue {
                                proc,
                                req: item.req,
                            },
                        );
                    }
                }
            }
        }
        Ev::Issue { proc, req } => {
            assert!(req.len > 0, "zero-length file request");
            let mut pieces = std::mem::take(&mut co.pieces_scratch);
            let mut subs = std::mem::take(&mut co.subs_scratch);
            sh.layout.sub_requests_into(
                req.dir,
                req.file,
                req.offset,
                req.len,
                sh.cfg.threshold,
                sh.ibridge,
                &mut pieces,
                &mut subs,
            );
            let parent = co.p.next_parent;
            co.p.next_parent += 1;
            co.requests += 1;
            co.bytes += req.len;
            co.proc_bytes[proc] += req.len;
            // With iBridge steering on, a request decomposed while the
            // metadata service is unreachable ran on a stale T-table:
            // the degradation `mds-crash`-style plans exist to surface.
            if sh.ibridge && mds_unreachable(co) {
                co.fstats.stale_t_decisions += 1;
            }
            let pending = subs.len();
            let mut tracks: Vec<SubTrack> = Vec::new();
            if sh.faults {
                tracks = co.tracks_spare.pop().unwrap_or_default();
                tracks.reserve(pending);
            }
            for (idx, sub) in subs.drain(..).enumerate() {
                let arrive = co.client_links[proc].send(now, sub.request_bytes());
                let server = sub.server;
                let reply_bytes = sub.reply_bytes();
                let sub_idx = idx as u32;
                obs_net_req(now, arrive, proc, parent, sub_idx, server);
                if sh.faults {
                    let tid = sim.schedule_from(
                        COORD,
                        now + co.retry.timeout,
                        Ev::SubTimeout { parent, sub_idx },
                    );
                    tracks.push(SubTrack {
                        sub: sub.clone(),
                        attempt: 0,
                        done: false,
                        timeout: Some(tid),
                    });
                }
                post_sub_arrival(
                    sh,
                    sim,
                    co,
                    jobs,
                    now,
                    arrive,
                    sub,
                    reply_bytes,
                    proc,
                    parent,
                    sub_idx,
                );
            }
            co.pieces_scratch = pieces;
            co.subs_scratch = subs;
            co.parents.insert(
                parent,
                ParentState {
                    proc,
                    pending,
                    issued_at: now,
                    subs: tracks,
                },
            );
        }
        Ev::Reply {
            proc,
            parent,
            sub_idx,
        } => {
            let mut duplicate = false;
            if sh.faults {
                match co.parents.get_mut(&parent) {
                    None => duplicate = true,
                    Some(p) => {
                        let st = &mut p.subs[sub_idx as usize];
                        if st.done {
                            duplicate = true;
                        } else {
                            st.done = true;
                            if let Some(id) = st.timeout.take() {
                                sim.cancel(id);
                            }
                        }
                    }
                }
                if duplicate {
                    co.fstats.duplicate_replies += 1;
                }
            }
            if !duplicate {
                let done = {
                    let p = co
                        .parents
                        .get_mut(&parent)
                        .expect("reply for unknown parent");
                    p.pending -= 1;
                    p.pending == 0
                };
                if done {
                    let p = co.parents.remove(&parent).expect("checked above");
                    let wait = now - p.issued_at;
                    obs_request_done(p.issued_at, wait, proc, parent);
                    co.io_time += wait;
                    co.latency_ms.record(wait.as_millis_f64());
                    co.latency_hist_ms
                        .record(wait.as_millis_f64().round() as u64);
                    debug_assert_eq!(p.proc, proc);
                    let mut tracks = p.subs;
                    if tracks.capacity() > 0 {
                        tracks.clear();
                        co.tracks_spare.push(tracks);
                    }
                    if co.use_barrier && co.barrier_mask[proc] {
                        co.proc_state[proc] = ProcState::AtBarrier;
                        maybe_release_barrier(sim, &mut co.proc_state, &co.barrier_mask);
                    } else {
                        sim.post_from(COORD, now, Ev::Wake { proc });
                    }
                }
            }
        }
        Ev::SubTimeout { parent, sub_idx } => {
            // A fired timer whose sub completed in the same
            // instant was already cancelled; the defensive check
            // keeps leftover timers from a previous run harmless.
            let mut resend: Option<SubRequest> = None;
            let mut rproc = 0usize;
            if let Some(p) = co.parents.get_mut(&parent) {
                let proc = p.proc;
                let st = &mut p.subs[sub_idx as usize];
                if !st.done {
                    st.timeout = None;
                    co.fstats.timeouts += 1;
                    if st.attempt >= co.retry.max_retries {
                        // Give up: surface an error completion so
                        // the application makes progress.
                        co.fstats.failed_subs += 1;
                        sim.post_from(
                            COORD,
                            now,
                            Ev::Reply {
                                proc,
                                parent,
                                sub_idx,
                            },
                        );
                    } else {
                        st.attempt += 1;
                        co.fstats.retries += 1;
                        let wait = co
                            .retry
                            .timeout
                            .mul_f64(co.retry.backoff.powi(st.attempt as i32));
                        st.timeout = Some(sim.schedule_from(
                            COORD,
                            now + wait,
                            Ev::SubTimeout { parent, sub_idx },
                        ));
                        resend = Some(st.sub.clone());
                        rproc = proc;
                    }
                }
            }
            if let Some(sub) = resend {
                let arrive = co.client_links[rproc].send(now, sub.request_bytes());
                let server = sub.server;
                let reply_bytes = sub.reply_bytes();
                obs_net_req(now, arrive, rproc, parent, sub_idx, server);
                post_sub_arrival(
                    sh,
                    sim,
                    co,
                    jobs,
                    now,
                    arrive,
                    sub,
                    reply_bytes,
                    rproc,
                    parent,
                    sub_idx,
                );
            }
        }
        Ev::ReportArrive { server, t } => {
            if co.p.mds.is_some() {
                // Replicated path: the report becomes a log entry; the
                // table mutates (and broadcasts) only at commit.
                mds_propose(sh, sim, co, now, MdsEntry::TReport { server, t }, 0);
            } else if co.p.mds_down {
                // The MDS is down: the report is lost and no
                // broadcast goes out. Servers keep serving with
                // their last-known T values until the restart.
                co.fstats.stalled_broadcasts += 1;
            } else {
                co.p.mds_table[server] = t;
                co.p.mds_version += 1;
                let version = co.p.mds_version;
                mds_broadcast(sh, sim, co, now, version);
            }
        }
        Ev::SteerOff { server } => {
            // The MDS stops steering fragments at a server that lost
            // its SSD.
            if co.p.mds.is_some() {
                mds_propose(sh, sim, co, now, MdsEntry::SteerOff { server }, 0);
            } else {
                co.p.mds_table[server] = 0.0;
            }
        }
        Ev::Mds(msg) => {
            // A raft message (timer or RPC delivery) inside the group.
            // After the drain kick the group is frozen: dropping the
            // message re-arms nothing, so the calendar runs to empty.
            if !co.mds_shutdown {
                let mut acts = std::mem::take(&mut co.mds_acts);
                acts.clear();
                co.p.mds
                    .as_mut()
                    .expect("MDS message without a replicated group")
                    .handle(now, msg, &mut acts);
                mds_apply(sh, sim, co, now, &mut acts);
                co.mds_acts = acts;
            }
        }
        Ev::MdsRetry { entry, attempt } => {
            if !co.mds_shutdown {
                mds_propose(sh, sim, co, now, entry, attempt);
            }
        }
        Ev::Fault(fault) => match fault {
            TimedFault::MdsCrash | TimedFault::MdsLeaderCrash => {
                if let Some(g) = co.p.mds.as_mut() {
                    let mut acts = std::mem::take(&mut co.mds_acts);
                    acts.clear();
                    if g.crash_leader(now, &mut acts).is_some() {
                        co.fstats.mds_crashes += 1;
                    }
                    mds_apply(sh, sim, co, now, &mut acts);
                    co.mds_acts = acts;
                } else if !co.p.mds_down {
                    co.p.mds_down = true;
                    co.fstats.mds_crashes += 1;
                }
            }
            TimedFault::MdsRestart | TimedFault::MdsLeaderRestart => {
                if let Some(g) = co.p.mds.as_mut() {
                    let rejoining = g.down_replicas() as u64;
                    if rejoining > 0 {
                        co.fstats.mds_restarts += rejoining;
                        let mut acts = std::mem::take(&mut co.mds_acts);
                        acts.clear();
                        g.restart_crashed(now, &mut acts);
                        mds_apply(sh, sim, co, now, &mut acts);
                        co.mds_acts = acts;
                    }
                } else if co.p.mds_down {
                    co.p.mds_down = false;
                    co.fstats.mds_restarts += 1;
                }
            }
            TimedFault::MdsPartitionStart => {
                if let Some(g) = co.p.mds.as_mut() {
                    let mut acts = std::mem::take(&mut co.mds_acts);
                    acts.clear();
                    g.partition_leader(now, &mut acts);
                    co.fstats.mds_crashes += 1;
                    mds_apply(sh, sim, co, now, &mut acts);
                    co.mds_acts = acts;
                } else if !co.p.mds_down {
                    // Degenerate single-MDS partition: unreachable is
                    // indistinguishable from crashed until the heal.
                    co.p.mds_down = true;
                    co.fstats.mds_crashes += 1;
                }
            }
            TimedFault::MdsPartitionHeal => {
                if let Some(g) = co.p.mds.as_mut() {
                    let mut acts = std::mem::take(&mut co.mds_acts);
                    acts.clear();
                    g.heal(now, &mut acts);
                    co.fstats.mds_restarts += 1;
                    mds_apply(sh, sim, co, now, &mut acts);
                    co.mds_acts = acts;
                } else if co.p.mds_down {
                    co.p.mds_down = false;
                    co.fstats.mds_restarts += 1;
                }
            }
            _ => unreachable!("server fault routed to the coordinator"),
        },
        _ => unreachable!("server event routed to the coordinator"),
    }
}

/// True when iBridge clients cannot see a live metadata service: the
/// single MDS is crashed, or the replicated group has no elected (and
/// reachable) leader right now.
fn mds_unreachable(co: &ClientSide) -> bool {
    match co.p.mds.as_ref() {
        Some(g) => g.leader().is_none(),
        None => co.p.mds_down,
    }
}

/// Proposes `entry` to the replicated group. With no visible leader the
/// proposal is retried on a fixed coordinator-local backoff; a bounded
/// number of attempts keeps an unelectable group (all replicas down)
/// from ticking forever, and the give-up is accounted as a stalled
/// broadcast — the same degradation signal as the single-MDS path.
fn mds_propose(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    co: &mut ClientSide,
    now: SimTime,
    entry: MdsEntry,
    attempt: u32,
) {
    const MDS_RETRY_BACKOFF: SimDuration = SimDuration::from_micros(500);
    const MDS_RETRY_MAX: u32 = 64;
    let mut acts = std::mem::take(&mut co.mds_acts);
    acts.clear();
    let accepted =
        co.p.mds
            .as_mut()
            .expect("MDS proposal without a replicated group")
            .propose(now, entry.clone(), &mut acts);
    mds_apply(sh, sim, co, now, &mut acts);
    co.mds_acts = acts;
    if !accepted {
        if attempt >= MDS_RETRY_MAX {
            co.fstats.stalled_broadcasts += 1;
        } else {
            sim.post_from(
                COORD,
                now + MDS_RETRY_BACKOFF,
                Ev::MdsRetry {
                    entry,
                    attempt: attempt + 1,
                },
            );
        }
    }
}

/// Applies a batch of group actions on the coordinator: schedules
/// message deliveries, applies committed entries to the T-table (and
/// broadcasts the new version), and traces leadership changes.
fn mds_apply(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    co: &mut ClientSide,
    now: SimTime,
    acts: &mut Vec<MdsAction>,
) {
    for a in acts.drain(..) {
        match a {
            MdsAction::Deliver { at, msg } => {
                sim.post_from(COORD, at, Ev::Mds(msg));
            }
            MdsAction::Commit {
                index,
                proposed_at,
                entry,
            } => {
                obs_mds_replicate(proposed_at, now, index);
                match entry {
                    MdsEntry::TReport { server, t } => {
                        co.p.mds_table[server] = t;
                        co.p.mds_version = index;
                        mds_broadcast(sh, sim, co, now, index);
                    }
                    MdsEntry::SteerOff { server } => {
                        co.p.mds_table[server] = 0.0;
                        co.p.mds_version = index;
                    }
                }
            }
            MdsAction::LeaderChanged { leader, term } => {
                obs_mds_leader(now, leader, term);
            }
        }
    }
}

/// Fans the current T-table snapshot out to every server, stamped with
/// the metadata `version` that produced it.
fn mds_broadcast(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    co: &mut ClientSide,
    now: SimTime,
    version: u64,
) {
    // One shared snapshot for the whole broadcast fan-out.
    let table: Arc<[f64]> = Arc::from(co.p.mds_table.as_slice());
    for dest in 0..sh.cfg.n_servers {
        let arrive = co.p.mds_link.send(now, 64 * sh.cfg.n_servers as u64);
        sim.post_from(
            COORD,
            arrive,
            Ev::Broadcast {
                server: dest,
                version,
                table: Arc::clone(&table),
            },
        );
    }
}

/// Handles one data-server event.
fn server_event(sh: &Shared, sim: &mut Simulation<Ev>, sv: &mut ServerSide, now: SimTime, ev: Ev) {
    match ev {
        Ev::SubArrive { server, job } => {
            if sv.cells[server].down {
                // The message reached a dead endpoint; the
                // client's timeout recovers it.
                sv.fstats.dropped_messages += 1;
                sv.jobs.remove(&job);
            } else {
                let exec_at = sv.cells[server].server.cpu_admit(now);
                obs_srv_queue(now, exec_at, server, job);
                let epoch = sv.cells[server].srv_epoch;
                let node = srv_node(server);
                sim.post_from(node, exec_at, Ev::SubExec { server, job, epoch });
            }
        }
        Ev::SubExec { server, job, epoch } => {
            if epoch != sv.cells[server].srv_epoch {
                // Admitted by a process instance that has since
                // crashed.
                sv.jobs.remove(&job);
                sv.fstats.stale_completions += 1;
            } else {
                let (sub, proc) = {
                    let pj = sv.jobs.get_mut(&job).expect("executing unknown job");
                    (pj.sub.take().expect("job executed twice"), pj.proc)
                };
                let mut out = std::mem::take(&mut sv.out);
                out.clear();
                sv.cells[server]
                    .server
                    .exec_subreq(now, job, proc as u64, sub, &mut out);
                server_out(sh, sim, sv, now, server, &mut out);
                sv.out = out;
            }
        }
        Ev::DevComplete {
            server,
            kind,
            epoch,
        } => {
            if epoch != sv.cells[server].dev_epoch[dev_idx(kind)] {
                sv.fstats.stale_completions += 1;
            } else {
                let mut out = std::mem::take(&mut sv.out);
                out.clear();
                sv.cells[server].server.on_dev_complete(now, kind, &mut out);
                if sv.draining && !sv.cells[server].server.quiescent() {
                    // Appends into the same output; ordering matches
                    // the completion actions followed by the flush's.
                    sv.cells[server].server.writeback_tick(now, true, &mut out);
                }
                server_out(sh, sim, sv, now, server, &mut out);
                sv.out = out;
            }
        }
        Ev::DevRecheck {
            server,
            kind,
            gen,
            epoch,
        } => {
            if epoch != sv.cells[server].dev_epoch[dev_idx(kind)] {
                sv.fstats.stale_completions += 1;
            } else {
                let mut out = std::mem::take(&mut sv.out);
                out.clear();
                sv.cells[server]
                    .server
                    .on_dev_recheck(now, kind, gen, &mut out);
                server_out(sh, sim, sv, now, server, &mut out);
                sv.out = out;
            }
        }
        Ev::Fault(fault) => {
            apply_server_fault(sh, sim, sv, now, fault);
        }
        Ev::Report { server } => {
            // A crashed server cannot report; a degraded one
            // (lost SSD) stays silent so the MDS keeps its slot
            // zeroed and fragments stop being steered at it.
            let node = srv_node(server);
            {
                let cell = &mut sv.cells[server];
                if !cell.down && !cell.server.policy().is_degraded() {
                    let t = cell.server.policy().report_t();
                    let arrive = cell.link.send(now, 128);
                    sim.post_from(node, arrive, Ev::ReportArrive { server, t });
                }
            }
            if !sv.draining {
                sim.post_from(node, now + sh.cfg.report_interval, Ev::Report { server });
            }
        }
        Ev::Broadcast {
            server,
            version,
            table,
        } => {
            let cell = &mut sv.cells[server];
            // Metadata versions are monotone: commits apply in log
            // order and the fan-out crosses one FIFO link per server.
            assert!(
                version >= cell.bcast_version,
                "MDS broadcast version moved backwards at server {server}"
            );
            cell.bcast_version = version;
            if !cell.down {
                cell.server.policy_mut().receive_broadcast(&table);
            }
        }
        Ev::WritebackTick { server } => {
            if !sv.cells[server].down {
                let mut out = std::mem::take(&mut sv.out);
                out.clear();
                sv.cells[server].server.writeback_tick(now, false, &mut out);
                debug_assert!(out.done_jobs.is_empty());
                server_out(sh, sim, sv, now, server, &mut out);
                sv.out = out;
            }
            if !sv.draining {
                let node = srv_node(server);
                sim.post_from(
                    node,
                    now + sh.cfg.writeback_interval,
                    Ev::WritebackTick { server },
                );
            }
        }
        Ev::DrainTick { server } => {
            sv.draining = true;
            if !sv.cells[server].down {
                let mut out = std::mem::take(&mut sv.out);
                out.clear();
                sv.cells[server].server.writeback_tick(now, true, &mut out);
                debug_assert!(out.done_jobs.is_empty());
                server_out(sh, sim, sv, now, server, &mut out);
                sv.out = out;
            }
        }
        _ => unreachable!("client event routed to the server side"),
    }
}

/// Post-event bookkeeping of the server side: the audit cadence and the
/// drain quiescence detector. Runs after every server event, so a state
/// change is observed at the event that caused it.
fn server_tail(sh: &Shared, sim: &mut Simulation<Ev>, sv: &mut ServerSide, now: SimTime) {
    // Online invariant auditor: piggybacked synchronously on event
    // dispatch (never posts events, never draws randomness), so the
    // calendar — and therefore every observable output — is
    // byte-identical with auditing on or off.
    if let Some(due) = sv.next_audit {
        if now >= due {
            server_audit(sv, now);
            sv.audits += 1;
            let iv = sh.cfg.audit_interval.expect("auditor armed with interval");
            sv.next_audit = Some(now + iv);
        }
    }
    if sv.draining {
        let mut all_q = true;
        for ci in 0..sv.cells.len() {
            let q = sv.cells[ci].server.quiescent();
            if q && !sv.cell_was_q[ci] {
                // This server just went quiescent: faults still
                // scheduled against it can no longer affect the run;
                // unschedule them so the calendar drains to empty.
                for id in sv.fault_ids[ci].drain(..) {
                    sim.cancel(id);
                }
            }
            sv.cell_was_q[ci] = q;
            all_q &= q;
        }
        if all_q && !sv.was_quiescent {
            sv.quiesced_at = now;
        }
        sv.was_quiescent = all_q;
    }
}

/// Routes one client→server sub-request message through the armed
/// network impairments (a straight delivery when no plan is armed). The
/// job id is allocated here, on the client side, and the job's record is
/// filed in `jobs` for every copy of the message that will arrive.
#[allow(clippy::too_many_arguments)]
fn post_sub_arrival(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    co: &mut ClientSide,
    jobs: &mut HashMap<JobId, PendingJob>,
    now: SimTime,
    arrive: SimTime,
    sub: SubRequest,
    reply_bytes: u64,
    proc: usize,
    parent: u64,
    sub_idx: u32,
) {
    let server = sub.server;
    let job = co.p.next_job;
    co.p.next_job += 1;
    let pj = PendingJob {
        sub: Some(sub),
        reply_bytes,
        proc,
        parent,
        server,
        sub_idx,
    };
    match net_decision(&mut co.p.decider, now - sh.start) {
        NetDecision::Deliver => {
            jobs.insert(job, pj);
            sim.post_from(COORD, arrive, Ev::SubArrive { server, job });
        }
        NetDecision::Drop => {
            // The client's timeout retransmits; the server never learns
            // the job id.
            co.fstats.dropped_messages += 1;
        }
        NetDecision::Delay(d) => {
            co.fstats.delayed_messages += 1;
            jobs.insert(job, pj);
            sim.post_from(COORD, arrive + d, Ev::SubArrive { server, job });
        }
        NetDecision::Duplicate => {
            co.fstats.duplicated_messages += 1;
            // The copy travels as its own job so the server can hold
            // both at once; the client deduplicates on reply.
            let job2 = co.p.next_job;
            co.p.next_job += 1;
            let copy = PendingJob {
                sub: pj.sub.clone(),
                ..pj
            };
            jobs.insert(job, pj);
            jobs.insert(job2, copy);
            sim.post_from(COORD, arrive, Ev::SubArrive { server, job });
            sim.post_from(COORD, arrive, Ev::SubArrive { server, job: job2 });
        }
    }
}

/// Posts a server's accumulated output onto the calendar, draining
/// `out` in place so the caller can reuse its capacity. Event order
/// (device actions first, then replies in completion order) is part
/// of the determinism contract: ties on the calendar break by the
/// poster's sequence numbers.
fn server_out(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    sv: &mut ServerSide,
    now: SimTime,
    server: usize,
    out: &mut ServerOut,
) {
    let node = srv_node(server);
    for (kind, action) in out.dev_actions.drain(..) {
        let epoch = sv.cells[server].dev_epoch[dev_idx(kind)];
        match action {
            Action::CompleteAt(t) => {
                sim.post_from(
                    node,
                    t,
                    Ev::DevComplete {
                        server,
                        kind,
                        epoch,
                    },
                );
            }
            Action::RecheckAt(t, gen) => {
                sim.post_from(
                    node,
                    t,
                    Ev::DevRecheck {
                        server,
                        kind,
                        gen,
                        epoch,
                    },
                );
            }
        }
    }
    for job in out.done_jobs.drain(..) {
        let pj = sv.jobs.remove(&job).expect("done job unknown to cluster");
        let arrive = sv.cells[server].link.send(now, pj.reply_bytes);
        let (proc, parent, sub_idx) = (pj.proc, pj.parent, pj.sub_idx);
        obs_net_reply(now, arrive, server, parent, sub_idx, pj.reply_bytes);
        match net_decision(&mut sv.cells[server].decider, now - sh.start) {
            NetDecision::Deliver => {
                sim.post_from(
                    node,
                    arrive,
                    Ev::Reply {
                        proc,
                        parent,
                        sub_idx,
                    },
                );
            }
            NetDecision::Drop => {
                // The client's timeout retransmits; the server will
                // serve the retry again.
                sv.fstats.dropped_messages += 1;
            }
            NetDecision::Delay(d) => {
                sv.fstats.delayed_messages += 1;
                sim.post_from(
                    node,
                    arrive + d,
                    Ev::Reply {
                        proc,
                        parent,
                        sub_idx,
                    },
                );
            }
            NetDecision::Duplicate => {
                sv.fstats.duplicated_messages += 1;
                for _ in 0..2 {
                    sim.post_from(
                        node,
                        arrive,
                        Ev::Reply {
                            proc,
                            parent,
                            sub_idx,
                        },
                    );
                }
            }
        }
    }
}

fn net_decision(decider: &mut Option<NetDecider>, since_start: SimDuration) -> NetDecision {
    match decider.as_mut() {
        Some(d) => d.decide(since_start),
        None => NetDecision::Deliver,
    }
}

fn degrade_start(cell: &mut ServerCell, now: SimTime) {
    if cell.degraded_depth == 0 {
        cell.degraded_since = now;
    }
    cell.degraded_depth += 1;
}

fn degrade_end(fstats: &mut FaultStats, cell: &mut ServerCell, now: SimTime) {
    // Depth 0 means the matching start fired in a run that was never
    // armed (leftover calendar event) — nothing to close.
    if cell.degraded_depth == 0 {
        return;
    }
    cell.degraded_depth -= 1;
    if cell.degraded_depth == 0 {
        fstats.degraded += now - cell.degraded_since;
    }
}

/// Applies one scheduled data-server fault.
fn apply_server_fault(
    sh: &Shared,
    sim: &mut Simulation<Ev>,
    sv: &mut ServerSide,
    now: SimTime,
    fault: TimedFault,
) {
    match fault {
        TimedFault::Crash { server } => {
            let cell = &mut sv.cells[server];
            if !cell.down {
                cell.down = true;
                sv.fstats.crashes += 1;
                cell.srv_epoch = cell.srv_epoch.wrapping_add(1);
                cell.dev_epoch[0] = cell.dev_epoch[0].wrapping_add(1);
                cell.dev_epoch[1] = cell.dev_epoch[1].wrapping_add(1);
                cell.server.crash(now);
                degrade_start(cell, now);
                // Sub-requests in the dead process's custody vanish
                // with it; the clients' timeouts recover them.
                sv.jobs
                    .retain(|_, pj| !(pj.server == server && pj.sub.is_none()));
            }
        }
        TimedFault::Restart { server } => {
            let cell = &mut sv.cells[server];
            if cell.down {
                cell.down = false;
                sv.fstats.restarts += 1;
                let report = cell.server.restart(now);
                sv.fstats.clean_entries_dropped += report.clean_entries_dropped;
                sv.fstats.pending_entries_dropped += report.pending_entries_dropped;
                sv.fstats.fsck_records_scanned += report.records_scanned;
                sv.fstats.fsck_records_quarantined += report.records_quarantined;
                sv.fstats.dirty_bytes_lost += report.dirty_bytes_lost;
                degrade_end(&mut sv.fstats, &mut sv.cells[server], now);
                if sv.draining {
                    // Replayed dirty entries must still be written
                    // back for the run to quiesce; the server kicks
                    // its own drain.
                    let node = srv_node(server);
                    sim.post_from(node, now, Ev::DrainTick { server });
                }
            }
        }
        TimedFault::SsdLoss { server } => {
            if sv.cells[server].server.cache().is_some() {
                sv.fstats.ssd_losses += 1;
                sv.cells[server].dev_epoch[1] = sv.cells[server].dev_epoch[1].wrapping_add(1);
                let mut lost_jobs = std::mem::take(&mut sv.lost_jobs);
                lost_jobs.clear();
                let lost = sv.cells[server].server.lose_cache_dev(now, &mut lost_jobs);
                sv.fstats.dirty_bytes_lost += lost;
                for job in lost_jobs.drain(..) {
                    sv.jobs.remove(&job);
                }
                sv.lost_jobs = lost_jobs;
                // Tell the MDS to stop steering fragments at this
                // server; its table lives on the client node, one link
                // lookahead away.
                let node = srv_node(server);
                sim.post_from(node, now + sh.cfg.link.lookahead(), Ev::SteerOff { server });
                degrade_start(&mut sv.cells[server], now);
            }
        }
        TimedFault::SlowStart {
            server,
            dev,
            factor,
        } => {
            sv.fstats.slow_windows += 1;
            sv.cells[server]
                .server
                .set_slow_factor(devkind(dev), factor);
            degrade_start(&mut sv.cells[server], now);
        }
        TimedFault::SlowEnd { server, dev } => {
            sv.cells[server].server.set_slow_factor(devkind(dev), 1.0);
            degrade_end(&mut sv.fstats, &mut sv.cells[server], now);
        }
        TimedFault::TornWrite { server, records } => {
            // Fires immediately before its Crash (same instant, plan
            // order): the records are torn on media before the
            // restart's recovery fsck ever sees them.
            if !sv.cells[server].down {
                sv.cells[server]
                    .server
                    .corrupt_cache(now, LogCorruption::TornWrite { records });
                sv.fstats.torn_writes += 1;
            }
        }
        TimedFault::BitRot {
            server,
            sectors,
            seed,
            target,
        } => {
            if !sv.cells[server].down {
                let target = match target {
                    RotTarget::Any => BitRotTarget::Any,
                    RotTarget::Tail => BitRotTarget::Tail,
                    RotTarget::Checkpoint => BitRotTarget::Checkpoint,
                };
                let hit = sv.cells[server].server.corrupt_cache(
                    now,
                    LogCorruption::BitRot {
                        sectors,
                        seed,
                        target,
                    },
                );
                sv.fstats.rotted_records += hit;
            }
        }
        TimedFault::MdsCrash
        | TimedFault::MdsRestart
        | TimedFault::MdsLeaderCrash
        | TimedFault::MdsLeaderRestart
        | TimedFault::MdsPartitionStart
        | TimedFault::MdsPartitionHeal => {
            unreachable!("MDS fault routed to the server side")
        }
    }
}

fn maybe_release_barrier(
    sim: &mut Simulation<Ev>,
    proc_state: &mut [ProcState],
    barrier_mask: &[bool],
) {
    // Release when no barrier participant is still running.
    let blocked = proc_state
        .iter()
        .zip(barrier_mask)
        .any(|(&s, &m)| m && s == ProcState::Running);
    if blocked {
        return;
    }
    for (proc, st) in proc_state.iter_mut().enumerate() {
        if *st == ProcState::AtBarrier {
            *st = ProcState::Running;
            sim.post_from(COORD, sim.now(), Ev::Wake { proc });
        }
    }
}

/// One pass of the online invariant auditor over the servers: cross-checks
/// every live server's policy invariants (partition accounting,
/// mapping-table index/LRU agreement, log residency — see
/// `CachePolicy::audit`) and the monotonicity of process epochs since
/// the previous pass. Aborts the simulation with a structured
/// diagnostic on the first violation; a passing audit leaves no trace.
fn server_audit(sv: &mut ServerSide, now: SimTime) {
    for (i, cell) in sv.cells.iter().enumerate() {
        if cell.down {
            continue;
        }
        if let Err(why) = cell.server.policy().audit() {
            panic!(
                "invariant audit failed: time={:?} server={} down={} epoch={}: {}",
                now, i, cell.down, cell.srv_epoch, why
            );
        }
    }
    for (i, (prev, cell)) in sv.audit_epochs.iter_mut().zip(sv.cells.iter()).enumerate() {
        let cur = cell.srv_epoch;
        assert!(
            cur >= *prev,
            "invariant audit failed: time={:?} server={}: process epoch moved \
             backwards ({} -> {})",
            now,
            i,
            *prev,
            cur,
        );
        *prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StockPolicy;
    use crate::workload::SequentialWorkload;
    use ibridge_device::IoDir;

    fn small_cluster(n_servers: usize) -> Cluster {
        let cfg = ClusterConfig {
            n_servers,
            ..Default::default()
        };
        Cluster::new(cfg, |_| Box::new(StockPolicy::new()))
    }

    fn seq(dir: IoDir, procs: usize, size: u64, iters: u64) -> SequentialWorkload {
        SequentialWorkload {
            dir,
            file: FileHandle(1),
            procs,
            size,
            iters,
            shift: 0,
            use_barrier: false,
        }
    }

    #[test]
    fn write_workload_completes_and_counts_bytes() {
        let mut c = small_cluster(4);
        let mut w = seq(IoDir::Write, 4, 65536, 8);
        let stats = c.run(&mut w);
        assert_eq!(stats.requests, 32);
        assert_eq!(stats.bytes, 32 * 65536);
        assert!(stats.elapsed > SimDuration::ZERO);
        assert!(stats.throughput_mbps() > 0.0);
        let written: u64 = stats.servers.iter().map(|s| s.primary.bytes_written).sum();
        assert_eq!(written, 32 * 65536);
    }

    #[test]
    fn read_workload_requires_preallocation_and_completes() {
        let mut c = small_cluster(4);
        c.preallocate(FileHandle(1), 4 << 20);
        let mut w = seq(IoDir::Read, 2, 65536, 8);
        let stats = c.run(&mut w);
        assert_eq!(stats.requests, 16);
        let read: u64 = stats.servers.iter().map(|s| s.primary.bytes_read).sum();
        assert_eq!(read, 16 * 65536);
        assert!(stats.latency_ms.mean().unwrap() > 0.0);
    }

    #[test]
    fn aligned_reads_hit_one_server_each() {
        let mut c = small_cluster(8);
        c.preallocate(FileHandle(1), 8 << 20);
        // One proc, 64 KB aligned requests: each should touch exactly one
        // server; with 8 iterations all 8 servers see one request.
        let mut w = seq(IoDir::Read, 1, 65536, 8);
        let stats = c.run(&mut w);
        for s in &stats.servers {
            assert_eq!(s.primary.bytes_read, 65536, "round-robin distribution");
        }
    }

    #[test]
    fn unaligned_reads_split_across_servers() {
        let mut c = small_cluster(8);
        c.preallocate(FileHandle(1), 16 << 20);
        let mut w = seq(IoDir::Read, 1, 65 * 1024, 8);
        let stats = c.run(&mut w);
        // 65 KB requests are served by two servers each; total bytes conserved.
        let read: u64 = stats.servers.iter().map(|s| s.primary.bytes_read).sum();
        assert!(read >= 8 * 65 * 1024, "sector rounding can only add bytes");
        assert!(read < 8 * 66 * 1024);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut c = small_cluster(4);
            c.preallocate(FileHandle(1), 8 << 20);
            let mut w = seq(IoDir::Read, 4, 65536, 8);
            c.run(&mut w).elapsed
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn barrier_synchronises_iterations() {
        let mut c = small_cluster(4);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 4, 65536, 4);
        w.use_barrier = true;
        let stats = c.run(&mut w);
        assert_eq!(stats.requests, 16);
        // With barriers the run cannot be faster than without.
        let mut c2 = small_cluster(4);
        c2.preallocate(FileHandle(1), 8 << 20);
        let mut w2 = seq(IoDir::Read, 4, 65536, 4);
        let stats2 = c2.run(&mut w2);
        assert!(stats.elapsed >= stats2.elapsed);
    }

    #[test]
    fn rerun_continues_from_existing_state() {
        let mut c = small_cluster(2);
        c.preallocate(FileHandle(1), 4 << 20);
        let mut w = seq(IoDir::Read, 1, 65536, 4);
        let first = c.run(&mut w);
        let mut w2 = seq(IoDir::Read, 1, 65536, 4);
        let second = c.run(&mut w2);
        assert_eq!(first.requests, second.requests);
        assert!(second.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn think_time_delays_execution() {
        #[derive(Debug)]
        struct Thinker {
            left: u64,
        }
        impl Workload for Thinker {
            fn procs(&self) -> usize {
                1
            }
            fn next(&mut self, _proc: usize, _iter: u64) -> Option<crate::workload::WorkItem> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(crate::workload::WorkItem {
                    req: FileRequest {
                        dir: IoDir::Write,
                        file: FileHandle(1),
                        offset: (4 - self.left) * 4096,
                        len: 4096,
                    },
                    think: SimDuration::from_millis(50),
                })
            }
        }
        let mut c = small_cluster(1);
        let stats = c.run(&mut Thinker { left: 4 });
        assert!(stats.elapsed >= SimDuration::from_millis(200));
        assert_eq!(stats.think_time, SimDuration::from_millis(200));
        assert!(stats.io_time > SimDuration::ZERO);
    }

    #[test]
    fn single_server_cluster_works() {
        let mut c = small_cluster(1);
        c.preallocate(FileHandle(1), 2 << 20);
        let mut w = seq(IoDir::Read, 2, 65536, 4);
        let stats = c.run(&mut w);
        assert_eq!(stats.requests, 8);
    }

    #[test]
    fn heterogeneous_constructor_applies_per_server_configs() {
        let cfg = ClusterConfig {
            n_servers: 2,
            ..Default::default()
        };
        let c = Cluster::heterogeneous(
            cfg,
            |id| {
                let mut s = crate::server::ServerConfig::default();
                if id == 0 {
                    s.primary_is_ssd = true;
                }
                s
            },
            |_| Box::new(StockPolicy::new()),
        );
        use ibridge_iosched::StorageDev;
        assert!(matches!(
            c.server(0).primary().storage(),
            StorageDev::Ssd(_)
        ));
        assert!(matches!(
            c.server(1).primary().storage(),
            StorageDev::Disk(_)
        ));
    }

    #[test]
    fn latency_histogram_matches_request_count() {
        let mut c = small_cluster(4);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 4, 65536, 8);
        let stats = c.run(&mut w);
        assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        // Quantiles are ordered.
        let p50 = stats.latency_hist_ms.quantile(0.5).unwrap();
        let p99 = stats.latency_hist_ms.quantile(0.99).unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn proc_accounting_sums_to_totals() {
        let mut c = small_cluster(4);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 4, 65536, 8);
        let stats = c.run(&mut w);
        assert_eq!(stats.proc_bytes.iter().sum::<u64>(), stats.bytes);
        assert_eq!(stats.proc_bytes.len(), 4);
        assert!(stats
            .proc_done
            .iter()
            .all(|&d| d > SimDuration::ZERO && d <= stats.client_elapsed));
        // Group throughput over all procs ≥ aggregate client throughput
        // (the group finishes when the slowest proc does).
        let g = stats.group_throughput_mbps(0..4);
        assert!((g - stats.client_throughput_mbps()).abs() < 1e-6);
    }

    #[test]
    fn page_cache_hits_short_circuit_repeated_reads() {
        let mut c = small_cluster(2);
        c.preallocate(FileHandle(1), 4 << 20);
        // The same proc reads the same range twice in a row.
        #[derive(Debug)]
        struct Rereader {
            left: u64,
        }
        impl Workload for Rereader {
            fn procs(&self) -> usize {
                1
            }
            fn next(&mut self, _p: usize, _i: u64) -> Option<crate::workload::WorkItem> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(crate::workload::WorkItem {
                    req: FileRequest {
                        dir: IoDir::Read,
                        file: FileHandle(1),
                        offset: 0,
                        len: 262144,
                    },
                    think: SimDuration::ZERO,
                })
            }
        }
        let stats = c.run(&mut Rereader { left: 4 });
        // 4 requests x 2 sub-requests: the first pair misses and
        // populates; the remaining 3 repeats hit on both servers.
        let hits: u64 = stats.servers.iter().map(|s| s.ra_hits).sum();
        assert_eq!(hits, 6, "repeats must hit the page cache");
    }

    #[test]
    fn faultless_plan_is_byte_identical_to_no_plan() {
        let run = |armed: bool| {
            let mut c = small_cluster(4);
            if armed {
                // Retry-only plans inject nothing and must arm nothing.
                let plan = FaultPlan::parse("retry timeout=10ms max=3").unwrap();
                c.set_fault_plan(&plan);
            }
            c.preallocate(FileHandle(1), 8 << 20);
            let mut w = seq(IoDir::Read, 4, 65536, 8);
            let s = c.run(&mut w);
            assert!(s.faults.is_zero());
            (s.elapsed, s.events_dispatched, s.bytes, s.requests)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_and_restart_mid_run_completes_via_retries() {
        let mut c = small_cluster(2);
        let plan = FaultPlan::parse(
            "retry timeout=5ms backoff=2 max=12\ncrash server=1 at=2ms restart=20ms",
        )
        .unwrap();
        c.set_fault_plan(&plan);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 2, 65536, 16);
        let stats = c.run(&mut w);
        assert_eq!(stats.requests, 32);
        // Every request completed exactly once despite the crash.
        assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        assert_eq!(stats.faults.crashes, 1);
        assert_eq!(stats.faults.restarts, 1);
        assert!(stats.faults.timeouts > 0, "crash must cost timeouts");
        assert!(stats.faults.retries > 0, "retries must recover the run");
        assert!(stats.faults.degraded > SimDuration::ZERO);
    }

    #[test]
    fn fail_slow_window_slows_the_run() {
        let elapsed = |plan: Option<&str>| {
            let mut c = small_cluster(2);
            if let Some(text) = plan {
                c.set_fault_plan(&FaultPlan::parse(text).unwrap());
            }
            c.preallocate(FileHandle(1), 8 << 20);
            let mut w = seq(IoDir::Read, 2, 65536, 16);
            c.run(&mut w)
        };
        let healthy = elapsed(None);
        let slowed = elapsed(Some(
            "fail-slow server=0 dev=primary from=0ms until=60s factor=20",
        ));
        assert_eq!(slowed.faults.slow_windows, 1);
        assert!(slowed.faults.degraded > SimDuration::ZERO);
        assert!(
            slowed.elapsed > healthy.elapsed,
            "a 20x slower disk must lengthen the run: {:?} vs {:?}",
            slowed.elapsed,
            healthy.elapsed
        );
    }

    #[test]
    fn net_impairments_are_recovered_by_retries() {
        let mut c = small_cluster(2);
        let plan = FaultPlan::parse(
            "retry timeout=5ms backoff=2 max=20\nnet from=0ms until=60s drop=0.2 dup=0.1",
        )
        .unwrap();
        c.set_fault_plan(&plan);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 2, 65536, 16);
        let stats = c.run(&mut w);
        assert_eq!(stats.requests, 32);
        assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        assert!(stats.faults.dropped_messages > 0);
        assert!(stats.faults.duplicated_messages > 0);
        assert!(stats.faults.retries > 0);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let run = || {
            let mut c = small_cluster(2);
            let plan = FaultPlan::parse(
                "retry timeout=5ms backoff=2 max=12\n\
                 crash server=1 at=2ms restart=20ms\n\
                 net from=0ms until=60s drop=0.1 delay=0.1 delay-by=2ms dup=0.05",
            )
            .unwrap();
            c.set_fault_plan(&plan);
            c.preallocate(FileHandle(1), 8 << 20);
            let mut w = seq(IoDir::Read, 2, 65536, 16);
            let s = c.run(&mut w);
            (s.elapsed, s.events_dispatched, s.faults)
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.2.is_zero());
    }

    #[test]
    fn dispatch_histograms_populated() {
        let mut c = small_cluster(4);
        c.preallocate(FileHandle(1), 8 << 20);
        let mut w = seq(IoDir::Read, 4, 65536, 8);
        let stats = c.run(&mut w);
        let h = stats.combined_read_hist();
        assert!(h.total() > 0);
        // All dispatches are at least one sector and at most the merge cap.
        for (k, _) in h.iter() {
            assert!((1..=256).contains(&k));
        }
    }

    #[test]
    fn replicated_mds_is_client_invisible_on_stock_clusters() {
        // All raft traffic is coordinator-local: without iBridge
        // steering there are no T-reports to replicate, so the client
        // side of the run is identical to the single-MDS baseline and
        // only the dispatched-event count (the group's own timers and
        // RPCs) differs.
        let run = |replicas: usize| {
            let cfg = ClusterConfig {
                n_servers: 4,
                mds_replicas: replicas,
                ..Default::default()
            };
            let mut c = Cluster::new(cfg, |_| Box::new(StockPolicy::new()));
            c.preallocate(FileHandle(1), 8 << 20);
            let mut w = seq(IoDir::Read, 4, 65536, 8);
            c.run(&mut w)
        };
        let single = run(1);
        let replicated = run(3);
        assert!(single.faults.is_zero());
        assert_eq!(single.elapsed, replicated.elapsed);
        assert_eq!(single.bytes, replicated.bytes);
        assert_eq!(single.requests, replicated.requests);
        assert_eq!(
            format!("{:?}", single.latency_hist_ms),
            format!("{:?}", replicated.latency_hist_ms)
        );
        assert!(
            replicated.faults.mds_elections >= 1,
            "a 3-replica group must elect a leader"
        );
        assert!(
            replicated.faults.mds_recovery_ticks > 0,
            "the window before the first election counts as leaderless"
        );
    }

    #[test]
    fn replicated_mds_runs_are_deterministic() {
        let run = || {
            let cfg = ClusterConfig {
                n_servers: 4,
                mds_replicas: 3,
                ..Default::default()
            };
            let mut c = Cluster::new(cfg, |_| Box::new(StockPolicy::new()));
            c.preallocate(FileHandle(1), 8 << 20);
            let mut w = seq(IoDir::Read, 4, 65 * 1024, 8);
            format!("{:?}", c.run(&mut w))
        };
        assert_eq!(run(), run(), "replicated runs must be deterministic");
    }

    #[test]
    fn mds_failover_elects_a_new_leader_and_completes() {
        // A paced workload keeps the run open past the crash, the
        // restart, and the re-election they force.
        #[derive(Debug)]
        struct Paced {
            left: u64,
        }
        impl Workload for Paced {
            fn procs(&self) -> usize {
                1
            }
            fn next(&mut self, _p: usize, _i: u64) -> Option<crate::workload::WorkItem> {
                if self.left == 0 {
                    return None;
                }
                self.left -= 1;
                Some(crate::workload::WorkItem {
                    req: FileRequest {
                        dir: IoDir::Write,
                        file: FileHandle(1),
                        offset: (8 - self.left) * 4096,
                        len: 4096,
                    },
                    think: SimDuration::from_millis(4),
                })
            }
        }
        let cfg = ClusterConfig {
            n_servers: 2,
            mds_replicas: 3,
            ..Default::default()
        };
        let mut c = Cluster::new(cfg, |_| Box::new(StockPolicy::new()));
        let plan = FaultPlan::parse("mds-failover at=6ms restart=10ms").unwrap();
        c.set_fault_plan(&plan);
        let stats = c.run(&mut Paced { left: 8 });
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.latency_hist_ms.total(), 8);
        assert_eq!(stats.faults.mds_crashes, 1);
        assert_eq!(stats.faults.mds_restarts, 1);
        assert!(
            stats.faults.mds_elections >= 2,
            "the crash must force a re-election: {:?}",
            stats.faults
        );
        assert!(
            stats.faults.mds_leader_changes >= 2,
            "a different replica must take over: {:?}",
            stats.faults
        );
        assert!(stats.faults.mds_recovery_ticks > 0);
    }
}
