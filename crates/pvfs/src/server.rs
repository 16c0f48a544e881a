//! The data server: the `pvfs2-server` daemon analogue.
//!
//! Each server owns a primary device (disk behind CFQ — or SSD behind
//! Noop in the "SSD-only" configuration of Fig. 10), an optional SSD
//! cache device (Noop), a local file system, and a [`CachePolicy`]. The
//! server is a passive state machine: the cluster event loop feeds it
//! sub-request arrivals and device completions; it answers with device
//! actions to schedule and jobs that finished.
//!
//! I/O for one sub-request may span several device extents (file-system
//! extents, or SSD-log extents); the server tracks them as *groups* and
//! completes the upper-level work item when the whole group is done.
//! Besides client jobs, groups are used for post-read cache admissions
//! and the two phases of writeback (SSD read → disk write).

use crate::policy::{
    CachePolicy, EntryId, FlushId, FlushOp, LogCorruption, Placement, RestartReport,
};
use crate::proto::SubRequest;
use ibridge_des::fxhash::FxHashMap as HashMap;
use ibridge_des::{SimDuration, SimTime};
use ibridge_device::{bytes_to_sectors, DiskModel, DiskProfile, IoDir, SsdModel, SsdProfile};
use ibridge_iosched::{
    Action, ActionList, AnySched, BlockDevice, BlockRequest, Cfq, CfqConfig, Deadline, Noop,
    StorageDev, StreamId,
};
use ibridge_localfs::{Extent, FileHandle, FsConfig, LocalFs};

/// Identifies a client job (one sub-request being served).
pub type JobId = u64;

/// Stream id used for cache-admission writes (a background kernel-thread
/// analogue).
pub const ADMISSION_STREAM: StreamId = u64::MAX - 1;
/// Stream id used for writeback I/O (the flusher-thread analogue).
pub const FLUSH_STREAM: StreamId = u64::MAX;

/// Which of the server's block devices an action belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevKind {
    /// The device holding the datafiles (disk, or SSD in SSD-only mode).
    Primary,
    /// The iBridge SSD cache.
    Cache,
}

/// Which I/O scheduler fronts the primary disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskSched {
    /// CFQ — the paper's testbed configuration.
    #[default]
    Cfq,
    /// Deadline elevator (scheduler-comparison ablations).
    Deadline,
    /// Plain FIFO with merging.
    Noop,
}

/// Static per-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Disk model parameters.
    pub disk: DiskProfile,
    /// SSD model parameters (cache device, or primary in SSD-only mode).
    pub ssd: SsdProfile,
    /// Scheduler for the primary disk.
    pub disk_sched: DiskSched,
    /// Device queue depth of the primary disk (NCQ). 1 disables
    /// device-side reordering.
    pub ncq_depth: usize,
    /// CFQ parameters for the disk.
    pub cfq: CfqConfig,
    /// Local file system parameters.
    pub fs: FsConfig,
    /// Use an SSD as the primary device (Fig. 10's "SSD-only").
    pub primary_is_ssd: bool,
    /// Attach an SSD cache device (required for iBridge policies).
    pub with_cache_dev: bool,
    /// Per-sub-request server CPU cost (request decoding, Trove/BMI
    /// bookkeeping); serialises on one core.
    pub op_overhead: SimDuration,
    /// Maximum bytes flushed per writeback round.
    pub writeback_batch: u64,
    /// Kernel-readahead model: a disk read starting within this many
    /// bytes after the datafile's current read cursor is extended
    /// backwards to the cursor, filling the hole (this is what turns
    /// iBridge's fragment-holes into the large sequential dispatches of
    /// Fig. 5). Zero disables readahead.
    pub ra_fill: u64,
    /// Page-cache budget for readahead bytes, per datafile.
    pub ra_budget: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            disk: DiskProfile::hp_mm0500(),
            ssd: SsdProfile::hp_mk0120(),
            disk_sched: DiskSched::Cfq,
            ncq_depth: 1,
            cfq: CfqConfig::default(),
            fs: FsConfig::default(),
            primary_is_ssd: false,
            with_cache_dev: false,
            op_overhead: SimDuration::from_micros(150),
            writeback_batch: 4 << 20,
            ra_fill: 64 * 1024,
            ra_budget: 8 << 20,
        }
    }
}

/// Per-datafile kernel-readahead state: a read cursor plus the ranges
/// read beyond what clients asked for (a minimal page-cache model, large
/// enough to make hole-filling useful and bounded by `ra_budget`).
#[derive(Debug, Default)]
struct ReadAhead {
    cursor: u64,
    /// Prefetched byte ranges, disjoint, keyed by start offset.
    prefetched: std::collections::BTreeMap<u64, u64>,
    bytes: u64,
}

impl ReadAhead {
    /// True when `[offset, offset+len)` is fully inside one prefetched
    /// range.
    fn covered(&self, offset: u64, len: u64) -> bool {
        match self.prefetched.range(..=offset).next_back() {
            Some((&start, &l)) => offset + len <= start + l,
            None => false,
        }
    }

    /// Records `[offset, offset+len)` as prefetched, merging with any
    /// adjacent or overlapping ranges, and enforces the byte budget by
    /// dropping the lowest (oldest) ranges.
    fn record(&mut self, offset: u64, len: u64, budget: u64) {
        if len == 0 {
            return;
        }
        let mut new_start = offset;
        let mut new_end = offset + len;
        if let Some((&s, &l)) = self.prefetched.range(..=new_start).next_back() {
            if s + l >= new_start {
                new_start = s;
                new_end = new_end.max(s + l);
                self.prefetched.remove(&s);
                self.bytes -= l;
            }
        }
        while let Some((&s, &l)) = self.prefetched.range(new_start..).next() {
            if s > new_end {
                break;
            }
            new_end = new_end.max(s + l);
            self.prefetched.remove(&s);
            self.bytes -= l;
        }
        self.prefetched.insert(new_start, new_end - new_start);
        self.bytes += new_end - new_start;
        while self.bytes > budget {
            let (&start, &l) = self
                .prefetched
                .iter()
                .next()
                .expect("positive bytes implies ranges");
            self.prefetched.remove(&start);
            self.bytes -= l;
        }
    }
}

#[derive(Debug)]
struct JobState {
    sub: SubRequest,
    admit: bool,
    served_at_disk: bool,
    /// When the sub-request entered device submission (for the
    /// observability job span/latency).
    started: SimTime,
}

/// One device segment of a group.
#[derive(Debug, Clone, Copy)]
struct SegSpec {
    dir: IoDir,
    extent: Extent,
    fua: bool,
    rmw_edges: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupKind {
    Job(JobId),
    Admission(EntryId),
    FlushRead(FlushId),
    FlushWrite(FlushId),
}

/// One slab slot holding a (possibly retired) completion group. The
/// group's identity is `(slot, gen)` packed into the block-request tag;
/// bumping `gen` on retirement invalidates stale tags without any map
/// lookups — the slab/generation pattern of the DES calendar.
#[derive(Debug)]
struct GroupSlot {
    gen: u32,
    pending: u32,
    kind: GroupKind,
    /// Which device the group's segments run on — needed to retire
    /// cache-bound groups when the SSD device is lost.
    dev: DevKind,
}

/// Packs a slab slot and its generation into a block-request tag.
fn pack_group(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(slot)
}

/// Inverse of [`pack_group`].
fn unpack_group(tag: u64) -> (u32, u32) {
    (tag as u32, (tag >> 32) as u32)
}

/// What the cluster must do after poking a server.
#[derive(Debug, Default)]
pub struct ServerOut {
    /// Device actions to schedule, tagged with the device they concern.
    pub dev_actions: Vec<(DevKind, Action)>,
    /// Jobs whose sub-request completed (replies can be sent).
    pub done_jobs: Vec<JobId>,
}

impl ServerOut {
    fn extend_dev(&mut self, kind: DevKind, actions: ActionList) {
        self.dev_actions
            .extend(actions.into_iter().map(|a| (kind, a)));
    }

    /// Empties both lists, keeping their capacity — the event loop reuses
    /// one `ServerOut` across calendar events so the steady state never
    /// allocates.
    pub fn clear(&mut self) {
        self.dev_actions.clear();
        self.done_jobs.clear();
    }
}

/// One data server.
#[derive(Debug)]
pub struct DataServer {
    id: usize,
    primary: BlockDevice,
    cache: Option<BlockDevice>,
    fs: LocalFs,
    policy: Box<dyn CachePolicy>,
    cfg: ServerConfig,
    cpu_free: SimTime,
    jobs: HashMap<JobId, JobState>,
    /// Completion-group slab; retired slots are recycled via `free_groups`.
    group_slots: Vec<GroupSlot>,
    free_groups: Vec<u32>,
    live_groups: usize,
    /// Reusable per-call segment buffer (never shrinks).
    seg_scratch: Vec<SegSpec>,
    flushes: HashMap<FlushId, FlushOp>,
    ra: HashMap<FileHandle, ReadAhead>,
    ra_hits: u64,
    ra_bytes: u64,
    /// The cache SSD died (fault injection); restarts must not
    /// resurrect it.
    cache_lost: bool,
}

/// Builds the primary block device described by `cfg`.
fn make_primary(cfg: &ServerConfig) -> BlockDevice {
    if cfg.primary_is_ssd {
        BlockDevice::new(
            StorageDev::Ssd(SsdModel::new(cfg.ssd.clone())),
            AnySched::Noop(Noop::default()),
        )
    } else {
        let sched = match cfg.disk_sched {
            DiskSched::Cfq => AnySched::Cfq(Cfq::new(cfg.cfq.clone())),
            DiskSched::Deadline => AnySched::Deadline(Deadline::new(cfg.cfq.max_merge_sectors)),
            DiskSched::Noop => AnySched::Noop(Noop::new(cfg.cfq.max_merge_sectors)),
        };
        BlockDevice::with_ncq(
            StorageDev::Disk(DiskModel::new(cfg.disk.clone())),
            sched,
            cfg.ncq_depth,
        )
    }
}

/// Builds the cache block device described by `cfg`, if configured.
fn make_cache(cfg: &ServerConfig) -> Option<BlockDevice> {
    cfg.with_cache_dev.then(|| {
        BlockDevice::new(
            StorageDev::Ssd(SsdModel::new(cfg.ssd.clone())),
            AnySched::Noop(Noop::default()),
        )
    })
}

impl DataServer {
    /// Creates a server with the given policy.
    pub fn new(id: usize, cfg: ServerConfig, policy: Box<dyn CachePolicy>) -> Self {
        let primary = make_primary(&cfg);
        let cache = make_cache(&cfg);
        let fs_capacity = if cfg.primary_is_ssd {
            cfg.ssd.capacity_sectors
        } else {
            cfg.disk.capacity_sectors
        };
        let mut srv = DataServer {
            id,
            primary,
            cache,
            fs: LocalFs::new(fs_capacity, cfg.fs.clone()),
            policy,
            cfg,
            cpu_free: SimTime::ZERO,
            jobs: HashMap::default(),
            group_slots: Vec::new(),
            free_groups: Vec::new(),
            live_groups: 0,
            seg_scratch: Vec::new(),
            flushes: HashMap::default(),
            ra: HashMap::default(),
            ra_hits: 0,
            ra_bytes: 0,
            cache_lost: false,
        };
        srv.obs_label_devices();
        srv
    }

    /// Labels this server's devices for observability output: trace node
    /// = server id + 1, lane 1 = primary device, lane 2 = cache device.
    fn obs_label_devices(&mut self) {
        let node = (self.id as u16).saturating_add(1);
        self.primary.set_obs_label(node, 1);
        if let Some(c) = self.cache.as_mut() {
            c.set_obs_label(node, 2);
        }
    }

    /// Readahead page-cache hits served without any device I/O:
    /// `(count, bytes)`.
    pub fn readahead_hits(&self) -> (u64, u64) {
        (self.ra_hits, self.ra_bytes)
    }

    /// Server index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The primary block device (for stats/tracing).
    pub fn primary(&self) -> &BlockDevice {
        &self.primary
    }

    /// The cache block device, if configured.
    pub fn cache(&self) -> Option<&BlockDevice> {
        self.cache.as_ref()
    }

    /// The cache policy (for stats).
    pub fn policy(&self) -> &dyn CachePolicy {
        self.policy.as_ref()
    }

    /// Mutable policy access (broadcast delivery).
    pub fn policy_mut(&mut self) -> &mut dyn CachePolicy {
        self.policy.as_mut()
    }

    /// The local file system (for preallocation at setup).
    pub fn fs_mut(&mut self) -> &mut LocalFs {
        &mut self.fs
    }

    /// Clears dispatch traces on all devices (skip warm-up).
    pub fn reset_tracers(&mut self) {
        self.primary.reset_tracer();
        if let Some(c) = &mut self.cache {
            c.reset_tracer();
        }
    }

    /// Per-run reset: clears dispatch traces and drops the page cache /
    /// readahead state (the paper flushes system buffer caches before
    /// each run). SSD cache contents deliberately survive.
    pub fn prepare_run(&mut self) {
        self.reset_tracers();
        self.ra.clear();
        self.ra_hits = 0;
        self.ra_bytes = 0;
    }

    /// Serialises the per-request CPU cost: returns when the sub-request
    /// can start executing.
    pub fn cpu_admit(&mut self, now: SimTime) -> SimTime {
        let start = self.cpu_free.max(now);
        self.cpu_free = start + self.cfg.op_overhead;
        self.cpu_free
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_group(
        &mut self,
        now: SimTime,
        kind: GroupKind,
        dev: DevKind,
        dir: IoDir,
        extents: &[Extent],
        stream: StreamId,
        fua: bool,
        out: &mut ServerOut,
    ) {
        let mut parts = std::mem::take(&mut self.seg_scratch);
        parts.clear();
        parts.extend(extents.iter().map(|&e| SegSpec {
            dir,
            extent: e,
            fua,
            rmw_edges: 0,
        }));
        self.submit_mixed_group(now, kind, dev, &parts, stream, out);
        self.seg_scratch = parts;
    }

    /// Submits a group of per-segment specs (direction/FUA/RMW may vary).
    /// Every segment's block request carries the group's packed
    /// `(slot, gen)` handle as its tag, so completions need no
    /// segment-to-group map at all.
    fn submit_mixed_group(
        &mut self,
        now: SimTime,
        kind: GroupKind,
        dev: DevKind,
        parts: &[SegSpec],
        stream: StreamId,
        out: &mut ServerOut,
    ) {
        assert!(!parts.is_empty(), "empty extent list for {kind:?}");
        let slot = match self.free_groups.pop() {
            Some(slot) => slot,
            None => {
                assert!(
                    self.group_slots.len() < u32::MAX as usize,
                    "group slab full"
                );
                self.group_slots.push(GroupSlot {
                    gen: 0,
                    pending: 0,
                    kind,
                    dev,
                });
                (self.group_slots.len() - 1) as u32
            }
        };
        let gs = &mut self.group_slots[slot as usize];
        gs.kind = kind;
        gs.pending = parts.len() as u32;
        gs.dev = dev;
        let handle = pack_group(slot, gs.gen);
        self.live_groups += 1;
        for &SegSpec {
            dir,
            extent: e,
            fua,
            rmw_edges,
        } in parts
        {
            let mut req = BlockRequest::new(dir, e.lbn, e.sectors, stream, now, handle)
                .with_rmw_edges(rmw_edges);
            if fua {
                req = req.with_fua();
            }
            let actions = match dev {
                DevKind::Primary => self.primary.submit(now, req),
                DevKind::Cache => self
                    .cache
                    .as_mut()
                    .expect("cache device not configured")
                    .submit(now, req),
            };
            out.extend_dev(dev, actions);
        }
    }

    /// Executes a sub-request (after its CPU admission delay).
    ///
    /// `stream` identifies the issuing client process for CFQ.
    ///
    /// # Panics
    ///
    /// Panics if a read touches a range that was never allocated — the
    /// experiment setup must preallocate data sets, mirroring the
    /// paper's "a 10 GB file is accessed" methodology.
    pub fn exec_subreq(
        &mut self,
        now: SimTime,
        job: JobId,
        stream: StreamId,
        sub: SubRequest,
        out: &mut ServerOut,
    ) {
        let block_bytes = self.cfg.fs.block_sectors * ibridge_localfs::SECTOR_SIZE;
        // Read-modify-write: a write whose edges are not block-aligned
        // must first read the partially-overwritten blocks when they hold
        // prior data that is not in the page cache — the block-level
        // penalty of unaligned access. iBridge's SSD log is byte-granular
        // and pays none of this.
        let mut rmw_edges: u8 = 0;
        if sub.dir.is_write() {
            // At most two partial edges (first and last block).
            let mut edge_blocks = [0u64; 2];
            let mut n_edges = 0;
            if !sub.offset.is_multiple_of(block_bytes) {
                edge_blocks[n_edges] = sub.offset / block_bytes;
                n_edges += 1;
            }
            let end = sub.offset + sub.len;
            // Skip the end edge only when it is the same block as an
            // actually-recorded start edge (a sub-block write).
            if !end.is_multiple_of(block_bytes)
                && (n_edges == 0 || end / block_bytes != edge_blocks[0])
            {
                edge_blocks[n_edges] = end / block_bytes;
                n_edges += 1;
            }
            for &block in &edge_blocks[..n_edges] {
                let allocated = self
                    .fs
                    .map_range(sub.file, block * block_bytes, block_bytes)
                    .is_ok();
                let warm = self
                    .ra
                    .get(&sub.file)
                    .is_some_and(|ra| ra.covered(block * block_bytes, block_bytes));
                if allocated && !warm {
                    rmw_edges += 1;
                }
            }
            // The written (and RMW-read) bytes populate the page cache.
            let budget = self.cfg.ra_budget;
            let cache_start = sub.offset / block_bytes * block_bytes;
            let cache_len = end.div_ceil(block_bytes) * block_bytes - cache_start;
            self.ra
                .entry(sub.file)
                .or_default()
                .record(cache_start, cache_len, budget);
            let first = sub.offset / block_bytes;
            let last = (sub.offset + sub.len - 1) / block_bytes;
            self.fs
                .ensure_allocated(sub.file, first, last - first + 1)
                .expect("server device out of space");
        }
        let extents = self
            .fs
            .map_range(sub.file, sub.offset, sub.len)
            .unwrap_or_else(|e| {
                panic!(
                    "server {}: reading unallocated data ({e}); preallocate the \
                     experiment files first",
                    self.id
                )
            });
        // Page-cache hit on previously readahead bytes: no device I/O.
        if sub.dir.is_read() {
            let covered = self
                .ra
                .get(&sub.file)
                .is_some_and(|ra| ra.covered(sub.offset, sub.len));
            if covered {
                self.ra_hits += 1;
                self.ra_bytes += sub.len;
                out.done_jobs.push(job);
                return;
            }
        }
        let disk_lbn = extents[0].lbn;
        let placement = self.policy.place(now, &sub, disk_lbn);
        match placement {
            Placement::Disk { admit_after_read } => {
                // Kernel readahead: extend a near-cursor read backwards
                // to the cursor, filling small holes so the disk sees a
                // sequential stream.
                let mut extents = extents;
                if sub.dir.is_read() && self.cfg.ra_fill > 0 {
                    let budget = self.cfg.ra_budget;
                    let fill = self.cfg.ra_fill;
                    let ra = self.ra.entry(sub.file).or_default();
                    let start = if ra.cursor > 0
                        && sub.offset >= ra.cursor
                        && sub.offset - ra.cursor <= fill
                    {
                        ra.cursor
                    } else {
                        sub.offset
                    };
                    if start < sub.offset {
                        // The hole may be unallocated (e.g. never written
                        // to disk); only fill when it maps.
                        if let Ok(ext) =
                            self.fs
                                .map_range(sub.file, start, sub.offset + sub.len - start)
                        {
                            ra.record(start, sub.offset - start, budget);
                            extents = ext;
                        }
                    }
                    // The read's own bytes enter the page cache too.
                    ra.record(sub.offset, sub.len, budget);
                    ra.cursor = ra.cursor.max(sub.offset + sub.len);
                }
                // TroveSyncData: client writes are flush barriers; the
                // first segment carries the RMW edge penalty.
                let dir = sub.dir;
                let fua = dir.is_write();
                let mut parts = std::mem::take(&mut self.seg_scratch);
                parts.clear();
                parts.extend(extents.iter().enumerate().map(|(i, &e)| SegSpec {
                    dir,
                    extent: e,
                    fua,
                    rmw_edges: if i == 0 { rmw_edges } else { 0 },
                }));
                self.jobs.insert(
                    job,
                    JobState {
                        sub,
                        admit: admit_after_read,
                        served_at_disk: true,
                        started: now,
                    },
                );
                self.submit_mixed_group(
                    now,
                    GroupKind::Job(job),
                    DevKind::Primary,
                    &parts,
                    stream,
                    out,
                );
                self.seg_scratch = parts;
            }
            Placement::Ssd {
                extents: log_extents,
            } => {
                let dir = sub.dir;
                self.jobs.insert(
                    job,
                    JobState {
                        sub,
                        admit: false,
                        served_at_disk: false,
                        started: now,
                    },
                );
                self.submit_group(
                    now,
                    GroupKind::Job(job),
                    DevKind::Cache,
                    dir,
                    &log_extents,
                    stream,
                    false,
                    out,
                );
            }
        }
    }

    /// Records the completed job for observability: per-class and
    /// per-server latency metrics plus a `srv:job:*` span on the serving
    /// device's lane. Read-only; one atomic load when collection is off.
    fn observe_job_done(&self, now: SimTime, st: &JobState, job: JobId) {
        use crate::proto::ReqClass;
        use ibridge_obs::metrics::{self, Phase, SubClass};
        if !ibridge_obs::active() {
            return;
        }
        let d = (now - st.started).as_nanos();
        if ibridge_obs::metrics_on() {
            let class = match st.sub.class {
                ReqClass::Fragment { .. } => SubClass::Fragment,
                ReqClass::Random => SubClass::Random,
                ReqClass::Bulk => SubClass::Bulk,
            };
            metrics::record_phase(
                if st.served_at_disk {
                    Phase::SrvJobDisk
                } else {
                    Phase::SrvJobSsd
                },
                d,
            );
            metrics::record_sub(self.id as u16, class, st.served_at_disk, d, st.sub.len);
        }
        if ibridge_obs::tracing_on() {
            ibridge_obs::trace::record(ibridge_obs::Span {
                ts_ns: st.started.as_nanos(),
                dur_ns: d,
                node: ibridge_obs::trace::server_node(self.id),
                lane: if st.served_at_disk { 1 } else { 2 },
                name: if st.served_at_disk {
                    "srv:job:disk"
                } else {
                    "srv:job:ssd"
                },
                id: job,
                aux: st.sub.len,
            });
        }
    }

    fn handle_group_done(&mut self, now: SimTime, kind: GroupKind, out: &mut ServerOut) {
        match kind {
            GroupKind::Job(job) => {
                let st = self.jobs.remove(&job).expect("unknown job");
                if st.admit && st.sub.dir.is_read() && st.served_at_disk {
                    if let Some((entry, extents)) = self.policy.read_admission(now, &st.sub) {
                        self.submit_group(
                            now,
                            GroupKind::Admission(entry),
                            DevKind::Cache,
                            IoDir::Write,
                            &extents,
                            ADMISSION_STREAM,
                            false,
                            out,
                        );
                    }
                }
                self.observe_job_done(now, &st, job);
                out.done_jobs.push(job);
            }
            GroupKind::Admission(entry) => {
                self.policy.admission_complete(now, entry);
            }
            GroupKind::FlushRead(flush) => {
                // The op is done with its SSD extents once the log read
                // has finished; take it out instead of cloning it.
                let op = self.flushes.remove(&flush).expect("unknown flush");
                let extents = self
                    .fs
                    .map_range(op.file, op.offset, op.len)
                    .expect("flushing data whose home blocks vanished");
                // Writeback of a byte range pays RMW for its cold partial
                // block edges like any other write.
                let block_bytes = self.cfg.fs.block_sectors * ibridge_localfs::SECTOR_SIZE;
                let mut rmw_edges: u8 = 0;
                for edge in [op.offset, op.offset + op.len] {
                    if edge % block_bytes != 0 {
                        let block = edge / block_bytes;
                        let warm = self
                            .ra
                            .get(&op.file)
                            .is_some_and(|ra| ra.covered(block * block_bytes, block_bytes));
                        if !warm {
                            rmw_edges += 1;
                        }
                    }
                }
                let mut parts = std::mem::take(&mut self.seg_scratch);
                parts.clear();
                parts.extend(extents.iter().enumerate().map(|(i, &e)| SegSpec {
                    dir: IoDir::Write,
                    extent: e,
                    fua: false,
                    rmw_edges: if i == 0 { rmw_edges } else { 0 },
                }));
                self.submit_mixed_group(
                    now,
                    GroupKind::FlushWrite(flush),
                    DevKind::Primary,
                    &parts,
                    FLUSH_STREAM,
                    out,
                );
                self.seg_scratch = parts;
            }
            GroupKind::FlushWrite(flush) => {
                self.policy.flush_complete(now, flush);
            }
        }
    }

    /// A device finished its in-flight request.
    pub fn on_dev_complete(&mut self, now: SimTime, kind: DevKind, out: &mut ServerOut) {
        let (req, actions) = match kind {
            DevKind::Primary => self.primary.on_complete(now),
            DevKind::Cache => self
                .cache
                .as_mut()
                .expect("cache device not configured")
                .on_complete(now),
        };
        out.extend_dev(kind, actions);
        for &tag in &req.tags {
            let (slot, gen) = unpack_group(tag);
            let gs = &mut self.group_slots[slot as usize];
            assert_eq!(gs.gen, gen, "completion for a retired group");
            gs.pending -= 1;
            if gs.pending == 0 {
                let done_kind = gs.kind;
                // Retire the slot: the generation bump invalidates any
                // stale tag that might still reference it.
                gs.gen = gs.gen.wrapping_add(1);
                self.free_groups.push(slot);
                self.live_groups -= 1;
                self.handle_group_done(now, done_kind, out);
            }
        }
    }

    /// A device anticipation timer fired.
    pub fn on_dev_recheck(&mut self, now: SimTime, kind: DevKind, gen: u64, out: &mut ServerOut) {
        let actions = match kind {
            DevKind::Primary => self.primary.on_recheck(now, gen),
            DevKind::Cache => self
                .cache
                .as_mut()
                .map(|c| c.on_recheck(now, gen))
                .unwrap_or_default(),
        };
        out.extend_dev(kind, actions);
    }

    /// Periodic writeback opportunity. Unless `force`d (end-of-run
    /// drain), only acts while the primary device is quiet, as the paper
    /// specifies ("during quiet I/O-device periods").
    pub fn writeback_tick(&mut self, now: SimTime, force: bool, out: &mut ServerOut) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        if !force {
            // Background log maintenance (segment compaction/GC,
            // checkpoints, scrubbing) rides the same tick but keys on
            // the *cache* device being quiet — it reads and rewrites
            // the SSD log, not the disk. The end-of-run drain skips it:
            // maintenance never delays the drain.
            let idle = cache.probe_idle();
            self.policy.log_maintenance(now, idle);
        }
        if !force && !self.primary.is_idle() {
            return;
        }
        let batch = self.policy.flush_batch(now, self.cfg.writeback_batch);
        for op in batch {
            self.submit_group(
                now,
                GroupKind::FlushRead(op.id),
                DevKind::Cache,
                IoDir::Read,
                &op.ssd_extents,
                FLUSH_STREAM,
                false,
                out,
            );
            let id = op.id;
            let prev = self.flushes.insert(id, op);
            assert!(prev.is_none(), "duplicate flush id {id}");
        }
    }

    /// Fault injection: the server process dies at `now`. Every piece
    /// of volatile state — in-flight jobs, completion groups, flush
    /// bookkeeping, queued and in-flight device I/O, the page cache —
    /// is lost; the devices are rebuilt cold. The policy is *not*
    /// touched here: its durable (on-SSD) state is replayed by
    /// [`DataServer::restart`] when the process comes back. The caller
    /// must discard any scheduled device events for this server (their
    /// completions now refer to hardware queues that no longer exist).
    pub fn crash(&mut self, _now: SimTime) {
        self.jobs.clear();
        self.flushes.clear();
        self.group_slots.clear();
        self.free_groups.clear();
        self.live_groups = 0;
        self.ra.clear();
        self.cpu_free = SimTime::ZERO;
        self.primary = make_primary(&self.cfg);
        self.cache = if self.cache_lost {
            None
        } else {
            make_cache(&self.cfg)
        };
        self.obs_label_devices();
    }

    /// Fault injection: the crashed process comes back up and replays
    /// the on-SSD mapping-table backup (clean entries invalidated,
    /// dirty entries preserved — see [`CachePolicy::server_restart`]).
    pub fn restart(&mut self, now: SimTime) -> RestartReport {
        self.policy.server_restart(now)
    }

    /// Fault injection: silently corrupts the on-SSD mapping-table
    /// backup log. Nothing observable happens until the next restart's
    /// recovery fsck scans the log. Returns the number of backup
    /// records affected (0 with no cache device to corrupt).
    pub fn corrupt_cache(&mut self, now: SimTime, corruption: LogCorruption) -> u64 {
        if self.cache.is_none() {
            return 0;
        }
        self.policy.inject_corruption(now, corruption)
    }

    /// Fault injection: the SSD cache device fails permanently. All
    /// in-flight cache I/O dies; jobs that were being served from the
    /// SSD are appended to `lost_jobs` so the cluster can drop its
    /// bookkeeping (clients recover them by timeout + retry against
    /// the now-degraded, disk-only server). Returns the dirty bytes
    /// destroyed with the device — the durability cost of buffering
    /// writes in the cache.
    pub fn lose_cache_dev(&mut self, now: SimTime, lost_jobs: &mut Vec<JobId>) -> u64 {
        if self.cache.take().is_none() {
            return 0;
        }
        self.cache_lost = true;
        for slot in 0..self.group_slots.len() {
            let gs = &mut self.group_slots[slot];
            if gs.pending == 0 || gs.dev != DevKind::Cache {
                continue;
            }
            // Retire the group: the generation bump invalidates any
            // completion already scheduled for its segments.
            gs.pending = 0;
            gs.gen = gs.gen.wrapping_add(1);
            let kind = gs.kind;
            self.free_groups.push(slot as u32);
            self.live_groups -= 1;
            match kind {
                GroupKind::Job(job) => {
                    self.jobs.remove(&job);
                    lost_jobs.push(job);
                }
                // The admission's entry dies with the policy state below.
                GroupKind::Admission(_) => {}
                GroupKind::FlushRead(flush) => {
                    self.flushes.remove(&flush);
                }
                // Flush writes run on the primary device.
                GroupKind::FlushWrite(_) => unreachable!("flush write on cache device"),
            }
        }
        self.policy.ssd_lost(now)
    }

    /// Fault injection: sets (or clears, `f = 1.0`) the fail-slow
    /// service-time multiplier on one device. A missing cache device is
    /// ignored.
    pub fn set_slow_factor(&mut self, dev: DevKind, f: f64) {
        match dev {
            DevKind::Primary => self.primary.set_slow_factor(f),
            DevKind::Cache => {
                if let Some(c) = &mut self.cache {
                    c.set_slow_factor(f);
                }
            }
        }
    }

    /// True when the server has no work in flight and no dirty data.
    pub fn quiescent(&self) -> bool {
        self.jobs.is_empty()
            && self.live_groups == 0
            && self.primary.is_idle()
            && self.cache.as_ref().is_none_or(|c| c.is_idle())
            && self.policy.dirty_bytes() == 0
    }

    /// Preallocates the local datafile backing `file` with `bytes` of
    /// capacity (the per-server share of a striped file).
    pub fn preallocate(&mut self, file: FileHandle, bytes: u64) {
        self.fs
            .preallocate(file, bytes)
            .expect("preallocation exceeded device capacity");
    }

    /// Sectors a sub-request of `len` bytes occupies (helper for stats).
    pub fn sectors_for(len: u64) -> u64 {
        bytes_to_sectors(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ReqClass;
    use crate::StockPolicy;
    use ibridge_des::Simulation;
    use ibridge_localfs::ExtentList;

    fn server() -> DataServer {
        DataServer::new(0, ServerConfig::default(), Box::new(StockPolicy::new()))
    }

    fn sub(dir: IoDir, offset: u64, len: u64) -> SubRequest {
        SubRequest {
            dir,
            file: FileHandle(1),
            server: 0,
            offset,
            len,
            class: ReqClass::Bulk,
        }
    }

    /// Wrapper over the out-param API for tests that want a fresh value.
    fn exec(
        s: &mut DataServer,
        t: SimTime,
        job: JobId,
        stream: StreamId,
        r: SubRequest,
    ) -> ServerOut {
        let mut out = ServerOut::default();
        s.exec_subreq(t, job, stream, r, &mut out);
        out
    }

    fn tick(s: &mut DataServer, t: SimTime, force: bool) -> ServerOut {
        let mut out = ServerOut::default();
        s.writeback_tick(t, force, &mut out);
        out
    }

    /// Pumps all device events for one server until quiet; returns done
    /// jobs in completion order.
    fn pump(server: &mut DataServer, initial: ServerOut) -> Vec<JobId> {
        #[derive(Debug)]
        enum Ev {
            Done(DevKind),
            Recheck(DevKind, u64),
        }
        let mut sim: Simulation<Ev> = Simulation::new();
        let mut done = Vec::new();
        let push = |sim: &mut Simulation<Ev>, out: &ServerOut| {
            for (kind, a) in &out.dev_actions {
                match a {
                    Action::CompleteAt(t) => sim.schedule_at(*t, Ev::Done(*kind)),
                    Action::RecheckAt(t, g) => sim.schedule_at(*t, Ev::Recheck(*kind, *g)),
                };
            }
        };
        done.extend(initial.done_jobs.iter().copied());
        push(&mut sim, &initial);
        let mut out = ServerOut::default();
        while let Some((t, ev)) = sim.pop() {
            out.clear();
            match ev {
                Ev::Done(k) => server.on_dev_complete(t, k, &mut out),
                Ev::Recheck(k, g) => server.on_dev_recheck(t, k, g, &mut out),
            }
            done.extend(out.done_jobs.iter().copied());
            push(&mut sim, &out);
        }
        done
    }

    #[test]
    fn write_then_read_roundtrip() {
        // Disable the page-cache model so the read actually hits the disk.
        let cfg = ServerConfig {
            ra_fill: 0,
            ra_budget: 0,
            ..Default::default()
        };
        let mut s = DataServer::new(0, cfg, Box::new(StockPolicy::new()));
        let t = SimTime::ZERO;
        let out = exec(&mut s, t, 1, 10, sub(IoDir::Write, 0, 65536));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        let out = exec(
            &mut s,
            SimTime::from_secs(1),
            2,
            10,
            sub(IoDir::Read, 0, 65536),
        );
        let done = pump(&mut s, out);
        assert_eq!(done, vec![2]);
        assert!(s.quiescent());
        let stats = s.primary().stats();
        assert_eq!(stats.bytes_written, 65536);
        assert_eq!(stats.bytes_read, 65536);
    }

    #[test]
    fn write_then_read_hits_page_cache() {
        let mut s = server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 65536));
        pump(&mut s, out);
        let out = exec(
            &mut s,
            SimTime::from_secs(1),
            2,
            10,
            sub(IoDir::Read, 0, 65536),
        );
        let done = pump(&mut s, out);
        assert_eq!(done, vec![2]);
        assert_eq!(s.primary().stats().bytes_read, 0, "served from page cache");
        assert_eq!(s.readahead_hits(), (1, 65536));
    }

    #[test]
    #[should_panic(expected = "preallocate")]
    fn reading_unallocated_panics() {
        let mut s = server();
        exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Read, 0, 4096));
    }

    #[test]
    fn preallocation_enables_reads() {
        let mut s = server();
        s.preallocate(FileHandle(1), 1 << 20);
        let out = exec(&mut s, SimTime::ZERO, 7, 3, sub(IoDir::Read, 65536, 65536));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![7]);
    }

    #[test]
    fn cpu_admission_serialises() {
        let mut s = server();
        let t = SimTime::ZERO;
        let a = s.cpu_admit(t);
        let b = s.cpu_admit(t);
        assert_eq!(a, t + ServerConfig::default().op_overhead);
        assert_eq!(b, a + ServerConfig::default().op_overhead);
        // After an idle gap the CPU is free immediately.
        let later = SimTime::from_secs(5);
        let c = s.cpu_admit(later);
        assert_eq!(c, later + ServerConfig::default().op_overhead);
    }

    #[test]
    fn multiple_jobs_complete_independently() {
        let mut s = server();
        s.preallocate(FileHandle(1), 4 << 20);
        let t = SimTime::ZERO;
        let mut out = exec(&mut s, t, 1, 10, sub(IoDir::Read, 0, 65536));
        s.exec_subreq(t, 2, 11, sub(IoDir::Read, 2 << 20, 65536), &mut out);
        let done = pump(&mut s, out);
        assert_eq!(done.len(), 2);
        assert!(s.quiescent());
    }

    #[test]
    fn ssd_only_primary_works() {
        let cfg = ServerConfig {
            primary_is_ssd: true,
            ..Default::default()
        };
        let mut s = DataServer::new(0, cfg, Box::new(StockPolicy::new()));
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 4096));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn writeback_tick_without_cache_is_noop() {
        let mut s = server();
        let out = tick(&mut s, SimTime::ZERO, true);
        assert!(out.dev_actions.is_empty());
        assert!(out.done_jobs.is_empty());
    }

    /// A scripted policy exercising the server's cache plumbing: every
    /// read admits after disk service; every write redirects to a fixed
    /// log position; flush_batch returns one op per dirty entry.
    #[derive(Debug, Default)]
    struct Scripted {
        next_log: u64,
        dirty: Vec<(u64, crate::policy::FlushOp)>,
        admissions: std::cell::Cell<u64>,
        flushed: u64,
    }

    impl crate::policy::CachePolicy for Scripted {
        fn place(
            &mut self,
            _now: SimTime,
            sub: &SubRequest,
            _lbn: u64,
        ) -> crate::policy::Placement {
            if sub.dir.is_write() {
                let sectors = sub.len.div_ceil(512);
                let extents = ExtentList::one(Extent {
                    lbn: self.next_log,
                    sectors,
                });
                let id = self.next_log;
                self.next_log += sectors;
                self.dirty.push((
                    id,
                    crate::policy::FlushOp {
                        id,
                        file: sub.file,
                        offset: sub.offset,
                        len: sub.len,
                        ssd_extents: extents.clone(),
                    },
                ));
                crate::policy::Placement::Ssd { extents }
            } else {
                crate::policy::Placement::Disk {
                    admit_after_read: true,
                }
            }
        }

        fn read_admission(&mut self, _now: SimTime, sub: &SubRequest) -> Option<(u64, ExtentList)> {
            let sectors = sub.len.div_ceil(512);
            let extents = ExtentList::one(Extent {
                lbn: self.next_log,
                sectors,
            });
            let id = self.next_log;
            self.next_log += sectors;
            Some((id, extents))
        }

        fn admission_complete(&mut self, _now: SimTime, _entry: u64) {
            self.admissions.set(self.admissions.get() + 1);
        }

        fn flush_batch(&mut self, _now: SimTime, _max: u64) -> Vec<crate::policy::FlushOp> {
            self.dirty.drain(..).map(|(_, op)| op).collect()
        }

        fn flush_complete(&mut self, _now: SimTime, _id: u64) {
            self.flushed += 1;
        }

        fn report_t(&self) -> f64 {
            0.0
        }
        fn receive_broadcast(&mut self, _t: &[f64]) {}
        fn dirty_bytes(&self) -> u64 {
            self.dirty.len() as u64
        }
        fn stats(&self) -> crate::policy::CacheStats {
            crate::policy::CacheStats::default()
        }
    }

    fn cache_server() -> DataServer {
        let cfg = ServerConfig {
            with_cache_dev: true,
            ..Default::default()
        };
        DataServer::new(0, cfg, Box::new(Scripted::default()))
    }

    #[test]
    fn redirected_write_uses_the_cache_device() {
        let mut s = cache_server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 4096));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        assert_eq!(s.cache().unwrap().stats().bytes_written, 4096);
        assert_eq!(s.primary().stats().bytes_written, 0, "disk untouched");
    }

    #[test]
    fn read_admission_copies_into_the_cache_after_disk_read() {
        let mut s = cache_server();
        s.preallocate(FileHandle(1), 1 << 20);
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Read, 0, 8192));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        assert_eq!(s.primary().stats().bytes_read, 8192);
        // The admission write landed on the SSD afterwards.
        assert_eq!(s.cache().unwrap().stats().bytes_written, 8192);
    }

    #[test]
    fn forced_writeback_runs_the_two_phase_flush() {
        let mut s = cache_server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 0, 4096));
        pump(&mut s, out);
        assert!(!s.quiescent(), "dirty data pending");
        let out = tick(&mut s, SimTime::from_secs(1), true);
        pump(&mut s, out);
        // SSD read + disk write both happened.
        assert_eq!(s.cache().unwrap().stats().bytes_read, 4096);
        assert_eq!(s.primary().stats().bytes_written, 4096);
        assert!(s.quiescent());
    }

    #[test]
    fn unforced_writeback_waits_for_a_quiet_disk() {
        let mut s = cache_server();
        s.preallocate(FileHandle(1), 1 << 20);
        // Busy the disk with a read, leave a dirty entry in the cache.
        let mut out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 65536, 4096));
        s.exec_subreq(SimTime::ZERO, 2, 11, sub(IoDir::Read, 0, 65536), &mut out);
        // Tick immediately: the primary device is busy → no flush issued.
        let t0 = tick(&mut s, SimTime::ZERO, false);
        assert!(t0.dev_actions.is_empty(), "must not flush under load");
        pump(&mut s, out);
        // Now the disk is quiet: the tick flushes.
        let t1 = tick(&mut s, SimTime::from_secs(2), false);
        assert!(!t1.dev_actions.is_empty());
        pump(&mut s, t1);
        assert!(s.quiescent());
    }

    #[test]
    fn sub_block_write_is_sector_granular() {
        let mut s = server();
        let out = exec(&mut s, SimTime::ZERO, 1, 10, sub(IoDir::Write, 100, 700));
        let done = pump(&mut s, out);
        assert_eq!(done, vec![1]);
        // 700 bytes from offset 100 → sectors 0..2 (two sectors).
        assert_eq!(s.primary().stats().bytes_written, 1024);
    }
}
