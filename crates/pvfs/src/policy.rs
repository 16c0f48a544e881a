//! Server-side cache policy interface.
//!
//! A data server consults its [`CachePolicy`] for every arriving
//! sub-request. The stock system uses [`StockPolicy`] (everything to the
//! disk); the iBridge scheme (crate `ibridge-core`) implements the full
//! return-value model, SSD log, dynamic partitioning and writeback
//! through this same interface.

use crate::proto::SubRequest;
use ibridge_des::SimTime;
use ibridge_device::Lbn;
use ibridge_localfs::{ExtentList, FileHandle};

/// Identifier of a cache entry, assigned by the policy.
pub type EntryId = u64;

/// Identifier of an in-flight flush (writeback) operation.
pub type FlushId = u64;

/// Where a sub-request's bytes are served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Serve at the primary device. If `admit_after_read` is set (reads
    /// only), the server copies the data into the SSD cache after the
    /// disk read completes — the paper's pre-loading path.
    Disk {
        /// Cache the data once the read finishes.
        admit_after_read: bool,
    },
    /// Serve at the SSD cache: a read hit, or a redirected write that the
    /// policy has already logged in its mapping table. The extents are
    /// positions in the SSD log.
    Ssd {
        /// SSD log extents covering the sub-request, in order.
        extents: ExtentList,
    },
}

/// One dirty entry to flush from the SSD log back to the disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushOp {
    /// Policy-assigned id, echoed back via `flush_complete`.
    pub id: FlushId,
    /// Home file of the data.
    pub file: FileHandle,
    /// Home offset within the local datafile.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Where the data sits in the SSD log.
    pub ssd_extents: ExtentList,
}

/// Aggregate counters exposed by a policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Bytes served from the SSD (hits + redirected writes).
    pub bytes_ssd: u64,
    /// Bytes served from the primary device.
    pub bytes_disk: u64,
    /// Read sub-requests that hit the cache.
    pub read_hits: u64,
    /// Read sub-requests that missed.
    pub read_misses: u64,
    /// Writes redirected into the SSD log.
    pub redirected_writes: u64,
    /// Post-read admissions started.
    pub admissions: u64,
    /// Entries evicted (LRU or log overwrite).
    pub evictions: u64,
    /// Admissions/redirections abandoned for lack of clean log space.
    pub admission_failures: u64,
    /// Bytes appended to the SSD log over the run (the paper's
    /// "SSD usage" metric in Fig. 13, which tracks wear).
    pub appended_bytes: u64,
    /// Current dirty bytes awaiting writeback.
    pub dirty_bytes: u64,
    /// Current cached bytes classified as fragments.
    pub cached_fragment_bytes: u64,
    /// Current cached bytes classified as regular random requests.
    pub cached_random_bytes: u64,
    /// Read hits served by entries of the fragment partition.
    pub fragment_read_hits: u64,
    /// Read hits served by entries of the random partition.
    pub random_read_hits: u64,
    /// Read misses of sub-requests classified as fragments.
    pub fragment_read_misses: u64,
    /// Read misses of sub-requests classified as regular random.
    pub random_read_misses: u64,
    /// Post-read admissions into the fragment partition.
    pub fragment_admissions: u64,
    /// Post-read admissions into the random partition.
    pub random_admissions: u64,
}

impl CacheStats {
    /// Read hit rate of one partition (`fragment = true` for the
    /// fragment class), as a fraction of that class's classified reads.
    /// Returns `None` when the class saw no reads — the Fig. 12
    /// partition ablation reports per-class hit rates from these.
    pub fn class_hit_rate(&self, fragment: bool) -> Option<f64> {
        let (hits, misses) = if fragment {
            (self.fragment_read_hits, self.fragment_read_misses)
        } else {
            (self.random_read_hits, self.random_read_misses)
        };
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }
}

/// Counters of the background log-maintenance machinery: segmented-log
/// compaction/GC, periodic indexed checkpoints and the cold-segment
/// scrubber. All zero for policies without a persistent backup log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintStats {
    /// Maintenance ticks delivered (one per writeback-daemon tick).
    pub ticks: u64,
    /// Ticks skipped because the cache device was busy — maintenance
    /// never competes with foreground I/O.
    pub busy_skips: u64,
    /// Backup records appended by the foreground path (redirected
    /// writes, admissions, clean updates, tombstones).
    pub records_appended: u64,
    /// Tombstone records appended when live entries were retired.
    pub tombstones: u64,
    /// Entries whose backup record was superseded in place (clean
    /// update after a flush).
    pub supersedes: u64,
    /// Bytes of foreground backup records appended.
    pub backup_bytes: u64,
    /// Segments sealed (filled to the segment size).
    pub segments_sealed: u64,
    /// Segments condemned by the compactor.
    pub segments_compacted: u64,
    /// Condemned segments reclaimed at a later maintenance barrier.
    pub segments_reclaimed: u64,
    /// Live records rewritten into fresh segments by compaction.
    pub records_rewritten: u64,
    /// Bytes of rewritten records — the write-amplification numerator.
    pub rewrite_bytes: u64,
    /// Indexed checkpoints written.
    pub checkpoints: u64,
    /// Mapping-table records serialized into checkpoints.
    pub checkpoint_records: u64,
    /// Bytes of checkpoint images written.
    pub checkpoint_bytes: u64,
    /// Cold segments walked by the scrubber.
    pub scrub_segments: u64,
    /// Records CRC-verified by the scrubber.
    pub scrub_records: u64,
    /// Latent bit-rot hits the scrubber detected and repaired before
    /// they could reach a restart's recovery fsck.
    pub scrub_repairs: u64,
    /// Current retained (non-condemned) segments (gauge).
    pub live_segments: u64,
    /// Current live (non-superseded) backup records (gauge).
    pub live_records: u64,
    /// Current live backup bytes (gauge).
    pub live_backup_bytes: u64,
}

impl MaintStats {
    /// Accumulates another snapshot (gauges sum across servers).
    pub fn absorb(&mut self, o: &MaintStats) {
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
        self.live_segments += o.live_segments;
        self.live_records += o.live_records;
        self.live_backup_bytes += o.live_backup_bytes;
    }

    /// True when every counter is zero (nothing to report).
    pub fn is_zero(&self) -> bool {
        *self == MaintStats::default()
    }

    /// Field-wise `self - earlier`: the activity between two snapshots
    /// of the monotone process-wide totals.
    pub fn since(&self, earlier: &MaintStats) -> MaintStats {
        MaintStats {
            ticks: self.ticks - earlier.ticks,
            busy_skips: self.busy_skips - earlier.busy_skips,
            records_appended: self.records_appended - earlier.records_appended,
            tombstones: self.tombstones - earlier.tombstones,
            supersedes: self.supersedes - earlier.supersedes,
            backup_bytes: self.backup_bytes - earlier.backup_bytes,
            segments_sealed: self.segments_sealed - earlier.segments_sealed,
            segments_compacted: self.segments_compacted - earlier.segments_compacted,
            segments_reclaimed: self.segments_reclaimed - earlier.segments_reclaimed,
            records_rewritten: self.records_rewritten - earlier.records_rewritten,
            rewrite_bytes: self.rewrite_bytes - earlier.rewrite_bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_records: self.checkpoint_records - earlier.checkpoint_records,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
            scrub_segments: self.scrub_segments - earlier.scrub_segments,
            scrub_records: self.scrub_records - earlier.scrub_records,
            scrub_repairs: self.scrub_repairs - earlier.scrub_repairs,
            live_segments: self.live_segments - earlier.live_segments,
            live_records: self.live_records - earlier.live_records,
            live_backup_bytes: self.live_backup_bytes - earlier.live_backup_bytes,
        }
    }
}

/// Outcome of recovering the on-SSD mapping-table backup after a server
/// process restart: the recovery fsck scans every backup record,
/// verifies checksums and sequence continuity, quarantines what fails,
/// keeps intact dirty entries (their bytes are durable in the SSD log),
/// and conservatively invalidates clean and pending entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Dirty entries replayed into the fresh mapping table.
    pub dirty_entries_kept: u64,
    /// Dirty bytes preserved across the restart.
    pub dirty_bytes_kept: u64,
    /// Clean entries dropped during replay.
    pub clean_entries_dropped: u64,
    /// Pending (not yet durable) entries discarded.
    pub pending_entries_dropped: u64,
    /// Backup records scanned by the recovery fsck.
    pub records_scanned: u64,
    /// Records quarantined (torn, checksum-failed, or sequence-broken);
    /// their entries are invalidated rather than replayed.
    pub records_quarantined: u64,
    /// Dirty bytes lost to quarantined records — the durability cost of
    /// the corruption, analogous to `ssd_lost`'s return value.
    pub dirty_bytes_lost: u64,
}

/// Planned corruption of the on-SSD cache log, injected at the device
/// layer by a fault plan. Silent until the next restart's recovery
/// fsck scans the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogCorruption {
    /// A crash tears the most recent `records` backup records mid-write
    /// (they are truncated on media).
    TornWrite {
        /// How many of the newest records are torn.
        records: u32,
    },
    /// Seeded silent bit corruption of resident log sectors; each hit
    /// flips one bit in a resident record.
    BitRot {
        /// Number of corrupting hits.
        sectors: u32,
        /// Seed for the deterministic placement of the hits.
        seed: u64,
        /// Which region of the backup media the hits land in.
        target: BitRotTarget,
    },
}

/// Which region of the segmented backup media bit-rot strikes. The
/// circular log of PR 4 had a single region; the segmented log splits
/// the media into tail segments and the indexed checkpoint, and fault
/// plans can aim at either.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BitRotTarget {
    /// Any resident backup record (tail segments and checkpoint alike).
    #[default]
    Any,
    /// Tail-segment records only (seq newer than the checkpoint covers).
    Tail,
    /// Checkpoint-image records only.
    Checkpoint,
}

/// Decision-making interface of the server-side cache.
///
/// `Send` because each server — and therefore its policy — lives on a
/// logical process that may execute on any worker thread of the
/// parallel-DES pool.
pub trait CachePolicy: std::fmt::Debug + Send {
    /// Routes an arriving sub-request. `disk_lbn` is the first device
    /// sector the request would touch on the primary device — the λ of
    /// the paper's Eq. (1). The policy updates its disk-efficiency model
    /// (Eq. 1 for disk placements, Eq. 2 for SSD placements) here.
    fn place(&mut self, now: SimTime, sub: &SubRequest, disk_lbn: Lbn) -> Placement;

    /// Called when a disk read for which `place` requested admission has
    /// completed. Returns log extents to write (and the entry id), or
    /// `None` if the policy changed its mind (e.g. no clean log space).
    fn read_admission(&mut self, now: SimTime, sub: &SubRequest) -> Option<(EntryId, ExtentList)>;

    /// The admission write finished; the entry becomes servable.
    fn admission_complete(&mut self, now: SimTime, entry: EntryId);

    /// Returns up to `max_bytes` of dirty entries to write back,
    /// scheduled "to form as many long sequential accesses as possible".
    fn flush_batch(&mut self, now: SimTime, max_bytes: u64) -> Vec<FlushOp>;

    /// A flush finished: its entry is now clean.
    fn flush_complete(&mut self, now: SimTime, id: FlushId);

    /// Current T value (average disk service time, seconds) for the
    /// periodic report to the metadata server.
    fn report_t(&self) -> f64;

    /// Receives the metadata server's broadcast of all servers' T
    /// values, indexed by server id.
    fn receive_broadcast(&mut self, t_values: &[f64]);

    /// Dirty bytes still awaiting writeback (drives the end-of-run drain).
    fn dirty_bytes(&self) -> u64;

    /// Counter snapshot.
    fn stats(&self) -> CacheStats;

    /// Background log-maintenance tick, driven at the writeback daemon's
    /// cadence so maintenance rides the same idle windows as writeback.
    /// `idle` reports whether the cache device has spare capacity right
    /// now; compaction, checkpointing and scrubbing must run only when
    /// it does. Policies without a persistent log ignore this.
    fn log_maintenance(&mut self, _now: SimTime, _idle: bool) {}

    /// Counter snapshot of the background log maintenance.
    fn maint_stats(&self) -> MaintStats {
        MaintStats::default()
    }

    /// The server process restarted with the SSD intact: replay the
    /// on-SSD backup of the mapping table. Dirty entries survive, clean
    /// and pending entries are invalidated. Cumulative counters carry
    /// over (same run). Policies without persistent state need not
    /// override this.
    fn server_restart(&mut self, _now: SimTime) -> RestartReport {
        RestartReport::default()
    }

    /// The SSD cache device died: the log and the mapping table are
    /// gone. Returns the dirty bytes that were lost (the durability
    /// cost); the policy must degrade to the primary-device-only path
    /// from here on.
    fn ssd_lost(&mut self, _now: SimTime) -> u64 {
        0
    }

    /// True once `ssd_lost` has degraded this policy to the
    /// primary-device-only path (the MDS then stops broadcasting this
    /// server's T value).
    fn is_degraded(&self) -> bool {
        false
    }

    /// Schedules corruption of the policy's on-SSD backup log. The
    /// damage is silent — it surfaces only when the next restart's
    /// recovery fsck scans the log. Returns the number of backup
    /// records affected. Policies without persistent state have nothing
    /// to corrupt.
    fn inject_corruption(&mut self, _now: SimTime, _corruption: LogCorruption) -> u64 {
        0
    }

    /// Cross-checks the policy's internal invariants (accounting,
    /// indexes, log residency). Returns a diagnostic describing the
    /// first violation found. Called by the online invariant auditor;
    /// must not mutate any state.
    fn audit(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The stock system: no SSD cache, everything served at the disk.
#[derive(Debug, Default)]
pub struct StockPolicy {
    stats: CacheStats,
}

impl StockPolicy {
    /// Creates the stock policy.
    pub fn new() -> Self {
        StockPolicy::default()
    }
}

impl CachePolicy for StockPolicy {
    fn place(&mut self, _now: SimTime, sub: &SubRequest, _disk_lbn: Lbn) -> Placement {
        self.stats.bytes_disk += sub.len;
        Placement::Disk {
            admit_after_read: false,
        }
    }

    fn read_admission(
        &mut self,
        _now: SimTime,
        _sub: &SubRequest,
    ) -> Option<(EntryId, ExtentList)> {
        None
    }

    fn admission_complete(&mut self, _now: SimTime, _entry: EntryId) {}

    fn flush_batch(&mut self, _now: SimTime, _max_bytes: u64) -> Vec<FlushOp> {
        Vec::new()
    }

    fn flush_complete(&mut self, _now: SimTime, _id: FlushId) {}

    fn report_t(&self) -> f64 {
        0.0
    }

    fn receive_broadcast(&mut self, _t_values: &[f64]) {}

    fn dirty_bytes(&self) -> u64 {
        0
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ReqClass;
    use ibridge_device::IoDir;

    #[test]
    fn stock_policy_always_picks_disk() {
        let mut p = StockPolicy::new();
        let sub = SubRequest {
            dir: IoDir::Read,
            file: FileHandle(1),
            server: 0,
            offset: 0,
            len: 1024,
            class: ReqClass::Fragment {
                siblings: crate::proto::SiblingList::one(1),
            },
        };
        let placement = p.place(SimTime::ZERO, &sub, 0);
        assert_eq!(
            placement,
            Placement::Disk {
                admit_after_read: false
            }
        );
        assert_eq!(p.stats().bytes_disk, 1024);
        assert_eq!(p.dirty_bytes(), 0);
        assert!(p.flush_batch(SimTime::ZERO, u64::MAX).is_empty());
        assert!(p.read_admission(SimTime::ZERO, &sub).is_none());
    }
}
