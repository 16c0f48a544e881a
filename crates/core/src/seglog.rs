//! Segmented backup log of the SSD mapping table.
//!
//! PR 4 gave the on-SSD mapping-table backup a verifiable record format
//! but kept the media model implicit: one record per live entry,
//! reclaimed only by whole-log wraparound, and replayed in full on
//! every restart. This module materialises the backup as an LSM-style
//! **segmented log**:
//!
//! * Records append into fixed-size **segments** (`segment_bytes` of
//!   encoded record bytes each). A full segment is sealed and a fresh
//!   one opened; sealed segments are immutable.
//! * Superseding a record (clean update after writeback, tombstone on
//!   eviction, compaction rewrite) marks the old copy dead;
//!   **per-segment live-bytes accounting** tracks how much of each
//!   sealed segment is garbage.
//! * **Compaction/GC** picks the mostly-garbage sealed segment,
//!   rewrites its live records (fresh sequence numbers) into the open
//!   segment and *condemns* the old one. Condemned segments stay on
//!   media until a later maintenance barrier **reclaims** them — the
//!   two-phase reclaim means a crash mid-compaction still finds either
//!   the old intact copies or the rewritten ones, never neither.
//! * A periodic **indexed checkpoint** serialises the dirty entries of
//!   the mapping table plus `covers_seq`, the newest sequence number it
//!   reflects. Clean entries are left out: a restart drops them, since
//!   their home-disk copies are authoritative. Writing a checkpoint
//!   condemns every retained segment: restart recovery then replays the
//!   checkpoint image and only the *tail* of records newer than
//!   `covers_seq` — O(dirty appends since the last checkpoint), not
//!   O(log) — and the checkpoint write itself is O(dirty entries).
//!
//! The log stores decoded [`LogRecord`]s (heap-free for the one- or
//! two-extent records the circular data log produces) and accounts
//! space by encoded length; records are sealed to their checksummed
//! byte images only when a snapshot is taken (restart, fault
//! injection), exactly like PR 4. Scheduled bit-rot therefore stays
//! "planned" until a snapshot applies it — the scrubber walks cold
//! segments and cancels planned damage it finds first (a repair).

use crate::record::LogRecord;

/// One fixed-size run of backup records. Every append takes the next
/// sequence number into the open segment, so a segment holds contiguous
/// seqs and the record carrying `seq` sits at index `seq - first_seq`.
/// Sealed segments are immutable.
#[derive(Debug, Clone)]
pub struct Segment {
    records: Vec<LogRecord>,
    /// Parallel to `records`: true once the record was superseded.
    dead: Vec<bool>,
    /// Encoded bytes appended into this segment (live + dead).
    bytes: u64,
    /// Encoded bytes of the live (not superseded) records.
    live_bytes: u64,
    sealed: bool,
}

/// Encoded on-media size of a record.
fn record_bytes(rec: &LogRecord) -> u64 {
    LogRecord::encoded_len(rec.extents.len()) as u64
}

impl Segment {
    fn with_capacity(records: usize) -> Self {
        Segment {
            records: Vec::with_capacity(records),
            dead: Vec::with_capacity(records),
            bytes: 0,
            live_bytes: 0,
            sealed: false,
        }
    }

    /// Smallest sequence number in the segment.
    pub fn first_seq(&self) -> Option<u64> {
        self.records.first().map(|r| r.seq)
    }

    /// Largest sequence number in the segment.
    pub fn last_seq(&self) -> Option<u64> {
        self.records.last().map(|r| r.seq)
    }

    /// Encoded bytes appended (live + dead).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Encoded bytes of live records.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Garbage (superseded) bytes.
    pub fn garbage_bytes(&self) -> u64 {
        self.bytes - self.live_bytes
    }

    /// Sealed (immutable) yet?
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// All records, live and dead — dead records are still on media
    /// until the segment is reclaimed.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// The live (not superseded) records.
    pub fn live_records(&self) -> impl Iterator<Item = &LogRecord> {
        self.records
            .iter()
            .zip(&self.dead)
            .filter(|(_, &d)| !d)
            .map(|(r, _)| r)
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    fn push(&mut self, rec: LogRecord) {
        debug_assert!(!self.sealed, "appending to a sealed segment");
        debug_assert!(
            self.records.last().is_none_or(|l| l.seq + 1 == rec.seq),
            "segment appends must carry contiguous seqs"
        );
        let len = record_bytes(&rec);
        self.bytes += len;
        self.live_bytes += len;
        self.records.push(rec);
        self.dead.push(false);
    }

    /// Index of the record carrying `seq`, if the segment holds it.
    fn index_of(&self, seq: u64) -> Option<usize> {
        let i = seq.checked_sub(self.first_seq()?)? as usize;
        (i < self.records.len()).then_some(i)
    }

    /// Marks the record carrying `seq` dead. Returns false when the
    /// segment does not hold it (or it is already dead).
    fn kill(&mut self, seq: u64) -> bool {
        let Some(i) = self.index_of(seq) else {
            return false;
        };
        if self.dead[i] {
            return false;
        }
        self.dead[i] = true;
        self.live_bytes -= record_bytes(&self.records[i]);
        true
    }
}

/// The periodic indexed checkpoint: a serialized image of the dirty
/// mapping-table entries, plus the newest sequence number the image
/// reflects. At most one checkpoint is retained — writing a new one
/// replaces it.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Every record with `seq <= covers_seq` is reflected in (or
    /// deliberately absent from) this image; recovery skips such
    /// records and replays only the newer tail.
    pub covers_seq: u64,
    /// The image: one record per dirty entry, ascending `seq`.
    pub records: Vec<LogRecord>,
}

/// What one reclaim barrier freed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Condemned segments reclaimed.
    pub segments: u64,
    /// Records (live + dead) their media held.
    pub records: u64,
}

/// The segmented backup log. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct SegmentedLog {
    segment_bytes: u64,
    /// Retained segments, ascending disjoint seq ranges. All sealed
    /// except possibly the last (the open segment).
    segments: Vec<Segment>,
    /// Condemned by compaction or a checkpoint; still on media until
    /// the next maintenance barrier reclaims them.
    condemned: Vec<Segment>,
    checkpoint: Option<Checkpoint>,
    appends_since_checkpoint: u64,
    /// Monotone scrub position (round-robin over sealed segments).
    scrub_cursor: u64,
}

impl SegmentedLog {
    /// Creates an empty log of `segment_bytes`-sized segments.
    pub fn new(segment_bytes: u64) -> Self {
        SegmentedLog {
            segment_bytes: segment_bytes.max(LogRecord::encoded_len(2) as u64),
            segments: Vec::new(),
            condemned: Vec::new(),
            checkpoint: None,
            appends_since_checkpoint: 0,
            scrub_cursor: 0,
        }
    }

    fn capacity_records(&self) -> usize {
        // Tombstones (64 B) are the smallest records; preallocating for
        // them keeps appends allocation-free within a segment.
        (self.segment_bytes as usize / LogRecord::encoded_len(0)).max(1)
    }

    /// Appends a record (its `seq` must be one past the previous
    /// append's).
    /// Returns true when the append sealed the previously open segment.
    pub fn append(&mut self, rec: LogRecord) -> bool {
        self.appends_since_checkpoint += 1;
        let len = record_bytes(&rec);
        let mut sealed = false;
        let need_new = match self.segments.last() {
            Some(open) if !open.sealed => open.bytes + len > self.segment_bytes,
            _ => true,
        };
        if need_new {
            if let Some(open) = self.segments.last_mut() {
                if !open.sealed {
                    open.sealed = true;
                    sealed = true;
                }
            }
            let cap = self.capacity_records();
            self.segments.push(Segment::with_capacity(cap));
        }
        self.segments.last_mut().expect("open segment").push(rec);
        sealed
    }

    /// Marks the retained record carrying `seq` dead (superseded).
    /// Tolerates sequence numbers not on retained media — the record
    /// may live in the checkpoint image or a condemned segment, both of
    /// which are replaced wholesale rather than patched.
    pub fn kill(&mut self, seq: u64) -> bool {
        // Segments hold ascending disjoint ranges: the owner is the
        // last segment starting at or before `seq`.
        let i = self
            .segments
            .partition_point(|s| s.first_seq().is_some_and(|f| f <= seq) || s.records.is_empty());
        if i == 0 {
            return false;
        }
        self.segments[i - 1].kill(seq)
    }

    /// Is `seq` a live (not superseded) record on the retained tail?
    pub fn is_live(&self, seq: u64) -> bool {
        let i = self
            .segments
            .partition_point(|s| s.first_seq().is_some_and(|f| f <= seq) || s.records.is_empty());
        if i == 0 {
            return false;
        }
        let s = &self.segments[i - 1];
        s.index_of(seq).is_some_and(|j| !s.dead[j])
    }

    /// Installs a checkpoint image covering everything up to
    /// `covers_seq`, condemning every retained segment — the tail
    /// restarts empty and recovery replays only records newer than
    /// `covers_seq`.
    pub fn install_checkpoint(&mut self, records: Vec<LogRecord>, covers_seq: u64) {
        debug_assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        debug_assert!(records.last().is_none_or(|r| r.seq <= covers_seq));
        self.condemned.append(&mut self.segments);
        self.checkpoint = Some(Checkpoint {
            covers_seq,
            records,
        });
        self.appends_since_checkpoint = 0;
    }

    /// The maintenance barrier: reclaims every segment condemned by an
    /// *earlier* barrier's compaction or checkpoint. Two-phase on
    /// purpose — a crash after condemnation but before this barrier
    /// still finds the condemned records on media.
    pub fn reclaim(&mut self) -> ReclaimStats {
        let mut st = ReclaimStats::default();
        for seg in self.condemned.drain(..) {
            st.segments += 1;
            st.records += seg.records.len() as u64;
        }
        st
    }

    /// The sealed retained segment most worth compacting: over half
    /// garbage, maximal garbage bytes (ties to the oldest). `None` when
    /// nothing qualifies.
    pub fn compaction_candidate(&self) -> Option<usize> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sealed && s.live_bytes * 2 < s.bytes)
            .max_by_key(|(i, s)| (s.garbage_bytes(), usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// Condemns segment `idx`, returning clones of its live records for
    /// the caller to rewrite (fresh seqs) into the open segment.
    pub fn condemn(&mut self, idx: usize) -> Vec<LogRecord> {
        let seg = self.segments.remove(idx);
        let live: Vec<LogRecord> = seg.live_records().cloned().collect();
        self.condemned.push(seg);
        live
    }

    /// The next cold (sealed, retained) segment on the scrub walk, or
    /// `None` when there is nothing sealed to scrub.
    pub fn scrub_next(&mut self) -> Option<usize> {
        let sealed: u64 = self.segments.iter().filter(|s| s.sealed).count() as u64;
        if sealed == 0 {
            return None;
        }
        let nth = (self.scrub_cursor % sealed) as usize;
        self.scrub_cursor += 1;
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sealed)
            .nth(nth)
            .map(|(i, _)| i)
    }

    /// Segment accessor (scrub walks and tests).
    pub fn segment(&self, idx: usize) -> &Segment {
        &self.segments[idx]
    }

    /// Retained segment count.
    pub fn retained_segments(&self) -> usize {
        self.segments.len()
    }

    /// Condemned-but-not-yet-reclaimed segment count.
    pub fn condemned_segments(&self) -> usize {
        self.condemned.len()
    }

    /// Live records across retained segments.
    pub fn live_records(&self) -> u64 {
        self.segments.iter().map(|s| s.live_count() as u64).sum()
    }

    /// Live bytes across retained segments.
    pub fn live_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.live_bytes).sum()
    }

    /// Records appended since the last checkpoint (drives the cadence).
    pub fn appends_since_checkpoint(&self) -> u64 {
        self.appends_since_checkpoint
    }

    /// The retained checkpoint, if any.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Newest sequence number the checkpoint covers.
    pub fn covers_seq(&self) -> Option<u64> {
        self.checkpoint.as_ref().map(|c| c.covers_seq)
    }

    /// Every record still on media outside the checkpoint — retained
    /// and condemned, live and dead — sorted by seq (stable). This is
    /// the tail a restart's recovery fsck scans.
    pub fn media_records(&self) -> Vec<LogRecord> {
        let mut out: Vec<LogRecord> = self
            .condemned
            .iter()
            .chain(&self.segments)
            .flat_map(|s| s.records.iter().cloned())
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Structural invariants: parallel dead bitmap, byte accounting,
    /// contiguous seqs within each segment, strictly ascending disjoint
    /// seq ranges across segments, only the last retained segment open,
    /// retained media strictly newer than the checkpoint.
    pub fn audit(&self) -> Result<(), String> {
        let mut prev_last: Option<u64> = None;
        for (i, s) in self.segments.iter().enumerate() {
            if s.dead.len() != s.records.len() {
                return Err(format!("segment {i}: dead bitmap out of sync"));
            }
            let bytes: u64 = s.records.iter().map(record_bytes).sum();
            if bytes != s.bytes {
                return Err(format!("segment {i}: bytes {} != {bytes}", s.bytes));
            }
            let live: u64 = s.live_records().map(record_bytes).sum();
            if live != s.live_bytes {
                return Err(format!(
                    "segment {i}: live_bytes {} != {live}",
                    s.live_bytes
                ));
            }
            if s.live_bytes > s.bytes {
                return Err(format!("segment {i}: live exceeds total"));
            }
            if !s.records.windows(2).all(|w| w[0].seq + 1 == w[1].seq) {
                return Err(format!("segment {i}: seqs not contiguous"));
            }
            if let (Some(prev), Some(first)) = (prev_last, s.first_seq()) {
                if first <= prev {
                    return Err(format!("segment {i}: range overlaps predecessor"));
                }
            }
            if let Some(last) = s.last_seq() {
                prev_last = Some(last);
            }
            if s.sealed && i + 1 == self.segments.len() && s.bytes == 0 {
                return Err(format!("segment {i}: sealed while empty"));
            }
            if !s.sealed && i + 1 != self.segments.len() {
                return Err(format!("segment {i}: open segment is not the last"));
            }
        }
        if let Some(cp) = &self.checkpoint {
            if !cp.records.windows(2).all(|w| w[0].seq < w[1].seq) {
                return Err("checkpoint: seqs not ascending".into());
            }
            if cp.records.last().is_some_and(|r| r.seq > cp.covers_seq) {
                return Err("checkpoint: record newer than covers_seq".into());
            }
            for s in &self.segments {
                if s.first_seq().is_some_and(|f| f <= cp.covers_seq) {
                    return Err("retained segment not newer than the checkpoint".into());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::EntryType;
    use ibridge_localfs::{Extent, ExtentList, FileHandle};

    fn rec(seq: u64) -> LogRecord {
        LogRecord {
            seq,
            entry: seq,
            file: FileHandle(1),
            offset: seq << 20,
            len: 1024,
            typ: EntryType::Fragment,
            ret: 0.001,
            dirty: true,
            tombstone: false,
            extents: ExtentList::one(Extent {
                lbn: seq * 4,
                sectors: 2,
            }),
        }
    }

    fn log_with(n: u64, segment_bytes: u64) -> SegmentedLog {
        let mut l = SegmentedLog::new(segment_bytes);
        for s in 0..n {
            l.append(rec(s));
        }
        l
    }

    #[test]
    fn appends_seal_full_segments() {
        // 80-byte records, 256-byte segments: 3 per segment.
        let l = log_with(10, 256);
        assert_eq!(l.retained_segments(), 4);
        assert_eq!(l.live_records(), 10);
        for i in 0..3 {
            assert!(l.segment(i).sealed());
        }
        assert!(!l.segment(3).sealed());
        l.audit().unwrap();
    }

    #[test]
    fn kill_tracks_live_bytes_per_segment() {
        let mut l = log_with(6, 256);
        assert!(l.kill(1));
        assert!(!l.kill(1), "double kill is a no-op");
        assert!(l.kill(2));
        assert!(!l.kill(99), "unknown seq tolerated");
        let s0 = l.segment(0);
        assert_eq!(s0.live_count(), 1);
        assert_eq!(s0.live_bytes(), 80);
        assert_eq!(s0.garbage_bytes(), 160);
        assert_eq!(l.live_records(), 4);
        l.audit().unwrap();
    }

    #[test]
    fn compaction_picks_the_most_garbage_sealed_segment() {
        let mut l = log_with(9, 256);
        assert_eq!(l.compaction_candidate(), None, "nothing over half garbage");
        l.kill(4); // segment 1 : 1/3 garbage — not enough
        assert_eq!(l.compaction_candidate(), None);
        l.kill(5); // segment 1 : 2/3 garbage
        assert_eq!(l.compaction_candidate(), Some(1));
        l.kill(0);
        l.kill(1);
        l.kill(2); // segment 0 now fully garbage: more than segment 1
        assert_eq!(l.compaction_candidate(), Some(0));
        let live = l.condemn(0);
        assert!(live.is_empty());
        assert_eq!(l.condemned_segments(), 1);
        // Two-phase: the barrier reclaims what an earlier pass condemned.
        let st = l.reclaim();
        assert_eq!(st.segments, 1);
        assert_eq!(st.records, 3);
        assert_eq!(l.condemned_segments(), 0);
        l.audit().unwrap();
    }

    #[test]
    fn condemn_returns_live_records_for_rewrite() {
        let mut l = log_with(6, 256);
        l.kill(0);
        l.kill(2);
        let live = l.condemn(0);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].seq, 1);
        // Condemned media still counted in media_records until reclaim.
        assert_eq!(l.media_records().len(), 6);
        l.reclaim();
        assert_eq!(l.media_records().len(), 3);
        l.audit().unwrap();
    }

    #[test]
    fn checkpoint_condemns_all_retained_segments() {
        let mut l = log_with(7, 256);
        let image: Vec<LogRecord> = (0..7).map(rec).collect();
        l.install_checkpoint(image, 6);
        assert_eq!(l.retained_segments(), 0);
        assert_eq!(l.condemned_segments(), 3);
        assert_eq!(l.covers_seq(), Some(6));
        assert_eq!(l.appends_since_checkpoint(), 0);
        // The tail restarts with post-checkpoint appends only.
        l.append(rec(7));
        assert_eq!(l.retained_segments(), 1);
        l.audit().unwrap();
        l.reclaim();
        assert_eq!(l.media_records().len(), 1);
        assert_eq!(l.checkpoint().unwrap().records.len(), 7);
    }

    #[test]
    fn scrub_walks_sealed_segments_round_robin() {
        let mut l = log_with(10, 256); // 3 sealed + 1 open
        let walk: Vec<usize> = (0..6).filter_map(|_| l.scrub_next()).collect();
        assert_eq!(walk, vec![0, 1, 2, 0, 1, 2], "open segment never scrubbed");
        let mut empty = SegmentedLog::new(256);
        assert_eq!(empty.scrub_next(), None);
    }

    #[test]
    fn kill_and_liveness_index_each_segment_by_seq() {
        let mut l = log_with(9, 256); // segments hold 0-2, 3-5, 6-8
        l.condemn(1);
        assert!(l.is_live(6) && l.is_live(8));
        assert!(!l.is_live(4), "condemned media is not the retained tail");
        assert!(!l.is_live(9), "past the last append");
        assert!(l.kill(7));
        assert!(!l.is_live(7) && l.is_live(8));
        assert!(!l.kill(4) && !l.kill(9));
        assert_eq!(l.segment(1).live_count(), 2);
        l.audit().unwrap();
    }

    #[test]
    fn media_records_sorted_by_seq_across_condemned_and_retained() {
        let mut l = log_with(9, 256);
        l.kill(3);
        l.kill(5);
        l.condemn(1);
        let seqs: Vec<u64> = l.media_records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..9).collect::<Vec<u64>>());
    }
}
