//! The iBridge mapping table.
//!
//! "iBridge maintains a mapping table to record data and their statuses
//! (dirty or clean)." Each entry describes one cached range of a local
//! datafile: where it lives in the SSD log, which request class put it
//! there (fragment vs regular random — the two partitions of the SSD),
//! the return value recorded at admission (used for the dynamic
//! partitioning), dirtiness, and LRU position within its class.
//!
//! The table sits on every iBridge request, so its indexes are built
//! for O(1) hot-path work on small dense arrays:
//!
//! * **LRU order is a position.** Each class hands out positions in
//!   increasing order; a use moves the entry to the next position and
//!   leaves a dead slot behind. Two bitmaps over the positions mark the
//!   entries that could be evicted or flushed right now, so the LRU
//!   victim is the first set bit and a writeback batch walks set bits in
//!   order. Once dead slots outnumber live entries (plus a small fixed
//!   slack), the class renumbers its positions densely, keeping order.
//! * **Ranges carry their ends.** Per file, `by_range` maps each entry's
//!   offset to its end and id. Entries of a file are disjoint, so ends
//!   ascend with offsets and every overlap query is one tree descent
//!   walking backwards from the last entry starting before the range's
//!   end, without probing the entry map.

use crate::log::EntryId;
use ibridge_des::fxhash::FxHashMap;
use ibridge_localfs::{Extent, ExtentList, FileHandle};
use std::collections::BTreeMap;

/// Which SSD partition an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryType {
    /// A fragment of a larger striped request.
    Fragment,
    /// A regular random request.
    Random,
}

impl EntryType {
    fn idx(self) -> usize {
        match self {
            EntryType::Fragment => 0,
            EntryType::Random => 1,
        }
    }
}

/// One cached range.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Table-assigned id.
    pub id: EntryId,
    /// Home datafile.
    pub file: FileHandle,
    /// Home offset in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Data sectors in the SSD log (1 or 2 extents).
    pub extents: ExtentList,
    /// Partition.
    pub typ: EntryType,
    /// Return value recorded at admission.
    pub ret: f64,
    /// Holds data newer than the disk.
    pub dirty: bool,
    /// A writeback is in flight.
    pub flushing: bool,
    /// The admission write has not completed yet (not servable).
    pub pending: bool,
    /// Sequence number of the entry's log append, carried in its
    /// on-SSD backup record (recovery checks these for continuity).
    pub log_seq: u64,
    /// Position in its class's LRU order (see `ClassLru`). 32 bits
    /// keep `Entry` at 120 bytes: positions stay below twice the live
    /// entries plus a small slack, far under `u32::MAX`.
    lru_pos: u32,
}

impl Entry {
    fn pos(&self) -> usize {
        self.lru_pos as usize
    }

    /// Slices this entry's log extents to the byte sub-range
    /// `[from, from + len)` relative to the entry's own range.
    pub fn slice(&self, from: u64, len: u64) -> ExtentList {
        assert!(from + len <= self.len, "slice outside entry");
        let first_sector = from / ibridge_localfs::SECTOR_SIZE;
        let last_sector = (from + len).div_ceil(ibridge_localfs::SECTOR_SIZE);
        let mut want = last_sector - first_sector;
        let mut skip = first_sector;
        let mut out = ExtentList::new();
        for e in &self.extents {
            if skip >= e.sectors {
                skip -= e.sectors;
                continue;
            }
            let take = (e.sectors - skip).min(want);
            out.push(Extent {
                lbn: e.lbn + skip,
                sectors: take,
            });
            want -= take;
            skip = 0;
            if want == 0 {
                break;
            }
        }
        assert_eq!(want, 0, "entry extents shorter than its length");
        out
    }
}

/// Per-class aggregate view used by the partition controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassUsage {
    /// Cached bytes of this class.
    pub bytes: u64,
    /// Number of entries.
    pub entries: u64,
    /// Sum of admission-time return values.
    pub ret_sum: f64,
}

impl ClassUsage {
    /// Mean return value (0 when empty).
    pub fn avg_ret(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.ret_sum / self.entries as f64
        }
    }
}

/// Dead slots a class may carry beyond its live entry count before it
/// renumbers its LRU positions. Small on purpose: the slot array and
/// bitmaps are per server, so slack costs memory on every server.
const LRU_SLACK: usize = 64;

/// Marks a slot whose entry moved to a newer position or left.
const DEAD: EntryId = EntryId::MAX;

/// A set of LRU positions: one bit per position, plus the index of the
/// first non-zero word, so the smallest member is one load away.
#[derive(Debug, Default)]
struct PosSet {
    words: Vec<u64>,
    /// Every word before `first` is zero, and `words[first]` is not
    /// (or `first == words.len()` when the set is empty).
    first: usize,
    len: usize,
}

impl PosSet {
    fn contains(&self, pos: usize) -> bool {
        self.words
            .get(pos / 64)
            .is_some_and(|w| w & (1 << (pos % 64)) != 0)
    }

    fn insert(&mut self, pos: usize) {
        let w = pos / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        debug_assert!(!self.contains(pos), "position {pos} already set");
        self.words[w] |= 1 << (pos % 64);
        self.first = if self.len == 0 { w } else { self.first.min(w) };
        self.len += 1;
    }

    /// Clears `pos`, returning whether it was set.
    fn remove(&mut self, pos: usize) -> bool {
        if !self.contains(pos) {
            return false;
        }
        let w = pos / 64;
        self.words[w] &= !(1 << (pos % 64));
        self.len -= 1;
        if w == self.first {
            self.skip_zero_words();
        }
        true
    }

    fn skip_zero_words(&mut self) {
        while self.words.get(self.first).is_some_and(|&w| w == 0) {
            self.first += 1;
        }
    }

    /// The smallest member.
    fn first(&self) -> Option<usize> {
        let w = self.words.get(self.first)?;
        Some(self.first * 64 + w.trailing_zeros() as usize)
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .skip(self.first)
            .flat_map(|(i, &w)| {
                let mut bits = w;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        i * 64 + b
                    })
                })
            })
    }

    /// Moves the member at `from` (if any) to `to <= from`, where `to`
    /// is known to be clear. Renumbering only; `first` is stale until
    /// [`PosSet::truncate`] runs.
    fn relocate(&mut self, from: usize, to: usize) {
        if from != to && self.contains(from) {
            self.words[from / 64] &= !(1 << (from % 64));
            self.words[to / 64] |= 1 << (to % 64);
        }
    }

    /// Drops the words past position `positions` and restores `first`.
    fn truncate(&mut self, positions: usize) {
        self.words.truncate(positions.div_ceil(64));
        self.first = 0;
        self.skip_zero_words();
    }

    /// Checks the stored count and first-word hint against the bits.
    fn audit(&self, name: &str) -> Result<(), String> {
        let bits: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        if bits != self.len {
            return Err(format!("{name} holds {bits} bits but counts {}", self.len));
        }
        let first = self.words.iter().position(|&w| w != 0);
        if first.unwrap_or(self.words.len()) != self.first {
            return Err(format!(
                "{name} first-word hint {} but the first non-zero word is {first:?}",
                self.first
            ));
        }
        Ok(())
    }
}

/// One class's LRU order: positions handed out in increasing order, a
/// slot array mapping each position back to its entry, and the two
/// eligibility bitmaps over those positions. An entry sits in
/// `evictable` when it could be dropped right now (clean, not
/// flushing, not pending), in `flushable` when it could be flushed
/// right now (dirty, not flushing, not pending), and in neither while an
/// admission or writeback is in flight.
#[derive(Debug, Default)]
struct ClassLru {
    slots: Vec<EntryId>,
    evictable: PosSet,
    flushable: PosSet,
}

impl ClassLru {
    /// Hands the next position to `id`.
    fn push(&mut self, id: EntryId) -> u32 {
        self.slots.push(id);
        u32::try_from(self.slots.len() - 1).expect("LRU position overflow")
    }

    /// Renumbers the live slots densely, in order, when dead slots
    /// outnumber the `live` entries by more than [`LRU_SLACK`].
    fn maybe_renumber(&mut self, live: usize, entries: &mut FxHashMap<EntryId, Entry>) {
        if self.slots.len() - live <= live + LRU_SLACK {
            return;
        }
        let mut next = 0;
        for pos in 0..self.slots.len() {
            let id = self.slots[pos];
            if id == DEAD {
                continue;
            }
            self.slots[next] = id;
            self.evictable.relocate(pos, next);
            self.flushable.relocate(pos, next);
            entries.get_mut(&id).expect("live slot").lru_pos = next as u32;
            next += 1;
        }
        debug_assert_eq!(next, live);
        self.slots.truncate(next);
        self.evictable.truncate(next);
        self.flushable.truncate(next);
    }
}

/// The mapping table.
///
/// Besides the id → entry map, two indexes keep every hot query O(1) or
/// one tree descent:
///
/// * `by_range` (per file, offset → end and id) answers hit and overlap
///   lookups;
/// * one `ClassLru` per class answers eviction and writeback
///   candidate queries from its eligibility bitmaps. Positions order
///   entries exactly as a single LRU list per class would, so the picked
///   candidates match what a linear scan over that list would find.
#[derive(Debug, Default)]
pub struct MappingTable {
    entries: FxHashMap<EntryId, Entry>,
    by_range: FxHashMap<FileHandle, BTreeMap<u64, (u64, EntryId)>>,
    lru: [ClassLru; 2],
    /// Multiset of the lengths of the flushable entries of each class
    /// (len -> count). Its smallest key bounds what any remaining walk
    /// candidate could contribute, letting `dirty_batch` stop
    /// scanning the moment the byte budget drops below it.
    dirty_len_hist: [BTreeMap<u64, u32>; 2],
    usage: [ClassUsage; 2],
    dirty_bytes: u64,
    next_id: EntryId,
}

/// Drops `e` from whichever eligibility bitmap holds it.
fn unindex(lru: &mut [ClassLru; 2], dirty_len_hist: &mut [BTreeMap<u64, u32>; 2], e: &Entry) {
    let i = e.typ.idx();
    let c = &mut lru[i];
    if !c.evictable.remove(e.pos()) && c.flushable.remove(e.pos()) {
        match dirty_len_hist[i].get_mut(&e.len) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                dirty_len_hist[i].remove(&e.len);
            }
        }
    }
}

/// Files `e` into the eligibility bitmap its flags call for, if any.
fn index(lru: &mut [ClassLru; 2], dirty_len_hist: &mut [BTreeMap<u64, u32>; 2], e: &Entry) {
    if e.flushing || e.pending {
        return;
    }
    let i = e.typ.idx();
    if e.dirty {
        lru[i].flushable.insert(e.pos());
        *dirty_len_hist[i].entry(e.len).or_insert(0) += 1;
    } else {
        lru[i].evictable.insert(e.pos());
    }
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        MappingTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Dirty bytes across all entries.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes
    }

    /// Usage snapshot of one class.
    pub fn usage(&self, typ: EntryType) -> ClassUsage {
        self.usage[typ.idx()]
    }

    /// Allocates a fresh entry id (the caller reserves log space under
    /// this id before inserting).
    pub fn next_id(&mut self) -> EntryId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Inserts a new entry at the most-recent end of its class's LRU
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present or the range overlaps an
    /// existing entry of the same file (overlaps must be resolved by the
    /// caller first).
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        id: EntryId,
        file: FileHandle,
        offset: u64,
        len: u64,
        extents: ExtentList,
        typ: EntryType,
        ret: f64,
        dirty: bool,
        pending: bool,
        log_seq: u64,
    ) {
        assert!(len > 0, "empty entry");
        assert_ne!(id, DEAD, "entry id reserved for dead LRU slots");
        // Call sites resolve overlaps before inserting; a range probe per
        // insert is hot-path cost, so only check in debug builds.
        debug_assert!(
            !self.has_overlap(file, offset, len),
            "inserting over an existing entry"
        );
        let entry = Entry {
            id,
            file,
            offset,
            len,
            extents,
            typ,
            ret,
            dirty,
            flushing: false,
            pending,
            log_seq,
            lru_pos: self.lru[typ.idx()].push(id),
        };
        index(&mut self.lru, &mut self.dirty_len_hist, &entry);
        let u = &mut self.usage[typ.idx()];
        u.bytes += len;
        u.entries += 1;
        u.ret_sum += ret;
        if dirty {
            self.dirty_bytes += len;
        }
        let prev = self.entries.insert(id, entry);
        assert!(prev.is_none(), "duplicate entry id");
        self.by_range
            .entry(file)
            .or_default()
            .insert(offset, (offset + len, id));
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, id: EntryId) -> Option<Entry> {
        let entry = self.entries.remove(&id)?;
        let i = entry.typ.idx();
        unindex(&mut self.lru, &mut self.dirty_len_hist, &entry);
        self.lru[i].slots[entry.pos()] = DEAD;
        let u = &mut self.usage[i];
        u.bytes -= entry.len;
        u.entries -= 1;
        u.ret_sum -= entry.ret;
        if entry.dirty {
            self.dirty_bytes -= entry.len;
        }
        if let Some(m) = self.by_range.get_mut(&entry.file) {
            m.remove(&entry.offset);
        }
        self.lru[i].maybe_renumber(u.entries as usize, &mut self.entries);
        Some(entry)
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: EntryId) -> Option<&Entry> {
        self.entries.get(&id)
    }

    /// Marks use for LRU: the entry moves to the most-recent position
    /// of its class, keeping its eligibility.
    pub fn touch(&mut self, id: EntryId) {
        let Some(e) = self.entries.get_mut(&id) else {
            return;
        };
        let i = e.typ.idx();
        let c = &mut self.lru[i];
        let old = e.pos();
        let evictable = c.evictable.remove(old);
        let flushable = c.flushable.remove(old);
        c.slots[old] = DEAD;
        e.lru_pos = c.push(id);
        if evictable {
            c.evictable.insert(e.pos());
        }
        if flushable {
            c.flushable.insert(e.pos());
        }
        c.maybe_renumber(self.usage[i].entries as usize, &mut self.entries);
    }

    /// Finds the single *servable* (non-pending) entry fully covering
    /// `[offset, offset + len)` of `file`, if any. The entry map is
    /// probed only once the range index shows a cover.
    pub fn lookup_covering(&self, file: FileHandle, offset: u64, len: u64) -> Option<&Entry> {
        let (_, &(end, id)) = self.by_range.get(&file)?.range(..=offset).next_back()?;
        if offset + len > end {
            return None;
        }
        let e = self.entries.get(&id).expect("index points at live entry");
        (!e.pending).then_some(e)
    }

    /// True when any entry overlaps `[offset, offset + len)` of `file`.
    /// One descent, no allocation — the hot-path form of overlap
    /// checking: only the last entry starting before the range's end can
    /// reach into it, since ends ascend with offsets.
    pub fn has_overlap(&self, file: FileHandle, offset: u64, len: u64) -> bool {
        self.by_range.get(&file).is_some_and(|m| {
            m.range(..offset + len)
                .next_back()
                .is_some_and(|(_, &(end, _))| end > offset)
        })
    }

    /// Appends the ids of all entries overlapping `[offset, offset +
    /// len)` of `file` to `out` (a caller-owned scratch buffer, so
    /// steady-state invalidation allocates nothing), in ascending offset
    /// order.
    pub fn find_overlaps_into(
        &self,
        file: FileHandle,
        offset: u64,
        len: u64,
        out: &mut Vec<EntryId>,
    ) {
        let Some(m) = self.by_range.get(&file) else {
            return;
        };
        let start = out.len();
        for (_, &(end, id)) in m.range(..offset + len).rev() {
            if end <= offset {
                break;
            }
            out.push(id);
        }
        out[start..].reverse();
    }

    /// Ids of all entries overlapping `[offset, offset + len)` of `file`.
    pub fn find_overlaps(&self, file: FileHandle, offset: u64, len: u64) -> Vec<EntryId> {
        let mut out = Vec::new();
        self.find_overlaps_into(file, offset, len, &mut out);
        out
    }

    /// The least-recently-used *evictable* entry of a class: not dirty,
    /// not flushing, not pending — the first set bit of the class's
    /// evictable bitmap.
    pub fn lru_victim(&self, typ: EntryType) -> Option<EntryId> {
        let c = &self.lru[typ.idx()];
        c.evictable.first().map(|pos| c.slots[pos])
    }

    /// The oldest dirty entries, grouped for writeback. Fills `out`
    /// (cleared first; a caller-owned scratch buffer, so steady-state
    /// writeback allocates nothing here) with up to `max_bytes` worth of
    /// `(file, offset, id)`, **sorted by home location** so the
    /// resulting disk writes are as sequential as possible (the paper's
    /// writeback scheduling). Only flush-eligible entries are visited,
    /// each class in LRU order, walking its flushable bitmap.
    pub fn dirty_batch(&self, max_bytes: u64, out: &mut Vec<(FileHandle, u64, EntryId)>) {
        out.clear();
        let mut budget = max_bytes;
        for (c, hist) in self.lru.iter().zip(&self.dirty_len_hist) {
            // Once the budget drops below the smallest dirty length of
            // the class, no remaining candidate can be picked — stop
            // instead of scanning the (possibly huge) LRU tail. The
            // histogram minimum covers the whole set, so this prunes
            // exactly the iterations whose `continue` branch would fire.
            let Some((&min_len, _)) = hist.iter().next() else {
                continue;
            };
            for pos in c.flushable.iter() {
                if budget < min_len {
                    break;
                }
                let e = &self.entries[&c.slots[pos]];
                debug_assert!(e.dirty && !e.flushing && !e.pending);
                if e.len > budget {
                    continue;
                }
                budget -= e.len;
                out.push((e.file, e.offset, e.id));
            }
        }
        // Offsets are unique per file (overlapping inserts are refused),
        // so the unstable sort is deterministic.
        out.sort_unstable();
    }

    /// The flush-eligible entries (dirty, not flushing, not pending),
    /// fragment class first, each class in LRU order. O(flushable).
    pub fn flushable(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.lru.iter().flat_map(move |c| {
            c.flushable
                .iter()
                .map(move |pos| &self.entries[&c.slots[pos]])
        })
    }

    /// Sets the flushing flag.
    pub fn set_flushing(&mut self, id: EntryId, flushing: bool) {
        if let Some(e) = self.entries.get_mut(&id) {
            unindex(&mut self.lru, &mut self.dirty_len_hist, e);
            e.flushing = flushing;
            index(&mut self.lru, &mut self.dirty_len_hist, e);
        }
    }

    /// Marks an entry clean (writeback finished).
    pub fn mark_clean(&mut self, id: EntryId) {
        if let Some(e) = self.entries.get_mut(&id) {
            unindex(&mut self.lru, &mut self.dirty_len_hist, e);
            if e.dirty {
                e.dirty = false;
                self.dirty_bytes -= e.len;
            }
            e.flushing = false;
            index(&mut self.lru, &mut self.dirty_len_hist, e);
        }
    }

    /// Clears the pending flag (admission write finished).
    pub fn activate(&mut self, id: EntryId) {
        if let Some(e) = self.entries.get_mut(&id) {
            unindex(&mut self.lru, &mut self.dirty_len_hist, e);
            e.pending = false;
            index(&mut self.lru, &mut self.dirty_len_hist, e);
        }
    }

    /// Points the entry at a new backup record (log compaction rewrote
    /// its record under a fresh sequence number). `log_seq` keys no
    /// index, so this is a plain field update.
    pub fn set_log_seq(&mut self, id: EntryId, seq: u64) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.log_seq = seq;
        }
    }

    /// Iterates all entries (persistence snapshots).
    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Cross-checks every derived structure against the entry map: the
    /// per-class usage and dirty-byte accounting, the `by_range` index
    /// (offset, end and id of every entry), and the LRU positions (each
    /// entry's slot maps back to it, each entry in exactly the bitmap
    /// its flags call for, bitmap counts and first-word hints matching
    /// their bits, and dead slots within the renumbering bound). Used by
    /// the online invariant auditor; returns a diagnostic on the first
    /// violation found.
    pub fn audit(&self) -> Result<(), String> {
        let mut usage = [ClassUsage::default(); 2];
        let mut dirty_bytes = 0u64;
        let mut want_evictable = [0usize; 2];
        let mut want_flushable = [0usize; 2];
        for (&id, e) in &self.entries {
            if id != e.id {
                return Err(format!("entry keyed {id} carries id {}", e.id));
            }
            let u = &mut usage[e.typ.idx()];
            u.bytes += e.len;
            u.entries += 1;
            u.ret_sum += e.ret;
            if e.dirty {
                dirty_bytes += e.len;
            }
            if self
                .by_range
                .get(&e.file)
                .and_then(|m| m.get(&e.offset))
                .copied()
                != Some((e.offset + e.len, id))
            {
                return Err(format!(
                    "entry {id} ({:?} @{}+{}) missing from the by_range index",
                    e.file, e.offset, e.len
                ));
            }
            let i = e.typ.idx();
            let c = &self.lru[i];
            if c.slots.get(e.pos()) != Some(&id) {
                return Err(format!(
                    "entry {id}'s LRU position {} maps to {:?}",
                    e.lru_pos,
                    c.slots.get(e.pos())
                ));
            }
            let (want_ev, want_fl) = if e.flushing || e.pending {
                (false, false)
            } else if e.dirty {
                (false, true)
            } else {
                (true, false)
            };
            if c.evictable.contains(e.pos()) != want_ev || c.flushable.contains(e.pos()) != want_fl
            {
                return Err(format!(
                    "entry {id} (dirty={} flushing={} pending={}) misfiled in the LRU bitmaps",
                    e.dirty, e.flushing, e.pending
                ));
            }
            want_evictable[i] += usize::from(want_ev);
            want_flushable[i] += usize::from(want_fl);
        }
        for i in 0..2 {
            let c = &self.lru[i];
            c.evictable.audit(&format!("class {i} evictable bitmap"))?;
            c.flushable.audit(&format!("class {i} flushable bitmap"))?;
            if c.evictable.len != want_evictable[i] {
                return Err(format!(
                    "class {i} evictable bitmap holds {} positions, expected {}",
                    c.evictable.len, want_evictable[i]
                ));
            }
            if c.flushable.len != want_flushable[i] {
                return Err(format!(
                    "class {i} flushable bitmap holds {} positions, expected {}",
                    c.flushable.len, want_flushable[i]
                ));
            }
            let live = c.slots.iter().filter(|&&id| id != DEAD).count();
            if live as u64 != usage[i].entries {
                return Err(format!(
                    "class {i} has {live} live LRU slots for {} entries",
                    usage[i].entries
                ));
            }
            if c.slots.len() - live > live + LRU_SLACK {
                return Err(format!(
                    "class {i} carries {} dead LRU slots for {live} live ones",
                    c.slots.len() - live
                ));
            }
            let hist_total: u64 = self.dirty_len_hist[i].values().map(|&n| n as u64).sum();
            if hist_total != want_flushable[i] as u64 {
                return Err(format!(
                    "class {i} dirty length histogram counts {hist_total} entries, expected {}",
                    want_flushable[i]
                ));
            }
            if usage[i].bytes != self.usage[i].bytes || usage[i].entries != self.usage[i].entries {
                return Err(format!(
                    "class {i} usage accounting drifted: recomputed {:?}, stored {:?}",
                    usage[i], self.usage[i]
                ));
            }
            // `ret_sum` is maintained incrementally; allow rounding slack.
            let drift = (usage[i].ret_sum - self.usage[i].ret_sum).abs();
            if drift > 1e-9 * usage[i].ret_sum.abs().max(1.0) {
                return Err(format!(
                    "class {i} ret_sum drifted by {drift} (recomputed {}, stored {})",
                    usage[i].ret_sum, self.usage[i].ret_sum
                ));
            }
        }
        if dirty_bytes != self.dirty_bytes {
            return Err(format!(
                "dirty-byte accounting drifted: recomputed {dirty_bytes}, stored {}",
                self.dirty_bytes
            ));
        }
        let indexed: usize = self.by_range.values().map(|m| m.len()).sum();
        if indexed != self.entries.len() {
            return Err(format!(
                "by_range indexes {indexed} offsets for {} entries",
                self.entries.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileHandle = FileHandle(1);

    fn ext(lbn: u64, sectors: u64) -> ExtentList {
        ExtentList::one(Extent { lbn, sectors })
    }

    fn table_with(entries: &[(u64, u64, EntryType, bool)]) -> MappingTable {
        // (offset, len, type, dirty)
        let mut t = MappingTable::new();
        for &(offset, len, typ, dirty) in entries {
            let id = t.next_id();
            t.insert(
                id,
                F,
                offset,
                len,
                ext(offset / 512, len.div_ceil(512)),
                typ,
                0.001,
                dirty,
                false,
                id,
            );
        }
        t
    }

    #[test]
    fn covering_lookup_finds_exact_and_inner_ranges() {
        let t = table_with(&[(1000, 4096, EntryType::Fragment, false)]);
        assert!(t.lookup_covering(F, 1000, 4096).is_some());
        assert!(t.lookup_covering(F, 2000, 1000).is_some());
        assert!(t.lookup_covering(F, 1000, 4097).is_none());
        assert!(t.lookup_covering(F, 999, 10).is_none());
        assert!(t.lookup_covering(FileHandle(2), 1000, 10).is_none());
    }

    #[test]
    fn pending_entries_are_not_servable() {
        let mut t = MappingTable::new();
        let id = t.next_id();
        t.insert(
            id,
            F,
            0,
            4096,
            ext(0, 8),
            EntryType::Random,
            0.0,
            false,
            true,
            0,
        );
        assert!(t.lookup_covering(F, 0, 4096).is_none());
        t.activate(id);
        assert!(t.lookup_covering(F, 0, 4096).is_some());
    }

    #[test]
    fn overlap_detection() {
        let t = table_with(&[
            (1000, 1000, EntryType::Random, false),
            (5000, 1000, EntryType::Random, false),
        ]);
        assert_eq!(t.find_overlaps(F, 0, 500).len(), 0);
        assert_eq!(t.find_overlaps(F, 1500, 100).len(), 1);
        assert_eq!(t.find_overlaps(F, 900, 5000).len(), 2);
        assert_eq!(t.find_overlaps(F, 1999, 2).len(), 1);
        assert_eq!(t.find_overlaps(F, 2000, 10).len(), 0);
    }

    #[test]
    #[should_panic(expected = "over an existing entry")]
    fn overlapping_insert_panics() {
        let mut t = table_with(&[(0, 4096, EntryType::Random, false)]);
        let id = t.next_id();
        t.insert(
            id,
            F,
            4000,
            100,
            ext(100, 1),
            EntryType::Random,
            0.0,
            false,
            false,
            0,
        );
    }

    #[test]
    fn lru_victim_is_oldest_clean() {
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, false),
            (2000, 1000, EntryType::Fragment, false),
        ]);
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(0));
        t.touch(0); // entry 0 becomes most recent
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(1));
        // Random class has no entries.
        assert_eq!(t.lru_victim(EntryType::Random), None);
    }

    #[test]
    fn dirty_entries_are_not_victims() {
        let t = table_with(&[
            (0, 1000, EntryType::Random, true),
            (2000, 1000, EntryType::Random, false),
        ]);
        assert_eq!(t.lru_victim(EntryType::Random), Some(1));
    }

    #[test]
    fn usage_accounting_tracks_inserts_and_removes() {
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, true),
            (2000, 3000, EntryType::Random, false),
        ]);
        assert_eq!(t.usage(EntryType::Fragment).bytes, 1000);
        assert_eq!(t.usage(EntryType::Random).bytes, 3000);
        assert_eq!(t.dirty_bytes(), 1000);
        let e = t.remove(0).unwrap();
        assert_eq!(e.len, 1000);
        assert_eq!(t.usage(EntryType::Fragment).bytes, 0);
        assert_eq!(t.dirty_bytes(), 0);
    }

    #[test]
    fn mark_clean_updates_dirty_bytes() {
        let mut t = table_with(&[(0, 1000, EntryType::Random, true)]);
        t.set_flushing(0, true);
        t.mark_clean(0);
        assert_eq!(t.dirty_bytes(), 0);
        assert!(!t.get(0).unwrap().flushing);
        // Now evictable.
        assert_eq!(t.lru_victim(EntryType::Random), Some(0));
    }

    #[test]
    fn dirty_batch_sorted_by_home_location_and_bounded() {
        let mut t = table_with(&[
            (9000, 1000, EntryType::Random, true),
            (0, 1000, EntryType::Fragment, true),
            (5000, 1000, EntryType::Random, true),
        ]);
        let mut batch = Vec::new();
        t.dirty_batch(u64::MAX, &mut batch);
        let offsets: Vec<u64> = batch.iter().map(|&(_, offset, _)| offset).collect();
        assert_eq!(offsets, vec![0, 5000, 9000]);
        // Bounded by bytes.
        t.dirty_batch(2000, &mut batch);
        assert_eq!(batch.len(), 2);
        // Flushing entries are excluded.
        t.set_flushing(batch[0].2, true);
        t.dirty_batch(u64::MAX, &mut batch);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn entry_slicing_spans_wrapped_extents() {
        let e = Entry {
            id: 0,
            file: F,
            offset: 0,
            len: 20 * 512,
            extents: ExtentList::two(
                Extent {
                    lbn: 90,
                    sectors: 10,
                },
                Extent {
                    lbn: 0,
                    sectors: 10,
                },
            ),
            typ: EntryType::Fragment,
            ret: 0.0,
            dirty: false,
            flushing: false,
            pending: false,
            log_seq: 0,
            lru_pos: 0,
        };
        // Full range.
        assert_eq!(e.slice(0, 20 * 512), e.extents);
        // Inside the first extent.
        assert_eq!(
            e.slice(512, 512),
            ExtentList::one(Extent {
                lbn: 91,
                sectors: 1
            })
        );
        // Straddling the wrap.
        assert_eq!(
            e.slice(9 * 512, 2 * 512),
            ExtentList::two(
                Extent {
                    lbn: 99,
                    sectors: 1
                },
                Extent { lbn: 0, sectors: 1 }
            )
        );
        // Byte-unaligned range rounds out to sectors.
        assert_eq!(
            e.slice(100, 100),
            ExtentList::one(Extent {
                lbn: 90,
                sectors: 1
            })
        );
    }

    #[test]
    fn audit_accepts_every_lifecycle_state() {
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, true),
            (2000, 1000, EntryType::Random, false),
        ]);
        t.audit().expect("fresh table is consistent");
        let pending = t.next_id();
        t.insert(
            pending,
            F,
            8000,
            512,
            ext(100, 1),
            EntryType::Fragment,
            0.001,
            false,
            true,
            pending,
        );
        t.audit().expect("pending entry is consistent");
        t.set_flushing(0, true);
        t.audit().expect("flushing entry is consistent");
        t.mark_clean(0);
        t.activate(pending);
        t.touch(1);
        t.remove(1);
        t.audit().expect("post-lifecycle table is consistent");
    }

    #[test]
    fn audit_catches_accounting_drift() {
        let mut t = table_with(&[(0, 1000, EntryType::Fragment, true)]);
        t.dirty_bytes += 1; // simulate a lost update
        let err = t.audit().unwrap_err();
        assert!(err.contains("dirty-byte accounting"), "got: {err}");
    }

    #[test]
    fn audit_catches_stale_lru_bits() {
        let mut t = table_with(&[(0, 1000, EntryType::Random, false)]);
        t.touch(0); // position 0 is now a dead slot
        t.audit().expect("touched table is consistent");
        // A stale bit at the dead slot, with no entry behind it.
        t.lru[EntryType::Random.idx()].evictable.insert(0);
        let err = t.audit().unwrap_err();
        assert!(err.contains("evictable bitmap holds 2"), "got: {err}");
    }

    #[test]
    fn audit_catches_a_wrong_range_end() {
        let mut t = table_with(&[(0, 1000, EntryType::Random, false)]);
        t.by_range.get_mut(&F).unwrap().insert(0, (999, 0));
        let err = t.audit().unwrap_err();
        assert!(err.contains("by_range"), "got: {err}");
    }

    #[test]
    fn renumbering_keeps_lru_order() {
        // Three clean entries and one dirty one; touching them round
        // robin leaves a dead slot per use until the class renumbers.
        let mut t = table_with(&[
            (0, 1000, EntryType::Fragment, false),
            (2000, 1000, EntryType::Fragment, false),
            (4000, 1000, EntryType::Fragment, true),
            (6000, 1000, EntryType::Fragment, false),
        ]);
        for round in 0..100u64 {
            t.touch(round % 4);
            t.audit().expect("consistent after every touch");
        }
        let c = &t.lru[EntryType::Fragment.idx()];
        assert!(
            c.slots.len() <= 2 * 4 + LRU_SLACK,
            "dead slots were reclaimed"
        );
        // Last touched: 3 (round 99), 2, 1, 0 — so 0 is the oldest.
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(0));
        t.touch(0);
        // 1 is the oldest clean entry now; 2 is dirty.
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(1));
        t.remove(1);
        assert_eq!(t.lru_victim(EntryType::Fragment), Some(3));
        let mut batch = Vec::new();
        t.dirty_batch(u64::MAX, &mut batch);
        assert_eq!(batch, vec![(F, 4000, 2)]);
    }

    #[test]
    fn entry_stays_compact() {
        assert_eq!(std::mem::size_of::<Entry>(), 120);
    }

    #[test]
    fn position_set_tracks_its_first_word() {
        let mut s = PosSet::default();
        assert_eq!(s.first(), None);
        s.insert(200);
        s.insert(70);
        assert_eq!(s.first(), Some(70));
        assert!(s.remove(70));
        assert!(!s.remove(70));
        assert_eq!(s.first(), Some(200));
        s.insert(3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
        s.audit("s").unwrap();
        assert!(s.remove(3) && s.remove(200));
        assert_eq!(s.first(), None);
        s.audit("s").unwrap();
    }

    #[test]
    fn avg_ret_per_class() {
        let mut t = MappingTable::new();
        let a = t.next_id();
        t.insert(
            a,
            F,
            0,
            100,
            ext(0, 1),
            EntryType::Fragment,
            0.002,
            false,
            false,
            0,
        );
        let b = t.next_id();
        t.insert(
            b,
            F,
            1000,
            100,
            ext(2, 1),
            EntryType::Fragment,
            0.004,
            false,
            false,
            1,
        );
        assert!((t.usage(EntryType::Fragment).avg_ret() - 0.003).abs() < 1e-12);
        assert_eq!(t.usage(EntryType::Random).avg_ret(), 0.0);
    }
}
