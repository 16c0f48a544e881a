//! Circular SSD log.
//!
//! iBridge writes all cached data "sequentially into a pre-created large
//! file that is maintained much like a log-based file system" — that is
//! what makes its SSD writes run at the device's *sequential* write
//! bandwidth (140 MB/s) instead of the random one (30 MB/s). This module
//! manages that file's space: an append head that advances through a
//! fixed region and wraps, overwriting the *stale or clean* data it runs
//! over. An append that would run over **dirty** (not yet written back)
//! or in-flight data fails, and the caller serves the request at the
//! disk instead; the idle-time writeback daemon keeps the log clean
//! enough that this is rare.

use ibridge_device::Lbn;
use ibridge_localfs::{Extent, ExtentList};
use std::collections::BTreeMap;

/// Identifier of a cache entry, matching `ibridge_pvfs::EntryId`.
pub type EntryId = u64;

/// A resident region of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Resident {
    sectors: u64,
    entry: EntryId,
}

/// Why an append failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendError {
    /// The request is larger than the whole log.
    TooLarge,
    /// The append head would run over dirty or pinned data.
    BlockedByDirty,
}

/// The circular log allocator.
///
/// ```
/// use ibridge_core::CircularLog;
///
/// let mut log = CircularLog::new(1000);
/// let (extents, evicted) = log.append(128, 0).unwrap();
/// assert_eq!(extents[0].lbn, 0);
/// assert!(evicted.is_empty());
/// // Appends are strictly sequential — the SSD sees them at its
/// // sequential-write bandwidth.
/// let (next, _) = log.append(128, 1).unwrap();
/// assert_eq!(next[0].lbn, 128);
/// ```
#[derive(Debug)]
pub struct CircularLog {
    capacity: u64,
    head: Lbn,
    /// Live regions, keyed by start sector. Non-overlapping. An entry
    /// holds one region, or two when its append wrapped: the piece
    /// ending at `capacity` and the piece at lbn 0 (its *wrap partner*).
    residents: BTreeMap<Lbn, Resident>,
    /// Entries whose regions must not be overwritten (dirty/in-flight).
    protected: ibridge_des::fxhash::FxHashSet<EntryId>,
}

impl CircularLog {
    /// Creates a log over `[0, capacity_sectors)`.
    pub fn new(capacity_sectors: u64) -> Self {
        assert!(capacity_sectors > 0, "empty log");
        CircularLog {
            capacity: capacity_sectors,
            head: 0,
            residents: BTreeMap::new(),
            protected: Default::default(),
        }
    }

    /// Drops `entry`'s region starting at `lbn`, and its wrap partner
    /// when that region is one piece of a wrapped append: a piece at
    /// lbn 0 pairs with the resident ending at `capacity`, and a piece
    /// ending at `capacity` pairs with the resident at lbn 0. Both are
    /// found in O(log n), so eviction never scans the resident map. A
    /// region already gone (the partner of a casualty dropped earlier
    /// in the same append) is a no-op.
    fn drop_at(&mut self, lbn: Lbn, entry: EntryId) {
        let Some(r) = self.residents.remove(&lbn) else {
            return;
        };
        debug_assert_eq!(r.entry, entry, "region at {lbn} belongs to another entry");
        let partner = if lbn == 0 {
            self.residents
                .last_key_value()
                .filter(|(&s, p)| s + p.sectors == self.capacity && p.entry == entry)
                .map(|(&s, _)| s)
        } else if lbn + r.sectors == self.capacity {
            self.residents
                .get(&0)
                .filter(|p| p.entry == entry)
                .map(|_| 0)
        } else {
            None
        };
        if let Some(p) = partner {
            self.residents.remove(&p);
        }
    }

    /// Registers `start..start+sectors` as held by `entry`.
    fn claim(&mut self, start: Lbn, sectors: u64, entry: EntryId) {
        self.residents.insert(start, Resident { sectors, entry });
    }

    /// Log capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Current append position (for tests/inspection).
    pub fn head(&self) -> Lbn {
        self.head
    }

    /// Marks an entry's region as must-not-overwrite (dirty data, or an
    /// in-flight flush/read).
    pub fn protect(&mut self, entry: EntryId) {
        self.protected.insert(entry);
    }

    /// Clears the protection.
    pub fn unprotect(&mut self, entry: EntryId) {
        self.protected.remove(&entry);
    }

    /// Removes an entry's residency (logical eviction). `first_lbn` is
    /// the start of the entry's first extent (`extents[0].lbn`); a
    /// wrapped entry's second piece goes with it. The space becomes
    /// stale and is reclaimed when the head next passes it.
    pub fn evict(&mut self, entry: EntryId, first_lbn: Lbn) {
        self.drop_at(first_lbn, entry);
        self.protected.remove(&entry);
    }

    /// Walks the residents intersecting `[start, start+len)` (no wrap),
    /// collecting casualties as `(lbn, entry)`; fails on a protected one.
    fn check_piece(
        &self,
        start: Lbn,
        len: u64,
        casualties: &mut Vec<(Lbn, EntryId)>,
    ) -> Result<(), AppendError> {
        let end = start + len;
        // A resident starting before `start` may still reach into it.
        if let Some((&s, &r)) = self.residents.range(..start).next_back() {
            if s + r.sectors > start {
                if self.protected.contains(&r.entry) {
                    return Err(AppendError::BlockedByDirty);
                }
                casualties.push((s, r.entry));
            }
        }
        for (&s, &r) in self.residents.range(start..end) {
            if self.protected.contains(&r.entry) {
                return Err(AppendError::BlockedByDirty);
            }
            casualties.push((s, r.entry));
        }
        Ok(())
    }

    /// True when any resident intersects `[start, start+len)` (no wrap).
    fn piece_occupied(&self, start: Lbn, len: u64) -> bool {
        if let Some((&s, &r)) = self.residents.range(..start).next_back() {
            if s + r.sectors > start {
                return true;
            }
        }
        self.residents.range(start..start + len).next().is_some()
    }

    /// Appends `sectors` at the head, wrapping if needed. On success,
    /// returns the allocated extents (1, or 2 when wrapping) plus the
    /// ids of clean entries that were overwritten (the caller must drop
    /// them from its mapping table).
    pub fn append(
        &mut self,
        sectors: u64,
        entry: EntryId,
    ) -> Result<(ExtentList, Vec<EntryId>), AppendError> {
        assert!(sectors > 0, "zero-length append");
        if sectors > self.capacity {
            return Err(AppendError::TooLarge);
        }
        // Determine the (up to two) pieces the allocation covers — the
        // inline capacity of `ExtentList` is sized for exactly this.
        let first_len = sectors.min(self.capacity - self.head);
        let mut extents = ExtentList::one(Extent {
            lbn: self.head,
            sectors: first_len,
        });
        if first_len < sectors {
            extents.push(Extent {
                lbn: 0,
                sectors: sectors - first_len,
            });
        }
        // Check every piece for protected residents before mutating.
        let mut casualties = Vec::new();
        for e in &extents {
            self.check_piece(e.lbn, e.sectors, &mut casualties)?;
        }
        // Evict the casualties entirely (their whole region goes stale —
        // a partially overwritten entry is useless), each at the lbn the
        // walk found it; a wrapped casualty's other piece goes with it.
        for &(lbn, id) in &casualties {
            self.drop_at(lbn, id);
        }
        // Claim the space.
        for e in &extents {
            self.claim(e.lbn, e.sectors, entry);
        }
        self.head = (self.head + sectors) % self.capacity;
        let mut ids: Vec<EntryId> = casualties.into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        Ok((extents, ids))
    }

    /// Appends `data_sectors` of payload plus `header_sectors` for the
    /// entry's mapping-table backup record in one sequential allocation.
    /// The returned extents cover the **data only** — the header rides
    /// at the tail of the same append (its write cost is part of the
    /// same sequential burst), but it is not addressable cached data.
    pub fn append_with_header(
        &mut self,
        data_sectors: u64,
        header_sectors: u64,
        entry: EntryId,
    ) -> Result<(ExtentList, Vec<EntryId>), AppendError> {
        let (mut extents, casualties) = self.append(data_sectors + header_sectors, entry)?;
        let mut left = header_sectors;
        while left > 0 {
            let last = extents
                .as_mut_slice()
                .last_mut()
                .expect("append returned extents");
            if last.sectors > left {
                last.sectors -= left;
                left = 0;
            } else {
                left -= last.sectors;
                extents.pop();
            }
        }
        Ok((extents, casualties))
    }

    /// Number of live resident sectors (diagnostics).
    pub fn resident_sectors(&self) -> u64 {
        self.residents.values().map(|r| r.sectors).sum()
    }

    /// Iterates live regions as `(entry, sectors)` pairs (auditing).
    pub fn resident_extents(&self) -> impl Iterator<Item = (EntryId, u64)> + '_ {
        self.residents.values().map(|r| (r.entry, r.sectors))
    }

    /// True when the entry's region is pinned against overwrite.
    pub fn is_protected(&self, entry: EntryId) -> bool {
        self.protected.contains(&entry)
    }

    /// Iterates the protected entry ids (auditing).
    pub fn protected_ids(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.protected.iter().copied()
    }

    /// Re-registers an entry at explicit extents (crash recovery from
    /// the on-SSD mapping-table backup). Fails if any extent overlaps an
    /// existing resident.
    pub fn reserve_at(
        &mut self,
        extents: &[Extent],
        entry: EntryId,
    ) -> Result<(ExtentList, Vec<EntryId>), AppendError> {
        for e in extents {
            assert!(e.end() <= self.capacity, "extent beyond the log");
            if self.piece_occupied(e.lbn, e.sectors) {
                return Err(AppendError::BlockedByDirty);
            }
        }
        for e in extents {
            self.claim(e.lbn, e.sectors, entry);
        }
        Ok((extents.iter().copied().collect(), Vec::new()))
    }

    /// Restores the append head (crash recovery).
    pub fn set_head(&mut self, head: Lbn) {
        assert!(head < self.capacity.max(1) + 1, "head beyond the log");
        self.head = head % self.capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_sequential() {
        let mut log = CircularLog::new(1000);
        let (a, _) = log.append(100, 1).unwrap();
        let (b, _) = log.append(100, 2).unwrap();
        assert_eq!(
            a,
            ExtentList::one(Extent {
                lbn: 0,
                sectors: 100
            })
        );
        assert_eq!(
            b,
            ExtentList::one(Extent {
                lbn: 100,
                sectors: 100
            })
        );
        assert_eq!(log.head(), 200);
    }

    #[test]
    fn wrap_splits_into_two_extents() {
        let mut log = CircularLog::new(100);
        log.append(80, 1).unwrap();
        log.evict(1, 0);
        let (ext, _) = log.append(40, 2).unwrap();
        assert_eq!(
            ext,
            ExtentList::two(
                Extent {
                    lbn: 80,
                    sectors: 20
                },
                Extent {
                    lbn: 0,
                    sectors: 20
                }
            )
        );
        assert!(!ext.spilled(), "wrap must fit the inline capacity");
        assert_eq!(log.head(), 20);
    }

    #[test]
    fn wrap_overwrites_clean_entries_and_reports_them() {
        let mut log = CircularLog::new(100);
        log.append(50, 1).unwrap(); // [0,50)
        log.append(50, 2).unwrap(); // [50,100), head wraps to 0
        let (ext, evicted) = log.append(30, 3).unwrap(); // overwrites part of 1
        assert_eq!(
            ext,
            ExtentList::one(Extent {
                lbn: 0,
                sectors: 30
            })
        );
        assert_eq!(evicted, vec![1]);
        // Entry 1's remaining region is gone too.
        assert_eq!(log.resident_sectors(), 50 + 30);
    }

    #[test]
    fn dirty_data_blocks_the_append() {
        let mut log = CircularLog::new(100);
        log.append(50, 1).unwrap();
        log.append(50, 2).unwrap();
        log.protect(1);
        assert_eq!(log.append(30, 3), Err(AppendError::BlockedByDirty));
        // Cleaning unblocks it.
        log.unprotect(1);
        assert!(log.append(30, 3).is_ok());
    }

    #[test]
    fn eviction_frees_space_logically() {
        let mut log = CircularLog::new(100);
        log.append(60, 1).unwrap();
        assert_eq!(log.resident_sectors(), 60);
        log.evict(1, 0);
        assert_eq!(log.resident_sectors(), 0);
    }

    #[test]
    fn oversized_append_rejected() {
        let mut log = CircularLog::new(100);
        assert_eq!(log.append(101, 1), Err(AppendError::TooLarge));
    }

    #[test]
    fn protected_inflight_entry_survives_until_unprotect() {
        let mut log = CircularLog::new(64);
        log.append(32, 1).unwrap();
        log.protect(1);
        log.append(32, 2).unwrap(); // fills the rest; head wraps
                                    // Next append would overwrite entry 1: blocked.
        assert_eq!(log.append(8, 3), Err(AppendError::BlockedByDirty));
        log.unprotect(1);
        let (_, evicted) = log.append(8, 3).unwrap();
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn append_with_header_charges_but_hides_the_header() {
        let mut log = CircularLog::new(100);
        let (data, _) = log.append_with_header(4, 1, 1).unwrap();
        assert_eq!(data, ExtentList::one(Extent { lbn: 0, sectors: 4 }));
        // The head moved past the header sector too.
        assert_eq!(log.head(), 5);
        assert_eq!(log.resident_sectors(), 5);
    }

    #[test]
    fn append_with_header_trims_across_a_wrap() {
        let mut log = CircularLog::new(100);
        log.append(98, 1).unwrap();
        log.evict(1, 0);
        // 1 data sector lands at 98; the 2-sector header spans the wrap
        // ([99,100) + [0,1)) and is trimmed entirely from the extents.
        let (data, _) = log.append_with_header(1, 2, 2).unwrap();
        assert_eq!(
            data,
            ExtentList::one(Extent {
                lbn: 98,
                sectors: 1
            })
        );
        assert_eq!(log.head(), 1);
        assert_eq!(log.resident_sectors(), 3);
    }

    #[test]
    fn exact_fit_wraps_head_to_zero() {
        let mut log = CircularLog::new(100);
        log.append(100, 1).unwrap();
        assert_eq!(log.head(), 0);
        // Appending again overwrites entry 1 (clean).
        let (_, evicted) = log.append(10, 2).unwrap();
        assert_eq!(evicted, vec![1]);
    }

    #[test]
    fn evicting_a_wrapped_entry_removes_both_pieces() {
        let mut log = CircularLog::new(100);
        log.append(80, 1).unwrap();
        log.evict(1, 0);
        let (ext, _) = log.append(40, 2).unwrap(); // [80,100) + [0,20)
        assert_eq!(ext.len(), 2);
        log.append(30, 3).unwrap(); // [20,50)
        log.evict(2, ext[0].lbn);
        assert_eq!(log.resident_sectors(), 30, "both pieces of 2 gone, 3 kept");
        // An unwrapped entry ending at `capacity` has no partner: the
        // resident at lbn 0 belongs to someone else and stays.
        let mut log = CircularLog::new(100);
        log.append(50, 1).unwrap(); // [0,50)
        log.append(50, 2).unwrap(); // [50,100)
        log.evict(2, 50);
        assert_eq!(log.resident_sectors(), 50);
    }

    #[test]
    fn header_only_wrap_is_fully_evicted() {
        let mut log = CircularLog::new(100);
        log.append(90, 1).unwrap();
        log.evict(1, 0);
        // The data fills [90,100) exactly; the header lands at lbn 0.
        let (data, _) = log.append_with_header(10, 1, 2).unwrap();
        assert_eq!(
            data,
            ExtentList::one(Extent {
                lbn: 90,
                sectors: 10
            })
        );
        assert_eq!(log.resident_sectors(), 11);
        log.evict(2, data[0].lbn);
        assert_eq!(log.resident_sectors(), 0, "the header piece went too");
    }

    #[test]
    fn hitting_a_casualtys_lbn0_piece_drops_its_tail_piece() {
        let mut log = CircularLog::new(100);
        log.append(80, 1).unwrap();
        log.evict(1, 0);
        // Entry 2 wraps: [80,100) + [0,20). Recovery may put the head
        // anywhere: restart it at 0 so the walk meets entry 2 only at
        // its lbn-0 piece.
        log.append(40, 2).unwrap();
        log.set_head(0);
        let (_, evicted) = log.append(10, 3).unwrap();
        assert_eq!(evicted, vec![2]);
        assert_eq!(log.resident_sectors(), 10, "the [80,100) piece went too");
        assert_eq!(log.resident_extents().collect::<Vec<_>>(), vec![(3, 10)]);
    }

    #[test]
    fn entries_restored_through_reserve_at_evict_cleanly() {
        let mut log = CircularLog::new(100);
        let wrapped = [
            Extent {
                lbn: 95,
                sectors: 5,
            },
            Extent { lbn: 0, sectors: 3 },
        ];
        let single = [Extent {
            lbn: 10,
            sectors: 4,
        }];
        log.reserve_at(&wrapped, 7).unwrap();
        log.reserve_at(&single, 8).unwrap();
        log.protect(7);
        log.evict(7, 95);
        assert!(!log.is_protected(7));
        assert_eq!(log.resident_extents().collect::<Vec<_>>(), vec![(8, 4)]);
        log.evict(8, 10);
        assert_eq!(log.resident_sectors(), 0);
        // A restored wrapped entry met as a casualty goes whole, too.
        log.reserve_at(&wrapped, 9).unwrap();
        log.set_head(90);
        let (_, evicted) = log.append(8, 10).unwrap(); // [90,98)
        assert_eq!(evicted, vec![9]);
        assert_eq!(log.resident_sectors(), 8);
    }
}
