//! Property-based tests of the core data structures and invariants.

use ibridge_repro::core::{CircularLog, EntryType, MappingTable};
use ibridge_repro::des::stats::Histogram;
use ibridge_repro::localfs::{FsConfig, LocalFs};
use ibridge_repro::prelude::*;
use proptest::prelude::*;

const KB: u64 = 1024;

/// One entry of the naive mapping-table model: plain fields, LRU order
/// by last-use clock, every query a linear scan.
#[derive(Debug)]
struct ModelEntry {
    id: u64,
    file: FileHandle,
    offset: u64,
    len: u64,
    typ: EntryType,
    dirty: bool,
    flushing: bool,
    pending: bool,
    used: u64,
}

impl ModelEntry {
    fn overlaps(&self, offset: u64, len: u64) -> bool {
        self.offset < offset + len && offset < self.offset + self.len
    }

    fn evictable(&self) -> bool {
        !self.dirty && !self.flushing && !self.pending
    }

    fn flushable(&self) -> bool {
        self.dirty && !self.flushing && !self.pending
    }
}

/// The model's writeback batch: walk each class's flush-eligible
/// entries oldest first, taking every one that still fits the budget,
/// then order the picks by home location.
fn model_dirty_batch(model: &[ModelEntry], max_bytes: u64) -> Vec<(FileHandle, u64, u64)> {
    let mut budget = max_bytes;
    let mut picked = Vec::new();
    for typ in [EntryType::Fragment, EntryType::Random] {
        let mut class: Vec<&ModelEntry> = model
            .iter()
            .filter(|m| m.typ == typ && m.flushable())
            .collect();
        class.sort_by_key(|m| m.used);
        for m in class {
            if m.len <= budget {
                budget -= m.len;
                picked.push((m.file, m.offset, m.id));
            }
        }
    }
    picked.sort();
    picked
}

proptest! {
    /// Striping decomposition conserves length, produces at most one
    /// piece per server, and every piece maps back to the right server.
    #[test]
    fn layout_decomposition_invariants(
        su_kb in 1u64..256,
        n in 1usize..16,
        offset in 0u64..(1 << 34),
        len in 1u64..(1 << 24),
    ) {
        let layout = Layout::new(su_kb * KB, n);
        let pieces = layout.decompose(offset, len);
        // Length conserved.
        let total: u64 = pieces.iter().map(|&(_, _, l)| l).sum();
        prop_assert_eq!(total, len);
        // At most one piece per server; server ids valid.
        let mut seen = std::collections::HashSet::new();
        for &(server, _, piece_len) in &pieces {
            prop_assert!(server < n);
            prop_assert!(piece_len > 0);
            prop_assert!(seen.insert(server), "duplicate server piece");
        }
        // Spot-check boundary bytes map where decompose says they do.
        let first = pieces
            .iter()
            .find(|&&(s, _, _)| s == layout.server_of(offset))
            .expect("the first byte's server must receive a piece");
        prop_assert_eq!(first.1, layout.local_offset(offset));
    }

    /// Sub-request classification: fragments only below the threshold
    /// and only for multi-server parents; totals conserved.
    #[test]
    fn fragment_flagging_invariants(
        offset in 0u64..(1 << 30),
        len in 1u64..(1 << 22),
        threshold in 1u64..(128 * 1024),
    ) {
        let layout = Layout::default_with_servers(8);
        let subs = layout.sub_requests(
            IoDir::Read, FileHandle(1), offset, len, threshold, true,
        );
        let total: u64 = subs.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, len);
        for s in &subs {
            match &s.class {
                ReqClass::Fragment { siblings } => {
                    prop_assert!(s.len < threshold);
                    prop_assert!(subs.len() > 1);
                    prop_assert_eq!(siblings.len(), subs.len() - 1);
                    prop_assert!(!siblings.contains(&(s.server as u32)));
                }
                ReqClass::Random => prop_assert!(len < threshold),
                ReqClass::Bulk => {}
            }
        }
    }

    /// LocalFs mapping: sector counts match the byte range, extents are
    /// disjoint within a file, and remapping is stable.
    #[test]
    fn localfs_mapping_invariants(
        ops in prop::collection::vec((0u64..512, 1u64..64), 1..40),
    ) {
        let mut fs = LocalFs::new(1 << 22, FsConfig::default());
        let file = ibridge_repro::localfs::FileHandle(1);
        for &(block, nblocks) in &ops {
            fs.ensure_allocated(file, block, nblocks).unwrap();
        }
        for &(block, nblocks) in &ops {
            let offset = block * 4096;
            let len = nblocks * 4096;
            let a = fs.map_range(file, offset, len).unwrap();
            let total: u64 = a.iter().map(|e| e.sectors).sum();
            prop_assert_eq!(total * 512, len);
            // Stable second mapping.
            let b = fs.map_range(file, offset, len).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Circular log: live residents never exceed capacity, appends are
    /// exactly the requested size, and protected entries survive.
    #[test]
    fn circular_log_invariants(
        capacity in 64u64..4096,
        appends in prop::collection::vec(1u64..256, 1..64),
    ) {
        let mut log = CircularLog::new(capacity);
        for (i, &sectors) in appends.iter().enumerate() {
            if let Ok((extents, _)) = log.append(sectors.min(capacity), i as u64) {
                let total: u64 = extents.iter().map(|e| e.sectors).sum();
                prop_assert_eq!(total, sectors.min(capacity));
                for e in &extents {
                    prop_assert!(e.end() <= capacity);
                }
            }
            prop_assert!(log.resident_sectors() <= capacity);
        }
    }

    /// Mapping table: usage accounting equals the sum over entries, and
    /// lookups only return covering entries.
    #[test]
    fn mapping_table_invariants(
        items in prop::collection::vec((0u64..64, 1u64..8, any::<bool>()), 1..32),
    ) {
        let mut t = MappingTable::new();
        let file = ibridge_repro::localfs::FileHandle(1);
        let mut inserted: Vec<(u64, u64)> = Vec::new();
        for &(slot, len_kb, dirty) in &items {
            let offset = slot * 128 * KB;
            let len = len_kb * KB;
            if inserted.iter().any(|&(o, l)| o < offset + len && offset < o + l) {
                continue; // caller resolves overlaps; skip here
            }
            let id = t.next_id();
            t.insert(
                id, file, offset, len,
                ibridge_repro::localfs::ExtentList::one(
                    ibridge_repro::localfs::Extent { lbn: id * 512, sectors: len.div_ceil(512) },
                ),
                EntryType::Random, 0.001, dirty, false, id,
            );
            inserted.push((offset, len));
        }
        let bytes: u64 = inserted.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(t.usage(EntryType::Random).bytes, bytes);
        for &(offset, len) in &inserted {
            let e = t.lookup_covering(file, offset, len).expect("inserted range");
            prop_assert!(e.offset <= offset && offset + len <= e.offset + e.len);
            // A byte past the end must not be covered by this entry's range.
            if let Some(x) = t.lookup_covering(file, offset + len, 1) {
                prop_assert!(x.offset != offset);
            }
        }
    }

    /// `Entry::slice` over a two-extent entry: sector counts match the
    /// byte sub-range (including sub-sector offsets and lengths), every
    /// sliced extent is a sub-range of a source extent, and the
    /// full-range slice reproduces the source extents.
    #[test]
    fn entry_slice_invariants(
        total in 2u64..64,
        split_frac in 0u64..100,
        tail in 1u64..=512,
        from_frac in 0u64..100,
        len_frac in 1u64..=100,
    ) {
        use ibridge_repro::localfs::{Extent, ExtentList};
        let split = split_frac * total / 100; // 0..total sectors in the first extent
        let mut extents = ExtentList::new();
        if split > 0 {
            extents.push(Extent { lbn: 10_000, sectors: split });
        }
        if split < total {
            extents.push(Extent { lbn: 50_000, sectors: total - split });
        }
        let len = (total - 1) * 512 + tail;
        let mut t = MappingTable::new();
        let file = ibridge_repro::localfs::FileHandle(9);
        let id = t.next_id();
        t.insert(id, file, 0, len, extents.clone(), EntryType::Random, 0.0, false, false, 0);
        let e = t.lookup_covering(file, 0, len).expect("just inserted");

        // Sub-range slice, deliberately not sector-aligned.
        let from = from_frac * (len - 1) / 100;
        let slen = 1 + len_frac * (len - from - 1) / 100;
        let s = e.slice(from, slen);
        let want = (from + slen).div_ceil(512) - from / 512;
        prop_assert_eq!(s.iter().map(|x| x.sectors).sum::<u64>(), want);
        // Each sliced extent sits inside one of the source extents.
        for x in &s {
            prop_assert!(
                extents.iter().any(|src| src.lbn <= x.lbn && x.end() <= src.end()),
                "slice escaped the source extents"
            );
        }
        // A slice spanning the extent boundary produces both pieces.
        if (0 < split && split < total) && from / 512 < split && (from + slen).div_ceil(512) > split {
            prop_assert_eq!(s.len(), 2);
        }
        // Full-range slice is the identity on the extent list.
        let full = e.slice(0, len);
        prop_assert_eq!(full, extents);
    }

    /// MappingTable overlap semantics: adjacent ranges don't overlap,
    /// contained and straddling ranges do, and `has_overlap` always
    /// agrees with `find_overlaps`.
    #[test]
    fn mapping_table_overlap_semantics(
        offset in 1024u64..(1 << 20),
        len in 1u64..65536,
        probe_len in 1u64..65536,
        d_frac in 0u64..100,
    ) {
        let mut t = MappingTable::new();
        let file = ibridge_repro::localfs::FileHandle(3);
        let id = t.next_id();
        t.insert(
            id, file, offset, len,
            ibridge_repro::localfs::ExtentList::one(
                ibridge_repro::localfs::Extent { lbn: 0, sectors: len.div_ceil(512) },
            ),
            EntryType::Fragment, 0.0, false, false, 0,
        );
        // Adjacent on either side: no overlap (ranges are half-open).
        let left_start = offset.saturating_sub(probe_len).min(offset - 1);
        prop_assert!(!t.has_overlap(file, left_start, offset - left_start));
        prop_assert!(!t.has_overlap(file, offset + len, probe_len));
        prop_assert!(t.find_overlaps(file, offset + len, probe_len).is_empty());
        // Contained: any sub-range overlaps and finds exactly this entry.
        let d = d_frac * (len - 1) / 100;
        let inner_len = 1 + (len - d - 1) * d_frac / 100;
        prop_assert!(t.has_overlap(file, offset + d, inner_len));
        prop_assert_eq!(t.find_overlaps(file, offset + d, inner_len), vec![id]);
        // Straddling either edge (and full covering) overlap too.
        prop_assert!(t.has_overlap(file, left_start, offset - left_start + 1));
        prop_assert!(t.has_overlap(file, offset + len - 1, probe_len));
        prop_assert!(t.has_overlap(file, left_start, offset - left_start + len + probe_len));
        // Different file: never overlaps.
        prop_assert!(!t.has_overlap(ibridge_repro::localfs::FileHandle(4), offset, len));
        // Consistency: the boolean form agrees with the id-list form.
        for (o, l) in [
            (left_start, offset - left_start),
            (offset + d, inner_len),
            (offset + len, probe_len),
        ] {
            prop_assert_eq!(t.has_overlap(file, o, l), !t.find_overlaps(file, o, l).is_empty());
        }
    }

    /// MappingTable against a naive model: random inserts, touches,
    /// removals and flag flips over both classes and two files, with
    /// enough touches on a small live set to force several renumberings
    /// of the LRU positions. After every operation the table's victim,
    /// writeback batch (random budget), flushable walk, covering lookup
    /// and overlap queries must equal the model's linear scans, and the
    /// table's own audit must pass.
    #[test]
    fn mapping_table_matches_a_naive_model(
        ops in prop::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 400..900),
    ) {
        let mut t = MappingTable::new();
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut clock = 0u64;
        for &(kind, a, b) in &ops {
            // An existing entry, or (one time in nine) an id the table
            // does not hold — every mutator must tolerate those.
            let pick = (a % (model.len() as u64 + 1)) as usize;
            let target = model.get(pick).map_or(u64::MAX - 1, |m| m.id);
            clock += 1;
            match kind {
                0..=2 => {
                    let file = FileHandle(1 + a % 2);
                    let offset = (a >> 8) % 48 * 4 * KB + b % 3 * 1000;
                    let len = 1 + (b >> 8) % (12 * KB);
                    let typ = if b >> 40 & 1 == 0 { EntryType::Fragment } else { EntryType::Random };
                    let (dirty, pending) = (b >> 41 & 1 == 1, b >> 42 & 3 == 0);
                    if model.iter().any(|m| m.file == file && m.overlaps(offset, len)) {
                        continue; // callers resolve overlaps before inserting
                    }
                    let id = t.next_id();
                    t.insert(
                        id, file, offset, len,
                        ibridge_repro::localfs::ExtentList::one(
                            ibridge_repro::localfs::Extent { lbn: id * 64, sectors: len.div_ceil(512) },
                        ),
                        typ, 0.001, dirty, pending, id,
                    );
                    model.push(ModelEntry {
                        id, file, offset, len, typ, dirty, pending,
                        flushing: false, used: clock,
                    });
                }
                3..=7 => {
                    t.touch(target);
                    if let Some(m) = model.get_mut(pick) {
                        m.used = clock;
                    }
                }
                8 => {
                    let got = t.remove(target).map(|e| e.id);
                    let want = (pick < model.len()).then(|| model.remove(pick).id);
                    prop_assert_eq!(got, want);
                }
                9 => {
                    let flushing = b & 1 == 1;
                    t.set_flushing(target, flushing);
                    if let Some(m) = model.get_mut(pick) {
                        m.flushing = flushing;
                    }
                }
                10 => {
                    t.mark_clean(target);
                    if let Some(m) = model.get_mut(pick) {
                        m.dirty = false;
                        m.flushing = false;
                    }
                }
                _ => {
                    t.activate(target);
                    if let Some(m) = model.get_mut(pick) {
                        m.pending = false;
                    }
                }
            }
            if let Err(e) = t.audit() {
                return Err(TestCaseError::fail(format!("audit after op {kind}: {e}")));
            }

            // Eviction and writeback candidates.
            for typ in [EntryType::Fragment, EntryType::Random] {
                let want = model
                    .iter()
                    .filter(|m| m.typ == typ && m.evictable())
                    .min_by_key(|m| m.used)
                    .map(|m| m.id);
                prop_assert_eq!(t.lru_victim(typ), want);
            }
            let dirty_total: u64 = model.iter().filter(|m| m.flushable()).map(|m| m.len).sum();
            let budget = match b % 4 {
                0 => u64::MAX,
                _ => a % (dirty_total + 8 * KB),
            };
            let mut batch = Vec::new();
            t.dirty_batch(budget, &mut batch);
            prop_assert_eq!(batch, model_dirty_batch(&model, budget));
            let walk: Vec<u64> = t.flushable().map(|e| e.id).collect();
            let mut want_walk: Vec<&ModelEntry> = model.iter().filter(|m| m.flushable()).collect();
            want_walk.sort_by_key(|m| (m.typ == EntryType::Random, m.used));
            prop_assert_eq!(walk, want_walk.iter().map(|m| m.id).collect::<Vec<_>>());

            // Range queries on a probe: random (starting inside, ending
            // inside, covering or missing entries), or aligned to an
            // entry's start or end, where off-by-one errors live.
            let (file, offset, len) = match (model.get(pick), b >> 48 & 3) {
                (Some(m), 0) => {
                    let d = (a >> 30) % m.len;
                    (m.file, m.offset + d, m.len - d)
                }
                (Some(m), 1) => (m.file, m.offset, 1 + (a >> 30) % (m.len + 4 * KB)),
                _ => (FileHandle(1 + (b >> 50) % 2), (b >> 20) % (200 * KB), 1 + (a >> 30) % (16 * KB)),
            };
            let covering = model
                .iter()
                .find(|m| {
                    m.file == file && !m.pending
                        && m.offset <= offset && offset + len <= m.offset + m.len
                })
                .map(|m| m.id);
            prop_assert_eq!(t.lookup_covering(file, offset, len).map(|e| e.id), covering);
            let mut overlapping: Vec<&ModelEntry> = model
                .iter()
                .filter(|m| m.file == file && m.overlaps(offset, len))
                .collect();
            overlapping.sort_by_key(|m| m.offset);
            let want: Vec<u64> = overlapping.iter().map(|m| m.id).collect();
            let mut got = vec![u64::MAX]; // appends after existing contents
            t.find_overlaps_into(file, offset, len, &mut got);
            prop_assert_eq!(&got[1..], &want[..]);
            prop_assert_eq!(t.has_overlap(file, offset, len), !want.is_empty());
        }
    }

    /// Histogram: totals, fractions and quantiles stay consistent.
    #[test]
    fn histogram_invariants(keys in prop::collection::vec(0u64..1000, 1..200)) {
        let mut h = Histogram::new();
        for &k in &keys {
            h.record(k);
        }
        prop_assert_eq!(h.total(), keys.len() as u64);
        let sum: f64 = h.iter().map(|(k, _)| h.fraction(k)).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let q0 = h.quantile(0.0).unwrap();
        let q1 = h.quantile(1.0).unwrap();
        prop_assert_eq!(q0, *keys.iter().min().unwrap());
        prop_assert_eq!(q1, *keys.iter().max().unwrap());
        prop_assert!(h.mean() >= q0 as f64 && h.mean() <= q1 as f64);
    }

    /// Trace synthesis stays within its span and save/load round-trips.
    #[test]
    fn trace_synthesis_invariants(seed in 0u64..1000, n in 1usize..300) {
        let span = 1u64 << 28;
        let t = Trace::synthesize(&AppProfile::cth(), n, span, seed);
        prop_assert_eq!(t.records.len(), n);
        prop_assert!(t.span() <= span);
        let mut buf = Vec::new();
        t.save(&mut buf).unwrap();
        let back = Trace::load(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(t, back);
    }

    /// A tiny random cluster run completes with bytes conserved, for any
    /// mix of request sizes.
    #[test]
    fn random_workload_completes(
        sizes in prop::collection::vec(1u64..(200 * KB), 1..12),
        seed in 0u64..50,
    ) {
        #[derive(Debug)]
        struct Mixed {
            sizes: Vec<u64>,
        }
        impl Workload for Mixed {
            fn procs(&self) -> usize {
                2
            }
            fn next(&mut self, proc: usize, iter: u64) -> Option<WorkItem> {
                let i = iter as usize;
                if i >= self.sizes.len() {
                    return None;
                }
                let len = self.sizes[i];
                Some(WorkItem {
                    req: FileRequest {
                        dir: IoDir::Write,
                        file: FileHandle(1),
                        // Disjoint lanes per proc.
                        offset: (proc as u64) << 26 | (i as u64) << 18,
                        len,
                    },
                    think: SimDuration::ZERO,
                })
            }
        }
        // The online invariant auditor is armed: any accounting or
        // index drift panics the run instead of passing silently.
        let mut c = ibridge_cluster(
            ClusterConfig {
                seed,
                audit_interval: Some(SimDuration::from_millis(2)),
                ..Default::default()
            },
            10 << 30,
        );
        let expect: u64 = sizes.iter().sum::<u64>() * 2;
        let stats = c.run(&mut Mixed { sizes });
        prop_assert_eq!(stats.bytes, expect);
        for s in &stats.servers {
            prop_assert_eq!(s.policy.dirty_bytes, 0);
        }
    }
}
