//! Property test of restart semantics: a restart keeps exactly the
//! dirty entries.
//!
//! Checkpoints hold dirty entries only and recovery drops every clean
//! entry, so whatever mix of writes, overwrites, writeback, admissions
//! and log maintenance ran before a crash, the recovered mapping table
//! must be the pre-crash dirty set — same ranges, same log extents —
//! with no clean entry left over and the auditor passing throughout.

use ibridge_repro::core::{IBridgeConfig, IBridgePolicy};
use ibridge_repro::prelude::*;
use ibridge_repro::pvfs::{CachePolicy, EntryId, FlushOp, Placement};
use proptest::prelude::*;

const KB: u64 = 1024;

/// A small policy with maintenance hot: a 128 KB log that wraps every
/// few dozen writes, 1 KB backup segments and a checkpoint every 16
/// appends, so checkpoints, compactions and reclaims all fire.
fn policy(checkpoint_every: u64) -> IBridgePolicy {
    let mut cfg = IBridgeConfig::with_capacity(0, 128 << 10);
    cfg.segment_bytes = 512;
    cfg.checkpoint_every = checkpoint_every;
    let mut p = IBridgePolicy::new(cfg);
    // The first disk request seeds the Eq. (1) average; later far
    // requests then carry a positive return.
    p.place(
        SimTime::ZERO,
        &sub(IoDir::Write, ReqClass::Bulk, 0, 64 * KB),
        0,
    );
    p
}

fn sub(dir: IoDir, class: ReqClass, offset: u64, len: u64) -> SubRequest {
    SubRequest {
        dir,
        file: FileHandle(1),
        server: 0,
        offset,
        len,
        class,
    }
}

/// A dirty entry as `(file, offset, len, [(lbn, sectors)])`.
type DirtyEntry = (u64, u64, u64, Vec<(u64, u64)>);

/// The dirty entries, sorted.
fn dirty_set(p: &IBridgePolicy) -> Vec<DirtyEntry> {
    let mut out: Vec<_> = p
        .table()
        .entries()
        .filter(|e| e.dirty)
        .map(|e| {
            let extents = e.extents.iter().map(|x| (x.lbn, x.sectors)).collect();
            (e.file.0, e.offset, e.len, extents)
        })
        .collect();
    out.sort();
    out
}

proptest! {
    /// Random op sequences, then a restart: the recovered table equals
    /// the pre-crash dirty set exactly and holds no clean entry.
    ///
    /// Each op is `(kind, slot, n)`. Ranges sit on a 2 KB grid and run
    /// 1-4 KB, so writes overlap their neighbours partially as well as
    /// fully.
    #[test]
    fn restart_keeps_exactly_the_dirty_set(
        ops in prop::collection::vec((0u8..8, 0u64..24, 1u64..5), 1..240),
        checkpoint_every in 4u64..64,
    ) {
        let mut p = policy(checkpoint_every);
        let mut flushing: Vec<FlushOp> = Vec::new();
        let mut pending: Vec<EntryId> = Vec::new();
        for &(kind, slot, n) in &ops {
            let offset = (1 << 20) + slot * 2 * KB;
            match kind {
                // Redirected writes and overwrites, in both classes.
                0 => {
                    let class = ReqClass::Fragment { siblings: SiblingList::one(1) };
                    p.place(SimTime::ZERO, &sub(IoDir::Write, class, offset, n * KB), 900_000_000);
                }
                1 => {
                    let s = sub(IoDir::Write, ReqClass::Random, offset, n * KB);
                    p.place(SimTime::ZERO, &s, 900_000_000);
                }
                // A bulk overwrite: invalidates what it covers, goes to disk.
                2 => {
                    let s = sub(IoDir::Write, ReqClass::Bulk, offset, n * KB);
                    p.place(SimTime::ZERO, &s, 900_000_000);
                }
                3 => flushing.extend(p.flush_batch(SimTime::ZERO, n * 2 * KB)),
                4 => {
                    if !flushing.is_empty() {
                        let op = flushing.remove(slot as usize % flushing.len());
                        p.flush_complete(SimTime::ZERO, op.id);
                    }
                }
                // A read: a hit, or a miss that may admit the range.
                5 => {
                    let class = ReqClass::Fragment { siblings: SiblingList::one(1) };
                    let s = sub(IoDir::Read, class, offset, n * KB);
                    let pl = p.place(SimTime::ZERO, &s, 900_000_000);
                    if pl == (Placement::Disk { admit_after_read: true }) {
                        if let Some((id, _)) = p.read_admission(SimTime::ZERO, &s) {
                            pending.push(id);
                        }
                    }
                }
                6 => {
                    if !pending.is_empty() {
                        let id = pending.remove(slot as usize % pending.len());
                        p.admission_complete(SimTime::ZERO, id);
                    }
                }
                _ => p.log_maintenance(SimTime::ZERO, n > 1),
            }
            p.audit().map_err(TestCaseError::fail)?;
        }

        let before = dirty_set(&p);
        let dirty_bytes = p.dirty_bytes();
        let r = p.server_restart(SimTime::ZERO);
        p.audit().map_err(TestCaseError::fail)?;
        prop_assert!(
            p.table().entries().all(|e| e.dirty),
            "a clean entry survived the restart"
        );
        prop_assert_eq!(dirty_set(&p), before);
        prop_assert_eq!(r.records_quarantined, 0);
        prop_assert_eq!(r.dirty_bytes_lost, 0);
        prop_assert_eq!(r.dirty_bytes_kept, dirty_bytes);

        // A second restart is a fixed point.
        p.server_restart(SimTime::ZERO);
        prop_assert_eq!(dirty_set(&p), before);
        p.audit().map_err(TestCaseError::fail)?;
    }
}
