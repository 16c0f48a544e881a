//! Property-based tests of the fault-injection & recovery subsystem.
//!
//! Three invariants back the failure model (see `crates/faults`):
//!
//! 1. **Exactly-once completion** — whatever the network and servers do
//!    (drops, duplicates, crashes, retries), every application request
//!    completes exactly once at the client; a retried sub-request is
//!    never double-applied to a parent.
//! 2. **No resurrection** — replaying the on-SSD mapping-table backup
//!    after a restart never brings back an entry the restart
//!    invalidated (clean or in-flight admissions).
//! 3. **Faultless inertness** — a plan that injects nothing (e.g. only
//!    a `retry` line) is byte-identical to running with no plan at all.
//! 4. **Crash-consistent recovery** — for randomized crash points under
//!    torn-write/bit-rot corruption, the recovery fsck never resurrects
//!    a corrupted or invalidated entry, never loses an intact dirty
//!    entry, and the online invariant auditor passes after every
//!    restart (every cluster run here has the auditor armed).
//! 5. **Auditor inertness** — the auditor is read-only: a faultless run
//!    with it enabled is byte-identical to one without it.

use ibridge_repro::core::{IBridgeConfig, IBridgePolicy};
use ibridge_repro::prelude::*;
use ibridge_repro::pvfs::{BitRotTarget, CachePolicy, LogCorruption, Placement};
use ibridge_repro::workloads::CheckpointWorkload;
use proptest::prelude::*;

const KB: u64 = 1024;
const MB: u64 = 1 << 20;

// ---------------------------------------------------------------------
// Cluster-level properties.
// ---------------------------------------------------------------------

/// A small unaligned checkpoint run on a 4-server iBridge cluster, with
/// the online invariant auditor armed (any violation panics the run).
fn faulty_run(seed: u64, plan: &FaultPlan) -> RunStats {
    audited_run(seed, plan, Some(SimDuration::from_millis(3)))
}

/// Same run with an explicit auditor cadence (`None` disables it).
fn audited_run(seed: u64, plan: &FaultPlan, audit: Option<SimDuration>) -> RunStats {
    let cfg = ClusterConfig {
        n_servers: 4,
        seed,
        audit_interval: audit,
        ..Default::default()
    };
    let mut cluster = ibridge_cluster(cfg, 64 << 20);
    let file = FileHandle(1);
    let mut w = CheckpointWorkload::new(file, 4, 128 * KB, 24 * KB, 2, SimDuration::from_millis(5));
    cluster.preallocate(file, w.span_bytes() + MB);
    cluster.set_fault_plan(plan);
    cluster.run(&mut w)
}

proptest! {
    /// Exactly-once: under a randomized crash schedule plus message
    /// drops and duplications, every parent request completes exactly
    /// once (the latency histogram records one sample per request), and
    /// no request is lost as long as retries are not exhausted.
    #[test]
    fn no_sub_request_is_double_applied(
        seed in 0u64..1000,
        crash_at_ms in 1u64..12,
        restart_ms in 5u64..25,
        drop_pct in 0u32..25,
        dup_pct in 0u32..20,
    ) {
        let text = format!(
            "retry timeout=4ms backoff=2 max=14\n\
             crash server=0 at={crash_at_ms}ms restart={restart_ms}ms\n\
             net from=0ms until=60ms drop=0.{drop_pct:02} dup=0.{dup_pct:02}\n"
        );
        let plan = FaultPlan::parse(&text).expect("generated plan parses");
        let stats = faulty_run(seed, &plan);
        // One completion per request — duplicates and retries collapse.
        prop_assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        // Generous retry budget: nothing may be abandoned.
        prop_assert_eq!(stats.faults.failed_subs, 0);
        prop_assert_eq!(stats.faults.crashes, 1);
        prop_assert_eq!(stats.faults.restarts, 1);
    }

    /// Inertness: arming a faultless plan (retry policy only, nothing
    /// scheduled, no impairments) leaves the simulation byte-identical
    /// to running with no plan at all.
    #[test]
    fn faultless_plan_is_identical_to_no_plan(seed in 0u64..1000) {
        let plan = FaultPlan::parse("retry timeout=9ms backoff=3 max=2\n").unwrap();
        prop_assert!(plan.is_faultless());
        let with = faulty_run(seed, &plan);
        let without = faulty_run(seed, &FaultPlan::default());
        prop_assert_eq!(
            (with.elapsed, with.events_dispatched, with.bytes, with.requests),
            (
                without.elapsed,
                without.events_dispatched,
                without.bytes,
                without.requests
            )
        );
        prop_assert!(with.faults.is_zero());
    }

    /// Auditor inertness: the online invariant auditor is read-only, so
    /// a faultless run with it armed is byte-identical to one without.
    #[test]
    fn audited_run_is_identical_to_unaudited(seed in 0u64..1000) {
        let plan = FaultPlan::default();
        let with = audited_run(seed, &plan, Some(SimDuration::from_millis(2)));
        let without = audited_run(seed, &plan, None);
        prop_assert_eq!(
            (with.elapsed, with.events_dispatched, with.bytes, with.requests),
            (
                without.elapsed,
                without.events_dispatched,
                without.bytes,
                without.requests
            )
        );
    }

    /// Crash-consistent recovery under randomized corruption: whatever
    /// crash point and damage a torn-write or bit-rot plan picks, every
    /// request still completes exactly once, the recovery fsck
    /// quarantines no more than it scans, and the armed auditor passes
    /// after every restart (a violation would panic the run).
    #[test]
    fn corrupted_restart_recovers_consistently(
        seed in 0u64..400,
        crash_at_ms in 5u64..60,
        restart_ms in 5u64..30,
        records in 1u32..4,
        sectors in 1u32..6,
        bit_rot in any::<bool>(),
    ) {
        let text = if bit_rot {
            format!(
                "retry timeout=4ms backoff=2 max=14\n\
                 bit-rot server=0 at={}ms sectors={sectors}\n\
                 crash server=0 at={crash_at_ms}ms restart={restart_ms}ms\n",
                crash_at_ms.saturating_sub(2).max(1),
            )
        } else {
            format!(
                "retry timeout=4ms backoff=2 max=14\n\
                 torn-write server=0 at={crash_at_ms}ms restart={restart_ms}ms \
                 records={records}\n"
            )
        };
        let plan = FaultPlan::parse(&text).expect("generated plan parses");
        let stats = faulty_run(seed, &plan);
        // Exactly-once completion survives the corrupted restart.
        prop_assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        prop_assert_eq!(stats.faults.failed_subs, 0);
        prop_assert_eq!(stats.faults.crashes, 1);
        prop_assert_eq!(stats.faults.restarts, 1);
        // The fsck scanned the backup and never quarantined more than
        // it scanned; lost dirty bytes require a quarantined record.
        prop_assert!(
            stats.faults.fsck_records_quarantined <= stats.faults.fsck_records_scanned
        );
        if stats.faults.dirty_bytes_lost > 0 {
            prop_assert!(stats.faults.fsck_records_quarantined > 0);
        }
    }
}

/// MDS downtime stalls T-value broadcasts without losing data: servers
/// and clients keep working on last-known T values, every byte still
/// moves, and reporting resumes after the MDS restart.
#[test]
fn mds_crash_degrades_to_stale_t_values() {
    let plan = FaultPlan::parse("mds-crash at=10ms restart=25ms\n").unwrap();
    let run = |plan: &FaultPlan| {
        let cfg = ClusterConfig {
            n_servers: 4,
            seed: 11,
            audit_interval: Some(SimDuration::from_millis(3)),
            report_interval: SimDuration::from_millis(5),
            ..Default::default()
        };
        let mut cluster = ibridge_cluster(cfg, 64 << 20);
        let file = FileHandle(1);
        let mut w =
            CheckpointWorkload::new(file, 4, 128 * KB, 24 * KB, 2, SimDuration::from_millis(5));
        cluster.preallocate(file, w.span_bytes() + MB);
        cluster.set_fault_plan(plan);
        cluster.run(&mut w)
    };
    let faulty = run(&plan);
    let healthy = run(&FaultPlan::default());
    // Reports sent during the 15 ms of downtime were dropped...
    assert_eq!(faulty.faults.mds_crashes, 1);
    assert_eq!(faulty.faults.mds_restarts, 1);
    assert!(
        faulty.faults.stalled_broadcasts > 0,
        "downtime must overlap at least one T-report"
    );
    // ...but no data or requests were lost: clients degraded to their
    // last-known T values and kept going.
    assert_eq!(faulty.bytes, healthy.bytes);
    assert_eq!(faulty.requests, healthy.requests);
    assert_eq!(faulty.latency_hist_ms.total(), faulty.requests);
    assert_eq!(faulty.faults.failed_subs, 0);
}

// ---------------------------------------------------------------------
// Replicated metadata service (`mds_replicas > 1`, crates/mds).
// ---------------------------------------------------------------------

/// The checkpoint shape of `mds_crash_degrades_to_stale_t_values` on a
/// cluster whose metadata service runs as an N-replica raft-style
/// group. The auditor is armed, and every broadcast carries a monotone
/// metadata version that the servers assert on receipt — a T-table
/// regression (e.g. a stale leader's commit surviving a partition)
/// would panic the run.
fn mds_run(seed: u64, replicas: usize, plan: &FaultPlan) -> RunStats {
    let cfg = ClusterConfig {
        n_servers: 4,
        seed,
        audit_interval: Some(SimDuration::from_millis(3)),
        report_interval: SimDuration::from_millis(5),
        mds_replicas: replicas,
        ..Default::default()
    };
    let mut cluster = ibridge_cluster(cfg, 64 << 20);
    let file = FileHandle(1);
    let mut w = CheckpointWorkload::new(file, 4, 128 * KB, 24 * KB, 2, SimDuration::from_millis(5));
    cluster.preallocate(file, w.span_bytes() + MB);
    cluster.set_fault_plan(plan);
    cluster.run(&mut w)
}

proptest! {
    /// Failover safety: whatever moment the leader crashes or is
    /// partitioned away, every request completes exactly once, nothing
    /// is abandoned, and T-value monotonicity survives the election —
    /// the per-server broadcast-version assertion and the armed auditor
    /// turn any regression into a panic.
    #[test]
    fn replicated_mds_failover_completes_exactly_once(
        seed in 0u64..400,
        at_ms in 2u64..15,
        back_ms in 5u64..25,
        partition in any::<bool>(),
    ) {
        let text = if partition {
            format!("mds-partition at={at_ms}ms heal={back_ms}ms\n")
        } else {
            format!("mds-failover at={at_ms}ms restart={back_ms}ms\n")
        };
        let plan = FaultPlan::parse(&text).expect("generated plan parses");
        let stats = mds_run(seed, 3, &plan);
        prop_assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        prop_assert_eq!(stats.faults.failed_subs, 0);
        prop_assert_eq!(stats.faults.mds_crashes, 1);
    }

    /// The same failover schedules on a 5-replica group: a larger
    /// majority changes the election arithmetic but none of the safety
    /// properties.
    #[test]
    fn five_replica_group_holds_the_same_properties(
        seed in 0u64..200,
        at_ms in 2u64..15,
        back_ms in 5u64..25,
    ) {
        let text = format!("mds-failover at={at_ms}ms restart={back_ms}ms\n");
        let plan = FaultPlan::parse(&text).expect("generated plan parses");
        let stats = mds_run(seed, 5, &plan);
        prop_assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        prop_assert_eq!(stats.faults.failed_subs, 0);
        prop_assert_eq!(stats.faults.mds_crashes, 1);
    }
}

/// Availability contrast on the same failover schedule: a single MDS
/// degrades to stale T values (reports dropped until the restart),
/// while a 3-replica group re-elects within milliseconds and keeps
/// committing fresh T reports — no broadcast is lost.
#[test]
fn replicated_mds_failover_restores_fresh_t_values() {
    let plan = FaultPlan::parse("mds-failover at=10ms restart=25ms\n").unwrap();
    let single = mds_run(11, 1, &plan);
    let replicated = mds_run(11, 3, &plan);
    // One replica: the legacy degradation (as in
    // `mds_crash_degrades_to_stale_t_values`).
    assert_eq!(single.faults.mds_crashes, 1);
    assert_eq!(single.faults.mds_elections, 0);
    assert!(
        single.faults.stalled_broadcasts > 0,
        "downtime must drop T-reports on the single-MDS path"
    );
    // Three replicas: the crash forces a re-election onto a different
    // replica, and every report sent during the leaderless window is
    // retried into the new leader's log instead of being dropped.
    assert_eq!(replicated.faults.mds_crashes, 1);
    assert!(
        replicated.faults.mds_elections >= 2,
        "leader crash must force a re-election: {:?}",
        replicated.faults
    );
    assert!(
        replicated.faults.mds_leader_changes >= 2,
        "a different replica must take over: {:?}",
        replicated.faults
    );
    assert_eq!(
        replicated.faults.stalled_broadcasts, 0,
        "the group must not lose T-reports across the failover"
    );
    assert!(replicated.faults.mds_recovery_ticks > 0);
    // Neither path loses data or requests.
    for stats in [&single, &replicated] {
        assert_eq!(stats.latency_hist_ms.total(), stats.requests);
        assert_eq!(stats.faults.failed_subs, 0);
    }
    assert_eq!(single.bytes, replicated.bytes);
    assert_eq!(single.requests, replicated.requests);
}

// ---------------------------------------------------------------------
// Policy-level properties: mapping-table replay after restart.
// ---------------------------------------------------------------------

fn policy() -> IBridgePolicy {
    IBridgePolicy::new(IBridgeConfig::with_capacity(0, 64 << 20))
}

fn frag(dir: IoDir, offset: u64, len: u64) -> SubRequest {
    SubRequest {
        dir,
        file: FileHandle(1),
        server: 0,
        offset,
        len,
        class: ReqClass::Fragment {
            siblings: SiblingList::one(1),
        },
    }
}

fn bulk(dir: IoDir, offset: u64, len: u64) -> SubRequest {
    SubRequest {
        dir,
        file: FileHandle(1),
        server: 0,
        offset,
        len,
        class: ReqClass::Bulk,
    }
}

/// Warms the disk-time model (so fragment returns are positive) and
/// creates one dirty entry per `dirty` offset (redirected writes) plus
/// one clean entry per `clean` offset (completed read admissions).
fn seed_entries(p: &mut IBridgePolicy, dirty: &[u64], clean: &[u64]) {
    p.place(SimTime::ZERO, &bulk(IoDir::Write, 0, 64 * KB), 0);
    for &off in dirty {
        let pl = p.place(SimTime::ZERO, &frag(IoDir::Write, off, KB), 900_000_000);
        assert!(matches!(pl, Placement::Ssd { .. }), "write must redirect");
    }
    for &off in clean {
        let sub = frag(IoDir::Read, off, KB);
        let pl = p.place(SimTime::ZERO, &sub, 900_000_000);
        assert_eq!(
            pl,
            Placement::Disk {
                admit_after_read: true
            }
        );
        let (entry, _) = p.read_admission(SimTime::ZERO, &sub).expect("admits");
        p.admission_complete(SimTime::ZERO, entry);
    }
}

proptest! {
    /// Replay keeps exactly the dirty entries and drops the clean ones;
    /// after the restart, reads of dropped ranges miss (go to disk) and
    /// reads of dirty ranges still hit the SSD. A second restart finds
    /// nothing new to drop — invalidated entries stay invalidated.
    #[test]
    fn replay_never_resurrects_invalidated_entries(
        n_dirty in 1usize..6,
        n_clean in 1usize..6,
    ) {
        let mut p = policy();
        let dirty: Vec<u64> = (0..n_dirty as u64).map(|i| (i + 1) * MB).collect();
        let clean: Vec<u64> = (0..n_clean as u64).map(|i| (i + 100) * MB).collect();
        seed_entries(&mut p, &dirty, &clean);

        let r1 = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r1.dirty_entries_kept, n_dirty as u64);
        prop_assert_eq!(r1.dirty_bytes_kept, n_dirty as u64 * KB);
        prop_assert_eq!(r1.clean_entries_dropped, n_clean as u64);
        prop_assert_eq!(p.dirty_bytes(), n_dirty as u64 * KB);

        // Dirty data survives the crash (it was durable on the SSD)...
        for &off in &dirty {
            let pl = p.place(SimTime::ZERO, &frag(IoDir::Read, off, KB), 900_000_000);
            prop_assert!(matches!(pl, Placement::Ssd { .. }), "dirty entry lost");
        }
        // ...while invalidated clean entries must NOT be resurrected.
        for &off in &clean {
            let pl = p.place(SimTime::ZERO, &frag(IoDir::Read, off, KB), 900_000_000);
            prop_assert!(
                matches!(pl, Placement::Disk { .. }),
                "invalidated entry resurrected at offset {off}"
            );
        }

        // A second replay is a fixed point: nothing new is dropped and
        // the dirty set is unchanged.
        let r2 = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r2.clean_entries_dropped, 0);
        prop_assert_eq!(r2.pending_entries_dropped, 0);
        prop_assert_eq!(r2.dirty_entries_kept, r1.dirty_entries_kept);
        prop_assert_eq!(r2.dirty_bytes_kept, r1.dirty_bytes_kept);
    }
}

proptest! {
    /// Torn-write recovery, randomized: tearing the `k` newest backup
    /// records loses exactly the `k` newest entries (clean ones first —
    /// they were being invalidated anyway) and nothing else. Intact
    /// dirty entries all survive, lost and invalidated ranges are never
    /// resurrected, the auditor passes after the restart, and a second
    /// restart finds nothing more to lose.
    #[test]
    fn torn_write_recovery_is_exact(
        n_dirty in 1usize..6,
        n_clean in 0usize..5,
        k in 1u32..9,
    ) {
        let mut p = policy();
        let dirty: Vec<u64> = (0..n_dirty as u64).map(|i| (i + 1) * MB).collect();
        let clean: Vec<u64> = (0..n_clean as u64).map(|i| (i + 100) * MB).collect();
        seed_entries(&mut p, &dirty, &clean);

        let total = n_dirty + n_clean;
        let hit = CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::TornWrite { records: k },
        );
        prop_assert_eq!(hit, (k as usize).min(total) as u64);

        // Entries were appended dirty-first, so seqs run dirty then
        // clean; tearing the k newest records reaches the dirty set
        // only after consuming every clean record.
        let lost_dirty = (k as usize).saturating_sub(n_clean).min(n_dirty);
        let r = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r.records_scanned, total as u64);
        prop_assert_eq!(r.records_quarantined, hit);
        prop_assert_eq!(r.dirty_entries_kept, (n_dirty - lost_dirty) as u64);
        prop_assert_eq!(r.dirty_bytes_lost, lost_dirty as u64 * KB);
        prop_assert_eq!(
            r.dirty_bytes_kept + r.dirty_bytes_lost,
            n_dirty as u64 * KB,
            "every dirty byte is either kept or accounted lost"
        );
        p.audit().expect("post-restart state is consistent");

        // Intact dirty entries (the oldest) all survive...
        for &off in &dirty[..n_dirty - lost_dirty] {
            let pl = p.place(SimTime::ZERO, &frag(IoDir::Read, off, KB), 900_000_000);
            prop_assert!(matches!(pl, Placement::Ssd { .. }), "intact dirty entry lost");
        }
        // ...while torn dirty and invalidated clean ranges stay gone.
        for &off in dirty[n_dirty - lost_dirty..].iter().chain(&clean) {
            let pl = p.place(SimTime::ZERO, &frag(IoDir::Read, off, KB), 900_000_000);
            prop_assert!(
                matches!(pl, Placement::Disk { .. }),
                "quarantined or invalidated entry resurrected at {off}"
            );
        }

        // The damage does not linger: a second restart loses nothing.
        let r2 = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r2.records_quarantined, 0);
        prop_assert_eq!(r2.dirty_bytes_lost, 0);
        prop_assert_eq!(r2.dirty_entries_kept, r.dirty_entries_kept);
        p.audit().expect("second restart is consistent");
    }

    /// Bit-rot recovery, randomized: every corrupted record is
    /// quarantined, every untouched dirty entry survives, dirty bytes
    /// are fully accounted as kept-or-lost, nothing quarantined is
    /// resurrected, and the auditor passes after every restart.
    #[test]
    fn bit_rot_recovery_never_resurrects_or_loses_intact(
        n_dirty in 1usize..6,
        n_clean in 0usize..5,
        sectors in 1u32..8,
        rot_seed in any::<u64>(),
    ) {
        let mut p = policy();
        let dirty: Vec<u64> = (0..n_dirty as u64).map(|i| (i + 1) * MB).collect();
        let clean: Vec<u64> = (0..n_clean as u64).map(|i| (i + 100) * MB).collect();
        seed_entries(&mut p, &dirty, &clean);

        let hit = CachePolicy::inject_corruption(
            &mut p,
            SimTime::ZERO,
            LogCorruption::BitRot { sectors, seed: rot_seed, target: BitRotTarget::Any },
        );
        prop_assert!(hit <= (n_dirty + n_clean) as u64);

        let r = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r.records_scanned, (n_dirty + n_clean) as u64);
        prop_assert_eq!(r.records_quarantined, hit, "every rotted record quarantined");
        prop_assert_eq!(
            r.dirty_bytes_kept + r.dirty_bytes_lost,
            n_dirty as u64 * KB,
            "every dirty byte is either kept or accounted lost"
        );
        p.audit().expect("post-restart state is consistent");

        // Each dirty range either survived intact or was lost to a
        // quarantined record — and the counts must agree exactly.
        let mut served = 0u64;
        for &off in &dirty {
            let pl = p.place(SimTime::ZERO, &frag(IoDir::Read, off, KB), 900_000_000);
            if matches!(pl, Placement::Ssd { .. }) {
                served += 1;
            }
        }
        prop_assert_eq!(served, r.dirty_entries_kept);
        // Invalidated clean entries are never resurrected, rotted or not.
        for &off in &clean {
            let pl = p.place(SimTime::ZERO, &frag(IoDir::Read, off, KB), 900_000_000);
            prop_assert!(
                matches!(pl, Placement::Disk { .. }),
                "invalidated entry resurrected at {off}"
            );
        }

        // A second restart is a fixed point.
        let r2 = p.server_restart(SimTime::ZERO);
        prop_assert_eq!(r2.records_quarantined, 0);
        prop_assert_eq!(r2.dirty_bytes_lost, 0);
        p.audit().expect("second restart is consistent");
    }
}

/// In-flight (pending) admissions were never durable: a crash while the
/// SSD write is outstanding drops them, and they cannot be read after
/// the restart.
#[test]
fn pending_admissions_do_not_survive_restart() {
    let mut p = policy();
    seed_entries(&mut p, &[MB], &[]);
    let sub = frag(IoDir::Read, 8 * MB, KB);
    let pl = p.place(SimTime::ZERO, &sub, 900_000_000);
    assert_eq!(
        pl,
        Placement::Disk {
            admit_after_read: true
        }
    );
    p.read_admission(SimTime::ZERO, &sub).expect("admits");
    // Crash strikes before `admission_complete`.
    let r = p.server_restart(SimTime::ZERO);
    assert_eq!(r.pending_entries_dropped, 1);
    assert_eq!(r.dirty_entries_kept, 1);
    let pl = p.place(SimTime::ZERO, &sub, 900_000_000);
    assert!(matches!(pl, Placement::Disk { .. }));
}

/// Losing the SSD device is worse than a crash: dirty bytes are gone
/// (reported as the durability cost), the cache is disabled, and the
/// policy degrades to disk-only service.
#[test]
fn ssd_loss_degrades_to_disk_only() {
    let mut p = policy();
    seed_entries(&mut p, &[MB, 2 * MB], &[100 * MB]);
    assert!(!p.is_degraded());
    let lost = p.ssd_lost(SimTime::ZERO);
    assert_eq!(lost, 2 * KB, "both dirty entries were unflushed");
    assert!(p.is_degraded());
    assert_eq!(p.dirty_bytes(), 0);
    // Every path now goes to the disk: no hits, no redirects, no
    // admissions.
    let pl = p.place(SimTime::ZERO, &frag(IoDir::Write, MB, KB), 900_000_000);
    assert_eq!(
        pl,
        Placement::Disk {
            admit_after_read: false
        }
    );
    let sub = frag(IoDir::Read, 100 * MB, KB);
    let pl = p.place(SimTime::ZERO, &sub, 900_000_000);
    assert_eq!(
        pl,
        Placement::Disk {
            admit_after_read: false
        }
    );
    assert!(p.read_admission(SimTime::ZERO, &sub).is_none());
}
