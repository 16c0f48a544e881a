//! Metadata-service availability (beyond the paper).
//!
//! The paper's testbed runs one PVFS2 metadata server; iBridge routes
//! the per-server T-value reports (Eq. 1) through it, so its loss
//! degrades clients to stale steering decisions until a restart. This
//! experiment contrasts that single MDS with a raft-style replicated
//! group (`--mds-replicas`, `crates/mds`): the same checkpoint workload
//! runs under each MDS fault plan at 1 and 3 replicas, and the table
//! reports the availability counters side by side — stalled/dropped
//! T-broadcasts and stale-T client decisions for the single MDS versus
//! elections, leader changes and leaderless (recovery) time for the
//! group.
//!
//! Election timeouts and fault schedules all derive from the experiment
//! seed, so the table is byte-identical at any `--jobs` level.

use crate::runpar::par_map;
use crate::{Scale, Table, FILE_A};
use ibridge_core::ibridge_cluster;
use ibridge_des::SimDuration;
use ibridge_faults::{builtin, FaultPlan};
use ibridge_pvfs::{ClusterConfig, RunStats, ServerConfig};
use ibridge_workloads::CheckpointWorkload;

/// The MDS-fault plans this table covers, against the faultless row.
const PLANS: &[&str] = &["none", "mds-crash", "mds-failover", "mds-partition"];

/// Replica counts contrasted per plan.
const REPLICAS: &[usize] = &[1, 3];

/// Fixed probe shape: a checkpoint run long enough (10 epochs, 25 ms of
/// compute each) that the builtin MDS fault windows (80–200 ms) fall
/// mid-run, with a 5 ms T-report cadence so the downtime overlaps many
/// reports. Only the seed and driver knobs follow the CLI.
fn probe(scale: &Scale, replicas: usize, plan: &FaultPlan) -> RunStats {
    let cfg = ClusterConfig {
        n_servers: 4,
        mds_replicas: replicas,
        report_interval: SimDuration::from_millis(5),
        server: ServerConfig {
            ra_budget: scale.page_cache,
            ..Default::default()
        },
        ..scale.cluster_config()
    };
    let mut cluster = ibridge_cluster(cfg, scale.ssd_capacity);
    let mut w = CheckpointWorkload::new(
        FILE_A,
        4,
        1 << 20,
        60 * 1024,
        10,
        SimDuration::from_millis(25),
    );
    cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
    cluster.set_fault_plan(plan);
    cluster.run(&mut w)
}

/// The `mds-ha` experiment: one row per (replicas, plan) pair.
pub fn run(scale: &Scale) -> String {
    let cases: Vec<(usize, String, FaultPlan)> = REPLICAS
        .iter()
        .flat_map(|&r| {
            PLANS.iter().map(move |&name| {
                let text = builtin(name).expect("builtin listed");
                let plan = FaultPlan::parse(text).expect("builtin parses");
                (r, name.to_string(), plan)
            })
        })
        .collect();
    let results = par_map(cases.clone(), |(r, _, plan)| probe(scale, r, &plan));

    let mut t = Table::new(
        "MDS availability — checkpoint workload under MDS faults (iBridge, 4 servers)",
        &[
            "replicas",
            "plan",
            "MB/s",
            "stalled",
            "stale-T",
            "elections",
            "leader-chg",
            "recovery-ms",
            "failed",
        ],
    );
    for ((replicas, name, _), stats) in cases.iter().zip(&results) {
        let f = &stats.faults;
        t.row(&[
            replicas.to_string(),
            name.clone(),
            format!("{:.1}", stats.throughput_mbps()),
            f.stalled_broadcasts.to_string(),
            f.stale_t_decisions.to_string(),
            f.mds_elections.to_string(),
            f.mds_leader_changes.to_string(),
            format!("{:.1}", f.mds_recovery_ticks as f64 / 1e6),
            f.failed_subs.to_string(),
        ]);
    }
    format!(
        "{}With one replica an MDS crash or partition drops every T-report \
         in its window ('stalled') and clients steer on stale tables \
         ('stale-T') until the restart. With three replicas the group \
         re-elects within a few milliseconds ('elections', 'leader-chg'); \
         'recovery-ms' is total leaderless virtual time, including the \
         startup election. No plan loses requests either way ('failed').\n\n",
        t.block()
    )
}
