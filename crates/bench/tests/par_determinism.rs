//! Host-parallelism must not change any simulated result: every cluster
//! run lives in its own virtual time, so `--jobs N` may only change the
//! wall clock. These tests run the same job matrix at different worker
//! counts and require *identical* outputs — not approximately equal.
//!
//! The fingerprint is the full `Debug` rendering of `RunStats`: Rust's
//! `f64` Debug format is shortest-roundtrip, so two renderings are equal
//! iff every float is bit-identical.

use ibridge_bench::runpar::par_map_jobs;
use ibridge_bench::{build, experiments, run_once, Scale, System, FILE_A};
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_faults::{builtin, FaultPlan};
use ibridge_workloads::{CheckpointWorkload, MpiIoTest};

const KB: u64 = 1024;

fn small_scale(seed: u64) -> Scale {
    Scale {
        stream_bytes: 16 << 20,
        seed,
        ..Scale::quick()
    }
}

/// One input of the worker-count check.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// An mpi-io-test write stream: (seed, system, request size).
    Stream(u64, System, u64),
    /// A checkpoint run under a fault plan: (plan text, seed).
    Faults(&'static str, u64),
    /// A replicated-MDS run under a failover plan: (plan text, seed).
    Mds(&'static str, u64),
}

fn matrix() -> Vec<Job> {
    let mut jobs = Vec::new();
    for seed in [42u64, 7, 19] {
        for system in [System::Stock, System::IBridge] {
            for size in [64 * KB, 65 * KB] {
                jobs.push(Job::Stream(seed, system, size));
            }
        }
    }
    // "crash" kills and restarts a server (crash teardown, drain kicks
    // and restart recovery); "net" drops, delays and duplicates
    // messages on the client↔server links; the combined plan runs both
    // at once so a crash lands while impaired replies are in flight.
    let combined = "retry timeout=60ms backoff=2 max=10\n\
         crash server=1 at=120ms restart=80ms\n\
         net from=40ms until=400ms drop=0.05 delay=0.10 delay-by=3ms dup=0.03\n";
    for plan in [
        builtin("crash").expect("builtin"),
        builtin("net").expect("builtin"),
        combined,
    ] {
        for seed in [42u64, 7] {
            jobs.push(Job::Faults(plan, seed));
        }
    }
    for plan in ["mds-failover", "mds-partition"] {
        jobs.push(Job::Mds(builtin(plan).expect("builtin"), 42));
    }
    jobs
}

fn run_job(job: Job) -> String {
    let stats = match job {
        Job::Stream(seed, system, size) => {
            let scale = small_scale(seed);
            let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 16, size, scale.stream_bytes);
            let span = w.span_bytes();
            run_once(system, 4, &scale, span, &mut w)
        }
        Job::Faults(plan, seed) => {
            // The `faults` experiment's probe: a checkpoint workload long
            // enough (hundreds of virtual milliseconds) that the plans'
            // fault windows land mid-run.
            let mut cluster = build(System::IBridge, 4, &small_scale(seed));
            let mut w = CheckpointWorkload::new(
                FILE_A,
                4,
                1 << 20,
                60 * 1024,
                4,
                SimDuration::from_millis(25),
            );
            cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
            cluster.set_fault_plan(&FaultPlan::parse(plan).expect("parses"));
            let stats = cluster.run(&mut w);
            assert!(
                stats.faults.crashes > 0 || stats.faults.dropped_messages > 0,
                "no fault landed — probe too short\nplan:\n{plan}"
            );
            stats
        }
        Job::Mds(plan, seed) => {
            // The `mds-ha` experiment's shape (4-server iBridge, 5 ms
            // T-report cadence, 3-replica group), so elections, log
            // replication, leader-crash fencing and the broadcast
            // fan-out all run.
            let scale = small_scale(seed);
            let cfg = ibridge_pvfs::ClusterConfig {
                n_servers: 4,
                seed: scale.seed,
                mds_replicas: 3,
                report_interval: SimDuration::from_millis(5),
                ..Default::default()
            };
            let mut cluster = ibridge_core::ibridge_cluster(cfg, scale.ssd_capacity);
            let mut w = CheckpointWorkload::new(
                FILE_A,
                4,
                1 << 20,
                60 * 1024,
                10,
                SimDuration::from_millis(25),
            );
            cluster.preallocate(FILE_A, w.span_bytes() + (1 << 20));
            cluster.set_fault_plan(&FaultPlan::parse(plan).expect("parses"));
            let stats = cluster.run(&mut w);
            assert!(
                stats.faults.mds_elections >= 2 && stats.faults.mds_crashes == 1,
                "failover did not land — probe too short: {:?}",
                stats.faults
            );
            stats
        }
    };
    format!("{stats:?}")
}

#[test]
fn multi_seed_throughputs_identical_across_worker_counts() {
    let baseline = par_map_jobs(1, matrix(), run_job);
    for workers in [2, 8] {
        let par = par_map_jobs(workers, matrix(), run_job);
        assert_eq!(par, baseline, "workers={workers} changed simulated results");
    }
}

#[test]
fn rendered_experiment_is_byte_identical_across_worker_counts() {
    // Render a full experiment (its internal par_map uses the shared
    // token pool) at two budgets; the text must match byte for byte.
    // Runs in its own test binary, so set_jobs cannot race other tests.
    let scale = small_scale(42);
    ibridge_bench::runpar::set_jobs(1);
    let seq = experiments::fig2::fig2a(&scale);
    ibridge_bench::runpar::set_jobs(8);
    let par = experiments::fig2::fig2a(&scale);
    ibridge_bench::runpar::set_jobs(1);
    assert_eq!(seq, par, "fig2a output must not depend on --jobs");
}
