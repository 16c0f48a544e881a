//! The four benchmark workloads: cluster shape, seeded inputs and passes.
//!
//! Every workload is a closed loop: each simulated MPI process issues
//! its next request only when the previous one has completed. The seed
//! reaches the program only through generated inputs: the cluster's
//! client-jitter/fault-dice seed, the synthesized trace and the fault
//! plan. The SSD cache and the page cache start empty on every
//! repetition, as they do in every `expt` run.

use crate::trace::{self, Leaf, TracedPolicy};
use ibridge_core::{ibridge_cluster, stock_cluster, IBridgeConfig, IBridgePolicy};
use ibridge_des::rng::stream_rng;
use ibridge_des::SimDuration;
use ibridge_device::IoDir;
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{CachePolicy, Cluster, ClusterConfig, ServerConfig, StockPolicy, Workload};
use ibridge_workloads::{
    AppProfile, Btio, CheckpointWorkload, CombinedWorkload, MpiIoTest, Trace, TraceReplay,
};
use rand::Rng;

const KB: u64 = 1024;
const MB: u64 = 1 << 20;
const FILE_A: FileHandle = FileHandle(1);
const FILE_B: FileHandle = FileHandle(2);
/// Data servers in every workload (the paper's testbed).
const SERVERS: usize = 8;
/// Page-cache (readahead) budget per server: `expt`'s quick scale.
const PAGE_CACHE: u64 = 512 * KB;

/// Virtual-time cadence of the invariant auditor in the traced run. A
/// policy audit walks the whole mapping table, so a fine cadence would
/// dwarf the run it checks; every run also ends with a final audit.
const AUDIT_EVERY_S: u64 = 5;

/// `btio-ibridge`: bytes BTIO writes (and verifies) with 64 processes.
const BTIO_BYTES: u64 = 96 * MB;
/// `mpiio-stock`: bytes of the write pass (the read pass re-reads them).
const MPIIO_BYTES: u64 = 8192 * MB;
/// `mixed-ibridge-contended`: bytes the `mpi-io-test` reader moves.
const MIXED_MPI_BYTES: u64 = 2560 * MB;
/// `mixed-ibridge-contended`: S3D trace records replayed per pass.
const MIXED_TRACE_RECORDS: usize = 5_000;
/// `mixed-ibridge-contended`: span of the S3D trace's file.
const MIXED_TRACE_SPAN: u64 = 512 * MB;
/// `ckpt-faults`: checkpoint epochs (each overwrites the same records).
const CKPT_EPOCHS: u64 = 48;
/// `ckpt-faults`: bytes each process writes per epoch.
const CKPT_EPOCH_BYTES: u64 = 1200 * KB;
/// `ckpt-faults`: virtual time the fault plan spreads over (inside the
/// run, which lasts longer).
const CKPT_PLAN_SPAN_MS: u64 = 60_000;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spec {
    /// NAS BTIO on iBridge: tiny random writes redirected into the SSD
    /// log, then read back; `core` dominates.
    BtioIbridge,
    /// Unaligned `mpi-io-test` write then read on the stock cluster; the
    /// engine stack dominates and `core` is bypassed.
    MpiioStock,
    /// `mpi-io-test` reads plus an S3D trace on a contended iBridge
    /// cache, cold pass then warm pass: admission, hits, eviction.
    MixedIbridgeContended,
    /// Checkpoint bursts on iBridge with a replicated MDS under a seeded
    /// fault plan: crashes, torn writes, bit-rot, network faults, MDS
    /// failover.
    CkptFaults,
}

impl Spec {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Spec; 4] = [
        Spec::BtioIbridge,
        Spec::MpiioStock,
        Spec::MixedIbridgeContended,
        Spec::CkptFaults,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Spec::BtioIbridge => "btio-ibridge",
            Spec::MpiioStock => "mpiio-stock",
            Spec::MixedIbridgeContended => "mixed-ibridge-contended",
            Spec::CkptFaults => "ckpt-faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Spec> {
        Spec::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the workload runs without a fault plan (and so must drain
    /// every dirty byte and fail no sub-request).
    pub fn fault_free(self) -> bool {
        self != Spec::CkptFaults
    }

    /// Per-server SSD cache capacity; `None` is the stock cluster.
    fn ssd_capacity(self) -> Option<u64> {
        match self {
            // Larger than the data set: nothing is ever evicted.
            Spec::BtioIbridge | Spec::CkptFaults => Some(10 << 30),
            Spec::MpiioStock => None,
            // About a quarter of the data both programs touch.
            Spec::MixedIbridgeContended => {
                Some((MIXED_MPI_BYTES + MIXED_TRACE_SPAN) / 4 / SERVERS as u64)
            }
        }
    }

    /// Cluster configuration for `seed`; `audit` arms the online
    /// invariant auditor.
    pub fn config(self, seed: u64, audit: bool) -> ClusterConfig {
        ClusterConfig {
            n_servers: SERVERS,
            seed,
            mds_replicas: if self == Spec::CkptFaults { 3 } else { 1 },
            audit_interval: audit.then(|| SimDuration::from_secs(AUDIT_EVERY_S)),
            server: ServerConfig {
                ra_budget: PAGE_CACHE,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// Builds the cluster through the library's own helpers.
    pub fn build(self, cfg: ClusterConfig) -> Cluster {
        match self.ssd_capacity() {
            Some(cap) => ibridge_cluster(cfg, cap),
            None => stock_cluster(cfg),
        }
    }

    /// Builds the same cluster as [`Spec::build`] through `Cluster::new`,
    /// with every policy behind the traced run's [`TracedPolicy`]
    /// decorator and its construction timed as a `core` leaf span.
    pub fn build_traced(self, mut cfg: ClusterConfig) -> Cluster {
        let traced = |make: &dyn Fn() -> Box<dyn CachePolicy>| -> Box<dyn CachePolicy> {
            Box::new(TracedPolicy(trace::leaf(Leaf::CoreNew, make)))
        };
        match self.ssd_capacity() {
            Some(cap) => {
                cfg.flag_fragments = true;
                cfg.server.with_cache_dev = true;
                let disk = cfg.server.disk.clone();
                Cluster::new(cfg, move |id| {
                    traced(&|| {
                        let mut c = IBridgeConfig::with_capacity(id, cap);
                        c.disk = disk.clone();
                        Box::new(IBridgePolicy::new(c))
                    })
                })
            }
            None => {
                cfg.flag_fragments = false;
                cfg.server.with_cache_dev = false;
                Cluster::new(cfg, move |_| traced(&|| Box::new(StockPolicy::new())))
            }
        }
    }

    /// Files to preallocate and their logical sizes.
    pub fn files(self) -> Vec<(FileHandle, u64)> {
        match self {
            Spec::BtioIbridge => vec![(FILE_A, btio().span_bytes() + MB)],
            Spec::MpiioStock => vec![(FILE_A, mpiio(IoDir::Write).span_bytes() + MB)],
            Spec::MixedIbridgeContended => vec![
                (FILE_A, mixed_reader().span_bytes() + MB),
                (FILE_B, MIXED_TRACE_SPAN + MB),
            ],
            Spec::CkptFaults => vec![(FILE_A, ckpt().span_bytes() + MB)],
        }
    }

    /// Generates the workload's passes, run back to back on one cluster.
    pub fn passes(self, seed: u64) -> Vec<Box<dyn Workload>> {
        match self {
            Spec::BtioIbridge => vec![Box::new(btio())],
            Spec::MpiioStock => vec![Box::new(mpiio(IoDir::Write)), Box::new(mpiio(IoDir::Read))],
            Spec::MixedIbridgeContended => {
                // One trace, replayed by the cold and the warm pass alike.
                let trace = Trace::synthesize(
                    &AppProfile::s3d(),
                    MIXED_TRACE_RECORDS,
                    MIXED_TRACE_SPAN,
                    seed,
                );
                (0..2)
                    .map(|_| {
                        let replay = TraceReplay::new(trace.clone(), FILE_B).with_procs(8);
                        Box::new(CombinedWorkload::new(mixed_reader(), replay)) as Box<dyn Workload>
                    })
                    .collect()
            }
            Spec::CkptFaults => vec![Box::new(ckpt())],
        }
    }

    /// Fault-plan source for `seed`, in the `FaultPlan::parse` DSL.
    pub fn fault_plan(self, seed: u64) -> Option<String> {
        (self == Spec::CkptFaults).then(|| ckpt_plan(seed))
    }
}

fn btio() -> Btio {
    Btio::new(FILE_A, 64, BTIO_BYTES, 16, SimDuration::from_millis(20))
}

fn mpiio(dir: IoDir) -> MpiIoTest {
    MpiIoTest::sized(dir, FILE_A, 64, 65 * KB, MPIIO_BYTES).with_barrier()
}

fn mixed_reader() -> MpiIoTest {
    MpiIoTest::sized(IoDir::Read, FILE_A, 32, 65 * KB, MIXED_MPI_BYTES).with_barrier()
}

fn ckpt() -> CheckpointWorkload {
    CheckpointWorkload::new(
        FILE_A,
        64,
        CKPT_EPOCH_BYTES,
        60 * KB,
        CKPT_EPOCHS,
        SimDuration::from_millis(25),
    )
}

/// Stream id of the fault-plan draws, apart from the simulator's own
/// streams (`ibridge_des::rng::streams`).
const PLAN_STREAM: u64 = 0x504C_414E;

/// The `ckpt-faults` plan: every server crashes and restarts twice at
/// staggered, seeded times (every third crash also tears backup
/// records), bit-rot strikes two servers' logs, a network window drops,
/// delays and duplicates messages, and the MDS leader fails over once.
/// Everything lands inside the run's first [`CKPT_PLAN_SPAN_MS`] of
/// virtual time; each crash has its own slot, so at most one server is
/// down at a time.
fn ckpt_plan(seed: u64) -> String {
    let mut rng = stream_rng(seed, PLAN_STREAM);
    let span = CKPT_PLAN_SPAN_MS;
    let mut plan = String::from("retry timeout=80ms backoff=2 max=12\n");
    let crashes = 2 * SERVERS as u64;
    let slot = span / (crashes + 1);
    for i in 0..crashes {
        let s = i % SERVERS as u64;
        let at = slot / 2 + i * slot + rng.gen_range(0..slot / 2);
        let restart = rng.gen_range(15..40);
        if i % 3 == 0 {
            let records = rng.gen_range(1..4);
            plan +=
                &format!("torn-write server={s} at={at}ms restart={restart}ms records={records}\n");
        } else {
            plan += &format!("crash server={s} at={at}ms restart={restart}ms\n");
        }
    }
    for _ in 0..2 {
        let s = rng.gen_range(0..SERVERS as u64);
        let at = rng.gen_range(span / 10..span * 9 / 10);
        plan += &format!("bit-rot server={s} at={at}ms sectors=2\n");
    }
    let from = rng.gen_range(span / 20..span / 5);
    plan += &format!(
        "net from={from}ms until={}ms drop=0.02 delay=0.05 delay-by=2ms dup=0.02\n",
        from + span / 2
    );
    let at = rng.gen_range(span / 4..span / 2);
    plan += &format!("mds-failover at={at}ms restart=150ms\n");
    plan
}

/// Crash and restart events in every `ckpt-faults` plan.
pub const CKPT_PLANNED_CRASHES: u64 = 2 * SERVERS as u64;

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_faults::FaultPlan;

    #[test]
    fn names_round_trip() {
        for s in Spec::ALL {
            assert_eq!(Spec::parse(s.name()), Some(s));
        }
        assert_eq!(Spec::parse("nope"), None);
    }

    #[test]
    fn fault_plans_parse_and_follow_the_seed() {
        let a = Spec::CkptFaults.fault_plan(1).unwrap();
        assert_eq!(a, Spec::CkptFaults.fault_plan(1).unwrap());
        assert_ne!(a, Spec::CkptFaults.fault_plan(2).unwrap());
        let plan = FaultPlan::parse(&a).expect("generated plan parses");
        assert!(!plan.is_faultless());
        assert!(Spec::BtioIbridge.fault_plan(1).is_none());
    }
}
