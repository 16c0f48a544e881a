//! Experiment harness regenerating every table and figure of the iBridge
//! paper.
//!
//! Each experiment lives in its own module under [`experiments`] and
//! prints the same rows/series the paper reports, side by side with the
//! paper's published numbers where they are given. Absolute values come
//! from the simulator and are not expected to match the paper's testbed;
//! the *shapes* (who wins, by roughly what factor, where crossovers
//! fall) are the reproduction target. `EXPERIMENTS.md` records both.
//!
//! Run everything with `cargo run --release -p ibridge-bench --bin expt
//! -- all`, or a single experiment with e.g. `... -- fig4`.

pub mod alloc_count;
pub mod experiments;
pub mod obs_report;
pub mod runpar;
pub mod table;

pub use runpar::{par_map, par_table_rows};
pub use table::Table;

use ibridge_core::{
    ibridge_cluster, ssd_only_cluster, stock_cluster, IBridgeConfig, IBridgePolicy,
};
use ibridge_localfs::FileHandle;
use ibridge_pvfs::{Cluster, ClusterConfig, RunStats, ServerConfig, Workload};

/// The cluster variants the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Disks only, no flagging (the paper's "stock").
    Stock,
    /// Disks + per-server SSD cache with the iBridge scheme.
    IBridge,
    /// Datafiles directly on SSDs, no iBridge (Fig. 10's comparator).
    SsdOnly,
}

impl System {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            System::Stock => "stock",
            System::IBridge => "iBridge",
            System::SsdOnly => "SSD-only",
        }
    }
}

/// Experiment scale knobs. The default ("quick") scale keeps the full
/// suite to minutes; `--full` restores the paper's data sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bytes moved by the streaming benchmarks (paper: 10 GB).
    pub stream_bytes: u64,
    /// BTIO data set (paper class C: 6.8 GB).
    pub btio_bytes: u64,
    /// Requests per synthesised trace.
    pub trace_requests: usize,
    /// iBridge SSD partition (paper: 10 GB).
    pub ssd_capacity: u64,
    /// Per-datafile page-cache budget. Scaled down with the data sizes
    /// so the cache:data ratio stays realistic (a real server's page
    /// cache is far smaller than a 10 GB data set).
    pub page_cache: u64,
    /// Experiment seed.
    pub seed: u64,
    /// A user-supplied fault plan (`expt --fault-plan ...`); the
    /// `faults` experiment adds a row for it next to the builtin plans.
    /// Leaked to `'static` by the CLI so `Scale` stays `Copy`.
    pub fault_plan: Option<&'static ibridge_faults::FaultPlan>,
    /// Online invariant-auditor cadence (`expt --audit`), forwarded to
    /// every cluster the experiments build. The auditor is read-only, so
    /// experiment output is byte-identical with it on or off.
    pub audit_interval: Option<ibridge_des::SimDuration>,
    /// Metadata-service replicas (`expt --mds-replicas`), forwarded to
    /// every cluster the experiments build. 1 is the single MDS of the
    /// paper's testbed; 3 or 5 run a raft-style replicated group whose
    /// elections and failover are deterministic in virtual time.
    pub mds_replicas: usize,
}

impl Scale {
    /// Laptop-friendly scale (256 MB streams).
    pub fn quick() -> Self {
        Scale {
            stream_bytes: 256 << 20,
            btio_bytes: 96 << 20,
            trace_requests: 3_000,
            ssd_capacity: 10 << 30,
            page_cache: 512 << 10,
            seed: 42,
            fault_plan: None,
            audit_interval: None,
            mds_replicas: 1,
        }
    }

    /// The paper's data sizes. Slow: use for final numbers only.
    pub fn full() -> Self {
        Scale {
            stream_bytes: 10 << 30,
            btio_bytes: 6_800 << 20,
            trace_requests: 50_000,
            ssd_capacity: 10 << 30,
            page_cache: 8 << 20,
            seed: 42,
            fault_plan: None,
            audit_interval: None,
            mds_replicas: 1,
        }
    }

    /// The cluster knobs every experiment forwards from the CLI (seed,
    /// auditor cadence, MDS replicas) on top of the default cluster.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            seed: self.seed,
            audit_interval: self.audit_interval,
            mds_replicas: self.mds_replicas,
            ..Default::default()
        }
    }
}

/// The shared experiment file handle.
pub const FILE_A: FileHandle = FileHandle(1);
/// Second file for heterogeneous runs.
pub const FILE_B: FileHandle = FileHandle(2);

/// Builds a cluster of the given variant with `n_servers` servers.
pub fn build(system: System, n_servers: usize, scale: &Scale) -> Cluster {
    let cfg = ClusterConfig {
        n_servers,
        server: ServerConfig {
            ra_budget: scale.page_cache,
            ..Default::default()
        },
        ..scale.cluster_config()
    };
    match system {
        System::Stock => stock_cluster(cfg),
        System::IBridge => ibridge_cluster(cfg, scale.ssd_capacity),
        System::SsdOnly => ssd_only_cluster(cfg),
    }
}

/// Builds an iBridge cluster with explicit policy configuration
/// (threshold sweeps, static partitions, ablations).
pub fn build_ibridge_with(
    n_servers: usize,
    scale: &Scale,
    threshold: u64,
    make: impl Fn(usize) -> IBridgeConfig,
) -> Cluster {
    let cfg = ClusterConfig {
        n_servers,
        threshold,
        flag_fragments: true,
        server: ServerConfig {
            with_cache_dev: true,
            ra_budget: scale.page_cache,
            ..Default::default()
        },
        ..scale.cluster_config()
    };
    Cluster::new(cfg, move |id| Box::new(IBridgePolicy::new(make(id))))
}

/// Runs a workload once on a fresh cluster (write experiments).
pub fn run_once(
    system: System,
    n_servers: usize,
    scale: &Scale,
    span: u64,
    workload: &mut dyn Workload,
) -> RunStats {
    let mut cluster = build(system, n_servers, scale);
    cluster.preallocate(FILE_A, span + (1 << 20));
    cluster.run(workload)
}

/// Runs a read workload twice on the same cluster and returns the
/// second (warm-cache) run — the paper's repeated-production-run
/// scenario, which is where iBridge's pre-loading pays off.
pub fn run_warm(
    system: System,
    n_servers: usize,
    scale: &Scale,
    span: u64,
    make_workload: &mut dyn FnMut() -> Box<dyn Workload>,
) -> RunStats {
    let mut cluster = build(system, n_servers, scale);
    cluster.preallocate(FILE_A, span + (1 << 20));
    let mut warmup = make_workload();
    cluster.run(warmup.as_mut());
    let mut measured = make_workload();
    cluster.run(measured.as_mut())
}

/// Formats MB/s with one decimal.
pub fn mbps(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibridge_device::IoDir;
    use ibridge_workloads::MpiIoTest;

    #[test]
    fn build_variants_run() {
        let scale = Scale {
            stream_bytes: 4 << 20,
            ..Scale::quick()
        };
        for system in [System::Stock, System::IBridge, System::SsdOnly] {
            let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 4, 65 * 1024, scale.stream_bytes);
            let span = w.span_bytes();
            let stats = run_once(system, 4, &scale, span, &mut w);
            assert!(stats.throughput_mbps() > 0.0, "{system:?}");
        }
    }

    #[test]
    fn warm_run_uses_same_cluster_state() {
        let scale = Scale {
            stream_bytes: 4 << 20,
            ..Scale::quick()
        };
        let span = scale.stream_bytes * 2;
        let stats = run_warm(System::IBridge, 4, &scale, span, &mut || {
            Box::new(MpiIoTest::sized(IoDir::Read, FILE_A, 4, 65 * 1024, 4 << 20))
        });
        let hits: u64 = stats.servers.iter().map(|s| s.policy.read_hits).sum();
        assert!(hits > 0, "warm run must hit the cache");
    }
}
