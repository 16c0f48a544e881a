//! # iBridge — reproduction of "Improving Unaligned Parallel File Access
//! with Solid-State Drives" (IPDPS 2013)
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`des`] | discrete-event simulation kernel (virtual time, calendar, stats) |
//! | [`device`] | HDD and SSD service-time models (Table II devices) |
//! | [`iosched`] | CFQ/Noop/Deadline schedulers, request merging, NCQ |
//! | [`localfs`] | Ext2-style allocator mapping datafile offsets to disk sectors |
//! | [`net`] | cluster interconnect model |
//! | [`obs`] | virtual-time observability: span tracer + latency metrics |
//! | [`faults`] | schedule-driven fault injection: crashes, SSD loss, fail-slow, network faults |
//! | [`pvfs`] | PVFS2-style striped parallel file system and cluster simulation |
//! | [`core`] | **the iBridge scheme**: Eqs. 1–3, SSD log, mapping table, partitioning |
//! | [`workloads`] | mpi-io-test, ior-mpi-io, BTIO, ALEGRA/CTH/S3D traces |
//!
//! ## Quickstart
//!
//! ```
//! use ibridge_repro::prelude::*;
//!
//! // A stock 8-server cluster and an iBridge one.
//! let mut stock = stock_cluster(ClusterConfig::default());
//! let mut bridged = ibridge_cluster(ClusterConfig::default(), 10 << 30);
//!
//! // 65 KB requests: unaligned against the 64 KB stripe unit.
//! let file = FileHandle(1);
//! let make = || MpiIoTest::sized(IoDir::Write, file, 16, 65 * 1024, 16 << 20);
//! stock.preallocate(file, 24 << 20);
//! bridged.preallocate(file, 24 << 20);
//!
//! let s = stock.run(&mut make());
//! let i = bridged.run(&mut make());
//! assert!(i.throughput_mbps() > s.throughput_mbps());
//! ```

pub use ibridge_core as core;
pub use ibridge_des as des;
pub use ibridge_device as device;
pub use ibridge_faults as faults;
pub use ibridge_iosched as iosched;
pub use ibridge_localfs as localfs;
pub use ibridge_net as net;
pub use ibridge_obs as obs;
pub use ibridge_pvfs as pvfs;
pub use ibridge_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ibridge_core::{
        ibridge_cluster, ssd_only_cluster, stock_cluster, IBridgeConfig, IBridgePolicy,
        PartitionMode,
    };
    pub use ibridge_des::{SimDuration, SimTime};
    pub use ibridge_device::{DiskProfile, IoDir, SsdProfile};
    pub use ibridge_faults::{FaultPlan, FaultStats, RetryConfig};
    pub use ibridge_localfs::FileHandle;
    pub use ibridge_pvfs::{
        Cluster, ClusterConfig, FileRequest, Layout, ReqClass, RunStats, ServerConfig, SiblingList,
        StockPolicy, SubRequest, WorkItem, Workload,
    };
    pub use ibridge_workloads::{
        classify, AppProfile, Btio, CheckpointWorkload, CombinedWorkload, IorMpiIo, MpiIoTest,
        Trace, TraceRecord, TraceReplay,
    };
}
