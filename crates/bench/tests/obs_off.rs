//! Observability is free when it is off: with tracing and metrics
//! disabled (the default), every recording hook the stack calls performs
//! no heap allocation and records nothing, and a whole cluster run leaves
//! the trace and metrics registries empty.
//!
//! The binary installs the counting allocator, whose counters are
//! thread-local, so each test measures only its own thread. No test here
//! turns tracing or metrics on.

use ibridge_bench::alloc_count::{self, CountingAlloc};
use ibridge_bench::{run_once, Scale, System, FILE_A};
use ibridge_device::IoDir;
use ibridge_obs::metrics::{self, MaintAgg, MdsAgg, Phase, SubClass};
use ibridge_obs::trace::{self, Span};
use ibridge_workloads::MpiIoTest;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Calls every recording hook once, with payloads that would be recorded
/// if the matching switch were on.
fn call_every_hook(i: u64) {
    trace::run_begin();
    trace::record(Span {
        ts_ns: i,
        dur_ns: 10,
        node: 0,
        lane: 0,
        name: "request",
        id: i,
        aux: 0,
    });
    metrics::record_phase(Phase::Request, 1_000 + i);
    metrics::record_phase(Phase::NetTx, 1_000 + i);
    metrics::record_sub(1, SubClass::Fragment, true, 2_000 + i, 4096);
    metrics::record_ti(1, 3_000, 3_100 + i);
    metrics::record_mds(&MdsAgg {
        runs: 1,
        elections: 1,
        ..Default::default()
    });
    metrics::record_maint(&MaintAgg {
        runs: 1,
        ticks: 1,
        ..Default::default()
    });
}

fn assert_nothing_recorded() {
    assert!(metrics::snapshot().is_empty(), "metrics recorded while off");
    assert!(trace::take_chunks().is_empty(), "spans recorded while off");
}

#[test]
fn recording_hooks_allocate_nothing_while_off() {
    assert!(!ibridge_obs::tracing_on() && !ibridge_obs::metrics_on());
    let before = alloc_count::snapshot();
    for i in 0..1_000 {
        call_every_hook(i);
    }
    let after = alloc_count::snapshot();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "observability hooks allocated while tracing and metrics were off"
    );
    assert_nothing_recorded();
}

#[test]
fn cluster_run_records_nothing_while_off() {
    let scale = Scale {
        stream_bytes: 4 << 20,
        ..Scale::quick()
    };
    let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 8, 65 * 1024, scale.stream_bytes);
    let span = w.span_bytes();
    let stats = run_once(System::IBridge, 4, &scale, span, &mut w);
    assert!(stats.events_dispatched > 0);
    assert_nothing_recorded();
}
