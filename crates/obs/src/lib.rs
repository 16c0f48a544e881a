//! Virtual-time observability for the iBridge reproduction.
//!
//! Everything in this crate is keyed on *simulated* time, never the wall
//! clock, so observability output is as deterministic as the simulation
//! itself: a traced run produces byte-identical output at any `--jobs`
//! level.
//!
//! Three layers:
//!
//! * [`trace`] — span recording into per-task thread-local buffers,
//!   merged in submission order (hierarchical fork paths, not thread
//!   IDs), exportable as Chrome trace-event JSON for
//!   `chrome://tracing` / Perfetto.
//! * [`metrics`] — a registry of fixed-bucket log2 latency histograms
//!   ([`Log2Hist`]) and counters per pipeline phase, per device class,
//!   per entry class and per server, plus measured-vs-predicted `T_i`
//!   residuals. All-integer state, so parallel workers merge
//!   order-independently.
//! * [`dispatch`] — the `blktrace`-style [`DispatchTracer`] recording
//!   dispatched request-size distributions (moved here from
//!   `ibridge-iosched`, which re-exports it).
//!
//! # Runtime switches
//!
//! Instrumentation call sites are always compiled in and gated at
//! runtime on process-wide flags ([`set_tracing`] / [`set_metrics`]).
//! With the flags off — the default — every instrumented site reduces to
//! one relaxed atomic load and the hot path performs no extra allocation,
//! which `crates/bench/tests/obs_off.rs` proves with the counting
//! allocator.

pub mod dispatch;
pub mod metrics;
pub mod trace;

pub use dispatch::DispatchTracer;
pub use ibridge_des::stats::Log2Hist;
pub use trace::{span_id, Span};

use std::sync::atomic::{AtomicBool, Ordering};

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);

/// Turns span tracing on or off process-wide.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span tracing is currently enabled.
pub fn tracing_on() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns metrics recording on or off process-wide.
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// Whether metrics recording is currently enabled.
pub fn metrics_on() -> bool {
    METRICS.load(Ordering::Relaxed)
}

/// Whether any observability output is currently being collected.
pub fn active() -> bool {
    tracing_on() || metrics_on()
}
