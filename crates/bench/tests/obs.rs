//! End-to-end observability guarantees:
//!
//! * the exported Chrome trace and the rendered metrics report are
//!   byte-identical at any worker count (fork-path merging, additive
//!   registries);
//! * turning observability on does not perturb any simulated result;
//! * the trace export is structurally valid JSON.
//!
//! Tests in this binary mutate process-global obs state, so they
//! serialise on one mutex (poison-tolerant: one failure must not
//! cascade).

use ibridge_bench::runpar::par_map_jobs;
use ibridge_bench::{experiments, obs_report, run_once, Scale, System, FILE_A};
use ibridge_device::IoDir;
use ibridge_obs::{metrics, trace};
use ibridge_workloads::MpiIoTest;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_scale(seed: u64) -> Scale {
    Scale {
        stream_bytes: 8 << 20,
        seed,
        ..Scale::quick()
    }
}

fn matrix() -> Vec<(u64, System)> {
    let mut jobs = Vec::new();
    for seed in [7u64, 19] {
        for system in [System::Stock, System::IBridge] {
            jobs.push((seed, system));
        }
    }
    jobs
}

fn run_job((seed, system): (u64, System)) -> (u64, u64, u64) {
    let scale = small_scale(seed);
    let mut w = MpiIoTest::sized(IoDir::Write, FILE_A, 8, 65 * 1024, scale.stream_bytes);
    let span = w.span_bytes();
    let stats = run_once(system, 4, &scale, span, &mut w);
    (
        stats.bytes,
        stats.elapsed.as_nanos(),
        stats.events_dispatched,
    )
}

/// Minimal structural JSON check (no serde in the workspace): balanced
/// brackets outside strings, no stray characters after the envelope.
fn check_json_shape(j: &str) {
    assert!(
        j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "missing envelope: {}",
        &j[..j.len().min(60)]
    );
    assert!(j.ends_with("]}\n"), "missing terminator");
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in j.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced brackets");
    }
    assert_eq!(depth, 0, "unbalanced brackets at end");
    assert!(!in_str, "unterminated string");
}

#[test]
fn trace_export_is_byte_identical_across_worker_counts() {
    let _g = lock();
    let export = |workers: usize| {
        trace::reset();
        ibridge_obs::set_tracing(true);
        let results = par_map_jobs(workers, matrix(), run_job);
        ibridge_obs::set_tracing(false);
        let t = trace::take_chunks();
        let count = t.span_count();
        (results, count, t.to_chrome_json())
    };
    let (r1, c1, j1) = export(1);
    let (r4, c4, j4) = export(4);
    trace::reset();
    assert_eq!(r1, r4, "worker count changed simulated results");
    assert_eq!(c1, c4, "worker count changed span count");
    assert_eq!(j1, j4, "worker count changed the exported trace");
    check_json_shape(&j1);
    // A traced cluster run must produce spans; span IDs inside the
    // identical JSON are thereby proven stable across worker counts.
    assert!(c1 > 0, "tracing on but no spans recorded");
    assert!(j1.contains("\"name\":\"request\""));
    assert!(j1.contains("\"name\":\"srv:queue\""));
}

#[test]
fn metrics_report_is_identical_across_worker_counts() {
    let _g = lock();
    let collect = |workers: usize| {
        metrics::reset();
        ibridge_obs::set_metrics(true);
        let _ = par_map_jobs(workers, matrix(), run_job);
        ibridge_obs::set_metrics(false);
        let snap = metrics::snapshot();
        metrics::reset();
        (obs_report::render(&snap), obs_report::json_fragment(&snap))
    };
    let (text1, json1) = collect(1);
    let (text4, json4) = collect(4);
    assert_eq!(text1, text4, "worker count changed the metrics report");
    assert_eq!(json1, json4, "worker count changed the metrics JSON");
    assert!(text1.contains("request"), "no request phase in: {text1}");
}

#[test]
fn enabling_observability_does_not_change_results() {
    let _g = lock();
    trace::reset();
    metrics::reset();
    // Raw integer results across several seeds and both systems.
    let base = par_map_jobs(2, matrix(), run_job);
    ibridge_obs::set_tracing(true);
    ibridge_obs::set_metrics(true);
    let observed = par_map_jobs(2, matrix(), run_job);
    ibridge_obs::set_tracing(false);
    ibridge_obs::set_metrics(false);
    trace::reset();
    metrics::reset();
    assert_eq!(base, observed, "observability perturbed simulated results");

    // And a fully rendered experiment block, byte for byte.
    let scale = small_scale(42);
    let plain = experiments::fig2::fig2a(&scale);
    ibridge_obs::set_tracing(true);
    ibridge_obs::set_metrics(true);
    let traced = experiments::fig2::fig2a(&scale);
    ibridge_obs::set_tracing(false);
    ibridge_obs::set_metrics(false);
    trace::reset();
    metrics::reset();
    assert_eq!(plain, traced, "observability changed rendered output");
}
