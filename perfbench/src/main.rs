//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload btio-ibridge --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Builds clusters through the public API, drives them with seeded
//! inputs, checks the outputs, and prints a report followed by one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. See `perfbench/README.md`.

mod alloc;
mod spec;
mod stats;
mod trace;

use ibridge_faults::FaultPlan;
use ibridge_obs::metrics::Phase;
use ibridge_pvfs::{Cluster, RunStats, Workload};
use spec::Spec;
use stats::{median, ratio, Cumulative, Phases};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{Issued, Leaf, Span, Top};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-ups timed on their own before each untraced repetition: set-up
/// takes under a millisecond, so its median needs more samples than the
/// repetitions give, spread over the whole run.
const SETUPS_PER_REP: usize = 20;
/// Where reports, span dumps and the run counter go.
const OUT_DIR: &str = "perfbench/out";
/// Allowed gap between the layer self times and the spans they split.
const EPSILON_S: f64 = 1e-6;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Spec::ALL.iter().map(|s| s.name()).collect();
                    format!("unknown workload '{value}' (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
    })
}

/// One `Cluster::run` of a repetition.
struct Pass {
    stats: RunStats,
    issued_requests: u64,
    issued_bytes: u64,
    wall_s: f64,
    /// Obs phase deltas of this pass (traced repetitions only).
    phases: Phases,
}

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing: the end-to-end host metrics come from these.
    Plain,
    /// Host-time spans, obs metrics and the invariant auditor.
    Traced,
    /// The obs virtual-time span tracer, for exact request latencies.
    Latency,
}

/// One repetition: fresh inputs, fresh cluster, every pass.
struct Rep {
    mode: Mode,
    passes: Vec<Pass>,
    /// Per-pass deltas of the lifetime-cumulative counters.
    deltas: Option<Vec<Cumulative>>,
    setup_s: f64,
    peak_bytes: u64,
    run_allocs: u64,
    /// Why the run aborted (the auditor panics on a violation).
    panic: Option<String>,
    spans: Vec<Span>,
    /// Whole repetition, setup to the last pass.
    outer_s: f64,
    /// Virtual-time latency of every request, ns (latency mode only).
    latencies_ns: Vec<u64>,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    fn runs(&self) -> Vec<&RunStats> {
        self.passes.iter().map(|p| &p.stats).collect()
    }

    /// Issued requests that did not complete cleanly: never completed,
    /// or completed with a sub-request abandoned after its retries (each
    /// such sub-request counted against its own request, so this bounds
    /// the failures from above).
    fn failed_requests(&self) -> u64 {
        self.passes
            .iter()
            .map(|p| {
                let done = p.stats.requests.min(p.issued_requests);
                p.issued_requests - done + p.stats.faults.failed_subs.min(done)
            })
            .sum()
    }
}

/// Builds a repetition's inputs and cluster: the work `setup_s` times.
fn set_up(spec: Spec, seed: u64, traced: bool) -> (Vec<Box<dyn Workload>>, Cluster) {
    let workloads = trace::top(Top::Gen, || spec.passes(seed));
    let cfg = spec.config(seed, traced);
    let mut cluster = trace::top(Top::Build, || {
        if traced {
            spec.build_traced(cfg)
        } else {
            spec.build(cfg)
        }
    });
    trace::top(Top::Prealloc, || {
        for (file, bytes) in spec.files() {
            cluster.preallocate(file, bytes);
        }
    });
    trace::top(Top::Plan, || {
        if let Some(text) = spec.fault_plan(seed) {
            let plan = FaultPlan::parse(&text).expect("generated fault plans parse");
            cluster.set_fault_plan(&plan);
        }
    });
    (workloads, cluster)
}

/// Host seconds of `n` set-ups alone (each cluster dropped untimed).
fn setup_samples(spec: Spec, seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let built = set_up(spec, seed, false);
            let dt = t.elapsed().as_secs_f64();
            drop(built);
            dt
        })
        .collect()
}

fn run_rep(spec: Spec, seed: u64, mode: Mode) -> Rep {
    let traced = mode == Mode::Traced;
    let t0 = Instant::now();
    let base = alloc::reset_peak();
    if traced {
        trace::arm();
        ibridge_obs::set_metrics(true);
    }
    ibridge_obs::set_tracing(mode == Mode::Latency);
    let (workloads, mut cluster) = set_up(spec, seed, traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let allocs0 = alloc::allocs();
    let mut passes = Vec::new();
    let mut latencies_ns = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for w in workloads {
            let mut w = Issued::new(w, traced);
            let before = traced.then(|| Phases::of(&ibridge_obs::metrics::snapshot()));
            let t = Instant::now();
            let stats = trace::top(Top::Run, || cluster.run(&mut w));
            let wall_s = t.elapsed().as_secs_f64();
            let phases = match before {
                Some(b) => Phases::of(&ibridge_obs::metrics::snapshot()).minus(&b),
                None => Phases::default(),
            };
            if mode == Mode::Latency {
                let spans = ibridge_obs::trace::take_chunks();
                latencies_ns.extend(
                    spans
                        .spans()
                        .filter(|(_, s)| s.name == "request")
                        .map(|(_, s)| s.dur_ns),
                );
            }
            passes.push(Pass {
                stats,
                issued_requests: w.requests,
                issued_bytes: w.bytes,
                wall_s,
                phases,
            });
        }
    }));
    let run_allocs = alloc::allocs() - allocs0;
    let peak_bytes = alloc::peak() - base;
    let outer_s = t0.elapsed().as_secs_f64();
    ibridge_obs::set_metrics(false);
    ibridge_obs::set_tracing(false);
    let spans = trace::disarm();
    drop(cluster);
    let panic = outcome.err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    });
    let runs: Vec<&RunStats> = passes.iter().map(|p| &p.stats).collect();
    let deltas = stats::per_pass(&runs);
    Rep {
        mode,
        deltas,
        passes,
        setup_s,
        peak_bytes,
        run_allocs,
        panic,
        spans,
        outer_s,
        latencies_ns,
    }
}

/// The simulated (virtual-time) end-to-end metrics of a repetition.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sim {
    exec_s: f64,
    io_s: f64,
    mean_ms: f64,
    requests: u64,
}

fn sim(rep: &Rep) -> Sim {
    let runs = rep.runs();
    Sim {
        exec_s: runs.iter().map(|r| r.elapsed.as_secs_f64()).sum(),
        io_s: runs
            .iter()
            .map(|r| r.io_time.as_secs_f64() / r.proc_done.len().max(1) as f64)
            .sum(),
        mean_ms: ratio(
            runs.iter().map(|r| r.latency_ms.sum()).sum(),
            runs.iter().map(|r| r.latency_ms.count()).sum::<u64>() as f64,
        ),
        requests: runs.iter().map(|r| r.requests).sum(),
    }
}

/// Everything the simulation decided, as text: two repetitions of one
/// seed must agree byte for byte.
fn sim_fingerprint(rep: &Rep) -> String {
    let mut s = String::new();
    let m = sim(rep);
    for x in [m.exec_s, m.io_s, m.mean_ms] {
        write!(s, "{:016x} ", x.to_bits()).unwrap();
    }
    for p in &rep.passes {
        let r = &p.stats;
        write!(
            s,
            "|{:?} {:?} {} {} {:?} {} {:?} {:?} {:?}",
            r.elapsed,
            r.client_elapsed,
            r.bytes,
            r.requests,
            r.io_time,
            r.events_dispatched,
            r.proc_bytes,
            r.latency_hist_ms,
            r.faults
        )
        .unwrap();
    }
    write!(s, "|{:?}", rep.deltas).unwrap();
    s
}

/// Output checks of one repetition: `(check, passed, detail)`.
fn check_rep(spec: Spec, rep: &Rep, out: &mut Vec<(String, bool, String)>) {
    let tag = match rep.mode {
        Mode::Plain => "untraced",
        Mode::Traced => "traced",
        Mode::Latency => "latency",
    };
    out.push((
        format!("{tag}: run completed without an abort"),
        rep.panic.is_none(),
        rep.panic.clone().unwrap_or_default(),
    ));
    let n_passes = spec.passes(0).len();
    out.push((
        format!("{tag}: every pass ran"),
        rep.passes.len() == n_passes,
        format!("{} of {n_passes}", rep.passes.len()),
    ));
    for (i, p) in rep.passes.iter().enumerate() {
        let r = &p.stats;
        out.push((
            format!("{tag}: pass {i}: completed requests = issued (exactly once)"),
            r.requests == p.issued_requests,
            format!("{} completed, {} issued", r.requests, p.issued_requests),
        ));
        out.push((
            format!("{tag}: pass {i}: completed bytes = issued"),
            r.bytes == p.issued_bytes && r.proc_bytes.iter().sum::<u64>() == p.issued_bytes,
            format!("{} completed, {} issued", r.bytes, p.issued_bytes),
        ));
        if !spec.fault_free() {
            let f = &r.faults;
            out.push((
                format!("{tag}: pass {i}: every planned crash and restart ran"),
                f.crashes == spec::CKPT_PLANNED_CRASHES && f.restarts == f.crashes,
                format!("{} crashes, {} restarts", f.crashes, f.restarts),
            ));
        } else {
            let dirty: u64 = r.servers.iter().map(|s| s.policy.dirty_bytes).sum();
            out.push((
                format!("{tag}: pass {i}: no dirty bytes after the drain"),
                dirty == 0,
                format!("{dirty} B dirty"),
            ));
            out.push((
                format!("{tag}: pass {i}: no failed sub-requests"),
                r.faults.failed_subs == 0,
                format!("{} failed", r.faults.failed_subs),
            ));
        }
    }
    out.push((
        format!("{tag}: lifetime counters never go backwards between passes"),
        rep.deltas.is_some(),
        String::new(),
    ));
}

/// Per-layer host times of one traced repetition, seconds, plus the
/// leaf call counts.
fn layer_times(rep: &Rep) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, u64>) {
    let mut secs: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, u64> = BTreeMap::new();
    for leaf in Leaf::ALL {
        secs.insert(leaf.layer(), 0.0);
        calls.insert(leaf.layer(), 0);
    }
    for top in [Top::Gen, Top::Plan, Top::Build, Top::Prealloc, Top::Run] {
        secs.insert(top.layer(), 0.0);
    }
    secs.insert("pvfs.run_s", 0.0);
    for span in &rep.spans {
        *secs.get_mut(span.top.layer()).unwrap() += span.self_ns() as f64 / 1e9;
        if span.top == Top::Run {
            *secs.get_mut("pvfs.run_s").unwrap() += span.dur_ns() as f64 / 1e9;
        }
        for leaf in Leaf::ALL {
            *secs.get_mut(leaf.layer()).unwrap() += span.child_ns[leaf as usize] as f64 / 1e9;
            *calls.get_mut(leaf.layer()).unwrap() += span.child_calls[leaf as usize];
        }
    }
    (secs, calls)
}

/// Layers whose self times partition the traced spans (`pvfs.run_s` is
/// the span they split, not a layer of its own).
fn self_time_layers(secs: &BTreeMap<&'static str, f64>) -> Vec<(&'static str, f64)> {
    secs.iter()
        .filter(|(k, _)| **k != "pvfs.run_s")
        .map(|(k, v)| (*k, *v))
        .collect()
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(plain: &[Rep], latency: &Rep, setups: &[f64]) -> Vec<Metric> {
    let s = sim(&plain[0]);
    let lat = &latency.latencies_ns;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    vec![
        ("wall_s", per_rep(&|r| r.wall_s()), "s"),
        ("setup_s", median(setups), "s"),
        ("peak_mem_mb", per_rep(&|r| r.peak_bytes as f64 / 1e6), "MB"),
        (
            "allocs_per_request",
            per_rep(&|r| ratio(r.run_allocs as f64, sim(r).requests as f64)),
            "count",
        ),
        ("sim_exec_s", s.exec_s, "s"),
        ("sim_io_s", s.io_s, "s"),
        ("sim_mean_ms", s.mean_ms, "ms"),
        ("sim_p99_ms", stats::quantile_ms(lat, 0.99), "ms"),
    ]
}

fn per_layer(traced: &[Rep], plain: &[Rep]) -> Vec<Metric> {
    let first = &traced[0];
    let runs = first.runs();
    let c = first
        .deltas
        .as_ref()
        .map(|d| d.iter().fold(Cumulative::default(), |a, x| a.plus(x)))
        .unwrap_or_default();
    let ph = first
        .passes
        .iter()
        .fold(Phases::default(), |a, p| a.plus(&p.phases));
    let f = runs
        .iter()
        .fold(ibridge_faults::FaultStats::default(), |mut a, &r| {
            a.absorb(&r.faults);
            a
        });
    let times: Vec<BTreeMap<&'static str, f64>> = traced.iter().map(|r| layer_times(r).0).collect();
    let t = |k: &str| median(&times.iter().map(|m| m[k]).collect::<Vec<_>>());
    let (_, calls) = layer_times(first);
    let plain_wall = median(&plain.iter().map(Rep::wall_s).collect::<Vec<_>>());
    let events: u64 = runs.iter().map(|r| r.events_dispatched).sum();
    let requests: u64 = runs.iter().map(|r| r.requests).sum();
    let exec_s: f64 = runs.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let n_servers = runs.first().map_or(1, |r| r.servers.len()) as f64;
    let ra_hits: u64 = runs
        .iter()
        .flat_map(|r| r.servers.iter())
        .map(|s| s.ra_hits)
        .sum();
    let n = |x: u64| x as f64;
    vec![
        ("core.place_s", t("core.place_s"), "s"),
        ("core.place_calls", n(calls["core.place_s"]), "count"),
        ("core.admit_s", t("core.admit_s"), "s"),
        ("core.flush_s", t("core.flush_s"), "s"),
        ("core.maint_s", t("core.maint_s"), "s"),
        ("core.maint_calls", n(calls["core.maint_s"]), "count"),
        ("core.audit_s", t("core.audit_s"), "s"),
        ("core.other_s", t("core.other_s"), "s"),
        ("core.new_s", t("core.new_s"), "s"),
        ("core.log.records_appended", n(c.records_appended), "count"),
        ("core.log.checkpoints", n(c.checkpoints), "count"),
        (
            "core.log.checkpoint_records",
            n(c.checkpoint_records),
            "count",
        ),
        ("core.log.checkpoint_mb", n(c.checkpoint_bytes) / 1e6, "MB"),
        (
            "core.log.records_rewritten",
            n(c.records_rewritten),
            "count",
        ),
        ("core.log.busy_skips", n(c.busy_skips), "count"),
        ("core.read_hits", n(c.read_hits), "count"),
        ("core.read_misses", n(c.read_misses), "count"),
        (
            "core.hit_ratio",
            ratio(n(c.read_hits), n(c.read_hits + c.read_misses)),
            "ratio",
        ),
        ("core.admissions", n(c.admissions), "count"),
        ("core.admission_failures", n(c.admission_failures), "count"),
        ("core.evictions", n(c.evictions), "count"),
        ("core.redirected_writes", n(c.redirected_writes), "count"),
        (
            "core.ssd_byte_share",
            ratio(n(c.bytes_ssd), n(c.bytes_ssd + c.bytes_disk)),
            "ratio",
        ),
        ("core.appended_mb", n(c.appended_bytes) / 1e6, "MB"),
        ("pvfs.run_s", t("pvfs.run_s"), "s"),
        ("pvfs.self_s", t("pvfs.self_s"), "s"),
        ("pvfs.build_s", t("pvfs.build_s"), "s"),
        ("pvfs.requests", n(requests), "count"),
        ("pvfs.subrequests", n(ph.subs), "count"),
        ("pvfs.ra_hits", n(ra_hits), "count"),
        ("pvfs.srv_queue_ms", ph.mean_ms(Phase::SrvQueue), "ms"),
        ("des.events", n(events), "count"),
        ("des.events_per_s", n(events) / plain_wall, "1/s"),
        (
            "iosched.hdd_dispatch_kb",
            stats::hdd_dispatch_kb(&runs),
            "KB",
        ),
        (
            "iosched.queue_hdd_ms",
            ph.mean_ms(Phase::SchedQueueHdd),
            "ms",
        ),
        (
            "iosched.queue_ssd_ms",
            ph.mean_ms(Phase::SchedQueueSsd),
            "ms",
        ),
        (
            "iosched.idle_grant_ratio",
            ratio(n(c.idle_grants), n(c.idle_probes)),
            "ratio",
        ),
        ("device.hdd_busy_s", n(c.hdd_busy_ns) / 1e9, "s"),
        (
            "device.hdd_util",
            ratio(n(c.hdd_busy_ns) / 1e9, exec_s * n_servers),
            "ratio",
        ),
        ("device.hdd_requests", n(c.hdd_requests), "count"),
        (
            "device.service_hdd_ms",
            ph.mean_ms(Phase::DevServiceHdd),
            "ms",
        ),
        ("device.seek_hdd_ms", ph.mean_ms(Phase::DevSeekHdd), "ms"),
        ("device.ssd_busy_s", n(c.ssd_busy_ns) / 1e9, "s"),
        ("device.ssd_requests", n(c.ssd_requests), "count"),
        (
            "device.service_ssd_ms",
            ph.mean_ms(Phase::DevServiceSsd),
            "ms",
        ),
        ("net.req_ms", ph.mean_ms(Phase::NetRequest), "ms"),
        ("net.reply_ms", ph.mean_ms(Phase::NetReply), "ms"),
        ("workloads.gen_s", t("workloads.gen_s"), "s"),
        ("workloads.next_s", t("workloads.next_s"), "s"),
        (
            "workloads.next_calls",
            n(calls["workloads.next_s"]),
            "count",
        ),
        ("localfs.preallocate_s", t("localfs.preallocate_s"), "s"),
        ("faults.plan_s", t("faults.plan_s"), "s"),
        ("faults.retries", n(f.retries), "count"),
        ("faults.timeouts", n(f.timeouts), "count"),
        ("faults.failed_subs", n(f.failed_subs), "count"),
        ("faults.duplicate_replies", n(f.duplicate_replies), "count"),
        ("faults.dirty_mb_lost", n(f.dirty_bytes_lost) / 1e6, "MB"),
        ("faults.degraded_s", f.degraded_secs(), "s"),
        ("faults.fsck_scanned", n(f.fsck_records_scanned), "count"),
        (
            "faults.fsck_quarantined",
            n(f.fsck_records_quarantined),
            "count",
        ),
        ("mds.elections", n(f.mds_elections), "count"),
        ("mds.leader_changes", n(f.mds_leader_changes), "count"),
        ("mds.recovery_ms", n(f.mds_recovery_ticks) / 1e6, "ms"),
        ("mds.stalled_broadcasts", n(f.stalled_broadcasts), "count"),
        ("mds.stale_t_decisions", n(f.stale_t_decisions), "count"),
        (
            "trace.overhead_pct",
            ((t("pvfs.run_s") - t("core.audit_s")) / plain_wall - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Host fingerprint: CPUs, toolchain, commit, seed and run number.
fn fingerprint(args: &Args, run_no: u64) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tool = |cmd: &str, arg: &[&str]| -> String {
        let mut c = Command::new(cmd);
        c.args(arg);
        // `git` must not walk out of the checkout looking for a repository.
        if let Ok(cwd) = std::env::current_dir() {
            if let Some(parent) = cwd.parent() {
                c.env("GIT_CEILING_DIRECTORIES", parent);
            }
        }
        c.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: cpus={cpus} rustc=\"{}\" commit={} workload={} seed={} trace={} run={run_no}",
        tool("rustc", &["-V"]),
        tool("git", &["rev-parse", "HEAD"]),
        args.spec.name(),
        args.seed,
        u8::from(args.traced),
    )
}

/// Next run number, kept as an empty `<n>.last_run` file in the output
/// directory (the deploy-script idiom): the highest number found plus
/// one, the old marker replaced.
fn next_run_number(dir: &Path) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut last: Option<u64> = None;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if let Some(n) = name.strip_suffix(".last_run").and_then(|n| n.parse().ok()) {
            last = Some(last.map_or(n, |l: u64| l.max(n)));
            std::fs::remove_file(dir.join(&name))?;
        }
    }
    let next = last.map_or(0, |l| l + 1);
    std::fs::File::create(dir.join(format!("{next}.last_run")))?;
    Ok(next)
}

fn spans_json(traced: &[Rep]) -> String {
    let mut s = String::from("[\n");
    let mut first = true;
    for (i, rep) in traced.iter().enumerate() {
        for span in &rep.spans {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            write!(
                s,
                "{{\"rep\":{i},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"children\":{{",
                span.top.layer(),
                span.start_ns,
                span.end_ns,
                span.self_ns()
            )
            .unwrap();
            let kids: Vec<String> = Leaf::ALL
                .iter()
                .filter(|l| span.child_calls[**l as usize] > 0)
                .map(|l| {
                    format!(
                        "\"{}\":{{\"calls\":{},\"ns\":{}}}",
                        l.layer(),
                        span.child_calls[*l as usize],
                        span.child_ns[*l as usize]
                    )
                })
                .collect();
            s.push_str(&kids.join(","));
            s.push_str("}}");
        }
    }
    s.push_str("\n]\n");
    s
}

fn pass_table(rep: &Rep, report: &mut String) {
    writeln!(
        report,
        "per-pass (deltas of lifetime counters): pass requests MB sim_s events hits misses admissions evictions redirected appended_MB hdd_reqs ssd_reqs"
    )
    .unwrap();
    let deltas = rep.deltas.clone().unwrap_or_default();
    for (i, (p, d)) in rep.passes.iter().zip(&deltas).enumerate() {
        let r = &p.stats;
        writeln!(
            report,
            "  pass {i}: {} {:.1} {:.3} {} {} {} {} {} {} {:.1} {} {}",
            r.requests,
            r.bytes as f64 / 1e6,
            r.elapsed.as_secs_f64(),
            r.events_dispatched,
            d.read_hits,
            d.read_misses,
            d.admissions,
            d.evictions,
            d.redirected_writes,
            d.appended_bytes as f64 / 1e6,
            d.hdd_requests,
            d.ssd_requests,
        )
        .unwrap();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    let run_no = match next_run_number(out_dir) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("perfbench: cannot keep the run counter in {OUT_DIR}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = fingerprint(&args, run_no);
    report.push('\n');

    // Exact request latencies come from a repetition under the
    // virtual-time span tracer, outside the timed ones (the simulation
    // is deterministic, so one suffices; the identity check below holds
    // it to the others). Running it first also warms the heap and the
    // caches before anything is timed.
    let latency = vec![run_rep(args.spec, args.seed, Mode::Latency)];

    // Repetitions until the time is up: untraced only, or untraced and
    // traced interleaved (alternating which goes first).
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut i = 0usize;
    loop {
        if args.traced {
            let order = if i.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            };
            for t in order {
                let mode = if t { Mode::Traced } else { Mode::Plain };
                let rep = run_rep(args.spec, args.seed, mode);
                if t {
                    traced.push(rep)
                } else {
                    plain.push(rep)
                }
            }
        } else {
            setups.extend(setup_samples(args.spec, args.seed, SETUPS_PER_REP));
            plain.push(run_rep(args.spec, args.seed, Mode::Plain));
        }
        i += 1;
        let enough = if args.traced { i >= 1 } else { i >= MIN_REPS };
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    // Output checks.
    let mut checks: Vec<(String, bool, String)> = Vec::new();
    for rep in plain.iter().chain(&traced).chain(&latency) {
        check_rep(args.spec, rep, &mut checks);
    }
    let reference = sim_fingerprint(&plain[0]);
    let same = plain
        .iter()
        .chain(&traced)
        .chain(&latency)
        .all(|r| sim_fingerprint(r) == reference);
    checks.push((
        format!(
            "simulated metrics and counters bit-identical across {} untraced, {} traced and {} latency repetitions",
            plain.len(),
            traced.len(),
            latency.len()
        ),
        same,
        String::new(),
    ));
    for rep in &latency {
        checks.push((
            "latency: one traced latency per completed request".into(),
            rep.latencies_ns.len() as u64 == sim(rep).requests,
            format!("{} latencies", rep.latencies_ns.len()),
        ));
    }
    for rep in &traced {
        // The decorator sees every policy audit the auditor makes.
        let (secs, calls) = layer_times(rep);
        let audits = calls["core.audit_s"];
        checks.push((
            "traced: invariant auditor armed and passed".into(),
            audits > 0 && rep.panic.is_none(),
            format!("{audits} policy audits"),
        ));
        let sum: f64 = self_time_layers(&secs).iter().map(|(_, v)| v).sum();
        let spans: f64 = rep.spans.iter().map(|s| s.dur_ns() as f64 / 1e9).sum();
        checks.push((
            format!(
                "traced: layer self times sum to pvfs.run_s + setup spans within {EPSILON_S} s"
            ),
            (sum - spans).abs() <= EPSILON_S,
            format!("{sum:.6} s vs {spans:.6} s"),
        ));
    }
    let correct = checks.iter().all(|(_, ok, _)| *ok);

    // Report.
    pass_table(&plain[0], &mut report);
    let s = sim(&plain[0]);
    writeln!(
        report,
        "sim: exec {:.6} s, io/proc {:.6} s, mean latency {:.6} ms over n={} requests",
        s.exec_s, s.io_s, s.mean_ms, s.requests
    )
    .unwrap();
    {
        let l = &latency[0];
        writeln!(
            report,
            "sim: exact p50 {:.6} ms, p99 {:.6} ms over n={} request latencies",
            stats::quantile_ms(&l.latencies_ns, 0.50),
            stats::quantile_ms(&l.latencies_ns, 0.99),
            l.latencies_ns.len()
        )
        .unwrap();
    }
    writeln!(
        report,
        "untraced repetitions: {} (wall_s each: {})",
        plain.len(),
        plain
            .iter()
            .map(|r| format!("{:.4}", r.wall_s()))
            .collect::<Vec<_>>()
            .join(" ")
    )
    .unwrap();
    let metrics = if args.traced {
        let (secs, _) = layer_times(&traced[0]);
        let run_s = secs["pvfs.run_s"];
        let setup: f64 = traced[0]
            .spans
            .iter()
            .filter(|s| s.top != Top::Run)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum();
        writeln!(
            report,
            "self-time table (traced repetition 0; shares of pvfs.run_s + setup spans = {:.6} s; outer {:.6} s):",
            run_s + setup,
            traced[0].outer_s
        )
        .unwrap();
        let mut layers = self_time_layers(&secs);
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (k, v) in &layers {
            writeln!(
                report,
                "  {k:<24} {v:>10.6} s {:>6.2} %",
                100.0 * v / (run_s + setup)
            )
            .unwrap();
        }
        // The auditor runs only in the traced repetition: leave it out.
        let audit = secs["core.audit_s"];
        let core: f64 = layers
            .iter()
            .filter(|(k, _)| k.starts_with("core.") && !matches!(*k, "core.new_s" | "core.audit_s"))
            .map(|(_, v)| v)
            .sum();
        writeln!(
            report,
            "core share of pvfs.run_s without the auditor: {:.2} % (pvfs.self_s {:.2} %)",
            100.0 * core / (run_s - audit),
            100.0 * secs["pvfs.self_s"] / (run_s - audit)
        )
        .unwrap();
        let m = per_layer(&traced, &plain);
        if let Err(e) = std::fs::write(
            out_dir.join(format!(
                "{run_no}-{}-s{}.spans.json",
                args.spec.name(),
                args.seed
            )),
            spans_json(&traced),
        ) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        m
    } else {
        setups.extend(plain.iter().map(|r| r.setup_s));
        let mut sorted = setups.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q) as usize] * 1e3;
        writeln!(
            report,
            "set-up: {} samples, p10 {:.4} ms, median {:.4} ms, p90 {:.4} ms",
            sorted.len(),
            at(0.1),
            at(0.5),
            at(0.9)
        )
        .unwrap();
        end_to_end(&plain, &latency[0], &setups)
    };
    // One line per check: repetitions share check names, so fold them and
    // keep the detail of the first failure (or of the first pass).
    let mut folded: Vec<(&str, usize, usize, &str)> = Vec::new();
    for (name, ok, detail) in &checks {
        match folded.iter_mut().find(|f| f.0 == name.as_str()) {
            Some(f) => {
                f.1 += 1;
                if !*ok {
                    if f.2 == 0 {
                        f.3 = detail;
                    }
                    f.2 += 1;
                }
            }
            None => folded.push((name, 1, usize::from(!*ok), detail)),
        }
    }
    for (name, n, failed, detail) in folded {
        let status = if failed == 0 { "ok" } else { "FAILED" };
        let detail = if detail.is_empty() {
            String::new()
        } else {
            format!("; {detail}")
        };
        writeln!(
            report,
            "check {status}: {name} ({failed} of {n} failed{detail})"
        )
        .unwrap();
    }
    for (name, value, unit) in &metrics {
        writeln!(report, "metric {name} = {value} {unit}").unwrap();
    }
    if let Err(e) = std::fs::write(
        out_dir.join(format!(
            "{run_no}-{}-s{}-t{}.txt",
            args.spec.name(),
            args.seed,
            u8::from(args.traced)
        )),
        &report,
    ) {
        eprintln!("perfbench: cannot write report: {e}");
    }
    print!("{report}");

    let timed = || plain.iter().chain(&traced);
    let attempted: u64 = timed()
        .flat_map(|r| &r.passes)
        .map(|p| p.issued_requests)
        .sum();
    let failed: u64 = timed().map(Rep::failed_requests).sum();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}
