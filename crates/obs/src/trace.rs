//! Deterministic virtual-time span tracing.
//!
//! # Determinism model
//!
//! The experiment harness runs independent simulations on a scoped worker
//! pool where workers *race* to claim tasks, so "which thread ran task 7"
//! is nondeterministic. Spans are therefore recorded into a thread-local
//! buffer that belongs to the current *task*, not the current thread, and
//! each task buffer is labelled with a hierarchical **fork path**:
//!
//! * the root of the process has path `[]`;
//! * the *n*-th fan-out executed from a given scope appends `n`, and task
//!   *i* of that fan-out appends `i` — e.g. the third task of the first
//!   `par_map` call is path `[0, 2]`, and a nested fan-out inside it
//!   hands its tasks `[0, 2, k, j]`.
//!
//! Fork paths depend only on program structure (which calls fan out, in
//! what order, over how many items) — never on thread identity or timing.
//! [`take_chunks`] sorts finished buffers by path, which *is* submission
//! order, so the merged trace is byte-identical at any worker count.
//!
//! Within a task, each simulation run bumps a local run counter
//! ([`run_begin`]); the exporter renumbers runs globally in merged order
//! so Chrome/Perfetto shows one process lane per (run, node).
//!
//! Span IDs come from the simulation's own deterministic request tags
//! (parent request id, sub-request index, server job id) via [`span_id`],
//! never from a global counter.

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::mem;
use std::sync::Mutex;

/// Node number used for client-side spans.
pub const CLIENT_NODE: u16 = 0;

/// Node number for server `s` (clients are node 0).
pub fn server_node(server: usize) -> u16 {
    (server as u16).saturating_add(1)
}

/// Stable span ID for sub-request `sub` of parent request `parent`.
///
/// Parent IDs are the deterministic per-cluster request counter and
/// clusters issue far fewer than 2^16 sub-requests per parent, so the
/// packed value is unique within a run.
pub fn span_id(parent: u64, sub: u32) -> u64 {
    (parent << 16) | (sub as u64 & 0xffff)
}

/// One completed span, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, nanoseconds of virtual time.
    pub ts_ns: u64,
    /// Duration, nanoseconds of virtual time.
    pub dur_ns: u64,
    /// Node: [`CLIENT_NODE`] or [`server_node`].
    pub node: u16,
    /// Lane within the node (client: process id; server: 0 = cpu,
    /// 1 = primary device, 2 = cache device).
    pub lane: u16,
    /// Static span name, plain ASCII (emitted into JSON unescaped).
    pub name: &'static str,
    /// Deterministic correlation id (see [`span_id`]).
    pub id: u64,
    /// Free auxiliary payload (bytes, sectors, peer, …).
    pub aux: u64,
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    span: Span,
    run: u32,
}

#[derive(Debug, Default)]
struct TaskBuf {
    path: Vec<u32>,
    calls: u32,
    runs: u32,
    cur_run: u32,
    events: Vec<Rec>,
}

impl TaskBuf {
    const fn new() -> Self {
        TaskBuf {
            path: Vec::new(),
            calls: 0,
            runs: 0,
            cur_run: 0,
            events: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Chunk {
    path: Vec<u32>,
    runs: u32,
    events: Vec<Rec>,
}

thread_local! {
    static BUF: RefCell<TaskBuf> = const { RefCell::new(TaskBuf::new()) };
}

static CHUNKS: Mutex<Vec<Chunk>> = Mutex::new(Vec::new());

/// A fork point: the path prefix shared by every task of one fan-out.
///
/// Capture it on the submitting thread (once per `par_map`-style call),
/// then build each task's scope from it with [`enter_task`].
#[derive(Debug, Clone)]
pub struct ForkPoint {
    prefix: Vec<u32>,
}

/// Captures the current task's fork path and claims the next fan-out
/// sequence number. Call on the submitting thread, before spawning.
pub fn fork_point() -> ForkPoint {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let mut prefix = b.path.clone();
        prefix.push(b.calls);
        b.calls += 1;
        ForkPoint { prefix }
    })
}

/// Scope guard for one task of a fan-out. While alive, spans recorded on
/// this thread accumulate in the task's own buffer; on drop the buffer is
/// published to the global chunk list and the thread's previous buffer is
/// restored (so nested fan-outs compose).
#[derive(Debug)]
pub struct TaskScope {
    prev: TaskBuf,
}

/// Enters task `index` of the fan-out at `fork`.
pub fn enter_task(fork: &ForkPoint, index: u32) -> TaskScope {
    let mut path = fork.prefix.clone();
    path.push(index);
    let fresh = TaskBuf {
        path,
        ..TaskBuf::new()
    };
    let prev = BUF.with(|b| mem::replace(&mut *b.borrow_mut(), fresh));
    TaskScope { prev }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        let done = BUF.with(|b| mem::replace(&mut *b.borrow_mut(), mem::take(&mut self.prev)));
        if !done.events.is_empty() || done.runs > 0 {
            CHUNKS.lock().unwrap().push(Chunk {
                path: done.path,
                runs: done.runs.max(1),
                events: done.events,
            });
        }
        // Worker threads die inside the pool scope; metrics they
        // accumulated flush via the thread-local destructor, but flushing
        // here too makes task boundaries the common path.
        crate::metrics::flush_local();
    }
}

/// Marks the start of a simulation run in the current task. Spans
/// recorded afterwards belong to this run (the exporter gives each run
/// its own process group).
pub fn run_begin() {
    if !crate::tracing_on() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        b.cur_run = b.runs;
        b.runs += 1;
    });
}

/// Records one completed span. No-op unless tracing is enabled.
pub fn record(span: Span) {
    if !crate::tracing_on() {
        return;
    }
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        let run = b.cur_run;
        b.events.push(Rec { span, run });
    });
}

/// A merged trace: chunks sorted by fork path (= submission order).
#[derive(Debug)]
pub struct Trace {
    chunks: Vec<Chunk>,
}

/// Collects everything recorded so far into a [`Trace`], consuming it.
///
/// Flushes the calling thread's current buffer as well, so tests can
/// record and export on one thread without task scopes. Buffers held by
/// *other* live threads that never left a task scope are not visible.
pub fn take_chunks() -> Trace {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.events.is_empty() || b.runs > 0 {
            let chunk = Chunk {
                path: b.path.clone(),
                runs: b.runs.max(1),
                events: mem::take(&mut b.events),
            };
            b.runs = 0;
            b.cur_run = 0;
            CHUNKS.lock().unwrap().push(chunk);
        }
    });
    let mut chunks: Vec<Chunk> = mem::take(&mut *CHUNKS.lock().unwrap());
    chunks.sort_by(|a, b| a.path.cmp(&b.path));
    Trace { chunks }
}

/// Discards all recorded spans and resets the calling thread's buffer.
/// Test-support only.
pub fn reset() {
    CHUNKS.lock().unwrap().clear();
    BUF.with(|b| *b.borrow_mut() = TaskBuf::new());
}

impl Trace {
    /// Total number of spans.
    pub fn span_count(&self) -> usize {
        self.chunks.iter().map(|c| c.events.len()).sum()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.span_count() == 0
    }

    /// Iterates spans in merged (submission) order, with the global run
    /// number the exporter assigns.
    pub fn spans(&self) -> impl Iterator<Item = (u32, &Span)> + '_ {
        let mut base = 0u32;
        self.chunks.iter().flat_map(move |c| {
            let b = base;
            base += c.runs;
            c.events.iter().map(move |r| (b + r.run, &r.span))
        })
    }

    /// Serialises to Chrome trace-event JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format" with a `traceEvents` envelope).
    ///
    /// Virtual run × node becomes a process (`pid = run * 256 + node`,
    /// named via metadata events), lanes become threads, and timestamps
    /// are virtual-time microseconds with nanosecond decimals.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.span_count() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut named: HashSet<u64> = HashSet::new();
        let mut first = true;
        for (run, span) in self.spans() {
            debug_assert!(span.node < 256, "node out of pid range");
            let pid = run as u64 * 256 + span.node as u64;
            if named.insert(pid) {
                let name = if span.node == CLIENT_NODE {
                    format!("run {run} client")
                } else {
                    format!("run {run} server {}", span.node - 1)
                };
                sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                );
            }
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{},\"aux\":{}}}}}",
                span.name,
                span.ts_ns / 1000,
                span.ts_ns % 1000,
                span.dur_ns / 1000,
                span.dur_ns % 1000,
                span.lane,
                span.id,
                span.aux,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
    out.push_str("\n  ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // Tests in this module mutate process-global tracing state.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn span(name: &'static str, ts: u64) -> Span {
        Span {
            ts_ns: ts,
            dur_ns: 10,
            node: 0,
            lane: 0,
            name,
            id: 1,
            aux: 0,
        }
    }

    #[test]
    fn span_id_packs_parent_and_sub() {
        assert_eq!(span_id(0, 0), 0);
        assert_eq!(span_id(1, 0), 1 << 16);
        assert_eq!(span_id(1, 5), (1 << 16) | 5);
        assert_ne!(span_id(2, 1), span_id(1, 2));
    }

    #[test]
    fn chunks_merge_in_fork_path_order() {
        let _g = lock();
        reset();
        crate::set_tracing(true);
        let fork = fork_point();
        // Simulate tasks finishing out of submission order.
        for idx in [2u32, 0, 1] {
            let _scope = enter_task(&fork, idx);
            run_begin();
            record(span(["a", "b", "c"][idx as usize], idx as u64));
        }
        crate::set_tracing(false);
        let trace = take_chunks();
        let names: Vec<&str> = trace.spans().map(|(_, s)| s.name).collect();
        assert_eq!(names, ["a", "b", "c"]);
        // Runs renumbered globally in merged order.
        let runs: Vec<u32> = trace.spans().map(|(r, _)| r).collect();
        assert_eq!(runs, [0, 1, 2]);
        reset();
    }

    #[test]
    fn nested_forks_nest_paths() {
        let _g = lock();
        reset();
        crate::set_tracing(true);
        let outer = fork_point();
        {
            let _t1 = enter_task(&outer, 1);
            let inner = fork_point();
            let _t10 = enter_task(&inner, 0);
            run_begin();
            record(span("inner", 5));
        }
        {
            let _t0 = enter_task(&outer, 0);
            run_begin();
            record(span("outer0", 1));
        }
        crate::set_tracing(false);
        let trace = take_chunks();
        let names: Vec<&str> = trace.spans().map(|(_, s)| s.name).collect();
        // Path [0,0] sorts before [0,1,0,0].
        assert_eq!(names, ["outer0", "inner"]);
        reset();
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        reset();
        assert!(!crate::tracing_on());
        record(span("dropped", 0));
        run_begin();
        assert!(take_chunks().is_empty());
        reset();
    }

    #[test]
    fn chrome_json_shape() {
        let _g = lock();
        reset();
        crate::set_tracing(true);
        run_begin();
        record(Span {
            ts_ns: 1_234_567,
            dur_ns: 89,
            node: 3,
            lane: 1,
            name: "dev:hdd",
            id: span_id(7, 2),
            aux: 128,
        });
        crate::set_tracing(false);
        let json = take_chunks().to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("\n]}\n"));
        assert!(json.contains("\"name\":\"dev:hdd\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":0.089"));
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("run 0 server 2"));
        assert!(json.contains(&format!("\"id\":{}", span_id(7, 2))));
        reset();
    }
}
