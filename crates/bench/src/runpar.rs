//! Deterministic parallel execution of independent experiment jobs.
//!
//! Every data point of the harness is an independent cluster simulation
//! in its own virtual time, so host-level parallelism cannot change any
//! measured value — only the wall clock. This module exploits that with
//! a dependency-free worker pool built on [`std::thread::scope`]:
//!
//! * [`par_map`] runs one closure per input on up to [`jobs`] worker
//!   threads and returns the results **in submission order**, so
//!   rendered tables are byte-identical to a sequential run.
//! * [`par_table_rows`] is the common table-filling special case.
//! * The worker budget is a process-wide token pool: nested `par_map`
//!   calls (an experiment parallelising its rows while `expt` runs whole
//!   experiments concurrently) share the same budget instead of
//!   multiplying it, so the host is never oversubscribed.
//!
//! The budget is [`set_jobs`] (the `--jobs` flag), else
//! [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Explicit override (0 = unset). Set once by the CLI before any work.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Extra-worker tokens still available, `None` until first use (or after
/// a [`set_jobs`] reset). The pool holds `jobs() - 1` tokens: the calling
/// thread always acts as one worker without a token.
static TOKENS: Mutex<Option<usize>> = Mutex::new(None);

/// Sets the worker budget (the `--jobs N` flag). Call before spawning
/// parallel work; resets the shared token pool.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
    *TOKENS.lock().unwrap() = None;
}

/// The effective worker budget: [`set_jobs`] value, else the machine's
/// available parallelism.
pub fn jobs() -> usize {
    let set = JOBS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Takes up to `want` extra-worker tokens from the shared pool.
fn acquire_tokens(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let mut guard = TOKENS.lock().unwrap();
    let avail = guard.get_or_insert_with(|| jobs().saturating_sub(1));
    let got = want.min(*avail);
    *avail -= got;
    got
}

/// Returns tokens to the pool.
fn release_tokens(n: usize) {
    if n == 0 {
        return;
    }
    if let Some(avail) = TOKENS.lock().unwrap().as_mut() {
        *avail += n;
    }
}

/// Maps `f` over `inputs` on up to [`jobs`] threads (shared budget) and
/// returns the results in submission order. Falls back to a plain
/// sequential map when the budget (or the input) is a single job.
pub fn par_map<T, R>(inputs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let extra = acquire_tokens(inputs.len().saturating_sub(1));
    let out = par_map_workers(extra + 1, inputs, f);
    release_tokens(extra);
    out
}

/// [`par_map`] with an explicit worker count, bypassing the shared token
/// pool — determinism tests use this to compare worker counts directly.
pub fn par_map_jobs<T, R>(workers: usize, inputs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    par_map_workers(workers.max(1), inputs, f)
}

fn par_map_workers<T, R>(workers: usize, inputs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    // Observability: every fan-out — parallel or sequential — claims one
    // fork point, and each task runs inside its own scope so spans land
    // in per-task buffers labelled by submission index, never by thread.
    // Task-scope exit is also the deterministic flush point for worker
    // metrics (scoped join does not order TLS destructors). One atomic
    // load when observability is off.
    let fork = ibridge_obs::active().then(ibridge_obs::trace::fork_point);
    let run_task = |i: usize, input: T| match &fork {
        Some(fp) => {
            let _scope = ibridge_obs::trace::enter_task(fp, i as u32);
            f(input)
        }
        None => f(input),
    };
    let workers = workers.min(inputs.len());
    if workers <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, t)| run_task(i, t))
            .collect();
    }
    // Shared work list and per-slot result cells. A Mutex per cell is
    // uncontended (each is touched by exactly one worker at a time) and
    // keeps the pool free of unsafe code; its cost is nanoseconds against
    // jobs that each run a full cluster simulation.
    let items: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let run_task = &run_task;
    std::thread::scope(|scope| {
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let input = item.lock().unwrap().take().expect("job taken twice");
            let r = run_task(i, input);
            *results[i].lock().unwrap() = Some(r);
        };
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker dropped a result"))
        .collect()
}

/// Fills `table` with one row per input, computing the rows in parallel
/// but appending them in input order.
pub fn par_table_rows<T: Send>(
    table: &mut crate::Table,
    inputs: Vec<T>,
    f: impl Fn(T) -> Vec<String> + Sync,
) {
    for row in par_map(inputs, f) {
        table.row(&row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_submission_order() {
        let inputs: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 8, 128] {
            let par = par_map_jobs(workers, inputs.clone(), |x| x * x);
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map_jobs(8, Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(par_map_jobs(8, vec![5u64], |x| x + 1), vec![6]);
    }

    #[test]
    fn token_pool_bounds_nesting() {
        // Nested par_map must not deadlock and must still return ordered
        // results even when the outer level holds the whole budget.
        let outer: Vec<u64> = (0..8).collect();
        let got = par_map(outer, |i| {
            let inner: Vec<u64> = (0..16).collect();
            par_map(inner, |j| i * 100 + j).iter().sum::<u64>()
        });
        let want: Vec<u64> = (0..8)
            .map(|i| (0..16).map(|j| i * 100 + j).sum::<u64>())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_table_rows_appends_in_order() {
        let mut t = crate::Table::new("demo", &["i", "sq"]);
        par_table_rows(&mut t, (0..10u64).collect(), |i| {
            vec![i.to_string(), (i * i).to_string()]
        });
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Rows start after title, header, rule.
        assert!(lines[3].starts_with('0'));
        assert!(lines[12].starts_with("9"));
    }
}
