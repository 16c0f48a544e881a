//! `calbench` — calendar-queue microbenchmark for the perf-smoke gate.
//!
//! Dispatches a fixed number of events (default 10⁶) through the DES
//! calendar while keeping a rolling window of pending timers, the same
//! push/pop/cancel mix a cluster run produces. Stdout is a deterministic
//! digest that CI compares against a committed golden; wall-clock
//! figures go to stderr so timing noise never fails the gate.
//!
//! ```text
//! calbench [--events N] [--window W] [--seed S]
//! ```

use ibridge_bench::alloc_count;
use ibridge_des::rng::stream_rng;
use ibridge_des::{SimDuration, SimTime, Simulation};
use rand::Rng;
use std::time::Instant;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static COUNTING_ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("integer argument"))
            .unwrap_or(default)
    };
    let total: u64 = get("--events", 1_000_000);
    let window: u64 = get("--window", 256);
    let seed: u64 = get("--seed", 42);

    let mut sim: Simulation<u64> = Simulation::new();
    let mut rng = stream_rng(seed, 0);
    // Pending timers get cancelled and rescheduled like device rechecks.
    let mut cancel_me = Vec::new();
    let mut payload_sum = 0u64;
    let mut dispatched = 0u64;
    for i in 0..window {
        sim.post_in(SimDuration::from_nanos(rng.gen_range(1..1000)), i);
    }
    let a0 = alloc_count::snapshot();
    let t0 = Instant::now();
    while dispatched < total {
        let (now, payload) = sim.pop().expect("calendar drained early");
        dispatched += 1;
        payload_sum = payload_sum.wrapping_mul(31).wrapping_add(payload);
        // Keep the window full: one new timer per dispatch, and every
        // 16th event also schedules-then-cancels (the recheck pattern).
        let d = SimDuration::from_nanos(rng.gen_range(1..1000));
        sim.post_in(d, payload.wrapping_add(1));
        if dispatched.is_multiple_of(16) {
            let id = sim.schedule_at(
                now + SimDuration::from_nanos(rng.gen_range(1..1000)),
                u64::MAX,
            );
            cancel_me.push(id);
        }
        if cancel_me.len() >= 8 {
            for id in cancel_me.drain(..) {
                sim.cancel(id);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let a1 = alloc_count::snapshot();

    // Deterministic digest: compared byte-for-byte by CI.
    println!(
        "calbench events={} window={} seed={} digest={:016x} final_ns={}",
        dispatched,
        window,
        seed,
        payload_sum,
        sim.now().as_nanos(),
    );
    eprintln!(
        "[calbench: {:.0} events/s, {:.3}s wall{}]",
        dispatched as f64 / wall.max(1e-9),
        wall,
        if alloc_count::enabled() {
            format!(
                ", {} allocs ({:.4}/event), peak {} bytes",
                a1.allocs - a0.allocs,
                (a1.allocs - a0.allocs) as f64 / dispatched as f64,
                a1.peak,
            )
        } else {
            String::new()
        }
    );

    // Node-keyed microbench: the same event volume as a ping-pong ring
    // whose every post names its source node, so same-instant ties break
    // by the calendar's intrinsic (node, per-node seq) key rather than
    // by insertion order. Throughput goes to stderr like the FIFO
    // figures.
    let (digest, events, wall) = ring(total);
    println!("calbench ring events={events} nodes={RING_NODES} digest={digest:016x}");
    eprintln!(
        "[calbench ring: {:.0} events/s, {:.3}s wall]",
        events as f64 / wall.max(1e-9),
        wall,
    );
}

/// Nodes in the ring.
const RING_NODES: usize = 8;

/// One hop of the ring: the payload visits `node`, folds into its
/// digest, and forwards a mutated payload to the next node.
struct Hop {
    node: u16,
    hops: u32,
    payload: u64,
}

/// Runs `total` ring-hop events over `RING_NODES` nodes. Returns the
/// node-order digest, the events dispatched and the wall seconds.
fn ring(total: u64) -> (u64, u64, f64) {
    const L: SimDuration = SimDuration::from_micros(1);
    let mut sim: Simulation<Hop> = Simulation::new();

    // Four starters per node; each chain's hop budget splits `total`
    // exactly.
    let starters = (RING_NODES * 4) as u64;
    let hops = (total / starters).max(1) as u32 - 1;
    for n in 0..RING_NODES as u16 {
        for k in 0..4u64 {
            sim.post_from(
                n,
                SimTime::ZERO + SimDuration::from_nanos(1 + k * 7 + n as u64),
                Hop {
                    node: n,
                    hops,
                    payload: (n as u64) << 32 | k,
                },
            );
        }
    }

    // Per-node digest folds, combined in node order below.
    let mut digests = [0u64; RING_NODES];
    let t0 = Instant::now();
    while let Some((now, ev)) = sim.pop() {
        let d = &mut digests[ev.node as usize];
        *d = d.wrapping_mul(31).wrapping_add(ev.payload ^ now.as_nanos());
        if ev.hops > 0 {
            let dst = ((ev.node as usize + 1) % RING_NODES) as u16;
            let at = now + L + SimDuration::from_nanos(ev.payload % 997);
            sim.post_from(
                ev.node,
                at,
                Hop {
                    node: dst,
                    hops: ev.hops - 1,
                    payload: ev
                        .payload
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407),
                },
            );
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let digest = digests
        .iter()
        .fold(0u64, |acc, &d| acc.wrapping_mul(31).wrapping_add(d));
    (digest, sim.dispatched(), wall)
}
