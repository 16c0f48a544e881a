//! Counters read from `RunStats` and the obs registry, per-pass deltas,
//! and the metrics derived from them.
//!
//! `RunStats` mixes two kinds of counters. `bytes`, `requests`,
//! `elapsed`, latencies, readahead hits, dispatch histograms and
//! `faults` cover one `Cluster::run`. The per-server `policy`, `maint`,
//! `primary` and `cache` counters are cumulative over the cluster's
//! lifetime. A workload of several passes on one cluster must therefore
//! subtract the previous pass's snapshot ([`Cumulative::minus`]) before
//! it reports a pass. Nothing here reads the process-global
//! `total_*_counters()` of `ibridge_pvfs::cluster`.

use ibridge_obs::metrics::{Phase, Registry, N_PHASES};
use ibridge_pvfs::RunStats;

macro_rules! cumulative {
    ($($field:ident),* $(,)?) => {
        /// The lifetime-cumulative per-server counters of a `RunStats`,
        /// summed over servers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Cumulative {
            $(#[allow(missing_docs)] pub $field: u64,)*
        }

        impl Cumulative {
            /// `self - earlier`, field by field; `None` if any counter
            /// went backwards (it was not cumulative after all).
            pub fn minus(&self, earlier: &Cumulative) -> Option<Cumulative> {
                Some(Cumulative { $($field: self.$field.checked_sub(earlier.$field)?,)* })
            }

            /// Field-by-field sum.
            pub fn plus(&self, o: &Cumulative) -> Cumulative {
                Cumulative { $($field: self.$field + o.$field,)* }
            }
        }
    };
}

cumulative!(
    bytes_ssd,
    bytes_disk,
    read_hits,
    read_misses,
    redirected_writes,
    admissions,
    evictions,
    admission_failures,
    appended_bytes,
    maint_ticks,
    busy_skips,
    records_appended,
    records_rewritten,
    checkpoints,
    checkpoint_records,
    checkpoint_bytes,
    hdd_busy_ns,
    hdd_requests,
    ssd_busy_ns,
    ssd_requests,
    idle_probes,
    idle_grants,
);

impl Cumulative {
    /// Reads the cumulative counters of a run's per-server stats.
    pub fn of(stats: &RunStats) -> Cumulative {
        let mut c = Cumulative::default();
        for s in &stats.servers {
            let p = &s.policy;
            c.bytes_ssd += p.bytes_ssd;
            c.bytes_disk += p.bytes_disk;
            c.read_hits += p.read_hits;
            c.read_misses += p.read_misses;
            c.redirected_writes += p.redirected_writes;
            c.admissions += p.admissions;
            c.evictions += p.evictions;
            c.admission_failures += p.admission_failures;
            c.appended_bytes += p.appended_bytes;
            let m = &s.maint;
            c.maint_ticks += m.ticks;
            c.busy_skips += m.busy_skips;
            c.records_appended += m.records_appended;
            c.records_rewritten += m.records_rewritten;
            c.checkpoints += m.checkpoints;
            c.checkpoint_records += m.checkpoint_records;
            c.checkpoint_bytes += m.checkpoint_bytes;
            c.hdd_busy_ns += s.primary.busy.as_nanos();
            c.hdd_requests += s.primary.requests;
            c.idle_probes += s.primary.idle_probes;
            c.idle_grants += s.primary.idle_grants;
            if let Some(d) = &s.cache {
                c.ssd_busy_ns += d.busy.as_nanos();
                c.ssd_requests += d.requests;
                c.idle_probes += d.idle_probes;
                c.idle_grants += d.idle_grants;
            }
        }
        c
    }
}

/// Splits the cumulative counters of consecutive passes into per-pass
/// deltas. `None` if a counter went backwards between passes.
pub fn per_pass(runs: &[&RunStats]) -> Option<Vec<Cumulative>> {
    let mut prev = Cumulative::default();
    runs.iter()
        .map(|r| {
            let now = Cumulative::of(r);
            let d = now.minus(&prev)?;
            prev = now;
            Some(d)
        })
        .collect()
}

/// Exact virtual-time sums and counts of the obs phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phases {
    /// Per phase: summed latency, ns.
    pub sum_ns: [u64; N_PHASES],
    /// Per phase: samples.
    pub count: [u64; N_PHASES],
    /// Sub-requests the servers served.
    pub subs: u64,
}

impl Default for Phases {
    fn default() -> Self {
        Phases {
            sum_ns: [0; N_PHASES],
            count: [0; N_PHASES],
            subs: 0,
        }
    }
}

impl Phases {
    /// Reads a registry snapshot (exact `sum`/`count`, never the
    /// power-of-two quantiles).
    pub fn of(reg: &Registry) -> Phases {
        let mut p = Phases {
            subs: reg.servers.values().map(|s| s.subs).sum(),
            ..Phases::default()
        };
        for ph in Phase::ALL {
            p.sum_ns[ph.idx()] = reg.phases[ph.idx()].sum();
            p.count[ph.idx()] = reg.phases[ph.idx()].count();
        }
        p
    }

    /// `self - earlier` (the registry only grows).
    pub fn minus(&self, earlier: &Phases) -> Phases {
        let mut d = Phases {
            subs: self.subs - earlier.subs,
            ..Phases::default()
        };
        for i in 0..N_PHASES {
            d.sum_ns[i] = self.sum_ns[i] - earlier.sum_ns[i];
            d.count[i] = self.count[i] - earlier.count[i];
        }
        d
    }

    /// Field-by-field sum.
    pub fn plus(&self, o: &Phases) -> Phases {
        let mut s = *self;
        s.subs += o.subs;
        for i in 0..N_PHASES {
            s.sum_ns[i] += o.sum_ns[i];
            s.count[i] += o.count[i];
        }
        s
    }

    /// Mean of a phase in virtual milliseconds (0 with no samples).
    pub fn mean_ms(&self, ph: Phase) -> f64 {
        let n = self.count[ph.idx()];
        if n == 0 {
            0.0
        } else {
            self.sum_ns[ph.idx()] as f64 / n as f64 / 1e6
        }
    }
}

/// Quantile `q` of exact latencies (ns) in milliseconds, linearly
/// interpolated between order statistics; 0 for no samples.
pub fn quantile_ms(latencies_ns: &[u64], q: f64) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    let mut v = latencies_ns.to_vec();
    v.sort_unstable();
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let x = v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (pos - lo as f64);
    x / 1e6
}

/// Mean dispatch size on the primary devices, KB.
pub fn hdd_dispatch_kb(runs: &[&RunStats]) -> f64 {
    let (mut sectors, mut n) = (0u64, 0u64);
    for r in runs {
        for h in [r.combined_read_hist(), r.combined_write_hist()] {
            for (k, c) in h.iter() {
                sectors += k * c;
                n += c;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sectors as f64 * 512.0 / n as f64 / 1024.0
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    #[test]
    fn per_pass_deltas_sum_to_the_final_cumulative_value() {
        // Two passes on one cluster: the second pass's raw counters
        // include the first's, the deltas do not.
        let spec = Spec::MixedIbridgeContended;
        let mut cluster = spec.build(spec.config(3, false));
        for (file, bytes) in spec.files() {
            cluster.preallocate(file, bytes);
        }
        let runs: Vec<RunStats> = spec
            .passes(3)
            .into_iter()
            .map(|mut w| cluster.run(w.as_mut()))
            .collect();
        let refs: Vec<&RunStats> = runs.iter().collect();
        let deltas = per_pass(&refs).expect("counters are cumulative");
        let total = deltas
            .iter()
            .fold(Cumulative::default(), |acc, d| acc.plus(d));
        assert_eq!(total, Cumulative::of(runs.last().unwrap()));
        assert!(deltas[0].read_misses > 0 && deltas[1].read_hits > 0);
        assert!(
            Cumulative::of(&runs[1]).read_misses > deltas[1].read_misses,
            "raw second-pass counters include the first pass"
        );
    }

    #[test]
    fn exact_quantiles_interpolate_between_order_statistics() {
        let ns: Vec<u64> = (1..=5).map(|i| i * 1_000_000).collect();
        assert_eq!(quantile_ms(&ns, 0.5), 3.0);
        assert_eq!(quantile_ms(&ns, 0.25), 2.0);
        assert!((quantile_ms(&ns, 0.99) - 4.96).abs() < 1e-9);
        assert_eq!(quantile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
