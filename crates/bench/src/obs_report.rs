//! Rendering of the observability metrics registry.
//!
//! Turns an [`ibridge_obs::metrics::Registry`] snapshot into the text
//! tables printed by `expt --metrics` and into the JSON fragment merged
//! into `--bench-report`. All numbers are virtual-time nanoseconds from
//! the registry; formatting picks a humane unit per value, and the
//! output depends only on the (deterministic) registry contents.

use crate::Table;
use ibridge_obs::metrics::{Phase, Registry, SubClass};
use std::fmt::Write as _;

/// Formats a nanosecond count with an adaptive unit (ns/µs/ms/s).
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Formats a byte count with an adaptive unit.
fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

fn mean(sum_ns: u64, n: u64) -> String {
    match sum_ns.checked_div(n) {
        Some(m) => fmt_ns(m),
        None => "-".to_string(),
    }
}

/// Renders the `--metrics` text report: per-phase latency quantiles,
/// per-entry-class service latency, and per-server aggregates with the
/// measured-vs-predicted `T_i` residual. Returns an empty string when
/// nothing was recorded (the selected experiments ran no cluster).
pub fn render(reg: &Registry) -> String {
    if reg.is_empty() {
        return String::new();
    }
    let mut out = String::new();

    let mut t = Table::new(
        "metrics: phase latency (virtual time)",
        &["phase", "count", "p50", "p95", "p99", "max", "mean"],
    );
    for p in Phase::ALL {
        let h = &reg.phases[p.idx()];
        if h.count() == 0 {
            continue;
        }
        t.row(&[
            p.name().to_string(),
            h.count().to_string(),
            fmt_ns(h.p50().unwrap_or(0)),
            fmt_ns(h.p95().unwrap_or(0)),
            fmt_ns(h.p99().unwrap_or(0)),
            fmt_ns(h.max().unwrap_or(0)),
            fmt_ns(h.mean().unwrap_or(0.0) as u64),
        ]);
    }
    out.push_str(&t.block());

    let mut t = Table::new(
        "metrics: entry classes",
        &["class", "subs", "bytes", "p50", "p99", "max"],
    );
    for c in SubClass::ALL {
        let h = &reg.classes[c.idx()];
        if h.count() == 0 {
            continue;
        }
        t.row(&[
            c.name().to_string(),
            h.count().to_string(),
            fmt_bytes(reg.class_bytes[c.idx()]),
            fmt_ns(h.p50().unwrap_or(0)),
            fmt_ns(h.p99().unwrap_or(0)),
            fmt_ns(h.max().unwrap_or(0)),
        ]);
    }
    if !t.is_empty() {
        out.push_str(&t.block());
    }

    let mut t = Table::new(
        "metrics: servers (T_i = per-request disk busy time)",
        &[
            "server",
            "subs",
            "bytes",
            "disk-mean",
            "ssd-mean",
            "T_i pred",
            "T_i meas",
            "resid%",
        ],
    );
    for (&s, a) in &reg.servers {
        let dash = || "-".to_string();
        let (pred, meas, resid) = match (
            a.ti_pred_ns.checked_div(a.ti_runs),
            a.ti_meas_ns.checked_div(a.ti_runs),
        ) {
            (Some(pred), Some(meas)) => {
                let resid = if meas > 0 {
                    format!("{:+.1}", (pred as f64 - meas as f64) / meas as f64 * 100.0)
                } else {
                    dash()
                };
                (fmt_ns(pred), fmt_ns(meas), resid)
            }
            _ => (dash(), dash(), dash()),
        };
        t.row(&[
            s.to_string(),
            a.subs.to_string(),
            fmt_bytes(a.bytes),
            mean(a.disk_ns, a.disk_subs),
            mean(a.ssd_ns, a.ssd_subs),
            pred,
            meas,
            resid,
        ]);
    }
    if !t.is_empty() {
        out.push_str(&t.block());
    }

    // Replicated-MDS counters. Only appears when a run recorded MDS
    // activity (replicated group or stale-T degradation), so existing
    // golden-compared output is unchanged.
    if !reg.mds.is_empty() {
        let m = &reg.mds;
        let mut t = Table::new("metrics: replicated mds", &["counter", "value"]);
        t.row(&["elections".to_string(), m.elections.to_string()]);
        t.row(&["leader-changes".to_string(), m.leader_changes.to_string()]);
        t.row(&["recovery".to_string(), fmt_ns(m.recovery_ticks)]);
        t.row(&[
            "stale-T decisions".to_string(),
            m.stale_t_decisions.to_string(),
        ]);
        t.row(&["proposals".to_string(), m.proposals.to_string()]);
        t.row(&["commits".to_string(), m.commits.to_string()]);
        out.push_str(&t.block());
    }

    // Backup-log maintenance counters. Only appears when a run
    // performed segmented-log maintenance (checkpoint, compaction or
    // scrub activity), so maintenance-free golden output is unchanged.
    if !reg.maint.is_empty() {
        let m = &reg.maint;
        let mut t = Table::new("metrics: backup-log maintenance", &["counter", "value"]);
        t.row(&[
            "ticks (busy-skipped)".to_string(),
            format!("{} ({})", m.ticks, m.busy_skips),
        ]);
        t.row(&[
            "records appended".to_string(),
            format!("{} ({})", m.records_appended, fmt_bytes(m.backup_bytes)),
        ]);
        t.row(&["tombstones".to_string(), m.tombstones.to_string()]);
        t.row(&["supersedes".to_string(), m.supersedes.to_string()]);
        t.row(&[
            "segments sealed/compacted/reclaimed".to_string(),
            format!(
                "{}/{}/{}",
                m.segments_sealed, m.segments_compacted, m.segments_reclaimed
            ),
        ]);
        t.row(&[
            "records rewritten".to_string(),
            format!("{} ({})", m.records_rewritten, fmt_bytes(m.rewrite_bytes)),
        ]);
        t.row(&[
            "checkpoints".to_string(),
            format!(
                "{} ({} records, {})",
                m.checkpoints,
                m.checkpoint_records,
                fmt_bytes(m.checkpoint_bytes)
            ),
        ]);
        t.row(&[
            "scrub segments/records/repairs".to_string(),
            format!(
                "{}/{}/{}",
                m.scrub_segments, m.scrub_records, m.scrub_repairs
            ),
        ]);
        out.push_str(&t.block());
    }
    out
}

/// The metrics registry as a JSON object fragment (no trailing comma or
/// newline) for embedding in the `--bench-report` document. Empty
/// registries produce `"obs_metrics": null`.
pub fn json_fragment(reg: &Registry) -> String {
    if reg.is_empty() {
        return "  \"obs_metrics\": null".to_string();
    }
    let mut out = String::new();
    out.push_str("  \"obs_metrics\": {\n    \"phases\": {\n");
    let mut first = true;
    for p in Phase::ALL {
        let h = &reg.phases[p.idx()];
        if h.count() == 0 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "      \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            p.name(),
            h.count(),
            h.sum(),
            h.p50().unwrap_or(0),
            h.p95().unwrap_or(0),
            h.p99().unwrap_or(0),
            h.max().unwrap_or(0)
        );
    }
    out.push_str("\n    },\n    \"servers\": {\n");
    let mut first = true;
    for (&s, a) in &reg.servers {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "      \"{}\": {{\"subs\": {}, \"bytes\": {}, \"disk_subs\": {}, \"ssd_subs\": {}, \"ti_pred_ns\": {}, \"ti_meas_ns\": {}, \"ti_runs\": {}}}",
            s, a.subs, a.bytes, a.disk_subs, a.ssd_subs, a.ti_pred_ns, a.ti_meas_ns, a.ti_runs
        );
    }
    out.push_str("\n    }");
    if !reg.mds.is_empty() {
        let m = &reg.mds;
        let _ = write!(
            out,
            ",\n    \"mds\": {{\"runs\": {}, \"elections\": {}, \"leader_changes\": {}, \
             \"recovery_ticks\": {}, \"stale_t_decisions\": {}, \"proposals\": {}, \
             \"commits\": {}}}",
            m.runs,
            m.elections,
            m.leader_changes,
            m.recovery_ticks,
            m.stale_t_decisions,
            m.proposals,
            m.commits,
        );
    }
    if !reg.maint.is_empty() {
        let m = &reg.maint;
        let _ = write!(
            out,
            ",\n    \"maint\": {{\"runs\": {}, \"ticks\": {}, \"busy_skips\": {}, \
             \"records_appended\": {}, \"tombstones\": {}, \"supersedes\": {}, \
             \"backup_bytes\": {}, \"segments_sealed\": {}, \"segments_compacted\": {}, \
             \"segments_reclaimed\": {}, \"records_rewritten\": {}, \"rewrite_bytes\": {}, \
             \"checkpoints\": {}, \"checkpoint_records\": {}, \"checkpoint_bytes\": {}, \
             \"scrub_segments\": {}, \"scrub_records\": {}, \"scrub_repairs\": {}}}",
            m.runs,
            m.ticks,
            m.busy_skips,
            m.records_appended,
            m.tombstones,
            m.supersedes,
            m.backup_bytes,
            m.segments_sealed,
            m.segments_compacted,
            m.segments_reclaimed,
            m.records_rewritten,
            m.rewrite_bytes,
            m.checkpoints,
            m.checkpoint_records,
            m.checkpoint_bytes,
            m.scrub_segments,
            m.scrub_records,
            m.scrub_repairs,
        );
    }
    out.push_str("\n  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_000_000), "2.000ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500s");
    }

    #[test]
    fn empty_registry_renders_empty() {
        let reg = Registry::new();
        assert!(render(&reg).is_empty());
        assert_eq!(json_fragment(&reg), "  \"obs_metrics\": null");
    }

    #[test]
    fn populated_registry_renders_tables() {
        let mut reg = Registry::new();
        reg.phases[Phase::Request.idx()].record(1_000_000);
        reg.classes[SubClass::Bulk.idx()].record(500_000);
        reg.class_bytes[SubClass::Bulk.idx()] = 65536;
        let agg = reg.servers.entry(3).or_default();
        agg.subs = 10;
        agg.bytes = 655360;
        agg.disk_ns = 5_000_000;
        agg.disk_subs = 10;
        agg.ti_pred_ns = 900;
        agg.ti_meas_ns = 1000;
        agg.ti_runs = 1;
        let s = render(&reg);
        assert!(s.contains("request"));
        assert!(s.contains("bulk"));
        assert!(s.contains("-10.0"), "residual missing: {s}");
        let j = json_fragment(&reg);
        assert!(j.contains("\"request\""));
        assert!(j.contains("\"ti_runs\": 1"));
    }
}
