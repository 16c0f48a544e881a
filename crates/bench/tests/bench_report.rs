//! `expt --bench-report` must describe one pass of the suite. The report
//! runs the experiments twice (the requested `--jobs` pass and a
//! `--jobs 1` rerun), so counters read from process-wide totals must be
//! taken as a delta over one pass — otherwise every fault and
//! maintenance figure in the JSON is a multiple of what the rendered
//! tables show.

use std::process::Command;

/// Column `name` of the first table in `out`, summed over its rows.
fn column_sum(out: &str, name: &str) -> f64 {
    let mut lines = out.lines().skip_while(|l| !l.starts_with("plan "));
    let header: Vec<&str> = lines
        .next()
        .expect("table header")
        .split_whitespace()
        .collect();
    let col = header
        .iter()
        .position(|h| *h == name)
        .unwrap_or_else(|| panic!("no column {name} in {header:?}"));
    lines
        .skip(1) // the rule under the header
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            cells[col].parse::<f64>().expect("numeric cell")
        })
        .sum()
}

/// Integer field `key` of the `fault_counters` object in `json`.
fn fault_counter(json: &str, key: &str) -> u64 {
    let obj = &json[json.find("\"fault_counters\"").expect("fault_counters")..];
    let obj = &obj[..obj.find('}').expect("object end")];
    let at = obj.find(&format!("\"{key}\": ")).expect("counter key") + key.len() + 4;
    obj[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|v| v.parse().ok())
        .expect("integer counter")
}

#[test]
fn bench_report_fault_counters_match_the_rendered_table() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("faults_bench.json");
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .arg("--bench-report")
        .arg(&path)
        .arg("faults")
        .output()
        .expect("expt runs");
    assert!(out.status.success(), "expt failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let json = std::fs::read_to_string(&path).expect("report written");

    let retries = column_sum(&stdout, "retries");
    assert!(retries > 0.0, "the faults table shows no retries");
    assert_eq!(fault_counter(&json, "retries"), retries as u64);
    assert_eq!(
        fault_counter(&json, "timeouts"),
        column_sum(&stdout, "timeouts") as u64
    );
    // The table renders whole KB with one decimal.
    let lost_kb = column_sum(&stdout, "dirty-lost-KB");
    assert_eq!(
        fault_counter(&json, "dirty_bytes_lost"),
        (lost_kb * 1024.0).round() as u64
    );
}
