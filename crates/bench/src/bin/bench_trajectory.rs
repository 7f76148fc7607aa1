//! The per-PR perf-trajectory gate over the committed `BENCH_pr13.json`.
//!
//! Two modes:
//!
//! * `bench_trajectory --write [--out PATH]` — combine the freshly
//!   emitted `BENCH_hotpath.json` (E18), `BENCH_scale.json` (E19),
//!   `BENCH_compaction.json` (E20), `BENCH_storm.json` (E21) and
//!   `BENCH_cohort.json` (E23) artifacts from `$EXPERIMENTS_DIR`
//!   (default `target/experiments`) into one trajectory document,
//!   written to `PATH` (default `BENCH_pr13.json`). Run from the repo
//!   root to refresh the committed baseline.
//! * `bench_trajectory --check BASELINE [--out PATH]` — combine the
//!   fresh artifacts the same way (written to `PATH` for CI upload),
//!   then gate every row the baseline and the fresh document share.
//!   Rows are matched by table name plus the row's first (key) column,
//!   so a full-mode baseline gates a smoke-mode run on the rows they
//!   share; a baseline row the fresh run lacks is skipped. Within a
//!   shared row, every gated baseline column must be present in the
//!   fresh row — a dropped column fails, so deleting a column cannot
//!   silently drop its gate. Two kinds of column are gated:
//!   - **throughput metrics** — a column whose name contains `per_sec`
//!     or `speedup` — fail if the fresh value falls below
//!     `(1 - tolerance) x baseline`; `tolerance` is 0.25, overridable via
//!     `BENCH_TRAJECTORY_TOLERANCE`;
//!   - **outcome counters** ([`COUNTER_COLUMNS`]) are deterministic
//!     functions of the experiment's configuration and fail on any
//!     difference.
//!
//! Absolute `per_sec` numbers shift with the hardware profile, which is
//! why that band is wide and one-sided (only regressions fail, speedups
//! never do) and why the baseline should be refreshed from the CI
//! artifact after a runner-profile change — see README.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use histmerge_bench::json::{metric_number, parse, JsonVal};

/// Columns gated exactly: outcome counters that depend only on an
/// experiment's configuration. `wave_rounds` and `fastpath` are
/// mechanism counters, host-independent because E23 (the only
/// experiment emitting them) pins its worker count.
const COUNTER_COLUMNS: [&str; 11] = [
    "syncs",
    "saved",
    "reprocessed",
    "commits",
    "save_ratio",
    "shed",
    "drained",
    "defer_peak",
    "batch_max",
    "wave_rounds",
    "fastpath",
];

/// How a gated column is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Gate {
    /// One-sided: fresh must stay above `(1 - tolerance) x baseline`.
    Throughput,
    /// Fresh must equal the baseline.
    Exact,
}

/// The gate of `column`, if any.
fn gate_of(column: &str) -> Option<Gate> {
    if column.contains("per_sec") || column.contains("speedup") {
        Some(Gate::Throughput)
    } else if COUNTER_COLUMNS.contains(&column) {
        Some(Gate::Exact)
    } else {
        None
    }
}

/// The artifacts a trajectory document combines, in document order.
const ARTIFACTS: [&str; 5] =
    ["BENCH_hotpath", "BENCH_scale", "BENCH_compaction", "BENCH_storm", "BENCH_cohort"];

fn artifacts_dir() -> PathBuf {
    std::env::var_os("EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/experiments"))
}

/// Reads and validates one emitted artifact, returning its raw JSON text.
fn read_artifact(name: &str) -> Result<String, String> {
    let path = artifacts_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {} (run exp_hotpath, exp_scale, exp_compaction, exp_storm and \
             exp_cohort first): {e}",
            path.display()
        )
    })?;
    parse(&text).map_err(|e| format!("{}: invalid JSON: {e}", path.display()))?;
    Ok(text)
}

/// Combines the per-experiment artifacts into the trajectory document.
/// The payloads are already-validated JSON, so assembly is textual.
fn combine() -> Result<String, String> {
    let mut entries = Vec::new();
    for name in ARTIFACTS {
        entries.push(format!("\"{name}\":{}", read_artifact(name)?));
    }
    Ok(format!("{{\"bench\":\"trajectory\",\"artifacts\":{{{}}}}}", entries.join(",")))
}

/// One row's gated columns: column name -> (gate, value).
type Row = BTreeMap<String, (Gate, f64)>;

/// Flattens a trajectory document into its gated rows:
/// `artifact/table[row-key] -> {column -> (gate, value)}` for every
/// column with a [`Gate`]. The row key is the row's first column (artifact rows always
/// lead with one — fleet size, mobile count), which keeps the mapping
/// stable when a smoke run emits a subset of the baseline's rows.
fn gated_rows(doc: &JsonVal) -> BTreeMap<String, Row> {
    let mut rows_out = BTreeMap::new();
    let Some(artifacts) = doc.get("artifacts").and_then(JsonVal::as_obj) else {
        return rows_out;
    };
    for (artifact, body) in artifacts {
        let Some(tables) = body.get("tables").and_then(JsonVal::as_obj) else { continue };
        for (table, rows) in tables {
            for row in rows.as_arr().unwrap_or(&[]) {
                let Some(members) = row.as_obj() else { continue };
                let Some((key_col, key_val)) = members.first() else { continue };
                let row_key = format!("{key_col}={}", key_val.as_str().unwrap_or("?"));
                let table = format!("{artifact}/{table}");
                let gated: Row = members
                    .iter()
                    .filter_map(|(column, value)| {
                        let gate = gate_of(column)?;
                        Some((column.clone(), (gate, value.as_str().and_then(metric_number)?)))
                    })
                    .collect();
                rows_out.insert(format!("{table}[{row_key}]"), gated);
            }
        }
    }
    rows_out
}

fn tolerance() -> f64 {
    std::env::var("BENCH_TRAJECTORY_TOLERANCE")
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(0.25)
}

/// Gates `fresh` against `baseline`. Returns the number of failures.
fn check(baseline: &JsonVal, fresh: &JsonVal) -> usize {
    let tolerance = tolerance();
    let base = gated_rows(baseline);
    let new = gated_rows(fresh);
    let floor = 1.0 - tolerance;
    let mut failures = 0;
    let mut compared = 0;
    println!(
        "trajectory gate: fresh >= {floor:.2} x baseline on throughput metrics, \
         fresh == baseline on outcome counters\n"
    );
    for (row, base_cols) in &base {
        let Some(new_cols) = new.get(row) else {
            println!("  skip  {row} (row not in fresh run)");
            continue;
        };
        for (column, &(gate, b)) in base_cols {
            let name = format!("{row}.{column}");
            let Some(&(_, f)) = new_cols.get(column) else {
                failures += 1;
                println!("  FAIL  {name}: baseline {b}, missing from the fresh row");
                continue;
            };
            compared += 1;
            let (ok, detail) = match gate {
                Gate::Exact => (f == b, format!("baseline {b}, fresh {f} (exact)")),
                Gate::Throughput => {
                    let ratio = if b > 0.0 { f / b } else { 1.0 };
                    (f >= floor * b, format!("baseline {b:.1}, fresh {f:.1} ({ratio:.2}x)"))
                }
            };
            if !ok {
                failures += 1;
            }
            println!("  {}  {name}: {detail}", if ok { "ok  " } else { "FAIL" });
        }
    }
    for row in new.keys().filter(|r| !base.contains_key(*r)) {
        println!("  new   {row} (no baseline yet)");
    }
    println!(
        "\n{compared} metric(s) compared, {failures} failure(s) (throughput band {:.0}%)",
        tolerance * 100.0
    );
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = None;
    let mut baseline_path = None;
    let mut out = PathBuf::from("BENCH_pr13.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write" => mode = Some("write"),
            "--check" => {
                mode = Some("check");
                baseline_path = it.next().cloned();
            }
            "--out" => {
                if let Some(p) = it.next() {
                    out = PathBuf::from(p);
                }
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let combined = match combine() {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_trajectory: {e}");
            return ExitCode::FAILURE;
        }
    };

    match mode {
        Some("write") => {
            std::fs::write(&out, &combined).expect("write trajectory document");
            println!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Some("check") => {
            let Some(baseline_path) = baseline_path else {
                eprintln!("usage: bench_trajectory --check BASELINE [--out PATH]");
                return ExitCode::FAILURE;
            };
            let baseline_text = match std::fs::read_to_string(&baseline_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read baseline {baseline_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let baseline = match parse(&baseline_text) {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("baseline {baseline_path} is invalid JSON: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Keep the fresh combined document for the CI artifact upload.
            std::fs::write(&out, &combined).expect("write trajectory document");
            println!("wrote fresh trajectory to {}\n", out.display());
            let fresh = parse(&combined).expect("combined document is valid");
            if check(&baseline, &fresh) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: bench_trajectory (--write | --check BASELINE) [--out PATH]");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_doc(table: &str, rows: &str) -> JsonVal {
        parse(&format!(
            "{{\"bench\":\"trajectory\",\"artifacts\":{{\
             \"BENCH_scale\":{{\"experiment\":\"exp_scale\",\"tables\":{{\
             \"{table}\":[{rows}]}}}}}}}}"
        ))
        .unwrap()
    }

    fn doc(rows: &str) -> JsonVal {
        table_doc("merge_regime", rows)
    }

    fn row(fleet: &str, mps: &str) -> String {
        format!("{{\"fleet\":\"{fleet}\",\"merges_per_sec\":\"{mps}\",\"wall_ms\":\"9\"}}")
    }

    fn counter_row(fleet: &str, mps: &str, syncs: &str) -> String {
        format!(
            "{{\"fleet\":\"{fleet}\",\"syncs\":\"{syncs}\",\"merges_per_sec\":\"{mps}\",\
             \"wall_ms\":\"9\"}}"
        )
    }

    #[test]
    fn extracts_only_gated_columns_keyed_by_first_column() {
        let rows = gated_rows(&doc(&counter_row("10000", "123.4", "7")));
        let expected: Row = BTreeMap::from([
            ("merges_per_sec".to_string(), (Gate::Throughput, 123.4)),
            ("syncs".to_string(), (Gate::Exact, 7.0)),
        ]);
        assert_eq!(
            rows,
            BTreeMap::from([("BENCH_scale/merge_regime[fleet=10000]".to_string(), expected)])
        );
    }

    #[test]
    fn gate_passes_within_band_and_fails_beyond_it() {
        let baseline = doc(&format!("{},{}", row("10000", "100"), row("1000000", "80")));
        // Within the 25% band, and the 1M baseline row absent from the
        // fresh (smoke) run is skipped, not failed.
        assert_eq!(check(&baseline, &doc(&row("10000", "76"))), 0);
        // Beyond the band: one failure.
        assert_eq!(check(&baseline, &doc(&row("10000", "74"))), 1);
        // Speedups never fail the gate.
        assert_eq!(check(&baseline, &doc(&row("10000", "500"))), 0);
    }

    #[test]
    fn a_column_dropped_from_a_shared_row_fails() {
        let baseline = doc(&counter_row("10000", "100", "7"));
        // The fresh row lost its throughput column: a failure, not a skip.
        let fresh = doc("{\"fleet\":\"10000\",\"syncs\":\"7\",\"wall_ms\":\"9\"}");
        assert_eq!(check(&baseline, &fresh), 1);
        // Same for a dropped counter column.
        assert_eq!(check(&baseline, &doc(&row("10000", "100"))), 1);
    }

    #[test]
    fn outcome_counters_are_gated_exactly() {
        let baseline = doc(&counter_row("10000", "100", "7"));
        assert_eq!(check(&baseline, &doc(&counter_row("10000", "100", "7"))), 0);
        // Any drift fails, up or down; the throughput band does not apply.
        assert_eq!(check(&baseline, &doc(&counter_row("10000", "100", "6"))), 1);
        assert_eq!(check(&baseline, &doc(&counter_row("10000", "100", "8"))), 1);
    }

    #[test]
    fn scale_table_counters_are_gated_exactly() {
        // E19's scale rows report a fixed seed's counters, so they are
        // gated like every other table's.
        let baseline = table_doc("scale", &counter_row("10000", "100", "7"));
        assert_eq!(check(&baseline, &table_doc("scale", &counter_row("10000", "100", "7"))), 0);
        assert_eq!(check(&baseline, &table_doc("scale", &counter_row("10000", "100", "8"))), 1);
        assert_eq!(check(&baseline, &table_doc("scale", &counter_row("10000", "70", "7"))), 1);
    }
}
