//! CI gate runner: evaluates the regression gates against a figure6 JSON
//! snapshot and prints one PASS/FAIL/SKIP line per gate.
//!
//!     cargo run -p bench --release --bin gates -- \
//!         --json BENCH_ci.json \
//!         --max-blocked-take-ratio 0.0747 \
//!         --max-seq-lw-ratio 1.61 \
//!         [--strict] [--baseline BENCH_baseline.json] \
//!         [--schedtest-json SCHEDTEST_ci.json] \
//!         [--faults-json FAULTS_ci.json]
//!
//! Exit code 1 on any FAIL, or on any SKIP under `--strict` (CI sets
//! strict so an accidentally obs-less bench build cannot silently turn
//! the counter gates off). `--baseline` additionally prints a report-only
//! per-cell drift table against the committed baseline snapshot.
//! `--schedtest-json` points at the JSON-lines summary the schedule-
//! exploration smoke appends (SCHEDTEST_JSON); without the flag that gate
//! reports SKIP (strict CI turns the skip into a failure, so CI cannot
//! quietly drop the smoke). `--faults-json` points at the `fault-smoke-v1`
//! snapshot the `fault_smoke` binary writes; same SKIP-unless-passed
//! contract, so CI cannot quietly drop the fault-plane smoke either.

use bench::gates::{run_gates, GateStatus, Thresholds};
use bench::json::Json;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: gates --json PATH --max-blocked-take-ratio R --max-seq-lw-ratio R \
         [--strict] [--baseline PATH] [--schedtest-json PATH] [--faults-json PATH]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("gates: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("gates: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut schedtest_path: Option<String> = None;
    let mut faults_path: Option<String> = None;
    let mut max_blocked_take_ratio: Option<f64> = None;
    let mut max_seq_lw_ratio: Option<f64> = None;
    let mut strict = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("gates: {what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--json" => json_path = Some(value("--json")),
            "--baseline" => baseline_path = Some(value("--baseline")),
            "--schedtest-json" => schedtest_path = Some(value("--schedtest-json")),
            "--faults-json" => faults_path = Some(value("--faults-json")),
            "--max-blocked-take-ratio" => {
                max_blocked_take_ratio = value("--max-blocked-take-ratio").parse().ok()
            }
            "--max-seq-lw-ratio" => max_seq_lw_ratio = value("--max-seq-lw-ratio").parse().ok(),
            "--strict" => strict = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gates: unknown argument {other}");
                usage();
            }
        }
    }

    let (Some(json_path), Some(max_blocked_take_ratio), Some(max_seq_lw_ratio)) =
        (json_path, max_blocked_take_ratio, max_seq_lw_ratio)
    else {
        usage();
    };

    let doc = load(&json_path);
    let th = Thresholds {
        max_blocked_take_ratio,
        max_seq_lw_ratio,
    };

    let mut reports = run_gates(&doc, &th);
    reports.push(match &schedtest_path {
        None => bench::gates::GateReport {
            name: "schedtest",
            status: GateStatus::Skip,
            detail: "no --schedtest-json (schedule-exploration smoke not run)".into(),
        },
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => bench::gates::schedtest_gate(&text),
            Err(e) => bench::gates::GateReport {
                name: "schedtest",
                status: GateStatus::Fail,
                detail: format!("cannot read {path}: {e}"),
            },
        },
    });
    reports.push(match &faults_path {
        None => bench::gates::GateReport {
            name: "faults",
            status: GateStatus::Skip,
            detail: "no --faults-json (fault-plane smoke not run)".into(),
        },
        Some(path) => bench::gates::faults_gate(&load(path)),
    });
    let mut failed = false;
    let mut skipped = false;
    for r in &reports {
        let tag = match r.status {
            GateStatus::Pass => "PASS",
            GateStatus::Fail => {
                failed = true;
                "FAIL"
            }
            GateStatus::Skip => {
                skipped = true;
                "SKIP"
            }
        };
        println!(
            "[gate] {tag} {name}: {detail}",
            name = r.name,
            detail = r.detail
        );
    }

    if let Some(baseline_path) = baseline_path {
        let baseline = load(&baseline_path);
        println!("\n[drift] per-cell medians vs {baseline_path} (report-only):");
        match bench::gates::drift_table(&doc, &baseline) {
            Ok(table) => print!("{table}"),
            Err(e) => println!("[drift] not available: {e}"),
        }
    }

    if failed {
        ExitCode::from(1)
    } else if skipped && strict {
        eprintln!("gates: skipped gates are failures under --strict");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
