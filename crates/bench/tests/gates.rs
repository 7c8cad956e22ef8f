//! Fixture tests for the CI gate library.
//!
//! Each fixture under `tests/fixtures/` is a hand-written figure6
//! snapshot exercising one behavior: the passing shape, each gate
//! tripping individually, the legitimate obs-null skip, and — the cases
//! the old grep gates got wrong — snapshots whose keys were renamed,
//! which must FAIL loudly instead of silently skipping.

use bench::gates::{drift_table, run_gates, GateReport, GateStatus, Thresholds};
use bench::json::Json;

/// The thresholds scripts/ci.sh passes (see the derivation note there).
const TH: Thresholds = Thresholds {
    max_blocked_take_ratio: 0.0747,
    max_seq_lw_ratio: 1.61,
};

fn gate_on(fixture: &str) -> Vec<GateReport> {
    let doc = Json::parse(fixture).expect("fixture parses");
    run_gates(&doc, &TH)
}

fn status_of<'a>(reports: &'a [GateReport], name: &str) -> &'a GateReport {
    reports
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no report for gate {name}"))
}

const ALL_GATES: [&str; 5] = [
    "schema",
    "contention",
    "fusion",
    "compact-values",
    "seq-lw-ratio",
];

#[test]
fn passing_snapshot_passes_every_gate() {
    let reports = gate_on(include_str!("fixtures/passing.json"));
    assert_eq!(reports.len(), ALL_GATES.len());
    for name in ALL_GATES {
        let r = status_of(&reports, name);
        assert_eq!(r.status, GateStatus::Pass, "{name}: {}", r.detail);
    }
}

#[test]
fn contention_gate_trips_alone() {
    let reports = gate_on(include_str!("fixtures/contention_trip.json"));
    for name in ALL_GATES {
        let r = status_of(&reports, name);
        let want = if name == "contention" {
            GateStatus::Fail
        } else {
            GateStatus::Pass
        };
        assert_eq!(r.status, want, "{name}: {}", r.detail);
    }
    assert!(
        status_of(&reports, "contention").detail.contains("0.45"),
        "detail carries the measured ratio"
    );
}

#[test]
fn fusion_gate_trips_alone() {
    let reports = gate_on(include_str!("fixtures/fusion_trip.json"));
    for name in ALL_GATES {
        let r = status_of(&reports, name);
        let want = if name == "fusion" {
            GateStatus::Fail
        } else {
            GateStatus::Pass
        };
        assert_eq!(r.status, want, "{name}: {}", r.detail);
    }
}

#[test]
fn compact_values_gate_trips_alone() {
    let reports = gate_on(include_str!("fixtures/compact_trip.json"));
    for name in ALL_GATES {
        let r = status_of(&reports, name);
        let want = if name == "compact-values" {
            GateStatus::Fail
        } else {
            GateStatus::Pass
        };
        assert_eq!(r.status, want, "{name}: {}", r.detail);
    }
}

#[test]
fn seq_lw_ratio_gate_trips_alone() {
    let reports = gate_on(include_str!("fixtures/ratio_trip.json"));
    for name in ALL_GATES {
        let r = status_of(&reports, name);
        let want = if name == "seq-lw-ratio" {
            GateStatus::Fail
        } else {
            GateStatus::Pass
        };
        assert_eq!(r.status, want, "{name}: {}", r.detail);
    }
    assert!(
        status_of(&reports, "seq-lw-ratio").detail.contains("2.100"),
        "detail carries the measured ratio"
    );
}

#[test]
fn obs_null_skips_counter_gates_only() {
    // A snapshot produced without the obs feature: the counter gates are
    // legitimately uncheckable (SKIP, never PASS), while the schema and
    // the median-based ratio gate still run.
    let reports = gate_on(include_str!("fixtures/obs_null.json"));
    for (name, want) in [
        ("schema", GateStatus::Pass),
        ("contention", GateStatus::Skip),
        ("fusion", GateStatus::Skip),
        ("compact-values", GateStatus::Skip),
        ("seq-lw-ratio", GateStatus::Pass),
    ] {
        let r = status_of(&reports, name);
        assert_eq!(r.status, want, "{name}: {}", r.detail);
    }
}

#[test]
fn renamed_median_key_fails_loudly() {
    // `median_ns` renamed to `median_nanos`: the grep gates this library
    // replaced would have skipped; the schema gate must fail instead, and
    // the remaining gates must report failed-not-evaluated, not pass.
    let reports = gate_on(include_str!("fixtures/renamed_median_key.json"));
    for name in ALL_GATES {
        let r = status_of(&reports, name);
        assert_eq!(r.status, GateStatus::Fail, "{name}: {}", r.detail);
    }
    assert!(
        status_of(&reports, "schema").detail.contains("median_ns"),
        "schema detail names the missing key"
    );
}

#[test]
fn renamed_counter_key_fails_loudly() {
    // The fused-stages counter renamed: an obs snapshot is present, so a
    // missing metric is a rename/unregistration bug, not an obs-off skip.
    let reports = gate_on(include_str!("fixtures/renamed_counter_key.json"));
    let r = status_of(&reports, "fusion");
    assert_eq!(r.status, GateStatus::Fail, "fusion: {}", r.detail);
    assert!(r.detail.contains("gde.comb.fused_stages"));
    // Gates whose inputs are intact still evaluate normally.
    assert_eq!(status_of(&reports, "contention").status, GateStatus::Pass);
    assert_eq!(
        status_of(&reports, "compact-values").status,
        GateStatus::Pass
    );
    assert_eq!(status_of(&reports, "seq-lw-ratio").status, GateStatus::Pass);
}

#[test]
fn malformed_json_is_a_parse_error_not_a_skip() {
    assert!(Json::parse("{\"schema\": \"figure6-v2\",").is_err());
    assert!(Json::parse("").is_err());
}

#[test]
fn drift_table_reports_per_cell_deltas() {
    let current = Json::parse(include_str!("fixtures/ratio_trip.json")).unwrap();
    let baseline = Json::parse(include_str!("fixtures/passing.json")).unwrap();
    let table = drift_table(&current, &baseline).unwrap();
    // 2100000 vs 1330000 ≈ +57.9% median; the native cell is unchanged.
    assert!(table.contains("+57.9%"), "table:\n{table}");
    assert!(table.contains("+0.0%"), "table:\n{table}");
    // Scale-free column: normalized 2.2 vs 1.4 ≈ +57.1%.
    assert!(table.contains("+57.1%"), "table:\n{table}");
    // A cell missing from the baseline is marked new, not an error.
    let partial = Json::parse(
        r#"{"schema": "figure6-v2", "config": {}, "measurements": [
            {"suite": "Native", "variant": "Sequential", "weight": "Lightweight", "median_ns": 1000000, "normalized": 1.0}
        ], "obs": null}"#,
    )
    .unwrap();
    let table = drift_table(&current, &partial).unwrap();
    assert!(table.contains("new"), "table:\n{table}");
}

// --- schedule-exploration smoke gate ----------------------------------------
//
// `schedtest_gate` reads the JSON-lines summary the model suites append
// under SCHEDTEST_JSON (crates/schedtest); it is keyed off a text blob,
// not the figure6 snapshot, so it gets its own fixture set here.

use bench::gates::schedtest_gate;

#[test]
fn schedtest_summary_with_explored_schedules_passes() {
    let r = schedtest_gate(include_str!("fixtures/schedtest_passing.jsonl"));
    assert_eq!(r.status, GateStatus::Pass, "{}", r.detail);
    assert!(
        r.detail.contains("3 explorations") && r.detail.contains("6863 schedules"),
        "detail sums the lines: {}",
        r.detail
    );
}

#[test]
fn schedtest_empty_summary_fails() {
    // An empty (or whitespace-only) file means the smoke ran no model
    // tests at all — FAIL, not skip: the file existing proves the step
    // was attempted.
    for text in ["", "\n\n"] {
        let r = schedtest_gate(text);
        assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
        assert!(r.detail.contains("zero explorations"), "{}", r.detail);
    }
}

#[test]
fn schedtest_zero_schedules_fails() {
    // Lines parse but nothing was explored: the cfg flag was mis-wired
    // and the model tests compiled out.
    let text = "{\"schema\":\"schedtest-v1\",\"test\":\"t\",\"mode\":\"dfs\",\
                \"explored_schedules\":0,\"complete\":true,\"failed\":false}\n";
    let r = schedtest_gate(text);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("sums to 0"), "{}", r.detail);
}

#[test]
fn schedtest_failed_exploration_fails_and_names_the_test() {
    let text = "{\"schema\":\"schedtest-v1\",\"test\":\"ok_one\",\"mode\":\"dfs\",\
                \"explored_schedules\":10,\"complete\":true,\"failed\":false}\n\
                {\"schema\":\"schedtest-v1\",\"test\":\"bad_one\",\"mode\":\"dfs\",\
                \"explored_schedules\":7,\"complete\":false,\"failed\":true}\n";
    let r = schedtest_gate(text);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("bad_one"), "{}", r.detail);
}

#[test]
fn schedtest_malformed_line_fails_with_line_number() {
    let text = "{\"schema\":\"schedtest-v1\",\"test\":\"t\",\"mode\":\"dfs\",\
                \"explored_schedules\":5,\"complete\":true,\"failed\":false}\n\
                not json at all\n";
    let r = schedtest_gate(text);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("line 2"), "{}", r.detail);
}

// --- fault-plane smoke gate --------------------------------------------------
//
// `faults_gate` reads the `fault-smoke-v1` snapshot the fault_smoke
// binary writes: every fault counter must be present AND non-zero after
// the smoke scenarios, so a rename and a dead surface both FAIL loudly.

use bench::gates::faults_gate;

fn faults_on(fixture: &str) -> GateReport {
    faults_gate(&Json::parse(fixture).expect("fixture parses"))
}

#[test]
fn faults_smoke_snapshot_passes_and_lists_counters() {
    let r = faults_on(include_str!("fixtures/faults_passing.json"));
    assert_eq!(r.status, GateStatus::Pass, "{}", r.detail);
    for key in [
        "faults.injected",
        "pipes.faults.propagated",
        "pipes.faults.retries",
        "pipes.faults.degraded_sources",
        "blockingq.close.failed",
    ] {
        assert!(r.detail.contains(key), "detail lists {key}: {}", r.detail);
    }
}

#[test]
fn faults_renamed_counter_fails_loudly() {
    // `pipes.faults.retries` renamed: an obs snapshot is present, so the
    // missing key is a rename/unregistration bug, never a skip.
    let fixture = include_str!("fixtures/faults_passing.json")
        .replace("pipes.faults.retries", "pipes.faults.retry_count");
    let r = faults_on(&fixture);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("pipes.faults.retries"), "{}", r.detail);
}

#[test]
fn faults_dead_surface_fails() {
    // A counter stuck at zero means that recovery surface no longer
    // reaches the fault plane under the smoke scenarios.
    let fixture = include_str!("fixtures/faults_passing.json").replace(
        "\"pipes.faults.degraded_sources\": {\"kind\": \"counter\", \"value\": 1}",
        "\"pipes.faults.degraded_sources\": {\"kind\": \"counter\", \"value\": 0}",
    );
    let r = faults_on(&fixture);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(
        r.detail.contains("pipes.faults.degraded_sources = 0"),
        "{}",
        r.detail
    );
}

#[test]
fn faults_zero_injected_fails() {
    let fixture =
        include_str!("fixtures/faults_passing.json").replace("\"injected\": 4", "\"injected\": 0");
    let r = faults_on(&fixture);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("armed no faults"), "{}", r.detail);
}

#[test]
fn faults_wrong_schema_or_missing_obs_fails() {
    let wrong_schema =
        include_str!("fixtures/faults_passing.json").replace("fault-smoke-v1", "fault-smoke-v2");
    let r = faults_on(&wrong_schema);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("fault-smoke-v1"), "{}", r.detail);

    // An obs-less fault_smoke build is a wiring failure, not a skip: the
    // binary's whole point is producing the counters.
    let r = faults_on(r#"{"schema": "fault-smoke-v1", "injected": 4, "obs": null}"#);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("obs"), "{}", r.detail);
}

#[test]
fn schedtest_wrong_schema_or_missing_count_fails() {
    let wrong_schema = "{\"schema\":\"schedtest-v2\",\"explored_schedules\":5}\n";
    let r = schedtest_gate(wrong_schema);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("schedtest-v1"), "{}", r.detail);

    let renamed_count = "{\"schema\":\"schedtest-v1\",\"test\":\"t\",\"mode\":\"dfs\",\
                         \"schedules\":5,\"complete\":true,\"failed\":false}\n";
    let r = schedtest_gate(renamed_count);
    assert_eq!(r.status, GateStatus::Fail, "{}", r.detail);
    assert!(r.detail.contains("explored_schedules"), "{}", r.detail);
}
