//! The CI regression gates as a tested library.
//!
//! Every perf PR used to grow `scripts/ci.sh` by another inline grep/awk
//! block — untested shell that silently skipped when the JSON schema
//! shifted (a renamed key yielded an empty grep, and an empty grep looked
//! exactly like "obs is off"). These functions read a parsed
//! `BENCH_ci.json` structurally instead: a malformed or renamed key is a
//! loud [`GateStatus::Fail`], and a skip happens only for the one
//! legitimate reason (the snapshot was produced without the `obs`
//! feature, so there are no counters to read).
//!
//! The gates, in order:
//!
//! 1. **schema** — the document is a `figure6-v2` object with a config, a
//!    non-empty measurement table of well-formed rows, and an obs member;
//! 2. **contention** — `blockingq.queue.blocked_takes / takes` stays
//!    under the pre-batching baseline ratio (DESIGN.md § Batched
//!    transport);
//! 3. **fusion** — `gde.comb.fused_stages > 0`: the benchmarked pipelines
//!    still reach the stage-fusion rewriter (DESIGN.md § Stage fusion);
//! 4. **compact-values** — `gde.value.inline_hits > 0`: the compact
//!    value representation is still on the hot path (DESIGN.md § Compact
//!    values);
//! 5. **embedded/native ratio** — the Sequential-Lightweight
//!    Junicon/Native median ratio stays under baseline + 15% headroom.

use crate::json::Json;

/// Threshold knobs, passed by `scripts/ci.sh` (they are *derived from the
/// committed baseline*, so they live in the script next to the derivation
/// note, not here).
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    pub max_blocked_take_ratio: f64,
    pub max_seq_lw_ratio: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    Pass,
    Fail,
    /// Legitimately not checkable (obs snapshot absent). `--strict` mode
    /// turns this into a failure at the exit-code level.
    Skip,
}

#[derive(Debug)]
pub struct GateReport {
    pub name: &'static str,
    pub status: GateStatus,
    pub detail: String,
}

impl GateReport {
    fn pass(name: &'static str, detail: String) -> Self {
        GateReport {
            name,
            status: GateStatus::Pass,
            detail,
        }
    }
    fn fail(name: &'static str, detail: String) -> Self {
        GateReport {
            name,
            status: GateStatus::Fail,
            detail,
        }
    }
    fn skip(name: &'static str, detail: String) -> Self {
        GateReport {
            name,
            status: GateStatus::Skip,
            detail,
        }
    }
}

/// Read a counter out of the obs snapshot. `Ok(None)` means the snapshot
/// itself is absent (`"obs": null` — bench built without the feature);
/// a *present* snapshot with a missing or non-counter metric is an error,
/// because that is exactly what a silent schema rename looks like.
fn counter(doc: &Json, metric: &str) -> Result<Option<u64>, String> {
    let obs = doc
        .get("obs")
        .ok_or_else(|| "snapshot has no \"obs\" member".to_string())?;
    if obs.is_null() {
        return Ok(None);
    }
    let entry = obs
        .get(metric)
        .ok_or_else(|| format!("obs snapshot has no \"{metric}\" (renamed or unregistered?)"))?;
    if entry.get("kind").and_then(Json::as_str) != Some("counter") {
        return Err(format!("\"{metric}\" is not a counter"));
    }
    entry
        .get("value")
        .and_then(Json::as_u64)
        .map(Some)
        .ok_or_else(|| format!("\"{metric}\" has no integer value"))
}

/// Find a cell median in the measurement table.
fn median_ns(doc: &Json, suite: &str, variant: &str, weight: &str) -> Option<u64> {
    doc.get("measurements")?
        .as_arr()?
        .iter()
        .find(|row| {
            row.get("suite").and_then(Json::as_str) == Some(suite)
                && row.get("variant").and_then(Json::as_str) == Some(variant)
                && row.get("weight").and_then(Json::as_str) == Some(weight)
        })?
        .get("median_ns")?
        .as_u64()
}

/// Run every gate against a parsed snapshot.
pub fn run_gates(doc: &Json, th: &Thresholds) -> Vec<GateReport> {
    let mut out = Vec::new();

    // 1. Schema: fail loudly on anything structurally off, because every
    // later gate reads through this shape.
    let schema_problem = check_schema(doc);
    match schema_problem {
        None => out.push(GateReport::pass(
            "schema",
            "figure6-v2 with config, well-formed measurements, obs member".into(),
        )),
        Some(problem) => {
            out.push(GateReport::fail("schema", problem));
            // The document is not trustworthy; report the rest as failed
            // rather than guessing through a broken shape.
            for name in ["contention", "fusion", "compact-values", "seq-lw-ratio"] {
                out.push(GateReport::fail(
                    name,
                    "not evaluated: schema gate failed".into(),
                ));
            }
            return out;
        }
    }

    // 2. Contention ratio (scale-free, so the smoke corpus works).
    out.push(
        match (
            counter(doc, "blockingq.queue.blocked_takes"),
            counter(doc, "blockingq.queue.takes"),
        ) {
            (Ok(None), _) | (_, Ok(None)) => GateReport::skip(
                "contention",
                "no obs snapshot (bench built without the obs feature)".into(),
            ),
            (Err(e), _) | (_, Err(e)) => GateReport::fail("contention", e),
            (Ok(Some(_)), Ok(Some(0))) => GateReport::fail(
                "contention",
                "takes = 0: the benchmarked pipelines recorded no queue traffic".into(),
            ),
            (Ok(Some(blocked)), Ok(Some(takes))) => {
                let ratio = blocked as f64 / takes as f64;
                let detail = format!(
                    "blocked_takes/takes = {blocked}/{takes} = {ratio:.4} (cap {})",
                    th.max_blocked_take_ratio
                );
                if ratio <= th.max_blocked_take_ratio {
                    GateReport::pass("contention", detail)
                } else {
                    GateReport::fail(
                        "contention",
                        format!(
                            "{detail} — per-item transport crept back onto the hot path \
                             (DESIGN.md § Batched transport)"
                        ),
                    )
                }
            }
        },
    );

    // 3. Fusion wiring.
    out.push(wiring_gate(
        doc,
        "fusion",
        "gde.comb.fused_stages",
        "the benchmarked pipelines no longer reach the stage-fusion rewriter \
         (DESIGN.md § Stage fusion)",
    ));

    // 4. Compact-value wiring.
    out.push(wiring_gate(
        doc,
        "compact-values",
        "gde.value.inline_hits",
        "no value took the inline (Sym/Slice/scalar) path — the compact \
         representation is off the hot path (DESIGN.md § Compact values)",
    ));

    // 5. Embedded/native Sequential-Lightweight ratio. Missing cells are
    // a failure: the old grep skipped, which is how a renamed variant
    // could turn the gate off forever.
    out.push(
        match (
            median_ns(doc, "Junicon", "Sequential", "Lightweight"),
            median_ns(doc, "Native", "Sequential", "Lightweight"),
        ) {
            (Some(j), Some(n)) if n > 0 => {
                let ratio = j as f64 / n as f64;
                let detail = format!(
                    "Junicon/Native Sequential-LW = {j}/{n} = {ratio:.3} (cap {})",
                    th.max_seq_lw_ratio
                );
                if ratio <= th.max_seq_lw_ratio {
                    GateReport::pass("seq-lw-ratio", detail)
                } else {
                    GateReport::fail(
                        "seq-lw-ratio",
                        format!(
                            "{detail} — per-word allocations, by-name lookups, or an \
                             unfused hot path are back on the embedded side \
                             (DESIGN.md § Compact values)"
                        ),
                    )
                }
            }
            (j, n) => GateReport::fail(
                "seq-lw-ratio",
                format!(
                    "Sequential-Lightweight medians missing or zero \
                     (Junicon: {j:?}, Native: {n:?}) — renamed cell?"
                ),
            ),
        },
    );

    out
}

/// Evaluate the schedule-exploration smoke gate on the JSON-lines summary
/// the schedtest model suites append under `SCHEDTEST_JSON` (one
/// `schedtest-v1` object per `explore()` call — see
/// `crates/schedtest/src/lib.rs`). The gate holds when the smoke actually
/// ran: at least one summary line, every line well-formed, no exploration
/// failed, and `explored_schedules` sums to more than zero. A summary
/// that parses but explored nothing is exactly what a mis-wired cfg flag
/// looks like (the model tests compiled out), so it FAILs rather than
/// skips; the only skip is the caller not passing a summary at all.
pub fn schedtest_gate(text: &str) -> GateReport {
    let name = "schedtest";
    let mut explorations = 0u64;
    let mut schedules = 0u64;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                return GateReport::fail(name, format!("summary line {lineno}: bad JSON: {e}"))
            }
        };
        match doc.get("schema").and_then(Json::as_str) {
            Some("schedtest-v1") => {}
            other => {
                return GateReport::fail(
                    name,
                    format!("summary line {lineno}: schema {other:?}, expected \"schedtest-v1\""),
                )
            }
        }
        let Some(explored) = doc.get("explored_schedules").and_then(Json::as_u64) else {
            return GateReport::fail(
                name,
                format!("summary line {lineno}: no integer \"explored_schedules\""),
            );
        };
        if let Some(Json::Bool(true)) = doc.get("failed") {
            let test = doc
                .get("test")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>");
            return GateReport::fail(
                name,
                format!("exploration \"{test}\" found a failing schedule (line {lineno})"),
            );
        }
        explorations += 1;
        schedules += explored;
    }
    if explorations == 0 {
        return GateReport::fail(
            name,
            "summary has no schedtest-v1 lines — the smoke ran zero explorations".into(),
        );
    }
    if schedules == 0 {
        return GateReport::fail(
            name,
            format!(
                "{explorations} explorations but explored_schedules sums to 0 — \
                 the model tests compiled out (cfg flag mis-wired?)"
            ),
        );
    }
    GateReport::pass(
        name,
        format!("{explorations} explorations, {schedules} schedules explored"),
    )
}

/// Evaluate the fault-plane wiring gate on the `fault-smoke-v1` snapshot
/// the `fault_smoke` binary writes (`FAULTS_ci.json`). The smoke run arms
/// deterministic fault scenarios against every policy surface, so a
/// healthy snapshot shows *every* fault counter non-zero: a zero (or a
/// missing key — what a silent rename looks like) means that surface no
/// longer reaches the fault plane and FAILs loudly. The only skip is the
/// caller not passing a snapshot at all (`--faults-json` absent), which
/// strict CI turns into a failure.
pub fn faults_gate(doc: &Json) -> GateReport {
    let name = "faults";
    match doc.get("schema").and_then(Json::as_str) {
        Some("fault-smoke-v1") => {}
        other => {
            return GateReport::fail(
                name,
                format!("schema {other:?}, expected \"fault-smoke-v1\""),
            )
        }
    }
    match doc.get("injected").and_then(Json::as_u64) {
        Some(0) => {
            return GateReport::fail(
                name,
                "injected = 0 — the smoke armed no faults (FAULTS mis-parsed \
                 or the faultinj feature compiled out)"
                    .into(),
            )
        }
        Some(_) => {}
        None => return GateReport::fail(name, "no integer \"injected\" total".into()),
    }
    // Every surface of the fault plane, by its committed counter key.
    // All must be present AND non-zero after the smoke scenarios.
    let mut details = Vec::new();
    for metric in [
        "faults.injected",
        "pipes.faults.propagated",
        "pipes.faults.retries",
        "pipes.faults.degraded_sources",
        "blockingq.close.failed",
    ] {
        match counter(doc, metric) {
            Ok(None) => {
                return GateReport::fail(
                    name,
                    "no obs snapshot (fault_smoke built without the obs feature)".into(),
                )
            }
            Err(e) => return GateReport::fail(name, e),
            Ok(Some(0)) => {
                return GateReport::fail(
                    name,
                    format!(
                        "{metric} = 0 — this fault surface no longer fires under \
                         the smoke scenarios (DESIGN.md § Fault propagation and \
                         injection)"
                    ),
                )
            }
            Ok(Some(v)) => details.push(format!("{metric} = {v}")),
        }
    }
    GateReport::pass(name, details.join(", "))
}

/// A counter-must-be-nonzero wiring gate (fusion, compact values).
fn wiring_gate(
    doc: &Json,
    name: &'static str,
    metric: &'static str,
    why_it_matters: &str,
) -> GateReport {
    match counter(doc, metric) {
        Ok(None) => GateReport::skip(
            name,
            "no obs snapshot (bench built without the obs feature)".into(),
        ),
        Err(e) => GateReport::fail(name, e),
        Ok(Some(0)) => GateReport::fail(name, format!("{metric} = 0 — {why_it_matters}")),
        Ok(Some(v)) => GateReport::pass(name, format!("{metric} = {v} > 0")),
    }
}

fn check_schema(doc: &Json) -> Option<String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some("figure6-v2") => {}
        Some(other) => return Some(format!("schema is \"{other}\", expected \"figure6-v2\"")),
        None => return Some("no \"schema\" member".into()),
    }
    if !matches!(doc.get("config"), Some(Json::Obj(_))) {
        return Some("no \"config\" object".into());
    }
    let Some(rows) = doc.get("measurements").and_then(Json::as_arr) else {
        return Some("no \"measurements\" array".into());
    };
    if rows.is_empty() {
        return Some("\"measurements\" is empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in ["suite", "variant", "weight"] {
            if row.get(key).and_then(Json::as_str).is_none() {
                return Some(format!("measurement {i} has no string \"{key}\""));
            }
        }
        if row.get("median_ns").and_then(Json::as_u64).is_none() {
            return Some(format!("measurement {i} has no integer \"median_ns\""));
        }
    }
    match doc.get("obs") {
        Some(Json::Obj(_)) | Some(Json::Null) => None,
        Some(_) => Some("\"obs\" is neither an object nor null".into()),
        None => Some("no \"obs\" member".into()),
    }
}

/// Find a cell's normalized time in the measurement table.
fn normalized(doc: &Json, suite: &str, variant: &str, weight: &str) -> Option<f64> {
    doc.get("measurements")?
        .as_arr()?
        .iter()
        .find(|row| {
            row.get("suite").and_then(Json::as_str) == Some(suite)
                && row.get("variant").and_then(Json::as_str) == Some(variant)
                && row.get("weight").and_then(Json::as_str) == Some(weight)
        })?
        .get("normalized")?
        .as_f64()
}

/// Render the baseline-drift table: per-cell deltas of the current run
/// against the committed baseline. Report-only — perf on a smoke corpus
/// is noise, but the *direction* across many cells is signal worth having
/// in every CI log. The raw median delta mostly reflects corpus scale
/// when the two runs used different sizes; the `norm` delta (each cell
/// normalized to its weight set's native-MapReduce bar) is scale-free and
/// is the column to read.
pub fn drift_table(current: &Json, baseline: &Json) -> Result<String, String> {
    let rows = current
        .get("measurements")
        .and_then(Json::as_arr)
        .ok_or("current snapshot has no measurements")?;
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<9} {:<13} {:>12} {:>12} {:>8} {:>8}\n",
        "weight", "suite", "variant", "current_ns", "baseline_ns", "delta", "norm"
    ));
    for row in rows {
        let (Some(suite), Some(variant), Some(weight), Some(cur)) = (
            row.get("suite").and_then(Json::as_str),
            row.get("variant").and_then(Json::as_str),
            row.get("weight").and_then(Json::as_str),
            row.get("median_ns").and_then(Json::as_u64),
        ) else {
            return Err("malformed measurement row in current snapshot".into());
        };
        let norm_delta = match (
            row.get("normalized").and_then(Json::as_f64),
            normalized(baseline, suite, variant, weight),
        ) {
            (Some(c), Some(b)) if b > 0.0 => format!("{:>+7.1}%", (c / b - 1.0) * 100.0),
            _ => format!("{:>8}", "-"),
        };
        let line = match median_ns(baseline, suite, variant, weight) {
            Some(base) if base > 0 => {
                let delta = (cur as f64 / base as f64 - 1.0) * 100.0;
                format!(
                    "{weight:<12} {suite:<9} {variant:<13} {cur:>12} {base:>12} {delta:>+7.1}% {norm_delta}\n"
                )
            }
            _ => format!(
                "{weight:<12} {suite:<9} {variant:<13} {cur:>12} {:>12} {:>8} {norm_delta}\n",
                "-", "new"
            ),
        };
        out.push_str(&line);
    }
    Ok(out)
}
