//! Regenerate Figure 6: normalized execution time of the word-count suite.
//!
//! ```text
//! cargo run -p bench --release --bin figure6 [-- --lines N --heavy-lines N --iters N --json PATH]
//! ```

use bench::{render_table, run_figure6, shape_findings, Figure6Config};

fn main() {
    let mut cfg = Figure6Config::default();
    let mut json_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[*i - 1]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--lines" => cfg.light_lines = take(&mut i).parse().expect("--lines N"),
            "--heavy-lines" => cfg.heavy_lines = take(&mut i).parse().expect("--heavy-lines N"),
            "--words" => cfg.words_per_line = take(&mut i).parse().expect("--words N"),
            "--iters" => cfg.iterations = take(&mut i).parse().expect("--iters N"),
            "--warmup" => cfg.warmup = take(&mut i).parse().expect("--warmup N"),
            "--seed" => cfg.seed = take(&mut i).parse().expect("--seed N"),
            "--json" => json_path = Some(take(&mut i)),
            "--help" | "-h" => {
                println!(
                    "figure6 — regenerate the paper's Fig. 6 table\n\
                     options: --lines N --heavy-lines N --words N --iters N --warmup N --seed N --json PATH"
                );
                return;
            }
            other => {
                eprintln!("unknown option {other}; try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "measuring: light corpus {} lines x {} words, heavy corpus {} lines, {} iterations (median)...",
        cfg.light_lines, cfg.words_per_line, cfg.heavy_lines, cfg.iterations
    );
    let measurements = run_figure6(&cfg);
    print!("{}", render_table(&measurements));

    println!("Raw medians:");
    for m in &measurements {
        println!(
            "  {:<12} {:<9} {:<13} {:>12.3?}  (norm {:.3})",
            m.weight, m.suite, m.variant, m.median, m.normalized
        );
    }
    println!();

    println!("Shape checks against the paper's Sec. VII observations:");
    let findings = shape_findings(&measurements);
    let mut all_ok = true;
    for (text, ok) in &findings {
        println!("  [{}] {}", if *ok { "ok" } else { "MISMATCH" }, text);
        all_ok &= ok;
    }
    if !all_ok {
        eprintln!(
            "note: shape mismatches can occur on small workloads or loaded machines; \
             rerun with larger --lines/--iters"
        );
    }

    #[cfg(feature = "obs")]
    {
        // Register the environment counters even if nothing bumped them:
        // the fast-path claim is "zero by-name fallbacks", and the
        // snapshot should say `gde.env.name_fallbacks = 0` explicitly
        // rather than omit the metric.
        gde::obs_register();
        println!("Runtime observability snapshot (obs):");
        for line in obs::snapshot().render_text().lines() {
            println!("  {line}");
        }
        println!();
    }

    if let Some(path) = json_path {
        std::fs::write(&path, to_json(&cfg, &measurements)).expect("write json");
        eprintln!("wrote {path}");
    }
}

/// Minimal JSON rendering (hand-rolled; no serde in the hermetic
/// workspace). The layout is an object so the obs snapshot can ride along
/// with the timings — `BENCH_baseline.json` is this, committed.
fn to_json(cfg: &Figure6Config, m: &[bench::Measurement]) -> String {
    let rows: Vec<String> = m
        .iter()
        .map(|x| {
            format!(
                "    {{\"suite\": \"{}\", \"variant\": \"{}\", \"weight\": \"{}\", \"median_ns\": {}, \"normalized\": {}}}",
                x.suite,
                x.variant,
                x.weight,
                x.median.as_nanos(),
                x.normalized
            )
        })
        .collect();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"figure6-v2\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"light_lines\": {}, \"heavy_lines\": {}, \"words_per_line\": {}, \"iterations\": {}, \"warmup\": {}, \"seed\": {}, \"exec_threads\": {}}},\n",
        cfg.light_lines,
        cfg.heavy_lines,
        cfg.words_per_line,
        cfg.iterations,
        cfg.warmup,
        cfg.seed,
        // The effective pool width (EXEC_THREADS override or core count):
        // scaling runs are meaningless without it recorded next to the
        // timings.
        exec::global_threads()
    ));
    out.push_str(&format!(
        "  \"measurements\": [\n{}\n  ],\n",
        rows.join(",\n")
    ));
    #[cfg(feature = "obs")]
    out.push_str(&format!("  \"obs\": {}\n", obs::snapshot().render_json()));
    #[cfg(not(feature = "obs"))]
    out.push_str("  \"obs\": null\n");
    out.push_str("}\n");
    out
}
