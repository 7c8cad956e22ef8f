//! End-to-end benchmark of concurrent generators embedded in Junicon.
//!
//! One client thread runs passes back to back (a closed loop). A pass is
//! one full evaluation of the workload's program over a seeded corpus,
//! and its total is checked against `wordcount::native::sequential`.
//! `perfbench/run.py` builds this package twice: without the `trace`
//! feature for the end-to-end timings, and with it for the per-layer
//! numbers (obs counters plus the spans in `trace.rs`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--lines <n>] [--interleave-native] [--untraced-p50-ms <ms>]
//!           [--wrong-reference] [--commit <id>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `metrics` holds every
//! metric this build measured, each as `{"value", "unit"}`. The line
//! before it records the host and the run.

mod stats;
#[cfg(feature = "trace")]
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Relative tolerance of the check against the native reference.
const TOLERANCE: f64 = 1e-9;

/// Fresh set-ups per run: one after a timed pass whenever set-ups have
/// taken less than this share of the timed phase so far, so that they
/// sample the whole run, and at least `SETUP_MIN_REPS`. `setup_s` is
/// their median.
const SETUP_MIN_REPS: usize = 11;
const SETUP_SHARE: f64 = 0.1;

/// Untimed passes before anything is timed. A fixed count, so that the
/// peak RSS read after them does not grow with the speed of the build:
/// RSS keeps growing with every pass on the threaded workloads.
const WARMUP_PASSES: usize = 20;

/// The tail percentile reported as `pass_ms.p90`.
const TAIL: f64 = 0.9;

/// Rounds of the traced front-end split; each stage reports its median.
#[cfg(feature = "trace")]
const FRONT_END_REPS: usize = 51;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    lines: Option<usize>,
    interleave_native: bool,
    untraced_p50_ms: Option<f64>,
    wrong_reference: bool,
    commit: String,
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parsed<T: std::str::FromStr>(raw: String, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        lines: None,
        interleave_native: false,
        untraced_p50_ms: None,
        wrong_reference: false,
        commit: "unknown".to_string(),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it, &flag)?,
            "--seed" => seed = Some(parsed(value(&mut it, &flag)?, &flag)?),
            "--seconds" => seconds = Some(parsed(value(&mut it, &flag)?, &flag)?),
            "--trace" => {
                trace = Some(match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--lines" => args.lines = Some(parsed(value(&mut it, &flag)?, &flag)?),
            "--interleave-native" => args.interleave_native = true,
            "--untraced-p50-ms" => {
                args.untraced_p50_ms = Some(parsed(value(&mut it, &flag)?, &flag)?)
            }
            "--wrong-reference" => args.wrong_reference = true,
            "--commit" => args.commit = value(&mut it, &flag)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    args.seconds = seconds.ok_or("--seconds is required")?;
    args.trace = trace.ok_or("--trace is required")?;
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if args.lines == Some(0) {
        return Err("--lines must be positive".into());
    }
    Ok(args)
}

/// Pass accounting: every evaluation is checked against the reference.
struct Checks {
    reference: f64,
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, total: Result<f64, String>) {
        self.attempted += 1;
        let err = match total {
            Ok(t) if (t - self.reference).abs() <= self.reference.abs() * TOLERANCE => return,
            Ok(t) => format!("total {t} is off the reference {}", self.reference),
            Err(e) => e,
        };
        if self.failed == 0 {
            eprintln!("perfbench: a {what} failed: {err}");
        }
        self.failed += 1;
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number; a non-finite value becomes `null`, which the wrapper
/// rejects.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    if args.trace != cfg!(feature = "trace") {
        return Err(format!(
            "--trace {} needs the build {} the trace feature",
            u8::from(args.trace),
            if args.trace { "with" } else { "without" }
        ));
    }
    let input = workload::make_input(&w, args.seed, args.lines.unwrap_or(w.lines));
    let mut reference = workload::reference(&w, &input);
    if args.wrong_reference {
        reference *= 1.0 + 1e-6;
    }
    let mut checks = Checks {
        reference,
        attempted: 0,
        failed: 0,
    };
    let mut m = Metrics::default();
    #[cfg(feature = "trace")]
    let mut tr = Traced::default();

    // The front end stage by stage, alternating with whole `run_mixed`
    // loads so that both run equally warm (a split timed right after a
    // pass runs cold and comes out larger than the whole).
    #[cfg(feature = "trace")]
    if w.is_source() {
        for _ in 0..FRONT_END_REPS {
            tr.front_end.push(front_end_split(w.source())?);
            let (_, run_mixed_ns) = workload::load(&w, &input)?;
            tr.load_us.push(run_mixed_ns as f64 / 1e3);
        }
    }

    let (loaded, _) = guarded(|| workload::load(&w, &input))?;
    for _ in 0..WARMUP_PASSES {
        checks.check("warm-up pass", guarded(|| loaded.pass()).map(|o| o.total));
    }
    let peak_rss_mb = stats::peak_rss_mb()?;

    // The timed passes, each followed by its native counterpart when
    // interleaving and by a fresh set-up while set-ups are under their share.
    let deadline = Duration::from_secs_f64(args.seconds);
    let pressure_before = stats::cpu_pressure_s();
    let timed_started = Instant::now();
    let mut pass_ms = Vec::new();
    let mut native_ms = Vec::new();
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let mut passes = 0u64;
    let mut setup_s = Vec::new();
    let (mut setup_reps, mut setup_spent_s) = (0, 0.0);
    while passes == 0 || timed_started.elapsed() < deadline {
        passes += 1;
        #[cfg(feature = "trace")]
        let mark = trace::obs_mark();
        #[cfg(feature = "trace")]
        trace::drain_natives();
        let cpu_before = stats::cpu_seconds()?;
        #[cfg(feature = "trace")]
        let started = Instant::now();
        let result = guarded(|| loaded.pass());
        let cpu = stats::cpu_seconds()? - cpu_before;
        match result {
            Ok(out) => {
                pass_ms.push(out.end_ns as f64 / 1e6);
                wall_s += secs(out.end_ns);
                cpu_s += cpu;
                #[cfg(feature = "trace")]
                tr.after_pass(&w, &mark, passes, started, &out);
                checks.check("pass", Ok(out.total));
            }
            Err(e) => checks.check("pass", Err(e)),
        }
        if args.interleave_native {
            let started = Instant::now();
            let total = guarded(|| Ok(workload::native_pass(&w, &input)));
            native_ms.push(started.elapsed().as_secs_f64() * 1e3);
            checks.check("native pass", total);
        }
        if setup_spent_s < SETUP_SHARE * timed_started.elapsed().as_secs_f64() {
            let started = Instant::now();
            setup_reps += 1;
            setup_s.extend(fresh_setup(&w, &input, &mut checks));
            setup_spent_s += started.elapsed().as_secs_f64();
        }
    }
    while setup_reps < SETUP_MIN_REPS {
        setup_reps += 1;
        setup_s.extend(fresh_setup(&w, &input, &mut checks));
    }

    // Share of the timed phase in which some task waited for a CPU: the
    // record's explanation for a run slowed by other load on the machine.
    let cpu_pressure = match (pressure_before, stats::cpu_pressure_s()) {
        (Some(a), Some(b)) => num(stats::ratio(b - a, timed_started.elapsed().as_secs_f64())),
        _ => "null".to_string(),
    };
    let ok_passes = pass_ms.len() as f64;
    let p50 = stats::median(&pass_ms);
    m.put(
        "words_per_s",
        stats::ratio(input.words as f64 * ok_passes, wall_s),
        "words/s",
    );
    m.put("pass_ms.p50", p50, "ms");
    m.put("pass_ms.p90", stats::quantile(&pass_ms, TAIL), "ms");
    m.put("setup_s", stats::median(&setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MiB");
    m.put("cpu_cores_busy", stats::ratio(cpu_s, wall_s), "cores");
    if args.interleave_native {
        let native_p50 = stats::median(&native_ms);
        m.put("native.pass_ms.p50", native_p50, "ms");
        m.put("overhead_x", stats::ratio(p50, native_p50), "x");
    }
    #[cfg(feature = "trace")]
    {
        tr.report(&mut m, ok_passes, wall_s, cpu_s);
        if let Some(untraced) = args.untraced_p50_ms {
            m.put(
                "obs.overhead_pct",
                100.0 * (stats::ratio(p50, untraced) - 1.0),
                "%",
            );
        }
        let path = format!("perfbench/out/{}-seed{}.jsonl", w.name, args.seed);
        tr.rec.write(std::path::Path::new(&path))?;
    }

    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"obs\": {}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"exec_global_threads\": {}, \
         \"EXEC_THREADS\": {}, \"corpus\": {{\"lines\": {}, \"words_per_line\": {}, \"words\": {}}}, \
         \"weight\": \"{}\", \"chunk_words\": {}, \"chunk_lines\": {}, \"native_counterpart\": \"{}\", \
         \"seconds\": {}, \"setup_reps\": {}, \"warmup_passes\": {}, \"passes\": {}, \
         \"native_passes\": {}, \"pass_ms_samples_beyond_p90\": {}, \"peak_rss_mb_at_exit\": {}, \
         \"cpu_pressure_share\": {}}}}}",
        w.name,
        args.seed,
        args.commit,
        cfg!(feature = "trace"),
        stats::nproc()?,
        workload::cores(),
        exec::global_threads(),
        std::env::var("EXEC_THREADS").map_or("null".to_string(), |v| format!("\"{v}\"")),
        input.corpus.lines().len(),
        workload::WORDS_PER_LINE,
        input.words,
        w.weight.name(),
        input.chunk_words,
        input.chunk_lines,
        w.native_name(),
        args.seconds,
        setup_reps,
        WARMUP_PASSES,
        passes,
        native_ms.len(),
        stats::beyond(&pass_ms, TAIL),
        stats::peak_rss_mb()?,
        cpu_pressure,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        m.json()
    );
    Ok(())
}

/// One fresh set-up, timed up to its first value; the rest of its pass
/// is drained untimed and checked. The process is warm by then, so this
/// is the cost of fresh objects, not of a cold process.
fn fresh_setup(
    w: &workload::Workload,
    input: &workload::Input,
    checks: &mut Checks,
) -> Option<f64> {
    let result = guarded(|| {
        let start = Instant::now();
        let (loaded, _) = workload::load(w, input)?;
        let load_ns = start.elapsed().as_nanos() as u64;
        let out = loaded.pass()?;
        let first = out.first_ns.ok_or("the program yielded no value")?;
        Ok((load_ns + first, out.total))
    });
    match result {
        Ok((setup_ns, total)) => {
            checks.check("set-up", Ok(total));
            Some(secs(setup_ns))
        }
        Err(e) => {
            checks.check("set-up", Err(e));
            None
        }
    }
}

/// The front end of `junicon::mixed::run_mixed`, one stage at a time:
/// region extraction with `parse::parse_program` (which lexes), then
/// `normalize_program`, then `resolve_program`. Returns each stage in µs.
#[cfg(feature = "trace")]
fn front_end_split(src: &str) -> Result<[f64; 3], String> {
    let t = Instant::now();
    let programs = junicon::mixed::extract_regions(src)
        .map_err(|e| e.to_string())?
        .into_iter()
        .filter(|(lang, _)| lang == "junicon")
        .map(|(_, text)| junicon::parse::parse_program(&text))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    let t = Instant::now();
    let mut normalized: Vec<_> = programs
        .iter()
        .map(junicon::normalize::normalize_program)
        .collect();
    let normalize = t.elapsed();
    let t = Instant::now();
    for p in &mut normalized {
        junicon::resolve::resolve_program(p);
    }
    let resolve = t.elapsed();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    Ok([us(parse), us(normalize), us(resolve)])
}

/// What the traced build collects around each timed pass.
#[cfg(feature = "trace")]
#[derive(Default)]
struct Traced {
    rec: trace::Recorder,
    obs: trace::ObsTotals,
    front_end: Vec<[f64; 3]>,
    load_us: Vec<f64>,
    gen_us: Vec<f64>,
    first_us: Vec<f64>,
    self_ms: Vec<f64>,
    reduce_ms: Vec<f64>,
    native_calls: u64,
    native_ns: u64,
}

#[cfg(feature = "trace")]
impl Traced {
    fn after_pass(
        &mut self,
        w: &workload::Workload,
        mark: &trace::ObsMark,
        pass: u64,
        started: Instant,
        out: &workload::PassOutcome,
    ) {
        self.obs.add_since(mark);
        let natives = trace::drain_natives();
        let client = trace::thread_label();
        let rec = &mut self.rec;
        let start = rec.begin_pass(pass, started);
        let pass_id = rec.span(None, "pass", client.clone(), start, out.end_ns, 1);
        let first = out.first_ns.unwrap_or(out.end_ns);
        let split = if w.is_source() { out.gen_ns } else { first };
        let (head, tail) = if w.is_source() {
            ("interp.gen", "interp.drain")
        } else {
            ("dp.launch", "dp.reduce")
        };
        rec.span(Some(pass_id), head, client.clone(), start, split, 1);
        let drain = rec.span(
            Some(pass_id),
            tail,
            client,
            start + split,
            out.end_ns - split,
            1,
        );
        let mut native_ns = 0;
        for n in natives {
            self.native_calls += n.calls;
            native_ns += n.ns;
            let parent = if n.client { drain } else { pass_id };
            rec.span(
                Some(parent),
                n.native.name(),
                n.thread,
                start,
                n.ns,
                n.calls,
            );
        }
        self.native_ns += native_ns;
        // From the generator in hand (`Interp::gen`, or `DataParallel::new`
        // + `map_flat`) to its first value.
        self.first_us
            .push(first.saturating_sub(out.gen_ns) as f64 / 1e3);
        if w.is_source() {
            self.gen_us.push(out.gen_ns as f64 / 1e3);
            // Natives on any thread count: on `mr-src-heavy` they run on
            // the pipe threads while the client waits for them.
            let self_ns = out.end_ns.saturating_sub(native_ns + out.gen_ns);
            self.self_ms.push(self_ns as f64 / 1e6);
        } else {
            self.reduce_ms.push((out.end_ns - first) as f64 / 1e6);
        }
    }

    fn report(&self, m: &mut Metrics, passes: f64, wall_s: f64, cpu_s: f64) {
        let per_pass = |v: f64| stats::ratio(v, passes);
        let stage =
            |i: usize| stats::median(&self.front_end.iter().map(|s| s[i]).collect::<Vec<_>>());
        let (parse, normalize, resolve) = (stage(0), stage(1), stage(2));
        let load = stats::median(&self.load_us);
        m.put("junicon.parse_us", parse, "us");
        m.put("junicon.normalize_us", normalize, "us");
        m.put("junicon.resolve_us", resolve, "us");
        m.put("junicon.front_sum_us", parse + normalize + resolve, "us");
        m.put("junicon.load_us", load, "us");
        // What `run_mixed` spends beyond the three stages: compiling and
        // registering the procedures (`Interp::load_normalized`).
        let residual = if self.load_us.is_empty() {
            0.0
        } else {
            load - (parse + normalize + resolve)
        };
        m.put("junicon.load_residual_us", residual, "us");
        m.put("junicon.gen_us", stats::median(&self.gen_us), "us");
        m.put("interp.self_ms", stats::median(&self.self_ms), "ms");

        for name in [
            "gde.value.arc_clones",
            "gde.value.inline_hits",
            "gde.value.promotions",
            "gde.env.slot_hits",
            "gde.env.name_fallbacks",
            "gde.comb.fused_stages",
            "gde.sym.interned",
        ] {
            m.put(name, per_pass(self.obs.counter(name)), "count/pass");
        }

        m.put(
            "hash.calls",
            per_pass(self.native_calls as f64),
            "count/pass",
        );
        m.put(
            "hash.native_ms",
            per_pass(self.native_ns as f64 / 1e6),
            "ms",
        );
        m.put(
            "hash.native_share",
            stats::ratio(self.native_ns as f64 / 1e9, cpu_s),
            "ratio",
        );

        for name in [
            "pipes.pipe.spawned",
            "pipes.pipe.items",
            "pipes.pipe.batch_flushes",
        ] {
            m.put(name, per_pass(self.obs.counter(name)), "count/pass");
        }
        m.put(
            "pipes.pipe.producer_wall_ms",
            per_pass(self.obs.timer_ms("pipes.pipe.producer_wall")),
            "ms",
        );
        m.put("pipes.first_value_us", stats::median(&self.first_us), "us");

        for name in [
            "blockingq.queue.batch_takes",
            "blockingq.queue.blocked_takes",
            "blockingq.queue.blocked_puts",
        ] {
            m.put(name, per_pass(self.obs.counter(name)), "count/pass");
        }
        m.put(
            "blockingq.blocked_take_ratio",
            stats::ratio(
                self.obs.counter("blockingq.queue.blocked_takes"),
                self.obs.counter("blockingq.queue.takes"),
            ),
            "ratio",
        );
        m.put(
            "blockingq.queue.batch_fill.p50",
            stats::median(self.obs.batch_fill()),
            "items",
        );

        let workers = per_pass(self.obs.counter("exec.pool.workers_spawned"));
        let busy_ms = self.obs.timer_ms("exec.pool.busy");
        m.put("exec.pool.workers_spawned", workers, "count/pass");
        m.put(
            "exec.pool.tasks_run",
            per_pass(self.obs.counter("exec.pool.tasks_run")),
            "count/pass",
        );
        m.put("exec.pool.busy_ms", per_pass(busy_ms), "ms");
        m.put(
            "exec.utilization",
            stats::ratio(busy_ms, wall_s * 1e3 * workers),
            "ratio",
        );

        let chunks = per_pass(self.obs.counter("mapreduce.chunks"));
        m.put("mapreduce.chunks", chunks, "count/pass");
        m.put(
            "mapreduce.launch_ms",
            per_pass(self.obs.timer_ms("mapreduce.launch")),
            "ms",
        );
        // The timer keeps a window of recent chunks; thousands of chunks
        // run in the timed passes, so the window holds only theirs.
        let chunk_p50 = if chunks > 0.0 {
            trace::timer_p50_ms("mapreduce.chunk_run")
        } else {
            0.0
        };
        m.put("mapreduce.chunk_run_ms.p50", chunk_p50, "ms");
        m.put("mapreduce.reduce_ms", stats::median(&self.reduce_ms), "ms");
    }
}
