//! The traced build's recorders: time spent in the benchmark-registered
//! natives, per thread, and the spans of each pass.
//!
//! Natives run tens of thousands of times a pass, so they are not stored
//! as spans one by one. Each thread adds its calls and nanoseconds to a
//! slot of its own; after each pass the client drains every slot into one
//! aggregate span per (thread, native).

use crate::workload::Native;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NATIVES: usize = Native::ALL.len();

#[derive(Default)]
struct Slot {
    calls: [AtomicU64; NATIVES],
    ns: [AtomicU64; NATIVES],
}

struct Registered {
    thread: String,
    slot: Arc<Slot>,
}

static SLOTS: Mutex<Vec<Registered>> = Mutex::new(Vec::new());

pub fn thread_label() -> String {
    let t = std::thread::current();
    format!("{}:{:?}", t.name().unwrap_or("unnamed"), t.id())
}

thread_local! {
    static SLOT: Arc<Slot> = {
        let slot = Arc::new(Slot::default());
        SLOTS
            .lock()
            .expect("a thread panicked while registering its native slot")
            .push(Registered { thread: thread_label(), slot: Arc::clone(&slot) });
        slot
    };
}

/// Run a native, adding its call and duration to this thread's slot.
pub fn timed<R>(native: Native, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    SLOT.with(|s| {
        s.calls[native as usize].fetch_add(1, Relaxed);
        s.ns[native as usize].fetch_add(ns, Relaxed);
    });
    out
}

/// Native calls of one thread since the last drain.
pub struct NativeTotals {
    pub thread: String,
    /// Whether the thread is the one that drained (the client).
    pub client: bool,
    pub native: Native,
    pub calls: u64,
    pub ns: u64,
}

/// Take and reset every thread's totals; forget threads that have exited.
pub fn drain_natives() -> Vec<NativeTotals> {
    let me = thread_label();
    let mut slots = SLOTS
        .lock()
        .expect("a thread panicked while registering its native slot");
    let mut out = Vec::new();
    for r in slots.iter() {
        for native in Native::ALL {
            let calls = r.slot.calls[native as usize].swap(0, Relaxed);
            let ns = r.slot.ns[native as usize].swap(0, Relaxed);
            if calls > 0 {
                out.push(NativeTotals {
                    thread: r.thread.clone(),
                    client: r.thread == me,
                    native,
                    calls,
                    ns,
                });
            }
        }
    }
    // An exited thread has dropped its own handle; its totals were read
    // above.
    slots.retain(|r| Arc::strong_count(&r.slot) > 1);
    out
}

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub pass: u64,
    pub name: &'static str,
    pub thread: String,
    /// Offset from the start of the run.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into an aggregate span; 1 for a plain span.
    pub count: u64,
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// The pass new spans belong to.
    pass: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            pass: 0,
        }
    }
}

impl Recorder {
    /// Start recording the spans of pass `pass`, begun at `started`;
    /// returns that start as an offset from the start of the run.
    pub fn begin_pass(&mut self, pass: u64, started: Instant) -> u64 {
        self.pass = pass;
        started.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span of the current pass and return its id.
    pub fn span(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        thread: String,
        start_ns: u64,
        dur_ns: u64,
        count: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            pass: self.pass,
            name,
            thread,
            start_ns,
            dur_ns,
            count,
        });
        id
    }

    /// Write one JSON object per span. A span's self time is its
    /// duration minus that of its children on the same thread.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p as usize - 1].thread == s.thread {
                    child_ns[p as usize] += s.dur_ns;
                }
            }
        }
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{},\"parent\":{},\"pass\":{},\"name\":\"{}\",\"thread\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"count\":{}}}",
                s.id,
                parent,
                s.pass,
                s.name,
                s.thread,
                s.start_ns,
                s.dur_ns,
                s.dur_ns.saturating_sub(child_ns[s.id as usize]),
                s.count
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The obs counters attributed to the timed passes, as deltas around
/// each pass (warm-up and the interleaved native passes excluded).
pub const COUNTERS: [&str; 17] = [
    "gde.value.arc_clones",
    "gde.value.inline_hits",
    "gde.value.promotions",
    "gde.env.slot_hits",
    "gde.env.name_fallbacks",
    "gde.comb.fused_stages",
    "gde.sym.interned",
    "pipes.pipe.spawned",
    "pipes.pipe.items",
    "pipes.pipe.batch_flushes",
    "blockingq.queue.takes",
    "blockingq.queue.batch_takes",
    "blockingq.queue.blocked_takes",
    "blockingq.queue.blocked_puts",
    "exec.pool.workers_spawned",
    "exec.pool.tasks_run",
    "mapreduce.chunks",
];

/// Timers whose total time is attributed the same way.
pub const TIMERS: [&str; 3] = [
    "pipes.pipe.producer_wall",
    "exec.pool.busy",
    "mapreduce.launch",
];

/// Sums of per-pass obs deltas.
#[derive(Default)]
pub struct ObsTotals {
    counters: [u64; COUNTERS.len()],
    timer_ns: [u64; TIMERS.len()],
    batch_fill: Vec<f64>,
}

/// What to read before a pass to attribute its obs deltas.
pub struct ObsMark {
    snapshot: obs::Snapshot,
    batch_fill_head: u64,
}

fn batch_fill() -> Arc<obs::Histogram> {
    obs::histogram("blockingq.queue.batch_fill")
}

pub fn obs_mark() -> ObsMark {
    ObsMark {
        snapshot: obs::snapshot(),
        batch_fill_head: batch_fill().count(),
    }
}

impl ObsTotals {
    /// Add what changed since `mark`.
    pub fn add_since(&mut self, mark: &ObsMark) {
        let now = obs::snapshot();
        for (sum, name) in self.counters.iter_mut().zip(COUNTERS) {
            let get = |s: &obs::Snapshot| s.counter(name).unwrap_or(0);
            *sum += get(&now).saturating_sub(get(&mark.snapshot));
        }
        for (sum, name) in self.timer_ns.iter_mut().zip(TIMERS) {
            let get = |s: &obs::Snapshot| s.timer(name).map_or(0, |t| t.1);
            *sum += get(&now).saturating_sub(get(&mark.snapshot));
        }
        // The histogram is a ring: the pass's samples are the slots from
        // the old head to the new one, if the ring has not lapped them.
        let hist = batch_fill();
        let head = hist.count();
        let window = hist.window() as u64;
        let samples = hist.samples();
        let from = mark.batch_fill_head.max(head.saturating_sub(window));
        for i in from..head {
            if let Some(&v) = samples.get((i % window) as usize) {
                self.batch_fill.push(v as f64);
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a counter listed in COUNTERS");
        self.counters[i] as f64
    }

    pub fn timer_ms(&self, name: &str) -> f64 {
        let i = TIMERS
            .iter()
            .position(|c| *c == name)
            .expect("a timer listed in TIMERS");
        self.timer_ns[i] as f64 / 1e6
    }

    pub fn batch_fill(&self) -> &[f64] {
        &self.batch_fill
    }
}

/// The median latency of a timer over its retained window, in ms.
pub fn timer_p50_ms(name: &str) -> f64 {
    obs::timer(name).latency_stats().p50 as f64 / 1e6
}
