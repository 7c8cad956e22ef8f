//! The four workloads: corpus shape, the program one pass evaluates, and
//! the native counterpart each is paired with.
//!
//! Three workloads run the paper's own programs from Junicon source
//! through `junicon::mixed::run_mixed` and the interpreter; the fourth
//! drives `mapreduce::DataParallel` from host code, with no interpreter.

use gde::comb::promote_value;
use gde::{GenExt, Value};
use junicon::Interp;
use mapreduce::DataParallel;
use std::time::Instant;
use wordcount::hash::{hash_int, hash_number, word_to_number};
use wordcount::{native, Corpus, Weight};

/// Fig. 3's `WordCount` region: `readLines` and `splitWords`.
const FIG3_SOURCE: &str = r#"@<script lang="junicon">
    def readLines() { suspend !lines; }
    def splitWords(line) { suspend ! line::split("\\s+"); }
@</script>"#;

/// Fig. 3's region plus Fig. 4's `chunk` and `mapReduce`, one `|>` per
/// chunk. `chunkSize` is a global the host sets, in the role of Fig. 4's
/// `DataParallel(size)` field.
const FIG4_SOURCE: &str = r#"@<script lang="junicon">
    def readLines() { suspend !lines; }
    def splitWords(line) { suspend ! line::split("\\s+"); }
    def hashWord(w) { return this::hashNumber(this::wordToNumber(w)); }
    def plus(a, b) { return a + b; }
    def chunk(e) {
        local c;
        c := [];
        while put(c, @e) do { if *c >= chunkSize then { suspend c; c := []; }; };
        if *c > 0 then { return c; };
    }
    def mapReduce(f, s, r, init) {
        local c, t, tasks;
        tasks := [];
        every c := chunk(s) do {
            t := |> { local x; x := init; every x := r(x, f(!c)); x };
            tasks::add(t);
        };
        suspend ! (! tasks);
    }
@</script>"#;

/// Words per corpus line, for every workload.
pub const WORDS_PER_LINE: usize = 10;

/// Fig. 3's `new DataParallel(1000)`.
pub const DP_CHUNK_WORDS: usize = 1000;

/// `mr-src-heavy` cuts its corpus into this many chunks per core.
pub const MR_CHUNKS_PER_CORE: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SeqSrc,
    PipeSrc,
    MrSrc,
    DpLib,
}

/// One workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub lines: usize,
    pub weight: Weight,
}

/// Every workload the program runs. BENCHMARK.json lists all but
/// `seq-src-light` (see `UNLISTED` in perfbench/run.py).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "seq-src-light",
        kind: Kind::SeqSrc,
        lines: 2000,
        weight: Weight::Light,
    },
    Workload {
        name: "pipe-src-light",
        kind: Kind::PipeSrc,
        lines: 2000,
        weight: Weight::Light,
    },
    Workload {
        name: "mr-src-heavy",
        kind: Kind::MrSrc,
        lines: 200,
        weight: Weight::Heavy,
    },
    // Ten times the other light corpora: 2000 lines make 3 ms passes, so
    // short that a pass doubles whenever another process takes one of the
    // pool's CPUs for a time slice.
    Workload {
        name: "dp-lib-light",
        kind: Kind::DpLib,
        lines: 20000,
        weight: Weight::Light,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The query a pass hands to `Interp::gen`.
    fn query(&self) -> &'static str {
        match self.kind {
            Kind::SeqSrc => "this::hashNumber(this::wordToNumber(splitWords(readLines())))",
            // Fig. 3's runPipeline, verbatim.
            Kind::PipeSrc => {
                "this::hashNumber( ! (|> this::wordToNumber( splitWords(readLines()))))"
            }
            Kind::MrSrc => "mapReduce(hashWord, <> splitWords(readLines()), plus, 0.0)",
            Kind::DpLib => unreachable!("dp-lib-light runs no Junicon"),
        }
    }

    pub fn source(&self) -> &'static str {
        match self.kind {
            Kind::MrSrc => FIG4_SOURCE,
            _ => FIG3_SOURCE,
        }
    }

    pub fn is_source(&self) -> bool {
        self.kind != Kind::DpLib
    }

    /// The `wordcount::native` program this workload is compared with.
    pub fn native_name(&self) -> &'static str {
        match self.kind {
            Kind::SeqSrc => "sequential",
            Kind::PipeSrc => "pipeline",
            Kind::MrSrc => "map_reduce_on",
            Kind::DpLib => "data_parallel_on",
        }
    }
}

/// The generated input of one run; none of it is timed.
pub struct Input {
    pub corpus: Corpus,
    pub words: usize,
    /// `mr-src-heavy`: words per Junicon chunk. `dp-lib-light`: words per
    /// `DataParallel` chunk. 0 for the workloads that do not chunk.
    pub chunk_words: usize,
    /// Lines per chunk for the chunked native counterparts (or 0).
    pub chunk_lines: usize,
    /// The corpus words as one list: the `dp-lib-light` source.
    word_list: Value,
}

pub fn make_input(w: &Workload, seed: u64, lines: usize) -> Input {
    let corpus = Corpus::generate(lines, WORDS_PER_LINE, seed);
    let words = corpus.word_count();
    let (chunk_words, chunk_lines) = match w.kind {
        Kind::SeqSrc | Kind::PipeSrc => (0, 0),
        Kind::MrSrc => {
            let chunks = MR_CHUNKS_PER_CORE * cores();
            (words.div_ceil(chunks), lines.div_ceil(chunks))
        }
        Kind::DpLib => (DP_CHUNK_WORDS, DP_CHUNK_WORDS.div_ceil(WORDS_PER_LINE)),
    };
    let word_list = if w.kind == Kind::DpLib {
        let all = corpus
            .lines()
            .iter()
            .flat_map(|l| wordcount::corpus::split_words(l))
            .map(Value::str)
            .collect();
        Value::list(all)
    } else {
        Value::Null
    };
    // Build the cached list form of the lines before any timing.
    corpus.as_value();
    Input {
        corpus,
        words,
        chunk_words,
        chunk_lines,
        word_list,
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The correctness reference: `wordcount::native::sequential`.
pub fn reference(w: &Workload, input: &Input) -> f64 {
    native::sequential(input.corpus.lines(), w.weight)
}

/// One pass of the native counterpart.
pub fn native_pass(w: &Workload, input: &Input) -> f64 {
    let lines = input.corpus.lines();
    match w.kind {
        Kind::SeqSrc => native::sequential(lines, w.weight),
        Kind::PipeSrc => native::pipeline(lines, w.weight),
        Kind::MrSrc => native::map_reduce_on(lines, w.weight, input.chunk_lines, exec::global()),
        Kind::DpLib => native::data_parallel_on(lines, w.weight, input.chunk_lines, exec::global()),
    }
}

/// Which benchmark-registered native a call is (for the traced spans).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Native {
    WordToNumber = 0,
    HashNumber = 1,
    /// The `dp-lib-light` map: both halves in one call.
    HashWord = 2,
}

#[cfg(feature = "trace")]
impl Native {
    pub const ALL: [Native; 3] = [Native::WordToNumber, Native::HashNumber, Native::HashWord];

    pub fn name(self) -> &'static str {
        match self {
            Native::WordToNumber => "native.wordToNumber",
            Native::HashNumber => "native.hashNumber",
            Native::HashWord => "native.hashWord",
        }
    }
}

#[cfg(feature = "trace")]
use crate::trace::timed;

#[cfg(not(feature = "trace"))]
#[inline(always)]
fn timed<R>(_native: Native, f: impl FnOnce() -> R) -> R {
    f()
}

fn word_value(v: &Value, weight: Weight) -> Option<Value> {
    let n = word_to_number(v.as_str()?, weight)?;
    Some(Value::big(n.into()))
}

fn hash_value(v: &Value, weight: Weight) -> Option<Value> {
    let h = match v.deref() {
        Value::Int(i) if i >= 0 => hash_int(i as u64, weight),
        Value::Big(b) if !b.is_negative() => hash_number(b.magnitude(), weight),
        _ => return None,
    };
    Some(Value::Real(h))
}

/// Where the time of one pass went, as offsets from its start.
pub struct PassOutcome {
    pub total: f64,
    /// `Interp::gen`, or `DataParallel::new` + `map_flat`.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub gen_ns: u64,
    /// Up to the first value (`None` if the program yields nothing).
    pub first_ns: Option<u64>,
    pub end_ns: u64,
}

/// A program ready for passes.
pub enum Loaded {
    Src {
        interp: Interp,
        query: &'static str,
    },
    Dp {
        words: Value,
        chunk: usize,
        weight: Weight,
    },
}

/// Fresh objects for one workload: for a source workload `Interp::new`,
/// the natives and `run_mixed` of its program; for `dp-lib-light`
/// nothing, since its pass builds the `DataParallel`. Also returns how
/// long `run_mixed` took, in ns.
pub fn load(w: &Workload, input: &Input) -> Result<(Loaded, u64), String> {
    if !w.is_source() {
        let dp = Loaded::Dp {
            words: input.word_list.clone(),
            chunk: input.chunk_words,
            weight: w.weight,
        };
        return Ok((dp, 0));
    }
    let interp = Interp::new();
    interp.globals().declare("lines", input.corpus.as_value());
    if w.kind == Kind::MrSrc {
        interp
            .globals()
            .declare("chunkSize", Value::from(input.chunk_words as i64));
    }
    let weight = w.weight;
    interp.register_native("wordToNumber", move |_this, args| {
        timed(Native::WordToNumber, || word_value(args.first()?, weight))
    });
    interp.register_native("hashNumber", move |_this, args| {
        timed(Native::HashNumber, || hash_value(args.first()?, weight))
    });
    let start = Instant::now();
    let regions = junicon::mixed::run_mixed(w.source(), &interp).map_err(|e| e.to_string())?;
    let run_mixed_ns = start.elapsed().as_nanos() as u64;
    if regions != 1 {
        return Err(format!("expected one Junicon region, loaded {regions}"));
    }
    let src = Loaded::Src {
        interp,
        query: w.query(),
    };
    Ok((src, run_mixed_ns))
}

impl Loaded {
    /// One full evaluation: every value the program yields, summed.
    pub fn pass(&self) -> Result<PassOutcome, String> {
        let start = Instant::now();
        let ns = || start.elapsed().as_nanos() as u64;
        let (mut gen, gen_ns): (gde::BoxGen, u64) = match self {
            Loaded::Src { interp, query } => {
                let g = interp.gen(query).map_err(|e| e.to_string())?;
                (g, ns())
            }
            Loaded::Dp {
                words,
                chunk,
                weight,
            } => {
                let weight = *weight;
                let dp = DataParallel::new(*chunk);
                let g = dp.map_flat(
                    move |w| {
                        timed(Native::HashWord, || {
                            hash_value(&word_value(w, weight)?, weight)
                        })
                    },
                    promote_value(words.clone()),
                );
                (Box::new(g), ns())
            }
        };
        let mut total = 0.0;
        let mut first_ns = None;
        while let Some(v) = gen.next_value() {
            if first_ns.is_none() {
                first_ns = Some(ns());
            }
            total += v
                .as_real()
                .ok_or_else(|| format!("the program yielded a non-real {v:?}"))?;
        }
        // Teardown is part of the pass: for `dp-lib-light` this joins the
        // pool the pass built.
        drop(gen);
        Ok(PassOutcome {
            total,
            gen_ns,
            first_ns,
            end_ns: ns(),
        })
    }
}
