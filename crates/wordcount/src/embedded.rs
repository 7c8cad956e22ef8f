//! The embedded suite — the paper's "Junicon" programs as concurrent
//! generators over the dynamic runtime.
//!
//! These four functions build exactly the combinator trees that transpiled
//! Junicon builds (values are boxed [`gde::Value`]s, words flow through
//! reified stages, coordination uses pipes and the Fig. 4 `DataParallel`),
//! so measuring them against [`crate::native`] reproduces Fig. 6's
//! embedded-vs-native comparison.
//!
//! The program is Fig. 3's: `readLines` → `splitWords` → `wordToNumber` →
//! `hashNumber` → sum. The sequential variant evaluates all stages inline;
//! the pipeline variant is `hashNumber(!(|> wordToNumber(!splitWords(
//! readLines()))))` — the parse stage on a producer thread; map-reduce and
//! data-parallel spread chunks of the word stream over the pool per Fig. 4.

use crate::corpus::Corpus;
use crate::hash::{hash_int, hash_number, word_to_number, Weight};
use gde::comb::fuse::StagePlan;
use gde::comb::{fail, filter_map, flat, promote_value};
use gde::{BoxGen, Gen, GenExt, Step, Value};
use mapreduce::DataParallel;
use pipes::Pipe;

/// Word-chunk size for the chunked variants (`new DataParallel(1000)`).
pub const CHUNK_SIZE: usize = 1000;

/// `splitWords(readLines())`: the word stream as a generator of string
/// values.
///
/// Words are borrowed [`Value::slice`] handles into the shared line
/// buffers — the corpus's per-line `Arc<str>` allocations act as the
/// pipeline's arena. Yielding a word costs a refcount on its line: no
/// interner hash, no bucket walk, no allocation. A word that outlives its
/// stage (env slot, table key, pipe crossing) is promoted to an owned
/// form by the runtime's escape hatches ([`Value::promote`]).
fn word_stream(lines: Value) -> BoxGen {
    Box::new(flat(promote_value(lines), word_split_factory))
}

/// `line::split("\\s+")` as a flat-stage factory: one lazy [`WordSplit`]
/// per line value. This is the pipeline's fusion *barrier* — a line
/// expands to many words, so monogenic stages cannot move across it, but
/// the run *after* it fuses into the barrier node itself
/// ([`gde::comb::fuse::FlatFused`]).
fn word_split_factory(line: &Value) -> BoxGen {
    match line_buffer(line) {
        Some(line) => Box::new(WordSplit {
            line,
            pos: 0,
            pending: 0,
        }) as BoxGen,
        None => Box::new(fail()) as BoxGen,
    }
}

/// The shared `Arc<str>` buffer behind a line value, for [`WordSplit`]
/// to scan in place.
fn line_buffer(line: &Value) -> Option<std::sync::Arc<str>> {
    match line {
        Value::Str(s) => Some(s.clone()),
        Value::Sym(s) => Some(s.arc()),
        // A slice-of-a-slice would need nested offsets; it is cold here,
        // so re-own the window instead.
        Value::Slice(s) => Some(std::sync::Arc::from(s.as_str())),
        _ => None,
    }
}

/// Lazy `line::split("\\s+")`: yields one borrowed word handle per
/// resume, scanning the shared line in place. No intermediate `Vec` of
/// words is ever built — each resume finds the next whitespace-delimited
/// run and hands out a [`Value::slice`] window into the line buffer
/// (no hash, no allocation; the compact-value hot path).
struct WordSplit {
    line: std::sync::Arc<str>,
    pos: usize,
    /// Windows yielded since the last `gde.value.inline_hits` flush —
    /// batched per line via [`Value::note_inline_windows`] so the
    /// per-word loop pays a register increment, not an atomic RMW.
    pending: u64,
}

impl WordSplit {
    fn flush_obs(&mut self) {
        Value::note_inline_windows(self.pending);
        self.pending = 0;
    }
}

impl Drop for WordSplit {
    fn drop(&mut self) {
        // A splitter abandoned mid-line still accounts for what it
        // yielded.
        self.flush_obs();
    }
}

impl Gen for WordSplit {
    fn resume(&mut self) -> Step {
        let bytes = self.line.as_bytes();
        // Slice-then-iterate so the scan is bounds-check-free.
        let start = match bytes[self.pos..]
            .iter()
            .position(|b| !b.is_ascii_whitespace())
        {
            Some(off) => self.pos + off,
            None => {
                self.pos = bytes.len();
                self.flush_obs();
                return Step::Fail;
            }
        };
        let end = match bytes[start..].iter().position(|b| b.is_ascii_whitespace()) {
            Some(off) => start + off,
            None => bytes.len(),
        };
        self.pos = end;
        self.pending += 1;
        // Splitting at ASCII whitespace always lands on char boundaries,
        // so the trusted constructor skips the per-word window check.
        Step::Suspend(Value::slice_at_ascii_delims(self.line.clone(), start, end))
    }
    fn restart(&mut self) {
        self.pos = 0;
        self.flush_obs();
    }
    /// Flat barriers recycle the splitter across lines: swap the buffer,
    /// rewind, skip the per-line factory call + box (see [`Gen::rebind`]).
    fn rebind(&mut self, v: &Value) -> bool {
        match line_buffer(v) {
            Some(line) => {
                self.line = line;
                self.pos = 0;
                self.flush_obs();
                true
            }
            None => false,
        }
    }
}

/// `wordToNumber` as a goal-directed stage: string value → integer
/// value, failing on unparsable words.
///
/// Machine-range results stay unboxed (`Value::Int`), exactly as Icon
/// stores small integers — only values beyond `i64` take the boxed
/// big-integer representation. This keeps the per-word hot path free of
/// the `Arc<BigInt>` allocation.
fn parse_stage(words: BoxGen, weight: Weight) -> BoxGen {
    Box::new(filter_map(words, parse_filter_map(weight)))
}

/// The `wordToNumber` transform as a shareable stage closure (both the
/// unfused [`parse_stage`] node and the fused plans compose it).
fn parse_filter_map(weight: Weight) -> impl Fn(&Value) -> Option<Value> + Send + Sync {
    move |w| {
        let s = w.as_str()?;
        let n = word_to_number(s, weight)?;
        Some(match n.to_u64() {
            Some(u) if u <= i64::MAX as u64 => Value::Int(u as i64),
            _ => Value::big(n.into()),
        })
    }
}

/// `hashNumber` as a stage: big-integer value → real value.
fn hash_stage(numbers: BoxGen, weight: Weight) -> BoxGen {
    Box::new(filter_map(numbers, hash_filter_map(weight)))
}

/// The `hashNumber` transform as a shareable stage closure.
fn hash_filter_map(weight: Weight) -> impl Fn(&Value) -> Option<Value> + Send + Sync {
    move |n| Some(Value::Real(hash_value(n, weight)?))
}

/// The full Fig. 3 stage pipeline as a fusable [`StagePlan`]:
/// `splitWords` (flat barrier) → `wordToNumber` → `hashNumber`. Fusing
/// collapses the two monogenic stages into the barrier node, so the whole
/// pipeline costs one [`gde::comb::fuse::FlatFused`] resume plus one
/// [`WordSplit`] resume per word — down from four boxed dispatches in the
/// stage-per-node tree.
fn stage_plan(weight: Weight) -> StagePlan {
    parse_plan(weight).filter_map(hash_filter_map(weight))
}

/// The producer half of the pipeline variant: `splitWords` →
/// `wordToNumber` (hashing runs downstream of the pipe).
fn parse_plan(weight: Weight) -> StagePlan {
    StagePlan::new()
        .flat(word_split_factory)
        .filter_map(parse_filter_map(weight))
}

/// Hash a dynamic big-integer value *by reference*: the dominant
/// `Value::Big` case borrows the shared magnitude ([`hash_number`] takes
/// `&BigUint`), so the hot path does no big-integer clone and no
/// allocation per word.
fn hash_value(v: &Value, weight: Weight) -> Option<f64> {
    match v {
        Value::Int(i) if *i >= 0 => Some(hash_int(*i as u64, weight)),
        Value::Big(b) if !b.is_negative() => Some(hash_number(b.magnitude(), weight)),
        Value::Ref(cell) => hash_value(&cell.get(), weight),
        _ => None,
    }
}

/// Drive a generator of reals to failure, summing (the `every` reduction
/// loop of Fig. 3's `runPipeline`).
///
/// The accumulator is a plain local: after slot resolution the reduction
/// variable of the embedded program is a direct cell reference, not a
/// name lookup, so a native fold over the resumed values is the faithful
/// analogue (and drops the two mutex acquisitions per word the old
/// reified-`Var` accumulator paid).
fn sum_gen(mut gen: BoxGen, seed: f64) -> f64 {
    let mut total = seed;
    while let Some(v) = gen.next_value() {
        if let Some(h) = v.as_real() {
            total += h;
        }
    }
    total
}

/// Sequential embedded word-count: all stages inline on one thread, with
/// the stage pipeline fused at construction (see [`stage_plan`]).
pub fn sequential(corpus: &Corpus, weight: Weight) -> f64 {
    let hashed = stage_plan(weight).instantiate(Box::new(promote_value(corpus.as_value())));
    sum_gen(hashed, 0.0)
}

/// [`sequential`] over the traditional one-combinator-node-per-stage tree
/// — the reference semantics the fusion equivalence suite compares
/// against (and the "before" side of the fused-vs-unfused bench).
pub fn sequential_unfused(corpus: &Corpus, weight: Weight) -> f64 {
    let words = word_stream(corpus.as_value());
    let hashed = hash_stage(parse_stage(words, weight), weight);
    sum_gen(hashed, 0.0)
}

/// Pipeline-parallel embedded word-count:
/// `hashNumber(!(|> wordToNumber(!splitWords(readLines()))))` — split and
/// parse on the pipe's producer thread, hash and sum downstream.
pub fn pipeline(corpus: &Corpus, weight: Weight) -> f64 {
    pipeline_with_capacity(corpus, weight, pipes::DEFAULT_CAPACITY)
}

/// [`pipeline`] with an explicit queue bound (throttling ablation).
pub fn pipeline_with_capacity(corpus: &Corpus, weight: Weight, capacity: usize) -> f64 {
    pipeline_batched(corpus, weight, capacity, pipes::DEFAULT_BATCH)
}

/// [`pipeline`] with explicit queue bound *and* transport batch: parsed
/// numbers cross the pipe's thread boundary in chunks of up to `batch`
/// values per queue transaction (`batch == 1` reproduces the
/// item-at-a-time transport of the original embedding).
pub fn pipeline_batched(corpus: &Corpus, weight: Weight, capacity: usize, batch: usize) -> f64 {
    let lines = corpus.as_value();
    let pipe = Pipe::staged(
        move || Box::new(promote_value(lines.clone())),
        &parse_plan(weight),
        capacity,
        batch,
    );
    let hashed = hash_stage(Box::new(pipe), weight);
    sum_gen(hashed, 0.0)
}

/// Fan-in embedded word-count: the corpus is split into `sources`
/// contiguous slices, each run as its own `splitWords` → `wordToNumber` →
/// `hashNumber` generator on a producer thread; per-word hashes arrive
/// *tagged with their source index* (as two-element lists) through one
/// batched [`pipes::merge`], are re-bucketed per source downstream, and
/// reduced in source order — so the float association is **identical to
/// [`sequential`]** (the sum is byte-for-byte equal) regardless of the
/// arrival interleaving.
pub fn fan_in(
    corpus: &Corpus,
    weight: Weight,
    sources: usize,
    capacity: usize,
    batch: usize,
) -> f64 {
    let sources = sources.max(1);
    let slice_len = corpus.lines().len().div_ceil(sources);
    let mut factories: Vec<Box<dyn Fn() -> BoxGen + Send + Sync>> = Vec::with_capacity(sources);
    for k in 0..sources {
        let slice: Value = Value::list(
            corpus
                .lines()
                .iter()
                .skip(k * slice_len)
                .take(slice_len)
                .map(Value::str)
                .collect(),
        );
        // Tag each hash with its source index so the consumer can restore
        // the sequential reduction order. The tag stage is monogenic, so
        // it fuses into the same closure as parse and hash — the whole
        // per-source pipeline is one FlatFused node.
        let fused = stage_plan(weight)
            .filter_map(move |h| Some(Value::list(vec![Value::from(k as i64), h.clone()])))
            .fuse();
        factories.push(Box::new(move || {
            fused.instantiate(Box::new(promote_value(slice.clone())))
        }));
    }
    let mut merged = pipes::merge(factories, capacity).with_batch(batch);
    // Bucket arrivals per source (per-producer FIFO keeps each bucket in
    // slice order), then reduce buckets in source order: the same hash
    // sequence — and therefore the same float association — as the
    // sequential fold.
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); sources];
    while let Some(tagged) = merged.next_value() {
        let Some(list) = tagged.as_list().map(|l| l.lock().clone()) else {
            continue;
        };
        let (Some(k), Some(h)) = (
            list.first().and_then(|v| v.as_int()),
            list.get(1).and_then(|v| v.as_real()),
        ) else {
            continue;
        };
        buckets[k as usize].push(h);
    }
    let mut total = 0.0;
    for bucket in buckets {
        for h in bucket {
            total += h;
        }
    }
    total
}

/// Map-reduce embedded word-count: Fig. 4's `mapReduce(hashWords, …,
/// sumHash, 0)` — chunks of the parsed word stream are mapped and reduced
/// on pool tasks; the per-chunk partials are summed in order.
pub fn map_reduce(corpus: &Corpus, weight: Weight) -> f64 {
    map_reduce_sized(corpus, weight, CHUNK_SIZE)
}

/// [`map_reduce`] with an explicit chunk size (ablation).
pub fn map_reduce_sized(corpus: &Corpus, weight: Weight, chunk_size: usize) -> f64 {
    let dp = DataParallel::new(chunk_size);
    let numbers = parse_plan(weight).instantiate(Box::new(promote_value(corpus.as_value())));
    let mut partials = dp.map_reduce(
        move |n| Some(Value::Real(hash_value(n, weight)?)),
        numbers,
        |acc, h| gde::ops::add(&acc, &h),
        Value::Real(0.0),
    );
    let mut total = 0.0;
    while let Some(p) = partials.next_value() {
        total += p.as_real().unwrap_or(0.0);
    }
    total
}

/// Data-parallel embedded word-count: chunks are mapped on pool tasks but
/// every per-word hash is flattened back in order and reduced serially —
/// the variant that "split out the reduction and effected serialization".
pub fn data_parallel(corpus: &Corpus, weight: Weight) -> f64 {
    data_parallel_sized(corpus, weight, CHUNK_SIZE)
}

/// [`data_parallel`] with an explicit chunk size.
pub fn data_parallel_sized(corpus: &Corpus, weight: Weight, chunk_size: usize) -> f64 {
    let dp = DataParallel::new(chunk_size);
    let numbers = parse_plan(weight).instantiate(Box::new(promote_value(corpus.as_value())));
    let hashes = dp.map_flat(move |n| Some(Value::Real(hash_value(n, weight)?)), numbers);
    sum_gen(Box::new(hashes), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= a.abs().max(b.abs()) * 1e-9 + 1e-12
    }

    #[test]
    fn sequential_matches_native() {
        let c = Corpus::generate(40, 8, 21);
        let native = crate::native::sequential(c.lines(), Weight::Light);
        let embedded = sequential(&c, Weight::Light);
        assert!(close(native, embedded), "{native} vs {embedded}");
    }

    #[test]
    fn pipeline_matches_native() {
        let c = Corpus::generate(40, 8, 22);
        let native = crate::native::sequential(c.lines(), Weight::Light);
        assert!(close(native, pipeline(&c, Weight::Light)));
        assert!(close(native, pipeline_with_capacity(&c, Weight::Light, 2)));
    }

    #[test]
    fn map_reduce_matches_native() {
        let c = Corpus::generate(40, 8, 23);
        let native = crate::native::sequential(c.lines(), Weight::Light);
        let mr = map_reduce_sized(&c, Weight::Light, 37);
        assert!(close(native, mr), "{native} vs {mr}");
    }

    #[test]
    fn data_parallel_matches_native() {
        let c = Corpus::generate(40, 8, 24);
        let native = crate::native::sequential(c.lines(), Weight::Light);
        let dp = data_parallel_sized(&c, Weight::Light, 37);
        assert!(close(native, dp));
    }

    #[test]
    fn fused_sequential_is_bitwise_unfused() {
        // Fusion is a pure rewrite: same hashes, same association, so the
        // sums are byte-for-byte equal — for both weights.
        let c = Corpus::generate(60, 8, 29);
        for weight in [Weight::Light, Weight::Heavy] {
            assert_eq!(sequential(&c, weight), sequential_unfused(&c, weight));
        }
    }

    #[test]
    fn stage_plan_fuses_to_one_node() {
        // splitWords | parse | hash: the monogenic run is absorbed into
        // the flat barrier — a single FlatFused segment.
        assert_eq!(stage_plan(Weight::Light).fuse().segment_count(), 1);
    }

    #[test]
    fn pipeline_batched_is_bitwise_sequential() {
        // The pipe preserves order and the reduction runs downstream with
        // the same association, so equality is exact for every batch.
        let c = Corpus::generate(40, 8, 26);
        let seq = sequential(&c, Weight::Light);
        for batch in [1, 2, 7, 64] {
            let got = pipeline_batched(&c, Weight::Light, 16, batch);
            assert_eq!(seq, got, "batch {batch} changed the embedded sum");
        }
    }

    #[test]
    fn fan_in_is_bitwise_sequential() {
        // Source-order bucketing restores the sequential association, so
        // equality is exact whatever the arrival interleaving was.
        let c = Corpus::generate(40, 8, 27);
        let seq = sequential(&c, Weight::Light);
        for sources in [1, 3, 4] {
            for batch in [1, 2, 7, 64] {
                let got = fan_in(&c, Weight::Light, sources, 16, batch);
                assert_eq!(seq, got, "sources {sources} batch {batch} diverged");
            }
        }
    }

    #[test]
    fn fan_in_empty_and_more_sources_than_lines() {
        let empty = Corpus::from_lines(vec![]);
        assert_eq!(fan_in(&empty, Weight::Light, 4, 8, 2), 0.0);
        let tiny = Corpus::generate(2, 4, 28);
        let seq = sequential(&tiny, Weight::Light);
        assert_eq!(seq, fan_in(&tiny, Weight::Light, 8, 8, 3));
    }

    #[test]
    fn word_stream_yields_every_word() {
        let c = Corpus::generate(5, 6, 25);
        let mut g = word_stream(c.as_value());
        assert_eq!(g.count(), 30);
    }

    #[test]
    fn parse_stage_drops_bad_words() {
        let c = Corpus::from_lines(vec!["zz !! 10".to_string()]);
        let mut g = parse_stage(word_stream(c.as_value()), Weight::Light);
        assert_eq!(g.count(), 2); // "!!" dropped
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::from_lines(vec![]);
        assert_eq!(sequential(&c, Weight::Light), 0.0);
        assert_eq!(pipeline(&c, Weight::Light), 0.0);
        assert_eq!(map_reduce(&c, Weight::Light), 0.0);
        assert_eq!(data_parallel(&c, Weight::Light), 0.0);
    }
}
