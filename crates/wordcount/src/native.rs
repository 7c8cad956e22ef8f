//! The native suite — the paper's "Java" comparison programs in plain Rust.
//!
//! Four variants (Sec. VII): sequential; a pipeline "built using
//! BlockingQueues over two threads"; a parallel map-reduce (the
//! parallel-stream baseline Fig. 6 normalizes to); and a data-parallel
//! version that is map-only in parallel with the reduction split out and
//! serialized.

use crate::corpus::split_words;
use crate::hash::{hash_number, sum_hash, word_to_number, Weight};
use bigint::BigUint;
use blockingq::BlockingQueue;
use exec::ThreadPool;
use std::sync::Arc;

/// Chunk size used by the chunked variants, as in Fig. 3's
/// `new DataParallel(1000)`.
pub const CHUNK_SIZE: usize = 1000;

/// Queue capacity for the pipelined variant.
pub const PIPE_CAPACITY: usize = 1024;

/// Transport batch for the pipelined variant: parsed numbers cross the
/// inter-stage queue in chunks of this many per lock acquisition
/// (mirrors `pipes::DEFAULT_BATCH`).
pub const PIPE_BATCH: usize = 128;

/// Sequential word-count: split, parse, hash, sum — one thread.
pub fn sequential(lines: &[String], weight: Weight) -> f64 {
    lines
        .iter()
        .flat_map(|l| split_words(l))
        .filter_map(|w| word_to_number(w, weight))
        .map(|n| hash_number(&n, weight))
        .fold(0.0, sum_hash)
}

/// Two-thread pipeline over a bounded blocking queue: the producer splits
/// and parses (`wordToNumber`), the consumer hashes and sums
/// (`hashNumber` + reduction) — "a pipelined version built using
/// BlockingQueues over two threads".
pub fn pipeline(lines: &[String], weight: Weight) -> f64 {
    pipeline_with_capacity(lines, weight, PIPE_CAPACITY)
}

/// [`pipeline`] with an explicit queue bound (for the throttling ablation).
pub fn pipeline_with_capacity(lines: &[String], weight: Weight, capacity: usize) -> f64 {
    pipeline_batched(lines, weight, capacity, PIPE_BATCH)
}

/// [`pipeline`] with explicit queue bound *and* transport batch: the
/// producer accumulates up to `batch` parsed numbers before a single
/// `put_all`, and the consumer empties the queue with `drain_into`
/// (whole-buffer grabs) — the batched-transport analogue of the paper's
/// two-thread BlockingQueue pipeline. `batch` is clamped to
/// `[1, capacity]`; `batch == 1` reproduces the item-at-a-time transport.
pub fn pipeline_batched(lines: &[String], weight: Weight, capacity: usize, batch: usize) -> f64 {
    let batch = batch.clamp(1, capacity.max(1));
    let queue: BlockingQueue<BigUint> = BlockingQueue::bounded(capacity);
    let q2 = queue.clone();
    // Stage 1 thread: readLines -> splitWords -> wordToNumber, moved
    // downstream one chunk per queue transaction.
    let lines: Vec<String> = lines.to_vec();
    let producer = std::thread::spawn(move || {
        let mut chunk: Vec<BigUint> = Vec::with_capacity(batch);
        for line in &lines {
            for word in split_words(line) {
                if let Some(n) = word_to_number(word, weight) {
                    chunk.push(n);
                    if chunk.len() >= batch && q2.put_all(std::mem::take(&mut chunk)).is_err() {
                        return;
                    }
                }
            }
        }
        let _ = q2.put_all(chunk);
        q2.close();
    });
    // Stage 2 (this thread): hashNumber + sum, one queue transaction per
    // buffered burst.
    let mut total = 0.0;
    let mut buf: Vec<BigUint> = Vec::new();
    while queue.drain_into(&mut buf) > 0 {
        for n in buf.drain(..) {
            total = sum_hash(total, hash_number(&n, weight));
        }
    }
    producer.join().expect("pipeline producer panicked");
    total
}

/// Fan-in word-count: the corpus is split into `sources` contiguous
/// slices, each parsed *and hashed* on its own producer thread; per-word
/// hashes arrive tagged with their source index through one shared
/// batched queue, are re-bucketed per source, and reduced in source order
/// — so the fold association is **identical to [`sequential`]** (the sum
/// is byte-for-byte equal) while every hop uses the batched transport.
pub fn fan_in(
    lines: &[String],
    weight: Weight,
    sources: usize,
    capacity: usize,
    batch: usize,
) -> f64 {
    let sources = sources.max(1);
    let capacity = capacity.max(1);
    let batch = batch.clamp(1, capacity);
    let queue: BlockingQueue<(usize, f64)> = BlockingQueue::bounded(capacity);
    let slice_len = lines.len().div_ceil(sources);
    let remaining = Arc::new(std::sync::atomic::AtomicUsize::new(sources));
    let mut producers = Vec::new();
    for k in 0..sources {
        let q = queue.clone();
        let remaining = Arc::clone(&remaining);
        let slice: Vec<String> = lines
            .iter()
            .skip(k * slice_len)
            .take(slice_len)
            .cloned()
            .collect();
        producers.push(std::thread::spawn(move || {
            let mut chunk: Vec<(usize, f64)> = Vec::with_capacity(batch);
            'produce: for line in &slice {
                for word in split_words(line) {
                    if let Some(n) = word_to_number(word, weight) {
                        chunk.push((k, hash_number(&n, weight)));
                        if chunk.len() >= batch && q.put_all(std::mem::take(&mut chunk)).is_err() {
                            break 'produce;
                        }
                    }
                }
            }
            let _ = q.put_all(chunk);
            // Last producer out closes the shared queue.
            if remaining.fetch_sub(1, std::sync::atomic::Ordering::AcqRel) == 1 {
                q.close();
            }
        }));
    }
    // Consumer: bucket arrivals per source (per-producer FIFO keeps each
    // bucket in slice order), then reduce buckets in source order — the
    // same hash sequence, and therefore the same float association, as
    // the sequential fold.
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); sources];
    let mut buf: Vec<(usize, f64)> = Vec::new();
    while queue.drain_into(&mut buf) > 0 {
        for (k, h) in buf.drain(..) {
            buckets[k].push(h);
        }
    }
    for p in producers {
        p.join().expect("fan-in producer panicked");
    }
    let mut total = 0.0;
    for bucket in buckets {
        for h in bucket {
            total = sum_hash(total, h);
        }
    }
    total
}

/// Parallel map-reduce over chunks on a thread pool — the parallel-stream
/// analogue Fig. 6 normalizes against. Each task maps *and reduces* its
/// chunk; the per-chunk partials are combined in order.
pub fn map_reduce(lines: &[String], weight: Weight) -> f64 {
    map_reduce_on(lines, weight, CHUNK_SIZE, &default_pool())
}

/// [`map_reduce`] with explicit chunk size and pool (scaling ablations).
pub fn map_reduce_on(
    lines: &[String],
    weight: Weight,
    chunk_size: usize,
    pool: &ThreadPool,
) -> f64 {
    let tasks: Vec<exec::Task<f64>> = lines
        .chunks(chunk_size.max(1))
        .map(|chunk| {
            let chunk: Vec<String> = chunk.to_vec();
            // try_submit: a shut-down pool degrades to inline
            // execution instead of panicking mid-scan.
            match pool.try_submit(move || {
                chunk
                    .iter()
                    .flat_map(|l| split_words(l))
                    .filter_map(|w| word_to_number(w, weight))
                    .map(|n| hash_number(&n, weight))
                    .fold(0.0, sum_hash)
            }) {
                Ok(task) => task,
                Err(rejected) => rejected.run_inline(),
            }
        })
        .collect();
    tasks.into_iter().map(|t| t.join()).fold(0.0, sum_hash)
}

/// Data-parallel variant: tasks only *map* their chunk (returning every
/// per-word hash); the reduction runs serially over the flattened,
/// order-preserved results — "splitting out the reduction and effecting
/// serialization".
pub fn data_parallel(lines: &[String], weight: Weight) -> f64 {
    data_parallel_on(lines, weight, CHUNK_SIZE, &default_pool())
}

/// [`data_parallel`] with explicit chunk size and pool.
pub fn data_parallel_on(
    lines: &[String],
    weight: Weight,
    chunk_size: usize,
    pool: &ThreadPool,
) -> f64 {
    let tasks: Vec<exec::Task<Vec<f64>>> = lines
        .chunks(chunk_size.max(1))
        .map(|chunk| {
            let chunk: Vec<String> = chunk.to_vec();
            match pool.try_submit(move || {
                chunk
                    .iter()
                    .flat_map(|l| split_words(l))
                    .filter_map(|w| word_to_number(w, weight))
                    .map(|n| hash_number(&n, weight))
                    .collect()
            }) {
                Ok(task) => task,
                Err(rejected) => rejected.run_inline(),
            }
        })
        .collect();
    // Serial reduction over the in-order flattened stream.
    let mut total = 0.0;
    for t in tasks {
        for h in t.join() {
            total = sum_hash(total, h);
        }
    }
    total
}

fn default_pool() -> Arc<ThreadPool> {
    let n = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    Arc::new(ThreadPool::new(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= a.abs().max(b.abs()) * 1e-9
    }

    #[test]
    fn sequential_known_small_case() {
        // "10 z" -> 36 and 35 -> 6 + sqrt(35).
        let lines = vec!["10 z".to_string()];
        let got = sequential(&lines, Weight::Light);
        assert!(close(got, 6.0 + 35f64.sqrt()));
    }

    #[test]
    fn unparsable_words_are_skipped() {
        // '_' is not a base-36 digit; word contributes nothing.
        let lines = vec!["zz a_b 10".to_string()];
        let got = sequential(&lines, Weight::Light);
        let expect = (35f64 * 36.0 + 35.0).sqrt() + 6.0;
        assert!(close(got, expect), "{got} vs {expect}");
    }

    #[test]
    fn pipeline_matches_sequential() {
        let c = Corpus::generate(50, 10, 11);
        let seq = sequential(c.lines(), Weight::Light);
        let pipe = pipeline(c.lines(), Weight::Light);
        assert!(close(seq, pipe));
    }

    #[test]
    fn pipeline_tiny_capacity_still_correct() {
        let c = Corpus::generate(20, 6, 12);
        let seq = sequential(c.lines(), Weight::Light);
        assert!(close(
            seq,
            pipeline_with_capacity(c.lines(), Weight::Light, 1)
        ));
    }

    #[test]
    fn pipeline_batched_across_batches() {
        let c = Corpus::generate(40, 8, 16);
        let seq = sequential(c.lines(), Weight::Light);
        for batch in [1, 2, 7, 64] {
            let got = pipeline_batched(c.lines(), Weight::Light, 16, batch);
            // Pipeline preserves element order and reduces downstream with
            // the sequential association: equality is exact.
            assert_eq!(seq, got, "batch {batch} changed the pipeline sum");
        }
    }

    #[test]
    fn fan_in_is_bitwise_sequential() {
        let c = Corpus::generate(40, 8, 17);
        let seq = sequential(c.lines(), Weight::Light);
        for sources in [1, 3, 4] {
            for batch in [1, 2, 7, 64] {
                let got = fan_in(c.lines(), Weight::Light, sources, 16, batch);
                assert_eq!(seq, got, "sources {sources} batch {batch} diverged");
            }
        }
    }

    #[test]
    fn fan_in_empty_and_oversubscribed() {
        let lines: Vec<String> = Vec::new();
        assert_eq!(fan_in(&lines, Weight::Light, 4, 8, 2), 0.0);
        let c = Corpus::generate(2, 4, 18);
        let seq = sequential(c.lines(), Weight::Light);
        assert_eq!(seq, fan_in(c.lines(), Weight::Light, 8, 8, 3));
    }

    #[test]
    fn map_reduce_matches_sequential() {
        let c = Corpus::generate(30, 10, 13);
        let seq = sequential(c.lines(), Weight::Light);
        let pool = ThreadPool::new(4);
        let mr = map_reduce_on(c.lines(), Weight::Light, 7, &pool);
        assert!(close(seq, mr));
    }

    #[test]
    fn data_parallel_matches_sequential_bitwise() {
        // Data-parallel reduces serially in element order: the sum is the
        // *same association* as sequential, so equality is exact.
        let c = Corpus::generate(30, 10, 14);
        let seq = sequential(c.lines(), Weight::Light);
        let pool = ThreadPool::new(4);
        let dp = data_parallel_on(c.lines(), Weight::Light, 7, &pool);
        assert_eq!(seq, dp);
    }

    #[test]
    fn empty_corpus_sums_to_zero() {
        let lines: Vec<String> = Vec::new();
        assert_eq!(sequential(&lines, Weight::Light), 0.0);
        assert_eq!(pipeline(&lines, Weight::Light), 0.0);
        assert_eq!(map_reduce(&lines, Weight::Light), 0.0);
        assert_eq!(data_parallel(&lines, Weight::Light), 0.0);
    }

    #[test]
    fn chunk_size_larger_than_input() {
        let c = Corpus::generate(3, 3, 15);
        let pool = ThreadPool::new(2);
        let seq = sequential(c.lines(), Weight::Light);
        assert!(close(
            seq,
            map_reduce_on(c.lines(), Weight::Light, 10_000, &pool)
        ));
    }
}
