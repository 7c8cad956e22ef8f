//! Microbench for the string plane (DESIGN.md § "String plane"): what
//! does each string operator cost per call?
//!
//! Three groups:
//!
//! * `str_ops/concat` — a `word || "=" || count` report chain per word:
//!   `ops::concat` coerces both operands on the stack and writes one
//!   exact-capacity owned string per `||`;
//! * `str_ops/coerce_*` — numeric-vs-string comparisons: `str_lt` coerces
//!   its integer operand through the small-int image cache / stack
//!   formatter instead of allocating an `Arc<str>` per compare;
//! * `str_ops/index_*` — subscripting: ASCII words take the O(1) byte
//!   path, multi-byte words a single `char_indices` scan with an early
//!   exit, negative indices replay the cached char count.
//!
//! Wired into `scripts/ci.sh` bench-smoke so the string-plane costs are
//! re-measured (cheaply) on every CI run.

use criterion::{criterion_group, criterion_main, Criterion};
use gde::Value;
use std::hint::black_box;
use std::sync::Arc;

/// The benchmark vocabulary: 256 short words as slice windows into one
/// shared line (the form `WordSplit` hands to `||`).
fn vocabulary() -> Vec<Value> {
    let words: Vec<String> = (0..256).map(|i| format!("w{i:03x}word")).collect();
    let line: Arc<str> = Arc::from(words.join(" ").as_str());
    let mut out = Vec::with_capacity(words.len());
    let mut pos = 0usize;
    for w in &words {
        out.push(Value::slice(line.clone(), pos, pos + w.len()));
        pos += w.len() + 1;
    }
    out
}

fn bench_concat(c: &mut Criterion) {
    let words = vocabulary();
    let eq = Value::interned("=");
    let mut group = c.benchmark_group("str_ops");

    group.bench_function("concat", |b| {
        b.iter(|| {
            for (i, w) in words.iter().enumerate() {
                let n = Value::from((i % 256) as i64);
                let line = gde::ops::concat(w, &eq).and_then(|l| gde::ops::concat(&l, &n));
                black_box(line);
            }
        })
    });
    group.finish();
}

fn bench_coerce(c: &mut Criterion) {
    let words = vocabulary();
    let mut group = c.benchmark_group("str_ops");

    group.bench_function("coerce_int_cmp", |b| {
        // Lexical compare against an integer: the right operand's image
        // comes from the small-int cache / stack buffer, not a fresh Arc.
        b.iter(|| {
            for (i, w) in words.iter().enumerate() {
                black_box(gde::ops::str_lt(w, &Value::from((i % 256) as i64)));
            }
        })
    });
    group.bench_function("coerce_str_cmp", |b| {
        // Baseline: both operands already strings.
        let threshold = Value::str("w100word");
        b.iter(|| {
            for w in &words {
                black_box(gde::ops::str_lt(w, &threshold));
            }
        })
    });
    group.finish();
}

fn bench_index(c: &mut Criterion) {
    let words = vocabulary();
    let multibyte: Vec<Value> = (0..256)
        .map(|i| Value::str(format!("é{i:03}börd")))
        .collect();
    let mut group = c.benchmark_group("str_ops");

    group.bench_function("index_ascii", |b| {
        // O(1) byte subscript on ASCII words.
        let i3 = Value::from(3);
        b.iter(|| {
            for w in &words {
                black_box(gde::ops::index(w, &i3));
            }
        })
    });
    group.bench_function("index_multibyte", |b| {
        // Single char_indices scan with early exit — no Vec<char>.
        let i3 = Value::from(3);
        b.iter(|| {
            for w in &multibyte {
                black_box(gde::ops::index(w, &i3));
            }
        })
    });
    group.bench_function("index_negative", |b| {
        // Negative subscripts need the char count; slices replay it from
        // the cache after the first call.
        let last = Value::from(0);
        b.iter(|| {
            for w in &words {
                black_box(gde::ops::index(w, &last));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_concat, bench_coerce, bench_index);
criterion_main!(benches);
