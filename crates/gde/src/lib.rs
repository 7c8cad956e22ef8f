//! Goal-directed evaluation runtime.
//!
//! This crate is the Rust analogue of the paper's Java kernel (Sec. V.B,
//! Sec. VI): "a single Java class, IconIterator, implements the stream-like
//! interface in a tightly knitted logic that provides iteration that is
//! suspendable, failure-driven, and optionally reversible." Everything the
//! transformation targets lives here:
//!
//! * [`Value`] — the dynamic value universe of the embedded language (null,
//!   machine and big integers, reals, strings, lists, tables, procedures,
//!   co-expressions);
//! * [`Gen`] / [`Step`] — suspendable, failure-driven, restartable iterators
//!   (the `IconIterator` contract: failure terminates the iterator, restart
//!   resets it to re-evaluate against the current environment);
//! * [`comb`] — the composition forms the transformation maps constructs
//!   onto: product (`&`), alternation (`|`), bound iteration (`x in e`),
//!   limitation, bounded expressions, `to` ranges, promotion (`!e`),
//!   invocation, and the control constructs `every`/`while`/`if`;
//! * [`Var`] — reified variables (the `IconVar` analogue) giving the
//!   first-class reference semantics of Sec. V.C;
//! * [`ops`] — the goal-directed operators: arithmetic with automatic big-
//!   integer promotion and string→numeric coercion, and comparisons that
//!   *succeed producing their right operand* or fail;
//! * [`func`] — variadic generator functions ([`ProcValue`]) and lifting of
//!   native Rust functions into singleton iterators;
//! * `env` — lexical environments of reified variables, copied ("shadowed")
//!   by co-expressions.
//!
//! # The iterator contract
//!
//! A [`Gen`] produces a sequence of values by repeated [`Gen::resume`] calls,
//! each returning [`Step::Suspend`] with the next value, until it returns
//! [`Step::Fail`] — failure *is* the termination signal, exactly as in Icon
//! ("generators, when viewed as Java iterators, are terminated by failure of
//! the next() method"). After failing, a generator keeps failing until
//! [`Gen::restart`] is called, which resets it to the beginning; restart
//! re-reads any [`Var`]s the generator references, so a restarted generator
//! re-evaluates in the *current* environment. This is what makes the
//! backtracking product work: `e & e'` restarts `e'` for every value of `e`.

/// Expands its body only when the `obs` feature is on (the same shim as
/// in `blockingq`/`wordcount`): instrumentation sites vanish entirely
/// when observability is disabled.
#[cfg(feature = "obs")]
macro_rules! obs_on {
    ($($body:tt)*) => { $($body)* };
}
#[cfg(not(feature = "obs"))]
macro_rules! obs_on {
    ($($body:tt)*) => {};
}

/// Cached handles to this crate's hot-path counters. `obs::counter(name)`
/// takes the registry lock on every call; these sites run per variable
/// reference / per interned word, so each counter's `Arc` is resolved once
/// and parked in a `OnceLock`.
#[cfg(feature = "obs")]
pub(crate) mod obs_hot {
    use std::sync::{Arc, OnceLock};

    macro_rules! cached_counter {
        ($fn_name:ident, $metric:literal) => {
            pub(crate) fn $fn_name() -> &'static Arc<obs::Counter> {
                static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
                C.get_or_init(|| obs::counter($metric))
            }
        };
    }

    cached_counter!(slot_hits, "gde.env.slot_hits");
    cached_counter!(name_fallbacks, "gde.env.name_fallbacks");
    cached_counter!(interned, "gde.sym.interned");
    cached_counter!(fused_stages, "gde.comb.fused_stages");
    cached_counter!(fusion_barriers, "gde.comb.fusion_barriers");
    cached_counter!(value_inline_hits, "gde.value.inline_hits");
    cached_counter!(value_promotions, "gde.value.promotions");
    cached_counter!(value_arc_clones, "gde.value.arc_clones");
    cached_counter!(coerce_cached, "gde.value.coerce_cached");
}

/// Force-register this crate's hot-path counters with the obs registry
/// (at zero) without bumping any of them.
///
/// Snapshot readers use this so the *absence* of environment activity is
/// stated explicitly: a figure-6 report that claims "no by-name
/// fallbacks on the embedded hot path" should show
/// `gde.env.name_fallbacks = 0`, not silently omit the metric.
#[cfg(feature = "obs")]
pub fn obs_register() {
    let _ = obs_hot::slot_hits();
    let _ = obs_hot::name_fallbacks();
    let _ = obs_hot::interned();
    let _ = obs_hot::fused_stages();
    let _ = obs_hot::fusion_barriers();
    let _ = obs_hot::value_inline_hits();
    let _ = obs_hot::value_promotions();
    let _ = obs_hot::value_arc_clones();
    let _ = obs_hot::coerce_cached();
}

pub mod comb;
pub mod env;
pub mod func;
mod gen;
pub mod ops;
pub mod sym;
mod value;
mod var;

pub use env::{Env, FrameLayout};
pub use func::ProcValue;
pub use gen::{BoxGen, Gen, GenExt, GenIter, Step};
pub use sym::Symbol;
pub use value::{CoRef, Coroutine, Key, ObjData, ObjRef, StrSlice, Value};
pub use var::Var;
