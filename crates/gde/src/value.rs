//! The dynamic value universe of the embedded language.

use crate::env::Env;
use crate::func::ProcValue;
use crate::sym::Symbol;
use crate::var::Var;
use bigint::BigInt;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A coroutine as seen by the runtime: something that can be stepped (`@`),
/// restarted, and refreshed (`^`).
///
/// The concrete implementation lives in the `coexpr` crate; the trait is
/// defined here so that co-expressions can be first-class [`Value`]s without
/// a dependency cycle.
pub trait Coroutine: Send {
    /// Step one iteration (`@c`): the next value, or `None` on failure.
    fn step(&mut self) -> Option<Value>;
    /// Reset iteration to the beginning.
    fn restart(&mut self);
    /// Create a fresh copy with a new copy of the shadowed environment
    /// (`^c`). Returns `None` for coroutines that do not support refresh.
    fn refreshed(&self) -> Option<CoRef>;
    /// Number of results produced so far (Icon's `*c`).
    fn produced(&self) -> u64;
}

/// Shared handle to a [`Coroutine`].
pub type CoRef = Arc<Mutex<dyn Coroutine>>;

/// An object: the runtime form of a Unicon class instance (Sec. V.C).
///
/// Fields live in an [`Env`] frame — each field is thereby available "in
/// both plain and reified form" (the env's [`Var`] cells are the reified
/// `x_r` side; [`ObjData::get_field`] is the plain side). Methods are
/// procedures pre-bound to this object's field environment.
pub struct ObjData {
    pub class_name: Arc<str>,
    pub fields: Env,
    pub methods: Arc<std::collections::HashMap<String, ProcValue>>,
}

/// Shared handle to an object.
pub type ObjRef = Arc<ObjData>;

impl ObjData {
    /// Read a field (null if unset); `None` if the name is not a field.
    /// Only the instance's own frame is consulted — the enclosing scope
    /// (globals) is not a field.
    pub fn get_field(&self, name: &str) -> Option<Value> {
        self.fields.lookup_local(name).map(|v| v.get())
    }

    /// Write a field; fails if the name is not a declared field.
    pub fn set_field(&self, name: &str, v: Value) -> Option<Value> {
        let cell = self.fields.lookup_local(name)?;
        cell.set(v.clone());
        Some(v)
    }

    /// Look up a method bound to this object.
    pub fn method(&self, name: &str) -> Option<ProcValue> {
        self.methods.get(name).cloned()
    }
}

/// Hashable key for table subscripts (scalar values only).
///
/// String-like keys come in two forms — an owned [`Key::Str`] and a
/// compact interned [`Key::Sym`] — which must be interchangeable in a
/// table: `Eq` and `Hash` are hand-written so that both forms compare by
/// text and hash to the same digest (FNV-1a; [`Key::Sym`] replays its
/// cached copy instead of re-hashing the bytes).
#[derive(Clone, Debug)]
pub enum Key {
    Null,
    Int(i64),
    /// Reals are keyed by bit pattern, as Icon tables key on value identity.
    RealBits(u64),
    Str(Arc<str>),
    /// Interned string key: copyable handle, cached hash.
    Sym(Symbol),
}

impl Key {
    /// The text of a string-like key, if it is one.
    fn text(&self) -> Option<&str> {
        match self {
            Key::Str(s) => Some(s),
            Key::Sym(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Key::Null, Key::Null) => true,
            (Key::Int(a), Key::Int(b)) => a == b,
            (Key::RealBits(a), Key::RealBits(b)) => a == b,
            // Sym/Sym hits the pointer fast path inside Symbol::eq.
            (Key::Sym(a), Key::Sym(b)) => a == b,
            (a, b) => match (a.text(), b.text()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl Eq for Key {}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Key::Null => state.write_u8(0),
            Key::Int(i) => {
                state.write_u8(1);
                state.write_i64(*i);
            }
            Key::RealBits(b) => {
                state.write_u8(2);
                state.write_u64(*b);
            }
            // Both string forms hash to the same digest so a table keyed
            // by Key::Str("x") finds Key::Sym("x") and vice versa.
            Key::Str(s) => {
                state.write_u8(3);
                state.write_u64(crate::sym::fnv1a(s));
            }
            Key::Sym(s) => {
                state.write_u8(3);
                state.write_u64(s.hash_code());
            }
        }
    }
}

/// A view into a shared line buffer: the compact representation for
/// string payloads produced by hot generators (`WordSplit`).
///
/// The "arena" here is the pipeline's per-line `Arc<str>` buffer: every
/// word of a line is a `(start, len)` window into the one allocation the
/// corpus already holds, so yielding a word costs no hashing, no interner
/// walk, and no new allocation — just an `Arc` refcount on the line.
/// Slices are *borrowed handles* in the ownership sense: they pin their
/// line buffer alive, so any value that outlives its stage must be
/// promoted to an owned form ([`Value::promote`]) to let the arena drop.
pub struct StrSlice {
    owner: Arc<str>,
    start: u32,
    len: u32,
    /// Cached char count; `u32::MAX` = not yet computed. (The fat owner
    /// pointer plus this still fits the 32-byte payload budget set by
    /// `ProcValue` — see the size test.)
    chars: AtomicU32,
}

impl Clone for StrSlice {
    fn clone(&self) -> StrSlice {
        StrSlice {
            owner: self.owner.clone(),
            start: self.start,
            len: self.len,
            chars: AtomicU32::new(self.chars.load(Ordering::Relaxed)),
        }
    }
}

impl StrSlice {
    /// The viewed text.
    pub fn as_str(&self) -> &str {
        &self.owner[self.start as usize..(self.start + self.len) as usize]
    }

    /// The backing line buffer this slice pins.
    pub fn owner(&self) -> &Arc<str> {
        &self.owner
    }

    /// Character count, computed once and cached.
    pub fn char_len(&self) -> usize {
        let cached = self.chars.load(Ordering::Relaxed);
        if cached != u32::MAX {
            return cached as usize;
        }
        let n = str_char_len(self.as_str());
        self.chars.store(n as u32, Ordering::Relaxed);
        n
    }

    /// `(start, len)` of the window, in bytes of the owner.
    pub(crate) fn bounds(&self) -> (u32, u32) {
        (self.start, self.len)
    }

    /// Another window of the same owner (byte coordinates of the owner;
    /// boundary validity is the caller's obligation, as with
    /// [`Value::slice_at_ascii_delims`]).
    pub(crate) fn with_bounds(&self, start: u32, len: u32) -> StrSlice {
        StrSlice {
            owner: self.owner.clone(),
            start,
            len,
            chars: AtomicU32::new(u32::MAX),
        }
    }
}

/// Character count with the ASCII fast path: all-ASCII text (the hot
/// case — corpus words, formatted numbers) is `len()` bytes without a
/// decode walk.
pub(crate) fn str_char_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// A dynamically typed value.
///
/// Values are cheap to clone: compound values (lists, tables) are shared
/// handles with interior mutability, matching Icon's reference semantics for
/// structures. All variants are `Send + Sync`, which is what lets pipes move
/// generated values between threads.
///
/// The compact variants — [`Value::Sym`] (copyable interned handle with a
/// cached hash) and [`Value::Slice`] (arena-backed view into a shared line
/// buffer) — exist so the per-element cost of fused stages is a move, not
/// an `Arc` clone plus a re-hash; `Clone` is hand-written to count how
/// often each regime is hit (`gde.value.inline_hits` / `arc_clones`).
#[derive(Default)]
pub enum Value {
    /// The null value (`&null`); also the value of unset variables.
    #[default]
    Null,
    /// Machine integer. Arithmetic that overflows promotes to [`Value::Big`].
    Int(i64),
    /// Arbitrary-precision integer (Icon's large integers).
    Big(Arc<BigInt>),
    /// Real number.
    Real(f64),
    /// Immutable string.
    Str(Arc<str>),
    /// Interned string: a copyable handle into the immortal symbol table.
    Sym(Symbol),
    /// Borrowed string: a window into a shared line buffer (see
    /// [`StrSlice`]). Must be [promoted](Value::promote) before escaping
    /// its pipeline.
    Slice(StrSlice),
    /// Mutable shared list.
    List(Arc<Mutex<Vec<Value>>>),
    /// Mutable shared table with a default value.
    Table(Arc<Mutex<TableData>>),
    /// A procedure / generator function.
    Proc(ProcValue),
    /// A co-expression.
    Co(CoRef),
    /// A first-class reified variable (reference semantics, Sec. V.C).
    Ref(Var),
    /// A class instance.
    Object(ObjRef),
}

impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            // Inline regime: copied in registers, no refcount traffic.
            Value::Null => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Null
            }
            Value::Int(i) => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Int(*i)
            }
            Value::Real(r) => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Real(*r)
            }
            Value::Sym(s) => {
                obs_on!(crate::obs_hot::value_inline_hits().inc());
                Value::Sym(*s)
            }
            // Shared regime: an Arc refcount per clone.
            Value::Big(b) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Big(b.clone())
            }
            Value::Str(s) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Str(s.clone())
            }
            Value::Slice(s) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Slice(s.clone())
            }
            Value::List(l) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::List(l.clone())
            }
            Value::Table(t) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Table(t.clone())
            }
            Value::Proc(p) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Proc(p.clone())
            }
            Value::Co(c) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Co(c.clone())
            }
            Value::Ref(v) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Ref(v.clone())
            }
            Value::Object(o) => {
                obs_on!(crate::obs_hot::value_arc_clones().inc());
                Value::Object(o.clone())
            }
        }
    }
}

/// Backing storage for [`Value::Table`].
pub struct TableData {
    pub entries: HashMap<Key, Value>,
    pub default: Value,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a string value through the process-wide interner
    /// ([`crate::sym`]): repeated texts share one allocation, and the
    /// resulting [`Value::Sym`] is a copyable handle with a cached hash,
    /// so table keys and comparisons on hot paths hit interned pointers
    /// and clones stay off the refcount.
    pub fn interned(s: &str) -> Value {
        obs_on!(crate::obs_hot::value_inline_hits().inc());
        Value::Sym(Symbol::new(s))
    }

    /// Build a borrowed string value: a `[start, end)` window into a
    /// shared line buffer (see [`StrSlice`]). The window must lie on
    /// `char` boundaries. This is the zero-hash, zero-allocation path hot
    /// generators use per emitted word; the handle pins `owner` until it
    /// is dropped or [promoted](Value::promote).
    pub fn slice(owner: Arc<str>, start: usize, end: usize) -> Value {
        owner
            .get(start..end)
            .expect("Value::slice window must be in-bounds on char boundaries");
        obs_on!(crate::obs_hot::value_inline_hits().inc());
        Value::Slice(StrSlice {
            owner,
            start: start as u32,
            len: (end - start) as u32,
            chars: AtomicU32::new(u32::MAX),
        })
    }

    /// [`Value::slice`] for producers whose windows are char-boundary
    /// correct *by construction* — splitting at ASCII delimiters always
    /// lands on boundaries, whatever the word bytes are — so the
    /// per-element validation is debug-asserted instead of paid on every
    /// yield. Still memory-safe for a bad caller: a malformed window
    /// panics at first use instead of here.
    ///
    /// Unlike [`Value::slice`] this does *not* bump
    /// `gde.value.inline_hits` per call: the producers that earn the
    /// trusted path yield one window per word on the hottest loop in the
    /// system, where even a relaxed atomic increment is measurable. They
    /// count locally and flush per batch via
    /// [`Value::note_inline_windows`].
    pub fn slice_at_ascii_delims(owner: Arc<str>, start: usize, end: usize) -> Value {
        debug_assert!(
            owner.get(start..end).is_some(),
            "slice_at_ascii_delims window must be in-bounds on char boundaries"
        );
        Value::Slice(StrSlice {
            owner,
            start: start as u32,
            len: (end - start) as u32,
            chars: AtomicU32::new(u32::MAX),
        })
    }

    /// Batched `gde.value.inline_hits` accounting for
    /// [`Value::slice_at_ascii_delims`] producers: one atomic add per
    /// batch (a line, a chunk) instead of one per yielded window. The
    /// counter stays exact at snapshot granularity — producers flush at
    /// every exhaustion/reset/drop edge, and snapshots are taken after
    /// the generators driving them have been dropped.
    pub fn note_inline_windows(n: u64) {
        #[cfg(not(feature = "obs"))]
        let _ = n;
        obs_on!(if n > 0 {
            crate::obs_hot::value_inline_hits().add(n);
        });
    }

    /// True for the borrowed string form ([`Value::Slice`]) that pins a
    /// line buffer and must be [promoted](Value::promote) before escaping
    /// its stage.
    pub fn is_borrowed(&self) -> bool {
        matches!(self, Value::Slice(_))
    }

    /// Promote a borrowed handle to an owned value — the escape hatch a
    /// value takes when it outlives its stage (stored in an `Env` slot,
    /// captured by a deferred body, used as a table key, or crossing a
    /// pipe to another thread).
    ///
    /// Small slices promote to interned [`Value::Sym`] handles (matching
    /// what the pre-compact runtime stored for escaped words, and keeping
    /// later comparisons on the pointer fast path); larger ones become
    /// plain owned strings so the immortal interner is never fed bulk
    /// text. Either way the promoted value no longer pins its line
    /// buffer, so the arena can drop as soon as the pipeline does.
    pub fn promote(self) -> Value {
        let Value::Slice(s) = &self else {
            return self;
        };
        obs_on!(crate::obs_hot::value_promotions().inc());
        let text = s.as_str();
        if text.len() <= Self::PROMOTE_INTERN_MAX {
            Value::Sym(Symbol::new(text))
        } else {
            Value::Str(Arc::from(text))
        }
    }

    /// Longest slice (in bytes) that [`Value::promote`] routes through the
    /// immortal interner; longer text gets a private owned allocation.
    const PROMOTE_INTERN_MAX: usize = 64;

    /// The text of a string-like value (`Str`, `Sym` or `Slice`), without
    /// dereferencing.
    fn text(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Sym(s) => Some(s.as_str()),
            Value::Slice(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Build a list value from elements.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(Mutex::new(items)))
    }

    /// Build an empty table with default `Null`.
    pub fn table() -> Value {
        Value::Table(Arc::new(Mutex::new(TableData {
            entries: HashMap::new(),
            default: Value::Null,
        })))
    }

    /// Build a big-integer value, normalizing to `Int` when it fits.
    pub fn big(b: BigInt) -> Value {
        match b.to_i64() {
            Some(i) => Value::Int(i),
            None => Value::Big(Arc::new(b)),
        }
    }

    /// True iff this is the null value.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The machine integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float, if this is a real.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// The string slice, if this is a string (owned, interned, or
    /// borrowed form).
    pub fn as_str(&self) -> Option<&str> {
        self.text()
    }

    /// The list handle, if this is a list.
    pub fn as_list(&self) -> Option<&Arc<Mutex<Vec<Value>>>> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Dereference: if this is a reified variable, its current value;
    /// otherwise the value itself. (Icon's implicit dereferencing.)
    pub fn deref(&self) -> Value {
        match self {
            Value::Ref(v) => v.get().deref(),
            other => other.clone(),
        }
    }

    /// The table key for this value, if it is a scalar.
    ///
    /// A key escapes into the table's own storage, so borrowed slices are
    /// [promoted](Value::promote) here rather than pinning a line buffer
    /// from inside a table.
    pub fn as_key(&self) -> Option<Key> {
        match self.deref() {
            Value::Null => Some(Key::Null),
            Value::Int(i) => Some(Key::Int(i)),
            Value::Real(r) => Some(Key::RealBits(r.to_bits())),
            Value::Str(s) => Some(Key::Str(s)),
            Value::Sym(s) => Some(Key::Sym(s)),
            v @ Value::Slice(_) => match v.promote() {
                Value::Sym(s) => Some(Key::Sym(s)),
                Value::Str(s) => Some(Key::Str(s)),
                _ => unreachable!("promoting a borrowed handle yields a string form"),
            },
            _ => None,
        }
    }

    /// Icon's `*x`: size of a string, list, table, or results count of a
    /// co-expression. `None` for sizeless values.
    pub fn size(&self) -> Option<i64> {
        let v = self.deref();
        match &v {
            // The borrowed form replays its cached char count; the owned
            // forms take the ASCII fast path before decoding.
            Value::Slice(s) => Some(s.char_len() as i64),
            Value::Str(_) | Value::Sym(_) => {
                Some(str_char_len(v.text().expect("string form")) as i64)
            }
            Value::List(l) => Some(l.lock().len() as i64),
            Value::Table(t) => Some(t.lock().entries.len() as i64),
            Value::Co(c) => Some(c.lock().produced() as i64),
            _ => None,
        }
    }

    /// Type name, as Icon's `type(x)` would report.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) | Value::Big(_) => "integer",
            Value::Real(_) => "real",
            Value::Str(_) | Value::Sym(_) | Value::Slice(_) => "string",
            Value::List(_) => "list",
            Value::Table(_) => "table",
            Value::Proc(_) => "procedure",
            Value::Co(_) => "co-expression",
            Value::Ref(_) => "variable",
            Value::Object(_) => "object",
        }
    }

    /// Structural equivalence (Icon's `===` on scalars; identity on
    /// structures).
    pub fn equiv(&self, other: &Value) -> bool {
        match (&self.deref(), &other.deref()) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Big(a), Value::Big(b)) => a == b,
            (Value::Int(a), Value::Big(b)) | (Value::Big(b), Value::Int(a)) => {
                b.to_i64() == Some(*a)
            }
            (Value::Real(a), Value::Real(b)) => a == b,
            // Interned strings ([`Value::interned`]) share one allocation,
            // so the pointer check settles the common case without
            // touching the bytes.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            // Mixed string forms (owned / interned / borrowed) compare by
            // text: the representation is an optimization, not a type.
            (a @ (Value::Str(_) | Value::Sym(_) | Value::Slice(_)), b)
                if matches!(b, Value::Str(_) | Value::Sym(_) | Value::Slice(_)) =>
            {
                a.text() == b.text()
            }
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b),
            (Value::Table(a), Value::Table(b)) => Arc::ptr_eq(a, b),
            (Value::Proc(a), Value::Proc(b)) => a.same(b),
            (Value::Co(a), Value::Co(b)) => Arc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Deep conversion to an owned, thread-isolated copy.
    ///
    /// Pipes use this at thread boundaries so that a consumer can never
    /// mutate the producer's structures — the type-level enforcement of the
    /// paper's "co-expressions minimize interference by isolating a copy of
    /// the local environment".
    pub fn deep_copy(&self) -> Value {
        match self.deref() {
            // Crossing a thread boundary is the canonical "outlives its
            // stage" event: borrowed slices promote to owned form so the
            // consumer never pins the producer's line buffers.
            v @ Value::Slice(_) => v.promote(),
            Value::List(l) => {
                let items = l.lock().iter().map(Value::deep_copy).collect();
                Value::list(items)
            }
            Value::Table(t) => {
                let t = t.lock();
                let entries = t
                    .entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.deep_copy()))
                    .collect();
                Value::Table(Arc::new(Mutex::new(TableData {
                    entries,
                    default: t.default.deep_copy(),
                })))
            }
            scalar => scalar,
        }
    }
}

impl PartialEq for Value {
    /// Equality is [`Value::equiv`]: structural on scalars, identity on
    /// structures. Note this means `Value::from(3) != Value::str("3")`.
    fn eq(&self, other: &Self) -> bool {
        self.equiv(other)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<BigInt> for Value {
    fn from(v: BigInt) -> Self {
        Value::big(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "&null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Big(b) => write!(f, "{b}"),
            Value::Real(r) => write!(f, "{r:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Sym(s) => write!(f, "{:?}", s.as_str()),
            Value::Slice(s) => write!(f, "{:?}", s.as_str()),
            Value::List(l) => {
                let l = l.lock();
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
            Value::Table(t) => write!(f, "table#{}", t.lock().entries.len()),
            Value::Proc(p) => write!(f, "procedure {}", p.name()),
            Value::Co(_) => write!(f, "co-expression"),
            Value::Ref(v) => write!(f, "ref({:?})", v.get()),
            Value::Object(o) => write!(f, "object {}", o.class_name),
        }
    }
}

impl fmt::Display for Value {
    /// Icon-style string image: strings print bare, others as in `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.deref();
        match v.text() {
            Some(s) => f.write_str(s),
            None => write!(f, "{v:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_stays_within_its_size_budget() {
        // Step moves a Value per suspension on the hot path. The ceiling
        // is set by `ProcValue` (a fat `Arc<str>` name plus a fat
        // `Arc<dyn Fn>` — 32 bytes), so the enum is 40 bytes with the
        // tag. The string payloads must stay at or under that 32-byte
        // line: `StrSlice` spends its headroom on the cached char count.
        // Adding a field that pushes any payload past 32 grows *every*
        // Value.
        assert!(
            std::mem::size_of::<Value>() <= 40,
            "Value is {} bytes (StrSlice {})",
            std::mem::size_of::<Value>(),
            std::mem::size_of::<StrSlice>()
        );
        assert!(std::mem::size_of::<StrSlice>() <= 32);
    }

    #[test]
    fn scalar_constructors_and_accessors() {
        assert_eq!(Value::from(42).as_int(), Some(42));
        assert_eq!(Value::from(2.5).as_real(), Some(2.5));
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert!(Value::Null.is_null());
        assert_eq!(Value::from(42).as_str(), None);
    }

    #[test]
    fn big_normalizes_to_int_when_small() {
        let v = Value::big(BigInt::from(7i64));
        assert!(matches!(v, Value::Int(7)));
        let huge = BigInt::from_str_radix("123456789012345678901234567890", 10).unwrap();
        assert!(matches!(Value::big(huge), Value::Big(_)));
    }

    #[test]
    fn sizes() {
        assert_eq!(Value::str("héllo").size(), Some(5));
        assert_eq!(Value::list(vec![Value::Null; 3]).size(), Some(3));
        assert_eq!(Value::from(5).size(), None);
        assert_eq!(Value::table().size(), Some(0));
    }

    #[test]
    fn equiv_scalars_and_identity() {
        assert!(Value::from(3).equiv(&Value::from(3)));
        assert!(!Value::from(3).equiv(&Value::from(4)));
        assert!(Value::str("a").equiv(&Value::str("a")));
        assert!(!Value::from(3).equiv(&Value::str("3"))); // no coercion in ===
        let l1 = Value::list(vec![]);
        let l2 = Value::list(vec![]);
        assert!(l1.equiv(&l1.clone()));
        assert!(!l1.equiv(&l2)); // identity, not structure
    }

    #[test]
    fn lists_share_mutations() {
        let l = Value::list(vec![Value::from(1)]);
        let alias = l.clone();
        if let Value::List(h) = &l {
            h.lock().push(Value::from(2));
        }
        assert_eq!(alias.size(), Some(2));
    }

    #[test]
    fn deep_copy_isolates() {
        let inner = Value::list(vec![Value::from(1)]);
        let outer = Value::list(vec![inner.clone()]);
        let copy = outer.deep_copy();
        if let Value::List(h) = &inner {
            h.lock().push(Value::from(2));
        }
        // The copy's inner list is unaffected.
        if let Value::List(h) = &copy {
            assert_eq!(h.lock()[0].size(), Some(1));
        } else {
            panic!("copy is not a list");
        }
    }

    #[test]
    fn deref_unwraps_refs() {
        let var = Var::new(Value::from(9));
        let r = Value::Ref(var.clone());
        assert_eq!(r.deref().as_int(), Some(9));
        var.set(Value::from(10));
        assert_eq!(r.deref().as_int(), Some(10));
    }

    #[test]
    fn keys_for_scalars_only() {
        assert_eq!(Value::from(1).as_key(), Some(Key::Int(1)));
        assert_eq!(Value::str("k").as_key(), Some(Key::Str(Arc::from("k"))));
        assert_eq!(Value::Null.as_key(), Some(Key::Null));
        assert_eq!(Value::list(vec![]).as_key(), None);
    }

    fn slice_of(line: &str, start: usize, end: usize) -> Value {
        Value::slice(Arc::from(line), start, end)
    }

    #[test]
    fn string_forms_are_interchangeable() {
        let owned = Value::str("word");
        let interned = Value::interned("word");
        let sliced = slice_of("a word b", 2, 6);
        assert!(matches!(interned, Value::Sym(_)));
        assert!(matches!(sliced, Value::Slice(_)));
        for v in [&owned, &interned, &sliced] {
            assert_eq!(v.as_str(), Some("word"));
            assert_eq!(v.type_name(), "string");
            assert_eq!(v.size(), Some(4));
            assert_eq!(v.to_string(), "word");
            assert_eq!(format!("{v:?}"), "\"word\"");
        }
        assert!(owned.equiv(&interned));
        assert!(owned.equiv(&sliced));
        assert!(interned.equiv(&sliced));
        assert!(!interned.equiv(&Value::interned("other")));
        assert!(!sliced.equiv(&slice_of("words", 0, 5)));
    }

    #[test]
    fn string_key_forms_collide_in_tables() {
        // A table keyed through one string form must be found through the
        // others: Key::Str and Key::Sym hash to the same digest and
        // compare by text.
        let t = Value::table();
        if let Value::Table(h) = &t {
            let k = Value::str("shared").as_key().unwrap();
            h.lock().entries.insert(k, Value::from(1));
        }
        for probe in [
            Value::interned("shared"),
            slice_of("shared", 0, 6),
            Value::str("shared"),
        ] {
            let k = probe.as_key().unwrap();
            if let Value::Table(h) = &t {
                assert_eq!(
                    h.lock().entries.get(&k).and_then(Value::as_int),
                    Some(1),
                    "probe {probe:?} missed"
                );
            }
        }
    }

    #[test]
    fn slice_windows_and_boundaries() {
        let line: Arc<str> = Arc::from("héllo wörld");
        let w = Value::slice(line.clone(), 0, 6); // "héllo" is 6 bytes
        assert_eq!(w.as_str(), Some("héllo"));
        assert_eq!(w.size(), Some(5)); // chars, not bytes
    }

    #[test]
    #[should_panic(expected = "char boundaries")]
    fn slice_rejects_split_chars() {
        let line: Arc<str> = Arc::from("é");
        Value::slice(line, 0, 1); // middle of the two-byte é
    }

    #[test]
    fn promote_releases_the_arena() {
        // The promoted value no longer pins the line buffer: once the
        // pipeline's handle drops, the arena is freed even though the
        // promoted word lives on.
        let line: Arc<str> = Arc::from("pinned line");
        let weak = Arc::downgrade(&line);
        let word = Value::slice(line, 0, 6);
        let promoted = word.promote();
        assert!(matches!(promoted, Value::Sym(_)));
        assert!(weak.upgrade().is_none(), "promotion must unpin the arena");
        assert_eq!(promoted.as_str(), Some("pinned"));
    }

    #[test]
    fn promote_large_text_stays_private() {
        // Bulk text must not be fed to the immortal interner.
        let big = "x".repeat(200);
        let line: Arc<str> = Arc::from(big.as_str());
        let v = Value::slice(line, 0, 200).promote();
        assert!(matches!(v, Value::Str(_)));
        assert_eq!(v.size(), Some(200));
    }

    #[test]
    fn promote_is_identity_elsewhere() {
        for v in [
            Value::Null,
            Value::from(3),
            Value::str("owned"),
            Value::interned("sym"),
            Value::list(vec![]),
        ] {
            let before = format!("{v:?}");
            assert_eq!(format!("{:?}", v.promote()), before);
        }
    }

    #[test]
    fn deep_copy_promotes_slices() {
        let line: Arc<str> = Arc::from("over the wire");
        let weak = Arc::downgrade(&line);
        let word = Value::slice(line, 0, 4);
        let crossed = word.deep_copy();
        drop(word);
        assert!(weak.upgrade().is_none(), "deep_copy must unpin the arena");
        assert_eq!(crossed.as_str(), Some("over"));
    }

    #[test]
    fn coercions_cover_compact_forms() {
        use crate::ops;
        let sym = Value::interned("42");
        let sli = slice_of("xx 42 yy", 3, 5);
        for v in [&sym, &sli] {
            assert!(matches!(ops::to_num(v), Some(ops::Num::Int(42))));
            assert_eq!(ops::to_str(v).as_deref(), Some("42"));
            assert_eq!(
                ops::index(v, &Value::from(1)).and_then(|c| c.as_str().map(str::to_string)),
                Some("4".to_string())
            );
        }
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::from(1).type_name(), "integer");
        assert_eq!(Value::str("s").type_name(), "string");
        assert_eq!(Value::from(1.0).type_name(), "real");
        assert_eq!(Value::Null.type_name(), "null");
    }

    #[test]
    fn display_images() {
        assert_eq!(Value::str("plain").to_string(), "plain");
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(
            Value::list(vec![Value::from(1), Value::str("x")]).to_string(),
            "[1, \"x\"]"
        );
    }
}
