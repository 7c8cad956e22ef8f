// The CAS-linked interner's raw node pointers are the workspace's only unsafe code.
#![allow(unsafe_code)]
//! Process-wide lock-free symbol interner.
//!
//! Variable names (after the resolve pass) and hot string values (the
//! wordcount table keys) are interned into a global append-only table:
//! interning the same text twice returns two handles to the *same*
//! `Arc<str>` allocation, so equality on interned strings is a pointer
//! comparison and repeated words stop allocating.
//!
//! The table is a fixed array of buckets, each the head of a CAS-linked
//! list of immortal nodes. Lookups are wait-free (an atomic load plus a
//! short list walk); inserts are lock-free (CAS push onto the bucket
//! head, retried on contention). Nodes are never freed — the interner is
//! process-wide and append-only, which is exactly the lifetime of a
//! symbol table. A racing double-insert of the same text is benign: both
//! threads return a valid handle, one of the two nodes simply becomes an
//! unreachable duplicate ahead of the canonical entry (lookups stop at
//! the first match, so later interns converge on one pointer).

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// Number of buckets (power of two). Sized for "hot-vocabulary" scale:
/// the interner serves not just identifiers (thousands) but table keys on
/// workload hot paths — e.g. every distinct word of a wordcount corpus —
/// so chains must stay short into the tens of thousands of entries. The
/// table is a flat array of pointers (512 KiB), allocated once per
/// process on first intern.
const BUCKETS: usize = 1 << 16;

pub(crate) struct Node {
    hash: u64,
    text: Arc<str>,
    next: *mut Node,
}

// Nodes are only ever shared read-only after publication.
unsafe impl Send for Node {}
unsafe impl Sync for Node {}

struct Table {
    /// Heap-allocated so table construction never puts half a megabyte on
    /// the initializing thread's stack (the first intern can happen on a
    /// worker thread deep inside a generator tree).
    buckets: Box<[AtomicPtr<Node>]>,
}

impl Table {
    fn get() -> &'static Table {
        use std::sync::OnceLock;
        static TABLE: OnceLock<Table> = OnceLock::new();
        TABLE.get_or_init(|| Table {
            buckets: (0..BUCKETS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        })
    }
}

/// FNV-1a, the classic short-string hash.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Intern `s`: return the canonical shared allocation for this text.
///
/// Two `intern` calls with equal text return `Arc`s whose
/// [`Arc::ptr_eq`] holds (modulo a benign creation race, after which all
/// subsequent interns converge on one pointer), so interned strings
/// compare by pointer on the equality fast path ([`crate::Value::equiv`]).
pub fn intern(s: &str) -> Arc<str> {
    intern_node(s).text.clone()
}

/// Intern `s` and return the canonical immortal table node. Published
/// nodes are never freed, so `&'static` is sound — this is what makes
/// [`Symbol`] a `Copy` handle.
pub(crate) fn intern_node(s: &str) -> &'static Node {
    let table = Table::get();
    let hash = fnv1a(s);
    let bucket = &table.buckets[(hash as usize) & (BUCKETS - 1)];

    // Fast path: walk the published chain.
    let head = bucket.load(Ordering::Acquire);
    if let Some(found) = find(head, hash, s) {
        return found;
    }

    // Slow path: allocate a node and CAS it in, re-checking only the
    // prefix of the chain that appeared since our load.
    let node = Box::into_raw(Box::new(Node {
        hash,
        text: Arc::from(s),
        next: head,
    }));
    let mut seen = head;
    loop {
        // Safety: `node` is ours until successfully published.
        unsafe { (*node).next = seen };
        match bucket.compare_exchange_weak(seen, node, Ordering::Release, Ordering::Acquire) {
            Ok(_) => {
                obs_on!(crate::obs_hot::interned().inc());
                // Safety: just published — immortal from here on.
                return unsafe { &*node };
            }
            Err(newer) => {
                // Someone else pushed; check the newly visible prefix for
                // our text before retrying.
                if let Some(found) = find_until(newer, seen, hash, s) {
                    // Benign race lost: free our unpublished node.
                    drop(unsafe { Box::from_raw(node) });
                    return found;
                }
                seen = newer;
            }
        }
    }
}

/// Intern an already-shared string, returning the canonical `Arc`
/// (which all later [`intern`] calls with the same text will also
/// return).
pub fn intern_arc(s: &Arc<str>) -> Arc<str> {
    intern(s)
}

fn find(mut cur: *mut Node, hash: u64, s: &str) -> Option<&'static Node> {
    while !cur.is_null() {
        // Safety: published nodes are immortal and immutable.
        let node = unsafe { &*cur };
        if node.hash == hash && &*node.text == s {
            return Some(node);
        }
        cur = node.next;
    }
    None
}

/// Walk from `cur` down to (exclusive) `stop`, the part of the chain we
/// have not examined yet after a failed CAS.
fn find_until(mut cur: *mut Node, stop: *mut Node, hash: u64, s: &str) -> Option<&'static Node> {
    while !cur.is_null() && cur != stop {
        let node = unsafe { &*cur };
        if node.hash == hash && &*node.text == s {
            return Some(node);
        }
        cur = node.next;
    }
    None
}

/// An interned name: a `Copy` handle (one pointer) into the immortal
/// interner table, carrying the canonical text and a cached hash. This is
/// the payload the resolve pass stores in `Atom::Slot` and the compact
/// string representation behind `Value::Sym` — copying is a register
/// move (no `Arc` traffic), comparisons are pointer compares, hashing
/// replays the cached FNV-1a digest.
#[derive(Clone, Copy)]
pub struct Symbol {
    node: &'static Node,
}

impl Symbol {
    /// Intern `s` and wrap the canonical handle.
    pub fn new(s: &str) -> Symbol {
        Symbol {
            node: intern_node(s),
        }
    }

    /// The symbol's text. Interner nodes are immortal, so the slice is
    /// `'static`.
    pub fn as_str(&self) -> &'static str {
        let text: &'static Arc<str> = &self.node.text;
        text
    }

    /// The canonical shared allocation.
    pub fn arc(&self) -> Arc<str> {
        self.node.text.clone()
    }

    /// The cached FNV-1a hash of the text.
    pub fn hash_code(&self) -> u64 {
        self.node.hash
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Canonical handles make pointer equality sufficient; fall back to
        // text equality to stay correct across a benign creation race.
        std::ptr::eq(self.node, other.node) || self.node.text == other.node.text
    }
}

impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.node.hash);
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_canonical() {
        let a = intern("hello-sym");
        let b = intern("hello-sym");
        assert!(Arc::ptr_eq(&a, &b));
        let c = intern("other-sym");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(&*a, "hello-sym");
    }

    #[test]
    fn intern_arc_converges() {
        let fresh: Arc<str> = Arc::from("converge-me");
        let canon = intern_arc(&fresh);
        let again = intern("converge-me");
        assert!(Arc::ptr_eq(&canon, &again));
    }

    #[test]
    fn empty_and_unicode() {
        assert!(Arc::ptr_eq(&intern(""), &intern("")));
        assert!(Arc::ptr_eq(&intern("héllo"), &intern("héllo")));
    }

    #[test]
    fn symbols_are_copy_word_sized_handles() {
        // The whole point of the node-backed representation: a Symbol is
        // one pointer, copied in registers, and its text is immortal.
        assert_eq!(std::mem::size_of::<Symbol>(), std::mem::size_of::<usize>());
        let a = Symbol::new("copy-me");
        let b = a; // Copy, not Clone
        assert_eq!(a, b);
        let text: &'static str = a.as_str();
        assert_eq!(text, "copy-me");
    }

    #[test]
    fn symbols_compare_by_pointer() {
        let a = Symbol::new("x");
        let b = Symbol::new("x");
        let c = Symbol::new("y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.hash_code(), b.hash_code());
        assert_eq!(a.as_str(), "x");
        assert!(Arc::ptr_eq(&a.arc(), &b.arc()));
    }

    #[test]
    fn concurrent_interning_converges() {
        // Hammer the same small key set from many threads; afterwards
        // every key must intern to one canonical pointer.
        let keys: Vec<String> = (0..64).map(|i| format!("k{i}")).collect();
        let mut handles = Vec::new();
        for t in 0..8 {
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for round in 0..200 {
                    let k = &keys[(t * 31 + round * 7) % keys.len()];
                    got.push((k.clone(), intern(k)));
                }
                got
            }));
        }
        let all: Vec<(String, Arc<str>)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for key in &keys {
            let canon = intern(key);
            for (k, v) in &all {
                if k == key {
                    assert!(Arc::ptr_eq(v, &canon), "{key} did not converge");
                }
            }
        }
    }

    #[test]
    fn many_distinct_keys_share_buckets() {
        // More keys than buckets: chains must stay correct.
        for i in 0..4096 {
            let k = format!("bulk-{i}");
            let a = intern(&k);
            let b = intern(&k);
            assert!(Arc::ptr_eq(&a, &b));
        }
    }
}
