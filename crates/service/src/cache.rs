//! The exact-match LRU tier.
//!
//! Keys are [`InstanceKey`]s (canonicalized instances, see
//! `econcast_statespace::instance`); values are solved policies in
//! *canonical* (sorted-budget) order, so one entry serves every
//! permutation of the same instance. Implemented as a `HashMap` into a
//! slot arena threaded with an intrusive doubly-linked recency list —
//! `get` and `insert` are O(1), eviction pops the list tail. No
//! external crates, deterministic behaviour (recency order depends
//! only on the call sequence, never on hash iteration order).
//!
//! ## Byte budget
//!
//! Besides the entry-count capacity, the cache can carry an optional
//! **byte budget**: every entry is charged an approximate resident
//! size (slot + key copies + policy-vector heap), and inserts evict
//! from the recency tail until the total fits. `PolicyService` sets
//! it from `ServiceConfig::max_cache_bytes`; the exact tier is the
//! only cache a service keeps, so that one number bounds its cache
//! footprint. Eviction changes which requests replay, never the bits
//! of an answer. Byte-driven evictions are counted separately
//! ([`LruCache::byte_evictions`]) from capacity-driven ones.

use econcast_oracle::AchievabilityGap;
use econcast_proto::service::PolicyKernel;
use econcast_statespace::InstanceKey;
use std::collections::HashMap;

/// A solved policy in canonical (sorted-budget) node order — the unit
/// the exact tier stores and the solve pipeline produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPolicy {
    /// Listen fractions, canonical order.
    pub alpha: Vec<f64>,
    /// Transmit fractions, canonical order.
    pub beta: Vec<f64>,
    /// Expected throughput.
    pub throughput: f64,
    /// Whether the producing solve met its tolerance.
    pub converged: bool,
    /// Which solve kernel produced the entry — carried through the
    /// cache so later exact-tier hits stay attributable (closed form
    /// vs a prior factorized large-N solve vs Gray-code).
    pub kernel: PolicyKernel,
    /// The certificate computed when the entry was produced.
    pub certificate: AchievabilityGap,
}

impl CachedPolicy {
    /// Approximate heap bytes owned by the policy vectors (the struct
    /// itself is counted by whoever embeds it).
    fn heap_bytes(&self) -> usize {
        8 * (self.alpha.len() + self.beta.len())
    }
}

/// Approximate resident bytes of one cache entry: the arena slot, the
/// two key copies an entry pins (hash-map side and slot side, each
/// with its sorted-budget heap block), and the policy-vector heap.
/// "Approximate" means allocator slack and hash-map table overhead
/// are not modelled — the budget bounds the dominant, per-entry-
/// linear terms, which is what grows without bound under traffic.
fn entry_bytes(key: &InstanceKey, value: &CachedPolicy) -> usize {
    std::mem::size_of::<Slot>()
        + std::mem::size_of::<InstanceKey>()
        + 2 * 8 * key.num_nodes()
        + value.heap_bytes()
}

/// A minimal placeholder key parked in freed slots (one-node budget
/// heap, ~8 bytes) so eviction genuinely releases the victim's
/// allocations. Canonicalized once per process — evictions happen on
/// the insert hot path and must not pay a canonicalization each.
fn scrub_key() -> InstanceKey {
    use econcast_core::ThroughputMode;
    static KEY: std::sync::OnceLock<InstanceKey> = std::sync::OnceLock::new();
    KEY.get_or_init(|| {
        econcast_statespace::CanonicalInstance::new(
            &[1.0],
            1.0,
            1.0,
            1.0,
            ThroughputMode::Groupput,
            1.0,
        )
        .key
    })
    .clone()
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: InstanceKey,
    value: CachedPolicy,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU over canonical instance keys, with an optional
/// byte budget (see the module docs).
#[derive(Debug)]
pub struct LruCache {
    map: HashMap<InstanceKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
    capacity: usize,
    /// Byte ceiling (`None` = unbounded).
    max_bytes: Option<usize>,
    /// Approximate resident bytes of the current entries.
    bytes: usize,
    evictions: u64,
    byte_evictions: u64,
}

impl LruCache {
    /// Creates a cache holding at most `capacity` entries, with no
    /// byte budget.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, None)
    }

    /// Creates a cache bounded by `capacity` entries *and* (when
    /// `Some`) `max_bytes` approximate resident bytes, whichever bites
    /// first.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn with_byte_budget(capacity: usize, max_bytes: Option<usize>) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruCache {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            max_bytes,
            bytes: 0,
            evictions: 0,
            byte_evictions: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Approximate resident bytes of the current entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries evicted so far, for any reason (capacity or byte
    /// budget).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The subset of [`evictions`](Self::evictions) forced by the byte
    /// budget rather than the entry-count capacity.
    pub fn byte_evictions(&self) -> u64 {
        self.byte_evictions
    }

    /// Evicts the least recently used entry, returning whether one
    /// existed. The victim slot's heap allocations (policy vectors,
    /// key budgets) are actually released — a freed slot parked on
    /// the free list must not keep the evicted entry's memory
    /// resident, or the byte budget would bound an accounting fiction
    /// instead of the footprint.
    fn evict_tail(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        self.unlink(victim);
        self.map.remove(&self.slots[victim].key);
        self.bytes = self.bytes.saturating_sub(entry_bytes(
            &self.slots[victim].key,
            &self.slots[victim].value,
        ));
        let slot = &mut self.slots[victim];
        slot.key = scrub_key();
        slot.value.alpha = Vec::new();
        slot.value.beta = Vec::new();
        self.free.push(victim);
        self.evictions += 1;
        true
    }

    /// Evicts LRU-first until the resident bytes fit the budget. May
    /// empty the cache entirely when the budget is smaller than a
    /// single entry — a tiny budget bounds memory, it does not
    /// guarantee residency.
    fn enforce_byte_budget(&mut self) {
        let Some(budget) = self.max_bytes else {
            return;
        };
        while self.bytes > budget {
            if !self.evict_tail() {
                break;
            }
            self.byte_evictions += 1;
        }
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the head (most recent).
    fn link_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, promoting a hit to most-recently-used.
    pub fn get(&mut self, key: &InstanceKey) -> Option<&CachedPolicy> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Inserts (or refreshes) an entry, evicting least recently used
    /// ones when the entry-count capacity or the byte budget demands
    /// it.
    pub fn insert(&mut self, key: InstanceKey, value: CachedPolicy) {
        if let Some(&i) = self.map.get(&key) {
            // Refresh: re-account the value's share of the bytes.
            self.bytes =
                self.bytes.saturating_sub(self.slots[i].value.heap_bytes()) + value.heap_bytes();
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            self.enforce_byte_budget();
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict_tail();
        }
        self.bytes += entry_bytes(&key, &value);
        let slot = if let Some(i) = self.free.pop() {
            self.slots[i].key = key.clone();
            self.slots[i].value = value;
            i
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, slot);
        self.link_front(slot);
        self.enforce_byte_budget();
    }
}

/// A genuine 64-bit route-hash collision between two distinct
/// instances, for tests that pin what a collision may not break.
#[cfg(test)]
pub(crate) mod collision {
    use econcast_core::ThroughputMode::Groupput;
    use econcast_statespace::CanonicalInstance;

    /// The per-budget salt and finalizer of
    /// `econcast_statespace::route_hash_of`, mirrored here; the
    /// assertion in [`colliding_budgets`] catches any drift.
    const BUDGET_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    const M1: u64 = 0xbf58_476d_1ce4_e5b9;
    const M2: u64 = 0x94d0_49bb_1331_11eb;

    fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(M1);
        z = (z ^ (z >> 27)).wrapping_mul(M2);
        z ^ (z >> 31)
    }

    /// Inverts `x ^ (x >> s)`.
    fn unshift(x: u64, s: u32) -> u64 {
        let (mut y, mut t) = (x, x >> s);
        while t != 0 {
            y ^= t;
            t >>= s;
        }
        y
    }

    /// Multiplicative inverse of an odd constant mod 2^64 (Newton).
    fn inverse(c: u64) -> u64 {
        (0..6).fold(c, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
        })
    }

    fn unmix64(mut z: u64) -> u64 {
        z = unshift(z, 31).wrapping_mul(inverse(M2));
        z = unshift(z, 27).wrapping_mul(inverse(M1));
        unshift(z, 30)
    }

    fn word(b: f64) -> u64 {
        mix64(b.to_bits() ^ BUDGET_SALT)
    }

    /// Two-node budget sets with equal per-budget word sums — hence
    /// equal route hashes under any shared header — built by
    /// inverting the finalizer: walk the first budget of the second
    /// set upward until the partner that restores the sum lands in
    /// `[1 µW, 100 µW)`.
    pub(crate) fn colliding_budgets() -> ([f64; 2], [f64; 2]) {
        let a = [5e-6, 20e-6];
        let target = word(a[0]).wrapping_add(word(a[1]));
        let mut c0 = 7e-6f64.to_bits();
        let b = loop {
            c0 += 1;
            let c0 = f64::from_bits(c0);
            let c1 = f64::from_bits(unmix64(target.wrapping_sub(word(c0))) ^ BUDGET_SALT);
            if (1e-6..1e-4).contains(&c1) {
                break [c0, c1];
            }
        };
        let key = |budgets: &[f64]| {
            CanonicalInstance::new(budgets, 500e-6, 500e-6, 0.5, Groupput, 1e-2).key
        };
        let (ka, kb) = (key(&a), key(&b));
        assert_ne!(ka, kb, "distinct instances");
        assert_eq!(ka.route_hash(), kb.route_hash(), "a real collision");
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_core::ThroughputMode::Groupput;
    use econcast_statespace::CanonicalInstance;

    fn key(budget_scale: f64) -> InstanceKey {
        CanonicalInstance::new(&[budget_scale * 1e-6], 5e-4, 5e-4, 0.5, Groupput, 1e-3).key
    }

    fn value(tag: f64) -> CachedPolicy {
        CachedPolicy {
            alpha: vec![tag],
            beta: vec![tag],
            throughput: tag,
            converged: true,
            kernel: PolicyKernel::ClosedForm,
            certificate: AchievabilityGap {
                sigma: 0.5,
                t_sigma: tag,
                oracle: tag,
                dual_upper: tag,
                converged: true,
            },
        }
    }

    #[test]
    fn hit_miss_and_eviction_order() {
        let mut lru = LruCache::new(2);
        lru.insert(key(1.0), value(1.0));
        lru.insert(key(2.0), value(2.0));
        assert_eq!(lru.len(), 2);
        // Touch key 1 so key 2 becomes LRU.
        assert!(lru.get(&key(1.0)).is_some());
        lru.insert(key(3.0), value(3.0));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 1);
        assert!(lru.get(&key(2.0)).is_none(), "LRU entry evicted");
        assert!(lru.get(&key(1.0)).is_some(), "recently used entry kept");
        assert!(lru.get(&key(3.0)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut lru = LruCache::new(2);
        lru.insert(key(1.0), value(1.0));
        lru.insert(key(2.0), value(2.0));
        lru.insert(key(1.0), value(10.0)); // refresh, key 2 now LRU
        assert_eq!(lru.get(&key(1.0)).unwrap().throughput, 10.0);
        lru.insert(key(3.0), value(3.0));
        assert!(lru.get(&key(2.0)).is_none());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn single_slot_cache_works() {
        let mut lru = LruCache::new(1);
        for i in 1..=5 {
            lru.insert(key(i as f64), value(i as f64));
            assert_eq!(lru.len(), 1);
            assert!(lru.get(&key(i as f64)).is_some());
        }
        assert_eq!(lru.evictions(), 4);
    }

    /// A value whose policy vectors hold `n` nodes (bigger `n`, bigger
    /// entry).
    fn sized_value(tag: f64, n: usize) -> CachedPolicy {
        CachedPolicy {
            alpha: vec![tag; n],
            beta: vec![tag; n],
            ..value(tag)
        }
    }

    #[test]
    fn byte_budget_evicts_lru_first_and_pins_order() {
        // Calibrate: how many bytes does one single-node entry cost?
        let mut probe = LruCache::new(8);
        probe.insert(key(1.0), value(1.0));
        let unit = probe.bytes();
        assert!(unit > 0);

        // Budget for exactly two single-node entries.
        let mut lru = LruCache::with_byte_budget(1024, Some(2 * unit));
        lru.insert(key(1.0), value(1.0));
        lru.insert(key(2.0), value(2.0));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.bytes(), 2 * unit);
        assert_eq!(lru.byte_evictions(), 0);

        // Touch 1 so 2 is the recency tail; the third insert must
        // evict 2 (LRU order), never 1 — the pinned eviction order.
        assert!(lru.get(&key(1.0)).is_some());
        lru.insert(key(3.0), value(3.0));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.byte_evictions(), 1);
        assert_eq!(lru.evictions(), 1, "byte evictions count as evictions");
        assert!(lru.get(&key(2.0)).is_none(), "tail evicted first");
        assert!(lru.get(&key(1.0)).is_some());
        assert!(lru.get(&key(3.0)).is_some());

        // A single oversized entry (≈ 3 units of policy heap alone)
        // sweeps every smaller entry out, oldest first, and then —
        // still over budget alone — evicts itself: the budget is a
        // bound, not a residency guarantee.
        lru.insert(key(4.0), sized_value(4.0, 400));
        assert_eq!(lru.len(), 0, "oversized entry cannot reside");
        assert_eq!(lru.bytes(), 0);
        assert_eq!(lru.byte_evictions(), 4);
    }

    #[test]
    fn refresh_reaccounts_bytes() {
        let mut lru = LruCache::new(4);
        lru.insert(key(1.0), value(1.0));
        let small = lru.bytes();
        lru.insert(key(1.0), sized_value(1.0, 64));
        assert!(lru.bytes() > small, "bigger value re-accounted");
        lru.insert(key(1.0), value(1.0));
        assert_eq!(lru.bytes(), small, "shrinking back restores the sum");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.evictions(), 0);
    }

    #[test]
    fn churn_preserves_linkage() {
        // Exercise unlink/link paths across a longer mixed workload.
        let mut lru = LruCache::new(4);
        for round in 0..50usize {
            let k = (round % 7) as f64 + 1.0;
            if round % 3 == 0 {
                let _ = lru.get(&key(k));
            } else {
                lru.insert(key(k), value(k));
            }
            assert!(lru.len() <= 4);
        }
        // The four most recently inserted/touched keys resolve.
        let mut hits = 0;
        for k in 1..=7 {
            if lru.get(&key(k as f64)).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 4);
    }

    #[test]
    fn colliding_route_hashes_stay_separate_entries() {
        // `InstanceKey` hashes only its route hash; equality still
        // compares every field, so a collision shares a bucket, never
        // an entry.
        let (a, b) = collision::colliding_budgets();
        let key = |budgets: &[f64]| {
            CanonicalInstance::new(budgets, 500e-6, 500e-6, 0.5, Groupput, 1e-2).key
        };
        let mut lru = LruCache::new(4);
        lru.insert(key(&a), value(1.0));
        lru.insert(key(&b), value(2.0));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&key(&a)).unwrap().throughput, 1.0);
        assert_eq!(lru.get(&key(&b)).unwrap().throughput, 2.0);
        assert_eq!(lru.get(&key(&[b[1], b[0]])).unwrap().throughput, 2.0);
    }
}
