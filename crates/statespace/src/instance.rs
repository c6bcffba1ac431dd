//! Canonical (P4) instance keys for policy caching and routing.
//!
//! Two requests describe *the same* (P4) instance whenever they agree
//! on the radio powers, the temperature, the objective, and the
//! multiset of budgets — node order is irrelevant because the Gibbs
//! measure and the dual are permutation-equivariant: permuting the
//! budgets permutes the optimal `(α, β)` the same way. A policy cache
//! therefore keys on the *sorted* budget vector and remembers the
//! sorting permutation so served policies can be handed back in the
//! caller's original node order.
//!
//! Routing needs less than that: only a hash that every permutation
//! of an instance shares. [`route_hash_of`] is one O(N) pass over the
//! raw request — a wrapping sum of per-budget splitmix64 words, which
//! no node order can change, folded with the header fields — so a
//! front that only picks a backend never sorts or allocates.
//! [`CanonicalInstance::new`] stores the same value in its key, so
//! the front and every cache behind it agree on each key's home.
//!
//! Tolerances are quantized **downward** onto decade tiers
//! (`…, 1e-3, 1e-2, 1e-1`): a cached entry solved at the tier floor is
//! at least as accurate as any request that maps to the tier, so
//! sharing entries across nearby tolerances never weakens a caller's
//! contract.
//!
//! Keys compare the IEEE-754 bit patterns of the canonical floats —
//! exact-match semantics, no epsilon comparisons. `-0.0` and `0.0`
//! differ, which is irrelevant here because every power is validated
//! strictly positive.

use econcast_core::ThroughputMode;

/// The coarsest tolerance tier (requests looser than this still map
/// to it).
pub const TOLERANCE_TIER_MAX: f64 = 1e-1;
/// The finest tolerance tier (requests tighter than this are clamped
/// up to it — the dual descent's own floor).
pub const TOLERANCE_TIER_MIN: f64 = 1e-9;

/// Quantizes a requested tolerance down to its decade tier in
/// `[TOLERANCE_TIER_MIN, TOLERANCE_TIER_MAX]`.
///
/// # Panics
///
/// Panics when `tol` is non-positive or non-finite.
pub fn quantize_tolerance(tol: f64) -> f64 {
    assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
    let clamped = tol.clamp(TOLERANCE_TIER_MIN, TOLERANCE_TIER_MAX);
    let tier = 10f64.powi(clamped.log10().floor() as i32);
    // floor() on a log10 that lands exactly on an integer can dip one
    // decade too low through rounding; never return a tier the input
    // already clears by a full decade.
    if tier * 10.0 <= clamped {
        (tier * 10.0).min(TOLERANCE_TIER_MAX)
    } else {
        tier.clamp(TOLERANCE_TIER_MIN, TOLERANCE_TIER_MAX)
    }
}

/// Exact-match cache key: bit patterns of the canonicalized instance.
///
/// Equality compares every field bit for bit; `Hash` writes only the
/// precomputed [`route_hash`](Self::route_hash), so a hash-map probe
/// costs one `u64` however many nodes the instance has. Distinct keys
/// that share a route hash stay distinct entries: a crafted collision
/// (the hash is not cryptographic) only lengthens one bucket chain,
/// which a service's `lru_capacity` (the LRU) and the wire's
/// `max_batch` (in-batch dedup) bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceKey {
    /// 0 = groupput, 1 = anyput.
    mode: u8,
    /// `σ` bits.
    sigma: u64,
    /// `L` bits.
    listen: u64,
    /// `X` bits.
    transmit: u64,
    /// Quantized tolerance tier bits.
    tolerance: u64,
    /// Sorted budget bits (ascending).
    budgets: Vec<u64>,
    /// [`route_hash_of`] the instance, computed once at construction.
    route: u64,
}

impl std::hash::Hash for InstanceKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.route);
    }
}

impl InstanceKey {
    /// Number of nodes in the keyed instance.
    pub fn num_nodes(&self) -> usize {
        self.budgets.len()
    }

    /// The instance's pinned routing hash: [`route_hash_of`] the
    /// request it was canonicalized from, stored at construction. A
    /// front that routes raw requests with [`route_hash_of`] and a
    /// backend that routes canonical keys therefore pick the same
    /// home for every permutation and tolerance alias.
    pub fn route_hash(&self) -> u64 {
        self.route
    }
}

/// Salt XORed into every budget's bits before mixing (splitmix64's
/// golden-ratio increment).
const BUDGET_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial state of the header fold.
const ROUTE_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The splitmix64 finalizer: a bijection on `u64` in which every
/// input bit flips each output bit with probability ≈ ½.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn mode_byte(mode: ThroughputMode) -> u8 {
    match mode {
        ThroughputMode::Groupput => 0,
        ThroughputMode::Anyput => 1,
    }
}

/// The shared body of [`route_hash_of`] and [`CanonicalInstance::new`]:
/// the wrapping sum of `mix64(bits ^ BUDGET_SALT)` over the budgets
/// (order-independent), then the header words, the node count and
/// that sum folded through [`mix64`] one at a time.
fn fold_route_hash(head: [u64; 5], budgets: &[f64]) -> u64 {
    let sum = budgets.iter().fold(0u64, |acc, b| {
        acc.wrapping_add(mix64(b.to_bits() ^ BUDGET_SALT))
    });
    head.into_iter()
        .chain([budgets.len() as u64, sum])
        .fold(ROUTE_SEED, |h, w| mix64(h ^ w))
}

/// The pinned, order-independent routing hash of a (validated)
/// request: one O(N) pass over the budgets in caller order, no sort,
/// no allocation. Equals [`InstanceKey::route_hash`] of the request's
/// [`CanonicalInstance`], so every permutation and tolerance-tier
/// alias of an instance hashes alike. The value is fixed by this
/// implementation — the same on every process, platform and
/// toolchain — so a routing decision observed in a test is the one
/// production makes.
///
/// # Panics
///
/// Panics when `tolerance` is non-positive or non-finite.
pub fn route_hash_of(
    budgets: &[f64],
    listen_w: f64,
    transmit_w: f64,
    sigma: f64,
    mode: ThroughputMode,
    tolerance: f64,
) -> u64 {
    fold_route_hash(
        [
            u64::from(mode_byte(mode)),
            sigma.to_bits(),
            listen_w.to_bits(),
            transmit_w.to_bits(),
            quantize_tolerance(tolerance).to_bits(),
        ],
        budgets,
    )
}

/// Pinned FNV-1a over a stream of u64 words (big-endian bytes) — the
/// consistent-hash ring's virtual-node points. The router places
/// `fnv1a_64([slot, vnode])`, so equal slot counts build identical
/// rings, whether the slots are shards or backends.
pub fn fnv1a_64(words: impl IntoIterator<Item = u64>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for w in words {
        for b in w.to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// A canonicalized (P4) instance: the sorted view a cache solves and
/// stores, plus the permutation needed to answer the caller in their
/// own node order.
#[derive(Debug, Clone)]
pub struct CanonicalInstance {
    /// Exact-match cache key.
    pub key: InstanceKey,
    /// Budgets in ascending order: `sorted_budgets[k] = budgets[perm[k]]`.
    pub sorted_budgets: Vec<f64>,
    /// `perm[k]` = caller index of the node at canonical position `k`.
    pub perm: Vec<usize>,
    /// The decade tier the request's tolerance quantized to.
    pub tolerance_tier: f64,
    /// Whether every budget is bit-identical (enables the homogeneous
    /// tiers).
    pub homogeneous: bool,
}

impl CanonicalInstance {
    /// Canonicalizes a request. Budgets are sorted ascending with ties
    /// broken by caller index, so equal inputs always produce the same
    /// key *and* the same permutation.
    ///
    /// # Panics
    ///
    /// Panics when `budgets` is empty or any parameter is non-positive
    /// or non-finite (callers validate requests before keying them).
    pub fn new(
        budgets: &[f64],
        listen_w: f64,
        transmit_w: f64,
        sigma: f64,
        mode: ThroughputMode,
        tolerance: f64,
    ) -> Self {
        assert!(!budgets.is_empty(), "need at least one node");
        for &b in budgets {
            assert!(b > 0.0 && b.is_finite(), "budgets must be positive");
        }
        assert!(listen_w > 0.0 && listen_w.is_finite());
        assert!(transmit_w > 0.0 && transmit_w.is_finite());
        assert!(sigma > 0.0 && sigma.is_finite());

        // Every budget is positive and finite, so its bit pattern
        // orders like its value; packing the caller index into the low
        // half breaks ties by index, and the keys are distinct, so an
        // unstable sort yields the one permutation a stable
        // `total_cmp`-then-index sort would.
        let mut packed: Vec<u128> = budgets
            .iter()
            .enumerate()
            .map(|(i, b)| u128::from(b.to_bits()) << 64 | i as u128)
            .collect();
        packed.sort_unstable();
        let perm: Vec<usize> = packed.iter().map(|&k| k as u64 as usize).collect();
        let bits: Vec<u64> = packed.iter().map(|&k| (k >> 64) as u64).collect();
        let sorted_budgets: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let homogeneous = bits[0] == bits[bits.len() - 1];
        let tolerance_tier = quantize_tolerance(tolerance);
        let mode = mode_byte(mode);
        let head = [
            u64::from(mode),
            sigma.to_bits(),
            listen_w.to_bits(),
            transmit_w.to_bits(),
            tolerance_tier.to_bits(),
        ];
        let key = InstanceKey {
            mode,
            sigma: head[1],
            listen: head[2],
            transmit: head[3],
            tolerance: head[4],
            route: fold_route_hash(head, budgets),
            budgets: bits,
        };
        CanonicalInstance {
            key,
            sorted_budgets,
            perm,
            tolerance_tier,
            homogeneous,
        }
    }

    /// Maps per-node values from canonical (sorted) order back to the
    /// caller's original node order.
    pub fn restore_order<T: Copy>(&self, canonical: &[T]) -> Vec<T> {
        assert_eq!(canonical.len(), self.perm.len());
        let mut out = vec![canonical[0]; canonical.len()];
        for (k, &caller_idx) in self.perm.iter().enumerate() {
            out[caller_idx] = canonical[k];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use econcast_core::ThroughputMode::{Anyput, Groupput};

    fn canon(budgets: &[f64]) -> CanonicalInstance {
        CanonicalInstance::new(budgets, 500e-6, 450e-6, 0.5, Groupput, 1e-3)
    }

    #[test]
    fn permuted_budgets_share_a_key() {
        let a = canon(&[3e-6, 1e-6, 2e-6]);
        let b = canon(&[1e-6, 2e-6, 3e-6]);
        let c = canon(&[2e-6, 3e-6, 1e-6]);
        assert_eq!(a.key, b.key);
        assert_eq!(b.key, c.key);
        assert_eq!(a.sorted_budgets, vec![1e-6, 2e-6, 3e-6]);
    }

    #[test]
    fn restore_order_inverts_the_sort() {
        let budgets = [5e-6, 1e-6, 9e-6, 3e-6];
        let ci = canon(&budgets);
        // Tag canonical entries with their sorted budget; restoring
        // must place each tag at the caller index holding that budget.
        let restored = ci.restore_order(&ci.sorted_budgets);
        assert_eq!(restored, budgets.to_vec());
    }

    #[test]
    fn ties_are_broken_by_caller_index() {
        let ci = canon(&[2e-6, 2e-6, 1e-6]);
        assert_eq!(ci.perm, vec![2, 0, 1]);
        // Restoring canonical labels [a, b, c] puts b at caller 0.
        assert_eq!(ci.restore_order(&['a', 'b', 'c']), vec!['b', 'c', 'a']);
    }

    #[test]
    fn different_parameters_change_the_key() {
        let base = canon(&[1e-6, 2e-6]);
        let other_sigma =
            CanonicalInstance::new(&[1e-6, 2e-6], 500e-6, 450e-6, 0.25, Groupput, 1e-3);
        let other_mode = CanonicalInstance::new(&[1e-6, 2e-6], 500e-6, 450e-6, 0.5, Anyput, 1e-3);
        let other_tol = CanonicalInstance::new(&[1e-6, 2e-6], 500e-6, 450e-6, 0.5, Groupput, 1e-5);
        assert_ne!(base.key, other_sigma.key);
        assert_ne!(base.key, other_mode.key);
        assert_ne!(base.key, other_tol.key);
    }

    #[test]
    fn homogeneous_detection_is_exact() {
        assert!(canon(&[1e-6, 1e-6, 1e-6]).homogeneous);
        assert!(!canon(&[1e-6, 1.0000001e-6]).homogeneous);
        assert!(canon(&[7e-6]).homogeneous);
    }

    #[test]
    fn tolerance_quantizes_down_to_decades() {
        assert_eq!(quantize_tolerance(5e-4), 1e-4);
        assert_eq!(quantize_tolerance(1e-3), 1e-3);
        assert_eq!(quantize_tolerance(9.99e-2), 1e-2);
        // Clamped at both ends.
        assert_eq!(quantize_tolerance(0.5), TOLERANCE_TIER_MAX);
        assert_eq!(quantize_tolerance(1e-12), TOLERANCE_TIER_MIN);
        // Same tier ⇒ same key; different tiers ⇒ different keys.
        let a = CanonicalInstance::new(&[1e-6], 5e-4, 5e-4, 0.5, Groupput, 4e-4);
        let b = CanonicalInstance::new(&[1e-6], 5e-4, 5e-4, 0.5, Groupput, 8e-4);
        assert_eq!(a.key, b.key);
        assert_eq!(a.tolerance_tier, 1e-4);
    }

    #[test]
    fn route_hash_is_stable_and_key_sensitive() {
        // Pinned value: the routing hash is part of the sharding
        // contract (same instance → same shard across processes), so a
        // change here is a cache-topology migration, not a refactor.
        const PINNED: u64 = 0x71b1_8bba_ee9e_8cd1;
        let a = canon(&[3e-6, 1e-6, 2e-6]);
        assert_eq!(a.key.route_hash(), PINNED);
        // Permutations share the hash (same canonical key)…
        let b = canon(&[1e-6, 2e-6, 3e-6]);
        assert_eq!(a.key.route_hash(), b.key.route_hash());
        // …while any keyed field perturbs it.
        let other_sigma =
            CanonicalInstance::new(&[1e-6, 2e-6, 3e-6], 500e-6, 450e-6, 0.25, Groupput, 1e-3);
        let other_mode =
            CanonicalInstance::new(&[1e-6, 2e-6, 3e-6], 500e-6, 450e-6, 0.5, Anyput, 1e-3);
        let other_budget = canon(&[1e-6, 2e-6, 4e-6]);
        assert_ne!(a.key.route_hash(), other_sigma.key.route_hash());
        assert_ne!(a.key.route_hash(), other_mode.key.route_hash());
        assert_ne!(a.key.route_hash(), other_budget.key.route_hash());
        // The node count is keyed: a repeated budget is not a no-op.
        assert_ne!(
            canon(&[1e-6]).key.route_hash(),
            canon(&[1e-6, 1e-6]).key.route_hash()
        );
        // Tolerances within one decade tier share the key and its hash.
        let loose = CanonicalInstance::new(&[3e-6, 1e-6], 500e-6, 450e-6, 0.5, Groupput, 9e-3);
        let tight = CanonicalInstance::new(&[1e-6, 3e-6], 500e-6, 450e-6, 0.5, Groupput, 1e-3);
        assert_eq!(loose.key, tight.key);
        assert_eq!(loose.key.route_hash(), tight.key.route_hash());
        // The raw-request form agrees without canonicalizing.
        assert_eq!(
            route_hash_of(&[2e-6, 3e-6, 1e-6], 500e-6, 450e-6, 0.5, Groupput, 1e-3),
            PINNED
        );
    }

    /// The comparator the packed `u128` sort replaced: `total_cmp` on
    /// the budgets, ties broken by caller index, stable sort.
    fn reference_perm(budgets: &[f64]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..budgets.len()).collect();
        perm.sort_by(|&a, &b| budgets[a].total_cmp(&budgets[b]).then_with(|| a.cmp(&b)));
        perm
    }

    #[test]
    fn packed_sort_matches_the_reference_comparator() {
        let mut rng = proptest::TestRng::from_name("packed_sort");
        // A small pool forces ties; the subnormals and the extremes
        // exercise the bit-order argument at both ends of the range.
        let pool = [
            f64::from_bits(1),
            f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            1e-6,
            2e-6,
            2.000_000_000_000_001e-6,
            1.0,
            f64::MAX,
        ];
        for case in 0..500 {
            let n = 1 + rng.below(if case % 10 == 0 { 2000 } else { 40 }) as usize;
            let budgets: Vec<f64> = (0..n)
                .map(|_| match rng.below(3) {
                    0 => pool[rng.below(pool.len() as u64) as usize],
                    _ => 1e-7 + rng.next_f64() * 1e-3,
                })
                .collect();
            let ci = canon(&budgets);
            let perm = reference_perm(&budgets);
            assert_eq!(ci.perm, perm, "case {case}");
            let sorted: Vec<f64> = perm.iter().map(|&i| budgets[i]).collect();
            assert_eq!(ci.sorted_budgets, sorted, "case {case}");
            assert_eq!(
                ci.homogeneous,
                budgets.iter().all(|b| b.to_bits() == budgets[0].to_bits())
            );
        }
    }

    #[test]
    fn quantization_never_loosens_the_contract() {
        // The tier floor is ≤ the requested tolerance for every
        // in-range input — the property the cache contract rests on.
        let mut t = 1.2e-9;
        while t < 0.1 {
            let q = quantize_tolerance(t);
            assert!(q <= t * (1.0 + 1e-12), "tier {q} above request {t}");
            assert!(q >= t / 10.0, "tier {q} needlessly tight for {t}");
            t *= 1.7;
        }
    }
}
