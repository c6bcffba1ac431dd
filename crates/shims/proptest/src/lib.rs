//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's tests
//! use: the [`proptest!`] macro over functions whose arguments are
//! `name in strategy` bindings, range / `any::<T>()` / tuple /
//! `collection::vec` strategies, and the `prop_assert*` macros.
//!
//! Unlike upstream there is no shrinking and no persisted failure
//! file: each property runs a fixed number of deterministic cases
//! (seeded from the test name, overridable via `PROPTEST_CASES`), so
//! failures reproduce exactly across runs and machines.

use std::fmt;
use std::ops::Range;

/// Default number of cases per property (upstream defaults to 256; we
/// trade a little coverage for CI wall-clock, and the seed is fixed so
/// reruns explore the same points).
pub const DEFAULT_CASES: u32 = 64;

/// A failed property case.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wraps a failure message.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// SplitMix64 — deterministic, seedable, and plenty for case
/// generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from a test-name hash so every property gets its own
    /// stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// Number of cases to run, honouring `PROPTEST_CASES`.
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// A value generator.
pub trait Strategy {
    /// Generated value type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! int_range_inclusive_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
int_range_inclusive_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.next_f64() as f32
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident/$i:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )+};
}
tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

/// Types with a full-range "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.next_f64()
    }
}

/// The `any::<T>()` strategy.
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// Full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        start: usize,
        end: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                start: r.start,
                end: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                start: n,
                end: n + 1,
            }
        }
    }

    /// Vector-of-`S` strategy with length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    /// `proptest::collection::vec(strategy, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Strategy,
        TestCaseError,
    };
}

/// Defines deterministic property tests. Mirrors upstream syntax:
///
/// ```ignore
/// proptest! {
///     #[test]
///     fn prop_name(x in 0usize..10, y in 0.0f64..1.0) {
///         prop_assert!(x as f64 + y < 11.0);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$attr:meta])*
        fn $name:ident ( $( $arg:pat_param in $strat:expr ),+ $(,)? ) $body:block
    )+) => {$(
        $(#[$attr])*
        fn $name() {
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            let cases = $crate::cases();
            for case in 0..cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        cases,
                        e
                    );
                }
            }
        }
    )+};
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        if l != r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Fails the enclosing property case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        if l == r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::from_name("y");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = crate::TestRng::from_name("bounds");
        for _ in 0..1000 {
            let v = crate::Strategy::sample(&(3usize..9), &mut rng);
            assert!((3..9).contains(&v));
            let f = crate::Strategy::sample(&(0.25f64..0.75), &mut rng);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_length_in_range() {
        let mut rng = crate::TestRng::from_name("vec");
        for _ in 0..200 {
            let v = crate::Strategy::sample(&crate::collection::vec(any::<u8>(), 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        /// The macro itself: bindings, tuples, and prop_assert_eq.
        #[test]
        fn prop_macro_smoke(
            a in 0usize..10,
            pair in (any::<u16>(), 1usize..4),
        ) {
            prop_assert!(a < 10);
            let (x, n) = pair;
            let v = vec![x; n];
            prop_assert_eq!(v.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "property `prop_fails` failed")]
    fn failing_property_panics() {
        proptest! {
            fn prop_fails(x in 0usize..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        prop_fails();
    }
}
