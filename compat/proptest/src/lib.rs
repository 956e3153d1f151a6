//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice of proptest's API this workspace's suites use:
//! the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`, strategies
//! over integer ranges, tuples, `prop::collection::vec`, `any::<T>()`,
//! `Just`, and `prop_map`. Cases are generated from a deterministic
//! per-test seed (derived from the test name), so failures reproduce by
//! re-running the test. There is **no shrinking**: a failing case panics
//! with the values' `Debug` rendering instead of a minimised one.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runner configuration; only the case count is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (bounded retries).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter {:?} rejected 1000 consecutive values",
            self.whence
        );
    }
}

/// A strategy producing one fixed value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Marker trait backing [`any`].
pub trait Arbitrary {
    /// The canonical full-domain strategy for the type.
    type Strategy: Strategy<Value = Self>;

    /// Returns that strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for primitives.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyOf<T>(core::marker::PhantomData<T>);

macro_rules! impl_arbitrary_via_standard {
    ($($t:ty),*) => {$(
        impl Strategy for AnyOf<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.gen()
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyOf<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyOf(core::marker::PhantomData)
            }
        }
    )*};
}
impl_arbitrary_via_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

/// The whole-domain strategy for `T`, mirroring `proptest::arbitrary::any`.
#[must_use]
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Mirrors the `proptest::prop` module namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{SizeRange, Strategy};
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// Strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                let len = rng.gen_range(self.size.lo..=self.size.hi);
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }
}

/// Inclusive length bounds for collection strategies.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        Self { lo: n, hi: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        Self {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        Self {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Failure value property bodies may return early with `?`, mirroring
/// `proptest::test_runner::TestCaseError`.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Marks the current case as failed with the given reason.
    pub fn fail(reason: impl std::fmt::Display) -> Self {
        Self(reason.to_string())
    }

    /// Upstream distinguishes rejection from failure; without shrinking or
    /// retry budgets the distinction is moot, so both fail the test.
    pub fn reject(reason: impl std::fmt::Display) -> Self {
        Self(reason.to_string())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Derives the deterministic per-test RNG for `test_name`.
#[must_use]
pub fn rng_for(test_name: &str) -> StdRng {
    // FNV-1a over the test name: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` running `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $pat:pat in $strat:expr ),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            // The immediately-called closure gives `prop_assert!`'s early
            // `return Err(..)` a scope; clippy flags it as redundant.
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::rng_for(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__cfg.cases {
                    $( let $pat = $crate::Strategy::sample(&($strat), &mut __rng); )*
                    let __outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = __outcome {
                        panic!("property failed on case {}: {}", __case, e);
                    }
                }
            }
        )*
    };
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples((a, b) in (0u32..10, 5usize..=6), v in prop::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(a < 10);
            prop_assert!(b == 5 || b == 6);
            prop_assert!(v.len() < 4);
        }

        #[test]
        fn mapping(x in (1u64..100).prop_map(|v| v * 2)) {
            prop_assert_eq!(x % 2, 0);
            prop_assert_ne!(x, 1);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        use super::Strategy;
        let mut r1 = super::rng_for("a::b");
        let mut r2 = super::rng_for("a::b");
        let s = 0u64..1_000_000;
        assert_eq!(s.sample(&mut r1), s.sample(&mut r2));
    }
}
