//! Offline stand-in for [`proptest`](https://docs.rs/proptest).
//!
//! Keeps the shape of the proptest API this workspace uses — the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, [`collection::vec`], [`sample::select`],
//! [`any`], `ProptestConfig::with_cases`, and the `prop_assert` family —
//! over a deterministic seeded generator instead of upstream's
//! shrinking value trees.
//!
//! Differences from upstream, deliberate and documented:
//!
//! * **No shrinking.** A failing case reports its case index and the
//!   per-test seed; reproducing is re-running the (deterministic) test.
//! * **Determinism.** Case streams derive from a fixed hash of the test
//!   name, so failures are stable across runs and machines.
//! * `prop_assume!` skips the case without replacement, so heavily
//!   filtered strategies see fewer effective cases.

use std::ops::{Range, RangeInclusive};

#[doc(hidden)]
pub use rand::{rngs::StdRng, Rng, SeedableRng};

/// Run-shaping knobs (stand-in for `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-test seed: FNV-1a over the test's name, so each
/// test gets a distinct but stable case stream.
#[doc(hidden)]
#[must_use]
pub fn case_seed(test_name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A generator of random values (stand-in for `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Map the produced value (stand-in for `Strategy::prop_map`).
    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { base: self, f }
    }

    /// Derive a follow-up strategy from the produced value (stand-in
    /// for `Strategy::prop_flat_map`).
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.base.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        let seed = self.base.generate(rng);
        (self.f)(seed).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Always produces a clone of the given value (stand-in for
/// `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// Uniform values of a whole type (stand-in for `proptest::arbitrary::any`).
#[must_use]
pub fn any<T: rand::Standard>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// See [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: rand::Standard> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length range for generated collections (stand-in
    /// for `proptest::collection::SizeRange`).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                min: exact,
                max: exact,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "vec size: empty range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "vec size: empty range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// A `Vec` of values from `element`, with a length drawn from
    /// `size` (stand-in for `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Uniform choice from a slice, cloned eagerly (stand-in for
    /// `proptest::sample::select`).
    pub fn select<T: Clone>(values: &[T]) -> Select<T> {
        assert!(!values.is_empty(), "select: empty choice set");
        Select {
            values: values.to_vec(),
        }
    }

    /// See [`select`].
    pub struct Select<T> {
        values: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            self.values[rng.gen_range(0..self.values.len())].clone()
        }
    }
}

/// The commonly used names (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Assert within a property test (panics with case context on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Equality assert within a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        assert_eq!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*)
    };
}

/// Inequality assert within a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {
        assert_ne!($left, $right)
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*)
    };
}

/// Skip the current case when its inputs don't satisfy a precondition.
/// Expands to a `continue` targeting the case loop generated by
/// [`proptest!`]; only valid at the top level of a property body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Define property tests (stand-in for `proptest::proptest!`). Each
/// `fn name(pat in strategy, ...) { body }` becomes a `#[test]`-able
/// function running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block
    )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = <$crate::StdRng as $crate::SeedableRng>::seed_from_u64(
                $crate::case_seed(concat!(module_path!(), "::", stringify!($name))),
            );
            for __case in 0..__config.cases {
                let _ = __case;
                let ($($arg,)+) = ($($crate::Strategy::generate(&($strat), &mut __rng),)+);
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn tagged() -> impl Strategy<Value = (usize, Vec<u64>)> {
        (1usize..5).prop_flat_map(|n| (Just(n), crate::collection::vec(0u64..100, n..n + 1)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_stay_in_bounds(n in 2usize..=8, x in -4i32..4) {
            prop_assert!((2..=8).contains(&n));
            prop_assert!((-4..4).contains(&x));
        }

        #[test]
        fn flat_map_links_sizes((n, v) in tagged()) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn select_draws_members(k in 0usize..3, pick in crate::sample::select(&[10u8, 20, 30])) {
            let _ = k;
            prop_assert!([10u8, 20, 30].contains(&pick));
        }
    }

    #[test]
    fn deterministic_streams() {
        use crate::{SeedableRng, StdRng};
        let mut a = <StdRng as SeedableRng>::seed_from_u64(crate::case_seed("x"));
        let mut b = <StdRng as SeedableRng>::seed_from_u64(crate::case_seed("x"));
        let s = crate::collection::vec(0u64..1000, 3usize..9);
        for _ in 0..50 {
            assert_eq!(s.generate(&mut a), s.generate(&mut b));
        }
    }
}
