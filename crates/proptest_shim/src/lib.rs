//! Offline stand-in for the [`proptest`](https://docs.rs/proptest) crate.
//!
//! The build environment has no crates.io access, so the workspace maps the
//! dependency name `proptest` onto this crate. It keeps the same authoring
//! surface the workspace's property tests use — the [`proptest!`] macro,
//! [`Strategy`] with [`Strategy::prop_map`], [`any`], range and tuple
//! strategies, [`collection::vec`], and the `prop_assert*` /
//! [`prop_assume!`] macros — but replaces upstream's shrinking engine with
//! plain deterministic random sampling: each test draws `cases` inputs from
//! a generator seeded by the test's fully qualified name, so failures
//! reproduce exactly across runs and machines.
//!
//! The trade-off is no input shrinking on failure; the failing case is
//! reported with its case index and the generator is deterministic, so a
//! failing input can be recovered by re-running the single test.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator handed to strategies — deterministic per test.
pub type TestRng = StdRng;

/// Per-run configuration, mirroring `proptest::test_runner::ProptestConfig`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, overridable with the `PROPTEST_CASES` environment
    /// variable (upstream defaults to 256; 64 keeps the crypto-heavy
    /// properties fast on small CI machines).
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Seeds the per-test generator from the test's fully qualified name, so
/// every test has its own reproducible stream.
#[must_use]
pub fn test_rng(test_path: &str) -> TestRng {
    // FNV-1a over the path; stable across runs, platforms, and compilers.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// A recipe for generating random values of [`Strategy::Value`].
pub trait Strategy {
    /// The type this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`, as upstream's `prop_map`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0);
impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);

/// Types with a canonical whole-domain strategy, as upstream's
/// `Arbitrary`.
pub trait Arbitrary: Sized {
    /// Draws one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_via_random {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.random()
            }
        }
    )*};
}

impl_arbitrary_via_random!(u8, u16, u32, u64, usize, bool, f64);

impl<const N: usize> Arbitrary for [u8; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.random()
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A whole-domain strategy for `T`, as upstream's `any::<T>()`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Rng, Strategy, TestRng};

    /// Acceptable length specifications for `vec`.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            SizeRange {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// The strategy returned by `vec`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = rng.random_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` with a length drawn from
    /// `size`, as upstream's `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Defines property tests, mirroring upstream's `proptest!` macro.
///
/// Each `#[test] fn name(arg in strategy, ...) { body }` item becomes a
/// test that runs the body over `cases` deterministic random inputs. The
/// body may use [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`]
/// and [`prop_assume!`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let __values = ($( $crate::Strategy::generate(&($strat), &mut __rng), )+);
                let ($($arg,)+) = __values;
                let __outcome: ::core::result::Result<(), ::std::string::String> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}",
                        stringify!($name),
                        __case,
                        __config.cases,
                        __msg,
                    );
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r,
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __l, __r,
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
            ));
        }
    }};
}

/// Skips the current case when its precondition does not hold.
///
/// Unlike upstream there is no rejection budget: an assumption failure
/// simply counts the case as passed.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        $crate::prop_assume!($cond);
    };
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (u64, u64)> {
        (0u64..50, 50u64..100)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..10, y in 0.0..=1.0f64) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y), "y out of range: {y}");
        }

        #[test]
        fn tuples_and_maps_compose(p in arb_pair().prop_map(|(a, b)| (b, a))) {
            prop_assert!(p.0 >= 50 && p.1 < 50);
            prop_assert_eq!(p.0, p.0);
            prop_assert_ne!(p.0, p.1);
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in collection::vec(any::<u8>(), 2..5),
            w in collection::vec(0u32..7, 3usize..=3),
        ) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert_eq!(w.len(), 3);
            prop_assume!(!v.is_empty());
            prop_assert!(v.capacity() >= v.len());
        }
    }

    #[test]
    fn test_rng_is_deterministic_per_name() {
        use rand::Rng;
        let a = crate::test_rng("mod::case").next_u64();
        let b = crate::test_rng("mod::case").next_u64();
        let c = crate::test_rng("mod::other").next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
