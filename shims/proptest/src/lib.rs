//! Offline stand-in for `proptest`: deterministic strategy sampling
//! without shrinking. Supports the subset this workspace uses: the
//! `proptest!` macro (with optional `#![proptest_config(..)]`), range and
//! tuple strategies, `Just`, `any`, `prop_oneof!`, `prop::collection::vec`,
//! and the `prop_map` / `prop_flat_map` / `prop_filter` combinators.
//!
//! Failing cases panic with the `prop_assert*` message; they are not
//! shrunk. Sampling is seeded from a fixed constant (overridable via the
//! `PROPTEST_SHIM_SEED` environment variable), so runs are reproducible.

pub mod strategy;

/// Runner configuration (`proptest::test_runner::ProptestConfig`).
pub mod test_runner {
    /// How many accepted cases each property runs, and how many rejections
    /// (filter misses + `prop_assume!` failures) to tolerate on the way.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted cases to execute.
        pub cases: u32,
        /// Upper bound on total rejected samples before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl ProptestConfig {
        /// A default config with a custom case count.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..ProptestConfig::default()
            }
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use crate::strategy::{Strategy, TestRng};

    /// Inclusive-exclusive size bound for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<Self::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector of `size` samples of `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Values with a canonical strategy (`any::<T>()`).
pub mod arbitrary {
    use crate::strategy::{Strategy, TestRng};
    use rand::StandardSample;

    /// Marker for types `any::<T>()` can produce.
    pub trait Arbitrary: StandardSample {}
    impl Arbitrary for u8 {}
    impl Arbitrary for u16 {}
    impl Arbitrary for u32 {}
    impl Arbitrary for u64 {}
    impl Arbitrary for usize {}
    impl Arbitrary for i8 {}
    impl Arbitrary for i16 {}
    impl Arbitrary for i32 {}
    impl Arbitrary for i64 {}
    impl Arbitrary for bool {}
    impl Arbitrary for f64 {}

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> Option<T> {
            Some(rng.gen::<T>())
        }
    }

    /// The canonical strategy for `T` (uniform over the value space).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Namespace mirror so `prop::collection::vec(...)` resolves via the
/// prelude, as in real proptest.
pub mod prop {
    pub use crate::collection;
}

/// The conventional glob-import surface.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property; panics with context on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Rejects the current case (the runner draws a replacement). Only valid
/// directly inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::option::Option::None;
        }
    };
}

/// Uniform choice among boxed strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` that samples its strategies `config.cases` times.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::strategy::TestRng::deterministic(stringify!($name));
            let mut __accepted: u32 = 0;
            let mut __rejected: u32 = 0;
            while __accepted < __config.cases {
                let __outcome: ::core::option::Option<()> = (|| {
                    $(
                        let $pat = match $crate::strategy::Strategy::sample(&($strat), &mut __rng) {
                            ::core::option::Option::Some(v) => v,
                            ::core::option::Option::None => return ::core::option::Option::None,
                        };
                    )+
                    $body
                    ::core::option::Option::Some(())
                })();
                match __outcome {
                    ::core::option::Option::Some(()) => __accepted += 1,
                    ::core::option::Option::None => {
                        __rejected += 1;
                        assert!(
                            __rejected < __config.max_global_rejects,
                            "property `{}` rejected {} samples before reaching {} cases",
                            stringify!($name), __rejected, __config.cases,
                        );
                    }
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn composite() -> impl Strategy<Value = (u64, u64)> {
        (2u64..=6, 1u64..=4)
            .prop_filter("first even", |(m, _)| m % 2 == 0)
            .prop_flat_map(|(m, n)| (Just(m * n), 0..=m))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(a in 3u64..9, b in 0.25f64..=0.75, flag in any::<bool>()) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((0.25..=0.75).contains(&b));
            let _ = flag;
        }

        #[test]
        fn combinators_compose((prod, k) in composite()) {
            prop_assert!(prod >= 2);
            prop_assert!(k <= prod);
        }

        #[test]
        fn oneof_and_vec(
            (m, n) in prop_oneof![Just((2u64, 3u32)), Just((4u64, 2u32))],
            xs in prop::collection::vec(0u64..10, 1..5),
        ) {
            prop_assert!(m == 2 || m == 4);
            prop_assert!(n == 2 || n == 3);
            prop_assert!(!xs.is_empty() && xs.len() < 5);
            prop_assume!(m == 2);
            prop_assert_eq!(n, 3);
        }
    }
}
