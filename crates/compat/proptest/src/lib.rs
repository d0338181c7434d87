//! A small, dependency-free stand-in for the subset of the `proptest` API
//! this workspace's property tests use.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements the pieces the test-suite needs: the [`proptest!`] macro,
//! the [`Strategy`] trait with range/tuple/collection/select strategies,
//! [`ProptestConfig`], and the `prop_assert*` macros. Unlike the real
//! proptest there is **no shrinking** — when a case panics, the test prints
//! its name, the case index and every sampled input (`Debug`) to stderr
//! and then resumes the panic, so the case can be replayed by hand.
//! Sampling is deterministic per test (seeded from the test name), so
//! failures reproduce across runs.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Runner configuration. Only `cases` is honoured.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic generator driving strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator seeded from an arbitrary string (the test name).
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name gives every test its own stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw below `bound` (must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

macro_rules! impl_strategy_for_uint_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                start + rng.below((end - start) as u64 + 1) as $t
            }
        }
    )*};
}

impl_strategy_for_uint_ranges!(u64, u32, usize, u8, u16);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.unit_f64() * (self.end() - self.start())
    }
}

macro_rules! impl_strategy_for_tuples {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_strategy_for_tuples! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// A strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod prop {
    //! The `prop::` module tree mirrored from the real crate.

    pub mod collection {
        //! Collection strategies.

        use crate::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Size bounds accepted by [`vec()`].
        pub trait IntoSizeRange {
            /// Lower (inclusive) and upper (inclusive) length bounds.
            fn bounds(&self) -> (usize, usize);
        }

        impl IntoSizeRange for Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                assert!(self.start < self.end, "empty size range");
                (self.start, self.end - 1)
            }
        }

        impl IntoSizeRange for RangeInclusive<usize> {
            fn bounds(&self) -> (usize, usize) {
                (*self.start(), *self.end())
            }
        }

        impl IntoSizeRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self)
            }
        }

        /// Strategy for `Vec`s whose elements come from `element` and whose
        /// length lies within `size`.
        pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
            let (min, max) = size.bounds();
            VecStrategy { element, min, max }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            min: usize,
            max: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = self.min + rng.below((self.max - self.min) as u64 + 1) as usize;
                (0..len).map(|_| self.element.sample(rng)).collect()
            }
        }
    }

    pub mod sample {
        //! Sampling from explicit value sets.

        use crate::{Strategy, TestRng};

        /// Strategy choosing uniformly from `options`.
        ///
        /// # Panics
        ///
        /// Panics (on sampling) if `options` is empty.
        pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
            Select { options }
        }

        /// See [`select`].
        #[derive(Debug, Clone)]
        pub struct Select<T> {
            options: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;

            fn sample(&self, rng: &mut TestRng) -> T {
                assert!(!self.options.is_empty(), "select over no options");
                self.options[rng.below(self.options.len() as u64) as usize].clone()
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.

    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property, reporting the condition on
/// failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, concat!("property failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        assert_eq!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_eq!($left, $right, $($fmt)*);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        assert_ne!($left, $right);
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        assert_ne!($left, $right, $($fmt)*);
    };
}

/// The text a failing case prints: the test, the case index and each
/// sampled input.
#[doc(hidden)]
#[must_use]
pub fn __case_report(test: &str, case: u32, inputs: &[(&str, &dyn Debug)]) -> String {
    let mut out = format!("proptest: {test} failed at case {case} with inputs:");
    for (name, value) in inputs {
        out.push_str(&format!("\n    {name} = {value:?}"));
    }
    out
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let __test = concat!(module_path!(), "::", stringify!($name));
                let mut __rng = $crate::TestRng::deterministic(__test);
                for __case in 0..__cfg.cases {
                    $( let $arg = $crate::Strategy::sample(&($strat), &mut __rng); )+
                    // Formatted before the body runs, which may move the inputs.
                    let __report = $crate::__case_report(
                        __test,
                        __case,
                        &[$( (stringify!($arg), &$arg as &dyn ::std::fmt::Debug) ),+],
                    );
                    let __outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| $body));
                    if let Err(__panic) = __outcome {
                        eprintln!("{__report}");
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        )*
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` item
/// becomes a `#[test]` running the body over `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in 5u64..=6, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((5..=6).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0u64..100, 2..5)) {
            prop_assert!((2..=4).contains(&v.len()));
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn select_picks_from_options(v in prop::sample::select(vec![1, 2, 3])) {
            prop_assert!((1..=3).contains(&v));
        }

        #[test]
        fn tuples_compose(pair in (0u64..10, 10u64..20)) {
            prop_assert!(pair.0 < 10 && (10..20).contains(&pair.1));
        }
    }

    #[test]
    fn a_failing_case_reports_its_test_index_and_inputs() {
        let report = crate::__case_report("m::prop", 3, &[("x", &7u64), ("v", &vec![1, 2])]);
        assert_eq!(
            report,
            "proptest: m::prop failed at case 3 with inputs:\n    x = 7\n    v = [1, 2]"
        );
    }

    mod failing {
        use crate::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            #[test]
            #[should_panic(expected = "property failed")]
            fn a_failing_property_still_panics(x in 0u64..4) {
                prop_assert!(x > 100);
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    use crate::TestRng;
}
