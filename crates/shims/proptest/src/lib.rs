//! Offline drop-in subset of the `proptest` crate.
//!
//! The build environment has no crates.io access; this workspace-local shim
//! implements the slice of proptest the test suites use: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map` / `prop_filter` / `prop_recursive`, range and
//! regex-pattern strategies, `collection::vec`, `option::of`, `Just`,
//! `any`, the [`proptest!`] test macro, and the `prop_assert*` family.
//!
//! Differences from upstream: cases are generated from a fixed per-case
//! seed (fully deterministic runs) and there is **no shrinking** — a
//! failing case reports its inputs via `Debug` where available and its
//! case number always.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — collection strategies.
pub mod collection {
    use crate::strategy::{SizeRange, Strategy, VecStrategy};

    /// A strategy for `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// `proptest::option` — `Option` strategies.
pub mod option {
    use crate::strategy::{OptionStrategy, Strategy};

    /// A strategy that yields `None` half the time and `Some(inner)`
    /// otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Everything a test file typically imports.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniform choice among strategies with the same value type.
///
/// All arms are boxed, so heterogeneous strategy types are fine as long
/// as they produce the same `Value`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Fails the current test case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current test case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                    l,
                    r
                )
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::fail(format!(
                            "{}\n  left: `{:?}`\n right: `{:?}`",
                            format!($($fmt)+),
                            l,
                            r
                        )),
                    );
                }
            }
        }
    };
}

/// Fails the current test case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l != *r,
                    "assertion failed: `(left != right)` — both `{:?}`",
                    l
                )
            }
        }
    };
}

/// Declares property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn parses(x in 0u64..100) { prop_assert!(x < 100); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        concat!(module_path!(), "::", stringify!($name)),
                        case as u64,
                    );
                    $(
                        let $arg =
                            $crate::strategy::Strategy::gen(&($strat), &mut rng);
                    )+
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject(_),
                        ) => {}
                        ::std::result::Result::Err(e) => {
                            panic!("proptest case #{case} of {}: {e}", stringify!($name));
                        }
                    }
                }
            }
        )*
    };
}
