//! Minimal offline shim for the `proptest` crate.
//!
//! Implements the subset of the real API this workspace uses: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`boxed`, integer-range / tuple /
//! `Just` / union / collection strategies, `any::<T>()`, the
//! `proptest!`, `prop_oneof!`, `prop_assert!` and `prop_assert_eq!`
//! macros, and a [`test_runner::ProptestConfig`] with a case count.
//!
//! Differences from the real crate, chosen for zero dependencies:
//!
//! - **No shrinking.** A failing case reports the generated inputs
//!   verbatim instead of a minimized counterexample.
//! - **Deterministic by construction.** Each case's RNG is seeded from
//!   the test name and case index, so failures reproduce exactly on
//!   rerun with no persistence file.

pub mod test_runner {
    //! Case execution: configuration, error type, and the driver loop.

    use std::fmt;

    /// Run-time configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to execute per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case ran and an assertion failed.
        Fail(String),
        /// The inputs were rejected (e.g. `prop_assume!`); not a failure.
        Reject(String),
    }

    impl TestCaseError {
        /// An assertion failure with the given explanation.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// An input rejection with the given explanation.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
            }
        }
    }

    /// Result type for test bodies and helper functions (`?` support).
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic RNG handed to strategies (splitmix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG seeded for one specific test case.
        pub fn from_seed(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Outcome of one executed case, as produced by the `proptest!`
    /// macro expansion (which catches panics around the body).
    pub enum CaseOutcome {
        /// Body returned `Ok(())`.
        Pass,
        /// Body returned `Err` or tripped a `prop_assert!`.
        Fail(TestCaseError),
        /// Body panicked (plain `assert!` etc.); payload is re-thrown.
        Panic(Box<dyn std::any::Any + Send>),
    }

    /// FNV-1a, used to derive per-test seeds from the test name.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Drive `case` for `config.cases` iterations. The closure generates
    /// inputs from the RNG and runs the body, returning the inputs'
    /// debug rendering plus the outcome. Panics (like `#[test]` expects)
    /// on the first failing case, printing the inputs that caused it.
    pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> (String, CaseOutcome),
    {
        let base = fnv1a(name.as_bytes());
        let mut rejects = 0u32;
        let mut i = 0u32;
        let mut executed = 0u32;
        while executed < config.cases {
            let mut rng = TestRng::from_seed(base ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            let (inputs, outcome) = case(&mut rng);
            i += 1;
            match outcome {
                CaseOutcome::Pass => executed += 1,
                CaseOutcome::Fail(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    assert!(
                        rejects < 65_536,
                        "proptest {name}: too many rejected inputs"
                    );
                }
                CaseOutcome::Fail(TestCaseError::Fail(reason)) => {
                    panic!(
                        "proptest case failed: {name} (case {n}/{total})\n  \
                         inputs: {inputs}\n  cause: {reason}",
                        n = executed + 1,
                        total = config.cases,
                    );
                }
                CaseOutcome::Panic(payload) => {
                    eprintln!(
                        "proptest case panicked: {name} (case {n}/{total})\n  inputs: {inputs}",
                        n = executed + 1,
                        total = config.cases,
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies. Unlike the real crate there is no
    //! value tree: a strategy just produces a value from the RNG.

    use super::test_runner::TestRng;
    use std::fmt;

    /// Something that can generate random values of one type.
    pub trait Strategy {
        /// The type of value generated.
        type Value: fmt::Debug;

        /// Generate one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            O: fmt::Debug,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Erase the strategy's concrete type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + fmt::Debug>(pub T);

    impl<T: Clone + fmt::Debug> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        O: fmt::Debug,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.new_value(rng))
        }
    }

    /// Object-safe façade over [`Strategy`] for [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn dyn_value(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn dyn_value(&self, rng: &mut TestRng) -> S::Value {
            self.new_value(rng)
        }
    }

    /// A type-erased strategy (see [`Strategy::boxed`]).
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

    impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.dyn_value(rng)
        }
    }

    /// Weighted choice among strategies; built by `prop_oneof!`.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Build from `(weight, strategy)` arms. Weights must not all
        /// be zero.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|&(w, _)| w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one nonzero weight");
            Union { arms, total }
        }
    }

    impl<T: fmt::Debug> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.next_u64() % self.total;
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm.new_value(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights summed to total")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    (self.start as u128 + (rng.next_u64() as u128 % span)) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as u128, *self.end() as u128);
                    assert!(lo <= hi, "empty range strategy");
                    (lo + (rng.next_u64() as u128 % (hi - lo + 1))) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($S:ident . $idx:tt),+) => {
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
}

pub mod arbitrary {
    //! `any::<T>()` — canonical full-domain strategies per type.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical strategy covering their whole domain.
    pub trait Arbitrary: Sized + std::fmt::Debug {
        /// The strategy `any::<Self>()` returns.
        type Strategy: Strategy<Value = Self>;
        /// Construct that strategy.
        fn arbitrary() -> Self::Strategy;
    }

    /// The canonical strategy for `T` (uniform over its whole domain).
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Full-domain strategy for primitives (see [`any`]).
    #[derive(Debug, Default, Clone, Copy)]
    pub struct AnyPrimitive<T>(PhantomData<T>);

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Strategy for AnyPrimitive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
            impl Arbitrary for $t {
                type Strategy = AnyPrimitive<$t>;
                fn arbitrary() -> Self::Strategy {
                    AnyPrimitive(PhantomData)
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for AnyPrimitive<bool> {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    impl Arbitrary for bool {
        type Strategy = AnyPrimitive<bool>;
        fn arbitrary() -> Self::Strategy {
            AnyPrimitive(PhantomData)
        }
    }
}

pub mod collection {
    //! Strategies for collections (`prop::collection::vec`).

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a test file needs via `use proptest::prelude::*;`.

    /// The crate itself, so `prop::collection::vec(...)` resolves.
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Define property tests. Supports the real crate's common form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..10, v in prop::collection::vec(any::<bool>(), 1..4)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
///
/// Bodies run inside a `Result`-returning closure, so helper functions
/// returning [`test_runner::TestCaseResult`] compose with `?`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_cases! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (config = $config:expr;) => {};
    (
        config = $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_proptest(
                $config,
                concat!(module_path!(), "::", stringify!($name)),
                |rng| {
                    $(
                        let $arg = $crate::strategy::Strategy::new_value(&($strat), rng);
                    )+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; ",)+),
                        $(&$arg),+
                    );
                    let outcome = match ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(
                            move || -> $crate::test_runner::TestCaseResult {
                                $body
                                ::std::result::Result::Ok(())
                            },
                        ),
                    ) {
                        ::std::result::Result::Ok(::std::result::Result::Ok(())) => {
                            $crate::test_runner::CaseOutcome::Pass
                        }
                        ::std::result::Result::Ok(::std::result::Result::Err(e)) => {
                            $crate::test_runner::CaseOutcome::Fail(e)
                        }
                        ::std::result::Result::Err(p) => {
                            $crate::test_runner::CaseOutcome::Panic(p)
                        }
                    };
                    (inputs, outcome)
                },
            );
        }
        $crate::__proptest_cases! { config = $config; $($rest)* }
    };
}

/// Weighted (`w => strat`) or unweighted choice among strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Like `assert!`, but returns a [`test_runner::TestCaseError`] so the
/// runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Like `assert_eq!`, but returns a [`test_runner::TestCaseError`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `left == right`\n  left: {l:?}\n right: {r:?}"),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "{}\n  left: {l:?}\n right: {r:?}",
                    format!($($fmt)*),
                ),
            ));
        }
    }};
}

/// Like `assert_ne!`, but returns a [`test_runner::TestCaseError`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {l:?}"
            )));
        }
    }};
}

/// Reject the current inputs (not a failure; the case is re-drawn).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Op {
        A(u16),
        B(u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0u16..6).prop_map(Op::A),
            1 => (0u8..8).prop_map(Op::B),
        ]
    }

    fn helper(v: &[Op]) -> TestCaseResult {
        prop_assert!(!v.is_empty(), "vec strategy must honor min size");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges stay in bounds; vec sizes stay in range; `?` works.
        #[test]
        fn ranges_and_vecs(
            x in 3u32..17,
            ops in prop::collection::vec(op(), 1..9),
            flag in any::<bool>(),
        ) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..9).contains(&ops.len()));
            for o in &ops {
                match *o {
                    Op::A(t) => prop_assert!(t < 6),
                    Op::B(n) => prop_assert!(n < 8),
                }
            }
            let _ = flag;
            helper(&ops)?;
        }

        #[test]
        fn tuples_and_just(pair in (0u64..10, Just(7i32)), z in any::<u64>()) {
            prop_assert_eq!(pair.1, 7);
            prop_assert!(pair.0 < 10);
            let _ = z;
        }
    }

    #[test]
    fn determinism_same_seed_same_values() {
        let s = prop::collection::vec((0u64..100, any::<bool>()), 1..20);
        let mut r1 = crate::test_runner::TestRng::from_seed(42);
        let mut r2 = crate::test_runner::TestRng::from_seed(42);
        assert_eq!(s.new_value(&mut r1), s.new_value(&mut r2));
    }

    #[test]
    #[should_panic(expected = "proptest case failed")]
    fn failing_case_reports_inputs() {
        // No #[test] meta here: the fn is nested and invoked directly.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0u32..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }

    #[test]
    fn union_respects_zero_pick_weighting() {
        // Weighted union never yields an arm with weight 0 share beyond
        // its slot: here all weight on arm A.
        let s = prop_oneof![10 => Just(1u8), 1 => Just(2u8)];
        let mut rng = crate::test_runner::TestRng::from_seed(7);
        let mut saw_a = false;
        for _ in 0..64 {
            match s.new_value(&mut rng) {
                1 => saw_a = true,
                2 => {}
                _ => unreachable!(),
            }
        }
        assert!(saw_a);
    }
}
