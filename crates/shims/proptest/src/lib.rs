//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no registry access, so the real `proptest`
//! cannot be fetched. This shim keeps the workspace's property tests
//! source-compatible: the `proptest!` macro, `Strategy` with `prop_map` /
//! `prop_recursive` / `boxed`, ranges and tuples as strategies, `Just`,
//! `any`, `prop_oneof!`, and the `collection` / `sample` / `option`
//! modules. Differences from the real crate: generation is a plain
//! seeded PRNG (seeded from the test name, so runs are deterministic),
//! and failing cases are **not shrunk** — the panic message carries the
//! case number instead.

use std::marker::PhantomData;
use std::rc::Rc;

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from a test name (FNV-1a), so every test has a
    /// stable, independent stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// The next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty choice");
        self.next_u64() % n
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-test configuration (`cases` is the only knob the shim honours).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
    /// Accepted for API compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// A generator of random values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }

    /// Builds recursive values: `expand` is applied `levels` times to the
    /// base strategy, so generated values nest at most `levels` deep. The
    /// `_total`/`_branch` size hints of the real API are accepted and
    /// ignored.
    fn prop_recursive<F, R>(
        self,
        levels: u32,
        _total: u32,
        _branch: u32,
        expand: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
        R: Strategy<Value = Self::Value> + 'static,
    {
        let mut strat: BoxedStrategy<Self::Value> = self.boxed();
        for _ in 0..levels {
            strat = expand(strat).boxed();
        }
        strat
    }
}

trait DynStrategy<V> {
    fn generate_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased [`Strategy`].
pub struct BoxedStrategy<V>(Rc<dyn DynStrategy<V>>);

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union of the given alternatives (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}
impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}
impl Arbitrary for i64 {
    fn arbitrary(rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}
impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}
impl Arbitrary for i32 {
    fn arbitrary(rng: &mut TestRng) -> i32 {
        rng.next_u64() as i32
    }
}
impl Arbitrary for usize {
    fn arbitrary(rng: &mut TestRng) -> usize {
        rng.next_u64() as usize
    }
}

/// Strategy for any value of an [`Arbitrary`] type.
pub struct Any<T>(PhantomData<T>);

/// `any::<T>()` — the canonical whole-domain strategy.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_range_strategies!(i32, i64, u32, u64, usize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident / $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6)
    (A/0, B/1, C/2, D/3, E/4, F/5, G/6, H/7)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// `Vec`s with a length drawn from `size` and elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.clone().generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `BTreeSet`s with **up to** `size` elements (duplicates collapse,
    /// as in the real crate).
    pub fn btree_set<S>(elem: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, size }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.clone().generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Uniform choice from a fixed list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from an empty list");
        Select { options }
    }

    /// See [`select`].
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use super::{Strategy, TestRng};

    /// `None` half the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// The glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Any, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };
}

/// Defines property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(stringify!($name));
            for __case in 0..__cfg.cases {
                // Mirrors the real macro: the body runs in a `Result`
                // context, so `return Ok(());` skips degenerate cases.
                let __run = || -> ::std::result::Result<(), ::std::string::String> {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    $body
                    Ok(())
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(__run)) {
                    Ok(Ok(())) => {}
                    Ok(Err(msg)) => panic!("proptest case {} of `{}`: {msg}", __case + 1, stringify!($name)),
                    Err(panic) => {
                        eprintln!(
                            "proptest case {}/{} of `{}` failed (no shrinking in the offline shim)",
                            __case + 1, __cfg.cases, stringify!($name),
                        );
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// `assert!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `assert_eq!` that reports through the property harness.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $($strat:expr),+ $(,)? ) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::from_name("bounds");
        let strat = (1usize..5, -3i64..3, 0.0f64..1.0);
        for _ in 0..200 {
            let (a, b, c) = Strategy::generate(&strat, &mut rng);
            assert!((1..5).contains(&a));
            assert!((-3..3).contains(&b));
            assert!((0.0..1.0).contains(&c));
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf,
            Node(Box<T>),
        }
        fn depth(t: &T) -> u32 {
            match t {
                T::Leaf => 0,
                T::Node(i) => 1 + depth(i),
            }
        }
        let strat = Just(T::Leaf).prop_recursive(3, 8, 2, |inner| {
            prop_oneof![inner.clone().prop_map(|t| T::Node(Box::new(t))), inner]
        });
        let mut rng = TestRng::from_name("recursion");
        for _ in 0..100 {
            assert!(depth(&strat.generate(&mut rng)) <= 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        #[test]
        fn the_macro_binds_arguments(x in 0u64..100, ys in crate::collection::vec(0i64..5, 0..4)) {
            prop_assert!(x < 100);
            prop_assert!(ys.len() < 4);
            prop_assert_eq!(ys.iter().sum::<i64>(), ys.iter().copied().sum(), "sum mismatch on {:?}", ys);
        }
    }
}
