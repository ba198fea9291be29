#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # proptest (offline compatibility stand-in)
//!
//! The registry is unreachable in this build environment, so the real
//! `proptest` crate cannot be fetched. This crate implements the API
//! subset the workspace's property tests use: the [`proptest!`] macro,
//! the [`Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_recursive` / `boxed`, [`prop_oneof!`], regex-literal string
//! strategies (a character-class subset), integer-range strategies,
//! tuple strategies, and the `prop::{collection, option, sample, bool}`
//! modules.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   in the message; re-running is deterministic (cases are seeded from
//!   the test name), so failures reproduce exactly.
//! * **Regex strategies** support only sequences of character classes
//!   with optional `{m}` / `{m,n}` repetition — which covers every
//!   pattern in this repository.

use std::fmt::Debug;
use std::rc::Rc;

use rand::{Rng, SeedableRng};

/// The generator type threaded through all strategies.
pub type TestRng = rand::rngs::StdRng;

/// Runner configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A value generator: the core abstraction.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred` (regenerating on rejection).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            pred,
        }
    }

    /// Recursive strategy: `self` is the leaf; `branch` builds one level
    /// of nesting from a strategy for the level below. `depth` bounds
    /// the nesting level; the size hints are accepted for API
    /// compatibility and ignored.
    fn prop_recursive<S2, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S2: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S2,
    {
        let leaf = self.boxed();
        let mut current = leaf.clone();
        for _ in 0..depth {
            let level = branch(current).boxed();
            current = Union::new(vec![leaf.clone(), level]).boxed();
        }
        current
    }

    /// Type-erase into a clonable, shareable strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Object-safe generation, used behind [`BoxedStrategy`].
trait DynStrategy<T> {
    fn generate_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }

    fn boxed(self) -> BoxedStrategy<T> {
        self
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 10000 consecutive values: {}",
            self.reason
        );
    }
}

/// Uniform choice among same-typed strategies; what [`prop_oneof!`]
/// builds.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Choose uniformly among `arms` (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "Union of zero strategies");
        Union { arms }
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// A constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical whole-domain strategy (subset of upstream's
/// `Arbitrary`).
pub trait Arbitrary: Debug + Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.gen_range(<$t>::MIN..=<$t>::MAX)
            }
        }
    )*};
}

arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

/// Strategy for the whole domain of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// The whole-domain strategy for `T` — `any::<bool>()` etc.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);

// ---------------------------------------------------------------------
// Regex-literal string strategies.
// ---------------------------------------------------------------------

/// One `[class]{m,n}` atom of a pattern.
#[derive(Debug, Clone)]
struct RegexAtom {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

fn parse_class(pattern: &[char], mut i: usize) -> (Vec<char>, usize) {
    let mut chars = Vec::new();
    while i < pattern.len() && pattern[i] != ']' {
        let c = pattern[i];
        if i + 2 < pattern.len() && pattern[i + 1] == '-' && pattern[i + 2] != ']' {
            let hi = pattern[i + 2];
            assert!(c <= hi, "descending regex class range {c}-{hi}");
            for x in c..=hi {
                chars.push(x);
            }
            i += 3;
        } else {
            chars.push(c);
            i += 1;
        }
    }
    assert!(
        i < pattern.len(),
        "unterminated character class in regex strategy"
    );
    (chars, i + 1) // skip ']'
}

fn parse_repetition(pattern: &[char], i: usize) -> (usize, usize, usize) {
    if i < pattern.len() && pattern[i] == '{' {
        let close = pattern[i..]
            .iter()
            .position(|&c| c == '}')
            .expect("unterminated {m,n} in regex strategy")
            + i;
        let body: String = pattern[i + 1..close].iter().collect();
        let (min, max) = match body.split_once(',') {
            Some((lo, hi)) => (
                lo.parse().expect("bad {m,n} lower bound"),
                hi.parse().expect("bad {m,n} upper bound"),
            ),
            None => {
                let n = body.parse().expect("bad {m} count");
                (n, n)
            }
        };
        (min, max, close + 1)
    } else {
        (1, 1, i)
    }
}

fn parse_regex(pattern: &str) -> Vec<RegexAtom> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut atoms = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let (set, next) = match chars[i] {
            '[' => parse_class(&chars, i + 1),
            '\\' => {
                assert!(i + 1 < chars.len(), "trailing backslash in regex strategy");
                (vec![chars[i + 1]], i + 2)
            }
            c => {
                assert!(
                    !"(){}|*+?.^$".contains(c),
                    "unsupported regex construct {c:?} in strategy pattern {pattern:?}"
                );
                (vec![c], i + 1)
            }
        };
        let (min, max, next) = parse_repetition(&chars, next);
        assert!(min <= max, "descending repetition in {pattern:?}");
        atoms.push(RegexAtom {
            chars: set,
            min,
            max,
        });
        i = next;
    }
    atoms
}

impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in parse_regex(self) {
            let n = rng.gen_range(atom.min..=atom.max);
            for _ in 0..n {
                out.push(atom.chars[rng.gen_range(0..atom.chars.len())]);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// prop::{collection, option, sample, bool}
// ---------------------------------------------------------------------

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Size specification for [`vec`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.min..=self.size.max);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::*;

    /// `Some` three times out of four, `None` otherwise.
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
            if rng.gen_bool(0.75) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Sampling strategies.
pub mod sample {
    use super::*;

    /// Uniform choice from a fixed pool.
    pub fn select<T: Clone + Debug>(pool: Vec<T>) -> Select<T> {
        assert!(!pool.is_empty(), "select from empty pool");
        Select { pool }
    }

    /// See [`select`].
    pub struct Select<T> {
        pool: Vec<T>,
    }

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            self.pool[rng.gen_range(0..self.pool.len())].clone()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::*;

    /// `true` with probability `p`.
    pub fn weighted(p: f64) -> Weighted {
        Weighted { p }
    }

    /// See [`weighted`].
    pub struct Weighted {
        p: f64,
    }

    impl Strategy for Weighted {
        type Value = core::primitive::bool;

        fn generate(&self, rng: &mut TestRng) -> core::primitive::bool {
            rng.gen_bool(self.p)
        }
    }
}

/// The `prop::` namespace as the prelude exposes it.
pub mod prop {
    pub use crate::bool;
    pub use crate::collection;
    pub use crate::option;
    pub use crate::sample;
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy,
        Just, ProptestConfig, Strategy, Union,
    };
}

/// Seed a per-test generator from the test's name, so every property
/// is deterministic and independent of test ordering. The fold has
/// FNV-1a's shape and offset basis, but its multiplier
/// `0x1000_0000_01b3` is not the FNV prime `0x100_0000_01b3`, so the
/// seed is not the name's FNV-1a hash. The multiplier stays: changing
/// it would reseed every property test.
pub fn rng_for_test(name: &str) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    TestRng::seed_from_u64(h)
}

/// Assert inside a property; panics with the formatted message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("property assertion failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!(
                "property assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            );
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!("property assertion failed: left != right\n  left: {l:?}\n right: {r:?}");
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            panic!(
                "property assertion failed: left != right\n  left: {l:?}\n right: {r:?}\n  {}",
                format!($($fmt)+)
            );
        }
    }};
}

/// Uniform choice among strategy expressions of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

/// Define property tests: each case draws its arguments from the given
/// strategies and runs the body; any panic fails the test with the
/// case's inputs reproduced in the message.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::rng_for_test(concat!(module_path!(), "::", stringify!($name)));
                let strategy = ($($strat,)+);
                for __case in 0..config.cases {
                    let ($($arg,)+) = $crate::Strategy::generate(&strategy, &mut rng);
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_strategy_shapes() {
        let mut rng = crate::rng_for_test("regex");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-c]{2,4}", &mut rng);
            assert!((2..=4).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
            let t = Strategy::generate(&"[a-z][a-z0-9_]{0,8}", &mut rng);
            assert!(!t.is_empty() && t.len() <= 9);
            assert!(t.chars().next().unwrap().is_ascii_lowercase());
            let u = Strategy::generate(&"[ -~]{0,6}", &mut rng);
            assert!(u.bytes().all(|b| (0x20..=0x7e).contains(&b)));
        }
    }

    #[test]
    fn oneof_and_map_and_filter() {
        let mut rng = crate::rng_for_test("oneof");
        let strat = prop_oneof![(0i64..10).prop_map(|v| v * 2), Just(1i64),]
            .prop_filter("odd-or-small", |v| *v != 4);
        let mut saw_one = false;
        for _ in 0..300 {
            let v = Strategy::generate(&strat, &mut rng);
            assert!(v != 4);
            assert!(v == 1 || (v % 2 == 0 && (0..20).contains(&v)));
            saw_one |= v == 1;
        }
        assert!(saw_one);
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(i64),
            Node(Vec<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = (0i64..5)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
            });
        let mut rng = crate::rng_for_test("recursive");
        for _ in 0..200 {
            let t = Strategy::generate(&strat, &mut rng);
            assert!(depth(&t) <= 3, "{t:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_draws_all_args(a in 0u32..10, b in any::<bool>(), s in "[a-b]{1,3}") {
            prop_assert!(a < 10);
            prop_assert!(b || !b);
            prop_assert!(!s.is_empty() && s.len() <= 3, "bad len {}", s.len());
            prop_assert_eq!(s.clone(), s);
        }
    }

    #[test]
    fn option_and_sample_and_weighted() {
        let mut rng = crate::rng_for_test("misc");
        let opt = crate::option::of(0i64..3);
        let mut nones = 0;
        for _ in 0..400 {
            if Strategy::generate(&opt, &mut rng).is_none() {
                nones += 1;
            }
        }
        assert!(nones > 40 && nones < 200, "{nones}");
        let sel = crate::sample::select(vec!["x", "y"]);
        for _ in 0..50 {
            let v = Strategy::generate(&sel, &mut rng);
            assert!(v == "x" || v == "y");
        }
        let w = crate::bool::weighted(0.9);
        let trues = (0..400)
            .filter(|_| Strategy::generate(&w, &mut rng))
            .count();
        assert!(trues > 300);
    }
}
