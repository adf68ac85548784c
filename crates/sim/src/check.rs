//! Property checking: one generator, one shrinker.
//!
//! A property is a closure that draws its inputs from a [`Source`] and
//! panics when it fails. [`check`] runs it on `cases` fresh cases from
//! [`SplitMix64`], seeded by [`rng::child_seed`] over the property's
//! name, so every run of a property sees the same cases.
//!
//! Each case is a *choice sequence*: the `u64` every draw made, in order,
//! reduced to the draw's bound. When a case fails, the runner shrinks
//! that sequence rather than the values it produced (Hypothesis's
//! reducer; MacIver & Donaldson, "Test-Case Reduction via Test-Case
//! Generation", ECOOP 2020). It deletes spans of choices and lowers each
//! choice toward 0, keeping a candidate only if the property still fails
//! with a shortlex-smaller sequence. A replay that runs out of recorded
//! choices reads 0 for every further draw, so the generators themselves
//! decide what a shorter sequence means. The runner then panics with the
//! property's name, its seed and the shrunk sequence, and
//! [`replay`]`(&choices, prop)` re-runs that one case.

use std::cell::Cell;
use std::ops::{Bound, RangeBounds};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use crate::rng::{self, SplitMix64};

/// Most candidate runs one shrink may spend.
const SHRINK_RUNS: usize = 5_000;

/// Where a property's draws come from: fresh randomness, or a recorded
/// choice sequence being replayed.
#[derive(Debug)]
pub struct Source {
    rng: Option<SplitMix64>,
    prefix: Vec<u64>,
    choices: Vec<u64>,
}

/// The unsigned integer types [`Source::range`] draws.
pub trait Int: Copy {
    /// The type's largest value.
    const MAX: Self;
    /// Widen to `u64`.
    fn to_u64(self) -> u64;
    /// Narrow from a `u64` known to be in range.
    fn from_u64(v: u64) -> Self;
}

macro_rules! int {
    ($($t:ty),*) => {$(
        impl Int for $t {
            const MAX: $t = <$t>::MAX;
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> $t {
                v as $t
            }
        }
    )*};
}

int!(u8, u16, u32, u64, usize);

impl Source {
    fn new(rng: Option<SplitMix64>, prefix: Vec<u64>) -> Source {
        Source {
            rng,
            prefix,
            choices: Vec::new(),
        }
    }

    /// One choice in `[0, max]`. A bound with one value draws nothing.
    fn choose(&mut self, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        let v = match (self.prefix.get(self.choices.len()), &mut self.rng) {
            (Some(&v), _) => v.min(max),
            (None, Some(rng)) if max == u64::MAX => rng.next_u64(),
            (None, Some(rng)) => rng.next_below(max + 1),
            (None, None) => 0,
        };
        self.choices.push(v);
        v
    }

    /// The recorded sequence without trailing zeros, which a replay
    /// reads anyway.
    fn into_choices(mut self) -> Vec<u64> {
        while self.choices.last() == Some(&0) {
            self.choices.pop();
        }
        self.choices
    }

    /// 64 random bits.
    pub fn u64(&mut self) -> u64 {
        self.choose(u64::MAX)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.choose(bound - 1)
    }

    /// Uniform value in `range` (`..` is the type's whole domain).
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(v) => v.to_u64(),
            Bound::Excluded(v) => v.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(v) => v.to_u64(),
            Bound::Excluded(v) => v.to_u64().checked_sub(1).expect("empty range"),
            Bound::Unbounded => T::MAX.to_u64(),
        };
        assert!(lo <= hi, "empty range");
        T::from_u64(lo + self.choose(hi - lo))
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.choose(1) == 1
    }

    /// A `Vec` whose length is uniform in `len`, each element drawn by
    /// `element`.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut element: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| element(self)).collect()
    }

    /// `None` one time in four, else `Some` of a draw by `inner`.
    pub fn option<T>(&mut self, inner: impl FnOnce(&mut Source) -> T) -> Option<T> {
        (self.below(4) != 0).then(|| inner(self))
    }

    /// One of `options`, uniformly; shrinks toward the first.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize].clone()
    }
}

thread_local! {
    /// Set while this thread runs a case whose panic is expected.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `prop` on `src`; the recorded choices if it panicked.
fn fails(prop: &dyn Fn(&mut Source), mut src: Source) -> Option<Vec<u64>> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                loud(info)
            }
        }));
    });
    QUIET.set(true);
    let failed = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut src))).is_err();
    QUIET.set(false);
    failed.then(|| src.into_choices())
}

/// A failing case: which one, and its shrunk choice sequence.
struct Failure {
    seed: u64,
    case: u32,
    choices: Vec<u64>,
}

/// Runs up to `cases` cases of `prop`; the first failure, shrunk.
fn falsify(name: &str, cases: u32, prop: &dyn Fn(&mut Source)) -> Option<Failure> {
    let seed = rng::child_seed(0, name);
    let mut seeds = SplitMix64::new(seed);
    (0..cases).find_map(|case| {
        let src = Source::new(Some(SplitMix64::new(seeds.next_u64())), Vec::new());
        fails(prop, src).map(|choices| Failure {
            seed,
            case,
            choices: shrink(prop, choices),
        })
    })
}

fn shortlex_lt(a: &[u64], b: &[u64]) -> bool {
    (a.len(), a) < (b.len(), b)
}

/// Reduces a failing choice sequence: delete spans of 8, 4, 2 and 1
/// choices, then binary-search each choice down toward 0, until a whole
/// pass changes nothing or the run budget is spent.
fn shrink(prop: &dyn Fn(&mut Source), mut best: Vec<u64>) -> Vec<u64> {
    let mut runs = 0;
    // Keeps `candidate`'s recording if it still fails and is simpler.
    let mut improves = |candidate: Vec<u64>, best: &mut Vec<u64>| {
        if runs == SHRINK_RUNS {
            return false;
        }
        runs += 1;
        match fails(prop, Source::new(None, candidate)) {
            Some(got) if shortlex_lt(&got, best) => {
                *best = got;
                true
            }
            _ => false,
        }
    };
    loop {
        let before = best.clone();
        for span in [8, 4, 2, 1] {
            let mut i = 0;
            while i + span <= best.len() {
                let mut candidate = best.clone();
                candidate.drain(i..i + span);
                if !improves(candidate, &mut best) {
                    i += 1;
                }
            }
        }
        for i in 0..best.len() {
            let mut lo = 0;
            while let Some(&hi) = best.get(i).filter(|&&hi| lo < hi) {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = best.clone();
                candidate[i] = mid;
                if !improves(candidate, &mut best) {
                    lo = mid + 1;
                }
            }
        }
        if best == before {
            return best;
        }
    }
}

/// Runs `cases` cases of the property `name`; on a failure, shrinks it,
/// shows the shrunk case's own panic message and panics with the name,
/// the seed and the choice sequence [`replay`] takes.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Source)) {
    if let Some(f) = falsify(name, cases, &prop) {
        let _ = panic::catch_unwind(AssertUnwindSafe(|| replay(&f.choices, &prop)));
        panic!(
            "property {name} failed (seed {:#018x}, case {}); shrunk choices: {:?}",
            f.seed, f.case, f.choices
        );
    }
}

/// Re-runs `prop` on one recorded choice sequence, as [`check`] prints
/// it; draws past its end read 0.
pub fn replay(choices: &[u64], prop: impl FnOnce(&mut Source)) {
    prop(&mut Source::new(None, choices.to_vec()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_big_element(s: &mut Source) {
        let xs = s.vec(0..20, |s| s.range(0u64..1000));
        assert!(xs.iter().all(|&x| x < 100), "{xs:?}");
    }

    #[test]
    fn failing_property_shrinks_to_its_minimum() {
        let f = falsify("no_big_element", 64, &no_big_element).expect("a failing case");
        // One element (length choice 1), and it is exactly 100.
        assert_eq!(f.choices, [1, 100]);
        let mut src = Source::new(None, f.choices);
        assert_eq!(src.vec(0..20, |s| s.range(0u64..1000)), [100]);
    }

    #[test]
    fn replay_of_the_shrunk_sequence_fails_again() {
        let f = falsify("no_big_element", 64, &no_big_element).expect("a failing case");
        let replayed = panic::catch_unwind(|| replay(&f.choices, no_big_element));
        assert!(replayed.is_err());
        let panicked = panic::catch_unwind(|| check("no_big_element", 64, no_big_element));
        let msg = *panicked
            .expect_err("check panics")
            .downcast::<String>()
            .unwrap();
        assert!(
            msg.contains("no_big_element") && msg.ends_with("[1, 100]"),
            "{msg}"
        );
    }

    #[test]
    fn passing_property_runs_exactly_its_case_count() {
        let runs = Cell::new(0);
        check("counted", 17, |s| {
            runs.set(runs.get() + 1);
            assert!(s.range(3u8..=9) >= 3);
        });
        assert_eq!(runs.get(), 17);
    }

    #[test]
    fn case_stream_is_pinned() {
        // Every property's cases are drawn from this stream, so a change
        // to seeding or to any draw shows up here first.
        let h = Cell::new(0xcbf2_9ce4_8422_2325u64);
        check("pinned", 64, |s| {
            let draws = [
                s.u64(),
                s.below(10),
                s.range(5u32..=9).into(),
                s.bool().into(),
                s.vec(0..4, |s| s.range::<u8>(..)).len() as u64,
                s.option(|s| s.below(3)).unwrap_or(7),
                s.pick(&[11, 12, 13]),
            ];
            for d in draws {
                h.set((h.get() ^ d).wrapping_mul(0x100_0000_01b3));
            }
        });
        assert_eq!(h.get(), 0x0617_839a_136c_e140);
    }
}
