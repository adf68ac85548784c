#![warn(missing_docs)]
//! # datacase-sim
//!
//! Deterministic simulation substrate for the Data-CASE reproduction.
//!
//! The paper's evaluation reports wall-clock completion times measured on a
//! specific VM. Absolute numbers are testbed artifacts; the *shapes* of the
//! figures come from counts of mechanical work (pages read, tuples scanned,
//! bytes encrypted, log records appended). This crate provides:
//!
//! * [`clock::SimClock`] — a logical clock that accumulates simulated
//!   nanoseconds as work is charged to it;
//! * [`cost::CostModel`] — per-operation costs calibrated to commodity
//!   hardware constants, so simulated completion times land in realistic
//!   magnitudes;
//! * [`clock::Meter`] — event counters (page I/O, tuple CPU, crypto bytes …)
//!   that benches report next to times;
//! * [`rng`] — seeded RNG helpers so every experiment is reproducible;
//! * [`fault`] — the deterministic crash-injection plane the chaos
//!   harness arms (free when disabled);
//! * [`zipf::Zipfian`] — the YCSB-style skewed key sampler;
//! * [`report`] — minimal fixed-width table rendering used by the `repro`
//!   harness (no serialization dependency needed).

pub mod clock;
pub mod cost;
pub mod fault;
pub mod report;
pub mod rng;
pub mod zipf;

pub use clock::{Meter, MeterSnapshot, SimClock};
pub use cost::CostModel;
pub use fault::{CrashPoint, CrashSignal, FaultInjector};
pub use time::{Dur, Ts};

pub mod time {
    //! Logical simulated time.
    //!
    //! All Data-CASE timestamps (policy windows `t_b..t_f`, action-history
    //! times, erasure deadlines) and all simulated durations use the same
    //! axis: nanoseconds since simulation start.

    use std::fmt;
    use std::ops::{Add, AddAssign, Sub};

    /// A point on the simulated time axis (nanoseconds since simulation start).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct Ts(pub u64);

    /// A span of simulated time (nanoseconds).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
    pub struct Dur(pub u64);

    impl Ts {
        /// The origin of simulated time.
        pub const ZERO: Ts = Ts(0);
        /// The far future; used for open-ended policy windows.
        pub const MAX: Ts = Ts(u64::MAX);

        /// Construct from whole simulated seconds.
        pub fn from_secs(s: u64) -> Ts {
            Ts(s.saturating_mul(1_000_000_000))
        }
        /// Construct from whole simulated milliseconds.
        pub fn from_millis(ms: u64) -> Ts {
            Ts(ms.saturating_mul(1_000_000))
        }
        /// Construct from whole simulated microseconds.
        pub fn from_micros(us: u64) -> Ts {
            Ts(us.saturating_mul(1_000))
        }
        /// This instant expressed in fractional seconds.
        pub fn as_secs_f64(self) -> f64 {
            self.0 as f64 / 1e9
        }
        /// This instant expressed in fractional milliseconds.
        pub fn as_millis_f64(self) -> f64 {
            self.0 as f64 / 1e6
        }
        /// Saturating difference `self - earlier`.
        pub fn since(self, earlier: Ts) -> Dur {
            Dur(self.0.saturating_sub(earlier.0))
        }
        /// True if `self` lies in the closed interval `[from, until]`.
        pub fn within(self, from: Ts, until: Ts) -> bool {
            from <= self && self <= until
        }
    }

    impl Dur {
        /// The zero-length span.
        pub const ZERO: Dur = Dur(0);

        /// Construct from whole simulated seconds.
        pub fn from_secs(s: u64) -> Dur {
            Dur(s.saturating_mul(1_000_000_000))
        }
        /// Construct from whole simulated milliseconds.
        pub fn from_millis(ms: u64) -> Dur {
            Dur(ms.saturating_mul(1_000_000))
        }
        /// Construct from whole simulated microseconds.
        pub fn from_micros(us: u64) -> Dur {
            Dur(us.saturating_mul(1_000))
        }
        /// Construct from whole simulated nanoseconds.
        pub fn from_nanos(ns: u64) -> Dur {
            Dur(ns)
        }
        /// This span in fractional seconds.
        pub fn as_secs_f64(self) -> f64 {
            self.0 as f64 / 1e9
        }
        /// This span in fractional milliseconds.
        pub fn as_millis_f64(self) -> f64 {
            self.0 as f64 / 1e6
        }
        /// This span in fractional minutes.
        pub fn as_mins_f64(self) -> f64 {
            self.0 as f64 / 60e9
        }
        /// Scale the span by an integer factor, saturating.
        pub fn scaled(self, n: u64) -> Dur {
            Dur(self.0.saturating_mul(n))
        }
    }

    impl Add<Dur> for Ts {
        type Output = Ts;
        fn add(self, d: Dur) -> Ts {
            Ts(self.0.saturating_add(d.0))
        }
    }
    impl AddAssign<Dur> for Ts {
        fn add_assign(&mut self, d: Dur) {
            self.0 = self.0.saturating_add(d.0);
        }
    }
    impl Sub<Ts> for Ts {
        type Output = Dur;
        fn sub(self, rhs: Ts) -> Dur {
            Dur(self.0.saturating_sub(rhs.0))
        }
    }
    impl Add<Dur> for Dur {
        type Output = Dur;
        fn add(self, d: Dur) -> Dur {
            Dur(self.0.saturating_add(d.0))
        }
    }
    impl AddAssign<Dur> for Dur {
        fn add_assign(&mut self, d: Dur) {
            self.0 = self.0.saturating_add(d.0);
        }
    }

    impl fmt::Debug for Ts {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Ts({:.6}s)", self.as_secs_f64())
        }
    }
    impl fmt::Display for Ts {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
    impl fmt::Debug for Dur {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Dur({:.6}s)", self.as_secs_f64())
        }
    }
    impl fmt::Display for Dur {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.0 >= 60_000_000_000 {
                write!(f, "{:.2}min", self.as_mins_f64())
            } else if self.0 >= 1_000_000_000 {
                write!(f, "{:.3}s", self.as_secs_f64())
            } else {
                write!(f, "{:.3}ms", self.as_millis_f64())
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn ts_constructors_agree() {
            assert_eq!(Ts::from_secs(2), Ts(2_000_000_000));
            assert_eq!(Ts::from_millis(2_000), Ts::from_secs(2));
            assert_eq!(Ts::from_micros(2_000_000), Ts::from_secs(2));
        }

        #[test]
        fn ts_arithmetic_saturates() {
            assert_eq!(Ts::MAX + Dur::from_secs(1), Ts::MAX);
            assert_eq!(Ts::ZERO.since(Ts::from_secs(5)), Dur::ZERO);
        }

        #[test]
        fn within_is_closed_interval() {
            let t = Ts::from_secs(5);
            assert!(t.within(Ts::from_secs(5), Ts::from_secs(5)));
            assert!(t.within(Ts::ZERO, Ts::MAX));
            assert!(!t.within(Ts::from_secs(6), Ts::MAX));
            assert!(!t.within(Ts::ZERO, Ts::from_secs(4)));
        }

        #[test]
        fn dur_display_picks_unit() {
            assert_eq!(format!("{}", Dur::from_millis(5)), "5.000ms");
            assert_eq!(format!("{}", Dur::from_secs(5)), "5.000s");
            assert_eq!(format!("{}", Dur::from_secs(120)), "2.00min");
        }

        #[test]
        fn sub_gives_duration() {
            assert_eq!(Ts::from_secs(7) - Ts::from_secs(3), Dur::from_secs(4));
        }
    }
}
