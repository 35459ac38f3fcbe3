//! Virtual time for the discrete-event simulator.
//!
//! All simulator timestamps are microseconds since simulation start. Real
//! (wall-clock) time never leaks into simulated components, which keeps
//! every experiment bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (µs since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference between two times.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, micros: u64) -> SimTime {
        SimTime(self.0.saturating_add(micros))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, micros: u64) {
        self.0 = self.0.saturating_add(micros);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if us >= 1_000 {
            write!(f, "{:.1}ms", us as f64 / 1e3)
        } else {
            write!(f, "{us}µs")
        }
    }
}

/// Common duration constants, in microseconds.
pub mod durations {
    /// One second in µs.
    pub const SECOND: u64 = 1_000_000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(2);
        assert_eq!(t.as_micros(), 2_000);
        assert_eq!((t + 500).as_micros(), 2_500);
        assert_eq!(SimTime::from_secs(1) - t, 998_000);
        assert_eq!(t - SimTime::from_secs(1), 0, "saturating");
        assert_eq!(t.since(SimTime::ZERO), 2_000);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime(5).to_string(), "5µs");
        assert_eq!(SimTime(2_500).to_string(), "2.5ms");
        assert_eq!(SimTime(1_500_000).to_string(), "1.500s");
    }
}
