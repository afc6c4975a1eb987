//! Virtual time: the unit of simulated execution time.
//!
//! All simulated clocks and costs are expressed in microseconds as `f64`.
//! [`VTime`] is a thin newtype that documents intent and provides the few
//! operations the simulator needs (monotone max, addition of durations).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in microseconds since simulation start.
///
/// `VTime` is totally ordered (NaN never occurs: all durations are finite
/// and non-negative by construction).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct VTime(pub f64);

impl VTime {
    /// Simulation start.
    pub const ZERO: VTime = VTime(0.0);

    /// The time in microseconds.
    #[inline]
    pub fn us(self) -> f64 {
        self.0
    }

    /// The time in milliseconds.
    #[inline]
    pub fn ms(self) -> f64 {
        self.0 / 1e3
    }

    /// The time in seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0 / 1e6
    }

    /// Later of two times.
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }

    /// Earlier of two times.
    #[inline]
    pub fn min(self, other: VTime) -> VTime {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Raw bit representation, for comparing clocks bit for bit (the
    /// engine-equivalence tests pin final clocks this way).
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.0.to_bits()
    }
}

impl Add<f64> for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, us: f64) -> VTime {
        VTime(self.0 + us)
    }
}

impl AddAssign<f64> for VTime {
    #[inline]
    fn add_assign(&mut self, us: f64) {
        self.0 += us;
    }
}

impl Sub<VTime> for VTime {
    type Output = f64;
    #[inline]
    fn sub(self, other: VTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.0)
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.3}s", self.secs())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}ms", self.ms())
        } else {
            write!(f, "{:.1}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let t = VTime::ZERO + 5.0;
        assert_eq!(t.us(), 5.0);
        assert!(t > VTime::ZERO);
        assert_eq!(t.max(VTime(9.0)).us(), 9.0);
        assert_eq!(t.min(VTime(9.0)).us(), 5.0);
        assert_eq!(VTime(9.0) - t, 4.0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", VTime(1.5)), "1.5us");
        assert_eq!(format!("{}", VTime(1500.0)), "1.500ms");
        assert_eq!(format!("{}", VTime(2_500_000.0)), "2.500s");
    }
}
