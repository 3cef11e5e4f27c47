//! Simulated time: the [`Cycle`] clock type and [`Freq`] conversions.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, counted in processor clock cycles.
///
/// `Cycle` is also used for durations: the difference of two `Cycle`
/// values is a `Cycle`. All arithmetic is checked in debug builds and
/// saturating helpers are provided for the places where the simulator
/// computes slack.
///
/// # Example
///
/// ```
/// use plp_events::Cycle;
///
/// let start = Cycle::new(100);
/// let end = start + Cycle::new(40);
/// assert_eq!(end.get(), 140);
/// assert_eq!(end - start, Cycle::new(40));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);
    /// The largest representable time; used as "never".
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Subtracts, clamping at zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    #[inline]
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        iter.fold(Cycle::ZERO, Add::add)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

/// A clock frequency, used to convert wall-clock device timings
/// (nanoseconds, as NVM datasheets specify them) into processor cycles.
///
/// # Example
///
/// ```
/// use plp_events::Freq;
///
/// let cpu = Freq::ghz(4.0);
/// // A 150 ns NVM write occupies 600 CPU cycles at 4 GHz.
/// assert_eq!(cpu.cycles_for_ns(150.0).get(), 600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Freq {
    hz: f64,
}

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Freq { hz }
    }

    /// Creates a frequency from gigahertz.
    pub fn ghz(ghz: f64) -> Self {
        Freq::hz(ghz * 1.0e9)
    }

    /// Converts a duration in nanoseconds to clock cycles at this
    /// frequency, rounding up (a partially-used cycle is still busy).
    pub fn cycles_for_ns(self, ns: f64) -> Cycle {
        // Tolerate float noise: 12.5ns at 4GHz is exactly 50 cycles and
        // must not ceil to 51 because of a 1-ulp error in the product.
        let exact = ns * 1.0e-9 * self.hz;
        let rounded = exact.round();
        let cycles = if (exact - rounded).abs() < 1.0e-6 {
            rounded
        } else {
            exact.ceil()
        };
        Cycle::new(cycles as u64)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz >= 1.0e9 {
            write!(f, "{:.2}GHz", self.hz / 1.0e9)
        } else {
            write!(f, "{:.0}MHz", self.hz / 1.0e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(10);
        let b = Cycle::new(4);
        assert_eq!((a + b).get(), 14);
        assert_eq!((a - b).get(), 6);
        assert_eq!(a.max(b), a);
        assert_eq!(b.saturating_sub(a), Cycle::ZERO);
    }

    #[test]
    fn cycle_assign_ops() {
        let mut c = Cycle::new(5);
        c += Cycle::new(5);
        assert_eq!(c.get(), 10);
        c -= Cycle::new(3);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn cycle_sum_and_conversions() {
        let total: Cycle = [1u64, 2, 3].into_iter().map(Cycle::new).sum();
        assert_eq!(total, Cycle::new(6));
        assert_eq!(u64::from(Cycle::from(9u64)), 9);
    }

    #[test]
    fn cycle_display() {
        assert_eq!(Cycle::new(42).to_string(), "42cy");
    }

    #[test]
    fn freq_conversions_round_up() {
        let f = Freq::ghz(4.0);
        // 12.5 ns at 4 GHz is exactly 50 cycles.
        assert_eq!(f.cycles_for_ns(12.5).get(), 50);
        // 12.6 ns must round *up* to 51 cycles.
        assert_eq!(f.cycles_for_ns(12.6).get(), 51);
    }

    #[test]
    fn freq_display() {
        assert_eq!(Freq::ghz(4.0).to_string(), "4.00GHz");
        assert_eq!(Freq::hz(1.2e9).to_string(), "1.20GHz");
        assert_eq!(Freq::hz(8.0e8).to_string(), "800MHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn freq_rejects_zero() {
        let _ = Freq::hz(0.0);
    }
}
