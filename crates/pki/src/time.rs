//! Simulated time: timestamps and validity periods.
//!
//! All protocol components take the "current time" as an explicit parameter
//! so that experiments are deterministic and expiry / revocation behaviour
//! can be exercised in tests without waiting.

use std::fmt;

/// A point in time, in seconds since an arbitrary epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// Creates a timestamp from seconds since the epoch.
    pub fn new(seconds: u64) -> Self {
        Timestamp(seconds)
    }

    /// Seconds since the epoch.
    pub fn seconds(&self) -> u64 {
        self.0
    }

    /// Returns this timestamp advanced by `seconds`.
    pub fn plus(&self, seconds: u64) -> Self {
        Timestamp(self.0.saturating_add(seconds))
    }

    /// Canonical byte encoding used inside signed structures.
    pub fn to_bytes(&self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}s", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(seconds: u64) -> Self {
        Timestamp(seconds)
    }
}

/// A `[not_before, not_after]` validity window for certificates and
/// Rights Object datetime constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValidityPeriod {
    not_before: Timestamp,
    not_after: Timestamp,
}

impl ValidityPeriod {
    /// Creates a validity period.
    ///
    /// # Panics
    ///
    /// Panics if `not_after < not_before`; [`ValidityPeriod::try_new`] is
    /// the fallible form for untrusted input.
    pub fn new(not_before: Timestamp, not_after: Timestamp) -> Self {
        Self::try_new(not_before, not_after).expect("validity period ends before it begins")
    }

    /// Creates a validity period, or `None` if `not_after < not_before`.
    pub fn try_new(not_before: Timestamp, not_after: Timestamp) -> Option<Self> {
        (not_after >= not_before).then_some(ValidityPeriod {
            not_before,
            not_after,
        })
    }

    /// A period starting at `start` and lasting `duration_seconds`.
    pub fn starting_at(start: Timestamp, duration_seconds: u64) -> Self {
        Self::new(start, start.plus(duration_seconds))
    }

    /// Start of the window.
    pub fn not_before(&self) -> Timestamp {
        self.not_before
    }

    /// End of the window.
    pub fn not_after(&self) -> Timestamp {
        self.not_after
    }

    /// Whether `at` lies inside the window (inclusive on both ends).
    pub fn contains(&self, at: Timestamp) -> bool {
        at >= self.not_before && at <= self.not_after
    }

    /// Canonical byte encoding used inside signed structures.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.not_before.to_bytes());
        out[8..].copy_from_slice(&self.not_after.to_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::new(100);
        assert_eq!(t.seconds(), 100);
        assert_eq!(t.plus(50).seconds(), 150);
        assert_eq!(Timestamp::new(u64::MAX).plus(1).seconds(), u64::MAX);
        assert_eq!(Timestamp::from(7u64).seconds(), 7);
        assert_eq!(t.to_string(), "t+100s");
    }

    #[test]
    fn validity_containment() {
        let v = ValidityPeriod::new(Timestamp::new(10), Timestamp::new(20));
        assert!(!v.contains(Timestamp::new(9)));
        assert!(v.contains(Timestamp::new(10)));
        assert!(v.contains(Timestamp::new(15)));
        assert!(v.contains(Timestamp::new(20)));
        assert!(!v.contains(Timestamp::new(21)));
    }

    #[test]
    fn starting_at_builds_expected_window() {
        let v = ValidityPeriod::starting_at(Timestamp::new(1000), 3600);
        assert_eq!(v.not_before().seconds(), 1000);
        assert_eq!(v.not_after().seconds(), 4600);
    }

    #[test]
    #[should_panic(expected = "ends before it begins")]
    fn inverted_period_panics() {
        ValidityPeriod::new(Timestamp::new(2), Timestamp::new(1));
    }

    #[test]
    fn byte_encoding_is_stable() {
        let v = ValidityPeriod::new(Timestamp::new(1), Timestamp::new(2));
        let b = v.to_bytes();
        assert_eq!(b[7], 1);
        assert_eq!(b[15], 2);
    }
}
