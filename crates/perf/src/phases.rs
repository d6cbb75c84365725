//! Per-phase operation traces.
//!
//! The paper decomposes the DRM life-cycle into four phases (§2.4):
//! Registration, Acquisition, Installation and Consumption. The first three
//! run once per license; Consumption runs once per access to the content.

use oma_crypto::OpTrace;
use std::fmt;

/// A life-cycle phase of OMA DRM 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Establishing trust with the Rights Issuer (4-pass ROAP).
    Registration,
    /// Acquiring the Rights Object (2-pass ROAP).
    Acquisition,
    /// Unwrapping and re-protecting the Rights Object keys on the device.
    Installation,
    /// Accessing the protected content (runs once per access).
    Consumption,
}

impl Phase {
    /// All phases in life-cycle order.
    pub const ALL: [Phase; 4] = [
        Phase::Registration,
        Phase::Acquisition,
        Phase::Installation,
        Phase::Consumption,
    ];

    /// Human-readable phase name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Registration => "registration",
            Phase::Acquisition => "acquisition",
            Phase::Installation => "installation",
            Phase::Consumption => "consumption",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The operation traces of one full use case: one trace per one-shot phase
/// plus the per-access consumption trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTraces {
    /// Registration-phase operations (once).
    pub registration: OpTrace,
    /// Acquisition-phase operations (once).
    pub acquisition: OpTrace,
    /// Installation-phase operations (once).
    pub installation: OpTrace,
    /// Consumption operations for a *single* access.
    pub consumption_per_access: OpTrace,
}

impl PhaseTraces {
    /// An empty set of traces.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace of one phase (consumption returns the per-access trace).
    pub fn phase(&self, phase: Phase) -> &OpTrace {
        match phase {
            Phase::Registration => &self.registration,
            Phase::Acquisition => &self.acquisition,
            Phase::Installation => &self.installation,
            Phase::Consumption => &self.consumption_per_access,
        }
    }

    /// Mutable access to a phase trace.
    pub fn phase_mut(&mut self, phase: Phase) -> &mut OpTrace {
        match phase {
            Phase::Registration => &mut self.registration,
            Phase::Acquisition => &mut self.acquisition,
            Phase::Installation => &mut self.installation,
            Phase::Consumption => &mut self.consumption_per_access,
        }
    }

    /// Merges another set of phase traces into this one, phase by phase.
    /// Fleet aggregation uses this: per-device traces sum into a fleet-wide
    /// per-phase total, and because trace addition commutes the aggregate is
    /// independent of the order devices finished in.
    pub fn merge(&mut self, other: &PhaseTraces) {
        self.registration.merge(&other.registration);
        self.acquisition.merge(&other.acquisition);
        self.installation.merge(&other.installation);
        self.consumption_per_access
            .merge(&other.consumption_per_access);
    }

    /// Combined trace of the one-shot phases (registration + acquisition +
    /// installation).
    pub fn setup_total(&self) -> OpTrace {
        self.registration
            .merged(&self.acquisition)
            .merged(&self.installation)
    }

    /// Total trace for the whole use case with `accesses` content accesses.
    pub fn total(&self, accesses: u64) -> OpTrace {
        self.setup_total()
            .merged(&self.consumption_per_access.scaled(accesses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_crypto::Algorithm;

    fn traces() -> PhaseTraces {
        let mut t = PhaseTraces::new();
        t.registration.record(Algorithm::RsaPrivate, 1, 1);
        t.registration.record(Algorithm::RsaPublic, 3, 3);
        t.acquisition.record(Algorithm::RsaPrivate, 1, 1);
        t.installation.record(Algorithm::RsaPrivate, 1, 1);
        t.consumption_per_access
            .record(Algorithm::AesDecrypt, 1, 100);
        t
    }

    #[test]
    fn phase_enumeration() {
        assert_eq!(Phase::ALL.len(), 4);
        assert_eq!(Phase::Registration.to_string(), "registration");
        assert_eq!(Phase::Consumption.name(), "consumption");
    }

    #[test]
    fn phase_accessors_are_consistent() {
        let mut t = traces();
        for phase in Phase::ALL {
            let snapshot = t.phase(phase).clone();
            assert_eq!(&snapshot, t.phase_mut(phase));
        }
    }

    #[test]
    fn setup_total_excludes_consumption() {
        let t = traces();
        let setup = t.setup_total();
        assert_eq!(setup.count(Algorithm::RsaPrivate).invocations, 3);
        assert_eq!(setup.count(Algorithm::AesDecrypt).blocks, 0);
    }

    #[test]
    fn total_scales_consumption_by_accesses() {
        let t = traces();
        let total = t.total(25);
        assert_eq!(total.count(Algorithm::RsaPrivate).invocations, 3);
        assert_eq!(total.count(Algorithm::AesDecrypt).blocks, 2_500);
        assert_eq!(t.total(0).count(Algorithm::AesDecrypt).blocks, 0);
    }

    #[test]
    fn merge_accumulates_phase_by_phase() {
        let mut merged = traces();
        merged.merge(&traces());
        for phase in Phase::ALL {
            assert_eq!(merged.phase(phase), &traces().phase(phase).scaled(2));
        }
    }
}
