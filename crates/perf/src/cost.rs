//! The paper's Table 1: execution cycle counts per cryptographic algorithm
//! for software and hardware realisations.
//!
//! Units follow the paper: symmetric and hash algorithms are charged a fixed
//! per-invocation offset (key scheduling for AES, fixed-length hashing for
//! HMAC) plus a cost per 128 bits of processed data; RSA operations are
//! charged per 1024-bit exponentiation.
//!
//! One correction is applied: the paper prints the software cost of the RSA
//! private-key operation as "3,774,0000" cycles. The value that reproduces
//! the paper's own Figures 6 and 7 is **37 740 000** cycles (a misplaced
//! comma); that value is used here and validated by the figure-reproduction
//! tests in `report.rs`.

use oma_crypto::backend::CostProfile;
use oma_crypto::provider::OpCount;
use oma_crypto::Algorithm;

pub use oma_crypto::backend::AlgorithmCost;

/// A full cost table: software and hardware cost profiles for every
/// algorithm. The profiles are the same [`CostProfile`] type the pluggable
/// crypto backends charge from, so the analytic model and the executing
/// backends share one source of truth for Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostTable {
    software: CostProfile,
    hardware: CostProfile,
}

impl CostTable {
    /// The calibrated cycle costs of the paper's Table 1.
    ///
    /// (The paper prints the software RSA private-key cost as "3,774,0000";
    /// the 37.74 Mcycle reading reproduces Figures 6/7 and is used here —
    /// see [`CostProfile::paper_software`].)
    pub fn paper() -> Self {
        CostTable {
            software: CostProfile::paper_software(),
            hardware: CostProfile::paper_hardware(),
        }
    }

    /// Builds a custom table (for ablations / sensitivity studies).
    pub fn custom(
        software: impl Fn(Algorithm) -> AlgorithmCost,
        hardware: impl Fn(Algorithm) -> AlgorithmCost,
    ) -> Self {
        CostTable {
            software: CostProfile::new(software),
            hardware: CostProfile::new(hardware),
        }
    }

    /// Software cost of `algorithm`.
    pub fn software(&self, algorithm: Algorithm) -> AlgorithmCost {
        self.software.cost(algorithm)
    }

    /// Hardware cost of `algorithm`.
    pub fn hardware(&self, algorithm: Algorithm) -> AlgorithmCost {
        self.hardware.cost(algorithm)
    }

    /// The full software cost column (for constructing backends).
    pub fn software_profile(&self) -> &CostProfile {
        &self.software
    }

    /// The full hardware cost column (for constructing backends).
    pub fn hardware_profile(&self) -> &CostProfile {
        &self.hardware
    }

    /// Speed-up factor hardware offers over software for one algorithm,
    /// processing `blocks` blocks in a single invocation.
    pub fn speedup(&self, algorithm: Algorithm, blocks: u64) -> f64 {
        let count = OpCount {
            invocations: 1,
            blocks,
        };
        let sw = self.software(algorithm).cycles(count) as f64;
        let hw = self.hardware(algorithm).cycles(count).max(1) as f64;
        sw / hw
    }
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_match_paper() {
        let t = CostTable::paper();
        assert_eq!(
            t.software(Algorithm::AesEncrypt),
            AlgorithmCost::new(360, 830)
        );
        assert_eq!(
            t.software(Algorithm::AesDecrypt),
            AlgorithmCost::new(950, 830)
        );
        assert_eq!(t.software(Algorithm::Sha1), AlgorithmCost::new(0, 400));
        assert_eq!(
            t.software(Algorithm::HmacSha1),
            AlgorithmCost::new(1_200, 400)
        );
        assert_eq!(t.software(Algorithm::RsaPublic).per_block_cycles, 2_160_000);
        assert_eq!(
            t.software(Algorithm::RsaPrivate).per_block_cycles,
            37_740_000
        );
        assert_eq!(t.hardware(Algorithm::AesEncrypt), AlgorithmCost::new(0, 10));
        assert_eq!(
            t.hardware(Algorithm::AesDecrypt),
            AlgorithmCost::new(10, 10)
        );
        assert_eq!(t.hardware(Algorithm::Sha1), AlgorithmCost::new(0, 20));
        assert_eq!(t.hardware(Algorithm::HmacSha1), AlgorithmCost::new(240, 20));
        assert_eq!(t.hardware(Algorithm::RsaPublic).per_block_cycles, 10_000);
        assert_eq!(t.hardware(Algorithm::RsaPrivate).per_block_cycles, 260_000);
        assert_eq!(CostTable::default(), t);
    }

    #[test]
    fn cycle_arithmetic() {
        let cost = AlgorithmCost::new(100, 10);
        assert_eq!(
            cost.cycles(OpCount {
                invocations: 2,
                blocks: 30
            }),
            2 * 100 + 30 * 10
        );
        assert_eq!(cost.cycles(OpCount::default()), 0);
    }

    #[test]
    fn software_trace_costing() {
        use oma_crypto::OpTrace;
        let t = CostTable::paper();
        let mut trace = OpTrace::new();
        trace.record(Algorithm::RsaPrivate, 1, 1);
        trace.record(Algorithm::Sha1, 1, 100);
        let cycles: u64 = trace
            .iter()
            .map(|(alg, count)| t.software(alg).cycles(count))
            .sum();
        assert_eq!(cycles, 37_740_000 + 40_000);
    }

    #[test]
    fn hardware_speedups_are_large_for_bulk_data() {
        let t = CostTable::paper();
        // Per-block speedups from Table 1: AES 83x, SHA-1 20x, RSA private ~145x.
        assert!(t.speedup(Algorithm::AesDecrypt, 10_000) > 80.0);
        assert!(t.speedup(Algorithm::Sha1, 10_000) >= 19.9);
        assert!(t.speedup(Algorithm::RsaPrivate, 1) > 100.0);
    }

    #[test]
    fn custom_table() {
        let t = CostTable::custom(|_| AlgorithmCost::new(1, 2), |_| AlgorithmCost::new(0, 1));
        assert_eq!(t.software(Algorithm::Sha1), AlgorithmCost::new(1, 2));
        assert_eq!(t.hardware(Algorithm::RsaPrivate), AlgorithmCost::new(0, 1));
    }
}
