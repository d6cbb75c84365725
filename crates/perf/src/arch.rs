//! Architecture variants: which algorithms run on dedicated hardware macros
//! and which on the general-purpose processor core.
//!
//! The paper evaluates three variants of the application-processor SoC, all
//! clocked at 200 MHz:
//!
//! * **SW** — every algorithm in software on the processor core,
//! * **SW/HW** — AES and SHA-1 (and therefore HMAC SHA-1) as hardware
//!   macros, RSA in software,
//! * **HW** — dedicated macros for every algorithm.
//!
//! A variant is an executable [`HwMacroBackend`]: the set of algorithms that
//! run as macros, priced in a [`CostTable`]'s columns. The analytic model
//! prices a trace with [`CryptoBackend::price`]; the measured runner
//! executes the protocol on the same backend.

use crate::cost::CostTable;
use oma_crypto::backend::{CryptoBackend, HwMacroBackend};
use oma_crypto::Algorithm;
use std::sync::Arc;

/// The clock frequency of the paper's application processor (200 MHz).
pub const CLOCK_HZ: u64 = 200_000_000;

/// The variant `name`: the algorithms in `macros` run as hardware macros,
/// every other one on the core, each priced in `table`'s column for it.
pub fn variant(table: &CostTable, name: &str, macros: &[Algorithm]) -> HwMacroBackend {
    HwMacroBackend::partitioned(
        name,
        macros,
        table.software_profile().clone(),
        table.hardware_profile().clone(),
    )
}

/// The three variants of the paper's evaluation, in figure order
/// (SW, SW/HW, HW).
pub fn standard_variants(table: &CostTable) -> Vec<Arc<dyn CryptoBackend>> {
    let hybrid = [
        Algorithm::AesEncrypt,
        Algorithm::AesDecrypt,
        Algorithm::Sha1,
        Algorithm::HmacSha1,
    ];
    vec![
        Arc::new(variant(table, "SW", &[])),
        Arc::new(variant(table, "SW/HW", &hybrid)),
        Arc::new(variant(table, "HW", &Algorithm::ALL)),
    ]
}

/// Wall-clock milliseconds `cycles` take at [`CLOCK_HZ`].
pub fn millis(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ as f64 * 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_crypto::backend::Realisation;
    use oma_crypto::OpTrace;

    fn sample_trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.record(Algorithm::AesDecrypt, 1, 1_000);
        t.record(Algorithm::Sha1, 1, 1_000);
        t.record(Algorithm::RsaPrivate, 2, 2);
        t
    }

    #[test]
    fn standard_variants_have_expected_assignments() {
        let variants = standard_variants(&CostTable::paper());
        let [sw, hybrid, hw] = &variants[..] else {
            panic!("three variants");
        };
        for alg in Algorithm::ALL {
            assert_eq!(sw.realisation(alg), Realisation::Software);
            assert_eq!(hw.realisation(alg), Realisation::HardwareMacro);
        }
        for alg in [Algorithm::AesDecrypt, Algorithm::Sha1, Algorithm::HmacSha1] {
            assert_eq!(hybrid.realisation(alg), Realisation::HardwareMacro);
        }
        assert_eq!(
            hybrid.realisation(Algorithm::RsaPrivate),
            Realisation::Software
        );
        let names: Vec<&str> = variants.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["SW", "SW/HW", "HW"]);
    }

    #[test]
    fn cycle_ordering_sw_ge_hybrid_ge_hw() {
        let trace = sample_trace();
        let cycles: Vec<u64> = standard_variants(&CostTable::paper())
            .iter()
            .map(|v| v.price(&trace))
            .collect();
        let [sw, hybrid, hw] = cycles[..] else {
            panic!("three variants");
        };
        assert!(sw > hybrid, "sw={sw} hybrid={hybrid}");
        assert!(hybrid > hw, "hybrid={hybrid} hw={hw}");
    }

    #[test]
    fn cycles_match_manual_computation() {
        let table = CostTable::paper();
        let trace = sample_trace();
        let expected_sw = (950 + 830 * 1_000) + 400 * 1_000 + 2 * 37_740_000;
        assert_eq!(variant(&table, "SW", &[]).price(&trace), expected_sw);
        let expected_hw = (10 + 10 * 1_000) + 20 * 1_000 + 2 * 260_000;
        assert_eq!(
            variant(&table, "HW", &Algorithm::ALL).price(&trace),
            expected_hw
        );
    }

    #[test]
    fn millis_uses_clock() {
        let mut trace = OpTrace::new();
        trace.record(Algorithm::RsaPrivate, 1, 1);
        let ms = millis(variant(&CostTable::paper(), "SW", &[]).price(&trace));
        assert!(
            (ms - 188.7).abs() < 0.1,
            "37.74 Mcycles at 200 MHz = 188.7 ms, got {ms}"
        );
    }

    #[test]
    fn per_algorithm_breakdown_sums_to_total() {
        let trace = sample_trace();
        for v in standard_variants(&CostTable::paper()) {
            let total: u64 = trace
                .iter()
                .map(|(alg, count)| v.cost(alg).cycles(count))
                .sum();
            assert_eq!(total, v.price(&trace), "{}", v.name());
        }
    }

    #[test]
    fn empty_trace_costs_nothing() {
        for v in standard_variants(&CostTable::paper()) {
            assert_eq!(v.price(&OpTrace::new()), 0);
        }
        assert_eq!(millis(0), 0.0);
    }

    #[test]
    fn custom_partitioning() {
        // RSA-only accelerator (the paper argues this is rarely worth it).
        let table = CostTable::paper();
        let rsa_only = variant(
            &table,
            "RSA-HW",
            &[Algorithm::RsaPublic, Algorithm::RsaPrivate],
        );
        assert_eq!(rsa_only.name(), "RSA-HW");
        assert_eq!(rsa_only.realisation(Algorithm::Sha1), Realisation::Software);
        assert_eq!(
            rsa_only.cost(Algorithm::Sha1),
            table.software(Algorithm::Sha1)
        );
        assert_eq!(
            rsa_only.realisation(Algorithm::RsaPrivate),
            Realisation::HardwareMacro
        );
        assert_eq!(
            rsa_only.cost(Algorithm::RsaPrivate),
            table.hardware(Algorithm::RsaPrivate)
        );
    }
}
