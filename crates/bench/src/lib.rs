//! Shared helpers for the paper-artefact benches and the `repro` binary.
//!
//! The benches in `benches/` regenerate, one per file, every table and
//! figure of the paper's evaluation (the serving stack is measured by the
//! standalone `benchmark/` package, not here):
//!
//! | Bench | Paper artefact |
//! |---|---|
//! | `table1_algorithms` | Table 1 — per-algorithm cycle costs (model) plus host-measured software throughput of the from-scratch implementations |
//! | `fig5_breakdown` | Figure 5 — relative share of processing time per algorithm |
//! | `fig6_music_player` | Figure 6 — SW / SW+HW / HW totals, Music Player |
//! | `fig7_ringtone` | Figure 7 — SW / SW+HW / HW totals, Ringtone |
//! | `ablation_partitionings` | sensitivity study over single-accelerator partitionings |
//!
//! The `repro` binary prints the same rows/series as text so the numbers can
//! be compared against the paper without running Criterion.

use oma_drm::DrmError;
use oma_perf::arch::Architecture;
use oma_perf::cost::CostTable;
use oma_perf::report::{self, AlgorithmBreakdown, ArchitectureComparison, ModelConsistency};
use oma_perf::usecase::UseCaseSpec;

/// RSA modulus used by the *measured* experiments: small test keys keep the
/// runs fast, while the cost model still charges per 1024-bit operation
/// exactly as the paper's Table 1 does.
pub const MEASURED_RSA_BITS: usize = 512;

/// The model inputs every experiment shares.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The paper's Table 1 cost model.
    pub table: CostTable,
    /// The three architecture variants of the evaluation.
    pub variants: Vec<Architecture>,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            table: CostTable::paper(),
            variants: Architecture::standard_variants(),
        }
    }
}

impl Experiment {
    /// Creates the default experiment setup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Figure 6: the Music Player architecture comparison.
    pub fn figure6(&self) -> ArchitectureComparison {
        report::architecture_comparison(&UseCaseSpec::music_player(), &self.table, &self.variants)
    }

    /// Figure 7: the Ringtone architecture comparison.
    pub fn figure7(&self) -> ArchitectureComparison {
        report::architecture_comparison(&UseCaseSpec::ringtone(), &self.table, &self.variants)
    }

    /// Figure 5: both per-algorithm breakdowns.
    pub fn figure5(&self) -> Vec<AlgorithmBreakdown> {
        report::figure5(&self.table)
    }

    /// Figure 6 from *measured* protocol runs: the DRM Agent executes on
    /// each variant's crypto backend and the backend's cycle bill is
    /// reported.
    ///
    /// # Errors
    ///
    /// Propagates any [`DrmError`] from the protocol runs.
    pub fn measured_figure6(&self, seed: u64) -> Result<ArchitectureComparison, DrmError> {
        let spec = UseCaseSpec::music_player().with_rsa_modulus_bits(MEASURED_RSA_BITS);
        report::measured_architecture_comparison(&spec, &self.table, &self.variants, seed)
    }

    /// Figure 7 from *measured* protocol runs.
    ///
    /// # Errors
    ///
    /// Propagates any [`DrmError`] from the protocol runs.
    pub fn measured_figure7(&self, seed: u64) -> Result<ArchitectureComparison, DrmError> {
        let spec = UseCaseSpec::ringtone().with_rsa_modulus_bits(MEASURED_RSA_BITS);
        report::measured_architecture_comparison(&spec, &self.table, &self.variants, seed)
    }

    /// The measured-vs-analytic cross-check for one use case (runs the
    /// measured experiment, evaluates the analytic model, compares).
    ///
    /// # Errors
    ///
    /// Propagates any [`DrmError`] from the protocol runs.
    pub fn consistency(&self, spec: &UseCaseSpec, seed: u64) -> Result<ModelConsistency, DrmError> {
        let spec = spec.clone().with_rsa_modulus_bits(MEASURED_RSA_BITS);
        let measured =
            report::measured_architecture_comparison(&spec, &self.table, &self.variants, seed)?;
        let analytic = report::architecture_comparison(&spec, &self.table, &self.variants);
        Ok(report::consistency_check(&measured, &analytic))
    }
}

/// Paper reference values (milliseconds) for Figure 6 (Music Player).
pub const FIGURE6_PAPER_MS: [(&str, f64); 3] = [("SW", 7_730.0), ("SW/HW", 800.0), ("HW", 190.0)];

/// Paper reference values (milliseconds) for Figure 7 (Ringtone).
pub const FIGURE7_PAPER_MS: [(&str, f64); 3] = [("SW", 900.0), ("SW/HW", 620.0), ("HW", 12.0)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_reproduces_both_figures() {
        let experiment = Experiment::new();
        let fig6 = experiment.figure6();
        let fig7 = experiment.figure7();
        for (variant, expected) in FIGURE6_PAPER_MS {
            let actual = fig6.total_millis(variant).unwrap();
            assert!(
                (actual - expected).abs() / expected < 0.15,
                "{variant}: {actual} vs {expected}"
            );
        }
        for (variant, expected) in FIGURE7_PAPER_MS {
            let actual = fig7.total_millis(variant).unwrap();
            assert!(
                (actual - expected).abs() / expected < 0.15,
                "{variant}: {actual} vs {expected}"
            );
        }
        assert_eq!(experiment.figure5().len(), 2);
    }

    #[test]
    fn measured_ringtone_matches_paper_and_analytic() {
        let experiment = Experiment::new();
        let measured = experiment.measured_figure7(3).expect("measured run");
        // Measured per-backend runs land on the paper's Figure 7 values too.
        for (variant, expected) in FIGURE7_PAPER_MS {
            let actual = measured.total_millis(variant).unwrap();
            assert!(
                (actual - expected).abs() / expected < 0.15,
                "measured {variant}: {actual} vs paper {expected}"
            );
        }
        let consistency = experiment
            .consistency(&UseCaseSpec::ringtone(), 3)
            .expect("consistency run");
        assert!(
            consistency.agrees_within(0.10),
            "measured vs analytic:\n{consistency}"
        );
    }
}
