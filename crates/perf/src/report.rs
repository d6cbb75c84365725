//! Report generators for the paper's tables and figures.
//!
//! * [`table1`] — the algorithm cost table (Table 1),
//! * [`algorithm_breakdown`] / [`figure5`] — relative share of processing
//!   time per algorithm in the pure-software variant (Figure 5),
//! * [`architecture_comparison`] — total processing time of the SW, SW/HW
//!   and HW variants for one use case (Figure 6 for the Music Player,
//!   Figure 7 for the Ringtone), computed from the **analytic** operation
//!   model,
//! * [`measured_architecture_comparison`] — the same comparison computed
//!   from **measured** protocol runs: the DRM Agent executes on each
//!   variant's crypto backend and the backend's own cycle bill is reported,
//! * [`consistency_check`] — the measured-vs-analytic cross-check
//!   (the paper's approximation holds when the two agree),
//! * [`energy_comparison`] — the energy ∝ cycles estimate of §3.
//!
//! Every report implements [`std::fmt::Display`] so this crate's `repro`
//! binary can print the same rows/series the paper reports, next to the
//! paper's own totals ([`FIGURE6_PAPER_MS`], [`FIGURE7_PAPER_MS`]).

use crate::analytic;
use crate::arch::millis;
use crate::cost::CostTable;
use crate::energy::EnergyModel;
use crate::runner;
use crate::usecase::UseCaseSpec;
use oma_crypto::backend::CryptoBackend;
use oma_crypto::Algorithm;
use oma_drm::DrmError;
use std::fmt;
use std::sync::Arc;

/// A formatted view of the cost table (the paper's Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Report {
    rows: Vec<Table1Row>,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Algorithm the row describes.
    pub algorithm: Algorithm,
    /// Software cost rendered like the paper ("offset + per-block/128 bit").
    pub software: String,
    /// Hardware cost rendered like the paper.
    pub hardware: String,
}

fn render_cost(cost: crate::cost::AlgorithmCost, unit: &str) -> String {
    if cost.offset_cycles == 0 {
        format!("{}/{unit}", cost.per_block_cycles)
    } else {
        format!("{} + {}/{unit}", cost.offset_cycles, cost.per_block_cycles)
    }
}

/// Builds the Table 1 report from a cost table.
pub fn table1(table: &CostTable) -> Table1Report {
    let rows = Algorithm::ALL
        .into_iter()
        .map(|algorithm| {
            let unit = match algorithm {
                Algorithm::RsaPublic | Algorithm::RsaPrivate => "1024 bit",
                _ => "128 bit",
            };
            Table1Row {
                algorithm,
                software: render_cost(table.software(algorithm), unit),
                hardware: render_cost(table.hardware(algorithm), unit),
            }
        })
        .collect();
    Table1Report { rows }
}

impl Table1Report {
    /// The rows in Table 1 order.
    pub fn rows(&self) -> &[Table1Row] {
        &self.rows
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<26} {:>28} {:>22}",
            "Algorithm", "Software [cycles]", "Hardware [cycles]"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<26} {:>28} {:>22}",
                row.algorithm.label(),
                row.software,
                row.hardware
            )?;
        }
        Ok(())
    }
}

/// The algorithm categories shown in Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakdownCategory {
    /// RSA public-key operations.
    PkiPublicKeyOp,
    /// RSA private-key operations.
    PkiPrivateKeyOp,
    /// AES decryption (content and key unwrapping).
    AesDecryption,
    /// SHA-1 hashing.
    Sha1,
    /// Everything else (AES encryption for re-wrapping, HMAC).
    Other,
}

impl BreakdownCategory {
    /// All categories, legend order of Figure 5.
    pub const ALL: [BreakdownCategory; 5] = [
        BreakdownCategory::PkiPublicKeyOp,
        BreakdownCategory::PkiPrivateKeyOp,
        BreakdownCategory::AesDecryption,
        BreakdownCategory::Sha1,
        BreakdownCategory::Other,
    ];

    /// Figure legend label.
    pub fn label(&self) -> &'static str {
        match self {
            BreakdownCategory::PkiPublicKeyOp => "PKI Public Key Operation",
            BreakdownCategory::PkiPrivateKeyOp => "PKI Private Key Operation",
            BreakdownCategory::AesDecryption => "AES Decryption",
            BreakdownCategory::Sha1 => "SHA-1",
            BreakdownCategory::Other => "Other",
        }
    }

    fn of(algorithm: Algorithm) -> Self {
        match algorithm {
            Algorithm::RsaPublic => BreakdownCategory::PkiPublicKeyOp,
            Algorithm::RsaPrivate => BreakdownCategory::PkiPrivateKeyOp,
            Algorithm::AesDecrypt => BreakdownCategory::AesDecryption,
            Algorithm::Sha1 => BreakdownCategory::Sha1,
            Algorithm::AesEncrypt | Algorithm::HmacSha1 => BreakdownCategory::Other,
        }
    }
}

impl fmt::Display for BreakdownCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-algorithm share of total software processing time for one use
/// case (one bar of Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmBreakdown {
    /// Use case name.
    pub use_case: String,
    /// Total cycles in the pure-software variant.
    pub total_cycles: u64,
    /// Percentage share per category (sums to 100).
    pub shares: Vec<(BreakdownCategory, f64)>,
}

impl AlgorithmBreakdown {
    /// The share of one category in percent.
    pub fn share(&self, category: BreakdownCategory) -> f64 {
        self.shares
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }
}

impl fmt::Display for AlgorithmBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (software variant, {} cycles total)",
            self.use_case, self.total_cycles
        )?;
        for (category, share) in &self.shares {
            writeln!(f, "  {:<28} {:>6.1} %", category.label(), share)?;
        }
        Ok(())
    }
}

/// Computes the Figure 5 breakdown for one use case using the analytic
/// operation model and `table`'s software column.
pub fn algorithm_breakdown(spec: &UseCaseSpec, table: &CostTable) -> AlgorithmBreakdown {
    let traces = analytic::phase_traces(spec);
    let per_algorithm: Vec<(Algorithm, u64)> = traces
        .total(spec.accesses())
        .iter()
        .map(|(alg, count)| (alg, table.software(alg).cycles(count)))
        .collect();
    let total: u64 = per_algorithm.iter().map(|(_, c)| *c).sum();

    let mut shares = Vec::with_capacity(BreakdownCategory::ALL.len());
    for category in BreakdownCategory::ALL {
        let cycles: u64 = per_algorithm
            .iter()
            .filter(|(alg, _)| BreakdownCategory::of(*alg) == category)
            .map(|(_, c)| *c)
            .sum();
        shares.push((category, cycles as f64 / total as f64 * 100.0));
    }
    AlgorithmBreakdown {
        use_case: spec.name().to_string(),
        total_cycles: total,
        shares,
    }
}

/// The full Figure 5: one breakdown per use case.
pub fn figure5(table: &CostTable) -> Vec<AlgorithmBreakdown> {
    UseCaseSpec::paper_use_cases()
        .iter()
        .map(|spec| algorithm_breakdown(spec, table))
        .collect()
}

/// Total processing time of each architecture variant for one use case
/// (Figure 6 / Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureComparison {
    /// Use case name.
    pub use_case: String,
    /// Per-variant results `(name, cycles, milliseconds)`.
    pub entries: Vec<(String, u64, f64)>,
}

impl ArchitectureComparison {
    /// Total milliseconds for the named variant.
    pub fn total_millis(&self, variant: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(name, _, _)| name == variant)
            .map(|(_, _, ms)| *ms)
    }

    /// Total cycles for the named variant.
    pub fn total_cycles(&self, variant: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|(name, _, _)| name == variant)
            .map(|(_, cycles, _)| *cycles)
    }

    /// Speed-up of `fast` over `slow` (wall-clock ratio).
    pub fn speedup(&self, slow: &str, fast: &str) -> Option<f64> {
        Some(self.total_millis(slow)? / self.total_millis(fast)?)
    }
}

impl fmt::Display for ArchitectureComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} use case", self.use_case)?;
        writeln!(f, "{:<8} {:>16} {:>12}", "Variant", "Cycles", "Time [ms]")?;
        for (name, cycles, ms) in &self.entries {
            writeln!(f, "{:<8} {:>16} {:>12.1}", name, cycles, ms)?;
        }
        Ok(())
    }
}

/// The paper's Figure 6 totals (Music Player), in milliseconds per variant.
pub const FIGURE6_PAPER_MS: [(&str, f64); 3] = [("SW", 7_730.0), ("SW/HW", 800.0), ("HW", 190.0)];

/// The paper's Figure 7 totals (Ringtone), in milliseconds per variant.
pub const FIGURE7_PAPER_MS: [(&str, f64); 3] = [("SW", 900.0), ("SW/HW", 620.0), ("HW", 12.0)];

/// Evaluates one use case on a set of architecture variants using the
/// analytic operation model (Figures 6 and 7 of the paper): each variant's
/// price of the use case's trace.
pub fn architecture_comparison(
    spec: &UseCaseSpec,
    variants: &[Arc<dyn CryptoBackend>],
) -> ArchitectureComparison {
    let traces = analytic::phase_traces(spec);
    let total_trace = traces.total(spec.accesses());
    let entries = variants
        .iter()
        .map(|variant| {
            let cycles = variant.price(&total_trace);
            (variant.name().to_string(), cycles, millis(cycles))
        })
        .collect();
    ArchitectureComparison {
        use_case: spec.name().to_string(),
        entries,
    }
}

/// Evaluates one use case on a set of architecture variants by *executing*
/// the protocol on each variant's crypto backend (Figures 6 and 7 from
/// measured runs instead of the analytic model).
///
/// The reported cycles are the backend's price of what it executed during
/// the run (consumption measured once and scaled by the spec's access
/// count, like the paper's per-access accounting).
///
/// # Errors
///
/// Propagates any [`DrmError`] from the underlying protocol runs.
pub fn measured_architecture_comparison(
    spec: &UseCaseSpec,
    variants: &[Arc<dyn CryptoBackend>],
    seed: u64,
) -> Result<ArchitectureComparison, DrmError> {
    let entries = variants
        .iter()
        .map(|variant| {
            let run = runner::measure_use_case_on(spec, Arc::clone(variant), seed)?;
            let cycles = variant.price(&run.traces.total(spec.accesses()));
            Ok((variant.name().to_string(), cycles, millis(cycles)))
        })
        .collect::<Result<Vec<_>, DrmError>>()?;
    Ok(ArchitectureComparison {
        use_case: spec.name().to_string(),
        entries,
    })
}

/// The measured-vs-analytic cross-check for one use case: per variant, the
/// two totals and their relative deviation.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConsistency {
    /// Use case name.
    pub use_case: String,
    /// Per-variant rows `(name, measured ms, analytic ms, relative error)`.
    pub entries: Vec<(String, f64, f64, f64)>,
}

impl ModelConsistency {
    /// The largest relative deviation across variants.
    pub fn max_relative_error(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, _, _, e)| e.abs())
            .fold(0.0, f64::max)
    }

    /// Whether every variant agrees within `tolerance` (relative).
    pub fn agrees_within(&self, tolerance: f64) -> bool {
        self.max_relative_error() <= tolerance
    }
}

impl fmt::Display for ModelConsistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} use case: measured run vs analytic model",
            self.use_case
        )?;
        writeln!(
            f,
            "{:<8} {:>14} {:>14} {:>10}",
            "Variant", "Measured [ms]", "Analytic [ms]", "Delta"
        )?;
        for (name, measured, analytic, error) in &self.entries {
            writeln!(
                f,
                "{:<8} {:>14.1} {:>14.1} {:>9.1}%",
                name,
                measured,
                analytic,
                error * 100.0
            )?;
        }
        Ok(())
    }
}

/// Compares a measured comparison against the analytic one variant by
/// variant. Variants missing from either side are skipped.
pub fn consistency_check(
    measured: &ArchitectureComparison,
    analytic: &ArchitectureComparison,
) -> ModelConsistency {
    let entries = measured
        .entries
        .iter()
        .filter_map(|(name, _, measured_ms)| {
            let analytic_ms = analytic.total_millis(name)?;
            let error = (measured_ms - analytic_ms) / analytic_ms;
            Some((name.clone(), *measured_ms, analytic_ms, error))
        })
        .collect();
    ModelConsistency {
        use_case: measured.use_case.clone(),
        entries,
    }
}

/// Per-variant energy estimate for one use case (the §3 energy discussion).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyComparison {
    /// Use case name.
    pub use_case: String,
    /// Per-variant energy in millijoules.
    pub entries: Vec<(String, f64)>,
}

impl EnergyComparison {
    /// Millijoules for the named variant.
    pub fn millijoules(&self, variant: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(name, _)| name == variant)
            .map(|(_, mj)| *mj)
    }
}

impl fmt::Display for EnergyComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} use case (energy estimate)", self.use_case)?;
        writeln!(f, "{:<8} {:>14}", "Variant", "Energy [mJ]")?;
        for (name, mj) in &self.entries {
            writeln!(f, "{:<8} {:>14.3}", name, mj)?;
        }
        Ok(())
    }
}

/// Evaluates the energy model for one use case across architecture variants.
pub fn energy_comparison(
    spec: &UseCaseSpec,
    variants: &[Arc<dyn CryptoBackend>],
    model: &EnergyModel,
) -> EnergyComparison {
    let traces = analytic::phase_traces(spec);
    let total_trace = traces.total(spec.accesses());
    let entries = variants
        .iter()
        .map(|variant| {
            (
                variant.name().to_string(),
                model.millijoules(&total_trace, variant.as_ref()),
            )
        })
        .collect();
    EnergyComparison {
        use_case: spec.name().to_string(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::standard_variants;

    fn within(actual: f64, expected: f64, tolerance: f64) -> bool {
        (actual - expected).abs() / expected <= tolerance
    }

    #[test]
    fn table1_report_lists_all_algorithms() {
        let report = table1(&CostTable::paper());
        assert_eq!(report.rows().len(), 6);
        let text = report.to_string();
        assert!(text.contains("AES Decryption"));
        assert!(text.contains("37740000/1024 bit"));
        assert!(text.contains("950 + 830/128 bit"));
        assert!(text.contains("Hardware"));
    }

    #[test]
    fn figure6_music_player_matches_paper_within_15_percent() {
        let comparison = architecture_comparison(
            &UseCaseSpec::music_player(),
            &standard_variants(&CostTable::paper()),
        );
        for (variant, expected) in FIGURE6_PAPER_MS {
            let actual = comparison.total_millis(variant).unwrap();
            assert!(
                within(actual, expected, 0.15),
                "Music Player {variant}: model {actual:.0} ms vs paper {expected} ms"
            );
        }
        assert!(comparison.to_string().contains("Music Player"));
    }

    #[test]
    fn figure7_ringtone_matches_paper_within_15_percent() {
        let comparison = architecture_comparison(
            &UseCaseSpec::ringtone(),
            &standard_variants(&CostTable::paper()),
        );
        for (variant, expected) in FIGURE7_PAPER_MS {
            let actual = comparison.total_millis(variant).unwrap();
            assert!(
                within(actual, expected, 0.15),
                "Ringtone {variant}: model {actual:.1} ms vs paper {expected} ms"
            );
        }
    }

    #[test]
    fn figure6_headline_speedups_hold() {
        // "total processing time can be cut to almost a tenth ... by
        // realizing AES and SHA-1 as dedicated hardware macros".
        let comparison = architecture_comparison(
            &UseCaseSpec::music_player(),
            &standard_variants(&CostTable::paper()),
        );
        let sw_over_hybrid = comparison.speedup("SW", "SW/HW").unwrap();
        assert!(
            sw_over_hybrid > 8.0 && sw_over_hybrid < 12.0,
            "got {sw_over_hybrid}"
        );
        assert!(comparison.speedup("SW", "HW").unwrap() > 30.0);
        assert!(comparison.total_cycles("SW").unwrap() > comparison.total_cycles("HW").unwrap());
    }

    #[test]
    fn figure7_pki_hardware_is_the_significant_step() {
        // "In the Ringtone use case, the significant step occurs when
        // providing PKI hardware support."
        let comparison = architecture_comparison(
            &UseCaseSpec::ringtone(),
            &standard_variants(&CostTable::paper()),
        );
        let sw_to_hybrid = comparison.speedup("SW", "SW/HW").unwrap();
        let hybrid_to_hw = comparison.speedup("SW/HW", "HW").unwrap();
        assert!(
            sw_to_hybrid < 2.0,
            "AES/SHA-1 acceleration alone buys little: {sw_to_hybrid}"
        );
        assert!(
            hybrid_to_hw > 20.0,
            "PKI acceleration is the big step: {hybrid_to_hw}"
        );
    }

    #[test]
    fn pki_total_is_roughly_600ms_in_software() {
        // §4: the PKI operations "total to roughly 600ms" and are identical
        // for both use cases because they do not depend on the DCF size.
        let table = CostTable::paper();
        for spec in [UseCaseSpec::music_player(), UseCaseSpec::ringtone()] {
            let breakdown = algorithm_breakdown(&spec, &table);
            let pki_share = breakdown.share(BreakdownCategory::PkiPrivateKeyOp)
                + breakdown.share(BreakdownCategory::PkiPublicKeyOp);
            let pki_ms =
                breakdown.total_cycles as f64 * pki_share / 100.0 / crate::arch::CLOCK_HZ as f64
                    * 1_000.0;
            assert!(
                (pki_ms - 600.0).abs() < 80.0,
                "{}: PKI total {pki_ms:.0} ms should be ~600 ms",
                spec.name()
            );
        }
    }

    #[test]
    fn figure5_shape_matches_paper() {
        let breakdowns = figure5(&CostTable::paper());
        assert_eq!(breakdowns.len(), 2);
        let ringtone = &breakdowns[0];
        let music = &breakdowns[1];
        assert_eq!(ringtone.use_case, "Ringtone");
        assert_eq!(music.use_case, "Music Player");

        // Ringtone: PKI private-key operations dominate.
        assert!(ringtone.share(BreakdownCategory::PkiPrivateKeyOp) > 50.0);
        // Music Player: AES decryption and SHA-1 dominate, PKI fades.
        assert!(music.share(BreakdownCategory::AesDecryption) > 50.0);
        assert!(music.share(BreakdownCategory::Sha1) > 20.0);
        assert!(music.share(BreakdownCategory::PkiPrivateKeyOp) < 10.0);

        for b in &breakdowns {
            let total: f64 = b.shares.iter().map(|(_, s)| s).sum();
            assert!(
                (total - 100.0).abs() < 1e-6,
                "{}: shares sum to {total}",
                b.use_case
            );
            assert!(!b.to_string().is_empty());
        }
    }

    #[test]
    fn measured_comparison_agrees_with_analytic_within_tolerance() {
        // The acceptance bar of the refactor: figures generated from
        // *measured* per-backend runs must match the analytic model within
        // the paper's approximation (protocol-message sizes are modelled
        // with representative constants, so a few percent of slack).
        let spec = UseCaseSpec::ringtone().with_rsa_modulus_bits(512);
        let variants = standard_variants(&CostTable::paper());
        let measured = measured_architecture_comparison(&spec, &variants, 7).unwrap();
        let analytic = architecture_comparison(&spec, &variants);
        let consistency = consistency_check(&measured, &analytic);
        assert_eq!(consistency.entries.len(), 3);
        assert!(
            consistency.agrees_within(0.10),
            "measured vs analytic deviates by {:.1}%:\n{consistency}",
            consistency.max_relative_error() * 100.0
        );
        assert!(consistency.to_string().contains("Measured"));
        // The measured figures preserve the paper's headline ordering.
        assert!(measured.total_millis("SW").unwrap() > measured.total_millis("SW/HW").unwrap());
        assert!(measured.speedup("SW/HW", "HW").unwrap() > 20.0);
    }

    #[test]
    fn consistency_check_skips_unmatched_variants() {
        let measured = ArchitectureComparison {
            use_case: "x".into(),
            entries: vec![("SW".into(), 100, 1.0), ("EXTRA".into(), 50, 0.5)],
        };
        let analytic = ArchitectureComparison {
            use_case: "x".into(),
            entries: vec![("SW".into(), 110, 1.1)],
        };
        let consistency = consistency_check(&measured, &analytic);
        assert_eq!(consistency.entries.len(), 1);
        let expected = (1.0f64 - 1.0 / 1.1).abs();
        assert!((consistency.max_relative_error() - expected).abs() < 1e-9);
        assert!(!consistency.agrees_within(0.01));
    }

    #[test]
    fn energy_comparison_tracks_time_under_proportional_model() {
        let variants = standard_variants(&CostTable::paper());
        let spec = UseCaseSpec::ringtone();
        let time = architecture_comparison(&spec, &variants);
        let energy = energy_comparison(&spec, &variants, &EnergyModel::proportional());
        let time_ratio = time.total_millis("SW").unwrap() / time.total_millis("HW").unwrap();
        let energy_ratio = energy.millijoules("SW").unwrap() / energy.millijoules("HW").unwrap();
        assert!((time_ratio - energy_ratio).abs() / time_ratio < 1e-9);
        assert!(energy.to_string().contains("Energy"));
    }
}
