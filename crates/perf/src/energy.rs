//! First-order energy model.
//!
//! The paper assumes "energy consumption to be directly related to processing
//! performance", i.e. energy ∝ cycles, and reports as future work that early
//! measurements suggest the hardware/software gap is *wider* for energy than
//! for time. [`EnergyModel`] captures both: by default one nanojoule per
//! software cycle and a configurable efficiency factor for hardware macros
//! (1.0 reproduces the paper's first-order assumption; values below 1.0
//! model the wider gap the authors anticipate).

use oma_crypto::backend::{CryptoBackend, Realisation};
use oma_crypto::OpTrace;

/// Energy-per-cycle parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy per cycle spent on the processor core, in nanojoules.
    pub software_nj_per_cycle: f64,
    /// Energy per cycle spent inside a hardware macro, in nanojoules.
    pub hardware_nj_per_cycle: f64,
}

impl Default for EnergyModel {
    /// The paper's first-order assumption: energy strictly proportional to
    /// cycles, identical per-cycle cost for both realisations.
    fn default() -> Self {
        EnergyModel {
            software_nj_per_cycle: 1.0,
            hardware_nj_per_cycle: 1.0,
        }
    }
}

impl EnergyModel {
    /// The paper's first-order model (energy ∝ cycles).
    pub fn proportional() -> Self {
        Self::default()
    }

    /// A model where hardware macros additionally consume `factor` times the
    /// per-cycle energy of the core (use `factor < 1` for the wider-gap
    /// hypothesis of the paper's future-work section).
    pub fn with_hardware_factor(factor: f64) -> Self {
        EnergyModel {
            software_nj_per_cycle: 1.0,
            hardware_nj_per_cycle: factor,
        }
    }

    /// Energy in millijoules to execute `trace` on `backend`: each
    /// algorithm's cycles at the per-cycle energy of where it runs.
    pub fn millijoules(&self, trace: &OpTrace, backend: &dyn CryptoBackend) -> f64 {
        let nanojoules: f64 = trace
            .iter()
            .map(|(alg, count)| {
                let cycles = backend.cost(alg).cycles(count) as f64;
                let per_cycle = match backend.realisation(alg) {
                    Realisation::Software => self.software_nj_per_cycle,
                    Realisation::HardwareMacro => self.hardware_nj_per_cycle,
                };
                cycles * per_cycle
            })
            .sum();
        nanojoules / 1.0e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{standard_variants, variant};
    use crate::cost::CostTable;
    use oma_crypto::Algorithm;

    fn trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.record(Algorithm::AesDecrypt, 1, 10_000);
        t.record(Algorithm::RsaPrivate, 1, 1);
        t
    }

    #[test]
    fn proportional_model_matches_cycle_ratio() {
        let model = EnergyModel::proportional();
        let trace = trace();
        for v in standard_variants(&CostTable::paper()) {
            let energy = model.millijoules(&trace, v.as_ref());
            let cycles = v.price(&trace) as f64;
            assert!((energy - cycles / 1.0e6).abs() < 1e-9, "{}", v.name());
        }
    }

    #[test]
    fn hardware_energy_savings_exceed_time_savings_with_efficient_macros() {
        let table = CostTable::paper();
        let trace = trace();
        let sw = variant(&table, "SW", &[]);
        let hw = variant(&table, "HW", &Algorithm::ALL);
        let time_gap = sw.price(&trace) as f64 / hw.price(&trace) as f64;

        let efficient = EnergyModel::with_hardware_factor(0.5);
        let energy_gap = efficient.millijoules(&trace, &sw) / efficient.millijoules(&trace, &hw);
        assert!(
            energy_gap > time_gap,
            "energy gap {energy_gap} should exceed time gap {time_gap}"
        );
    }

    #[test]
    fn empty_trace_costs_no_energy() {
        let sw = variant(&CostTable::paper(), "SW", &[]);
        assert_eq!(
            EnergyModel::default().millijoules(&OpTrace::new(), &sw),
            0.0
        );
    }

    #[test]
    fn software_only_architecture_ignores_hardware_factor() {
        let trace = trace();
        let sw = variant(&CostTable::paper(), "SW", &[]);
        let a = EnergyModel::with_hardware_factor(0.1).millijoules(&trace, &sw);
        let b = EnergyModel::proportional().millijoules(&trace, &sw);
        assert!((a - b).abs() < 1e-12);
    }
}
