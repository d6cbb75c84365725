//! Measured traces: run the real OMA DRM 2 protocol from `oma-drm` with
//! synthetic content and record the operations the DRM Agent actually
//! performs.
//!
//! This is the Rust equivalent of the authors' Java functional model: the
//! operation lists are not hand-derived but extracted from a protocol run.
//! The analytic model in [`crate::analytic`] is cross-checked against these
//! measured traces in the test suite.
//!
//! Beyond tracing, [`measure_use_case_on`] executes the protocol directly on
//! the crypto backend of any [`Architecture`] variant: the backend performs
//! every primitive (byte-identically across variants) and books it in its
//! ledger, which is the phase trace; each phase's cycles are that trace
//! priced in the backend's Table 1 column, so the hardware/software
//! partitionings are exercised, not just priced.

use crate::arch::Architecture;
use crate::cost::CostTable;
use crate::phases::PhaseTraces;
use crate::usecase::UseCaseSpec;
use oma_crypto::backend::CryptoBackend;
use oma_drm::{
    ContentIssuer, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapClient,
};
use oma_pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// Generates `len` bytes of deterministic synthetic content ("the 3.5 MB
/// track"). Content values do not influence the cost model; only the size
/// does.
pub fn synthetic_content(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

/// Cycles the DRM Agent's backend charged during each phase of a measured
/// run (the executable counterpart of pricing a trace under Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Registration-phase cycles (once per lifetime).
    pub registration: u64,
    /// Acquisition-phase cycles (once per license).
    pub acquisition: u64,
    /// Installation-phase cycles (once per license).
    pub installation: u64,
    /// Cycles for a *single* content access.
    pub consumption_per_access: u64,
}

impl PhaseCycles {
    /// The cycles `backend` charged for each phase's trace: the price of
    /// what it executed.
    pub fn priced(traces: &PhaseTraces, backend: &dyn CryptoBackend) -> Self {
        PhaseCycles {
            registration: backend.price(&traces.registration),
            acquisition: backend.price(&traces.acquisition),
            installation: backend.price(&traces.installation),
            consumption_per_access: backend.price(&traces.consumption_per_access),
        }
    }

    /// Total cycles for a use case with `accesses` content accesses.
    pub fn total(&self, accesses: u64) -> u64 {
        self.registration
            + self.acquisition
            + self.installation
            + self.consumption_per_access * accesses
    }

    /// Adds another phase bill into this one. The `oma-load` fleet harness
    /// sums per-device bills into fleet-wide per-phase totals with this;
    /// addition commutes, so the aggregate is schedule-independent.
    ///
    /// In a merged aggregate the `consumption_per_access` field holds the
    /// *sum* of the merged consumption figures, no longer a per-access
    /// value — price such aggregates with [`PhaseCycles::sum`], not
    /// [`PhaseCycles::total`].
    pub fn merge(&mut self, other: &PhaseCycles) {
        self.registration += other.registration;
        self.acquisition += other.acquisition;
        self.installation += other.installation;
        self.consumption_per_access += other.consumption_per_access;
    }

    /// Grand total of the four phase fields as stored, with no per-access
    /// scaling. This is the correct total for [`PhaseCycles::merge`]d
    /// aggregates, where the consumption field already holds a sum over
    /// accesses.
    pub fn sum(&self) -> u64 {
        self.registration + self.acquisition + self.installation + self.consumption_per_access
    }

    /// The cycle count of one phase (the consumption field as stored: a
    /// per-access figure for a single measured run, a summed figure in a
    /// merged aggregate).
    pub fn phase(&self, phase: crate::phases::Phase) -> u64 {
        match phase {
            crate::phases::Phase::Registration => self.registration,
            crate::phases::Phase::Acquisition => self.acquisition,
            crate::phases::Phase::Installation => self.installation,
            crate::phases::Phase::Consumption => self.consumption_per_access,
        }
    }
}

/// The result of a measured protocol run: per-phase traces, the cycles the
/// backend charged per phase, and the decrypted content length (as a sanity
/// check that the run really worked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredRun {
    /// Name of the backend (architecture variant) the agent executed on.
    pub backend: String,
    /// The per-phase operation traces of the DRM Agent.
    pub traces: PhaseTraces,
    /// The per-phase cycle bill charged by the agent's backend.
    pub cycles: PhaseCycles,
    /// Length of the plaintext recovered during the first consumption.
    pub recovered_len: usize,
}

/// Runs the full use case (registration → acquisition → installation →
/// one consumption) on the pure-software backend and returns the recorded
/// per-phase traces.
///
/// The RSA modulus size of `spec` is honoured, so tests can use small keys;
/// the *cost model* always charges RSA per 1024-bit operation exactly as the
/// paper does (the operation count is what matters, not the toy key size).
///
/// # Errors
///
/// Propagates any [`DrmError`] from the protocol run — a failure here means
/// the functional model itself is broken, not the measurement.
pub fn measure_use_case(spec: &UseCaseSpec, seed: u64) -> Result<MeasuredRun, DrmError> {
    measure_use_case_on(spec, &Architecture::software(), &CostTable::paper(), seed)
}

/// Runs the full use case on the executable backend of `architecture`,
/// charging `table`'s cycle costs as the protocol executes.
///
/// Every [`Architecture::standard_variants`] entry maps 1:1 onto a backend
/// configuration via [`Architecture::backend`]; content, keys and protocol
/// bytes are identical across variants for the same `seed` — only the cycle
/// bill differs.
///
/// # Errors
///
/// Propagates any [`DrmError`] from the protocol run.
pub fn measure_use_case_on(
    spec: &UseCaseSpec,
    architecture: &Architecture,
    table: &CostTable,
    seed: u64,
) -> Result<MeasuredRun, DrmError> {
    let backend = architecture.backend(table);
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = spec.rsa_modulus_bits();
    let mut ca = CertificationAuthority::new("cmla", bits, &mut rng);
    let ri = RiService::new("ri.example.com", bits, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let mut agent = DrmAgent::with_backend(
        "terminal-under-test",
        bits,
        &mut ca,
        Arc::clone(&backend),
        &mut rng,
    );

    let content = synthetic_content(spec.content_len(), seed ^ 0x5eed);
    let content_id = format!("cid:{}", spec.name().to_lowercase().replace(' ', "-"));
    let (dcf, cek) = ci.package(&content, &content_id, &mut rng);
    ri.add_content(
        &content_id,
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );

    let now = Timestamp::new(1_000);
    let mut traces = PhaseTraces::new();
    agent.engine().reset_trace();

    let client = RoapClient::in_proc(&ri);
    agent.register(&client, now)?;
    traces.registration = agent.engine().take_trace();

    let response = agent.acquire_rights(&client, ri.id(), &content_id, now)?;
    traces.acquisition = agent.engine().take_trace();

    let ro_id = agent.install_rights(&response, now)?;
    traces.installation = agent.engine().take_trace();

    let plaintext = agent.consume(&ro_id, &dcf, Permission::Play, now)?;
    traces.consumption_per_access = agent.engine().take_trace();
    let cycles = PhaseCycles::priced(&traces, backend.as_ref());

    Ok(MeasuredRun {
        backend: backend.name().to_string(),
        traces,
        cycles,
        recovered_len: plaintext.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use oma_crypto::Algorithm;

    /// A scaled-down spec that keeps the measured run fast in tests.
    fn small_spec() -> UseCaseSpec {
        UseCaseSpec::new("Ringtone", 30_720, 25).with_rsa_modulus_bits(512)
    }

    #[test]
    fn synthetic_content_is_deterministic() {
        assert_eq!(synthetic_content(100, 1), synthetic_content(100, 1));
        assert_ne!(synthetic_content(100, 1), synthetic_content(100, 2));
        assert_eq!(synthetic_content(0, 1).len(), 0);
    }

    #[test]
    fn measured_run_recovers_content() {
        let run = measure_use_case(&small_spec(), 7).unwrap();
        assert_eq!(run.recovered_len, 30_720);
        assert!(!run.traces.registration.is_empty());
        assert!(!run.traces.consumption_per_access.is_empty());
    }

    #[test]
    fn measured_invocation_counts_match_analytic_model() {
        let spec = small_spec();
        let run = measure_use_case(&spec, 11).unwrap();
        // The analytic model charges RSA per 1024-bit op; for the
        // invocation-count comparison the key size is irrelevant.
        let analytic = analytic::phase_traces(&spec);

        for (phase, measured, modelled) in [
            (
                "registration",
                &run.traces.registration,
                &analytic.registration,
            ),
            (
                "acquisition",
                &run.traces.acquisition,
                &analytic.acquisition,
            ),
            (
                "installation",
                &run.traces.installation,
                &analytic.installation,
            ),
            (
                "consumption",
                &run.traces.consumption_per_access,
                &analytic.consumption_per_access,
            ),
        ] {
            for alg in [
                Algorithm::RsaPrivate,
                Algorithm::RsaPublic,
                Algorithm::HmacSha1,
                Algorithm::AesEncrypt,
                Algorithm::AesDecrypt,
            ] {
                assert_eq!(
                    measured.count(alg).invocations,
                    modelled.count(alg).invocations,
                    "{phase}: invocation count mismatch for {alg}"
                );
            }
        }
    }

    #[test]
    fn measured_content_blocks_match_analytic_model() {
        let spec = small_spec();
        let run = measure_use_case(&spec, 13).unwrap();
        let analytic = analytic::phase_traces(&spec);
        // AES work in consumption is determined exactly by the content size.
        assert_eq!(
            run.traces
                .consumption_per_access
                .count(Algorithm::AesDecrypt)
                .blocks,
            analytic
                .consumption_per_access
                .count(Algorithm::AesDecrypt)
                .blocks
        );
        // SHA-1 block counts may differ slightly because the analytic model
        // uses representative message sizes; the content hash dominates.
        let measured = run
            .traces
            .consumption_per_access
            .count(Algorithm::Sha1)
            .blocks as f64;
        let modelled = analytic
            .consumption_per_access
            .count(Algorithm::Sha1)
            .blocks as f64;
        assert!(
            (measured - modelled).abs() / modelled < 0.05,
            "consumption hash blocks: measured {measured}, modelled {modelled}"
        );
    }

    #[test]
    fn all_standard_variants_execute_and_recover_content() {
        let spec = small_spec();
        let table = CostTable::paper();
        for arch in Architecture::standard_variants() {
            let run = measure_use_case_on(&spec, &arch, &table, 23).unwrap();
            assert_eq!(run.backend, arch.name());
            assert_eq!(run.recovered_len, 30_720, "{}", arch.name());
            assert!(run.cycles.registration > 0, "{}", arch.name());
            assert!(run.cycles.consumption_per_access > 0, "{}", arch.name());
        }
    }

    #[test]
    fn traces_are_identical_across_backends_only_cycles_differ() {
        // The hardware macros implement the same algorithms: for one seed,
        // every variant performs the same operations on the same bytes.
        let spec = small_spec();
        let table = CostTable::paper();
        let runs: Vec<MeasuredRun> = Architecture::standard_variants()
            .iter()
            .map(|arch| measure_use_case_on(&spec, arch, &table, 29).unwrap())
            .collect();
        assert_eq!(runs[0].traces, runs[1].traces);
        assert_eq!(runs[0].traces, runs[2].traces);
        let totals: Vec<u64> = runs
            .iter()
            .map(|r| r.cycles.total(spec.accesses()))
            .collect();
        assert!(
            totals[0] > totals[1],
            "SW {} must out-cycle SW/HW {}",
            totals[0],
            totals[1]
        );
        assert!(
            totals[1] > totals[2],
            "SW/HW {} must out-cycle HW {}",
            totals[1],
            totals[2]
        );
    }

    #[test]
    fn backend_charged_cycles_equal_priced_trace_exactly() {
        // Each phase's cycles are its trace priced by the variant's backend;
        // per phase they must equal the cost model's pricing of the same
        // trace, to the cycle.
        let spec = small_spec();
        let table = CostTable::paper();
        for arch in Architecture::standard_variants() {
            let run = measure_use_case_on(&spec, &arch, &table, 31).unwrap();
            for (phase, trace, charged) in [
                (
                    "registration",
                    &run.traces.registration,
                    run.cycles.registration,
                ),
                (
                    "acquisition",
                    &run.traces.acquisition,
                    run.cycles.acquisition,
                ),
                (
                    "installation",
                    &run.traces.installation,
                    run.cycles.installation,
                ),
                (
                    "consumption",
                    &run.traces.consumption_per_access,
                    run.cycles.consumption_per_access,
                ),
            ] {
                assert_eq!(
                    charged,
                    arch.cycles(trace, &table),
                    "{}/{phase}: backend and cost model price the trace differently",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn phase_cycles_total_scales_consumption() {
        let cycles = PhaseCycles {
            registration: 100,
            acquisition: 10,
            installation: 1,
            consumption_per_access: 7,
        };
        assert_eq!(cycles.total(0), 111);
        assert_eq!(cycles.total(25), 111 + 175);
        assert_eq!(cycles.sum(), 118, "sum never scales consumption");
    }

    #[test]
    fn phase_cycles_merge_accumulates_fieldwise() {
        let mut a = PhaseCycles {
            registration: 1,
            acquisition: 2,
            installation: 3,
            consumption_per_access: 4,
        };
        let b = PhaseCycles {
            registration: 10,
            acquisition: 20,
            installation: 30,
            consumption_per_access: 40,
        };
        a.merge(&b);
        assert_eq!(a.registration, 11);
        assert_eq!(a.phase(crate::phases::Phase::Consumption), 44);
        assert_eq!(a.sum(), 110);
    }

    #[test]
    fn protocol_message_hash_blocks_are_close_to_the_analytic_sizes() {
        let spec = small_spec();
        let run = measure_use_case(&spec, 17).unwrap();
        let analytic = analytic::phase_traces(&spec);
        for (phase, measured, modelled) in [
            (
                "registration",
                &run.traces.registration,
                &analytic.registration,
            ),
            (
                "acquisition",
                &run.traces.acquisition,
                &analytic.acquisition,
            ),
        ] {
            let measured = measured.count(Algorithm::Sha1).blocks as i64;
            let modelled = modelled.count(Algorithm::Sha1).blocks as i64;
            // The analytic sizes assume 1024-bit certificates; the measured
            // run here uses 512-bit test keys, so allow a generous margin
            // (the whole discrepancy is worth < 30k cycles against the
            // ~38 Mcycle RSA operation in the same phase).
            assert!(
                (measured - modelled).abs() <= 40,
                "{phase}: measured {measured} hash blocks vs modelled {modelled}"
            );
        }
    }
}
