//! Measured traces: run the real OMA DRM 2 protocol from `oma-drm` with
//! synthetic content and record the operations the DRM Agent actually
//! performs.
//!
//! This is the Rust equivalent of the authors' Java functional model: the
//! operation lists are not hand-derived but extracted from a protocol run.
//! The analytic model in [`crate::analytic`] is cross-checked against these
//! measured traces in the test suite.
//!
//! [`drive_lifecycle`] is the one life-cycle drive: registration, then
//! acquisition, installation and consumption per content item, with the
//! agent's trace taken after each call. [`measure_use_case_on`] runs it on
//! any architecture variant's crypto backend (see [`crate::arch`]): the
//! backend performs every primitive (byte-identically across variants) and
//! books it in its ledger, which is the phase trace, so the
//! hardware/software partitionings are exercised, not just priced. A phase's
//! cycles are its trace priced by [`CryptoBackend::price`]. The `oma-load`
//! fleet drives each of its devices through the same function.

use crate::phases::PhaseTraces;
use crate::usecase::UseCaseSpec;
use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_drm::{
    ContentIssuer, Dcf, DrmAgent, DrmError, Permission, RiService, RightsObjectId, RightsTemplate,
    RoapClient, RoapTransport,
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

/// The result of a measured protocol run: per-phase traces and the
/// decrypted content length (as a sanity check that the run really worked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredRun {
    /// Name of the backend (architecture variant) the agent executed on.
    pub backend: String,
    /// The per-phase operation traces of the DRM Agent.
    pub traces: PhaseTraces,
    /// Length of the plaintext recovered during the first consumption.
    pub recovered_len: usize,
}

/// Drives `agent` through the content life-cycle over `client`: it
/// registers with the Rights Issuer `ri_id`, then acquires, installs and
/// consumes each `(content_id, dcf)` of `contents` in turn, taking the
/// agent's trace after each call and handing each installed Rights Object
/// id and recovered plaintext to `consumed`. Each phase's trace sums over
/// all contents, consumption included.
///
/// # Errors
///
/// Propagates the first [`DrmError`] of the protocol run.
pub fn drive_lifecycle<'a, T: RoapTransport>(
    agent: &mut DrmAgent,
    client: &RoapClient<T>,
    ri_id: &str,
    contents: impl IntoIterator<Item = (&'a str, &'a Dcf)>,
    now: Timestamp,
    mut consumed: impl FnMut(&RightsObjectId, &[u8]),
) -> Result<PhaseTraces, DrmError> {
    let mut traces = PhaseTraces::new();
    agent.engine().reset_trace();

    agent.register(client, now)?;
    traces.registration.merge(&agent.engine().take_trace());

    for (content_id, dcf) in contents {
        let response = agent.acquire_rights(client, ri_id, content_id, now)?;
        traces.acquisition.merge(&agent.engine().take_trace());

        let ro_id = agent.install_rights(&response, now)?;
        traces.installation.merge(&agent.engine().take_trace());

        let plaintext = agent.consume(&ro_id, dcf, Permission::Play, now)?;
        traces
            .consumption_per_access
            .merge(&agent.engine().take_trace());
        consumed(&ro_id, &plaintext);
    }
    Ok(traces)
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
    measure_use_case_on(spec, Arc::new(SoftwareBackend::new()), seed)
}

/// Runs the full use case with the DRM Agent's cryptography on `backend`,
/// which books every operation as the protocol executes.
///
/// Content, keys and protocol bytes are identical across backends for the
/// same `seed` — only the cycle bill, `backend.price` of the traces,
/// differs.
///
/// # Errors
///
/// Propagates any [`DrmError`] from the protocol run.
pub fn measure_use_case_on(
    spec: &UseCaseSpec,
    backend: Arc<dyn CryptoBackend>,
    seed: u64,
) -> Result<MeasuredRun, DrmError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bits = spec.rsa_modulus_bits();
    let mut ca = CertificationAuthority::new("cmla", bits, &mut rng);
    let ri = RiService::new("ri.example.com", bits, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let name = backend.name().to_string();
    let mut agent = DrmAgent::with_backend("terminal-under-test", bits, &mut ca, backend, &mut rng);

    let content = synthetic_content(spec.content_len(), seed ^ 0x5eed);
    let content_id = format!("cid:{}", spec.name().to_lowercase().replace(' ', "-"));
    let (dcf, cek) = ci.package(&content, &content_id, &mut rng);
    ri.add_content(
        &content_id,
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );

    let client = RoapClient::in_proc(&ri);
    let mut recovered_len = 0;
    let traces = drive_lifecycle(
        &mut agent,
        &client,
        ri.id(),
        [(content_id.as_str(), &dcf)],
        Timestamp::new(1_000),
        |_, plaintext| recovered_len = plaintext.len(),
    )?;

    Ok(MeasuredRun {
        backend: name,
        traces,
        recovered_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use crate::arch::standard_variants;
    use crate::cost::CostTable;
    use crate::phases::Phase;
    use oma_crypto::backend::Realisation;
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
        for variant in standard_variants(&CostTable::paper()) {
            let run = measure_use_case_on(&spec, Arc::clone(&variant), 23).unwrap();
            assert_eq!(run.backend, variant.name());
            assert_eq!(run.recovered_len, 30_720, "{}", variant.name());
            assert!(
                variant.price(&run.traces.registration) > 0,
                "{}",
                variant.name()
            );
            assert!(
                variant.price(&run.traces.consumption_per_access) > 0,
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn traces_are_identical_across_backends_only_cycles_differ() {
        // The hardware macros implement the same algorithms: for one seed,
        // every variant performs the same operations on the same bytes.
        let spec = small_spec();
        let variants = standard_variants(&CostTable::paper());
        let runs: Vec<MeasuredRun> = variants
            .iter()
            .map(|variant| measure_use_case_on(&spec, Arc::clone(variant), 29).unwrap())
            .collect();
        assert_eq!(runs[0].traces, runs[1].traces);
        assert_eq!(runs[0].traces, runs[2].traces);
        let totals: Vec<u64> = variants
            .iter()
            .zip(&runs)
            .map(|(variant, run)| variant.price(&run.traces.total(spec.accesses())))
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
        // per phase they must equal Table 1's column for where each
        // algorithm runs, to the cycle.
        let spec = small_spec();
        let table = CostTable::paper();
        for variant in standard_variants(&table) {
            let run = measure_use_case_on(&spec, Arc::clone(&variant), 31).unwrap();
            for phase in Phase::ALL {
                let trace = run.traces.phase(phase);
                let table1: u64 = trace
                    .iter()
                    .map(|(alg, count)| {
                        let cost = match variant.realisation(alg) {
                            Realisation::Software => table.software(alg),
                            Realisation::HardwareMacro => table.hardware(alg),
                        };
                        cost.cycles(count)
                    })
                    .sum();
                assert_eq!(
                    variant.price(trace),
                    table1,
                    "{}/{phase}: backend and Table 1 price the trace differently",
                    variant.name()
                );
            }
        }
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
