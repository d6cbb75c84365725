//! Integration tests that reproduce the paper's headline numbers from the
//! public API of the umbrella crate — the checks behind what `repro` prints.

use oma_drm2::perf::arch::{self, millis, standard_variants};
use oma_drm2::perf::cost::CostTable;
use oma_drm2::perf::report;
use oma_drm2::perf::runner;
use oma_drm2::perf::usecase::UseCaseSpec;

fn assert_matches_paper(comparison: &report::ArchitectureComparison, paper: &[(&str, f64)]) {
    for &(variant, expected) in paper {
        let actual = comparison.total_millis(variant).unwrap();
        assert!(
            (actual - expected).abs() / expected <= 0.15,
            "{} {variant}: model {actual:.1} vs paper {expected:.1} (tolerance 0.15)",
            comparison.use_case
        );
    }
}

#[test]
fn figure6_music_player_totals() {
    let comparison = report::architecture_comparison(
        &UseCaseSpec::music_player(),
        &standard_variants(&CostTable::paper()),
    );
    assert_matches_paper(&comparison, &report::FIGURE6_PAPER_MS);
}

#[test]
fn figure7_ringtone_totals() {
    let comparison = report::architecture_comparison(
        &UseCaseSpec::ringtone(),
        &standard_variants(&CostTable::paper()),
    );
    assert_matches_paper(&comparison, &report::FIGURE7_PAPER_MS);
}

#[test]
fn measured_ringtone_totals_match_figure7() {
    // The backends' own cycle bills over real protocol runs (512-bit test
    // keys, RSA still priced per 1024-bit op) land on the paper's totals too.
    let comparison = report::measured_architecture_comparison(
        &UseCaseSpec::ringtone().with_rsa_modulus_bits(512),
        &standard_variants(&CostTable::paper()),
        3,
    )
    .expect("measured protocol runs");
    assert_matches_paper(&comparison, &report::FIGURE7_PAPER_MS);
}

#[test]
fn figure5_dominance_flips_between_use_cases() {
    use oma_drm2::perf::report::BreakdownCategory;
    let breakdowns = report::figure5(&CostTable::paper());
    let ringtone = breakdowns
        .iter()
        .find(|b| b.use_case == "Ringtone")
        .unwrap();
    let music = breakdowns
        .iter()
        .find(|b| b.use_case == "Music Player")
        .unwrap();

    // Ringtone: PKI dominates. Music Player: bulk data (AES + SHA-1) dominates.
    assert!(
        ringtone.share(BreakdownCategory::PkiPrivateKeyOp)
            > ringtone.share(BreakdownCategory::AesDecryption)
    );
    assert!(
        music.share(BreakdownCategory::AesDecryption) + music.share(BreakdownCategory::Sha1) > 85.0
    );
}

#[test]
fn measured_protocol_trace_prices_close_to_the_analytic_model() {
    // Run the real protocol at ringtone scale and compare the priced trace
    // with the analytic model's prediction for the same spec — the two paths
    // of the methodology must agree.
    let spec = UseCaseSpec::ringtone().with_rsa_modulus_bits(512);
    let run = runner::measure_use_case(&spec, 99).expect("protocol run");

    let analytic_traces = oma_drm2::perf::analytic::phase_traces(&spec);
    for variant in standard_variants(&CostTable::paper()) {
        let measured_ms = millis(variant.price(&run.traces.total(spec.accesses())));
        let analytic_ms = millis(variant.price(&analytic_traces.total(spec.accesses())));
        assert!(
            (measured_ms - analytic_ms).abs() / analytic_ms < 0.05,
            "{}: measured {measured_ms:.1} ms vs analytic {analytic_ms:.1} ms",
            variant.name()
        );
    }
}

#[test]
fn rsa_accelerator_alone_is_a_poor_investment_for_bulk_content() {
    // The §4 discussion: PKI hardware has "only limited benefits" for the
    // Music Player case because its cost does not depend on the DCF size.
    use oma_drm2::crypto::backend::CryptoBackend;
    use oma_drm2::crypto::Algorithm;

    let table = CostTable::paper();
    let rsa_only = arch::variant(
        &table,
        "RSA-HW",
        &[Algorithm::RsaPublic, Algorithm::RsaPrivate],
    );
    let variants = standard_variants(&table);
    let spec = UseCaseSpec::music_player();
    let traces = oma_drm2::perf::analytic::phase_traces(&spec);
    let total = traces.total(spec.accesses());

    let software_ms = millis(variants[0].price(&total));
    let rsa_only_ms = millis(rsa_only.price(&total));
    let hybrid_ms = millis(variants[1].price(&total));

    // RSA acceleration saves well under 10% on the music player...
    assert!(rsa_only_ms > software_ms * 0.90);
    // ...whereas AES/SHA-1 acceleration saves close to 90%.
    assert!(hybrid_ms < software_ms * 0.15);
}
