//! The paper's Ringtone use case (§4): a 30 KB polyphonic ringtone whose
//! license must be checked on every one of 25 incoming calls.
//!
//! This example runs the *real* protocol end to end at the genuine ringtone
//! size — registration, acquisition, installation and 25 consumptions — and
//! then prices the recorded operation trace under the three architecture
//! variants (Figure 7).
//!
//! Run with: `cargo run --release --example ringtone`

use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient};
use oma_drm2::perf::arch::{millis, standard_variants};
use oma_drm2::perf::cost::CostTable;
use oma_drm2::perf::phases::PhaseTraces;
use oma_drm2::perf::report;
use oma_drm2::perf::usecase::UseCaseSpec;
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = UseCaseSpec::ringtone();
    let variants = standard_variants(&CostTable::paper());
    let mut rng = rand::rngs::StdRng::seed_from_u64(25);

    println!(
        "Ringtone use case: {} byte DCF, {} incoming calls\n",
        spec.content_len(),
        spec.accesses()
    );

    // Real protocol run with 1024-bit keys and the real 30 KB ringtone.
    let mut ca = CertificationAuthority::new("cmla", 1024, &mut rng);
    let ri = RiService::new("ri.example.com", 1024, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let mut agent = DrmAgent::new("phone-001", 1024, &mut ca, &mut rng);

    let ringtone = vec![0x3cu8; spec.content_len()];
    let (dcf, cek) = ci.package(&ringtone, "cid:ringtone", &mut rng);
    ri.add_content(
        "cid:ringtone",
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

    let response = agent.acquire_rights(&client, ri.id(), "cid:ringtone", now)?;
    traces.acquisition = agent.engine().take_trace();

    let ro_id = agent.install_rights(&response, now)?;
    traces.installation = agent.engine().take_trace();

    // The phone rings 25 times.
    for call in 0..spec.accesses() {
        let plaintext = agent.consume(&ro_id, &dcf, Permission::Play, now.plus(call * 60))?;
        assert_eq!(plaintext.len(), ringtone.len());
    }
    // All 25 accesses were recorded; store them as a single-access average.
    let consumption_total = agent.engine().take_trace();
    traces.consumption_per_access = consumption_total.clone();

    println!(
        "measured trace (whole use case, {} accesses):",
        spec.accesses()
    );
    let total = traces.setup_total().merged(&consumption_total);
    for (alg, count) in total.iter() {
        if count.invocations > 0 {
            println!(
                "  {:<26} {:>4} invocations, {:>8} blocks",
                alg.label(),
                count.invocations,
                count.blocks
            );
        }
    }

    println!("\nexecution time of the measured trace under each architecture variant:");
    for variant in &variants {
        println!(
            "  {:<8} {:>8.1} ms",
            variant.name(),
            millis(variant.price(&total))
        );
    }
    println!("paper reports (Figure 7): SW 900 ms, SW/HW 620 ms, HW 12 ms\n");

    // The analytic model for comparison.
    let comparison = report::architecture_comparison(&spec, &variants);
    println!("analytic model:\n{comparison}");
    Ok(())
}
