//! Quickstart: the full OMA DRM 2 life-cycle in one screen of code.
//!
//! A Certification Authority certifies a Rights Issuer and a phone's DRM
//! Agent; the Content Issuer packages a track; the agent registers, buys a
//! license, installs it and plays the track.
//!
//! Run with: `cargo run --example quickstart`

use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RightsIssuer, RightsTemplate, RoapPdu};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);

    // Trust infrastructure (the CMLA role) and the three actors.
    println!("setting up CA, Rights Issuer, Content Issuer and DRM Agent...");
    let mut ca = CertificationAuthority::new("cmla", 1024, &mut rng);
    let mut ri = RightsIssuer::new("ri.example.com", 1024, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let mut agent = DrmAgent::new("phone-001", 1024, &mut ca, &mut rng);

    // The Content Issuer packages a track and hands the CEK to the RI.
    let track = b"IMAGINE THIS IS A PROTECTED AUDIO TRACK".repeat(1024);
    let (dcf, cek) = ci.package(&track, "cid:track-0001@ci.example.com", &mut rng);
    ri.add_content(
        "cid:track-0001@ci.example.com",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    println!(
        "packaged {} bytes into a {}-byte DCF",
        track.len(),
        dcf.encrypted_payload().len()
    );

    // Registration -> Acquisition -> Installation -> Consumption.
    let now = Timestamp::new(1_000);
    agent.register_with(ri.service(), now)?;
    println!("registered with {} (RI context established)", ri.id());

    let response = agent.acquire_rights_with(ri.service(), "cid:track-0001@ci.example.com", now)?;
    println!(
        "acquired rights object {} ({} bytes on the wire)",
        response.ro_id(),
        RoapPdu::RoResponse(response.clone()).encode().len()
    );

    let ro_id = agent.install_rights(&response, now)?;
    println!("installed {ro_id}");

    let plaintext = agent.consume(&ro_id, &dcf, Permission::Play, now)?;
    assert_eq!(plaintext, track);
    println!("played back {} bytes of protected content", plaintext.len());

    // The instrumented engine recorded every cryptographic operation.
    println!("\ncryptographic operations performed by the terminal:");
    let trace = agent.engine().trace();
    for (algorithm, count) in trace.iter() {
        if count.invocations > 0 {
            println!(
                "  {:<26} {:>4} invocations, {:>8} blocks",
                algorithm.label(),
                count.invocations,
                count.blocks
            );
        }
    }
    Ok(())
}
