//! Domain sharing: one license, several devices (paper §2.3).
//!
//! A phone and an "unconnected" portable music player both register with the
//! Rights Issuer, join the same domain and share a single Domain Rights
//! Object: the phone acquires it over ROAP, the player installs the very
//! same object copied across (e.g. over USB) and can still play the content
//! because the keys are wrapped under the shared domain key.
//!
//! Run with: `cargo run --release --example domain_sharing`

use oma_drm2::drm::{
    ContentIssuer, DomainId, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapClient,
};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let now = Timestamp::new(5_000);

    let mut ca = CertificationAuthority::new("cmla", 1024, &mut rng);
    let ri = RiService::new("ri.example.com", 1024, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let mut phone = DrmAgent::new("phone", 1024, &mut ca, &mut rng);
    let mut player = DrmAgent::new("mp3-player", 1024, &mut ca, &mut rng);

    let album = b"FULL ALBUM, DRM PROTECTED".repeat(4096);
    let (dcf, cek) = ci.package(&album, "cid:album", &mut rng);
    ri.add_content(
        "cid:album",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );

    // Both devices establish trust with the Rights Issuer, each ROAP
    // message an encoded frame handed to the in-process service.
    let client = RoapClient::in_proc(&ri);
    phone.register(&client, now)?;
    player.register(&client, now)?;
    println!("both devices registered with {}", ri.id());

    // The user sets up a family domain and registers both devices.
    let domain: DomainId = ri.create_domain("family-domain", 8);
    phone.join_domain(&client, ri.id(), &domain, now)?;
    player.join_domain(&client, ri.id(), &domain, now)?;
    println!(
        "domain '{domain}' now has {} member devices",
        ri.domain_member_count(&domain).unwrap_or(0)
    );

    // The phone buys a Domain Rights Object...
    let response = phone.acquire_domain_rights(&client, ri.id(), "cid:album", &domain, now)?;
    assert!(response.rights_object.is_domain_ro());
    let ro_id = phone.install_rights(&response, now)?;
    println!("phone acquired and installed domain RO {ro_id}");

    // ...and the player installs the very same Rights Object out of band.
    let ro_id_player = player.install_protected_ro(&response.rights_object, ri.id(), now)?;
    println!("player installed the shared RO {ro_id_player}");

    // Both can play.
    assert_eq!(phone.consume(&ro_id, &dcf, Permission::Play, now)?, album);
    assert_eq!(
        player.consume(&ro_id_player, &dcf, Permission::Play, now)?,
        album
    );
    println!("both devices decrypted the album successfully");

    // A device outside the domain cannot use the Domain RO.
    let mut stranger = DrmAgent::new("strangers-phone", 1024, &mut ca, &mut rng);
    stranger.register(&client, now)?;
    match stranger.install_protected_ro(&response.rights_object, ri.id(), now) {
        Err(DrmError::NotInDomain) => println!("outsider correctly rejected (not a domain member)"),
        other => println!("unexpected result for outsider: {other:?}"),
    }

    // Leaving the domain removes the key from the device.
    player.leave_domain(&client, &domain)?;
    println!(
        "player left the domain; remaining members: {}",
        ri.domain_member_count(&domain).unwrap_or(0)
    );
    Ok(())
}
