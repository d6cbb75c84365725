//! Cross-crate integration tests: the full OMA DRM 2 life-cycle driven
//! through the umbrella crate's public API.

use oma_drm2::drm::{
    ContentIssuer, DrmAgent, DrmError, Permission, RiService, RightsTemplate, RoapClient,
};
use oma_drm2::pki::{CertificationAuthority, PkiError, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BITS: usize = 512;

struct Fixture {
    ca: CertificationAuthority,
    ri: RiService,
    agent: DrmAgent,
    dcf: oma_drm2::drm::Dcf,
    content: Vec<u8>,
}

fn fixture(seed: u64, template: RightsTemplate) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    let ri = RiService::new("ri.example.com", BITS, &mut ca, &mut rng);
    let agent = DrmAgent::new("terminal", BITS, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let content = b"protected media payload ".repeat(64);
    let (dcf, cek) = ci.package(&content, "cid:content", &mut rng);
    ri.add_content("cid:content", cek, &dcf, template);
    Fixture {
        ca,
        ri,
        agent,
        dcf,
        content,
    }
}

#[test]
fn lifecycle_through_umbrella_crate() {
    let mut f = fixture(1, RightsTemplate::unlimited(Permission::Play));
    let client = RoapClient::in_proc(&f.ri);
    let now = Timestamp::new(500);
    f.agent.register(&client, now).unwrap();
    let response = f
        .agent
        .acquire_rights(&client, f.ri.id(), "cid:content", now)
        .unwrap();
    let ro_id = f.agent.install_rights(&response, now).unwrap();
    let plaintext = f
        .agent
        .consume(&ro_id, &f.dcf, Permission::Play, now)
        .unwrap();
    assert_eq!(plaintext, f.content);
}

#[test]
fn repeated_playback_with_count_constraint() {
    let mut f = fixture(2, RightsTemplate::counted(Permission::Play, 3));
    let client = RoapClient::in_proc(&f.ri);
    let now = Timestamp::new(500);
    f.agent.register(&client, now).unwrap();
    let response = f
        .agent
        .acquire_rights(&client, f.ri.id(), "cid:content", now)
        .unwrap();
    let ro_id = f.agent.install_rights(&response, now).unwrap();
    for i in 0..3 {
        assert!(
            f.agent
                .consume(&ro_id, &f.dcf, Permission::Play, now.plus(i))
                .is_ok(),
            "playback {i}"
        );
    }
    assert_eq!(
        f.agent
            .consume(&ro_id, &f.dcf, Permission::Play, now.plus(10)),
        Err(DrmError::ConstraintViolated)
    );
}

#[test]
fn revoked_rights_issuer_cannot_register_devices() {
    let mut f = fixture(3, RightsTemplate::unlimited(Permission::Play));
    let now = Timestamp::new(500);
    f.ca.revoke(f.ri.certificate().serial());
    f.ri.refresh_ocsp(&f.ca, now);
    assert_eq!(
        f.agent.register(&RoapClient::in_proc(&f.ri), now),
        Err(DrmError::Pki(PkiError::CertificateRevoked))
    );
}

#[test]
fn tampered_content_and_rights_objects_are_rejected() {
    let mut f = fixture(4, RightsTemplate::unlimited(Permission::Play));
    let client = RoapClient::in_proc(&f.ri);
    let now = Timestamp::new(500);
    f.agent.register(&client, now).unwrap();
    let mut response = f
        .agent
        .acquire_rights(&client, f.ri.id(), "cid:content", now)
        .unwrap();

    // Tampered DCF detected at consumption time.
    let ro_id = f.agent.install_rights(&response, now).unwrap();
    assert_eq!(
        f.agent
            .consume(&ro_id, &f.dcf.tampered(), Permission::Play, now),
        Err(DrmError::DcfIntegrity)
    );

    // Tampered RO payload detected at installation time.
    response.rights_object.payload.content_id = "cid:other".into();
    assert_eq!(
        f.agent
            .install_protected_ro(&response.rights_object, "ri.example.com", now),
        Err(DrmError::RightsObjectIntegrity)
    );
}

#[test]
fn second_rights_object_for_same_content_can_coexist() {
    let mut f = fixture(5, RightsTemplate::counted(Permission::Play, 1));
    let client = RoapClient::in_proc(&f.ri);
    let now = Timestamp::new(500);
    f.agent.register(&client, now).unwrap();

    let first = f
        .agent
        .acquire_rights(&client, f.ri.id(), "cid:content", now)
        .unwrap();
    let first_id = f.agent.install_rights(&first, now).unwrap();
    let second = f
        .agent
        .acquire_rights(&client, f.ri.id(), "cid:content", now)
        .unwrap();
    let second_id = f.agent.install_rights(&second, now).unwrap();
    assert_ne!(first_id, second_id);
    assert_eq!(f.agent.rights_for_content("cid:content").len(), 2);

    // Exhaust the first license, fall back to the second — the scenario the
    // paper gives for keeping K_CEK wrapped under K_REK after installation.
    assert!(f
        .agent
        .consume(&first_id, &f.dcf, Permission::Play, now)
        .is_ok());
    assert_eq!(
        f.agent.consume(&first_id, &f.dcf, Permission::Play, now),
        Err(DrmError::ConstraintViolated)
    );
    assert!(f
        .agent
        .consume(&second_id, &f.dcf, Permission::Play, now)
        .is_ok());
}

#[test]
fn consumption_uses_only_symmetric_crypto() {
    use oma_drm2::crypto::Algorithm;
    let mut f = fixture(6, RightsTemplate::unlimited(Permission::Play));
    let client = RoapClient::in_proc(&f.ri);
    let now = Timestamp::new(500);
    f.agent.register(&client, now).unwrap();
    let response = f
        .agent
        .acquire_rights(&client, f.ri.id(), "cid:content", now)
        .unwrap();
    let ro_id = f.agent.install_rights(&response, now).unwrap();

    f.agent.engine().reset_trace();
    f.agent
        .consume(&ro_id, &f.dcf, Permission::Play, now)
        .unwrap();
    let trace = f.agent.engine().take_trace();
    assert_eq!(trace.count(Algorithm::RsaPrivate).invocations, 0);
    assert_eq!(trace.count(Algorithm::RsaPublic).invocations, 0);
    assert!(trace.count(Algorithm::AesDecrypt).blocks > 0);
    assert!(trace.count(Algorithm::Sha1).blocks > 0);
    assert!(trace.count(Algorithm::HmacSha1).invocations > 0);
}
