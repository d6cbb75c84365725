//! Golden store vectors: committed byte-exact encodings of one journal
//! record per event variant plus a full snapshot blob, guarding the WAL and
//! snapshot formats against accidental drift — a drifted store format means
//! yesterday's logs stop recovering.
//!
//! Every value is a literal (no RNG, no key generation), so the expected
//! bytes depend on nothing but the codec. If a format change is intentional,
//! bless new vectors with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test store_golden
//! ```
//!
//! and review the resulting `tests/golden/store_*.bin` diff like any other
//! storage format change.

use oma_drm2::bignum::BigUint;
use oma_drm2::crypto::pss::PssSignature;
use oma_drm2::crypto::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use oma_drm2::drm::journal::{ContentEntry, PendingSession, RiEvent, RiStateImage, RiTables};
use oma_drm2::drm::{Constraint, Domain, DomainId, Permission, Rights, RightsTemplate};
use oma_drm2::pki::ocsp::{CertificateStatus, OcspResponse, TbsOcspResponse};
use oma_drm2::pki::{Certificate, EntityRole, TbsCertificate, Timestamp, ValidityPeriod};
use oma_drm2::store::codec::{
    decode_record_prefix, decode_snapshot, encode_record, encode_snapshot, Record,
};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn signature(byte: u8, len: usize) -> PssSignature {
    PssSignature::from_bytes(vec![byte; len])
}

fn certificate(subject: &str, serial: u64) -> Certificate {
    Certificate::new(
        TbsCertificate {
            serial,
            issuer: "cmla".into(),
            subject: subject.into(),
            role: EntityRole::DrmAgent,
            public_key: RsaPublicKey::new(
                BigUint::from_bytes_be(&[0xC3; 48]),
                BigUint::from_bytes_be(&65_537u32.to_be_bytes()),
            ),
            validity: ValidityPeriod::new(Timestamp::new(0), Timestamp::new(10_000)),
        },
        signature(0xA1, 48),
    )
}

fn ocsp() -> OcspResponse {
    OcspResponse::new(
        TbsOcspResponse {
            responder: "cmla".into(),
            serial: 3,
            status: CertificateStatus::Good,
            produced_at: Timestamp::new(900),
            nonce: Vec::new(),
        },
        signature(0xB2, 48),
    )
}

/// A tiny literal RSA key (real primes 251 x 241, toy exponents): enough to
/// exercise the component encoding without any key generation.
fn literal_keys() -> RsaKeyPair {
    let public = RsaPublicKey::new(BigUint::from_u64(60_491), BigUint::from_u64(7));
    let private = RsaPrivateKey::from_components(
        public,
        BigUint::from_u64(17),
        BigUint::from_u64(251),
        BigUint::from_u64(241),
    )
    .expect("literal components are consistent");
    RsaKeyPair::from_private(private)
}

/// The named golden records: one per event tag, all-literal field values.
fn golden_records() -> Vec<(&'static str, Record)> {
    let record = |event: RiEvent| Record {
        sequence: 7,
        rng_after: [0x5C; 32],
        event,
    };
    vec![
        (
            "store_content_added",
            record(RiEvent::ContentAdded {
                content_id: "cid:track-1".into(),
                cek: [0x11; 16],
                dcf_hash: [0x5A; 20],
                template: RightsTemplate::from_rights(
                    Rights::new()
                        .grant(Permission::Play, Constraint::Count(5))
                        .grant(
                            Permission::Display,
                            Constraint::Datetime(ValidityPeriod::new(
                                Timestamp::new(100),
                                Timestamp::new(200),
                            )),
                        )
                        .grant(Permission::Export, Constraint::Interval(3_600))
                        .grant(Permission::Print, Constraint::Unconstrained),
                ),
            }),
        ),
        (
            "store_session_opened",
            record(RiEvent::SessionOpened {
                session_id: 42,
                device_id: "phone-001".into(),
                ri_nonce: vec![0x77; 14],
                opened_at: Timestamp::new(1_000),
            }),
        ),
        (
            "store_device_registered",
            record(RiEvent::DeviceRegistered {
                session_id: 42,
                device_id: "phone-001".into(),
                certificate: certificate("phone-001", 9),
            }),
        ),
        (
            "store_ro_issued",
            record(RiEvent::RoIssued {
                scope: "dev:phone-001".into(),
                sequence: 3,
            }),
        ),
        (
            "store_domain_created",
            record(RiEvent::DomainCreated {
                domain_id: DomainId::new("family"),
                key: [0x22; 16],
                max_members: 4,
            }),
        ),
        (
            "store_domain_joined",
            record(RiEvent::DomainJoined {
                domain_id: DomainId::new("family"),
                device_id: "phone-001".into(),
                key: [0x22; 16],
                generation: 2,
                max_members: 4,
            }),
        ),
        (
            "store_domain_left",
            record(RiEvent::DomainLeft {
                domain_id: DomainId::new("family"),
                device_id: "phone-001".into(),
            }),
        ),
        (
            "store_ocsp_refreshed",
            record(RiEvent::OcspRefreshed { response: ocsp() }),
        ),
        (
            "store_sessions_swept",
            record(RiEvent::SessionsSwept {
                now: Timestamp::new(2_000),
                session_ids: vec![7, 9, 40],
            }),
        ),
        (
            "store_session_ttl_set",
            record(RiEvent::SessionTtlSet { seconds: 3_600 }),
        ),
    ]
}

/// A literal state image exercising every section of the snapshot encoding.
fn golden_image() -> RiStateImage {
    let family = DomainId::new("family");
    let members = ["phone-001".to_string(), "phone-002".to_string()];
    RiStateImage {
        id: "ri.example.com".into(),
        keys: literal_keys(),
        certificate: certificate("ri.example.com", 1),
        ca_root: certificate("cmla", 0),
        tables: RiTables {
            ocsp: ocsp(),
            next_session: 43,
            issued_ros: 5,
            session_ttl: 3_600,
            sessions: BTreeMap::from([(
                42,
                PendingSession {
                    device_id: "phone-002".into(),
                    ri_nonce: vec![0x88; 14],
                    opened_at: Timestamp::new(950),
                },
            )]),
            registered: BTreeMap::from([("phone-001".into(), certificate("phone-001", 9))]),
            content: BTreeMap::from([(
                "cid:track-1".into(),
                ContentEntry {
                    cek: [0x11; 16],
                    dcf_hash: [0x5A; 20],
                    template: RightsTemplate::counted(Permission::Play, 5),
                },
            )]),
            domains: BTreeMap::from([(
                family.clone(),
                Domain::restore(family, [0x22; 16], 2, members, 4),
            )]),
            ro_sequences: BTreeMap::from([("dev:phone-001".into(), 4), ("dom:family".into(), 1)]),
            rng: StdRng::from_state_bytes([0x5C; 32]),
        },
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bin"))
}

fn check(name: &str, encoded: &[u8], drifted: &mut Vec<String>) {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let path = golden_path(name);
    if bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded).unwrap();
        return;
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden vector {}: {e}", path.display()));
    if encoded != expected {
        drifted.push(name.to_string());
    }
}

#[test]
fn golden_records_match_committed_bytes() {
    let mut drifted = Vec::new();
    for (name, record) in golden_records() {
        let encoded = encode_record(&record);
        check(name, &encoded, &mut drifted);
        if std::env::var_os("UPDATE_GOLDEN").is_none() {
            // The committed bytes must also decode back to the same record.
            let expected = std::fs::read(golden_path(name)).unwrap();
            let (decoded, consumed) = decode_record_prefix(&expected)
                .unwrap_or_else(|e| panic!("golden record {name} no longer decodes: {e}"));
            assert_eq!(consumed, expected.len(), "{name} has trailing bytes");
            assert_eq!(decoded, record, "golden record {name} decodes differently");
        }
    }
    assert!(
        drifted.is_empty(),
        "store record drift detected for {drifted:?}; if intentional, bump the \
         snapshot/record version and re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_snapshot_matches_committed_bytes() {
    let image = golden_image();
    let encoded = encode_snapshot(&image, 7);
    let mut drifted = Vec::new();
    check("store_snapshot", &encoded, &mut drifted);
    if std::env::var_os("UPDATE_GOLDEN").is_none() {
        let expected = std::fs::read(golden_path("store_snapshot")).unwrap();
        let (decoded, last_sequence) = decode_snapshot(&expected)
            .unwrap_or_else(|e| panic!("golden snapshot no longer decodes: {e}"));
        assert_eq!(last_sequence, 7);
        assert_eq!(decoded, image, "golden snapshot decodes differently");
    }
    assert!(
        drifted.is_empty(),
        "store snapshot drift detected; if intentional, bump the snapshot \
         version and re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_coverage_spans_every_event_tag() {
    use std::collections::HashSet;
    let names: HashSet<&str> = golden_records().iter().map(|(n, _)| *n).collect();
    assert_eq!(names.len(), 10, "one golden vector per event variant");
}
