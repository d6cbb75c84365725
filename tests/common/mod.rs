//! Seeded random generators for the codec property suites: every structure
//! the binary codec carries, with field values that exercise empty strings,
//! empty byte fields and every constraint / key-protection shape.

#![allow(dead_code)]

use oma_drm2::bignum::BigUint;
use oma_drm2::crypto::kem::WrappedKeys;
use oma_drm2::crypto::pss::PssSignature;
use oma_drm2::crypto::rsa::RsaPublicKey;
use oma_drm2::drm::ro::{
    KeyProtection, ProtectedRightsObject, RightsObjectId, RightsObjectPayload,
};
use oma_drm2::drm::{Constraint, DomainId, Permission, Rights};
use oma_drm2::pki::ocsp::{CertificateStatus, OcspResponse, TbsOcspResponse};
use oma_drm2::pki::{Certificate, EntityRole, TbsCertificate, Timestamp, ValidityPeriod};
use rand::rngs::StdRng;
use rand::RngCore;

pub fn rand_string(rng: &mut StdRng, max_len: u64) -> String {
    let len = rng.next_u64() % (max_len + 1);
    (0..len)
        .map(|_| char::from(b'a' + (rng.next_u64() % 26) as u8))
        .collect()
}

pub fn rand_bytes(rng: &mut StdRng, max_len: u64) -> Vec<u8> {
    let len = (rng.next_u64() % (max_len + 1)) as usize;
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

pub fn rand_signature(rng: &mut StdRng) -> PssSignature {
    PssSignature::from_bytes(rand_bytes(rng, 64))
}

pub fn rand_timestamp(rng: &mut StdRng) -> Timestamp {
    Timestamp::new(rng.next_u64())
}

pub fn rand_validity(rng: &mut StdRng) -> ValidityPeriod {
    let a = rng.next_u64();
    let b = rng.next_u64();
    ValidityPeriod::new(Timestamp::new(a.min(b)), Timestamp::new(a.max(b)))
}

pub fn rand_public_key(rng: &mut StdRng) -> RsaPublicKey {
    RsaPublicKey::new(
        BigUint::from_bytes_be(&rand_bytes(rng, 48)),
        BigUint::from_bytes_be(&[rand_bytes(rng, 4), vec![1]].concat()),
    )
}

pub fn rand_role(rng: &mut StdRng) -> EntityRole {
    match rng.next_u64() % 3 {
        0 => EntityRole::CertificationAuthority,
        1 => EntityRole::RightsIssuer,
        _ => EntityRole::DrmAgent,
    }
}

pub fn rand_certificate(rng: &mut StdRng) -> Certificate {
    let tbs = TbsCertificate {
        serial: rng.next_u64(),
        issuer: rand_string(rng, 12),
        subject: rand_string(rng, 12),
        role: rand_role(rng),
        public_key: rand_public_key(rng),
        validity: rand_validity(rng),
    };
    Certificate::new(tbs, rand_signature(rng))
}

pub fn rand_ocsp(rng: &mut StdRng) -> OcspResponse {
    let tbs = TbsOcspResponse {
        responder: rand_string(rng, 12),
        serial: rng.next_u64(),
        status: match rng.next_u64() % 3 {
            0 => CertificateStatus::Good,
            1 => CertificateStatus::Revoked,
            _ => CertificateStatus::Unknown,
        },
        produced_at: rand_timestamp(rng),
        nonce: rand_bytes(rng, 14),
    };
    OcspResponse::new(tbs, rand_signature(rng))
}

pub fn rand_constraint(rng: &mut StdRng) -> Constraint {
    match rng.next_u64() % 4 {
        0 => Constraint::Unconstrained,
        1 => Constraint::Count(rng.next_u64() as u32),
        2 => Constraint::Datetime(rand_validity(rng)),
        _ => Constraint::Interval(rng.next_u64()),
    }
}

pub fn rand_rights(rng: &mut StdRng) -> Rights {
    let permissions = [
        Permission::Play,
        Permission::Display,
        Permission::Execute,
        Permission::Print,
        Permission::Export,
    ];
    let mut rights = Rights::new();
    for _ in 0..rng.next_u64() % 4 {
        let p = permissions[(rng.next_u64() % 5) as usize];
        rights = rights.grant(p, rand_constraint(rng));
    }
    rights
}

pub fn rand_digest(rng: &mut StdRng) -> [u8; 20] {
    let mut out = [0u8; 20];
    rng.fill_bytes(&mut out);
    out
}

pub fn rand_protected_ro(rng: &mut StdRng) -> ProtectedRightsObject {
    let payload = RightsObjectPayload {
        id: RightsObjectId::new(&rand_string(rng, 24)),
        rights_issuer: rand_string(rng, 12),
        content_id: rand_string(rng, 24),
        rights: rand_rights(rng),
        dcf_hash: rand_digest(rng),
        encrypted_cek: rand_bytes(rng, 24),
        issued_at: rand_timestamp(rng),
    };
    let key_protection = if rng.next_u64().is_multiple_of(2) {
        KeyProtection::Device(WrappedKeys {
            c1: rand_bytes(rng, 64),
            c2: rand_bytes(rng, 40),
        })
    } else {
        KeyProtection::Domain {
            domain_id: DomainId::new(&rand_string(rng, 12)),
            generation: rng.next_u64() as u32,
            wrapped: rand_bytes(rng, 40),
        }
    };
    let signature = if rng.next_u64().is_multiple_of(2) {
        Some(rand_signature(rng))
    } else {
        None
    };
    ProtectedRightsObject {
        payload,
        key_protection,
        mac: rand_digest(rng),
        signature,
    }
}

pub fn rand_str_list(rng: &mut StdRng) -> Vec<String> {
    (0..rng.next_u64() % 5)
        .map(|_| rand_string(rng, 10))
        .collect()
}
