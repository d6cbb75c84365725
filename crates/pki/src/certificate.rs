//! Certificates: the signed binding between an entity, its role and its
//! RSA public key.

use crate::codec::Encode;
use crate::{Timestamp, ValidityPeriod};
use oma_crypto::pss::PssSignature;
use oma_crypto::rsa::RsaPublicKey;
use std::fmt;
use std::sync::Arc;

/// The role a certified entity plays in the OMA DRM 2 trust model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityRole {
    /// A Certification Authority (trust anchor).
    CertificationAuthority,
    /// A Rights Issuer.
    RightsIssuer,
    /// A DRM Agent (the trusted entity inside the user's terminal).
    DrmAgent,
}

impl EntityRole {
    /// Stable single-byte encoding used inside signed structures.
    pub fn code(&self) -> u8 {
        match self {
            EntityRole::CertificationAuthority => 0x01,
            EntityRole::RightsIssuer => 0x02,
            EntityRole::DrmAgent => 0x03,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            EntityRole::CertificationAuthority => "certification-authority",
            EntityRole::RightsIssuer => "rights-issuer",
            EntityRole::DrmAgent => "drm-agent",
        }
    }
}

impl fmt::Display for EntityRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A certificate signing request: what a device or Rights Issuer submits to
/// the CA out of band (the certification process itself is outside the scope
/// of OMA DRM, as the paper notes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateRequest {
    /// Requested subject name.
    pub subject: String,
    /// Requested role.
    pub role: EntityRole,
    /// The subject's public key.
    pub public_key: RsaPublicKey,
    /// Requested validity window.
    pub validity: ValidityPeriod,
}

/// The to-be-signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Issuer (CA) name.
    pub issuer: String,
    /// Subject name.
    pub subject: String,
    /// Subject role.
    pub role: EntityRole,
    /// Subject public key.
    pub public_key: RsaPublicKey,
    /// Validity window.
    pub validity: ValidityPeriod,
}

impl TbsCertificate {
    /// Canonical byte encoding: the exact bytes the CA signs and a verifier
    /// hashes — a domain tag followed by the [`codec`](crate::codec) body
    /// that also travels in ROAP frames and journal records. A
    /// length-prefixed field concatenation is used instead of DER (see
    /// DESIGN.md §5).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"oma-drm2:certificate:v1\n");
        self.encode(&mut out);
        out
    }
}

/// A certificate: a [`TbsCertificate`] plus the issuer's RSA-PSS signature
/// over its canonical encoding. Immutable once issued, so clones share one
/// allocation: pinning a device's certificate, or copying it into a state
/// image, costs a reference count rather than a copy of the key.
#[derive(Clone, PartialEq, Eq)]
pub struct Certificate(Arc<CertificateParts>);

#[derive(PartialEq, Eq)]
struct CertificateParts {
    tbs: TbsCertificate,
    signature: PssSignature,
}

impl fmt::Debug for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("tbs", &self.0.tbs)
            .field("signature", &self.0.signature)
            .finish()
    }
}

impl Certificate {
    /// Assembles a certificate from its parts (used by the CA).
    pub fn new(tbs: TbsCertificate, signature: PssSignature) -> Self {
        Certificate(Arc::new(CertificateParts { tbs, signature }))
    }

    /// The signed fields.
    pub fn tbs(&self) -> &TbsCertificate {
        &self.0.tbs
    }

    /// The issuer signature.
    pub fn signature(&self) -> &PssSignature {
        &self.0.signature
    }

    /// Serial number.
    pub fn serial(&self) -> u64 {
        self.0.tbs.serial
    }

    /// Subject name.
    pub fn subject(&self) -> &str {
        &self.0.tbs.subject
    }

    /// Issuer name.
    pub fn issuer(&self) -> &str {
        &self.0.tbs.issuer
    }

    /// Subject role.
    pub fn role(&self) -> EntityRole {
        self.0.tbs.role
    }

    /// Subject public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.0.tbs.public_key
    }

    /// Validity window.
    pub fn validity(&self) -> ValidityPeriod {
        self.0.tbs.validity
    }

    /// Whether the certificate is valid at `at` (time window only; signature
    /// and revocation are checked by [`crate::verify`]).
    pub fn is_valid_at(&self, at: Timestamp) -> bool {
        self.0.tbs.validity.contains(at)
    }
}

/// Convenience constructor for test public keys.
#[cfg(test)]
pub(crate) fn dummy_public_key(seed: u64) -> RsaPublicKey {
    use oma_bignum::BigUint;
    // A syntactically valid key for structural tests: modulus is an odd
    // number derived from the seed. Never used for real crypto.
    let n = BigUint::from_u64(seed | 1).shl_bits(64);
    let n = &n + &BigUint::from_u64(seed.wrapping_mul(31) | 1);
    RsaPublicKey::new(n, BigUint::from_u64(65_537))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tbs(serial: u64) -> TbsCertificate {
        TbsCertificate {
            serial,
            issuer: "cmla".into(),
            subject: "device-1".into(),
            role: EntityRole::DrmAgent,
            public_key: dummy_public_key(serial),
            validity: ValidityPeriod::new(Timestamp::new(0), Timestamp::new(100)),
        }
    }

    #[test]
    fn role_codes_are_distinct() {
        let codes = [
            EntityRole::CertificationAuthority.code(),
            EntityRole::RightsIssuer.code(),
            EntityRole::DrmAgent.code(),
        ];
        assert_eq!(
            codes.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
        assert_eq!(EntityRole::DrmAgent.to_string(), "drm-agent");
    }

    #[test]
    fn canonical_encoding_changes_with_every_field() {
        let base = tbs(1).to_bytes();
        let mut other = tbs(1);
        other.subject = "device-2".into();
        assert_ne!(other.to_bytes(), base);
        let mut other = tbs(1);
        other.role = EntityRole::RightsIssuer;
        assert_ne!(other.to_bytes(), base);
        assert_ne!(tbs(2).to_bytes(), base);
        let mut other = tbs(1);
        other.validity = ValidityPeriod::new(Timestamp::new(0), Timestamp::new(101));
        assert_ne!(other.to_bytes(), base);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(tbs(7).to_bytes(), tbs(7).to_bytes());
    }

    #[test]
    fn certificate_accessors() {
        let cert = Certificate::new(tbs(5), PssSignature::from_bytes(vec![1, 2, 3]));
        assert_eq!(cert.serial(), 5);
        assert_eq!(cert.subject(), "device-1");
        assert_eq!(cert.issuer(), "cmla");
        assert_eq!(cert.role(), EntityRole::DrmAgent);
        assert!(cert.is_valid_at(Timestamp::new(50)));
        assert!(!cert.is_valid_at(Timestamp::new(101)));
        assert_eq!(cert.validity().not_after().seconds(), 100);
        assert!(!cert.signature().is_empty());
        assert!(cert.public_key().modulus_bits() > 0);
    }
}
