//! Online Certificate Status Protocol (OCSP) style revocation checking.
//!
//! During ROAP registration the Rights Issuer includes "a valid OCSP response
//! for its certificate, indicating whether the certificate has been revoked"
//! (paper §2.4.1). The DRM Agent must verify that response's signature — an
//! RSA public-key operation plus hashing, which is exactly what the cost
//! model charges for it.

use crate::certificate::Certificate;
use crate::codec::Encode;
use crate::error::PkiError;
use crate::Timestamp;
use oma_crypto::pss::PssSignature;
use oma_crypto::CryptoEngine;

/// Certificate status carried in an OCSP response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertificateStatus {
    /// The certificate is known and not revoked.
    Good,
    /// The certificate has been revoked.
    Revoked,
    /// The responder does not know the certificate.
    Unknown,
}

impl CertificateStatus {
    /// Stable single-byte encoding used inside the signed response.
    pub fn code(&self) -> u8 {
        match self {
            CertificateStatus::Good => 0x00,
            CertificateStatus::Revoked => 0x01,
            CertificateStatus::Unknown => 0x02,
        }
    }
}

/// An OCSP status request for a single certificate serial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcspRequest {
    /// Serial of the certificate whose status is requested.
    pub serial: u64,
    /// Anti-replay nonce chosen by the requester.
    pub nonce: Vec<u8>,
}

/// The signed portion of an OCSP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsOcspResponse {
    /// Name of the responder (the CA).
    pub responder: String,
    /// Serial the response covers.
    pub serial: u64,
    /// Status of that serial.
    pub status: CertificateStatus,
    /// When the response was produced.
    pub produced_at: Timestamp,
    /// Echo of the request nonce.
    pub nonce: Vec<u8>,
}

impl TbsOcspResponse {
    /// Canonical byte encoding (the bytes that are signed and hashed): a
    /// domain tag followed by the [`codec`](crate::codec) body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.nonce.len());
        out.extend_from_slice(b"oma-drm2:ocsp:v1\n");
        self.encode(&mut out);
        out
    }
}

/// A signed OCSP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcspResponse {
    tbs: TbsOcspResponse,
    signature: PssSignature,
}

impl OcspResponse {
    /// Assembles a response from its parts (used by the responder).
    pub fn new(tbs: TbsOcspResponse, signature: PssSignature) -> Self {
        OcspResponse { tbs, signature }
    }

    /// The signed fields.
    pub fn tbs(&self) -> &TbsOcspResponse {
        &self.tbs
    }

    /// The responder's signature.
    pub fn signature(&self) -> &PssSignature {
        &self.signature
    }

    /// Status carried by the response.
    pub fn status(&self) -> CertificateStatus {
        self.tbs.status
    }

    /// Serial the response covers.
    pub fn serial(&self) -> u64 {
        self.tbs.serial
    }

    /// Verifies this response against a certificate and the CA trust anchor.
    ///
    /// Checks, in order: the responder signature (one RSA public-key
    /// operation through `engine`), that the response covers `certificate`'s
    /// serial, the nonce echo when `expected_nonce` is provided, freshness
    /// within `max_age_seconds` of `now`, and finally that the status is
    /// [`CertificateStatus::Good`].
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`PkiError`] for the first failing check.
    pub fn verify(
        &self,
        engine: &CryptoEngine,
        certificate: &Certificate,
        ca_root: &Certificate,
        expected_nonce: Option<&[u8]>,
        now: Timestamp,
        max_age_seconds: u64,
    ) -> Result<(), PkiError> {
        if !engine.pss_verify(ca_root.public_key(), &self.tbs.to_bytes(), &self.signature) {
            return Err(PkiError::BadOcspSignature);
        }
        if self.tbs.serial != certificate.serial() {
            return Err(PkiError::OcspSerialMismatch);
        }
        if let Some(nonce) = expected_nonce {
            if nonce != self.tbs.nonce.as_slice() {
                return Err(PkiError::OcspNonceMismatch);
            }
        }
        if self.tbs.produced_at > now
            || now.seconds() - self.tbs.produced_at.seconds() > max_age_seconds
        {
            return Err(PkiError::OcspResponseStale);
        }
        match self.tbs.status {
            CertificateStatus::Good => Ok(()),
            CertificateStatus::Revoked | CertificateStatus::Unknown => {
                Err(PkiError::CertificateRevoked)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificationAuthority;
    use crate::certificate::EntityRole;
    use crate::ValidityPeriod;
    use oma_crypto::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ca: CertificationAuthority,
        cert: Certificate,
        engine: CryptoEngine,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let keys = RsaKeyPair::generate(384, &mut rng);
        let cert = ca.issue(
            "ri",
            EntityRole::RightsIssuer,
            keys.public().clone(),
            ValidityPeriod::new(Timestamp::new(0), Timestamp::new(10_000)),
        );
        Fixture {
            ca,
            cert,
            engine: CryptoEngine::with_seed(1),
        }
    }

    #[test]
    fn good_response_verifies() {
        let f = fixture();
        let req = OcspRequest {
            serial: f.cert.serial(),
            nonce: vec![9, 9],
        };
        let resp = f.ca.ocsp_respond(&req, Timestamp::new(100));
        assert!(resp
            .verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                Some(&[9, 9]),
                Timestamp::new(120),
                3600
            )
            .is_ok());
        assert_eq!(resp.serial(), f.cert.serial());
    }

    #[test]
    fn revoked_certificate_rejected() {
        let mut f = fixture();
        f.ca.revoke(f.cert.serial());
        let req = OcspRequest {
            serial: f.cert.serial(),
            nonce: vec![],
        };
        let resp = f.ca.ocsp_respond(&req, Timestamp::new(100));
        assert_eq!(
            resp.verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                None,
                Timestamp::new(120),
                3600
            ),
            Err(PkiError::CertificateRevoked)
        );
    }

    #[test]
    fn nonce_mismatch_rejected() {
        let f = fixture();
        let req = OcspRequest {
            serial: f.cert.serial(),
            nonce: vec![1],
        };
        let resp = f.ca.ocsp_respond(&req, Timestamp::new(100));
        assert_eq!(
            resp.verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                Some(&[2]),
                Timestamp::new(120),
                3600
            ),
            Err(PkiError::OcspNonceMismatch)
        );
    }

    #[test]
    fn stale_response_rejected() {
        let f = fixture();
        let req = OcspRequest {
            serial: f.cert.serial(),
            nonce: vec![],
        };
        let resp = f.ca.ocsp_respond(&req, Timestamp::new(100));
        assert_eq!(
            resp.verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                None,
                Timestamp::new(100_000),
                3600
            ),
            Err(PkiError::OcspResponseStale)
        );
        // A response "from the future" is also rejected.
        assert_eq!(
            resp.verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                None,
                Timestamp::new(50),
                3600
            ),
            Err(PkiError::OcspResponseStale)
        );
    }

    #[test]
    fn serial_mismatch_and_tampered_signature_rejected() {
        let mut f = fixture();
        let other = {
            let keys = RsaKeyPair::generate(384, &mut StdRng::seed_from_u64(22));
            f.ca.issue(
                "other",
                EntityRole::DrmAgent,
                keys.public().clone(),
                ValidityPeriod::new(Timestamp::new(0), Timestamp::new(10_000)),
            )
        };
        let req = OcspRequest {
            serial: other.serial(),
            nonce: vec![],
        };
        let resp = f.ca.ocsp_respond(&req, Timestamp::new(100));
        assert_eq!(
            resp.verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                None,
                Timestamp::new(120),
                3600
            ),
            Err(PkiError::OcspSerialMismatch)
        );

        // Tamper with the signed bytes.
        let mut tbs = resp.tbs().clone();
        tbs.status = CertificateStatus::Good;
        tbs.serial = f.cert.serial();
        let forged = OcspResponse::new(tbs, resp.signature().clone());
        assert_eq!(
            forged.verify(
                &f.engine,
                &f.cert,
                f.ca.root_certificate(),
                None,
                Timestamp::new(120),
                3600
            ),
            Err(PkiError::BadOcspSignature)
        );
    }

    #[test]
    fn status_codes_distinct() {
        assert_ne!(
            CertificateStatus::Good.code(),
            CertificateStatus::Revoked.code()
        );
        assert_ne!(
            CertificateStatus::Revoked.code(),
            CertificateStatus::Unknown.code()
        );
    }
}
