//! The Rights Object Acquisition Protocol (ROAP) message set.
//!
//! ROAP is the communication protocol between DRM Agent and Rights Issuer.
//! Modelled here are the 4-pass registration protocol (`DeviceHello`,
//! `RiHello`, `RegistrationRequest`, `RegistrationResponse`), the 2-pass
//! Rights Object acquisition protocol (`RoRequest`, `RoResponse`) and the
//! 2-pass domain join protocol (`JoinDomainRequest`, `JoinDomainResponse`).
//!
//! Every signed message exposes a canonical `signed_bytes()` encoding — the
//! exact bytes the sender signs and the receiver hashes — so that realistic
//! message sizes feed the hashing cost of the performance model.

use crate::domain::DomainId;
use crate::ro::{ProtectedRightsObject, RightsObjectId};
use oma_crypto::pss::PssSignature;
use oma_crypto::CryptoEngine;
use oma_pki::ocsp::OcspResponse;
use oma_pki::{Certificate, Timestamp};
use std::error::Error;
use std::fmt;

/// ROAP protocol version implemented by this crate.
pub const ROAP_VERSION: &str = "2.0";

/// Length in bytes of ROAP nonces.
pub const NONCE_LEN: usize = 14;

/// Protocol-level failures a Rights Issuer (or Agent) can signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoapError {
    /// The message referenced an unknown or expired session.
    UnknownSession,
    /// A message signature did not verify.
    SignatureInvalid,
    /// The peer certificate failed validation.
    CertificateInvalid,
    /// The device is not registered with this Rights Issuer.
    DeviceNotRegistered,
    /// The requested Rights Object / content is unknown.
    UnknownRightsObject,
    /// The requested domain is unknown.
    UnknownDomain,
    /// The domain has reached its maximum number of members.
    DomainFull,
    /// The message was malformed or referenced mismatching identities.
    Malformed,
    /// The wire envelope carried a protocol version this peer does not speak.
    UnsupportedVersion,
    /// The wire envelope carried a PDU type this peer does not know.
    UnknownPdu,
}

impl fmt::Display for RoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RoapError::UnknownSession => "unknown roap session",
            RoapError::SignatureInvalid => "roap message signature invalid",
            RoapError::CertificateInvalid => "peer certificate invalid",
            RoapError::DeviceNotRegistered => "device not registered",
            RoapError::UnknownRightsObject => "unknown rights object or content",
            RoapError::UnknownDomain => "unknown domain",
            RoapError::DomainFull => "domain is full",
            RoapError::Malformed => "malformed roap message",
            RoapError::UnsupportedVersion => "unsupported roap wire version",
            RoapError::UnknownPdu => "unknown roap pdu type",
        };
        f.write_str(s)
    }
}

impl Error for RoapError {}

fn push_field(out: &mut Vec<u8>, name: &str, value: &[u8]) {
    out.push(b'<');
    out.extend_from_slice(name.as_bytes());
    out.push(b'>');
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(value);
}

/// Pass 1: the Device advertises itself and its capabilities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceHello {
    /// Device identifier (hash of its public key in the real standard).
    pub device_id: String,
    /// Protocol version.
    pub version: String,
    /// Algorithm suites the device supports. The mandatory suite of §2.4.5
    /// is always present.
    pub supported_algorithms: Vec<String>,
}

impl DeviceHello {
    /// A hello advertising the mandatory algorithm suite.
    pub fn new(device_id: &str) -> Self {
        DeviceHello {
            device_id: device_id.to_string(),
            version: ROAP_VERSION.to_string(),
            supported_algorithms: vec![
                "SHA-1".into(),
                "HMAC-SHA-1".into(),
                "AES-128-CBC".into(),
                "AES-128-WRAP".into(),
                "RSA-PSS".into(),
                "RSA-1024".into(),
                "KDF2".into(),
            ],
        }
    }
}

/// Pass 2: the Rights Issuer answers with its identity and a session id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiHello {
    /// Rights Issuer identifier.
    pub ri_id: String,
    /// Session identifier the device must echo in the RegistrationRequest.
    pub session_id: u64,
    /// Nonce chosen by the Rights Issuer.
    pub ri_nonce: Vec<u8>,
    /// The algorithm suite selected for the session.
    pub selected_algorithms: Vec<String>,
    /// Trust anchors (CA names) the Rights Issuer accepts.
    pub trusted_authorities: Vec<String>,
}

/// Pass 3: the Device requests registration, signed with its private key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrationRequest {
    /// Session from the RiHello.
    pub session_id: u64,
    /// Device identity.
    pub device_id: String,
    /// Fresh device nonce.
    pub device_nonce: Vec<u8>,
    /// Request time, for replay detection.
    pub request_time: Timestamp,
    /// The device certificate chain (single certificate in this model).
    pub certificate: Certificate,
    /// Device signature over [`RegistrationRequest::signed_bytes`].
    pub signature: PssSignature,
}

impl RegistrationRequest {
    /// The canonical bytes covered by the device signature.
    pub fn signed_bytes(
        session_id: u64,
        device_id: &str,
        device_nonce: &[u8],
        request_time: Timestamp,
        certificate: &Certificate,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(b"roap:RegistrationRequest\n");
        out.extend_from_slice(&session_id.to_be_bytes());
        push_field(&mut out, "deviceID", device_id.as_bytes());
        push_field(&mut out, "nonce", device_nonce);
        out.extend_from_slice(&request_time.to_bytes());
        push_field(&mut out, "certificate", &certificate.tbs().to_bytes());
        out
    }
}

/// Pass 4: the Rights Issuer accepts the registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrationResponse {
    /// Echoed session.
    pub session_id: u64,
    /// Rights Issuer identity.
    pub ri_id: String,
    /// Echo of the device nonce.
    pub device_nonce: Vec<u8>,
    /// The Rights Issuer certificate.
    pub ri_certificate: Certificate,
    /// A current OCSP response proving the RI certificate is not revoked.
    pub ocsp_response: OcspResponse,
    /// Rights Issuer signature over [`RegistrationResponse::signed_bytes`].
    pub signature: PssSignature,
}

impl RegistrationResponse {
    /// The canonical bytes covered by the Rights Issuer signature.
    pub fn signed_bytes(
        session_id: u64,
        ri_id: &str,
        device_nonce: &[u8],
        ri_certificate: &Certificate,
        ocsp_response: &OcspResponse,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(b"roap:RegistrationResponse\n");
        out.extend_from_slice(&session_id.to_be_bytes());
        push_field(&mut out, "riID", ri_id.as_bytes());
        push_field(&mut out, "nonce", device_nonce);
        push_field(&mut out, "certificate", &ri_certificate.tbs().to_bytes());
        push_field(&mut out, "ocsp", &ocsp_response.tbs().to_bytes());
        out
    }
}

/// First pass of RO acquisition: the Device asks for a license.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoRequest {
    /// Device identity.
    pub device_id: String,
    /// Rights Issuer identity.
    pub ri_id: String,
    /// Content the device wants a license for.
    pub content_id: String,
    /// Optional domain the Rights Object should target.
    pub domain_id: Option<DomainId>,
    /// Fresh device nonce.
    pub device_nonce: Vec<u8>,
    /// Request time.
    pub request_time: Timestamp,
    /// Device signature over [`RoRequest::signed_bytes`].
    pub signature: PssSignature,
}

impl RoRequest {
    /// The canonical bytes covered by the device signature.
    pub fn signed_bytes(
        device_id: &str,
        ri_id: &str,
        content_id: &str,
        domain_id: Option<&DomainId>,
        device_nonce: &[u8],
        request_time: Timestamp,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"roap:RORequest\n");
        push_field(&mut out, "deviceID", device_id.as_bytes());
        push_field(&mut out, "riID", ri_id.as_bytes());
        push_field(&mut out, "contentID", content_id.as_bytes());
        if let Some(domain) = domain_id {
            push_field(&mut out, "domainID", domain.as_str().as_bytes());
        }
        push_field(&mut out, "nonce", device_nonce);
        out.extend_from_slice(&request_time.to_bytes());
        out
    }
}

/// Second pass of RO acquisition: the Rights Issuer delivers the license.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoResponse {
    /// Device identity.
    pub device_id: String,
    /// Rights Issuer identity.
    pub ri_id: String,
    /// Echo of the device nonce.
    pub device_nonce: Vec<u8>,
    /// The protected Rights Object.
    pub rights_object: ProtectedRightsObject,
    /// Rights Issuer signature over [`RoResponse::signed_bytes`].
    pub signature: PssSignature,
}

impl RoResponse {
    /// The canonical bytes covered by the Rights Issuer signature.
    pub fn signed_bytes(
        device_id: &str,
        ri_id: &str,
        device_nonce: &[u8],
        rights_object: &ProtectedRightsObject,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(b"roap:ROResponse\n");
        push_field(&mut out, "deviceID", device_id.as_bytes());
        push_field(&mut out, "riID", ri_id.as_bytes());
        push_field(&mut out, "nonce", device_nonce);
        push_field(&mut out, "roPayload", &rights_object.payload.to_bytes());
        push_field(&mut out, "mac", &rights_object.mac);
        out
    }

    /// The Rights Object identifier carried in this response.
    pub fn ro_id(&self) -> &RightsObjectId {
        self.rights_object.id()
    }

    /// Agent-side verification of the response: checks the nonce echo and
    /// the Rights Issuer signature over [`RoResponse::signed_bytes`]. This is
    /// the check the DRM Agent runs before it trusts a delivered Rights
    /// Object; it is exposed so adversarial tests can exercise it against
    /// tampered responses directly.
    ///
    /// # Errors
    ///
    /// * [`RoapError::Malformed`] — the device nonce does not echo
    ///   `expected_nonce`,
    /// * [`RoapError::SignatureInvalid`] — the signature does not verify
    ///   under `ri_certificate`.
    pub fn verify(
        &self,
        engine: &CryptoEngine,
        ri_certificate: &Certificate,
        expected_nonce: &[u8],
    ) -> Result<(), RoapError> {
        if self.device_nonce != expected_nonce {
            return Err(RoapError::Malformed);
        }
        let signed = Self::signed_bytes(
            &self.device_id,
            &self.ri_id,
            &self.device_nonce,
            &self.rights_object,
        );
        if !engine.pss_verify(ri_certificate.public_key(), &signed, &self.signature) {
            return Err(RoapError::SignatureInvalid);
        }
        Ok(())
    }
}

/// Request to join a domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinDomainRequest {
    /// Device identity.
    pub device_id: String,
    /// Rights Issuer identity.
    pub ri_id: String,
    /// Domain to join.
    pub domain_id: DomainId,
    /// Fresh device nonce.
    pub device_nonce: Vec<u8>,
    /// Request time.
    pub request_time: Timestamp,
    /// Device signature over [`JoinDomainRequest::signed_bytes`].
    pub signature: PssSignature,
}

impl JoinDomainRequest {
    /// The canonical bytes covered by the device signature.
    pub fn signed_bytes(
        device_id: &str,
        ri_id: &str,
        domain_id: &DomainId,
        device_nonce: &[u8],
        request_time: Timestamp,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(b"roap:JoinDomainRequest\n");
        push_field(&mut out, "deviceID", device_id.as_bytes());
        push_field(&mut out, "riID", ri_id.as_bytes());
        push_field(&mut out, "domainID", domain_id.as_str().as_bytes());
        push_field(&mut out, "nonce", device_nonce);
        out.extend_from_slice(&request_time.to_bytes());
        out
    }
}

/// Response carrying the (device-encrypted) domain key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinDomainResponse {
    /// Device identity.
    pub device_id: String,
    /// Rights Issuer identity.
    pub ri_id: String,
    /// Domain joined.
    pub domain_id: DomainId,
    /// Domain-key generation delivered.
    pub generation: u32,
    /// The 128-bit domain key, RSA-encrypted to the device public key.
    pub encrypted_domain_key: Vec<u8>,
    /// Echo of the device nonce.
    pub device_nonce: Vec<u8>,
    /// Rights Issuer signature over [`JoinDomainResponse::signed_bytes`].
    pub signature: PssSignature,
}

impl JoinDomainResponse {
    /// The canonical bytes covered by the Rights Issuer signature.
    pub fn signed_bytes(
        device_id: &str,
        ri_id: &str,
        domain_id: &DomainId,
        generation: u32,
        encrypted_domain_key: &[u8],
        device_nonce: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(b"roap:JoinDomainResponse\n");
        push_field(&mut out, "deviceID", device_id.as_bytes());
        push_field(&mut out, "riID", ri_id.as_bytes());
        push_field(&mut out, "domainID", domain_id.as_str().as_bytes());
        out.extend_from_slice(&generation.to_be_bytes());
        push_field(&mut out, "domainKey", encrypted_domain_key);
        push_field(&mut out, "nonce", device_nonce);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_hello_advertises_mandatory_suite() {
        let hello = DeviceHello::new("device-1");
        assert_eq!(hello.version, ROAP_VERSION);
        assert!(hello
            .supported_algorithms
            .iter()
            .any(|a| a == "AES-128-WRAP"));
    }

    #[test]
    fn signed_bytes_depend_on_all_fields() {
        let base = RoRequest::signed_bytes("d", "r", "cid:x", None, &[1, 2], Timestamp::new(5));
        assert_ne!(
            RoRequest::signed_bytes("d", "r", "cid:y", None, &[1, 2], Timestamp::new(5)),
            base
        );
        assert_ne!(
            RoRequest::signed_bytes("d", "r", "cid:x", None, &[1, 3], Timestamp::new(5)),
            base
        );
        assert_ne!(
            RoRequest::signed_bytes("d", "r", "cid:x", None, &[1, 2], Timestamp::new(6)),
            base
        );
        let with_domain = RoRequest::signed_bytes(
            "d",
            "r",
            "cid:x",
            Some(&DomainId::new("dom")),
            &[1, 2],
            Timestamp::new(5),
        );
        assert_ne!(with_domain, base);
    }

    #[test]
    fn join_domain_bytes_include_generation() {
        let a = JoinDomainResponse::signed_bytes("d", "r", &DomainId::new("x"), 0, &[9], &[1]);
        let b = JoinDomainResponse::signed_bytes("d", "r", &DomainId::new("x"), 1, &[9], &[1]);
        assert_ne!(a, b);
    }

    #[test]
    fn roap_error_display() {
        for e in [
            RoapError::UnknownSession,
            RoapError::SignatureInvalid,
            RoapError::CertificateInvalid,
            RoapError::DeviceNotRegistered,
            RoapError::UnknownRightsObject,
            RoapError::UnknownDomain,
            RoapError::DomainFull,
            RoapError::Malformed,
            RoapError::UnsupportedVersion,
            RoapError::UnknownPdu,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
