//! Rights Objects: the protected license that carries the content key and
//! the usage rights.
//!
//! A Rights Object couples three things (paper §2.2 and Figure 2):
//!
//! * the usage **rights** (REL permissions and constraints),
//! * the **content encryption key** `K_CEK`, wrapped under the rights
//!   encryption key `K_REK`,
//! * the keys `K_MAC ‖ K_REK` themselves, protected either for a single
//!   device (RSA KEM, `C = C1 ‖ C2`) or for a domain (AES key wrap under the
//!   shared domain key).
//!
//! Integrity and authenticity are provided by an HMAC SHA-1 tag under
//! `K_MAC`; Domain Rights Objects additionally carry a mandatory RSA-PSS
//! signature by the Rights Issuer.

use crate::domain::DomainId;
use crate::rel::Rights;
use oma_crypto::kem::WrappedKeys;
use oma_crypto::pss::PssSignature;
use oma_crypto::sha1::DIGEST_SIZE;
use oma_pki::codec::{put_bytes, put_str, Decode, DecodeError, Encode, Reader};
use oma_pki::Timestamp;
use std::fmt;

/// Identifier of a Rights Object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RightsObjectId(String);

impl RightsObjectId {
    /// Creates an identifier.
    pub fn new(id: &str) -> Self {
        RightsObjectId(id.to_string())
    }

    /// The identifier string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for RightsObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for RightsObjectId {
    fn from(s: &str) -> Self {
        RightsObjectId::new(s)
    }
}

/// How `K_MAC ‖ K_REK` is protected inside the Rights Object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyProtection {
    /// Device Rights Object: the RSA KEM ciphertext `C = C1 ‖ C2` addressed
    /// to one DRM Agent's public key.
    Device(WrappedKeys),
    /// Domain Rights Object: `K_MAC ‖ K_REK` wrapped under the shared domain
    /// key with AES key wrap.
    Domain {
        /// The domain the Rights Object targets.
        domain_id: DomainId,
        /// Domain-key generation the wrap was made with.
        generation: u32,
        /// `AES-WRAP(K_D, K_MAC ‖ K_REK)` — 40 bytes.
        wrapped: Vec<u8>,
    },
}

impl KeyProtection {
    /// Whether this is a Domain Rights Object.
    pub fn is_domain(&self) -> bool {
        matches!(self, KeyProtection::Domain { .. })
    }
}

/// The MAC-protected body of a Rights Object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RightsObjectPayload {
    /// Identifier of this Rights Object.
    pub id: RightsObjectId,
    /// Identifier of the issuing Rights Issuer.
    pub rights_issuer: String,
    /// The content this license unlocks (`cid:` URI).
    pub content_id: String,
    /// Granted permissions and constraints.
    pub rights: Rights,
    /// SHA-1 hash of the DCF, binding license to content.
    pub dcf_hash: [u8; DIGEST_SIZE],
    /// `AES-WRAP(K_REK, K_CEK)` — 24 bytes.
    pub encrypted_cek: Vec<u8>,
    /// Issue time.
    pub issued_at: Timestamp,
}

impl RightsObjectPayload {
    /// Canonical byte encoding: the exact bytes covered by the HMAC and (for
    /// Domain Rights Objects) by the Rights Issuer signature.
    ///
    /// The encoding mirrors the XML Rights Object of the standard closely
    /// enough to give realistic message sizes (roughly 300–600 bytes plus
    /// rights), which is what the HMAC cost in the model depends on — so it
    /// is not the codec encoding the wire and the journal carry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.extend_from_slice(b"<ro:payload version=\"2.0\">");
        push_element(&mut out, "id", self.id.as_str().as_bytes());
        push_element(&mut out, "riID", self.rights_issuer.as_bytes());
        push_element(&mut out, "contentID", self.content_id.as_bytes());
        push_element(&mut out, "rights", &self.rights.to_bytes());
        push_element(&mut out, "dcfHash", &self.dcf_hash);
        push_element(&mut out, "encryptedCEK", &self.encrypted_cek);
        push_element(&mut out, "issued", &self.issued_at.to_bytes());
        out.extend_from_slice(b"</ro:payload>");
        out
    }
}

fn push_element(out: &mut Vec<u8>, name: &str, value: &[u8]) {
    out.push(b'<');
    out.extend_from_slice(name.as_bytes());
    out.push(b'>');
    out.extend_from_slice(&(value.len() as u32).to_be_bytes());
    out.extend_from_slice(value);
    out.extend_from_slice(b"</");
    out.extend_from_slice(name.as_bytes());
    out.push(b'>');
}

/// A complete protected Rights Object as delivered inside a `ROResponse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedRightsObject {
    /// The MAC-protected body.
    pub payload: RightsObjectPayload,
    /// Protection of `K_MAC ‖ K_REK`.
    pub key_protection: KeyProtection,
    /// `HMAC-SHA1(K_MAC, payload.to_bytes())`.
    pub mac: [u8; DIGEST_SIZE],
    /// RSA-PSS signature by the Rights Issuer over the payload. Mandatory
    /// for Domain Rights Objects, optional for Device Rights Objects.
    pub signature: Option<PssSignature>,
}

impl ProtectedRightsObject {
    /// The Rights Object identifier.
    pub fn id(&self) -> &RightsObjectId {
        &self.payload.id
    }

    /// The content identifier this license covers.
    pub fn content_id(&self) -> &str {
        &self.payload.content_id
    }

    /// Whether this is a Domain Rights Object.
    pub fn is_domain_ro(&self) -> bool {
        self.key_protection.is_domain()
    }
}

impl Encode for ProtectedRightsObject {
    fn encode(&self, out: &mut Vec<u8>) {
        let payload = &self.payload;
        put_str(out, payload.id.as_str());
        put_str(out, &payload.rights_issuer);
        put_str(out, &payload.content_id);
        payload.rights.encode(out);
        out.extend_from_slice(&payload.dcf_hash);
        put_bytes(out, &payload.encrypted_cek);
        payload.issued_at.encode(out);
        match &self.key_protection {
            KeyProtection::Device(wrapped) => {
                out.push(0);
                put_bytes(out, &wrapped.c1);
                put_bytes(out, &wrapped.c2);
            }
            KeyProtection::Domain {
                domain_id,
                generation,
                wrapped,
            } => {
                out.push(1);
                put_str(out, domain_id.as_str());
                out.extend_from_slice(&generation.to_be_bytes());
                put_bytes(out, wrapped);
            }
        }
        out.extend_from_slice(&self.mac);
        match &self.signature {
            None => out.push(0),
            Some(signature) => {
                out.push(1);
                signature.encode(out);
            }
        }
    }
}

impl Decode for ProtectedRightsObject {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let payload = RightsObjectPayload {
            id: RightsObjectId(r.str()?),
            rights_issuer: r.str()?,
            content_id: r.str()?,
            rights: Decode::decode(r)?,
            dcf_hash: r.array()?,
            encrypted_cek: r.bytes()?,
            issued_at: Decode::decode(r)?,
        };
        let key_protection = match r.u8()? {
            0 => KeyProtection::Device(WrappedKeys {
                c1: r.bytes()?,
                c2: r.bytes()?,
            }),
            1 => KeyProtection::Domain {
                domain_id: DomainId::new(&r.str()?),
                generation: r.u32()?,
                wrapped: r.bytes()?,
            },
            _ => return Err(DecodeError("unknown key protection")),
        };
        Ok(ProtectedRightsObject {
            payload,
            key_protection,
            mac: r.array()?,
            signature: match r.u8()? {
                0 => None,
                1 => Some(Decode::decode(r)?),
                _ => return Err(DecodeError("bad signature presence byte")),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::{Constraint, Permission};

    fn payload() -> RightsObjectPayload {
        RightsObjectPayload {
            id: RightsObjectId::new("ro-1"),
            rights_issuer: "ri.example.com".into(),
            content_id: "cid:track-1".into(),
            rights: Rights::new().grant(Permission::Play, Constraint::Count(5)),
            dcf_hash: [9u8; 20],
            encrypted_cek: vec![1u8; 24],
            issued_at: Timestamp::new(77),
        }
    }

    #[test]
    fn id_display() {
        let id = RightsObjectId::from("ro-42");
        assert_eq!(id.as_str(), "ro-42");
        assert_eq!(id.to_string(), "ro-42");
    }

    #[test]
    fn canonical_bytes_are_sensitive_to_every_field() {
        let base = payload().to_bytes();
        let mut p = payload();
        p.content_id = "cid:track-2".into();
        assert_ne!(p.to_bytes(), base);
        let mut p = payload();
        p.dcf_hash = [8u8; 20];
        assert_ne!(p.to_bytes(), base);
        let mut p = payload();
        p.encrypted_cek = vec![2u8; 24];
        assert_ne!(p.to_bytes(), base);
        let mut p = payload();
        p.rights = Rights::new().grant(Permission::Play, Constraint::Count(6));
        assert_ne!(p.to_bytes(), base);
        assert_eq!(payload().to_bytes(), base);
    }

    #[test]
    fn payload_size_is_realistic() {
        // The paper's Java model reports ROAP message sizes in the hundreds
        // of bytes to low kilobytes; the payload encoding should land there.
        let len = payload().to_bytes().len();
        assert!(len > 200 && len < 2048, "payload length {len}");
    }

    #[test]
    fn protected_ro_accessors() {
        let ro = ProtectedRightsObject {
            payload: payload(),
            key_protection: KeyProtection::Device(oma_crypto::kem::WrappedKeys {
                c1: vec![0u8; 128],
                c2: vec![0u8; 40],
            }),
            mac: [1u8; 20],
            signature: None,
        };
        assert_eq!(ro.id().as_str(), "ro-1");
        assert_eq!(ro.content_id(), "cid:track-1");
        assert!(!ro.is_domain_ro());
    }

    #[test]
    fn domain_protection_reports_domain() {
        let kp = KeyProtection::Domain {
            domain_id: DomainId::new("family"),
            generation: 0,
            wrapped: vec![0u8; 40],
        };
        assert!(kp.is_domain());
        assert!(!KeyProtection::Device(oma_crypto::kem::WrappedKeys {
            c1: vec![],
            c2: vec![]
        })
        .is_domain());
    }
}
