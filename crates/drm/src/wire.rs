//! The ROAP wire protocol: a canonical, self-describing binary encoding for
//! every ROAP PDU.
//!
//! The paper treats ROAP as a message-passing protocol between a DRM Agent
//! and a Rights Issuer; this module puts those messages on an actual wire.
//! Every PDU is carried in a [`RoapPdu`] envelope with the layout
//!
//! ```text
//! offset  size  field
//! ------  ----  --------------------------------------------------------
//!      0     4  magic "ROAP"
//!      4     1  wire version (currently 1)
//!      5     1  PDU type tag (see the table below)
//!      6     8  session id, big-endian (0 for PDUs outside a session)
//!     14     4  body length, big-endian
//!     18     n  body: the PDU fields, length-prefixed field by field
//! ```
//!
//! | tag | PDU |
//! |----:|-----|
//! | 1 | `DeviceHello` |
//! | 2 | `RiHello` |
//! | 3 | `RegistrationRequest` |
//! | 4 | `RegistrationResponse` |
//! | 5 | `RORequest` |
//! | 6 | `ROResponse` |
//! | 7 | `JoinDomainRequest` |
//! | 8 | `JoinDomainResponse` |
//! | 9 | `LeaveDomainRequest` |
//! | 10 | `Status` (ack / protocol error report) |
//!
//! Versioning rules: a decoder rejects any envelope whose version byte it
//! does not implement with [`RoapError::UnsupportedVersion`] and any type tag
//! it does not know with [`RoapError::UnknownPdu`]; unknown trailing bytes
//! inside a known body are rejected as [`RoapError::Malformed`]. New fields
//! therefore require a version bump — there is no silent skipping.
//!
//! The body fields are written with the shared binary codec,
//! [`oma_pki::codec`]: certificates, OCSP responses, rights and Rights
//! Objects are the very byte strings the write-ahead log stores, and a
//! certificate's or OCSP response's bytes are its signed `to_bytes()` minus
//! the domain tag, followed by the signature. Signatures cover the same
//! canonical bytes whether a PDU travelled through [`RoapPdu::encode`] or
//! was passed as an in-process struct, so signature bytes — and the
//! measured crypto cycle counts of the paper's Figures 6/7 — are identical
//! on both paths.
//!
//! Decoding is total and canonical: `decode` returns `Err(RoapError)` on
//! every malformed input (truncation, bit flips, oversized length fields,
//! trailing garbage) and never panics, and every frame it accepts is the
//! one [`RoapPdu::encode`] produces for the result — in particular a big
//! integer with a leading `0x00` byte is rejected. The `wire_codec` test
//! suite fuzzes both properties. Rights lists follow the codec's one list
//! rule (a count must fit the remaining body); the hello PDUs' string lists
//! are further capped at 4096 entries.

use crate::domain::DomainId;
use crate::error::DrmError;
use crate::roap::{
    DeviceHello, JoinDomainRequest, JoinDomainResponse, RegistrationRequest, RegistrationResponse,
    RiHello, RoRequest, RoResponse, RoapError,
};
use oma_pki::codec::{put_bytes, put_str, Decode, DecodeError, Encode, Reader};

/// Envelope magic, the first four bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"ROAP";

/// Wire format version emitted by this implementation.
pub const WIRE_VERSION: u8 = 1;

/// Fixed size of the envelope header preceding the body.
pub const HEADER_LEN: usize = 18;

/// Upper bound on the body length a decoder accepts. A length field above
/// this is rejected before any allocation happens, so a hostile 4 GiB length
/// prefix costs the server nothing.
pub const MAX_BODY_LEN: usize = 1 << 20;

/// Upper bound on the element count of a ROAP string list (the algorithm
/// and authority lists of the hello PDUs), on top of the codec's own rule
/// that a count must fit the remaining body.
const MAX_LIST_LEN: usize = 1 << 12;

const TAG_DEVICE_HELLO: u8 = 1;
const TAG_RI_HELLO: u8 = 2;
const TAG_REGISTRATION_REQUEST: u8 = 3;
const TAG_REGISTRATION_RESPONSE: u8 = 4;
const TAG_RO_REQUEST: u8 = 5;
const TAG_RO_RESPONSE: u8 = 6;
const TAG_JOIN_DOMAIN_REQUEST: u8 = 7;
const TAG_JOIN_DOMAIN_RESPONSE: u8 = 8;
const TAG_LEAVE_DOMAIN_REQUEST: u8 = 9;
const TAG_STATUS: u8 = 10;

/// Wire-level outcome report: the PDU a peer receives when a request was
/// handled without a response payload (`Ok`) or rejected (`Roap`,
/// `NotInDomain`). Wire peers see these stable codes, never Rust enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoapStatus {
    /// The request was processed successfully (used as the leave-domain ack).
    Ok,
    /// A ROAP protocol failure.
    Roap(RoapError),
    /// The device is not a member of the referenced domain.
    NotInDomain,
    /// The server is overloaded and shed the connection before reading a
    /// request. Nothing about the request was wrong — the peer should back
    /// off and retry. This is the reply an over-capacity server writes
    /// instead of silently accumulating sockets it cannot serve.
    Busy,
    /// The node addressed is not the current primary for the device's
    /// shard — it was demoted (fenced by a newer epoch) or never owned the
    /// shard. The payload is a redirect hint: the shard index whose current
    /// primary the client should re-resolve before retrying. Like
    /// [`RoapStatus::Busy`] this is retryable — nothing about the request
    /// itself was wrong.
    NotPrimary(u32),
}

impl RoapStatus {
    /// Stable single-byte wire code.
    pub fn code(&self) -> u8 {
        match self {
            RoapStatus::Ok => 0,
            RoapStatus::Roap(RoapError::UnknownSession) => 1,
            RoapStatus::Roap(RoapError::SignatureInvalid) => 2,
            RoapStatus::Roap(RoapError::CertificateInvalid) => 3,
            RoapStatus::Roap(RoapError::DeviceNotRegistered) => 4,
            RoapStatus::Roap(RoapError::UnknownRightsObject) => 5,
            RoapStatus::Roap(RoapError::UnknownDomain) => 6,
            RoapStatus::Roap(RoapError::DomainFull) => 7,
            RoapStatus::Roap(RoapError::Malformed) => 8,
            RoapStatus::Roap(RoapError::UnsupportedVersion) => 9,
            RoapStatus::Roap(RoapError::UnknownPdu) => 10,
            RoapStatus::NotInDomain => 11,
            RoapStatus::Busy => 12,
            RoapStatus::NotPrimary(_) => 13,
        }
    }

    /// Decodes a wire code. [`RoapStatus::NotPrimary`] decodes with a zero
    /// redirect hint — the hint travels in extra `Status` body bytes that
    /// only [`RoapPdu::decode`] sees (see [`RoapPdu::encode`]).
    pub fn from_code(code: u8) -> Result<Self, RoapError> {
        Ok(match code {
            0 => RoapStatus::Ok,
            1 => RoapStatus::Roap(RoapError::UnknownSession),
            2 => RoapStatus::Roap(RoapError::SignatureInvalid),
            3 => RoapStatus::Roap(RoapError::CertificateInvalid),
            4 => RoapStatus::Roap(RoapError::DeviceNotRegistered),
            5 => RoapStatus::Roap(RoapError::UnknownRightsObject),
            6 => RoapStatus::Roap(RoapError::UnknownDomain),
            7 => RoapStatus::Roap(RoapError::DomainFull),
            8 => RoapStatus::Roap(RoapError::Malformed),
            9 => RoapStatus::Roap(RoapError::UnsupportedVersion),
            10 => RoapStatus::Roap(RoapError::UnknownPdu),
            11 => RoapStatus::NotInDomain,
            12 => RoapStatus::Busy,
            13 => RoapStatus::NotPrimary(0),
            _ => return Err(RoapError::Malformed),
        })
    }

    /// Converts the status into the client-side result of the request it
    /// answered.
    ///
    /// # Errors
    ///
    /// [`DrmError::Roap`], [`DrmError::NotInDomain`], [`DrmError::Busy`] or
    /// [`DrmError::NotPrimary`] for error statuses.
    pub fn into_result(self) -> Result<(), DrmError> {
        match self {
            RoapStatus::Ok => Ok(()),
            RoapStatus::Roap(e) => Err(DrmError::Roap(e)),
            RoapStatus::NotInDomain => Err(DrmError::NotInDomain),
            RoapStatus::Busy => Err(DrmError::Busy),
            RoapStatus::NotPrimary(shard) => Err(DrmError::NotPrimary(shard)),
        }
    }
}

impl From<&DrmError> for RoapStatus {
    /// Maps a server-side failure onto its wire code. DRM-layer failures
    /// with no wire representation collapse to [`RoapError::Malformed`] —
    /// the server never leaks internal error structure a peer cannot parse.
    fn from(e: &DrmError) -> Self {
        match e {
            DrmError::Roap(e) => RoapStatus::Roap(*e),
            DrmError::NotInDomain => RoapStatus::NotInDomain,
            DrmError::Busy => RoapStatus::Busy,
            DrmError::NotPrimary(shard) => RoapStatus::NotPrimary(*shard),
            _ => RoapStatus::Roap(RoapError::Malformed),
        }
    }
}

impl From<RoapError> for RoapStatus {
    fn from(e: RoapError) -> Self {
        RoapStatus::Roap(e)
    }
}

impl From<DecodeError> for RoapError {
    /// Every body-level codec failure is a malformed PDU on the wire.
    fn from(_: DecodeError) -> Self {
        RoapError::Malformed
    }
}

/// The ROAP PDU envelope: every message of the protocol, tagged and
/// self-describing. [`encode`](RoapPdu::encode) and
/// [`decode`](RoapPdu::decode) are exact inverses for every variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoapPdu {
    /// Registration pass 1.
    DeviceHello(DeviceHello),
    /// Registration pass 2.
    RiHello(RiHello),
    /// Registration pass 3.
    RegistrationRequest(RegistrationRequest),
    /// Registration pass 4.
    RegistrationResponse(RegistrationResponse),
    /// RO acquisition pass 1.
    RoRequest(RoRequest),
    /// RO acquisition pass 2.
    RoResponse(RoResponse),
    /// Domain join pass 1.
    JoinDomainRequest(JoinDomainRequest),
    /// Domain join pass 2.
    JoinDomainResponse(JoinDomainResponse),
    /// Leave-domain request (unsigned, like the in-process API).
    LeaveDomainRequest {
        /// Device leaving the domain.
        device_id: String,
        /// Domain being left.
        domain_id: DomainId,
    },
    /// Ack / error report.
    Status(RoapStatus),
}

impl RoapPdu {
    /// The envelope type tag of this PDU.
    pub fn tag(&self) -> u8 {
        match self {
            RoapPdu::DeviceHello(_) => TAG_DEVICE_HELLO,
            RoapPdu::RiHello(_) => TAG_RI_HELLO,
            RoapPdu::RegistrationRequest(_) => TAG_REGISTRATION_REQUEST,
            RoapPdu::RegistrationResponse(_) => TAG_REGISTRATION_RESPONSE,
            RoapPdu::RoRequest(_) => TAG_RO_REQUEST,
            RoapPdu::RoResponse(_) => TAG_RO_RESPONSE,
            RoapPdu::JoinDomainRequest(_) => TAG_JOIN_DOMAIN_REQUEST,
            RoapPdu::JoinDomainResponse(_) => TAG_JOIN_DOMAIN_RESPONSE,
            RoapPdu::LeaveDomainRequest { .. } => TAG_LEAVE_DOMAIN_REQUEST,
            RoapPdu::Status(_) => TAG_STATUS,
        }
    }

    /// Human-readable PDU name, for logs and error reports.
    pub fn name(&self) -> &'static str {
        match self {
            RoapPdu::DeviceHello(_) => "DeviceHello",
            RoapPdu::RiHello(_) => "RiHello",
            RoapPdu::RegistrationRequest(_) => "RegistrationRequest",
            RoapPdu::RegistrationResponse(_) => "RegistrationResponse",
            RoapPdu::RoRequest(_) => "RORequest",
            RoapPdu::RoResponse(_) => "ROResponse",
            RoapPdu::JoinDomainRequest(_) => "JoinDomainRequest",
            RoapPdu::JoinDomainResponse(_) => "JoinDomainResponse",
            RoapPdu::LeaveDomainRequest { .. } => "LeaveDomainRequest",
            RoapPdu::Status(_) => "Status",
        }
    }

    /// The ROAP session id carried in the envelope header: the registration
    /// session for registration PDUs, 0 for PDUs outside a session.
    pub fn session_id(&self) -> u64 {
        match self {
            RoapPdu::RiHello(h) => h.session_id,
            RoapPdu::RegistrationRequest(r) => r.session_id,
            RoapPdu::RegistrationResponse(r) => r.session_id,
            _ => 0,
        }
    }

    /// The device identity a request PDU names, when it names one.
    /// `None` for responses, triggers and status PDUs — request spans
    /// treat those as identity-less.
    pub fn device_id(&self) -> Option<&str> {
        match self {
            RoapPdu::DeviceHello(hello) => Some(&hello.device_id),
            RoapPdu::RegistrationRequest(req) => Some(&req.device_id),
            RoapPdu::RoRequest(req) => Some(&req.device_id),
            RoapPdu::JoinDomainRequest(req) => Some(&req.device_id),
            RoapPdu::LeaveDomainRequest { device_id, .. } => Some(device_id),
            _ => None,
        }
    }

    /// Encodes the PDU into one framed envelope.
    ///
    /// Realistic ROAP PDUs are hundreds of bytes to a few KiB; a body that
    /// exceeds [`MAX_BODY_LEN`] would be rejected by every decoder, so
    /// producing one is a bug on the sender side and debug builds assert
    /// against it.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        debug_assert!(
            body.len() <= MAX_BODY_LEN,
            "{} body of {} bytes exceeds MAX_BODY_LEN; no decoder will accept this frame",
            self.name(),
            body.len()
        );
        let mut out = Vec::with_capacity(HEADER_LEN + body.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(self.tag());
        out.extend_from_slice(&self.session_id().to_be_bytes());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes one envelope that must span the whole input.
    ///
    /// # Errors
    ///
    /// [`RoapError::Malformed`] for any structural problem (truncation,
    /// trailing bytes, bad lengths, invalid UTF-8, unknown inner tags),
    /// [`RoapError::UnsupportedVersion`] for a version byte other than
    /// [`WIRE_VERSION`], and [`RoapError::UnknownPdu`] for an unknown type
    /// tag. Never panics.
    pub fn decode(frame: &[u8]) -> Result<Self, RoapError> {
        let (pdu, consumed) = Self::decode_prefix(frame)?;
        if consumed != frame.len() {
            return Err(RoapError::Malformed);
        }
        Ok(pdu)
    }

    /// Decodes one envelope from the front of `stream`, returning the PDU
    /// and the number of bytes it occupied. Errors as [`RoapPdu::decode`].
    fn decode_prefix(stream: &[u8]) -> Result<(Self, usize), RoapError> {
        // One source of truth for the header rules: `frame_len` validates
        // magic, version and the body-length cap. A frame that has not
        // fully arrived is a truncation here, not a wait-for-more.
        let frame_len = match Self::frame_len(stream)? {
            Some(frame_len) if stream.len() >= frame_len => frame_len,
            _ => return Err(RoapError::Malformed),
        };
        let tag = stream[5];
        let session_id = u64::from_be_bytes(stream[6..14].try_into().expect("8 bytes"));
        let mut r = Reader::new(&stream[HEADER_LEN..frame_len]);
        let pdu = Self::decode_body(tag, session_id, &mut r)?;
        r.finish()?;
        // Canonical form: the header session id must be exactly what this
        // PDU re-encodes (0 for sessionless PDUs) — no smuggled bytes.
        if pdu.session_id() != session_id {
            return Err(RoapError::Malformed);
        }
        Ok((pdu, frame_len))
    }

    /// Inspects the first bytes of an incoming byte stream and reports how
    /// long the frame they begin is — the primitive a streaming transport
    /// needs to reassemble frames split across TCP segments (or to find the
    /// boundary between frames coalesced into one segment) *before* the
    /// whole frame has arrived.
    ///
    /// Returns `Ok(None)` while fewer than [`HEADER_LEN`] bytes are
    /// available (read more and retry), and `Ok(Some(total))` once the
    /// header is complete, where `total` is the full frame length including
    /// the header. The caller buffers until `total` bytes are available and
    /// hands them to [`RoapPdu::decode`] / [`RiService::dispatch`].
    ///
    /// [`RiService::dispatch`]: crate::service::RiService::dispatch
    ///
    /// # Errors
    ///
    /// The same header rejections as [`RoapPdu::decode`]:
    /// [`RoapError::Malformed`] for a bad magic or an oversized length
    /// field, [`RoapError::UnsupportedVersion`] for an unknown version
    /// byte. A streaming peer cannot resynchronise after any of these — the
    /// connection should answer with a `Status` PDU and close.
    pub fn frame_len(prefix: &[u8]) -> Result<Option<usize>, RoapError> {
        if prefix.len() < HEADER_LEN {
            if let Some(checkable) = prefix.get(..4) {
                if checkable != WIRE_MAGIC {
                    return Err(RoapError::Malformed);
                }
            }
            return Ok(None);
        }
        if prefix[..4] != WIRE_MAGIC {
            return Err(RoapError::Malformed);
        }
        if prefix[4] != WIRE_VERSION {
            return Err(RoapError::UnsupportedVersion);
        }
        let body_len = u32::from_be_bytes(prefix[14..18].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_BODY_LEN {
            return Err(RoapError::Malformed);
        }
        Ok(Some(HEADER_LEN + body_len))
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        match self {
            RoapPdu::DeviceHello(h) => {
                put_str(&mut out, &h.device_id);
                put_str(&mut out, &h.version);
                put_str_list(&mut out, &h.supported_algorithms);
            }
            RoapPdu::RiHello(h) => {
                put_str(&mut out, &h.ri_id);
                put_bytes(&mut out, &h.ri_nonce);
                put_str_list(&mut out, &h.selected_algorithms);
                put_str_list(&mut out, &h.trusted_authorities);
            }
            RoapPdu::RegistrationRequest(r) => {
                put_str(&mut out, &r.device_id);
                put_bytes(&mut out, &r.device_nonce);
                r.request_time.encode(&mut out);
                r.certificate.encode(&mut out);
                r.signature.encode(&mut out);
            }
            RoapPdu::RegistrationResponse(r) => {
                put_str(&mut out, &r.ri_id);
                put_bytes(&mut out, &r.device_nonce);
                r.ri_certificate.encode(&mut out);
                r.ocsp_response.encode(&mut out);
                r.signature.encode(&mut out);
            }
            RoapPdu::RoRequest(r) => {
                put_str(&mut out, &r.device_id);
                put_str(&mut out, &r.ri_id);
                put_str(&mut out, &r.content_id);
                match &r.domain_id {
                    None => out.push(0),
                    Some(d) => {
                        out.push(1);
                        put_str(&mut out, d.as_str());
                    }
                }
                put_bytes(&mut out, &r.device_nonce);
                r.request_time.encode(&mut out);
                r.signature.encode(&mut out);
            }
            RoapPdu::RoResponse(r) => {
                put_str(&mut out, &r.device_id);
                put_str(&mut out, &r.ri_id);
                put_bytes(&mut out, &r.device_nonce);
                r.rights_object.encode(&mut out);
                r.signature.encode(&mut out);
            }
            RoapPdu::JoinDomainRequest(r) => {
                put_str(&mut out, &r.device_id);
                put_str(&mut out, &r.ri_id);
                put_str(&mut out, r.domain_id.as_str());
                put_bytes(&mut out, &r.device_nonce);
                r.request_time.encode(&mut out);
                r.signature.encode(&mut out);
            }
            RoapPdu::JoinDomainResponse(r) => {
                put_str(&mut out, &r.device_id);
                put_str(&mut out, &r.ri_id);
                put_str(&mut out, r.domain_id.as_str());
                out.extend_from_slice(&r.generation.to_be_bytes());
                put_bytes(&mut out, &r.encrypted_domain_key);
                put_bytes(&mut out, &r.device_nonce);
                r.signature.encode(&mut out);
            }
            RoapPdu::LeaveDomainRequest {
                device_id,
                domain_id,
            } => {
                put_str(&mut out, device_id);
                put_str(&mut out, domain_id.as_str());
            }
            RoapPdu::Status(status) => {
                out.push(status.code());
                // NotPrimary carries its redirect hint after the code byte;
                // every other status body is exactly the code.
                if let RoapStatus::NotPrimary(redirect) = status {
                    out.extend_from_slice(&redirect.to_be_bytes());
                }
            }
        }
        out
    }

    fn decode_body(tag: u8, session_id: u64, r: &mut Reader<'_>) -> Result<Self, RoapError> {
        Ok(match tag {
            TAG_DEVICE_HELLO => RoapPdu::DeviceHello(DeviceHello {
                device_id: r.str()?,
                version: r.str()?,
                supported_algorithms: str_list(r)?,
            }),
            TAG_RI_HELLO => RoapPdu::RiHello(RiHello {
                ri_id: r.str()?,
                session_id,
                ri_nonce: r.bytes()?,
                selected_algorithms: str_list(r)?,
                trusted_authorities: str_list(r)?,
            }),
            TAG_REGISTRATION_REQUEST => RoapPdu::RegistrationRequest(RegistrationRequest {
                session_id,
                device_id: r.str()?,
                device_nonce: r.bytes()?,
                request_time: Decode::decode(r)?,
                certificate: Decode::decode(r)?,
                signature: Decode::decode(r)?,
            }),
            TAG_REGISTRATION_RESPONSE => RoapPdu::RegistrationResponse(RegistrationResponse {
                session_id,
                ri_id: r.str()?,
                device_nonce: r.bytes()?,
                ri_certificate: Decode::decode(r)?,
                ocsp_response: Decode::decode(r)?,
                signature: Decode::decode(r)?,
            }),
            TAG_RO_REQUEST => RoapPdu::RoRequest(RoRequest {
                device_id: r.str()?,
                ri_id: r.str()?,
                content_id: r.str()?,
                domain_id: match r.u8()? {
                    0 => None,
                    1 => Some(DomainId::new(&r.str()?)),
                    _ => return Err(RoapError::Malformed),
                },
                device_nonce: r.bytes()?,
                request_time: Decode::decode(r)?,
                signature: Decode::decode(r)?,
            }),
            TAG_RO_RESPONSE => RoapPdu::RoResponse(RoResponse {
                device_id: r.str()?,
                ri_id: r.str()?,
                device_nonce: r.bytes()?,
                rights_object: Decode::decode(r)?,
                signature: Decode::decode(r)?,
            }),
            TAG_JOIN_DOMAIN_REQUEST => RoapPdu::JoinDomainRequest(JoinDomainRequest {
                device_id: r.str()?,
                ri_id: r.str()?,
                domain_id: DomainId::new(&r.str()?),
                device_nonce: r.bytes()?,
                request_time: Decode::decode(r)?,
                signature: Decode::decode(r)?,
            }),
            TAG_JOIN_DOMAIN_RESPONSE => RoapPdu::JoinDomainResponse(JoinDomainResponse {
                device_id: r.str()?,
                ri_id: r.str()?,
                domain_id: DomainId::new(&r.str()?),
                generation: r.u32()?,
                encrypted_domain_key: r.bytes()?,
                device_nonce: r.bytes()?,
                signature: Decode::decode(r)?,
            }),
            TAG_LEAVE_DOMAIN_REQUEST => RoapPdu::LeaveDomainRequest {
                device_id: r.str()?,
                domain_id: DomainId::new(&r.str()?),
            },
            TAG_STATUS => RoapPdu::Status(match RoapStatus::from_code(r.u8()?)? {
                RoapStatus::NotPrimary(_) => RoapStatus::NotPrimary(r.u32()?),
                status => status,
            }),
            _ => return Err(RoapError::UnknownPdu),
        })
    }
}

fn put_str_list(out: &mut Vec<u8>, list: &[String]) {
    out.extend_from_slice(&(list.len() as u32).to_be_bytes());
    for s in list {
        put_str(out, s);
    }
}

/// A ROAP string list: the codec's list rule plus the wire's own cap.
fn str_list(r: &mut Reader<'_>) -> Result<Vec<String>, RoapError> {
    let count = r.count(4)?;
    if count > MAX_LIST_LEN {
        return Err(RoapError::Malformed);
    }
    (0..count).map(|_| Ok(r.str()?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello_pdu() -> RoapPdu {
        RoapPdu::DeviceHello(DeviceHello::new("dev-1"))
    }

    #[test]
    fn envelope_roundtrip_and_header_layout() {
        let pdu = hello_pdu();
        let frame = pdu.encode();
        assert_eq!(&frame[..4], b"ROAP");
        assert_eq!(frame[4], WIRE_VERSION);
        assert_eq!(frame[5], TAG_DEVICE_HELLO);
        assert_eq!(RoapPdu::decode(&frame).unwrap(), pdu);
    }

    #[test]
    fn session_id_travels_in_the_header() {
        let pdu = RoapPdu::RiHello(RiHello {
            ri_id: "ri".into(),
            session_id: 0xdead_beef,
            ri_nonce: vec![7; 14],
            selected_algorithms: vec!["SHA-1".into()],
            trusted_authorities: vec!["cmla".into()],
        });
        let frame = pdu.encode();
        assert_eq!(
            u64::from_be_bytes(frame[6..14].try_into().unwrap()),
            0xdead_beef
        );
        assert_eq!(RoapPdu::decode(&frame).unwrap(), pdu);
    }

    #[test]
    fn frame_len_reassembles_from_any_prefix() {
        let frame = hello_pdu().encode();
        // Every strict prefix of the header asks for more bytes; a complete
        // header names the full frame length.
        for cut in 0..HEADER_LEN {
            assert_eq!(RoapPdu::frame_len(&frame[..cut]), Ok(None), "cut {cut}");
        }
        for cut in HEADER_LEN..=frame.len() {
            assert_eq!(RoapPdu::frame_len(&frame[..cut]), Ok(Some(frame.len())));
        }
        // Garbage is rejected as soon as the magic is readable, well before
        // a full header arrives.
        assert_eq!(
            RoapPdu::frame_len(b"HTTP"),
            Err(RoapError::Malformed),
            "wrong magic"
        );
        let mut wrong_version = frame.clone();
        wrong_version[4] = 9;
        assert_eq!(
            RoapPdu::frame_len(&wrong_version),
            Err(RoapError::UnsupportedVersion)
        );
        let mut hostile_len = frame;
        hostile_len[14..18].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(RoapPdu::frame_len(&hostile_len), Err(RoapError::Malformed));
    }

    #[test]
    fn nonzero_session_on_sessionless_pdu_rejected() {
        let mut frame = hello_pdu().encode();
        frame[13] = 1;
        assert_eq!(RoapPdu::decode(&frame), Err(RoapError::Malformed));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut frame = hello_pdu().encode();
        frame.push(0);
        assert_eq!(RoapPdu::decode(&frame), Err(RoapError::Malformed));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = hello_pdu().encode();
        frame[4] = 2;
        assert_eq!(RoapPdu::decode(&frame), Err(RoapError::UnsupportedVersion));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut frame = hello_pdu().encode();
        frame[5] = 0xee;
        assert_eq!(RoapPdu::decode(&frame), Err(RoapError::UnknownPdu));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut frame = hello_pdu().encode();
        let huge = (MAX_BODY_LEN as u32 + 1).to_be_bytes();
        frame[14..18].copy_from_slice(&huge);
        assert_eq!(RoapPdu::decode(&frame), Err(RoapError::Malformed));
    }

    #[test]
    fn status_codes_roundtrip() {
        let statuses = [
            RoapStatus::Ok,
            RoapStatus::NotInDomain,
            RoapStatus::Busy,
            RoapStatus::Roap(RoapError::UnknownSession),
            RoapStatus::Roap(RoapError::SignatureInvalid),
            RoapStatus::Roap(RoapError::CertificateInvalid),
            RoapStatus::Roap(RoapError::DeviceNotRegistered),
            RoapStatus::Roap(RoapError::UnknownRightsObject),
            RoapStatus::Roap(RoapError::UnknownDomain),
            RoapStatus::Roap(RoapError::DomainFull),
            RoapStatus::Roap(RoapError::Malformed),
            RoapStatus::Roap(RoapError::UnsupportedVersion),
            RoapStatus::Roap(RoapError::UnknownPdu),
            RoapStatus::NotPrimary(0),
        ];
        let mut codes: Vec<u8> = statuses.iter().map(RoapStatus::code).collect();
        for status in statuses {
            assert_eq!(RoapStatus::from_code(status.code()), Ok(status));
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 14, "status codes are distinct");
        assert_eq!(RoapStatus::from_code(200), Err(RoapError::Malformed));
    }

    #[test]
    fn not_primary_redirect_hint_rides_the_status_body() {
        let pdu = RoapPdu::Status(RoapStatus::NotPrimary(7));
        let frame = pdu.encode();
        assert_eq!(RoapPdu::decode(&frame).unwrap(), pdu);
        // The hint is mandatory: a bare code-13 body is a truncated frame.
        let bare = &frame[..frame.len() - 4];
        let mut truncated = bare.to_vec();
        let body_len = (truncated.len() - HEADER_LEN) as u32;
        truncated[14..18].copy_from_slice(&body_len.to_be_bytes());
        assert_eq!(RoapPdu::decode(&truncated), Err(RoapError::Malformed));
        assert_eq!(
            RoapStatus::NotPrimary(7).into_result(),
            Err(DrmError::NotPrimary(7))
        );
        assert_eq!(
            RoapStatus::from(&DrmError::NotPrimary(7)),
            RoapStatus::NotPrimary(7)
        );
    }

    #[test]
    fn status_into_result() {
        assert_eq!(RoapStatus::Ok.into_result(), Ok(()));
        assert_eq!(
            RoapStatus::NotInDomain.into_result(),
            Err(DrmError::NotInDomain)
        );
        assert_eq!(
            RoapStatus::Roap(RoapError::DomainFull).into_result(),
            Err(DrmError::Roap(RoapError::DomainFull))
        );
        assert_eq!(RoapStatus::Busy.into_result(), Err(DrmError::Busy));
        assert_eq!(RoapStatus::from(&DrmError::Busy), RoapStatus::Busy);
    }
}
