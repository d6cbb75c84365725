//! Binary encodings of journal records and state snapshots.
//!
//! The fields are written with the shared binary codec,
//! [`oma_pki::codec`]: a certificate, OCSP response or rights value is the
//! same byte string here as inside a ROAP frame. Encoding is canonical (one
//! byte string per value — a big integer is its minimal big-endian
//! magnitude, and a leading `0x00` byte is rejected), decoding is *total* —
//! every malformed input returns [`StoreError::Corrupt`], never panics, and
//! length fields and list counts are validated before any allocation, so a
//! hostile or bit-rotted log cannot blow up recovery. On top of the codec,
//! every record and the snapshot carry a CRC-32 over their payload: storage
//! that lies (torn writes, flipped bits) is *detected*, not merely
//! tolerated.
//!
//! ```text
//! record   := u32 payload_len | u32 crc32(payload) | payload
//! payload  := u64 sequence | rng_after[32] | event
//! snapshot := "OMSS" | u8 version | u64 last_sequence
//!             | u32 payload_len | u32 crc32(payload) | payload = image
//! ```
//!
//! The image body is `RiStateImage`'s own [`Encode`]/[`Decode`] pair,
//! written next to the type in `oma_drm::journal`; this module only frames
//! it.

use crate::StoreError;
use oma_crypto::sha1::DIGEST_SIZE;
use oma_drm::domain::DomainId;
use oma_drm::journal::{RiEvent, RiStateImage};
use oma_drm::rel::RightsTemplate;
use oma_pki::codec::{put_bytes, put_str, Decode, DecodeError, Encode, Reader};

/// Magic + version prefix of a snapshot blob.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OMSS";

/// Snapshot format version emitted by this implementation.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Upper bound on a record payload. Journal records are an event plus fixed
/// overhead — hundreds of bytes, a few KiB with a certificate — so anything
/// claiming more is corruption and is rejected before allocation.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Fixed size of a record frame header (`payload_len` + `crc`).
pub const RECORD_HEADER_LEN: usize = 8;

/// Bytes of a record payload that precede the event (sequence + RNG
/// checkpoint).
pub const RECORD_PREFIX_LEN: usize = 8 + 32;

const TAG_CONTENT_ADDED: u8 = 1;
const TAG_SESSION_OPENED: u8 = 2;
const TAG_DEVICE_REGISTERED: u8 = 3;
const TAG_RO_ISSUED: u8 = 4;
const TAG_DOMAIN_CREATED: u8 = 5;
const TAG_DOMAIN_JOINED: u8 = 6;
const TAG_DOMAIN_LEFT: u8 = 7;
const TAG_OCSP_REFRESHED: u8 = 8;
const TAG_SESSIONS_SWEPT: u8 = 9;
const TAG_SESSION_TTL_SET: u8 = 10;

fn corrupt(what: &str) -> StoreError {
    StoreError::Corrupt(what.to_string())
}

// ----- CRC-32 ----------------------------------------------------------------

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for byte in data {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(*byte)) & 0xFF) as usize];
    }
    !crc
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        corrupt(e.0)
    }
}

// ----- events ----------------------------------------------------------------

/// Encodes one event (the tail of a record payload).
pub fn encode_event(event: &RiEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match event {
        RiEvent::ContentAdded {
            content_id,
            cek,
            dcf_hash,
            template,
        } => {
            out.push(TAG_CONTENT_ADDED);
            put_str(&mut out, content_id);
            out.extend_from_slice(cek);
            out.extend_from_slice(dcf_hash);
            template.rights().encode(&mut out);
        }
        RiEvent::SessionOpened {
            session_id,
            device_id,
            ri_nonce,
            opened_at,
        } => {
            out.push(TAG_SESSION_OPENED);
            put_u64(&mut out, *session_id);
            put_str(&mut out, device_id);
            put_bytes(&mut out, ri_nonce);
            opened_at.encode(&mut out);
        }
        RiEvent::DeviceRegistered {
            session_id,
            device_id,
            certificate,
        } => {
            out.push(TAG_DEVICE_REGISTERED);
            put_u64(&mut out, *session_id);
            put_str(&mut out, device_id);
            certificate.encode(&mut out);
        }
        RiEvent::RoIssued { scope, sequence } => {
            out.push(TAG_RO_ISSUED);
            put_str(&mut out, scope);
            put_u64(&mut out, *sequence);
        }
        RiEvent::DomainCreated {
            domain_id,
            key,
            max_members,
        } => {
            out.push(TAG_DOMAIN_CREATED);
            put_str(&mut out, domain_id.as_str());
            out.extend_from_slice(key);
            put_u64(&mut out, *max_members);
        }
        RiEvent::DomainJoined {
            domain_id,
            device_id,
            key,
            generation,
            max_members,
        } => {
            out.push(TAG_DOMAIN_JOINED);
            put_str(&mut out, domain_id.as_str());
            put_str(&mut out, device_id);
            out.extend_from_slice(key);
            put_u32(&mut out, *generation);
            put_u64(&mut out, *max_members);
        }
        RiEvent::DomainLeft {
            domain_id,
            device_id,
        } => {
            out.push(TAG_DOMAIN_LEFT);
            put_str(&mut out, domain_id.as_str());
            put_str(&mut out, device_id);
        }
        RiEvent::OcspRefreshed { response } => {
            out.push(TAG_OCSP_REFRESHED);
            response.encode(&mut out);
        }
        RiEvent::SessionsSwept { now, session_ids } => {
            out.push(TAG_SESSIONS_SWEPT);
            now.encode(&mut out);
            put_u32(&mut out, session_ids.len() as u32);
            for id in session_ids {
                put_u64(&mut out, *id);
            }
        }
        RiEvent::SessionTtlSet { seconds } => {
            out.push(TAG_SESSION_TTL_SET);
            put_u64(&mut out, *seconds);
        }
    }
    out
}

fn decode_event(r: &mut Reader<'_>) -> Result<RiEvent, StoreError> {
    Ok(match r.u8()? {
        TAG_CONTENT_ADDED => RiEvent::ContentAdded {
            content_id: r.str()?,
            cek: r.array()?,
            dcf_hash: r.array::<DIGEST_SIZE>()?,
            template: RightsTemplate::from_rights(Decode::decode(r)?),
        },
        TAG_SESSION_OPENED => RiEvent::SessionOpened {
            session_id: r.u64()?,
            device_id: r.str()?,
            ri_nonce: r.bytes()?,
            opened_at: Decode::decode(r)?,
        },
        TAG_DEVICE_REGISTERED => RiEvent::DeviceRegistered {
            session_id: r.u64()?,
            device_id: r.str()?,
            certificate: Decode::decode(r)?,
        },
        TAG_RO_ISSUED => RiEvent::RoIssued {
            scope: r.str()?,
            sequence: r.u64()?,
        },
        TAG_DOMAIN_CREATED => RiEvent::DomainCreated {
            domain_id: DomainId::new(&r.str()?),
            key: r.array()?,
            max_members: r.u64()?,
        },
        TAG_DOMAIN_JOINED => RiEvent::DomainJoined {
            domain_id: DomainId::new(&r.str()?),
            device_id: r.str()?,
            key: r.array()?,
            generation: r.u32()?,
            max_members: r.u64()?,
        },
        TAG_DOMAIN_LEFT => RiEvent::DomainLeft {
            domain_id: DomainId::new(&r.str()?),
            device_id: r.str()?,
        },
        TAG_OCSP_REFRESHED => RiEvent::OcspRefreshed {
            response: Decode::decode(r)?,
        },
        TAG_SESSIONS_SWEPT => RiEvent::SessionsSwept {
            now: Decode::decode(r)?,
            session_ids: r.list(8, Reader::u64)?,
        },
        TAG_SESSION_TTL_SET => RiEvent::SessionTtlSet { seconds: r.u64()? },
        _ => return Err(corrupt("unknown event tag")),
    })
}

// ----- records ---------------------------------------------------------------

/// One decoded journal record.
#[derive(Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number assigned at append time.
    pub sequence: u64,
    /// Engine RNG checkpoint captured right after the event committed.
    pub rng_after: [u8; 32],
    /// The state mutation itself.
    pub event: RiEvent,
}

impl std::fmt::Debug for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The RNG checkpoint predicts every future nonce and salt; keep it
        // out of debug output like all other key material.
        f.debug_struct("Record")
            .field("sequence", &self.sequence)
            .field("rng_after", &"<redacted>")
            .field("event", &self.event)
            .finish()
    }
}

/// Encodes one record into its CRC-framed wire form.
pub fn encode_record(record: &Record) -> Vec<u8> {
    // No size assertion here: the encoder is total, and the append path
    // (`RiStore`) enforces `MAX_RECORD_LEN` as a hard, latched error — a
    // record no decoder would accept must never reach the log.
    let mut payload = Vec::with_capacity(RECORD_PREFIX_LEN + 64);
    put_u64(&mut payload, record.sequence);
    payload.extend_from_slice(&record.rng_after);
    payload.extend_from_slice(&encode_event(&record.event));
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes one record from the front of `stream`, returning it and the
/// bytes it occupied.
///
/// # Errors
///
/// [`StoreError::Corrupt`] for truncation, an oversized or lying length
/// field, a CRC mismatch, or an undecodable event — the caller treats any
/// of these as the end of the valid log.
pub fn decode_record_prefix(stream: &[u8]) -> Result<(Record, usize), StoreError> {
    if stream.len() < RECORD_HEADER_LEN {
        return Err(corrupt("truncated record header"));
    }
    let len = u32::from_be_bytes(stream[0..4].try_into().expect("4")) as usize;
    if len > MAX_RECORD_LEN {
        return Err(corrupt("record length exceeds cap"));
    }
    if len < RECORD_PREFIX_LEN {
        return Err(corrupt("record shorter than its fixed prefix"));
    }
    let expected_crc = u32::from_be_bytes(stream[4..8].try_into().expect("4"));
    let rest = &stream[RECORD_HEADER_LEN..];
    if rest.len() < len {
        return Err(corrupt("truncated record payload"));
    }
    let payload = &rest[..len];
    if crc32(payload) != expected_crc {
        return Err(corrupt("record crc mismatch"));
    }
    let mut r = Reader::new(payload);
    let sequence = r.u64()?;
    let rng_after = r.array()?;
    let event = decode_event(&mut r)?;
    r.finish()?;
    Ok((
        Record {
            sequence,
            rng_after,
            event,
        },
        RECORD_HEADER_LEN + len,
    ))
}

// ----- snapshots -------------------------------------------------------------

/// Encodes a snapshot blob: header, coverage watermark and CRC-protected
/// image payload.
pub fn encode_snapshot(image: &RiStateImage, last_sequence: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1024);
    image.encode(&mut payload);
    let mut out = Vec::with_capacity(17 + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.push(SNAPSHOT_VERSION);
    put_u64(&mut out, last_sequence);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes a snapshot blob, returning the image and the sequence number of
/// the last journal record it covers.
///
/// # Errors
///
/// [`StoreError::Corrupt`] for a bad magic/version, length, CRC or image.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(RiStateImage, u64), StoreError> {
    if bytes.len() < 21 {
        return Err(corrupt("truncated snapshot header"));
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    if bytes[4] != SNAPSHOT_VERSION {
        return Err(corrupt("unsupported snapshot version"));
    }
    let last_sequence = u64::from_be_bytes(bytes[5..13].try_into().expect("8"));
    let len = u32::from_be_bytes(bytes[13..17].try_into().expect("4")) as usize;
    let expected_crc = u32::from_be_bytes(bytes[17..21].try_into().expect("4"));
    let payload = &bytes[21..];
    if payload.len() != len {
        return Err(corrupt("snapshot length mismatch"));
    }
    if crc32(payload) != expected_crc {
        return Err(corrupt("snapshot crc mismatch"));
    }
    let mut r = Reader::new(payload);
    let image = RiStateImage::decode(&mut r)?;
    r.finish()?;
    Ok((image, last_sequence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oma_pki::Timestamp;

    #[test]
    fn crc32_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn event_roundtrip_simple_variants() {
        let events = [
            RiEvent::RoIssued {
                scope: "dev:phone-001".into(),
                sequence: 7,
            },
            RiEvent::DomainCreated {
                domain_id: DomainId::new("family"),
                key: [3; 16],
                max_members: 4,
            },
            RiEvent::DomainJoined {
                domain_id: DomainId::new("family"),
                device_id: "phone-001".into(),
                key: [5; 16],
                generation: 1,
                max_members: 4,
            },
            RiEvent::DomainLeft {
                domain_id: DomainId::new("family"),
                device_id: "phone-001".into(),
            },
            RiEvent::SessionsSwept {
                now: Timestamp::new(1_000),
                session_ids: vec![3, 5, 8],
            },
            RiEvent::SessionOpened {
                session_id: 42,
                device_id: "phone-001".into(),
                ri_nonce: vec![7; 14],
                opened_at: Timestamp::new(5),
            },
        ];
        for event in events {
            let record = Record {
                sequence: 9,
                rng_after: [0xAB; 32],
                event: event.clone(),
            };
            let encoded = encode_record(&record);
            let (decoded, consumed) = decode_record_prefix(&encoded).unwrap();
            assert_eq!(consumed, encoded.len());
            assert_eq!(decoded, record, "event {event:?}");
        }
    }

    #[test]
    fn record_corruption_is_detected() {
        let record = Record {
            sequence: 1,
            rng_after: [0; 32],
            event: RiEvent::RoIssued {
                scope: "dev:a".into(),
                sequence: 0,
            },
        };
        let encoded = encode_record(&record);
        // Every single-bit flip anywhere in the record is caught (by the
        // length check, the CRC, or the event decoder).
        for byte in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[byte] ^= 1;
            let outcome = decode_record_prefix(&bad);
            if byte < 4 {
                // A flipped length bit may still describe a longer frame —
                // then the *caller's* buffer ends first (truncation) — or a
                // shorter one, which breaks the CRC. Either way: an error.
                assert!(outcome.is_err(), "flip in length field went unnoticed");
            } else {
                assert!(outcome.is_err(), "flip at byte {byte} went unnoticed");
            }
        }
        // Truncation at every point is an error, never a panic.
        for cut in 0..encoded.len() {
            assert!(decode_record_prefix(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_length_rejected_before_allocation() {
        let mut bytes = vec![0u8; RECORD_HEADER_LEN];
        bytes[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            decode_record_prefix(&bytes),
            Err(StoreError::Corrupt("record length exceeds cap".into()))
        );
    }
}
