//! The one binary codec behind every envelope of the stack: the ROAP wire
//! (`oma_drm::wire`), the write-ahead log and snapshots (`oma_store::codec`)
//! and replication (`oma_cluster::proto`).
//!
//! Fields are big-endian: integers are fixed-width, byte strings and UTF-8
//! strings are a `u32` length and the bytes, lists a `u32` count and the
//! elements. Each structure has one [`Encode`]/[`Decode`] pair, written next
//! to its type, so a certificate is the same byte string in a ROAP frame, a
//! WAL record and a snapshot. The envelopes own everything around the body
//! — magic, version, tag, CRC, size caps — and convert [`DecodeError`] into
//! their own error type.
//!
//! Decoding is *total*: every read is bounds-checked before it touches or
//! allocates for the payload, and a list count the remaining bytes cannot
//! hold is rejected up front ([`Reader::count`]), so arbitrary input never
//! panics. It is also *canonical*: every accepted input is the unique
//! encoding of its value, so re-encoding gives it back byte for byte. The
//! one field that needs a rule for this is the big integer: it is its
//! minimal big-endian magnitude (`BigUint::to_bytes_be`, empty for zero),
//! and a non-empty field whose first byte is `0x00` is rejected.

use crate::certificate::{Certificate, EntityRole, TbsCertificate};
use crate::ocsp::{CertificateStatus, OcspResponse, TbsOcspResponse};
use crate::{Timestamp, ValidityPeriod};
use oma_bignum::BigUint;
use oma_crypto::pss::PssSignature;
use oma_crypto::rsa::RsaPublicKey;

/// Why a body failed to decode: a static diagnostic each envelope maps into
/// its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

/// Appends the canonical encoding of a value.
pub trait Encode {
    /// Appends `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Reads a value back from its canonical encoding.
pub trait Decode: Sized {
    /// Reads one value from the front of `r`.
    ///
    /// # Errors
    ///
    /// Truncation, an unknown tag, or a field not in canonical form.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Appends a `u32` length prefix and the bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Appends a string as a length-prefixed byte string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked cursor over one encoded body. Every read fails with
/// `"truncated field"` when too few bytes remain.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError("truncated field"));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// Fails with `"trailing bytes"` unless every byte was consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.rest {
            [] => Ok(()),
            _ => Err(DecodeError("trailing bytes")),
        }
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// A fixed-size byte array (no length prefix).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A length-prefixed string; `"invalid utf-8"` unless it is UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?).map_err(|_| DecodeError("invalid utf-8"))
    }

    /// A list's `u32` element count, rejected as `"list count exceeds
    /// body"` when the rest of the body cannot hold that many elements of
    /// at least `min_len` bytes — the one list rule of every envelope, so a
    /// hostile count costs no allocation beyond the bytes received.
    pub fn count(&mut self, min_len: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count > self.rest.len() / min_len {
            return Err(DecodeError("list count exceeds body"));
        }
        Ok(count)
    }

    /// A counted list (see [`Reader::count`]), each element read by
    /// `element`.
    pub fn list<T>(
        &mut self,
        min_len: usize,
        mut element: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        (0..self.count(min_len)?).map(|_| element(self)).collect()
    }
}

impl Encode for Timestamp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
}

impl Decode for Timestamp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Timestamp::new(r.u64()?))
    }
}

impl Encode for ValidityPeriod {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
}

impl Decode for ValidityPeriod {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        ValidityPeriod::try_new(Decode::decode(r)?, Decode::decode(r)?)
            .ok_or(DecodeError("inverted validity period"))
    }
}

impl Encode for BigUint {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.to_bytes_be());
    }
}

impl Decode for BigUint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.u32()? as usize;
        let bytes = r.take(len)?;
        if bytes.first() == Some(&0) {
            return Err(DecodeError("non-canonical big integer"));
        }
        Ok(BigUint::from_bytes_be(bytes))
    }
}

impl Encode for RsaPublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.modulus().encode(out);
        self.exponent().encode(out);
    }
}

impl Decode for RsaPublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RsaPublicKey::new(Decode::decode(r)?, Decode::decode(r)?))
    }
}

impl Encode for PssSignature {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
}

impl Decode for PssSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PssSignature::from_bytes(r.bytes()?))
    }
}

impl Encode for EntityRole {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.code());
    }
}

impl Decode for EntityRole {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0x01 => EntityRole::CertificationAuthority,
            0x02 => EntityRole::RightsIssuer,
            0x03 => EntityRole::DrmAgent,
            _ => return Err(DecodeError("unknown entity role")),
        })
    }
}

impl Encode for TbsCertificate {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.serial.to_be_bytes());
        put_str(out, &self.issuer);
        put_str(out, &self.subject);
        self.role.encode(out);
        self.public_key.encode(out);
        self.validity.encode(out);
    }
}

impl Decode for TbsCertificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TbsCertificate {
            serial: r.u64()?,
            issuer: r.str()?,
            subject: r.str()?,
            role: Decode::decode(r)?,
            public_key: Decode::decode(r)?,
            validity: Decode::decode(r)?,
        })
    }
}

impl Encode for Certificate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tbs().encode(out);
        self.signature().encode(out);
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Certificate::new(Decode::decode(r)?, Decode::decode(r)?))
    }
}

impl Encode for TbsOcspResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.responder);
        out.extend_from_slice(&self.serial.to_be_bytes());
        out.push(self.status.code());
        self.produced_at.encode(out);
        put_bytes(out, &self.nonce);
    }
}

impl Decode for TbsOcspResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TbsOcspResponse {
            responder: r.str()?,
            serial: r.u64()?,
            status: match r.u8()? {
                0x00 => CertificateStatus::Good,
                0x01 => CertificateStatus::Revoked,
                0x02 => CertificateStatus::Unknown,
                _ => return Err(DecodeError("unknown certificate status")),
            },
            produced_at: Decode::decode(r)?,
            nonce: r.bytes()?,
        })
    }
}

impl Encode for OcspResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tbs().encode(out);
        self.signature().encode(out);
    }
}

impl Decode for OcspResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(OcspResponse::new(Decode::decode(r)?, Decode::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_is_total_over_short_input() {
        let mut r = Reader::new(&[0, 0, 0, 9, 1]);
        assert_eq!(r.bytes(), Err(DecodeError("truncated field")));
        let mut r = Reader::new(&[0xFF; 3]);
        assert_eq!(r.u32(), Err(DecodeError("truncated field")));
        assert_eq!(
            Reader::new(&[1]).finish(),
            Err(DecodeError("trailing bytes"))
        );
        let mut r = Reader::new(&[0, 0, 0, 2, 0xC3, 0x28]);
        assert_eq!(r.str(), Err(DecodeError("invalid utf-8")));
    }

    #[test]
    fn count_rejects_what_the_body_cannot_hold() {
        let mut r = Reader::new(&[0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.count(4), Ok(2));
        let mut r = Reader::new(&[0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.count(4), Err(DecodeError("list count exceeds body")));
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(r.count(1), Err(DecodeError("list count exceeds body")));
    }

    #[test]
    fn big_integers_are_minimal_magnitudes() {
        for value in [0u64, 1, 0xFF, 0x0100, u64::MAX] {
            let n = BigUint::from_u64(value);
            let mut out = Vec::new();
            n.encode(&mut out);
            let mut r = Reader::new(&out);
            assert_eq!(BigUint::decode(&mut r), Ok(n));
            r.finish().unwrap();
        }
        // 0x00 0x01 is 1 with a pad byte; the empty field is zero.
        let mut r = Reader::new(&[0, 0, 0, 2, 0, 1]);
        assert_eq!(
            BigUint::decode(&mut r),
            Err(DecodeError("non-canonical big integer"))
        );
        let mut r = Reader::new(&[0, 0, 0, 1, 0]);
        assert!(BigUint::decode(&mut r).is_err(), "zero is the empty field");
    }

    #[test]
    fn inverted_validity_is_rejected() {
        let mut bytes = Timestamp::new(2).to_bytes().to_vec();
        bytes.extend_from_slice(&Timestamp::new(1).to_bytes());
        assert_eq!(
            ValidityPeriod::decode(&mut Reader::new(&bytes)),
            Err(DecodeError("inverted validity period"))
        );
    }
}
