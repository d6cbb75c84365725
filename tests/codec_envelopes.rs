//! One binary codec, three envelopes: a structure is the same byte string
//! whether it travels in a ROAP frame, sits in a WAL record or a snapshot,
//! and — for the signed PKI structures — it is the signed bytes without
//! their domain tag, followed by the signature.
//!
//! Also pins the codec's canonical-integer rule in every envelope that
//! carries a big integer: a key field padded with a leading `0x00` byte
//! would decode to the same value as the honest field, with no signature
//! covering the pad, so it is rejected.

mod common;

use common::*;
use oma_drm2::bignum::BigUint;
use oma_drm2::drm::journal::RiEvent;
use oma_drm2::drm::roap::{RegistrationRequest, RegistrationResponse, RoResponse};
use oma_drm2::drm::{RightsTemplate, RoapError, RoapPdu};
use oma_drm2::pki::codec::{put_bytes, Encode};
use oma_drm2::pki::Timestamp;
use oma_drm2::store::codec::{
    crc32, decode_record_prefix, decode_snapshot, encode_record, Record, RECORD_HEADER_LEN,
};
use oma_drm2::store::StoreError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const CERTIFICATE_TAG: &[u8] = b"oma-drm2:certificate:v1\n";
const OCSP_TAG: &[u8] = b"oma-drm2:ocsp:v1\n";
/// Bytes of a WAL record in front of its event body: frame header,
/// sequence, RNG checkpoint and event tag.
const EVENT_OFFSET: usize = RECORD_HEADER_LEN + 8 + 32 + 1;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bin"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn encoded(value: &impl Encode) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// `bytes` with the first encoding of `n` replaced by the same magnitude
/// padded with one leading `0x00` byte, and `len_at` (a big-endian `u32`
/// length covering the field) grown by one.
fn pad_big_integer(bytes: &[u8], n: &BigUint, len_at: usize) -> Vec<u8> {
    let field = encoded(n);
    let at = bytes
        .windows(field.len())
        .position(|w| w == field)
        .expect("field present");
    let mut padded = Vec::new();
    put_bytes(&mut padded, &[&[0][..], &n.to_bytes_be()].concat());
    let mut out = [&bytes[..at], &padded, &bytes[at + field.len()..]].concat();
    let len = u32::from_be_bytes(out[len_at..len_at + 4].try_into().unwrap()) + 1;
    out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    out
}

/// The modulus of every literal certificate in the golden vectors.
fn golden_modulus() -> BigUint {
    BigUint::from_bytes_be(&[0xC3; 48])
}

#[test]
fn padded_modulus_in_a_roap_frame_is_malformed() {
    let honest = golden("registration_request");
    assert!(RoapPdu::decode(&honest).is_ok());
    let padded = pad_big_integer(&honest, &golden_modulus(), 14);
    assert_eq!(padded.len(), honest.len() + 1);
    assert_eq!(RoapPdu::decode(&padded), Err(RoapError::Malformed));
}

#[test]
fn padded_modulus_in_a_wal_record_is_corrupt() {
    let honest = golden("store_device_registered");
    assert!(decode_record_prefix(&honest).is_ok());
    let mut padded = pad_big_integer(&honest, &golden_modulus(), 0);
    let crc = crc32(&padded[RECORD_HEADER_LEN..]);
    padded[4..8].copy_from_slice(&crc.to_be_bytes());
    assert!(matches!(
        decode_record_prefix(&padded),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn padded_modulus_in_a_snapshot_is_corrupt() {
    let honest = golden("store_snapshot");
    assert!(decode_snapshot(&honest).is_ok());
    let mut padded = pad_big_integer(&honest, &golden_modulus(), 13);
    let crc = crc32(&padded[21..]);
    padded[17..21].copy_from_slice(&crc.to_be_bytes());
    assert!(matches!(
        decode_snapshot(&padded),
        Err(StoreError::Corrupt(_))
    ));
}

fn wal_record(event: RiEvent) -> Vec<u8> {
    encode_record(&Record {
        sequence: 1,
        rng_after: [0; 32],
        event,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certificate_bytes_agree_across_envelopes(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let certificate = rand_certificate(rng);
        let device_id = rand_string(rng, 20);
        let nonce = rand_bytes(rng, 14);
        let signature = rand_signature(rng);
        let body = encoded(&certificate);
        let signed = certificate.tbs().to_bytes();
        prop_assert_eq!(&signed[..CERTIFICATE_TAG.len()], CERTIFICATE_TAG);
        prop_assert_eq!(
            &body,
            &[&signed[CERTIFICATE_TAG.len()..], &encoded(certificate.signature())].concat()
        );

        let frame = RoapPdu::RegistrationRequest(RegistrationRequest {
            session_id: 1,
            device_id: device_id.clone(),
            device_nonce: nonce.clone(),
            request_time: Timestamp::new(5),
            certificate: certificate.clone(),
            signature: signature.clone(),
        })
        .encode();
        let at = 18 + 4 + device_id.len() + 4 + nonce.len() + 8;
        prop_assert_eq!(&frame[at..frame.len() - 4 - signature.len()], &body[..]);

        let record = wal_record(RiEvent::DeviceRegistered {
            session_id: 1,
            device_id: device_id.clone(),
            certificate,
        });
        prop_assert_eq!(&record[EVENT_OFFSET + 8 + 4 + device_id.len()..], &body[..]);
    }

    #[test]
    fn ocsp_bytes_agree_across_envelopes(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ocsp = rand_ocsp(rng);
        let certificate = rand_certificate(rng);
        let ri_id = rand_string(rng, 20);
        let nonce = rand_bytes(rng, 14);
        let signature = rand_signature(rng);
        let body = encoded(&ocsp);
        let signed = ocsp.tbs().to_bytes();
        prop_assert_eq!(&signed[..OCSP_TAG.len()], OCSP_TAG);
        prop_assert_eq!(
            &body,
            &[&signed[OCSP_TAG.len()..], &encoded(ocsp.signature())].concat()
        );

        let frame = RoapPdu::RegistrationResponse(RegistrationResponse {
            session_id: 1,
            ri_id: ri_id.clone(),
            device_nonce: nonce.clone(),
            ri_certificate: certificate.clone(),
            ocsp_response: ocsp.clone(),
            signature: signature.clone(),
        })
        .encode();
        let at = 18 + 4 + ri_id.len() + 4 + nonce.len() + encoded(&certificate).len();
        prop_assert_eq!(&frame[at..frame.len() - 4 - signature.len()], &body[..]);

        let record = wal_record(RiEvent::OcspRefreshed { response: ocsp });
        prop_assert_eq!(&record[EVENT_OFFSET..], &body[..]);
    }

    #[test]
    fn rights_bytes_agree_across_envelopes(seed in 0u64..u64::MAX) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut ro = rand_protected_ro(rng);
        let rights = rand_rights(rng);
        ro.payload.rights = rights.clone();
        let device_id = rand_string(rng, 20);
        let ri_id = rand_string(rng, 20);
        let nonce = rand_bytes(rng, 14);
        let body = encoded(&rights);
        // The MAC'd `<rights>` element is the same grants without the
        // count, between tags.
        let mac_input = rights.to_bytes();
        prop_assert_eq!(
            &body,
            &[
                &(rights.grants().len() as u32).to_be_bytes()[..],
                &mac_input[b"<rights>".len()..mac_input.len() - b"</rights>".len()],
            ]
            .concat()
        );

        let frame = RoapPdu::RoResponse(RoResponse {
            device_id: device_id.clone(),
            ri_id: ri_id.clone(),
            device_nonce: nonce.clone(),
            rights_object: ro.clone(),
            signature: rand_signature(rng),
        })
        .encode();
        let at = 18 + 4 + device_id.len() + 4 + ri_id.len() + 4 + nonce.len()
            + 4 + ro.payload.id.as_str().len()
            + 4 + ro.payload.rights_issuer.len()
            + 4 + ro.payload.content_id.len();
        prop_assert_eq!(&frame[at..at + body.len()], &body[..]);

        let content_id = ro.payload.content_id.clone();
        let record = wal_record(RiEvent::ContentAdded {
            content_id: content_id.clone(),
            cek: [0; 16],
            dcf_hash: [0; 20],
            template: RightsTemplate::from_rights(rights),
        });
        prop_assert_eq!(&record[EVENT_OFFSET + 4 + content_id.len() + 16 + 20..], &body[..]);
    }
}
