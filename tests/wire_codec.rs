//! Property and corpus tests for the ROAP wire codec.
//!
//! Three properties must hold for every PDU variant:
//!
//! 1. **Round-trip** — `decode(encode(pdu)) == pdu`, for randomly generated
//!    field values (including empty strings, empty byte fields and every
//!    constraint/key-protection shape).
//! 2. **Totality** — `decode` never panics and returns `Err` for malformed
//!    input: truncations at every byte position, single-bit flips, inflated
//!    length fields, and purely random buffers.
//! 3. **Canonicality** — every mutated frame that still decodes re-encodes
//!    to exactly its own bytes, so no two frames decode to the same PDU.

mod common;

use common::*;
use oma_drm2::drm::roap::{
    DeviceHello, JoinDomainRequest, JoinDomainResponse, RegistrationRequest, RegistrationResponse,
    RiHello, RoRequest, RoResponse,
};
use oma_drm2::drm::wire::RoapStatus;
use oma_drm2::drm::{DomainId, RoapError, RoapPdu};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Number of distinct PDU shapes `pdu_from_seed` can produce.
const VARIANTS: u64 = 11;

/// Builds one PDU of shape `variant` with field values drawn from `seed`.
fn pdu_from_seed(variant: u64, seed: u64) -> RoapPdu {
    let rng = &mut StdRng::seed_from_u64(seed);
    match variant % VARIANTS {
        0 => RoapPdu::DeviceHello(DeviceHello {
            device_id: rand_string(rng, 20),
            version: rand_string(rng, 6),
            supported_algorithms: rand_str_list(rng),
        }),
        1 => RoapPdu::RiHello(RiHello {
            ri_id: rand_string(rng, 20),
            session_id: rng.next_u64(),
            ri_nonce: rand_bytes(rng, 14),
            selected_algorithms: rand_str_list(rng),
            trusted_authorities: rand_str_list(rng),
        }),
        2 => RoapPdu::RegistrationRequest(RegistrationRequest {
            session_id: rng.next_u64(),
            device_id: rand_string(rng, 20),
            device_nonce: rand_bytes(rng, 14),
            request_time: rand_timestamp(rng),
            certificate: rand_certificate(rng),
            signature: rand_signature(rng),
        }),
        3 => RoapPdu::RegistrationResponse(RegistrationResponse {
            session_id: rng.next_u64(),
            ri_id: rand_string(rng, 20),
            device_nonce: rand_bytes(rng, 14),
            ri_certificate: rand_certificate(rng),
            ocsp_response: rand_ocsp(rng),
            signature: rand_signature(rng),
        }),
        4 => RoapPdu::RoRequest(RoRequest {
            device_id: rand_string(rng, 20),
            ri_id: rand_string(rng, 20),
            content_id: rand_string(rng, 24),
            domain_id: if rng.next_u64().is_multiple_of(2) {
                Some(DomainId::new(&rand_string(rng, 12)))
            } else {
                None
            },
            device_nonce: rand_bytes(rng, 14),
            request_time: rand_timestamp(rng),
            signature: rand_signature(rng),
        }),
        5 => RoapPdu::RoResponse(RoResponse {
            device_id: rand_string(rng, 20),
            ri_id: rand_string(rng, 20),
            device_nonce: rand_bytes(rng, 14),
            rights_object: rand_protected_ro(rng),
            signature: rand_signature(rng),
        }),
        6 => RoapPdu::JoinDomainRequest(JoinDomainRequest {
            device_id: rand_string(rng, 20),
            ri_id: rand_string(rng, 20),
            domain_id: DomainId::new(&rand_string(rng, 12)),
            device_nonce: rand_bytes(rng, 14),
            request_time: rand_timestamp(rng),
            signature: rand_signature(rng),
        }),
        7 => RoapPdu::JoinDomainResponse(JoinDomainResponse {
            device_id: rand_string(rng, 20),
            ri_id: rand_string(rng, 20),
            domain_id: DomainId::new(&rand_string(rng, 12)),
            generation: rng.next_u64() as u32,
            encrypted_domain_key: rand_bytes(rng, 64),
            device_nonce: rand_bytes(rng, 14),
            signature: rand_signature(rng),
        }),
        8 => RoapPdu::LeaveDomainRequest {
            device_id: rand_string(rng, 20),
            domain_id: DomainId::new(&rand_string(rng, 12)),
        },
        9 => RoapPdu::Status(RoapStatus::from_code((rng.next_u64() % 12) as u8).unwrap()),
        _ => RoapPdu::Status(RoapStatus::Ok),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_variant_roundtrips(seed in 0u64..u64::MAX) {
        for variant in 0..VARIANTS {
            let pdu = pdu_from_seed(variant, seed);
            let frame = pdu.encode();
            let decoded = RoapPdu::decode(&frame);
            prop_assert_eq!(decoded.as_ref(), Ok(&pdu), "variant {} seed {}", variant, seed);
        }
    }

    #[test]
    fn truncation_never_decodes_and_never_panics(seed in 0u64..u64::MAX) {
        for variant in 0..VARIANTS {
            let frame = pdu_from_seed(variant, seed).encode();
            // Every strict prefix must be rejected.
            let step = (frame.len() / 37).max(1);
            for cut in (0..frame.len()).step_by(step) {
                prop_assert!(RoapPdu::decode(&frame[..cut]).is_err());
            }
        }
    }

    #[test]
    fn bit_flips_decode_or_fail_but_never_panic(seed in 0u64..u64::MAX) {
        for variant in 0..VARIANTS {
            let frame = pdu_from_seed(variant, seed).encode();
            let step = (frame.len() / 53).max(1);
            for pos in (0..frame.len()).step_by(step) {
                let mut mutated = frame.clone();
                mutated[pos] ^= 1 << (pos % 8);
                // A flip may still decode (e.g. inside a nonce); it must
                // never panic and never produce the original PDU bytes.
                let _ = RoapPdu::decode(&mutated);
            }
        }
    }

    /// Bit flips and zeroed bytes at every sampled position: whatever
    /// still decodes is the canonical encoding of what it decodes to. A
    /// zeroed first magnitude byte of a certificate key is the case a
    /// big-integer decoder that tolerates `0x00` padding gets wrong.
    #[test]
    fn decodable_mutations_reencode_byte_for_byte(seed in 0u64..u64::MAX) {
        for variant in 0..VARIANTS {
            let frame = pdu_from_seed(variant, seed).encode();
            for pos in 0..frame.len() {
                for mutated in [frame[pos] ^ (1 << (pos % 8)), 0] {
                    let mut bent = frame.clone();
                    bent[pos] = mutated;
                    if let Ok(pdu) = RoapPdu::decode(&bent) {
                        prop_assert_eq!(pdu.encode(), bent, "variant {} pos {}", variant, pos);
                    }
                }
            }
        }
    }
}

#[test]
fn random_buffers_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xf22);
    for len in [0usize, 1, 4, 17, 18, 19, 64, 256, 4096] {
        for _ in 0..64 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            let _ = RoapPdu::decode(&buf);
        }
    }
}

#[test]
fn inflated_length_fields_are_rejected() {
    for variant in 0..VARIANTS {
        let frame = pdu_from_seed(variant, 7).encode();
        // Inflate every aligned 4-byte window as if it were a length field.
        for pos in (0..frame.len().saturating_sub(4)).step_by(2) {
            let mut mutated = frame.clone();
            mutated[pos..pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            let _ = RoapPdu::decode(&mutated); // must not panic or hang
        }
        // Declaring a huge body without providing it must fail cleanly.
        let mut huge = frame.clone();
        huge[14..18].copy_from_slice(&(u32::MAX).to_be_bytes());
        assert!(RoapPdu::decode(&huge).is_err());
    }
}

#[test]
fn envelope_session_ids_surface() {
    let pdu = pdu_from_seed(2, 99);
    if let RoapPdu::RegistrationRequest(r) = &pdu {
        assert_eq!(pdu.session_id(), r.session_id);
    } else {
        panic!("variant 2 is a registration request");
    }
    assert_eq!(pdu_from_seed(8, 99).session_id(), 0);
}

#[test]
fn unsupported_version_is_a_distinct_error() {
    let mut frame = pdu_from_seed(0, 3).encode();
    frame[4] = 99;
    assert_eq!(RoapPdu::decode(&frame), Err(RoapError::UnsupportedVersion));
}
