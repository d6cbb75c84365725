//! The RSASSA-PSS signature scheme (PKCS#1 v2.1) with SHA-1 and MGF1-SHA-1,
//! used by OMA DRM 2 for every ROAP message signature and for Rights Object
//! signatures.
//!
//! The full EMSA-PSS encoding is implemented (salted hash, MGF1 data-block
//! masking, trailer byte `0xbc`). Note that the *performance model* in
//! `oma-perf` follows the paper and approximates the encoding cost as a
//! single hash over the message plus one RSA private/public operation; the
//! small MGF1 hashes are treated as part of that approximation.

use crate::backend::{CryptoBackend, Unmetered};
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::sha1::{sha1, Sha1, DIGEST_SIZE};
use crate::CryptoError;
use oma_bignum::BigUint;
use rand::RngCore;

/// Salt length used for EMSA-PSS (equal to the SHA-1 digest size, the
/// conventional choice).
pub const SALT_LEN: usize = DIGEST_SIZE;

/// A detached RSA-PSS signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PssSignature {
    bytes: Vec<u8>,
}

impl PssSignature {
    /// Wraps raw signature bytes (used when deserialising messages).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        PssSignature { bytes }
    }

    /// The raw signature octets.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the signature in bytes (equals the modulus size).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the signature is empty (never true for a real signature).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// MGF1 mask generation with SHA-1.
///
/// The seed is absorbed into a SHA-1 prefix state once; each counter block
/// clones that state and appends only the 4 counter bytes, instead of
/// re-hashing `seed || counter` from scratch per block.
fn mgf1(seed: &[u8], len: usize) -> Vec<u8> {
    let mut seeded = Sha1::new();
    seeded.update(seed);
    let mut mask = Vec::with_capacity(len.next_multiple_of(DIGEST_SIZE));
    let mut counter: u32 = 0;
    while mask.len() < len {
        let mut block = seeded.clone();
        block.update(&counter.to_be_bytes());
        mask.extend_from_slice(&block.finalize());
        counter += 1;
    }
    mask.truncate(len);
    mask
}

/// EMSA-PSS-ENCODE (RFC 3447 §9.1.1) with SHA-1, producing `em_bits` bits.
///
/// Takes the pre-computed message hash so callers can route the (potentially
/// large) message hashing through a backend while the small MGF1 hashes stay
/// on the core — the paper's approximation of the encoding cost.
fn emsa_pss_encode(
    m_hash: &[u8; DIGEST_SIZE],
    salt: &[u8],
    em_bits: usize,
) -> Result<Vec<u8>, CryptoError> {
    let em_len = em_bits.div_ceil(8);
    let h_len = DIGEST_SIZE;
    let s_len = salt.len();
    if em_len < h_len + s_len + 2 {
        return Err(CryptoError::KeyTooSmall);
    }
    // M' = (0x)00 00 00 00 00 00 00 00 || mHash || salt
    let mut m_prime = vec![0u8; 8];
    m_prime.extend_from_slice(m_hash);
    m_prime.extend_from_slice(salt);
    let h = sha1(&m_prime);
    // DB = PS || 0x01 || salt
    let ps_len = em_len - s_len - h_len - 2;
    let mut db = vec![0u8; ps_len];
    db.push(0x01);
    db.extend_from_slice(salt);
    // maskedDB = DB xor MGF1(H, emLen - hLen - 1)
    let db_mask = mgf1(&h, em_len - h_len - 1);
    let mut masked_db: Vec<u8> = db.iter().zip(db_mask.iter()).map(|(a, b)| a ^ b).collect();
    // Clear the leftmost 8*emLen - emBits bits.
    let excess_bits = 8 * em_len - em_bits;
    if excess_bits > 0 {
        masked_db[0] &= 0xffu8 >> excess_bits;
    }
    let mut em = masked_db;
    em.extend_from_slice(&h);
    em.push(0xbc);
    Ok(em)
}

/// EMSA-PSS-VERIFY (RFC 3447 §9.1.2), from the pre-computed message hash.
fn emsa_pss_verify(m_hash: &[u8; DIGEST_SIZE], em: &[u8], em_bits: usize, s_len: usize) -> bool {
    let em_len = em_bits.div_ceil(8);
    let h_len = DIGEST_SIZE;
    if em.len() != em_len || em_len < h_len + s_len + 2 {
        return false;
    }
    if em[em_len - 1] != 0xbc {
        return false;
    }
    let masked_db = &em[..em_len - h_len - 1];
    let h = &em[em_len - h_len - 1..em_len - 1];
    let excess_bits = 8 * em_len - em_bits;
    if excess_bits > 0 && masked_db[0] & !(0xffu8 >> excess_bits) != 0 {
        return false;
    }
    let db_mask = mgf1(h, em_len - h_len - 1);
    let mut db: Vec<u8> = masked_db
        .iter()
        .zip(db_mask.iter())
        .map(|(a, b)| a ^ b)
        .collect();
    if excess_bits > 0 {
        db[0] &= 0xffu8 >> excess_bits;
    }
    let ps_len = em_len - h_len - s_len - 2;
    if !db[..ps_len].iter().all(|&b| b == 0) || db[ps_len] != 0x01 {
        return false;
    }
    let salt = &db[ps_len + 1..];
    let mut m_prime = vec![0u8; 8];
    m_prime.extend_from_slice(m_hash);
    m_prime.extend_from_slice(salt);
    let h_prime = sha1(&m_prime);
    h_prime[..] == *h
}

/// Signs `message` with RSA-PSS under `key`, drawing the salt from `rng`.
///
/// # Errors
///
/// Returns [`CryptoError::KeyTooSmall`] if the modulus cannot hold the
/// EMSA-PSS encoding (needs at least `8·(2·20 + 2) + 1` bits).
///
/// # Example
///
/// ```
/// use oma_crypto::{pss, rsa::RsaKeyPair};
/// use rand::SeedableRng;
/// # fn main() -> Result<(), oma_crypto::CryptoError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let pair = RsaKeyPair::generate(512, &mut rng);
/// let sig = pss::sign(pair.private(), b"registration request", &mut rng)?;
/// assert!(pss::verify(pair.public(), b"registration request", &sig));
/// assert!(!pss::verify(pair.public(), b"tampered", &sig));
/// # Ok(()) }
/// ```
pub fn sign<R: RngCore + ?Sized>(
    key: &RsaPrivateKey,
    message: &[u8],
    rng: &mut R,
) -> Result<PssSignature, CryptoError> {
    sign_with(&Unmetered, key, message, rng)
}

/// [`sign`] routed through a [`CryptoBackend`]: the message hash and the RSA
/// private-key exponentiation run (and are charged) on the backend, while the
/// small MGF1 hashes stay on the core — exactly the paper's approximation of
/// the EMSA-PSS cost as "one hash plus one private-key operation".
///
/// # Errors
///
/// Same as [`sign`].
pub fn sign_with<R: RngCore + ?Sized>(
    backend: &dyn CryptoBackend,
    key: &RsaPrivateKey,
    message: &[u8],
    rng: &mut R,
) -> Result<PssSignature, CryptoError> {
    sign_salted_with(backend, key, message, &random_salt(rng))
}

/// Draws a fresh EMSA-PSS salt from `rng` — the only randomness
/// [`sign_with`] consumes, so a caller can draw it early (in a fixed order
/// with its other draws) and sign later with [`sign_salted_with`].
pub fn random_salt<R: RngCore + ?Sized>(rng: &mut R) -> [u8; SALT_LEN] {
    let mut salt = [0u8; SALT_LEN];
    rng.fill_bytes(&mut salt);
    salt
}

/// [`sign_with`] with the salt given instead of drawn.
///
/// # Errors
///
/// Same as [`sign`].
pub fn sign_salted_with(
    backend: &dyn CryptoBackend,
    key: &RsaPrivateKey,
    message: &[u8],
    salt: &[u8; SALT_LEN],
) -> Result<PssSignature, CryptoError> {
    let em_bits = key.public().modulus_bits() - 1;
    let m_hash = backend.sha1(message);
    let em = emsa_pss_encode(&m_hash, salt, em_bits)?;
    let m = BigUint::from_bytes_be(&em);
    let s = backend.rsa_private_exp(key, &m)?;
    let bytes = s
        .to_bytes_be_padded(key.public().modulus_bytes())
        .ok_or(CryptoError::MessageRepresentativeOutOfRange)?;
    Ok(PssSignature { bytes })
}

/// Verifies an RSA-PSS signature over `message`.
pub fn verify(key: &RsaPublicKey, message: &[u8], signature: &PssSignature) -> bool {
    verify_with(&Unmetered, key, message, signature)
}

/// [`verify`] routed through a [`CryptoBackend`] (one backend hash of the
/// message plus one backend public-key exponentiation).
pub fn verify_with(
    backend: &dyn CryptoBackend,
    key: &RsaPublicKey,
    message: &[u8],
    signature: &PssSignature,
) -> bool {
    if signature.bytes.len() != key.modulus_bytes() {
        return false;
    }
    let s = BigUint::from_bytes_be(&signature.bytes);
    let m = match backend.rsa_public_exp(key, &s) {
        Ok(m) => m,
        Err(_) => return false,
    };
    let em_bits = key.modulus_bits() - 1;
    let em_len = em_bits.div_ceil(8);
    let em = match m.to_bytes_be_padded(em_len) {
        Some(em) => em,
        None => return false,
    };
    let m_hash = backend.sha1(message);
    emsa_pss_verify(&m_hash, &em, em_bits, SALT_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(99))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(1);
        let sig = sign(pair.private(), b"hello", &mut rng).unwrap();
        assert_eq!(sig.len(), 64);
        assert!(!sig.is_empty());
        assert!(verify(pair.public(), b"hello", &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(2);
        let sig = sign(pair.private(), b"original", &mut rng).unwrap();
        assert!(!verify(pair.public(), b"Original", &sig));
        assert!(!verify(pair.public(), b"", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(3);
        let sig = sign(pair.private(), b"message", &mut rng).unwrap();
        let mut bytes = sig.as_bytes().to_vec();
        bytes[10] ^= 0x40;
        assert!(!verify(
            pair.public(),
            b"message",
            &PssSignature::from_bytes(bytes)
        ));
        assert!(!verify(
            pair.public(),
            b"message",
            &PssSignature::from_bytes(vec![0u8; 10])
        ));
    }

    #[test]
    fn wrong_key_rejected() {
        let pair_a = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(4));
        let pair_b = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(5));
        let mut rng = StdRng::seed_from_u64(6);
        let sig = sign(pair_a.private(), b"msg", &mut rng).unwrap();
        assert!(!verify(pair_b.public(), b"msg", &sig));
    }

    #[test]
    fn signatures_are_randomised_but_both_verify() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = sign(pair.private(), b"m", &mut rng).unwrap();
        let s2 = sign(pair.private(), b"m", &mut rng).unwrap();
        assert_ne!(s1, s2, "PSS is salted, signatures should differ");
        assert!(verify(pair.public(), b"m", &s1));
        assert!(verify(pair.public(), b"m", &s2));
    }

    #[test]
    fn key_too_small_is_an_error() {
        let tiny = RsaKeyPair::generate(128, &mut StdRng::seed_from_u64(8));
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(
            sign(tiny.private(), b"m", &mut rng),
            Err(CryptoError::KeyTooSmall)
        );
    }

    #[test]
    fn mgf1_expands_deterministically() {
        let a = mgf1(b"seed", 48);
        let b = mgf1(b"seed", 48);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48);
        assert_eq!(&mgf1(b"seed", 20)[..], &a[..20]);
        assert_ne!(mgf1(b"seed", 48), mgf1(b"seee", 48));
    }

    #[test]
    fn emsa_pss_encode_verify_consistency() {
        let em = emsa_pss_encode(&sha1(b"payload"), &[7u8; SALT_LEN], 511).unwrap();
        assert!(emsa_pss_verify(&sha1(b"payload"), &em, 511, SALT_LEN));
        assert!(!emsa_pss_verify(&sha1(b"other"), &em, 511, SALT_LEN));
    }

    #[test]
    fn backend_routed_signing_is_byte_identical() {
        use crate::backend::{HwMacroBackend, SoftwareBackend};
        let pair = pair();
        let sign_under = |backend: &dyn crate::backend::CryptoBackend| {
            let mut rng = StdRng::seed_from_u64(21);
            sign_with(backend, pair.private(), b"roap message", &mut rng).unwrap()
        };
        let plain = {
            let mut rng = StdRng::seed_from_u64(21);
            sign(pair.private(), b"roap message", &mut rng).unwrap()
        };
        let sw = sign_under(&SoftwareBackend::new());
        let hw = sign_under(&HwMacroBackend::full());
        assert_eq!(plain, sw);
        assert_eq!(plain, hw);
        assert!(verify_with(
            &HwMacroBackend::hybrid(),
            pair.public(),
            b"roap message",
            &hw
        ));
    }

    #[test]
    fn salted_signing_matches_drawn_signing() {
        let pair = pair();
        let drawn = sign(pair.private(), b"roap", &mut StdRng::seed_from_u64(31)).unwrap();
        let salt = random_salt(&mut StdRng::seed_from_u64(31));
        let salted = sign_salted_with(&Unmetered, pair.private(), b"roap", &salt).unwrap();
        assert_eq!(drawn, salted, "sign = draw the salt, then sign with it");
    }
}
