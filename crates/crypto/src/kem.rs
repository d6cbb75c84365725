//! The RSAES-KEM + AES key-wrap construction ("KEM-KWS") that OMA DRM 2 uses
//! to protect `K_MAC ‖ K_REK` inside a Rights Object, and that Figure 3 of
//! the paper depicts:
//!
//! ```text
//!   C1 = RSAEP(pub, Z)                (1024 bits)
//!   KEK = KDF2(I2OSP(Z))              (128 bits)
//!   C2 = AES-WRAP(KEK, K_MAC ‖ K_REK) (320 bits)
//!   C  = C1 ‖ C2
//! ```
//!
//! and, on the receiving DRM Agent:
//!
//! ```text
//!   Z   = RSADP(priv, C1)
//!   KEK = KDF2(I2OSP(Z))
//!   K_MAC ‖ K_REK = AES-UNWRAP(KEK, C2)
//! ```

use crate::backend::{CryptoBackend, Unmetered};
use crate::kdf::derive_kek_with;
use crate::keywrap;
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::CryptoError;
use oma_bignum::{prime, BigUint};
use rand::RngCore;

/// Size in bytes of each symmetric key carried by the KEM (128-bit keys).
pub const SYMMETRIC_KEY_LEN: usize = 16;

/// The two ciphertext components `C1` (RSA part) and `C2` (wrapped keys).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WrappedKeys {
    /// `C1`: the RSA-encrypted KEM secret, exactly one modulus in length.
    pub c1: Vec<u8>,
    /// `C2`: the AES-wrapped `K_MAC ‖ K_REK`, 40 bytes for two 128-bit keys.
    pub c2: Vec<u8>,
}

impl WrappedKeys {
    /// Total ciphertext length `|C1| + |C2|`.
    pub fn len(&self) -> usize {
        self.c1.len() + self.c2.len()
    }

    /// Always false for a well-formed wrapping.
    pub fn is_empty(&self) -> bool {
        self.c1.is_empty() && self.c2.is_empty()
    }

    /// Concatenates `C1 ‖ C2` as the Rights Object carries it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.c1);
        out.extend_from_slice(&self.c2);
        out
    }

    /// Splits a concatenated `C1 ‖ C2` given the recipient's modulus size.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidInputLength`] if `bytes` is shorter than
    /// one RSA modulus plus the 24-byte minimum wrap size.
    pub fn from_bytes(bytes: &[u8], modulus_bytes: usize) -> Result<Self, CryptoError> {
        if bytes.len() < modulus_bytes + 24 {
            return Err(CryptoError::InvalidInputLength {
                expected: "C1 || C2 of at least modulus + 24 bytes",
                actual: bytes.len(),
            });
        }
        Ok(WrappedKeys {
            c1: bytes[..modulus_bytes].to_vec(),
            c2: bytes[modulus_bytes..].to_vec(),
        })
    }
}

/// Wraps `kmac ‖ krek` for `recipient` using a fresh KEM secret drawn from `rng`.
///
/// # Errors
///
/// Propagates RSA range errors (which cannot occur for honestly generated
/// secrets) and key-wrap input errors.
pub fn wrap_keys<R: RngCore + ?Sized>(
    recipient: &RsaPublicKey,
    kmac: &[u8; SYMMETRIC_KEY_LEN],
    krek: &[u8; SYMMETRIC_KEY_LEN],
    rng: &mut R,
) -> Result<WrappedKeys, CryptoError> {
    wrap_keys_with(&Unmetered, recipient, kmac, krek, rng)
}

/// [`wrap_keys`] routed through a [`CryptoBackend`]: the RSA encryption of
/// the KEM secret, the KDF2 hashing and the AES key wrap all run (and are
/// charged) on the backend.
///
/// # Errors
///
/// Same as [`wrap_keys`].
pub fn wrap_keys_with<R: RngCore + ?Sized>(
    backend: &dyn CryptoBackend,
    recipient: &RsaPublicKey,
    kmac: &[u8; SYMMETRIC_KEY_LEN],
    krek: &[u8; SYMMETRIC_KEY_LEN],
    rng: &mut R,
) -> Result<WrappedKeys, CryptoError> {
    // Z uniformly random in [2, n-2].
    let two = BigUint::from_u64(2);
    let upper = recipient.modulus() - &two;
    let z = prime::random_in_range(&two, &upper, rng);
    let z_octets = z
        .to_bytes_be_padded(recipient.modulus_bytes())
        .ok_or(CryptoError::MessageRepresentativeOutOfRange)?;

    let c1 = backend
        .rsa_public_exp(recipient, &z)?
        .to_bytes_be_padded(recipient.modulus_bytes())
        .ok_or(CryptoError::MessageRepresentativeOutOfRange)?;

    let kek = derive_kek_with(backend, &z_octets);
    let mut key_material = [0u8; 2 * SYMMETRIC_KEY_LEN];
    key_material[..SYMMETRIC_KEY_LEN].copy_from_slice(kmac);
    key_material[SYMMETRIC_KEY_LEN..].copy_from_slice(krek);
    let c2 = keywrap::wrap_with(backend, &kek, &key_material)?;
    Ok(WrappedKeys { c1, c2 })
}

/// Unwraps `C1 ‖ C2` with the recipient's private key, returning
/// `(K_MAC, K_REK)`.
///
/// # Errors
///
/// Returns [`CryptoError::KeyUnwrapIntegrity`] when the wrapped keys fail
/// their integrity check (wrong private key or tampered Rights Object) and
/// [`CryptoError::MalformedPlaintext`] when `C2` does not contain exactly two
/// 128-bit keys.
pub fn unwrap_keys(
    recipient: &RsaPrivateKey,
    wrapped: &WrappedKeys,
) -> Result<([u8; SYMMETRIC_KEY_LEN], [u8; SYMMETRIC_KEY_LEN]), CryptoError> {
    unwrap_keys_with(&Unmetered, recipient, wrapped)
}

/// [`unwrap_keys`] routed through a [`CryptoBackend`] (Figure 3 of the paper,
/// DRM Agent side: RSADP, KDF2 and AES-unwrap).
///
/// # Errors
///
/// Same as [`unwrap_keys`].
pub fn unwrap_keys_with(
    backend: &dyn CryptoBackend,
    recipient: &RsaPrivateKey,
    wrapped: &WrappedKeys,
) -> Result<([u8; SYMMETRIC_KEY_LEN], [u8; SYMMETRIC_KEY_LEN]), CryptoError> {
    let c1 = check_unwrap_args(recipient, wrapped)?;
    let z = backend.rsa_private_exp(recipient, &c1)?;
    let z_octets = z
        .to_bytes_be_padded(recipient.public().modulus_bytes())
        .ok_or(CryptoError::MessageRepresentativeOutOfRange)?;
    let kek = derive_kek_with(backend, &z_octets);
    let key_material = keywrap::unwrap_with(backend, &kek, &wrapped.c2)?;
    if key_material.len() != 2 * SYMMETRIC_KEY_LEN {
        return Err(CryptoError::MalformedPlaintext(
            "expected exactly two 128-bit keys",
        ));
    }
    let mut kmac = [0u8; SYMMETRIC_KEY_LEN];
    let mut krek = [0u8; SYMMETRIC_KEY_LEN];
    kmac.copy_from_slice(&key_material[..SYMMETRIC_KEY_LEN]);
    krek.copy_from_slice(&key_material[SYMMETRIC_KEY_LEN..]);
    Ok((kmac, krek))
}

/// Validates the arguments of [`unwrap_keys_with`] and returns `C1` as an
/// integer: `C1 < n`, and `C2` of a length AES-unwrap accepts. Past this
/// check every stage runs, so the engine calls it before recording and a
/// rejected call leaves the trace and the cycle meter equally untouched.
pub(crate) fn check_unwrap_args(
    recipient: &RsaPrivateKey,
    wrapped: &WrappedKeys,
) -> Result<BigUint, CryptoError> {
    let c1 = BigUint::from_bytes_be(&wrapped.c1);
    if &c1 >= recipient.public().modulus() {
        return Err(CryptoError::MessageRepresentativeOutOfRange);
    }
    keywrap::check_wrapped_len(&wrapped.c2)?;
    Ok(c1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> RsaKeyPair {
        RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(0x5eed))
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(1);
        let kmac = [0x11u8; 16];
        let krek = [0x22u8; 16];
        let wrapped = wrap_keys(pair.public(), &kmac, &krek, &mut rng).unwrap();
        assert_eq!(wrapped.c1.len(), pair.public().modulus_bytes());
        assert_eq!(wrapped.c2.len(), 40);
        let (m, r) = unwrap_keys(pair.private(), &wrapped).unwrap();
        assert_eq!(m, kmac);
        assert_eq!(r, krek);
    }

    #[test]
    fn wrong_private_key_fails_integrity() {
        let pair_a = pair();
        let pair_b = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(0xbad));
        let mut rng = StdRng::seed_from_u64(2);
        let wrapped = wrap_keys(pair_a.public(), &[1u8; 16], &[2u8; 16], &mut rng).unwrap();
        assert!(unwrap_keys(pair_b.private(), &wrapped).is_err());
    }

    #[test]
    fn tampered_c2_fails() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(3);
        let mut wrapped = wrap_keys(pair.public(), &[1u8; 16], &[2u8; 16], &mut rng).unwrap();
        wrapped.c2[5] ^= 1;
        assert_eq!(
            unwrap_keys(pair.private(), &wrapped),
            Err(CryptoError::KeyUnwrapIntegrity)
        );
    }

    #[test]
    fn tampered_c1_fails() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(4);
        let mut wrapped = wrap_keys(pair.public(), &[1u8; 16], &[2u8; 16], &mut rng).unwrap();
        wrapped.c1[10] ^= 1;
        assert!(unwrap_keys(pair.private(), &wrapped).is_err());
    }

    #[test]
    fn concatenated_roundtrip() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(5);
        let wrapped = wrap_keys(pair.public(), &[7u8; 16], &[8u8; 16], &mut rng).unwrap();
        let bytes = wrapped.to_bytes();
        assert_eq!(bytes.len(), wrapped.len());
        let parsed = WrappedKeys::from_bytes(&bytes, pair.public().modulus_bytes()).unwrap();
        assert_eq!(parsed, wrapped);
        assert!(!parsed.is_empty());
        assert!(WrappedKeys::from_bytes(&bytes[..20], pair.public().modulus_bytes()).is_err());
    }

    #[test]
    fn fresh_randomness_per_wrap() {
        let pair = pair();
        let mut rng = StdRng::seed_from_u64(6);
        let a = wrap_keys(pair.public(), &[1u8; 16], &[2u8; 16], &mut rng).unwrap();
        let b = wrap_keys(pair.public(), &[1u8; 16], &[2u8; 16], &mut rng).unwrap();
        assert_ne!(a.c1, b.c1, "KEM secret must be fresh per wrap");
    }
}
