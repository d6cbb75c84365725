//! The AES Key Wrap algorithm (RFC 3394), called "AES-WRAP" by OMA DRM 2.
//!
//! Key wrapping is used twice in the standard: the Rights Issuer wraps
//! `K_MAC ‖ K_REK` under the KDF2-derived KEK to form `C2`, and the DRM
//! Agent re-wraps the same keys under its device key `K_DEV` at installation
//! time to form `C2dev` (Figure 3 of the paper).

use crate::aes::{check_key, BLOCK_SIZE};
use crate::backend::{AesDirection, CryptoBackend, Unmetered};
use crate::CryptoError;

/// The default initial value from RFC 3394 §2.2.3.
pub const DEFAULT_IV: [u8; 8] = [0xa6; 8];

/// Wraps `key_data` (a multiple of 8 bytes, at least 16) under `kek`.
///
/// The output is 8 bytes longer than the input.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidKeyLength`] for a KEK that is not 16 bytes,
/// and [`CryptoError::InvalidInputLength`] when the key data is shorter than
/// 16 bytes or not a multiple of 8.
///
/// # Example
///
/// ```
/// use oma_crypto::keywrap;
/// # fn main() -> Result<(), oma_crypto::CryptoError> {
/// let kek = [0u8; 16];
/// let keys = [0x11u8; 32]; // K_MAC || K_REK
/// let wrapped = keywrap::wrap(&kek, &keys)?;
/// assert_eq!(wrapped.len(), 40);
/// assert_eq!(keywrap::unwrap(&kek, &wrapped)?, keys);
/// # Ok(()) }
/// ```
pub fn wrap(kek: &[u8], key_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
    wrap_with(&Unmetered, kek, key_data)
}

/// [`wrap`] routed through a [`CryptoBackend`]: one key schedule plus the
/// real 6·n block-cipher invocations run (and are charged) on the backend.
/// Nothing is charged when the arguments are rejected.
///
/// # Errors
///
/// Same as [`wrap`].
pub fn wrap_with(
    backend: &dyn CryptoBackend,
    kek: &[u8],
    key_data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    check_wrap_args(kek, key_data)?;
    let cipher = backend.aes_schedule(kek, AesDirection::Encrypt)?;
    let n = (key_data.len() / 8) as u64;
    // The output buffer is the working state: A in its first 8 bytes, then R[1..=n].
    let mut out = Vec::with_capacity(key_data.len() + 8);
    out.extend_from_slice(&DEFAULT_IV);
    out.extend_from_slice(key_data);
    let (a, r) = out.split_at_mut(8);

    for j in 0..6 {
        for (i, ri) in r.chunks_exact_mut(8).enumerate() {
            let mut block = [0u8; BLOCK_SIZE];
            block[..8].copy_from_slice(a);
            block[8..].copy_from_slice(ri);
            let b = backend.aes_encrypt_block(&cipher, &block);
            a.copy_from_slice(&xor_counter(&b, n * j + i as u64 + 1)[..8]);
            ri.copy_from_slice(&b[8..]);
        }
    }
    Ok(out)
}

/// Unwraps `wrapped` (produced by [`wrap`]) under `kek` and checks the
/// RFC 3394 integrity value.
///
/// # Errors
///
/// Returns [`CryptoError::KeyUnwrapIntegrity`] when the integrity check
/// fails — the symptom of a wrong KEK or tampered wrapped data — plus the
/// same input-validation errors as [`wrap`].
pub fn unwrap(kek: &[u8], wrapped: &[u8]) -> Result<Vec<u8>, CryptoError> {
    unwrap_with(&Unmetered, kek, wrapped)
}

/// [`unwrap`] routed through a [`CryptoBackend`].
///
/// # Errors
///
/// Same as [`unwrap`].
pub fn unwrap_with(
    backend: &dyn CryptoBackend,
    kek: &[u8],
    wrapped: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    check_unwrap_args(kek, wrapped)?;
    let cipher = backend.aes_schedule(kek, AesDirection::Decrypt)?;
    let n = (wrapped.len() / 8 - 1) as u64;
    let mut a = [0u8; 8];
    a.copy_from_slice(&wrapped[..8]);
    // The output buffer is the working state R[1..=n].
    let mut out = wrapped[8..].to_vec();

    for j in (0..6).rev() {
        for (i, ri) in out.chunks_exact_mut(8).enumerate().rev() {
            let mut block = [0u8; BLOCK_SIZE];
            block[..8].copy_from_slice(&a);
            block[8..].copy_from_slice(ri);
            let b = backend.aes_decrypt_block(&cipher, &xor_counter(&block, n * j + i as u64 + 1));
            a.copy_from_slice(&b[..8]);
            ri.copy_from_slice(&b[8..]);
        }
    }

    if a != DEFAULT_IV {
        return Err(CryptoError::KeyUnwrapIntegrity);
    }
    Ok(out)
}

/// `block` with the step counter `t` XORed into its first 8 bytes
/// (`MSB(64, B) ^ t` of RFC 3394).
fn xor_counter(block: &[u8; BLOCK_SIZE], t: u64) -> [u8; BLOCK_SIZE] {
    (u128::from_be_bytes(*block) ^ (u128::from(t) << 64)).to_be_bytes()
}

/// Validates the arguments of [`wrap_with`]. The engine calls it before
/// recording, so that a rejected call leaves the trace and the cycle meter
/// equally untouched.
pub(crate) fn check_wrap_args(kek: &[u8], key_data: &[u8]) -> Result<(), CryptoError> {
    check_key(kek)?;
    if key_data.len() < 16 || !key_data.len().is_multiple_of(8) {
        return Err(CryptoError::InvalidInputLength {
            expected: "key data of >= 16 bytes, multiple of 8",
            actual: key_data.len(),
        });
    }
    Ok(())
}

/// Validates the arguments of [`unwrap_with`].
pub(crate) fn check_unwrap_args(kek: &[u8], wrapped: &[u8]) -> Result<(), CryptoError> {
    check_key(kek)?;
    check_wrapped_len(wrapped)
}

/// The length half of [`check_unwrap_args`], for callers (the KEM) whose
/// KEK does not exist yet when they validate.
pub(crate) fn check_wrapped_len(wrapped: &[u8]) -> Result<(), CryptoError> {
    if wrapped.len() < 24 || !wrapped.len().is_multiple_of(8) {
        return Err(CryptoError::InvalidInputLength {
            expected: "wrapped data of >= 24 bytes, multiple of 8",
            actual: wrapped.len(),
        });
    }
    Ok(())
}

/// Number of AES block-cipher invocations performed when wrapping or
/// unwrapping `key_data_len` bytes of key material (6 per 64-bit block,
/// per RFC 3394).
pub fn block_operations(key_data_len: usize) -> u64 {
    6 * (key_data_len / 8) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc3394_128bit_key_128bit_kek() {
        let kek = hex("000102030405060708090a0b0c0d0e0f");
        let key_data = hex("00112233445566778899aabbccddeeff");
        let expected = hex("1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5");
        let wrapped = wrap(&kek, &key_data).unwrap();
        assert_eq!(wrapped, expected);
        assert_eq!(unwrap(&kek, &wrapped).unwrap(), key_data);
    }

    #[test]
    fn wrap_256_bits_of_key_material() {
        // The OMA DRM case: K_MAC || K_REK is 32 bytes, C2 is 40 bytes.
        let kek = [0x55u8; 16];
        let keys = [0xabu8; 32];
        let wrapped = wrap(&kek, &keys).unwrap();
        assert_eq!(wrapped.len(), 40);
        assert_eq!(unwrap(&kek, &wrapped).unwrap(), keys);
    }

    #[test]
    fn wrong_kek_detected() {
        let wrapped = wrap(&[1u8; 16], &[9u8; 32]).unwrap();
        assert_eq!(
            unwrap(&[2u8; 16], &wrapped),
            Err(CryptoError::KeyUnwrapIntegrity)
        );
    }

    #[test]
    fn tampered_data_detected() {
        let mut wrapped = wrap(&[1u8; 16], &[9u8; 32]).unwrap();
        wrapped[12] ^= 0x80;
        assert_eq!(
            unwrap(&[1u8; 16], &wrapped),
            Err(CryptoError::KeyUnwrapIntegrity)
        );
    }

    #[test]
    fn invalid_lengths_rejected() {
        assert!(wrap(&[0u8; 16], &[0u8; 8]).is_err()); // too short
        assert!(wrap(&[0u8; 16], &[0u8; 20]).is_err()); // not multiple of 8
        assert!(wrap(&[0u8; 8], &[0u8; 16]).is_err()); // bad kek
        assert!(unwrap(&[0u8; 16], &[0u8; 16]).is_err()); // too short
        assert!(unwrap(&[0u8; 16], &[0u8; 25]).is_err()); // not multiple of 8
    }

    #[test]
    fn block_operation_count() {
        assert_eq!(block_operations(16), 12);
        assert_eq!(block_operations(32), 24);
    }

    #[test]
    fn roundtrip_various_sizes() {
        let kek = [0x77u8; 16];
        for blocks in [2usize, 3, 4, 8, 16] {
            let data: Vec<u8> = (0..blocks * 8).map(|i| i as u8).collect();
            let wrapped = wrap(&kek, &data).unwrap();
            assert_eq!(wrapped.len(), data.len() + 8);
            assert_eq!(unwrap(&kek, &wrapped).unwrap(), data);
        }
    }
}
