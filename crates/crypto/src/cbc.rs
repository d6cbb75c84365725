//! AES-128 CBC mode with PKCS#7 padding.
//!
//! OMA DRM 2 mandates 128-bit AES in CBC mode for content encryption: the
//! Content Issuer encrypts the media payload of a DCF under `K_CEK`, and the
//! DRM Agent decrypts it on every playback.

use crate::aes::{check_key, Aes128, BLOCK_SIZE};
use crate::backend::{AesDirection, CryptoBackend, Unmetered};
use crate::CryptoError;

type Block = [u8; BLOCK_SIZE];

/// Encrypts `plaintext` with AES-128-CBC under `key` and `iv`, appending
/// PKCS#7 padding.
///
/// The returned ciphertext length is `plaintext.len()` rounded up to the next
/// multiple of 16 (a full padding block is added when the input is already
/// block-aligned).
///
/// # Errors
///
/// Returns [`CryptoError::InvalidKeyLength`] if `key` is not 16 bytes and
/// [`CryptoError::InvalidInputLength`] if `iv` is not 16 bytes.
///
/// # Example
///
/// ```
/// use oma_crypto::cbc;
/// # fn main() -> Result<(), oma_crypto::CryptoError> {
/// let key = [7u8; 16];
/// let iv = [9u8; 16];
/// let ct = cbc::encrypt(&key, &iv, b"protected content")?;
/// assert_eq!(cbc::decrypt(&key, &iv, &ct)?, b"protected content");
/// # Ok(()) }
/// ```
pub fn encrypt(key: &[u8], iv: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    encrypt_with(&Unmetered, key, iv, plaintext)
}

/// [`encrypt`] routed through a [`CryptoBackend`]: the key schedule and every
/// block operation run (and are charged) on the backend. Nothing is charged
/// when the arguments are rejected.
///
/// # Errors
///
/// Same as [`encrypt`].
pub fn encrypt_with(
    backend: &dyn CryptoBackend,
    key: &[u8],
    iv: &[u8],
    plaintext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let iv = check_encrypt_args(key, iv)?;
    let cipher = backend.aes_schedule(key, AesDirection::Encrypt)?;
    let whole = plaintext.len() - plaintext.len() % BLOCK_SIZE;
    let mut out = vec![0u8; whole + BLOCK_SIZE];
    let (body, last) = out.split_at_mut(whole);
    backend.aes_cbc_blocks(
        &cipher,
        AesDirection::Encrypt,
        &iv,
        &plaintext[..whole],
        body,
    );
    // The final block is the only one built here: the input's tail under
    // PKCS#7 padding, chained from the last ciphertext block.
    let rest = &plaintext[whole..];
    let mut padded = [(BLOCK_SIZE - rest.len()) as u8; BLOCK_SIZE];
    padded[..rest.len()].copy_from_slice(rest);
    let chain = body.last_chunk().copied().unwrap_or(iv);
    backend.aes_cbc_blocks(&cipher, AesDirection::Encrypt, &chain, &padded, last);
    Ok(out)
}

/// Decrypts AES-128-CBC ciphertext and strips PKCS#7 padding.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidKeyLength`] for a bad key,
/// [`CryptoError::InvalidInputLength`] if the ciphertext is empty or not a
/// multiple of 16 bytes, and [`CryptoError::InvalidPadding`] if the padding is
/// malformed (which is the symptom of decrypting with the wrong key).
pub fn decrypt(key: &[u8], iv: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    decrypt_with(&Unmetered, key, iv, ciphertext)
}

/// [`decrypt`] routed through a [`CryptoBackend`]. Nothing is charged when
/// the arguments are rejected; malformed padding is only visible after the
/// whole ciphertext was decrypted (and charged).
///
/// # Errors
///
/// Same as [`decrypt`].
pub fn decrypt_with(
    backend: &dyn CryptoBackend,
    key: &[u8],
    iv: &[u8],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let iv = check_decrypt_args(key, iv, ciphertext)?;
    let cipher = backend.aes_schedule(key, AesDirection::Decrypt)?;
    let mut out = vec![0u8; ciphertext.len()];
    backend.aes_cbc_blocks(&cipher, AesDirection::Decrypt, &iv, ciphertext, &mut out);
    unpad(&mut out)?;
    Ok(out)
}

/// CBC-encrypts the whole blocks of `input` into `output`, chaining from
/// `iv`; `encrypt` is the raw block cipher.
pub(crate) fn chain_encrypt(
    iv: &Block,
    input: &[u8],
    output: &mut [u8],
    mut encrypt: impl FnMut(&Block) -> Block,
) {
    let (input, output) = as_blocks(input, output);
    let mut previous = *iv;
    for (plain, out) in input.iter().zip(output) {
        previous = encrypt(&xor(plain, &previous));
        *out = previous;
    }
}

/// CBC-decrypts the whole blocks of `input` into `output`, chaining from
/// `iv`; `decrypt` is the raw block cipher, called once per block in order.
pub(crate) fn chain_decrypt(
    iv: &Block,
    input: &[u8],
    output: &mut [u8],
    mut decrypt: impl FnMut(&Block) -> Block,
) {
    let (input, output) = as_blocks(input, output);
    let mut previous = iv;
    for (cipher, out) in input.iter().zip(output) {
        *out = xor(&decrypt(cipher), previous);
        previous = cipher;
    }
}

/// [`chain_decrypt`] straight over `cipher`. Decryption is the CBC direction
/// whose block operations do not depend on each other, so two run side by
/// side: their table look-ups overlap (measured +12 % over one at a time;
/// three or four lanes spill registers and lose to one).
pub(crate) fn chain_decrypt_interleaved(
    iv: &Block,
    input: &[u8],
    output: &mut [u8],
    cipher: &Aes128,
) {
    let (input, output) = as_blocks(input, output);
    let mut previous = iv;
    let mut pairs_in = input.chunks_exact(2);
    let mut pairs_out = output.chunks_exact_mut(2);
    for (pair, out) in (&mut pairs_in).zip(&mut pairs_out) {
        let plain = cipher.decrypt_block_pair([&pair[0], &pair[1]]);
        out[0] = xor(&plain[0], previous);
        out[1] = xor(&plain[1], &pair[0]);
        previous = &pair[1];
    }
    if let ([last], [out]) = (pairs_in.remainder(), pairs_out.into_remainder()) {
        *out = xor(&cipher.decrypt_block(last), previous);
    }
}

/// Views `input` and `output` as blocks; every chain above panics here unless
/// both are the same whole number of blocks long.
fn as_blocks<'a>(input: &'a [u8], output: &'a mut [u8]) -> (&'a [Block], &'a mut [Block]) {
    let (input, input_rest) = input.as_chunks();
    let (output, output_rest) = output.as_chunks_mut();
    assert!(
        input_rest.is_empty() && output_rest.is_empty() && input.len() == output.len(),
        "CBC runs over equally many whole blocks"
    );
    (input, output)
}

/// XORs two blocks as one 128-bit word.
#[inline(always)]
fn xor(a: &Block, b: &Block) -> Block {
    (u128::from_ne_bytes(*a) ^ u128::from_ne_bytes(*b)).to_ne_bytes()
}

/// Validates the arguments of [`encrypt_with`] before its first charge and
/// returns the IV as a block.
fn check_encrypt_args(key: &[u8], iv: &[u8]) -> Result<Block, CryptoError> {
    check_key(key)?;
    iv.try_into().map_err(|_| CryptoError::InvalidInputLength {
        expected: "16-byte IV",
        actual: iv.len(),
    })
}

/// Validates the arguments of [`decrypt_with`] before its first charge and
/// returns the IV as a block.
fn check_decrypt_args(key: &[u8], iv: &[u8], ciphertext: &[u8]) -> Result<Block, CryptoError> {
    let iv = check_encrypt_args(key, iv)?;
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CryptoError::InvalidInputLength {
            expected: "non-empty multiple of 16 bytes",
            actual: ciphertext.len(),
        });
    }
    Ok(iv)
}

fn unpad(data: &mut Vec<u8>) -> Result<(), CryptoError> {
    let &last = data.last().ok_or(CryptoError::InvalidPadding)?;
    let pad_len = last as usize;
    if pad_len == 0 || pad_len > BLOCK_SIZE || pad_len > data.len() {
        return Err(CryptoError::InvalidPadding);
    }
    if !data[data.len() - pad_len..].iter().all(|&b| b == last) {
        return Err(CryptoError::InvalidPadding);
    }
    data.truncate(data.len() - pad_len);
    Ok(())
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
    fn sp800_38a_cbc_first_block() {
        // NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first block (we add
        // padding so only compare the first 16 ciphertext bytes).
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = hex("000102030405060708090a0b0c0d0e0f");
        let plain = hex("6bc1bee22e409f96e93d7e117393172a");
        let ct = encrypt(&key, &iv, &plain).unwrap();
        assert_eq!(ct[..16].to_vec(), hex("7649abac8119b246cee98e9b12e9197d"));
        assert_eq!(ct.len(), 32); // one content block + one padding block
    }

    #[test]
    fn sp800_38a_cbc_chaining() {
        let key = hex("2b7e151628aed2a6abf7158809cf4f3c");
        let iv = hex("000102030405060708090a0b0c0d0e0f");
        let plain = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        let expected = hex(concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7"
        ));
        let ct = encrypt(&key, &iv, &plain).unwrap();
        assert_eq!(ct[..64].to_vec(), expected);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0x42u8; 16];
        let iv = [0x24u8; 16];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = encrypt(&key, &iv, &plain).unwrap();
            assert_eq!(ct.len() % BLOCK_SIZE, 0);
            assert!(ct.len() > plain.len());
            assert_eq!(decrypt(&key, &iv, &ct).unwrap(), plain, "len={len}");
        }
    }

    #[test]
    fn wrong_key_fails_padding() {
        let ct = encrypt(&[1u8; 16], &[0u8; 16], b"some content body").unwrap();
        let result = decrypt(&[2u8; 16], &[0u8; 16], &ct);
        // Overwhelmingly likely to produce invalid padding with a wrong key.
        assert!(result.is_err() || result.unwrap() != b"some content body");
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(encrypt(&[0u8; 10], &[0u8; 16], b"x").is_err());
        assert!(encrypt(&[0u8; 16], &[0u8; 8], b"x").is_err());
        assert!(decrypt(&[0u8; 16], &[0u8; 16], &[0u8; 17]).is_err());
        assert!(decrypt(&[0u8; 16], &[0u8; 16], &[]).is_err());
    }

    #[test]
    fn different_iv_different_ciphertext() {
        let key = [9u8; 16];
        let c1 = encrypt(&key, &[0u8; 16], b"identical plaintext").unwrap();
        let c2 = encrypt(&key, &[1u8; 16], b"identical plaintext").unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn encrypted_blocks_counts_padding() {
        use crate::backend::SoftwareBackend;
        use crate::Algorithm;
        for (len, blocks) in [(0, 1), (15, 1), (16, 2), (17, 2), (1_000, 63)] {
            let backend = SoftwareBackend::new();
            encrypt_with(&backend, &[1u8; 16], &[2u8; 16], &vec![0u8; len]).unwrap();
            let trace = backend.meter().take();
            assert_eq!(trace.count(Algorithm::AesEncrypt).blocks, blocks, "{len}");
        }
    }

    #[test]
    fn unpad_rejects_malformed() {
        let mut v = vec![1u8, 2, 3, 0];
        assert!(unpad(&mut v).is_err()); // zero padding byte
        let mut v = vec![1u8, 2, 3, 17];
        assert!(unpad(&mut v).is_err()); // longer than block
        let mut v = vec![2u8, 3, 2, 2];
        assert!(unpad(&mut v).is_ok());
        assert_eq!(v, vec![2u8, 3]);
    }
}
