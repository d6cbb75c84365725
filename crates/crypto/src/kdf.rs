//! The KDF2 key derivation function (IEEE 1363a / ANSI X9.44), as referenced
//! by the OMA DRM 2 specification for deriving the key-encryption key `KEK`
//! from the RSA-encrypted secret `Z` during Rights Object installation
//! (Figure 3 of the paper).

use crate::backend::{CryptoBackend, Unmetered};
use crate::sha1::DIGEST_SIZE;

/// Derives `output_len` bytes from the shared secret `z` and optional
/// `other_info` using KDF2 with SHA-1.
///
/// KDF2 concatenates `Hash(z ‖ counter ‖ other_info)` for counter values
/// 1, 2, … (32-bit big-endian) and truncates to the requested length.
///
/// # Example
///
/// ```
/// use oma_crypto::kdf::kdf2;
/// let kek = kdf2(b"shared-secret-z", b"", 16);
/// assert_eq!(kek.len(), 16);
/// ```
pub fn kdf2(z: &[u8], other_info: &[u8], output_len: usize) -> Vec<u8> {
    kdf2_with(&Unmetered, z, other_info, output_len)
}

/// [`kdf2`] routed through a [`CryptoBackend`]: each counter iteration is one
/// backend SHA-1 invocation over `z ‖ counter ‖ other_info`.
pub fn kdf2_with(
    backend: &dyn CryptoBackend,
    z: &[u8],
    other_info: &[u8],
    output_len: usize,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(output_len.next_multiple_of(DIGEST_SIZE));
    let mut input = Vec::with_capacity(z.len() + 4 + other_info.len());
    let mut counter: u32 = 1;
    while out.len() < output_len {
        input.clear();
        input.extend_from_slice(z);
        input.extend_from_slice(&counter.to_be_bytes());
        input.extend_from_slice(other_info);
        out.extend_from_slice(&backend.sha1(&input));
        counter += 1;
    }
    out.truncate(output_len);
    out
}

/// Derives the 128-bit OMA DRM key-encryption key from `z`.
///
/// This is the `KDF` box of Figure 3: `KEK = KDF2(Z)[0..16]`.
pub fn derive_kek(z: &[u8]) -> [u8; 16] {
    derive_kek_with(&Unmetered, z)
}

/// [`derive_kek`] routed through a [`CryptoBackend`].
pub fn derive_kek_with(backend: &dyn CryptoBackend, z: &[u8]) -> [u8; 16] {
    let bytes = kdf2_with(backend, z, b"", 16);
    let mut out = [0u8; 16];
    out.copy_from_slice(&bytes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1;

    #[test]
    fn single_iteration_matches_hash() {
        // For output <= 20 bytes, KDF2 is SHA1(z || 00000001 || info) truncated.
        let z = b"0123456789abcdef";
        let mut reference_input = z.to_vec();
        reference_input.extend_from_slice(&1u32.to_be_bytes());
        let reference = sha1(&reference_input);
        assert_eq!(kdf2(z, b"", 20), reference.to_vec());
        assert_eq!(kdf2(z, b"", 16), reference[..16].to_vec());
    }

    #[test]
    fn counter_increments_across_iterations() {
        let z = b"secret";
        let out = kdf2(z, b"", 45);
        assert_eq!(out.len(), 45);
        // Second block must equal SHA1(z || 00000002)
        let mut second = z.to_vec();
        second.extend_from_slice(&2u32.to_be_bytes());
        assert_eq!(out[20..40], sha1(&second));
    }

    #[test]
    fn other_info_changes_output() {
        let z = b"secret";
        assert_ne!(kdf2(z, b"a", 16), kdf2(z, b"b", 16));
    }

    #[test]
    fn derive_kek_is_16_bytes_and_deterministic() {
        let a = derive_kek(b"zz");
        let b = derive_kek(b"zz");
        assert_eq!(a, b);
        assert_ne!(a, derive_kek(b"zy"));
    }

    #[test]
    fn zero_length_output() {
        assert!(kdf2(b"z", b"", 0).is_empty());
    }

    #[test]
    fn hash_block_accounting() {
        // 128-byte Z (1024-bit RSA plaintext), 16-byte output: one iteration
        // over 132 bytes = 9 blocks of 16 bytes. Two iterations double it.
        use crate::backend::SoftwareBackend;
        use crate::Algorithm;
        for (output_len, iterations, blocks) in [(16, 1, 9), (32, 2, 18)] {
            let backend = SoftwareBackend::new();
            kdf2_with(&backend, &[7u8; 128], b"", output_len);
            let count = backend.meter().take().count(Algorithm::Sha1);
            assert_eq!((count.invocations, count.blocks), (iterations, blocks));
        }
    }
}
