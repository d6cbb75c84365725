//! The instrumented crypto provider.
//!
//! The paper built a Java functional model of OMA DRM 2 and used it to
//! extract, for each protocol phase, the list of cryptographic operations and
//! the data sizes they process. [`CryptoEngine`] plays that role here: every
//! DRM-layer component (`oma-drm`) performs its cryptography through an
//! engine, which executes the real algorithm on its
//! [`CryptoBackend`]. The backend books each primitive it runs into its
//! ledger as `(algorithm, invocations, 128-bit blocks)`, and that ledger is
//! the engine's [`OpTrace`]: the engine predicts nothing. The performance
//! model in `oma-perf` then prices a trace under the paper's Table 1 cycle
//! costs for any architecture variant.
//!
//! Block accounting follows the units of Table 1:
//!
//! * AES, SHA-1 and HMAC SHA-1 are charged per 128 bits of processed data,
//!   plus a per-invocation constant (key schedule for AES, fixed-length
//!   hashing for HMAC),
//! * RSA operations are charged per 1024-bit exponentiation,
//! * the EMSA-PSS encoding is approximated by a single hash over the signed
//!   message (the same "close approximation" the paper makes),
//! * AES key wrap is charged for its real 6·n block-cipher invocations.

use crate::backend::{CryptoBackend, SoftwareBackend};
use crate::kem::{self, KemSecret, WrappedKeys, SYMMETRIC_KEY_LEN};
use crate::pss::{self, PssSignature};
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::{cbc, hmac, kdf, keywrap, sha1, CryptoError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;
use std::sync::{Arc, Mutex};

/// The cryptographic algorithms whose cost the paper models (Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Algorithm {
    /// AES-128 encryption (CBC content encryption, key wrapping).
    AesEncrypt,
    /// AES-128 decryption (CBC content decryption, key unwrapping).
    AesDecrypt,
    /// SHA-1 hashing (DCF integrity, KDF2, signature message hashing).
    Sha1,
    /// HMAC SHA-1 (Rights Object integrity).
    HmacSha1,
    /// RSA-1024 public-key operation (RSAEP / RSAVP1).
    RsaPublic,
    /// RSA-1024 private-key operation (RSADP / RSASP1).
    RsaPrivate,
}

impl Algorithm {
    /// All algorithms, in Table 1 order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::AesEncrypt,
        Algorithm::AesDecrypt,
        Algorithm::Sha1,
        Algorithm::HmacSha1,
        Algorithm::RsaPublic,
        Algorithm::RsaPrivate,
    ];

    /// The paper's Table 1 row label.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::AesEncrypt => "AES Encryption",
            Algorithm::AesDecrypt => "AES Decryption",
            Algorithm::Sha1 => "SHA-1",
            Algorithm::HmacSha1 => "HMAC SHA-1",
            Algorithm::RsaPublic => "RSA 1024 Public Key Op",
            Algorithm::RsaPrivate => "RSA 1024 Private Key Op",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Algorithm::AesEncrypt => 0,
            Algorithm::AesDecrypt => 1,
            Algorithm::Sha1 => 2,
            Algorithm::HmacSha1 => 3,
            Algorithm::RsaPublic => 4,
            Algorithm::RsaPrivate => 5,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Operation counts for one algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct OpCount {
    /// Number of distinct invocations (carries the per-invocation offset cost).
    pub invocations: u64,
    /// Number of data blocks processed (128-bit blocks for symmetric/hash
    /// algorithms, 1024-bit exponentiations for RSA).
    pub blocks: u64,
}

impl OpCount {
    /// Adds another count into this one.
    pub fn merge(&mut self, other: OpCount) {
        self.invocations += other.invocations;
        self.blocks += other.blocks;
    }

    /// True when nothing has been recorded.
    pub fn is_zero(&self) -> bool {
        self.invocations == 0 && self.blocks == 0
    }
}

/// A record of cryptographic operations: what a backend's ledger booked,
/// read whole ([`CryptoEngine::trace`]) or per thread
/// ([`scoped`](crate::backend::scoped)).
///
/// Traces are additive: phase traces can be merged into a use-case trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpTrace {
    counts: [OpCount; 6],
}

impl OpTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `invocations` invocations processing `blocks` blocks of
    /// `algorithm`.
    pub fn record(&mut self, algorithm: Algorithm, invocations: u64, blocks: u64) {
        let entry = &mut self.counts[algorithm.index()];
        entry.invocations += invocations;
        entry.blocks += blocks;
    }

    /// The accumulated count for `algorithm`.
    pub fn count(&self, algorithm: Algorithm) -> OpCount {
        self.counts[algorithm.index()]
    }

    /// Merges `other` into this trace.
    pub fn merge(&mut self, other: &OpTrace) {
        for alg in Algorithm::ALL {
            self.counts[alg.index()].merge(other.count(alg));
        }
    }

    /// Returns the sum of two traces.
    pub fn merged(&self, other: &OpTrace) -> OpTrace {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Scales every count by `factor` (e.g. "the user listens to the track
    /// five times").
    pub fn scaled(&self, factor: u64) -> OpTrace {
        let mut out = self.clone();
        for count in &mut out.counts {
            count.invocations *= factor;
            count.blocks *= factor;
        }
        out
    }

    /// True when no operation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(OpCount::is_zero)
    }

    /// Total number of invocations across all algorithms.
    pub fn total_invocations(&self) -> u64 {
        self.counts.iter().map(|c| c.invocations).sum()
    }

    /// Iterates over `(algorithm, count)` pairs in Table 1 order.
    pub fn iter(&self) -> impl Iterator<Item = (Algorithm, OpCount)> + '_ {
        Algorithm::ALL.into_iter().map(move |a| (a, self.count(a)))
    }
}

/// Draws a fresh engine seed from the operating-system entropy source.
fn rand_seed() -> u64 {
    StdRng::from_entropy().next_u64()
}

/// The cryptographic provider every DRM actor calls through.
///
/// Every method performs the genuine computation by delegating to a
/// pluggable [`CryptoBackend`] (software by default, simulated hardware
/// macros via [`CryptoEngine::with_backend`]), whose lock-free ledger books
/// what it executed; [`CryptoEngine::trace`] reads that ledger. Give each
/// engine whose trace is read its own backend. The engine is `Send + Sync`.
///
/// # Example
///
/// ```
/// use oma_crypto::{Algorithm, CryptoEngine};
///
/// let engine = CryptoEngine::with_seed(42);
/// let digest = engine.sha1(&vec![0u8; 160]);
/// assert_eq!(digest.len(), 20);
/// let trace = engine.take_trace();
/// assert_eq!(trace.count(Algorithm::Sha1).blocks, 10);
/// ```
///
/// Running the same operations on the simulated-hardware backend produces
/// byte-identical results while charging Table 1 hardware cycles:
///
/// ```
/// use oma_crypto::backend::{CryptoBackend, HwMacroBackend};
/// use oma_crypto::CryptoEngine;
/// use std::sync::Arc;
///
/// let engine = CryptoEngine::with_backend(Arc::new(HwMacroBackend::full()), 42);
/// engine.sha1(&vec![0u8; 160]);
/// assert_eq!(engine.backend().charged_cycles(), 10 * 20); // 10 blocks x 20 cycles
/// ```
#[derive(Debug)]
pub struct CryptoEngine {
    backend: Arc<dyn CryptoBackend>,
    rng: Mutex<StdRng>,
}

impl Default for CryptoEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CryptoEngine {
    /// Creates a software-backed engine seeded from the operating-system
    /// entropy source.
    pub fn new() -> Self {
        Self::with_backend(Arc::new(SoftwareBackend::new()), rand_seed())
    }

    /// Creates a software-backed engine with a deterministic random stream,
    /// for reproducible tests and experiments.
    pub fn with_seed(seed: u64) -> Self {
        Self::with_backend(Arc::new(SoftwareBackend::new()), seed)
    }

    /// Creates an engine executing on `backend` with a deterministic random
    /// stream. This is how the measured runner in `oma-perf` instantiates
    /// one engine per architecture variant.
    pub fn with_backend(backend: Arc<dyn CryptoBackend>, seed: u64) -> Self {
        CryptoEngine {
            backend,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The backend this engine executes on.
    pub fn backend(&self) -> &Arc<dyn CryptoBackend> {
        &self.backend
    }

    // ----- trace management -------------------------------------------------

    /// The operations the backend has executed so far (for this engine and
    /// any other engine sharing the backend).
    pub fn trace(&self) -> OpTrace {
        self.backend.meter().trace()
    }

    /// Returns the executed operations and resets the backend's ledger.
    pub fn take_trace(&self) -> OpTrace {
        self.backend.meter().take()
    }

    /// Discards all executed operations.
    pub fn reset_trace(&self) {
        self.take_trace();
    }

    // ----- randomness --------------------------------------------------------

    /// Fills `buf` with random bytes.
    pub fn fill_random(&self, buf: &mut [u8]) {
        self.rng.lock().expect("rng lock").fill_bytes(buf);
    }

    /// Draws a fresh 128-bit symmetric key.
    pub fn random_key(&self) -> [u8; SYMMETRIC_KEY_LEN] {
        let mut key = [0u8; SYMMETRIC_KEY_LEN];
        self.fill_random(&mut key);
        key
    }

    /// Draws a random nonce of `len` bytes (ROAP nonces are 14 bytes).
    pub fn random_nonce(&self, len: usize) -> Vec<u8> {
        let mut nonce = vec![0u8; len];
        self.fill_random(&mut nonce);
        nonce
    }

    /// Checkpoints the engine's deterministic random stream. Restoring the
    /// returned state with [`CryptoEngine::restore_rng_state`] makes the
    /// engine continue the stream exactly where the checkpoint was taken —
    /// the primitive a write-ahead log needs so that nonces, salts and key
    /// material drawn *after* crash recovery are byte-identical to an
    /// uninterrupted run.
    pub fn rng_state(&self) -> [u8; 32] {
        self.rng.lock().expect("rng lock").state_bytes()
    }

    /// Restores a checkpoint taken with [`CryptoEngine::rng_state`],
    /// replacing the engine's current random stream.
    pub fn restore_rng_state(&self, state: [u8; 32]) {
        *self.rng.lock().expect("rng lock") = StdRng::from_state_bytes(state);
    }

    // ----- hashing and MAC ---------------------------------------------------

    /// SHA-1 of `data`, charged per 128-bit block.
    pub fn sha1(&self, data: &[u8]) -> [u8; sha1::DIGEST_SIZE] {
        self.backend.sha1(data)
    }

    /// HMAC SHA-1 of `data` under `key`.
    pub fn hmac_sha1(&self, key: &[u8], data: &[u8]) -> [u8; sha1::DIGEST_SIZE] {
        self.backend.hmac_sha1(key, data)
    }

    /// Verifies an HMAC SHA-1 tag (constant-time comparison).
    pub fn hmac_sha1_verify(&self, key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        let computed = self.backend.hmac_sha1(key, data);
        hmac::verify_tag(&computed, tag)
    }

    // ----- symmetric encryption ----------------------------------------------

    /// AES-128-CBC encryption with PKCS#7 padding.
    ///
    /// # Errors
    ///
    /// See [`cbc::encrypt`].
    pub fn aes_cbc_encrypt(
        &self,
        key: &[u8],
        iv: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        cbc::encrypt_with(self.backend.as_ref(), key, iv, plaintext)
    }

    /// AES-128-CBC decryption.
    ///
    /// # Errors
    ///
    /// See [`cbc::decrypt`].
    pub fn aes_cbc_decrypt(
        &self,
        key: &[u8],
        iv: &[u8],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        cbc::decrypt_with(self.backend.as_ref(), key, iv, ciphertext)
    }

    /// RFC 3394 AES key wrap (charged for the real 6·n block operations).
    ///
    /// # Errors
    ///
    /// See [`keywrap::wrap`].
    pub fn aes_wrap(&self, kek: &[u8], key_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        keywrap::wrap_with(self.backend.as_ref(), kek, key_data)
    }

    /// RFC 3394 AES key unwrap.
    ///
    /// # Errors
    ///
    /// See [`keywrap::unwrap`].
    pub fn aes_unwrap(&self, kek: &[u8], wrapped: &[u8]) -> Result<Vec<u8>, CryptoError> {
        keywrap::unwrap_with(self.backend.as_ref(), kek, wrapped)
    }

    // ----- KDF ---------------------------------------------------------------

    /// KDF2 key derivation, charged as the SHA-1 work it performs (one
    /// invocation per counter iteration, blocks per actual hashed bytes).
    pub fn kdf2(&self, z: &[u8], other_info: &[u8], output_len: usize) -> Vec<u8> {
        kdf::kdf2_with(self.backend.as_ref(), z, other_info, output_len)
    }

    // ----- RSA ---------------------------------------------------------------

    /// Raw RSA public-key encryption of an octet string (RSAEP).
    ///
    /// # Errors
    ///
    /// See [`RsaPublicKey::encrypt_os`].
    pub fn rsa_encrypt(&self, key: &RsaPublicKey, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        key.encrypt_os_with(self.backend.as_ref(), data)
    }

    /// Raw RSA private-key decryption of an octet string (RSADP).
    ///
    /// # Errors
    ///
    /// See [`RsaPrivateKey::decrypt_os`].
    pub fn rsa_decrypt(&self, key: &RsaPrivateKey, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        key.decrypt_os_with(self.backend.as_ref(), data)
    }

    /// RSA-PSS signature over `message`.
    ///
    /// Charged as one RSA private-key operation plus one SHA-1 pass over the
    /// message — the paper's approximation of EMSA-PSS.
    ///
    /// # Errors
    ///
    /// See [`pss::sign`].
    pub fn pss_sign(
        &self,
        key: &RsaPrivateKey,
        message: &[u8],
    ) -> Result<PssSignature, CryptoError> {
        let salt = pss::random_salt(&mut *self.rng.lock().expect("rng lock"));
        self.pss_sign_salted(key, message, &salt)
    }

    /// [`CryptoEngine::pss_sign`] with a salt the caller drew (see
    /// [`pss::random_salt`]); charged the same way.
    ///
    /// # Errors
    ///
    /// See [`pss::sign`].
    pub fn pss_sign_salted(
        &self,
        key: &RsaPrivateKey,
        message: &[u8],
        salt: &[u8; pss::SALT_LEN],
    ) -> Result<PssSignature, CryptoError> {
        pss::sign_salted_with(self.backend.as_ref(), key, message, salt)
    }

    /// RSA-PSS signature verification.
    ///
    /// Charged as one RSA public-key operation plus one SHA-1 pass over the
    /// message, as far as the check gets: a signature of the wrong length
    /// costs nothing, one that is not below the modulus only the RSA op.
    pub fn pss_verify(&self, key: &RsaPublicKey, message: &[u8], signature: &PssSignature) -> bool {
        pss::verify_with(self.backend.as_ref(), key, message, signature)
    }

    // ----- OMA KEM -----------------------------------------------------------

    /// Wraps `K_MAC ‖ K_REK` for `recipient` (Rights Issuer side).
    ///
    /// Charges one RSA public-key operation, the KDF2 hashing and the AES
    /// wrap operations.
    ///
    /// # Errors
    ///
    /// See [`kem::wrap_keys`].
    pub fn kem_wrap(
        &self,
        recipient: &RsaPublicKey,
        kmac: &[u8; SYMMETRIC_KEY_LEN],
        krek: &[u8; SYMMETRIC_KEY_LEN],
    ) -> Result<WrappedKeys, CryptoError> {
        let secret = kem::random_secret(recipient, &mut *self.rng.lock().expect("rng lock"));
        self.kem_wrap_secret(recipient, kmac, krek, &secret)
    }

    /// [`CryptoEngine::kem_wrap`] with a KEM secret the caller drew (see
    /// [`kem::random_secret`]); charged the same way.
    ///
    /// # Errors
    ///
    /// See [`kem::wrap_keys`].
    pub fn kem_wrap_secret(
        &self,
        recipient: &RsaPublicKey,
        kmac: &[u8; SYMMETRIC_KEY_LEN],
        krek: &[u8; SYMMETRIC_KEY_LEN],
        secret: &KemSecret,
    ) -> Result<WrappedKeys, CryptoError> {
        kem::wrap_keys_secret_with(self.backend.as_ref(), recipient, kmac, krek, secret)
    }

    /// Unwraps `C1 ‖ C2` with the device private key (DRM Agent side,
    /// Figure 3 of the paper).
    ///
    /// Charges one RSA private-key operation, the KDF2 hashing and the AES
    /// unwrap operations.
    ///
    /// # Errors
    ///
    /// See [`kem::unwrap_keys`].
    pub fn kem_unwrap(
        &self,
        recipient: &RsaPrivateKey,
        wrapped: &WrappedKeys,
    ) -> Result<([u8; SYMMETRIC_KEY_LEN], [u8; SYMMETRIC_KEY_LEN]), CryptoError> {
        kem::unwrap_keys_with(self.backend.as_ref(), recipient, wrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;

    #[test]
    fn trace_records_and_merges() {
        let mut a = OpTrace::new();
        assert!(a.is_empty());
        a.record(Algorithm::Sha1, 1, 10);
        a.record(Algorithm::Sha1, 1, 5);
        assert_eq!(
            a.count(Algorithm::Sha1),
            OpCount {
                invocations: 2,
                blocks: 15
            }
        );
        let mut b = OpTrace::new();
        b.record(Algorithm::RsaPrivate, 3, 3);
        a.merge(&b);
        assert_eq!(a.count(Algorithm::RsaPrivate).invocations, 3);
        assert_eq!(a.total_invocations(), 5);
        assert!(!a.is_empty());
    }

    #[test]
    fn trace_scaling() {
        let mut t = OpTrace::new();
        t.record(Algorithm::AesDecrypt, 1, 100);
        let five = t.scaled(5);
        assert_eq!(
            five.count(Algorithm::AesDecrypt),
            OpCount {
                invocations: 5,
                blocks: 500
            }
        );
        assert_eq!(t.scaled(0).total_invocations(), 0);
    }

    #[test]
    fn trace_iteration_order_matches_table1() {
        let t = OpTrace::new();
        let algorithms: Vec<Algorithm> = t.iter().map(|(a, _)| a).collect();
        assert_eq!(algorithms, Algorithm::ALL.to_vec());
    }

    #[test]
    fn data_block_accounting() {
        use crate::backend::data_blocks;
        assert_eq!(data_blocks(0), 1);
        assert_eq!(data_blocks(1), 1);
        assert_eq!(data_blocks(16), 1);
        assert_eq!(data_blocks(17), 2);
        assert_eq!(data_blocks(3_500_000), 218_750);
        // The engine's trace charges the same block count per call.
        let engine = CryptoEngine::with_seed(2);
        for len in [0usize, 1, 16, 17, 1000] {
            engine.sha1(&vec![0u8; len]);
            let trace = engine.take_trace();
            assert_eq!(
                trace.count(Algorithm::Sha1),
                OpCount {
                    invocations: 1,
                    blocks: data_blocks(len)
                }
            );
        }
    }

    #[test]
    fn engine_sha1_matches_primitive_and_records() {
        let engine = CryptoEngine::with_seed(1);
        let data = vec![0x61u8; 100];
        assert_eq!(engine.sha1(&data), sha1::sha1(&data));
        let trace = engine.take_trace();
        assert_eq!(
            trace.count(Algorithm::Sha1),
            OpCount {
                invocations: 1,
                blocks: 7
            }
        );
        assert!(engine.trace().is_empty(), "take_trace resets");
    }

    #[test]
    fn engine_cbc_roundtrip_records_both_directions() {
        let engine = CryptoEngine::with_seed(2);
        let key = engine.random_key();
        let iv = engine.random_key();
        let plain = vec![7u8; 1000];
        let ct = engine.aes_cbc_encrypt(&key, &iv, &plain).unwrap();
        let pt = engine.aes_cbc_decrypt(&key, &iv, &ct).unwrap();
        assert_eq!(pt, plain);
        let trace = engine.trace();
        assert_eq!(trace.count(Algorithm::AesEncrypt).blocks, 63);
        assert_eq!(trace.count(Algorithm::AesDecrypt).blocks, 63);
    }

    #[test]
    fn engine_keywrap_records_six_ops_per_block() {
        let engine = CryptoEngine::with_seed(3);
        let kek = engine.random_key();
        let wrapped = engine.aes_wrap(&kek, &[1u8; 32]).unwrap();
        let unwrapped = engine.aes_unwrap(&kek, &wrapped).unwrap();
        assert_eq!(unwrapped, vec![1u8; 32]);
        let trace = engine.trace();
        assert_eq!(trace.count(Algorithm::AesEncrypt).blocks, 24);
        assert_eq!(trace.count(Algorithm::AesDecrypt).blocks, 24);
    }

    #[test]
    fn engine_pss_records_private_plus_hash() {
        let pair = RsaKeyPair::generate(512, &mut rand::rngs::StdRng::seed_from_u64(4));
        let engine = CryptoEngine::with_seed(4);
        let msg = vec![9u8; 320];
        let sig = engine.pss_sign(pair.private(), &msg).unwrap();
        assert!(engine.pss_verify(pair.public(), &msg, &sig));
        let trace = engine.trace();
        assert_eq!(trace.count(Algorithm::RsaPrivate).invocations, 1);
        assert_eq!(trace.count(Algorithm::RsaPublic).invocations, 1);
        assert_eq!(trace.count(Algorithm::Sha1).blocks, 40);
    }

    #[test]
    fn engine_kem_roundtrip_and_trace() {
        let pair = RsaKeyPair::generate(512, &mut rand::rngs::StdRng::seed_from_u64(5));
        let engine = CryptoEngine::with_seed(5);
        let kmac = engine.random_key();
        let krek = engine.random_key();
        let wrapped = engine.kem_wrap(pair.public(), &kmac, &krek).unwrap();
        let (m, r) = engine.kem_unwrap(pair.private(), &wrapped).unwrap();
        assert_eq!((m, r), (kmac, krek));
        let trace = engine.trace();
        assert_eq!(trace.count(Algorithm::RsaPublic).invocations, 1);
        assert_eq!(trace.count(Algorithm::RsaPrivate).invocations, 1);
        assert!(trace.count(Algorithm::Sha1).blocks > 0);
    }

    #[test]
    fn engine_hmac_verify_detects_tampering() {
        let engine = CryptoEngine::with_seed(6);
        let key = engine.random_key();
        let tag = engine.hmac_sha1(&key, b"rights object");
        assert!(engine.hmac_sha1_verify(&key, b"rights object", &tag));
        assert!(!engine.hmac_sha1_verify(&key, b"rights 0bject", &tag));
        assert_eq!(engine.trace().count(Algorithm::HmacSha1).invocations, 3);
    }

    #[test]
    fn seeded_engines_are_deterministic() {
        let a = CryptoEngine::with_seed(77).random_key();
        let b = CryptoEngine::with_seed(77).random_key();
        assert_eq!(a, b);
        assert_ne!(a, CryptoEngine::with_seed(78).random_key());
        assert_eq!(CryptoEngine::with_seed(1).random_nonce(14).len(), 14);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoEngine>();
    }

    #[test]
    fn kdf2_trace_matches_backend_charge_even_with_other_info() {
        // Multi-iteration KDF2 with non-empty other_info: the trace holds
        // every counter iteration over every hashed byte.
        use crate::backend::CostProfile;
        let engine = CryptoEngine::with_seed(9);
        engine.kdf2(&[0u8; 16], &[1u8; 32], 40); // 2 iterations over 52 bytes
        let trace = engine.trace();
        let count = trace.count(Algorithm::Sha1);
        assert_eq!(count.invocations, 2);
        assert_eq!(count.blocks, 8); // 2 x ceil(52 / 16)
        let cost = CostProfile::paper_software().cost(Algorithm::Sha1);
        assert_eq!(engine.backend().charged_cycles(), cost.cycles(count));
    }

    #[test]
    fn algorithm_labels_match_table1() {
        assert_eq!(Algorithm::RsaPrivate.label(), "RSA 1024 Private Key Op");
        assert_eq!(Algorithm::Sha1.to_string(), "SHA-1");
        assert_eq!(Algorithm::ALL.len(), 6);
    }

    #[test]
    fn given_salt_and_secret_forms_match_the_drawing_forms() {
        let pair = RsaKeyPair::generate(512, &mut rand::rngs::StdRng::seed_from_u64(6));
        let (kmac, krek) = ([1u8; 16], [2u8; 16]);
        let drawing = CryptoEngine::with_seed(9);
        let signature = drawing.pss_sign(pair.private(), b"m").unwrap();
        let wrapped = drawing.kem_wrap(pair.public(), &kmac, &krek).unwrap();

        // The same stream, drawn by the caller: same bytes, same trace.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let salt = pss::random_salt(&mut rng);
        let secret = kem::random_secret(pair.public(), &mut rng);
        let given = CryptoEngine::with_seed(0);
        let salted = given.pss_sign_salted(pair.private(), b"m", &salt).unwrap();
        assert_eq!(salted, signature);
        let secret_wrapped = given
            .kem_wrap_secret(pair.public(), &kmac, &krek, &secret)
            .unwrap();
        assert_eq!(secret_wrapped, wrapped);
        assert_eq!(given.trace(), drawing.trace());
    }
}
