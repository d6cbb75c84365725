//! The instrumented crypto provider.
//!
//! The paper built a Java functional model of OMA DRM 2 and used it to
//! extract, for each protocol phase, the list of cryptographic operations and
//! the data sizes they process. [`CryptoEngine`] plays that role here: every
//! DRM-layer component (`oma-drm`) performs its cryptography through an
//! engine, which executes the real algorithm *and* records an
//! [`OpTrace`] entry of the form `(algorithm, invocations, 128-bit blocks)`.
//! The performance model in `oma-perf` then prices a trace under the paper's
//! Table 1 cycle costs for any architecture variant.
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

use crate::backend::{data_blocks, CryptoBackend, SoftwareBackend};
use crate::kem::{self, WrappedKeys, SYMMETRIC_KEY_LEN};
use crate::pss::{self, PssSignature};
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::{cbc, hmac, kdf, keywrap, sha1, CryptoError};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A record of every cryptographic operation performed through a
/// [`CryptoEngine`].
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

/// Lock-free operation recorder: one shard of two atomic counters per
/// algorithm, so the hot path never takes a lock and concurrent recorders of
/// *different* algorithms never contend on the same cache line's counter.
#[derive(Debug, Default)]
struct ShardedTrace {
    shards: [TraceShard; 6],
}

#[derive(Debug, Default)]
struct TraceShard {
    invocations: AtomicU64,
    blocks: AtomicU64,
}

impl ShardedTrace {
    fn record(&self, algorithm: Algorithm, invocations: u64, blocks: u64) {
        let shard = &self.shards[algorithm.index()];
        shard.invocations.fetch_add(invocations, Ordering::Relaxed);
        shard.blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    fn snapshot(&self) -> OpTrace {
        let mut trace = OpTrace::new();
        for alg in Algorithm::ALL {
            let shard = &self.shards[alg.index()];
            trace.record(
                alg,
                shard.invocations.load(Ordering::Relaxed),
                shard.blocks.load(Ordering::Relaxed),
            );
        }
        trace
    }

    /// Returns the recorded counts and resets every shard. The reset is
    /// per-counter atomic, not a cross-shard snapshot; phase boundaries must
    /// be quiesced by the caller (the DRM Agent drives its engine from one
    /// thread between phase snapshots).
    fn take(&self) -> OpTrace {
        let mut trace = OpTrace::new();
        for alg in Algorithm::ALL {
            let shard = &self.shards[alg.index()];
            trace.record(
                alg,
                shard.invocations.swap(0, Ordering::Relaxed),
                shard.blocks.swap(0, Ordering::Relaxed),
            );
        }
        trace
    }
}

/// An instrumented cryptographic provider.
///
/// Every method performs the genuine computation by delegating to a
/// pluggable [`CryptoBackend`] (software by default, simulated hardware
/// macros via [`CryptoEngine::with_backend`]) and records its cost-relevant
/// footprint into a lock-free sharded [`OpTrace`] recorder. The engine is
/// `Send + Sync`; recording uses per-algorithm atomic counters.
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
/// assert_eq!(engine.charged_cycles(), 10 * 20); // 10 blocks x 20 cycles
/// ```
#[derive(Debug)]
pub struct CryptoEngine {
    backend: Arc<dyn CryptoBackend>,
    trace: ShardedTrace,
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
            trace: ShardedTrace::default(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The backend this engine executes on.
    pub fn backend(&self) -> &Arc<dyn CryptoBackend> {
        &self.backend
    }

    /// Total cycles the backend has charged for work done through this
    /// engine (and any other engine sharing the backend).
    pub fn charged_cycles(&self) -> u64 {
        self.backend.charged_cycles()
    }

    /// Returns the backend's charged cycles and resets its meter.
    pub fn take_charged_cycles(&self) -> u64 {
        self.backend.take_charged_cycles()
    }

    // ----- trace management -------------------------------------------------

    /// Snapshot of the operations recorded so far.
    pub fn trace(&self) -> OpTrace {
        self.trace.snapshot()
    }

    /// Returns the recorded operations and resets the trace to empty.
    pub fn take_trace(&self) -> OpTrace {
        self.trace.take()
    }

    /// Discards all recorded operations.
    pub fn reset_trace(&self) {
        self.take_trace();
    }

    fn record(&self, algorithm: Algorithm, invocations: u64, blocks: u64) {
        self.trace.record(algorithm, invocations, blocks);
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

    /// SHA-1 of `data`, recorded per 128-bit block.
    pub fn sha1(&self, data: &[u8]) -> [u8; sha1::DIGEST_SIZE] {
        self.record(Algorithm::Sha1, 1, data_blocks(data.len()));
        self.backend.sha1(data)
    }

    /// HMAC SHA-1 of `data` under `key`.
    pub fn hmac_sha1(&self, key: &[u8], data: &[u8]) -> [u8; sha1::DIGEST_SIZE] {
        self.record(Algorithm::HmacSha1, 1, data_blocks(data.len()));
        self.backend.hmac_sha1(key, data)
    }

    /// Verifies an HMAC SHA-1 tag (constant-time comparison).
    pub fn hmac_sha1_verify(&self, key: &[u8], data: &[u8], tag: &[u8]) -> bool {
        self.record(Algorithm::HmacSha1, 1, data_blocks(data.len()));
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
        cbc::check_encrypt_args(key, iv)?;
        self.record(
            Algorithm::AesEncrypt,
            1,
            cbc::encrypted_blocks(plaintext.len()),
        );
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
        cbc::check_decrypt_args(key, iv, ciphertext)?;
        self.record(Algorithm::AesDecrypt, 1, (ciphertext.len() / 16) as u64);
        cbc::decrypt_with(self.backend.as_ref(), key, iv, ciphertext)
    }

    /// RFC 3394 AES key wrap (records the real 6·n block operations).
    ///
    /// # Errors
    ///
    /// See [`keywrap::wrap`].
    pub fn aes_wrap(&self, kek: &[u8], key_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        keywrap::check_wrap_args(kek, key_data)?;
        self.record(
            Algorithm::AesEncrypt,
            1,
            keywrap::block_operations(key_data.len()),
        );
        keywrap::wrap_with(self.backend.as_ref(), kek, key_data)
    }

    /// RFC 3394 AES key unwrap.
    ///
    /// # Errors
    ///
    /// See [`keywrap::unwrap`].
    pub fn aes_unwrap(&self, kek: &[u8], wrapped: &[u8]) -> Result<Vec<u8>, CryptoError> {
        keywrap::check_unwrap_args(kek, wrapped)?;
        self.record(
            Algorithm::AesDecrypt,
            1,
            keywrap::block_operations(wrapped.len() - 8),
        );
        keywrap::unwrap_with(self.backend.as_ref(), kek, wrapped)
    }

    // ----- KDF ---------------------------------------------------------------

    /// KDF2 key derivation, recorded as the SHA-1 work it performs (one
    /// invocation per counter iteration, blocks per actual hashed bytes —
    /// the same accounting the backend charges).
    pub fn kdf2(&self, z: &[u8], other_info: &[u8], output_len: usize) -> Vec<u8> {
        let (invocations, blocks) = kdf::op_counts(z.len(), other_info.len(), output_len);
        self.record(Algorithm::Sha1, invocations, blocks);
        kdf::kdf2_with(self.backend.as_ref(), z, other_info, output_len)
    }

    // ----- RSA ---------------------------------------------------------------

    /// Raw RSA public-key encryption of an octet string (RSAEP).
    ///
    /// # Errors
    ///
    /// See [`RsaPublicKey::encrypt_os`].
    pub fn rsa_encrypt(&self, key: &RsaPublicKey, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.record(Algorithm::RsaPublic, 1, 1);
        key.encrypt_os_with(self.backend.as_ref(), data)
    }

    /// Raw RSA private-key decryption of an octet string (RSADP).
    ///
    /// # Errors
    ///
    /// See [`RsaPrivateKey::decrypt_os`].
    pub fn rsa_decrypt(&self, key: &RsaPrivateKey, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.record(Algorithm::RsaPrivate, 1, 1);
        key.decrypt_os_with(self.backend.as_ref(), data)
    }

    /// RSA-PSS signature over `message`.
    ///
    /// Recorded as one RSA private-key operation plus one SHA-1 pass over the
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
        self.record(Algorithm::RsaPrivate, 1, 1);
        self.record(Algorithm::Sha1, 1, data_blocks(message.len()));
        let mut rng = self.rng.lock().expect("rng lock");
        pss::sign_with(self.backend.as_ref(), key, message, &mut *rng)
    }

    /// RSA-PSS signature verification.
    ///
    /// Recorded as one RSA public-key operation plus one SHA-1 pass over the
    /// message.
    pub fn pss_verify(&self, key: &RsaPublicKey, message: &[u8], signature: &PssSignature) -> bool {
        self.record(Algorithm::RsaPublic, 1, 1);
        self.record(Algorithm::Sha1, 1, data_blocks(message.len()));
        pss::verify_with(self.backend.as_ref(), key, message, signature)
    }

    // ----- OMA KEM -----------------------------------------------------------

    /// Wraps `K_MAC ‖ K_REK` for `recipient` (Rights Issuer side).
    ///
    /// Records one RSA public-key operation, the KDF2 hashing and the AES
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
        self.record(Algorithm::RsaPublic, 1, 1);
        self.record(
            Algorithm::Sha1,
            1,
            kdf::hash_blocks(recipient.modulus_bytes(), SYMMETRIC_KEY_LEN),
        );
        self.record(
            Algorithm::AesEncrypt,
            1,
            keywrap::block_operations(2 * SYMMETRIC_KEY_LEN),
        );
        let mut rng = self.rng.lock().expect("rng lock");
        kem::wrap_keys_with(self.backend.as_ref(), recipient, kmac, krek, &mut *rng)
    }

    /// Unwraps `C1 ‖ C2` with the device private key (DRM Agent side,
    /// Figure 3 of the paper).
    ///
    /// Records one RSA private-key operation, the KDF2 hashing and the AES
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
        kem::check_unwrap_args(recipient, wrapped)?;
        self.record(Algorithm::RsaPrivate, 1, 1);
        self.record(
            Algorithm::Sha1,
            1,
            kdf::hash_blocks(recipient.public().modulus_bytes(), SYMMETRIC_KEY_LEN),
        );
        // Charged for the C2 actually unwrapped, which only a well-formed
        // Rights Object makes two 128-bit keys long.
        self.record(
            Algorithm::AesDecrypt,
            1,
            keywrap::block_operations(wrapped.c2.len() - 8),
        );
        kem::unwrap_keys_with(self.backend.as_ref(), recipient, wrapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;

    #[test]
    fn data_block_accounting() {
        assert_eq!(data_blocks(0), 1);
        assert_eq!(data_blocks(1), 1);
        assert_eq!(data_blocks(16), 1);
        assert_eq!(data_blocks(17), 2);
        assert_eq!(data_blocks(3_500_000), 218_750);
    }

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
        // Regression: multi-iteration KDF2 with non-empty other_info must
        // keep the recorded trace and the backend's cycle meter in exact
        // agreement (the trace-vs-meter invariant).
        use crate::backend::CostProfile;
        let engine = CryptoEngine::with_seed(9);
        engine.kdf2(&[0u8; 16], &[1u8; 32], 40); // 2 iterations over 52 bytes
        let trace = engine.take_trace();
        let count = trace.count(Algorithm::Sha1);
        assert_eq!(count.invocations, 2);
        assert_eq!(count.blocks, 8); // 2 x ceil(52 / 16)
        let cost = CostProfile::paper_software().cost(Algorithm::Sha1);
        assert_eq!(engine.charged_cycles(), cost.cycles(count));
    }

    #[test]
    fn algorithm_labels_match_table1() {
        assert_eq!(Algorithm::RsaPrivate.label(), "RSA 1024 Private Key Op");
        assert_eq!(Algorithm::Sha1.to_string(), "SHA-1");
        assert_eq!(Algorithm::ALL.len(), 6);
    }
}
