//! RSA key generation and the PKCS#1 v2.1 primitives RSAEP, RSADP, RSASP1
//! and RSAVP1, as mandated by OMA DRM 2 for its 1024-bit PKI operations.
//!
//! The private-key operations use the Chinese Remainder Theorem
//! representation (`dP`, `dQ`, `qInv`) — the same optimisation an embedded
//! software implementation would use, and the one the paper's software cycle
//! count for "RSA 1024 Private Key Op" corresponds to.

use crate::CryptoError;
use oma_bignum::{prime, BigUint, Montgomery};
use rand::RngCore;
use std::sync::{Arc, OnceLock};

/// A lazily-built, shared Montgomery context for one modulus.
///
/// Keys cache one of these per modulus they exponentiate by, so the `R² mod
/// n` setup division is paid once per key instead of once per operation.
/// The cell is deliberately invisible to `PartialEq`/`Debug`: two keys with
/// equal numeric components are equal whether or not their caches are warm,
/// and cloning a key shares the already-built context. `None` records that
/// the modulus is even and Montgomery reduction does not apply.
type CachedContext = OnceLock<Option<Arc<Montgomery>>>;

/// Builds (or fetches) the cached context for `modulus`.
fn context_for<'a>(cell: &'a CachedContext, modulus: &BigUint) -> Option<&'a Montgomery> {
    cell.get_or_init(|| Montgomery::new(modulus.clone()).map(Arc::new))
        .as_deref()
}

/// `base^exponent mod modulus` through a cached context, falling back to the
/// uncached naive ladder for even moduli (never the case for RSA keys, but
/// the API stays total).
fn modpow_cached(
    cell: &CachedContext,
    base: &BigUint,
    exponent: &BigUint,
    modulus: &BigUint,
) -> BigUint {
    match context_for(cell, modulus) {
        Some(ctx) => ctx.modpow(base, exponent),
        None => base.modpow_naive(exponent, modulus),
    }
}

/// Default RSA modulus size used by OMA DRM 2 (bits).
pub const DEFAULT_MODULUS_BITS: usize = 1024;

/// The conventional public exponent `F4 = 65537`.
pub const PUBLIC_EXPONENT: u64 = 65_537;

/// An RSA public key `(n, e)`.
///
/// # Example
///
/// ```
/// use oma_crypto::rsa::RsaKeyPair;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let pair = RsaKeyPair::generate(512, &mut rng);
/// assert_eq!(pair.public().modulus_bits(), 512);
/// ```
#[derive(Clone)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    n_ctx: CachedContext,
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        // The context cache is derived state; equality is over (n, e) only.
        self.n == other.n && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl std::fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", &self.n)
            .field("e", &self.e)
            .finish()
    }
}

/// An RSA private key with CRT parameters.
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    p_ctx: CachedContext,
    q_ctx: CachedContext,
}

impl PartialEq for RsaPrivateKey {
    fn eq(&self, other: &Self) -> bool {
        // Context caches excluded, as for `RsaPublicKey`.
        self.public == other.public
            && self.d == other.d
            && self.p == other.p
            && self.q == other.q
            && self.dp == other.dp
            && self.dq == other.dq
            && self.qinv == other.qinv
    }
}

impl Eq for RsaPrivateKey {}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Do not print private material.
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.modulus_bits())
            .finish()
    }
}

/// A matching RSA public/private key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaKeyPair {
    private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// Constructs a public key from raw modulus and exponent.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey {
            n,
            e,
            n_ctx: OnceLock::new(),
        }
    }

    /// Forces the cached Montgomery context for `n` to be built now, so a
    /// long-lived identity (a Rights Issuer, a trust anchor) pays the `R²`
    /// setup at load time rather than inside its first verification.
    pub fn precompute(&self) {
        let _ = context_for(&self.n_ctx, &self.n);
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Size of the modulus in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bits()
    }

    /// Size of the modulus in bytes (`k` in PKCS#1 terms).
    pub fn modulus_bytes(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// RSAEP / RSAVP1: computes `m^e mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageRepresentativeOutOfRange`] if
    /// `m >= n`.
    pub fn rsaep(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageRepresentativeOutOfRange);
        }
        Ok(modpow_cached(&self.n_ctx, m, &self.e, &self.n))
    }

    /// Encrypts an octet string no longer than the modulus, returning a
    /// ciphertext padded to exactly [`RsaPublicKey::modulus_bytes`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageRepresentativeOutOfRange`] if the
    /// integer interpretation of `data` is `>= n`.
    pub fn encrypt_os(&self, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.encrypt_os_with(&crate::backend::Unmetered, data)
    }

    /// [`RsaPublicKey::encrypt_os`] with the exponentiation routed through a
    /// [`CryptoBackend`](crate::backend::CryptoBackend).
    ///
    /// # Errors
    ///
    /// Same as [`RsaPublicKey::encrypt_os`].
    pub fn encrypt_os_with(
        &self,
        backend: &dyn crate::backend::CryptoBackend,
        data: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let m = BigUint::from_bytes_be(data);
        let c = backend.rsa_public_exp(self, &m)?;
        c.to_bytes_be_padded(self.modulus_bytes())
            .ok_or(CryptoError::MessageRepresentativeOutOfRange)
    }
}

impl RsaPrivateKey {
    /// The corresponding public key.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The private exponent `d`. Exposed (together with
    /// [`RsaPrivateKey::primes`]) so durable storage can serialise a key;
    /// handle with the care private key material deserves.
    pub fn d(&self) -> &BigUint {
        &self.d
    }

    /// The prime factors `(p, q)` of the modulus.
    pub fn primes(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }

    /// Rebuilds a private key from its serialised components `(n, e, d, p,
    /// q)`, recomputing the CRT parameters. This is the inverse of reading
    /// [`RsaPrivateKey::d`] / [`RsaPrivateKey::primes`] — the path a durable
    /// store uses to restore a Rights Issuer identity from a snapshot.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidKeyComponents`] when the components are
    /// inconsistent: `p * q != n`, a factor is below 2, or `q` has no
    /// inverse modulo `p`.
    pub fn from_components(
        public: RsaPublicKey,
        d: BigUint,
        p: BigUint,
        q: BigUint,
    ) -> Result<Self, CryptoError> {
        let two = BigUint::from_u64(2);
        if p < two || q < two || (&p * &q) != public.n {
            return Err(CryptoError::InvalidKeyComponents);
        }
        let one = BigUint::one();
        let p1 = &p - &one;
        let q1 = &q - &one;
        let dp = d.rem_of(&p1);
        let dq = d.rem_of(&q1);
        let qinv = q.mod_inverse(&p).ok_or(CryptoError::InvalidKeyComponents)?;
        Ok(RsaPrivateKey {
            public,
            d,
            p,
            q,
            dp,
            dq,
            qinv,
            p_ctx: OnceLock::new(),
            q_ctx: OnceLock::new(),
        })
    }

    /// Forces the cached Montgomery contexts for both CRT legs (and the
    /// public modulus) to be built now. See [`RsaPublicKey::precompute`].
    pub fn precompute(&self) {
        let _ = context_for(&self.p_ctx, &self.p);
        let _ = context_for(&self.q_ctx, &self.q);
        self.public.precompute();
    }

    /// RSADP / RSASP1 using the CRT representation: computes `c^d mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageRepresentativeOutOfRange`] if `c >= n`.
    pub fn rsadp(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c >= &self.public.n {
            return Err(CryptoError::MessageRepresentativeOutOfRange);
        }
        // m1 = c^dP mod p ; m2 = c^dQ mod q, each through the cached
        // context of its CRT leg.
        let m1 = modpow_cached(&self.p_ctx, c, &self.dp, &self.p);
        let m2 = modpow_cached(&self.q_ctx, c, &self.dq, &self.q);
        // h = qInv * (m1 - m2) mod p
        let diff = m1.sub_mod(&m2, &self.p);
        let h = self.qinv.mul_mod(&diff, &self.p);
        // m = m2 + h * q
        Ok(&m2 + &(&h * &self.q))
    }

    /// Decrypts an octet string produced by [`RsaPublicKey::encrypt_os`],
    /// returning exactly `modulus_bytes` bytes (left-padded with zeros).
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError::MessageRepresentativeOutOfRange`] for an
    /// out-of-range ciphertext.
    pub fn decrypt_os(&self, data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.decrypt_os_with(&crate::backend::Unmetered, data)
    }

    /// [`RsaPrivateKey::decrypt_os`] with the exponentiation routed through a
    /// [`CryptoBackend`](crate::backend::CryptoBackend).
    ///
    /// # Errors
    ///
    /// Same as [`RsaPrivateKey::decrypt_os`].
    pub fn decrypt_os_with(
        &self,
        backend: &dyn crate::backend::CryptoBackend,
        data: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let c = BigUint::from_bytes_be(data);
        let m = backend.rsa_private_exp(self, &c)?;
        m.to_bytes_be_padded(self.public.modulus_bytes())
            .ok_or(CryptoError::MessageRepresentativeOutOfRange)
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64` or `bits` is odd.
    pub fn generate<R: RngCore + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 64, "RSA modulus must be at least 64 bits");
        assert!(bits.is_multiple_of(2), "RSA modulus size must be even");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = prime::generate_rsa_prime(bits / 2, &e, rng);
            let q = loop {
                let q = prime::generate_rsa_prime(bits / 2, &e, rng);
                if q != p {
                    break q;
                }
            };
            let n = &p * &q;
            if n.bits() != bits {
                continue;
            }
            let one = BigUint::one();
            let p1 = &p - &one;
            let q1 = &q - &one;
            let phi = &p1 * &q1;
            let d = match e.mod_inverse(&phi) {
                Some(d) => d,
                None => continue,
            };
            let dp = d.rem_of(&p1);
            let dq = d.rem_of(&q1);
            let qinv = match q.mod_inverse(&p) {
                Some(v) => v,
                None => continue,
            };
            let public = RsaPublicKey::new(n, e.clone());
            return RsaKeyPair {
                private: RsaPrivateKey {
                    public,
                    d,
                    p,
                    q,
                    dp,
                    dq,
                    qinv,
                    p_ctx: OnceLock::new(),
                    q_ctx: OnceLock::new(),
                },
            };
        }
    }

    /// Generates the standard OMA DRM 1024-bit key pair.
    pub fn generate_default<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generate(DEFAULT_MODULUS_BITS, rng)
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.private.public
    }

    /// The private half.
    pub fn private(&self) -> &RsaPrivateKey {
        &self.private
    }

    /// Consumes the pair and returns the private key (which still carries the
    /// public key).
    pub fn into_private(self) -> RsaPrivateKey {
        self.private
    }

    /// Wraps a restored private key back into a pair.
    pub fn from_private(private: RsaPrivateKey) -> Self {
        RsaKeyPair { private }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed_cafe)
    }

    fn small_pair() -> RsaKeyPair {
        RsaKeyPair::generate(256, &mut rng())
    }

    #[test]
    fn generated_modulus_has_requested_size() {
        let pair = small_pair();
        assert_eq!(pair.public().modulus_bits(), 256);
        assert_eq!(pair.public().modulus_bytes(), 32);
        assert_eq!(pair.public().exponent().to_u64(), Some(PUBLIC_EXPONENT));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let pair = small_pair();
        let m = BigUint::from_u64(0x1234_5678_9abc_def0);
        let c = pair.public().rsaep(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(pair.private().rsadp(&c).unwrap(), m);
    }

    #[test]
    fn sign_verify_primitive_roundtrip() {
        // RSASP1 = RSADP, RSAVP1 = RSAEP: applying private then public
        // recovers the representative.
        let pair = small_pair();
        let m = BigUint::from_u64(0xdead_beef);
        let s = pair.private().rsadp(&m).unwrap();
        assert_eq!(pair.public().rsaep(&s).unwrap(), m);
    }

    #[test]
    fn octet_string_roundtrip() {
        let pair = small_pair();
        let msg = vec![0x01u8; 31]; // shorter than modulus
        let ct = pair.public().encrypt_os(&msg).unwrap();
        assert_eq!(ct.len(), 32);
        let pt = pair.private().decrypt_os(&ct).unwrap();
        assert_eq!(&pt[pt.len() - 31..], &msg[..]);
    }

    #[test]
    fn out_of_range_rejected() {
        let pair = small_pair();
        let too_big = pair.public().modulus().clone();
        assert_eq!(
            pair.public().rsaep(&too_big),
            Err(CryptoError::MessageRepresentativeOutOfRange)
        );
        assert_eq!(
            pair.private().rsadp(&too_big),
            Err(CryptoError::MessageRepresentativeOutOfRange)
        );
    }

    #[test]
    fn distinct_keys_from_distinct_seeds() {
        let a = RsaKeyPair::generate(256, &mut StdRng::seed_from_u64(1));
        let b = RsaKeyPair::generate(256, &mut StdRng::seed_from_u64(2));
        assert_ne!(a.public().modulus(), b.public().modulus());
    }

    #[test]
    fn seeded_key_generation_is_pinned() {
        // The benchmark's KEY_SEED. Key generation must consume the RNG and
        // accept candidates exactly as before any arithmetic rewrite, or
        // every seeded key, golden vector and signature moves with it.
        let pair = RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(0x0a3d_2005));
        assert_eq!(
            pair.public().modulus().to_hex(),
            "b32ad63f04498501fd44848e62cdf73b04abf82abc2d0196e2f43689b9462c59\
             dd8e3dde7770c8f33bd680fcb789f82564b20f0bbf9f0bba353f96b11e22af6b"
        );
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let pair = small_pair();
        let m = BigUint::from_u64(42);
        let plain = m.modpow(&pair.private().d, pair.public().modulus());
        let crt = pair.private().rsadp(&m).unwrap();
        assert_eq!(plain, crt);
    }

    #[test]
    fn component_roundtrip_restores_an_equal_key() {
        let pair = small_pair();
        let (p, q) = pair.private().primes();
        let restored = RsaPrivateKey::from_components(
            pair.public().clone(),
            pair.private().d().clone(),
            p.clone(),
            q.clone(),
        )
        .unwrap();
        assert_eq!(&restored, pair.private(), "CRT parameters recomputed");
        // Inconsistent components are rejected, not mis-restored.
        let other = RsaKeyPair::generate(256, &mut StdRng::seed_from_u64(99));
        assert_eq!(
            RsaPrivateKey::from_components(
                other.public().clone(),
                pair.private().d().clone(),
                p.clone(),
                q.clone(),
            ),
            Err(CryptoError::InvalidKeyComponents)
        );
    }

    #[test]
    fn warm_context_invisible_to_equality_and_shared_by_clones() {
        let pair = small_pair();
        let cold = pair.private().clone();
        pair.private().precompute();
        pair.private().precompute(); // idempotent
        assert_eq!(&cold, pair.private(), "cache state must not affect Eq");
        let warm_clone = pair.private().clone();
        let m = BigUint::from_u64(0x0123_4567);
        let c = pair.public().rsaep(&m).unwrap();
        assert_eq!(warm_clone.rsadp(&c).unwrap(), m);
        assert_eq!(cold.rsadp(&c).unwrap(), m);
    }

    #[test]
    fn repeated_operations_through_the_cache_stay_byte_identical() {
        let pair = small_pair();
        let msg = vec![0x42u8; 31];
        let first_ct = pair.public().encrypt_os(&msg).unwrap();
        let first_pt = pair.private().decrypt_os(&first_ct).unwrap();
        for _ in 0..3 {
            assert_eq!(pair.public().encrypt_os(&msg).unwrap(), first_ct);
            assert_eq!(pair.private().decrypt_os(&first_ct).unwrap(), first_pt);
        }
    }

    #[test]
    fn debug_hides_private_material() {
        let pair = small_pair();
        let s = format!("{:?}", pair.private());
        assert!(s.contains("modulus_bits"));
        assert!(!s.contains("qinv"));
    }

    #[test]
    fn thousand_bit_keygen_smoke() {
        // The real OMA size; kept as a single smoke test because it is the
        // slowest operation in the suite.
        let pair = RsaKeyPair::generate_default(&mut rng());
        assert_eq!(pair.public().modulus_bits(), 1024);
        let m = BigUint::from_u64(7777);
        let c = pair.public().rsaep(&m).unwrap();
        assert_eq!(pair.private().rsadp(&c).unwrap(), m);
    }
}
