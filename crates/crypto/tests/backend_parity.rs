//! Backend-parity property tests: the software backend and the simulated
//! hardware-macro backend must produce **byte-identical** ciphertexts,
//! hashes, MACs, wrapped keys and signatures for random inputs — the
//! hardware macros implement the same standardised algorithms, only their
//! cycle bill differs.
//!
//! The same holds *within* a backend between the bulk CBC path (one charge,
//! then a loop over the cipher) and the per-block path a wrapper backend
//! gets from the trait's default: identical bytes, identical cycles, every
//! block seen. And the priced [`OpTrace`](oma_crypto::OpTrace) equals the
//! cycle meter after rejected calls too.

use oma_crypto::aes::Aes128;
use oma_crypto::backend::{
    AlgorithmCost, CryptoBackend, CycleMeter, HwMacroBackend, Realisation, SoftwareBackend,
};
use oma_crypto::rsa::{RsaKeyPair, RsaPrivateKey};
use oma_crypto::sha1::{sha1, Sha1};
use oma_crypto::{cbc, kdf, kem, keywrap, pss, Algorithm, CryptoEngine, CryptoError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A fixed 512-bit test key pair (RSA keygen dominates the suite's runtime;
/// the properties vary the data, not the key).
fn test_pair() -> &'static RsaKeyPair {
    static PAIR: OnceLock<RsaKeyPair> = OnceLock::new();
    PAIR.get_or_init(|| RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(0x9a17)))
}

/// A second key pair, whose KEM ciphertexts `test_pair` cannot unwrap.
fn other_pair() -> &'static RsaKeyPair {
    static PAIR: OnceLock<RsaKeyPair> = OnceLock::new();
    PAIR.get_or_init(|| RsaKeyPair::generate(512, &mut StdRng::seed_from_u64(0x07e2)))
}

/// The three backend configurations of the paper's evaluation.
fn backends() -> Vec<Box<dyn CryptoBackend>> {
    vec![
        Box::new(SoftwareBackend::new()),
        Box::new(HwMacroBackend::hybrid()),
        Box::new(HwMacroBackend::full()),
    ]
}

/// A backend in the shape of the benchmark's `TimedBackend`: it overrides
/// only the per-block AES methods (counting the blocks it sees) and leaves
/// `aes_cbc_blocks` to the trait's default.
#[derive(Debug, Default)]
struct PerBlock {
    inner: SoftwareBackend,
    blocks_seen: AtomicU64,
}

impl CryptoBackend for PerBlock {
    fn name(&self) -> &str {
        "per-block"
    }

    fn realisation(&self, algorithm: Algorithm) -> Realisation {
        self.inner.realisation(algorithm)
    }

    fn cost(&self, algorithm: Algorithm) -> AlgorithmCost {
        self.inner.cost(algorithm)
    }

    fn meter(&self) -> &CycleMeter {
        self.inner.meter()
    }

    fn aes_encrypt_block(&self, cipher: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        self.blocks_seen.fetch_add(1, Ordering::Relaxed);
        self.inner.aes_encrypt_block(cipher, block)
    }

    fn aes_decrypt_block(&self, cipher: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        self.blocks_seen.fetch_add(1, Ordering::Relaxed);
        self.inner.aes_decrypt_block(cipher, block)
    }
}

/// CBC-encrypts and decrypts `plaintext` on the bulk path and on the
/// per-block path and compares bytes, cycles and the blocks the wrapper saw.
fn assert_bulk_matches_per_block(key: &[u8; 16], iv: &[u8; 16], plaintext: &[u8]) {
    let blocks = (plaintext.len() / 16 + 1) as u64;
    let (bulk, per_block) = (SoftwareBackend::new(), PerBlock::default());

    let ciphertext = cbc::encrypt_with(&bulk, key, iv, plaintext).unwrap();
    assert_eq!(
        cbc::encrypt_with(&per_block, key, iv, plaintext).unwrap(),
        ciphertext
    );
    assert_eq!(per_block.blocks_seen.swap(0, Ordering::Relaxed), blocks);

    assert_eq!(
        cbc::decrypt_with(&bulk, key, iv, &ciphertext).unwrap(),
        plaintext
    );
    assert_eq!(
        cbc::decrypt_with(&per_block, key, iv, &ciphertext).unwrap(),
        plaintext
    );
    assert_eq!(per_block.blocks_seen.swap(0, Ordering::Relaxed), blocks);

    for (algorithm, offset) in [(Algorithm::AesEncrypt, 360), (Algorithm::AesDecrypt, 950)] {
        let cycles = bulk.meter().cycles_of(algorithm);
        assert_eq!(cycles, offset + 830 * blocks, "{algorithm}");
        assert_eq!(
            per_block.meter().cycles_of(algorithm),
            cycles,
            "{algorithm}"
        );
    }
}

#[test]
fn bulk_cbc_matches_per_block_on_the_papers_dcf_sizes() {
    // The 30 KiB ringtone and the 3.5 MiB music track.
    for len in [30_720usize, 3_670_016] {
        let plaintext: Vec<u8> = (0..len).map(|i| (i * 131 + i / 251) as u8).collect();
        assert_bulk_matches_per_block(&[0x42; 16], &[0x24; 16], &plaintext);
    }
}

/// The cycles `backend` charges for everything in the engine's trace.
fn priced_trace(engine: &CryptoEngine) -> u64 {
    let trace = engine.trace();
    Algorithm::ALL
        .into_iter()
        .map(|alg| engine.backend().cost(alg).cycles(trace.count(alg)))
        .sum()
}

#[test]
fn trace_and_meter_agree_after_rejected_calls() {
    let backends: [Arc<dyn CryptoBackend>; 3] = [
        Arc::new(SoftwareBackend::new()),
        Arc::new(HwMacroBackend::hybrid()),
        Arc::new(HwMacroBackend::full()),
    ];
    for backend in backends {
        let name = backend.name().to_string();
        let engine = CryptoEngine::with_backend(backend, 7);
        let (key, iv) = ([1u8; 16], [2u8; 16]);
        let mut rng = StdRng::seed_from_u64(0xc1c2);

        // Rejected before any work: nothing recorded, nothing charged.
        let rejected = [
            engine.aes_cbc_encrypt(&key[..15], &iv, b"x").unwrap_err(),
            engine.aes_cbc_encrypt(&key, &iv[..8], b"x").unwrap_err(),
            engine
                .aes_cbc_decrypt(&key[..15], &iv, &[0; 32])
                .unwrap_err(),
            engine
                .aes_cbc_decrypt(&key, &iv[..8], &[0; 32])
                .unwrap_err(),
            engine.aes_cbc_decrypt(&key, &iv, &[0; 40]).unwrap_err(),
            engine.aes_cbc_decrypt(&key, &iv, &[]).unwrap_err(),
            engine.aes_wrap(&key[..15], &[0; 32]).unwrap_err(),
            engine.aes_wrap(&key, &[0; 8]).unwrap_err(),
            engine.aes_unwrap(&key[..15], &[0; 40]).unwrap_err(),
            engine.aes_unwrap(&key, &[0; 16]).unwrap_err(),
            engine.aes_unwrap(&key, &[0; 7]).unwrap_err(),
        ];
        for error in rejected {
            assert!(
                matches!(
                    error,
                    CryptoError::InvalidKeyLength { .. } | CryptoError::InvalidInputLength { .. }
                ),
                "{error:?} on {name}"
            );
        }
        // The KEM validates C1 and the shape of C2 before its first stage.
        let pair = test_pair();
        let good = kem::wrap_keys(pair.public(), &[7; 16], &[8; 16], &mut rng).unwrap();
        let bad_c1 = kem::WrappedKeys {
            c1: vec![0xff; good.c1.len()],
            c2: good.c2.clone(),
        };
        assert_eq!(
            engine.kem_unwrap(pair.private(), &bad_c1),
            Err(CryptoError::MessageRepresentativeOutOfRange),
            "on {name}"
        );
        for len in [16, 39] {
            let short_c2 = kem::WrappedKeys {
                c1: good.c1.clone(),
                c2: good.c2[..len].to_vec(),
            };
            assert!(
                matches!(
                    engine.kem_unwrap(pair.private(), &short_c2),
                    Err(CryptoError::InvalidInputLength { .. })
                ),
                "C2 of {len} bytes on {name}"
            );
        }
        assert!(engine.trace().is_empty(), "trace on {name}");
        assert_eq!(engine.charged_cycles(), 0, "meter on {name}");

        // Failures only the finished work reveals are recorded *and* charged.
        let ciphertext = engine.aes_cbc_encrypt(&key, &iv, &[0xaa; 100]).unwrap();
        let garbled = &ciphertext[..ciphertext.len() - 16];
        assert_eq!(
            engine.aes_cbc_decrypt(&key, &iv, garbled),
            Err(CryptoError::InvalidPadding)
        );
        let wrapped = engine.aes_wrap(&key, &[5; 32]).unwrap();
        assert_eq!(
            engine.aes_unwrap(&[3; 16], &wrapped),
            Err(CryptoError::KeyUnwrapIntegrity)
        );
        // A KEM ciphertext for somebody else's key, or with a C2 longer
        // than two keys, runs all three stages before the wrap's integrity
        // check fails.
        let wrong_key =
            kem::wrap_keys(other_pair().public(), &[7; 16], &[8; 16], &mut rng).unwrap();
        let mut long_c2 = good.clone();
        long_c2.c2.extend_from_slice(&[0; 8]);
        for wrapped in [&wrong_key, &long_c2] {
            assert_eq!(
                engine.kem_unwrap(pair.private(), wrapped),
                Err(CryptoError::KeyUnwrapIntegrity),
                "on {name}"
            );
        }
        assert_eq!(priced_trace(&engine), engine.charged_cycles(), "on {name}");
        assert!(engine.charged_cycles() > 0);
    }
}

#[test]
fn sha1_one_million_a_in_one_call() {
    // FIPS 180 appendix A.3; one `update` over the whole message, so the
    // compression runs over one 15 625-block slice.
    let digest: String = sha1(&vec![b'a'; 1_000_000])
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(digest, "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bulk_cbc_matches_per_block(key in any::<[u8; 16]>(), iv in any::<[u8; 16]>(),
                                  plaintext in proptest::collection::vec(any::<u8>(), 0..4096)) {
        assert_bulk_matches_per_block(&key, &iv, &plaintext);
    }

    /// Lengths within a few bytes of every boundary of the padding logic
    /// (55/56: the length field no longer fits; 63/64: a block fills; 119/120
    /// and 127/128: the same one block later), cut into arbitrary chunks.
    #[test]
    fn sha1_chunked_update_matches_one_shot(
        boundary in 0usize..8,
        offset in 0usize..5,
        cuts in proptest::collection::vec(0usize..140, 0..6),
        seed in any::<u8>(),
    ) {
        let len = [55usize, 56, 63, 64, 119, 120, 127, 128][boundary] + offset - 2;
        let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
        cuts.sort_unstable();
        let mut hasher = Sha1::new();
        let mut start = 0;
        for cut in cuts {
            hasher.update(&data[start..cut]);
            start = cut;
        }
        hasher.update(&data[start..]);
        prop_assert_eq!(hasher.finalize(), sha1(&data), "len {}", len);
    }

    #[test]
    fn cbc_ciphertexts_are_byte_identical(key in any::<[u8; 16]>(), iv in any::<[u8; 16]>(),
                                          plaintext in proptest::collection::vec(any::<u8>(), 0..512)) {
        let reference = cbc::encrypt(&key, &iv, &plaintext).unwrap();
        for backend in backends() {
            let ct = cbc::encrypt_with(backend.as_ref(), &key, &iv, &plaintext).unwrap();
            prop_assert_eq!(&ct, &reference, "encrypt on {}", backend.name());
            let pt = cbc::decrypt_with(backend.as_ref(), &key, &iv, &ct).unwrap();
            prop_assert_eq!(&pt, &plaintext, "decrypt on {}", backend.name());
        }
    }

    #[test]
    fn keywrap_outputs_are_byte_identical(kek in any::<[u8; 16]>(), blocks in 2usize..8) {
        let data: Vec<u8> = (0..blocks * 8).map(|i| (i * 31 + 7) as u8).collect();
        let reference = keywrap::wrap(&kek, &data).unwrap();
        for backend in backends() {
            let wrapped = keywrap::wrap_with(backend.as_ref(), &kek, &data).unwrap();
            prop_assert_eq!(&wrapped, &reference, "wrap on {}", backend.name());
            let unwrapped = keywrap::unwrap_with(backend.as_ref(), &kek, &wrapped).unwrap();
            prop_assert_eq!(&unwrapped, &data, "unwrap on {}", backend.name());
        }
    }

    #[test]
    fn hashes_and_macs_are_byte_identical(key in proptest::collection::vec(any::<u8>(), 1..64),
                                          data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let sw = SoftwareBackend::new();
        let reference_hash = sw.sha1(&data);
        let reference_mac = sw.hmac_sha1(&key, &data);
        for backend in backends() {
            prop_assert_eq!(backend.sha1(&data), reference_hash, "sha1 on {}", backend.name());
            prop_assert_eq!(backend.hmac_sha1(&key, &data), reference_mac, "hmac on {}", backend.name());
        }
    }

    #[test]
    fn kdf2_outputs_are_byte_identical(z in proptest::collection::vec(any::<u8>(), 1..64),
                                       len in 1usize..48) {
        let reference = kdf::kdf2(&z, b"", len);
        for backend in backends() {
            prop_assert_eq!(
                kdf::kdf2_with(backend.as_ref(), &z, b"", len),
                reference.clone(),
                "kdf2 on {}",
                backend.name()
            );
        }
    }

    #[test]
    fn pss_signatures_are_byte_identical(message in proptest::collection::vec(any::<u8>(), 0..256),
                                         seed in any::<u64>()) {
        let pair = test_pair();
        let reference = {
            let mut rng = StdRng::seed_from_u64(seed);
            pss::sign(pair.private(), &message, &mut rng).unwrap()
        };
        for backend in backends() {
            let mut rng = StdRng::seed_from_u64(seed);
            let sig = pss::sign_with(backend.as_ref(), pair.private(), &message, &mut rng).unwrap();
            prop_assert_eq!(&sig, &reference, "sign on {}", backend.name());
            prop_assert!(
                pss::verify_with(backend.as_ref(), pair.public(), &message, &sig),
                "verify on {}",
                backend.name()
            );
        }
    }

    #[test]
    fn kem_wrappings_are_byte_identical(kmac in any::<[u8; 16]>(), krek in any::<[u8; 16]>(),
                                        seed in any::<u64>()) {
        let pair = test_pair();
        let reference = {
            let mut rng = StdRng::seed_from_u64(seed);
            kem::wrap_keys(pair.public(), &kmac, &krek, &mut rng).unwrap()
        };
        for backend in backends() {
            let mut rng = StdRng::seed_from_u64(seed);
            let wrapped =
                kem::wrap_keys_with(backend.as_ref(), pair.public(), &kmac, &krek, &mut rng).unwrap();
            prop_assert_eq!(&wrapped, &reference, "kem wrap on {}", backend.name());
            let (m, r) = kem::unwrap_keys_with(backend.as_ref(), pair.private(), &wrapped).unwrap();
            prop_assert_eq!(m, kmac, "kmac on {}", backend.name());
            prop_assert_eq!(r, krek, "krek on {}", backend.name());
        }
    }

    #[test]
    fn engines_on_different_backends_interoperate(data in proptest::collection::vec(any::<u8>(), 1..512),
                                                  seed in any::<u64>()) {
        // An HW-terminal engine and a SW-terminal engine with the same seed
        // produce identical protocol bytes and can verify each other's MACs.
        let sw_engine = CryptoEngine::with_seed(seed);
        let hw_engine = CryptoEngine::with_backend(Arc::new(HwMacroBackend::full()), seed);
        let key = sw_engine.random_key();
        prop_assert_eq!(key, hw_engine.random_key());
        let iv = [3u8; 16];
        let sw_ct = sw_engine.aes_cbc_encrypt(&key, &iv, &data).unwrap();
        let hw_ct = hw_engine.aes_cbc_encrypt(&key, &iv, &data).unwrap();
        prop_assert_eq!(&sw_ct, &hw_ct);
        let tag = hw_engine.hmac_sha1(&key, &data);
        prop_assert!(sw_engine.hmac_sha1_verify(&key, &data, &tag));
        // Identical traces, divergent cycle bills.
        prop_assert_eq!(sw_engine.trace(), hw_engine.trace());
        prop_assert!(sw_engine.charged_cycles() > hw_engine.charged_cycles());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The cached Montgomery contexts on the key types are a pure
    /// optimisation: repeated primitives through a warm key, a cloned key
    /// (sharing the warm contexts), and a cold key rebuilt from raw
    /// components must all emit identical bytes on every backend.
    #[test]
    fn cached_contexts_keep_primitives_byte_identical(message in 1u64..u64::MAX,
                                                      seed in any::<u64>()) {
        let pair = test_pair();
        let m = oma_bignum::BigUint::from_u64(message);
        let cold = RsaPrivateKey::from_components(
            pair.public().clone(),
            pair.private().d().clone(),
            pair.private().primes().0.clone(),
            pair.private().primes().1.clone(),
        )
        .unwrap();
        let cloned = pair.private().clone();
        let reference_ct = pair.public().rsaep(&m).unwrap();
        let reference_pt = pair.private().rsadp(&reference_ct).unwrap();
        prop_assert_eq!(&reference_pt, &m);
        // Two more rounds through the warm contexts: caching must not drift.
        for key in [pair.private(), &cloned, &cold] {
            for _ in 0..2 {
                prop_assert_eq!(&key.public().rsaep(&m).unwrap(), &reference_ct);
                prop_assert_eq!(&key.rsadp(&reference_ct).unwrap(), &reference_pt);
            }
        }
        // PSS after an explicit warm-up still matches all backends.
        let payload = message.to_be_bytes();
        cold.precompute();
        cold.public().precompute();
        let reference_sig = {
            let mut rng = StdRng::seed_from_u64(seed);
            pss::sign(pair.private(), &payload, &mut rng).unwrap()
        };
        for backend in backends() {
            let mut rng = StdRng::seed_from_u64(seed);
            let sig = pss::sign_with(backend.as_ref(), &cold, &payload, &mut rng).unwrap();
            prop_assert_eq!(&sig, &reference_sig, "warm sign on {}", backend.name());
            prop_assert!(
                pss::verify_with(backend.as_ref(), cold.public(), &payload, &sig),
                "warm verify on {}",
                backend.name()
            );
        }
    }
}

#[test]
fn backend_realisations_match_variants() {
    let hybrid = HwMacroBackend::hybrid();
    assert_eq!(
        hybrid.realisation(Algorithm::AesDecrypt),
        Realisation::HardwareMacro
    );
    assert_eq!(
        hybrid.realisation(Algorithm::RsaPrivate),
        Realisation::Software
    );
    let full = HwMacroBackend::full();
    for alg in Algorithm::ALL {
        assert_eq!(full.realisation(alg), Realisation::HardwareMacro);
    }
}
