//! Direct calls into each layer's public functions: the unit costs the
//! budget's rows are multiples of.
//!
//! These probes do not depend on the workload — they run in every traced
//! pass so that a change in a layer's unit cost is visible next to the
//! per-op counts and shares the spans give. Inputs come from the run's
//! seeded world (its keys, certificates and frames), so equal seeds probe
//! equal values.

use crate::ops::{self, InProc};
use crate::seams::Tracer;
use crate::stats::Measure;
use crate::world::{now, World, RI_ID};
use oma_bignum::{BigUint, Montgomery};
use oma_crypto::backend::CryptoBackend;
use oma_crypto::rsa::RsaPublicKey;
use oma_crypto::{cbc, kem, keywrap, sha1, CryptoEngine};
use oma_drm::agent::OCSP_MAX_AGE_SECONDS;
use oma_drm::wire::RoapPdu;
use oma_drm::DrmAgent;
use oma_pki::verify::verify_certificate;
use oma_pki::{Certificate, EntityRole, Timestamp, ValidityPeriod};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// `reps` samples of the per-call time of `f`, each averaged over `batch`
/// back-to-back calls, in nanoseconds.
fn sample_ns(reps: usize, batch: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                f();
            }
            started.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect()
}

fn random_below(rng: &mut StdRng, modulus: &BigUint) -> BigUint {
    let mut bytes = vec![0u8; modulus.bits().div_ceil(8)];
    rng.fill_bytes(&mut bytes);
    // Clearing the top byte keeps the value below the modulus.
    bytes[0] = 0;
    BigUint::from_bytes_be(&bytes)
}

/// A copy of `certificate` whose public key carries no cached Montgomery
/// context — what a verifier holds after decoding it from the wire.
fn cold(certificate: &Certificate) -> Certificate {
    let mut tbs = certificate.tbs().clone();
    tbs.public_key = RsaPublicKey::new(
        tbs.public_key.modulus().clone(),
        tbs.public_key.exponent().clone(),
    );
    Certificate::new(tbs, certificate.signature().clone())
}

/// What [`probe`] measured, and the state it added to the service (the
/// post-run invariants count it).
pub struct LayerProbe {
    /// `(metric name, measure)` pairs.
    pub metrics: Vec<(&'static str, Measure)>,
    /// Fresh devices it registered.
    pub registered: u64,
    /// Rights Objects it had issued.
    pub issued_ros: u64,
}

/// Runs every direct-call probe. `devices` are registered agents (their
/// ids and one of them feed the service probes); fresh devices for the
/// registration timings are provisioned on `backend`.
pub fn probe(
    world: &mut World,
    devices: &mut [DrmAgent],
    backend: &Arc<dyn CryptoBackend>,
    seed: u64,
    smoke: bool,
) -> LayerProbe {
    let scale = if smoke { 4 } else { 1 };
    let reps = |n: usize| (n / scale).max(3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001a_7e25);
    let mut out = Vec::new();
    let engine = CryptoEngine::with_seed(seed);
    let t = Tracer::new();

    // ----- bignum: the arithmetic under every RSA operation -------------------
    let n1024 = world.service.public_key().modulus().clone();
    let mont1024 = Montgomery::new(n1024.clone()).expect("RSA modulus is odd");
    let (base, exponent) = (
        random_below(&mut rng, &n1024),
        random_below(&mut rng, &n1024),
    );
    out.push((
        "bignum.modpow_1024_us",
        Measure::scaled(
            &sample_ns(reps(12), 1, || {
                black_box(mont1024.modpow(black_box(&base), black_box(&exponent)));
            }),
            1e-3,
        ),
    ));
    let mut n512 = n1024.shr_bits(n1024.bits() / 2);
    n512.set_bit(0, true);
    let mont512 = Montgomery::new(n512.clone()).expect("odd by construction");
    let (base512, exponent512) = (random_below(&mut rng, &n512), random_below(&mut rng, &n512));
    out.push((
        "bignum.modpow_512_us",
        Measure::scaled(
            &sample_ns(reps(24), 1, || {
                black_box(mont512.modpow(black_box(&base512), black_box(&exponent512)));
            }),
            1e-3,
        ),
    ));
    out.push((
        "bignum.mont_mul_1024_ns",
        Measure::of(&sample_ns(reps(12), 2_000, || {
            black_box(mont1024.mul_mod(black_box(&base), black_box(&exponent)));
        })),
    ));

    // ----- crypto: bulk throughput and the per-access key handling -------------
    const BULK: usize = 1 << 20;
    let mut bulk = vec![0u8; BULK];
    rng.fill_bytes(&mut bulk);
    let (key, iv) = ([0x42u8; 16], [0x24u8; 16]);
    let ciphertext = cbc::encrypt(&key, &iv, &bulk).expect("16-byte key and IV");
    let mb = BULK as f64 / 1e6;
    let to_mb_s = |ns: &[f64]| -> Vec<f64> { ns.iter().map(|ns| mb / (ns / 1e9)).collect() };
    out.push((
        "crypto.aes_cbc_mb_s",
        Measure::of(&to_mb_s(&sample_ns(reps(8), 1, || {
            black_box(cbc::decrypt(&key, &iv, black_box(&ciphertext)).expect("valid ciphertext"));
        }))),
    ));
    out.push((
        "crypto.sha1_mb_s",
        Measure::of(&to_mb_s(&sample_ns(reps(8), 1, || {
            black_box(sha1::sha1(black_box(&bulk)));
        }))),
    ));
    let key_material = [0x5au8; 32];
    let wrapped = keywrap::wrap(&key, &key_material).expect("wrap 32 bytes");
    out.push((
        "crypto.keywrap_us",
        Measure::scaled(
            &sample_ns(reps(12), 200, || {
                black_box(keywrap::unwrap(&key, black_box(&wrapped)).expect("unwrap"));
            }),
            1e-3,
        ),
    ));
    let device_keys = world.pool_key(0).clone();
    let kem_wrapped = kem::wrap_keys(device_keys.public(), &[1u8; 16], &[2u8; 16], &mut rng)
        .expect("KEM wrap for a 1024-bit key");
    out.push((
        "crypto.kem_unwrap_us",
        Measure::scaled(
            &sample_ns(reps(12), 1, || {
                black_box(
                    kem::unwrap_keys(device_keys.private(), black_box(&kem_wrapped))
                        .expect("KEM unwrap"),
                );
            }),
            1e-3,
        ),
    ));

    // ----- pki: what a first contact costs each end -----------------------------
    let ri_certificate = world.service.certificate().clone();
    let ca_root = world.ca_root.clone();
    out.push((
        "pki.verify_cert_us",
        Measure::scaled(
            &sample_ns(reps(24), 1, || {
                let (certificate, anchor) = (cold(&ri_certificate), cold(&ca_root));
                verify_certificate(&engine, &certificate, &anchor, now())
                    .expect("RI certificate verifies");
            }),
            1e-3,
        ),
    ));
    let ocsp = world.service.ocsp_response();
    out.push((
        "pki.ocsp_verify_us",
        Measure::scaled(
            &sample_ns(reps(24), 1, || {
                ocsp.verify(
                    &engine,
                    &ri_certificate,
                    &ca_root,
                    None,
                    now(),
                    OCSP_MAX_AGE_SECONDS,
                )
                .expect("OCSP response verifies");
            }),
            1e-3,
        ),
    ));
    let subject_key = device_keys.public().clone();
    let validity = ValidityPeriod::starting_at(Timestamp::new(0), oma_drm::CERT_VALIDITY_SECONDS);
    out.push((
        "pki.issue_cert_us",
        Measure::scaled(
            &sample_ns(reps(12), 1, || {
                black_box(world.ca.issue(
                    "probe-subject",
                    EntityRole::DrmAgent,
                    subject_key.clone(),
                    validity,
                ));
            }),
            1e-3,
        ),
    ));

    // ----- drm: codec, service handlers in-process ------------------------------
    let service = Arc::clone(&world.service);
    let mut x = InProc::new(&service);
    let agent = &mut devices[0];
    let signed =
        ops::sign_ro_request(agent, RI_ID, world.ring.id, &t).expect("probe device is registered");
    let response_frame =
        ops::Exchange::roundtrip(&mut x, &signed.frame).expect("in-process dispatch");
    let response_pdu = RoapPdu::decode(&response_frame).expect("own response decodes");
    out.push((
        "drm.wire.encode_ns",
        Measure::of(&sample_ns(reps(12), 500, || {
            black_box(black_box(&response_pdu).encode());
        })),
    ));
    out.push((
        "drm.wire.decode_ns",
        Measure::of(&sample_ns(reps(12), 500, || {
            black_box(RoapPdu::decode(black_box(&response_frame)).expect("decodes"));
        })),
    ));
    let hello_frames: Vec<Vec<u8>> = devices
        .iter()
        .map(|d| ops::hello_frame(d.device_id()))
        .collect();
    let mut next = 0usize;
    out.push((
        "drm.service.hello_us",
        Measure::scaled(
            &sample_ns(reps(12), 64, || {
                next = (next + 1) % hello_frames.len();
                black_box(service.dispatch_at(&hello_frames[next], now()));
            }),
            1e-3,
        ),
    ));
    out.push((
        "drm.service.ro_request_us",
        Measure::scaled(
            &sample_ns(reps(16), 1, || {
                black_box(service.dispatch_at(&signed.frame, now()));
            }),
            1e-3,
        ),
    ));
    let mut register_ns = Vec::new();
    for _ in 0..reps(12) {
        let mut fresh = world.provision(Arc::clone(backend));
        let hello_in = service.dispatch_at(&ops::hello_frame(fresh.device_id()), now());
        let hello = ops::check_ri_hello(&hello_in, RI_ID, &mut 0).expect("hello answers");
        let (pending, request) = ops::sign_registration(&mut fresh, hello, &t).expect("signs");
        let started = Instant::now();
        let response = service.dispatch_at(&request, now());
        register_ns.push(started.elapsed().as_nanos() as f64);
        ops::check_registration(&mut fresh, &pending, &response, &t)
            .expect("registration verifies");
    }
    out.push((
        "drm.service.register_us",
        Measure::scaled(&register_ns, 1e-3),
    ));
    LayerProbe {
        metrics: out,
        registered: register_ns.len() as u64,
        issued_ros: 1 + reps(16) as u64,
    }
}
