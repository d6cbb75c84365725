//! Table 1 — per-algorithm execution cost.
//!
//! The paper's Table 1 reports cycles per 128-bit block (symmetric/hash) and
//! per 1024-bit operation (RSA) for software and hardware realisations. The
//! hardware numbers are vendor figures that cannot be re-measured on a host
//! CPU, so this bench does two things:
//!
//! 1. benchmarks the *real software implementations* of this repository on
//!    the host, so the relative shape (AES ≈ SHA-1 per block ≪ RSA public ≪
//!    RSA private) can be compared against the table, and
//! 2. benchmarks the model evaluation itself (costing a trace under Table 1),
//!    which is what every other experiment builds on.
//!
//! The `table1/software_3_5m` group repeats the bulk primitives at the Music
//! Player's 3.5 MiB DCF size, once through the metered `SoftwareBackend`
//! (what an agent runs on) beside the unmetered plain functions, and times
//! one whole `DrmAgent::consume` of such a track.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oma_crypto::backend::SoftwareBackend;
use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::{cbc, hmac, keywrap, pss, sha1};
use oma_drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient};
use oma_perf::cost::CostTable;
use oma_perf::runner::synthetic_content;
use oma_perf::Architecture;
use oma_pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn software_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/software");
    let data_16k = vec![0xa5u8; 16 * 1024];
    let key = [0x2bu8; 16];
    let iv = [0x01u8; 16];

    group.throughput(Throughput::Bytes(data_16k.len() as u64));
    group.bench_function("aes128_cbc_encrypt_16k", |b| {
        b.iter(|| cbc::encrypt(black_box(&key), black_box(&iv), black_box(&data_16k)).unwrap())
    });
    let ciphertext = cbc::encrypt(&key, &iv, &data_16k).unwrap();
    group.bench_function("aes128_cbc_decrypt_16k", |b| {
        b.iter(|| cbc::decrypt(black_box(&key), black_box(&iv), black_box(&ciphertext)).unwrap())
    });
    group.bench_function("sha1_16k", |b| b.iter(|| sha1::sha1(black_box(&data_16k))));
    group.bench_function("hmac_sha1_16k", |b| {
        b.iter(|| hmac::hmac_sha1(black_box(&key), black_box(&data_16k)))
    });
    group.finish();

    let mut group = c.benchmark_group("table1/software_keyops");
    group.sample_size(20);
    group.bench_function("aes128_keywrap_256bit", |b| {
        b.iter(|| keywrap::wrap(black_box(&key), black_box(&[0x11u8; 32])).unwrap())
    });

    let mut rng = StdRng::seed_from_u64(0xbe9c);
    let pair = RsaKeyPair::generate(1024, &mut rng);
    let message = vec![0x42u8; 128];
    let signature = pss::sign(pair.private(), &message, &mut rng).unwrap();
    group.bench_function("rsa1024_private_op_pss_sign", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| pss::sign(pair.private(), black_box(&message), &mut rng).unwrap())
    });
    group.bench_function("rsa1024_public_op_pss_verify", |b| {
        b.iter(|| pss::verify(pair.public(), black_box(&message), black_box(&signature)))
    });
    group.finish();
}

/// The Music Player's bulk path at its real size: every access to the
/// 3.5 MiB track hashes and decrypts all of it.
fn music_track_bulk(c: &mut Criterion) {
    const TRACK_LEN: usize = 3_670_016;
    let track = synthetic_content(TRACK_LEN, 0x3a5e);
    let key = [0x2bu8; 16];
    let iv = [0x01u8; 16];
    let ciphertext = cbc::encrypt(&key, &iv, &track).unwrap();

    let mut group = c.benchmark_group("table1/software_3_5m");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(TRACK_LEN as u64));
    group.bench_function("aes128_cbc_decrypt_3_5m", |b| {
        b.iter(|| cbc::decrypt(black_box(&key), black_box(&iv), black_box(&ciphertext)).unwrap())
    });
    // The same decryption charged on the metered backend: the difference to
    // the case above is what cycle accounting costs per call.
    let metered = SoftwareBackend::new();
    group.bench_function("aes128_cbc_decrypt_3_5m_software_backend", |b| {
        b.iter(|| {
            cbc::decrypt_with(&metered, black_box(&key), &iv, black_box(&ciphertext)).unwrap()
        })
    });
    group.bench_function("sha1_3_5m", |b| b.iter(|| sha1::sha1(black_box(&track))));

    // One access as the agent performs it: unwrap, MAC, DCF hash, REL check,
    // unwrap, decrypt. 512-bit test keys; consumption does no RSA.
    const CONTENT_ID: &str = "cid:track@bench";
    let mut rng = StdRng::seed_from_u64(0x7ab1);
    let mut ca = CertificationAuthority::new("bench-ca", 512, &mut rng);
    let ri = RiService::new("bench-ri", 512, &mut ca, &mut rng);
    let mut agent = DrmAgent::new("bench-device", 512, &mut ca, &mut rng);
    let (dcf, cek) = ContentIssuer::new("bench-ci").package(&track, CONTENT_ID, &mut rng);
    ri.add_content(
        CONTENT_ID,
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let now = Timestamp::new(1_000);
    let client = RoapClient::in_proc(&ri);
    agent.register(&client, now).expect("registers");
    let response = agent
        .acquire_rights(&client, ri.id(), CONTENT_ID, now)
        .expect("acquires");
    let ro_id = agent.install_rights(&response, now).expect("installs");
    group.bench_function("drm_agent_consume_3_5m", |b| {
        b.iter(|| {
            agent
                .consume(&ro_id, black_box(&dcf), Permission::Play, now)
                .expect("plays")
        })
    });
    group.finish();
}

fn model_costing(c: &mut Criterion) {
    let table = CostTable::paper();
    let mut group = c.benchmark_group("table1/model");
    for blocks in [1u64, 1_000, 218_751] {
        group.bench_with_input(
            BenchmarkId::new("cost_trace", blocks),
            &blocks,
            |b, &blocks| {
                let mut trace = oma_crypto::OpTrace::new();
                trace.record(oma_crypto::Algorithm::AesDecrypt, 1, blocks);
                trace.record(oma_crypto::Algorithm::Sha1, 1, blocks);
                trace.record(oma_crypto::Algorithm::RsaPrivate, 3, 3);
                let variants = Architecture::standard_variants();
                b.iter(|| {
                    variants
                        .iter()
                        .map(|arch| arch.cycles(black_box(&trace), black_box(&table)))
                        .sum::<u64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    software_primitives,
    music_track_bulk,
    model_costing
);
criterion_main!(benches);
