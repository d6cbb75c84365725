//! Seeded set-up shared by every workload: the CA, the Rights Issuer
//! service, a pool of device keys, the two DCFs and device provisioning.
//!
//! Everything here is a pure function of `--seed`: content bytes, device
//! order, device storage keys and (through each agent's seeded stream)
//! nonces. Keys are 1024-bit everywhere — the paper's size.
//!
//! The RSA keys themselves come from the fixed [`KEY_SEED`], not from
//! `--seed`: a 1024-bit prime search takes anything from 10 to 150 ms
//! depending on where it starts, so seeded key generation made `setup_s`
//! differ by ±40 % between seeds, and the keys' exponents made every RSA
//! timing differ by a few per cent on top. The driver compares runs of
//! different seeds; the work they time must be the same work.
//!
//! Devices draw their key pair from a pool of [`KEY_POOL`] pairs: a
//! device's identity is its certificate subject, every device still gets
//! its own CA-signed certificate, and no cache in the stack is keyed by
//! public key, so pooling changes no measured path; it only keeps key
//! generation (tens of milliseconds per pair) from dominating `setup_s`.

use oma_crypto::backend::CryptoBackend;
use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::sha1::{sha1, DIGEST_SIZE};
use oma_drm::{ContentIssuer, Dcf, DrmAgent, Permission, RiService, RightsTemplate};
use oma_pki::{Certificate, CertificationAuthority, EntityRole, Timestamp, ValidityPeriod};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// RSA modulus size of the CA, the Rights Issuer and every device.
pub const KEY_BITS: usize = 1024;

/// Distinct device key pairs generated per set-up.
pub const KEY_POOL: usize = 8;

/// Seed of every RSA key pair (CA, Rights Issuer, device pool).
pub const KEY_SEED: u64 = 0x0a3d_2005;

/// The Rights Issuer's identifier.
pub const RI_ID: &str = "ri.bench.example";

/// The paper's Music Player track: 3.5 MiB.
pub const BIG_CONTENT_LEN: usize = 3_670_016;

/// The paper's ringtone: 30 KiB.
pub const RING_CONTENT_LEN: usize = 30_720;

/// Accesses per device to the ringtone (the paper's 25 calls).
pub const RING_ACCESSES: usize = 25;

/// Playbacks in the Music Player use case (the paper's 5).
pub const MUSIC_PLAYS: u64 = 5;

/// The protocol clock: one fixed instant for clients and the server-pinned
/// clock, so certificate validity and OCSP freshness always hold.
pub fn now() -> Timestamp {
    Timestamp::new(1_000)
}

/// One packaged piece of content and what the oracle expects back.
#[derive(Debug, Clone)]
pub struct Content {
    /// Content identifier the Rights Issuer sells rights for.
    pub id: &'static str,
    /// The DCF (encrypted payload + headers).
    pub dcf: Dcf,
    /// SHA-1 of the plaintext a correct playback recovers.
    pub plaintext_sha1: [u8; DIGEST_SIZE],
    /// Plaintext length in bytes.
    pub len: usize,
}

/// The seeded actors of one run.
pub struct World {
    /// The certification authority (signs every device certificate).
    pub ca: CertificationAuthority,
    /// The Rights Issuer under test.
    pub service: Arc<RiService>,
    /// The CA root certificate devices trust.
    pub ca_root: Certificate,
    /// The 3.5 MiB track.
    pub big: Content,
    /// The 30 KiB ringtone.
    pub ring: Content,
    key_pool: Vec<RsaKeyPair>,
    rng: StdRng,
    provisioned: usize,
}

impl World {
    /// Builds the CA, the service (on `server_backend`), the key pool and
    /// both DCFs from `seed`.
    pub fn new(seed: u64, server_backend: Arc<dyn CryptoBackend>) -> World {
        let mut key_rng = StdRng::seed_from_u64(KEY_SEED);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ca = CertificationAuthority::new("cmla.bench", KEY_BITS, &mut key_rng);
        let service = Arc::new(RiService::with_backend(
            RI_ID,
            KEY_BITS,
            &mut ca,
            server_backend,
            &mut key_rng,
        ));
        let key_pool: Vec<RsaKeyPair> = (0..KEY_POOL)
            .map(|_| {
                let keys = RsaKeyPair::generate(KEY_BITS, &mut key_rng);
                // Warm the pair once; every device cloned from it shares the
                // Montgomery contexts, as a terminal that booted earlier would.
                keys.private().precompute();
                keys.public().precompute();
                keys
            })
            .collect();
        let ci = ContentIssuer::new("ci.bench.example");
        let mut package = |id: &'static str, len: usize| {
            let mut plaintext = vec![0u8; len];
            rng.fill_bytes(&mut plaintext);
            let (dcf, cek) = ci.package(&plaintext, id, &mut rng);
            service.add_content(id, cek, &dcf, RightsTemplate::unlimited(Permission::Play));
            Content {
                id,
                dcf,
                plaintext_sha1: sha1(&plaintext),
                len,
            }
        };
        let big = package("cid:track", BIG_CONTENT_LEN);
        let ring = package("cid:ringtone", RING_CONTENT_LEN);
        World {
            ca_root: ca.root_certificate().clone(),
            ca,
            service,
            big,
            ring,
            key_pool,
            rng,
            provisioned: 0,
        }
    }

    /// Provisions the next device: a pooled key pair, a fresh CA-signed
    /// certificate for a fresh device id, and an agent on `backend`.
    pub fn provision(&mut self, backend: Arc<dyn CryptoBackend>) -> DrmAgent {
        let index = self.provisioned;
        self.provisioned += 1;
        let device_id = format!("dev-{index:06}");
        let keys = self.key_pool[index % KEY_POOL].clone();
        let certificate = self.ca.issue(
            &device_id,
            EntityRole::DrmAgent,
            keys.public().clone(),
            ValidityPeriod::starting_at(Timestamp::new(0), oma_drm::CERT_VALIDITY_SECONDS),
        );
        DrmAgent::with_credentials(
            &device_id,
            keys,
            certificate,
            self.ca_root.clone(),
            backend,
            &mut self.rng,
        )
    }

    /// Provisions `count` devices on one shared backend.
    pub fn provision_many(
        &mut self,
        count: usize,
        backend: &Arc<dyn CryptoBackend>,
    ) -> Vec<DrmAgent> {
        (0..count)
            .map(|_| self.provision(Arc::clone(backend)))
            .collect()
    }

    /// Key pair `index` of the device pool.
    pub fn pool_key(&self, index: usize) -> &RsaKeyPair {
        &self.key_pool[index % KEY_POOL]
    }

    /// A deterministic shuffle of `0..len` — the device order of a phase.
    pub fn shuffled(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}
