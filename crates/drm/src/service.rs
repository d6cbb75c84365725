//! The concurrent Rights Issuer service.
//!
//! [`RiService`] is the Rights Issuer: the ROAP state machine with every
//! handler taking `&self`, so one service instance can serve many devices
//! from many threads at once. A [`DrmAgent`](crate::DrmAgent) reaches it
//! only through a [`RoapClient`](crate::client::RoapClient), whose frames
//! land in [`RiService::dispatch`] or [`RiService::dispatch_at`] —
//! in process (`RoapClient::in_proc`) or over any byte transport. The paper
//! prices OMA DRM 2 from the terminal's point of view; serving *millions* of
//! terminals needs a Rights Issuer that scales, and this module makes that
//! side executable.
//!
//! Concurrency design — one writer:
//!
//! * every table (pending sessions, registered devices, the content
//!   catalogue, domains, RO-id sequences), every counter, the OCSP response
//!   and the random stream live in one `RiState` behind one `Mutex`,
//! * a handler that changes state runs in three steps: lookups, certificate
//!   and signature checks and RSA public work outside the lock; one critical
//!   section that re-checks its decision, draws every random value the
//!   response needs, applies its [`RiEvent`] and records it with the
//!   stream's checkpoint; then RSA private signing, outside the lock, with
//!   the pre-drawn salt,
//! * so the log order is the apply order, and the last record's checkpoint
//!   is the live random stream, by construction,
//! * lock order is state → journal: a journal records inside the critical
//!   section, and a live service is snapshotted through
//!   [`RiService::snapshot_to`], which hands the journal a finished image,
//! * registration *claims* its session in the critical section, which
//!   doubles as replay protection: a replayed `RegistrationRequest` finds
//!   its session gone and is rejected with [`RoapError::UnknownSession`].
//!
//! One mutation path: after construction the state changes only by applying
//! an [`RiEvent`]. Live handlers, recovery and replication
//! ([`RiService::replay`]) all go through the same `apply`, so every
//! transition is written once.
//!
//! Rights-Object ids are allocated per scope (per registered device, or per
//! domain for out-of-band issuing). Ids are therefore *deterministic per
//! device* regardless of how requests from different devices interleave —
//! the property the `oma-load` fleet harness asserts when it compares a
//! multi-threaded run against a sequential reference run.

use crate::dcf::Dcf;
use crate::domain::{Domain, DomainId};
use crate::error::DrmError;
use crate::journal::{
    session_expired, ContentEntry, PendingSession, RiEvent, RiJournal, RiStateImage, RiTables,
    StateSource,
};
use crate::rel::RightsTemplate;
use crate::ro::{KeyProtection, ProtectedRightsObject, RightsObjectId, RightsObjectPayload};
use crate::roap::{
    DeviceHello, JoinDomainRequest, JoinDomainResponse, RegistrationRequest, RegistrationResponse,
    RiHello, RoRequest, RoResponse, RoapError, NONCE_LEN,
};
use crate::session::{PduKind, RiSessionState};
use crate::wire::{RoapPdu, RoapStatus};
use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_crypto::kem::{self, KemSecret};
use oma_crypto::pss::{self, SALT_LEN};
use oma_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use oma_crypto::sha1::{Sha1, DIGEST_SIZE};
use oma_crypto::CryptoEngine;
use oma_pki::codec::Encode;
use oma_pki::ocsp::{OcspRequest, OcspResponse};
use oma_pki::{
    verify::{check_anchor_and_issuer, check_validity},
    Certificate, CertificationAuthority, EntityRole, Timestamp, ValidityPeriod,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::CERT_VALIDITY_SECONDS;

/// How many dispatches with a server-pinned clock pass between two TTL
/// sweeps of the pending-session table. Sweeping is O(sessions), so it is
/// amortised instead of running per request; the interval only bounds how
/// promptly expired sessions are reclaimed, never correctness.
const SESSION_SWEEP_INTERVAL: u64 = 256;

/// The RO-sequence rule of [`RiEvent::RoIssued`]: once `sequence` is
/// issued, the scope's `next` sequence is past it. Returns how far it moved
/// (what the issued-RO counter grows by); a sequence already covered — out
/// of order, or over a snapshot that holds it — moves nothing.
fn advance_sequence(next: &mut u64, sequence: u64) -> u64 {
    let past = sequence + 1;
    let advanced = past.saturating_sub(*next);
    *next = (*next).max(past);
    advanced
}

/// The join admission check: the domain exists and holds — or has room
/// for — `device_id`.
fn admission<'a>(domain: Option<&'a Domain>, device_id: &str) -> Result<&'a Domain, RoapError> {
    let domain = domain.ok_or(RoapError::UnknownDomain)?;
    if domain.admits(device_id) {
        Ok(domain)
    } else {
        Err(RoapError::DomainFull)
    }
}

/// The domain a domain Rights Object is issued under, as of issue time.
struct DomainKey {
    domain_id: DomainId,
    key: [u8; 16],
    generation: u32,
}

impl DomainKey {
    fn of(domain: &Domain) -> Self {
        DomainKey {
            domain_id: domain.id().clone(),
            key: *domain.key(),
            generation: domain.generation(),
        }
    }
}

/// Whom a Rights Object's keys are protected for: a device's public key
/// (KEM) or a domain's shared key (AES wrap plus a payload signature).
enum RoHolder<'a> {
    Device(&'a RsaPublicKey),
    Domain(DomainKey),
}

/// A holder together with the random value its protection consumes: the
/// device's KEM secret, or the salt of the domain RO's payload signature.
enum RoSeal<'a> {
    Device(&'a RsaPublicKey, KemSecret),
    Domain(DomainKey, [u8; SALT_LEN]),
}

/// One Rights Object's id and every random value it consumes, drawn in the
/// critical section that allocates the id, in this order: `K_MAC`, `K_REK`,
/// then the seal's secret or salt.
struct RoGrant<'a> {
    id: RightsObjectId,
    kmac: [u8; 16],
    krek: [u8; 16],
    seal: RoSeal<'a>,
}

/// Everything about the Rights Issuer that changes after construction,
/// behind [`RiService`]'s one lock: the persistent [`RiTables`], which
/// change only through [`RiState::apply`], and what lives only as long as
/// the process.
struct RiState {
    tables: RiTables,
    /// Each device's pending session id: an index over `tables.sessions`,
    /// kept by [`RiState::open_session`] and [`RiState::release_session`].
    pending_by_device: BTreeMap<String, u64>,
    /// Attached write-ahead journal; `None` runs the service in-memory only.
    journal: Option<Arc<dyn RiJournal>>,
    /// Clocked dispatches since start, for amortising the TTL sweep.
    clocked_dispatches: u64,
}

impl RiState {
    /// Applies `event` and records it with the random stream's checkpoint:
    /// the last step of every critical section that changes state. The
    /// caller has already drawn everything its response needs, so the
    /// checkpoint is the live stream.
    fn commit(&mut self, event: RiEvent) {
        self.apply(&event);
        if let Some(journal) = &self.journal {
            journal.record(&event, &|| self.tables.rng.state_bytes());
        }
    }

    /// Applies one event — after construction, the only code that changes
    /// the state. Every arm is idempotent, so replaying a record whose
    /// effect a snapshot already holds changes nothing.
    fn apply(&mut self, event: &RiEvent) {
        match event {
            RiEvent::ContentAdded {
                content_id,
                cek,
                dcf_hash,
                template,
            } => {
                self.tables.content.insert(
                    content_id.clone(),
                    ContentEntry {
                        cek: *cek,
                        dcf_hash: *dcf_hash,
                        template: template.clone(),
                    },
                );
            }
            RiEvent::SessionOpened {
                session_id,
                device_id,
                ri_nonce,
                opened_at,
            } => self.open_session(
                *session_id,
                PendingSession {
                    device_id: device_id.clone(),
                    ri_nonce: ri_nonce.clone(),
                    opened_at: *opened_at,
                },
            ),
            RiEvent::DeviceRegistered {
                session_id,
                device_id,
                certificate,
            } => {
                self.release_session(*session_id);
                self.tables
                    .registered
                    .insert(device_id.clone(), certificate.clone());
            }
            RiEvent::RoIssued { scope, sequence } => {
                // Replay meets an existing scope on all but its first RO:
                // advance it in place, allocating a key only for a new one.
                let next = match self.tables.ro_sequences.get_mut(scope) {
                    Some(next) => next,
                    None => self.tables.ro_sequences.entry(scope.clone()).or_insert(0),
                };
                self.tables.issued_ros += advance_sequence(next, *sequence);
            }
            RiEvent::DomainCreated {
                domain_id: id,
                key,
                max_members,
            } => {
                // Merge, don't clobber: the domain may already exist — a
                // snapshot that holds it, or a join replayed from a log
                // whose creation record was torn off. Its members survive.
                let max = *max_members as usize;
                self.tables
                    .domains
                    .entry(id.clone())
                    .and_modify(|domain| domain.merge_creation(*key, max))
                    .or_insert_with(|| Domain::new(id.clone(), *key, max));
            }
            RiEvent::DomainJoined {
                domain_id: id,
                device_id,
                key,
                generation,
                max_members,
            } => {
                // A join replayed without its domain's creation record
                // rebuilds the domain from the key material the member was
                // acknowledged with, never a zeroed stub.
                let max = *max_members as usize;
                self.tables
                    .domains
                    .entry(id.clone())
                    .or_insert_with(|| Domain::restore(id.clone(), *key, *generation, [], max))
                    .admit(device_id);
            }
            RiEvent::DomainLeft {
                domain_id,
                device_id,
            } => {
                if let Some(domain) = self.tables.domains.get_mut(domain_id) {
                    domain.remove_member(device_id);
                }
            }
            RiEvent::OcspRefreshed { response } => self.tables.ocsp = response.clone(),
            RiEvent::SessionTtlSet { seconds } => self.tables.session_ttl = *seconds,
            RiEvent::SessionsSwept { session_ids, .. } => {
                for session_id in session_ids {
                    self.release_session(*session_id);
                }
            }
        }
    }

    /// Inserts pending session `session_id` — the rule of
    /// [`RiEvent::SessionOpened`], shared with [`RiService::from_image`],
    /// which rebuilds the per-device index through it.
    /// Supersession is decided by session id, not by arrival order: of two
    /// sessions for one device the *older* one is always evicted, even when
    /// it is applied last.
    fn open_session(&mut self, session_id: u64, session: PendingSession) {
        self.tables.next_session = self.tables.next_session.max(session_id + 1);
        let current = self
            .pending_by_device
            .entry(session.device_id.clone())
            .or_insert(session_id);
        if *current > session_id {
            // A newer session holds the slot; this one is stale.
            return;
        }
        let stale = std::mem::replace(current, session_id);
        if stale != session_id {
            self.tables.sessions.remove(&stale);
        }
        self.tables.sessions.insert(session_id, session);
    }

    /// Removes pending session `session_id` together with its per-device
    /// index entry (when that still names it) — the rule of registration and
    /// of the TTL sweep. Returns whether the session was pending.
    fn release_session(&mut self, session_id: u64) -> bool {
        let Some(session) = self.tables.sessions.remove(&session_id) else {
            return false;
        };
        if self.pending_by_device.get(&session.device_id) == Some(&session_id) {
            self.pending_by_device.remove(&session.device_id);
        }
        true
    }

    fn random_key(&mut self) -> [u8; 16] {
        let mut key = [0u8; 16];
        self.tables.rng.fill_bytes(&mut key);
        key
    }

    /// Allocates the next Rights Object id of `scope` for `holder` and draws
    /// its random values (see [`RoGrant`]). Returns the grant and the
    /// [`RiEvent::RoIssued`] the caller commits once it has drawn the rest
    /// of its response.
    fn grant_ro<'a>(
        &mut self,
        ri_id: &str,
        scope: String,
        holder: RoHolder<'a>,
    ) -> (RoGrant<'a>, RiEvent) {
        let sequence = self.tables.ro_sequences.get(&scope).copied().unwrap_or(0);
        let kmac = self.random_key();
        let krek = self.random_key();
        let seal = match holder {
            RoHolder::Device(key) => {
                RoSeal::Device(key, kem::random_secret(key, &mut self.tables.rng))
            }
            RoHolder::Domain(domain) => {
                RoSeal::Domain(domain, pss::random_salt(&mut self.tables.rng))
            }
        };
        let grant = RoGrant {
            id: RightsObjectId::new(&format!("ro:{ri_id}:{scope}:{sequence}")),
            kmac,
            krek,
            seal,
        };
        (grant, RiEvent::RoIssued { scope, sequence })
    }

    /// The session-machine state of `device_id` (see
    /// [`RiService::session_state`]).
    fn session_state(&self, device_id: &str) -> RiSessionState {
        RiSessionState::derive(
            self.tables.registered.contains_key(device_id),
            self.pending_by_device.contains_key(device_id),
        )
    }
}

/// The thread-safe Rights Issuer service: every ROAP handler takes `&self`,
/// so one instance (typically behind an [`Arc`]) serves any number of
/// concurrent device connections.
///
/// # Example
///
/// ```
/// use oma_drm::service::RiService;
/// use oma_drm::roap::DeviceHello;
/// use oma_pki::CertificationAuthority;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
/// let service = Arc::new(RiService::new("ri.example.com", 384, &mut ca, &mut rng));
///
/// // `hello` needs only `&self`: many threads can open sessions at once.
/// let handles: Vec<_> = (0..4)
///     .map(|i| {
///         let service = Arc::clone(&service);
///         std::thread::spawn(move || service.hello(&DeviceHello::new(&format!("dev-{i}"))))
///     })
///     .collect();
/// let mut sessions: Vec<u64> = handles
///     .into_iter()
///     .map(|h| h.join().unwrap().session_id)
///     .collect();
/// sessions.sort_unstable();
/// sessions.dedup();
/// assert_eq!(sessions.len(), 4, "session ids are never reused");
/// ```
pub struct RiService {
    id: String,
    keys: RsaKeyPair,
    certificate: Certificate,
    ca_root: Certificate,
    /// Runs and counts the service's cryptography. Its own random stream is
    /// unused: every draw comes from `RiState::rng`.
    engine: CryptoEngine,
    state: Mutex<RiState>,
    /// Fingerprints (SHA-1 of TBS bytes ‖ signature bytes) of device
    /// certificates whose issuer signature has already verified. Only the
    /// time-independent signature check is memoized; issuer, role and
    /// validity-window checks still run on every request. Purely a cache,
    /// kept outside [`RiTables`] and so outside every snapshot: a recovered
    /// service re-verifies on first sight.
    verified_certs: Mutex<HashSet<[u8; DIGEST_SIZE]>>,
}

impl std::fmt::Debug for RiService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state();
        f.debug_struct("RiService")
            .field("id", &self.id)
            .field("registered", &state.tables.registered.len())
            .field("pending_sessions", &state.tables.sessions.len())
            .field("issued_ros", &state.tables.issued_ros)
            .field("journaled", &state.journal.is_some())
            .finish_non_exhaustive()
    }
}

impl RiService {
    /// Creates a service, obtaining its certificate and an initial OCSP
    /// response from `ca`. Server-side cryptography runs on the software
    /// backend; use [`RiService::with_backend`] for an accelerated server.
    pub fn new<R: RngCore + ?Sized>(
        id: &str,
        modulus_bits: usize,
        ca: &mut CertificationAuthority,
        rng: &mut R,
    ) -> Self {
        Self::with_backend(id, modulus_bits, ca, Arc::new(SoftwareBackend::new()), rng)
    }

    /// Creates a service whose cryptography executes on `backend`. The
    /// service trace stays outside the terminal cost model, but a backend can
    /// be supplied so server-side capacity studies use the same pluggable
    /// layer as the DRM Agent.
    pub fn with_backend<R: RngCore + ?Sized>(
        id: &str,
        modulus_bits: usize,
        ca: &mut CertificationAuthority,
        backend: Arc<dyn CryptoBackend>,
        rng: &mut R,
    ) -> Self {
        let keys = RsaKeyPair::generate(modulus_bits, rng);
        let certificate = ca.issue(
            id,
            EntityRole::RightsIssuer,
            keys.public().clone(),
            ValidityPeriod::starting_at(Timestamp::new(0), CERT_VALIDITY_SECONDS),
        );
        let ocsp = ca.ocsp_respond(
            &OcspRequest {
                serial: certificate.serial(),
                nonce: Vec::new(),
            },
            Timestamp::new(0),
        );
        let seed = rng.next_u64();
        let image = RiStateImage {
            id: id.to_string(),
            keys,
            certificate,
            ca_root: ca.root_certificate().clone(),
            tables: RiTables::new(ocsp, StdRng::seed_from_u64(seed)),
        };
        Self::restore(image, backend)
    }

    /// Builds the service an image describes, on `backend` — the one
    /// constructor behind [`RiService::with_backend`] (empty tables) and
    /// [`RiService::from_image`]. The tables move in as they are; only the
    /// per-device session index is rebuilt, by the one supersession rule.
    fn restore(image: RiStateImage, backend: Arc<dyn CryptoBackend>) -> Self {
        let RiStateImage {
            id,
            keys,
            certificate,
            ca_root,
            mut tables,
        } = image;
        let sessions = std::mem::take(&mut tables.sessions);
        let mut state = RiState {
            tables,
            pending_by_device: BTreeMap::new(),
            journal: None,
            clocked_dispatches: 0,
        };
        for (session_id, session) in sessions {
            state.open_session(session_id, session);
        }
        let service = RiService {
            id,
            keys,
            certificate,
            ca_root,
            engine: CryptoEngine::with_backend(backend, 0),
            state: Mutex::new(state),
            verified_certs: Mutex::default(),
        };
        service.warm_signing_contexts();
        service
    }

    /// Precomputes the Montgomery contexts for the service's long-lived
    /// signing identity: its own RSA key pair (CRT legs + public modulus),
    /// its certificate key and the CA root key. Every registration wave then
    /// reuses these warm contexts instead of rebuilding R² per operation.
    fn warm_signing_contexts(&self) {
        self.keys.private().precompute();
        self.keys.public().precompute();
        self.certificate.public_key().precompute();
        self.ca_root.public_key().precompute();
    }

    /// The one lock over the service state.
    fn state(&self) -> MutexGuard<'_, RiState> {
        self.state.lock().expect("state lock")
    }

    // ----- durability -----------------------------------------------------------

    /// Attaches a write-ahead journal: from now on every state mutation is
    /// recorded through it *before* the mutating handler returns its
    /// response. Replaces any previously attached journal. The caller is
    /// responsible for persisting a genesis snapshot
    /// ([`RiService::snapshot_to`]) — events alone cannot rebuild the
    /// service identity.
    pub fn set_journal(&self, journal: Arc<dyn RiJournal>) {
        self.state().journal = Some(journal);
    }

    /// The currently attached journal, if any.
    pub fn journal(&self) -> Option<Arc<dyn RiJournal>> {
        self.state().journal.clone()
    }

    /// Persists a snapshot of the service through `journal` — the snapshot
    /// path of a service that may be serving. The image is captured under
    /// the state lock, and the lock is held until the journal has taken the
    /// finished image, so no record can land between the capture and the
    /// snapshot's coverage watermark. (`journal.snapshot(&|| service
    /// .state_image())` would take the state lock inside the store's append
    /// lock, the reverse of a handler's order, and can deadlock against
    /// one.)
    ///
    /// # Errors
    ///
    /// Whatever [`RiJournal::snapshot`] reports.
    pub fn snapshot_to(&self, journal: &dyn RiJournal) -> Result<(), DrmError> {
        let state = self.state();
        journal.snapshot(&|| self.image(state.tables.clone()))
    }

    /// Captures a complete snapshot of the service — identity, tables,
    /// counters and the random stream — as of one instant: the tables are
    /// copied under the state lock.
    pub fn state_image(&self) -> RiStateImage {
        let tables = self.state().tables.clone();
        self.image(tables)
    }

    /// Appends the encoding of the live tables — the snapshot payload
    /// without the identity — to `out`, under the state lock and without
    /// copying them: a digest of the whole mutable state.
    pub fn encode_tables(&self, out: &mut Vec<u8>) {
        self.state().tables.encode(out);
    }

    /// The service's identity together with `tables`.
    fn image(&self, tables: RiTables) -> RiStateImage {
        RiStateImage {
            id: self.id.clone(),
            keys: self.keys.clone(),
            certificate: self.certificate.clone(),
            ca_root: self.ca_root.clone(),
            tables,
        }
    }

    /// Rebuilds a service from a state image, byte-identically: the tables,
    /// counters, identity *and* the random stream resume exactly where the
    /// image captured them, so the next signature the service produces
    /// matches what the original instance would have produced. The rebuilt
    /// service runs on a fresh software backend and has no journal attached
    /// — call [`RiService::set_journal`] to resume journaling.
    pub fn from_image(image: RiStateImage) -> Self {
        Self::restore(image, Arc::new(SoftwareBackend::new()))
    }

    /// Recovers a service from a durable store: the latest snapshot through
    /// [`RiService::from_image`], then every surviving journal record through
    /// [`RiService::replay`]. Subsequent responses — signatures, Rights
    /// Object ids, session ids — are byte-identical to what an uninterrupted
    /// instance would have produced after the last surviving record.
    ///
    /// # Errors
    ///
    /// Propagates [`DrmError::Store`] from the source (no genesis snapshot,
    /// unreadable snapshot). A torn or truncated log tail is *not* an
    /// error; recovery stops at the last valid record.
    pub fn recover<S: StateSource + ?Sized>(source: &S) -> Result<Self, DrmError> {
        source.load_service()
    }

    /// Replays one journal record: applies `event` through the mutation path
    /// the live handler used, then resumes the random stream at the
    /// record's checkpoint `rng_after`. Recovery and replication rebuild
    /// state only through this, in log order, onto [`RiService::from_image`].
    /// Events apply idempotently, so a record whose effect the snapshot
    /// already holds changes nothing.
    pub fn replay(&self, event: &RiEvent, rng_after: [u8; 32]) {
        let mut state = self.state();
        state.apply(event);
        state.tables.rng = StdRng::from_state_bytes(rng_after);
    }

    /// The TTL applied to pending registration sessions by the sweep, in
    /// seconds (0 = sweeping disabled).
    pub fn session_ttl(&self) -> u64 {
        self.state().tables.session_ttl
    }

    /// Sets the pending-session TTL. Sessions whose `DeviceHello` arrived
    /// more than `seconds` ago (by the server-pinned clock) are reclaimed
    /// by [`RiService::sweep_sessions`], which [`RiService::dispatch_at`]
    /// runs automatically every `SESSION_SWEEP_INTERVAL` (256) clocked
    /// dispatches. 0 disables sweeping.
    ///
    /// The change is journaled ([`RiEvent::SessionTtlSet`]) so that sweeps
    /// recorded later replay with the TTL that was actually in force.
    pub fn set_session_ttl(&self, seconds: u64) {
        self.state().commit(RiEvent::SessionTtlSet { seconds });
    }

    /// Removes every pending session older than the configured TTL,
    /// returning how many were reclaimed. A no-op when the TTL is 0. The
    /// sweep is journaled as a single [`RiEvent::SessionsSwept`] naming the
    /// swept session ids, so replay removes exactly what the live sweep
    /// removed.
    pub fn sweep_sessions(&self, now: Timestamp) -> usize {
        let mut state = self.state();
        let ttl = state.tables.session_ttl;
        if ttl == 0 {
            return 0;
        }
        let expired: Vec<u64> = state
            .tables
            .sessions
            .iter()
            .filter(|(_, session)| session_expired(ttl, session.opened_at, now))
            .map(|(session_id, _)| *session_id)
            .collect();
        let swept = expired.len();
        if swept > 0 {
            state.commit(RiEvent::SessionsSwept {
                now,
                session_ids: expired,
            });
        }
        swept
    }

    /// The Rights Issuer identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The Rights Issuer certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// The Rights Issuer public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        self.keys.public()
    }

    /// The crypto backend this service executes on: its ledger holds every
    /// operation the service ran, and it prices a dispatch's own operations
    /// read with [`scoped`](oma_crypto::backend::scoped).
    pub fn backend(&self) -> &dyn CryptoBackend {
        self.engine.backend().as_ref()
    }

    /// The current OCSP response presented during registration.
    pub fn ocsp_response(&self) -> OcspResponse {
        self.state().tables.ocsp.clone()
    }

    /// Re-fetches the cached OCSP response for this service's certificate (a
    /// fresh response is required for registration to succeed once the cached
    /// one has become stale).
    pub fn refresh_ocsp(&self, ca: &CertificationAuthority, now: Timestamp) {
        let fresh = ca.ocsp_respond(
            &OcspRequest {
                serial: self.certificate.serial(),
                nonce: Vec::new(),
            },
            now,
        );
        self.state()
            .commit(RiEvent::OcspRefreshed { response: fresh });
    }

    /// Registers a piece of content: the content encryption key received
    /// from the Content Issuer, the DCF it encrypts (for the hash binding)
    /// and the license template on sale.
    pub fn add_content(
        &self,
        content_id: &str,
        cek: [u8; 16],
        dcf: &Dcf,
        template: RightsTemplate,
    ) {
        let event = RiEvent::ContentAdded {
            content_id: content_id.to_string(),
            cek,
            dcf_hash: dcf.hash(),
            template,
        };
        self.state().commit(event);
    }

    /// Whether the service offers rights for `content_id`.
    pub fn has_content(&self, content_id: &str) -> bool {
        self.state().tables.content.contains_key(content_id)
    }

    /// Whether `device_id` holds a trusted relationship with this service.
    pub fn is_registered(&self, device_id: &str) -> bool {
        self.state().tables.registered.contains_key(device_id)
    }

    /// The typed session-machine state of `device_id`, derived from the
    /// pending-session and registered-device tables. This view is what the
    /// handlers step through [`RiSessionState::step`] for state legality,
    /// and what the `oma-explore` model checker compares against its
    /// reference model after every delivery.
    pub fn session_state(&self, device_id: &str) -> RiSessionState {
        self.state().session_state(device_id)
    }

    /// Number of registered devices.
    pub fn registered_count(&self) -> usize {
        self.state().tables.registered.len()
    }

    /// Total number of Rights Objects issued by this service.
    pub fn issued_ro_count(&self) -> u64 {
        self.state().tables.issued_ros
    }

    /// Number of ROAP registration sessions currently pending (opened by a
    /// `DeviceHello`, not yet consumed by a successful registration).
    pub fn pending_session_count(&self) -> usize {
        self.state().tables.sessions.len()
    }

    // ----- ROAP: registration -------------------------------------------------

    /// Pass 1 → 2 of registration: answers a `DeviceHello` with an `RiHello`.
    ///
    /// At most one pending session exists per device id: a new hello
    /// supersedes (and frees) any earlier incomplete attempt, so
    /// unauthenticated hello traffic cannot grow the session table beyond
    /// the number of distinct device ids seen. (Even that bound still grows
    /// with hostile hello-only traffic — the TTL sweep, see
    /// [`RiService::set_session_ttl`], reclaims sessions that never
    /// complete.)
    ///
    /// Sessions opened through this clockless entry point carry
    /// `opened_at = 0`; a server that owns a clock should route hellos
    /// through [`RiService::dispatch_at`] (or call
    /// [`RiService::hello_at`]) so the TTL sweep measures real age.
    pub fn hello(&self, hello: &DeviceHello) -> RiHello {
        self.hello_at(hello, Timestamp::new(0))
    }

    /// [`RiService::hello`] with the server clock threaded through: the
    /// pending session is stamped `opened_at = now` for the TTL sweep.
    pub fn hello_at(&self, hello: &DeviceHello, now: Timestamp) -> RiHello {
        let mut ri_nonce = vec![0u8; NONCE_LEN];
        let session_id = {
            let mut state = self.state();
            let session_id = state.tables.next_session;
            state.tables.rng.fill_bytes(&mut ri_nonce);
            state.commit(RiEvent::SessionOpened {
                session_id,
                device_id: hello.device_id.clone(),
                ri_nonce: ri_nonce.clone(),
                opened_at: now,
            });
            session_id
        };
        RiHello {
            ri_id: self.id.clone(),
            session_id,
            ri_nonce,
            selected_algorithms: hello.supported_algorithms.clone(),
            trusted_authorities: vec![self.ca_root.subject().to_string()],
        }
    }

    /// Validates a device certificate as `oma_pki::verify`'s
    /// `verify_certificate_role` would for [`EntityRole::DrmAgent`], but with
    /// the issuer-signature check memoized by certificate fingerprint.
    ///
    /// Check order matches the un-memoized path: anchor/issuer policy, then
    /// the RSA-PSS signature (skipped on a fingerprint hit), then the
    /// validity window, then the role. Only the signature verdict is cached —
    /// it is a pure function of the certificate bytes and the CA key —
    /// whereas the validity check depends on `now` and runs every time. Under
    /// fleet load this turns re-registration and replayed-certificate waves
    /// into hash lookups instead of RSA public-key operations; the service
    /// engine trace reflects the ops actually performed, and that trace
    /// stays outside the terminal cost model.
    fn verify_device_certificate(
        &self,
        certificate: &Certificate,
        now: Timestamp,
    ) -> Result<(), RoapError> {
        check_anchor_and_issuer(certificate, &self.ca_root)
            .map_err(|_| RoapError::CertificateInvalid)?;
        let fingerprint = {
            let mut hasher = Sha1::new();
            hasher.update(&certificate.tbs().to_bytes());
            hasher.update(certificate.signature().as_bytes());
            hasher.finalize()
        };
        let memo = || self.verified_certs.lock().expect("memo lock");
        if !memo().contains(&fingerprint) {
            if !self.engine.pss_verify(
                self.ca_root.public_key(),
                &certificate.tbs().to_bytes(),
                certificate.signature(),
            ) {
                return Err(RoapError::CertificateInvalid);
            }
            memo().insert(fingerprint);
        }
        check_validity(certificate, now).map_err(|_| RoapError::CertificateInvalid)?;
        if certificate.role() != EntityRole::DrmAgent {
            return Err(RoapError::CertificateInvalid);
        }
        Ok(())
    }

    /// Pass 3 → 4 of registration: verifies a `RegistrationRequest` and, if
    /// the device checks out, answers with a signed `RegistrationResponse`.
    ///
    /// A session is consumed atomically by the first successful
    /// registration; replaying the same request (same session id and nonce)
    /// is rejected.
    ///
    /// # Errors
    ///
    /// * [`RoapError::UnknownSession`] — the session id was never issued, was
    ///   already consumed, or the request is a replay (the machine rejects
    ///   pass 3 from any state without a challenge outstanding),
    /// * [`RoapError::Malformed`] — the device id differs from the hello,
    /// * [`RoapError::CertificateInvalid`] — the device certificate fails
    ///   validation against the CA root, or its subject is not the claimed
    ///   device id (cross-device certificate swap),
    /// * [`RoapError::SignatureInvalid`] — the request signature is wrong.
    pub fn process_registration(
        &self,
        request: &RegistrationRequest,
        now: Timestamp,
    ) -> Result<RegistrationResponse, RoapError> {
        // Machine step: pass 3 is only legal while a challenge is
        // outstanding ([`RiSessionState::ChallengeIssued`] /
        // [`RiSessionState::Reregistering`]). The pending-session entry is
        // the witness of that state — a miss is the machine's
        // `UnknownSession` rejection.
        match self.state().tables.sessions.get(&request.session_id) {
            None => return Err(RoapError::UnknownSession),
            Some(session) if session.device_id != request.device_id => {
                return Err(RoapError::Malformed)
            }
            Some(_) => {}
        }
        self.verify_device_certificate(&request.certificate, now)?;
        // Pin the certificate to the claimed device identity. The hello is
        // unauthenticated, so without this pin a peer holding *any* valid
        // DRM-agent certificate could complete registration for an
        // arbitrary device id with its own certificate — and then sign ROAP
        // requests for that id ever after.
        if request.certificate.subject() != request.device_id {
            return Err(RoapError::CertificateInvalid);
        }
        let signed = RegistrationRequest::signed_bytes(
            request.session_id,
            &request.device_id,
            &request.device_nonce,
            request.request_time,
            &request.certificate,
        );
        if !self.engine.pss_verify(
            request.certificate.public_key(),
            &signed,
            &request.signature,
        ) {
            return Err(RoapError::SignatureInvalid);
        }

        // Claim the session. Exactly one request wins; a concurrent or
        // replayed duplicate finds it gone. (Session ids are never reused,
        // so a session still pending is the one checked above.)
        let (ocsp, salt) = {
            let mut state = self.state();
            if !state.tables.sessions.contains_key(&request.session_id) {
                return Err(RoapError::UnknownSession);
            }
            let salt = pss::random_salt(&mut state.tables.rng);
            state.commit(RiEvent::DeviceRegistered {
                session_id: request.session_id,
                device_id: request.device_id.clone(),
                certificate: request.certificate.clone(),
            });
            (state.tables.ocsp.clone(), salt)
        };
        let signed = RegistrationResponse::signed_bytes(
            request.session_id,
            &self.id,
            &request.device_nonce,
            &self.certificate,
            &ocsp,
        );
        Ok(RegistrationResponse {
            session_id: request.session_id,
            ri_id: self.id.clone(),
            device_nonce: request.device_nonce.clone(),
            ri_certificate: self.certificate.clone(),
            ocsp_response: ocsp,
            signature: self.sign(&signed, &salt),
        })
    }

    /// Signs `message` with the service key and a pre-drawn salt.
    fn sign(&self, message: &[u8], salt: &[u8; SALT_LEN]) -> pss::PssSignature {
        self.engine
            .pss_sign_salted(self.keys.private(), message, salt)
            .expect("RI key large enough for PSS")
    }

    /// The pinned certificate of a registered device — the witness of the
    /// registered state every signed self-loop request (acquisition, domain
    /// join) steps from; a miss is the machine's `DeviceNotRegistered`
    /// rejection.
    fn registered_certificate(&self, device_id: &str) -> Result<Certificate, RoapError> {
        self.state()
            .tables
            .registered
            .get(device_id)
            .cloned()
            .ok_or(RoapError::DeviceNotRegistered)
    }

    // ----- ROAP: rights object acquisition -------------------------------------

    /// Handles an `RORequest`, returning a signed `ROResponse` with the
    /// protected Rights Object.
    ///
    /// # Errors
    ///
    /// * [`RoapError::DeviceNotRegistered`] — no trusted relationship,
    /// * [`RoapError::SignatureInvalid`] — bad request signature,
    /// * [`RoapError::UnknownRightsObject`] — no rights on sale for the
    ///   content,
    /// * [`RoapError::UnknownDomain`] — the domain does not exist or the
    ///   device is not a member.
    pub fn process_ro_request(
        &self,
        request: &RoRequest,
        now: Timestamp,
    ) -> Result<RoResponse, RoapError> {
        let certificate = self.registered_certificate(&request.device_id)?;
        let signed = RoRequest::signed_bytes(
            &request.device_id,
            &request.ri_id,
            &request.content_id,
            request.domain_id.as_ref(),
            &request.device_nonce,
            request.request_time,
        );
        if !self
            .engine
            .pss_verify(certificate.public_key(), &signed, &request.signature)
        {
            return Err(RoapError::SignatureInvalid);
        }

        let (entry, grant, salt) = {
            let mut state = self.state();
            let entry = state
                .tables
                .content
                .get(&request.content_id)
                .cloned()
                .ok_or(RoapError::UnknownRightsObject)?;
            // Validate the domain *before* allocating the RO id: a rejected
            // request must not advance the device's id sequence or the
            // issued-RO counter.
            let holder = match &request.domain_id {
                None => RoHolder::Device(certificate.public_key()),
                Some(domain_id) => RoHolder::Domain(
                    state
                        .tables
                        .domains
                        .get(domain_id)
                        .filter(|domain| domain.is_member(&request.device_id))
                        .map(DomainKey::of)
                        .ok_or(RoapError::UnknownDomain)?,
                ),
            };
            let scope = format!("dev:{}", request.device_id);
            let (grant, event) = state.grant_ro(&self.id, scope, holder);
            let salt = pss::random_salt(&mut state.tables.rng);
            state.commit(event);
            (entry, grant, salt)
        };
        let rights_object = self.build_ro(grant, &request.content_id, &entry, now);
        let signed = RoResponse::signed_bytes(
            &request.device_id,
            &self.id,
            &request.device_nonce,
            &rights_object,
        );
        Ok(RoResponse {
            device_id: request.device_id.clone(),
            ri_id: self.id.clone(),
            device_nonce: request.device_nonce.clone(),
            rights_object,
            signature: self.sign(&signed, &salt),
        })
    }

    /// Issues a Domain Rights Object directly (out-of-band distribution to
    /// domain members, e.g. via removable media to an unconnected device).
    ///
    /// # Errors
    ///
    /// * [`RoapError::UnknownRightsObject`] — no rights for the content,
    /// * [`RoapError::UnknownDomain`] — the domain does not exist.
    pub fn issue_domain_ro(
        &self,
        content_id: &str,
        domain_id: &DomainId,
        now: Timestamp,
    ) -> Result<ProtectedRightsObject, RoapError> {
        let (entry, grant) = {
            let mut state = self.state();
            let entry = state
                .tables
                .content
                .get(content_id)
                .cloned()
                .ok_or(RoapError::UnknownRightsObject)?;
            let domain = state
                .tables
                .domains
                .get(domain_id)
                .map(DomainKey::of)
                .ok_or(RoapError::UnknownDomain)?;
            let scope = format!("dom:{domain_id}");
            let (grant, event) = state.grant_ro(&self.id, scope, RoHolder::Domain(domain));
            state.commit(event);
            (entry, grant)
        };
        Ok(self.build_ro(grant, content_id, &entry, now))
    }

    /// Builds a granted Rights Object outside the lock: the payload with
    /// the wrapped CEK, its MAC, and the key protection of its seal (a
    /// domain RO also gets its payload signature).
    fn build_ro(
        &self,
        grant: RoGrant<'_>,
        content_id: &str,
        entry: &ContentEntry,
        now: Timestamp,
    ) -> ProtectedRightsObject {
        let RoGrant {
            id,
            kmac,
            krek,
            seal,
        } = grant;
        let encrypted_cek = self
            .engine
            .aes_wrap(&krek, &entry.cek)
            .expect("CEK wrapping with a 16-byte KREK cannot fail");
        let payload = RightsObjectPayload {
            id,
            rights_issuer: self.id.clone(),
            content_id: content_id.to_string(),
            rights: entry.template.rights().clone(),
            dcf_hash: entry.dcf_hash,
            encrypted_cek,
            issued_at: now,
        };
        let mac = self.engine.hmac_sha1(&kmac, &payload.to_bytes());
        let (key_protection, signature) = match seal {
            RoSeal::Device(device_key, secret) => {
                let wrapped = self
                    .engine
                    .kem_wrap_secret(device_key, &kmac, &krek, &secret)
                    .expect("KEM wrap with an honest device key cannot fail");
                (KeyProtection::Device(wrapped), None)
            }
            RoSeal::Domain(domain, salt) => {
                let mut key_material = [0u8; 32];
                key_material[..16].copy_from_slice(&kmac);
                key_material[16..].copy_from_slice(&krek);
                let wrapped = self
                    .engine
                    .aes_wrap(&domain.key, &key_material)
                    .expect("domain key wrap cannot fail");
                // The signature over the payload is mandatory for Domain ROs.
                let signature = self.sign(&payload.to_bytes(), &salt);
                let protection = KeyProtection::Domain {
                    domain_id: domain.domain_id,
                    generation: domain.generation,
                    wrapped,
                };
                (protection, Some(signature))
            }
        };
        ProtectedRightsObject {
            payload,
            key_protection,
            mac,
            signature,
        }
    }

    // ----- domains --------------------------------------------------------------

    /// Creates a domain with a fresh shared key. Creation is first-wins: if
    /// the domain already exists it is left untouched (members, key and
    /// all) and nothing is drawn or recorded — wholesale re-creation would
    /// silently evict members and rotate the key without a domain upgrade.
    pub fn create_domain(&self, domain_id: &str, max_members: usize) -> DomainId {
        let id = DomainId::new(domain_id);
        let mut state = self.state();
        if !state.tables.domains.contains_key(&id) {
            let key = state.random_key();
            state.commit(RiEvent::DomainCreated {
                domain_id: id.clone(),
                key,
                max_members: max_members as u64,
            });
        }
        id
    }

    /// Whether a domain exists.
    pub fn has_domain(&self, domain_id: &DomainId) -> bool {
        self.state().tables.domains.contains_key(domain_id)
    }

    /// Number of members currently registered in `domain_id`.
    pub fn domain_member_count(&self, domain_id: &DomainId) -> Option<usize> {
        self.state()
            .tables
            .domains
            .get(domain_id)
            .map(Domain::member_count)
    }

    /// Handles a `JoinDomainRequest`: adds the device to the domain and
    /// returns the domain key encrypted under the device public key.
    ///
    /// The handler reads the key and checks for room without changing
    /// anything and does its RSA public work; then one critical section
    /// re-checks admission, draws the response salt, admits and records, so
    /// a full domain never over-admits and a leave can never reach the log
    /// ahead of the join it undoes. (A live domain's key and generation
    /// never change, so the key encrypted before the re-check is current.)
    ///
    /// # Errors
    ///
    /// * [`RoapError::DeviceNotRegistered`] — no trusted relationship,
    /// * [`RoapError::SignatureInvalid`] — bad request signature,
    /// * [`RoapError::UnknownDomain`] — the domain does not exist,
    /// * [`RoapError::DomainFull`] — the domain reached its member limit.
    pub fn process_join_domain(
        &self,
        request: &JoinDomainRequest,
        _now: Timestamp,
    ) -> Result<JoinDomainResponse, RoapError> {
        let certificate = self.registered_certificate(&request.device_id)?;
        let signed = JoinDomainRequest::signed_bytes(
            &request.device_id,
            &request.ri_id,
            &request.domain_id,
            &request.device_nonce,
            request.request_time,
        );
        if !self
            .engine
            .pss_verify(certificate.public_key(), &signed, &request.signature)
        {
            return Err(RoapError::SignatureInvalid);
        }
        let (key, generation, max_members) = {
            let state = self.state();
            let domain = admission(
                state.tables.domains.get(&request.domain_id),
                &request.device_id,
            )?;
            (*domain.key(), domain.generation(), domain.max_members())
        };
        let encrypted_domain_key = self
            .engine
            .rsa_encrypt(certificate.public_key(), &key)
            .expect("16-byte key is always below the modulus");
        let salt = {
            let mut state = self.state();
            admission(
                state.tables.domains.get(&request.domain_id),
                &request.device_id,
            )?;
            let salt = pss::random_salt(&mut state.tables.rng);
            state.commit(RiEvent::DomainJoined {
                domain_id: request.domain_id.clone(),
                device_id: request.device_id.clone(),
                key,
                generation,
                max_members: max_members as u64,
            });
            salt
        };
        let signed = JoinDomainResponse::signed_bytes(
            &request.device_id,
            &self.id,
            &request.domain_id,
            generation,
            &encrypted_domain_key,
            &request.device_nonce,
        );
        Ok(JoinDomainResponse {
            device_id: request.device_id.clone(),
            ri_id: self.id.clone(),
            domain_id: request.domain_id.clone(),
            generation,
            encrypted_domain_key,
            device_nonce: request.device_nonce.clone(),
            signature: self.sign(&signed, &salt),
        })
    }

    /// Removes a device from a domain (leave-domain).
    ///
    /// Leave-domain requests are unsigned, so the session machine is the
    /// only trust boundary they have: the request is rejected unless
    /// `device_id` is in a registered state. Without this step any wire
    /// peer could evict arbitrary device ids from their domains.
    ///
    /// # Errors
    ///
    /// * [`DrmError::Roap`] with [`RoapError::DeviceNotRegistered`] — the
    ///   device holds no trusted relationship (wrong-state transition),
    /// * [`DrmError::Roap`] with [`RoapError::UnknownDomain`] — the domain
    ///   does not exist,
    /// * [`DrmError::NotInDomain`] — the device was not a member.
    pub fn process_leave_domain(
        &self,
        device_id: &str,
        domain_id: &DomainId,
    ) -> Result<(), DrmError> {
        let mut state = self.state();
        // Machine step: leave-domain is a registered-state self-loop, and —
        // the request being unsigned — this state check is its entire
        // authentication story.
        state
            .session_state(device_id)
            .step(PduKind::LeaveDomainRequest)
            .map_err(DrmError::Roap)?;
        let domain = state
            .tables
            .domains
            .get(domain_id)
            .ok_or(DrmError::Roap(RoapError::UnknownDomain))?;
        if !domain.is_member(device_id) {
            return Err(DrmError::NotInDomain);
        }
        state.commit(RiEvent::DomainLeft {
            domain_id: domain_id.clone(),
            device_id: device_id.to_string(),
        });
        Ok(())
    }

    // ----- wire dispatch ---------------------------------------------------------

    /// The wire entry point with a peer-supplied clock: decodes one
    /// [`RoapPdu`] frame, routes it to the matching handler, and encodes the
    /// response frame. Every failure — a frame that does not decode, a
    /// request the handlers reject — comes back as an encoded [`RoapStatus`]
    /// PDU, so a wire peer always receives a well-formed answer and never a
    /// Rust error. `RoapClient::in_proc` lands here.
    ///
    /// Request timestamps are taken from the PDUs themselves (`request_time`
    /// fields), so a frame answers exactly as a direct handler call with the
    /// caller's `now` would. **Trust boundary:** on a real wire this lets the peer
    /// pick the clock its certificate is validated against; a deployment
    /// with its own clock should use [`RiService::dispatch_at`], which pins
    /// `now` on the server side. Note also that `LeaveDomainRequest`, like
    /// the in-process `process_leave_domain` it routes to, is unsigned: the
    /// session machine rejects it for unregistered device ids
    /// ([`RoapError::DeviceNotRegistered`]), but an untrusted peer can
    /// still issue leave requests for any *registered* device id.
    ///
    /// Like every other handler, `dispatch` takes `&self`: any number of
    /// threads can push frames into one service instance.
    pub fn dispatch(&self, frame: &[u8]) -> Vec<u8> {
        self.dispatch_with_clock(frame, None)
    }

    /// [`RiService::dispatch`] with a server-chosen timestamp: `now` is used
    /// for certificate-validity and freshness decisions instead of the
    /// request's own `request_time`, so a wire peer cannot back-date itself
    /// into an expired certificate's validity window.
    pub fn dispatch_at(&self, frame: &[u8], now: Timestamp) -> Vec<u8> {
        self.dispatch_with_clock(frame, Some(now))
    }

    fn dispatch_with_clock(&self, frame: &[u8], now: Option<Timestamp>) -> Vec<u8> {
        if let Some(now) = now {
            // Amortised TTL sweep: a clock-owning server reclaims expired
            // pending sessions as a side effect of serving traffic.
            let due = {
                let mut state = self.state();
                state.clocked_dispatches += 1;
                state
                    .clocked_dispatches
                    .is_multiple_of(SESSION_SWEEP_INTERVAL)
            };
            if due {
                self.sweep_sessions(now);
            }
        }
        let response = match RoapPdu::decode(frame) {
            Ok(pdu) => self.dispatch_pdu(pdu, now),
            Err(e) => RoapPdu::Status(RoapStatus::from(e)),
        };
        response.encode()
    }

    /// Routes one decoded request PDU to its handler. `clock` overrides the
    /// request-embedded timestamp when the server owns a clock. Response
    /// PDUs arriving where a request belongs are rejected as malformed.
    fn dispatch_pdu(&self, pdu: RoapPdu, clock: Option<Timestamp>) -> RoapPdu {
        match pdu {
            RoapPdu::DeviceHello(hello) => {
                RoapPdu::RiHello(self.hello_at(&hello, clock.unwrap_or(Timestamp::new(0))))
            }
            RoapPdu::RegistrationRequest(request) => {
                let now = clock.unwrap_or(request.request_time);
                match self.process_registration(&request, now) {
                    Ok(response) => RoapPdu::RegistrationResponse(response),
                    Err(e) => RoapPdu::Status(RoapStatus::from(e)),
                }
            }
            RoapPdu::RoRequest(request) => {
                let now = clock.unwrap_or(request.request_time);
                match self.process_ro_request(&request, now) {
                    Ok(response) => RoapPdu::RoResponse(response),
                    Err(e) => RoapPdu::Status(RoapStatus::from(e)),
                }
            }
            RoapPdu::JoinDomainRequest(request) => {
                let now = clock.unwrap_or(request.request_time);
                match self.process_join_domain(&request, now) {
                    Ok(response) => RoapPdu::JoinDomainResponse(response),
                    Err(e) => RoapPdu::Status(RoapStatus::from(e)),
                }
            }
            RoapPdu::LeaveDomainRequest {
                device_id,
                domain_id,
            } => match self.process_leave_domain(&device_id, &domain_id) {
                Ok(()) => RoapPdu::Status(RoapStatus::Ok),
                Err(e) => RoapPdu::Status(RoapStatus::from(&e)),
            },
            // Response PDUs are never valid requests.
            RoapPdu::RiHello(_)
            | RoapPdu::RegistrationResponse(_)
            | RoapPdu::RoResponse(_)
            | RoapPdu::JoinDomainResponse(_)
            | RoapPdu::Status(_) => RoapPdu::Status(RoapStatus::Roap(RoapError::Malformed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RoapClient;
    use crate::rel::Permission;
    use crate::roap::ROAP_VERSION;
    use crate::ContentIssuer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service() -> (CertificationAuthority, RiService, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x5e41);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = RiService::new("ri", 384, &mut ca, &mut rng);
        (ca, service, rng)
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RiService>();
    }

    #[test]
    fn hello_from_many_threads_yields_unique_sessions() {
        let (_ca, service, _rng) = service();
        let service = Arc::new(service);
        let mut ids: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let service = Arc::clone(&service);
                    scope.spawn(move || {
                        service
                            .hello(&DeviceHello::new(&format!("dev-{i}")))
                            .session_id
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn ro_ids_are_scoped_per_device() {
        let (_ca, service, _rng) = service();
        let grant = |scope: &str| {
            let mut state = service.state();
            let holder = RoHolder::Device(service.public_key());
            let (grant, event) = state.grant_ro(service.id(), scope.to_string(), holder);
            state.commit(event);
            grant.id
        };
        let (a0, b0, a1) = (grant("dev:a"), grant("dev:b"), grant("dev:a"));
        assert_eq!(a0.as_str(), "ro:ri:dev:a:0");
        assert_eq!(b0.as_str(), "ro:ri:dev:b:0");
        assert_eq!(a1.as_str(), "ro:ri:dev:a:1");
        assert_eq!(service.issued_ro_count(), 3);
    }

    #[test]
    fn repeated_device_certificate_hits_the_signature_memo() {
        use oma_crypto::Algorithm;
        let (mut ca, service, mut rng) = service();
        let client = RoapClient::in_proc(&service);
        let mut agent = crate::DrmAgent::new("dev-a", 384, &mut ca, &mut rng);
        agent.register(&client, Timestamp::new(0)).unwrap();
        let first = service
            .engine
            .trace()
            .count(Algorithm::RsaPublic)
            .invocations;
        assert_eq!(first, 2, "cert verify + request signature on first sight");

        // Same device, same certificate: the issuer-signature check is a
        // memo hit, so only the request signature costs an RSA public op.
        agent.register(&client, Timestamp::new(1)).unwrap();
        let trace = service.engine.trace();
        assert_eq!(trace.count(Algorithm::RsaPublic).invocations - first, 1);

        // A never-seen certificate still pays the full verification.
        let mut other = crate::DrmAgent::new("dev-b", 384, &mut ca, &mut rng);
        other.register(&client, Timestamp::new(2)).unwrap();
        let total = service
            .engine
            .trace()
            .count(Algorithm::RsaPublic)
            .invocations;
        assert_eq!(total - first - 1, 2);
    }

    #[test]
    fn memoized_certificate_still_fails_outside_validity_window() {
        let (mut ca, service, mut rng) = service();
        let mut agent = crate::DrmAgent::new("dev-a", 384, &mut ca, &mut rng);
        agent
            .register(&RoapClient::in_proc(&service), Timestamp::new(0))
            .unwrap();
        // The signature memo must not bypass the time-dependent check: the
        // same certificate presented outside its validity window is refused.
        let hello = service.hello(&DeviceHello::new("dev-a"));
        let request = agent
            .registration_request(&hello, Timestamp::new(u64::MAX - 1))
            .expect("agent builds request");
        assert_eq!(
            service.process_registration(&request, Timestamp::new(u64::MAX - 1)),
            Err(RoapError::CertificateInvalid)
        );
    }

    #[test]
    fn repeated_hellos_keep_one_pending_session_per_device() {
        let (_ca, service, _rng) = service();
        for _ in 0..50 {
            service.hello(&DeviceHello::new("chatty-device"));
        }
        service.hello(&DeviceHello::new("other-device"));
        assert_eq!(
            service.pending_session_count(),
            2,
            "a new hello supersedes the device's earlier pending session"
        );
    }

    #[test]
    fn rejected_ro_request_does_not_advance_id_sequence() {
        use crate::roap::RoRequest;
        let (mut ca, service, mut rng) = service();
        let client = RoapClient::in_proc(&service);
        let ci = ContentIssuer::new("ci");
        let (dcf, cek) = ci.package(b"bytes", "cid:x", &mut rng);
        service.add_content(
            "cid:x",
            cek,
            &dcf,
            RightsTemplate::unlimited(Permission::Play),
        );
        let mut agent = crate::DrmAgent::new("dev-a", 384, &mut ca, &mut rng);
        agent.register(&client, Timestamp::new(0)).unwrap();

        // A signed request for a domain the device never joined is rejected
        // and must not burn an RO id.
        let nope = DomainId::new("nope");
        assert_eq!(
            agent.acquire_domain_rights(&client, service.id(), "cid:x", &nope, Timestamp::new(0)),
            Err(DrmError::NotInDomain)
        );
        // Same at the service layer (agent-side membership check bypassed).
        let request = RoRequest {
            device_id: "dev-a".into(),
            ri_id: "ri".into(),
            content_id: "cid:x".into(),
            domain_id: Some(nope),
            device_nonce: vec![0; NONCE_LEN],
            request_time: Timestamp::new(0),
            signature: oma_crypto::pss::PssSignature::from_bytes(vec![0; 48]),
        };
        assert!(service
            .process_ro_request(&request, Timestamp::new(0))
            .is_err());
        assert_eq!(service.issued_ro_count(), 0);

        // The first successful RO still gets sequence number 0.
        let response = agent
            .acquire_rights(&client, service.id(), "cid:x", Timestamp::new(0))
            .unwrap();
        assert_eq!(response.ro_id().as_str(), "ro:ri:dev:dev-a:0");
        assert_eq!(service.issued_ro_count(), 1);
    }

    #[test]
    fn leave_domain_reports_both_failure_reasons() {
        let (mut ca, service, mut rng) = service();
        let id = service.create_domain("family", 2);
        // Unregistered device ids are stopped at the session machine before
        // any domain lookup happens — leave-domain is unsigned, so the
        // machine state is its only trust boundary.
        assert_eq!(
            service.process_leave_domain("ghost", &DomainId::new("nope")),
            Err(DrmError::Roap(RoapError::DeviceNotRegistered))
        );
        // A registered device sees the domain-level failure reasons.
        let mut agent = crate::DrmAgent::new("dev-1", 384, &mut ca, &mut rng);
        agent
            .register(&RoapClient::in_proc(&service), Timestamp::new(10))
            .unwrap();
        assert_eq!(
            service.process_leave_domain("dev-1", &DomainId::new("nope")),
            Err(DrmError::Roap(RoapError::UnknownDomain))
        );
        assert_eq!(
            service.process_leave_domain("dev-1", &id),
            Err(DrmError::NotInDomain)
        );
    }

    #[test]
    fn ttl_sweep_reclaims_sessions_that_never_complete() {
        let (_ca, service, _rng) = service();
        service.set_session_ttl(60);
        // 40 devices say hello and vanish without completing registration.
        for i in 0..40 {
            service.hello_at(
                &DeviceHello::new(&format!("ghost-{i}")),
                Timestamp::new(100),
            );
        }
        // A late arrival is still inside its TTL at sweep time.
        service.hello_at(&DeviceHello::new("alive"), Timestamp::new(150));
        assert_eq!(service.pending_session_count(), 41);

        assert_eq!(
            service.sweep_sessions(Timestamp::new(155)),
            0,
            "none aged out yet"
        );
        let swept = service.sweep_sessions(Timestamp::new(161));
        assert_eq!(swept, 40, "abandoned sessions reclaimed");
        assert_eq!(service.pending_session_count(), 1);

        // The surviving session still completes: its pending_by_device
        // entry was not clobbered by the sweep.
        let hello = service.hello_at(&DeviceHello::new("alive"), Timestamp::new(162));
        assert_eq!(service.pending_session_count(), 1, "supersession intact");
        assert!(hello.session_id > 41);
    }

    #[test]
    fn clocked_dispatch_drives_the_sweep() {
        let (_ca, service, _rng) = service();
        service.set_session_ttl(10);
        // Open sessions at t=0 through the wire path, then keep dispatching
        // past the sweep interval with an advanced clock: the abandoned
        // sessions must disappear without anyone calling sweep_sessions.
        for i in 0..8 {
            let frame = RoapPdu::DeviceHello(DeviceHello::new(&format!("dev-{i}"))).encode();
            service.dispatch_at(&frame, Timestamp::new(0));
        }
        assert_eq!(service.pending_session_count(), 8);
        let mut swept_at = None;
        for tick in 0..2 * SESSION_SWEEP_INTERVAL {
            let frame = RoapPdu::DeviceHello(DeviceHello::new("prober")).encode();
            service.dispatch_at(&frame, Timestamp::new(1_000));
            // The prober's own (fresh) session is always pending.
            if service.pending_session_count() == 1 {
                swept_at = Some(tick);
                break;
            }
        }
        assert!(
            swept_at.is_some(),
            "dispatch_at never triggered the TTL sweep"
        );
    }

    #[test]
    fn unclocked_hello_and_disabled_ttl_never_sweep() {
        let (_ca, service, _rng) = service();
        for i in 0..5 {
            service.hello(&DeviceHello::new(&format!("dev-{i}")));
        }
        // TTL disabled: sweep is a no-op no matter the clock.
        assert_eq!(service.sweep_sessions(Timestamp::new(u64::MAX)), 0);
        assert_eq!(service.pending_session_count(), 5);
    }

    #[test]
    fn state_image_roundtrip_restores_byte_identical_behaviour() {
        use crate::rel::Permission;
        use crate::ContentIssuer;
        let (mut ca, service, mut rng) = service();
        let client = RoapClient::in_proc(&service);
        let ci = ContentIssuer::new("ci");
        let (dcf, cek) = ci.package(b"track bytes", "cid:x", &mut rng);
        service.add_content(
            "cid:x",
            cek,
            &dcf,
            RightsTemplate::unlimited(Permission::Play),
        );
        service.create_domain("family", 4);
        let mut agent = crate::DrmAgent::new("dev-a", 384, &mut ca, &mut rng);
        agent.register(&client, Timestamp::new(0)).unwrap();
        agent
            .acquire_rights(&client, service.id(), "cid:x", Timestamp::new(0))
            .unwrap();
        // Leave a pending session dangling so the image carries one.
        service.hello_at(&DeviceHello::new("dev-b"), Timestamp::new(5));

        let image = service.state_image();
        let restored = RiService::from_image(image.clone());
        assert_eq!(restored.state_image(), image, "image roundtrip is exact");
        assert_eq!(restored.id(), service.id());
        assert!(restored.is_registered("dev-a"));
        assert!(restored.has_content("cid:x"));
        assert_eq!(restored.pending_session_count(), 1);

        // The decisive property: both instances now produce byte-identical
        // protocol output — same RO id, same key material, same signature.
        let request = agent
            .ro_request(service.id(), "cid:x", None, Timestamp::new(0))
            .unwrap();
        let a = service
            .process_ro_request(&request, Timestamp::new(0))
            .unwrap();
        let b = restored
            .process_ro_request(&request, Timestamp::new(0))
            .unwrap();
        assert_eq!(a, b, "continuation diverged after from_image");
        assert_eq!(a.ro_id().as_str(), "ro:ri:dev:dev-a:1");
    }

    #[test]
    fn refresh_ocsp_updates_shared_response() {
        let (ca, service, _rng) = service();
        let before = service.ocsp_response();
        service.refresh_ocsp(&ca, Timestamp::new(9_999));
        let after = service.ocsp_response();
        assert_ne!(before, after);
        assert_eq!(after.tbs().produced_at, Timestamp::new(9_999));
    }

    #[test]
    fn catalogue_and_domain_queries_take_shared_self() {
        let (_ca, service, mut rng) = service();
        let ci = ContentIssuer::new("ci");
        let (dcf, cek) = ci.package(b"bytes", "cid:x", &mut rng);
        service.add_content(
            "cid:x",
            cek,
            &dcf,
            RightsTemplate::unlimited(Permission::Play),
        );
        assert!(service.has_content("cid:x"));
        assert!(!service.has_content("cid:y"));
        let domain = service.create_domain("family", 4);
        assert!(service.has_domain(&domain));
        assert_eq!(service.domain_member_count(&domain), Some(0));
        assert_eq!(service.registered_count(), 0);
        assert!(!service.is_registered("anyone"));
        let ro = service
            .issue_domain_ro("cid:x", &domain, Timestamp::new(0))
            .unwrap();
        assert!(ro.is_domain_ro());
        assert_eq!(ro.id().as_str(), "ro:ri:dom:family:0");
    }

    #[test]
    fn new_ri_has_certificate_and_ocsp() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri.example.com", 384, &mut ca, &mut rng);
        assert_eq!(ri.id(), "ri.example.com");
        assert_eq!(ri.certificate().role(), EntityRole::RightsIssuer);
        assert_eq!(ri.certificate().subject(), "ri.example.com");
        assert_eq!(ri.registered_count(), 0);
        assert_eq!(ROAP_VERSION, "2.0");
        assert_eq!(ri.public_key(), ri.certificate().public_key());
    }

    #[test]
    fn hello_creates_distinct_sessions() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri", 384, &mut ca, &mut rng);
        let h1 = ri.hello(&DeviceHello::new("d1"));
        let h2 = ri.hello(&DeviceHello::new("d2"));
        assert_ne!(h1.session_id, h2.session_id);
        assert_eq!(h1.ri_id, "ri");
        assert!(!h1.ri_nonce.is_empty());
        assert_eq!(h1.trusted_authorities, vec!["cmla".to_string()]);
    }

    #[test]
    fn content_catalogue() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri", 384, &mut ca, &mut rng);
        let ci = ContentIssuer::new("ci");
        let (dcf, cek) = ci.package(b"bytes", "cid:x", &mut rng);
        assert!(!ri.has_content("cid:x"));
        ri.add_content(
            "cid:x",
            cek,
            &dcf,
            RightsTemplate::unlimited(Permission::Play),
        );
        assert!(ri.has_content("cid:x"));
    }

    #[test]
    fn domains_can_be_created_and_queried() {
        let mut rng = StdRng::seed_from_u64(44);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri", 384, &mut ca, &mut rng);
        let id = ri.create_domain("family", 4);
        assert!(ri.has_domain(&id));
        assert_eq!(ri.domain_member_count(&id), Some(0));
        assert!(!ri.has_domain(&DomainId::new("other")));
        // Unregistered device ids are rejected by the session machine
        // before any domain state is consulted.
        assert_eq!(
            ri.process_leave_domain("nobody", &id),
            Err(DrmError::Roap(RoapError::DeviceNotRegistered))
        );
        let mut agent = crate::DrmAgent::new("dev-1", 384, &mut ca, &mut rng);
        agent
            .register(&RoapClient::in_proc(&ri), Timestamp::new(10))
            .unwrap();
        assert_eq!(
            ri.process_leave_domain("dev-1", &id),
            Err(DrmError::NotInDomain)
        );
        assert_eq!(
            ri.process_leave_domain("dev-1", &DomainId::new("other")),
            Err(DrmError::Roap(RoapError::UnknownDomain))
        );
    }

    #[test]
    fn registration_requires_known_session() {
        let mut rng = StdRng::seed_from_u64(45);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri", 384, &mut ca, &mut rng);
        // Forge a request against a session that was never opened.
        let device_keys = RsaKeyPair::generate(384, &mut rng);
        let cert = ca.issue(
            "dev",
            EntityRole::DrmAgent,
            device_keys.public().clone(),
            ValidityPeriod::starting_at(Timestamp::new(0), 1000),
        );
        let request = RegistrationRequest {
            session_id: 999,
            device_id: "dev".into(),
            device_nonce: vec![1; NONCE_LEN],
            request_time: Timestamp::new(5),
            certificate: cert,
            signature: oma_crypto::pss::PssSignature::from_bytes(vec![0; 48]),
        };
        assert_eq!(
            ri.process_registration(&request, Timestamp::new(5)),
            Err(RoapError::UnknownSession)
        );
    }

    #[test]
    fn ro_request_from_unregistered_device_rejected() {
        let mut rng = StdRng::seed_from_u64(46);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri", 384, &mut ca, &mut rng);
        let request = RoRequest {
            device_id: "ghost".into(),
            ri_id: "ri".into(),
            content_id: "cid:x".into(),
            domain_id: None,
            device_nonce: vec![0; NONCE_LEN],
            request_time: Timestamp::new(1),
            signature: oma_crypto::pss::PssSignature::from_bytes(vec![0; 48]),
        };
        assert_eq!(
            ri.process_ro_request(&request, Timestamp::new(1)),
            Err(RoapError::DeviceNotRegistered)
        );
    }

    #[test]
    fn issue_domain_ro_requires_known_content_and_domain() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let ri = RiService::new("ri", 384, &mut ca, &mut rng);
        let domain = ri.create_domain("family", 4);
        assert_eq!(
            ri.issue_domain_ro("cid:missing", &domain, Timestamp::new(0)),
            Err(RoapError::UnknownRightsObject)
        );
        let ci = ContentIssuer::new("ci");
        let (dcf, cek) = ci.package(b"bytes", "cid:x", &mut rng);
        ri.add_content(
            "cid:x",
            cek,
            &dcf,
            RightsTemplate::unlimited(Permission::Play),
        );
        assert_eq!(
            ri.issue_domain_ro("cid:x", &DomainId::new("nope"), Timestamp::new(0)),
            Err(RoapError::UnknownDomain)
        );
        let ro = ri
            .issue_domain_ro("cid:x", &domain, Timestamp::new(0))
            .unwrap();
        assert!(ro.is_domain_ro());
        assert!(ro.signature.is_some(), "domain RO signature is mandatory");
    }

    type Record = (RiEvent, [u8; 32]);

    /// An in-memory journal: the last snapshot and the records after it.
    #[derive(Default)]
    struct MemJournal {
        log: Mutex<(Option<RiStateImage>, Vec<Record>)>,
    }

    impl MemJournal {
        fn records(&self) -> usize {
            self.log.lock().unwrap().1.len()
        }

        /// The service the snapshot and the log recover to.
        fn recover(&self) -> RiService {
            let log = self.log.lock().unwrap();
            let service = RiService::from_image(log.0.clone().expect("genesis snapshot"));
            for (event, rng_after) in &log.1 {
                service.replay(event, *rng_after);
            }
            service
        }
    }

    impl RiJournal for MemJournal {
        fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]) {
            let mut log = self.log.lock().unwrap();
            log.1.push((event.clone(), rng_checkpoint()));
        }

        fn flush(&self) -> Result<(), DrmError> {
            Ok(())
        }

        fn snapshot(&self, capture: &dyn Fn() -> RiStateImage) -> Result<(), DrmError> {
            *self.log.lock().unwrap() = (Some(capture()), Vec::new());
            Ok(())
        }
    }

    fn journaled() -> (CertificationAuthority, RiService, StdRng, Arc<MemJournal>) {
        let (ca, service, rng) = service();
        let journal = Arc::new(MemJournal::default());
        service.set_journal(Arc::clone(&journal) as Arc<dyn RiJournal>);
        service.snapshot_to(&*journal).unwrap();
        (ca, service, rng, journal)
    }

    #[test]
    fn recovery_after_every_handler_equals_the_live_service() {
        // Each handler records with the checkpoint of everything it drew, so
        // the log always recovers the live state *and* the live stream.
        let (mut ca, service, mut rng, journal) = journaled();
        let client = RoapClient::in_proc(&service);
        let now = Timestamp::new(0);
        let check = |step: &str| {
            assert_eq!(
                journal.recover().state_image(),
                service.state_image(),
                "recovery diverged after {step}"
            );
        };
        let (dcf, cek) = ContentIssuer::new("ci").package(b"bytes", "cid:x", &mut rng);
        service.add_content(
            "cid:x",
            cek,
            &dcf,
            RightsTemplate::unlimited(Permission::Play),
        );
        check("add_content");
        let family = service.create_domain("family", 4);
        check("create_domain");
        let mut agent = crate::DrmAgent::new("dev-a", 384, &mut ca, &mut rng);
        agent.register(&client, now).unwrap();
        check("registration");
        agent
            .acquire_rights(&client, service.id(), "cid:x", now)
            .unwrap();
        check("device RO");
        agent
            .join_domain(&client, service.id(), &family, now)
            .unwrap();
        check("join");
        agent
            .acquire_domain_rights(&client, service.id(), "cid:x", &family, now)
            .unwrap();
        check("domain RO");
        service.issue_domain_ro("cid:x", &family, now).unwrap();
        check("issue_domain_ro");
        agent.leave_domain(&client, &family).unwrap();
        check("leave");
        service.set_session_ttl(10);
        service.hello(&DeviceHello::new("dev-b"));
        check("hello");
        assert_eq!(service.sweep_sessions(Timestamp::new(100)), 1);
        check("sweep");
        service.refresh_ocsp(&ca, Timestamp::new(50));
        check("refresh_ocsp");
    }

    #[test]
    fn creating_an_existing_domain_draws_and_records_nothing() {
        let (_ca, service, _rng, journal) = journaled();
        let family = service.create_domain("family", 4);
        let (records, image) = (journal.records(), service.state_image());
        assert_eq!(service.create_domain("family", 2), family);
        assert_eq!(journal.records(), records);
        assert_eq!(
            service.state_image(),
            image,
            "first wins; the stream did not move"
        );
    }

    #[test]
    fn racing_joins_never_over_admit_a_domain() {
        // Every join passes the first room check; the re-check in the
        // critical section admits exactly one.
        let (mut ca, service, mut rng) = service();
        let tiny = service.create_domain("tiny", 1);
        let client = RoapClient::in_proc(&service);
        let requests: Vec<_> = (0..4)
            .map(|i| {
                let mut agent = crate::DrmAgent::new(&format!("dev-{i}"), 384, &mut ca, &mut rng);
                agent.register(&client, Timestamp::new(0)).unwrap();
                agent
                    .join_request(service.id(), &tiny, Timestamp::new(0))
                    .unwrap()
            })
            .collect();
        let start = std::sync::Barrier::new(requests.len());
        let outcomes: Vec<_> = std::thread::scope(|scope| {
            let joins: Vec<_> = requests
                .iter()
                .map(|request| {
                    let (service, start) = (&service, &start);
                    scope.spawn(move || {
                        start.wait();
                        service.process_join_domain(request, Timestamp::new(0))
                    })
                })
                .collect();
            joins.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1);
        assert!(outcomes
            .iter()
            .all(|o| o.is_ok() || *o == Err(RoapError::DomainFull)));
        assert_eq!(service.domain_member_count(&tiny), Some(1));
    }

    #[test]
    fn snapshot_to_hands_the_journal_the_live_image() {
        let (_ca, service, _rng, journal) = journaled();
        service.hello(&DeviceHello::new("dev-a"));
        assert_eq!(journal.records(), 1);
        service.snapshot_to(&*journal).unwrap();
        assert_eq!(journal.records(), 0, "the snapshot covers the hello");
        assert_eq!(journal.recover().state_image(), service.state_image());
    }
}
