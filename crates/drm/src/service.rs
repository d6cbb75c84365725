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
//! Concurrency design:
//!
//! * pending ROAP sessions, registered devices, the content catalogue,
//!   domains and RO-id sequences live in [`ShardedMap`]s — one `RwLock` per
//!   shard, so requests for different keys do not contend (the same
//!   sharded-state pattern as the lock-free trace counters in
//!   [`oma_crypto::CryptoEngine`]),
//! * session ids come from an atomic counter,
//! * handlers clone entries out of their shard before doing any
//!   cryptography, so no lock is ever held across an RSA operation,
//! * registration *claims* its session atomically (`remove`), which doubles
//!   as replay protection: a replayed `RegistrationRequest` finds its
//!   session gone and is rejected with [`RoapError::UnknownSession`].
//!
//! One mutation path: after construction the tables change only by
//! applying an [`RiEvent`]. A handler validates, decides its event, applies
//! it through `RiService::apply` and records it; recovery and replication
//! feed each logged event through the same `apply` ([`RiService::replay`]).
//! An atomic decision (claiming a session, allocating an RO sequence,
//! admitting a domain member) runs in the shard's critical section and calls
//! the per-entry rule `apply` uses, so every transition is written once.
//!
//! Rights-Object ids are allocated per scope (per registered device, or per
//! domain for out-of-band issuing) from a sharded sequence map. Ids are
//! therefore *deterministic per device* regardless of how requests from
//! different devices interleave — the property the `oma-load` fleet harness
//! asserts when it compares a multi-threaded run against a sequential
//! reference run.

use crate::dcf::Dcf;
use crate::domain::{Domain, DomainId};
use crate::error::DrmError;
use crate::journal::{
    session_expired, ContentImage, DomainImage, RegisteredImage, RiEvent, RiJournal, RiStateImage,
    SessionImage, StateSource,
};
use crate::rel::RightsTemplate;
use crate::ro::{KeyProtection, ProtectedRightsObject, RightsObjectId, RightsObjectPayload};
use crate::roap::{
    DeviceHello, JoinDomainRequest, JoinDomainResponse, RegistrationRequest, RegistrationResponse,
    RiHello, RoRequest, RoResponse, RoapError, NONCE_LEN,
};
use crate::session::{PduKind, RiSessionState};
use crate::shard::ShardedMap;
use crate::wire::{RoapPdu, RoapStatus};
use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use oma_crypto::sha1::{Sha1, DIGEST_SIZE};
use oma_crypto::CryptoEngine;
use oma_pki::ocsp::{OcspRequest, OcspResponse};
use oma_pki::{
    verify::{check_anchor_and_issuer, check_validity},
    Certificate, CertificationAuthority, EntityRole, Timestamp, ValidityPeriod,
};
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::CERT_VALIDITY_SECONDS;

/// A license the Rights Issuer can sell for one piece of content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ContentEntry {
    pub(crate) cek: [u8; 16],
    pub(crate) dcf_hash: [u8; DIGEST_SIZE],
    pub(crate) template: RightsTemplate,
}

/// A pending ROAP registration session created by a `DeviceHello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PendingSession {
    pub(crate) device_id: String,
    pub(crate) ri_nonce: Vec<u8>,
    /// Server clock when the hello arrived ([`Timestamp::new(0)`] when the
    /// entry point had no clock); drives the TTL sweep.
    pub(crate) opened_at: Timestamp,
}

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
    ocsp: RwLock<OcspResponse>,
    engine: CryptoEngine,
    next_session: AtomicU64,
    issued_ros: AtomicU64,
    sessions: ShardedMap<u64, PendingSession>,
    pending_by_device: ShardedMap<String, u64>,
    /// Registered devices and the certificate each one pinned.
    registered: ShardedMap<String, Certificate>,
    content: ShardedMap<String, ContentEntry>,
    domains: ShardedMap<DomainId, Domain>,
    ro_sequences: ShardedMap<String, u64>,
    /// Attached write-ahead journal; `None` runs the service in-memory only.
    journal: RwLock<Option<Arc<dyn RiJournal>>>,
    /// Pending-session TTL in seconds; 0 disables the sweep.
    session_ttl: AtomicU64,
    /// Clocked dispatches since start, for amortising the TTL sweep.
    dispatch_count: AtomicU64,
    /// Held across apply-and-record of the events that do not commute (see
    /// [`RiEvent`]), so they reach the log in table order. Never held across
    /// cryptography; lock order is `ordered` → shard → journal, and a
    /// snapshot never takes it.
    ordered: Mutex<()>,
    /// Fingerprints (SHA-1 of TBS bytes ‖ signature bytes) of device
    /// certificates whose issuer signature has already verified. Only the
    /// time-independent signature check is memoized; issuer, role and
    /// validity-window checks still run on every request. Purely a cache —
    /// deliberately absent from [`RiStateImage`], a recovered service
    /// re-verifies on first sight.
    verified_certs: ShardedMap<[u8; DIGEST_SIZE], ()>,
}

impl std::fmt::Debug for RiService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RiService")
            .field("id", &self.id)
            .field("registered", &self.registered.len())
            .field("pending_sessions", &self.sessions.len())
            .field("issued_ros", &self.issued_ro_count())
            .field("journaled", &self.journal().is_some())
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
        let service = RiService {
            id: id.to_string(),
            keys,
            certificate,
            ca_root: ca.root_certificate().clone(),
            ocsp: RwLock::new(ocsp),
            engine: CryptoEngine::with_backend(backend, rng.next_u64()),
            next_session: AtomicU64::new(1),
            issued_ros: AtomicU64::new(0),
            sessions: ShardedMap::new(),
            pending_by_device: ShardedMap::new(),
            registered: ShardedMap::new(),
            content: ShardedMap::new(),
            domains: ShardedMap::new(),
            ro_sequences: ShardedMap::new(),
            journal: RwLock::new(None),
            session_ttl: AtomicU64::new(0),
            dispatch_count: AtomicU64::new(0),
            ordered: Mutex::new(()),
            verified_certs: ShardedMap::new(),
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

    // ----- durability -----------------------------------------------------------

    /// Attaches a write-ahead journal: from now on every state mutation is
    /// recorded through it *before* the mutating handler returns its
    /// response. Replaces any previously attached journal. The caller is
    /// responsible for persisting a genesis snapshot
    /// ([`RiJournal::snapshot`] of [`RiService::state_image`]) — events
    /// alone cannot rebuild the service identity.
    pub fn set_journal(&self, journal: Arc<dyn RiJournal>) {
        *self.journal.write().expect("journal lock") = Some(journal);
    }

    /// The currently attached journal, if any.
    pub fn journal(&self) -> Option<Arc<dyn RiJournal>> {
        self.journal.read().expect("journal lock").clone()
    }

    /// Records `event` (with the engine's post-event RNG checkpoint) on the
    /// attached journal, if any. The journal lock is released before the
    /// store runs, so slow media never serialises unrelated handlers. The
    /// checkpoint is handed over as a closure so the store can read it
    /// inside its own append ordering — see [`RiJournal::record`].
    fn record(&self, event: RiEvent) {
        if let Some(journal) = self.journal() {
            journal.record(&event, &|| self.engine.rng_state());
        }
    }

    /// Captures a complete, canonical snapshot of the service's mutable
    /// state — identity, tables, counters and the RNG checkpoint. Intended
    /// for quiescent moments (startup genesis, graceful shutdown, explicit
    /// checkpoints); entries mutated concurrently with the capture land in
    /// the image per-shard atomically, like any other reader.
    pub fn state_image(&self) -> RiStateImage {
        let mut sessions = Vec::new();
        self.sessions.for_each(|id, s| {
            sessions.push(SessionImage {
                session_id: *id,
                device_id: s.device_id.clone(),
                ri_nonce: s.ri_nonce.clone(),
                opened_at: s.opened_at,
            });
        });
        sessions.sort_unstable_by_key(|s| s.session_id);
        let mut registered = Vec::new();
        self.registered.for_each(|id, certificate| {
            registered.push(RegisteredImage {
                device_id: id.clone(),
                certificate: certificate.clone(),
            });
        });
        registered.sort_unstable_by(|a, b| a.device_id.cmp(&b.device_id));
        let mut content = Vec::new();
        self.content.for_each(|id, c| {
            content.push(ContentImage {
                content_id: id.clone(),
                cek: c.cek,
                dcf_hash: c.dcf_hash,
                template: c.template.clone(),
            });
        });
        content.sort_unstable_by(|a, b| a.content_id.cmp(&b.content_id));
        let mut domains = Vec::new();
        self.domains.for_each(|id, d| {
            let mut members: Vec<String> = d.members().map(str::to_string).collect();
            members.sort_unstable();
            domains.push(DomainImage {
                domain_id: id.clone(),
                key: *d.key(),
                generation: d.generation(),
                max_members: d.max_members() as u64,
                members,
            });
        });
        domains.sort_unstable_by(|a, b| a.domain_id.cmp(&b.domain_id));
        let mut ro_sequences = Vec::new();
        self.ro_sequences
            .for_each(|scope, next| ro_sequences.push((scope.clone(), *next)));
        ro_sequences.sort_unstable();
        RiStateImage {
            id: self.id.clone(),
            keys: self.keys.clone(),
            certificate: self.certificate.clone(),
            ca_root: self.ca_root.clone(),
            ocsp: self.ocsp_response(),
            next_session: self.next_session.load(Ordering::SeqCst),
            issued_ros: self.issued_ros.load(Ordering::SeqCst),
            session_ttl: self.session_ttl.load(Ordering::SeqCst),
            sessions,
            registered,
            content,
            domains,
            ro_sequences,
            rng_state: self.engine.rng_state(),
        }
    }

    /// Rebuilds a service from a state image, byte-identically: the tables,
    /// counters, identity *and* the random stream resume exactly where the
    /// image captured them, so the next signature the service produces
    /// matches what the original instance would have produced. The rebuilt
    /// service runs on a fresh software backend and has no journal attached
    /// — call [`RiService::set_journal`] to resume journaling.
    pub fn from_image(image: RiStateImage) -> Self {
        let engine = CryptoEngine::with_backend(Arc::new(SoftwareBackend::new()), 0);
        engine.restore_rng_state(image.rng_state);
        let service = RiService {
            id: image.id,
            keys: image.keys,
            certificate: image.certificate,
            ca_root: image.ca_root,
            ocsp: RwLock::new(image.ocsp),
            engine,
            next_session: AtomicU64::new(image.next_session),
            issued_ros: AtomicU64::new(image.issued_ros),
            sessions: ShardedMap::new(),
            pending_by_device: ShardedMap::new(),
            registered: ShardedMap::new(),
            content: ShardedMap::new(),
            domains: ShardedMap::new(),
            ro_sequences: ShardedMap::new(),
            journal: RwLock::new(None),
            session_ttl: AtomicU64::new(image.session_ttl),
            dispatch_count: AtomicU64::new(0),
            ordered: Mutex::new(()),
            verified_certs: ShardedMap::new(),
        };
        service.warm_signing_contexts();
        // The per-device index is rebuilt by the one supersession rule.
        for session in image.sessions {
            service.open_session(
                session.session_id,
                PendingSession {
                    device_id: session.device_id,
                    ri_nonce: session.ri_nonce,
                    opened_at: session.opened_at,
                },
            );
        }
        for device in image.registered {
            service
                .registered
                .insert(device.device_id, device.certificate);
        }
        for content in image.content {
            service.content.insert(
                content.content_id,
                ContentEntry {
                    cek: content.cek,
                    dcf_hash: content.dcf_hash,
                    template: content.template,
                },
            );
        }
        for domain in image.domains {
            service.domains.insert(
                domain.domain_id.clone(),
                Domain::restore(
                    domain.domain_id,
                    domain.key,
                    domain.generation,
                    domain.members,
                    domain.max_members as usize,
                ),
            );
        }
        for (scope, next) in image.ro_sequences {
            service.ro_sequences.insert(scope, next);
        }
        service
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
    /// already holds (applied, not yet recorded at capture) changes nothing.
    pub fn replay(&self, event: &RiEvent, rng_after: [u8; 32]) {
        self.apply(event);
        self.engine.restore_rng_state(rng_after);
    }

    // ----- the one mutation path ------------------------------------------------

    /// Applies one event to the live tables — after construction, the only
    /// code that changes them. Handlers' atomic decisions call its per-entry
    /// rules (`release_session`, `advance_sequence`, `Domain::{new, admit,
    /// remove_member}`) inside the shard lock. Every arm is idempotent; see
    /// [`RiEvent`] for which arms commute.
    pub(crate) fn apply(&self, event: &RiEvent) {
        match event {
            RiEvent::ContentAdded {
                content_id,
                cek,
                dcf_hash,
                template,
            } => {
                self.content.insert(
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
                self.registered
                    .insert(device_id.clone(), certificate.clone());
            }
            RiEvent::RoIssued { scope, sequence } => {
                // Replay meets an existing scope on all but its first RO:
                // advance it in place, allocating a key only for a new one.
                let advance = |next: &mut u64| advance_sequence(next, *sequence);
                let advanced = self
                    .ro_sequences
                    .update(scope, |next| next.map(advance))
                    .unwrap_or_else(|| {
                        self.ro_sequences
                            .update_or_insert_with(scope.clone(), || 0, advance)
                    });
                self.issued_ros.fetch_add(advanced, Ordering::Relaxed);
            }
            RiEvent::DomainCreated {
                domain_id: id,
                key,
                max_members,
            } => {
                // Merge, don't clobber: the domain may already exist — a
                // snapshot captured between the live insert and this record,
                // or a join that reached the log first. Its members survive.
                let max = *max_members as usize;
                self.domains.update_or_insert_with(
                    id.clone(),
                    || Domain::new(id.clone(), *key, max),
                    |domain| domain.merge_creation(*key, max),
                );
            }
            RiEvent::DomainJoined {
                domain_id: id,
                device_id,
                key,
                generation,
                max_members,
            } => {
                // A join that reached the log ahead of its domain's creation
                // rebuilds the domain from the key material the member was
                // acknowledged with, so even a torn-off `DomainCreated`
                // record never recovers a domain whose key no member holds.
                let max = *max_members as usize;
                self.domains.update_or_insert_with(
                    id.clone(),
                    || Domain::restore(id.clone(), *key, *generation, [], max),
                    |domain| domain.admit(device_id),
                );
            }
            RiEvent::DomainLeft {
                domain_id,
                device_id,
            } => {
                self.domains.update(domain_id, |domain| {
                    if let Some(domain) = domain {
                        domain.remove_member(device_id);
                    }
                });
            }
            RiEvent::OcspRefreshed { response } => {
                *self.ocsp.write().expect("ocsp lock") = response.clone();
            }
            RiEvent::SessionTtlSet { seconds } => {
                self.session_ttl.store(*seconds, Ordering::Relaxed);
            }
            RiEvent::SessionsSwept { session_ids, .. } => {
                for session_id in session_ids {
                    self.release_session(*session_id);
                }
            }
        }
    }

    /// Inserts pending session `session_id` — the per-entry rule of
    /// [`RiEvent::SessionOpened`], shared with [`RiService::from_image`].
    /// Supersession is decided by session id, not by arrival order: of two
    /// sessions for one device the *older* one is always evicted, even when
    /// it is applied last.
    fn open_session(&self, session_id: u64, session: PendingSession) {
        self.next_session
            .fetch_max(session_id + 1, Ordering::Relaxed);
        let device_id = session.device_id.clone();
        self.sessions.insert(session_id, session);
        let evicted = self.pending_by_device.update_or_insert_with(
            device_id,
            || session_id,
            |current| {
                if *current >= session_id {
                    // A newer session holds the slot; this one is stale
                    // (None when it just took the slot).
                    Some(session_id).filter(|stale| stale != current)
                } else {
                    Some(std::mem::replace(current, session_id))
                }
            },
        );
        if let Some(stale) = evicted {
            self.sessions.remove(&stale);
        }
    }

    /// Removes pending session `session_id` together with its per-device
    /// index entry (when that still names it), returning the session — the
    /// per-entry rule of registration and of the TTL sweep. Registration's
    /// claim *is* this call: exactly one caller gets `Some`.
    fn release_session(&self, session_id: u64) -> Option<PendingSession> {
        let session = self.sessions.remove(&session_id)?;
        self.pending_by_device
            .remove_if(&session.device_id, |pending| *pending == session_id);
        Some(session)
    }

    /// Applies and records `event` while holding the `ordered` lock — for
    /// the events whose replay depends on their mutual order.
    fn apply_ordered(&self, event: RiEvent) {
        let _ordered = self.ordered.lock().expect("ordered lock");
        self.apply(&event);
        self.record(event);
    }

    /// The TTL applied to pending registration sessions by the sweep, in
    /// seconds (0 = sweeping disabled).
    pub fn session_ttl(&self) -> u64 {
        self.session_ttl.load(Ordering::Relaxed)
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
        self.apply_ordered(RiEvent::SessionTtlSet { seconds });
    }

    /// Removes every pending session older than the configured TTL,
    /// returning how many were reclaimed. A no-op when the TTL is 0. The
    /// sweep is journaled as a single [`RiEvent::SessionsSwept`] naming the
    /// swept session ids, so replay removes exactly what the live sweep
    /// removed — no more, no less, regardless of how racing hellos
    /// interleaved with the sweep in the log.
    pub fn sweep_sessions(&self, now: Timestamp) -> usize {
        let ttl = self.session_ttl();
        if ttl == 0 {
            return 0;
        }
        let mut expired = Vec::new();
        self.sessions.for_each(|session_id, session| {
            if session_expired(ttl, session.opened_at, now) {
                expired.push(*session_id);
            }
        });
        // Each release is an atomic claim: a session a racing registration
        // consumed first is not this sweep's to name.
        expired.retain(|session_id| self.release_session(*session_id).is_some());
        let swept = expired.len();
        if swept > 0 {
            expired.sort_unstable();
            self.record(RiEvent::SessionsSwept {
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

    /// The current OCSP response presented during registration.
    pub fn ocsp_response(&self) -> OcspResponse {
        self.ocsp.read().expect("ocsp lock").clone()
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
        self.apply_ordered(RiEvent::OcspRefreshed { response: fresh });
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
        self.apply_ordered(RiEvent::ContentAdded {
            content_id: content_id.to_string(),
            cek,
            dcf_hash: dcf.hash(),
            template,
        });
    }

    /// Whether the service offers rights for `content_id`.
    pub fn has_content(&self, content_id: &str) -> bool {
        self.content.contains(&content_id.to_string())
    }

    /// Whether `device_id` holds a trusted relationship with this service.
    pub fn is_registered(&self, device_id: &str) -> bool {
        self.registered.contains(&device_id.to_string())
    }

    /// The typed session-machine state of `device_id`, derived from the
    /// pending-session and registered-device tables. The sharded maps are
    /// the authoritative (concurrent) representation; this view is what the
    /// handlers step through [`RiSessionState::step`] for state legality,
    /// and what the `oma-explore` model checker compares against its
    /// reference model after every delivery.
    pub fn session_state(&self, device_id: &str) -> RiSessionState {
        let key = device_id.to_string();
        RiSessionState::derive(
            self.registered.contains(&key),
            self.pending_by_device.contains(&key),
        )
    }

    /// Number of registered devices.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// Total number of Rights Objects issued by this service.
    pub fn issued_ro_count(&self) -> u64 {
        self.issued_ros.load(Ordering::Relaxed)
    }

    /// Number of ROAP registration sessions currently pending (opened by a
    /// `DeviceHello`, not yet consumed by a successful registration).
    pub fn pending_session_count(&self) -> usize {
        self.sessions.len()
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
        let session_id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let ri_nonce = self.engine.random_nonce(NONCE_LEN);
        let event = RiEvent::SessionOpened {
            session_id,
            device_id: hello.device_id.clone(),
            ri_nonce: ri_nonce.clone(),
            opened_at: now,
        };
        self.apply(&event);
        self.record(event);
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
        if !self.verified_certs.contains(&fingerprint) {
            if !self.engine.pss_verify(
                self.ca_root.public_key(),
                &certificate.tbs().to_bytes(),
                certificate.signature(),
            ) {
                return Err(RoapError::CertificateInvalid);
            }
            self.verified_certs.insert(fingerprint, ());
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
        let session = self
            .sessions
            .get_cloned(&request.session_id)
            .ok_or(RoapError::UnknownSession)?;
        if session.device_id != request.device_id {
            return Err(RoapError::Malformed);
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
        // replayed duplicate sees the session gone.
        if self.release_session(request.session_id).is_none() {
            return Err(RoapError::UnknownSession);
        }
        let event = RiEvent::DeviceRegistered {
            session_id: request.session_id,
            device_id: request.device_id.clone(),
            certificate: request.certificate.clone(),
        };
        self.apply(&event);

        let ocsp = self.ocsp_response();
        let signed = RegistrationResponse::signed_bytes(
            request.session_id,
            &self.id,
            &request.device_nonce,
            &self.certificate,
            &ocsp,
        );
        let signature = self
            .engine
            .pss_sign(self.keys.private(), &signed)
            .expect("RI key large enough for PSS");
        // Journal after the response is fully built (all random draws done)
        // and before it leaves the service: the registration is durable by
        // the time the device can observe it.
        self.record(event);
        Ok(RegistrationResponse {
            session_id: request.session_id,
            ri_id: self.id.clone(),
            device_nonce: request.device_nonce.clone(),
            ri_certificate: self.certificate.clone(),
            ocsp_response: ocsp,
            signature,
        })
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
    /// * [`RoapError::UnknownDomain`] / [`RoapError::DomainFull`] — domain
    ///   request problems.
    pub fn process_ro_request(
        &self,
        request: &RoRequest,
        now: Timestamp,
    ) -> Result<RoResponse, RoapError> {
        // Machine step: acquisition is a registered-state self-loop. The
        // registered-device entry is both the state witness and the pinned
        // certificate the signature check needs — a miss is the machine's
        // `DeviceNotRegistered` rejection.
        let certificate = self
            .registered
            .get_cloned(&request.device_id)
            .ok_or(RoapError::DeviceNotRegistered)?;
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
        let entry = self
            .content
            .get_cloned(&request.content_id)
            .ok_or(RoapError::UnknownRightsObject)?;

        // Validate the domain *before* allocating the RO id: a rejected
        // request must not advance the device's id sequence or the
        // issued-RO counter.
        let domain = match &request.domain_id {
            None => None,
            Some(domain_id) => {
                let domain = self
                    .domains
                    .get_cloned(domain_id)
                    .ok_or(RoapError::UnknownDomain)?;
                if !domain.is_member(&request.device_id) {
                    return Err(RoapError::UnknownDomain);
                }
                Some(domain)
            }
        };

        let scope = format!("dev:{}", request.device_id);
        let (ro_id, sequence) = self.next_ro_id(&scope);
        let rights_object = match &domain {
            None => self.build_device_ro(
                ro_id,
                &request.content_id,
                &entry,
                certificate.public_key(),
                now,
            ),
            Some(domain) => self.build_domain_ro(ro_id, &request.content_id, &entry, domain, now),
        };

        let signed = RoResponse::signed_bytes(
            &request.device_id,
            &self.id,
            &request.device_nonce,
            &rights_object,
        );
        let signature = self
            .engine
            .pss_sign(self.keys.private(), &signed)
            .expect("RI key large enough for PSS");
        self.record(RiEvent::RoIssued { scope, sequence });
        Ok(RoResponse {
            device_id: request.device_id.clone(),
            ri_id: self.id.clone(),
            device_nonce: request.device_nonce.clone(),
            rights_object,
            signature,
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
        let entry = self
            .content
            .get_cloned(&content_id.to_string())
            .ok_or(RoapError::UnknownRightsObject)?;
        let domain = self
            .domains
            .get_cloned(domain_id)
            .ok_or(RoapError::UnknownDomain)?;
        let scope = format!("dom:{domain_id}");
        let (ro_id, sequence) = self.next_ro_id(&scope);
        let ro = self.build_domain_ro(ro_id, content_id, &entry, &domain, now);
        self.record(RiEvent::RoIssued { scope, sequence });
        Ok(ro)
    }

    /// Allocates the next Rights Object id for `scope` (a registered device
    /// or a domain), returning the id and the sequence number it consumed.
    /// Each scope owns its own sequence in a sharded map, so the id a
    /// device receives depends only on how many ROs *that device* already
    /// obtained — never on how requests from different devices interleave.
    ///
    /// The allocation is the decision of an [`RiEvent::RoIssued`]: it takes
    /// the scope's next sequence and advances past it with the rule `apply`
    /// uses, under one shard lock, so no two requests get the same id.
    fn next_ro_id(&self, scope: &str) -> (RightsObjectId, u64) {
        let (seq, advanced) = self.ro_sequences.update_or_insert_with(
            scope.to_string(),
            || 0,
            |next| {
                let seq = *next;
                (seq, advance_sequence(next, seq))
            },
        );
        self.issued_ros.fetch_add(advanced, Ordering::Relaxed);
        (
            RightsObjectId::new(&format!("ro:{}:{}:{}", self.id, scope, seq)),
            seq,
        )
    }

    fn build_payload(
        &self,
        id: RightsObjectId,
        content_id: &str,
        entry: &ContentEntry,
        krek: &[u8; 16],
        now: Timestamp,
    ) -> RightsObjectPayload {
        let encrypted_cek = self
            .engine
            .aes_wrap(krek, &entry.cek)
            .expect("CEK wrapping with a 16-byte KREK cannot fail");
        RightsObjectPayload {
            id,
            rights_issuer: self.id.clone(),
            content_id: content_id.to_string(),
            rights: entry.template.rights().clone(),
            dcf_hash: entry.dcf_hash,
            encrypted_cek,
            issued_at: now,
        }
    }

    fn build_device_ro(
        &self,
        id: RightsObjectId,
        content_id: &str,
        entry: &ContentEntry,
        device_key: &RsaPublicKey,
        now: Timestamp,
    ) -> ProtectedRightsObject {
        let kmac = self.engine.random_key();
        let krek = self.engine.random_key();
        let payload = self.build_payload(id, content_id, entry, &krek, now);
        let mac = self.engine.hmac_sha1(&kmac, &payload.to_bytes());
        let wrapped = self
            .engine
            .kem_wrap(device_key, &kmac, &krek)
            .expect("KEM wrap with an honest device key cannot fail");
        ProtectedRightsObject {
            payload,
            key_protection: KeyProtection::Device(wrapped),
            mac,
            signature: None,
        }
    }

    fn build_domain_ro(
        &self,
        id: RightsObjectId,
        content_id: &str,
        entry: &ContentEntry,
        domain: &Domain,
        now: Timestamp,
    ) -> ProtectedRightsObject {
        let kmac = self.engine.random_key();
        let krek = self.engine.random_key();
        let payload = self.build_payload(id, content_id, entry, &krek, now);
        let mac = self.engine.hmac_sha1(&kmac, &payload.to_bytes());
        let mut key_material = [0u8; 32];
        key_material[..16].copy_from_slice(&kmac);
        key_material[16..].copy_from_slice(&krek);
        let wrapped = self
            .engine
            .aes_wrap(domain.key(), &key_material)
            .expect("domain key wrap cannot fail");
        // The signature over the payload is mandatory for Domain ROs.
        let signature = self
            .engine
            .pss_sign(self.keys.private(), &payload.to_bytes())
            .expect("RI key large enough for PSS");
        ProtectedRightsObject {
            payload,
            key_protection: KeyProtection::Domain {
                domain_id: domain.id().clone(),
                generation: domain.generation(),
                wrapped,
            },
            mac,
            signature: Some(signature),
        }
    }

    // ----- domains --------------------------------------------------------------

    /// Creates a domain with a fresh shared key. Creation is first-wins: if
    /// the domain already exists it is left untouched (members, key and
    /// all) — wholesale re-creation would silently evict members and rotate
    /// the key without a domain upgrade, and would make journal replay
    /// ambiguous about whether an existing member set survives.
    pub fn create_domain(&self, domain_id: &str, max_members: usize) -> DomainId {
        let id = DomainId::new(domain_id);
        let key = self.engine.random_key();
        // The decision (absent → create) and `apply`'s creation rule run
        // under one shard lock; an existing domain records nothing.
        let mut created = false;
        self.domains.update_or_insert_with(
            id.clone(),
            || {
                created = true;
                Domain::new(id.clone(), key, max_members)
            },
            |_| {},
        );
        if created {
            self.record(RiEvent::DomainCreated {
                domain_id: id.clone(),
                key,
                max_members: max_members as u64,
            });
        }
        id
    }

    /// Whether a domain exists.
    pub fn has_domain(&self, domain_id: &DomainId) -> bool {
        self.domains.contains(domain_id)
    }

    /// Number of members currently registered in `domain_id`.
    pub fn domain_member_count(&self, domain_id: &DomainId) -> Option<usize> {
        self.domains
            .with(domain_id, |d| d.map(Domain::member_count))
    }

    /// Handles a `JoinDomainRequest`: adds the device to the domain and
    /// returns the domain key encrypted under the device public key.
    ///
    /// The handler reads the key and checks for room without changing
    /// anything, does its RSA work, and only then — under the `ordered`
    /// lock a leave also takes — re-checks, admits and records. The
    /// re-check and the admission share one shard write lock, so a full
    /// domain never over-admits under concurrency, and a leave can never
    /// reach the log ahead of the join it undoes.
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
        // Machine step: domain join is a registered-state self-loop (see
        // `process_ro_request` — same witness, same rejection).
        let certificate = self
            .registered
            .get_cloned(&request.device_id)
            .ok_or(RoapError::DeviceNotRegistered)?;
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
        let (key, generation, max_members) = self.domains.with(&request.domain_id, |domain| {
            let domain = admission(domain, &request.device_id)?;
            Ok::<_, RoapError>((*domain.key(), domain.generation(), domain.max_members()))
        })?;
        let encrypted_domain_key = self
            .engine
            .rsa_encrypt(certificate.public_key(), &key)
            .expect("16-byte key is always below the modulus");
        let signed = JoinDomainResponse::signed_bytes(
            &request.device_id,
            &self.id,
            &request.domain_id,
            generation,
            &encrypted_domain_key,
            &request.device_nonce,
        );
        let signature = self
            .engine
            .pss_sign(self.keys.private(), &signed)
            .expect("RI key large enough for PSS");
        {
            let _ordered = self.ordered.lock().expect("ordered lock");
            self.domains.update(&request.domain_id, |domain| {
                let domain = domain.ok_or(RoapError::UnknownDomain)?;
                admission(Some(&*domain), &request.device_id)?;
                domain.admit(&request.device_id);
                Ok::<_, RoapError>(())
            })?;
            self.record(RiEvent::DomainJoined {
                domain_id: request.domain_id.clone(),
                device_id: request.device_id.clone(),
                key,
                generation,
                max_members: max_members as u64,
            });
        }
        Ok(JoinDomainResponse {
            device_id: request.device_id.clone(),
            ri_id: self.id.clone(),
            domain_id: request.domain_id.clone(),
            generation,
            encrypted_domain_key,
            device_nonce: request.device_nonce.clone(),
            signature,
        })
    }

    /// Removes a device from a domain (leave-domain).
    ///
    /// Leave-domain requests are unsigned, so the session machine is the
    /// only trust boundary they have: the request is rejected unless
    /// `device_id` is in a registered state. Without this step any wire
    /// peer could evict arbitrary device ids from their domains (the old
    /// behaviour, previously only documented on [`RiService::dispatch`]).
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
        // Machine step: leave-domain is a registered-state self-loop, and —
        // the request being unsigned — this state check is its entire
        // authentication story.
        self.session_state(device_id)
            .step(PduKind::LeaveDomainRequest)
            .map_err(DrmError::Roap)?;
        // The decision and `apply`'s leave rule (`remove_member`) share one
        // shard lock; the `ordered` lock keeps the record in table order
        // relative to a join still finishing its RSA work.
        let _ordered = self.ordered.lock().expect("ordered lock");
        self.domains.update(domain_id, |domain| {
            let domain = domain.ok_or(DrmError::Roap(RoapError::UnknownDomain))?;
            if domain.remove_member(device_id) {
                Ok(())
            } else {
                Err(DrmError::NotInDomain)
            }
        })?;
        self.record(RiEvent::DomainLeft {
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

    /// Total crypto cycles this service's backend has charged so far —
    /// the server-side [`CycleMeter`](oma_crypto::backend::CycleMeter)
    /// reading. Observability layers difference it around a dispatch to
    /// attribute cycles to a request span; under concurrent dispatch the
    /// delta is best effort (it may include a neighbour's work).
    pub fn charged_cycles(&self) -> u64 {
        self.engine.charged_cycles()
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
            let tick = self.dispatch_count.fetch_add(1, Ordering::Relaxed);
            if (tick + 1).is_multiple_of(SESSION_SWEEP_INTERVAL) {
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
        let (a0, s0) = service.next_ro_id("dev:a");
        let (b0, _) = service.next_ro_id("dev:b");
        let (a1, s1) = service.next_ro_id("dev:a");
        assert_eq!(a0.as_str(), "ro:ri:dev:a:0");
        assert_eq!(b0.as_str(), "ro:ri:dev:b:0");
        assert_eq!(a1.as_str(), "ro:ri:dev:a:1");
        assert_eq!((s0, s1), (0, 1));
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
}
