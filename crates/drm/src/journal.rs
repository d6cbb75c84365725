//! The durability contract of the Rights Issuer service.
//!
//! A production Rights Issuer must survive a power loss without losing a
//! single registration or ever re-issuing a Rights Object id — OMA DRM's
//! replay protection and license identity both live in server state, so
//! durability is a *correctness* feature of the service, not an ops nicety.
//! This module defines the vocabulary that makes [`RiService`] durable
//! without binding it to any particular storage engine:
//!
//! * [`RiEvent`] — one entry per state mutation the service performs, and
//!   the *only* way its state changes after construction. Every handler
//!   that changes state decides one event, applies it through the
//!   service's one `apply` (in `service.rs`) and records it, in one
//!   critical section that also makes all of its random draws, *before*
//!   the response leaves the service.
//!   Recovery and replication feed the logged events through that same
//!   `apply` via [`RiService::replay`], so there is no second copy of any
//!   transition to drift out of step.
//! * [`RiTables`] — the persistent state itself: tables, counters, the
//!   OCSP response and the random stream. The live service holds one behind
//!   its lock, and events apply to it there.
//! * [`RiStateImage`] — a snapshot: the RSA identity plus a copy of the
//!   tables. [`RiService::state_image`] clones the live tables into one;
//!   [`RiService::from_image`] moves them back in. It has one
//!   [`Encode`]/[`Decode`] pair, the snapshot payload.
//! * [`RiJournal`] — what the service needs from a store: record an event,
//!   flush buffered records, persist a snapshot. Implemented by
//!   `oma_store::RiStore`. A record is synced before the handler returns,
//!   except inside a [`deferred`] scope, whose owner runs one
//!   [`RiJournal::flush`] for everything the scope recorded before it
//!   releases any response (group commit).
//! * [`StateSource`] — what recovery needs from a store: a service built
//!   from the latest snapshot with every surviving record replayed onto it.
//!   [`RiService::recover`] asks for it.
//!
//! # Why events carry the RNG checkpoint
//!
//! The service draws nonces, PSS salts, `K_MAC`/`K_REK` key material and KEM
//! secrets from one deterministic stream. "Recovery rebuilds
//! byte-identical state" therefore has to include that stream: a recovered
//! service must sign the *next* response with exactly the salt an
//! uninterrupted run would have used. [`RiJournal::record`] receives the
//! post-event stream checkpoint; replay applies events in order and restores
//! the checkpoint of the last surviving record. A log truncated by a torn
//! write thus recovers to a consistent cut: the state *and* the random
//! stream as of the last durable event.

use crate::domain::{Domain, DomainId};
use crate::error::DrmError;
use crate::rel::RightsTemplate;
use crate::service::RiService;
use oma_crypto::rsa::{RsaKeyPair, RsaPrivateKey};
use oma_crypto::sha1::DIGEST_SIZE;
use oma_pki::codec::{put_bytes, put_str, Decode, DecodeError, Encode, Reader};
use oma_pki::ocsp::OcspResponse;
use oma_pki::{Certificate, Timestamp};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One durable state mutation of the Rights Issuer service, in the order the
/// service committed it. The event taxonomy covers every mutation a handler
/// can perform; anything not listed here is derived state.
///
/// A handler applies and records its event in one critical section, so the
/// log order is the apply order and replaying a log never needs events to
/// commute.
///
/// Deliberately *not* `#[non_exhaustive]`: the storage codec must encode
/// every variant, and adding one should break its build until the encoding
/// (and a golden vector) exists.
#[derive(Clone, PartialEq, Eq)]
pub enum RiEvent {
    /// A content item (CEK, DCF hash and license template) entered the
    /// catalogue.
    ContentAdded {
        /// Content identifier.
        content_id: String,
        /// Content encryption key received from the Content Issuer.
        cek: [u8; 16],
        /// Hash binding of the DCF the CEK encrypts.
        dcf_hash: [u8; DIGEST_SIZE],
        /// License template on sale for this content.
        template: RightsTemplate,
    },
    /// A `DeviceHello` opened (or superseded) a pending ROAP session.
    SessionOpened {
        /// The session id allocated for this hello.
        session_id: u64,
        /// Device that said hello.
        device_id: String,
        /// The RI nonce the device must echo into its signed request.
        ri_nonce: Vec<u8>,
        /// Server clock when the session was opened (drives the TTL sweep).
        opened_at: Timestamp,
    },
    /// A registration completed: the session was consumed and the device is
    /// now trusted.
    DeviceRegistered {
        /// The session the registration consumed.
        session_id: u64,
        /// The registered device.
        device_id: String,
        /// The device certificate pinned for later signature checks.
        certificate: Certificate,
    },
    /// A Rights Object id was allocated from a scope's sequence.
    RoIssued {
        /// Allocation scope (`dev:<device_id>` or `dom:<domain_id>`).
        scope: String,
        /// The sequence number the id consumed.
        sequence: u64,
    },
    /// A domain was created with a fresh shared key.
    DomainCreated {
        /// The new domain's identifier.
        domain_id: DomainId,
        /// The domain key members receive on join.
        key: [u8; 16],
        /// Member capacity.
        max_members: u64,
    },
    /// A device joined a domain. The event carries the domain's key
    /// material as the join handler saw it, so replaying a join never
    /// depends on finding the domain's `DomainCreated` record: without it,
    /// replay rebuilds the domain with the key the member was acknowledged
    /// with — never a zeroed stub.
    DomainJoined {
        /// The domain joined.
        domain_id: DomainId,
        /// The joining device.
        device_id: String,
        /// The domain key the joining device received.
        key: [u8; 16],
        /// Domain-key generation at join time.
        generation: u32,
        /// Member capacity of the domain.
        max_members: u64,
    },
    /// A device left a domain.
    DomainLeft {
        /// The domain left.
        domain_id: DomainId,
        /// The leaving device.
        device_id: String,
    },
    /// The cached OCSP response presented during registration was replaced.
    OcspRefreshed {
        /// The fresh response.
        response: OcspResponse,
    },
    /// The pending-session TTL configuration changed. Journaled so that a
    /// later [`RiEvent::SessionsSwept`] replays with the TTL that was
    /// actually in force, not whatever the last snapshot happened to carry.
    SessionTtlSet {
        /// The new TTL in seconds (0 disables sweeping).
        seconds: u64,
    },
    /// The TTL sweep ran at `now` and removed the listed pending sessions.
    /// The event names the swept session ids explicitly rather than
    /// re-running the expiry predicate on replay, so replay removes exactly
    /// what the live sweep removed.
    SessionsSwept {
        /// The server clock the sweep used.
        now: Timestamp,
        /// The session ids the sweep removed, ascending.
        session_ids: Vec<u64>,
    },
}

/// Whether a pending session opened at `opened_at` has expired by `now`
/// under `ttl_seconds` — the live sweep's predicate. (Replay does not
/// re-run it: [`RiEvent::SessionsSwept`] names the swept ids explicitly.)
pub(crate) fn session_expired(ttl_seconds: u64, opened_at: Timestamp, now: Timestamp) -> bool {
    ttl_seconds > 0 && now.seconds().saturating_sub(opened_at.seconds()) > ttl_seconds
}

/// Redaction marker used by the `Debug` impls below: tables and events
/// carry raw key material (CEKs, domain keys, the RNG checkpoint), and the
/// repo's discipline — set by `RsaPrivateKey`'s `Debug` — is that secrets
/// never reach debug output.
const REDACTED: &str = "<redacted>";

/// A pending ROAP registration session created by a `DeviceHello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingSession {
    /// Device that opened the session.
    pub device_id: String,
    /// The RI nonce the device must echo into its signed request.
    pub ri_nonce: Vec<u8>,
    /// Server clock when the hello arrived (`Timestamp::new(0)` when the
    /// entry point had no clock); drives the TTL sweep.
    pub opened_at: Timestamp,
}

/// A license the Rights Issuer can sell for one piece of content.
#[derive(Clone, PartialEq, Eq)]
pub struct ContentEntry {
    /// Content encryption key received from the Content Issuer.
    pub cek: [u8; 16],
    /// Hash binding of the DCF the CEK encrypts.
    pub dcf_hash: [u8; DIGEST_SIZE],
    /// License template on sale.
    pub template: RightsTemplate,
}

/// Everything about the Rights Issuer that changes after construction and
/// must survive a restart: the tables, the counters, the OCSP response and
/// the random stream. The live service holds exactly this value behind its
/// lock, and a snapshot is a copy of it, so two services in the same
/// logical state hold equal tables — and encode them identically.
///
/// Every table is keyed and ordered by its `BTreeMap`, which is also the
/// snapshot's order: a snapshot whose keys are not strictly ascending is
/// refused, never reordered, and so is one whose pending sessions no live
/// service could hold.
#[derive(Clone, PartialEq, Eq)]
pub struct RiTables {
    /// The cached OCSP response presented during registration.
    pub ocsp: OcspResponse,
    /// Next ROAP session id to allocate.
    pub next_session: u64,
    /// Total Rights Objects issued.
    pub issued_ros: u64,
    /// Pending-session TTL in seconds (0 = sweeping disabled).
    pub session_ttl: u64,
    /// Pending ROAP sessions by session id.
    pub sessions: BTreeMap<u64, PendingSession>,
    /// Registered devices and the certificate each one pinned.
    pub registered: BTreeMap<String, Certificate>,
    /// Content catalogue by content id.
    pub content: BTreeMap<String, ContentEntry>,
    /// Domains by domain id.
    pub domains: BTreeMap<DomainId, Domain>,
    /// Per-scope Rights-Object-id sequences (`scope` → next sequence).
    pub ro_sequences: BTreeMap<String, u64>,
    /// The one stream every nonce, key, KEM secret and PSS salt is drawn
    /// from; its checkpoint also travels with each journal record.
    pub rng: StdRng,
}

impl RiTables {
    /// The tables of a fresh service: no sessions, devices, content or
    /// domains, and session ids starting at 1.
    pub fn new(ocsp: OcspResponse, rng: StdRng) -> Self {
        RiTables {
            ocsp,
            next_session: 1,
            issued_ros: 0,
            session_ttl: 0,
            sessions: BTreeMap::new(),
            registered: BTreeMap::new(),
            content: BTreeMap::new(),
            domains: BTreeMap::new(),
            ro_sequences: BTreeMap::new(),
            rng,
        }
    }
}

/// A complete snapshot of the Rights Issuer: its identity and its
/// [`RiTables`].
///
/// The image deliberately contains the full identity (RSA key pair,
/// certificates) and, through the tables, the random stream: recovery must
/// reproduce *signatures*, not just table contents.
#[derive(Clone, PartialEq, Eq)]
pub struct RiStateImage {
    /// Rights Issuer identifier.
    pub id: String,
    /// The service's RSA identity (private key included).
    pub keys: RsaKeyPair,
    /// The service certificate.
    pub certificate: Certificate,
    /// The trusted CA root.
    pub ca_root: Certificate,
    /// Everything else, exactly as the live service holds it.
    pub tables: RiTables,
}

impl std::fmt::Debug for RiEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RiEvent::ContentAdded {
                content_id,
                dcf_hash,
                template,
                ..
            } => f
                .debug_struct("ContentAdded")
                .field("content_id", content_id)
                .field("cek", &REDACTED)
                .field("dcf_hash", dcf_hash)
                .field("template", template)
                .finish(),
            RiEvent::SessionOpened {
                session_id,
                device_id,
                ri_nonce,
                opened_at,
            } => f
                .debug_struct("SessionOpened")
                .field("session_id", session_id)
                .field("device_id", device_id)
                .field("ri_nonce", ri_nonce)
                .field("opened_at", opened_at)
                .finish(),
            RiEvent::DeviceRegistered {
                session_id,
                device_id,
                certificate,
            } => f
                .debug_struct("DeviceRegistered")
                .field("session_id", session_id)
                .field("device_id", device_id)
                .field("certificate", certificate)
                .finish(),
            RiEvent::RoIssued { scope, sequence } => f
                .debug_struct("RoIssued")
                .field("scope", scope)
                .field("sequence", sequence)
                .finish(),
            RiEvent::DomainCreated {
                domain_id,
                max_members,
                ..
            } => f
                .debug_struct("DomainCreated")
                .field("domain_id", domain_id)
                .field("key", &REDACTED)
                .field("max_members", max_members)
                .finish(),
            RiEvent::DomainJoined {
                domain_id,
                device_id,
                generation,
                max_members,
                ..
            } => f
                .debug_struct("DomainJoined")
                .field("domain_id", domain_id)
                .field("device_id", device_id)
                .field("key", &REDACTED)
                .field("generation", generation)
                .field("max_members", max_members)
                .finish(),
            RiEvent::DomainLeft {
                domain_id,
                device_id,
            } => f
                .debug_struct("DomainLeft")
                .field("domain_id", domain_id)
                .field("device_id", device_id)
                .finish(),
            RiEvent::OcspRefreshed { response } => f
                .debug_struct("OcspRefreshed")
                .field("response", response)
                .finish(),
            RiEvent::SessionTtlSet { seconds } => f
                .debug_struct("SessionTtlSet")
                .field("seconds", seconds)
                .finish(),
            RiEvent::SessionsSwept { now, session_ids } => f
                .debug_struct("SessionsSwept")
                .field("now", now)
                .field("session_ids", session_ids)
                .finish(),
        }
    }
}

impl std::fmt::Debug for ContentEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentEntry")
            .field("cek", &REDACTED)
            .field("dcf_hash", &self.dcf_hash)
            .field("template", &self.template)
            .finish()
    }
}

impl std::fmt::Debug for RiTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The RNG state is a secret in its own right: it predicts every
        // future nonce and salt.
        f.debug_struct("RiTables")
            .field("ocsp", &self.ocsp)
            .field("next_session", &self.next_session)
            .field("issued_ros", &self.issued_ros)
            .field("session_ttl", &self.session_ttl)
            .field("sessions", &self.sessions)
            .field("registered", &self.registered)
            .field("content", &self.content)
            .field("domains", &self.domains)
            .field("ro_sequences", &self.ro_sequences)
            .field("rng", &REDACTED)
            .finish()
    }
}

impl std::fmt::Debug for RiStateImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `keys` relies on RsaPrivateKey's own redacting Debug.
        f.debug_struct("RiStateImage")
            .field("id", &self.id)
            .field("keys", &self.keys)
            .field("certificate", &self.certificate)
            .field("tables", &self.tables)
            .finish_non_exhaustive()
    }
}

/// Reads a counted map (see [`Reader::list`]) whose keys must be strictly
/// ascending — the order a `BTreeMap` encodes in. Anything else (a key out
/// of order, a duplicate) is refused rather than collapsed, so every
/// accepted snapshot is the one encoding of the tables it decodes to.
fn read_map<K: Ord, V>(
    r: &mut Reader<'_>,
    min_len: usize,
    entry: impl FnMut(&mut Reader<'_>) -> Result<(K, V), DecodeError>,
) -> Result<BTreeMap<K, V>, DecodeError> {
    let entries = r.list(min_len, entry)?;
    if entries.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(DecodeError("keys not strictly ascending"));
    }
    Ok(entries.into_iter().collect())
}

impl Encode for RiTables {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ocsp.encode(out);
        out.extend_from_slice(&self.next_session.to_be_bytes());
        out.extend_from_slice(&self.issued_ros.to_be_bytes());
        out.extend_from_slice(&self.session_ttl.to_be_bytes());
        out.extend_from_slice(&(self.sessions.len() as u32).to_be_bytes());
        for (session_id, session) in &self.sessions {
            out.extend_from_slice(&session_id.to_be_bytes());
            put_str(out, &session.device_id);
            put_bytes(out, &session.ri_nonce);
            session.opened_at.encode(out);
        }
        out.extend_from_slice(&(self.registered.len() as u32).to_be_bytes());
        for (device_id, certificate) in &self.registered {
            put_str(out, device_id);
            certificate.encode(out);
        }
        out.extend_from_slice(&(self.content.len() as u32).to_be_bytes());
        for (content_id, entry) in &self.content {
            put_str(out, content_id);
            out.extend_from_slice(&entry.cek);
            out.extend_from_slice(&entry.dcf_hash);
            entry.template.rights().encode(out);
        }
        out.extend_from_slice(&(self.domains.len() as u32).to_be_bytes());
        for (domain_id, domain) in &self.domains {
            put_str(out, domain_id.as_str());
            out.extend_from_slice(domain.key());
            out.extend_from_slice(&domain.generation().to_be_bytes());
            out.extend_from_slice(&(domain.max_members() as u64).to_be_bytes());
            out.extend_from_slice(&(domain.member_count() as u32).to_be_bytes());
            for member in domain.members() {
                put_str(out, member);
            }
        }
        out.extend_from_slice(&(self.ro_sequences.len() as u32).to_be_bytes());
        for (scope, next) in &self.ro_sequences {
            put_str(out, scope);
            out.extend_from_slice(&next.to_be_bytes());
        }
        out.extend_from_slice(&self.rng.state_bytes());
    }
}

impl Decode for RiTables {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let ocsp = Decode::decode(r)?;
        let next_session = r.u64()?;
        let issued_ros = r.u64()?;
        let session_ttl = r.u64()?;
        let sessions = read_map(r, 8 + 4 + 4 + 8, |r| {
            let session_id = r.u64()?;
            let session = PendingSession {
                device_id: r.str()?,
                ri_nonce: r.bytes()?,
                opened_at: Decode::decode(r)?,
            };
            Ok((session_id, session))
        })?;
        // A live service never holds two pending sessions for one device
        // or a session id it has not issued yet. Restore would evict or
        // bump either, and the service would no longer equal the image.
        let mut devices = BTreeSet::new();
        if sessions
            .iter()
            .any(|(id, session)| *id >= next_session || !devices.insert(&session.device_id))
        {
            return Err(DecodeError("pending sessions not as issued"));
        }
        Ok(RiTables {
            ocsp,
            next_session,
            issued_ros,
            session_ttl,
            sessions,
            registered: read_map(r, 4, |r| Ok((r.str()?, Decode::decode(r)?)))?,
            content: read_map(r, 4 + 16 + DIGEST_SIZE + 4, |r| {
                let content_id = r.str()?;
                let entry = ContentEntry {
                    cek: r.array()?,
                    dcf_hash: r.array()?,
                    template: RightsTemplate::from_rights(Decode::decode(r)?),
                };
                Ok((content_id, entry))
            })?,
            domains: read_map(r, 4 + 16 + 4 + 8 + 4, |r| {
                let id = DomainId::new(&r.str()?);
                let key = r.array()?;
                let generation = r.u32()?;
                let max_members = r.u64()? as usize;
                let members = read_map(r, 4, |r| Ok((r.str()?, ())))?.into_keys();
                let domain = Domain::restore(id.clone(), key, generation, members, max_members);
                Ok((id, domain))
            })?,
            ro_sequences: read_map(r, 4 + 8, |r| Ok((r.str()?, r.u64()?)))?,
            rng: match r.array()? {
                // xoshiro never reaches the all-zero state, and
                // `from_state_bytes` would replace it with another.
                state if state == [0; 32] => {
                    return Err(DecodeError("all-zero random stream state"))
                }
                state => StdRng::from_state_bytes(state),
            },
        })
    }
}

impl Encode for RiStateImage {
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.id);
        let private = self.keys.private();
        let (p, q) = private.primes();
        self.keys.public().encode(out);
        private.d().encode(out);
        p.encode(out);
        q.encode(out);
        self.certificate.encode(out);
        self.ca_root.encode(out);
        self.tables.encode(out);
    }
}

impl Decode for RiStateImage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let id = r.str()?;
        let public = Decode::decode(r)?;
        let private = RsaPrivateKey::from_components(
            public,
            Decode::decode(r)?,
            Decode::decode(r)?,
            Decode::decode(r)?,
        )
        .map_err(|_| DecodeError("inconsistent RSA key components"))?;
        Ok(RiStateImage {
            id,
            keys: RsaKeyPair::from_private(private),
            certificate: Decode::decode(r)?,
            ca_root: Decode::decode(r)?,
            tables: Decode::decode(r)?,
        })
    }
}

/// What the Rights Issuer service needs from a durable store. Implemented by
/// `oma_store::RiStore`; the service only ever sees this trait, so the
/// storage engine can evolve independently.
///
/// Lock order is service state → journal. The service calls `record` inside
/// the critical section that applied the event, and `snapshot` (through
/// [`RiService::snapshot_to`]) while it holds that same lock, so an
/// implementation must never call back into the service.
///
/// `record` is infallible by signature: a handler that has already mutated
/// state and drawn from the random stream has nothing useful to do with a
/// storage error mid-protocol. Implementations latch the first failure
/// instead and surface it from [`RiJournal::flush`] (and their own health
/// accessors), so operators see the fault at the next flush/snapshot
/// boundary rather than as a torn protocol exchange.
pub trait RiJournal: Send + Sync {
    /// Records one committed state mutation. Called with the service's
    /// state lock held, after the event was applied and every random value
    /// its response needs was drawn, so records arrive one at a time in
    /// apply order. `rng_checkpoint` yields the service's random-stream
    /// state, which cannot move during the call.
    ///
    /// A durable implementation syncs the record before returning, unless
    /// the calling thread runs inside a [`deferred`] scope: then the sync
    /// is left to the scope's barrier.
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]);

    /// The durability barrier: forces every record appended so far onto
    /// durable media. A journal with nothing unsynced returns at once.
    ///
    /// # Errors
    ///
    /// [`DrmError::Store`] when the log cannot be made durable (including a
    /// fault latched by an earlier `record`).
    fn flush(&self) -> Result<(), DrmError>;

    /// Persists a full state snapshot, after which the store may compact
    /// the log records the snapshot covers. `capture` produces the image;
    /// the implementation MUST evaluate it inside the critical section that
    /// orders its appends, so the snapshot's coverage watermark cannot
    /// claim records appended after the image was taken.
    ///
    /// A live service is snapshotted through [`RiService::snapshot_to`],
    /// which holds the state lock and hands over a finished image. A
    /// `capture` that takes the state lock itself (`|| service
    /// .state_image()`) takes the locks in the reverse order, so it is
    /// safe only while no handler can run (startup genesis, after
    /// shutdown).
    ///
    /// # Errors
    ///
    /// [`DrmError::Store`] when the snapshot cannot be written durably.
    fn snapshot(&self, capture: &dyn Fn() -> RiStateImage) -> Result<(), DrmError>;

    /// Whether the journal is still persisting what it acknowledges.
    /// Returns the latched fault, if any — a server should stop
    /// acknowledging work once this errors, because nothing recorded since
    /// the fault is durable.
    ///
    /// # Errors
    ///
    /// [`DrmError::Store`] describing the latched fault.
    fn health(&self) -> Result<(), DrmError> {
        Ok(())
    }
}

impl<J: RiJournal + ?Sized> RiJournal for Arc<J> {
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]) {
        (**self).record(event, rng_checkpoint);
    }

    fn flush(&self) -> Result<(), DrmError> {
        (**self).flush()
    }

    fn snapshot(&self, capture: &dyn Fn() -> RiStateImage) -> Result<(), DrmError> {
        (**self).snapshot(capture)
    }

    fn health(&self) -> Result<(), DrmError> {
        (**self).health()
    }
}

thread_local! {
    /// Whether the calling thread runs inside a [`deferred`] scope.
    static DEFERRED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with durability deferred to a barrier the caller owes: a
/// journal that honours the scope ([`sync_deferred`]) appends the records
/// made on this thread while `f` runs without syncing each one, and the
/// caller must run one [`RiJournal::flush`] before it releases any response
/// `f` produced. This is group commit: the event loop dispatches a whole
/// readiness batch inside one scope, then syncs once, then writes the
/// batch's responses. Every caller outside a scope keeps one sync per
/// record. Scopes nest; the outermost one decides when the barrier runs.
pub fn deferred<R>(f: impl FnOnce() -> R) -> R {
    /// Restores the enclosing state — also when `f` unwinds.
    struct Restore(bool);

    impl Drop for Restore {
        fn drop(&mut self) {
            DEFERRED.with(|deferred| deferred.set(self.0));
        }
    }

    let _restore = Restore(DEFERRED.with(|deferred| deferred.replace(true)));
    f()
}

/// Whether records made on the calling thread may skip their own sync
/// because a [`deferred`] scope owes the barrier.
pub fn sync_deferred() -> bool {
    DEFERRED.with(Cell::get)
}

/// What recovery needs from a durable store: a service rebuilt from the
/// latest snapshot ([`RiService::from_image`]) with every surviving journal
/// record replayed onto it in commit order ([`RiService::replay`], which
/// also resumes the random stream at the last record's checkpoint).
pub trait StateSource {
    /// Rebuilds the recovered service.
    ///
    /// # Errors
    ///
    /// [`DrmError::Store`] when no genesis snapshot exists or the snapshot
    /// itself is unreadable. A corrupt or torn log *tail* is not an error:
    /// recovery stops cleanly at the last valid record.
    fn load_service(&self) -> Result<RiService, DrmError>;
}

impl<S: StateSource + ?Sized> StateSource for Arc<S> {
    fn load_service(&self) -> Result<RiService, DrmError> {
        (**self).load_service()
    }
}

#[cfg(test)]
mod tests {
    //! The replay rules of every event, exercised through the service's one
    //! `apply` (via `replay`) and observed through `state_image()`.

    use super::*;
    use crate::rel::{Permission, RightsTemplate};
    use oma_pki::{CertificationAuthority, EntityRole, ValidityPeriod};
    use rand::SeedableRng;

    /// A service with an empty state (fresh identity, no tables).
    fn service() -> RiService {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let keys = RsaKeyPair::generate(384, &mut rng);
        let certificate = ca.issue(
            "ri",
            EntityRole::RightsIssuer,
            keys.public().clone(),
            ValidityPeriod::starting_at(Timestamp::new(0), 1000),
        );
        let ocsp = ca.ocsp_respond(
            &oma_pki::ocsp::OcspRequest {
                serial: certificate.serial(),
                nonce: Vec::new(),
            },
            Timestamp::new(0),
        );
        RiService::from_image(RiStateImage {
            id: "ri".into(),
            keys,
            certificate,
            ca_root: ca.root_certificate().clone(),
            tables: RiTables::new(ocsp, StdRng::seed_from_u64(1)),
        })
    }

    /// Applies `event` through the replay path; the random stream is not
    /// under test here.
    fn apply(service: &RiService, event: &RiEvent) {
        service.replay(event, [0u8; 32]);
    }

    fn members(service: &RiService, domain: &DomainId) -> Vec<String> {
        let tables = service.state_image().tables;
        tables.domains[domain]
            .members()
            .map(str::to_string)
            .collect()
    }

    fn open(service: &RiService, session_id: u64, device: &str, at: u64) {
        apply(
            service,
            &RiEvent::SessionOpened {
                session_id,
                device_id: device.into(),
                ri_nonce: vec![1; 14],
                opened_at: Timestamp::new(at),
            },
        );
    }

    #[test]
    fn session_supersession_keeps_the_newer_session() {
        let service = service();
        open(&service, 1, "dev-a", 0);
        open(&service, 2, "dev-a", 5);
        let tables = service.state_image().tables;
        assert_eq!(tables.sessions.keys().collect::<Vec<_>>(), [&2]);
        assert_eq!(tables.next_session, 3);
        // A stale (smaller-id) open replayed out of order does not clobber.
        open(&service, 1, "dev-a", 0);
        let tables = service.state_image().tables;
        assert_eq!(tables.sessions.keys().collect::<Vec<_>>(), [&2]);
        assert_eq!(service.pending_session_count(), 1);
    }

    #[test]
    fn registration_consumes_the_session() {
        let service = service();
        open(&service, 1, "dev-a", 0);
        apply(
            &service,
            &RiEvent::DeviceRegistered {
                session_id: 1,
                device_id: "dev-a".into(),
                certificate: service.certificate().clone(),
            },
        );
        let tables = service.state_image().tables;
        assert!(tables.sessions.is_empty());
        assert_eq!(tables.registered.keys().collect::<Vec<_>>(), ["dev-a"]);
        assert!(service.is_registered("dev-a"));
    }

    #[test]
    fn ro_sequences_are_order_independent_per_scope() {
        let service = service();
        for (scope, sequence) in [("dev:a", 1), ("dev:a", 0), ("dev:b", 0)] {
            apply(
                &service,
                &RiEvent::RoIssued {
                    scope: scope.into(),
                    sequence,
                },
            );
        }
        let tables = service.state_image().tables;
        let sequences: Vec<_> = tables.ro_sequences.into_iter().collect();
        assert_eq!(
            sequences,
            [("dev:a".to_string(), 2), ("dev:b".to_string(), 1)]
        );
        assert_eq!(tables.issued_ros, 3);
        assert_eq!(service.issued_ro_count(), 3);
    }

    #[test]
    fn domain_membership_replay() {
        let service = service();
        let family = DomainId::new("family");
        apply(
            &service,
            &RiEvent::DomainCreated {
                domain_id: family.clone(),
                key: [9; 16],
                max_members: 4,
            },
        );
        for device in ["b", "a", "a"] {
            apply(
                &service,
                &RiEvent::DomainJoined {
                    domain_id: family.clone(),
                    device_id: device.into(),
                    key: [9; 16],
                    generation: 0,
                    max_members: 4,
                },
            );
        }
        assert_eq!(members(&service, &family), ["a", "b"]);
        apply(
            &service,
            &RiEvent::DomainLeft {
                domain_id: family.clone(),
                device_id: "a".into(),
            },
        );
        assert_eq!(members(&service, &family), ["b"]);
        assert_eq!(service.domain_member_count(&family), Some(1));
    }

    #[test]
    fn sweep_replay_removes_exactly_the_named_sessions() {
        let service = service();
        apply(&service, &RiEvent::SessionTtlSet { seconds: 10 });
        open(&service, 1, "dev-old", 0);
        open(&service, 2, "dev-new", 95);
        // Only the ids named by the sweep are removed — a session the live
        // sweep did not see (whatever its age) is left alone.
        apply(
            &service,
            &RiEvent::SessionsSwept {
                now: Timestamp::new(100),
                session_ids: vec![1],
            },
        );
        let tables = service.state_image().tables;
        assert_eq!(tables.session_ttl, 10);
        assert_eq!(tables.sessions.keys().collect::<Vec<_>>(), [&2]);
        assert_eq!(tables.sessions[&2].device_id, "dev-new");
        assert!(session_expired(10, Timestamp::new(0), Timestamp::new(100)));
        assert!(!session_expired(0, Timestamp::new(0), Timestamp::new(100)));
    }

    #[test]
    fn join_before_create_replays_with_the_acknowledged_key() {
        // A DomainJoined record can precede its DomainCreated record in the
        // log; if the creation record is torn off, the domain must still
        // recover with the key the member actually holds.
        let service = service();
        let family = DomainId::new("family");
        apply(
            &service,
            &RiEvent::DomainJoined {
                domain_id: family.clone(),
                device_id: "phone-001".into(),
                key: [7; 16],
                generation: 3,
                max_members: 4,
            },
        );
        let domain = service.state_image().tables.domains[&family].clone();
        assert_eq!(domain.key(), &[7; 16]);
        assert_eq!(domain.generation(), 3);
        assert_eq!(members(&service, &family), ["phone-001"]);
        // When the creation record *did* survive, it merges without
        // clobbering the membership.
        apply(
            &service,
            &RiEvent::DomainCreated {
                domain_id: family.clone(),
                key: [7; 16],
                max_members: 4,
            },
        );
        assert_eq!(members(&service, &family), ["phone-001"]);
    }

    #[test]
    fn content_added_replaces_by_id() {
        let service = service();
        for count in [1u32, 2] {
            apply(
                &service,
                &RiEvent::ContentAdded {
                    content_id: "cid:x".into(),
                    cek: [0; 16],
                    dcf_hash: [0; DIGEST_SIZE],
                    template: RightsTemplate::counted(Permission::Play, count),
                },
            );
        }
        let content = service.state_image().tables.content;
        assert_eq!(content.len(), 1);
        assert_eq!(
            content["cid:x"].template,
            RightsTemplate::counted(Permission::Play, 2)
        );
    }

    #[test]
    fn image_debug_shows_no_key_material() {
        let service = service();
        let (cek, domain_key) = ([0xC1; 16], [0xD2; 16]);
        apply(
            &service,
            &RiEvent::ContentAdded {
                content_id: "cid:x".into(),
                cek,
                dcf_hash: [0; DIGEST_SIZE],
                template: RightsTemplate::unlimited(Permission::Play),
            },
        );
        let family = DomainId::new("family");
        apply(
            &service,
            &RiEvent::DomainJoined {
                domain_id: family.clone(),
                device_id: "phone-001".into(),
                key: domain_key,
                generation: 0,
                max_members: 4,
            },
        );
        let image = service.state_image();
        let shown = format!("{image:?}");
        assert!(
            shown.contains("cid:x") && shown.contains("phone-001"),
            "{shown}"
        );
        assert!(!shown.contains(&format!("{cek:?}")), "CEK leaked");
        assert!(
            !shown.contains(&format!("{domain_key:?}")),
            "domain key leaked"
        );
        assert!(!shown.contains("StdRng"), "random stream leaked");
        for word in image.tables.rng.state_bytes().chunks_exact(8) {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            assert!(!shown.contains(&word.to_string()), "random stream leaked");
        }
    }
}
