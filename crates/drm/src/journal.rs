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
//!   the *only* way its tables change after construction. Every handler
//!   that changes state decides one event, applies it through the
//!   service's one `apply` (in `service.rs`), and records it *after* all of
//!   its random draws and *before* the response leaves the service.
//!   Recovery and replication feed the logged events through that same
//!   `apply` via [`RiService::replay`], so there is no second copy of any
//!   transition to drift out of step.
//! * [`RiStateImage`] — the snapshot's form: a complete, canonical copy of
//!   the mutable service state, including the RSA identity and the
//!   engine's random stream checkpoint. [`RiService::state_image`] and
//!   [`RiService::from_image`] convert to and from it; events never apply
//!   to an image.
//! * [`RiJournal`] — what the service needs from a store: record an event,
//!   flush buffered records, persist a snapshot. Implemented by
//!   `oma_store::RiStore`.
//! * [`StateSource`] — what recovery needs from a store: a service built
//!   from the latest snapshot with every surviving record replayed onto it.
//!   [`RiService::recover`] asks for it.
//!
//! # Why events carry the RNG checkpoint
//!
//! The service draws nonces, PSS salts, `K_MAC`/`K_REK` key material and KEM
//! secrets from one deterministic engine stream. "Recovery rebuilds
//! byte-identical state" therefore has to include that stream: a recovered
//! service must sign the *next* response with exactly the salt an
//! uninterrupted run would have used. [`RiJournal::record`] receives the
//! post-event stream checkpoint; replay applies events in order and restores
//! the checkpoint of the last surviving record. A log truncated by a torn
//! write thus recovers to a consistent cut: the state *and* the random
//! stream as of the last durable event.

use crate::domain::DomainId;
use crate::error::DrmError;
use crate::rel::RightsTemplate;
use crate::service::RiService;
use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::sha1::DIGEST_SIZE;
use oma_pki::ocsp::OcspResponse;
use oma_pki::{Certificate, Timestamp};
use std::sync::Arc;

/// One durable state mutation of the Rights Issuer service, in the order the
/// service committed it. The event taxonomy covers every mutation a handler
/// can perform; anything not listed here is derived state.
///
/// # Log order
///
/// A handler applies its event before it records it (its draws and RSA work
/// sit in between), so two events on one key can reach the log in the
/// opposite order from the tables. Most pairs commute, so that is harmless:
/// two `SessionOpened` of one device (the larger id survives), two
/// `RoIssued` of one scope (the maximum wins), `DomainCreated` and
/// `DomainJoined` (the join carries the key; creation merges without
/// touching members), and repeated joins or leaves (membership is a set).
///
/// The pairs on one key that do not commute, and what orders them:
///
/// * `DomainJoined` × `DomainLeft` — the service's `ordered` lock: a join
///   does its RSA work first, then re-checks, admits and records under the
///   lock a leave also takes.
/// * two `ContentAdded`, `OcspRefreshed` or `SessionTtlSet` — the last
///   writer wins; the same lock makes the last applied the last recorded.
/// * two `DeviceRegistered` of one device — the last writer wins. Ordered by
///   supersession: each consumes its own pending session and a device holds
///   one, so they overlap only while a newer hello evicts the older session.
/// * `SessionOpened` × a later removal of that session (`DeviceRegistered`,
///   `SessionsSwept`, or a newer session's `DeviceRegistered`) — replaying
///   the open last resurrects it. Ordered by timing only: the removal needs
///   the hello's response (sent after the record), a TTL's worth of age, or
///   two more round trips. A hello stalled between apply and record for
///   longer — or a clockless hello (`opened_at` 0) swept by a clocked sweep,
///   or a peer registering on a guessed session id — logs the pair out of
///   order.
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
    /// material as the join handler saw it: a join can reach the log ahead
    /// of its domain's `DomainCreated` record (the live insert precedes
    /// that record), and if a crash then tears the creation record off,
    /// replay must still rebuild the domain with the key the member was
    /// acknowledged with — never a zeroed stub.
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
    /// re-running the expiry predicate on replay: a `SessionOpened` that
    /// reached the log *after* the sweep record (its handler raced the
    /// sweep) must not be expired retroactively by the replayed sweep.
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

/// Redaction marker used by the `Debug` impls below: images and events
/// carry raw key material (CEKs, domain keys, the RNG checkpoint), and the
/// repo's discipline — set by `RsaPrivateKey`'s `Debug` — is that secrets
/// never reach debug output.
const REDACTED: &str = "<redacted>";

/// A pending ROAP session as it appears in a state image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionImage {
    /// Session id.
    pub session_id: u64,
    /// Device that opened the session.
    pub device_id: String,
    /// The RI nonce issued for it.
    pub ri_nonce: Vec<u8>,
    /// Server clock at open time.
    pub opened_at: Timestamp,
}

/// A registered device as it appears in a state image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisteredImage {
    /// Device identifier.
    pub device_id: String,
    /// The certificate pinned at registration.
    pub certificate: Certificate,
}

/// A catalogue entry as it appears in a state image.
#[derive(Clone, PartialEq, Eq)]
pub struct ContentImage {
    /// Content identifier.
    pub content_id: String,
    /// Content encryption key.
    pub cek: [u8; 16],
    /// DCF hash binding.
    pub dcf_hash: [u8; DIGEST_SIZE],
    /// License template on sale.
    pub template: RightsTemplate,
}

/// A domain as it appears in a state image.
#[derive(Clone, PartialEq, Eq)]
pub struct DomainImage {
    /// Domain identifier.
    pub domain_id: DomainId,
    /// Current shared domain key.
    pub key: [u8; 16],
    /// Key generation.
    pub generation: u32,
    /// Member capacity.
    pub max_members: u64,
    /// Member device ids, sorted.
    pub members: Vec<String>,
}

/// A complete snapshot of the mutable Rights Issuer state, canonicalised
/// (every list sorted by its key) so that two images of the same logical
/// state compare — and encode — identically.
///
/// The image deliberately contains the full identity (RSA key pair,
/// certificates, OCSP) and the engine RNG checkpoint: recovery must
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
    /// The cached OCSP response presented during registration.
    pub ocsp: OcspResponse,
    /// Next ROAP session id to allocate.
    pub next_session: u64,
    /// Total Rights Objects issued.
    pub issued_ros: u64,
    /// Pending-session TTL in seconds (0 = sweeping disabled).
    pub session_ttl: u64,
    /// Pending ROAP sessions, sorted by session id.
    pub sessions: Vec<SessionImage>,
    /// Registered devices, sorted by device id.
    pub registered: Vec<RegisteredImage>,
    /// Content catalogue, sorted by content id.
    pub content: Vec<ContentImage>,
    /// Domains, sorted by domain id.
    pub domains: Vec<DomainImage>,
    /// Per-scope Rights-Object-id sequences (`scope` → next sequence),
    /// sorted by scope.
    pub ro_sequences: Vec<(String, u64)>,
    /// Checkpoint of the engine's deterministic random stream.
    pub rng_state: [u8; 32],
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

impl std::fmt::Debug for ContentImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentImage")
            .field("content_id", &self.content_id)
            .field("cek", &REDACTED)
            .field("dcf_hash", &self.dcf_hash)
            .field("template", &self.template)
            .finish()
    }
}

impl std::fmt::Debug for DomainImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainImage")
            .field("domain_id", &self.domain_id)
            .field("key", &REDACTED)
            .field("generation", &self.generation)
            .field("max_members", &self.max_members)
            .field("members", &self.members)
            .finish()
    }
}

impl std::fmt::Debug for RiStateImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `keys` relies on RsaPrivateKey's own redacting Debug; the RNG
        // checkpoint is a secret in its own right (it predicts every
        // future nonce and salt).
        f.debug_struct("RiStateImage")
            .field("id", &self.id)
            .field("keys", &self.keys)
            .field("certificate", &self.certificate)
            .field("next_session", &self.next_session)
            .field("issued_ros", &self.issued_ros)
            .field("session_ttl", &self.session_ttl)
            .field("sessions", &self.sessions)
            .field("registered", &self.registered)
            .field("content", &self.content)
            .field("domains", &self.domains)
            .field("ro_sequences", &self.ro_sequences)
            .field("rng_state", &REDACTED)
            .finish_non_exhaustive()
    }
}

/// What the Rights Issuer service needs from a durable store. Implemented by
/// `oma_store::RiStore`; the service only ever sees this trait, so the
/// storage engine can evolve independently.
///
/// `record` is infallible by signature: a handler that has already mutated
/// state and drawn from the random stream has nothing useful to do with a
/// storage error mid-protocol. Implementations latch the first failure
/// instead and surface it from [`RiJournal::flush`] (and their own health
/// accessors), so operators see the fault at the next flush/snapshot
/// boundary rather than as a torn protocol exchange.
pub trait RiJournal: Send + Sync {
    /// Records one committed state mutation. `rng_checkpoint` yields the
    /// engine's random-stream state; the implementation MUST evaluate it
    /// inside whatever critical section orders its appends, so checkpoints
    /// are monotone in log order. (A checkpoint captured outside that
    /// section could land *behind* a concurrently appended record's — and
    /// recovery restoring the last record's checkpoint would then rewind
    /// the stream and re-draw an outstanding nonce.)
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]);

    /// Forces every buffered record onto durable media.
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
    /// claim records appended after the image was taken (which would
    /// silently drop those events from replay).
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
    //! `apply` and observed through `state_image()`.

    use super::*;
    use crate::rel::{Permission, RightsTemplate};
    use oma_crypto::rsa::RsaKeyPair;
    use oma_pki::{CertificationAuthority, EntityRole, ValidityPeriod};
    use rand::rngs::StdRng;
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
            ocsp,
            next_session: 1,
            issued_ros: 0,
            session_ttl: 0,
            sessions: Vec::new(),
            registered: Vec::new(),
            content: Vec::new(),
            domains: Vec::new(),
            ro_sequences: Vec::new(),
            rng_state: [0u8; 32],
        })
    }

    fn open(service: &RiService, session_id: u64, device: &str, at: u64) {
        service.apply(&RiEvent::SessionOpened {
            session_id,
            device_id: device.into(),
            ri_nonce: vec![1; 14],
            opened_at: Timestamp::new(at),
        });
    }

    #[test]
    fn session_supersession_keeps_the_newer_session() {
        let service = service();
        open(&service, 1, "dev-a", 0);
        open(&service, 2, "dev-a", 5);
        let image = service.state_image();
        assert_eq!(image.sessions.len(), 1);
        assert_eq!(image.sessions[0].session_id, 2);
        assert_eq!(image.next_session, 3);
        // A stale (smaller-id) open replayed out of order does not clobber.
        open(&service, 1, "dev-a", 0);
        let image = service.state_image();
        assert_eq!(image.sessions.len(), 1);
        assert_eq!(image.sessions[0].session_id, 2);
        assert_eq!(service.pending_session_count(), 1);
    }

    #[test]
    fn registration_consumes_the_session() {
        let service = service();
        open(&service, 1, "dev-a", 0);
        service.apply(&RiEvent::DeviceRegistered {
            session_id: 1,
            device_id: "dev-a".into(),
            certificate: service.certificate().clone(),
        });
        let image = service.state_image();
        assert!(image.sessions.is_empty());
        assert_eq!(image.registered.len(), 1);
        assert_eq!(image.registered[0].device_id, "dev-a");
        assert!(service.is_registered("dev-a"));
    }

    #[test]
    fn ro_sequences_are_order_independent_per_scope() {
        let service = service();
        for (scope, sequence) in [("dev:a", 1), ("dev:a", 0), ("dev:b", 0)] {
            service.apply(&RiEvent::RoIssued {
                scope: scope.into(),
                sequence,
            });
        }
        let image = service.state_image();
        assert_eq!(
            image.ro_sequences,
            vec![("dev:a".to_string(), 2), ("dev:b".to_string(), 1)]
        );
        assert_eq!(image.issued_ros, 3);
        assert_eq!(service.issued_ro_count(), 3);
    }

    #[test]
    fn domain_membership_replay() {
        let service = service();
        let family = DomainId::new("family");
        service.apply(&RiEvent::DomainCreated {
            domain_id: family.clone(),
            key: [9; 16],
            max_members: 4,
        });
        for device in ["b", "a", "a"] {
            service.apply(&RiEvent::DomainJoined {
                domain_id: family.clone(),
                device_id: device.into(),
                key: [9; 16],
                generation: 0,
                max_members: 4,
            });
        }
        assert_eq!(service.state_image().domains[0].members, vec!["a", "b"]);
        service.apply(&RiEvent::DomainLeft {
            domain_id: family.clone(),
            device_id: "a".into(),
        });
        assert_eq!(service.state_image().domains[0].members, vec!["b"]);
        assert_eq!(service.domain_member_count(&family), Some(1));
    }

    #[test]
    fn sweep_replay_removes_exactly_the_named_sessions() {
        let service = service();
        service.apply(&RiEvent::SessionTtlSet { seconds: 10 });
        open(&service, 1, "dev-old", 0);
        open(&service, 2, "dev-new", 95);
        // Only the ids named by the sweep are removed — a session the live
        // sweep did not see (whatever its age) is left alone.
        service.apply(&RiEvent::SessionsSwept {
            now: Timestamp::new(100),
            session_ids: vec![1],
        });
        let image = service.state_image();
        assert_eq!(image.session_ttl, 10);
        assert_eq!(image.sessions.len(), 1);
        assert_eq!(image.sessions[0].device_id, "dev-new");
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
        service.apply(&RiEvent::DomainJoined {
            domain_id: family.clone(),
            device_id: "phone-001".into(),
            key: [7; 16],
            generation: 3,
            max_members: 4,
        });
        let image = service.state_image();
        assert_eq!(image.domains[0].key, [7; 16]);
        assert_eq!(image.domains[0].generation, 3);
        assert_eq!(image.domains[0].members, vec!["phone-001"]);
        // When the creation record *did* survive, it merges without
        // clobbering the membership.
        service.apply(&RiEvent::DomainCreated {
            domain_id: family,
            key: [7; 16],
            max_members: 4,
        });
        assert_eq!(service.state_image().domains[0].members, vec!["phone-001"]);
    }

    #[test]
    fn content_added_replaces_by_id() {
        let service = service();
        for count in [1u32, 2] {
            service.apply(&RiEvent::ContentAdded {
                content_id: "cid:x".into(),
                cek: [0; 16],
                dcf_hash: [0; DIGEST_SIZE],
                template: RightsTemplate::counted(Permission::Play, count),
            });
        }
        let image = service.state_image();
        assert_eq!(image.content.len(), 1);
        assert_eq!(
            image.content[0].template,
            RightsTemplate::counted(Permission::Play, 2)
        );
    }
}
