//! A functional model of OMA DRM 2 (Open Mobile Alliance Digital Rights
//! Management, version 2), the system analysed by Thull & Sannino,
//! *"Performance Considerations for an Embedded Implementation of OMA DRM 2"*
//! (DATE 2005).
//!
//! The crate models the four actors of the standard and the four phases of
//! the content-consumption life-cycle:
//!
//! | Actor | Type | Phases it participates in |
//! |---|---|---|
//! | Content Issuer | [`ContentIssuer`] | packages DCFs |
//! | Rights Issuer | [`RiService`], reached through a [`RoapClient`] | Registration, Acquisition, domain management |
//! | DRM Agent | [`DrmAgent`] | Registration, Acquisition, Installation, Consumption |
//! | Certification Authority | [`oma_pki::CertificationAuthority`] | issues certificates, answers OCSP |
//!
//! Every cryptographic operation a [`DrmAgent`] performs goes through an
//! instrumented [`oma_crypto::CryptoEngine`], so a protocol run doubles as a
//! measurement: the per-phase operation traces drive the performance model in
//! `oma-perf` exactly the way the authors' Java model drove their spreadsheet
//! analysis.
//!
//! # Quickstart
//!
//! ```
//! use oma_drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient};
//! use oma_pki::{CertificationAuthority, Timestamp};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), oma_drm::DrmError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // Small RSA keys keep the example fast; the real system uses 1024 bits.
//! let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
//! let ri = RiService::new("ri.example.com", 512, &mut ca, &mut rng);
//! let ci = ContentIssuer::new("ci.example.com");
//! let mut agent = DrmAgent::new("phone-001", 512, &mut ca, &mut rng);
//!
//! // Content Issuer packages a track and hands the CEK to the Rights Issuer.
//! let now = Timestamp::new(1_000);
//! let (dcf, cek) = ci.package(b"music bytes", "cid:track-1", &mut rng);
//! ri.add_content("cid:track-1", cek, &dcf, RightsTemplate::unlimited(Permission::Play));
//!
//! // Registration -> Acquisition -> Installation -> Consumption. Every
//! // ROAP message travels as an encoded PDU frame through a `RoapClient`
//! // (here over the in-process transport; see the `wire` module for the
//! // frame format and `ChannelTransport` for a serialized byte channel).
//! let client = RoapClient::in_proc(&ri);
//! agent.register(&client, now)?;
//! let response = agent.acquire_rights(&client, ri.id(), "cid:track-1", now)?;
//! let ro_id = agent.install_rights(&response, now)?;
//! let plaintext = agent.consume(&ro_id, &dcf, Permission::Play, now)?;
//! assert_eq!(plaintext, b"music bytes");
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod ci;
pub mod client;
pub mod dcf;
pub mod domain;
mod error;
pub mod journal;
pub mod rel;
pub mod ro;
pub mod roap;
pub mod service;
pub mod session;
pub mod shard;
pub mod storage;
pub mod wire;

/// Validity requested for certificates issued to DRM actors (10 years) —
/// one policy constant shared by the DRM Agent, the Rights Issuer service
/// and external provisioning code such as the `oma-load` fleet harness.
pub const CERT_VALIDITY_SECONDS: u64 = 10 * 365 * 24 * 3600;

pub use agent::{DrmAgent, RiContext};
pub use ci::ContentIssuer;
pub use client::{ChannelTransport, InProcTransport, RoapClient, RoapTransport};
pub use dcf::Dcf;
pub use domain::{Domain, DomainId};
pub use error::DrmError;
pub use journal::{RiEvent, RiJournal, RiStateImage, StateSource};
pub use rel::{Constraint, Permission, Rights, RightsTemplate};
pub use ro::{ProtectedRightsObject, RightsObjectId};
pub use roap::RoapError;
pub use service::RiService;
pub use session::{AgentEvent, AgentSessionState, PduKind, RiSessionState};
pub use shard::ShardedMap;
pub use wire::{RoapPdu, RoapStatus};
