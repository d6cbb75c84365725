//! # oma-drm2
//!
//! An OMA DRM 2 functional model together with the embedded
//! hardware/software performance model of Thull & Sannino,
//! *"Performance Considerations for an Embedded Implementation of OMA DRM 2"*
//! (DATE 2005).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`bignum`] — arbitrary-precision arithmetic (RSA substrate),
//! * [`crypto`] — from-scratch AES-128, SHA-1, HMAC, AES key wrap, KDF2,
//!   RSA-1024 and RSA-PSS, the pluggable
//!   [`CryptoBackend`](crypto::backend::CryptoBackend) layer (software vs
//!   simulated hardware macros), plus the instrumented
//!   [`CryptoEngine`](crypto::CryptoEngine),
//! * [`pki`] — certificates, certification authority and OCSP,
//! * [`drm`] — DCF, Rights Objects, ROAP, DRM Agent, Rights Issuer, Content
//!   Issuer and domains (every actor accepts a crypto backend),
//! * [`net`] — ROAP over TCP: the one server core, the
//!   [`RoapEventServer`](net::RoapEventServer) readiness event loop (10k+
//!   idle connections on one thread), and the
//!   [`TcpTransport`](net::TcpTransport) client transport, std-only,
//! * [`store`] — durable Rights Issuer storage: the CRC-framed write-ahead
//!   log, full-state snapshots and crash recovery behind
//!   [`RiService::recover`](drm::RiService::recover),
//! * [`cluster`] — replication: WAL log shipping
//!   ([`Primary`](cluster::ship::Primary)/[`Follower`](cluster::ship::Follower))
//!   and epoch-fenced primary failover that provably never re-issues an id,
//! * [`perf`] — the Table 1 cost model, architecture variants (each mapping
//!   1:1 onto an executable backend), use cases, the analytic and measured
//!   models and figure generators,
//! * [`load`] — the deterministic device-fleet load harness: one per-device
//!   life-cycle drives per-device-seeded agents against one shared
//!   [`RiService`](drm::RiService) — in process, over loopback TCP,
//!   journaled and killed, or replicated and failed over — and checks every
//!   run against a sequential reference,
//! * [`explore`] — the model-checking-style interleaving
//!   [`explorer`](explore::explore) over the typed ROAP session machines
//!   (reorder/duplicate/drop faults, state-hash pruning, protocol
//!   invariants) and the malicious-peer protocol
//!   [`fuzzer`](explore::fuzz),
//! * [`obs`] — the std-only observability surface: mergeable log-bucketed
//!   [`Histogram`](obs::Histogram)s, counters and gauges behind a named
//!   [`Registry`](obs::Registry), the bounded per-frame
//!   [`SpanRecorder`](obs::SpanRecorder) ring, the deterministic
//!   Prometheus-style text exposition and the optional admin listener —
//!   threaded through every server core behind
//!   [`ObsConfig`](obs::ObsConfig).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the benchmark harness that regenerates every table and
//! figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use oma_drm2::drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient};
//! use oma_drm2::pki::{CertificationAuthority, Timestamp};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), oma_drm2::drm::DrmError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut ca = CertificationAuthority::new("cmla", 512, &mut rng);
//! let ri = RiService::new("ri.example.com", 512, &mut ca, &mut rng);
//! let ci = ContentIssuer::new("ci.example.com");
//! let mut agent = DrmAgent::new("phone-001", 512, &mut ca, &mut rng);
//!
//! let now = Timestamp::new(1_000);
//! let (dcf, cek) = ci.package(b"ringtone bytes", "cid:ring", &mut rng);
//! ri.add_content("cid:ring", cek, &dcf, RightsTemplate::unlimited(Permission::Play));
//!
//! let client = RoapClient::in_proc(&ri);
//! agent.register(&client, now)?;
//! let response = agent.acquire_rights(&client, ri.id(), "cid:ring", now)?;
//! let ro_id = agent.install_rights(&response, now)?;
//! assert_eq!(agent.consume(&ro_id, &dcf, Permission::Play, now)?, b"ringtone bytes");
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use oma_bignum as bignum;
pub use oma_cluster as cluster;
pub use oma_crypto as crypto;
pub use oma_drm as drm;
pub use oma_explore as explore;
pub use oma_load as load;
pub use oma_net as net;
pub use oma_obs as obs;
pub use oma_perf as perf;
pub use oma_pki as pki;
pub use oma_store as store;
