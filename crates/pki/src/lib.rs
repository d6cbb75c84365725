//! A simplified Public Key Infrastructure for the OMA DRM 2 trust model.
//!
//! OMA DRM 2 bases all trust on PKI certificates issued by a Certification
//! Authority (the paper names the CMLA as the first real-world CA). Rights
//! Issuers and DRM Agents each hold a certificate; during ROAP registration
//! both sides verify the peer certificate and the Rights Issuer additionally
//! presents an OCSP response proving its certificate has not been revoked.
//!
//! This crate models that machinery with structured Rust types instead of
//! X.509/DER and RFC 2560 wire formats (see DESIGN.md §5 — the paper's cost
//! model only counts the cryptographic operations, which are identical:
//! RSA-PSS signature generation/verification and hashing of the signed
//! structures).
//!
//! * [`Certificate`] / [`CertificateRequest`] — subject identity, role,
//!   public key, validity window, issuer signature,
//! * [`CertificationAuthority`] — issues device / Rights Issuer certificates
//!   and operates revocation,
//! * [`ocsp`] — OCSP-style signed certificate-status responses with nonces,
//! * [`verify`] — chain and validity verification entry points used by the
//!   DRM layer,
//! * [`codec`] — the binary codec every envelope of the stack (ROAP wire,
//!   write-ahead log, replication) encodes its structures with.
//!
//! # Example
//!
//! ```
//! use oma_pki::{CertificationAuthority, EntityRole, Timestamp, ValidityPeriod};
//! use oma_crypto::{rsa::RsaKeyPair, CryptoEngine};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut ca = CertificationAuthority::new("CMLA-Test", 384, &mut rng);
//! let device_keys = RsaKeyPair::generate(384, &mut rng);
//! let cert = ca.issue(
//!     "device-001",
//!     EntityRole::DrmAgent,
//!     device_keys.public().clone(),
//!     ValidityPeriod::new(Timestamp::new(0), Timestamp::new(1_000_000)),
//! );
//! let engine = CryptoEngine::with_seed(1);
//! oma_pki::verify::verify_certificate(&engine, &cert, ca.root_certificate(), Timestamp::new(10))?;
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authority;
mod certificate;
pub mod codec;
mod error;
pub mod ocsp;
mod time;
pub mod verify;

pub use authority::CertificationAuthority;
pub use certificate::{Certificate, CertificateRequest, EntityRole, TbsCertificate};
pub use error::PkiError;
pub use time::{Timestamp, ValidityPeriod};
