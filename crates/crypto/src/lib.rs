//! From-scratch implementations of the cryptographic algorithms mandated by
//! OMA DRM 2 (§2.4.5 of Thull & Sannino, DATE 2005):
//!
//! * [`sha1`] — SHA-1 hash function,
//! * [`hmac`] — HMAC SHA-1 message authentication,
//! * [`aes`] — the AES-128 block cipher,
//! * [`cbc`] — AES-128 CBC content encryption with PKCS#7 padding,
//! * [`keywrap`] — 128-bit AES key wrap (RFC 3394),
//! * [`kdf`] — the KDF2 key derivation function,
//! * [`rsa`] — 1024-bit RSA key generation and the RSAEP / RSADP / RSASP1 /
//!   RSAVP1 primitives of PKCS#1 v2.1,
//! * [`pss`] — the RSA-PSS signature scheme (EMSA-PSS encoding),
//! * [`kem`] — the RSAES-KEM + key-wrap construction that protects
//!   `K_MAC ‖ K_REK` inside a Rights Object,
//! * [`backend`] — the pluggable crypto-backend layer: a [`CryptoBackend`]
//!   trait over AES block operations, SHA-1/HMAC hashing and the RSA
//!   exponentiations, with a software implementation and a cycle-accurate
//!   simulated hardware-macro implementation so the paper's HW/SW
//!   partitionings are *executable*, not just priced. Each backend books
//!   what it executes as `(algorithm, invocations, blocks)` in one lock-free
//!   ledger; that ledger is the operation trace, and cycles are priced from
//!   it,
//! * [`provider`] — the [`CryptoEngine`] that performs every operation
//!   through a backend and reads its ledger as an [`OpTrace`], so that the
//!   performance model in `oma-perf` can cost a protocol run exactly the way
//!   the paper's Java model did.
//!
//! Nothing in this crate is intended for production security use: SHA-1 and
//! 1024-bit RSA are obsolete primitives that are implemented here because the
//! 2005 standard under study mandates them.
//!
//! # Example
//!
//! ```
//! use oma_crypto::sha1::sha1;
//! use oma_crypto::aes::Aes128;
//!
//! let digest = sha1(b"abc");
//! assert_eq!(digest[0], 0xa9);
//!
//! let cipher = Aes128::new(&[0u8; 16]);
//! let block = cipher.encrypt_block(&[0u8; 16]);
//! assert_eq!(cipher.decrypt_block(&block), [0u8; 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod backend;
pub mod cbc;
pub mod error;
pub mod hmac;
pub mod kdf;
pub mod kem;
pub mod keywrap;
pub mod provider;
pub mod pss;
pub mod rsa;
pub mod sha1;

pub use backend::{
    AlgorithmCost, CostProfile, CryptoBackend, CycleMeter, HwMacroBackend, Realisation,
    SoftwareBackend,
};
pub use error::CryptoError;
pub use provider::{Algorithm, CryptoEngine, OpTrace};
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
