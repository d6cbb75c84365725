//! The pluggable crypto-backend layer.
//!
//! The paper's central question is *where* each cryptographic algorithm runs:
//! in software on the 200 MHz processor core, or inside a dedicated hardware
//! macro on the system bus. The seed reproduction hardwired every actor to
//! the software implementation and only *priced* the hardware variants
//! analytically; this module makes the partitionings executable.
//!
//! A [`CryptoBackend`] exposes the cost-relevant primitives at the
//! granularity of the paper's Table 1:
//!
//! * AES-128 **block** encryption/decryption plus the per-invocation key
//!   schedule ([`CryptoBackend::aes_schedule`]), and a CBC run over whole
//!   blocks ([`CryptoBackend::aes_cbc_blocks`]) that costs exactly its
//!   blocks — the bulk path every DCF access takes,
//! * SHA-1 and HMAC-SHA-1 over a message, charged per 128 bits of data
//!   (Table 1's unit; internally this is the compression-function work),
//! * the RSA public/private **exponentiations** (RSAEP/RSAVP1 and
//!   RSADP/RSASP1), charged per 1024-bit operation.
//!
//! Two implementations are provided:
//!
//! * [`SoftwareBackend`] — the from-scratch software primitives of this
//!   crate, charging the Table 1 *software* cycle costs,
//! * [`HwMacroBackend`] — a cycle-accurate simulation of dedicated hardware
//!   macros: it produces **byte-identical outputs** (the macros implement
//!   the same standardised algorithms) while charging the Table 1
//!   *hardware* cycle costs for every algorithm assigned to a macro, and
//!   software costs for algorithms left on the core. A real silicon port
//!   would override the primitive methods instead.
//!
//! Every primitive charges a lock-free, per-algorithm sharded [`CycleMeter`],
//! so a protocol run measures its own cycle bill as it executes. The charge
//! of an engine-level operation equals [`AlgorithmCost::cycles`] over the
//! operation counts recorded in the engine's
//! [`OpTrace`](crate::provider::OpTrace) — the measured meter and the priced
//! trace are two views of the same accounting and are cross-checked in the
//! test suites.

use crate::aes::{Aes128, BLOCK_SIZE};
use crate::provider::{Algorithm, OpCount};
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::{cbc, hmac, sha1, CryptoError};
use oma_bignum::BigUint;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Converts a byte length into 128-bit blocks, charging at least one block
/// (hashing an empty message still runs a compression).
pub fn data_blocks(len: usize) -> u64 {
    (len as u64).div_ceil(16).max(1)
}

/// Where one algorithm is realised inside a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Realisation {
    /// Software running on the general-purpose processor core.
    Software,
    /// A dedicated hardware macro attached to the system bus (simulated).
    HardwareMacro,
}

/// Which AES key schedule to prepare (Table 1 prices the two directions
/// differently: decryption pays for the inverse key schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesDirection {
    /// Encryption schedule.
    Encrypt,
    /// Decryption schedule.
    Decrypt,
}

impl AesDirection {
    /// The Table 1 row the schedule is charged against.
    pub fn algorithm(self) -> Algorithm {
        match self {
            AesDirection::Encrypt => Algorithm::AesEncrypt,
            AesDirection::Decrypt => Algorithm::AesDecrypt,
        }
    }
}

/// Cycle cost of one algorithm in one realisation: a fixed per-invocation
/// offset (key schedule, fixed-length hashing) plus a cost per processed
/// block (128-bit data block, or one RSA exponentiation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AlgorithmCost {
    /// Fixed cycles per invocation.
    pub offset_cycles: u64,
    /// Cycles per processed block.
    pub per_block_cycles: u64,
}

impl AlgorithmCost {
    /// Creates a cost entry.
    pub const fn new(offset_cycles: u64, per_block_cycles: u64) -> Self {
        AlgorithmCost {
            offset_cycles,
            per_block_cycles,
        }
    }

    /// Cycles consumed by `count` operations under this cost.
    pub fn cycles(&self, count: OpCount) -> u64 {
        self.offset_cycles * count.invocations + self.per_block_cycles * count.blocks
    }
}

/// A per-algorithm cost profile — one column of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostProfile {
    costs: [AlgorithmCost; 6],
}

impl CostProfile {
    /// Builds a profile from a per-algorithm cost function.
    pub fn new(cost: impl Fn(Algorithm) -> AlgorithmCost) -> Self {
        let mut costs = [AlgorithmCost::default(); 6];
        for alg in Algorithm::ALL {
            costs[alg.index()] = cost(alg);
        }
        CostProfile { costs }
    }

    /// The software column of Table 1 (ARM9-class core at 200 MHz).
    ///
    /// The paper prints the software cost of the RSA private-key operation
    /// as "3,774,0000" cycles; the value that reproduces the paper's own
    /// Figures 6 and 7 is **37 740 000** cycles (a misplaced comma), which
    /// is the value used here.
    pub fn paper_software() -> Self {
        Self::new(|alg| match alg {
            Algorithm::AesEncrypt => AlgorithmCost::new(360, 830),
            Algorithm::AesDecrypt => AlgorithmCost::new(950, 830),
            Algorithm::Sha1 => AlgorithmCost::new(0, 400),
            Algorithm::HmacSha1 => AlgorithmCost::new(1_200, 400),
            Algorithm::RsaPublic => AlgorithmCost::new(0, 2_160_000),
            Algorithm::RsaPrivate => AlgorithmCost::new(0, 37_740_000),
        })
    }

    /// The hardware-macro column of Table 1.
    pub fn paper_hardware() -> Self {
        Self::new(|alg| match alg {
            Algorithm::AesEncrypt => AlgorithmCost::new(0, 10),
            Algorithm::AesDecrypt => AlgorithmCost::new(10, 10),
            Algorithm::Sha1 => AlgorithmCost::new(0, 20),
            Algorithm::HmacSha1 => AlgorithmCost::new(240, 20),
            Algorithm::RsaPublic => AlgorithmCost::new(0, 10_000),
            Algorithm::RsaPrivate => AlgorithmCost::new(0, 260_000),
        })
    }

    /// A profile charging nothing (used by the un-instrumented plain
    /// functions and in tests).
    pub fn zero() -> Self {
        Self::new(|_| AlgorithmCost::default())
    }

    /// The cost of one algorithm.
    pub fn cost(&self, algorithm: Algorithm) -> AlgorithmCost {
        self.costs[algorithm.index()]
    }
}

/// A lock-free cycle meter, sharded per algorithm so concurrent charges from
/// different algorithms never contend on one counter.
#[derive(Debug, Default)]
pub struct CycleMeter {
    shards: [AtomicU64; 6],
}

impl CycleMeter {
    /// A fresh meter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to the shard of `algorithm`.
    pub fn charge(&self, algorithm: Algorithm, cycles: u64) {
        self.shards[algorithm.index()].fetch_add(cycles, Ordering::Relaxed);
    }

    /// Cycles charged so far against `algorithm`.
    pub fn cycles_of(&self, algorithm: Algorithm) -> u64 {
        self.shards[algorithm.index()].load(Ordering::Relaxed)
    }

    /// Total cycles charged across all algorithms.
    pub fn total(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Returns the total and resets every shard to zero.
    ///
    /// The reset is per-shard atomic, not a cross-shard snapshot; callers
    /// that need exact phase boundaries must quiesce the backend first (the
    /// measured runner drives one agent from one thread, so this holds).
    pub fn take_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.swap(0, Ordering::Relaxed))
            .sum()
    }

    /// Resets every shard to zero.
    pub fn reset(&self) {
        self.take_total();
    }
}

/// A pluggable realisation of the six Table 1 algorithms.
///
/// The provided methods implement the functional reference behaviour (the
/// from-scratch software primitives of this crate) and charge the backend's
/// [`CycleMeter`] according to [`CryptoBackend::cost`]. Implementors choose
/// the partitioning and the cost columns; a backend bridging to real
/// accelerator silicon would override the primitive methods themselves.
///
/// All outputs are byte-identical across backends by construction: hardware
/// macros implement the same standardised algorithms, only their cycle bill
/// differs.
pub trait CryptoBackend: Send + Sync + fmt::Debug {
    /// Short display name ("SW", "SW/HW", "HW", …).
    fn name(&self) -> &str;

    /// Where `algorithm` runs in this backend.
    fn realisation(&self, algorithm: Algorithm) -> Realisation;

    /// The cycle cost this backend charges for `algorithm`.
    fn cost(&self, algorithm: Algorithm) -> AlgorithmCost;

    /// The backend's cycle meter.
    fn meter(&self) -> &CycleMeter;

    /// Charges `invocations` invocation offsets plus `blocks` block costs of
    /// `algorithm` to the meter.
    fn charge(&self, algorithm: Algorithm, invocations: u64, blocks: u64) {
        let cost = self.cost(algorithm);
        self.meter().charge(
            algorithm,
            cost.offset_cycles * invocations + cost.per_block_cycles * blocks,
        );
    }

    /// Total cycles charged so far.
    fn charged_cycles(&self) -> u64 {
        self.meter().total()
    }

    /// Returns the charged cycles and resets the meter.
    fn take_charged_cycles(&self) -> u64 {
        self.meter().take_total()
    }

    // ----- AES-128 (block granularity) --------------------------------------

    /// Runs the AES key schedule for `direction`, charging the
    /// per-invocation offset of the corresponding Table 1 row (nothing for a
    /// rejected key).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for a key that is not 16
    /// bytes.
    fn aes_schedule(&self, key: &[u8], direction: AesDirection) -> Result<Aes128, CryptoError> {
        let cipher = Aes128::try_new(key)?;
        self.charge(direction.algorithm(), 1, 0);
        Ok(cipher)
    }

    /// Encrypts one 128-bit block, charging one block of `AesEncrypt`.
    fn aes_encrypt_block(&self, cipher: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        self.charge(Algorithm::AesEncrypt, 0, 1);
        cipher.encrypt_block(block)
    }

    /// Decrypts one 128-bit block, charging one block of `AesDecrypt`.
    fn aes_decrypt_block(&self, cipher: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        self.charge(Algorithm::AesDecrypt, 0, 1);
        cipher.decrypt_block(block)
    }

    /// CBC-chains the whole blocks of `input` into `output` in `direction`,
    /// starting from `iv`, charging one block per block.
    ///
    /// The default runs every block through
    /// [`aes_encrypt_block`](Self::aes_encrypt_block) /
    /// [`aes_decrypt_block`](Self::aes_decrypt_block), so a backend that
    /// overrides only those still sees each block. A backend whose block
    /// operations are the plain cipher overrides this with
    /// [`charged_cbc_blocks`]: one charge for the run, then a loop over
    /// `cipher` alone. Bytes and cycles are identical either way.
    ///
    /// # Panics
    ///
    /// Panics unless `input` and `output` are the same whole number of
    /// blocks long.
    fn aes_cbc_blocks(
        &self,
        cipher: &Aes128,
        direction: AesDirection,
        iv: &[u8; BLOCK_SIZE],
        input: &[u8],
        output: &mut [u8],
    ) {
        match direction {
            AesDirection::Encrypt => cbc::chain_encrypt(iv, input, output, |block| {
                self.aes_encrypt_block(cipher, block)
            }),
            AesDirection::Decrypt => cbc::chain_decrypt(iv, input, output, |block| {
                self.aes_decrypt_block(cipher, block)
            }),
        }
    }

    // ----- hashing (per 128 bits of message data) ---------------------------

    /// SHA-1 of `data`, charged per 128 bits of message.
    fn sha1(&self, data: &[u8]) -> [u8; sha1::DIGEST_SIZE] {
        self.charge(Algorithm::Sha1, 1, data_blocks(data.len()));
        sha1::sha1(data)
    }

    /// HMAC-SHA-1 of `data` under `key`, charged one invocation offset (the
    /// fixed-length key-pad hashing) plus one block per 128 bits of message.
    fn hmac_sha1(&self, key: &[u8], data: &[u8]) -> [u8; sha1::DIGEST_SIZE] {
        self.charge(Algorithm::HmacSha1, 1, data_blocks(data.len()));
        hmac::hmac_sha1(key, data)
    }

    // ----- RSA (per 1024-bit exponentiation) --------------------------------

    /// RSAEP / RSAVP1: one public-key exponentiation.
    ///
    /// # Errors
    ///
    /// See [`RsaPublicKey::rsaep`].
    fn rsa_public_exp(&self, key: &RsaPublicKey, m: &BigUint) -> Result<BigUint, CryptoError> {
        self.charge(Algorithm::RsaPublic, 1, 1);
        key.rsaep(m)
    }

    /// RSADP / RSASP1: one private-key (CRT) exponentiation.
    ///
    /// # Errors
    ///
    /// See [`RsaPrivateKey::rsadp`].
    fn rsa_private_exp(&self, key: &RsaPrivateKey, c: &BigUint) -> Result<BigUint, CryptoError> {
        self.charge(Algorithm::RsaPrivate, 1, 1);
        key.rsadp(c)
    }
}

/// [`CryptoBackend::aes_cbc_blocks`] for a backend whose block operations are
/// the plain cipher plus a charge: the whole run is charged at once and the
/// loop makes no call through the backend.
pub fn charged_cbc_blocks(
    backend: &dyn CryptoBackend,
    cipher: &Aes128,
    direction: AesDirection,
    iv: &[u8; BLOCK_SIZE],
    input: &[u8],
    output: &mut [u8],
) {
    backend.charge(direction.algorithm(), 0, (input.len() / BLOCK_SIZE) as u64);
    match direction {
        AesDirection::Encrypt => {
            cbc::chain_encrypt(iv, input, output, |block| cipher.encrypt_block(block))
        }
        AesDirection::Decrypt => cbc::chain_decrypt_interleaved(iv, input, output, cipher),
    }
}

/// The pure-software backend: every algorithm on the processor core.
#[derive(Debug)]
pub struct SoftwareBackend {
    name: String,
    profile: CostProfile,
    meter: CycleMeter,
}

impl SoftwareBackend {
    /// A software backend charging the Table 1 software cycle costs.
    pub fn new() -> Self {
        Self::with_profile(CostProfile::paper_software())
    }

    /// A software backend with a custom cost profile (sensitivity studies).
    pub fn with_profile(profile: CostProfile) -> Self {
        Self::named("SW", profile)
    }

    /// A software backend with an explicit display name (used when an
    /// all-software architecture variant carries a custom name).
    pub fn named(name: &str, profile: CostProfile) -> Self {
        SoftwareBackend {
            name: name.to_string(),
            profile,
            meter: CycleMeter::new(),
        }
    }
}

impl Default for SoftwareBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl CryptoBackend for SoftwareBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn realisation(&self, _algorithm: Algorithm) -> Realisation {
        Realisation::Software
    }

    fn cost(&self, algorithm: Algorithm) -> AlgorithmCost {
        self.profile.cost(algorithm)
    }

    fn meter(&self) -> &CycleMeter {
        &self.meter
    }

    fn aes_cbc_blocks(
        &self,
        cipher: &Aes128,
        direction: AesDirection,
        iv: &[u8; BLOCK_SIZE],
        input: &[u8],
        output: &mut [u8],
    ) {
        charged_cbc_blocks(self, cipher, direction, iv, input, output);
    }
}

/// A cycle-accurate simulation of dedicated hardware macros, with a
/// per-algorithm hardware/software partitioning.
///
/// Algorithms assigned to [`Realisation::HardwareMacro`] charge the hardware
/// cost column; the rest fall back to the core and charge software costs.
/// Outputs are byte-identical to [`SoftwareBackend`] — the macros implement
/// the same standardised algorithms.
#[derive(Debug)]
pub struct HwMacroBackend {
    name: String,
    assignments: [Realisation; 6],
    software: CostProfile,
    hardware: CostProfile,
    meter: CycleMeter,
}

impl HwMacroBackend {
    /// A fully custom partitioning with explicit cost columns.
    pub fn partitioned(
        name: &str,
        assignment: impl Fn(Algorithm) -> Realisation,
        software: CostProfile,
        hardware: CostProfile,
    ) -> Self {
        let mut assignments = [Realisation::Software; 6];
        for alg in Algorithm::ALL {
            assignments[alg.index()] = assignment(alg);
        }
        HwMacroBackend {
            name: name.to_string(),
            assignments,
            software,
            hardware,
            meter: CycleMeter::new(),
        }
    }

    /// The paper's "HW" variant: a dedicated macro for every algorithm.
    pub fn full() -> Self {
        Self::partitioned(
            "HW",
            |_| Realisation::HardwareMacro,
            CostProfile::paper_software(),
            CostProfile::paper_hardware(),
        )
    }

    /// The paper's "SW/HW" variant: AES, SHA-1 and HMAC-SHA-1 as macros,
    /// RSA in software on the core.
    pub fn hybrid() -> Self {
        Self::partitioned(
            "SW/HW",
            |alg| match alg {
                Algorithm::AesEncrypt
                | Algorithm::AesDecrypt
                | Algorithm::Sha1
                | Algorithm::HmacSha1 => Realisation::HardwareMacro,
                Algorithm::RsaPublic | Algorithm::RsaPrivate => Realisation::Software,
            },
            CostProfile::paper_software(),
            CostProfile::paper_hardware(),
        )
    }
}

impl CryptoBackend for HwMacroBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn realisation(&self, algorithm: Algorithm) -> Realisation {
        self.assignments[algorithm.index()]
    }

    fn cost(&self, algorithm: Algorithm) -> AlgorithmCost {
        match self.realisation(algorithm) {
            Realisation::Software => self.software.cost(algorithm),
            Realisation::HardwareMacro => self.hardware.cost(algorithm),
        }
    }

    fn meter(&self) -> &CycleMeter {
        &self.meter
    }

    fn aes_cbc_blocks(
        &self,
        cipher: &Aes128,
        direction: AesDirection,
        iv: &[u8; BLOCK_SIZE],
        input: &[u8],
        output: &mut [u8],
    ) {
        charged_cbc_blocks(self, cipher, direction, iv, input, output);
    }
}

/// A zero-cost pass-through backend used by the plain module functions
/// (`cbc::encrypt`, `keywrap::wrap`, …) so the backend-routed and plain code
/// paths share one implementation without metering overhead mattering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unmetered;

/// The shared meter of [`Unmetered`] (all charges are zero cycles).
static UNMETERED_METER: CycleMeter = CycleMeter {
    shards: [const { AtomicU64::new(0) }; 6],
};

impl CryptoBackend for Unmetered {
    fn name(&self) -> &str {
        "unmetered"
    }

    fn realisation(&self, _algorithm: Algorithm) -> Realisation {
        Realisation::Software
    }

    fn cost(&self, _algorithm: Algorithm) -> AlgorithmCost {
        AlgorithmCost::default()
    }

    fn meter(&self) -> &CycleMeter {
        &UNMETERED_METER
    }

    fn charge(&self, _algorithm: Algorithm, _invocations: u64, _blocks: u64) {}

    fn aes_cbc_blocks(
        &self,
        cipher: &Aes128,
        direction: AesDirection,
        iv: &[u8; BLOCK_SIZE],
        input: &[u8],
        output: &mut [u8],
    ) {
        charged_cbc_blocks(self, cipher, direction, iv, input, output);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_backend_charges_table1_software_costs() {
        let backend = SoftwareBackend::new();
        let digest = backend.sha1(&[0u8; 160]);
        assert_eq!(digest, sha1::sha1(&[0u8; 160]));
        // 10 blocks at 400 cycles each, no offset.
        assert_eq!(backend.charged_cycles(), 4_000);
        assert_eq!(backend.meter().cycles_of(Algorithm::Sha1), 4_000);
        assert_eq!(backend.name(), "SW");
        assert_eq!(
            backend.realisation(Algorithm::RsaPrivate),
            Realisation::Software
        );
    }

    #[test]
    fn hw_backend_is_byte_identical_but_cheaper() {
        let sw = SoftwareBackend::new();
        let hw = HwMacroBackend::full();
        let data = [0xa5u8; 333];
        assert_eq!(sw.sha1(&data), hw.sha1(&data));
        assert_eq!(sw.hmac_sha1(b"key", &data), hw.hmac_sha1(b"key", &data));
        assert!(hw.charged_cycles() < sw.charged_cycles());
        assert_eq!(hw.name(), "HW");
        assert_eq!(hw.realisation(Algorithm::Sha1), Realisation::HardwareMacro);
    }

    #[test]
    fn aes_block_ops_charge_schedule_offset_plus_blocks() {
        let backend = SoftwareBackend::new();
        let cipher = backend
            .aes_schedule(&[0u8; 16], AesDirection::Decrypt)
            .unwrap();
        let block = [7u8; 16];
        let ct = backend.aes_encrypt_block(&cipher, &block);
        assert_eq!(backend.aes_decrypt_block(&cipher, &ct), block);
        // Decrypt schedule offset 950 + one encrypt block 830 + one decrypt
        // block 830.
        assert_eq!(backend.meter().cycles_of(Algorithm::AesDecrypt), 950 + 830);
        assert_eq!(backend.meter().cycles_of(Algorithm::AesEncrypt), 830);
    }

    #[test]
    fn hybrid_backend_splits_cost_columns() {
        let hybrid = HwMacroBackend::hybrid();
        assert_eq!(hybrid.name(), "SW/HW");
        assert_eq!(hybrid.cost(Algorithm::Sha1), AlgorithmCost::new(0, 20));
        assert_eq!(
            hybrid.cost(Algorithm::RsaPrivate),
            AlgorithmCost::new(0, 37_740_000)
        );
        assert_eq!(
            hybrid.realisation(Algorithm::AesEncrypt),
            Realisation::HardwareMacro
        );
        assert_eq!(
            hybrid.realisation(Algorithm::RsaPublic),
            Realisation::Software
        );
    }

    #[test]
    fn rsa_exponentiations_charge_one_op() {
        use rand::SeedableRng;
        let pair = crate::rsa::RsaKeyPair::generate(256, &mut rand::rngs::StdRng::seed_from_u64(5));
        let backend = HwMacroBackend::full();
        let m = BigUint::from_u64(0x1234);
        let c = backend.rsa_public_exp(pair.public(), &m).unwrap();
        assert_eq!(backend.rsa_private_exp(pair.private(), &c).unwrap(), m);
        assert_eq!(backend.meter().cycles_of(Algorithm::RsaPublic), 10_000);
        assert_eq!(backend.meter().cycles_of(Algorithm::RsaPrivate), 260_000);
    }

    #[test]
    fn meter_take_total_resets() {
        let backend = SoftwareBackend::new();
        backend.sha1(b"x");
        assert!(backend.charged_cycles() > 0);
        let taken = backend.take_charged_cycles();
        assert!(taken > 0);
        assert_eq!(backend.charged_cycles(), 0);
    }

    #[test]
    fn meter_is_lock_free_under_concurrency() {
        use std::sync::Arc;
        let meter = Arc::new(CycleMeter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let meter = Arc::clone(&meter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    meter.charge(Algorithm::Sha1, 1);
                    meter.charge(Algorithm::AesDecrypt, 2);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(meter.cycles_of(Algorithm::Sha1), 40_000);
        assert_eq!(meter.cycles_of(Algorithm::AesDecrypt), 80_000);
        assert_eq!(meter.total(), 120_000);
        meter.reset();
        assert_eq!(meter.total(), 0);
    }

    #[test]
    fn unmetered_backend_never_charges() {
        let backend = Unmetered;
        backend.sha1(&[0u8; 1024]);
        let cipher = backend
            .aes_schedule(&[0u8; 16], AesDirection::Encrypt)
            .unwrap();
        backend.aes_encrypt_block(&cipher, &[0u8; 16]);
        assert_eq!(backend.charged_cycles(), 0);
    }

    #[test]
    fn cost_profiles_match_table1() {
        let sw = CostProfile::paper_software();
        let hw = CostProfile::paper_hardware();
        assert_eq!(sw.cost(Algorithm::AesDecrypt), AlgorithmCost::new(950, 830));
        assert_eq!(sw.cost(Algorithm::RsaPrivate).per_block_cycles, 37_740_000);
        assert_eq!(hw.cost(Algorithm::HmacSha1), AlgorithmCost::new(240, 20));
        assert_eq!(
            CostProfile::zero().cost(Algorithm::Sha1),
            AlgorithmCost::default()
        );
    }

    #[test]
    fn algorithm_cost_arithmetic() {
        let cost = AlgorithmCost::new(100, 10);
        assert_eq!(
            cost.cycles(OpCount {
                invocations: 2,
                blocks: 30
            }),
            500
        );
        assert_eq!(cost.cycles(OpCount::default()), 0);
    }

    #[test]
    fn data_block_accounting() {
        assert_eq!(data_blocks(0), 1);
        assert_eq!(data_blocks(16), 1);
        assert_eq!(data_blocks(17), 2);
        assert_eq!(data_blocks(3_500_000), 218_750);
    }

    #[test]
    fn backends_are_object_safe_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SoftwareBackend>();
        assert_send_sync::<HwMacroBackend>();
        let boxed: Box<dyn CryptoBackend> = Box::new(SoftwareBackend::new());
        assert_eq!(boxed.name(), "SW");
    }
}
