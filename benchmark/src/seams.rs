//! The span recorder and the three trait seams the traced pass wraps.
//!
//! Per-layer numbers are measured from outside the stack, at seams the
//! crates already expose as traits:
//!
//! * [`TimedBackend`] is a [`CryptoBackend`] over [`SoftwareBackend`]: it
//!   times the RSA exponentiations, SHA-1 and HMAC, and counts AES blocks
//!   (timing 229 376 block calls per 3.5 MiB play would measure the clock);
//! * [`TimedJournal`] is an [`RiJournal`] around the store;
//! * [`TimedWal`] is a [`Wal`] around the log backend.
//!
//! All three record into one [`Tracer`]: spans kept in memory, tagged with
//! the id of the op in flight, written out when the pass ends. The traced
//! pass keeps one op in flight, so a span recorded on the server's loop
//! thread belongs to the client span that contains it in time — parents are
//! resolved afterwards by containment ([`resolve_parents`]). Outputs are
//! unchanged by construction: every wrapper delegates to the wrapped value.

use oma_bignum::BigUint;
use oma_crypto::aes::Aes128;
use oma_crypto::backend::{AlgorithmCost, CryptoBackend, CycleMeter, Realisation, SoftwareBackend};
use oma_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use oma_crypto::sha1::DIGEST_SIZE;
use oma_crypto::{Algorithm, CryptoError};
use oma_drm::journal::{RiEvent, RiJournal, RiStateImage};
use oma_drm::DrmError;
use oma_store::{StoreError, Wal};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`"rtt"`, `"srv.rsa_private"`, `"wal_fsync"`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The op in flight when the span was recorded.
    pub op: u64,
    /// Index (into the same span list) of the smallest enclosing span of
    /// the same op; filled in by [`resolve_parents`].
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store shared by the generator and every wrapper.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A disabled tracer: wrappers delegate without recording until
    /// [`Tracer::set_enabled`] turns it on (set-up traffic is not traced).
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            current_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Names the op whose spans are recorded from now on.
    pub fn set_op(&self, op: u64) {
        self.current_op.store(op, Ordering::SeqCst);
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` (when enabled).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(name, start_ns, end_ns);
        out
    }

    /// Records a span whose bounds the caller measured itself.
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let op = self.current_op.load(Ordering::SeqCst);
        self.spans.lock().expect("span store lock").push(Span {
            name,
            start_ns,
            end_ns,
            op,
            parent: None,
        });
    }

    /// Removes and returns everything recorded so far, parents resolved.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span store lock"));
        resolve_parents(&mut spans);
        spans
    }
}

/// Sets every span's `parent` to the smallest span of the same op that
/// contains it in time. Spans of one op are few, so the quadratic scan per
/// op stays cheap.
pub fn resolve_parents(spans: &mut [Span]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].op, spans[i].start_ns));
    let mut group_start = 0;
    while group_start < order.len() {
        let op = spans[order[group_start]].op;
        let group_end = order[group_start..]
            .iter()
            .position(|&i| spans[i].op != op)
            .map_or(order.len(), |offset| group_start + offset);
        for &child in &order[group_start..group_end] {
            let mut best: Option<usize> = None;
            for &candidate in &order[group_start..group_end] {
                if candidate == child {
                    continue;
                }
                let (c, p) = (&spans[child], &spans[candidate]);
                let contains = p.start_ns <= c.start_ns
                    && c.end_ns <= p.end_ns
                    && (p.nanos() > c.nanos() || candidate < child);
                if contains && best.is_none_or(|b| p.nanos() < spans[b].nanos()) {
                    best = Some(candidate);
                }
            }
            spans[child].parent = best;
        }
        group_start = group_end;
    }
}

/// Renders spans as JSON lines (`name, start, end, parent, op`).
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}\n",
            span.name, span.start_ns, span.end_ns, span.op
        ));
    }
    out
}

/// Which end of the wire a [`TimedBackend`] serves; decides span names so
/// the budget can tell the terminal's crypto from the Rights Issuer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The Rights Issuer service.
    Server,
    /// A DRM Agent.
    Device,
}

/// Span names of one side, indexed like [`TimedBackend::names`].
const SERVER_NAMES: [&str; 4] = ["srv.rsa_private", "srv.rsa_public", "srv.sha1", "srv.hmac"];
const DEVICE_NAMES: [&str; 4] = ["dev.rsa_private", "dev.rsa_public", "dev.sha1", "dev.hmac"];

/// A [`CryptoBackend`] that times what [`SoftwareBackend`] computes.
#[derive(Debug)]
pub struct TimedBackend {
    inner: SoftwareBackend,
    tracer: Arc<Tracer>,
    names: &'static [&'static str; 4],
    aes_blocks: AtomicU64,
}

impl TimedBackend {
    /// Wraps a fresh software backend (Table 1 software cycle costs).
    pub fn new(tracer: Arc<Tracer>, side: Side) -> Arc<TimedBackend> {
        Arc::new(TimedBackend {
            inner: SoftwareBackend::new(),
            tracer,
            names: match side {
                Side::Server => &SERVER_NAMES,
                Side::Device => &DEVICE_NAMES,
            },
            aes_blocks: AtomicU64::new(0),
        })
    }

    /// AES block operations since the last call; resets the counter.
    pub fn take_aes_blocks(&self) -> u64 {
        self.aes_blocks.swap(0, Ordering::Relaxed)
    }
}

impl CryptoBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn realisation(&self, algorithm: Algorithm) -> Realisation {
        self.inner.realisation(algorithm)
    }

    fn cost(&self, algorithm: Algorithm) -> AlgorithmCost {
        self.inner.cost(algorithm)
    }

    fn meter(&self) -> &CycleMeter {
        self.inner.meter()
    }

    fn aes_encrypt_block(&self, cipher: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        self.aes_blocks.fetch_add(1, Ordering::Relaxed);
        self.inner.aes_encrypt_block(cipher, block)
    }

    fn aes_decrypt_block(&self, cipher: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        self.aes_blocks.fetch_add(1, Ordering::Relaxed);
        self.inner.aes_decrypt_block(cipher, block)
    }

    fn sha1(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        self.tracer.span(self.names[2], || self.inner.sha1(data))
    }

    fn hmac_sha1(&self, key: &[u8], data: &[u8]) -> [u8; DIGEST_SIZE] {
        self.tracer
            .span(self.names[3], || self.inner.hmac_sha1(key, data))
    }

    fn rsa_public_exp(&self, key: &RsaPublicKey, m: &BigUint) -> Result<BigUint, CryptoError> {
        self.tracer
            .span(self.names[1], || self.inner.rsa_public_exp(key, m))
    }

    fn rsa_private_exp(&self, key: &RsaPrivateKey, c: &BigUint) -> Result<BigUint, CryptoError> {
        self.tracer
            .span(self.names[0], || self.inner.rsa_private_exp(key, c))
    }
}

/// An [`RiJournal`] that times `record` around the wrapped journal.
pub struct TimedJournal {
    inner: Arc<dyn RiJournal>,
    tracer: Arc<Tracer>,
}

impl TimedJournal {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn RiJournal>, tracer: Arc<Tracer>) -> Arc<TimedJournal> {
        Arc::new(TimedJournal { inner, tracer })
    }
}

impl RiJournal for TimedJournal {
    fn record(&self, event: &RiEvent, rng_checkpoint: &dyn Fn() -> [u8; 32]) {
        self.tracer
            .span("journal", || self.inner.record(event, rng_checkpoint));
    }

    fn flush(&self) -> Result<(), DrmError> {
        self.inner.flush()
    }

    fn snapshot(&self, capture: &dyn Fn() -> RiStateImage) -> Result<(), DrmError> {
        self.inner.snapshot(capture)
    }

    fn health(&self) -> Result<(), DrmError> {
        self.inner.health()
    }
}

/// A [`Wal`] that times `append` and `sync` and counts appended bytes.
#[derive(Debug)]
pub struct TimedWal<L: Wal> {
    inner: L,
    tracer: Arc<Tracer>,
    appended_bytes: AtomicU64,
}

impl<L: Wal> TimedWal<L> {
    /// Wraps `inner`.
    pub fn new(inner: L, tracer: Arc<Tracer>) -> Self {
        TimedWal {
            inner,
            tracer,
            appended_bytes: AtomicU64::new(0),
        }
    }

    /// Bytes appended since the last call; resets the counter.
    pub fn take_appended_bytes(&self) -> u64 {
        self.appended_bytes.swap(0, Ordering::Relaxed)
    }
}

impl<L: Wal> Wal for TimedWal<L> {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.appended_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.tracer.span("wal_append", || self.inner.append(bytes))
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.tracer.span("wal_fsync", || self.inner.sync())
    }

    fn current_segment(&self) -> u64 {
        self.inner.current_segment()
    }

    fn segment_len(&self) -> Result<u64, StoreError> {
        self.inner.segment_len()
    }

    fn rotate(&self) -> Result<u64, StoreError> {
        self.inner.rotate()
    }

    fn truncate_segment(&self, index: u64, len: u64) -> Result<(), StoreError> {
        self.inner.truncate_segment(index, len)
    }

    fn segments(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.segments()
    }

    fn read_segment(&self, index: u64) -> Result<Vec<u8>, StoreError> {
        self.inner.read_segment(index)
    }

    fn remove_segments_before(&self, index: u64) -> Result<(), StoreError> {
        self.inner.remove_segments_before(index)
    }

    fn write_snapshot(&self, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.write_snapshot(bytes)
    }

    fn read_snapshot(&self) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_resolve_by_containment_within_one_op() {
        let span = |name, start_ns, end_ns, op| Span {
            name,
            start_ns,
            end_ns,
            op,
            parent: None,
        };
        let mut spans = vec![
            span("op", 0, 100, 1),
            span("rtt", 10, 90, 1),
            span("srv.rsa_private", 20, 60, 1),
            span("journal", 61, 80, 1),
            span("wal_fsync", 65, 79, 1),
            span("op", 100, 200, 2),
            span("rtt", 110, 190, 2),
        ];
        resolve_parents(&mut spans);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            vec![None, Some(0), Some(1), Some(1), Some(3), None, Some(5)]
        );
    }

    #[test]
    fn timed_backend_is_byte_identical_and_charges_the_same_cycles() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let timed = TimedBackend::new(Arc::clone(&tracer), Side::Server);
        let plain = SoftwareBackend::new();
        assert_eq!(timed.sha1(b"abc"), plain.sha1(b"abc"));
        assert_eq!(timed.hmac_sha1(b"k", b"abc"), plain.hmac_sha1(b"k", b"abc"));
        assert_eq!(timed.charged_cycles(), plain.charged_cycles());
        let names: Vec<&str> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["srv.sha1", "srv.hmac"]);
    }
}
