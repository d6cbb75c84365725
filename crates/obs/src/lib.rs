//! # oma-obs — observability primitives for the OMA DRM serving stack
//!
//! The paper this repository reproduces is an *accounting* paper — it
//! answers "where do the cycles go" for DRM terminal crypto. This crate
//! extends that accounting to the serving stack: where does the *time*
//! go, as a distribution, per subsystem.
//!
//! Std-only, no dependencies. Four pieces:
//!
//! * [`Histogram`] — a mergeable log-bucketed latency histogram with
//!   fixed memory (~8 KiB), lock-free concurrent recording and
//!   p50/p95/p99/p999 extraction ([`hist`]),
//! * [`Counter`] / [`Gauge`] — the monotone and up/down scalar
//!   primitives, behind a named [`Registry`],
//! * [`SpanRecorder`] — a bounded non-blocking ring buffer of
//!   per-dispatch [`Span`]s, dumpable as JSONL ([`span`]),
//! * [`render_text`](Obs::render_text) — a deterministic
//!   Prometheus-style text exposition, optionally served by a tiny
//!   admin TCP listener ([`admin`]).
//!
//! The serving crates thread an [`ObsConfig`] through their config
//! structs. [`ObsConfig::Off`] (the default) costs one `Option` check
//! per instrumentation site — recording handles are pre-resolved
//! `Option<Arc<_>>`s, so the off path does no hashing, no locking and
//! no allocation. The `benchmark/` package reports the on-path overhead
//! per workload as `obs.overhead_ratio`.
//!
//! ## Naming scheme
//!
//! Metric names are `<layer>_<what>_<unit>`: `net_frame_nanos`,
//! `store_fsync_nanos`, `repl_ship_ack_nanos`; counters end in `_total`
//! (`net_shed_total`), gauges are bare nouns (`net_active`,
//! `repl_follower_lag`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod expo;
pub mod hist;
pub mod span;

pub use admin::AdminServer;
pub use hist::{Histogram, HistogramSnapshot};
pub use span::{Span, SpanRecorder};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An up/down scalar (active connections, lag, epochs).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` and returns the new value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Subtracts `n` (callers pair this with a prior `add`).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (for peak-watermark gauges).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics: get-or-register by name, rendered
/// deterministically (names are kept sorted) by the text exposition.
///
/// Registration takes a lock and is meant for setup; the returned
/// `Arc` handles are what hot paths hold and hit lock-free.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind —
    /// a programming error, caught loudly.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} is already registered with a different kind"),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} is already registered with a different kind"),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// When `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} is already registered with a different kind"),
        }
    }

    /// The histogram named `name` if (and only if) already registered.
    pub fn find_histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        match self.metrics.lock().expect("registry lock").get(name) {
            Some(Metric::Histogram(h)) => Some(Arc::clone(h)),
            _ => None,
        }
    }

    /// Visits every metric in name order (the exposition's iteration).
    fn for_each(&self, mut visit: impl FnMut(&str, &Metric)) {
        for (name, metric) in self.metrics.lock().expect("registry lock").iter() {
            visit(name, metric);
        }
    }
}

/// The observability surface one process exposes: a [`Registry`] of
/// metrics plus a [`SpanRecorder`] of recent request spans.
pub struct Obs {
    registry: Registry,
    spans: SpanRecorder,
}

/// Default span-ring capacity (spans, not bytes; ~200 B each).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

impl Obs {
    /// A fresh surface with the default span-ring capacity.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Obs> {
        Obs::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A fresh surface retaining the most recent `capacity` spans.
    pub fn with_span_capacity(capacity: usize) -> Arc<Obs> {
        Arc::new(Obs {
            registry: Registry::new(),
            spans: SpanRecorder::new(capacity),
        })
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span ring.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    /// The deterministic Prometheus-style text exposition of every
    /// registered metric. See [`expo`] for the exact format.
    pub fn render_text(&self) -> String {
        expo::render_text(&self.registry)
    }
}

/// Whether (and where) a subsystem records observability data.
///
/// `Off` is the default and costs one branch per site; `On` carries the
/// shared [`Obs`] surface. Clone is cheap (an `Arc` bump).
#[derive(Clone, Default)]
pub enum ObsConfig {
    /// No recording: instrumentation sites compile to an `Option` check.
    #[default]
    Off,
    /// Record into this surface.
    On(Arc<Obs>),
}

impl ObsConfig {
    /// A fresh enabled surface (shorthand for `On(Obs::new())`).
    pub fn enabled() -> ObsConfig {
        ObsConfig::On(Obs::new())
    }

    /// The surface, when on.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        match self {
            ObsConfig::Off => None,
            ObsConfig::On(obs) => Some(obs),
        }
    }

    /// Whether recording is enabled.
    pub fn is_on(&self) -> bool {
        matches!(self, ObsConfig::On(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_the_same_handle_per_name() {
        let r = Registry::new();
        let a = r.counter("net_shed_total");
        let b = r.counter("net_shed_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(r.find_histogram("net_shed_total").is_none());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn gauge_tracks_peaks() {
        let g = Gauge::new();
        assert_eq!(g.add(3), 3);
        g.sub(1);
        g.set_max(10);
        g.set_max(5);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn obs_config_off_is_free_to_ask() {
        let off = ObsConfig::default();
        assert!(!off.is_on());
        assert!(off.obs().is_none());
        let on = ObsConfig::enabled();
        assert!(on.is_on());
        on.obs().unwrap().registry().counter("c").inc();
    }
}
