//! A deterministic device-fleet load harness for the concurrent Rights
//! Issuer service.
//!
//! The paper prices OMA DRM 2 from the terminal's point of view; this crate
//! looks at the other end of the wire. [`run_fleet`] spawns N worker threads
//! that drive per-device-seeded [`DrmAgent`]s through full Registration →
//! Acquisition → Installation → Consumption cycles against **one shared
//! [`RiService`]**, and reports throughput (registrations/s, ROs/s) plus
//! fleet-wide per-phase operation traces and cycle totals through
//! [`oma_perf::report::FleetSummary`] — the same reporting surface as the
//! paper's Figure 6/7 tables.
//!
//! Determinism is the harness's defining property: everything a device
//! observes is derived from that device's seed, and Rights-Object ids are
//! allocated per device by the service. A multi-threaded run therefore
//! produces, device for device, **byte-identical outcomes** to a
//! single-threaded reference run — which is exactly what the concurrency
//! test suite asserts to prove the sharded service loses no updates.
//!
//! Five drivers run that fleet, each changing one thing relative to the
//! in-process reference, and each is what one byte-identity suite calls:
//!
//! | Driver | What changes | Called by |
//! |---|---|---|
//! | [`run_fleet`] | nothing: every device talks to one service through `RoapClient::in_proc` from `workers` threads | `tests/ri_service_concurrency.rs` |
//! | [`run_sequential`] | `run_fleet` on one thread — the reference every other driver must `match` | every suite below |
//! | [`run_fleet_tcp`] | the frames cross **real loopback TCP**, one connection per device, into a [`RoapEventServer`] | `tests/net_lifecycle.rs`, `tests/event_loop.rs` |
//! | [`run_fleet_durable`] | fleet-wide protocol waves of encoded frames run through [`RiService::dispatch_at`] against a **journaled** service over a caller-supplied `oma_store::RiStore`, killed after a chosen number of served frames, recovered from WAL + snapshot; reports every raw `RoResponse` frame and the final state image | `tests/durable_recovery.rs` |
//! | [`run_fleet_cluster`] | the same waves are routed over sharded, replicated primaries, one of which is killed and failed over | `tests/cluster_failover.rs` |
//!
//! The reports' wall-clock fields are there to print, not to claim: the
//! runs are short, the keys test-sized, and device key generation sits
//! inside the timed window. Performance figures come from the standalone
//! `benchmark/` package, which does not use this crate.
//!
//! All drivers share two pieces of machinery: one per-device life-cycle
//! (`drive_device`, over any `RoapClient` transport) fanned out on a worker
//! pool, and one wave engine (`attempt_wave` over a pluggable
//! batch-dispatch function) for the durable and cluster drivers, which
//! differ only in their dispatch closure and their recovery step — not in
//! further copies of the protocol.
//!
//! # Example
//!
//! ```
//! use oma_load::{run_fleet, run_sequential, FleetSpec};
//!
//! let spec = FleetSpec::smoke();
//! let concurrent = run_fleet(&spec).unwrap();
//! let sequential = run_sequential(&spec).unwrap();
//!
//! assert_eq!(concurrent.registrations, spec.devices as u64);
//! assert!(concurrent.duplicate_ro_ids().is_empty());
//! // Per-device outcomes and aggregate traces match the sequential run.
//! assert!(concurrent.matches(&sequential));
//! println!("{}", concurrent.summary("smoke fleet"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod idle;

pub use idle::{
    bind_idle_server, drive_idle_clients, run_idle_fleet, IdleClientReport, IdleFleetReport,
    IdleFleetSpec,
};

use oma_cluster::{frame_device_id, AckPolicy, ClusterRouter, Follower, Primary};
use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::sha1::{sha1, DIGEST_SIZE};
use oma_drm::client::{RoapClient, RoapTransport};
use oma_drm::journal::RiJournal;
use oma_drm::roap::{
    DeviceHello, RegistrationRequest, RegistrationResponse, RiHello, RoRequest, RoResponse,
    RoapError,
};
use oma_drm::wire::RoapPdu;
use oma_drm::{ContentIssuer, Dcf, DrmAgent, DrmError, Permission, RiService, RightsTemplate};
use oma_net::{RoapEventServer, ServerConfig, TcpTransport};
use oma_perf::phases::PhaseTraces;
use oma_perf::report::FleetSummary;
use oma_perf::runner::PhaseCycles;
use oma_pki::{CertificationAuthority, EntityRole, Timestamp, ValidityPeriod};
use oma_store::{MemLog, RiStore, Wal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The protocol timestamp every fleet interaction uses. A fixed instant
/// keeps runs reproducible; OCSP freshness and datetime constraints are
/// exercised by the dedicated adversarial suites instead.
fn now() -> Timestamp {
    Timestamp::new(1_000)
}

use oma_drm::CERT_VALIDITY_SECONDS;

/// Parameters of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Number of simulated devices.
    pub devices: usize,
    /// Worker threads driving the devices.
    pub workers: usize,
    /// Full Acquisition → Installation → Consumption cycles per device
    /// (registration happens once per device).
    pub acquisitions_per_device: usize,
    /// Number of distinct content items in the Rights Issuer's catalogue.
    pub contents: usize,
    /// Plaintext length of each content item in bytes.
    pub content_len: usize,
    /// RSA modulus size for the CA, the service and every device.
    pub rsa_modulus_bits: usize,
    /// Base seed; every per-device seed derives from it.
    pub base_seed: u64,
}

impl FleetSpec {
    /// A fleet of `devices` devices driven by `workers` threads, with one
    /// acquisition cycle per device over a small catalogue (test-sized
    /// 384-bit keys, 1 KiB content).
    pub fn new(devices: usize, workers: usize) -> Self {
        FleetSpec {
            devices,
            workers,
            acquisitions_per_device: 1,
            contents: 4,
            content_len: 1024,
            rsa_modulus_bits: 384,
            base_seed: 0xf1ee7,
        }
    }

    /// A minimal fleet for doctests and smoke checks.
    pub fn smoke() -> Self {
        FleetSpec {
            contents: 2,
            content_len: 256,
            ..Self::new(3, 2)
        }
    }

    /// The identifier of device `index` (fixed width, so every ROAP message
    /// a device sends has the same length regardless of its index).
    pub fn device_id(&self, index: usize) -> String {
        format!("dev-{index:05}")
    }

    /// The RNG seed of device `index`. Each device derives all of its key
    /// material and nonces from this seed alone.
    pub fn device_seed(&self, index: usize) -> u64 {
        self.base_seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Returns the spec with a different worker count (the sequential
    /// reference of a concurrent spec is `with_workers(1)`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the spec with a different number of acquisition cycles per
    /// device.
    pub fn with_acquisitions(mut self, acquisitions_per_device: usize) -> Self {
        self.acquisitions_per_device = acquisitions_per_device;
        self
    }
}

/// One catalogue entry the fleet acquires rights for.
#[derive(Debug)]
struct CatalogItem {
    content_id: String,
    dcf: Dcf,
    digest: [u8; DIGEST_SIZE],
}

/// Everything one device observed during its life-cycle. Two runs of the
/// same spec must produce equal outcomes for every device, no matter how
/// the scheduler interleaved them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceOutcome {
    /// The device identifier.
    pub device_id: String,
    /// Rights Object ids the service issued to this device, in order.
    pub ro_ids: Vec<String>,
    /// SHA-1 digest of each recovered plaintext, in acquisition order.
    pub content_digests: Vec<[u8; DIGEST_SIZE]>,
    /// Per-phase operation traces of the device's crypto engine (consumption
    /// holds the sum over all accesses).
    pub traces: PhaseTraces,
    /// Per-phase cycles charged by the device's backend. The consumption
    /// field holds the sum over all of this device's accesses, so total
    /// this with [`PhaseCycles::sum`], not `total(accesses)`.
    pub cycles: PhaseCycles,
}

/// The result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock duration of the device-driving portion of the run.
    pub elapsed: Duration,
    /// Devices registered with the service when the run finished.
    pub registrations: u64,
    /// Rights Objects the service issued.
    pub rights_objects: u64,
    /// Per-device outcomes, sorted by device id.
    pub devices: Vec<DeviceOutcome>,
    /// Fleet-wide per-phase operation traces (sum over devices).
    pub traces: PhaseTraces,
    /// Fleet-wide per-phase cycle totals (sum over devices; the consumption
    /// field holds the summed figure — see [`PhaseCycles::sum`]).
    pub cycles: PhaseCycles,
}

impl FleetReport {
    /// Builds the printable summary for this run.
    pub fn summary(&self, name: &str) -> FleetSummary {
        FleetSummary {
            name: name.to_string(),
            workers: self.workers,
            devices: self.devices.len(),
            elapsed_secs: self.elapsed.as_secs_f64(),
            registrations: self.registrations,
            rights_objects: self.rights_objects,
            phase_cycles: self.cycles,
        }
    }

    /// Rights Object ids that were issued more than once across the whole
    /// fleet. Must be empty: a duplicate would mean two devices hold the
    /// same license identity.
    pub fn duplicate_ro_ids(&self) -> Vec<String> {
        let mut all: Vec<&String> = self.devices.iter().flat_map(|d| d.ro_ids.iter()).collect();
        all.sort_unstable();
        let mut duplicates = Vec::new();
        for pair in all.windows(2) {
            if pair[0] == pair[1] && duplicates.last() != Some(pair[0]) {
                duplicates.push(pair[0].clone());
            }
        }
        duplicates
    }

    /// Whether this run's deterministic observables — per-device outcomes,
    /// aggregate traces and cycles, registration and RO counts — equal
    /// `other`'s. Wall-clock time and worker count are excluded: they are
    /// the two things *allowed* to differ between a concurrent run and its
    /// sequential reference.
    pub fn matches(&self, other: &FleetReport) -> bool {
        self.devices == other.devices
            && self.traces == other.traces
            && self.cycles == other.cycles
            && self.registrations == other.registrations
            && self.rights_objects == other.rights_objects
    }
}

/// Builds the shared world: CA, service and content catalogue. Setup is
/// single-threaded and fully determined by the spec.
fn build_world(spec: &FleetSpec) -> (Mutex<CertificationAuthority>, RiService, Vec<CatalogItem>) {
    let mut rng = StdRng::seed_from_u64(spec.base_seed);
    let mut ca = CertificationAuthority::new("cmla", spec.rsa_modulus_bits, &mut rng);
    let service = RiService::new("ri.fleet", spec.rsa_modulus_bits, &mut ca, &mut rng);
    let catalog = build_catalog(spec, &service, &mut rng);
    (Mutex::new(ca), service, catalog)
}

/// Packages the content catalogue and registers it with the service. Split
/// from [`build_world`] so the durable driver can attach the journal (and
/// write the genesis snapshot) *before* the catalogue events flow.
fn build_catalog(spec: &FleetSpec, service: &RiService, rng: &mut StdRng) -> Vec<CatalogItem> {
    let ci = ContentIssuer::new("ci.fleet");
    (0..spec.contents.max(1))
        .map(|c| {
            let mut content_rng = StdRng::seed_from_u64(spec.base_seed ^ (((c as u64) << 32) | 1));
            let mut content = vec![0u8; spec.content_len];
            rand::RngCore::fill_bytes(&mut content_rng, &mut content);
            let content_id = format!("cid:fleet-{c:03}");
            let (dcf, cek) = ci.package(&content, &content_id, rng);
            service.add_content(
                &content_id,
                cek,
                &dcf,
                RightsTemplate::unlimited(Permission::Play),
            );
            CatalogItem {
                content_id,
                dcf,
                digest: sha1(&content),
            }
        })
        .collect()
}

/// The shared fan-out primitive of every driver: `workers` threads pull
/// device indices from one atomic counter and run `f` per index; results
/// come back in index order. The first error any device hit is propagated
/// after all workers finish.
fn device_pool<T: Send>(
    count: usize,
    workers: usize,
    f: impl Fn(usize) -> Result<T, DrmError> + Sync,
) -> Result<Vec<T>, DrmError> {
    let slots: Vec<Mutex<Option<Result<T, DrmError>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let outcome = f(index);
                *slots[index].lock().expect("slot lock") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every device index was claimed")
        })
        .collect()
}

/// Provisions one device: key pair, certificate from the shared CA, and an
/// agent on a fresh metered software backend. Every `drive_device` call
/// provisions through here, so every transport drives byte-identical
/// devices.
fn provision_device(
    spec: &FleetSpec,
    index: usize,
    ca: &Mutex<CertificationAuthority>,
) -> (DrmAgent, Arc<SoftwareBackend>) {
    let mut rng = StdRng::seed_from_u64(spec.device_seed(index));
    let backend = Arc::new(SoftwareBackend::new());
    let device_id = spec.device_id(index);
    // Generate the (expensive) device key pair outside the CA lock, so
    // workers never serialise on key generation; the lock covers only the
    // certificate signature.
    let keys = RsaKeyPair::generate(spec.rsa_modulus_bits, &mut rng);
    let (certificate, ca_root) = {
        let mut ca = ca.lock().expect("ca lock");
        let certificate = ca.issue(
            &device_id,
            EntityRole::DrmAgent,
            keys.public().clone(),
            ValidityPeriod::starting_at(Timestamp::new(0), CERT_VALIDITY_SECONDS),
        );
        (certificate, ca.root_certificate().clone())
    };
    let agent = DrmAgent::with_credentials(
        &device_id,
        keys,
        certificate,
        ca_root,
        Arc::<SoftwareBackend>::clone(&backend),
        &mut rng,
    );
    (agent, backend)
}

/// Drives one device through registration plus its acquisition cycles over
/// an arbitrary ROAP transport. Every driver — in-process, loopback TCP —
/// runs this one code path, which is what makes their per-device outcomes
/// (traces, cycles, RO ids, recovered content) byte-identical.
fn drive_device<T: RoapTransport>(
    spec: &FleetSpec,
    index: usize,
    ri_id: &str,
    client: &RoapClient<T>,
    ca: &Mutex<CertificationAuthority>,
    catalog: &[CatalogItem],
) -> Result<DeviceOutcome, DrmError> {
    let (mut agent, backend) = provision_device(spec, index, ca);
    let device_id = spec.device_id(index);

    let mut traces = PhaseTraces::new();
    let mut cycles = PhaseCycles::default();
    agent.engine().reset_trace();
    backend.take_charged_cycles();

    agent.register(client, now())?;
    traces.registration.merge(&agent.engine().take_trace());
    cycles.registration += backend.take_charged_cycles();

    let mut ro_ids = Vec::with_capacity(spec.acquisitions_per_device);
    let mut content_digests = Vec::with_capacity(spec.acquisitions_per_device);
    for k in 0..spec.acquisitions_per_device {
        let item = &catalog[(index + k) % catalog.len()];

        let response = agent.acquire_rights(client, ri_id, &item.content_id, now())?;
        traces.acquisition.merge(&agent.engine().take_trace());
        cycles.acquisition += backend.take_charged_cycles();

        let ro_id = agent.install_rights(&response, now())?;
        traces.installation.merge(&agent.engine().take_trace());
        cycles.installation += backend.take_charged_cycles();

        let plaintext = agent.consume(&ro_id, &item.dcf, Permission::Play, now())?;
        traces
            .consumption_per_access
            .merge(&agent.engine().take_trace());
        cycles.consumption_per_access += backend.take_charged_cycles();

        let digest = sha1(&plaintext);
        assert_eq!(
            digest, item.digest,
            "{device_id} recovered corrupted content for {}",
            item.content_id
        );
        content_digests.push(digest);
        ro_ids.push(ro_id.as_str().to_string());
    }

    Ok(DeviceOutcome {
        device_id,
        ro_ids,
        content_digests,
        traces,
        cycles,
    })
}

/// Runs the fleet: `spec.workers` threads pull device indices from a shared
/// queue and drive each device's full life-cycle against one shared
/// [`RiService`].
///
/// # Errors
///
/// Propagates the first [`DrmError`] any device hit — a failure means the
/// protocol itself broke under concurrency, which is precisely what the
/// harness exists to detect.
pub fn run_fleet(spec: &FleetSpec) -> Result<FleetReport, DrmError> {
    let (ca, service, catalog) = build_world(spec);
    let workers = spec.workers.max(1);

    let started = Instant::now();
    let client = RoapClient::in_proc(&service);
    let devices = device_pool(spec.devices, workers, |index| {
        drive_device(spec, index, service.id(), &client, &ca, &catalog)
    })?;
    let elapsed = started.elapsed();

    Ok(collect_report(devices, workers, elapsed, &service))
}

/// Collects the per-device outcomes of a finished run into the sorted,
/// fleet-aggregated report. Shared by every driver.
fn collect_report(
    mut devices: Vec<DeviceOutcome>,
    workers: usize,
    elapsed: Duration,
    service: &RiService,
) -> FleetReport {
    devices.sort_by(|a, b| a.device_id.cmp(&b.device_id));

    let mut traces = PhaseTraces::new();
    let mut cycles = PhaseCycles::default();
    for device in &devices {
        traces.merge(&device.traces);
        cycles.merge(&device.cycles);
    }

    FleetReport {
        workers,
        elapsed,
        registrations: service.registered_count() as u64,
        rights_objects: service.issued_ro_count(),
        devices,
        traces,
        cycles,
    }
}

/// Runs the same fleet on a single thread — the reference run that
/// concurrent results are compared against.
///
/// # Errors
///
/// See [`run_fleet`].
pub fn run_sequential(spec: &FleetSpec) -> Result<FleetReport, DrmError> {
    run_fleet(&spec.clone().with_workers(1))
}

/// Runs the fleet **over loopback TCP**: a [`RoapEventServer`] (clock
/// pinned to the fleet's fixed protocol timestamp) serves one shared
/// [`RiService`], and every device opens its own connection, drives its
/// full life-cycle through a `RoapClient<TcpTransport>`, and disconnects —
/// so a run of N devices is also N accept/serve/hang-up cycles, the
/// connection-churn pattern the in-process drivers cannot express.
///
/// The device-driving code path is byte-for-byte the one [`run_fleet`]
/// uses; only the transport differs. The deterministic observables —
/// per-device RO ids, recovered-content digests, per-phase operation traces
/// and cycle bills — therefore `match` the in-process reference exactly:
/// `run_fleet_tcp(spec)?.matches(&run_sequential(spec)?)` holds.
///
/// # Errors
///
/// See [`run_fleet`]; additionally [`DrmError::Transport`] when the server
/// cannot bind or a connection fails mid-protocol.
pub fn run_fleet_tcp(spec: &FleetSpec) -> Result<FleetReport, DrmError> {
    let (ca, service, catalog) = build_world(spec);
    let service = Arc::new(service);
    let workers = spec.workers.max(1);
    let server = RoapEventServer::bind(
        Arc::clone(&service),
        ServerConfig::default().with_clock(now()),
    )?;
    let addr = server.local_addr();

    let started = Instant::now();
    let devices = device_pool(spec.devices, workers, |index| {
        TcpTransport::connect(addr).and_then(|transport| {
            let client = RoapClient::new(transport);
            drive_device(spec, index, service.id(), &client, &ca, &catalog)
        })
    })?;
    let elapsed = started.elapsed();
    server.shutdown();

    Ok(collect_report(devices, workers, elapsed, &service))
}

// ----- wire-wave engine ------------------------------------------------------
//
// One protocol engine drives every wire-shaped fleet: requests are prepared
// client-side in worker chunks, exchanged through a pluggable batch-dispatch
// function, and completed client-side — with per-device progress flags, so a
// wave can be re-entered after the dispatch function reports that the
// service died mid-batch. `run_fleet_durable` plugs in a frame-counting
// dispatcher that kills and later recovers the service; `run_fleet_cluster`
// plugs in a router over replicated shards that kills and fails over one
// primary. Both loop over `attempt_wave`; neither duplicates the protocol.

/// The server side of one wave, as the wave engine sees it: given the
/// pending request frames (in device order), return one response frame per
/// request — or `None` for requests the service never answered because it
/// died mid-batch. Infrastructure failures (a socket error, a poisoned
/// stream) are `Err`; a planned kill is data, not an error.
type BatchDispatch<'a> = dyn FnMut(&[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>, DrmError> + 'a;

/// Per-device state carried between waves.
struct WireDevice {
    index: usize,
    device_id: String,
    agent: DrmAgent,
    backend: Arc<SoftwareBackend>,
    traces: PhaseTraces,
    cycles: PhaseCycles,
    ro_ids: Vec<String>,
    content_digests: Vec<[u8; DIGEST_SIZE]>,
    /// Raw `RoResponse` frames in acquisition order — the bytes the
    /// crash-recovery suite compares against an uninterrupted reference.
    ro_frames: Vec<Vec<u8>>,
    /// Progress flags: a wave re-entered after a crash skips devices that
    /// already hold this wave's result.
    registered: bool,
    acquired_rounds: usize,
    hello: Option<RiHello>,
    registration: Option<RegistrationRequest>,
    registration_response: Option<RegistrationResponse>,
    ro_request: Option<RoRequest>,
    ro_response: Option<RoResponse>,
}

/// Provisions the whole fleet: key generation (the expensive part) fans out
/// through the shared device pool, but certificates are issued in device
/// order afterwards — CA serial numbers end up pinned in *server* state at
/// registration, so the crash-recovery suite's whole-state comparison needs
/// them deterministic, not scheduler-ordered.
fn provision_wire_devices(
    spec: &FleetSpec,
    ca: &Mutex<CertificationAuthority>,
    workers: usize,
) -> Result<Vec<WireDevice>, DrmError> {
    let keys = device_pool(spec.devices, workers, |index| {
        let mut rng = StdRng::seed_from_u64(spec.device_seed(index));
        let keys = RsaKeyPair::generate(spec.rsa_modulus_bits, &mut rng);
        Ok((keys, rng))
    })?;
    let mut ca = ca.lock().expect("ca lock");
    let devices = keys
        .into_iter()
        .enumerate()
        .map(|(index, (keys, mut rng))| {
            let device_id = spec.device_id(index);
            let certificate = ca.issue(
                &device_id,
                EntityRole::DrmAgent,
                keys.public().clone(),
                ValidityPeriod::starting_at(Timestamp::new(0), CERT_VALIDITY_SECONDS),
            );
            let backend = Arc::new(SoftwareBackend::new());
            let agent = DrmAgent::with_credentials(
                &device_id,
                keys,
                certificate,
                ca.root_certificate().clone(),
                Arc::<SoftwareBackend>::clone(&backend),
                &mut rng,
            );
            agent.engine().reset_trace();
            backend.take_charged_cycles();
            wire_device(index, device_id, agent, backend)
        })
        .collect();
    Ok(devices)
}

/// A freshly provisioned, not-yet-registered wire device.
fn wire_device(
    index: usize,
    device_id: String,
    agent: DrmAgent,
    backend: Arc<SoftwareBackend>,
) -> WireDevice {
    WireDevice {
        index,
        device_id,
        agent,
        backend,
        traces: PhaseTraces::new(),
        cycles: PhaseCycles::default(),
        ro_ids: Vec::new(),
        content_digests: Vec::new(),
        ro_frames: Vec::new(),
        registered: false,
        acquired_rounds: 0,
        hello: None,
        registration: None,
        registration_response: None,
        ro_request: None,
        ro_response: None,
    }
}

/// Runs `f` over every device, the slice split into one contiguous chunk per
/// worker thread. Device state never crosses a thread boundary mid-wave, so
/// outcomes stay deterministic per device.
fn wire_wave<F>(devices: &mut [WireDevice], workers: usize, f: F) -> Result<(), DrmError>
where
    F: Fn(&mut WireDevice) -> Result<(), DrmError> + Sync,
{
    if devices.is_empty() {
        return Ok(());
    }
    let chunk = devices.len().div_ceil(workers.max(1));
    let mut first_error = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .chunks_mut(chunk)
            .map(|chunk| {
                scope.spawn(|| {
                    for device in chunk {
                        f(device)?;
                    }
                    Ok::<(), DrmError>(())
                })
            })
            .collect();
        for handle in handles {
            if let Err(e) = handle.join().expect("wire wave worker") {
                first_error.get_or_insert(e);
            }
        }
    });
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// One request/response exchange for every device `pending` selects:
/// `build` encodes the request frame, the dispatch function produces
/// response frames, `accept` consumes each answered device's PDU. Returns
/// whether every pending device was answered — `false` means the service
/// died mid-batch and the wave must be re-entered once it is back.
fn exchange(
    devices: &mut [WireDevice],
    pending: impl Fn(&WireDevice) -> bool,
    build: impl Fn(&WireDevice) -> Vec<u8>,
    mut accept: impl FnMut(&mut WireDevice, &[u8], RoapPdu) -> Result<(), DrmError>,
    dispatch: &mut BatchDispatch<'_>,
) -> Result<bool, DrmError> {
    let indices: Vec<usize> = devices
        .iter()
        .enumerate()
        .filter(|(_, d)| pending(d))
        .map(|(i, _)| i)
        .collect();
    if indices.is_empty() {
        return Ok(true);
    }
    let frames: Vec<Vec<u8>> = indices.iter().map(|&i| build(&devices[i])).collect();
    let responses = dispatch(&frames)?;
    if responses.len() != frames.len() {
        return Err(DrmError::Transport(format!(
            "batch answered {} of {} requests",
            responses.len(),
            frames.len()
        )));
    }
    let mut complete = true;
    for (&index, response) in indices.iter().zip(&responses) {
        match response {
            None => complete = false,
            Some(frame) => {
                let pdu = RoapPdu::decode(frame).map_err(DrmError::Roap)?;
                if let RoapPdu::Status(status) = &pdu {
                    status.into_result()?;
                }
                accept(&mut devices[index], frame, pdu)?;
            }
        }
    }
    Ok(complete)
}

/// Wave 1: `DeviceHello` for every device that has no session yet.
fn hello_wave(
    devices: &mut [WireDevice],
    dispatch: &mut BatchDispatch<'_>,
) -> Result<bool, DrmError> {
    exchange(
        devices,
        |d| !d.registered && d.hello.is_none(),
        |d| RoapPdu::DeviceHello(DeviceHello::new(&d.device_id)).encode(),
        |device, _frame, pdu| match pdu {
            RoapPdu::RiHello(hello) => {
                device.hello = Some(hello);
                Ok(())
            }
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        },
        dispatch,
    )
}

/// Wave 2: signed `RegistrationRequest`s, then verification of the
/// responses. Requests are built exactly once per device (client-side
/// nonces must not be redrawn when a wave is re-entered after a crash).
fn registration_wave(
    devices: &mut [WireDevice],
    workers: usize,
    now: Timestamp,
    dispatch: &mut BatchDispatch<'_>,
) -> Result<bool, DrmError> {
    wire_wave(devices, workers, |device| {
        if device.registered || device.registration.is_some() {
            return Ok(());
        }
        let hello = device.hello.as_ref().expect("hello wave ran").clone();
        let request = device.agent.registration_request(&hello, now)?;
        device
            .traces
            .registration
            .merge(&device.agent.engine().take_trace());
        device.cycles.registration += device.backend.take_charged_cycles();
        device.registration = Some(request);
        Ok(())
    })?;
    let complete = exchange(
        devices,
        |d| !d.registered && d.registration_response.is_none(),
        |d| RoapPdu::RegistrationRequest(d.registration.clone().expect("request built")).encode(),
        |device, _frame, pdu| match pdu {
            RoapPdu::RegistrationResponse(response) => {
                device.registration_response = Some(response);
                Ok(())
            }
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        },
        dispatch,
    )?;
    wire_wave(devices, workers, |device| {
        let Some(response) = device.registration_response.take() else {
            return Ok(());
        };
        let hello = device.hello.take().expect("hello wave ran");
        let request = device.registration.take().expect("request built");
        device
            .agent
            .complete_registration(&hello, &request, &response, now)?;
        device
            .traces
            .registration
            .merge(&device.agent.engine().take_trace());
        device.cycles.registration += device.backend.take_charged_cycles();
        device.registered = true;
        Ok(())
    })?;
    Ok(complete)
}

/// One acquisition round: `RORequest` exchange, then verify + install +
/// consume for every answered device.
fn acquisition_wave(
    devices: &mut [WireDevice],
    workers: usize,
    round: usize,
    ri_id: &str,
    catalog: &[CatalogItem],
    now: Timestamp,
    dispatch: &mut BatchDispatch<'_>,
) -> Result<bool, DrmError> {
    wire_wave(devices, workers, |device| {
        if device.acquired_rounds != round || device.ro_request.is_some() {
            return Ok(());
        }
        let item = &catalog[(device.index + round) % catalog.len()];
        let request = device
            .agent
            .ro_request(ri_id, &item.content_id, None, now)?;
        device
            .traces
            .acquisition
            .merge(&device.agent.engine().take_trace());
        device.cycles.acquisition += device.backend.take_charged_cycles();
        device.ro_request = Some(request);
        Ok(())
    })?;
    let complete = exchange(
        devices,
        |d| d.acquired_rounds == round && d.ro_response.is_none(),
        |d| RoapPdu::RoRequest(d.ro_request.clone().expect("request built")).encode(),
        |device, frame, pdu| match pdu {
            RoapPdu::RoResponse(response) => {
                device.ro_response = Some(response);
                device.ro_frames.push(frame.to_vec());
                Ok(())
            }
            _ => Err(DrmError::Roap(RoapError::Malformed)),
        },
        dispatch,
    )?;
    wire_wave(devices, workers, |device| {
        let Some(response) = device.ro_response.take() else {
            return Ok(());
        };
        let item = &catalog[(device.index + round) % catalog.len()];
        let request = device.ro_request.take().expect("request built");
        device.agent.verify_ro_response(&request, &response)?;
        device
            .traces
            .acquisition
            .merge(&device.agent.engine().take_trace());
        device.cycles.acquisition += device.backend.take_charged_cycles();

        let ro_id = device.agent.install_rights(&response, now)?;
        device
            .traces
            .installation
            .merge(&device.agent.engine().take_trace());
        device.cycles.installation += device.backend.take_charged_cycles();

        let plaintext = device
            .agent
            .consume(&ro_id, &item.dcf, Permission::Play, now)?;
        device
            .traces
            .consumption_per_access
            .merge(&device.agent.engine().take_trace());
        device.cycles.consumption_per_access += device.backend.take_charged_cycles();

        let digest = sha1(&plaintext);
        assert_eq!(
            digest, item.digest,
            "{} recovered corrupted content for {}",
            device.device_id, item.content_id
        );
        device.content_digests.push(digest);
        device.ro_ids.push(ro_id.as_str().to_string());
        device.acquired_rounds = round + 1;
        Ok(())
    })?;
    Ok(complete)
}

/// One protocol wave of a wire-shaped fleet run.
enum Wave {
    Hello,
    Register,
    Acquire(usize),
}

/// The waves of one fleet run, in order: hellos, registrations, then each
/// acquisition round.
fn waves(spec: &FleetSpec) -> Vec<Wave> {
    let mut waves = vec![Wave::Hello, Wave::Register];
    waves.extend((0..spec.acquisitions_per_device).map(Wave::Acquire));
    waves
}

/// One attempt at `wave` through `dispatch`. Returns whether every pending
/// device was answered; `false` means the service died mid-wave, and the
/// driver recovers (or fails over) before attempting the same wave again.
fn attempt_wave(
    wave: &Wave,
    devices: &mut [WireDevice],
    workers: usize,
    ri_id: &str,
    catalog: &[CatalogItem],
    dispatch: &mut BatchDispatch<'_>,
) -> Result<bool, DrmError> {
    match *wave {
        Wave::Hello => hello_wave(devices, dispatch),
        Wave::Register => registration_wave(devices, workers, now(), dispatch),
        Wave::Acquire(round) => {
            acquisition_wave(devices, workers, round, ri_id, catalog, now(), dispatch)
        }
    }
}

/// Per-device raw `RoResponse` frames (device id → frames in acquisition
/// order), sorted by device id.
pub type RoResponseFrames = Vec<(String, Vec<Vec<u8>>)>;

/// Drains every wire device into its immutable outcome (plus the captured
/// raw `RoResponse` frames), sorted by device id.
fn finish_wire_devices(devices: Vec<WireDevice>) -> (Vec<DeviceOutcome>, RoResponseFrames) {
    let mut outcomes = Vec::with_capacity(devices.len());
    let mut frames = Vec::with_capacity(devices.len());
    for device in devices {
        frames.push((device.device_id.clone(), device.ro_frames));
        outcomes.push(DeviceOutcome {
            device_id: device.device_id,
            ro_ids: device.ro_ids,
            content_digests: device.content_digests,
            traces: device.traces,
            cycles: device.cycles,
        });
    }
    outcomes.sort_by(|a, b| a.device_id.cmp(&b.device_id));
    frames.sort_by(|a, b| a.0.cmp(&b.0));
    (outcomes, frames)
}

// ----- durable mode ----------------------------------------------------------

/// The crash plan and report of a [`run_fleet_durable`] run.
///
/// Beyond the usual [`FleetReport`], the durable driver reports the raw
/// `RoResponse` frames every device received — the bytes whose equality
/// with an uninterrupted reference run *is* the crash-recovery invariant —
/// plus how often the service was killed and how many journal events each
/// recovery replayed.
#[derive(Debug, Clone)]
pub struct DurableReport {
    /// The regular fleet report (outcomes, traces, cycles, counts).
    pub fleet: FleetReport,
    /// How many times the service was killed and recovered.
    pub recoveries: u64,
    /// Journal events replayed across all recoveries.
    pub events_replayed: u64,
    /// Raw `RoResponse` frames per device (sorted by device id, frames in
    /// acquisition order) — byte-identical across killed and uninterrupted
    /// runs of the same spec.
    pub ro_response_frames: RoResponseFrames,
    /// The final state image of the (possibly recovered) service, for
    /// whole-state equality checks against a reference run.
    pub final_state: oma_drm::RiStateImage,
}

/// Runs the fleet against a journaled service over the caller-supplied
/// (fresh, empty) `store` — [`RiStore::in_memory`], or a `FileLog`-backed
/// one so the crash actually spans bytes on disk — and, when
/// `kill_after_frames` is `Some(k)`, kills the service after it has served
/// `k` frames, recovers it from WAL + snapshot, and finishes the remaining
/// devices against the recovered instance.
///
/// `kill_after_frames = None` is the uninterrupted reference: same
/// journaling, same dispatch path, no crash. The crash-recovery invariant
/// the suite asserts is that killed and uninterrupted runs of one spec are
/// indistinguishable in every deterministic observable, raw response bytes
/// included.
///
/// # Errors
///
/// See [`run_fleet`]; additionally [`DrmError::Store`] when the store
/// cannot persist or recover state.
pub fn run_fleet_durable<L: Wal + 'static>(
    spec: &FleetSpec,
    store: Arc<RiStore<L>>,
    kill_after_frames: Option<u64>,
) -> Result<DurableReport, DrmError> {
    let workers = spec.workers.max(1);
    let started = Instant::now();

    // World setup: journal first, then genesis snapshot, then the catalogue
    // (whose entries flow into the log as events).
    let mut rng = StdRng::seed_from_u64(spec.base_seed);
    let mut ca = CertificationAuthority::new("cmla", spec.rsa_modulus_bits, &mut rng);
    let mut service = RiService::new("ri.fleet", spec.rsa_modulus_bits, &mut ca, &mut rng);
    let ri_id = service.id().to_string();
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    store.snapshot(&|| service.state_image())?;
    let catalog = build_catalog(spec, &service, &mut rng);
    let ca = Mutex::new(ca);
    let mut devices = provision_wire_devices(spec, &ca, workers)?;

    // The service "crashes" once its frame budget is exhausted: requests
    // from then on go unanswered, exactly like a power loss between two
    // acknowledged exchanges. (Torn mid-record writes are the store
    // corpus's department — see `tests/store_recovery.rs`.)
    let mut budget = kill_after_frames.unwrap_or(u64::MAX);
    let mut recoveries = 0u64;
    let mut events_replayed = 0u64;

    for wave in waves(spec) {
        loop {
            let complete = {
                let service = &service;
                let budget = &mut budget;
                let mut dispatch =
                    move |frames: &[Vec<u8>]| -> Result<Vec<Option<Vec<u8>>>, DrmError> {
                        let mut out = Vec::with_capacity(frames.len());
                        for frame in frames {
                            if *budget == 0 {
                                out.push(None);
                                continue;
                            }
                            *budget -= 1;
                            out.push(Some(service.dispatch_at(frame, now())));
                        }
                        Ok(out)
                    };
                attempt_wave(
                    &wave,
                    &mut devices,
                    workers,
                    &ri_id,
                    &catalog,
                    &mut dispatch,
                )?
            };
            if complete {
                break;
            }
            // Power loss: the dead instance is dropped wholesale; nothing
            // survives but the store. Recover and re-enter the wave — the
            // progress flags make devices that were answered pre-crash
            // skip it.
            let (recovered, report) = store.load_with_report().map_err(DrmError::from)?;
            events_replayed += report.events_applied;
            service = recovered;
            service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
            recoveries += 1;
            budget = u64::MAX;
        }
    }
    let elapsed = started.elapsed();

    store.flush()?;
    store.snapshot(&|| service.state_image())?;
    let final_state = service.state_image();
    let (outcomes, ro_response_frames) = finish_wire_devices(devices);
    Ok(DurableReport {
        fleet: collect_report(outcomes, workers, elapsed, &service),
        recoveries,
        events_replayed,
        ro_response_frames,
        final_state,
    })
}

// ----- cluster mode ----------------------------------------------------------

/// One shard of a replicated cluster: a serving primary (journaled service +
/// log shipper) and its caught-up follower, plus the deposed node left
/// behind after a failover so misrouted clients can observe the
/// `NotPrimary` redirect.
struct ShardNode {
    service: Arc<RiService>,
    primary: Primary<MemLog>,
    follower: Option<Follower<MemLog>>,
    old_primary: Option<Primary<MemLog>>,
    epoch: u64,
    killed: bool,
}

/// The result of a [`run_fleet_cluster`] run.
///
/// Beyond the usual [`FleetReport`] (summed across shards), the cluster
/// driver reports the failover evidence the acceptance suite asserts on:
/// the killed primary's state image at the instant it died, the image the
/// promoted follower recovered, and the raw `RoResponse` frames — which
/// must be byte-identical to an unkilled run of the same topology.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The regular fleet report (outcomes, traces, cycles, counts summed
    /// over all shards).
    pub fleet: FleetReport,
    /// Number of shards the fleet was spread over.
    pub shards: u32,
    /// Devices routed to each shard (index order). Sums to the fleet size.
    pub shard_devices: Vec<usize>,
    /// How many primaries were killed and failed over.
    pub failovers: u64,
    /// How many `NotPrimary` redirects clients followed after failovers.
    pub redirects: u64,
    /// The serving epoch of each shard when the run finished.
    pub final_epochs: Vec<u64>,
    /// Raw `RoResponse` frames per device (sorted by device id, frames in
    /// acquisition order) — byte-identical across killed and unkilled runs
    /// of the same topology.
    pub ro_response_frames: RoResponseFrames,
    /// The killed primary's full state image at the instant of death
    /// (after its last journaled event). `None` when nothing was killed.
    pub pre_kill_image: Option<oma_drm::RiStateImage>,
    /// The state image the promoted follower recovered from its own log —
    /// the failover invariant is `promoted_image == pre_kill_image`,
    /// byte for byte.
    pub promoted_image: Option<oma_drm::RiStateImage>,
}

/// Maps a cluster-layer failure into the fleet driver's error type.
fn cluster_err(e: oma_cluster::ClusterError) -> DrmError {
    DrmError::Transport(format!("cluster replication failed: {e}"))
}

/// Builds one shard's world: a journaled service with a genesis snapshot
/// and the content catalogue in its log, wrapped as an epoch-1 primary,
/// plus a follower caught up through the catalogue events. Every shard is
/// built from the same spec seed, so all shards hold identical key
/// material and catalogues — only the device traffic they serve differs.
fn build_shard(spec: &FleetSpec) -> Result<ShardNode, DrmError> {
    let mut rng = StdRng::seed_from_u64(spec.base_seed);
    let mut ca = CertificationAuthority::new("cmla", spec.rsa_modulus_bits, &mut rng);
    let service = RiService::new("ri.fleet", spec.rsa_modulus_bits, &mut ca, &mut rng);
    let store = Arc::new(RiStore::in_memory());
    service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
    store.snapshot(&|| service.state_image())?;
    build_catalog(spec, &service, &mut rng);
    let primary = Primary::new("node.a", 1, store);
    let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
    oma_cluster::replicate(&primary, &mut follower).map_err(cluster_err)?;
    Ok(ShardNode {
        service: Arc::new(service),
        primary,
        follower: Some(follower),
        old_primary: None,
        epoch: 1,
        killed: false,
    })
}

/// Promotes the killed shard's follower into its new primary: the old
/// primary is fenced and kept around (so clients that still address it see
/// the `NotPrimary` redirect), the follower recovers through the ordinary
/// snapshot+replay path, and a fresh follower is bootstrapped from the new
/// primary via full snapshot catch-up.
fn fail_over(shard: &mut ShardNode, index: u32) -> Result<oma_drm::RiStateImage, DrmError> {
    let follower = shard
        .follower
        .take()
        .expect("every serving shard has a follower");
    let promoted = follower.promote(shard.epoch + 1).map_err(cluster_err)?;
    shard.primary.fence();
    let node_id = format!("node.{index}.promoted");
    shard.old_primary = Some(std::mem::replace(
        &mut shard.primary,
        Primary::new(&node_id, promoted.epoch, Arc::clone(&promoted.store)),
    ));
    shard.service = promoted.service;
    shard.epoch = promoted.epoch;
    let mut fresh = Follower::in_memory(&format!("node.{index}.standby"), AckPolicy::OnFsync);
    oma_cluster::replicate(&shard.primary, &mut fresh).map_err(cluster_err)?;
    shard.follower = Some(fresh);
    shard.killed = false;
    Ok(promoted.image)
}

/// Runs the fleet against a **replicated, sharded cluster**: `shards`
/// independent journaled [`RiService`] primaries, each shipping its WAL to
/// a follower after every served frame, with devices spread across shards
/// by the consistent-hash [`ClusterRouter`]. Frames are routed by the
/// device id extracted from each raw frame
/// ([`oma_cluster::frame_device_id`]) — the driver never peeks at client
/// state.
///
/// When `kill_after_frames` is `Some(k)`, the primary that would serve
/// frame `k+1` is killed mid-wave instead: its requests go unanswered, its
/// caught-up follower is promoted under the next epoch (the deposed
/// primary stays around, fenced), and the wave re-enters. The first frame
/// subsequently routed to that shard hits the deposed node, observes the
/// [`NotPrimary`](oma_drm::wire::RoapStatus::NotPrimary) redirect, and
/// retries against the promoted primary — the full client failover story.
///
/// Every deterministic observable of the run — per-device outcomes, raw
/// `RoResponse` bytes, final states — is identical whether or not a kill
/// happened, and the whole cluster run `matches` the single-service
/// sequential reference.
///
/// # Errors
///
/// See [`run_fleet`]; additionally [`DrmError::Transport`] when
/// replication or promotion fails (a [`ClusterError`](oma_cluster::ClusterError)
/// is reported in the message).
pub fn run_fleet_cluster(
    spec: &FleetSpec,
    shards: u32,
    kill_after_frames: Option<u64>,
) -> Result<ClusterReport, DrmError> {
    let shards = shards.max(1);
    let workers = spec.workers.max(1);
    let started = Instant::now();

    let router = ClusterRouter::new(shards);
    let mut nodes = Vec::with_capacity(shards as usize);
    for _ in 0..shards {
        nodes.push(build_shard(spec)?);
    }
    let ri_id = nodes[0].service.id().to_string();

    // Devices are provisioned against shard 0's CA; all shard worlds are
    // seed-identical, so its certificates verify everywhere.
    let mut rng = StdRng::seed_from_u64(spec.base_seed);
    let mut ca = CertificationAuthority::new("cmla", spec.rsa_modulus_bits, &mut rng);
    let _ = RiService::new("ri.fleet", spec.rsa_modulus_bits, &mut ca, &mut rng);
    let catalog = {
        let scratch = RiService::from_image(nodes[0].service.state_image());
        build_catalog(spec, &scratch, &mut rng)
    };
    let ca = Mutex::new(ca);
    let mut devices = provision_wire_devices(spec, &ca, workers)?;

    let mut shard_devices = vec![0usize; shards as usize];
    for index in 0..spec.devices {
        let shard = router
            .route(&spec.device_id(index))
            .expect("non-empty ring");
        shard_devices[shard as usize] += 1;
    }

    let mut budget = kill_after_frames.unwrap_or(u64::MAX);
    let mut failovers = 0u64;
    let mut redirects = 0u64;
    let mut pre_kill_image = None;
    let mut promoted_image = None;

    for wave in waves(spec) {
        loop {
            let complete = {
                let nodes = &mut nodes;
                let router = &router;
                let budget = &mut budget;
                let pre_kill_image = &mut pre_kill_image;
                let redirects = &mut redirects;
                let mut dispatch =
                    move |frames: &[Vec<u8>]| -> Result<Vec<Option<Vec<u8>>>, DrmError> {
                        let mut out = Vec::with_capacity(frames.len());
                        for frame in frames {
                            let device = frame_device_id(frame).ok_or_else(|| {
                                DrmError::Transport("request frame without a device id".into())
                            })?;
                            let index = router.route(&device).expect("non-empty ring") as usize;
                            // A client that still addresses a deposed
                            // primary gets the NotPrimary redirect and
                            // retries against the shard's current primary.
                            let deposed = nodes[index]
                                .old_primary
                                .as_ref()
                                .is_some_and(|old| old.is_fenced());
                            if deposed {
                                let status = RoapPdu::Status(
                                    oma_drm::wire::RoapStatus::NotPrimary(index as u32),
                                )
                                .encode();
                                let RoapPdu::Status(status) =
                                    RoapPdu::decode(&status).map_err(DrmError::Roap)?
                                else {
                                    unreachable!("status frames decode to Status");
                                };
                                match status.into_result() {
                                    Err(DrmError::NotPrimary(shard)) => {
                                        debug_assert_eq!(shard as usize, index);
                                        *redirects += 1;
                                        nodes[index].old_primary = None;
                                    }
                                    other => {
                                        return Err(DrmError::Transport(format!(
                                            "expected a NotPrimary redirect, got {other:?}"
                                        )))
                                    }
                                }
                            }
                            let node = &mut nodes[index];
                            if node.killed {
                                out.push(None);
                                continue;
                            }
                            if pre_kill_image.is_none() {
                                if *budget == 0 {
                                    // The kill: exactly one primary — the
                                    // one serving this frame — dies with
                                    // everything it has journaled so far.
                                    // The rest of the cluster keeps going.
                                    node.killed = true;
                                    *pre_kill_image = Some(node.service.state_image());
                                    out.push(None);
                                    continue;
                                }
                                *budget -= 1;
                            }
                            let response = node.service.dispatch_at(frame, now());
                            // Synchronous log shipping: the follower holds
                            // every journaled event before the response is
                            // released — an acked frame can never outrun
                            // its replication.
                            let follower = node.follower.as_mut().expect("serving shard");
                            oma_cluster::replicate(&node.primary, follower).map_err(cluster_err)?;
                            out.push(Some(response));
                        }
                        Ok(out)
                    };
                attempt_wave(
                    &wave,
                    &mut devices,
                    workers,
                    &ri_id,
                    &catalog,
                    &mut dispatch,
                )?
            };
            if complete {
                break;
            }
            // Failover: promote the caught-up follower of every killed
            // shard and re-enter the wave; already-answered devices skip.
            for (index, node) in nodes.iter_mut().enumerate() {
                if node.killed {
                    promoted_image = Some(fail_over(node, index as u32)?);
                    failovers += 1;
                }
            }
        }
    }
    let elapsed = started.elapsed();

    let (outcomes, ro_response_frames) = finish_wire_devices(devices);
    let mut traces = PhaseTraces::new();
    let mut cycles = PhaseCycles::default();
    for outcome in &outcomes {
        traces.merge(&outcome.traces);
        cycles.merge(&outcome.cycles);
    }
    let fleet = FleetReport {
        workers,
        elapsed,
        registrations: nodes
            .iter()
            .map(|n| n.service.registered_count() as u64)
            .sum(),
        rights_objects: nodes.iter().map(|n| n.service.issued_ro_count()).sum(),
        devices: outcomes,
        traces,
        cycles,
    };
    Ok(ClusterReport {
        fleet,
        shards,
        shard_devices,
        failovers,
        redirects,
        final_epochs: nodes.iter().map(|n| n.epoch).collect(),
        ro_response_frames,
        pre_kill_image,
        promoted_image,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_ids_are_fixed_width_and_seeds_distinct() {
        let spec = FleetSpec::new(4, 2);
        assert_eq!(spec.device_id(0), "dev-00000");
        assert_eq!(spec.device_id(123), "dev-00123");
        assert_eq!(spec.device_id(0).len(), spec.device_id(9_999).len());
        let seeds: std::collections::HashSet<u64> = (0..100).map(|i| spec.device_seed(i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn smoke_fleet_registers_and_issues_deterministically() {
        let spec = FleetSpec::smoke();
        let run = run_fleet(&spec).unwrap();
        assert_eq!(run.registrations, spec.devices as u64);
        assert_eq!(
            run.rights_objects,
            (spec.devices * spec.acquisitions_per_device) as u64
        );
        assert!(run.duplicate_ro_ids().is_empty());
        for device in &run.devices {
            assert_eq!(device.ro_ids.len(), spec.acquisitions_per_device);
            assert!(!device.traces.registration.is_empty());
            assert!(device.cycles.registration > 0);
        }
        // Per-device RO ids depend only on the device, so the report is
        // reproducible run over run.
        let again = run_fleet(&spec).unwrap();
        assert!(run.matches(&again));
    }

    #[test]
    fn concurrent_matches_sequential_reference() {
        let spec = FleetSpec::new(6, 3);
        let concurrent = run_fleet(&spec).unwrap();
        let sequential = run_sequential(&spec).unwrap();
        assert_eq!(concurrent.workers, 3);
        assert_eq!(sequential.workers, 1);
        assert!(concurrent.matches(&sequential));
        assert_eq!(concurrent.cycles, sequential.cycles);
    }

    #[test]
    fn summary_carries_throughput() {
        let spec = FleetSpec::smoke();
        let run = run_fleet(&spec).unwrap();
        let summary = run.summary("smoke");
        assert_eq!(summary.devices, spec.devices);
        assert_eq!(summary.registrations, spec.devices as u64);
        assert!(summary.registrations_per_sec() > 0.0);
        assert!(summary.to_string().contains("ROs/s"));
    }

    #[test]
    fn tcp_fleet_matches_in_proc_reference() {
        let spec = FleetSpec::new(5, 3).with_acquisitions(2);
        let tcp = run_fleet_tcp(&spec).unwrap();
        let reference = run_sequential(&spec).unwrap();
        assert_eq!(tcp.registrations, spec.devices as u64);
        assert!(
            tcp.matches(&reference),
            "loopback-TCP outcomes must be byte-identical to direct calls"
        );
        assert!(tcp.duplicate_ro_ids().is_empty());
    }

    #[test]
    fn tcp_fleet_single_worker_matches_concurrent_tcp() {
        // Connection churn and request interleaving across the socket must
        // not leak into any deterministic observable.
        let spec = FleetSpec::smoke();
        let concurrent = run_fleet_tcp(&spec).unwrap();
        let single = run_fleet_tcp(&spec.clone().with_workers(1)).unwrap();
        assert!(concurrent.matches(&single));
    }

    #[test]
    fn durable_uninterrupted_matches_plain_reference() {
        // Several acquisition rounds over more devices than workers: the
        // wave engine's frames must answer exactly as per-device drives do.
        let spec = FleetSpec::new(5, 3).with_acquisitions(2);
        let durable = run_fleet_durable(&spec, Arc::new(RiStore::in_memory()), None).unwrap();
        let reference = run_sequential(&spec).unwrap();
        assert_eq!(durable.recoveries, 0);
        assert_eq!(durable.fleet.registrations, spec.devices as u64);
        assert!(
            durable.fleet.matches(&reference),
            "journaling must not change any deterministic observable"
        );
        assert!(durable.fleet.duplicate_ro_ids().is_empty());
    }

    #[test]
    fn durable_kill_and_recover_is_indistinguishable() {
        let spec = FleetSpec::new(4, 2).with_acquisitions(2);
        let reference = run_fleet_durable(&spec, Arc::new(RiStore::in_memory()), None).unwrap();
        // Kill mid-registration-wave: 4 hellos + 2 of 4 registrations.
        let killed = run_fleet_durable(&spec, Arc::new(RiStore::in_memory()), Some(6)).unwrap();
        assert_eq!(killed.recoveries, 1);
        assert!(killed.events_replayed > 0);
        assert!(killed.fleet.matches(&reference.fleet));
        assert!(killed.fleet.duplicate_ro_ids().is_empty());
        assert_eq!(
            killed.ro_response_frames, reference.ro_response_frames,
            "RoResponse bytes must survive the crash byte-identically"
        );
        assert_eq!(
            killed.final_state, reference.final_state,
            "recovered run must converge to the identical service state"
        );
    }

    #[test]
    fn cluster_fleet_matches_sequential_reference() {
        let spec = FleetSpec::new(6, 3);
        let cluster = run_fleet_cluster(&spec, 3, None).unwrap();
        let reference = run_sequential(&spec).unwrap();
        assert_eq!(cluster.failovers, 0);
        assert_eq!(cluster.redirects, 0);
        assert_eq!(cluster.final_epochs, vec![1, 1, 1]);
        assert_eq!(cluster.shard_devices.iter().sum::<usize>(), spec.devices);
        assert!(
            cluster.shard_devices.iter().filter(|&&n| n > 0).count() > 1,
            "fleet must actually spread over shards: {:?}",
            cluster.shard_devices
        );
        assert!(
            cluster.fleet.matches(&reference),
            "sharding must not change any deterministic observable"
        );
        assert!(cluster.fleet.duplicate_ro_ids().is_empty());
    }

    #[test]
    fn cluster_kill_the_primary_is_indistinguishable() {
        let spec = FleetSpec::new(4, 2);
        let reference = run_fleet_cluster(&spec, 2, None).unwrap();
        // Kill the primary serving the 6th frame — mid-registration-wave.
        let killed = run_fleet_cluster(&spec, 2, Some(5)).unwrap();
        assert_eq!(killed.failovers, 1);
        assert!(killed.redirects >= 1, "the deposed node must redirect");
        assert!(killed.final_epochs.contains(&2), "one shard failed over");
        assert_eq!(
            killed.pre_kill_image, killed.promoted_image,
            "promoted follower must hold the dead primary's exact state"
        );
        assert!(killed.fleet.matches(&reference.fleet));
        assert_eq!(
            killed.ro_response_frames, reference.ro_response_frames,
            "RoResponse bytes must survive the failover byte-identically"
        );
    }

    #[test]
    fn duplicate_detector_reports_duplicates() {
        let spec = FleetSpec::smoke();
        let mut run = run_fleet(&spec).unwrap();
        let stolen = run.devices[0].ro_ids[0].clone();
        run.devices[1].ro_ids.push(stolen.clone());
        assert_eq!(run.duplicate_ro_ids(), vec![stolen]);
    }
}
