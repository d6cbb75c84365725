//! A deterministic device-fleet load harness for the concurrent Rights
//! Issuer service.
//!
//! The paper prices OMA DRM 2 from the terminal's point of view; this crate
//! looks at the other end of the wire. [`run_fleet`] spawns N worker threads
//! that drive per-device-seeded [`DrmAgent`]s through full Registration →
//! Acquisition → Installation → Consumption cycles against **one shared
//! [`RiService`]**, and reports registration and Rights Object counts plus
//! fleet-wide per-phase operation traces — the quantities the paper's
//! Figure 6/7 tables price.
//!
//! Determinism is the harness's defining property: everything a device
//! observes is derived from that device's seed, and Rights-Object ids are
//! allocated per device by the service. A multi-threaded run therefore
//! produces, device for device, **byte-identical outcomes** to a
//! single-threaded reference run — which is exactly what the concurrency
//! test suite asserts to prove the service, whose state sits behind one
//! lock, loses no updates.
//!
//! Five drivers run that fleet, each changing one thing relative to the
//! in-process reference, and each is what one byte-identity suite calls:
//!
//! | Driver | What changes | Called by |
//! |---|---|---|
//! | [`run_fleet`] | nothing: every device talks to one service through `RoapClient::in_proc` from `workers` threads | `tests/ri_service_concurrency.rs` |
//! | [`run_sequential`] | `run_fleet` on one thread — the reference every other driver must `match` | every suite below |
//! | [`run_fleet_tcp`] | the frames cross **real loopback TCP**, one connection per device, into a [`RoapEventServer`] | `tests/net_lifecycle.rs`, `tests/event_loop.rs` |
//! | [`run_fleet_durable`] | the service **journals** into a caller-supplied `oma_store::RiStore`, and can be killed after a chosen number of served frames and recovered from WAL + snapshot; reports every raw `RoResponse` frame and the final state image | `tests/durable_recovery.rs` |
//! | [`run_fleet_cluster`] | the service is a **replicated** primary shipping its WAL to a follower after every frame, and the primary can be killed and the follower promoted | `tests/cluster_failover.rs` |
//!
//! The reports' wall-clock fields are there to print, not to claim: the
//! runs are short, the keys test-sized, and device key generation sits
//! inside the timed window. Performance figures come from the standalone
//! `benchmark/` package, which does not use this crate.
//!
//! Every driver runs one per-device life-cycle (`drive_device`, over any
//! `RoapClient` transport, through `oma_perf::runner::drive_lifecycle`, the
//! drive the paper's measured runs use too); the drivers differ only in the
//! transport. The
//! durable and cluster drivers share one transport that can kill the
//! serving instance between two frames and serve the next frame on its
//! replacement; they differ only in how the replacement is made.
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
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod idle;

pub use idle::{
    bind_idle_server, drive_idle_clients, run_idle_fleet, IdleClientReport, IdleFleetReport,
    IdleFleetSpec,
};

use oma_cluster::{replicate, AckPolicy, Follower, Primary};
use oma_crypto::backend::SoftwareBackend;
use oma_crypto::rsa::RsaKeyPair;
use oma_crypto::sha1::{sha1, DIGEST_SIZE};
use oma_drm::client::{RoapClient, RoapTransport};
use oma_drm::journal::RiJournal;
use oma_drm::wire::RoapPdu;
use oma_drm::{ContentIssuer, Dcf, DrmAgent, DrmError, Permission, RiService, RightsTemplate};
use oma_net::{RoapEventServer, ServerConfig, TcpTransport};
use oma_perf::phases::PhaseTraces;
use oma_perf::runner::drive_lifecycle;
use oma_pki::{CertificationAuthority, EntityRole, Timestamp, ValidityPeriod};
use oma_store::{MemLog, RiStore, Wal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
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
    /// Worker threads driving the devices. The durable and cluster drivers
    /// always use one.
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
    /// holds the sum over all accesses). Every device runs on the software
    /// backend, so these also fix its cycles.
    pub traces: PhaseTraces,
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
}

impl FleetReport {
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
    /// aggregate traces, registration and RO counts — equal
    /// `other`'s. Wall-clock time and worker count are excluded: they are
    /// the two things *allowed* to differ between a concurrent run and its
    /// sequential reference.
    pub fn matches(&self, other: &FleetReport) -> bool {
        self.devices == other.devices
            && self.traces == other.traces
            && self.registrations == other.registrations
            && self.rights_objects == other.rights_objects
    }
}

/// The shared world of one run: the CA (locked only to issue device
/// certificates), the service and the content catalogue.
type World = (Mutex<CertificationAuthority>, RiService, Vec<CatalogItem>);

/// Builds the shared world. Setup is single-threaded and fully determined
/// by the spec. With a `journal`, the service journals into it from a
/// genesis snapshot on, so the catalogue entries reach the log as events.
fn build_world(spec: &FleetSpec, journal: Option<Arc<dyn RiJournal>>) -> Result<World, DrmError> {
    let mut rng = StdRng::seed_from_u64(spec.base_seed);
    let mut ca = CertificationAuthority::new("cmla", spec.rsa_modulus_bits, &mut rng);
    let service = RiService::new("ri.fleet", spec.rsa_modulus_bits, &mut ca, &mut rng);
    if let Some(journal) = journal {
        service.set_journal(Arc::clone(&journal));
        service.snapshot_to(&*journal)?;
    }
    let ci = ContentIssuer::new("ci.fleet");
    let catalog = (0..spec.contents.max(1))
        .map(|c| {
            let mut content_rng = StdRng::seed_from_u64(spec.base_seed ^ (((c as u64) << 32) | 1));
            let mut content = vec![0u8; spec.content_len];
            rand::RngCore::fill_bytes(&mut content_rng, &mut content);
            let content_id = format!("cid:fleet-{c:03}");
            let (dcf, cek) = ci.package(&content, &content_id, &mut rng);
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
        .collect();
    Ok((Mutex::new(ca), service, catalog))
}

/// The fan-out primitive of the concurrent drivers: `workers` threads pull
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
/// agent on a fresh software backend of its own, whose ledger is the
/// device's trace. Every `drive_device` call provisions through here, so
/// every transport drives byte-identical devices.
fn provision_device(
    spec: &FleetSpec,
    index: usize,
    ca: &Mutex<CertificationAuthority>,
) -> DrmAgent {
    let mut rng = StdRng::seed_from_u64(spec.device_seed(index));
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
    DrmAgent::with_credentials(
        &device_id,
        keys,
        certificate,
        ca_root,
        Arc::new(SoftwareBackend::new()),
        &mut rng,
    )
}

/// Drives one device through registration plus its acquisition cycles over
/// an arbitrary ROAP transport. Every driver runs this one code path, which
/// is what makes their per-device outcomes (traces, RO ids, recovered
/// content) byte-identical.
fn drive_device<T: RoapTransport>(
    spec: &FleetSpec,
    index: usize,
    ri_id: &str,
    client: &RoapClient<T>,
    ca: &Mutex<CertificationAuthority>,
    catalog: &[CatalogItem],
) -> Result<DeviceOutcome, DrmError> {
    let mut agent = provision_device(spec, index, ca);
    let device_id = spec.device_id(index);
    let items: Vec<&CatalogItem> = (0..spec.acquisitions_per_device)
        .map(|k| &catalog[(index + k) % catalog.len()])
        .collect();
    let mut ro_ids = Vec::with_capacity(items.len());
    let mut content_digests = Vec::with_capacity(items.len());
    let traces = drive_lifecycle(
        &mut agent,
        client,
        ri_id,
        items
            .iter()
            .map(|item| (item.content_id.as_str(), &item.dcf)),
        now(),
        |ro_id, plaintext| {
            let item = items[ro_ids.len()];
            let digest = sha1(plaintext);
            assert_eq!(
                digest, item.digest,
                "{device_id} recovered corrupted content for {}",
                item.content_id
            );
            content_digests.push(digest);
            ro_ids.push(ro_id.as_str().to_string());
        },
    )?;

    Ok(DeviceOutcome {
        device_id,
        ro_ids,
        content_digests,
        traces,
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
    let (ca, service, catalog) = build_world(spec, None)?;
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
    for device in &devices {
        traces.merge(&device.traces);
    }

    FleetReport {
        workers,
        elapsed,
        registrations: service.registered_count() as u64,
        rights_objects: service.issued_ro_count(),
        devices,
        traces,
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
    let (ca, service, catalog) = build_world(spec, None)?;
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

// ----- runs that lose their Rights Issuer ------------------------------------

/// The serving side of a run whose Rights Issuer can die between two
/// frames. The durable run replaces the dead instance by recovering it from
/// its store; the cluster run fails over to the follower. Everything else —
/// the frame budget, the dispatch, the captured responses — belongs to
/// [`KillTransport`], and the devices are driven by `drive_device` like in
/// every other run.
trait Replaceable {
    /// The instance serving frames now.
    fn service(&self) -> &RiService;

    /// Runs after every served frame, before its response is released.
    fn served(&mut self) -> Result<(), DrmError> {
        Ok(())
    }

    /// Drops the dead instance and brings up its replacement.
    fn replace(&mut self) -> Result<(), DrmError>;
}

/// A ROAP transport that dispatches every frame through
/// [`RiService::dispatch_at`] on a [`Replaceable`] node. Once the kill
/// budget is spent, the next frame first replaces the node's instance and
/// is then served — the same bytes — by the replacement, like a client
/// retrying after a power loss between two acknowledged exchanges. (Torn
/// mid-record writes are the store corpus's department — see
/// `tests/store_recovery.rs`.)
struct KillTransport<'a, N> {
    node: RefCell<&'a mut N>,
    /// Frames left to serve before the kill; `None` once it fired, or when
    /// none is planned.
    budget: Cell<Option<u64>>,
    /// Raw `RoResponse` frames served since the driver last took them.
    ro_frames: RefCell<Vec<Vec<u8>>>,
}

impl<N: Replaceable> RoapTransport for KillTransport<'_, N> {
    fn roundtrip(&self, frame: &[u8]) -> Result<Vec<u8>, DrmError> {
        let mut node = self.node.borrow_mut();
        match self.budget.get() {
            Some(0) => {
                node.replace()?;
                self.budget.set(None);
            }
            Some(left) => self.budget.set(Some(left - 1)),
            None => {}
        }
        let response = node.service().dispatch_at(frame, now());
        node.served()?;
        if let Ok(RoapPdu::RoResponse(_)) = RoapPdu::decode(&response) {
            self.ro_frames.borrow_mut().push(response.clone());
        }
        Ok(response)
    }
}

/// Per-device raw `RoResponse` frames (device id → frames in acquisition
/// order), sorted by device id.
pub type RoResponseFrames = Vec<(String, Vec<Vec<u8>>)>;

/// Drives every device through a [`KillTransport`] over `node`, killed
/// after `kill_after_frames` served frames when that is `Some`. Devices run
/// in index order on one thread, so the global frame order — and with it
/// the kill point and the CA's certificate serials, which end up in server
/// state — is the same in every run of the spec.
fn drive_killable<N: Replaceable>(
    spec: &FleetSpec,
    ca: &Mutex<CertificationAuthority>,
    catalog: &[CatalogItem],
    node: &mut N,
    kill_after_frames: Option<u64>,
) -> Result<(FleetReport, RoResponseFrames), DrmError> {
    let ri_id = node.service().id().to_string();
    let client = RoapClient::new(KillTransport {
        node: RefCell::new(node),
        budget: Cell::new(kill_after_frames),
        ro_frames: RefCell::default(),
    });

    let started = Instant::now();
    let mut devices = Vec::with_capacity(spec.devices);
    let mut frames = Vec::with_capacity(spec.devices);
    for index in 0..spec.devices {
        devices.push(drive_device(spec, index, &ri_id, &client, ca, catalog)?);
        frames.push((spec.device_id(index), client.transport().ro_frames.take()));
    }
    let elapsed = started.elapsed();

    let node = client.transport().node.borrow();
    Ok((collect_report(devices, 1, elapsed, node.service()), frames))
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
    /// The regular fleet report (outcomes, traces, counts).
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

/// A journaled service and the store it recovers from.
struct DurableNode<L: Wal> {
    store: Arc<RiStore<L>>,
    service: RiService,
    recoveries: u64,
    events_replayed: u64,
}

impl<L: Wal + 'static> Replaceable for DurableNode<L> {
    fn service(&self) -> &RiService {
        &self.service
    }

    fn replace(&mut self) -> Result<(), DrmError> {
        // Power loss: the dead instance is dropped wholesale; nothing
        // survives but the store.
        let (recovered, report) = self.store.load_with_report()?;
        recovered.set_journal(Arc::clone(&self.store) as Arc<dyn RiJournal>);
        self.service = recovered;
        self.events_replayed += report.events_applied;
        self.recoveries += 1;
        Ok(())
    }
}

/// Runs the fleet against a journaled service over the caller-supplied
/// (fresh, empty) `store` — [`RiStore::in_memory`], or a `FileLog`-backed
/// one so the crash actually spans bytes on disk. When `kill_after_frames`
/// is `Some(k)`, the service is killed after it has served `k` frames and
/// recovered from WAL + snapshot, and the recovered instance serves the
/// rest. Devices run on one thread whatever `spec.workers` says.
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
    let (ca, service, catalog) = build_world(spec, Some(Arc::clone(&store) as Arc<dyn RiJournal>))?;
    let mut node = DurableNode {
        store,
        service,
        recoveries: 0,
        events_replayed: 0,
    };
    let (fleet, ro_response_frames) =
        drive_killable(spec, &ca, &catalog, &mut node, kill_after_frames)?;

    node.store.flush()?;
    node.service.snapshot_to(&*node.store)?;
    Ok(DurableReport {
        fleet,
        recoveries: node.recoveries,
        events_replayed: node.events_replayed,
        ro_response_frames,
        final_state: node.service.state_image(),
    })
}

// ----- cluster mode ----------------------------------------------------------

/// The result of a [`run_fleet_cluster`] run.
///
/// Beyond the usual [`FleetReport`], the cluster driver reports the
/// failover evidence the acceptance suite asserts on: the killed primary's
/// state image at the instant it died, the image the promoted follower
/// recovered, and the raw `RoResponse` frames — which must be
/// byte-identical to an unkilled run of the same spec.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// The regular fleet report (outcomes, traces, counts).
    pub fleet: FleetReport,
    /// How many primaries were killed and failed over.
    pub failovers: u64,
    /// The epoch the serving primary held when the run finished.
    pub final_epoch: u64,
    /// Raw `RoResponse` frames per device (sorted by device id, frames in
    /// acquisition order) — byte-identical across killed and unkilled runs
    /// of the same spec.
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

/// A replicated Rights Issuer: the serving primary (journaled service and
/// log shipper) and its caught-up follower.
struct ReplicatedPair {
    service: Arc<RiService>,
    primary: Primary<MemLog>,
    follower: Follower<MemLog>,
    epoch: u64,
    failovers: u64,
    pre_kill_image: Option<oma_drm::RiStateImage>,
    promoted_image: Option<oma_drm::RiStateImage>,
}

impl Replaceable for ReplicatedPair {
    fn service(&self) -> &RiService {
        &self.service
    }

    fn served(&mut self) -> Result<(), DrmError> {
        // Synchronous log shipping: the follower holds every journaled
        // event before the response is released — an acked frame can never
        // outrun its replication.
        replicate(&self.primary, &mut self.follower).map_err(cluster_err)?;
        Ok(())
    }

    fn replace(&mut self) -> Result<(), DrmError> {
        // The kill: the primary dies with everything it has journaled so
        // far. Its caught-up follower recovers through the ordinary
        // snapshot + replay path under the next epoch, the old primary is
        // fenced, and a fresh follower catches up from the new primary's
        // snapshot.
        self.pre_kill_image = Some(self.service.state_image());
        let standby = Follower::in_memory("node.c", AckPolicy::OnFsync);
        let promoted = std::mem::replace(&mut self.follower, standby)
            .promote(self.epoch + 1)
            .map_err(cluster_err)?;
        self.primary.fence();
        self.primary = Primary::new("node.b", promoted.epoch, promoted.store);
        self.service = promoted.service;
        self.epoch = promoted.epoch;
        self.promoted_image = Some(promoted.image);
        self.failovers += 1;
        replicate(&self.primary, &mut self.follower).map_err(cluster_err)?;
        Ok(())
    }
}

/// Runs the fleet against a **replicated primary/follower pair**: a
/// journaled [`RiService`] primary ships its WAL to a follower after every
/// served frame. Devices run on one thread whatever `spec.workers` says.
///
/// When `kill_after_frames` is `Some(k)`, the primary is killed after it
/// has served `k` frames: its caught-up follower is promoted under the next
/// epoch, the deposed primary is fenced, and the promoted node serves the
/// frame the dead one never answered.
///
/// Every deterministic observable of the run — per-device outcomes, raw
/// `RoResponse` bytes — is identical whether or not a kill happened, and
/// the whole cluster run `matches` the single-service sequential reference.
///
/// # Errors
///
/// See [`run_fleet`]; additionally [`DrmError::Transport`] when
/// replication or promotion fails (a [`ClusterError`](oma_cluster::ClusterError)
/// is reported in the message).
pub fn run_fleet_cluster(
    spec: &FleetSpec,
    kill_after_frames: Option<u64>,
) -> Result<ClusterReport, DrmError> {
    let store = Arc::new(RiStore::in_memory());
    let (ca, service, catalog) = build_world(spec, Some(Arc::clone(&store) as Arc<dyn RiJournal>))?;
    let primary = Primary::new("node.a", 1, store);
    let mut follower = Follower::in_memory("node.b", AckPolicy::OnFsync);
    replicate(&primary, &mut follower).map_err(cluster_err)?;
    let mut pair = ReplicatedPair {
        service: Arc::new(service),
        primary,
        follower,
        epoch: 1,
        failovers: 0,
        pre_kill_image: None,
        promoted_image: None,
    };
    let (fleet, ro_response_frames) =
        drive_killable(spec, &ca, &catalog, &mut pair, kill_after_frames)?;

    Ok(ClusterReport {
        fleet,
        failovers: pair.failovers,
        final_epoch: pair.epoch,
        ro_response_frames,
        pre_kill_image: pair.pre_kill_image,
        promoted_image: pair.promoted_image,
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
        // Several acquisition rounds: frames dispatched through the journaled
        // service must answer exactly as the in-process service does.
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
        // Four frames per device: the kill lands on the second device's
        // first RoRequest.
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
        let cluster = run_fleet_cluster(&spec, None).unwrap();
        let reference = run_sequential(&spec).unwrap();
        assert_eq!(cluster.failovers, 0);
        assert_eq!(cluster.final_epoch, 1);
        assert!(
            cluster.fleet.matches(&reference),
            "replication must not change any deterministic observable"
        );
        assert!(cluster.fleet.duplicate_ro_ids().is_empty());
    }

    #[test]
    fn cluster_kill_the_primary_is_indistinguishable() {
        let spec = FleetSpec::new(4, 2);
        let reference = run_fleet_cluster(&spec, None).unwrap();
        // Three frames per device: the kill lands on the second device's
        // RoRequest.
        let killed = run_fleet_cluster(&spec, Some(5)).unwrap();
        assert_eq!(killed.failovers, 1);
        assert_eq!(killed.final_epoch, 2);
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
