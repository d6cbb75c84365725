//! One run of one workload: set-up, the timed phases, the oracle's
//! post-run invariants, and the metrics under their `BENCHMARK.json` names.
//!
//! Every run has the same skeleton, whatever the workload:
//!
//! 1. **set-up** ([`setup`]) — keys, certificates, registrations,
//!    pre-signing, server bind and a discarded warm-up; built
//!    [`Plan::setup_reps`] times (the last time after the run), the median
//!    build time is `setup_s`;
//! 2. **`sat`** then **`solo`** with the workload's own traffic (over
//!    loopback sockets for the four server workloads, in-process ringtone
//!    lifecycles for `terminal_playback`);
//! 3. the **terminal probe** — the Music Player use case on fresh devices
//!    against the service as the workload left it (a handful of devices on
//!    the server workloads, as many as the time allows on
//!    `terminal_playback`);
//! 4. the **recovery probe** — restart and failover timed on an image of
//!    the final state (the WAL's crash image on `acquire_durable`, a
//!    checkpoint elsewhere).
//!
//! So every end-to-end metric has a value on every workload, measured
//! against that workload's service. The traced pass ([`traced`]) replaces
//! step 2 by a short untraced `solo`, the same `solo` with every seam
//! wrapped, an in-process pass of the same ops, an obs on/off pair and the
//! direct-call layer probes.

use crate::affinity::Pin;
use crate::layers;
use crate::ops::{self, Conn, InProc, OpError, SignedRoRequest};
use crate::recovery::{self, RecoveryProbe, RecoverySamples};
use crate::seams::{Side, Span, TimedBackend, TimedJournal, TimedWal, Tracer};
use crate::stats::{median, Measure, PhaseSamples, SLICES};
use crate::terminal::{self, TerminalSamples};
use crate::traffic::{
    keepalive_sat, register_sat, solo_phase, AcquireTraffic, HelloTraffic, RegisterTraffic,
    SliceBudget, Tally,
};
use crate::world::{now, World, BIG_CONTENT_LEN, RI_ID};
use oma_crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_drm::journal::RiJournal;
use oma_drm::DrmAgent;
use oma_net::{MetricsSnapshot, ObsConfig, RoapEventServer, ServerConfig};
use oma_store::{FileLog, FsyncPolicy, RiStore, StoreConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh device per op: connect → hello → sign → register → verify → close.
    RegisterChurn,
    /// Pre-signed `RoRequest → RoResponse` on keep-alive connections.
    AcquireKeepalive,
    /// The same traffic, journaled through `RiStore<FileLog>`, fsync Always.
    AcquireDurable,
    /// `DeviceHello → RiHello` on keep-alive connections; crypto-free.
    HelloFlood,
    /// No sockets: the paper's two use cases, in-process.
    TerminalPlayback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::RegisterChurn,
        Workload::AcquireKeepalive,
        Workload::AcquireDurable,
        Workload::HelloFlood,
        Workload::TerminalPlayback,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RegisterChurn => "register_churn",
            Workload::AcquireKeepalive => "acquire_keepalive",
            Workload::AcquireDurable => "acquire_durable",
            Workload::HelloFlood => "hello_flood",
            Workload::TerminalPlayback => "terminal_playback",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_acquire(self) -> bool {
        matches!(self, Workload::AcquireKeepalive | Workload::AcquireDurable)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of keys, content, device order and nonces.
    pub seed: u64,
    /// How long the run measures for.
    pub seconds: f64,
    /// The traced pass (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// A seconds-long functional run: one set-up, small fixed counts.
    pub smoke: bool,
}

/// Registered devices behind the keep-alive and lifecycle traffic.
const KEEPALIVE_DEVICES: usize = 64;

/// Sizes of one run, derived from `--seconds`.
///
/// Phase lengths are op counts, not durations: each phase gets a share of
/// `--seconds`, multiplied by the rate the reference box (2 vCPUs) sustains
/// on that workload, cut into [`SLICES`] slices. On the reference box a run
/// therefore measures for about `--seconds`; everywhere it performs the
/// same ops, so the state it builds and every count it reports repeat for
/// a seed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// How often set-up is built (the last time after the run); the median
    /// build time is reported.
    pub setup_reps: usize,
    /// One `sat` slice.
    pub sat: SliceBudget,
    /// One `solo` slice.
    pub solo: SliceBudget,
    /// Pre-signed requests per keep-alive device (acquire workloads).
    pub presigned_per_device: usize,
    /// Fresh devices provisioned for register traffic.
    pub churn_supply: usize,
    /// Music Player devices per slice.
    pub music_per_slice: usize,
    /// Slices of the terminal phase (1 in the traced pass).
    pub music_slices: usize,
    /// Ops of the traced `solo` pass.
    pub traced_ops: usize,
    /// The short untraced `solo` and `sat` passes inside the traced pass.
    pub short_solo: SliceBudget,
    /// See `short_solo`.
    pub short_sat: SliceBudget,
    /// Ops discarded as warm-up at the end of set-up.
    pub warmup_ops: usize,
    /// Seconds of recovery and failover repeats per round (at least one
    /// of each).
    pub recovery_round_s: f64,
}

impl Plan {
    /// The plan for `opts`.
    pub fn of(opts: &Options) -> Plan {
        let s = opts.seconds;
        // (sat, solo) ops per second on the reference box, unloaded host.
        let (sat_rate, solo_rate) = match opts.workload {
            Workload::RegisterChurn => (1_000.0, 1_000.0),
            Workload::AcquireKeepalive => (2_700.0, 2_600.0),
            Workload::AcquireDurable => (1_350.0, 1_400.0),
            Workload::HelloFlood => (135_000.0, 125_000.0),
            Workload::TerminalPlayback => (680.0, 340.0),
        };
        // Share of `--seconds` each of `sat` and `solo` gets. Register
        // traffic pays a CA signature per op in set-up, the terminal
        // workload spends most of its run in the Music Player phase.
        let share = match opts.workload {
            Workload::RegisterChurn => 0.25,
            Workload::TerminalPlayback => 0.20,
            _ => 0.36,
        };
        let budget = |rate: f64, seconds: f64| SliceBudget {
            ops: if opts.smoke {
                16
            } else {
                (rate * seconds).round().max(16.0) as usize
            },
            // Three times the nominal duration: only a host that much
            // slower than the reference box ever hits it.
            cap_seconds: (3.0 * seconds).max(0.5),
        };
        let slice_s = share * s / SLICES as f64;
        let (sat, solo) = (budget(sat_rate, slice_s), budget(solo_rate, slice_s));
        // The traced pass runs a quarter of the untraced solo phase's ops.
        let traced_ops = if opts.smoke {
            16
        } else {
            solo.ops * SLICES / 4
        };
        let (short_solo, short_sat) = (budget(solo_rate, 0.08 * s), budget(sat_rate, 0.08 * s));
        let warmup_ops = if opts.smoke { 4 } else { 32 };
        let churn_supply = if opts.workload != Workload::RegisterChurn {
            0
        } else if opts.traced {
            warmup_ops + traced_ops + traced_ops / 4 + short_solo.ops + 2 * short_sat.ops
        } else {
            warmup_ops + SLICES * (sat.ops + solo.ops)
        };
        let (music_per_slice, music_slices) = match (opts.traced, opts.workload) {
            (true, _) => (if opts.smoke { 2 } else { 4 }, 1),
            (false, _) if opts.smoke => (1, SLICES),
            (false, Workload::TerminalPlayback) => (4, SLICES),
            (false, _) => (2, SLICES),
        };
        Plan {
            setup_reps: if opts.smoke { 1 } else { 3 },
            sat,
            solo,
            presigned_per_device: if opts.workload.is_acquire() { 8 } else { 0 },
            churn_supply,
            music_per_slice,
            music_slices,
            traced_ops,
            short_solo,
            short_sat,
            warmup_ops,
            recovery_round_s: 0.008 * s,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Whether the `solo` phase ran confined to one CPU.
    pub pinned: bool,
    /// `available_parallelism` — lanes of the `sat` phase.
    pub nproc: usize,
    /// Ops attempted (every checked protocol step and probe).
    pub attempted: u64,
    /// Ops that failed the oracle, plus missed invariants, sheds and reaps.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Metrics by `BENCHMARK.json` name.
    pub metrics: Vec<(&'static str, Measure)>,
    /// The per-op latency budget, rendered (traced pass only).
    pub budget: Option<String>,
}

// ----- set-up ----------------------------------------------------------------------

struct Durable {
    store: Arc<RiStore<TimedWal<FileLog>>>,
    dir: PathBuf,
}

/// Everything set-up builds and the phases consume.
struct Rig {
    world: World,
    tracer: Arc<Tracer>,
    /// The timed backends of the traced pass, for their AES block counters.
    timed: Vec<Arc<TimedBackend>>,
    device_backend: Arc<dyn CryptoBackend>,
    /// The backend the first Music Player device runs on, alone: its cycle
    /// meter prices the use case.
    meter_backend: Arc<dyn CryptoBackend>,
    keepalive: Vec<DrmAgent>,
    order: Vec<usize>,
    presigned: Vec<Vec<SignedRoRequest>>,
    churn: Vec<DrmAgent>,
    churn_used: usize,
    music: Vec<DrmAgent>,
    music_used: usize,
    durable: Option<Durable>,
    server: Option<RoapEventServer>,
    /// Devices the service must hold once the run is over.
    expect_registered: u64,
    /// Rights Objects the service must have issued once the run is over.
    expect_ros: u64,
    /// Every Rights Object id the acquire traffic received.
    ro_ids: Vec<String>,
    /// Hello ops so far: the flood cycles its device ids across slices.
    hello_cursor: usize,
    tally: Tally,
}

fn server_config(journal: Option<Arc<dyn RiJournal>>, obs: ObsConfig) -> ServerConfig {
    ServerConfig {
        clock: Some(now()),
        store: journal,
        obs,
        ..ServerConfig::default()
    }
}

fn setup(opts: &Options, plan: &Plan, scratch: &Path, rep: usize) -> Result<Rig, String> {
    let tracer = Tracer::new();
    let mut timed = Vec::new();
    let mut backend = |side: Side| -> Arc<dyn CryptoBackend> {
        if opts.traced {
            let backend = TimedBackend::new(Arc::clone(&tracer), side);
            timed.push(Arc::clone(&backend));
            backend
        } else {
            Arc::new(SoftwareBackend::new())
        }
    };
    let server_backend = backend(Side::Server);
    let device_backend = backend(Side::Device);
    let meter_backend = backend(Side::Device);
    let mut world = World::new(opts.seed, server_backend);
    let mut tally = Tally::default();

    // The journal goes on before the first device registers, so the crash
    // image replays the whole history the run wrote.
    let mut durable = None;
    let mut journal: Option<Arc<dyn RiJournal>> = None;
    if opts.workload == Workload::AcquireDurable {
        let dir = scratch.join(format!("wal-{rep}"));
        let log = FileLog::open(&dir).map_err(|e| e.to_string())?;
        let config = StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::default()
        };
        let store = Arc::new(
            RiStore::new(TimedWal::new(log, Arc::clone(&tracer)), config)
                .map_err(|e| e.to_string())?,
        );
        journal = Some(if opts.traced {
            TimedJournal::new(
                Arc::clone(&store) as Arc<dyn RiJournal>,
                Arc::clone(&tracer),
            )
        } else {
            Arc::clone(&store) as Arc<dyn RiJournal>
        });
        durable = Some(Durable { store, dir });
    }
    // Binding attaches the journal and writes the boot snapshot.
    let server = RoapEventServer::bind(
        Arc::clone(&world.service),
        server_config(journal.clone(), ObsConfig::Off),
    )
    .map_err(|e| format!("bind: {e}"))?;

    let t = Tracer::new();
    let mut keepalive = world.provision_many(KEEPALIVE_DEVICES, &device_backend);
    let service = Arc::clone(&world.service);
    for agent in keepalive.iter_mut() {
        tally.count(ops::register(agent, &mut InProc::new(&service), RI_ID, &t));
    }
    let order = world.shuffled(KEEPALIVE_DEVICES);
    let mut presigned = Vec::new();
    if plan.presigned_per_device > 0 {
        for agent in keepalive.iter_mut() {
            let requests: Result<Vec<_>, OpError> = (0..plan.presigned_per_device)
                .map(|_| ops::sign_ro_request(agent, RI_ID, world.ring.id, &t))
                .collect();
            presigned.push(requests.map_err(|e| e.0)?);
        }
    }
    let churn = world.provision_many(plan.churn_supply, &device_backend);
    let mut music = vec![world.provision(Arc::clone(&meter_backend))];
    music.extend(world.provision_many(
        (plan.music_per_slice * plan.music_slices).saturating_sub(1),
        &device_backend,
    ));

    let mut rig = Rig {
        world,
        tracer,
        timed,
        device_backend,
        meter_backend,
        keepalive,
        order,
        presigned,
        churn,
        churn_used: 0,
        music,
        music_used: 0,
        durable,
        server: Some(server),
        expect_registered: KEEPALIVE_DEVICES as u64,
        expect_ros: 0,
        ro_ids: Vec::new(),
        hello_cursor: 0,
        tally,
    };
    warm_up(opts.workload, plan, &mut rig);
    Ok(rig)
}

/// A discarded stretch of the workload's own traffic through the bound
/// server: page in the code, fill the allocator's free lists, open the
/// kernel's loopback path.
fn warm_up(workload: Workload, plan: &Plan, rig: &mut Rig) {
    let addr = rig.server.as_ref().expect("server is up").local_addr();
    let t = Tracer::new();
    let mut warm = Tally::default();
    match workload {
        Workload::RegisterChurn => {
            let mut traffic = register_traffic(&mut rig.churn, rig.churn_used);
            for _ in 0..plan.warmup_ops {
                if let Some(outcome) = traffic.solo_socket(addr, &t) {
                    warm.count(outcome);
                }
            }
            rig.churn_used = traffic.used;
            rig.expect_registered += warm.attempted - warm.failed;
        }
        Workload::AcquireKeepalive | Workload::AcquireDurable => {
            let mut traffic =
                acquire_traffic(&mut rig.keepalive, &rig.presigned, &rig.order, &rig.world);
            if let Some(mut conn) = warm.count(Conn::connect(addr)) {
                for _ in 0..plan.warmup_ops {
                    warm.count(traffic.solo(&mut conn, false, &t));
                }
            }
            rig.expect_ros += traffic.ro_ids.len() as u64;
            rig.ro_ids.append(&mut traffic.ro_ids);
        }
        Workload::HelloFlood => {
            let mut traffic = HelloTraffic::new(&rig.keepalive, 1, rig.hello_cursor);
            if let Some(mut conn) = warm.count(Conn::connect(addr)) {
                for _ in 0..plan.warmup_ops * 8 {
                    warm.count(traffic.solo(&mut conn, &t));
                }
            }
            rig.hello_cursor = traffic.cursor;
        }
        Workload::TerminalPlayback => {
            for agent in rig.keepalive.iter_mut().take(plan.warmup_ops / 4) {
                let outcome =
                    terminal::ring_lifecycle(agent, &rig.world.service, &rig.world.ring, &t);
                rig.expect_ros += u64::from(outcome.is_ok());
                warm.count(outcome);
            }
        }
    }
    rig.tally.absorb(warm);
}

fn register_traffic(supply: &mut [DrmAgent], used: usize) -> RegisterTraffic<'_> {
    RegisterTraffic {
        supply,
        used,
        wire_bytes: 0,
    }
}

fn acquire_traffic<'a>(
    agents: &'a mut [DrmAgent],
    presigned: &'a [Vec<SignedRoRequest>],
    order: &'a [usize],
    world: &World,
) -> AcquireTraffic<'a> {
    AcquireTraffic {
        agents,
        presigned,
        order,
        content_id: world.ring.id,
        cursor: 0,
        ro_ids: Vec::new(),
        wire_bytes: 0,
    }
}

// ----- the phases -------------------------------------------------------------------

/// Which shape a phase of the workload's traffic runs in.
#[derive(Clone, Copy)]
enum Shape {
    /// `lanes` connections (or lanes) kept busy, for one slice.
    Sat { lanes: usize, budget: SliceBudget },
    /// One op in flight over a socket, for one slice. `live_sign` makes
    /// acquire traffic sign each request instead of using the pre-signed
    /// pool — the untraced reference of the traced pass, which signs live.
    Solo {
        budget: SliceBudget,
        live_sign: bool,
    },
    /// One op in flight over a socket, exactly `ops` times, every step in a
    /// span (requests signed live so the budget shows the signature).
    TracedSolo { ops: usize },
    /// The same ops dispatched in-process, exactly `ops` times, traced.
    TracedInProc { ops: usize },
}

/// Runs one phase of `workload`'s traffic against `addr` and books what it
/// added to the service. Returns the samples and the wire bytes moved.
fn traffic_phase(
    workload: Workload,
    rig: &mut Rig,
    addr: SocketAddr,
    shape: Shape,
) -> (PhaseSamples, u64) {
    let tracer = Arc::clone(&rig.tracer);
    let idle = Tracer::new();
    let mut tally = Tally::default();
    let service = Arc::clone(&rig.world.service);

    // Fixed-count traced shapes share one driver: `op(i)` runs op `i`.
    fn counted(
        ops: usize,
        tracer: &Tracer,
        tally: &mut Tally,
        mut op: impl FnMut() -> Option<Result<(), OpError>>,
    ) -> PhaseSamples {
        let mut samples = PhaseSamples::default();
        let started = Instant::now();
        for index in 0..ops {
            tracer.set_op(index as u64 + 1);
            let op_started = tracer.now_ns();
            let Some(outcome) = op() else { break };
            let op_ended = tracer.now_ns();
            tracer.push("op", op_started, op_ended);
            tally.count(outcome);
            samples.latencies_ns.push((op_ended - op_started) as f64);
        }
        tracer.set_op(0);
        samples.slices.push((
            samples.latencies_ns.len() as u64,
            started.elapsed().as_nanos() as f64,
        ));
        samples
    }

    // Keep-alive solo shapes run over one connection opened for the slice.
    fn with_conn(
        addr: SocketAddr,
        tally: &mut Tally,
        body: impl FnOnce(&mut Conn, &mut Tally) -> PhaseSamples,
    ) -> PhaseSamples {
        match Conn::connect(addr) {
            Ok(mut conn) => body(&mut conn, tally),
            Err(e) => {
                tally.fail(e.0);
                PhaseSamples::default()
            }
        }
    }

    let (samples, bytes) = match workload {
        Workload::RegisterChurn => {
            let mut traffic = register_traffic(&mut rig.churn, rig.churn_used);
            let samples = match shape {
                Shape::Sat { lanes, budget } => {
                    register_sat(addr, lanes, budget, &mut traffic, &mut tally)
                }
                Shape::Solo { budget, .. } => {
                    solo_phase(budget, &mut tally, || traffic.solo_socket(addr, &idle))
                }
                Shape::TracedSolo { ops } => counted(ops, &tracer, &mut tally, || {
                    traffic.solo_socket(addr, &tracer)
                }),
                Shape::TracedInProc { ops } => counted(ops, &tracer, &mut tally, || {
                    traffic.solo_inproc(&service, &tracer)
                }),
            };
            rig.churn_used = traffic.used;
            rig.expect_registered += tally.attempted - tally.failed;
            (samples, traffic.wire_bytes)
        }
        Workload::AcquireKeepalive | Workload::AcquireDurable => {
            let mut traffic =
                acquire_traffic(&mut rig.keepalive, &rig.presigned, &rig.order, &rig.world);
            let samples = match shape {
                Shape::Sat { lanes, budget } => {
                    keepalive_sat(addr, lanes, budget, &mut traffic, &mut tally)
                }
                Shape::Solo { budget, live_sign } => with_conn(addr, &mut tally, |conn, tally| {
                    solo_phase(budget, tally, || Some(traffic.solo(conn, live_sign, &idle)))
                }),
                Shape::TracedSolo { ops } => with_conn(addr, &mut tally, |conn, tally| {
                    counted(ops, &tracer, tally, || {
                        Some(traffic.solo(conn, true, &tracer))
                    })
                }),
                Shape::TracedInProc { ops } => {
                    let mut x = InProc::new(&service);
                    counted(ops, &tracer, &mut tally, || {
                        Some(traffic.solo(&mut x, true, &tracer))
                    })
                }
            };
            rig.expect_ros += traffic.ro_ids.len() as u64;
            let bytes = traffic.wire_bytes;
            rig.ro_ids.append(&mut traffic.ro_ids);
            (samples, bytes)
        }
        Workload::HelloFlood => {
            let lanes = match shape {
                Shape::Sat { lanes, .. } => lanes,
                _ => 1,
            };
            let mut traffic = HelloTraffic::new(&rig.keepalive, lanes, rig.hello_cursor);
            let samples = match shape {
                Shape::Sat { lanes, budget } => {
                    keepalive_sat(addr, lanes, budget, &mut traffic, &mut tally)
                }
                Shape::Solo { budget, .. } => with_conn(addr, &mut tally, |conn, tally| {
                    solo_phase(budget, tally, || Some(traffic.solo(conn, &idle)))
                }),
                Shape::TracedSolo { ops } => with_conn(addr, &mut tally, |conn, tally| {
                    counted(ops, &tracer, tally, || Some(traffic.solo(conn, &tracer)))
                }),
                Shape::TracedInProc { ops } => {
                    let mut x = InProc::new(&service);
                    counted(ops, &tracer, &mut tally, || {
                        Some(traffic.solo(&mut x, &tracer))
                    })
                }
            };
            check_unique(
                std::mem::take(&mut traffic.session_ids),
                "session id",
                &mut tally,
            );
            rig.hello_cursor = traffic.cursor;
            // Every hello superseded its device's previous session: one
            // pending session per device id cycled so far.
            let cycled = rig.hello_cursor.min(KEEPALIVE_DEVICES);
            if service.pending_session_count() != cycled {
                tally.fail(format!(
                    "pending sessions: {} instead of {cycled}",
                    service.pending_session_count()
                ));
            }
            (samples, traffic.wire_bytes)
        }
        Workload::TerminalPlayback => {
            let ring = &rig.world.ring;
            let mut next = 0usize;
            let agents = &mut rig.keepalive;
            let samples = match shape {
                Shape::Sat { lanes, budget } => {
                    let chunk = agents.len().div_ceil(lanes.max(1));
                    // Each thread runs its share of the slice's ops.
                    let budget = SliceBudget {
                        ops: budget.ops.div_ceil(lanes.max(1)),
                        ..budget
                    };
                    let threads: Vec<(PhaseSamples, Tally)> = std::thread::scope(|scope| {
                        let handles: Vec<_> = agents
                            .chunks_mut(chunk)
                            .enumerate()
                            .map(|(lane, mine)| {
                                let service = &service;
                                scope.spawn(move || {
                                    // A CPU each: left to the scheduler, the
                                    // threads of a slice often shared one.
                                    let _pin = Pin::nth_allowed(lane);
                                    let (idle, mut tally, mut next) =
                                        (Tracer::new(), Tally::default(), 0usize);
                                    let samples = solo_phase(budget, &mut tally, || {
                                        next = (next + 1) % mine.len();
                                        Some(terminal::ring_lifecycle(
                                            &mut mine[next],
                                            service,
                                            ring,
                                            &idle,
                                        ))
                                    });
                                    (samples, tally)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("lifecycle thread"))
                            .collect()
                    });
                    let mut all = Vec::new();
                    for (samples, thread_tally) in threads {
                        tally.absorb(thread_tally);
                        all.push(samples);
                    }
                    terminal::merge_parallel(all)
                }
                Shape::Solo { budget, .. } => solo_phase(budget, &mut tally, || {
                    next = (next + 1) % agents.len();
                    Some(terminal::ring_lifecycle(
                        &mut agents[next],
                        &service,
                        ring,
                        &idle,
                    ))
                }),
                Shape::TracedSolo { ops } | Shape::TracedInProc { ops } => {
                    counted(ops, &tracer, &mut tally, || {
                        next = (next + 1) % agents.len();
                        Some(terminal::ring_lifecycle(
                            &mut agents[next],
                            &service,
                            ring,
                            &tracer,
                        ))
                    })
                }
            };
            rig.expect_ros += tally.attempted - tally.failed;
            (samples, 0)
        }
    };
    rig.tally.absorb(tally);
    (samples, bytes)
}

fn check_unique<T: Ord>(mut ids: Vec<T>, what: &str, tally: &mut Tally) {
    let before = ids.len();
    ids.sort();
    ids.dedup();
    if ids.len() != before {
        tally.fail(format!("{} duplicate {what}s", before - ids.len()));
    }
}

/// The `solo` phase's placement: a second server on the same service,
/// bound by a thread already pinned to one CPU so its loop thread inherits
/// the mask, and a way to run the generator on that CPU too.
struct SoloServer {
    server: Option<RoapEventServer>,
    addr: SocketAddr,
    pinned: bool,
}

impl SoloServer {
    /// Pins, binds (unless the workload has no sockets), unpins.
    fn bind(rig: &mut Rig, workload: Workload, obs: ObsConfig) -> SoloServer {
        let pin = Pin::first_allowed();
        let mut solo = SoloServer {
            server: None,
            // Nothing listens here: ops against it fail and are counted.
            addr: SocketAddr::from(([127, 0, 0, 1], 1)),
            pinned: pin.pinned(),
        };
        if workload != Workload::TerminalPlayback {
            // The journal, when there is one, stays attached to the service;
            // this server must not write a second boot snapshot over the log.
            match RoapEventServer::bind(Arc::clone(&rig.world.service), server_config(None, obs)) {
                Ok(server) => {
                    solo.addr = server.local_addr();
                    solo.server = Some(server);
                }
                Err(e) => rig.tally.fail(format!("bind solo server: {e}")),
            }
        }
        solo
    }

    /// Runs `body` with the calling thread confined to the server's CPU.
    fn run<T>(&self, body: impl FnOnce(SocketAddr) -> T) -> T {
        let _pin = Pin::first_allowed();
        body(self.addr)
    }

    /// Stops the server; returns its connection counters.
    fn shutdown(self, tally: &mut Tally) -> MetricsSnapshot {
        match self.server {
            Some(server) => {
                check_net(&server, tally);
                let net = server.metrics().snapshot();
                server.shutdown();
                net
            }
            None => MetricsSnapshot::default(),
        }
    }
}

/// Any shed or reaped connection is a refused op.
fn check_net(server: &RoapEventServer, tally: &mut Tally) {
    let net = server.metrics().snapshot();
    for (what, count) in [
        ("shed", net.shed),
        ("reaped idle", net.reaped_idle),
        ("reaped mid-frame", net.reaped_frame),
    ] {
        if count > 0 {
            tally.failed += count;
            tally.errors.push(format!("{count} connections {what}"));
        }
    }
}

/// One slice of the Music Player use case: the next `music_per_slice`
/// fresh devices.
fn music_slice(rig: &mut Rig, plan: &Plan, t: &Tracer) -> TerminalSamples {
    let mut samples = TerminalSamples::default();
    for _ in 0..plan.music_per_slice {
        let Some(agent) = rig.music.get_mut(rig.music_used) else {
            break;
        };
        let meter = (rig.music_used == 0).then_some(rig.meter_backend.as_ref());
        terminal::music_player(agent, &rig.world, meter, &mut samples, &mut rig.tally, t);
        rig.music_used += 1;
    }
    rig.expect_registered += samples.registered;
    rig.expect_ros += samples.acquired;
    samples
}

/// Images the service's current state under `scratch/<name>` (the WAL
/// directory as it stands on the durable workload, a checkpoint elsewhere)
/// and opens a recovery probe on it.
fn image_state(rig: &mut Rig, scratch: &Path, name: &str) -> Option<RecoveryProbe> {
    let live = rig.world.service.state_image();
    let image_dir = scratch.join(name);
    let _ = std::fs::remove_dir_all(&image_dir);
    let imaged = match &rig.durable {
        // The service is quiescent and every record was fsynced before its
        // response left: the directory as it stands is the crash image.
        Some(durable) => recovery::copy_wal_dir(&durable.dir, &image_dir),
        None => recovery::write_checkpoint(&image_dir, &live),
    };
    match imaged {
        Ok(()) => RecoveryProbe::open(&image_dir, live, &mut rig.tally),
        Err(e) => {
            rig.tally.fail(format!("image: {e}"));
            None
        }
    }
}

/// The oracle's post-run invariants: the service's tables hold what the
/// run verified, no Rights Object id repeats, and the final state recovers
/// and fails over to itself.
fn check_final_state(rig: &mut Rig, scratch: &Path) {
    let service = Arc::clone(&rig.world.service);
    if service.registered_count() as u64 != rig.expect_registered {
        rig.tally.fail(format!(
            "registered_count {} but {} registrations verified",
            service.registered_count(),
            rig.expect_registered
        ));
    }
    if service.issued_ro_count() != rig.expect_ros {
        rig.tally.fail(format!(
            "issued_ro_count {} but {} responses verified",
            service.issued_ro_count(),
            rig.expect_ros
        ));
    }
    check_unique(
        std::mem::take(&mut rig.ro_ids),
        "Rights Object id",
        &mut rig.tally,
    );
    if let Some(mut probe) = image_state(rig, scratch, "final") {
        probe.round(0.0, &mut rig.tally);
    }
}

fn shut_down(rig: &mut Rig) {
    if let Some(server) = rig.server.take() {
        check_net(&server, &mut rig.tally);
        server.shutdown();
    }
    if let Some(fault) = rig.durable.as_ref().and_then(|d| d.store.fault()) {
        rig.tally.fail(format!("store fault: {fault}"));
    }
}

// ----- the two passes ----------------------------------------------------------------

/// Runs `opts` and reports. `scratch` is a directory this run may fill and
/// removes again; the traced pass leaves `trace-<workload>.jsonl` in
/// `artifacts`.
pub fn run(opts: &Options, scratch: &Path, artifacts: &Path) -> Report {
    let plan = Plan::of(opts);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup_s = Vec::new();
    let mut timed_setup = |rep: usize| {
        let started = Instant::now();
        let built = setup(opts, &plan, scratch, rep);
        setup_s.push(started.elapsed().as_secs_f64());
        built
    };
    // All builds but the last come first and the run uses the newest of
    // them; the last follows the run, so that set-up, like every other
    // metric, is timed at both ends of it.
    let mut rig = None;
    for rep in 0..(plan.setup_reps - 1).max(1) {
        // Tear the previous build down first: one server, one WAL at a time.
        if let Some(mut old) = rig.take() {
            shut_down(&mut old);
        }
        match timed_setup(rep) {
            Ok(built) => rig = Some(built),
            Err(e) => return failed_report(opts, nproc, format!("set-up: {e}")),
        }
    }
    let mut rig = rig.expect("at least one set-up repetition");
    let mut metrics: Vec<(&'static str, Measure)> = Vec::new();
    let mut budget = None;
    let pinned;

    if opts.traced {
        let (layer_metrics, table, was_pinned) =
            traced(opts, &plan, &mut rig, scratch, artifacts, nproc);
        metrics = layer_metrics;
        budget = Some(table);
        pinned = was_pinned;
    } else {
        let addr = rig.server.as_ref().expect("server is up").local_addr();
        let workload = opts.workload;
        let solo_server = SoloServer::bind(&mut rig, workload, ObsConfig::Off);
        pinned = solo_server.pinned;
        let idle = Tracer::new();
        let (mut sat, mut solo) = (PhaseSamples::default(), PhaseSamples::default());
        let mut terminal = Vec::with_capacity(SLICES);
        let mut probe = None;
        // The slices of the phases take turns, so every metric samples the
        // whole run and a spell of the host costs each a few slices only.
        for round in 0..SLICES {
            let shape = Shape::Sat {
                lanes: nproc,
                budget: plan.sat,
            };
            sat.append(traffic_phase(workload, &mut rig, addr, shape).0);
            let shape = Shape::Solo {
                budget: plan.solo,
                live_sign: false,
            };
            solo.append(solo_server.run(|addr| traffic_phase(workload, &mut rig, addr, shape).0));
            terminal.push(music_slice(&mut rig, &plan, &idle));
            if round + 1 == SLICES / 2 {
                probe = image_state(&mut rig, scratch, "halfway");
            }
            if let Some(probe) = probe.as_mut() {
                probe.round(plan.recovery_round_s, &mut rig.tally);
            }
        }
        solo_server.shutdown(&mut rig.tally);
        let recovery = probe.map(|p| p.finish(&mut rig.tally)).unwrap_or_default();
        check_final_state(&mut rig, scratch);

        // Filled in once the last build has been timed, after the run.
        metrics.push(("setup_s", Measure::exact(0.0, 0)));
        metrics.push(("capacity_ops_s", sat.rate_per_s()));
        metrics.push(("solo_p50_ms", solo.latency_p50(1e6)));
        metrics.push(("recover_ms", recovery.recover()));
        metrics.push(("failover_ms", recovery.failover()));
        metrics.extend(terminal_metrics(&terminal));
    }
    shut_down(&mut rig);
    if plan.setup_reps > 1 {
        match timed_setup(plan.setup_reps - 1) {
            Ok(mut last) => {
                shut_down(&mut last);
                rig.tally.absorb(last.tally);
            }
            Err(e) => rig.tally.fail(format!("set-up: {e}")),
        }
    }
    if let Some(setup) = metrics.iter_mut().find(|(name, _)| *name == "setup_s") {
        setup.1 = Measure::of(&setup_s);
    }
    let _ = std::fs::remove_dir_all(scratch);
    Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        traced: opts.traced,
        pinned,
        nproc,
        attempted: rig.tally.attempted,
        failed: rig.tally.failed,
        errors: rig.tally.errors,
        metrics,
        budget,
    }
}

fn failed_report(opts: &Options, nproc: usize, why: String) -> Report {
    Report {
        workload: opts.workload.name(),
        seed: opts.seed,
        traced: opts.traced,
        pinned: false,
        nproc,
        attempted: 1,
        failed: 1,
        errors: vec![why],
        metrics: Vec::new(),
        budget: None,
    }
}

/// The six terminal-side end-to-end metrics: each slice contributes the
/// median of its samples, the metric is the median of those.
fn terminal_metrics(slices: &[TerminalSamples]) -> Vec<(&'static str, Measure)> {
    let mb = BIG_CONTENT_LEN as f64 / 1e6;
    let per_slice = |samples: fn(&TerminalSamples) -> &Vec<f64>, convert: &dyn Fn(f64) -> f64| {
        let values: Vec<f64> = slices
            .iter()
            .filter(|s| !samples(s).is_empty())
            .map(|s| convert(median(samples(s))))
            .collect();
        Measure {
            n: slices.iter().map(|s| samples(s).len() as u64).sum(),
            ..Measure::of(&values)
        }
    };
    let cycles = slices.iter().find_map(|s| s.use_case_cycles).unwrap_or(0);
    vec![
        (
            "terminal_register_ms",
            per_slice(|s| &s.register_ns, &|ns| ns * 1e-6),
        ),
        (
            "terminal_acquire_ms",
            per_slice(|s| &s.acquire_ns, &|ns| ns * 1e-6),
        ),
        (
            "terminal_install_ms",
            per_slice(|s| &s.install_ns, &|ns| ns * 1e-6),
        ),
        (
            "play_mb_s",
            per_slice(|s| &s.play_ns, &|ns| mb / (ns / 1e9)),
        ),
        ("ring_access_us", per_slice(|s| &s.ring_ns, &|ns| ns * 1e-3)),
        ("terminal_mcycles", Measure::exact(cycles as f64 / 1e6, 1)),
    ]
}

// ----- the traced pass ----------------------------------------------------------------

/// Per-op totals of one span name over a traced phase.
#[derive(Debug, Default, Clone)]
struct NameStats {
    /// Spans recorded.
    count: u64,
    /// Sum of durations, ns.
    total_ns: f64,
    /// Sum of self times (duration minus children), ns.
    self_ns: f64,
    /// Every duration, ns.
    durations: Vec<f64>,
    /// Sum of start offsets from the op's start, ns (orders the budget).
    offset_ns: f64,
}

/// Aggregates spans of ops `1..` by their path from the `op` root
/// (`op/rtt/srv.rsa_private`, ...).
fn by_path(spans: &[Span]) -> BTreeMap<String, NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.nanos();
        }
    }
    let mut paths: Vec<Option<String>> = vec![None; spans.len()];
    fn path_of(index: usize, spans: &[Span], paths: &mut Vec<Option<String>>) -> String {
        if let Some(path) = &paths[index] {
            return path.clone();
        }
        let path = match spans[index].parent {
            Some(parent) => format!("{}/{}", path_of(parent, spans, paths), spans[index].name),
            None => spans[index].name.to_string(),
        };
        paths[index] = Some(path.clone());
        path
    }
    let op_start: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|span| span.name == "op")
        .map(|span| (span.op, span.start_ns))
        .collect();
    let mut stats: BTreeMap<String, NameStats> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        if span.op == 0 {
            continue;
        }
        let entry = stats.entry(path_of(index, spans, &mut paths)).or_default();
        let started = op_start.get(&span.op).copied().unwrap_or(span.start_ns);
        entry.offset_ns += span.start_ns.saturating_sub(started) as f64;
        entry.count += 1;
        entry.total_ns += span.nanos() as f64;
        entry.self_ns += span.nanos().saturating_sub(child_ns[index]) as f64;
        entry.durations.push(span.nanos() as f64);
    }
    stats
}

fn is(name: &'static str) -> impl Fn(&str) -> bool {
    move |segment| segment == name
}

fn ends(suffix: &'static str) -> impl Fn(&str) -> bool {
    move |segment| segment.ends_with(suffix)
}

/// Sums `f` over every path whose last segment satisfies `pick`.
fn sum_where(
    stats: &BTreeMap<String, NameStats>,
    pick: impl Fn(&str) -> bool,
    f: impl Fn(&NameStats) -> f64,
) -> f64 {
    stats
        .iter()
        .filter(|(path, _)| pick(path.rsplit('/').next().unwrap_or("")))
        .map(|(_, s)| f(s))
        .sum::<f64>()
        // An empty sum is -0.0; print it as 0.
        + 0.0
}

fn durations_where(stats: &BTreeMap<String, NameStats>, pick: impl Fn(&str) -> bool) -> Vec<f64> {
    stats
        .iter()
        .filter(|(path, _)| pick(path.rsplit('/').next().unwrap_or("")))
        .flat_map(|(_, s)| s.durations.iter().copied())
        .collect()
}

fn traced(
    opts: &Options,
    plan: &Plan,
    rig: &mut Rig,
    scratch: &Path,
    artifacts: &Path,
    nproc: usize,
) -> (Vec<(&'static str, Measure)>, String, bool) {
    let workload = opts.workload;
    let tracer = Arc::clone(&rig.tracer);
    let mut m: Vec<(&'static str, Measure)> = Vec::new();

    // Traced and untraced solo on one pinned server: their p50 ratio is the
    // tracing overhead. The fixed-count traced pass goes first, so that no
    // timed phase (whose op count varies) has touched the service, the
    // agents' nonce streams or the Rights Object sequences before it: its
    // counts and byte sizes then depend on the seed alone.
    let solo_server = SoloServer::bind(rig, workload, ObsConfig::Off);
    let pinned = solo_server.pinned;
    for backend in &rig.timed {
        backend.take_aes_blocks();
    }
    if let Some(durable) = &rig.durable {
        durable.store.log().take_appended_bytes();
    }
    tracer.set_enabled(true);
    let (traced_solo, wire_bytes) = solo_server.run(|addr| {
        traffic_phase(
            workload,
            rig,
            addr,
            Shape::TracedSolo {
                ops: plan.traced_ops,
            },
        )
    });
    tracer.set_enabled(false);
    let socket_spans = tracer.take();
    let aes_blocks: u64 = rig.timed.iter().map(|b| b.take_aes_blocks()).sum();
    let wal_bytes = rig
        .durable
        .as_ref()
        .map_or(0, |d| d.store.log().take_appended_bytes());
    let ops_done = traced_solo.latencies_ns.len().max(1) as f64;
    let socket = by_path(&socket_spans);

    // The same ops dispatched in-process: what the service costs without
    // the socket path around it.
    tracer.set_enabled(true);
    let addr = rig.server.as_ref().expect("server is up").local_addr();
    let (inproc_run, _) = traffic_phase(
        workload,
        rig,
        addr,
        Shape::TracedInProc {
            ops: (plan.traced_ops / 4).max(8),
        },
    );
    tracer.set_enabled(false);
    let inproc_spans = tracer.take();
    let inproc = by_path(&inproc_spans);
    let inproc_ops = inproc_run.latencies_ns.len().max(1) as f64;

    let (untraced, _) = solo_server.run(|addr| {
        traffic_phase(
            workload,
            rig,
            addr,
            Shape::Solo {
                budget: plan.short_solo,
                live_sign: true,
            },
        )
    });
    let net = solo_server.shutdown(&mut rig.tally);

    // Two short untraced sat passes of the workload's own traffic, each on
    // a server of its own: obs off (whose tail is reported) and obs on.
    let short_sat = |rig: &mut Rig, obs: ObsConfig| -> PhaseSamples {
        let shape = Shape::Sat {
            lanes: nproc,
            budget: plan.short_sat,
        };
        if workload == Workload::TerminalPlayback {
            return traffic_phase(workload, rig, addr, shape).0;
        }
        match RoapEventServer::bind(Arc::clone(&rig.world.service), server_config(None, obs)) {
            Ok(server) => {
                let samples = traffic_phase(workload, rig, server.local_addr(), shape).0;
                check_net(&server, &mut rig.tally);
                server.shutdown();
                samples
            }
            Err(e) => {
                rig.tally.fail(format!("bind sat server: {e}"));
                PhaseSamples::default()
            }
        }
    };
    let loaded = short_sat(rig, ObsConfig::Off);
    let obs_ratio = if workload == Workload::TerminalPlayback {
        0.0
    } else {
        let (off, on) = (
            loaded.rate_per_s().value,
            short_sat(rig, ObsConfig::enabled()).rate_per_s().value,
        );
        if off > 0.0 {
            on / off
        } else {
            0.0
        }
    };

    // Terminal probe and direct-call probes run traced too: their RSA spans
    // feed the per-op costs below even on the crypto-free workload.
    tracer.set_enabled(true);
    let terminal = music_slice(rig, plan, &tracer);
    let layer = layers::probe(
        &mut rig.world,
        &mut rig.keepalive,
        &rig.device_backend,
        opts.seed,
        opts.smoke,
    );
    tracer.set_enabled(false);
    rig.expect_registered += layer.registered;
    rig.expect_ros += layer.issued_ros;
    let probe_spans = tracer.take();
    let recovery = match image_state(rig, scratch, "traced") {
        Some(mut probe) => {
            probe.round(0.4, &mut rig.tally);
            probe.finish(&mut rig.tally)
        }
        None => RecoverySamples::default(),
    };
    check_final_state(rig, scratch);

    // ----- metrics ------------------------------------------------------------------
    let per_op = |stats: &BTreeMap<String, NameStats>, pick: &dyn Fn(&str) -> bool, ops: f64| {
        sum_where(stats, pick, |s| s.total_ns) / ops
    };
    let count_per_op =
        |pick: &dyn Fn(&str) -> bool| sum_where(&socket, pick, |s| s.count as f64) / ops_done;
    let med_us = |values: Vec<f64>| Measure::scaled(&values, 1e-3);

    m.extend(
        layer
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("bignum."))
            .cloned(),
    );
    let mut rsa_private = durations_where(&socket, ends("rsa_private"));
    let mut rsa_public = durations_where(&socket, ends("rsa_public"));
    for span in &probe_spans {
        if span.name.ends_with("rsa_private") {
            rsa_private.push(span.nanos() as f64);
        } else if span.name.ends_with("rsa_public") {
            rsa_public.push(span.nanos() as f64);
        }
    }
    m.push(("crypto.rsa_private_us", med_us(rsa_private)));
    m.push(("crypto.rsa_public_us", med_us(rsa_public)));
    m.push((
        "crypto.rsa_private_per_op",
        Measure::exact(count_per_op(&ends("rsa_private")), ops_done as u64),
    ));
    m.push((
        "crypto.rsa_public_per_op",
        Measure::exact(count_per_op(&ends("rsa_public")), ops_done as u64),
    ));
    m.push((
        "crypto.sha1_us_per_op",
        Measure::exact(
            per_op(&socket, &ends(".sha1"), ops_done) / 1e3,
            ops_done as u64,
        ),
    ));
    m.push((
        "crypto.hmac_us_per_op",
        Measure::exact(
            per_op(&socket, &ends(".hmac"), ops_done) / 1e3,
            ops_done as u64,
        ),
    ));
    m.push((
        "crypto.aes_blocks_per_op",
        Measure::exact(aes_blocks as f64 / ops_done, ops_done as u64),
    ));
    let op_ns = per_op(&socket, &is("op"), ops_done).max(1.0);
    let server_crypto_ns = per_op(&socket, &|s: &str| s.starts_with("srv."), ops_done);
    m.push((
        "crypto.server_busy_share",
        Measure::exact(server_crypto_ns / op_ns, ops_done as u64),
    ));
    m.extend(
        layer
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("crypto.") || name.starts_with("pki."))
            .cloned(),
    );
    m.extend(
        layer
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("drm.wire."))
            .cloned(),
    );
    m.push((
        "drm.wire.bytes_per_op",
        Measure::exact(wire_bytes as f64 / ops_done, ops_done as u64),
    ));
    m.extend(
        layer
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("drm.service."))
            .cloned(),
    );
    // Service self time: in-process dispatch minus the crypto and journal
    // spans inside it.
    let dispatch_ns = per_op(&inproc, &ends("dispatch"), inproc_ops);
    let inproc_server_ns = per_op(&inproc, &|s: &str| s.starts_with("srv."), inproc_ops)
        + per_op(&inproc, &is("journal"), inproc_ops);
    let service_self_ns = (dispatch_ns - inproc_server_ns).max(0.0);
    m.push((
        "drm.service.self_us",
        Measure::exact(service_self_ns / 1e3, inproc_ops as u64),
    ));
    m.push((
        "drm.agent.sign_us",
        Measure::scaled(&terminal.sign_ns, 1e-3),
    ));
    m.push((
        "drm.agent.verify_us",
        Measure::scaled(&terminal.verify_ns, 1e-3),
    ));
    m.push((
        "drm.agent.install_us",
        Measure::scaled(&terminal.install_ns, 1e-3),
    ));
    m.push((
        "drm.agent.consume_ms",
        Measure::scaled(&terminal.play_ns, 1e-6),
    ));

    m.push((
        "net.connect_us",
        med_us(durations_where(&socket, is("connect"))),
    ));
    m.push((
        "net.hello_rtt_us",
        med_us(durations_where(&socket, is("hello_rtt"))),
    ));
    m.push(("net.rtt_us", med_us(durations_where(&socket, is("rtt")))));
    // Net self time: what is left of the round trips once the server's
    // crypto and journal spans and the service's own time are taken out.
    // (Equal to RTT minus in-process dispatch, but each term is a
    // difference within one pass, so drift between passes cancels.)
    let rtt_self_ns = sum_where(&socket, ends("rtt"), |s| s.self_ns) / ops_done;
    let net_self_ns = (rtt_self_ns - service_self_ns).max(0.0);
    m.push((
        "net.self_us",
        Measure::exact(net_self_ns / 1e3, ops_done as u64),
    ));
    for (name, value) in [
        ("net.accepted", net.accepted),
        ("net.shed", net.shed),
        ("net.reaped_idle", net.reaped_idle),
        ("net.reaped_frame", net.reaped_frame),
        ("net.peak_active", net.peak_active),
    ] {
        m.push((name, Measure::exact(value as f64, 1)));
    }

    let journal_ns = per_op(&socket, &is("journal"), ops_done);
    let append_ns = per_op(&socket, &is("wal_append"), ops_done);
    let fsync_ns = per_op(&socket, &is("wal_fsync"), ops_done);
    m.push((
        "store.record_us",
        med_us(durations_where(&socket, is("journal"))),
    ));
    m.push((
        "store.append_us",
        med_us(durations_where(&socket, is("wal_append"))),
    ));
    m.push((
        "store.fsync_us",
        med_us(durations_where(&socket, is("wal_fsync"))),
    ));
    m.push((
        "store.encode_self_us",
        Measure::exact(
            (journal_ns - append_ns - fsync_ns).max(0.0) / 1e3,
            ops_done as u64,
        ),
    ));
    m.push((
        "store.fsyncs_per_op",
        Measure::exact(count_per_op(&is("wal_fsync")), ops_done as u64),
    ));
    m.push((
        "store.events_per_op",
        Measure::exact(count_per_op(&is("journal")), ops_done as u64),
    ));
    m.push((
        "store.wal_bytes_per_op",
        Measure::exact(wal_bytes as f64 / ops_done, ops_done as u64),
    ));
    m.push(("store.snapshot_ms", Measure::exact(recovery.snapshot_ms, 1)));
    m.push((
        "store.replay_us_per_event",
        Measure::exact(recovery.replay_us_per_event, recovery.records),
    ));
    m.push((
        "cluster.replicate_rec_per_s",
        Measure::of(&recovery.replicate_rec_per_s),
    ));
    m.push((
        "cluster.ship_bytes_per_record",
        Measure::exact(recovery.ship_bytes_per_record, recovery.records),
    ));
    m.push(("cluster.promote_ms", recovery.failover()));
    m.push(("obs.overhead_ratio", Measure::exact(obs_ratio, 1)));

    // Attributed: everything inside a named span; what is left is the
    // generator's glue between spans (the root span's own self time).
    let op_self_ns = sum_where(&socket, is("op"), |s| s.self_ns) / ops_done;
    m.push((
        "trace.attributed_share",
        Measure::exact(1.0 - op_self_ns / op_ns, ops_done as u64),
    ));
    let untraced_p50 = untraced.latency_p50(1.0).value;
    let traced_p50 = median(&traced_solo.latencies_ns);
    let overhead = if untraced_p50 > 0.0 {
        traced_p50 / untraced_p50
    } else {
        0.0
    };
    m.push((
        "trace.overhead_ratio",
        Measure::exact(overhead, ops_done as u64),
    ));
    m.push(("tail.loaded_p99_ms", loaded.latency_p99(1e6)));
    m.push(("tail.solo_p99_ms", untraced.latency_p99(1e6)));

    let table = budget_table(workload, &socket, ops_done, service_self_ns, net_self_ns);
    let jsonl = crate::seams::spans_to_jsonl(&socket_spans);
    let _ = std::fs::write(
        artifacts.join(format!("trace-{}.jsonl", workload.name())),
        jsonl,
    );
    (m, table, pinned)
}

/// Renders the per-op budget: mean time per op of every span path, its
/// self time, and the two derived rows that split a round trip's own self
/// time into service and net. Self times sum to the op.
fn budget_table(
    workload: Workload,
    stats: &BTreeMap<String, NameStats>,
    ops: f64,
    service_self_ns: f64,
    net_self_ns: f64,
) -> String {
    let mut out = format!(
        "latency budget, {} (traced solo, mean us per op over {} ops)\n  {:<44} {:>10} {:>10} {:>8}\n",
        workload.name(),
        ops as u64,
        "span",
        "total",
        "self",
        "per op"
    );
    // Depth-first, siblings in the order they start within the op.
    let mut ordered: Vec<(&String, &NameStats)> = Vec::with_capacity(stats.len());
    fn visit<'a>(
        parent: Option<&str>,
        stats: &'a BTreeMap<String, NameStats>,
        ordered: &mut Vec<(&'a String, &'a NameStats)>,
    ) {
        let mut children: Vec<(&String, &NameStats)> = stats
            .iter()
            .filter(|(path, _)| path.rsplit_once('/').map(|(head, _)| head) == parent)
            .collect();
        children.sort_by(|a, b| {
            (a.1.offset_ns / a.1.count as f64).total_cmp(&(b.1.offset_ns / b.1.count as f64))
        });
        for (path, s) in children {
            ordered.push((path, s));
            visit(Some(path.as_str()), stats, ordered);
        }
    }
    visit(None, stats, &mut ordered);
    let mut self_sum = 0.0;
    for (path, s) in ordered {
        let depth = path.matches('/').count();
        let name = path.rsplit('/').next().unwrap_or(path);
        out.push_str(&format!(
            "  {:<44} {:>10.2} {:>10.2} {:>8.2}\n",
            format!("{}{}", "  ".repeat(depth), name),
            s.total_ns / ops / 1e3,
            s.self_ns / ops / 1e3,
            s.count as f64 / ops
        ));
        self_sum += s.self_ns / ops;
        if name == "rtt" {
            let indent = "  ".repeat(depth + 1);
            out.push_str(&format!(
                "  {:<44} {:>10} {:>10.2}\n  {:<44} {:>10} {:>10.2}\n",
                format!("{indent}(service self, from in-process dispatch)"),
                "",
                service_self_ns.min(s.self_ns / ops) / 1e3,
                format!("{indent}(net self, the rest of the round trip)"),
                "",
                net_self_ns.min(s.self_ns / ops) / 1e3,
            ));
        }
    }
    let op_ns = stats.get("op").map_or(0.0, |s| s.total_ns / ops);
    out.push_str(&format!(
        "  {:<44} {:>10.2} {:>10.2}\n",
        "sum of self times / op span",
        op_ns / 1e3,
        self_sum / 1e3
    ));
    out
}
