//! The mostly-idle fleet scenario: tens of thousands of parked handsets,
//! a trickle of real acquisitions.
//!
//! [`run_fleet_tcp`](crate::run_fleet_tcp) models connection *churn* —
//! every device connects, does its whole life-cycle, and hangs up. A real
//! rights-issuer deployment looks nothing like that: almost every
//! connected handset is idle almost all the time, and acquisitions arrive
//! sparsely and randomly. A thread-per-connection core cannot hold that
//! shape — each parked socket would pin a thread, so a few parked devices
//! would starve everyone else. The readiness event loop holds every parked
//! connection as a little state on its one thread, which is the property
//! this scenario exercises against [`RoapEventServer`].
//!
//! [`run_idle_fleet`] runs the whole scenario in one process;
//! [`drive_idle_clients`] is the client half on its own, taking a device
//! index range so a multi-process harness (see `examples/idle_fleet.rs`)
//! can split 10k+ connections across child processes and stay inside the
//! per-process file-descriptor limit.
//!
//! Determinism is preserved end to end: arrival times are sampled from a
//! seeded exponential (Poisson process) stream, active devices are chosen
//! by a fixed stride, and every active device's
//! [`DeviceOutcome`] is checked byte-for-byte against a fresh in-process
//! reference drive before it is reported.

use crate::{
    build_world, device_pool, drive_device, drive_device_via, now, DeviceOutcome, FleetSpec,
};
use oma_drm::client::RoapClient;
use oma_drm::roap::DeviceHello;
use oma_drm::DrmError;
use oma_net::{
    MetricsSnapshot, RoapEventServer, ServerConfig, TcpTransport, DEFAULT_FRAME_TIMEOUT,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra connection headroom the server keeps beyond the parked fleet, so
/// reference clients and stragglers are never shed.
const CAP_HEADROOM: usize = 64;

/// Parameters of one mostly-idle fleet scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleFleetSpec {
    /// The underlying fleet: `fleet.devices` is the number of *parked*
    /// connections. `fleet.workers` is not used: the server serves every
    /// connection from its one loop thread, and the client side parks with
    /// [`client_threads`](IdleFleetSpec::client_threads).
    pub fleet: FleetSpec,
    /// How many of the parked devices wake up and run a full
    /// registration-and-acquisition life-cycle.
    pub active: usize,
    /// Mean gap between consecutive wake-ups (the Poisson process rate is
    /// `1 / mean_interarrival`).
    pub mean_interarrival: Duration,
    /// How long the parked connections stay up after the last acquisition
    /// finished, proving the idle population survives the active burst.
    pub hold: Duration,
    /// Client-side threads used to establish the parked connections.
    pub client_threads: usize,
}

impl IdleFleetSpec {
    /// A scenario with `devices` parked connections of which `active`
    /// wake up, 5 ms mean inter-arrival.
    pub fn new(devices: usize, active: usize) -> IdleFleetSpec {
        IdleFleetSpec {
            fleet: FleetSpec {
                acquisitions_per_device: 1,
                ..FleetSpec::new(devices, 1)
            },
            active: active.min(devices),
            mean_interarrival: Duration::from_millis(5),
            hold: Duration::from_millis(50),
            client_threads: 4,
        }
    }

    /// A tier-1-sized scenario: 96 parked devices, 4 of them active.
    pub fn smoke() -> IdleFleetSpec {
        IdleFleetSpec::new(96, 4)
    }

    /// The deterministic wake-up schedule: `(device_index, offset)` pairs
    /// in arrival order. Devices are spread over the fleet by a fixed
    /// stride; offsets are a seeded Poisson arrival process (exponential
    /// gaps). Every process that shares the spec computes the same
    /// schedule, which is what lets child processes run disjoint ranges
    /// of one fleet.
    pub fn arrivals(&self) -> Vec<(usize, Duration)> {
        let devices = self.fleet.devices.max(1);
        let stride = (devices / self.active.max(1)).max(1);
        let mut rng = StdRng::seed_from_u64(self.fleet.base_seed ^ 0x1d1e_f1ee);
        let mean = self.mean_interarrival.as_secs_f64();
        let mut at = Duration::ZERO;
        (0..self.active)
            .map(|k| {
                // Uniform in [0, 1) from the top 53 bits, then the inverse
                // CDF of the exponential distribution.
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                at += Duration::from_secs_f64(-(1.0 - u).ln() * mean);
                ((k * stride) % devices, at)
            })
            .collect()
    }
}

/// What one client process contributed to an idle-fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleClientReport {
    /// Parked connections this process held open.
    pub parked: usize,
    /// Outcomes of the active devices in this process's range, in arrival
    /// order. Each one was already verified byte-for-byte against a fresh
    /// in-process reference drive.
    pub outcomes: Vec<DeviceOutcome>,
}

/// The client half of the scenario: parks one connection per device in
/// `range` (each proves liveness with a `DeviceHello` round-trip), then
/// wakes the range's active devices at their scheduled Poisson arrival
/// times and drives each full life-cycle *over its parked connection*.
///
/// The function rebuilds the deterministic world (CA and catalog) from the
/// spec alone, so it works from a child process that shares nothing with
/// the server but the address — the multi-process shape the 10k example
/// needs to stay under the per-process fd limit.
///
/// Every active outcome is compared against a fresh in-process reference
/// drive of the same device; a divergence is an error, not a report.
///
/// # Errors
///
/// [`DrmError::Transport`] when connecting or speaking to the server
/// fails, or when an active device's outcome diverges from the in-process
/// reference; any [`DrmError`] a device's own life-cycle hit.
pub fn drive_idle_clients(
    addr: SocketAddr,
    spec: &IdleFleetSpec,
    range: Range<usize>,
) -> Result<IdleClientReport, DrmError> {
    drive_idle_clients_with(addr, spec, range, |_| ())
}

/// [`drive_idle_clients`] with a rendezvous hook: `parked` is called
/// exactly once, with the number of parked connections, after every
/// connection in `range` is established and before any active device
/// wakes up. A multi-process harness blocks inside the hook until all its
/// client processes report parked — which makes "the whole fleet was
/// connected simultaneously" a certainty rather than a race.
///
/// # Errors
///
/// See [`drive_idle_clients`].
pub fn drive_idle_clients_with(
    addr: SocketAddr,
    spec: &IdleFleetSpec,
    range: Range<usize>,
    parked: impl FnOnce(usize),
) -> Result<IdleClientReport, DrmError> {
    // The deterministic replica world: same CA, same catalog, and a fresh
    // reference service, all derived from the spec's seed.
    let (ca, reference, catalog) = build_world(&spec.fleet);
    let ri_id = reference.id().to_string();

    // Park one connection per device. A brand-new listener can momentarily
    // overflow its accept backlog under a connect storm, so retry briefly.
    let indices: Vec<usize> = range.clone().collect();
    let transports = device_pool(indices.len(), spec.client_threads, |k| {
        let transport = connect_with_retry(addr)?;
        let client = RoapClient::new(&transport);
        client.hello(&DeviceHello::new(&spec.fleet.device_id(indices[k])))?;
        Ok(transport)
    })?;
    parked(indices.len());

    // Wake the active devices on the shared schedule, each over its
    // already-parked connection.
    let started = Instant::now();
    let mut outcomes = Vec::new();
    for (device, offset) in spec.arrivals() {
        if !range.contains(&device) {
            continue;
        }
        let elapsed = started.elapsed();
        if offset > elapsed {
            std::thread::sleep(offset - elapsed);
        }
        let client = RoapClient::new(&transports[device - range.start]);
        let outcome = drive_device_via(&spec.fleet, device, &ri_id, &client, &ca, &catalog)?;
        let expected = drive_device(&spec.fleet, device, &reference, &ca, &catalog)?;
        if outcome != expected {
            return Err(DrmError::Transport(format!(
                "{}: outcome over the parked connection diverged from the in-process reference",
                outcome.device_id
            )));
        }
        outcomes.push(outcome);
    }

    // Keep the fleet parked a little longer, then hang up all at once —
    // the server absorbs `parked` EOFs in one readiness sweep.
    std::thread::sleep(spec.hold);
    drop(transports);

    Ok(IdleClientReport {
        parked: indices.len(),
        outcomes,
    })
}

fn connect_with_retry(addr: SocketAddr) -> Result<TcpTransport, DrmError> {
    let mut last = None;
    for attempt in 0..50 {
        match TcpTransport::connect(addr) {
            Ok(t) => return Ok(t),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10 * (attempt + 1).min(10)));
            }
        }
    }
    Err(last.expect("at least one connect attempt ran"))
}

/// What a whole idle-fleet run looked like, server metrics included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleFleetReport {
    /// Parked connections the run held open simultaneously.
    pub parked: usize,
    /// Verified outcomes of the active devices, in arrival order.
    pub active: Vec<DeviceOutcome>,
    /// Wall-clock time of the whole scenario.
    pub elapsed: Duration,
    /// The server's connection counters at the end of the run. The
    /// load-bearing assertion lives in `peak_active`: it must reach the
    /// parked population, all held open at once by one loop thread.
    pub metrics: MetricsSnapshot,
}

/// Builds the deterministic world for `spec` and binds a
/// [`RoapEventServer`] sized for its whole parked population: capacity for
/// every device plus headroom, an idle timeout long enough that no parked
/// connection is ever reaped, and the pinned protocol clock every fleet
/// driver uses.
///
/// [`run_idle_fleet`] calls this internally; a multi-process harness calls
/// it directly in the parent and hands the address to child processes
/// running [`drive_idle_clients`].
///
/// # Errors
///
/// [`DrmError::Transport`] when binding the loopback listener fails.
pub fn bind_idle_server(spec: &IdleFleetSpec) -> Result<RoapEventServer, DrmError> {
    let (_ca, service, _catalog) = build_world(&spec.fleet);
    RoapEventServer::bind(
        Arc::new(service),
        ServerConfig {
            clock: Some(now()),
            // Parked is the point: nothing may be reaped for being quiet.
            idle_timeout: Duration::from_secs(600),
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
            max_connections: spec.fleet.devices + CAP_HEADROOM,
            ..ServerConfig::default()
        },
    )
}

/// Runs the whole mostly-idle scenario in one process: binds a
/// [`RoapEventServer`], parks `spec.fleet.devices` connections, wakes
/// `spec.active` of them on the Poisson schedule, verifies every active
/// outcome against the in-process reference, and returns the report.
///
/// The server is configured with a long idle timeout; the scenario passing
/// with `peak_active >= devices` is the direct demonstration that one loop
/// thread holds the whole parked population.
///
/// # Errors
///
/// See [`drive_idle_clients`]; additionally [`DrmError::Transport`] when
/// the server cannot bind.
pub fn run_idle_fleet(spec: &IdleFleetSpec) -> Result<IdleFleetReport, DrmError> {
    let server = bind_idle_server(spec)?;
    let started = Instant::now();
    let clients = drive_idle_clients(server.local_addr(), spec, 0..spec.fleet.devices)?;
    let elapsed = started.elapsed();
    let metrics = server.metrics().snapshot();
    server.shutdown();

    Ok(IdleFleetReport {
        parked: clients.parked,
        active: clients.outcomes,
        elapsed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic_and_increasing() {
        let spec = IdleFleetSpec::new(1000, 8);
        let a = spec.arrivals();
        let b = spec.arrivals();
        assert_eq!(a, b, "same spec, same schedule");
        assert_eq!(a.len(), 8);
        for pair in a.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "arrival offsets are cumulative");
        }
        let devices: Vec<usize> = a.iter().map(|(d, _)| *d).collect();
        assert_eq!(devices, vec![0, 125, 250, 375, 500, 625, 750, 875]);
    }

    #[test]
    fn a_different_seed_moves_the_arrivals() {
        let spec = IdleFleetSpec::new(1000, 8);
        let mut reseeded = spec.clone();
        reseeded.fleet.base_seed ^= 1;
        assert_ne!(spec.arrivals(), reseeded.arrivals());
    }

    #[test]
    fn active_count_is_clamped_to_the_fleet() {
        let spec = IdleFleetSpec::new(4, 100);
        assert_eq!(spec.active, 4);
        assert_eq!(spec.arrivals().len(), 4);
    }

    #[test]
    fn smoke_idle_fleet_parks_everyone_and_serves_the_actives() {
        let spec = IdleFleetSpec::smoke();
        let report = run_idle_fleet(&spec).expect("idle fleet");
        assert_eq!(report.parked, spec.fleet.devices);
        assert_eq!(report.active.len(), spec.active);
        // The whole parked population was connected at once, served by
        // the one loop thread.
        assert!(
            report.metrics.peak_active >= spec.fleet.devices as u64,
            "peak_active {} < parked fleet {}",
            report.metrics.peak_active,
            spec.fleet.devices
        );
        assert_eq!(report.metrics.shed, 0, "no one was shed");
        assert_eq!(report.metrics.reaped_idle, 0, "no parked device was reaped");
    }
}
