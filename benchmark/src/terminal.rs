//! The terminal's view: the paper's two use cases, run in-process.
//!
//! * **Music Player** ([`music_player`]) — a fresh device registers,
//!   acquires rights for the 3.5 MiB track, installs them and plays it
//!   once; then acquires and installs rights for the 30 KiB ringtone and
//!   accesses it [`RING_ACCESSES`] times. Bulk AES-CBC + SHA-1 dominate
//!   the play, where they are ~0 % of every server workload; the 30 KiB
//!   accesses show the fixed per-access cost (unwrap, MAC) of the same
//!   layer. One device runs on its own metered backend, which prices the
//!   1/1/1/5 use case on the paper's software cost profile as it executes.
//! * **Ringtone lifecycle** ([`ring_lifecycle`]) — re-register, acquire,
//!   install and access the ringtone once: the op `terminal_playback`
//!   drives in its `sat` and `solo` phases.
//!
//! Both talk to the service through [`InProc`]: no sockets.

use crate::ops::{self, InProc, OpError};
use crate::seams::Tracer;
use crate::stats::PhaseSamples;
use crate::traffic::Tally;
use crate::world::{Content, World, MUSIC_PLAYS, RING_ACCESSES, RI_ID};
use oma_crypto::backend::CryptoBackend;
use oma_drm::{DrmAgent, RiService};
use std::time::Instant;

/// Per-step latencies of the Music Player devices, in nanoseconds.
#[derive(Debug, Default)]
pub struct TerminalSamples {
    /// 4-pass registration.
    pub register_ns: Vec<f64>,
    /// Sign, dispatch and verify one `RoRequest`.
    pub acquire_ns: Vec<f64>,
    /// The agent's share of an acquisition: signing the request.
    pub sign_ns: Vec<f64>,
    /// The agent's share of an acquisition: verifying the response.
    pub verify_ns: Vec<f64>,
    /// `install_rights`.
    pub install_ns: Vec<f64>,
    /// One playback of the 3.5 MiB track.
    pub play_ns: Vec<f64>,
    /// One access to the 30 KiB ringtone.
    pub ring_ns: Vec<f64>,
    /// Model cycles of the Music Player use case (1 registration, 1
    /// acquisition, 1 installation, 5 plays) on the metered device.
    pub use_case_cycles: Option<u64>,
    /// Devices registered.
    pub registered: u64,
    /// Rights Objects acquired.
    pub acquired: u64,
}

fn timed<T>(sink: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    sink.push(started.elapsed().as_nanos() as f64);
    out
}

/// Runs the Music Player use case on one fresh device. `meter`, when given,
/// is the backend this device alone runs on: its cycle bill prices the use
/// case. Stops at the first failed step (later steps depend on it).
pub fn music_player(
    agent: &mut DrmAgent,
    world: &World,
    meter: Option<&dyn CryptoBackend>,
    samples: &mut TerminalSamples,
    tally: &mut Tally,
    t: &Tracer,
) {
    let (big, ring) = (&world.big, &world.ring);
    let mut x = InProc::new(&world.service);
    let before = meter.map(|m| m.charged_cycles());

    let registered = timed(&mut samples.register_ns, || {
        ops::register(agent, &mut x, RI_ID, t)
    });
    if tally.count(registered).is_none() {
        return;
    }
    samples.registered += 1;

    for (content, accesses) in [(big, 1), (ring, RING_ACCESSES)] {
        let acquire_started = Instant::now();
        let signed = timed(&mut samples.sign_ns, || {
            ops::sign_ro_request(agent, RI_ID, content.id, t)
        });
        let response = signed.and_then(|signed| {
            let response_in = t.span("dispatch", || {
                ops::Exchange::roundtrip(&mut x, &signed.frame)
            })?;
            timed(&mut samples.verify_ns, || {
                ops::check_ro_response(agent, &signed, &response_in, t)
            })
        });
        samples
            .acquire_ns
            .push(acquire_started.elapsed().as_nanos() as f64);
        let Some(response) = tally.count(response) else {
            return;
        };
        samples.acquired += 1;

        let installed = timed(&mut samples.install_ns, || {
            ops::install(agent, &response, t)
        });
        let Some(ro_id) = tally.count(installed) else {
            return;
        };
        let after_install = meter.map(|m| m.charged_cycles());

        let sink = if content.len == big.len {
            &mut samples.play_ns
        } else {
            &mut samples.ring_ns
        };
        for access in 0..accesses {
            let played = timed(sink, || ops::play(agent, &ro_id, content, t));
            let checked = played.and_then(|plaintext| ops::check_plaintext(&plaintext, content));
            if tally.count(checked).is_none() {
                return;
            }
            if access == 0 && content.len == big.len {
                if let (Some(m), Some(before), Some(after_install)) = (meter, before, after_install)
                {
                    // Every play charges the same cycles, so the four
                    // further plays of the use case are priced, not run.
                    let one_play = m.charged_cycles() - after_install;
                    samples.use_case_cycles = Some(after_install - before + MUSIC_PLAYS * one_play);
                }
            }
        }
    }
}

/// One ringtone lifecycle on an already provisioned device: (re-)register,
/// acquire, install, one access. Counts as one op.
pub fn ring_lifecycle(
    agent: &mut DrmAgent,
    service: &RiService,
    ring: &Content,
    t: &Tracer,
) -> Result<(), OpError> {
    let mut x = InProc::new(service);
    ops::register(agent, &mut x, RI_ID, t)?;
    let signed = ops::sign_ro_request(agent, RI_ID, ring.id, t)?;
    let (response, _) = ops::acquire(agent, &signed, &mut x, t)?;
    let ro_id = ops::install(agent, &response, t)?;
    let plaintext = ops::play(agent, &ro_id, ring, t)?;
    ops::check_plaintext(&plaintext, ring)
}

/// Merges the samples of threads that ran one slice side by side: every
/// thread's ops, over the mean wall time of the threads.
pub fn merge_parallel(threads: Vec<PhaseSamples>) -> PhaseSamples {
    let mut merged = PhaseSamples::default();
    let (mut ops, mut wall) = (0u64, 0.0);
    for samples in &threads {
        merged.latencies_ns.extend_from_slice(&samples.latencies_ns);
        ops += samples.slices.iter().map(|(ops, _)| ops).sum::<u64>();
        wall += samples.slices.iter().map(|(_, wall)| wall).sum::<f64>();
    }
    if !threads.is_empty() {
        merged.slices.push((ops, wall / threads.len() as f64));
    }
    merged
}
