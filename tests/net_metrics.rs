//! The server's metrics surface, pinned by one exact scenario.
//!
//! An operator reads the server through its `MetricsSnapshot`. This test
//! drives the server through a shed/reap/busy scenario — two connections
//! held open while a third is shed with `Busy`, one connection reaped for
//! byte idleness, one reaped for stalling mid-frame — and asserts every
//! counter the scenario moves, plus the `Busy` frame byte for byte.

use oma_drm2::drm::{RiService, RoapPdu, RoapStatus};
use oma_drm2::net::{read_frame, MetricsSnapshot, RoapEventServer, ServerConfig};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SEED: u64 = 0x9a41_17e5;
const BITS: usize = 512;

/// Generous total deadline per polling stage; the scenario itself is paced
/// by `IDLE_TIMEOUT` + `FRAME_TIMEOUT`, not by this.
const STAGE_DEADLINE: Duration = Duration::from_secs(15);
const IDLE_TIMEOUT: Duration = Duration::from_millis(1_500);
const FRAME_TIMEOUT: Duration = Duration::from_millis(400);

fn service() -> Arc<RiService> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ca = CertificationAuthority::new("cmla", BITS, &mut rng);
    Arc::new(RiService::new("ri.example.com", BITS, &mut ca, &mut rng))
}

fn config() -> ServerConfig {
    ServerConfig {
        // A two-slot connection table ⇒ the third simultaneous connection
        // is shed.
        max_connections: 2,
        idle_timeout: IDLE_TIMEOUT,
        frame_timeout: FRAME_TIMEOUT,
        clock: Some(Timestamp::new(1_000)),
        ..ServerConfig::default()
    }
}

/// Polls the server's metrics until `pred` holds, panicking with the last
/// snapshot when the stage deadline passes. Every stage transition in the
/// scenario waits on observable state instead of sleeping a fixed amount,
/// so the test is timing-robust without being slow.
fn wait_for(
    metrics: &oma_drm2::net::ServerMetrics,
    what: &str,
    pred: impl Fn(&MetricsSnapshot) -> bool,
) -> MetricsSnapshot {
    let deadline = Instant::now() + STAGE_DEADLINE;
    loop {
        let snap = metrics.snapshot();
        if pred(&snap) {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last snapshot: {snap}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// Drives the shed/reap/busy scenario against a bound server and returns
/// the final snapshot once everything has drained.
fn run_scenario(metrics: &oma_drm2::net::ServerMetrics, addr: SocketAddr) -> MetricsSnapshot {
    // Stage 1: connection A takes the first table slot.
    let conn_a = TcpStream::connect(addr).expect("connect A");
    wait_for(metrics, "A in service", |s| {
        s.accepted == 1 && s.active == 1
    });

    // Stage 2: connection B fills the last free slot.
    let conn_b = TcpStream::connect(addr).expect("connect B");
    wait_for(metrics, "B accepted", |s| s.accepted == 2 && s.active == 2);

    // Stage 3: connection C finds the server full and is shed. The server
    // promises a best-effort `Busy` status before hanging up — read it back
    // and hold it to the exact bytes.
    let mut conn_c = TcpStream::connect(addr).expect("connect C");
    wait_for(metrics, "C shed", |s| s.shed == 1 && s.active == 2);
    let busy = read_frame(&mut conn_c).expect("read Busy frame from shed connection");
    assert_eq!(
        busy,
        RoapPdu::Status(RoapStatus::Busy).encode(),
        "a shed connection must be told Busy, byte-for-byte"
    );
    drop(conn_c);

    // Stage 4: A and B hang up; the server serves out both (an orderly
    // EOF counts as a finished conversation).
    drop(conn_a);
    drop(conn_b);
    wait_for(metrics, "A and B served", |s| {
        s.served == 2 && s.active == 0
    });

    // Stage 5: D connects and never sends a byte — reaped for idleness.
    let conn_d = TcpStream::connect(addr).expect("connect D");
    wait_for(metrics, "D idle-reaped", |s| {
        s.reaped_idle == 1 && s.served == 3
    });
    drop(conn_d);

    // Stage 6: E starts a frame but never completes it — reaped by the
    // frame deadline (the slowloris guard), not the idle one.
    let mut conn_e = TcpStream::connect(addr).expect("connect E");
    let frame = RoapPdu::Status(RoapStatus::Busy).encode();
    conn_e
        .write_all(&frame[..frame.len() - 1])
        .expect("write partial frame");
    wait_for(metrics, "E frame-reaped", |s| {
        s.reaped_frame == 1 && s.served == 4
    });
    drop(conn_e);

    wait_for(metrics, "all drained", |s| s.active == 0)
}

#[test]
fn the_server_core_reports_exact_metrics_for_the_scenario() {
    let server = RoapEventServer::bind(service(), config()).expect("bind server");
    let snap = run_scenario(server.metrics(), server.local_addr());
    server.shutdown();

    // The scenario's ground truth, spelled out once: 5 accepts, of which
    // 1 shed, 2 served by EOF, 1 idle-reaped, 1 frame-reaped (reaped
    // conversations count as served — they finished, just not happily);
    // 3 connections existed at the moment C was shed.
    assert_eq!(snap.accepted, 5, "{snap}");
    assert_eq!(snap.served, 4, "{snap}");
    assert_eq!(snap.shed, 1, "{snap}");
    assert_eq!(snap.reaped_idle, 1, "{snap}");
    assert_eq!(snap.reaped_frame, 1, "{snap}");
    assert_eq!(snap.active, 0, "{snap}");
    assert_eq!(snap.peak_active, 3, "{snap}");
}
