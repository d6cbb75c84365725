//! Ten thousand mostly-idle handsets on one event-loop thread.
//!
//! This is the deployment shape the readiness event loop exists for:
//! almost every connected device is parked, and the few that wake up
//! arrive on a Poisson process. A thread-per-connection core cannot hold
//! it — each parked socket would pin a thread — so the parent binds a
//! `RoapEventServer` and proves `peak_active >= 10_000`.
//!
//! The fleet is split across **two child processes** (this same binary,
//! re-executed with `--idle-client`) because 10k loopback connections cost
//! 10k file descriptors on *each* side of the socket; one process holding
//! both sides would need >20k fds, which is exactly the default limit.
//! The children rebuild the deterministic world from the shared spec, park
//! 5 000 connections each, rendezvous with the parent over stdin/stdout so
//! the whole fleet is provably connected at the same instant, then wake
//! their active devices and verify every outcome against an in-process
//! reference.
//!
//! Run with: `cargo run --release --example idle_fleet`

use oma_drm2::load::{bind_idle_server, drive_idle_clients_with, IdleFleetSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Parked connections in total, across both children.
const TOTAL_DEVICES: usize = 10_000;
/// Devices that wake up for a full registration-and-acquisition cycle.
const ACTIVE_DEVICES: usize = 16;
/// Client processes the fleet is split across.
const CHILDREN: usize = 2;

/// The one scenario both the parent and the children construct — the spec
/// is the only thing they share besides the server address.
fn scenario() -> IdleFleetSpec {
    let mut spec = IdleFleetSpec::new(TOTAL_DEVICES, ACTIVE_DEVICES);
    spec.client_threads = 8;
    spec
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 4 && args[1] == "--idle-client" {
        let addr: SocketAddr = args[2].parse().expect("server address");
        let range = parse_range(&args[3]);
        child(addr, range);
    } else {
        parent();
    }
}

fn parse_range(s: &str) -> std::ops::Range<usize> {
    let (start, end) = s.split_once("..").expect("range as start..end");
    start.parse().expect("range start")..end.parse().expect("range end")
}

/// One client process: park the range, report `parked`, wait for `go`,
/// then wake the range's active devices on the Poisson schedule.
fn child(addr: SocketAddr, range: std::ops::Range<usize>) {
    let spec = scenario();
    let report = drive_idle_clients_with(addr, &spec, range, |parked| {
        println!("parked {parked}");
        std::io::stdout().flush().expect("flush parked line");
        let mut go = String::new();
        std::io::stdin().read_line(&mut go).expect("read go line");
    })
    .expect("idle client range");
    println!(
        "done parked={} active={} (all verified against the in-process reference)",
        report.parked,
        report.outcomes.len()
    );
}

fn spawn_child(addr: SocketAddr, start: usize, end: usize) -> (Child, BufReader<ChildStdout>) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut child = Command::new(exe)
        .arg("--idle-client")
        .arg(addr.to_string())
        .arg(format!("{start}..{end}"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn idle-client child");
    let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    (child, stdout)
}

fn parent() {
    let spec = scenario();
    println!(
        "binding a RoapEventServer for {TOTAL_DEVICES} parked devices \
         ({ACTIVE_DEVICES} active, {CHILDREN} client processes)..."
    );
    let server = bind_idle_server(&spec).expect("bind idle-fleet server");
    let addr = server.local_addr();
    let started = Instant::now();

    let per_child = TOTAL_DEVICES / CHILDREN;
    let mut children: Vec<(Child, BufReader<ChildStdout>)> = (0..CHILDREN)
        .map(|c| spawn_child(addr, c * per_child, (c + 1) * per_child))
        .collect();

    // Rendezvous: every child reports its range parked before any device
    // wakes up, so the whole fleet is connected simultaneously — no race.
    for (i, (_, stdout)) in children.iter_mut().enumerate() {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read parked line");
        print!("  child {i}: {line}");
        assert!(line.starts_with("parked "), "unexpected child line: {line}");
    }
    let at_barrier = server.metrics().snapshot();
    println!(
        "  all {CHILDREN} children parked after {:.1?}: server sees {} active connections",
        started.elapsed(),
        at_barrier.active
    );
    assert!(
        at_barrier.active >= TOTAL_DEVICES as u64,
        "only {} of {TOTAL_DEVICES} connections are up at the barrier",
        at_barrier.active
    );
    for (child, _) in children.iter_mut() {
        let stdin = child.stdin.as_mut().expect("child stdin");
        stdin.write_all(b"go\n").expect("send go");
        stdin.flush().expect("flush go");
    }

    for (i, (mut child, mut stdout)) in children.into_iter().enumerate() {
        let status = child.wait().expect("wait for child");
        let mut rest = String::new();
        stdout
            .read_to_string(&mut rest)
            .expect("drain child stdout");
        for line in rest.lines() {
            println!("  child {i}: {line}");
        }
        assert!(status.success(), "child {i} failed: {status}");
    }

    let metrics = server.metrics().snapshot();
    server.shutdown();
    println!("\nscenario complete in {:.1?}", started.elapsed());
    println!("  {metrics}");
    assert!(
        metrics.accepted >= TOTAL_DEVICES as u64,
        "accepted {} < {TOTAL_DEVICES}",
        metrics.accepted
    );
    assert!(
        metrics.peak_active >= TOTAL_DEVICES as u64,
        "peak_active {} < {TOTAL_DEVICES}: the fleet was never fully parked",
        metrics.peak_active
    );
    assert_eq!(metrics.shed, 0, "no connection was shed");
    assert_eq!(metrics.reaped_idle, 0, "no parked device was reaped");
    println!(
        "\n{TOTAL_DEVICES} devices parked simultaneously on one event-loop thread, \
         {ACTIVE_DEVICES} of them served mid-park"
    );
}
