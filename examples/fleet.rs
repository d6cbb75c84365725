//! Device-fleet load run: many terminals, one concurrent Rights Issuer.
//!
//! A shared `RiService` serves a fleet of per-device-seeded DRM Agents from
//! several worker threads; every device runs the full Registration →
//! Acquisition → Installation → Consumption life-cycle. The run is then
//! repeated on a single thread and the two reports are compared: the
//! concurrent service must lose no registrations, duplicate no Rights
//! Object ids, and produce byte-identical per-device outcomes.
//!
//! Run with: `cargo run --release --example fleet`

use oma_drm2::load::{
    run_fleet, run_fleet_durable, run_fleet_tcp, run_fleet_wire, run_sequential, FleetSpec,
};
use oma_drm2::store::RiStore;
use std::sync::Arc;

fn main() {
    let spec = FleetSpec {
        acquisitions_per_device: 2,
        contents: 8,
        content_len: 4 * 1024,
        rsa_modulus_bits: 512,
        ..FleetSpec::new(48, 8)
    };
    println!(
        "driving {} devices x {} acquisitions on {} workers against one RiService...\n",
        spec.devices, spec.acquisitions_per_device, spec.workers
    );

    let concurrent = run_fleet(&spec).expect("concurrent fleet run");
    println!("{}", concurrent.summary("Concurrent fleet"));

    println!("re-running the same fleet sequentially as the reference...\n");
    let sequential = run_sequential(&spec).expect("sequential fleet run");
    println!("{}", sequential.summary("Sequential reference"));

    let duplicates = concurrent.duplicate_ro_ids();
    println!(
        "registrations: {} of {}",
        concurrent.registrations, spec.devices
    );
    println!("duplicate RO ids: {}", duplicates.len());
    println!(
        "per-device outcomes byte-identical to sequential run: {}",
        concurrent.matches(&sequential)
    );
    assert!(
        duplicates.is_empty(),
        "service must never duplicate an RO id"
    );
    assert!(
        concurrent.matches(&sequential),
        "concurrent run must match the sequential reference"
    );

    let speedup = sequential.elapsed.as_secs_f64() / concurrent.elapsed.as_secs_f64();
    println!("wall-clock speedup over sequential: {speedup:.2}x");

    println!("\nre-running the same fleet over the wire (dispatch_batch waves)...\n");
    let wire = run_fleet_wire(&spec).expect("wire fleet run");
    println!("{}", wire.summary("Wire-mode fleet"));
    assert!(
        wire.matches(&sequential),
        "wire-mode outcomes must be byte-identical to the in-process runs"
    );
    println!(
        "wire-mode outcomes byte-identical to in-process runs: {}",
        wire.matches(&sequential)
    );

    println!("\nre-running the same fleet over loopback TCP (one connection per device)...\n");
    let tcp = run_fleet_tcp(&spec).expect("tcp fleet run");
    println!("{}", tcp.summary("Loopback-TCP fleet"));
    assert!(
        tcp.matches(&sequential),
        "TCP outcomes must be byte-identical to the in-process runs"
    );
    println!(
        "TCP outcomes byte-identical to in-process runs: {}",
        tcp.matches(&sequential)
    );

    println!(
        "\nre-running the same fleet against a journaled service (WAL on every mutation)...\n"
    );
    let durable =
        run_fleet_durable(&spec, Arc::new(RiStore::in_memory()), None).expect("durable fleet run");
    println!("{}", durable.fleet.summary("Durable (journaled) fleet"));
    assert!(
        durable.fleet.matches(&sequential),
        "journaling must not change any deterministic observable"
    );
    let journaled = durable.fleet.elapsed.as_secs_f64() / wire.elapsed.as_secs_f64();
    println!("journaling overhead vs wire mode: {journaled:.2}x wall-clock");
}
