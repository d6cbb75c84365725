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

use oma_drm2::crypto::backend::{CryptoBackend, SoftwareBackend};
use oma_drm2::load::{
    run_fleet, run_fleet_durable, run_fleet_tcp, run_sequential, FleetReport, FleetSpec,
};
use oma_drm2::perf::phases::Phase;
use oma_drm2::store::RiStore;
use std::sync::Arc;

/// Prints one run's counts, wall-clock time and per-phase cycle totals: the
/// fleet's traces priced on the software backend every device runs on.
fn print_run(name: &str, run: &FleetReport) {
    let software = SoftwareBackend::new();
    println!(
        "{name} — {} devices on {} worker thread(s) in {:.3} s: {} registrations, {} ROs",
        run.devices.len(),
        run.workers,
        run.elapsed.as_secs_f64(),
        run.registrations,
        run.rights_objects
    );
    for phase in Phase::ALL {
        println!(
            "  {:<14} {:>16} cycles",
            phase.name(),
            software.price(run.traces.phase(phase))
        );
    }
    println!();
}

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
    print_run("Concurrent fleet", &concurrent);

    println!("re-running the same fleet sequentially as the reference...\n");
    let sequential = run_sequential(&spec).expect("sequential fleet run");
    print_run("Sequential reference", &sequential);

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

    println!("\nre-running the same fleet over loopback TCP (one connection per device)...\n");
    let tcp = run_fleet_tcp(&spec).expect("tcp fleet run");
    print_run("Loopback-TCP fleet", &tcp);
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
    print_run("Durable (journaled) fleet", &durable.fleet);
    assert!(
        durable.fleet.matches(&sequential),
        "journaling must not change any deterministic observable"
    );
    // The durable driver runs its devices on one thread, so its peer is the
    // sequential reference, not the concurrent run.
    let journaled = durable.fleet.elapsed.as_secs_f64() / sequential.elapsed.as_secs_f64();
    println!("journaling overhead vs the sequential run: {journaled:.2}x wall-clock");
}
