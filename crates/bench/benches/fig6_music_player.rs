//! Figure 6 — total processing time of the SW, SW/HW and HW architecture
//! variants in the Music Player use case (3.5 MB DCF, five playbacks).
//!
//! Two measurements per variant:
//!
//! * `model/` — evaluating the analytic cost model (what the figure plots),
//! * `protocol/` — actually running the DRM Agent consumption pipeline on a
//!   scaled-down track with the real software crypto of this repository, as
//!   a host-measured sanity check of the model's shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oma_bench::{Experiment, FIGURE6_PAPER_MS};
use oma_drm::{ContentIssuer, DrmAgent, Permission, RiService, RightsTemplate, RoapClient};
use oma_perf::usecase::UseCaseSpec;
use oma_pki::{CertificationAuthority, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn model(c: &mut Criterion) {
    let experiment = Experiment::new();
    let figure = experiment.figure6();
    println!("{figure}");
    for (variant, expected) in FIGURE6_PAPER_MS {
        println!(
            "  paper {variant:<6} {expected:>7.0} ms | model {:>8.1} ms",
            figure.total_millis(variant).unwrap()
        );
    }

    let mut group = c.benchmark_group("fig6/model");
    for arch in &experiment.variants {
        group.bench_with_input(
            BenchmarkId::new("evaluate", arch.name()),
            arch,
            |b, arch| {
                let traces = oma_perf::analytic::phase_traces(&UseCaseSpec::music_player());
                let total = traces.total(UseCaseSpec::music_player().accesses());
                b.iter(|| arch.millis(black_box(&total), black_box(&experiment.table)))
            },
        );
    }
    group.finish();
}

fn protocol(c: &mut Criterion) {
    // A 256 KiB track stands in for the 3.5 MB one so the bench stays fast;
    // consumption cost is linear in content size.
    const TRACK_LEN: usize = 256 * 1024;
    let mut rng = StdRng::seed_from_u64(0xf166);
    let mut ca = CertificationAuthority::new("cmla", 1024, &mut rng);
    let ri = RiService::new("ri.example.com", 1024, &mut ca, &mut rng);
    let ci = ContentIssuer::new("ci.example.com");
    let mut agent = DrmAgent::new("bench-terminal", 1024, &mut ca, &mut rng);
    let content = vec![0xddu8; TRACK_LEN];
    let (dcf, cek) = ci.package(&content, "cid:track", &mut rng);
    ri.add_content(
        "cid:track",
        cek,
        &dcf,
        RightsTemplate::unlimited(Permission::Play),
    );
    let now = Timestamp::new(1_000);
    let client = RoapClient::in_proc(&ri);
    agent.register(&client, now).expect("registration");
    let response = agent
        .acquire_rights(&client, ri.id(), "cid:track", now)
        .expect("acquisition");
    let ro_id = agent.install_rights(&response, now).expect("installation");

    let mut group = c.benchmark_group("fig6/protocol");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(TRACK_LEN as u64));
    group.bench_function("consume_music_track_256k", |b| {
        b.iter(|| {
            agent
                .consume(black_box(&ro_id), black_box(&dcf), Permission::Play, now)
                .expect("consumption")
        })
    });
    group.finish();
}

criterion_group!(benches, model, protocol);
criterion_main!(benches);
