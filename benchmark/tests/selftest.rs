//! The benchmark checked against its own contract: two `--smoke` suites
//! with one seed must print exactly the names `BENCHMARK.json` lists, pass
//! their oracle, and agree bit for bit on every exact-count metric.
//!
//! (The oracle's own self-test — a flipped response byte must be caught —
//! lives next to the oracle, in `src/ops.rs`.)

use oma_benchmark::json::{self, Json};
use oma_benchmark::spec::Spec;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_file(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_BIN_EXE_bench"))
        .parent()
        .expect("binary has a directory")
        .join("selftest");
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn smoke_suite(seed: u64, out: &Path) -> Vec<Json> {
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--smoke", "--seed", &seed.to_string(), "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run bench");
    assert!(status.success(), "smoke suite failed its oracle: {status}");
    std::fs::read_to_string(out)
        .expect("result file")
        .lines()
        .map(|line| json::parse(line).expect("result record is JSON"))
        .collect()
}

/// Counts and sizes that depend on the seed alone, never on timing.
fn is_exact(name: &str, unit: &str) -> bool {
    (name.ends_with("_per_op") && matches!(unit, "count" | "bytes"))
        || name == "cluster.ship_bytes_per_record"
        || name == "terminal_mcycles"
}

#[test]
fn smoke_suites_match_the_contract_and_repeat_exact_counts() {
    let spec = Spec::load();
    let first = smoke_suite(7, &scratch_file("first.jsonl"));
    let second = smoke_suite(7, &scratch_file("second.jsonl"));
    assert_eq!(
        first.len(),
        spec.workloads.len() * 2,
        "five workloads, two passes"
    );
    assert_eq!(first.len(), second.len());

    let mut exact_seen = 0;
    for (a, b) in first.iter().zip(&second) {
        let workload = a.get("workload").and_then(Json::as_str).expect("workload");
        let traced = a.get("trace").and_then(Json::as_f64) == Some(1.0);
        assert_eq!(a.get("workload"), b.get("workload"));
        assert_eq!(a.get("trace"), b.get("trace"));
        assert_eq!(
            a.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{workload}: failed_share must be 0"
        );
        assert!(
            a.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );

        let listed = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let printed: Vec<&str> = a
            .get("metrics")
            .expect("metrics")
            .members()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            printed, expected,
            "{workload} trace={traced}: names differ from BENCHMARK.json"
        );

        for metric in listed {
            if !is_exact(&metric.name, &metric.unit) {
                continue;
            }
            let value = |record: &Json| {
                record
                    .get("metrics")
                    .and_then(|m| m.get(&metric.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .expect("metric value")
            };
            assert_eq!(
                value(a).to_bits(),
                value(b).to_bits(),
                "{workload}: {} differs between two runs of one seed",
                metric.name
            );
            exact_seen += 1;
        }
    }
    assert!(exact_seen >= 5 * 8, "the exact-count metrics were checked");

    // The predicted non-interactions, as counts.
    let traced_value = |workload: &str, name: &str| {
        first
            .iter()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(workload)
                    && r.get("trace").and_then(Json::as_f64) == Some(1.0)
            })
            .and_then(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .expect("traced metric")
    };
    for name in [
        "store.events_per_op",
        "store.fsyncs_per_op",
        "store.wal_bytes_per_op",
    ] {
        assert_eq!(traced_value("acquire_keepalive", name), 0.0, "{name}");
        assert!(traced_value("acquire_durable", name) > 0.0, "{name}");
    }
    assert_eq!(
        traced_value("hello_flood", "crypto.rsa_private_per_op"),
        0.0
    );
    assert_eq!(
        traced_value("acquire_keepalive", "crypto.rsa_private_per_op"),
        2.0
    );
    // AES is bulk work of the terminal only: a server op moves under 1 % of
    // the blocks of one track playback, and the ringtone lifecycle (one
    // 30 KiB access) already moves fifty times a server op's.
    let track_blocks = (oma_benchmark::world::BIG_CONTENT_LEN / 16) as f64;
    let lifecycle_blocks = traced_value("terminal_playback", "crypto.aes_blocks_per_op");
    assert!(lifecycle_blocks > 1_900.0);
    for workload in [
        "register_churn",
        "acquire_keepalive",
        "acquire_durable",
        "hello_flood",
    ] {
        let blocks = traced_value(workload, "crypto.aes_blocks_per_op");
        assert!(
            blocks < 0.01 * track_blocks && blocks < 0.02 * lifecycle_blocks,
            "{workload}: {blocks}"
        );
    }
}

#[test]
fn comparing_a_set_with_itself_prints_no_worse() {
    let out = scratch_file("self.jsonl");
    let status = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args([
            "--smoke",
            "--seed",
            "3",
            "--workload",
            "hello_flood",
            "--trace",
            "0",
            "--out",
        ])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run bench");
    assert!(status.success());
    let compared = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("run compare");
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(compared.status.success(), "{table}");
    assert!(table.contains("hello_flood") && table.contains("capacity_ops_s"));
    assert!(!table.contains("worse"), "{table}");
}
