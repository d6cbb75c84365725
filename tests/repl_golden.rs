//! Golden replication vectors: committed byte-exact encodings of one
//! literal `ReplPdu` per shape, guarding the OMRP envelope against
//! accidental drift — a drifted replication format means a mixed-version
//! primary/follower pair stops talking.
//!
//! Every value is a literal, so the expected bytes depend on nothing but the
//! codec. If a format change is intentional (a new replication version),
//! bless new vectors with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test repl_golden
//! ```
//!
//! and review the resulting `tests/golden/repl_*.bin` diff like any other
//! wire format change.

use oma_drm2::cluster::ReplPdu;
use std::path::PathBuf;

/// The named golden PDUs: every variant, and `HandshakeAck` both with and
/// without a snapshot.
fn golden_pdus() -> Vec<(&'static str, ReplPdu)> {
    vec![
        (
            "repl_handshake",
            ReplPdu::Handshake {
                follower_id: "follower-b".into(),
                last_sequence: 41,
            },
        ),
        (
            "repl_handshake_ack",
            ReplPdu::HandshakeAck {
                epoch: 3,
                primary_id: "primary-a".into(),
                watermark: 12,
                snapshot: None,
            },
        ),
        (
            "repl_handshake_ack_snapshot",
            ReplPdu::HandshakeAck {
                epoch: 3,
                primary_id: "primary-a".into(),
                watermark: 12,
                snapshot: Some(vec![0xAB; 100]),
            },
        ),
        (
            "repl_records",
            ReplPdu::Records {
                epoch: 3,
                frames: vec![vec![1, 2, 3], vec![], vec![9; 40]],
            },
        ),
        (
            "repl_ack",
            ReplPdu::Ack {
                epoch: 3,
                last_sequence: 44,
                applied: 3,
                durable: true,
            },
        ),
        (
            "repl_heartbeat",
            ReplPdu::Heartbeat {
                epoch: 3,
                last_sequence: 44,
            },
        ),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.bin"))
}

#[test]
fn golden_vectors_match_committed_bytes() {
    let bless = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut drifted = Vec::new();
    for (name, pdu) in golden_pdus() {
        let encoded = pdu.encode();
        let path = golden_path(name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &encoded).unwrap();
            continue;
        }
        let expected = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing golden vector {}: {e}", path.display()));
        if encoded != expected {
            drifted.push(name);
        }
        // The committed bytes must also decode back to the very same PDU.
        assert_eq!(
            ReplPdu::decode(&expected).as_ref(),
            Ok(&pdu),
            "golden vector {name} no longer decodes to its PDU"
        );
    }
    assert!(
        drifted.is_empty(),
        "replication codec drift detected for {drifted:?}; if intentional, bump \
         the replication version and re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_coverage_spans_every_frame_tag() {
    use std::collections::HashSet;
    let tags: HashSet<u8> = golden_pdus().iter().map(|(_, p)| p.tag()).collect();
    assert_eq!(tags.len(), 5, "one golden vector per frame tag");
}
