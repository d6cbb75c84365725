//! WAL robustness corpus: recovery over corrupted storage must never panic
//! and must stop cleanly at the last valid record.
//!
//! Mirrors the structure of `tests/wire_codec.rs` for the storage layer: a
//! real journaled service writes a log once (expensive RSA setup happens a
//! single time), then every proptest case clones those raw bytes, corrupts
//! them — torn tails, single-bit flips, inflated length prefixes, random
//! garbage — rebuilds a store over them and recovers. Two properties:
//!
//! 1. **Totality** — `load_with_report` returns, never panics, whatever the
//!    bytes look like.
//! 2. **Clean prefix** — whatever survives is a *prefix* of the original
//!    event sequence: `events_applied <= total`, and the recovered state
//!    equals what replaying exactly that many events produces. Corruption
//!    can only truncate history, never corrupt the surviving part
//!    (the CRC sees to that).
//!
//! A third property holds below the CRC: **canonicality** — a damaged
//! record or snapshot whose checksum is recomputed either fails to decode
//! or re-encodes to exactly its own bytes; a snapshot whose table keys are
//! out of order or repeated fails to decode.
//!
//! Run under `--release` in CI (the corpus loops over every byte position).

use oma_drm2::drm::journal::{PendingSession, RiJournal};
use oma_drm2::drm::roap::DeviceHello;
use oma_drm2::drm::{Domain, DomainId, RiService, RightsTemplate};
use oma_drm2::pki::codec::{put_str, Encode};
use oma_drm2::pki::{CertificationAuthority, Timestamp};
use oma_drm2::store::codec::{
    crc32, decode_record_prefix, decode_snapshot, encode_record, encode_snapshot, RECORD_HEADER_LEN,
};
use oma_drm2::store::log::SEGMENT_HEADER;
use oma_drm2::store::{MemLog, RiStore, StoreConfig, StoreError, Wal};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::sync::OnceLock;

/// Bytes of a snapshot blob before its payload: "OMSS", version,
/// watermark, payload length, CRC.
const SNAPSHOT_HEADER_LEN: usize = 4 + 1 + 8 + 4 + 4;

/// The pristine store bytes: snapshot blob + one segment of `EVENTS`
/// records, produced once by a real journaled service.
struct Fixture {
    snapshot: Vec<u8>,
    segment: Vec<u8>,
    /// Pending-session count after replaying exactly `k` events.
    sessions_after: Vec<usize>,
}

const EVENTS: usize = 12;

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xc0_dec);
        let mut ca = CertificationAuthority::new("cmla", 384, &mut rng);
        let service = RiService::new("ri", 384, &mut ca, &mut rng);
        let store = Arc::new(RiStore::in_memory());
        service.set_journal(Arc::clone(&store) as Arc<dyn RiJournal>);
        store.snapshot(&|| service.state_image()).unwrap();
        // A mix of event kinds; hellos dominate because they are cheap and
        // every one changes observable state (the pending-session count).
        let mut sessions_after = vec![0usize];
        for i in 0..EVENTS {
            match i {
                3 => {
                    service.create_domain("family", 4);
                }
                7 => {
                    let ci = oma_drm2::drm::ContentIssuer::new("ci");
                    let (dcf, cek) = ci.package(b"bytes", "cid:x", &mut rng);
                    service.add_content(
                        "cid:x",
                        cek,
                        &dcf,
                        RightsTemplate::unlimited(oma_drm2::drm::Permission::Play),
                    );
                }
                _ => {
                    service.hello_at(&DeviceHello::new(&format!("dev-{i:02}")), Timestamp::new(0));
                }
            }
            sessions_after.push(service.pending_session_count());
        }
        let segments = store.log().raw_segments();
        assert_eq!(segments.len(), 1, "fixture fits one segment");
        Fixture {
            snapshot: store.log().read_snapshot().unwrap().unwrap(),
            segment: segments.into_iter().next().unwrap().1,
            sessions_after,
        }
    })
}

/// Builds a store over raw bytes (the snapshot must be valid; a corrupt
/// snapshot is rejected at open — see
/// `corrupt_snapshot_is_an_error_never_a_panic`).
fn store_over(snapshot: &[u8], segment: &[u8]) -> RiStore<MemLog> {
    try_store_over(snapshot, segment).expect("opening over corrupt segment bytes must not fail")
}

fn try_store_over(snapshot: &[u8], segment: &[u8]) -> Result<RiStore<MemLog>, StoreError> {
    let log = MemLog::new();
    log.write_snapshot(snapshot).unwrap();
    log.mutate_segment(1, |bytes| *bytes = segment.to_vec());
    RiStore::new(log, StoreConfig::default())
}

/// The clean-prefix property: recovery over `segment` yields some prefix of
/// the original event sequence, with the state matching that prefix exactly.
fn assert_clean_prefix(segment: &[u8], expect_full: bool) {
    let fx = fixture();
    let store = store_over(&fx.snapshot, segment);
    let (service, report) = store
        .load_with_report()
        .expect("valid snapshot: recovery must succeed");
    let applied = report.events_applied as usize;
    assert!(applied <= EVENTS, "cannot replay more than was written");
    if expect_full {
        assert_eq!(applied, EVENTS);
        assert_eq!(report.stopped_early, None);
    }
    // The surviving state is exactly the state after `applied` events: the
    // pending-session count is a faithful proxy (hellos dominate the log).
    assert_eq!(
        service.pending_session_count(),
        fx.sessions_after[applied],
        "recovered state must match the replayed prefix exactly"
    );
}

#[test]
fn pristine_log_replays_everything() {
    assert_clean_prefix(&fixture().segment, true);
}

#[test]
fn corrupt_snapshot_is_an_error_never_a_panic() {
    let fx = fixture();
    for pos in (0..fx.snapshot.len()).step_by((fx.snapshot.len() / 97).max(1)) {
        let mut snapshot = fx.snapshot.clone();
        snapshot[pos] ^= 1 << (pos % 8);
        // A corrupt snapshot is refused already at open time (a store that
        // can never recover must not accept more appends); a flip the CRC
        // cannot see — the coverage watermark in bytes 5..13 — opens and
        // loads, merely shifting which records replay.
        match try_store_over(&snapshot, &fx.segment) {
            Ok(store) => {
                assert!((5..13).contains(&pos), "undetected flip at byte {pos}");
                store
                    .load_with_report()
                    .expect("watermark flip still loads");
            }
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
}

#[test]
fn missing_segment_header_drops_the_whole_segment() {
    let fx = fixture();
    let mut segment = fx.segment.clone();
    segment[0] = b'X';
    assert_clean_prefix(&segment, false);
    let store = store_over(&fx.snapshot, &segment);
    let (_, report) = store.load_with_report().unwrap();
    assert_eq!(
        report.events_applied, 0,
        "unscannable segment yields nothing"
    );
}

/// Canonicality: every record and the snapshot image, with a byte flipped
/// or zeroed and the CRC recomputed (so the codec, not the checksum, meets
/// the damage), either fails to decode or re-encodes to exactly its bytes.
#[test]
fn decodable_mutations_reencode_byte_for_byte() {
    let fx = fixture();
    let mutations = |bytes: &[u8], from: usize| {
        let mut out = Vec::new();
        for pos in from..bytes.len() {
            for value in [bytes[pos] ^ (1 << (pos % 8)), 0] {
                let mut bent = bytes.to_vec();
                bent[pos] = value;
                out.push(bent);
            }
        }
        out
    };
    let mut rest = &fx.segment[SEGMENT_HEADER.len()..];
    while !rest.is_empty() {
        let (_, consumed) = decode_record_prefix(rest).unwrap();
        for mut bent in mutations(&rest[..consumed], RECORD_HEADER_LEN) {
            let crc = crc32(&bent[RECORD_HEADER_LEN..]);
            bent[4..8].copy_from_slice(&crc.to_be_bytes());
            if let Ok((record, _)) = decode_record_prefix(&bent) {
                assert_eq!(encode_record(&record), bent, "{record:?}");
            }
        }
        rest = &rest[consumed..];
    }
    for mut bent in mutations(&fx.snapshot, SNAPSHOT_HEADER_LEN) {
        let crc = crc32(&bent[SNAPSHOT_HEADER_LEN..]);
        bent[SNAPSHOT_HEADER_LEN - 4..SNAPSHOT_HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        if let Ok((image, last_sequence)) = decode_snapshot(&bent) {
            assert_eq!(encode_snapshot(&image, last_sequence), bent);
        }
    }
}

/// The golden snapshot re-encodes to exactly its own bytes.
#[test]
fn golden_snapshot_reencodes_byte_for_byte() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/store_snapshot.bin"
    );
    let golden = std::fs::read(path).unwrap();
    let (image, last_sequence) = decode_snapshot(&golden).unwrap();
    assert_eq!(encode_snapshot(&image, last_sequence), golden);
}

/// Every table decodes into an ordered map, so a snapshot must list its
/// keys strictly ascending. One whose CRC is valid but whose keys are out of
/// order or repeated is refused: decoding it would collapse the repeats and
/// recover a service that no longer equals the image it decoded. So is one
/// with pending sessions restore would have to evict or renumber, or with a
/// random stream state no generator can be in.
#[test]
fn out_of_order_or_repeated_snapshot_keys_are_corrupt() {
    let fx = fixture();
    let (mut image, _) = decode_snapshot(&fx.snapshot).unwrap();
    let certificate = image.certificate.clone();
    let tables = &mut image.tables;
    for device in ["dev-a", "dev-b"] {
        tables.registered.insert(device.into(), certificate.clone());
    }
    tables.next_session = 3;
    for (session_id, device) in [(1, "dev-c"), (2, "dev-d")] {
        let session = PendingSession {
            device_id: device.into(),
            ri_nonce: vec![0x5E; 14],
            opened_at: Timestamp::new(0),
        };
        tables.sessions.insert(session_id, session);
    }
    let family = DomainId::new("family");
    let members = ["member-a".to_string(), "member-b".to_string()];
    let domain = Domain::restore(family.clone(), [0x22; 16], 0, members, 4);
    tables.domains.insert(family, domain);

    let entry = |head: &[u8], text: &str, tail: &[u8]| {
        let mut out = head.to_vec();
        put_str(&mut out, text);
        out.extend_from_slice(tail);
        out
    };
    let mut cert = Vec::new();
    certificate.encode(&mut cert);
    let registered_a = entry(&[], "dev-a", &cert);
    let registered_b = entry(&[], "dev-b", &cert);
    let cases = [
        (
            "registered devices in descending order",
            [registered_a.clone(), registered_b.clone()].concat(),
            [registered_b, registered_a].concat(),
        ),
        (
            "a duplicate session id",
            entry(&2u64.to_be_bytes(), "dev-d", &[]),
            entry(&1u64.to_be_bytes(), "dev-d", &[]),
        ),
        (
            "two pending sessions for one device",
            entry(&2u64.to_be_bytes(), "dev-d", &[]),
            entry(&2u64.to_be_bytes(), "dev-c", &[]),
        ),
        (
            "a pending session id not yet issued",
            entry(&2u64.to_be_bytes(), "dev-d", &[]),
            entry(&7u64.to_be_bytes(), "dev-d", &[]),
        ),
        (
            "duplicate domain members",
            entry(&[], "member-b", &[]),
            entry(&[], "member-a", &[]),
        ),
        (
            "an all-zero random stream state",
            image.tables.rng.state_bytes().to_vec(),
            vec![0; 32],
        ),
    ];
    let honest = encode_snapshot(&image, 0);
    assert_eq!(decode_snapshot(&honest).unwrap().0, image);
    for (case, from, to) in cases {
        let mut bent = honest.clone();
        let at = SNAPSHOT_HEADER_LEN
            + bent[SNAPSHOT_HEADER_LEN..]
                .windows(from.len())
                .position(|window| window == from)
                .unwrap_or_else(|| panic!("{case}: entry not found"));
        bent[at..at + from.len()].copy_from_slice(&to);
        let crc = crc32(&bent[SNAPSHOT_HEADER_LEN..]);
        bent[SNAPSHOT_HEADER_LEN - 4..SNAPSHOT_HEADER_LEN].copy_from_slice(&crc.to_be_bytes());
        assert!(
            matches!(decode_snapshot(&bent), Err(StoreError::Corrupt(_))),
            "{case} was accepted"
        );
        assert!(
            try_store_over(&bent, &fx.segment).is_err(),
            "{case}: a store opened over it"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Torn final write: any truncation point leaves a clean prefix.
    #[test]
    fn truncated_tail_recovers_cleanly(cut in 0usize..4096) {
        let fx = fixture();
        let body = fx.segment.len() - SEGMENT_HEADER.len();
        let keep = SEGMENT_HEADER.len() + cut % (body + 1);
        assert_clean_prefix(&fx.segment[..keep], keep == fx.segment.len());
    }

    /// A single flipped bit anywhere in the log: recovery never panics and
    /// the surviving prefix is still consistent.
    #[test]
    fn bit_flip_recovers_cleanly(pos in 0usize..4096, bit in 0u8..8) {
        let fx = fixture();
        let pos = SEGMENT_HEADER.len() + pos % (fx.segment.len() - SEGMENT_HEADER.len());
        let mut segment = fx.segment.clone();
        segment[pos] ^= 1 << bit;
        // A flip in a length field may or may not be caught *at* that
        // record, but whatever replays is a clean prefix.
        assert_clean_prefix(&segment, false);
    }

    /// An inflated length prefix (hostile or rotted) must be rejected
    /// before any allocation, leaving the prior records intact.
    #[test]
    fn inflated_length_prefix_recovers_cleanly(record_idx in 0usize..EVENTS, len in any::<u32>()) {
        let fx = fixture();
        let mut segment = fx.segment.clone();
        // Walk to the framed record `record_idx` and overwrite its length.
        let mut offset = SEGMENT_HEADER.len();
        for _ in 0..record_idx {
            let record_len = u32::from_be_bytes(segment[offset..offset + 4].try_into().unwrap());
            offset += 8 + record_len as usize;
        }
        segment[offset..offset + 4].copy_from_slice(&len.to_be_bytes());
        assert_clean_prefix(&segment, false);
        let store = store_over(&fx.snapshot, &segment);
        let (_, report) = store.load_with_report().unwrap();
        // Records before the clobbered one always survive.
        prop_assert!(report.events_applied as usize <= EVENTS);
    }

    /// Random garbage appended after the valid log: the valid records all
    /// replay; the garbage is reported as a stopped-early tail (or, in the
    /// astronomically unlikely case it frames+CRCs as a record, it must
    /// still form a valid sequence to be accepted).
    #[test]
    fn appended_garbage_never_corrupts_the_prefix(garbage in proptest::collection::vec(any::<u8>(), 1..64)) {
        let fx = fixture();
        let mut segment = fx.segment.clone();
        segment.extend_from_slice(&garbage);
        assert_clean_prefix(&segment, false);
    }

    /// Pure random bytes as a segment body: nothing replays, nothing panics.
    #[test]
    fn random_segment_body_recovers_to_the_snapshot(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let fx = fixture();
        let mut segment = SEGMENT_HEADER.to_vec();
        segment.extend_from_slice(&noise);
        let store = store_over(&fx.snapshot, &segment);
        let (service, _) = store.load_with_report().expect("never panics");
        prop_assert_eq!(service.id(), "ri");
    }
}
