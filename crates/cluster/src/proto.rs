//! The replication wire protocol: framed PDUs a primary and a follower
//! exchange to ship the WAL. The envelope is its own — magic `OMRP`,
//! version byte, type tag, big-endian body length capped at
//! [`MAX_REPL_BODY_LEN`] — and the body fields are written with the shared
//! binary codec, [`oma_pki::codec`]: decoding is total (it never panics on
//! hostile input, and a list count the body cannot hold is rejected before
//! allocating) and canonical (every accepted frame re-encodes to itself).
//! Shipped WAL records and snapshots travel as opaque byte strings, exactly
//! as `oma_store::codec` framed them.
//!
//! Every PDU after the handshake carries the sender's **epoch**. The epoch
//! is the fencing token of failover: a follower rejects records stamped
//! with an epoch older than the one it last accepted, so a deposed primary
//! that comes back from a network partition cannot fork history — its
//! stream dies with [`ClusterError::Fenced`] at the first record.
//!
//! A catch-up session is one round trip:
//!
//! ```text
//! follower                                   primary
//!    | -- Handshake{follower_id, last_seq} --> |
//!    | <-- HandshakeAck{epoch, watermark,      |   snapshot only when the
//!    |        snapshot?} --------------------- |   follower is behind the
//!    | <-- Records{epoch, frames} ------------ |   compaction horizon
//!    | --- Ack{epoch, last_seq, durable} ----> |
//!    | <-- Heartbeat{epoch, last_seq} -------- |   end-of-catch-up marker
//! ```

use crate::ClusterError;
use oma_pki::codec::{put_bytes, put_str, DecodeError, Reader};

/// Frame magic of every replication PDU.
pub const REPL_MAGIC: [u8; 4] = *b"OMRP";

/// Replication protocol version this crate speaks.
pub const REPL_VERSION: u8 = 1;

/// Fixed frame header: magic, version, tag, big-endian body length.
pub const REPL_HEADER_LEN: usize = 4 + 1 + 1 + 4;

/// Upper bound on a replication frame body. Larger than the ROAP cap
/// because one `Records` batch may carry many WAL records, and a
/// `HandshakeAck` may carry a full state snapshot.
pub const MAX_REPL_BODY_LEN: usize = 16 << 20;

const TAG_HANDSHAKE: u8 = 1;
const TAG_HANDSHAKE_ACK: u8 = 2;
const TAG_RECORDS: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplPdu {
    /// Follower → primary: announces who is asking and how much log it
    /// already holds.
    Handshake {
        /// Follower's node id (diagnostics; not part of the safety rules).
        follower_id: String,
        /// Sequence number of the last record the follower holds (0 when
        /// empty).
        last_sequence: u64,
    },
    /// Primary → follower: opens (or refreshes) a session.
    HandshakeAck {
        /// Epoch the primary serves under.
        epoch: u64,
        /// Primary's node id.
        primary_id: String,
        /// Sequence watermark of the primary's snapshot — the compaction
        /// horizon below which records no longer exist as log frames.
        watermark: u64,
        /// The snapshot blob, present only when the follower is behind the
        /// watermark and must bootstrap from the full image.
        snapshot: Option<Vec<u8>>,
    },
    /// Primary → follower: a batch of verbatim WAL record frames, in
    /// sequence order.
    Records {
        /// Epoch the primary serves under; the fencing token.
        epoch: u64,
        /// Raw CRC-framed record frames, exactly as they sit in the log.
        frames: Vec<Vec<u8>>,
    },
    /// Follower → primary: how far the follower has applied.
    Ack {
        /// Epoch the follower currently accepts.
        epoch: u64,
        /// Sequence number of the last applied record.
        last_sequence: u64,
        /// Records applied since the previous ack.
        applied: u64,
        /// Whether the applied records are fsync-durable on the follower
        /// ([`AckPolicy::OnFsync`](crate::ship::AckPolicy::OnFsync)).
        durable: bool,
    },
    /// Either direction: liveness + position probe. From the primary it
    /// also marks the end of a catch-up burst.
    Heartbeat {
        /// Sender's epoch.
        epoch: u64,
        /// Sender's last durable sequence number.
        last_sequence: u64,
    },
}

impl ReplPdu {
    /// The frame type tag.
    pub fn tag(&self) -> u8 {
        match self {
            ReplPdu::Handshake { .. } => TAG_HANDSHAKE,
            ReplPdu::HandshakeAck { .. } => TAG_HANDSHAKE_ACK,
            ReplPdu::Records { .. } => TAG_RECORDS,
            ReplPdu::Ack { .. } => TAG_ACK,
            ReplPdu::Heartbeat { .. } => TAG_HEARTBEAT,
        }
    }

    /// Encodes the PDU into one framed envelope.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        debug_assert!(
            body.len() <= MAX_REPL_BODY_LEN,
            "replication body of {} bytes exceeds MAX_REPL_BODY_LEN",
            body.len()
        );
        let mut out = Vec::with_capacity(REPL_HEADER_LEN + body.len());
        out.extend_from_slice(&REPL_MAGIC);
        out.push(REPL_VERSION);
        out.push(self.tag());
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes one envelope that must span the whole input.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Malformed`] for any structural problem and
    /// [`ClusterError::UnsupportedVersion`] for an unknown version byte.
    /// Never panics.
    pub fn decode(frame: &[u8]) -> Result<Self, ClusterError> {
        let total = match Self::frame_len(frame)? {
            Some(total) if frame.len() == total => total,
            _ => return Err(malformed("frame length does not span the input")),
        };
        let tag = frame[5];
        let mut r = Reader::new(&frame[REPL_HEADER_LEN..total]);
        let pdu = Self::decode_body(tag, &mut r)?;
        r.finish()?;
        Ok(pdu)
    }

    /// Reports the total length of the frame beginning at `prefix`, or
    /// `None` while fewer than [`REPL_HEADER_LEN`] bytes are available —
    /// the reassembly primitive for a streaming transport, mirroring
    /// `RoapPdu::frame_len`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Malformed`] for a bad magic or an oversized length,
    /// [`ClusterError::UnsupportedVersion`] for an unknown version byte.
    pub fn frame_len(prefix: &[u8]) -> Result<Option<usize>, ClusterError> {
        if prefix.len() < REPL_HEADER_LEN {
            if let Some(checkable) = prefix.get(..4) {
                if checkable != REPL_MAGIC {
                    return Err(malformed("bad replication magic"));
                }
            }
            return Ok(None);
        }
        if prefix[..4] != REPL_MAGIC {
            return Err(malformed("bad replication magic"));
        }
        if prefix[4] != REPL_VERSION {
            return Err(ClusterError::UnsupportedVersion(prefix[4]));
        }
        let body_len = u32::from_be_bytes(prefix[6..10].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_REPL_BODY_LEN {
            return Err(malformed("oversized replication body"));
        }
        Ok(Some(REPL_HEADER_LEN + body_len))
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            ReplPdu::Handshake {
                follower_id,
                last_sequence,
            } => {
                put_str(&mut out, follower_id);
                out.extend_from_slice(&last_sequence.to_be_bytes());
            }
            ReplPdu::HandshakeAck {
                epoch,
                primary_id,
                watermark,
                snapshot,
            } => {
                out.extend_from_slice(&epoch.to_be_bytes());
                put_str(&mut out, primary_id);
                out.extend_from_slice(&watermark.to_be_bytes());
                match snapshot {
                    None => out.push(0),
                    Some(blob) => {
                        out.push(1);
                        put_bytes(&mut out, blob);
                    }
                }
            }
            ReplPdu::Records { epoch, frames } => {
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&(frames.len() as u32).to_be_bytes());
                for frame in frames {
                    put_bytes(&mut out, frame);
                }
            }
            ReplPdu::Ack {
                epoch,
                last_sequence,
                applied,
                durable,
            } => {
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&last_sequence.to_be_bytes());
                out.extend_from_slice(&applied.to_be_bytes());
                out.push(u8::from(*durable));
            }
            ReplPdu::Heartbeat {
                epoch,
                last_sequence,
            } => {
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(&last_sequence.to_be_bytes());
            }
        }
        out
    }

    fn decode_body(tag: u8, r: &mut Reader<'_>) -> Result<Self, ClusterError> {
        Ok(match tag {
            TAG_HANDSHAKE => ReplPdu::Handshake {
                follower_id: r.str()?,
                last_sequence: r.u64()?,
            },
            TAG_HANDSHAKE_ACK => ReplPdu::HandshakeAck {
                epoch: r.u64()?,
                primary_id: r.str()?,
                watermark: r.u64()?,
                snapshot: match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes()?),
                    _ => return Err(malformed("bad snapshot presence byte")),
                },
            },
            TAG_RECORDS => ReplPdu::Records {
                epoch: r.u64()?,
                // Every frame costs at least its length prefix.
                frames: r.list(4, Reader::bytes)?,
            },
            TAG_ACK => ReplPdu::Ack {
                epoch: r.u64()?,
                last_sequence: r.u64()?,
                applied: r.u64()?,
                durable: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(malformed("bad durable flag")),
                },
            },
            TAG_HEARTBEAT => ReplPdu::Heartbeat {
                epoch: r.u64()?,
                last_sequence: r.u64()?,
            },
            _ => return Err(malformed("unknown replication tag")),
        })
    }
}

fn malformed(reason: &str) -> ClusterError {
    ClusterError::Malformed(reason.into())
}

impl From<DecodeError> for ClusterError {
    fn from(e: DecodeError) -> Self {
        malformed(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ReplPdu> {
        vec![
            ReplPdu::Handshake {
                follower_id: "follower-b".into(),
                last_sequence: 41,
            },
            ReplPdu::HandshakeAck {
                epoch: 3,
                primary_id: "primary-a".into(),
                watermark: 12,
                snapshot: None,
            },
            ReplPdu::HandshakeAck {
                epoch: 3,
                primary_id: "primary-a".into(),
                watermark: 12,
                snapshot: Some(vec![0xAB; 100]),
            },
            ReplPdu::Records {
                epoch: 3,
                frames: vec![vec![1, 2, 3], vec![], vec![9; 40]],
            },
            ReplPdu::Ack {
                epoch: 3,
                last_sequence: 44,
                applied: 3,
                durable: true,
            },
            ReplPdu::Heartbeat {
                epoch: 3,
                last_sequence: 44,
            },
        ]
    }

    #[test]
    fn every_pdu_roundtrips() {
        for pdu in samples() {
            let frame = pdu.encode();
            assert_eq!(ReplPdu::decode(&frame).unwrap(), pdu);
            assert_eq!(ReplPdu::frame_len(&frame).unwrap(), Some(frame.len()));
        }
    }

    #[test]
    fn structural_damage_is_rejected_not_panicked() {
        for pdu in samples() {
            let frame = pdu.encode();
            // Truncation at every boundary.
            for cut in 0..frame.len() {
                let _ = ReplPdu::decode(&frame[..cut]);
            }
            // Trailing garbage.
            let mut long = frame.clone();
            long.push(0);
            assert!(ReplPdu::decode(&long).is_err());
            // Every flipped or zeroed byte either errors cleanly or still
            // decodes — to a PDU whose encoding is exactly those bytes.
            for i in 0..frame.len() {
                for mutated in [frame[i] ^ 0xFF, 0] {
                    let mut bent = frame.clone();
                    bent[i] = mutated;
                    if let Ok(pdu) = ReplPdu::decode(&bent) {
                        assert_eq!(pdu.encode(), bent, "{pdu:?} at byte {i}");
                    }
                }
            }
        }
        assert!(matches!(
            ReplPdu::decode(b"XXXX\x01\x01\x00\x00\x00\x00"),
            Err(ClusterError::Malformed(_))
        ));
    }

    #[test]
    fn version_and_size_guards() {
        let mut frame = ReplPdu::Heartbeat {
            epoch: 1,
            last_sequence: 1,
        }
        .encode();
        frame[4] = 9;
        assert_eq!(
            ReplPdu::decode(&frame),
            Err(ClusterError::UnsupportedVersion(9))
        );
        frame[4] = REPL_VERSION;
        frame[6..10].copy_from_slice(&(MAX_REPL_BODY_LEN as u32 + 1).to_be_bytes());
        assert!(matches!(
            ReplPdu::decode(&frame),
            Err(ClusterError::Malformed(_))
        ));
        // A hostile record count cannot trigger a huge allocation.
        let bomb = ReplPdu::Records {
            epoch: 1,
            frames: vec![],
        };
        let mut frame = bomb.encode();
        let body_start = REPL_HEADER_LEN + 8;
        frame[body_start..body_start + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            ReplPdu::decode(&frame),
            Err(ClusterError::Malformed(_))
        ));
    }

    #[test]
    fn frame_len_streams_partial_headers() {
        let frame = ReplPdu::Heartbeat {
            epoch: 7,
            last_sequence: 9,
        }
        .encode();
        assert_eq!(ReplPdu::frame_len(&frame[..3]).unwrap(), None);
        assert_eq!(
            ReplPdu::frame_len(&frame[..REPL_HEADER_LEN - 1]).unwrap(),
            None
        );
        assert!(ReplPdu::frame_len(b"ROAP\x01").is_err(), "wrong magic");
    }
}
