//! Multi-RI scale-out for the Rights Issuer: WAL log-shipping replication,
//! epoch-fenced primary failover, and consistent-hash sharding.
//!
//! The `oma-store` write-ahead log is a totally-ordered, CRC-framed event
//! stream with snapshots — exactly the primitive classic primary/backup
//! replication needs. This crate ships that stream:
//!
//! * [`proto`] — the replication PDUs (handshake with snapshot watermark,
//!   record batches, acks, heartbeats), framed in the same
//!   magic/version/tag/length envelope style as `oma_drm::wire`, with the
//!   serving **epoch stamped into every PDU** so a deposed primary is
//!   fenced instead of silently forking history,
//! * [`ship`] — the [`Primary`] shipper reading the log
//!   through [`RiStore::records_after`](oma_store::RiStore::records_after)
//!   and the [`Follower`] replaying each record via
//!   [`RiStateImage::apply`](oma_drm::journal::RiStateImage::apply) into
//!   byte-identical state (RNG checkpoint included), with catch-up from
//!   snapshot + tail, an [`AckPolicy`] choosing async or
//!   ack-on-fsync durability, and [`promote`](ship::Follower::promote)
//!   turning a caught-up follower into a serving primary that provably
//!   never re-issues an RO id or session id,
//! * [`router`] — the [`ClusterRouter`] spreading a
//!   device fleet across N shards by consistent hashing, so adding or
//!   removing one shard remaps only ~K/N devices, plus the
//!   `NotPrimary` redirect machinery misrouted clients retarget on.
//!
//! Replication is observable through the ordinary per-server metrics
//! surface: [`ServerMetrics`](oma_net::ServerMetrics) carries records
//! shipped/acked, follower lag and the serving epoch next to the
//! connection counters the server already publishes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod router;
pub mod ship;

pub use proto::ReplPdu;
pub use router::{frame_device_id, ClusterRouter};
pub use ship::{
    replicate, serve_replication, sync_over_tcp, AckPolicy, Follower, Primary, Promoted,
};

use oma_store::StoreError;
use std::error::Error;
use std::fmt;

/// Errors of the replication and failover machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A replication frame failed structural validation (bad magic,
    /// truncation, trailing bytes, unknown tag, ...).
    Malformed(String),
    /// The peer speaks a replication protocol version this node does not.
    UnsupportedVersion(u8),
    /// The sender's epoch is older than the receiver's: a deposed primary
    /// (or a stale follower session) tried to keep writing history. The
    /// stream must stop — the stale node re-syncs under the current epoch
    /// or stands down.
    Fenced {
        /// The stale epoch the sender stamped into the PDU.
        stale: u64,
        /// The epoch the receiver currently serves under.
        current: u64,
    },
    /// A shipped record does not continue the follower's sequence — records
    /// were lost in transit or the peers disagree about history.
    SequenceGap {
        /// The sequence number the follower expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        found: u64,
    },
    /// The follower has neither a snapshot nor a genesis image yet; it
    /// cannot apply records (or promote) until a handshake bootstraps it.
    NotBootstrapped,
    /// The durable store failed underneath replication.
    Store(StoreError),
    /// A socket-level failure while shipping the stream.
    Io(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Malformed(reason) => write!(f, "malformed replication pdu: {reason}"),
            ClusterError::UnsupportedVersion(version) => {
                write!(f, "unsupported replication protocol version {version}")
            }
            ClusterError::Fenced { stale, current } => write!(
                f,
                "fenced: epoch {stale} superseded by epoch {current}, stream must stop"
            ),
            ClusterError::SequenceGap { expected, found } => write!(
                f,
                "replication sequence gap: expected {expected}, found {found}"
            ),
            ClusterError::NotBootstrapped => {
                write!(f, "follower holds no snapshot: handshake must bootstrap it")
            }
            ClusterError::Store(e) => write!(f, "store failure under replication: {e}"),
            ClusterError::Io(reason) => write!(f, "replication transport failure: {reason}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ClusterError {
    fn from(e: StoreError) -> Self {
        ClusterError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_source() {
        let errors = [
            ClusterError::Malformed("x".into()),
            ClusterError::UnsupportedVersion(9),
            ClusterError::Fenced {
                stale: 1,
                current: 2,
            },
            ClusterError::SequenceGap {
                expected: 5,
                found: 9,
            },
            ClusterError::NotBootstrapped,
            ClusterError::Store(StoreError::NoGenesis),
            ClusterError::Io("refused".into()),
        ];
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
        assert!(errors[5].source().is_some());
        assert!(errors[0].source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ClusterError>();
    }
}
