//! The unified error hierarchy of the multi-source crate.
//!
//! Three layers, matching the three layers a request crosses:
//!
//! * [`WireError`] — a byte buffer could not be decoded into a
//!   [`Message`](crate::message::Message) (truncated, bad tag, bad varint).
//! * [`TransportError`] — a request could not be delivered to a source or
//!   its reply could not be obtained (unknown source, I/O failure, remote
//!   rejection, malformed reply).
//! * [`SearchError`] — a query batch or maintenance batch failed as a
//!   whole: bad configuration, transport failure, or a source rejecting a
//!   maintenance batch.
//!
//! [`BatchError`] sits beside them: why a source refused a maintenance
//! batch as a whole.  It crosses the wire as an `ERR_REJECTED_BATCH`
//! [`Message::Error`](crate::message::Message::Error) and reaches the caller
//! as [`SearchError::Rejected`].
//!
//! Lower layers convert losslessly into higher ones (`From` impls), so the
//! public entry points — `Framework::search`, `DataCenter::apply_updates` —
//! report a single [`SearchError`] while preserving the root cause.

use std::fmt;
use std::time::Duration;

use spatial::{CellId, DatasetId, SourceId, SpatialError};

/// Why a byte buffer could not be decoded into a `Message`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the named field was complete.
    Truncated(&'static str),
    /// The leading message tag is not part of the protocol.
    BadTag(u8),
    /// The tag of one maintenance operation is not part of the protocol.
    BadOpTag(u8),
    /// A LEB128 varint was not the shortest encoding of a 64-bit value (it
    /// overflowed, ran past ten bytes or was padded with a zero byte) while
    /// decoding the named field.
    BadVarint(&'static str),
    /// A delta-encoded cell id overflowed `u64`.
    CellOverflow,
    /// A cell delta after the first was zero: cell sets travel strictly
    /// increasing, so every buffer has exactly one decoding and
    /// `encode(decode(b)) == b`.
    DuplicateCell,
    /// A length prefix exceeds the protocol's sanity limit.
    Oversized(&'static str),
    /// The named field decoded to a value the protocol never sends: a
    /// connectivity threshold δ that is negative or not finite, a candidate
    /// stub that claims no cells, a sketch block outside the source's grid.
    OutOfRange(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "message truncated while reading {what}"),
            WireError::BadTag(tag) => write!(f, "unknown message tag {tag}"),
            WireError::BadOpTag(tag) => write!(f, "unknown maintenance op tag {tag}"),
            WireError::BadVarint(what) => write!(f, "malformed varint in {what}"),
            WireError::CellOverflow => write!(f, "delta-encoded cell id overflowed"),
            WireError::DuplicateCell => write!(f, "delta-encoded cell set repeats a cell"),
            WireError::Oversized(what) => write!(f, "{what} exceeds the protocol size limit"),
            WireError::OutOfRange(what) => write!(f, "{what} is outside the protocol's range"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Why a request could not be exchanged with a data source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The transport has no route to this source.
    UnknownSource(SourceId),
    /// The reply (or a frame) could not be decoded.
    Wire(WireError),
    /// Socket-level failure (connect, read, write).  The message carries the
    /// endpoint for diagnosis; `std::io::Error` itself is not `Clone`, so
    /// only its rendering survives.
    Io(String),
    /// The source answered with a protocol error message.
    Remote {
        /// Machine-readable error code (see [`crate::message`] constants).
        code: u16,
        /// Human-readable detail produced by the source.
        detail: String,
    },
    /// The source answered with a message of the wrong kind.
    UnexpectedReply(&'static str),
    /// The source did not reply within the configured deadline.  The call
    /// may still be executing remotely; the caller must treat the request
    /// as of unknown outcome.
    Timeout {
        /// The source that failed to reply in time.
        source: SourceId,
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// The per-source in-flight cap was reached and the request could not
    /// be admitted before its deadline — the source is saturated, not
    /// broken.  Shedding here keeps a slow source from parking every
    /// caller thread.
    Backpressure {
        /// The saturated source.
        source: SourceId,
        /// The in-flight cap that was hit.
        in_flight_cap: usize,
    },
    /// Every retry attempt failed; `last` is the error of the final
    /// attempt (boxed to keep this enum's size flat).
    RetriesExhausted {
        /// How many attempts were made (initial call + retries).
        attempts: u32,
        /// The error of the final attempt.
        last: Box<TransportError>,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownSource(id) => write!(f, "no route to data source {id}"),
            TransportError::Wire(e) => write!(f, "wire decode failed: {e}"),
            TransportError::Io(detail) => write!(f, "transport I/O failed: {detail}"),
            TransportError::Remote { code, detail } => {
                write!(f, "source rejected the request (code {code}): {detail}")
            }
            TransportError::UnexpectedReply(expected) => {
                write!(
                    f,
                    "source replied with the wrong message kind (expected {expected})"
                )
            }
            TransportError::Timeout { source, waited } => {
                write!(
                    f,
                    "source {source} did not reply within {} ms",
                    waited.as_millis()
                )
            }
            TransportError::Backpressure {
                source,
                in_flight_cap,
            } => {
                write!(
                    f,
                    "source {source} is saturated ({in_flight_cap} requests in flight)"
                )
            }
            TransportError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Why a source refused a maintenance batch as a whole, with nothing
/// applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The batch's cells were gridded at another resolution than the
    /// source's own grid, so its cell ids mean different places there.
    ResolutionMismatch {
        /// The resolution the batch states.
        batch: u32,
        /// The resolution of the source's grid.
        source: u32,
    },
    /// An insert or update carries no cells: the dataset gridded to nothing,
    /// has no MBR and can never be indexed.
    EmptyDataset,
    /// A cell id lies outside the source's grid (`cell ≥ 4^θ`).
    CellOutOfGrid {
        /// The dataset whose cell set holds the cell.
        dataset: DatasetId,
        /// The offending cell id.
        cell: CellId,
        /// The resolution θ of the source's grid.
        resolution: u32,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::ResolutionMismatch { batch, source } => write!(
                f,
                "batch gridded at θ={batch} but the source indexes at θ={source}"
            ),
            // The words of the center's own gridding failure, so the caller
            // reads the same rejection whichever side noticed.
            BatchError::EmptyDataset => write!(f, "{}", SpatialError::EmptyDataset),
            BatchError::CellOutOfGrid {
                dataset,
                cell,
                resolution,
            } => write!(
                f,
                "dataset {dataset} holds cell {cell}, outside the θ={resolution} grid"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// Why a framework configuration is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The grid resolution θ is outside the supported `1..=31`.
    Resolution(SpatialError),
    /// The connectivity threshold δ is negative or not finite.
    Delta(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Resolution(e) => write!(f, "{e}"),
            ConfigError::Delta(d) => {
                write!(f, "connectivity threshold δ={d} must be finite and ≥ 0")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a search or maintenance request failed as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The framework (or request) configuration is invalid.
    Config(ConfigError),
    /// The deployment has no source with this id.
    UnknownSource(SourceId),
    /// A request could not be exchanged with a source.
    Transport(TransportError),
    /// A maintenance batch was rejected before anything was applied — by the
    /// center while gridding it (a dataset that grids to nothing) or by the
    /// source ([`BatchError`]); nothing was mutated anywhere.
    Rejected {
        /// Human-readable reason.
        detail: String,
    },
    /// An invariant of the engine itself was violated (worker panic, lost
    /// task slot).  Indicates a bug, not a user error.
    Internal(&'static str),
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::Config(e) => write!(f, "invalid configuration: {e}"),
            SearchError::UnknownSource(id) => {
                write!(f, "no data source with id {id} in the deployment")
            }
            SearchError::Transport(e) => write!(f, "{e}"),
            SearchError::Rejected { detail } => write!(f, "batch rejected: {detail}"),
            SearchError::Internal(what) => write!(f, "internal engine error: {what}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<ConfigError> for SearchError {
    fn from(e: ConfigError) -> Self {
        SearchError::Config(e)
    }
}

impl From<TransportError> for SearchError {
    fn from(e: TransportError) -> Self {
        match e {
            // An unroutable source is a deployment-level condition, not a
            // socket-level one; surface it at the top of the hierarchy.
            TransportError::UnknownSource(id) => SearchError::UnknownSource(id),
            other => SearchError::Transport(other),
        }
    }
}

impl From<WireError> for SearchError {
    fn from(e: WireError) -> Self {
        SearchError::Transport(TransportError::Wire(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_the_root_cause() {
        let wire = WireError::BadTag(9);
        let transport: TransportError = wire.into();
        assert_eq!(transport, TransportError::Wire(WireError::BadTag(9)));
        let search: SearchError = transport.into();
        assert!(matches!(
            search,
            SearchError::Transport(TransportError::Wire(WireError::BadTag(9)))
        ));
        // Unknown sources are hoisted to the top level.
        let search: SearchError = TransportError::UnknownSource(7).into();
        assert_eq!(search, SearchError::UnknownSource(7));
    }

    #[test]
    fn displays_are_informative() {
        for e in [
            WireError::Truncated("query cells"),
            WireError::BadTag(200),
            WireError::BadVarint("k"),
            WireError::CellOverflow,
            WireError::DuplicateCell,
            WireError::OutOfRange("delta"),
            WireError::BadUtf8,
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert!(SearchError::Config(ConfigError::Delta(-1.0))
            .to_string()
            .contains("δ"));
        assert!(SearchError::UnknownSource(3).to_string().contains('3'));
    }

    #[test]
    fn degraded_transport_variants_stay_comparable_and_informative() {
        let timeout = TransportError::Timeout {
            source: 4,
            waited: Duration::from_millis(250),
        };
        assert_eq!(timeout, timeout.clone());
        assert!(timeout.to_string().contains("250"));

        let shed = TransportError::Backpressure {
            source: 2,
            in_flight_cap: 64,
        };
        assert!(shed.to_string().contains("64"));

        let exhausted = TransportError::RetriesExhausted {
            attempts: 3,
            last: Box::new(timeout.clone()),
        };
        assert_eq!(exhausted, exhausted.clone());
        assert!(exhausted.to_string().contains("3 attempts"));
        assert!(exhausted.to_string().contains("250"));
        // Timeouts stay transport-level when hoisted into SearchError.
        assert!(matches!(
            SearchError::from(timeout),
            SearchError::Transport(TransportError::Timeout { source: 4, .. })
        ));
    }
}
