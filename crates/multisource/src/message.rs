//! Wire messages exchanged between the data center and the data sources.
//!
//! The communication cost the paper reports (Figs. 13, 19) is the number of
//! bytes transferred, so messages are actually serialised into a compact
//! binary layout (via [`bytes`]) rather than estimated: cell IDs are
//! delta-encoded as LEB128 varints — the format of [`dits::codec`], shared
//! with the persisted index images — which rewards the query-clipping
//! strategy exactly the way a real deployment would.
//!
//! # Query protocol
//!
//! Three request/reply exchanges, one per [`SearchKind`](crate::SearchKind):
//! [`Message::OverlapQuery`] / [`Message::OverlapReply`] (OJSP),
//! [`Message::CoverageQuery`] / [`Message::CoverageReply`] (CJSP) and
//! [`Message::KnnQuery`] / [`Message::KnnReply`] (k-nearest datasets).
//!
//! The CJSP exchange is *bounds first, cells on demand*: a
//! [`Message::CoverageReply`] carries the cells of a candidate only when the
//! candidate is directly connected to the query, and a
//! [`CandidateCells::Stub`] — the dataset's cell count, an upper bound on
//! any gain it can bring — otherwise; the center asks for the cells behind a
//! stub with [`Message::CellsQuery`] only when that bound could beat a pick
//! (the rule and why it is exact are on the engine's `Cjsp` kind).
//!
//! # Maintenance protocol
//!
//! One maintenance exchange implements the paper's Appendix IX-C algorithms
//! across the deployment:
//!
//! * [`Message::ApplyUpdates`] (center → source) carries a batch of
//!   [`CellOp`]s: a dataset id and its [`CellSet`] for every insert/update,
//!   a dataset id for every delete, and — once per non-empty batch — the
//!   resolution θ the cells were gridded at.  No raw point and no dataset
//!   name crosses the wire: a source keeps cells only, so the center grids
//!   each caller-side [`UpdateOp`] at the target source's resolution (the
//!   one its DITS-G summary states, and the grid it already grids every
//!   query for that source with) and ships the cells in the layout query
//!   cells travel in.  An *empty* batch doubles as a summary poll: it
//!   carries no resolution, mutates nothing and is answered with the
//!   source's current summary, which is how a data center bootstraps DITS-G
//!   from remote sources
//!   ([`DataCenter::from_transport`](crate::DataCenter::from_transport)) and
//!   how it learns the resolution of a source DITS-G holds no summary of.
//! * [`Message::SummaryRefresh`] (source → center) acknowledges the batch
//!   with the source's *new root summary* and applied/rejected counts, so
//!   the data center can refresh DITS-G without another round trip.
//!   Answering a summary poll it also carries the source's whole *block
//!   sketch* ([`dits::sketch`]); answering a batch it carries no block,
//!   since the center added the blocks of every dataset it sent to its copy
//!   before sending them.
//!
//! A source that cannot serve a request answers [`Message::Error`] with a
//! machine-readable code ([`ERR_UNSUPPORTED`], [`ERR_REJECTED_BATCH`]) and a
//! human-readable detail, so a transactional rejection crosses transports
//! losslessly instead of dying as a closed socket.
//!
//! **Consistency guarantee.** A source validates the whole batch before
//! mutating anything — a resolution other than its own grid's, an empty
//! cell set or a cell id `≥ 4^θ` rejects the batch
//! ([`BatchError`](crate::BatchError)) with no partial application — and the
//! data center refreshes DITS-G with the returned summary before any later
//! query batch is planned.  Queries therefore never observe a summary that
//! disagrees with its source's local index, which is exactly the property
//! `candidate_sources` pruning needs to stay lossless.

use bytes::{Buf, BufMut, Bytes, BytesMut};
pub(crate) use dits::codec::put_varint;
use dits::codec::{self, put_cells, CodecError};
use dits::sketch::block_id_bound;
use dits::{Neighbor, OverlapResult, SourceSummary};
use spatial::{CellSet, DatasetId, Grid, Mbr, Point, SourceId, SpatialDataset, SpatialError};

use crate::error::WireError;

/// Error code: the source does not serve this request kind.
pub const ERR_UNSUPPORTED: u16 = 0;
/// Error code: a maintenance batch was structurally invalid and rejected as
/// a whole (nothing was applied).
pub const ERR_REJECTED_BATCH: u16 = 1;
/// Error code: a [`Message::CellsQuery`] names a dataset the source does not
/// hold (any more).
pub const ERR_UNKNOWN_DATASET: u16 = 2;

/// Upper bound on an error detail on the wire.  Enforced symmetrically: the
/// encoder truncates (at a char boundary) and the decoder rejects anything
/// longer, so an oversized detail can never round-trip in-process but fail
/// over TCP.
const MAX_ERROR_DETAIL_BYTES: usize = 1 << 20;

/// One maintenance operation as a caller states it: inserts and updates name
/// the *raw* dataset (points in longitude / latitude).  Raw datasets never
/// travel — [`DataCenter::apply_updates`](crate::DataCenter::apply_updates)
/// grids each op into the [`CellOp`] that does.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Add a new dataset to the source.
    Insert(SpatialDataset),
    /// Replace the content of an existing dataset.
    Update(SpatialDataset),
    /// Remove a dataset.
    Delete(DatasetId),
}

impl UpdateOp {
    /// Grids the operation into its wire form.  Points outside the grid's
    /// space are skipped, as everywhere a dataset is gridded; a dataset left
    /// with no cell at all is [`SpatialError::EmptyDataset`].
    pub fn grid(&self, grid: &Grid) -> Result<CellOp, SpatialError> {
        Ok(match self {
            UpdateOp::Insert(d) => CellOp::Insert {
                dataset: d.id,
                cells: d.to_cell_set(grid)?,
            },
            UpdateOp::Update(d) => CellOp::Update {
                dataset: d.id,
                cells: d.to_cell_set(grid)?,
            },
            UpdateOp::Delete(id) => CellOp::Delete(*id),
        })
    }
}

/// One maintenance operation as it travels inside a
/// [`Message::ApplyUpdates`] batch: datasets are cell sets on the grid whose
/// resolution the batch states.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOp {
    /// Add a new dataset to the source.
    Insert {
        /// The new dataset's id.
        dataset: DatasetId,
        /// Its cell-based representation.
        cells: CellSet,
    },
    /// Replace the content of an existing dataset.
    Update {
        /// The dataset to replace.
        dataset: DatasetId,
        /// Its new cell-based representation.
        cells: CellSet,
    },
    /// Remove a dataset.
    Delete(DatasetId),
}

/// A coverage candidate returned by a source: one dataset its local greedy
/// selected, with what the data center needs to aggregate across sources —
/// the dataset's cells, or only how many there are.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageCandidate {
    /// The source that owns the dataset.  Never on the wire: a reply speaks
    /// for the source that sent it, and decoding fills this in from there.
    pub source: SourceId,
    /// The dataset id within its source.
    pub dataset: DatasetId,
    /// The dataset's cells, or their count.
    pub cells: CandidateCells,
}

/// What a [`CoverageCandidate`] brings of its dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum CandidateCells {
    /// The dataset's cell-based representation; never empty.
    Inline(CellSet),
    /// Only `|S_D|`, the number of cells — at least one.  No marginal gain
    /// of the dataset can exceed it.
    Stub(usize),
}

// Wire tags, one per `Message` variant.  repo-lint's `wire-tags` rule
// cross-checks every constant against `encode`, `decode`, the truncation-fuzz
// tag list in `tests/transport.rs`, and the README protocol table — adding a
// variant without threading its tag through all four fails the analysis job.
/// Wire tag of [`Message::OverlapQuery`].
pub const TAG_OVERLAP_QUERY: u8 = 0;
/// Wire tag of [`Message::OverlapReply`].
pub const TAG_OVERLAP_REPLY: u8 = 1;
/// Wire tag of [`Message::CoverageQuery`].
pub const TAG_COVERAGE_QUERY: u8 = 2;
/// Wire tag of [`Message::CoverageReply`].
pub const TAG_COVERAGE_REPLY: u8 = 3;
/// Wire tag of [`Message::ApplyUpdates`].
pub const TAG_APPLY_UPDATES: u8 = 4;
/// Wire tag of [`Message::SummaryRefresh`].
pub const TAG_SUMMARY_REFRESH: u8 = 5;
/// Wire tag of [`Message::KnnQuery`].
pub const TAG_KNN_QUERY: u8 = 6;
/// Wire tag of [`Message::KnnReply`].
pub const TAG_KNN_REPLY: u8 = 7;
/// Wire tag of [`Message::Error`].
pub const TAG_ERROR: u8 = 8;
// Tags 9–12 are retired and must never be reused: old peers may still send
// them, and they decode to `WireError::BadTag` like any unknown tag.
/// Wire tag of [`Message::MetricsQuery`].
pub const TAG_METRICS_QUERY: u8 = 13;
/// Wire tag of [`Message::MetricsSnapshot`].
pub const TAG_METRICS_SNAPSHOT: u8 = 14;
/// Wire tag of [`Message::CellsQuery`].
pub const TAG_CELLS_QUERY: u8 = 15;

// Inner wire tags: one byte framing each element of a variant's payload.
// Named for the same reason as the frame-level set — repo-lint cross-checks
// that every inner enum variant's tag is wired through both encode and
// decode, which a bare literal defeats.
/// Inner tag of [`CellOp::Insert`] inside `ApplyUpdates`.
pub const OP_TAG_INSERT: u8 = 0;
/// Inner tag of [`CellOp::Update`] inside `ApplyUpdates`.
pub const OP_TAG_UPDATE: u8 = 1;
/// Inner tag of [`CellOp::Delete`] inside `ApplyUpdates`.
pub const OP_TAG_DELETE: u8 = 2;
/// Inner tag of [`obs::MetricValue::Counter`] inside `MetricsSnapshot`.
pub const METRIC_TAG_COUNTER: u8 = 0;
/// Inner tag of [`obs::MetricValue::Gauge`] inside `MetricsSnapshot`.
pub const METRIC_TAG_GAUGE: u8 = 1;
/// Inner tag of [`obs::MetricValue::Histogram`] inside `MetricsSnapshot`.
pub const METRIC_TAG_HISTOGRAM: u8 = 2;

/// Messages of the multi-source protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Data center → source: run a local overlap search.
    OverlapQuery {
        /// The (possibly clipped) query cell set.
        query: CellSet,
        /// Number of results requested.
        k: usize,
    },
    /// Source → data center: local overlap results.
    OverlapReply {
        /// The replying source.
        source: SourceId,
        /// Local top-k results.
        results: Vec<OverlapResult>,
    },
    /// Data center → source: run a local coverage search.
    CoverageQuery {
        /// The (possibly clipped) query cell set.
        query: CellSet,
        /// Number of results requested.
        k: usize,
        /// Connectivity threshold δ in cell units.
        delta: f64,
    },
    /// Source → data center: the datasets the source's local coverage search
    /// selected, in pick order.  Answering a [`Message::CoverageQuery`], a
    /// candidate within δ of the request's query travels with its cells and
    /// every other as a [`CandidateCells::Stub`]; answering a
    /// [`Message::CellsQuery`], it holds exactly the datasets asked for, in
    /// that order, each with its cells.
    CoverageReply {
        /// The replying source.
        source: SourceId,
        /// The candidates, each owned by `source`.
        candidates: Vec<CoverageCandidate>,
    },
    /// Data center → source: apply a batch of index-maintenance operations.
    /// An empty batch is a read-only summary poll
    /// ([`Message::summary_poll`]).
    ApplyUpdates {
        /// The resolution θ every cell set of the batch was gridded at; the
        /// source rejects the batch unless it is its own.  Travels only with
        /// a non-empty batch: a summary poll decodes with `0`.
        resolution: u32,
        /// The operations, applied in order.
        ops: Vec<CellOp>,
    },
    /// Source → data center: maintenance acknowledgement carrying the
    /// source's refreshed root summary, so DITS-G can be updated without a
    /// second round trip; answering a summary poll, the whole block sketch
    /// too.
    ///
    /// The summary's geometry travels as its MBR only; pivot and radius are
    /// recomputed on decode (they are fully determined by the MBR).
    ///
    /// Nothing ties a reply to the batch it answers but its counts:
    /// `applied + rejected` is the size of that batch, and a center whose
    /// reply does not add up to the batch it sent polls instead of trusting
    /// it.  A reply replayed from an earlier batch *of the same size* passes
    /// that check, and its stale root summary is folded into DITS-G; telling
    /// it apart needs the epoch of ROADMAP item 5 (b).  The sketch the center
    /// filters by is not at stake: no batch reply can shrink it.
    SummaryRefresh {
        /// The refreshed root summary of the replying source.
        summary: SourceSummary,
        /// Number of datasets the source holds after the batch.
        dataset_count: u64,
        /// Operations that mutated the index.
        applied: u64,
        /// Operations rejected individually (duplicate insert, missing
        /// update/delete target).
        rejected: u64,
        /// Answering a summary poll, the source's whole block sketch
        /// ([`DitsLocal::sketch`](dits::DitsLocal::sketch)); answering a
        /// batch, empty.  Block ids travel as cell sets do and are checked
        /// on decode against the grid of `summary.resolution`.
        blocks: CellSet,
    },
    /// Data center → source: run a local k-nearest-datasets search.  The
    /// source a query is sent to first receives it whole; the others receive
    /// only the query cells within the k-th distance of that first reply of
    /// their root rectangle and of the blocks of their sketch, which changes
    /// no distance that can still enter the answer (the argument is on the
    /// engine's `Knn` kind) — if their lower bound and id let them beat the
    /// first reply's k-th neighbour at all.
    ///
    /// Since the clip reads the sketch, kNN shares the whole restart hole of
    /// ROADMAP item 5 (b), the sketch's half included: a source restarted at
    /// its initial state after the center polled it again can hold data in
    /// blocks the center's sketch of it lacks, and the query cells near them
    /// are not sent.
    KnnQuery {
        /// The query cells at the source's resolution — whole, or clipped as
        /// above.
        query: CellSet,
        /// Number of neighbours requested.
        k: usize,
    },
    /// Source → data center: the local k nearest datasets, sorted by
    /// ascending distance.
    KnnReply {
        /// The replying source.
        source: SourceId,
        /// Local nearest datasets with exact distances — finite and not
        /// negative, `-0.0` included, which `decode` refuses: it would rank
        /// before every true distance, and as a first reply's k-th distance
        /// leave every other source out.
        neighbors: Vec<Neighbor>,
    },
    /// Source → data center: the request could not be served.  Carries a
    /// machine-readable code plus a human-readable detail, so transactional
    /// rejections survive any transport.
    Error {
        /// One of [`ERR_UNSUPPORTED`], [`ERR_REJECTED_BATCH`].
        code: u16,
        /// Human-readable reason.
        detail: String,
    },
    /// Data center → source: scrape the source's metrics registry (remote
    /// introspection; served read-only, like a summary poll).
    MetricsQuery,
    /// Source → data center: a point-in-time snapshot of the source's
    /// metrics registry, answering a [`Message::MetricsQuery`].
    MetricsSnapshot {
        /// The replying source.
        source: SourceId,
        /// The registry snapshot (counters, gauges, log₂ histograms).
        snapshot: obs::MetricsSnapshot,
    },
    /// Data center → source: send the cells of these datasets — the ones an
    /// earlier [`Message::CoverageReply`] named by a stub whose size could
    /// still beat a pick of the center's greedy.  Answered by a
    /// [`Message::CoverageReply`], or by an [`ERR_UNKNOWN_DATASET`]
    /// [`Message::Error`] when one of them is gone, never by a shorter list.
    ///
    /// Nothing ties the two exchanges to one state of the source: a
    /// maintenance batch applied between them can change or remove a stubbed
    /// dataset, and the center then aggregates cells the stub's size did not
    /// describe.  Replies carry no epoch yet (ROADMAP item 5 (b)) — the hole
    /// the summaries share: a source restarted at its initial state answers
    /// from data the root rectangle the center holds of it does not
    /// describe.  (The block sketch still covers it unless the center has
    /// polled the source again since bootstrap: the sketch only grows.)
    CellsQuery {
        /// The datasets whose cells are wanted.
        datasets: Vec<DatasetId>,
    },
}

impl Message {
    /// The read-only summary poll: an empty maintenance batch.
    pub fn summary_poll() -> Self {
        Message::ApplyUpdates {
            resolution: 0,
            ops: Vec::new(),
        }
    }

    /// Whether serving this request changes the source: a maintenance batch
    /// with operations in it (an empty one is the read-only summary poll).
    pub fn mutates(&self) -> bool {
        matches!(self, Message::ApplyUpdates { ops, .. } if !ops.is_empty())
    }

    /// Serialises the message into its wire form.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        match self {
            Message::OverlapQuery { query, k } => {
                buf.put_u8(TAG_OVERLAP_QUERY);
                put_varint(&mut buf, *k as u64);
                put_cells(&mut buf, query);
            }
            Message::OverlapReply { source, results } => {
                buf.put_u8(TAG_OVERLAP_REPLY);
                buf.put_u16(*source);
                put_varint(&mut buf, results.len() as u64);
                for r in results {
                    put_varint(&mut buf, r.dataset as u64);
                    put_varint(&mut buf, r.overlap as u64);
                }
            }
            Message::CoverageQuery { query, k, delta } => {
                buf.put_u8(TAG_COVERAGE_QUERY);
                put_varint(&mut buf, *k as u64);
                buf.put_f64(*delta);
                put_cells(&mut buf, query);
            }
            Message::CoverageReply { source, candidates } => {
                buf.put_u8(TAG_COVERAGE_REPLY);
                buf.put_u16(*source);
                put_varint(&mut buf, candidates.len() as u64);
                for c in candidates {
                    put_varint(&mut buf, c.dataset as u64);
                    // A stub is the one thing an empty cell block can mean,
                    // and it is followed by the size.  (The values the type
                    // documents as never sent — an inline candidate without
                    // cells, a stub of size 0 — both encode as a stub of
                    // size 0, which `decode` refuses.)
                    match &c.cells {
                        CandidateCells::Inline(cells) if !cells.is_empty() => {
                            put_cells(&mut buf, cells);
                        }
                        CandidateCells::Inline(_) => buf.put_slice(&[0, 0]),
                        CandidateCells::Stub(size) => {
                            buf.put_u8(0);
                            put_varint(&mut buf, *size as u64);
                        }
                    }
                }
            }
            Message::ApplyUpdates { resolution, ops } => {
                buf.put_u8(TAG_APPLY_UPDATES);
                put_varint(&mut buf, ops.len() as u64);
                if !ops.is_empty() {
                    put_varint(&mut buf, u64::from(*resolution));
                }
                for op in ops {
                    match op {
                        CellOp::Insert { dataset, cells } => {
                            buf.put_u8(OP_TAG_INSERT);
                            put_gridded(&mut buf, *dataset, cells);
                        }
                        CellOp::Update { dataset, cells } => {
                            buf.put_u8(OP_TAG_UPDATE);
                            put_gridded(&mut buf, *dataset, cells);
                        }
                        CellOp::Delete(id) => {
                            buf.put_u8(OP_TAG_DELETE);
                            put_varint(&mut buf, *id as u64);
                        }
                    }
                }
            }
            Message::SummaryRefresh {
                summary,
                dataset_count,
                applied,
                rejected,
                blocks,
            } => {
                buf.put_u8(TAG_SUMMARY_REFRESH);
                buf.put_u16(summary.source);
                buf.put_u32(summary.resolution);
                buf.put_f64(summary.geometry.rect.min.x);
                buf.put_f64(summary.geometry.rect.min.y);
                buf.put_f64(summary.geometry.rect.max.x);
                buf.put_f64(summary.geometry.rect.max.y);
                put_varint(&mut buf, *dataset_count);
                put_varint(&mut buf, *applied);
                put_varint(&mut buf, *rejected);
                put_cells(&mut buf, blocks);
            }
            Message::KnnQuery { query, k } => {
                buf.put_u8(TAG_KNN_QUERY);
                put_varint(&mut buf, *k as u64);
                put_cells(&mut buf, query);
            }
            Message::KnnReply { source, neighbors } => {
                buf.put_u8(TAG_KNN_REPLY);
                buf.put_u16(*source);
                put_varint(&mut buf, neighbors.len() as u64);
                for n in neighbors {
                    put_varint(&mut buf, n.dataset as u64);
                    buf.put_f64(n.distance);
                }
            }
            Message::Error { code, detail } => {
                buf.put_u8(TAG_ERROR);
                buf.put_u16(*code);
                let mut len = detail.len().min(MAX_ERROR_DETAIL_BYTES);
                while !detail.is_char_boundary(len) {
                    len -= 1;
                }
                put_varint(&mut buf, len as u64);
                buf.put_slice(detail.as_bytes().get(..len).unwrap_or_default());
            }
            Message::MetricsQuery => {
                buf.put_u8(TAG_METRICS_QUERY);
            }
            Message::CellsQuery { datasets } => {
                buf.put_u8(TAG_CELLS_QUERY);
                put_varint(&mut buf, datasets.len() as u64);
                for dataset in datasets {
                    put_varint(&mut buf, u64::from(*dataset));
                }
            }
            Message::MetricsSnapshot { source, snapshot } => {
                buf.put_u8(TAG_METRICS_SNAPSHOT);
                buf.put_u16(*source);
                put_varint(&mut buf, snapshot.samples.len() as u64);
                for sample in &snapshot.samples {
                    put_string(&mut buf, &sample.name);
                    put_varint(&mut buf, sample.labels.len() as u64);
                    for (key, value) in &sample.labels {
                        put_string(&mut buf, key);
                        put_string(&mut buf, value);
                    }
                    match &sample.value {
                        obs::MetricValue::Counter(v) => {
                            buf.put_u8(METRIC_TAG_COUNTER);
                            put_varint(&mut buf, *v);
                        }
                        obs::MetricValue::Gauge(v) => {
                            buf.put_u8(METRIC_TAG_GAUGE);
                            buf.put_f64(*v);
                        }
                        obs::MetricValue::Histogram {
                            count,
                            sum,
                            buckets,
                        } => {
                            buf.put_u8(METRIC_TAG_HISTOGRAM);
                            put_varint(&mut buf, *count);
                            put_varint(&mut buf, *sum);
                            put_varint(&mut buf, buckets.len() as u64);
                            for (idx, n) in buckets {
                                buf.put_u8(*idx);
                                put_varint(&mut buf, *n);
                            }
                        }
                    }
                }
            }
        }
        buf.freeze()
    }

    /// Deserialises a message from its wire form, reporting *why* malformed
    /// input was rejected — the difference between "a peer sent garbage" and
    /// "a frame was cut short", which a federated deployment must be able to
    /// tell apart.
    pub fn decode(mut data: Bytes) -> Result<Self, WireError> {
        if data.is_empty() {
            return Err(WireError::Truncated("message tag"));
        }
        let tag = data.get_u8();
        match tag {
            TAG_OVERLAP_QUERY => {
                let k = get_varint(&mut data, "k")? as usize;
                let query = get_cells(&mut data)?;
                Ok(Message::OverlapQuery { query, k })
            }
            TAG_OVERLAP_REPLY => {
                if data.remaining() < 2 {
                    return Err(WireError::Truncated("source id"));
                }
                let source = data.get_u16();
                let n = get_varint(&mut data, "result count")? as usize;
                let mut results = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let dataset = get_dataset_id(&mut data, "result dataset id")?;
                    let overlap = get_varint(&mut data, "result overlap")? as usize;
                    results.push(OverlapResult { dataset, overlap });
                }
                Ok(Message::OverlapReply { source, results })
            }
            TAG_COVERAGE_QUERY => {
                let k = get_varint(&mut data, "k")? as usize;
                if data.remaining() < 8 {
                    return Err(WireError::Truncated("delta"));
                }
                let delta = data.get_f64();
                if !delta.is_finite() || delta < 0.0 {
                    return Err(WireError::OutOfRange("delta"));
                }
                let query = get_cells(&mut data)?;
                Ok(Message::CoverageQuery { query, k, delta })
            }
            TAG_COVERAGE_REPLY => {
                if data.remaining() < 2 {
                    return Err(WireError::Truncated("source id"));
                }
                let source = data.get_u16();
                let n = get_varint(&mut data, "candidate count")? as usize;
                let mut candidates = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let dataset = get_dataset_id(&mut data, "candidate dataset id")?;
                    let cells = get_cells(&mut data)?;
                    let cells = if cells.is_empty() {
                        match get_varint(&mut data, "stub size")? {
                            0 => return Err(WireError::OutOfRange("stub size")),
                            size => CandidateCells::Stub(size as usize),
                        }
                    } else {
                        CandidateCells::Inline(cells)
                    };
                    candidates.push(CoverageCandidate {
                        source,
                        dataset,
                        cells,
                    });
                }
                Ok(Message::CoverageReply { source, candidates })
            }
            TAG_APPLY_UPDATES => {
                let n = get_varint(&mut data, "op count")? as usize;
                let resolution = if n == 0 {
                    0
                } else {
                    u32::try_from(get_varint(&mut data, "batch resolution")?)
                        .map_err(|_| WireError::Oversized("batch resolution"))?
                };
                let mut ops = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    if !data.has_remaining() {
                        return Err(WireError::Truncated("op tag"));
                    }
                    let op = match data.get_u8() {
                        OP_TAG_INSERT => {
                            let (dataset, cells) = get_gridded(&mut data)?;
                            CellOp::Insert { dataset, cells }
                        }
                        OP_TAG_UPDATE => {
                            let (dataset, cells) = get_gridded(&mut data)?;
                            CellOp::Update { dataset, cells }
                        }
                        OP_TAG_DELETE => {
                            CellOp::Delete(get_dataset_id(&mut data, "delete target")?)
                        }
                        other => return Err(WireError::BadOpTag(other)),
                    };
                    ops.push(op);
                }
                Ok(Message::ApplyUpdates { resolution, ops })
            }
            TAG_SUMMARY_REFRESH => {
                if data.remaining() < 2 + 4 + 4 * 8 {
                    return Err(WireError::Truncated("summary"));
                }
                let source = data.get_u16();
                let resolution = data.get_u32();
                let min = Point::new(data.get_f64(), data.get_f64());
                let max = Point::new(data.get_f64(), data.get_f64());
                // Corners out of order (or not numbers) would be put in order
                // by `Mbr::new`, and the summary would no longer be the one
                // these bytes spell.
                if !(min.x <= max.x && min.y <= max.y) {
                    return Err(WireError::OutOfRange("summary rectangle"));
                }
                let dataset_count = get_varint(&mut data, "dataset count")?;
                let applied = get_varint(&mut data, "applied count")?;
                let rejected = get_varint(&mut data, "rejected count")?;
                let blocks = get_blocks(&mut data, resolution)?;
                Ok(Message::SummaryRefresh {
                    summary: SourceSummary {
                        source,
                        geometry: dits::NodeGeometry::from_mbr(Mbr { min, max }),
                        resolution,
                    },
                    dataset_count,
                    applied,
                    rejected,
                    blocks,
                })
            }
            TAG_KNN_QUERY => {
                let k = get_varint(&mut data, "k")? as usize;
                let query = get_cells(&mut data)?;
                Ok(Message::KnnQuery { query, k })
            }
            TAG_KNN_REPLY => {
                if data.remaining() < 2 {
                    return Err(WireError::Truncated("source id"));
                }
                let source = data.get_u16();
                let n = get_varint(&mut data, "neighbor count")? as usize;
                let mut neighbors = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let dataset = get_dataset_id(&mut data, "neighbor dataset id")?;
                    if data.remaining() < 8 {
                        return Err(WireError::Truncated("neighbor distance"));
                    }
                    let distance = data.get_f64();
                    if !distance.is_finite() || distance.is_sign_negative() {
                        return Err(WireError::OutOfRange("neighbor distance"));
                    }
                    neighbors.push(Neighbor { dataset, distance });
                }
                Ok(Message::KnnReply { source, neighbors })
            }
            TAG_ERROR => {
                if data.remaining() < 2 {
                    return Err(WireError::Truncated("error code"));
                }
                let code = data.get_u16();
                let len = get_varint(&mut data, "error detail length")? as usize;
                if len > MAX_ERROR_DETAIL_BYTES {
                    return Err(WireError::Oversized("error detail"));
                }
                if data.remaining() < len {
                    return Err(WireError::Truncated("error detail"));
                }
                let raw = data
                    .chunk()
                    .get(..len)
                    .ok_or(WireError::Truncated("error detail"))?;
                let detail = String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)?;
                data.advance(len);
                Ok(Message::Error { code, detail })
            }
            TAG_METRICS_QUERY => Ok(Message::MetricsQuery),
            TAG_CELLS_QUERY => {
                let n = get_varint(&mut data, "dataset count")? as usize;
                let mut datasets = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    datasets.push(get_dataset_id(&mut data, "dataset id")?);
                }
                Ok(Message::CellsQuery { datasets })
            }
            TAG_METRICS_SNAPSHOT => {
                if data.remaining() < 2 {
                    return Err(WireError::Truncated("source id"));
                }
                let source = data.get_u16();
                let n = get_varint(&mut data, "sample count")? as usize;
                let mut samples = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let name = get_string(&mut data, "metric name")?;
                    let label_count = get_varint(&mut data, "label count")? as usize;
                    let mut labels = Vec::with_capacity(label_count.min(1 << 8));
                    for _ in 0..label_count {
                        let key = get_string(&mut data, "label key")?;
                        let value = get_string(&mut data, "label value")?;
                        labels.push((key, value));
                    }
                    if !data.has_remaining() {
                        return Err(WireError::Truncated("metric value tag"));
                    }
                    let value = match data.get_u8() {
                        METRIC_TAG_COUNTER => {
                            obs::MetricValue::Counter(get_varint(&mut data, "counter value")?)
                        }
                        METRIC_TAG_GAUGE => {
                            if data.remaining() < 8 {
                                return Err(WireError::Truncated("gauge value"));
                            }
                            obs::MetricValue::Gauge(data.get_f64())
                        }
                        METRIC_TAG_HISTOGRAM => {
                            let count = get_varint(&mut data, "histogram count")?;
                            let sum = get_varint(&mut data, "histogram sum")?;
                            let bucket_count =
                                get_varint(&mut data, "histogram bucket count")? as usize;
                            let mut buckets = Vec::with_capacity(bucket_count.min(1 << 8));
                            for _ in 0..bucket_count {
                                if !data.has_remaining() {
                                    return Err(WireError::Truncated("histogram bucket index"));
                                }
                                let idx = data.get_u8();
                                let bucket = get_varint(&mut data, "histogram bucket value")?;
                                buckets.push((idx, bucket));
                            }
                            obs::MetricValue::Histogram {
                                count,
                                sum,
                                buckets,
                            }
                        }
                        other => return Err(WireError::BadOpTag(other)),
                    };
                    samples.push(obs::MetricSample {
                        name,
                        labels,
                        value,
                    });
                }
                Ok(Message::MetricsSnapshot {
                    source,
                    snapshot: obs::MetricsSnapshot { samples },
                })
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Size of the message on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

/// Writes a gridded dataset: its id, then its cells.
fn put_gridded(buf: &mut BytesMut, dataset: DatasetId, cells: &CellSet) {
    put_varint(buf, dataset as u64);
    put_cells(buf, cells);
}

fn get_gridded(data: &mut Bytes) -> Result<(DatasetId, CellSet), WireError> {
    let dataset = get_dataset_id(data, "dataset id")?;
    Ok((dataset, get_cells(data)?))
}

/// Reads a dataset id of the field `what`: a varint that fits the id type,
/// so that no two byte strings decode to the same id.
fn get_dataset_id(data: &mut Bytes, what: &'static str) -> Result<DatasetId, WireError> {
    DatasetId::try_from(get_varint(data, what)?).map_err(|_| WireError::Oversized(what))
}

/// Reads a cell set, accepting exactly the bytes [`put_cells`] writes.
fn get_cells(data: &mut Bytes) -> Result<CellSet, WireError> {
    codec::get_cells(data).map_err(|e| wire_error(e, "cell delta"))
}

/// Reads a block sketch: block ids of the grid of `resolution`, in the
/// bytes of a cell set.
fn get_blocks(data: &mut Bytes, resolution: u32) -> Result<CellSet, WireError> {
    let blocks = codec::get_cells(data).map_err(|e| wire_error(e, "sketch block"))?;
    // Block ids are sorted: the last is the largest.
    match (blocks.cells().last(), block_id_bound(resolution)) {
        (Some(&block), Some(bound)) if block >= bound => Err(WireError::OutOfRange("sketch block")),
        _ => Ok(blocks),
    }
}

/// A codec failure as the wire error of the field being read.
fn wire_error(e: CodecError, what: &'static str) -> WireError {
    match e {
        CodecError::Truncated => WireError::Truncated(what),
        CodecError::BadVarint => WireError::BadVarint(what),
        CodecError::CellOverflow => WireError::CellOverflow,
        CodecError::DuplicateCell => WireError::DuplicateCell,
    }
}

/// Metric names and label strings come from in-process registries and are
/// short; a decoder bound keeps a hostile snapshot from forcing a huge
/// allocation.
const MAX_METRIC_STRING_BYTES: usize = 1 << 12;

/// Writes a short metrics string (name, label key, label value), truncated at
/// a char boundary if it somehow exceeds the wire bound so that encode and
/// decode enforce the same limit.
fn put_string(buf: &mut BytesMut, s: &str) {
    let mut len = s.len().min(MAX_METRIC_STRING_BYTES);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    put_varint(buf, len as u64);
    buf.put_slice(s.as_bytes().get(..len).unwrap_or_default());
}

fn get_string(data: &mut Bytes, what: &'static str) -> Result<String, WireError> {
    let len = get_varint(data, what)? as usize;
    if len > MAX_METRIC_STRING_BYTES {
        return Err(WireError::Oversized(what));
    }
    if data.remaining() < len {
        return Err(WireError::Truncated(what));
    }
    let raw = data.chunk().get(..len).ok_or(WireError::Truncated(what))?;
    let s = String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)?;
    data.advance(len);
    Ok(s)
}

/// Reads one varint of the field `what`.  `pub(crate)`, like the
/// [`put_varint`] re-export, so the transport frame codec reuses the exact
/// same integer representation as the messages it carries.
pub(crate) fn get_varint(data: &mut Bytes, what: &'static str) -> Result<u64, WireError> {
    codec::get_varint(data).map_err(|e| wire_error(e, what))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cs(ids: &[u64]) -> CellSet {
        CellSet::from_cells(ids.iter().copied())
    }

    #[test]
    fn overlap_query_roundtrip() {
        let m = Message::OverlapQuery {
            query: cs(&[1, 5, 100, 4096]),
            k: 10,
        };
        let encoded = m.encode();
        assert_eq!(Message::decode(encoded.clone()), Ok(m.clone()));
        assert_eq!(m.wire_size(), encoded.len());
    }

    #[test]
    fn overlap_reply_roundtrip() {
        let m = Message::OverlapReply {
            source: 3,
            results: vec![
                OverlapResult {
                    dataset: 7,
                    overlap: 42,
                },
                OverlapResult {
                    dataset: 1000,
                    overlap: 1,
                },
            ],
        };
        assert_eq!(Message::decode(m.encode()), Ok(m));
    }

    #[test]
    fn coverage_messages_roundtrip() {
        let q = Message::CoverageQuery {
            query: cs(&[0, 2, 9]),
            k: 5,
            delta: 10.0,
        };
        assert_eq!(Message::decode(q.encode()), Ok(q));
        let r = Message::CoverageReply {
            source: 1,
            candidates: vec![
                CoverageCandidate {
                    source: 1,
                    dataset: 4,
                    cells: CandidateCells::Inline(cs(&[9, 10, 11])),
                },
                CoverageCandidate {
                    source: 1,
                    dataset: 300,
                    cells: CandidateCells::Stub(926),
                },
            ],
        };
        let encoded = r.encode();
        // The tag, the replying source, two candidates: dataset 4 with three
        // cells, then dataset 300 as an empty cell block and its size.  No
        // candidate carries a source of its own.
        assert_eq!(
            encoded.as_ref(),
            &[
                TAG_COVERAGE_REPLY,
                0,
                1,
                2,
                4,
                3,
                9,
                1,
                1,
                0xAC,
                0x02,
                0,
                0x9E,
                0x07
            ]
        );
        assert_eq!(Message::decode(encoded), Ok(r));
        let f = Message::CellsQuery {
            datasets: vec![300, 4, 4],
        };
        assert_eq!(f.encode().as_ref(), &[TAG_CELLS_QUERY, 3, 0xAC, 0x02, 4, 4]);
        assert_eq!(Message::decode(f.encode()), Ok(f));
    }

    /// Every candidate of a decoded reply belongs to the source that sent
    /// it, a stub has exactly one encoding, and δ is a distance.
    #[test]
    fn coverage_values_the_protocol_never_sends_are_rejected() {
        let reply = |candidate: &[u8]| {
            let mut raw = vec![TAG_COVERAGE_REPLY, 0, 7, 1]; // source 7, one candidate
            raw.extend_from_slice(candidate);
            Message::decode(Bytes::from(raw))
        };
        assert_eq!(
            reply(&[5, 0, 9]),
            Ok(Message::CoverageReply {
                source: 7,
                candidates: vec![CoverageCandidate {
                    source: 7,
                    dataset: 5,
                    cells: CandidateCells::Stub(9),
                }],
            })
        );
        // A stub that claims no cells, and the values `encode` maps onto it.
        assert_eq!(reply(&[5, 0, 0]), Err(WireError::OutOfRange("stub size")));
        for cells in [
            CandidateCells::Inline(CellSet::new()),
            CandidateCells::Stub(0),
        ] {
            let unsendable = Message::CoverageReply {
                source: 7,
                candidates: vec![CoverageCandidate {
                    source: 7,
                    dataset: 5,
                    cells,
                }],
            };
            assert_eq!(
                Message::decode(unsendable.encode()),
                Err(WireError::OutOfRange("stub size"))
            );
        }
        assert_eq!(reply(&[5, 0]), Err(WireError::Truncated("stub size")));
        // A dataset id wider than the id type has no second spelling.
        assert_eq!(
            reply(&[0x80, 0x80, 0x80, 0x80, 0x10, 0, 9]),
            Err(WireError::Oversized("candidate dataset id"))
        );
        assert_eq!(
            Message::decode(Bytes::from_static(&[
                TAG_CELLS_QUERY,
                1,
                0x80,
                0x80,
                0x80,
                0x80,
                0x10
            ])),
            Err(WireError::Oversized("dataset id"))
        );
        // A count beyond the bytes left fails before allocating for it.
        assert_eq!(
            Message::decode(Bytes::from_static(&[
                TAG_CELLS_QUERY,
                0xFF,
                0xFF,
                0xFF,
                0xFF,
                0x0F,
                1
            ])),
            Err(WireError::Truncated("dataset id"))
        );

        for delta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let query = Message::CoverageQuery {
                query: cs(&[1, 2]),
                k: 3,
                delta,
            };
            assert_eq!(
                Message::decode(query.encode()),
                Err(WireError::OutOfRange("delta")),
                "δ={delta}"
            );
        }
    }

    /// Every truncation and every single-bit flip of a valid
    /// `CoverageReply` (inline and stub candidates) and `CellsQuery` is a
    /// typed error or exactly the value the bytes describe.
    #[test]
    fn mutated_coverage_frames_decode_to_what_the_bytes_say() {
        let reply = Message::CoverageReply {
            source: 258,
            candidates: vec![
                CoverageCandidate {
                    source: 258,
                    dataset: 77,
                    cells: CandidateCells::Inline(cs(&[3, 9, 700, 70_000])),
                },
                CoverageCandidate {
                    source: 258,
                    dataset: 9_000,
                    cells: CandidateCells::Stub(926),
                },
                CoverageCandidate {
                    source: 258,
                    dataset: 1,
                    cells: CandidateCells::Inline(cs(&[0])),
                },
                CoverageCandidate {
                    source: 258,
                    dataset: 2,
                    cells: CandidateCells::Stub(1),
                },
            ],
        };
        let fetch = Message::CellsQuery {
            datasets: vec![9_000, 2, 70_000, 0],
        };
        let (mut typed, mut described) = (0, 0);
        for message in [reply, fetch] {
            let enc = message.encode();
            assert_eq!(Message::decode(enc.clone()), Ok(message.clone()));
            for cut in 0..enc.len() {
                assert!(
                    Message::decode(enc.slice(0..cut)).is_err(),
                    "truncation at {cut} of {message:?} must fail"
                );
            }
            for bit in 0..enc.len() * 8 {
                let mut raw = enc.to_vec();
                raw[bit / 8] ^= 1 << (bit % 8);
                match Message::decode(Bytes::from(raw.clone())) {
                    Err(_) => typed += 1,
                    // Accepted: then these are the bytes of that value (a
                    // flip that shortens a count leaves a tail behind).
                    Ok(decoded) => {
                        let used = decoded.encode();
                        assert_eq!(&raw[..used.len()], &used[..], "bit {bit}: {decoded:?}");
                        if let Message::CoverageReply { source, candidates } = &decoded {
                            assert!(candidates.iter().all(|c| c.source == *source));
                        }
                        described += 1;
                    }
                }
            }
        }
        assert!(
            typed > 0 && described > 0,
            "{typed} typed, {described} described"
        );
    }

    #[test]
    fn knn_messages_roundtrip() {
        let q = Message::KnnQuery {
            query: cs(&[3, 8, 1024]),
            k: 7,
        };
        assert_eq!(Message::decode(q.encode()), Ok(q));
        let r = Message::KnnReply {
            source: 4,
            neighbors: vec![
                Neighbor {
                    dataset: 12,
                    distance: 0.0,
                },
                Neighbor {
                    dataset: 99,
                    distance: 3.5,
                },
            ],
        };
        assert_eq!(Message::decode(r.encode()), Ok(r));
    }

    fn knn_reply(distances: &[f64]) -> Message {
        Message::KnnReply {
            source: 258,
            neighbors: distances
                .iter()
                .enumerate()
                .map(|(i, &distance)| Neighbor {
                    dataset: 70_000 + i as DatasetId,
                    distance,
                })
                .collect(),
        }
    }

    /// A source sends distances, and a distance is finite and never below
    /// zero: a sign-bit flip would otherwise rank a neighbour first.
    #[test]
    fn knn_values_the_protocol_never_sends_are_rejected() {
        let fits = knn_reply(&[0.0, 2f64.sqrt(), f64::MAX]);
        assert_eq!(Message::decode(fits.encode()), Ok(fits));
        for distance in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0] {
            assert_eq!(
                Message::decode(knn_reply(&[1.0, distance]).encode()),
                Err(WireError::OutOfRange("neighbor distance")),
                "distance {distance}"
            );
        }
        // The sign bit of the first distance: tag, source, count, dataset id.
        let mut raw = knn_reply(&[3.0]).encode().to_vec();
        raw[1 + 2 + 1 + 3] ^= 0x80;
        assert_eq!(
            Message::decode(Bytes::from(raw)),
            Err(WireError::OutOfRange("neighbor distance"))
        );
    }

    /// The three kNN frames: a query, a reply of three neighbours, and a
    /// reply naming the largest dataset id.
    fn knn_mutation_frames() -> [Message; 3] {
        [
            Message::KnnQuery {
                query: cs(&[3, 8, 1024, 70_000]),
                k: 300,
            },
            knn_reply(&[0.0, 2f64.sqrt(), 45.5]),
            Message::KnnReply {
                source: 258,
                neighbors: vec![Neighbor {
                    dataset: DatasetId::MAX,
                    distance: 1.5,
                }],
            },
        ]
    }

    fn run_knn_mutation(case: u64) -> bool {
        let _replay = dits::ReplayOnPanic("run_knn_mutation", case);
        run_frame_mutation(&knn_mutation_frames(), case)
    }

    /// ROADMAP 5 (d) for kNN: every single-bit flip and every truncation of
    /// a query and of a reply.
    #[test]
    fn mutated_knn_frames_decode_to_what_the_bytes_say() {
        sweep_mutations(&knn_mutation_frames(), run_knn_mutation);
    }

    #[test]
    fn error_message_roundtrips() {
        let m = Message::Error {
            code: ERR_REJECTED_BATCH,
            detail: "dataset 42 is empty".to_string(),
        };
        assert_eq!(Message::decode(m.encode()), Ok(m));
        let empty = Message::Error {
            code: ERR_UNSUPPORTED,
            detail: String::new(),
        };
        assert_eq!(Message::decode(empty.encode()), Ok(empty));
    }

    #[test]
    fn malformed_input_is_rejected_with_a_reason() {
        assert_eq!(
            Message::decode(Bytes::new()),
            Err(WireError::Truncated("message tag"))
        );
        assert_eq!(
            Message::decode(Bytes::from_static(&[99, 1, 2])),
            Err(WireError::BadTag(99))
        );
        // Truncated query: the last cell delta is cut off.
        let m = Message::OverlapQuery {
            query: cs(&[1, 2, 3]),
            k: 1,
        };
        let enc = m.encode();
        let truncated = enc.slice(0..enc.len() - 1);
        assert_eq!(
            Message::decode(truncated),
            Err(WireError::Truncated("cell delta"))
        );
        // An overlong varint is a BadVarint, not a truncation.
        let mut raw = vec![0u8]; // OverlapQuery tag
        raw.extend(std::iter::repeat_n(0x80, 10));
        raw.push(0x01);
        assert_eq!(
            Message::decode(Bytes::from(raw)),
            Err(WireError::BadVarint("k"))
        );
        // The retired tags 9–12 are unknown tags, while their neighbours 13
        // and 14 keep their bytes.
        for tag in 9..=12u8 {
            assert_eq!(
                Message::decode(Bytes::from(vec![tag, 1, 0])),
                Err(WireError::BadTag(tag))
            );
        }
        let query = Bytes::from_static(&[13]);
        assert_eq!(Message::decode(query.clone()), Ok(Message::MetricsQuery));
        assert_eq!(Message::MetricsQuery.encode(), query);
        let pinned = Bytes::from_static(&[14, 0, 3, 1, 2, b'u', b'p', 1, 1, b'k', 1, b'v', 0, 5]);
        let snapshot = Message::MetricsSnapshot {
            source: 3,
            snapshot: obs::MetricsSnapshot {
                samples: vec![obs::MetricSample {
                    name: "up".into(),
                    labels: vec![("k".into(), "v".into())],
                    value: obs::MetricValue::Counter(5),
                }],
            },
        };
        assert_eq!(Message::decode(pinned.clone()), Ok(snapshot.clone()));
        assert_eq!(snapshot.encode(), pinned);
    }

    #[test]
    fn maintenance_messages_roundtrip() {
        use spatial::Point;
        let batch = Message::ApplyUpdates {
            resolution: 12,
            ops: vec![
                CellOp::Insert {
                    dataset: 7,
                    cells: cs(&[0, 5, 100, 4096]),
                },
                CellOp::Update {
                    dataset: 3,
                    cells: cs(&[16_777_215]),
                },
                CellOp::Delete(42),
            ],
        };
        let encoded = batch.encode();
        assert_eq!(Message::decode(encoded.clone()), Ok(batch.clone()));
        assert_eq!(batch.wire_size(), encoded.len());

        let grid = spatial::Grid::global(10).unwrap();
        let root = dits::NodeGeometry::from_mbr(spatial::Mbr::new(
            Point::new(100.0, 200.0),
            Point::new(300.0, 400.0),
        ));
        let reply = Message::SummaryRefresh {
            summary: SourceSummary::from_local_root(3, &grid, root),
            dataset_count: 1234,
            applied: 3,
            rejected: 1,
            blocks: cs(&[0, 5, 16_383]),
        };
        let encoded = reply.encode();
        assert_eq!(Message::decode(encoded.clone()), Ok(reply));
        // The sketch rides behind the counts in the layout of a cell set:
        // 3 blocks, gaps 0, 5 and 16 378.
        assert_eq!(&encoded[encoded.len() - 5..], &[3, 0, 5, 0xFA, 0x7F]);
    }

    fn refresh(resolution: u32, blocks: &[u64]) -> Message {
        Message::SummaryRefresh {
            summary: SourceSummary {
                source: 258,
                geometry: dits::NodeGeometry::from_mbr(Mbr::new(
                    Point::new(-74.5, 40.25),
                    Point::new(-73.0, 41.0),
                )),
                resolution,
            },
            dataset_count: 300,
            applied: 70,
            rejected: 2,
            blocks: cs(blocks),
        }
    }

    /// A sketch no source of that grid can have never decodes: a block
    /// outside the grid, ids that repeat, a count beyond the bytes left.
    #[test]
    fn sketch_deltas_the_protocol_never_sends_are_rejected() {
        // θ = 5: 4^(5-3) = 16 blocks, ids 0..=15.
        let fits = refresh(5, &[0, 7, 15]);
        assert_eq!(Message::decode(fits.encode()), Ok(fits));
        assert_eq!(
            Message::decode(refresh(5, &[3, 16]).encode()),
            Err(WireError::OutOfRange("sketch block"))
        );
        // Below θ = 3 the grid is one block, and a resolution whose block
        // count does not fit 64 bits bounds nothing.
        for resolution in [0, 2, 3] {
            let one = refresh(resolution, &[0]);
            assert_eq!(Message::decode(one.encode()), Ok(one));
            assert_eq!(
                Message::decode(refresh(resolution, &[1]).encode()),
                Err(WireError::OutOfRange("sketch block"))
            );
        }
        let unbounded = refresh(40, &[u64::MAX]);
        assert_eq!(Message::decode(unbounded.encode()), Ok(unbounded));

        // Hand-spelled tails behind a block-free reply (which ends `0`).
        let tail = |tail: &[u8]| {
            let mut raw = refresh(5, &[]).encode().to_vec();
            raw.truncate(raw.len() - 1);
            raw.extend_from_slice(tail);
            Message::decode(Bytes::from(raw))
        };
        assert_eq!(tail(&[0]), Ok(refresh(5, &[])));
        assert_eq!(tail(&[2, 5, 3]), Ok(refresh(5, &[5, 8])));
        assert_eq!(tail(&[2, 5, 0]), Err(WireError::DuplicateCell));
        assert_eq!(
            tail(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1]),
            Err(WireError::Truncated("sketch block"))
        );
        assert_eq!(tail(&[2, 3]), Err(WireError::Truncated("sketch block")));
        assert_eq!(
            tail(&[1, 0x83, 0x00]),
            Err(WireError::BadVarint("sketch block"))
        );

        // A rectangle whose corners are out of order, or not numbers, is not
        // put in order behind the sender's back.
        let rect_at = 1 + 2 + 4;
        for (offset, value) in [(0, 10.0f64), (8, 90.0), (16, f64::NAN)] {
            let mut raw = refresh(5, &[1]).encode().to_vec();
            raw[rect_at + offset..rect_at + offset + 8].copy_from_slice(&value.to_be_bytes());
            assert_eq!(
                Message::decode(Bytes::from(raw)),
                Err(WireError::OutOfRange("summary rectangle")),
                "corner byte {offset} = {value}"
            );
        }
    }

    /// The two shapes a `SummaryRefresh` takes: a poll reply with the whole
    /// sketch of a θ = 12 source, and a batch reply with no block.
    fn mutation_frames() -> [Message; 2] {
        [
            refresh(12, &[0, 1, 2, 70, 4_000, 65_535, 200_000, 262_143]),
            refresh(12, &[]),
        ]
    }

    /// One mutation of one of `frames`, encoded — `case / 100_000` picks the
    /// frame, and the rest of it the mutation: below eight times the frame's
    /// length the bit to flip, from there on the length to cut the frame to.
    /// The mutated frame is a typed error (`false`) or exactly the value its
    /// bytes describe (`true`).
    fn run_frame_mutation(frames: &[Message], case: u64) -> bool {
        let message = &frames[(case / 100_000) as usize];
        let mutation = (case % 100_000) as usize;
        let enc = message.encode();
        assert_eq!(Message::decode(enc.clone()), Ok(message.clone()));
        let Some(cut) = mutation.checked_sub(enc.len() * 8) else {
            let mut raw = enc.to_vec();
            raw[mutation / 8] ^= 1 << (mutation % 8);
            return match Message::decode(Bytes::from(raw.clone())) {
                Err(_) => false,
                // Accepted: then these are the bytes of that value (a flip
                // that shortens a count leaves a tail behind).
                Ok(decoded) => {
                    let used = decoded.encode();
                    assert_eq!(&raw[..used.len()], &used[..], "{decoded:?}");
                    true
                }
            };
        };
        assert!(cut < enc.len(), "no such mutation");
        let cut_off = Message::decode(enc.slice(0..cut));
        assert!(cut_off.is_err(), "cut to {cut} bytes: {cut_off:?}");
        false
    }

    /// Every single-bit flip and every truncation of every one of `frames`,
    /// each through `run` (which names the case if it fails): some must be
    /// typed errors, some values their bytes describe.
    fn sweep_mutations(frames: &[Message], run: fn(u64) -> bool) {
        let (mut typed, mut described) = (0, 0);
        for (frame, message) in frames.iter().enumerate() {
            let len = message.encode().len() as u64;
            for mutation in 0..len * 9 {
                if run(frame as u64 * 100_000 + mutation) {
                    described += 1;
                } else {
                    typed += 1;
                }
            }
        }
        assert!(
            typed > 0 && described > 0,
            "{typed} typed, {described} described"
        );
    }

    fn run_summary_refresh_mutation(case: u64) -> bool {
        let _replay = dits::ReplayOnPanic("run_summary_refresh_mutation", case);
        run_frame_mutation(&mutation_frames(), case)
    }

    /// ROADMAP 5 (d) for the one message that carries a sketch: every
    /// single-bit flip and every truncation of a poll reply and of a batch
    /// reply.
    #[test]
    fn mutated_summary_refresh_frames_decode_to_what_the_bytes_say() {
        sweep_mutations(&mutation_frames(), run_summary_refresh_mutation);
    }

    /// One frame of every message the other sweeps leave out: both overlap
    /// messages, the coverage query, a batch of each op and the empty poll,
    /// an error with a multi-byte detail, the metrics query, and a metrics
    /// snapshot with a counter, a gauge and a histogram and one with none.
    /// The largest dataset id rides the overlap reply and the batch.
    fn remaining_mutation_frames() -> [Message; 9] {
        [
            Message::OverlapQuery {
                query: cs(&[1, 5, 100, 70_000]),
                k: 300,
            },
            Message::OverlapReply {
                source: 258,
                results: vec![
                    OverlapResult {
                        dataset: 77,
                        overlap: 3,
                    },
                    OverlapResult {
                        dataset: DatasetId::MAX,
                        overlap: 70_000,
                    },
                ],
            },
            Message::CoverageQuery {
                query: cs(&[0, 2, 9, 4096]),
                k: 5,
                delta: 2.5,
            },
            Message::ApplyUpdates {
                resolution: 12,
                ops: vec![
                    CellOp::Insert {
                        dataset: 7,
                        cells: cs(&[0, 5, 100, 4096]),
                    },
                    CellOp::Update {
                        dataset: 70_000,
                        cells: cs(&[16_777_215]),
                    },
                    CellOp::Delete(DatasetId::MAX),
                ],
            },
            Message::summary_poll(),
            Message::Error {
                code: ERR_REJECTED_BATCH,
                detail: "dataset 42: Größe ≠ 0 — 数据集".to_string(),
            },
            Message::MetricsQuery,
            Message::MetricsSnapshot {
                source: 258,
                snapshot: sample_snapshot(),
            },
            Message::MetricsSnapshot {
                source: 0,
                snapshot: obs::MetricsSnapshot { samples: vec![] },
            },
        ]
    }

    fn run_remaining_mutation(case: u64) -> bool {
        let _replay = dits::ReplayOnPanic("run_remaining_mutation", case);
        run_frame_mutation(&remaining_mutation_frames(), case)
    }

    /// ROADMAP 5 (d) for the rest of `Message::decode`: every single-bit
    /// flip and every truncation of every frame above.
    #[test]
    fn mutated_frames_of_the_other_messages_decode_to_what_the_bytes_say() {
        sweep_mutations(&remaining_mutation_frames(), run_remaining_mutation);
    }

    /// `2³² + j` as a varint: a dataset id that wraps to `j` in the id type.
    fn wide_id(j: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, (1 << 32) + j);
        buf.freeze().to_vec()
    }

    /// Decodes `head`, the dataset id `id`, then `tail`: once with `id`
    /// itself (a valid message) and once with `2³² + id`, which must be
    /// refused rather than read as dataset `id`.
    fn assert_wide_id_refused(head: &[u8], id: u8, tail: &[u8], what: &'static str) {
        let decode = |id: &[u8]| Message::decode(Bytes::from([head, id, tail].concat()));
        assert!(decode(&[id]).is_ok(), "{what}: {:?}", decode(&[id]));
        assert_eq!(
            decode(&wide_id(u64::from(id))),
            Err(WireError::Oversized(what))
        );
    }

    #[test]
    fn overlap_reply_refuses_a_dataset_id_wider_than_the_id_type() {
        // Source 7, one result, overlap 5.
        assert_wide_id_refused(&[TAG_OVERLAP_REPLY, 0, 7, 1], 0, &[5], "result dataset id");
    }

    #[test]
    fn knn_reply_refuses_a_dataset_id_wider_than_the_id_type() {
        // Source 7, one neighbour at distance 1.
        assert_wide_id_refused(
            &[TAG_KNN_REPLY, 0, 7, 1],
            3,
            &1f64.to_be_bytes(),
            "neighbor dataset id",
        );
    }

    #[test]
    fn batch_delete_refuses_a_dataset_id_wider_than_the_id_type() {
        // One op at θ = 12: a delete, which would otherwise hit dataset 9.
        assert_wide_id_refused(
            &[TAG_APPLY_UPDATES, 1, 12, OP_TAG_DELETE],
            9,
            &[],
            "delete target",
        );
    }

    #[test]
    fn batch_insert_and_update_refuse_a_dataset_id_wider_than_the_id_type() {
        let mut cells = BytesMut::new();
        put_cells(&mut cells, &cs(&[1, 5]));
        let cells = cells.freeze();
        for op in [OP_TAG_INSERT, OP_TAG_UPDATE] {
            assert_wide_id_refused(&[TAG_APPLY_UPDATES, 1, 12, op], 5, &cells, "dataset id");
        }
    }

    #[test]
    fn empty_maintenance_batch_roundtrips() {
        let m = Message::summary_poll();
        let encoded = m.encode();
        // The tag and a zero op count: no resolution rides an empty batch.
        assert_eq!(encoded.as_ref(), &[TAG_APPLY_UPDATES, 0]);
        assert_eq!(Message::decode(encoded), Ok(m));
    }

    #[test]
    fn update_ops_grid_into_cell_ops() {
        use spatial::Point;
        let grid = Grid::global(10).unwrap();
        let points = vec![Point::new(-77.01, 38.9), Point::new(-77.02, 38.91)];
        let named = SpatialDataset::named(7, "bus-route-7", points.clone());
        let cells = CellSet::from_points(&grid, &points);
        assert_eq!(
            UpdateOp::Insert(named.clone()).grid(&grid),
            Ok(CellOp::Insert {
                dataset: 7,
                cells: cells.clone(),
            })
        );
        assert_eq!(
            UpdateOp::Update(named).grid(&grid),
            Ok(CellOp::Update { dataset: 7, cells })
        );
        assert_eq!(UpdateOp::Delete(9).grid(&grid), Ok(CellOp::Delete(9)));
        // Nothing inside the grid's space: nothing to index.
        for points in [vec![], vec![Point::new(500.0, 500.0)]] {
            assert_eq!(
                UpdateOp::Insert(SpatialDataset::new(1, points)).grid(&grid),
                Err(SpatialError::EmptyDataset)
            );
        }
    }

    #[test]
    fn malformed_maintenance_messages_are_rejected() {
        let batch = Message::ApplyUpdates {
            resolution: 10,
            ops: vec![CellOp::Insert {
                dataset: 1,
                cells: cs(&[3, 9, 700]),
            }],
        };
        let enc = batch.encode();
        for cut in 1..enc.len() {
            assert!(
                Message::decode(enc.slice(0..cut)).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Unknown op tag (after the frame tag, the op count and θ).
        let mut raw = enc.to_vec();
        raw[3] = 9;
        assert_eq!(
            Message::decode(Bytes::from(raw)),
            Err(WireError::BadOpTag(9))
        );

        // Batches that decode but do not fit the source's grid: each is a
        // typed rejection of the whole batch, the valid leading op included,
        // and leaves the source byte for byte as it was.
        let grid = Grid::global(10).unwrap();
        let seed: Vec<SpatialDataset> = (0..4)
            .map(|i| SpatialDataset::new(i, vec![spatial::Point::new(f64::from(i), 1.0)]))
            .collect();
        let mut source = crate::DataSource::build(0, "s", grid, &seed, Default::default());
        let untouched = source.index().clone();
        let leading = CellOp::Delete(0);
        let first_outside = grid.cell_count();
        for (resolution, op, expected) in [
            (
                12,
                CellOp::Delete(1),
                crate::BatchError::ResolutionMismatch {
                    batch: 12,
                    source: 10,
                },
            ),
            (
                10,
                CellOp::Insert {
                    dataset: 50,
                    cells: cs(&[4, first_outside]),
                },
                crate::BatchError::CellOutOfGrid {
                    dataset: 50,
                    cell: first_outside,
                    resolution: 10,
                },
            ),
            (
                10,
                CellOp::Update {
                    dataset: 1,
                    cells: CellSet::new(),
                },
                crate::BatchError::EmptyDataset,
            ),
        ] {
            let request = Message::ApplyUpdates {
                resolution,
                ops: vec![leading.clone(), op],
            };
            // The batch crosses the wire intact; it is the source that
            // refuses it.
            let request = Message::decode(request.encode()).unwrap();
            assert_eq!(
                source.serve(&request).message,
                Message::Error {
                    code: ERR_REJECTED_BATCH,
                    detail: expected.to_string(),
                }
            );
            assert_eq!(source.dataset_count(), 4);
            assert_eq!(*source.index(), untouched);
        }
    }

    #[test]
    fn cell_sets_have_exactly_one_encoding() {
        let query_with = |cells: &[u8]| {
            let mut raw = vec![TAG_OVERLAP_QUERY, 1]; // k = 1
            raw.extend_from_slice(cells);
            Message::decode(Bytes::from(raw))
        };
        // A zero delta after the first cell repeats a cell: rejected, not
        // repaired.
        assert_eq!(query_with(&[2, 5, 0]), Err(WireError::DuplicateCell));
        assert_eq!(query_with(&[3, 0, 1, 0]), Err(WireError::DuplicateCell));
        // Cell 0 itself is a zero *first* delta and fine.
        assert_eq!(
            query_with(&[2, 0, 1]),
            Ok(Message::OverlapQuery {
                query: cs(&[0, 1]),
                k: 1
            })
        );
        // A count beyond the bytes left fails before allocating for it.
        assert_eq!(
            query_with(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1]),
            Err(WireError::Truncated("cell delta"))
        );
        assert_eq!(
            query_with(&[3, 1, 1]),
            Err(WireError::Truncated("cell delta"))
        );
        // Nor does a varint have a second encoding: cell 5 padded with a
        // zero byte used to decode to `{5}` and re-encode a byte shorter,
        // and a gap of 2^64 used to wrap to cell 0.
        assert_eq!(
            query_with(&[1, 0x85, 0x00]),
            Err(WireError::BadVarint("cell delta"))
        );
        let mut wrapping = vec![1];
        wrapping.extend(std::iter::repeat_n(0x80, 9));
        wrapping.push(0x02);
        assert_eq!(
            query_with(&wrapping),
            Err(WireError::BadVarint("cell delta"))
        );
    }

    fn sample_snapshot() -> obs::MetricsSnapshot {
        obs::MetricsSnapshot {
            samples: vec![
                obs::MetricSample {
                    name: "source_requests_total".into(),
                    labels: vec![("kind".into(), "overlap".into())],
                    value: obs::MetricValue::Counter(42),
                },
                obs::MetricSample {
                    name: "source_datasets".into(),
                    labels: vec![],
                    value: obs::MetricValue::Gauge(17.5),
                },
                obs::MetricSample {
                    name: "source_service_nanos".into(),
                    labels: vec![],
                    value: obs::MetricValue::Histogram {
                        count: 3,
                        sum: 12_345,
                        buckets: vec![(4, 1), (11, 2)],
                    },
                },
            ],
        }
    }

    #[test]
    fn metrics_messages_roundtrip() {
        let q = Message::MetricsQuery;
        assert_eq!(Message::decode(q.encode()), Ok(q));

        let m = Message::MetricsSnapshot {
            source: 3,
            snapshot: sample_snapshot(),
        };
        assert_eq!(Message::decode(m.encode()), Ok(m));

        let empty = Message::MetricsSnapshot {
            source: 0,
            snapshot: obs::MetricsSnapshot { samples: vec![] },
        };
        assert_eq!(Message::decode(empty.encode()), Ok(empty));
    }

    #[test]
    fn malformed_metrics_messages_are_rejected() {
        let m = Message::MetricsSnapshot {
            source: 3,
            snapshot: sample_snapshot(),
        };
        let enc = m.encode();
        for cut in 1..enc.len() {
            assert!(
                Message::decode(enc.slice(0..cut)).is_err(),
                "truncation at {cut} of {m:?} must fail"
            );
        }
    }

    #[test]
    fn oversized_metric_string_is_rejected() {
        // Forge a snapshot frame whose metric-name length claims more than
        // the wire bound allows; it must fail closed even if the bytes are
        // present.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_METRICS_SNAPSHOT);
        buf.put_u16(0);
        put_varint(&mut buf, 1); // one sample
        put_varint(&mut buf, (MAX_METRIC_STRING_BYTES + 1) as u64);
        buf.put_slice(&vec![b'a'; MAX_METRIC_STRING_BYTES + 1]);
        assert_eq!(
            Message::decode(buf.freeze()),
            Err(WireError::Oversized("metric name"))
        );
    }

    #[test]
    fn clipping_the_query_shrinks_the_wire_size() {
        let full: CellSet = (0..1000u64).collect();
        let clipped: CellSet = (0..100u64).collect();
        let full_size = Message::OverlapQuery { query: full, k: 10 }.wire_size();
        let clipped_size = Message::OverlapQuery {
            query: clipped,
            k: 10,
        }
        .wire_size();
        assert!(clipped_size < full_size / 5);
    }

    #[test]
    fn delta_encoding_beats_fixed_width() {
        // 1000 consecutive cells fit in ~1 byte each instead of 8.
        let cells: CellSet = (10_000..11_000u64).collect();
        let size = Message::OverlapQuery {
            query: cells,
            k: 10,
        }
        .wire_size();
        assert!(size < 1_000 * 8 / 4, "wire size {size} not compact");
    }

    proptest! {
        #[test]
        fn prop_messages_roundtrip(
            cells in proptest::collection::vec(0u64..1_000_000, 0..200),
            k in 0usize..100,
            source in 0u16..100,
            delta in 0.0f64..50.0,
        ) {
            let q = Message::OverlapQuery { query: CellSet::from_cells(cells.clone()), k };
            prop_assert_eq!(Message::decode(q.encode()), Ok(q));
            let c = Message::CoverageQuery {
                query: CellSet::from_cells(cells.clone()), k, delta };
            prop_assert_eq!(Message::decode(c.encode()), Ok(c));
            let n = Message::KnnQuery { query: CellSet::from_cells(cells.clone()), k };
            prop_assert_eq!(Message::decode(n.encode()), Ok(n));
            let f = Message::CellsQuery {
                datasets: cells.iter().map(|&c| c as DatasetId).collect(),
            };
            prop_assert_eq!(Message::decode(f.encode()), Ok(f));
            let cells = CellSet::from_cells(cells);
            let r = Message::CoverageReply {
                source,
                candidates: vec![
                    CoverageCandidate {
                        source,
                        dataset: 9,
                        cells: CandidateCells::Stub(cells.len() + 1),
                    },
                    CoverageCandidate {
                        source,
                        dataset: 10,
                        cells: if cells.is_empty() {
                            CandidateCells::Stub(k + 1)
                        } else {
                            CandidateCells::Inline(cells)
                        },
                    },
                ],
            };
            prop_assert_eq!(Message::decode(r.encode()), Ok(r));
        }

        // Whatever decodes re-encodes to the very bytes it came from.
        #[test]
        fn prop_decoded_cell_sets_reencode_identically(
            deltas in proptest::collection::vec(0u64..300, 0..40),
            claimed in 0usize..48,
        ) {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_KNN_QUERY);
            put_varint(&mut buf, 3);
            put_varint(&mut buf, claimed as u64);
            for d in &deltas {
                put_varint(&mut buf, *d);
            }
            let raw = buf.freeze();
            if let Ok(message) = Message::decode(raw.clone()) {
                let used = message.encode();
                prop_assert_eq!(&raw[..used.len()], &used[..]);
            }
        }

        #[test]
        fn prop_metrics_snapshot_roundtrips(
            source in 0u16..100,
            counter in 0u64..u64::MAX,
            gauge in -1.0e12f64..1.0e12,
            buckets in proptest::collection::vec((0u8..64, 1u64..1_000_000), 0..8),
            name_idx in 0usize..3,
            label_idx in 0usize..3,
        ) {
            let name = ["requests_total", "service_nanos", "x"][name_idx].to_string();
            let label = ["overlap", "coverage k=5", "été/θ"][label_idx].to_string();
            let count: u64 = buckets.iter().map(|(_, n)| n).sum();
            let m = Message::MetricsSnapshot {
                source,
                snapshot: obs::MetricsSnapshot {
                    samples: vec![
                        obs::MetricSample {
                            name: name.clone(),
                            labels: vec![("label".into(), label)],
                            value: obs::MetricValue::Counter(counter),
                        },
                        obs::MetricSample {
                            name: format!("{name}_gauge"),
                            labels: vec![],
                            value: obs::MetricValue::Gauge(gauge),
                        },
                        obs::MetricSample {
                            name: format!("{name}_nanos"),
                            labels: vec![],
                            value: obs::MetricValue::Histogram {
                                count,
                                sum: count.saturating_mul(7),
                                buckets,
                            },
                        },
                    ],
                },
            };
            prop_assert_eq!(Message::decode(m.encode()), Ok(m));
        }
    }
}
