//! Index persistence: compact, versioned binary images of DITS-L and DITS-G.
//!
//! Real deployments of the multi-source framework restart data sources
//! without wanting to re-grid and re-index terabytes of portal data, so the
//! local index needs a durable on-disk form — and the data center needs one
//! for its global index, so a restarted center recovers every source's
//! summary without re-polling the whole fleet.  The workspace deliberately
//! depends on no serialisation *format* crate, so this module implements a
//! small explicit codec on top of [`bytes`]:
//!
//! * fixed little-endian scalars (`u8`/`u32`/`u64`/`f64`),
//! * length-prefixed sequences,
//! * cell sets in the gap-and-varint form of [`crate::codec`], the bytes they
//!   cross the wire in (cell sets are sorted, so the gaps are small and the
//!   image ends up far smaller than 8 bytes/cell),
//! * a magic number plus a format version so stale images fail loudly
//!   instead of decoding garbage.
//!
//! An image stores what cannot be recomputed and nothing else.  Leaf
//! inverted indexes are *not* stored: they are fully determined by the
//! leaf's dataset nodes and are rebuilt during decoding, which keeps the
//! image smaller and removes a whole class of corruption (a posting list
//! disagreeing with its entries).  By the same rule a global image is the
//! leaf capacity and the source summaries ascending by id: DITS-G is what
//! [`DitsGlobal::build`] makes of them, so there is no arena of child
//! pointers to parse and distrust.
//!
//! Images are untrusted input.  Every declared count is checked against the
//! bytes left, at the smallest encoding of one element, *before* anything is
//! reserved for it, and a decoder accepts only what its encoder writes
//! (varints are the shortest encoding of their value, cell gaps after the
//! first are non-zero, a node's geometry is the one its content determines,
//! summary ids strictly ascend), so `encode(decode(b)) == b` for every image
//! `b` a decoder accepts.

use crate::codec::{get_cells, put_cells, CodecError};
use crate::global::{DitsGlobal, SourceSummary};
use crate::local::{inverted_of, DitsLocal, DitsLocalConfig, NodeIdx, NodeKind, TreeNode};
use crate::node::{DatasetNode, NodeGeometry};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spatial::{Mbr, Point, SourceId};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Magic number at the start of every local index image (`"DITS"` in ASCII).
const MAGIC: u32 = 0x4449_5453;
/// Magic number at the start of every global index image (`"DITG"`).
const GLOBAL_MAGIC: u32 = 0x4449_5447;
/// Current format version of local images; bump when the encoding changes
/// incompatibly.
const VERSION: u16 = 1;
/// Current format version of global images.  Version 1 stored the tree's
/// node arena and is refused; a center without a readable image polls its
/// sources for their summaries instead.
const GLOBAL_VERSION: u16 = 2;

/// Smallest encoding of one tree node: geometry, parent flag, kind tag and a
/// leaf's entry count.
const MIN_TREE_NODE_BYTES: usize = 7 * 8 + 1 + 1 + 8;
/// Smallest encoding of one dataset node: id, cell count, one cell gap.
const MIN_DATASET_NODE_BYTES: usize = 4 + 1 + 1;
/// Exact encoding of one source summary: id, resolution, four corners.
const SUMMARY_BYTES: usize = 2 + 4 + 4 * 8;

/// Errors produced while decoding or reading an index image.
#[derive(Debug)]
pub enum PersistError {
    /// The image does not start with the DITS magic number.
    BadMagic(u32),
    /// The image was written by an unsupported format version.
    UnsupportedVersion(u16),
    /// The image ended before the declared content was read.
    UnexpectedEof {
        /// What the decoder was trying to read.
        context: &'static str,
    },
    /// The image decoded into a structurally inconsistent tree.
    Corrupt(String),
    /// Underlying file I/O error.
    Io(io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic(m) => write!(f, "not a DITS index image (magic {m:#010x})"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported DITS image version {v} (supported: local {VERSION}, global {GLOBAL_VERSION})"
                )
            }
            PersistError::UnexpectedEof { context } => {
                write!(f, "index image truncated while reading {context}")
            }
            PersistError::Corrupt(msg) => write!(f, "index image is corrupt: {msg}"),
            PersistError::Io(e) => write!(f, "index image I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes a local index into its binary image.
pub fn encode_local(index: &DitsLocal) -> Bytes {
    let (nodes, root, config, dataset_count) = index.parts();
    let mut buf = BytesMut::with_capacity(64 + index.memory_bytes() / 2);
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(config.leaf_capacity as u64);
    buf.put_u64_le(dataset_count as u64);
    buf.put_u64_le(root as u64);
    buf.put_u64_le(nodes.len() as u64);
    for node in nodes {
        encode_tree_node(&mut buf, node);
    }
    buf.freeze()
}

/// Writes the binary image of a local index to a file (atomically via a
/// temporary sibling file).
pub fn save_local(index: &DitsLocal, path: &Path) -> Result<(), PersistError> {
    let image = encode_local(index);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &image)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

fn encode_tree_node(buf: &mut BytesMut, node: &TreeNode) {
    encode_geometry(buf, &node.geometry);
    match node.parent {
        Some(p) => {
            buf.put_u8(1);
            buf.put_u64_le(p as u64);
        }
        None => buf.put_u8(0),
    }
    match &node.kind {
        NodeKind::Internal { left, right } => {
            buf.put_u8(0);
            buf.put_u64_le(*left as u64);
            buf.put_u64_le(*right as u64);
        }
        NodeKind::Leaf { entries, .. } => {
            buf.put_u8(1);
            buf.put_u64_le(entries.len() as u64);
            for entry in entries {
                encode_dataset_node(buf, entry);
            }
        }
    }
}

/// Encodes a global index into its binary image: the leaf capacity and the
/// source summaries ascending by id.  The tree is not stored —
/// [`decode_global`] builds it from the summaries, as every other producer
/// of a [`DitsGlobal`] does.
pub fn encode_global(index: &DitsGlobal) -> Bytes {
    let summaries = index.summaries();
    let mut buf = BytesMut::with_capacity(32 + summaries.len() * SUMMARY_BYTES);
    buf.put_u32_le(GLOBAL_MAGIC);
    buf.put_u16_le(GLOBAL_VERSION);
    buf.put_u64_le(index.leaf_capacity() as u64);
    buf.put_u64_le(summaries.len() as u64);
    for s in &summaries {
        buf.put_u16_le(s.source);
        buf.put_u32_le(s.resolution);
        buf.put_f64_le(s.geometry.rect.min.x);
        buf.put_f64_le(s.geometry.rect.min.y);
        buf.put_f64_le(s.geometry.rect.max.x);
        buf.put_f64_le(s.geometry.rect.max.y);
    }
    buf.freeze()
}

/// Writes the binary image of a global index to a file (atomically via a
/// temporary sibling file).
pub fn save_global(index: &DitsGlobal, path: &Path) -> Result<(), PersistError> {
    let image = encode_global(index);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &image)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Decodes a global index from its binary image: checks the summaries and
/// builds the tree over them.
pub fn decode_global(image: &[u8]) -> Result<DitsGlobal, PersistError> {
    let mut buf = image;
    let magic = read_u32(&mut buf, "magic")?;
    if magic != GLOBAL_MAGIC {
        return Err(PersistError::BadMagic(magic));
    }
    let version = read_u16(&mut buf, "version")?;
    if version != GLOBAL_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let leaf_capacity = read_u64(&mut buf, "leaf capacity")? as usize;
    let count = read_count(
        read_u64(&mut buf, "summary count")?,
        buf.remaining(),
        SUMMARY_BYTES,
        "declared source summaries",
    )?;
    let mut summaries: Vec<SourceSummary> = Vec::with_capacity(count);
    for _ in 0..count {
        let summary = decode_summary(&mut buf)?;
        if summaries.last().is_some_and(|p| p.source >= summary.source) {
            return Err(PersistError::Corrupt(format!(
                "source {} is out of ascending id order",
                summary.source
            )));
        }
        summaries.push(summary);
    }
    expect_end(buf)?;
    Ok(DitsGlobal::build(summaries, leaf_capacity))
}

/// Reads the binary image of a global index from a file.
pub fn load_global(path: &Path) -> Result<DitsGlobal, PersistError> {
    let image = fs::read(path)?;
    decode_global(&image)
}

fn decode_summary(buf: &mut &[u8]) -> Result<SourceSummary, PersistError> {
    let source = read_u16(buf, "summary source id")? as SourceId;
    let resolution = read_u32(buf, "summary resolution")?;
    let min = Point::new(
        read_f64(buf, "summary min x")?,
        read_f64(buf, "summary min y")?,
    );
    let max = Point::new(
        read_f64(buf, "summary max x")?,
        read_f64(buf, "summary max y")?,
    );
    if ![min.x, min.y, max.x, max.y].iter().all(|c| c.is_finite()) {
        return Err(PersistError::Corrupt(format!(
            "source {source} has a non-finite corner"
        )));
    }
    Ok(SourceSummary {
        source,
        geometry: NodeGeometry::from_mbr(Mbr::new(min, max)),
        resolution,
    })
}

fn encode_dataset_node(buf: &mut BytesMut, node: &DatasetNode) {
    // The dataset geometry (MBR / pivot / radius) is fully determined by the
    // cell set, so only the id and the cells are stored; the geometry is
    // recomputed during decoding.  This keeps the image roughly 60 bytes
    // smaller per dataset.
    buf.put_u32_le(node.id);
    put_cells(buf, &node.cells);
}

fn encode_geometry(buf: &mut BytesMut, g: &NodeGeometry) {
    buf.put_f64_le(g.rect.min.x);
    buf.put_f64_le(g.rect.min.y);
    buf.put_f64_le(g.rect.max.x);
    buf.put_f64_le(g.rect.max.y);
    buf.put_f64_le(g.pivot.x);
    buf.put_f64_le(g.pivot.y);
    buf.put_f64_le(g.radius);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes a local index from its binary image, rebuilding leaf inverted
/// indexes and verifying structural invariants.
pub fn decode_local(image: &[u8]) -> Result<DitsLocal, PersistError> {
    let mut buf = image;
    let magic = read_u32(&mut buf, "magic")?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic(magic));
    }
    let version = read_u16(&mut buf, "version")?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let leaf_capacity = read_u64(&mut buf, "leaf capacity")? as usize;
    // `DitsLocal::build` never keeps a capacity of 0, so no encoder writes
    // one; repairing it here would decode two images into one index.
    if leaf_capacity == 0 {
        return Err(PersistError::Corrupt("leaf capacity 0".to_string()));
    }
    let dataset_count = read_u64(&mut buf, "dataset count")? as usize;
    let root = read_u64(&mut buf, "root index")? as usize;
    let node_count = read_count(
        read_u64(&mut buf, "node count")?,
        buf.remaining(),
        MIN_TREE_NODE_BYTES,
        "declared tree nodes",
    )?;
    // The arena is never empty: even an index with no datasets has its root
    // leaf node.
    if node_count == 0 {
        return Err(PersistError::Corrupt("empty node arena".to_string()));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(decode_tree_node(&mut buf)?);
    }
    expect_end(buf)?;
    if root >= nodes.len() {
        return Err(PersistError::Corrupt(format!(
            "root index {root} out of bounds ({} nodes)",
            nodes.len()
        )));
    }
    let index = DitsLocal::from_parts(
        nodes,
        root,
        DitsLocalConfig { leaf_capacity },
        dataset_count,
    );
    index.check_invariants().map_err(PersistError::Corrupt)?;
    Ok(index)
}

/// Reads the binary image of a local index from a file.
pub fn load_local(path: &Path) -> Result<DitsLocal, PersistError> {
    let image = fs::read(path)?;
    decode_local(&image)
}

fn decode_tree_node(buf: &mut &[u8]) -> Result<TreeNode, PersistError> {
    let geometry = decode_geometry(buf)?;
    let parent = match read_u8(buf, "parent flag")? {
        0 => None,
        1 => Some(read_u64(buf, "parent index")? as NodeIdx),
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown parent flag {other}"
            )));
        }
    };
    let kind_tag = read_u8(buf, "node kind")?;
    let kind = match kind_tag {
        0 => NodeKind::Internal {
            left: read_u64(buf, "left child")? as NodeIdx,
            right: read_u64(buf, "right child")? as NodeIdx,
        },
        1 => {
            let entry_count = read_count(
                read_u64(buf, "leaf entry count")?,
                buf.remaining(),
                MIN_DATASET_NODE_BYTES,
                "declared leaf entries",
            )?;
            let mut entries = Vec::with_capacity(entry_count);
            for _ in 0..entry_count {
                entries.push(decode_dataset_node(buf)?);
            }
            let inverted = inverted_of(&entries);
            NodeKind::Leaf { entries, inverted }
        }
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown node kind tag {other}"
            )));
        }
    };
    Ok(TreeNode {
        geometry,
        parent,
        kind,
    })
}

fn decode_dataset_node(buf: &mut &[u8]) -> Result<DatasetNode, PersistError> {
    let id = read_u32(buf, "dataset id")?;
    let cells = get_cells(buf).map_err(|e| match e {
        CodecError::Truncated => PersistError::UnexpectedEof {
            context: "declared cells",
        },
        CodecError::BadVarint => {
            PersistError::Corrupt("malformed varint in a cell set".to_string())
        }
        CodecError::CellOverflow => PersistError::Corrupt("cell id overflow".to_string()),
        CodecError::DuplicateCell => {
            PersistError::Corrupt("repeated cell in a cell set".to_string())
        }
    })?;
    DatasetNode::from_cell_set(id, cells)
        .ok_or_else(|| PersistError::Corrupt(format!("dataset {id} has an empty cell set")))
}

fn decode_geometry(buf: &mut &[u8]) -> Result<NodeGeometry, PersistError> {
    let min = Point::new(read_f64(buf, "mbr min x")?, read_f64(buf, "mbr min y")?);
    let max = Point::new(read_f64(buf, "mbr max x")?, read_f64(buf, "mbr max y")?);
    let pivot = Point::new(read_f64(buf, "pivot x")?, read_f64(buf, "pivot y")?);
    let radius = read_f64(buf, "radius")?;
    Ok(NodeGeometry {
        rect: Mbr::new(min, max),
        pivot,
        radius,
    })
}

/// No encoder writes anything after the last declared element.
fn expect_end(buf: &[u8]) -> Result<(), PersistError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(PersistError::Corrupt(format!(
            "{} bytes after the end of the image",
            buf.len()
        )))
    }
}

/// Admits a declared element count only when the bytes left can hold that
/// many elements at `min_bytes` each, so a forged count is refused as the
/// cut-off image it is before anything is reserved for it.
fn read_count(
    declared: u64,
    remaining: usize,
    min_bytes: usize,
    context: &'static str,
) -> Result<usize, PersistError> {
    if declared > (remaining / min_bytes) as u64 {
        return Err(PersistError::UnexpectedEof { context });
    }
    Ok(declared as usize)
}

macro_rules! reader {
    ($name:ident, $ty:ty, $get:ident, $size:expr) => {
        fn $name(buf: &mut &[u8], context: &'static str) -> Result<$ty, PersistError> {
            if buf.remaining() < $size {
                return Err(PersistError::UnexpectedEof { context });
            }
            Ok(buf.$get())
        }
    };
}

reader!(read_u8, u8, get_u8, 1);
reader!(read_u16, u16, get_u16_le, 2);
reader!(read_u32, u32, get_u32_le, 4);
reader!(read_u64, u64, get_u64_le, 8);
reader!(read_f64, f64, get_f64_le, 8);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_varint;
    use crate::local::DitsLocalConfig;
    use crate::overlap::overlap_search;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;
    use spatial::{CellSet, DatasetId};

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(
            id,
            CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y))),
        )
        .unwrap()
    }

    fn sample_index(n: u32, capacity: usize) -> DitsLocal {
        let nodes: Vec<DatasetNode> = (0..n)
            .map(|i| {
                let bx = (i * 3) % 96;
                let by = ((i * 3) / 96) * 3;
                node(i, &[(bx, by), (bx + 1, by), (bx, by + 1)])
            })
            .collect();
        DitsLocal::build(
            nodes,
            DitsLocalConfig {
                leaf_capacity: capacity,
            },
        )
    }

    #[test]
    fn roundtrip_preserves_structure_and_answers() {
        let index = sample_index(120, 7);
        let image = encode_local(&index);
        let decoded = decode_local(&image).unwrap();
        assert_eq!(decoded.dataset_count(), index.dataset_count());
        assert_eq!(decoded.node_count(), index.node_count());
        assert_eq!(decoded.config().leaf_capacity, 7);
        assert!(decoded.check_invariants().is_ok());
        // The decoded index must answer searches identically.
        let query = CellSet::from_cells([cell_id(3, 0), cell_id(4, 0), cell_id(6, 3)]);
        let (before, _) = overlap_search(&index, &query, 5);
        let (after, _) = overlap_search(&decoded, &query, 5);
        assert_eq!(before, after);
    }

    #[test]
    fn roundtrip_of_empty_index() {
        let index = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let decoded = decode_local(&encode_local(&index)).unwrap();
        assert_eq!(decoded.dataset_count(), 0);
        assert!(decoded.check_invariants().is_ok());
    }

    #[test]
    fn image_is_compact() {
        let index = sample_index(200, 10);
        let image = encode_local(&index);
        // The varint gap encoding must beat a naive 8-bytes-per-cell estimate.
        let naive: usize = index
            .dataset_nodes()
            .iter()
            .map(|n| n.cells.len() * 8 + 64)
            .sum();
        assert!(
            image.len() < naive,
            "image of {} bytes not smaller than naive {}",
            image.len(),
            naive
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let index = sample_index(10, 4);
        let image = encode_local(&index).to_vec();
        let mut wrong_magic = image.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            decode_local(&wrong_magic),
            Err(PersistError::BadMagic(_))
        ));
        let mut wrong_version = image.clone();
        wrong_version[4] = 0xff;
        assert!(matches!(
            decode_local(&wrong_version),
            Err(PersistError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncated_images_fail_loudly() {
        let index = sample_index(30, 4);
        let image = encode_local(&index).to_vec();
        for cut in [3usize, 7, 20, image.len() / 2, image.len() - 1] {
            let truncated = &image[..cut];
            let err = decode_local(truncated).unwrap_err();
            assert!(
                matches!(
                    err,
                    PersistError::UnexpectedEof { .. } | PersistError::Corrupt(_)
                ),
                "cut at {cut} produced unexpected error {err}"
            );
        }
    }

    #[test]
    fn corrupted_dataset_count_is_detected() {
        let index = sample_index(20, 4);
        let mut image = encode_local(&index).to_vec();
        // The dataset count lives at offset 4+2+8 = 14; flip it.
        image[14] = image[14].wrapping_add(1);
        assert!(matches!(
            decode_local(&image),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join(format!("dits-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("local.dits");
        let index = sample_index(50, 6);
        save_local(&index, &path).unwrap();
        let loaded = load_local(&path).unwrap();
        assert_eq!(loaded.dataset_count(), 50);
        assert!(loaded.check_invariants().is_ok());
        // Missing files surface as I/O errors.
        assert!(matches!(
            load_local(&dir.join("does-not-exist.dits")),
            Err(PersistError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_messages_are_descriptive() {
        let not_an_image = [0u8; 2];
        let err = decode_local(&not_an_image).unwrap_err();
        assert!(err.to_string().contains("truncated"));
        let err = PersistError::BadMagic(0xdead_beef);
        assert!(err.to_string().contains("magic"));
        let err = PersistError::UnsupportedVersion(9);
        assert!(err.to_string().contains("version"));
    }

    /// The image of one leaf holding dataset 7 = {cell 3}, and the offsets
    /// of its three counts: node count, leaf entry count, cell count.
    fn one_leaf_image() -> (Vec<u8>, [usize; 3]) {
        let index = DitsLocal::build(vec![node(7, &[(1, 1)])], DitsLocalConfig::default());
        let image = encode_local(&index).to_vec();
        // Magic, version and three words precede the node count; the entry
        // count is the leaf's last word; the cell count follows the id.
        let node_count = 4 + 2 + 3 * 8;
        let leaf = node_count + 8;
        let entry_count = leaf + MIN_TREE_NODE_BYTES - 8;
        let cell_count = entry_count + 8 + 4;
        assert_eq!(image.len(), cell_count + 2, "header, one leaf, one cell");
        assert!(decode_local(&image).is_ok());
        (image, [node_count, entry_count, cell_count])
    }

    #[test]
    fn forged_counts_are_refused_by_their_count_checks() {
        let (image, [node_count, entry_count, cell_count]) = one_leaf_image();
        let eof_context = |image: &[u8]| match decode_local(image) {
            Err(PersistError::UnexpectedEof { context }) => context,
            other => panic!("expected a count check to refuse the image, got {other:?}"),
        };
        // Each count once as the smallest the bytes behind it cannot hold
        // (they hold exactly one element) and once as large as it goes; a
        // reader without the check would reserve for it and fail later,
        // inside an element, with that element's context.
        for forged in [2, u64::MAX] {
            let mut nodes = image.clone();
            nodes[node_count..node_count + 8].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(eof_context(&nodes), "declared tree nodes");

            let mut entries = image.clone();
            entries[entry_count..entry_count + 8].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(eof_context(&entries), "declared leaf entries");

            let mut varint = BytesMut::new();
            put_varint(&mut varint, forged);
            let mut cells = image.clone();
            cells.splice(cell_count..cell_count + 1, varint.freeze().to_vec());
            assert_eq!(eof_context(&cells), "declared cells");
        }
    }

    #[test]
    fn repeated_cell_is_corrupt_not_deduplicated() {
        let index = DitsLocal::build(vec![node(7, &[(1, 1), (2, 1)])], DitsLocalConfig::default());
        let mut image = encode_local(&index).to_vec();
        // The second cell's gap is the last byte of the image.
        *image.last_mut().unwrap() = 0;
        let err = decode_local(&image).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt(msg) if msg.contains("repeated cell")),
            "got {err}"
        );
    }

    #[test]
    fn flipped_and_truncated_local_images_decode_or_fail_typed() {
        let image = encode_local(&sample_index(7, 2)).to_vec();
        for cut in 0..image.len() {
            assert!(decode_local(&image[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = image.clone();
        padded.push(0);
        assert!(matches!(
            decode_local(&padded),
            Err(PersistError::Corrupt(_))
        ));
        // Every single-bit flip is refused with a typed error or decodes to
        // exactly the index the flipped image describes — never a panic (a
        // child index outside the arena), a silent repair (capacity 0, a
        // parent flag of 2) or a node whose pivot and radius are not the ones
        // its MBR determines.
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(index) = decode_local(&flipped) {
                assert_eq!(encode_local(&index).to_vec(), flipped, "bit {bit}");
            }
        }
    }

    fn sample_global(n: u16, capacity: usize) -> DitsGlobal {
        let summaries: Vec<SourceSummary> = (0..n)
            .map(|i| SourceSummary {
                source: i,
                geometry: NodeGeometry::from_mbr(Mbr::new(
                    Point::new(f64::from(i) * 7.0 - 100.0, f64::from(i % 5) * 9.0 - 20.0),
                    Point::new(f64::from(i) * 7.0 - 95.0, f64::from(i % 5) * 9.0 - 15.0),
                )),
                resolution: 10 + u32::from(i % 3),
            })
            .collect();
        DitsGlobal::build(summaries, capacity)
    }

    #[test]
    fn global_roundtrip_preserves_summaries_and_routing() {
        let mut index = sample_global(17, 3);
        // A maintained index round-trips like a freshly built one.
        assert!(index.remove_source(4));
        let moved = SourceSummary {
            source: 9,
            geometry: NodeGeometry::from_mbr(Mbr::new(
                Point::new(150.0, 60.0),
                Point::new(155.0, 65.0),
            )),
            resolution: 11,
        };
        assert!(index.put_source(moved));
        let image = encode_global(&index);
        let decoded = decode_global(&image).unwrap();
        assert_eq!(decoded.source_count(), index.source_count());
        assert_eq!(decoded.leaf_capacity(), index.leaf_capacity());
        assert_eq!(decoded.summaries(), index.summaries());
        assert!(decoded.check_invariants().is_ok());
        assert_eq!(encode_global(&decoded), image);
        // Candidate routing is identical after the round-trip.
        for query in [
            Mbr::new(Point::new(-80.0, -10.0), Point::new(-60.0, 10.0)),
            Mbr::new(Point::new(151.0, 61.0), Point::new(152.0, 62.0)),
            Mbr::new(Point::new(-30.0, -30.0), Point::new(30.0, 30.0)),
        ] {
            assert_eq!(
                decoded.candidate_sources(&query, 2.0),
                index.candidate_sources(&query, 2.0)
            );
        }
    }

    #[test]
    fn global_roundtrip_of_empty_index() {
        let decoded = decode_global(&encode_global(&sample_global(0, 4))).unwrap();
        assert_eq!(decoded.source_count(), 0);
        assert!(decoded.check_invariants().is_ok());
    }

    #[test]
    fn global_and_local_images_are_not_interchangeable() {
        let local = sample_index(10, 4);
        assert!(matches!(
            decode_global(&encode_local(&local)),
            Err(PersistError::BadMagic(_))
        ));
        let global = sample_global(10, 4);
        assert!(matches!(
            decode_local(&encode_global(&global)),
            Err(PersistError::BadMagic(_))
        ));
    }

    #[test]
    fn truncated_global_images_fail_loudly() {
        let image = encode_global(&sample_global(12, 3)).to_vec();
        for cut in 0..image.len() {
            let err = decode_global(&image[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::UnexpectedEof { .. }),
                "cut at {cut} produced unexpected error {err}"
            );
        }
    }

    #[test]
    fn flipped_global_images_decode_or_fail_typed() {
        let image = encode_global(&sample_global(12, 3)).to_vec();
        for at in 0..image.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut flipped = image.clone();
                flipped[at] ^= mask;
                // A typed error or a sound index, never a panic.
                if let Ok(index) = decode_global(&flipped) {
                    assert_eq!(index.check_invariants(), Ok(()), "byte {at} ^ {mask:#04x}");
                }
            }
        }
    }

    #[test]
    fn hostile_global_images_end_in_typed_errors() {
        let image = encode_global(&sample_global(12, 3)).to_vec();
        let (version, count, first) = (4, 4 + 2 + 8, 4 + 2 + 8 + 8);

        // A summary count the bytes behind it cannot hold — one too many, or
        // as large as it goes — is refused before anything is reserved.
        for forged in [13, u64::MAX] {
            let mut forged_count = image.clone();
            forged_count[count..count + 8].copy_from_slice(&forged.to_le_bytes());
            assert!(matches!(
                decode_global(&forged_count),
                Err(PersistError::UnexpectedEof {
                    context: "declared source summaries"
                })
            ));
        }

        // The arena images of version 1 are refused by name.
        let mut v1 = image.clone();
        v1[version..version + 2].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_global(&v1).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion(1)));
        assert!(err.to_string().contains("global 2"), "got {err}");

        // Summaries out of ascending id order, and a non-finite corner.
        let mut swapped = image.clone();
        swapped[first..first + 2 * SUMMARY_BYTES].rotate_left(SUMMARY_BYTES);
        let mut nan = image.clone();
        nan[first + 6..first + 14].copy_from_slice(&f64::NAN.to_le_bytes());
        for bad in [swapped, nan] {
            let err = decode_global(&bad).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt(_)), "got {err}");
        }
    }

    #[test]
    fn zero_node_images_are_rejected_not_panicking() {
        // A crafted header declaring an empty arena with root = 0 used to
        // slip past the bounds check and panic inside the invariant walk.
        let mut image = Vec::new();
        image.put_u32_le(MAGIC);
        image.put_u16_le(VERSION);
        // leaf capacity, dataset count, root, node count: all zero.
        for _ in 0..4 {
            image.put_u64_le(0);
        }
        let err = decode_local(&image).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn save_and_load_global_via_files() {
        let dir = std::env::temp_dir().join(format!("dits-persist-global-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("global.ditg");
        let index = sample_global(9, 2);
        save_global(&index, &path).unwrap();
        let loaded = load_global(&path).unwrap();
        assert_eq!(loaded.summaries(), index.summaries());
        fs::remove_dir_all(&dir).unwrap();
    }

    proptest! {
        #[test]
        fn prop_random_bytes_never_panic_global(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            if let Ok(index) = decode_global(&bytes) {
                prop_assert!(index.check_invariants().is_ok());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_roundtrip_is_lossless(
            datasets in proptest::collection::vec(
                proptest::collection::vec((0u32..128, 0u32..128), 1..12), 1..50),
            capacity in 1usize..10,
        ) {
            let nodes: Vec<DatasetNode> = datasets
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect();
            let index = DitsLocal::build(nodes, DitsLocalConfig { leaf_capacity: capacity });
            let image = encode_local(&index);
            let decoded = decode_local(&image).unwrap();
            prop_assert_eq!(encode_local(&decoded), image);
            prop_assert_eq!(decoded.dataset_count(), index.dataset_count());
            prop_assert!(decoded.check_invariants().is_ok());
            // Every dataset's cells survive the roundtrip bit for bit.
            let mut before: Vec<(DatasetId, Vec<u64>)> = index
                .dataset_nodes()
                .iter()
                .map(|n| (n.id, n.cells.cells().to_vec()))
                .collect();
            let mut after: Vec<(DatasetId, Vec<u64>)> = decoded
                .dataset_nodes()
                .iter()
                .map(|n| (n.id, n.cells.cells().to_vec()))
                .collect();
            before.sort();
            after.sort();
            prop_assert_eq!(before, after);
        }

        #[test]
        fn prop_random_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            // Arbitrary garbage must produce an error, never a panic or an
            // index that fails its own invariants.
            if let Ok(index) = decode_local(&bytes) {
                prop_assert!(index.check_invariants().is_ok());
            }
        }
    }
}
