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
//! * delta-encoded, varint-compressed cell IDs (cell sets are sorted, so the
//!   gaps are small and the image ends up far smaller than 8 bytes/cell),
//! * a magic number plus a format version so stale images fail loudly
//!   instead of decoding garbage.
//!
//! Leaf inverted indexes are *not* stored: they are fully determined by the
//! leaf's dataset nodes and are rebuilt during decoding, which keeps the
//! image smaller and removes a whole class of corruption (a posting list
//! disagreeing with its entries).

use crate::global::{DitsGlobal, GlobalNode};
use crate::local::{inverted_of, DitsLocal, DitsLocalConfig, NodeIdx, NodeKind, TreeNode};
use crate::node::{DatasetNode, NodeGeometry};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spatial::{CellSet, Mbr, Point, SourceId};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Magic number at the start of every local index image (`"DITS"` in ASCII).
const MAGIC: u32 = 0x4449_5453;
/// Magic number at the start of every global index image (`"DITG"`).
const GLOBAL_MAGIC: u32 = 0x4449_5447;
/// Current format version; bump when the encoding changes incompatibly.
const VERSION: u16 = 1;

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
                    "unsupported DITS image version {v} (supported: {VERSION})"
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

/// Encodes a global index into its binary image.
///
/// The image carries the full arena (tree shape, geometry and every source
/// summary) plus the maintenance churn counter, so a restarted data center
/// resumes exactly where it stopped — including how close the tree was to
/// its next heuristic rebuild.
pub fn encode_global(index: &DitsGlobal) -> Bytes {
    let (nodes, root, leaf_capacity, source_count, churn) = index.parts();
    let mut buf = BytesMut::with_capacity(64 + nodes.len() * 64);
    buf.put_u32_le(GLOBAL_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(leaf_capacity as u64);
    buf.put_u64_le(source_count as u64);
    buf.put_u64_le(churn as u64);
    buf.put_u64_le(root as u64);
    buf.put_u64_le(nodes.len() as u64);
    for node in nodes {
        match node {
            GlobalNode::Internal {
                geometry,
                left,
                right,
            } => {
                buf.put_u8(0);
                encode_geometry(&mut buf, geometry);
                buf.put_u64_le(*left as u64);
                buf.put_u64_le(*right as u64);
            }
            GlobalNode::Leaf { geometry, sources } => {
                buf.put_u8(1);
                encode_geometry(&mut buf, geometry);
                buf.put_u64_le(sources.len() as u64);
                for s in sources {
                    buf.put_u16_le(s.source);
                    buf.put_u32_le(s.resolution);
                    buf.put_f64_le(s.geometry.rect.min.x);
                    buf.put_f64_le(s.geometry.rect.min.y);
                    buf.put_f64_le(s.geometry.rect.max.x);
                    buf.put_f64_le(s.geometry.rect.max.y);
                }
            }
        }
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

/// Decodes a global index from its binary image, verifying structural
/// invariants.
pub fn decode_global(image: &[u8]) -> Result<DitsGlobal, PersistError> {
    let mut buf = image;
    let magic = read_u32(&mut buf, "magic")?;
    if magic != GLOBAL_MAGIC {
        return Err(PersistError::BadMagic(magic));
    }
    let version = read_u16(&mut buf, "version")?;
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let leaf_capacity = read_u64(&mut buf, "leaf capacity")? as usize;
    let source_count = read_u64(&mut buf, "source count")? as usize;
    let churn = read_u64(&mut buf, "churn")? as usize;
    let root = read_u64(&mut buf, "root index")? as usize;
    let node_count = read_u64(&mut buf, "node count")? as usize;
    if node_count > image.len() {
        return Err(PersistError::Corrupt(format!(
            "node count {node_count} larger than the image itself"
        )));
    }
    // The arena is never empty: even an index with no sources has its root
    // leaf node, and every reachability walk starts by indexing the root.
    if node_count == 0 {
        return Err(PersistError::Corrupt("empty node arena".to_string()));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let tag = read_u8(&mut buf, "global node kind")?;
        let node = match tag {
            0 => {
                let geometry = decode_geometry(&mut buf)?;
                GlobalNode::Internal {
                    geometry,
                    left: read_u64(&mut buf, "left child")? as usize,
                    right: read_u64(&mut buf, "right child")? as usize,
                }
            }
            1 => {
                let geometry = decode_geometry(&mut buf)?;
                let n = read_u64(&mut buf, "leaf summary count")? as usize;
                let mut sources = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    sources.push(decode_summary(&mut buf)?);
                }
                GlobalNode::Leaf { geometry, sources }
            }
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown global node kind tag {other}"
                )));
            }
        };
        nodes.push(node);
    }
    if root >= nodes.len() {
        return Err(PersistError::Corrupt(format!(
            "root index {root} out of bounds ({} nodes)",
            nodes.len()
        )));
    }
    // Child pointers must form a proper tree: in bounds and no node adopted
    // twice.  This rules out cycles and shared subtrees before any
    // reachability walk runs over the arena.
    let mut referenced = vec![false; nodes.len()];
    for (idx, node) in nodes.iter().enumerate() {
        if let GlobalNode::Internal { left, right, .. } = node {
            for child in [*left, *right] {
                if child >= nodes.len() || child == idx {
                    return Err(PersistError::Corrupt(format!(
                        "internal {idx} references an invalid child {child}"
                    )));
                }
                match referenced.get_mut(child) {
                    Some(seen) if *seen => {
                        return Err(PersistError::Corrupt(format!(
                            "node {child} has more than one parent"
                        )));
                    }
                    Some(seen) => *seen = true,
                    None => {
                        return Err(PersistError::Corrupt(format!(
                            "internal {idx} references an invalid child {child}"
                        )));
                    }
                }
            }
        }
    }
    if referenced.get(root).copied().unwrap_or(false) {
        return Err(PersistError::Corrupt(
            "root is referenced as a child".to_string(),
        ));
    }
    let index = DitsGlobal::from_parts(nodes, root, leaf_capacity.max(1), source_count, churn);
    index.check_invariants().map_err(PersistError::Corrupt)?;
    Ok(index)
}

/// Reads the binary image of a global index from a file.
pub fn load_global(path: &Path) -> Result<DitsGlobal, PersistError> {
    let image = fs::read(path)?;
    decode_global(&image)
}

fn decode_summary(buf: &mut &[u8]) -> Result<crate::global::SourceSummary, PersistError> {
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
    Ok(crate::global::SourceSummary {
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
    encode_cell_set(buf, &node.cells);
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

/// Cell sets are sorted, so they are stored as varint-encoded gaps.
fn encode_cell_set(buf: &mut BytesMut, cells: &CellSet) {
    put_varint(buf, cells.len() as u64);
    let mut previous = 0u64;
    for cell in cells.iter() {
        put_varint(buf, cell - previous);
        previous = cell;
    }
}

/// LEB128-style unsigned varint.
fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
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
    let dataset_count = read_u64(&mut buf, "dataset count")? as usize;
    let root = read_u64(&mut buf, "root index")? as usize;
    let node_count = read_u64(&mut buf, "node count")? as usize;
    // A valid arena never has more nodes than bytes in the image — reject
    // absurd counts before allocating.  And it is never empty: even an
    // index with no datasets has its root leaf node.
    if node_count > image.len() {
        return Err(PersistError::Corrupt(format!(
            "node count {node_count} larger than the image itself"
        )));
    }
    if node_count == 0 {
        return Err(PersistError::Corrupt("empty node arena".to_string()));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        nodes.push(decode_tree_node(&mut buf)?);
    }
    if root >= nodes.len() {
        return Err(PersistError::Corrupt(format!(
            "root index {root} out of bounds ({} nodes)",
            nodes.len()
        )));
    }
    let index = DitsLocal::from_parts(
        nodes,
        root,
        DitsLocalConfig {
            leaf_capacity: leaf_capacity.max(1),
        },
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
    let has_parent = read_u8(buf, "parent flag")?;
    let parent = if has_parent == 1 {
        Some(read_u64(buf, "parent index")? as NodeIdx)
    } else {
        None
    };
    let kind_tag = read_u8(buf, "node kind")?;
    let kind = match kind_tag {
        0 => NodeKind::Internal {
            left: read_u64(buf, "left child")? as NodeIdx,
            right: read_u64(buf, "right child")? as NodeIdx,
        },
        1 => {
            let entry_count = read_u64(buf, "leaf entry count")? as usize;
            let mut entries = Vec::with_capacity(entry_count.min(1 << 20));
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
    let cells = decode_cell_set(buf)?;
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

fn decode_cell_set(buf: &mut &[u8]) -> Result<CellSet, PersistError> {
    let len = read_varint(buf)? as usize;
    let mut cells = Vec::with_capacity(len.min(1 << 24));
    let mut previous = 0u64;
    for _ in 0..len {
        let gap = read_varint(buf)?;
        previous = previous
            .checked_add(gap)
            .ok_or_else(|| PersistError::Corrupt("cell id overflow".to_string()))?;
        cells.push(previous);
    }
    Ok(CellSet::from_cells(cells))
}

fn read_varint(buf: &mut &[u8]) -> Result<u64, PersistError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_u8(buf, "varint")?;
        if shift >= 64 {
            return Err(PersistError::Corrupt(
                "varint longer than 64 bits".to_string(),
            ));
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
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
    use crate::local::DitsLocalConfig;
    use crate::overlap::overlap_search;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;
    use spatial::DatasetId;

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

    fn sample_global(n: u16, capacity: usize) -> DitsGlobal {
        use crate::global::SourceSummary;
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
        // Exercise the maintenance paths so churn and empty leaves survive
        // the round-trip too.
        assert!(index.remove_source(4));
        let moved = crate::global::SourceSummary {
            source: 9,
            geometry: NodeGeometry::from_mbr(Mbr::new(
                Point::new(150.0, 60.0),
                Point::new(155.0, 65.0),
            )),
            resolution: 11,
        };
        assert!(index.refresh_source(moved));
        let image = encode_global(&index);
        let decoded = decode_global(&image).unwrap();
        assert_eq!(decoded.source_count(), index.source_count());
        assert_eq!(decoded.leaf_capacity(), index.leaf_capacity());
        assert_eq!(decoded.churn(), index.churn());
        assert_eq!(decoded.summaries(), index.summaries());
        assert!(decoded.check_invariants().is_ok());
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
        for cut in [3usize, 9, 30, image.len() / 2, image.len() - 1] {
            let err = decode_global(&image[..cut]).unwrap_err();
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
    fn zero_node_images_are_rejected_not_panicking() {
        // A crafted header declaring an empty arena with root = 0 used to
        // slip past the bounds check and panic inside the invariant walk.
        for magic in [MAGIC, GLOBAL_MAGIC] {
            let mut image = Vec::new();
            image.put_u32_le(magic);
            image.put_u16_le(VERSION);
            // leaf capacity + (dataset|source) count [+ churn] + root +
            // node_count, all zero: more header words than either format
            // reads, so both decoders see node_count = 0.
            for _ in 0..6 {
                image.put_u64_le(0);
            }
            let err = if magic == MAGIC {
                decode_local(&image).unwrap_err()
            } else {
                decode_global(&image).unwrap_err()
            };
            assert!(matches!(err, PersistError::Corrupt(_)), "got {err}");
        }
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
            let decoded = decode_local(&encode_local(&index)).unwrap();
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
