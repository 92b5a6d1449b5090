//! Index persistence: a compact, versioned binary image of DITS-L.
//!
//! Real deployments of the multi-source framework restart data sources
//! without wanting to re-grid terabytes of portal data, so a source needs a
//! durable on-disk form of what it indexes.  The workspace deliberately
//! depends on no serialisation *format* crate, so this module implements a
//! small explicit codec on top of [`bytes`]:
//!
//! * fixed little-endian scalars (`u16`/`u32`/`u64`),
//! * cell sets in the gap-and-varint form of [`crate::codec`], the bytes they
//!   cross the wire in (cell sets are sorted, so the gaps are small and the
//!   image ends up far smaller than 8 bytes/cell),
//! * a magic number plus a format version so stale images fail loudly
//!   instead of decoding garbage.
//!
//! An image stores what cannot be recomputed and nothing else: the leaf
//! capacity and the datasets, ascending by id.  The tree is *not* stored.
//! Both DITS indexes are built from their contents by Algorithm 1, so
//! [`decode_local`] reads the datasets and calls [`DitsLocal::build`] — there
//! is no arena of child pointers, node geometries and parent links to parse
//! and then distrust, no slot orphaned by maintenance to carry along, and
//! checking a stored tree against the one its datasets determine cost more
//! load time than building it.  A reloaded index is therefore the scratch
//! build over the survivors, not the maintained shape it was saved from; its
//! answers are the same (OverlapSearch may name another dataset among equals
//! at the k-th overlap, as it may between any two tree shapes).
//!
//! The global index has no image.  A data center recovers the way it
//! bootstraps — by polling its sources for their summaries — which, unlike an
//! image, cannot be stale.
//!
//! Images are untrusted input.  Every declared count is checked against the
//! bytes left, at the smallest encoding of one element, *before* anything is
//! reserved for it, and the decoder accepts only what the encoder writes
//! (varints are the shortest encoding of their value, cell gaps after the
//! first are non-zero, dataset ids strictly ascend, no cell set is empty, the
//! leaf capacity is one `build` keeps), so `encode(decode(b)) == b` for every
//! image `b` the decoder accepts.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use crate::codec::{get_cells, put_cells, CodecError};
use crate::local::{DitsLocal, DitsLocalConfig};
use crate::node::DatasetNode;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spatial::DatasetId;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;

/// Magic number at the start of every index image (`"DITS"` in ASCII).
const MAGIC: u32 = 0x4449_5453;
/// Current format version; bump when the encoding changes incompatibly.
/// Version 1 stored the tree's node arena and is refused.
const VERSION: u16 = 2;

/// Smallest encoding of one dataset: id, cell count, one cell gap.
const MIN_DATASET_BYTES: usize = 4 + 1 + 1;

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
    /// The image holds something no encoder writes.
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

/// Encodes a local index into its binary image: the leaf capacity and the
/// indexed datasets ascending by id, each as its id and its cell set (the
/// dataset geometry is fully determined by the cells and recomputed during
/// decoding).
pub fn encode_local(index: &DitsLocal) -> Bytes {
    let mut datasets = index.dataset_nodes();
    datasets.sort_unstable_by_key(|d| d.id);
    let mut buf = BytesMut::new();
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u64_le(index.config().leaf_capacity as u64);
    buf.put_u64_le(datasets.len() as u64);
    for dataset in datasets {
        buf.put_u32_le(dataset.id);
        put_cells(&mut buf, &dataset.cells);
    }
    buf.freeze()
}

/// Writes the binary image of a local index to a file, atomically and
/// durably: the image goes to a temporary sibling file and is synced to disk
/// before it is renamed over `path`, and the rename is synced through the
/// parent directory, so a crash leaves the previous image or the new one —
/// never a rename that outlived its data.  A failed save removes the
/// temporary file and leaves whatever was at `path` untouched.
pub fn save_local(index: &DitsLocal, path: &Path) -> Result<(), PersistError> {
    let image = encode_local(index);
    let tmp = path.with_extension("tmp");
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(&image)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if let Err(e) = written {
        // Best effort: the save has already failed with `e`.
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

/// Decodes a local index from its binary image: checks the datasets and
/// builds the tree over them, as every other producer of a [`DitsLocal`]
/// does.
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
    // `DitsLocal::build` never keeps a capacity of 0 (nor one beyond the
    // address space), so no encoder writes one; repairing it here would
    // decode two images into one index.
    let leaf_capacity = match usize::try_from(read_u64(&mut buf, "leaf capacity")?) {
        Ok(capacity) if capacity > 0 => capacity,
        _ => {
            return Err(PersistError::Corrupt(
                "leaf capacity out of range".to_string(),
            ))
        }
    };
    // Admitted only when the bytes left can hold that many datasets at their
    // smallest, so a forged count is refused as the cut-off image it is
    // before anything is reserved for it.
    let declared = read_u64(&mut buf, "dataset count")?;
    if declared > (buf.remaining() / MIN_DATASET_BYTES) as u64 {
        return Err(PersistError::UnexpectedEof {
            context: "declared datasets",
        });
    }
    let mut datasets: Vec<DatasetNode> = Vec::with_capacity(declared as usize);
    for _ in 0..declared {
        let dataset = decode_dataset(&mut buf)?;
        if datasets.last().is_some_and(|p| p.id >= dataset.id) {
            return Err(PersistError::Corrupt(format!(
                "dataset {} is out of ascending id order",
                dataset.id
            )));
        }
        datasets.push(dataset);
    }
    // No encoder writes anything after the last declared dataset.
    if !buf.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "{} bytes after the end of the image",
            buf.len()
        )));
    }
    Ok(DitsLocal::build(
        datasets,
        DitsLocalConfig { leaf_capacity },
    ))
}

/// Reads the binary image of a local index from a file.
pub fn load_local(path: &Path) -> Result<DitsLocal, PersistError> {
    let image = fs::read(path)?;
    decode_local(&image)
}

fn decode_dataset(buf: &mut &[u8]) -> Result<DatasetNode, PersistError> {
    let id: DatasetId = read_u32(buf, "dataset id")?;
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

reader!(read_u16, u16, get_u16_le, 2);
reader!(read_u32, u32, get_u32_le, 4);
reader!(read_u64, u64, get_u64_le, 8);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_varint;
    use crate::coverage::{coverage_search, CoverageConfig};
    use crate::knn::nearest_datasets;
    use crate::overlap::overlap_search;
    use crate::stats::MaintenanceStats;
    use crate::ReplayOnPanic;
    use proptest::prelude::*;
    use spatial::zorder::cell_id;
    use spatial::CellSet;

    /// Offsets of the version, the leaf capacity, the dataset count and the
    /// first dataset in an image.
    const VERSION_AT: usize = 4;
    const CAPACITY_AT: usize = VERSION_AT + 2;
    const COUNT_AT: usize = CAPACITY_AT + 8;
    const FIRST_DATASET_AT: usize = COUNT_AT + 8;

    fn cells(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    fn node(id: DatasetId, coords: &[(u32, u32)]) -> DatasetNode {
        DatasetNode::from_cell_set(id, cells(coords)).unwrap()
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
        // A scratch-built index reloads to itself, tree shape included, and
        // its image is the only encoding of it.
        assert_eq!(decoded, index);
        assert_eq!(encode_local(&decoded), image);
        assert_eq!(decoded.config().leaf_capacity, 7);
        assert!(decoded.check_invariants().is_ok());
        // The decoded index must answer searches identically.
        let query = cells(&[(3, 0), (4, 0), (6, 3)]);
        assert_eq!(
            overlap_search(&index, &query, 5),
            overlap_search(&decoded, &query, 5)
        );
    }

    #[test]
    fn roundtrip_of_empty_index() {
        let index = DitsLocal::build(Vec::new(), DitsLocalConfig::default());
        let image = encode_local(&index);
        assert_eq!(
            image.len(),
            FIRST_DATASET_AT,
            "an empty image is its header"
        );
        assert_eq!(decode_local(&image).unwrap(), index);
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
        wrong_version[VERSION_AT] = 0xff;
        assert!(matches!(
            decode_local(&wrong_version),
            Err(PersistError::UnsupportedVersion(_))
        ));
        // The arena images of version 1 are refused by name.
        let mut v1 = image.clone();
        v1[VERSION_AT..CAPACITY_AT].copy_from_slice(&1u16.to_le_bytes());
        let err = decode_local(&v1).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion(1)));
        assert!(err.to_string().contains("supported: 2"), "got {err}");
    }

    #[test]
    fn truncated_images_fail_loudly() {
        let index = sample_index(30, 4);
        let image = encode_local(&index).to_vec();
        for cut in [3usize, 7, 20, image.len() / 2, image.len() - 1] {
            let truncated = &image[..cut];
            let err = decode_local(truncated).unwrap_err();
            assert!(
                matches!(err, PersistError::UnexpectedEof { .. }),
                "cut at {cut} produced unexpected error {err}"
            );
        }
    }

    #[test]
    fn corrupted_dataset_count_is_detected() {
        let index = sample_index(20, 4);
        let image = encode_local(&index).to_vec();
        // One dataset more than the image holds runs off its end; one fewer
        // leaves the last dataset behind as trailing bytes.
        let mut more = image.clone();
        more[COUNT_AT] += 1;
        assert!(matches!(
            decode_local(&more),
            Err(PersistError::UnexpectedEof {
                context: "dataset id"
            })
        ));
        let mut fewer = image.clone();
        fewer[COUNT_AT] -= 1;
        assert!(matches!(
            decode_local(&fewer),
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
        assert_eq!(load_local(&path).unwrap(), index);
        // Missing files surface as I/O errors.
        assert!(matches!(
            load_local(&dir.join("does-not-exist.dits")),
            Err(PersistError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A save that fails after the image was written — here the rename,
    /// whose target is a directory, the one failure that does not depend on
    /// who runs the tests (a read-only directory stops nothing for root) —
    /// leaves no temporary file, no partial image, and what was at the path
    /// before as it was.
    #[test]
    fn a_failed_save_leaves_no_temp_file_and_the_previous_contents() {
        let dir = std::env::temp_dir().join(format!("dits-persist-fail-{}", std::process::id()));
        let occupied = dir.join("local.dits");
        fs::create_dir_all(&occupied).unwrap();
        let previous = occupied.join("previous.dits");
        save_local(&sample_index(20, 4), &previous).unwrap();
        let before = fs::read(&previous).unwrap();

        let err = save_local(&sample_index(50, 6), &occupied).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)), "{err:?}");
        assert!(!dir.join("local.tmp").exists(), "temp file left behind");
        assert!(occupied.is_dir());
        assert_eq!(fs::read(&previous).unwrap(), before);
        let left: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "{left:?}");
        // A save whose temporary file cannot even be created leaves nothing.
        let missing = dir.join("missing").join("local.dits");
        assert!(matches!(
            save_local(&sample_index(20, 4), &missing),
            Err(PersistError::Io(_))
        ));
        assert!(!dir.join("missing").exists());
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

    #[test]
    fn forged_counts_are_refused_by_their_count_checks() {
        // One dataset, 7 = {cell 3}: its cell count follows its id.
        let index = DitsLocal::build(vec![node(7, &[(1, 1)])], DitsLocalConfig::default());
        let image = encode_local(&index).to_vec();
        let cell_count = FIRST_DATASET_AT + 4;
        assert_eq!(image.len(), cell_count + 2, "header, one id, one cell");
        assert!(decode_local(&image).is_ok());
        let eof_context = |image: &[u8]| match decode_local(image) {
            Err(PersistError::UnexpectedEof { context }) => context,
            other => panic!("expected a count check to refuse the image, got {other:?}"),
        };
        // Each count once as the smallest the bytes behind it cannot hold
        // (they hold exactly one element) and once as large as it goes; a
        // reader without the check would reserve for it and fail later,
        // inside an element, with that element's context.
        for forged in [2, u64::MAX] {
            let mut datasets = image.clone();
            datasets[COUNT_AT..COUNT_AT + 8].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(eof_context(&datasets), "declared datasets");

            let mut varint = BytesMut::new();
            put_varint(&mut varint, forged);
            let mut forged_cells = image.clone();
            forged_cells.splice(cell_count..cell_count + 1, varint.freeze().to_vec());
            assert_eq!(eof_context(&forged_cells), "declared cells");
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
    fn hostile_local_images_end_in_typed_errors() {
        // Three two-cell datasets of seven bytes each: id, count, two gaps.
        const EACH: usize = 4 + 1 + 2;
        let index = DitsLocal::build(
            vec![
                node(1, &[(1, 1), (2, 1)]),
                node(2, &[(2, 2), (3, 2)]),
                node(3, &[(3, 3), (4, 3)]),
            ],
            DitsLocalConfig::default(),
        );
        let image = encode_local(&index).to_vec();
        assert_eq!(image.len(), FIRST_DATASET_AT + 3 * EACH);
        let corrupt = |image: &[u8], needle: &str| {
            let err = decode_local(image).unwrap_err();
            assert!(
                matches!(&err, PersistError::Corrupt(msg) if msg.contains(needle)),
                "expected a corrupt image naming {needle:?}, got {err}"
            );
        };

        // Datasets out of ascending id order: two swapped, and one id twice.
        let mut swapped = image.clone();
        swapped[FIRST_DATASET_AT..FIRST_DATASET_AT + 2 * EACH].rotate_left(EACH);
        corrupt(&swapped, "ascending id order");
        let mut twice = image.clone();
        twice[FIRST_DATASET_AT + EACH] = 1;
        corrupt(&twice, "ascending id order");

        // The last dataset with a cell count of zero and its two gaps cut.
        let mut empty = image[..image.len() - 2].to_vec();
        *empty.last_mut().unwrap() = 0;
        corrupt(&empty, "empty cell set");

        // A leaf capacity `build` would not keep, so no encoder writes it —
        // down to the header of all zeroes after the version.
        let mut no_capacity = image.clone();
        no_capacity[CAPACITY_AT..COUNT_AT].fill(0);
        corrupt(&no_capacity, "leaf capacity");
        let mut zero_header = image[..FIRST_DATASET_AT].to_vec();
        zero_header[CAPACITY_AT..].fill(0);
        corrupt(&zero_header, "leaf capacity");

        // Anything after the last declared dataset.
        let mut padded = image.clone();
        padded.push(0);
        corrupt(&padded, "after the end");
    }

    #[test]
    fn flipped_and_truncated_local_images_decode_or_fail_typed() {
        let image = encode_local(&sample_index(7, 2)).to_vec();
        for cut in 0..image.len() {
            assert!(
                matches!(
                    decode_local(&image[..cut]),
                    Err(PersistError::UnexpectedEof { .. })
                ),
                "cut at {cut}"
            );
        }
        // Every single-bit flip is refused with a typed error or decodes to
        // exactly the index the flipped image describes — never a panic or a
        // silent repair (capacity 0, a padded varint, a reordered dataset).
        let mut accepted = 0;
        for bit in 0..image.len() * 8 {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(index) = decode_local(&flipped) {
                assert_eq!(encode_local(&index).to_vec(), flipped, "bit {bit}");
                assert_eq!(index.check_invariants(), Ok(()), "bit {bit}");
                accepted += 1;
            }
        }
        assert!(accepted > 0, "no flip produced another valid image");
    }

    /// One maintenance history fully determined by `case_seed`: a scratch
    /// build, a burst of same-spot inserts (at least one split), random
    /// inserts, updates and deletes, then one leaf deleted empty (a collapse,
    /// orphaning arena slots).  The image of the maintained index must reload
    /// to the scratch build over the survivors and answer like the
    /// maintained tree it was taken from.
    fn run_maintained_case(case_seed: u64) {
        let _replay = ReplayOnPanic("run_maintained_case", case_seed);
        let mut rng = TestRng::from_name(&format!("persist-{case_seed}"));
        let shape = || proptest::collection::vec((0u32..48, 0u32..48), 1..8);
        let config = DitsLocalConfig {
            leaf_capacity: (1usize..6).generate(&mut rng),
        };
        // At most 11 deletes against at least 22 datasets: never a single leaf.
        let initial = proptest::collection::vec(shape(), 20..40).generate(&mut rng);
        let ops =
            proptest::collection::vec((0u8..3, any::<u16>(), shape()), 0..12).generate(&mut rng);
        let queries = proptest::collection::vec(shape(), 6..7).generate(&mut rng);

        let mut next_id = initial.len() as DatasetId;
        let mut maintained = DitsLocal::build(
            initial
                .iter()
                .enumerate()
                .map(|(i, c)| node(i as DatasetId, c))
                .collect(),
            config,
        );
        let mut stats = MaintenanceStats::new();
        for _ in 0..=config.leaf_capacity {
            assert!(maintained.insert_with_stats(node(next_id, &[(20, 20), (21, 20)]), &mut stats));
            next_id += 1;
        }
        for (kind, pick, coords) in ops {
            let live: Vec<DatasetId> = maintained.dataset_nodes().iter().map(|d| d.id).collect();
            let target = live[usize::from(pick) % live.len()];
            match kind {
                0 => {
                    assert!(maintained.insert_with_stats(node(next_id, &coords), &mut stats));
                    next_id += 1;
                }
                1 => assert!(maintained.update_with_stats(node(target, &coords), &mut stats)),
                _ => assert!(maintained.delete_with_stats(target, &mut stats)),
            }
        }
        let live: Vec<DatasetId> = maintained.dataset_nodes().iter().map(|d| d.id).collect();
        let leaf_of = |id: DatasetId| maintained.find_dataset(id).map(|(leaf, _)| leaf);
        let doomed: Vec<DatasetId> = live
            .iter()
            .copied()
            .filter(|&id| leaf_of(id) == leaf_of(live[0]))
            .collect();
        for id in doomed {
            assert!(maintained.delete_with_stats(id, &mut stats));
        }
        assert!(
            stats.leaf_splits > 0 && stats.leaf_collapses > 0,
            "{stats:?}"
        );
        assert!(maintained.traversal_layout().len() < maintained.node_count());
        assert_eq!(maintained.check_invariants(), Ok(()));

        let image = encode_local(&maintained);
        let reloaded = decode_local(&image).unwrap();
        let mut survivors: Vec<DatasetNode> =
            maintained.dataset_nodes().into_iter().cloned().collect();
        survivors.sort_unstable_by_key(|d| d.id);
        assert_eq!(reloaded, DitsLocal::build(survivors, config));
        assert_eq!(encode_local(&reloaded), image);
        // No orphan survives the reload.
        assert_eq!(reloaded.traversal_layout().len(), reloaded.node_count());

        let everything = maintained.dataset_count();
        for q in queries.iter().map(|c| cells(c)) {
            // OJSP breaks a tie at the k-th overlap by leaf order, so ids are
            // compared where nothing is cut and overlaps where something is.
            assert_eq!(
                overlap_search(&maintained, &q, everything).0,
                overlap_search(&reloaded, &q, everything).0
            );
            let overlaps = |index: &DitsLocal| -> Vec<usize> {
                let (top, _) = overlap_search(index, &q, 3);
                top.iter().map(|r| r.overlap).collect()
            };
            assert_eq!(overlaps(&maintained), overlaps(&reloaded));
            let cover = CoverageConfig::new(4, 6.0);
            assert_eq!(
                coverage_search(&maintained, &q, cover).0,
                coverage_search(&reloaded, &q, cover).0
            );
            assert_eq!(
                nearest_datasets(&maintained, &q, 5).0,
                nearest_datasets(&reloaded, &q, 5).0
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_maintained_index_reloads_to_the_scratch_build_of_its_survivors(
            case_seed in any::<u64>(),
        ) {
            run_maintained_case(case_seed);
        }

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
            // Datasets, cells and tree alike survive the roundtrip.
            prop_assert_eq!(decoded, index);
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
