//! Dataset nodes (Definition 12) and shared node geometry.
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

use serde::{Deserialize, Serialize};
use spatial::{CellSet, DatasetId, Grid, Mbr, Point, SpatialDataset, SpatialError};

/// The geometric summary shared by every DITS node: the MBR of the content,
/// its pivot (centre of the MBR) and its radius (half the MBR diagonal).
///
/// All geometry lives in *cell-coordinate space* — the integer grid
/// coordinates produced by the z-order decomposition — because both the
/// overlap bounds and the connectivity distance of the paper are defined on
/// cells, not raw longitude/latitude.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeGeometry {
    /// Minimum bounding rectangle of the content.
    pub rect: Mbr,
    /// Pivot `o`: centre of the MBR.
    pub pivot: Point,
    /// Radius `r`: half of the MBR diagonal.
    pub radius: f64,
}

impl NodeGeometry {
    /// Builds the geometry from an MBR.
    pub fn from_mbr(rect: Mbr) -> Self {
        Self {
            rect,
            pivot: rect.center(),
            radius: rect.radius(),
        }
    }

    /// Geometry of the union of two geometries' rectangles.
    pub fn union(&self, other: &NodeGeometry) -> NodeGeometry {
        NodeGeometry::from_mbr(self.rect.union(&other.rect))
    }
}

/// A dataset node `N_D = (id, rect, o, r, S_D)` (Definition 12): one spatial
/// dataset prepared for indexing.
///
/// The parent pointer `pa` of the paper is implicit in the arena
/// representation of [`DitsLocal`](crate::local::DitsLocal); dataset nodes
/// themselves only carry content.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetNode {
    /// Identifier of the dataset within its data source.
    pub id: DatasetId,
    /// Geometry (MBR / pivot / radius) in cell-coordinate space.
    pub geometry: NodeGeometry,
    /// The dataset's cell-based representation `S_D`.
    pub cells: CellSet,
}

impl DatasetNode {
    /// Builds a dataset node from an already-computed cell set.
    ///
    /// Returns `None` when the cell set is empty (an empty dataset has no
    /// MBR and can never be joinable).
    pub fn from_cell_set(id: DatasetId, cells: CellSet) -> Option<Self> {
        let rect = cells.mbr_cell_space()?;
        Some(Self {
            id,
            geometry: NodeGeometry::from_mbr(rect),
            cells,
        })
    }

    /// Builds a dataset node by gridding a raw spatial dataset
    /// (Definition 5 followed by Definition 12).
    pub fn from_dataset(grid: &Grid, dataset: &SpatialDataset) -> Result<Self, SpatialError> {
        let cells = dataset.to_cell_set(grid)?;
        Self::from_cell_set(dataset.id, cells).ok_or(SpatialError::EmptyDataset)
    }

    /// The node's MBR.
    pub fn rect(&self) -> &Mbr {
        &self.geometry.rect
    }

    /// The node's pivot.
    pub fn pivot(&self) -> Point {
        self.geometry.pivot
    }

    /// The node's radius.
    pub fn radius(&self) -> f64 {
        self.geometry.radius
    }

    /// Spatial coverage of the dataset: the number of cells it occupies.
    pub fn coverage(&self) -> usize {
        self.cells.len()
    }

    /// Estimated heap memory of the node in bytes (cell set plus the fixed
    /// geometry fields), used by the Fig. 8 memory comparison.  The cell set
    /// is its packed blocks, 16 B an occupied 8×8-cell tile; the distance
    /// kernel's boundary tiles beside them (at most 16 B a tile and 24 B a
    /// 64×64-cell super-block) are counted once a kNN search has built them.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.cells.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::cellset::super_block_runs;
    use spatial::zorder::cell_id;
    use spatial::GridConfig;

    fn cells(coords: &[(u32, u32)]) -> CellSet {
        CellSet::from_cells(coords.iter().map(|&(x, y)| cell_id(x, y)))
    }

    #[test]
    fn geometry_from_mbr() {
        let rect = Mbr::new(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
        let g = NodeGeometry::from_mbr(rect);
        assert_eq!(g.pivot, Point::new(2.0, 1.0));
        assert!((g.radius - (20f64).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometry_union_covers_both() {
        let a = NodeGeometry::from_mbr(Mbr::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let b = NodeGeometry::from_mbr(Mbr::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0)));
        let u = a.union(&b);
        assert!(u.rect.contains(&a.rect));
        assert!(u.rect.contains(&b.rect));
    }

    #[test]
    fn dataset_node_from_cell_set() {
        let n = DatasetNode::from_cell_set(3, cells(&[(1, 1), (3, 5)])).unwrap();
        assert_eq!(n.id, 3);
        assert_eq!(n.coverage(), 2);
        assert_eq!(n.rect().min, Point::new(1.0, 1.0));
        assert_eq!(n.rect().max, Point::new(3.0, 5.0));
        assert_eq!(n.pivot(), Point::new(2.0, 3.0));
        assert!(n.memory_bytes() > 0);
        assert!(DatasetNode::from_cell_set(0, CellSet::new()).is_none());
    }

    #[test]
    fn memory_estimate_grows_after_verify_cache_materializes() {
        // Four cells in two 8×8 tiles: two 16-byte blocks, nothing per cell.
        let n = DatasetNode::from_cell_set(1, cells(&[(0, 0), (3, 1), (7, 9), (2, 2)])).unwrap();
        let cold = n.memory_bytes();
        assert_eq!(cold, std::mem::size_of::<DatasetNode>() + 2 * 16);
        // Materialise the cached boundary tiles the distance kernel walks:
        // the reported footprint must grow by exactly their bytes, keeping
        // the Fig. 8 memory comparison honest.  The verify state is the
        // blocks, already counted, and the tiles.
        let state = n.cells.verify_state_bytes();
        assert!(state > 2 * 16);
        assert_eq!(n.memory_bytes(), cold + state - 2 * 16);
    }

    #[test]
    fn verify_state_stays_within_16_bytes_a_tile_and_24_a_super_block() {
        // A filled 200×120 rectangle with a hole, and a diagonal route far
        // from it: interior tiles, boundary tiles and many super-blocks.
        let mut coords: Vec<(u32, u32)> = (0..200)
            .flat_map(|x| (0..120).map(move |y| (x, y)))
            .filter(|&(x, y)| !(50..60).contains(&x) || !(40..45).contains(&y))
            .collect();
        coords.extend((0..500).map(|i| (1000 + i, 300 + i)));
        let n = DatasetNode::from_cell_set(1, cells(&coords)).unwrap();
        let far = cells(&[(5000, 5000)]);
        let packed = n.cells.packed().memory_bytes();
        let cold = n.memory_bytes();
        assert_eq!(cold, std::mem::size_of::<DatasetNode>() + packed);
        assert_eq!(packed, 16 * n.cells.packed().blocks().len());
        assert!(spatial::dataset_distance(&n.cells, &far) > 0.0);
        let blocks = n.cells.packed().blocks();
        let supers = super_block_runs(blocks, |(key, _)| key).count();
        let boundary = n.memory_bytes() - cold;
        assert!(boundary > 0);
        assert!(
            boundary <= 16 * blocks.len() + 24 * supers,
            "{boundary} B for {} tiles and {supers} super-blocks",
            blocks.len()
        );
        assert_eq!(n.cells.verify_state_bytes(), packed + boundary);
    }

    #[test]
    fn dataset_node_from_raw_dataset() {
        let grid = Grid::new(GridConfig {
            origin: Point::new(0.0, 0.0),
            width: 1.0,
            height: 1.0,
            resolution: 4,
        })
        .unwrap();
        let ds = SpatialDataset::new(9, vec![Point::new(0.1, 0.1), Point::new(0.9, 0.9)]);
        let node = DatasetNode::from_dataset(&grid, &ds).unwrap();
        assert_eq!(node.id, 9);
        assert_eq!(node.coverage(), 2);

        let empty = SpatialDataset::new(10, vec![]);
        assert!(DatasetNode::from_dataset(&grid, &empty).is_err());
    }
}
