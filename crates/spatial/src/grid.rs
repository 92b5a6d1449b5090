//! Grid partitioning of a bounded 2-D space (Definition 4).
//!
//! A [`Grid`] divides the space containing all datasets into `2^θ × 2^θ`
//! uniform cells.  Points are mapped to cell coordinates
//! `((x − x₀)/ν, (y − y₀)/µ)` where `(x₀, y₀)` is the bottom-left corner of
//! the space and `ν`/`µ` are the cell width/height, and then to an integer
//! cell ID through the z-order curve.
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

use crate::error::SpatialError;
use crate::mbr::Mbr;
use crate::point::Point;
use crate::zorder::{cell_coords, cell_id, CellId};
use serde::{Deserialize, Serialize};

/// Configuration of a grid: the bounded space plus the resolution θ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// Bottom-left corner of the whole 2-D space.
    pub origin: Point,
    /// Width of the whole space (`w` in the paper).
    pub width: f64,
    /// Height of the whole space (`h` in the paper).
    pub height: f64,
    /// Resolution θ: the grid has `2^θ × 2^θ` cells.
    pub resolution: u32,
}

impl GridConfig {
    /// A grid covering the whole longitude/latitude globe, the configuration
    /// used by the paper's experiments ("if we divide the globe into a
    /// 2^12 × 2^12 grid, each cell's area is about 10 km × 5 km").
    pub fn global(resolution: u32) -> Self {
        Self {
            origin: Point::new(-180.0, -90.0),
            width: 360.0,
            height: 180.0,
            resolution,
        }
    }
}

/// A `2^θ × 2^θ` uniform grid over a bounded space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    config: GridConfig,
    /// Number of cells per dimension (`2^θ`).
    side: u32,
    /// Cell width ν.
    cell_width: f64,
    /// Cell height µ.
    cell_height: f64,
}

impl Grid {
    /// Builds a grid from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::InvalidResolution`] when `θ ∉ [1, 31]` and
    /// [`SpatialError::DegenerateSpace`] when the space has non-positive
    /// width or height.
    pub fn new(config: GridConfig) -> Result<Self, SpatialError> {
        if config.resolution == 0 || config.resolution > 31 {
            return Err(SpatialError::InvalidResolution(config.resolution));
        }
        if config.width <= 0.0 || config.height <= 0.0 {
            return Err(SpatialError::DegenerateSpace {
                width: config.width,
                height: config.height,
            });
        }
        let side = 1u32 << config.resolution;
        Ok(Self {
            config,
            side,
            cell_width: config.width / side as f64,
            cell_height: config.height / side as f64,
        })
    }

    /// A grid over the longitude/latitude globe at resolution θ.
    pub fn global(resolution: u32) -> Result<Self, SpatialError> {
        Self::new(GridConfig::global(resolution))
    }

    /// The grid's configuration.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Resolution θ.
    pub fn resolution(&self) -> u32 {
        self.config.resolution
    }

    /// Number of cells along each dimension (`2^θ`).
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Total number of cells (`4^θ`).
    pub fn cell_count(&self) -> u64 {
        (self.side as u64) * (self.side as u64)
    }

    /// Width ν of each cell.
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// Height µ of each cell.
    pub fn cell_height(&self) -> f64 {
        self.cell_height
    }

    /// Maps a point to its `(X, Y)` cell coordinates, clamping points on the
    /// upper/right border into the last cell so the closed space is fully
    /// covered.
    ///
    /// # Errors
    ///
    /// Returns [`SpatialError::PointOutOfBounds`] for points outside the
    /// bounded space.
    pub fn locate(&self, p: &Point) -> Result<(u32, u32), SpatialError> {
        let ox = self.config.origin.x;
        let oy = self.config.origin.y;
        if !p.is_finite()
            || p.x < ox
            || p.y < oy
            || p.x > ox + self.config.width
            || p.y > oy + self.config.height
        {
            return Err(SpatialError::PointOutOfBounds { x: p.x, y: p.y });
        }
        let cx = ((p.x - ox) / self.cell_width) as u32;
        let cy = ((p.y - oy) / self.cell_height) as u32;
        Ok((cx.min(self.side - 1), cy.min(self.side - 1)))
    }

    /// Maps a point to its z-order cell ID.
    pub fn cell_of(&self, p: &Point) -> Result<CellId, SpatialError> {
        let (x, y) = self.locate(p)?;
        Ok(cell_id(x, y))
    }

    /// Geometric center of a cell, back in the original coordinate space.
    pub fn cell_center(&self, cell: CellId) -> Point {
        let (x, y) = cell_coords(cell);
        Point::new(
            self.config.origin.x + (x as f64 + 0.5) * self.cell_width,
            self.config.origin.y + (y as f64 + 0.5) * self.cell_height,
        )
    }

    /// The MBR (in the original coordinate space) of a cell.
    pub fn cell_mbr(&self, cell: CellId) -> Mbr {
        let (x, y) = cell_coords(cell);
        let min = Point::new(
            self.config.origin.x + x as f64 * self.cell_width,
            self.config.origin.y + y as f64 * self.cell_height,
        );
        let max = Point::new(min.x + self.cell_width, min.y + self.cell_height);
        Mbr::new(min, max)
    }

    /// Converts an MBR in the original coordinate space into an MBR in *cell
    /// coordinate* space (used when mixing sources indexed at different
    /// resolutions through the global index).
    pub fn mbr_to_cell_space(&self, mbr: &Mbr) -> Mbr {
        let lo = self.locate(&mbr.min).unwrap_or((0, 0));
        let hi = self
            .locate(&mbr.max)
            .unwrap_or((self.side - 1, self.side - 1));
        Mbr::new(
            Point::new(lo.0 as f64, lo.1 as f64),
            Point::new(hi.0 as f64, hi.1 as f64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_grid(theta: u32) -> Grid {
        Grid::new(GridConfig {
            origin: Point::new(0.0, 0.0),
            width: 1.0,
            height: 1.0,
            resolution: theta,
        })
        .unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(matches!(
            Grid::new(GridConfig {
                origin: Point::new(0.0, 0.0),
                width: 1.0,
                height: 1.0,
                resolution: 0
            }),
            Err(SpatialError::InvalidResolution(0))
        ));
        assert!(matches!(
            Grid::new(GridConfig {
                origin: Point::new(0.0, 0.0),
                width: 1.0,
                height: 1.0,
                resolution: 32
            }),
            Err(SpatialError::InvalidResolution(32))
        ));
        assert!(matches!(
            Grid::new(GridConfig {
                origin: Point::new(0.0, 0.0),
                width: 0.0,
                height: 1.0,
                resolution: 4
            }),
            Err(SpatialError::DegenerateSpace { .. })
        ));
    }

    #[test]
    fn cell_geometry() {
        let g = unit_grid(2); // 4x4 cells of 0.25 x 0.25
        assert_eq!(g.side(), 4);
        assert_eq!(g.cell_count(), 16);
        assert_eq!(g.cell_width(), 0.25);
        assert_eq!(g.cell_height(), 0.25);
        assert_eq!(g.locate(&Point::new(0.1, 0.1)).unwrap(), (0, 0));
        assert_eq!(g.locate(&Point::new(0.9, 0.1)).unwrap(), (3, 0));
        // Upper border clamps into the last cell.
        assert_eq!(g.locate(&Point::new(1.0, 1.0)).unwrap(), (3, 3));
        assert!(g.locate(&Point::new(1.01, 0.5)).is_err());
        assert!(g.locate(&Point::new(f64::NAN, 0.5)).is_err());
    }

    #[test]
    fn cell_of_matches_fig2_numbering() {
        let g = unit_grid(2);
        // Bottom-left cell id 0, its right neighbour id 1, the cell above id 2.
        assert_eq!(g.cell_of(&Point::new(0.05, 0.05)).unwrap(), 0);
        assert_eq!(g.cell_of(&Point::new(0.30, 0.05)).unwrap(), 1);
        assert_eq!(g.cell_of(&Point::new(0.05, 0.30)).unwrap(), 2);
        assert_eq!(g.cell_of(&Point::new(0.30, 0.30)).unwrap(), 3);
    }

    #[test]
    fn cell_center_and_mbr_are_consistent() {
        let g = unit_grid(3);
        for id in 0..g.cell_count() {
            let c = g.cell_center(id);
            let m = g.cell_mbr(id);
            assert!(m.contains_point(&c));
            assert_eq!(g.cell_of(&c).unwrap(), id);
        }
    }

    #[test]
    fn global_grid_covers_the_planet() {
        let g = Grid::global(12).unwrap();
        assert!(g.cell_of(&Point::new(-179.9, -89.9)).is_ok());
        assert!(g.cell_of(&Point::new(179.9, 89.9)).is_ok());
        assert!(g.cell_of(&Point::new(116.36422, 39.88781)).is_ok());
        // The paper's sizing argument: at θ=12 each cell is < 0.1 degrees.
        assert!(g.cell_width() < 0.1);
    }

    #[test]
    fn mbr_to_cell_space_covers_located_cells() {
        let g = unit_grid(4);
        let m = Mbr::new(Point::new(0.1, 0.2), Point::new(0.6, 0.7));
        let cm = g.mbr_to_cell_space(&m);
        let (lo_x, lo_y) = g.locate(&m.min).unwrap();
        let (hi_x, hi_y) = g.locate(&m.max).unwrap();
        assert_eq!(cm.min, Point::new(lo_x as f64, lo_y as f64));
        assert_eq!(cm.max, Point::new(hi_x as f64, hi_y as f64));
    }

    proptest! {
        #[test]
        fn prop_points_map_inside_grid(x in 0.0f64..1.0, y in 0.0f64..1.0, theta in 1u32..10) {
            let g = unit_grid(theta);
            let (cx, cy) = g.locate(&Point::new(x, y)).unwrap();
            prop_assert!(cx < g.side());
            prop_assert!(cy < g.side());
            // The point lies inside the MBR of the cell it maps to.
            let id = g.cell_of(&Point::new(x, y)).unwrap();
            prop_assert!(g.cell_mbr(id).contains_point(&Point::new(x, y)));
        }

        #[test]
        fn prop_finer_grids_nest(x in 0.0f64..1.0, y in 0.0f64..1.0, theta in 1u32..9) {
            // The cell at resolution θ is a parent of the cell at θ+1.
            let coarse = unit_grid(theta);
            let fine = unit_grid(theta + 1);
            let (cx, cy) = coarse.locate(&Point::new(x, y)).unwrap();
            let (fx, fy) = fine.locate(&Point::new(x, y)).unwrap();
            prop_assert_eq!(fx / 2, cx);
            prop_assert_eq!(fy / 2, cy);
        }
    }
}
