//! Spatial substrate for joinable spatial dataset search.
//!
//! This crate implements the data model of the paper *"Joinable Search over
//! Multi-source Spatial Datasets: Overlap, Coverage, and Efficiency"*:
//!
//! * [`Point`] — a longitude/latitude pair (Definition 1).
//! * [`SpatialDataset`] — a set of points (Definition 2).
//! * [`Mbr`] — minimum bounding rectangles used by every index node.
//! * [`Grid`] — the `2^θ × 2^θ` uniform grid partition of a bounded space
//!   (Definition 4) together with the z-order curve ([`zorder`]) that maps
//!   cell coordinates to integer cell IDs.
//! * [`CellSet`] — the cell-based representation of a dataset
//!   (Definition 5), with fast intersection / union-size primitives used by
//!   both the overlap (OJSP) and the coverage (CJSP) joinable search.
//! * [`connectivity`] — the directly / indirectly connected relations and the
//!   spatial-connectivity predicate over collections of cell sets
//!   (Definitions 6–9).
//!
//! Everything downstream (the DITS index, the baselines, the multi-source
//! framework) is built exclusively on this vocabulary.

#![warn(missing_docs)]

pub mod cellset;
pub mod connectivity;
pub mod dataset;
pub mod distance;
pub mod error;
pub mod grid;
pub mod mbr;
pub mod point;
pub mod zorder;

pub use cellset::CellSet;
pub use connectivity::{is_directly_connected, satisfies_spatial_connectivity};
pub use dataset::{DatasetId, SourceId, SourceStats, SpatialDataset};
pub use distance::{dataset_distance, dataset_distance_within, NeighborProbe};
pub use error::SpatialError;
pub use grid::{Grid, GridConfig};
pub use mbr::Mbr;
pub use point::Point;
pub use zorder::{cell_coords, cell_id, CellId};
