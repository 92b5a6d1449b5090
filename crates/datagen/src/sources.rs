//! Profiles of the five data sources of Table I.
//!
//! Each profile records the portal's name, the number of datasets, the total
//! number of points, the coordinate extent and a qualitative clustering
//! profile derived from the Fig. 7 heatmaps (how many hotspots the datasets
//! concentrate around).  The generator scales the raw counts down by a
//! [`SourceScale`] factor so the full parameter sweeps finish in minutes on
//! one machine while preserving the relative sizes of the five sources.

use serde::{Deserialize, Serialize};
use spatial::{Mbr, Point};

/// How much to shrink the paper's dataset counts for local experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SourceScale {
    /// Full Table I sizes (6 581 + 3 204 + 1 093 + 1 967 + 5 453 datasets).
    Full,
    /// One tenth of the datasets and points — the generator's default.
    Tenth,
    /// One fiftieth — used by the unit/integration tests.
    Fiftieth,
    /// A custom divisor.
    Custom(u32),
}

impl SourceScale {
    /// The divisor applied to dataset and point counts.
    pub fn divisor(&self) -> u32 {
        match self {
            SourceScale::Full => 1,
            SourceScale::Tenth => 10,
            SourceScale::Fiftieth => 50,
            SourceScale::Custom(d) => (*d).max(1),
        }
    }
}

/// The statistical profile of one data source (one row of Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceProfile {
    /// Portal name as used in the paper ("Baidu-dataset", …).
    pub name: &'static str,
    /// Number of datasets in the portal (Table I).
    pub dataset_count: usize,
    /// Total number of points across all datasets (Table I).
    pub point_count: usize,
    /// Coordinate extent `[(lon_min, lat_min), (lon_max, lat_max)]`.
    pub extent: Mbr,
    /// Number of dense hotspots in the Fig. 7 heatmap (cities / regions the
    /// datasets cluster around).
    pub hotspots: usize,
    /// Fraction of datasets that are route-like (ordered point sequences,
    /// e.g. transit lines) rather than diffuse point clouds.
    pub route_fraction: f64,
}

impl SourceProfile {
    /// Number of datasets after applying a scale factor (at least 1).
    pub fn scaled_dataset_count(&self, scale: SourceScale) -> usize {
        (self.dataset_count / scale.divisor() as usize).max(1)
    }

    /// Average number of points per dataset (scale-independent).
    pub fn mean_points_per_dataset(&self) -> usize {
        (self.point_count / self.dataset_count).max(1)
    }
}

/// The five data-source profiles of Table I, in the paper's order.
pub fn paper_sources() -> Vec<SourceProfile> {
    vec![
        SourceProfile {
            name: "Baidu-dataset",
            dataset_count: 6_581,
            point_count: 3_710_526,
            extent: Mbr::new(Point::new(87.52, 19.98), Point::new(127.15, 46.35)),
            hotspots: 28, // 28 Chinese cities
            route_fraction: 0.2,
        },
        SourceProfile {
            name: "BTAA-dataset",
            dataset_count: 3_204,
            point_count: 96_788_280,
            extent: Mbr::new(Point::new(-179.77, -87.70), Point::new(179.99, 71.40)),
            hotspots: 12, // mid-western US states
            route_fraction: 0.3,
        },
        SourceProfile {
            name: "NYU-dataset",
            dataset_count: 1_093,
            point_count: 15_303_410,
            extent: Mbr::new(Point::new(-138.00, -74.02), Point::new(56.65, 83.15)),
            hotspots: 8,
            route_fraction: 0.25,
        },
        SourceProfile {
            name: "Transit-dataset",
            dataset_count: 1_967,
            point_count: 522_461,
            extent: Mbr::new(Point::new(-77.73, 36.81), Point::new(-74.53, 39.78)),
            hotspots: 4, // D.C., Baltimore, Annapolis, Wilmington corridors
            route_fraction: 0.85,
        },
        SourceProfile {
            name: "UMN-dataset",
            dataset_count: 5_453,
            point_count: 54_417_609,
            extent: Mbr::new(Point::new(-179.24, -14.92), Point::new(179.77, 71.58)),
            hotspots: 10,
            route_fraction: 0.3,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_sources_match_table1_counts() {
        let sources = paper_sources();
        assert_eq!(sources.len(), 5);
        let names: Vec<&str> = sources.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "Baidu-dataset",
                "BTAA-dataset",
                "NYU-dataset",
                "Transit-dataset",
                "UMN-dataset"
            ]
        );
        let total_datasets: usize = sources.iter().map(|s| s.dataset_count).sum();
        assert_eq!(total_datasets, 6_581 + 3_204 + 1_093 + 1_967 + 5_453);
        for s in &sources {
            assert!(s.extent.area() > 0.0);
            assert!(s.hotspots > 0);
            assert!((0.0..=1.0).contains(&s.route_fraction));
        }
    }

    #[test]
    fn scaling_preserves_at_least_one_dataset() {
        for s in paper_sources() {
            assert!(s.scaled_dataset_count(SourceScale::Full) == s.dataset_count);
            assert!(s.scaled_dataset_count(SourceScale::Fiftieth) >= 1);
            assert!(
                s.scaled_dataset_count(SourceScale::Tenth)
                    <= s.scaled_dataset_count(SourceScale::Full)
            );
            assert_eq!(
                s.scaled_dataset_count(SourceScale::Custom(0)),
                s.dataset_count
            );
        }
    }

    #[test]
    fn transit_is_route_dominated_and_regional() {
        let sources = paper_sources();
        let transit = &sources[3];
        assert!(transit.route_fraction > 0.5);
        // Transit covers a small region (Maryland + D.C.), unlike BTAA/UMN.
        assert!(transit.extent.width() < 10.0);
        let btaa = &sources[1];
        assert!(btaa.extent.width() > 300.0);
    }

    #[test]
    fn mean_points_per_dataset_is_sane() {
        for s in paper_sources() {
            let m = s.mean_points_per_dataset();
            assert!(m >= 1);
            assert!(m <= s.point_count);
        }
    }
}
