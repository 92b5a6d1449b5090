//! Minimum bounding rectangles.
//!
//! Every node of DITS, of the R-tree baseline and of the global index carries
//! an MBR (`rect` in Definition 12): the smallest axis-parallel rectangle
//! enclosing a set of points.  The branch-and-bound search of Algorithm 2
//! prunes subtrees whose MBR does not intersect the query MBR, so
//! intersection / containment / distance primitives live here.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned minimum bounding rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mbr {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Mbr {
    /// Creates an MBR from two corner points, normalising the corner order.
    pub fn new(a: Point, b: Point) -> Self {
        Self {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// Creates a degenerate MBR containing a single point.
    pub fn from_point(p: Point) -> Self {
        Self { min: p, max: p }
    }

    /// Builds the MBR of a non-empty point iterator. Returns `None` when the
    /// iterator is empty.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut mbr = Mbr::from_point(first);
        for p in it {
            mbr.expand_point(&p);
        }
        Some(mbr)
    }

    /// Width of the rectangle along the x axis.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle along the y axis.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Extent along dimension `d` (0 = x, 1 = y).
    pub fn extent(&self, d: usize) -> f64 {
        match d {
            0 => self.width(),
            _ => self.height(),
        }
    }

    /// Area of the rectangle.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// The pivot of the MBR: the average of the lower-left and upper-right
    /// corners (Definition 12).
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Radius of the node: half of the farthest diagonal distance
    /// (Definition 12).
    pub fn radius(&self) -> f64 {
        self.min.distance(&self.max) / 2.0
    }

    /// Returns `true` when the two rectangles intersect (closed rectangles —
    /// touching borders count as intersecting, matching the paper's use of
    /// `N.rect ∩ N_Q.rect ≠ ∅`).
    pub fn intersects(&self, other: &Mbr) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Intersection of two MBRs, or `None` when they are disjoint.
    pub fn intersection(&self, other: &Mbr) -> Option<Mbr> {
        if !self.intersects(other) {
            return None;
        }
        Some(Mbr {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        })
    }

    /// Smallest MBR containing both rectangles.
    pub fn union(&self, other: &Mbr) -> Mbr {
        Mbr {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Grows the rectangle to include `p`.
    pub fn expand_point(&mut self, p: &Point) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Returns `true` when `p` lies inside the rectangle (borders included).
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when `other` is completely contained in `self`.
    pub fn contains(&self, other: &Mbr) -> bool {
        self.contains_point(&other.min) && self.contains_point(&other.max)
    }

    /// Minimum Euclidean distance between two rectangles (0 when they
    /// intersect).
    pub fn min_distance(&self, other: &Mbr) -> f64 {
        self.min_distance_squared(other).sqrt()
    }

    /// The square of [`Self::min_distance`], summed from the per-axis gaps
    /// before any root is taken: on integer coordinates a cell pair's
    /// squared distance computed the same way is never below it.
    pub fn min_distance_squared(&self, other: &Mbr) -> f64 {
        let dx = (self.min.x - other.max.x)
            .max(0.0)
            .max(other.min.x - self.max.x);
        let dy = (self.min.y - other.max.y)
            .max(0.0)
            .max(other.min.y - self.max.y);
        dx * dx + dy * dy
    }

    /// The increase in area needed to include `other` (used by the R-tree
    /// baseline's insertion heuristic).
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).area() - self.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbr(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalises_corners() {
        let m = Mbr::new(Point::new(3.0, 1.0), Point::new(1.0, 5.0));
        assert_eq!(m.min, Point::new(1.0, 1.0));
        assert_eq!(m.max, Point::new(3.0, 5.0));
    }

    #[test]
    fn from_points_builds_tight_box() {
        let pts = vec![
            Point::new(2.0, 3.0),
            Point::new(-1.0, 7.0),
            Point::new(4.0, 0.5),
        ];
        let m = Mbr::from_points(pts).unwrap();
        assert_eq!(m.min, Point::new(-1.0, 0.5));
        assert_eq!(m.max, Point::new(4.0, 7.0));
        assert!(Mbr::from_points(Vec::new()).is_none());
    }

    #[test]
    fn geometry_accessors() {
        let m = mbr(0.0, 0.0, 4.0, 2.0);
        assert_eq!(m.width(), 4.0);
        assert_eq!(m.height(), 2.0);
        assert_eq!(m.extent(0), 4.0);
        assert_eq!(m.extent(1), 2.0);
        assert_eq!(m.area(), 8.0);
        assert_eq!(m.center(), Point::new(2.0, 1.0));
        assert!((m.radius() - (20.0f64).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_and_union() {
        let a = mbr(0.0, 0.0, 4.0, 4.0);
        let b = mbr(2.0, 2.0, 6.0, 6.0);
        let c = mbr(5.0, 5.0, 7.0, 7.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b).unwrap(), mbr(2.0, 2.0, 4.0, 4.0));
        assert!(a.intersection(&c).is_none());
        assert_eq!(a.union(&c), mbr(0.0, 0.0, 7.0, 7.0));
    }

    #[test]
    fn touching_borders_intersect() {
        let a = mbr(0.0, 0.0, 1.0, 1.0);
        let b = mbr(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b).unwrap().area(), 0.0);
    }

    #[test]
    fn containment() {
        let outer = mbr(0.0, 0.0, 10.0, 10.0);
        let inner = mbr(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains_point(&Point::new(10.0, 10.0)));
        assert!(!outer.contains_point(&Point::new(10.1, 10.0)));
    }

    #[test]
    fn min_distances() {
        let a = mbr(0.0, 0.0, 1.0, 1.0);
        let b = mbr(4.0, 5.0, 6.0, 7.0);
        // dx = 3, dy = 4 -> distance 5
        assert_eq!(a.min_distance(&b), 5.0);
        assert_eq!(a.min_distance(&a), 0.0);
    }

    #[test]
    fn expand_and_enlargement() {
        let mut m = mbr(0.0, 0.0, 1.0, 1.0);
        m.expand_point(&Point::new(2.0, -1.0));
        assert_eq!(m, mbr(0.0, -1.0, 2.0, 1.0));
        let base = mbr(0.0, 0.0, 2.0, 2.0);
        let other = mbr(3.0, 0.0, 4.0, 2.0);
        // union is 4x2=8, base is 4 -> enlargement 4
        assert_eq!(base.enlargement(&other), 4.0);
        assert_eq!(base.enlargement(&mbr(0.5, 0.5, 1.0, 1.0)), 0.0);
    }
}
