//! Floorplans: collections of material-tagged wall segments.
//!
//! A [`Floorplan`] is the static environment the ray tracer queries. Builder
//! helpers construct rectangular rooms and corridors so the testbed crate can
//! assemble the paper's Fig. 6 deployment readably.

use crate::geometry::{Point, Segment};
use crate::materials::Material;

/// A wall: a segment plus its material.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Wall {
    /// The wall geometry.
    pub segment: Segment,
    /// The wall material (losses and reflectivity).
    pub material: Material,
}

impl Wall {
    /// Creates a wall.
    pub fn new(a: Point, b: Point, material: Material) -> Self {
        Wall {
            segment: Segment::new(a, b),
            material,
        }
    }
}

/// A 2-D floorplan: the set of walls the ray tracer interacts with.
///
/// ```
/// use spotfi_channel::materials::Material;
/// use spotfi_channel::{Floorplan, Point};
///
/// let mut plan = Floorplan::empty();
/// plan.add_rect(0.0, 0.0, 10.0, 8.0, Material::CONCRETE);
/// plan.add_wall(Point::new(5.0, 0.0), Point::new(5.0, 5.0), Material::DRYWALL);
///
/// // The divider blocks line of sight between the two halves…
/// assert!(!plan.line_of_sight(Point::new(2.0, 2.0), Point::new(8.0, 2.0)));
/// // …but not over its open end.
/// assert!(plan.line_of_sight(Point::new(2.0, 7.0), Point::new(8.0, 7.0)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Floorplan {
    walls: Vec<Wall>,
}

impl Floorplan {
    /// An empty floorplan (free space).
    pub fn empty() -> Self {
        Floorplan { walls: Vec::new() }
    }

    /// Creates a floorplan from a list of walls.
    pub fn new(walls: Vec<Wall>) -> Self {
        Floorplan { walls }
    }

    /// Adds a wall.
    pub fn add_wall(&mut self, a: Point, b: Point, material: Material) -> &mut Self {
        self.walls.push(Wall::new(a, b, material));
        self
    }

    /// Adds the four walls of an axis-aligned rectangle with corners
    /// `(x0, y0)` and `(x1, y1)`.
    pub fn add_rect(
        &mut self,
        x0: f64,
        y0: f64,
        x1: f64,
        y1: f64,
        material: Material,
    ) -> &mut Self {
        let (xa, xb) = (x0.min(x1), x0.max(x1));
        let (ya, yb) = (y0.min(y1), y0.max(y1));
        self.add_wall(Point::new(xa, ya), Point::new(xb, ya), material);
        self.add_wall(Point::new(xb, ya), Point::new(xb, yb), material);
        self.add_wall(Point::new(xb, yb), Point::new(xa, yb), material);
        self.add_wall(Point::new(xa, yb), Point::new(xa, ya), material);
        self
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Number of walls.
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// `true` if the floorplan has no walls.
    pub fn is_empty(&self) -> bool {
        self.walls.is_empty()
    }

    /// Walls whose interior is crossed by the open segment `from → to`,
    /// excluding wall index `skip` (used when a ray legitimately *ends* on a
    /// wall, at a reflection point).
    pub fn walls_crossed(
        &self,
        from: Point,
        to: Point,
        skip: Option<usize>,
    ) -> impl Iterator<Item = (usize, &Wall)> {
        let ray = Segment::new(from, to);
        self.walls
            .iter()
            .enumerate()
            .filter(move |(i, w)| Some(*i) != skip && ray.crosses_interior(w.segment))
    }

    /// `true` if `from → to` crosses no wall interior — i.e. the two points
    /// are in line of sight.
    pub fn line_of_sight(&self, from: Point, to: Point) -> bool {
        self.walls_crossed(from, to, None).next().is_none()
    }

    /// Axis-aligned bounding box of all walls as
    /// `(min corner, max corner)`, or `None` for an empty floorplan. Used
    /// by localizers to constrain the search to the building.
    pub fn bounding_box(&self) -> Option<(Point, Point)> {
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for w in &self.walls {
            for p in [w.segment.a, w.segment.b] {
                min.x = min.x.min(p.x);
                min.y = min.y.min(p.y);
                max.x = max.x.max(p.x);
                max.y = max.y.max(p.y);
            }
        }
        if min.x.is_finite() {
            Some((min, max))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_floorplan_is_free_space() {
        let f = Floorplan::empty();
        assert!(f.is_empty());
        assert!(f.line_of_sight(Point::new(0.0, 0.0), Point::new(100.0, 50.0)));
    }

    #[test]
    fn wall_blocks_los() {
        let mut f = Floorplan::empty();
        f.add_wall(
            Point::new(1.0, -1.0),
            Point::new(1.0, 1.0),
            Material::CONCRETE,
        );
        assert!(!f.line_of_sight(Point::new(0.0, 0.0), Point::new(2.0, 0.0)));
        assert!(f.line_of_sight(Point::new(0.0, 0.0), Point::new(0.5, 0.0)));
        // Passing over the wall's end does not cross it.
        assert!(f.line_of_sight(Point::new(0.0, 2.0), Point::new(2.0, 2.0)));
    }

    #[test]
    fn rect_builder_produces_four_walls() {
        let mut f = Floorplan::empty();
        f.add_rect(0.0, 0.0, 4.0, 3.0, Material::DRYWALL);
        assert_eq!(f.len(), 4);
        // Inside → outside crosses exactly one wall.
        let crossed: Vec<_> = f
            .walls_crossed(Point::new(2.0, 1.5), Point::new(2.0, 10.0), None)
            .collect();
        assert_eq!(crossed.len(), 1);
    }

    #[test]
    fn skip_excludes_reflecting_wall() {
        let mut f = Floorplan::empty();
        f.add_wall(
            Point::new(1.0, -1.0),
            Point::new(1.0, 1.0),
            Material::CONCRETE,
        );
        // A ray ending near the wall still doesn't "cross" it; but one
        // passing through is excluded when skipped.
        let n = f
            .walls_crossed(Point::new(0.0, 0.0), Point::new(2.0, 0.0), Some(0))
            .count();
        assert_eq!(n, 0);
    }
}
