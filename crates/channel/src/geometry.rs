//! 2-D geometric primitives for the floorplan ray tracer.
//!
//! The simulator works in a flat 2-D world (the paper's evaluation is also
//! planar: APs and targets share a floor). [`Point`]/[`Vec2`] are plain
//! Cartesian coordinates in meters; [`Segment`] represents a wall and knows
//! how to intersect with rays and mirror points for the image method.

use std::ops::{Add, Mul, Neg, Sub};

/// A point in the floorplan, meters.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// X coordinate, meters.
    pub x: f64,
    /// Y coordinate, meters.
    pub y: f64,
}

/// A 2-D vector, meters.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Vec2 {
    /// X component, meters.
    pub x: f64,
    /// Y component, meters.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        (self - other).length()
    }

    /// Midpoint between two points.
    pub fn midpoint(self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }
}

impl Vec2 {
    /// Creates a vector.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at angle `theta` (radians, CCW from +x).
    pub fn from_angle(theta: f64) -> Self {
        Vec2::new(theta.cos(), theta.sin())
    }

    /// Euclidean length.
    pub fn length(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z component).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit-length copy; returns `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec2> {
        let l = self.length();
        if l < 1e-12 {
            None
        } else {
            Some(Vec2::new(self.x / l, self.y / l))
        }
    }

    /// Rotated 90° counter-clockwise.
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Angle of the vector, radians in `(-π, π]`.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl Sub for Point {
    type Output = Vec2;
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A wall segment between two endpoints.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    pub fn length(self) -> f64 {
        self.a.distance(self.b)
    }

    /// Unit direction `a → b` (`None` for degenerate segments).
    pub fn direction(self) -> Option<Vec2> {
        (self.b - self.a).normalized()
    }

    /// Intersection of two segments as parameters `(t, u)` with the hit at
    /// `self.a + t·(self.b − self.a)`, both in `[0, 1]`. Returns `None` for
    /// parallel or non-crossing segments.
    pub fn intersect_params(self, other: Segment) -> Option<(f64, f64)> {
        let r = self.b - self.a;
        let s = other.b - other.a;
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None; // Parallel (collinear overlap treated as no hit).
        }
        let qp = other.a - self.a;
        let t = qp.cross(s) / denom;
        let u = qp.cross(r) / denom;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some((t, u))
        } else {
            None
        }
    }

    /// `true` if the open interior of `self` crosses `other` — endpoints
    /// touching don't count. Used for wall-crossing tests so a ray that ends
    /// exactly on a wall (a reflection point) is not double-counted.
    pub fn crosses_interior(self, other: Segment) -> bool {
        match self.intersect_params(other) {
            Some((t, u)) => t > 1e-9 && t < 1.0 - 1e-9 && u > -1e-9 && u < 1.0 + 1e-9,
            None => false,
        }
    }

    /// Mirror image of a point across the infinite line through this
    /// segment — the core operation of the image method for specular
    /// reflections.
    pub fn mirror(self, p: Point) -> Point {
        self.mirror_along(self.direction(), p)
    }

    /// [`Segment::mirror`] given the segment's [`Segment::direction`], for
    /// callers that mirror many points across one wall.
    pub(crate) fn mirror_along(self, direction: Option<Vec2>, p: Point) -> Point {
        let d = match direction {
            Some(d) => d,
            None => return p, // Degenerate wall: mirroring is identity.
        };
        let ap = p - self.a;
        // Component of ap perpendicular to the wall, doubled and removed.
        let along = d * ap.dot(d);
        let perp = ap - along;
        p - perp * 2.0
    }

    /// Normal direction of the wall (unit, CCW-perpendicular to `a → b`).
    pub fn normal(self) -> Option<Vec2> {
        self.direction().map(Vec2::perp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_basics() {
        let v = Vec2::new(3.0, 4.0);
        assert_eq!(v.length(), 5.0);
        assert_eq!(v.dot(Vec2::new(1.0, 0.0)), 3.0);
        assert_eq!(v.cross(Vec2::new(1.0, 0.0)), -4.0);
        let n = v.normalized().unwrap();
        assert!((n.length() - 1.0).abs() < 1e-15);
        assert!(Vec2::new(0.0, 0.0).normalized().is_none());
    }

    #[test]
    fn perp_is_ccw() {
        let v = Vec2::new(1.0, 0.0).perp();
        assert!((v.x - 0.0).abs() < 1e-15 && (v.y - 1.0).abs() < 1e-15);
    }

    #[test]
    fn point_arithmetic() {
        let p = Point::new(1.0, 2.0);
        let q = p + Vec2::new(3.0, -1.0);
        assert_eq!(q, Point::new(4.0, 1.0));
        assert_eq!(q - p, Vec2::new(3.0, -1.0));
        assert!((p.distance(q) - 10.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(p.midpoint(q), Point::new(2.5, 1.5));
    }

    #[test]
    fn segments_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        let (t, u) = s1.intersect_params(s2).unwrap();
        assert!((t - 0.5).abs() < 1e-12 && (u - 0.5).abs() < 1e-12);
        let p = s1.a + (s1.b - s1.a) * t;
        assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segments_miss() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(1.0, 1.0));
        assert!(s1.intersect_params(s2).is_none(), "parallel");
        let s3 = Segment::new(Point::new(3.0, -1.0), Point::new(3.0, 1.0));
        assert!(s1.intersect_params(s3).is_none(), "out of range");
    }

    #[test]
    fn crosses_interior_excludes_endpoints() {
        let wall = Segment::new(Point::new(0.0, -1.0), Point::new(0.0, 1.0));
        // Ray ending exactly on the wall: not an interior crossing.
        let touching = Segment::new(Point::new(-1.0, 0.0), Point::new(0.0, 0.0));
        assert!(!touching.crosses_interior(wall));
        // Ray passing through: interior crossing.
        let through = Segment::new(Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert!(through.crosses_interior(wall));
    }

    #[test]
    fn mirror_across_vertical_wall() {
        let wall = Segment::new(Point::new(0.0, 0.0), Point::new(0.0, 5.0));
        let m = wall.mirror(Point::new(2.0, 1.0));
        assert!((m.x + 2.0).abs() < 1e-12);
        assert!((m.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_across_diagonal_wall() {
        let wall = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let m = wall.mirror(Point::new(1.0, 0.0));
        assert!((m.x - 0.0).abs() < 1e-12);
        assert!((m.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mirror_is_involution() {
        let wall = Segment::new(Point::new(-1.0, 2.0), Point::new(3.0, 7.0));
        let p = Point::new(4.2, -1.3);
        let mm = wall.mirror(wall.mirror(p));
        assert!((mm.x - p.x).abs() < 1e-12 && (mm.y - p.y).abs() < 1e-12);
    }

    #[test]
    fn mirror_preserves_points_on_wall() {
        let wall = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let on = Point::new(1.0, 0.5);
        let m = wall.mirror(on);
        assert!((m.x - on.x).abs() < 1e-12 && (m.y - on.y).abs() < 1e-12);
    }

    #[test]
    fn from_angle_unit() {
        let v = Vec2::from_angle(std::f64::consts::FRAC_PI_3);
        assert!((v.length() - 1.0).abs() < 1e-15);
        assert!((v.angle() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
    }
}
