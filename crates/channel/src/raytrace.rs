//! Multipath enumeration with the image method.
//!
//! Given a floorplan, a target, and an AP array, [`trace_paths`] enumerates
//! the significant propagation paths:
//!
//! * the **direct path**, attenuated by every wall it penetrates;
//! * **first-order specular reflections**: for each wall, mirror the target
//!   across the wall's line and check the mirror ray actually hits the wall
//!   segment;
//! * **second-order reflections** (optional): mirror across ordered wall
//!   pairs.
//!
//! Each path carries length, ToF, AoA at the array, a linear amplitude (Friis
//! spreading × reflection/transmission losses) and an interaction phase.
//! Paths below a relative amplitude floor are dropped and the list is capped,
//! reproducing the paper's "4–8 significant paths indoors".

use crate::array::AntennaArray;
use crate::constants::SPEED_OF_LIGHT;
use crate::floorplan::{Floorplan, Wall};
use crate::geometry::{Point, Segment, Vec2};
use crate::propagation::friis_amplitude;

/// How a path got from the target to the AP.
#[derive(Clone, Debug, PartialEq)]
pub enum PathKind {
    /// Straight line (possibly through walls).
    Direct,
    /// Specular reflection off the listed wall indices, in bounce order.
    Reflected {
        /// Floorplan wall indices, in bounce order.
        walls: Vec<usize>,
    },
    /// A weak component of the diffuse scattering field (see
    /// [`crate::diffuse`]).
    Diffuse,
}

impl PathKind {
    /// Number of interactions (0 for the direct path; diffuse components
    /// count as high-order — they are the most motion-sensitive).
    pub fn order(&self) -> usize {
        match self {
            PathKind::Direct => 0,
            PathKind::Reflected { walls } => walls.len(),
            PathKind::Diffuse => 3,
        }
    }
}

/// One propagation path from target to AP.
#[derive(Clone, Debug)]
pub struct Path {
    /// Direct or reflected.
    pub kind: PathKind,
    /// Total geometric length, meters.
    pub length_m: f64,
    /// Time of flight, seconds (`length / c`).
    pub tof_s: f64,
    /// Effective `sin θ` at the AP array (see [`AntennaArray`]).
    pub sin_aoa: f64,
    /// Front-hemisphere AoA, radians in `[−π/2, π/2]`.
    pub aoa_rad: f64,
    /// Linear amplitude: Friis spreading × material losses.
    pub amplitude: f64,
    /// Phase accumulated from material interactions (radians); the
    /// carrier-frequency ToF phase is applied separately during CSI
    /// synthesis.
    pub phase: f64,
    /// Waypoints target → (bounces…) → AP, for debugging and plots.
    pub vertices: Vec<Point>,
}

impl Path {
    /// AoA in degrees.
    pub fn aoa_deg(&self) -> f64 {
        self.aoa_rad.to_degrees()
    }

    /// ToF in nanoseconds.
    pub fn tof_ns(&self) -> f64 {
        self.tof_s * 1e9
    }
}

/// Ray-tracing configuration.
#[derive(Clone, Copy, Debug)]
pub struct RaytraceConfig {
    /// Maximum reflection order (0 = direct only, 1 = single bounce,
    /// 2 = double bounce).
    pub max_reflection_order: usize,
    /// Paths weaker than this fraction of the strongest path's amplitude
    /// are dropped.
    pub min_relative_amplitude: f64,
    /// Hard cap on the number of returned paths (strongest kept).
    pub max_paths: usize,
    /// Wavelength for the Friis spreading factor, meters.
    pub wavelength_m: f64,
}

impl RaytraceConfig {
    /// Defaults matching the paper's environment: up to second-order
    /// bounces, ≤ 8 significant paths.
    pub fn default_for_wavelength(wavelength_m: f64) -> Self {
        RaytraceConfig {
            max_reflection_order: 2,
            min_relative_amplitude: 0.03,
            max_paths: 8,
            wavelength_m,
        }
    }
}

/// Phase flip applied per specular reflection (ideal conductor
/// approximation).
const REFLECTION_PHASE: f64 = std::f64::consts::PI;

/// Enumerates propagation paths from `target` to the array of `ap`.
///
/// Paths are returned sorted by descending amplitude. The direct path is
/// included even when heavily obstructed, as long as it clears the relative
/// amplitude floor; in deep-NLoS geometries it may be dropped entirely —
/// exactly the failure mode SpotFi's likelihood metric must survive.
pub fn trace_paths(
    plan: &Floorplan,
    target: Point,
    ap: &AntennaArray,
    cfg: &RaytraceConfig,
) -> Vec<Path> {
    let walls: Vec<TraceWall> = plan
        .walls()
        .iter()
        .map(|w| TraceWall::new(w, target))
        .collect();
    let mut paths = Vec::new();

    if let Some(p) = direct_path(&walls, target, ap, cfg) {
        paths.push(p);
    }
    if cfg.max_reflection_order >= 1 {
        for i in 0..walls.len() {
            if let Some(p) = first_order_path(&walls, target, ap, i, cfg) {
                paths.push(p);
            }
        }
    }
    if cfg.max_reflection_order >= 2 {
        for i in 0..walls.len() {
            for j in 0..walls.len() {
                if i == j {
                    continue;
                }
                if let Some(p) = second_order_path(&walls, target, ap, i, j, cfg) {
                    paths.push(p);
                }
            }
        }
    }

    paths.sort_by(|a, b| b.amplitude.partial_cmp(&a.amplitude).unwrap());
    if let Some(strongest) = paths.first().map(|p| p.amplitude) {
        let floor = strongest * cfg.min_relative_amplitude;
        paths.retain(|p| p.amplitude >= floor);
    }
    paths.truncate(cfg.max_paths);
    paths
}

/// One wall's constants for one trace, computed once instead of for every
/// wall pair and every crossing: its unit direction, its amplitude
/// reflection and transmission factors, and the target's image across it.
struct TraceWall {
    segment: Segment,
    /// Unit direction `a → b`, `None` for a degenerate wall.
    direction: Option<Vec2>,
    /// [`crate::materials::Material::amplitude_reflection`].
    reflection: f64,
    /// [`crate::materials::Material::amplitude_transmission`].
    transmission: f64,
    /// The target mirrored across the wall's line.
    target_image: Point,
}

impl TraceWall {
    fn new(wall: &Wall, target: Point) -> Self {
        let direction = wall.segment.direction();
        TraceWall {
            segment: wall.segment,
            direction,
            reflection: wall.material.amplitude_reflection(),
            transmission: wall.material.amplitude_transmission(),
            target_image: wall.segment.mirror_along(direction, target),
        }
    }

    /// Mirror image of `p` across the wall's line.
    fn mirror(&self, p: Point) -> Point {
        self.segment.mirror_along(self.direction, p)
    }
}

/// Combined one-way amplitude transmission factor of the walls the open
/// segment `from → to` crosses, skipping the walls it bounces between (1 in
/// free space, the product of the crossed walls' factors otherwise).
fn transmission(walls: &[TraceWall], from: Point, to: Point, skip: [Option<usize>; 2]) -> f64 {
    let ray = Segment::new(from, to);
    walls
        .iter()
        .enumerate()
        .filter(|(i, w)| !skip.contains(&Some(*i)) && ray.crosses_interior(w.segment))
        .map(|(_, w)| w.transmission)
        .product()
}

fn finish_path(
    plan_ap: &AntennaArray,
    kind: PathKind,
    vertices: Vec<Point>,
    amplitude: f64,
    phase: f64,
    cfg: &RaytraceConfig,
) -> Option<Path> {
    let length_m: f64 = vertices.windows(2).map(|w| w[0].distance(w[1])).sum();
    if length_m < 1e-6 {
        return None; // Target collocated with the AP.
    }
    let last_leg = *vertices.last().unwrap() - vertices[vertices.len() - 2];
    let incoming = last_leg.normalized()?;
    let sin_aoa = plan_ap.effective_sin_aoa(incoming);
    let amplitude = amplitude * friis_amplitude(length_m, cfg.wavelength_m);
    if amplitude <= 0.0 {
        return None;
    }
    Some(Path {
        kind,
        length_m,
        tof_s: length_m / SPEED_OF_LIGHT,
        sin_aoa,
        aoa_rad: sin_aoa.asin(),
        amplitude,
        phase,
        vertices,
    })
}

fn direct_path(
    walls: &[TraceWall],
    target: Point,
    ap: &AntennaArray,
    cfg: &RaytraceConfig,
) -> Option<Path> {
    let trans = transmission(walls, target, ap.position, [None; 2]);
    finish_path(
        ap,
        PathKind::Direct,
        vec![target, ap.position],
        trans,
        0.0,
        cfg,
    )
}

fn first_order_path(
    walls: &[TraceWall],
    target: Point,
    ap: &AntennaArray,
    wall_idx: usize,
    cfg: &RaytraceConfig,
) -> Option<Path> {
    let wall = &walls[wall_idx];
    let image = wall.target_image;
    // The mirror ray from the image to the AP must hit the wall segment.
    let ray = Segment::new(image, ap.position);
    let (_, u) = ray.intersect_params(wall.segment)?;
    // Reject grazing hits at the very ends of the wall.
    if !(1e-6..=1.0 - 1e-6).contains(&u) {
        return None;
    }
    let bounce = wall.segment.a + (wall.segment.b - wall.segment.a) * u;
    // Degenerate: target lies on the wall.
    if bounce.distance(target) < 1e-9 {
        return None;
    }
    let skip = [Some(wall_idx), None];
    let amp = wall.reflection
        * transmission(walls, target, bounce, skip)
        * transmission(walls, bounce, ap.position, skip);
    finish_path(
        ap,
        PathKind::Reflected {
            walls: vec![wall_idx],
        },
        vec![target, bounce, ap.position],
        amp,
        REFLECTION_PHASE,
        cfg,
    )
}

fn second_order_path(
    walls: &[TraceWall],
    target: Point,
    ap: &AntennaArray,
    first_wall: usize,
    second_wall: usize,
    cfg: &RaytraceConfig,
) -> Option<Path> {
    let (w1, w2) = (&walls[first_wall], &walls[second_wall]);
    // Image of the target across wall 1, then that image across wall 2.
    let image1 = w1.target_image;
    let image2 = w2.mirror(image1);
    // Trace backwards: AP ← bounce2 (on wall 2) ← bounce1 (on wall 1) ← target.
    let ray2 = Segment::new(image2, ap.position);
    let (_, u2) = ray2.intersect_params(w2.segment)?;
    if !(1e-6..=1.0 - 1e-6).contains(&u2) {
        return None;
    }
    let bounce2 = w2.segment.a + (w2.segment.b - w2.segment.a) * u2;
    let ray1 = Segment::new(image1, bounce2);
    let (_, u1) = ray1.intersect_params(w1.segment)?;
    if !(1e-6..=1.0 - 1e-6).contains(&u1) {
        return None;
    }
    let bounce1 = w1.segment.a + (w1.segment.b - w1.segment.a) * u1;
    if bounce1.distance(target) < 1e-9 || bounce2.distance(bounce1) < 1e-9 {
        return None;
    }
    let amp = w1.reflection
        * w2.reflection
        * transmission(walls, target, bounce1, [Some(first_wall), None])
        * transmission(
            walls,
            bounce1,
            bounce2,
            [Some(first_wall), Some(second_wall)],
        )
        * transmission(walls, bounce2, ap.position, [Some(second_wall), None]);
    finish_path(
        ap,
        PathKind::Reflected {
            walls: vec![first_wall, second_wall],
        },
        vec![target, bounce1, bounce2, ap.position],
        amp,
        2.0 * REFLECTION_PHASE,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::DEFAULT_CARRIER_HZ;
    use crate::materials::Material;

    fn test_ap(x: f64, y: f64) -> AntennaArray {
        AntennaArray::intel5300(
            Point::new(x, y),
            std::f64::consts::FRAC_PI_2,
            DEFAULT_CARRIER_HZ,
        )
    }

    fn cfg() -> RaytraceConfig {
        RaytraceConfig::default_for_wavelength(crate::constants::wavelength(DEFAULT_CARRIER_HZ))
    }

    #[test]
    fn free_space_has_only_direct_path() {
        let plan = Floorplan::empty();
        let ap = test_ap(0.0, 0.0);
        let paths = trace_paths(&plan, Point::new(3.0, 4.0), &ap, &cfg());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::Direct);
        assert!((paths[0].length_m - 5.0).abs() < 1e-9);
        assert!((paths[0].tof_s - 5.0 / SPEED_OF_LIGHT).abs() < 1e-18);
    }

    #[test]
    fn single_wall_adds_reflection() {
        let mut plan = Floorplan::empty();
        // Wall along x = 5, target and AP both left of it.
        plan.add_wall(
            Point::new(5.0, -10.0),
            Point::new(5.0, 10.0),
            Material::CONCRETE,
        );
        let ap = test_ap(0.0, 0.0);
        let target = Point::new(0.0, 4.0);
        let paths = trace_paths(&plan, target, &ap, &cfg());
        assert_eq!(paths.len(), 2, "direct + one reflection: {:?}", paths);
        let refl = paths.iter().find(|p| p.kind.order() == 1).unwrap();
        // Mirror geometry: image at (10, 4); reflected length = |(10,4)|.
        let expect_len = (10.0f64 * 10.0 + 16.0).sqrt();
        assert!((refl.length_m - expect_len).abs() < 1e-9);
        // Reflection bounces at x = 5 on the wall.
        assert!((refl.vertices[1].x - 5.0).abs() < 1e-9);
        // Direct path is stronger (shorter, no reflection loss).
        assert!(paths[0].kind == PathKind::Direct);
        assert!(paths[0].amplitude > refl.amplitude);
    }

    #[test]
    fn reflection_requires_hit_within_segment() {
        let mut plan = Floorplan::empty();
        // Short wall far off to the side: mirror ray misses the segment.
        plan.add_wall(
            Point::new(5.0, 100.0),
            Point::new(5.0, 101.0),
            Material::CONCRETE,
        );
        let ap = test_ap(0.0, 0.0);
        let paths = trace_paths(&plan, Point::new(0.0, 4.0), &ap, &cfg());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].kind, PathKind::Direct);
    }

    #[test]
    fn wall_between_attenuates_direct() {
        // Each wall the direct path crosses multiplies its amplitude by
        // that wall's transmission factor.
        let walls = [(1.0, Material::CONCRETE), (1.5, Material::DRYWALL)];
        let ap = test_ap(0.0, 0.0);
        let target = Point::new(2.0, 0.0);
        let free = trace_paths(&Floorplan::empty(), target, &ap, &cfg());
        for crossed in 1..=walls.len() {
            let mut plan = Floorplan::empty();
            for &(x, material) in &walls[..crossed] {
                plan.add_wall(Point::new(x, -10.0), Point::new(x, 10.0), material);
            }
            let paths = trace_paths(&plan, target, &ap, &cfg());
            let direct = paths.iter().find(|p| p.kind == PathKind::Direct).unwrap();
            let ratio = direct.amplitude / free[0].amplitude;
            let expected: f64 = walls[..crossed]
                .iter()
                .map(|(_, m)| m.amplitude_transmission())
                .product();
            assert!(
                (ratio - expected).abs() < 1e-9,
                "{crossed} walls: ratio {ratio}, expected {expected}"
            );
        }
    }

    #[test]
    fn box_room_produces_rich_multipath() {
        let mut plan = Floorplan::empty();
        plan.add_rect(-10.0, -10.0, 10.0, 10.0, Material::CONCRETE);
        let ap = test_ap(0.0, 0.0);
        let paths = trace_paths(&plan, Point::new(4.0, 3.0), &ap, &cfg());
        // Direct + 4 first-order (one per wall) + second-order bounces,
        // capped at max_paths.
        assert!(paths.len() >= 5, "got {} paths", paths.len());
        assert!(paths.len() <= cfg().max_paths);
        // Direct is the shortest.
        let direct = paths.iter().find(|p| p.kind == PathKind::Direct).unwrap();
        for p in &paths {
            assert!(p.length_m >= direct.length_m - 1e-9);
        }
        // Sorted by amplitude.
        for w in paths.windows(2) {
            assert!(w[0].amplitude >= w[1].amplitude);
        }
    }

    #[test]
    fn second_order_geometry_is_consistent() {
        let mut plan = Floorplan::empty();
        plan.add_rect(-10.0, -10.0, 10.0, 10.0, Material::METAL);
        let ap = test_ap(-3.0, 0.0);
        let target = Point::new(4.0, 1.0);
        let paths = trace_paths(&plan, target, &ap, &cfg());
        for p in paths.iter().filter(|p| p.kind.order() == 2) {
            assert_eq!(p.vertices.len(), 4);
            // Each bounce point must be on the room boundary.
            for v in &p.vertices[1..3] {
                let on_boundary =
                    (v.x.abs() - 10.0).abs() < 1e-6 || (v.y.abs() - 10.0).abs() < 1e-6;
                assert!(on_boundary, "bounce {:?} not on boundary", v);
            }
            // Specular law: verify via the image method's length identity —
            // the path length equals the straight distance from the double
            // image to the AP.
            if let PathKind::Reflected { walls } = &p.kind {
                let w1 = plan.walls()[walls[0]].segment;
                let w2 = plan.walls()[walls[1]].segment;
                let image2 = w2.mirror(w1.mirror(target));
                assert!(
                    (image2.distance(ap.position) - p.length_m).abs() < 1e-6,
                    "image length mismatch"
                );
            }
        }
    }

    #[test]
    fn aoa_matches_direct_geometry() {
        let plan = Floorplan::empty();
        let ap = test_ap(0.0, 0.0);
        let target = Point::new(-5.0, 5.0); // 45° CCW from the +y normal
        let paths = trace_paths(&plan, target, &ap, &cfg());
        assert!((paths[0].aoa_deg() - 45.0).abs() < 1e-6);
        assert!((paths[0].aoa_rad - ap.aoa_from(target)).abs() < 1e-9);
    }

    #[test]
    fn max_paths_cap_respected() {
        let mut plan = Floorplan::empty();
        plan.add_rect(-10.0, -10.0, 10.0, 10.0, Material::METAL);
        plan.add_rect(-8.0, -8.0, 8.0, 8.0, Material::GLASS);
        let ap = test_ap(0.0, 0.0);
        let mut c = cfg();
        c.max_paths = 4;
        let paths = trace_paths(&plan, Point::new(3.0, 2.0), &ap, &c);
        assert!(paths.len() <= 4);
    }

    #[test]
    fn target_at_ap_yields_no_paths() {
        let plan = Floorplan::empty();
        let ap = test_ap(0.0, 0.0);
        let paths = trace_paths(&plan, Point::new(0.0, 0.0), &ap, &cfg());
        assert!(paths.is_empty());
    }
}
