//! Randomized tests of the ray tracer and CSI synthesis: physical
//! invariants that must hold for arbitrary room geometry and target
//! placement.
//!
//! Cases are drawn from a seeded [`Rng`] loop (fixed seed ⇒ deterministic
//! runs; the case index in a failure message reproduces it exactly).

use spotfi_channel::constants::{DEFAULT_CARRIER_HZ, SPEED_OF_LIGHT};
use spotfi_channel::floorplan::Floorplan;
use spotfi_channel::materials::Material;
use spotfi_channel::raytrace::{trace_paths, PathKind, RaytraceConfig};
use spotfi_channel::{AntennaArray, PacketTrace, Point, Rng, TraceConfig};

const CASES: usize = 48;

fn ap() -> AntennaArray {
    AntennaArray::intel5300(
        Point::new(0.0, 0.0),
        std::f64::consts::FRAC_PI_2,
        DEFAULT_CARRIER_HZ,
    )
}

fn cfg() -> RaytraceConfig {
    RaytraceConfig::default_for_wavelength(SPEED_OF_LIGHT / DEFAULT_CARRIER_HZ)
}

/// A random axis-aligned room around origin + target inside it.
fn room_and_target(rng: &mut Rng) -> (Floorplan, Point) {
    let w = rng.gen_range(4.0..20.0);
    let h = rng.gen_range(4.0..15.0);
    let fx = rng.gen_range(-0.8..0.8);
    let fy = rng.gen_range(0.1..0.8);
    let mut plan = Floorplan::empty();
    plan.add_rect(-w / 2.0, -1.0, w / 2.0, h, Material::CONCRETE);
    let target = Point::new(fx * (w / 2.0 - 0.5), 0.5 + fy * (h - 1.5));
    (plan, target)
}

/// The direct path is always the shortest; every ToF is length/c.
#[test]
fn direct_is_shortest_and_tofs_consistent() {
    let mut rng = Rng::seed_from_u64(0x6001);
    for case in 0..CASES {
        let (plan, target) = room_and_target(&mut rng);
        if target.distance(Point::new(0.0, 0.0)) <= 0.3 {
            continue;
        }
        let paths = trace_paths(&plan, target, &ap(), &cfg());
        if paths.is_empty() {
            continue;
        }
        let direct = paths.iter().find(|p| p.kind == PathKind::Direct);
        if let Some(d) = direct {
            for p in &paths {
                assert!(p.length_m >= d.length_m - 1e-9, "case {}", case);
            }
            assert!(
                (d.length_m - target.distance(Point::new(0.0, 0.0))).abs() < 1e-9,
                "case {}",
                case
            );
        }
        for p in &paths {
            assert!(
                (p.tof_s - p.length_m / SPEED_OF_LIGHT).abs() < 1e-18,
                "case {}",
                case
            );
            assert!(p.sin_aoa.abs() <= 1.0, "case {}", case);
            assert!(p.amplitude > 0.0, "case {}", case);
        }
    }
}

/// First-order reflections obey the image identity: the path length
/// equals the straight distance from the mirrored target to the AP.
#[test]
fn first_order_reflections_obey_image_method() {
    let mut rng = Rng::seed_from_u64(0x6002);
    for case in 0..CASES {
        let (plan, target) = room_and_target(&mut rng);
        if target.distance(Point::new(0.0, 0.0)) <= 0.3 {
            continue;
        }
        let a = ap();
        let paths = trace_paths(&plan, target, &a, &cfg());
        for p in &paths {
            if let PathKind::Reflected { walls } = &p.kind {
                if walls.len() == 1 {
                    let wall = plan.walls()[walls[0]].segment;
                    let image = wall.mirror(target);
                    assert!(
                        (image.distance(a.position) - p.length_m).abs() < 1e-6,
                        "case {}: image identity violated: {} vs {}",
                        case,
                        image.distance(a.position),
                        p.length_m
                    );
                    // The bounce point lies on the wall segment.
                    let b = p.vertices[1];
                    let along = (b - wall.a).dot(wall.direction().unwrap());
                    assert!(
                        along >= -1e-6 && along <= wall.length() + 1e-6,
                        "case {}",
                        case
                    );
                }
            }
        }
    }
}

/// Adding an obstacle can only attenuate the direct path.
#[test]
fn obstacles_only_attenuate() {
    let mut rng = Rng::seed_from_u64(0x6003);
    for case in 0..CASES {
        let (plan, target) = room_and_target(&mut rng);
        let wx = rng.gen_range(-0.5..0.5);
        if target.distance(Point::new(0.0, 0.0)) <= 2.0 {
            continue;
        }
        let a = ap();
        let free = trace_paths(&Floorplan::empty(), target, &a, &cfg());
        if free.is_empty() {
            continue;
        }

        // Put a wall crossing the midpoint of the direct path.
        let mid = target.midpoint(a.position);
        let mut blocked_plan = plan.clone();
        blocked_plan.add_wall(
            Point::new(mid.x - 1.0 + wx, mid.y - 1.0),
            Point::new(mid.x + 1.0 + wx, mid.y + 1.0),
            Material::CONCRETE,
        );
        let blocked = trace_paths(&blocked_plan, target, &a, &cfg());
        let free_direct = free.iter().find(|p| p.kind == PathKind::Direct).unwrap();
        if let Some(bd) = blocked.iter().find(|p| p.kind == PathKind::Direct) {
            assert!(
                bd.amplitude <= free_direct.amplitude + 1e-12,
                "case {}: obstacle amplified the direct path",
                case
            );
        }
    }
}

/// CSI synthesis obeys the triangle inequality: no entry of an ideal
/// packet exceeds the sum of its path amplitudes, and with one path (the
/// same target in free space) every entry equals it.
#[test]
fn csi_amplitude_bounds() {
    let mut rng = Rng::seed_from_u64(0x6004);
    let ideal = TraceConfig {
        raytrace: cfg(),
        ..TraceConfig::ideal()
    };
    for case in 0..CASES {
        let (plan, target) = room_and_target(&mut rng);
        if target.distance(Point::new(0.0, 0.0)) <= 0.3 {
            continue;
        }
        let a = ap();
        let Some(trace) = PacketTrace::generate(&plan, target, &a, &ideal, 1, &mut rng) else {
            continue;
        };
        let total: f64 = trace.ground_truth_paths.iter().map(|p| p.amplitude).sum();
        for z in trace.packets[0].csi.as_slice() {
            assert!(z.abs() <= total * (1.0 + 1e-9), "case {}", case);
        }
        let single =
            PacketTrace::generate(&Floorplan::empty(), target, &a, &ideal, 1, &mut rng).unwrap();
        let amplitude = single.ground_truth_paths[0].amplitude;
        assert_eq!(single.ground_truth_paths.len(), 1, "case {}", case);
        for z in single.packets[0].csi.as_slice() {
            assert!(
                (z.abs() - amplitude).abs() < 1e-9 * amplitude,
                "case {}",
                case
            );
        }
    }
}

/// Paths are returned sorted by amplitude and capped by config.
#[test]
fn ordering_and_caps() {
    let mut rng = Rng::seed_from_u64(0x6005);
    for case in 0..CASES {
        let (plan, target) = room_and_target(&mut rng);
        let max_paths = 1 + (rng.next_u64() % 5) as usize;
        if target.distance(Point::new(0.0, 0.0)) <= 0.3 {
            continue;
        }
        let mut c = cfg();
        c.max_paths = max_paths;
        let paths = trace_paths(&plan, target, &ap(), &c);
        assert!(paths.len() <= max_paths, "case {}", case);
        for w in paths.windows(2) {
            assert!(w[0].amplitude >= w[1].amplitude, "case {}", case);
        }
    }
}
