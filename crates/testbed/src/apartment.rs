//! A second deployment: a three-room apartment.
//!
//! The paper's introduction motivates SpotFi with consumer scenarios —
//! "locating a phone lost somewhere in a home". This module provides a
//! home-scale floorplan (14 m × 8 m, three rooms behind concrete interior
//! walls with door gaps) and target sets grouped by how many interior
//! walls separate them from the AP cluster, so the through-wall experiment
//! can sweep obstruction depth.

use spotfi_channel::floorplan::Floorplan;
use spotfi_channel::materials::Material;
use spotfi_channel::Point;

use crate::deployment::{ap, NamedAp, Target};

/// The apartment testbed.
#[derive(Clone, Debug)]
pub struct Apartment {
    /// The walls.
    pub floorplan: Floorplan,
    /// Four APs spread through the home.
    pub aps: Vec<NamedAp>,
    /// Targets grouped by room (0 = living room with most APs, 2 =
    /// farthest bedroom).
    pub rooms: [Vec<Target>; 3],
}

impl Apartment {
    /// Builds the standard apartment: rooms split at x = 5 and x = 10 with
    /// 1 m door gaps, a metal fridge, and four APs (two in the living
    /// room, one in each far room's doorway area).
    pub fn standard() -> Apartment {
        let p = Point::new;
        let mut plan = Floorplan::empty();
        plan.add_rect(0.0, 0.0, 14.0, 8.0, Material::CONCRETE);
        // Room 1 | Room 2 divider, door at y ∈ [3, 4].
        plan.add_wall(p(5.0, 0.0), p(5.0, 3.0), Material::CONCRETE);
        plan.add_wall(p(5.0, 4.0), p(5.0, 8.0), Material::CONCRETE);
        // Room 2 | Room 3 divider, door at y ∈ [5, 6].
        plan.add_wall(p(10.0, 0.0), p(10.0, 5.0), Material::CONCRETE);
        plan.add_wall(p(10.0, 6.0), p(10.0, 8.0), Material::CONCRETE);
        // Furniture: fridge (metal) and a drywall closet.
        plan.add_wall(p(8.5, 0.2), p(9.5, 0.2), Material::METAL);
        plan.add_wall(p(1.0, 6.5), p(2.5, 6.5), Material::DRYWALL);

        let aps = vec![
            ap("HAP1", 0.4, 0.4, p(2.5, 4.0)),
            ap("HAP2", 0.4, 7.6, p(2.5, 4.0)),
            ap("HAP3", 7.0, 7.6, p(7.5, 3.5)),
            ap("HAP4", 13.6, 0.4, p(12.0, 4.0)),
        ];

        let room = |x0: f64, prefix: &str| -> Vec<Target> {
            let mut out = Vec::new();
            let mut i = 0;
            for &fy in &[1.5f64, 4.0, 6.5] {
                for &fx in &[1.2f64, 2.5, 3.8] {
                    i += 1;
                    out.push(Target {
                        name: format!("{}-{:02}", prefix, i),
                        position: Point::new(x0 + fx, fy),
                    });
                }
            }
            out
        };

        Apartment {
            floorplan: plan,
            aps,
            rooms: [room(0.0, "living"), room(5.0, "mid"), room(10.0, "far")],
        }
    }

    /// A dense perimeter deployment for >4-AP experiments: `n` APs evenly
    /// spaced along a ring inset 0.5 m from the outer walls, walking
    /// counterclockwise from the (0.5, 0.5) corner, every AP facing the
    /// apartment's center. Spacings for n ∈ {8, 16, 32} land no AP on the
    /// interior walls at x = 5 and x = 10.
    pub fn perimeter_aps(n: usize) -> Vec<NamedAp> {
        let (x0, y0, x1, y1) = (0.5f64, 0.5f64, 13.5f64, 7.5f64);
        let (w, h) = (x1 - x0, y1 - y0);
        let perimeter = 2.0 * (w + h);
        let center = Point::new(7.0, 4.0);
        (0..n)
            .map(|i| {
                let s = i as f64 * perimeter / n as f64;
                // Walk the ring edge by edge: bottom, right, top, left.
                let pos = if s < w {
                    Point::new(x0 + s, y0)
                } else if s < w + h {
                    Point::new(x1, y0 + (s - w))
                } else if s < w + h + w {
                    Point::new(x1 - (s - w - h), y1)
                } else {
                    Point::new(x0, y1 - (s - w - h - w))
                };
                ap(&format!("RAP{}", i + 1), pos.x, pos.y, center)
            })
            .collect()
    }

    /// Median number of interior walls between a room's targets and the
    /// living-room APs (diagnostics).
    pub fn median_wall_depth(&self, room: usize) -> usize {
        let mut counts: Vec<usize> = self.rooms[room]
            .iter()
            .map(|t| {
                self.floorplan
                    .walls_crossed(t.position, self.aps[0].array.position, None)
                    .count()
            })
            .collect();
        counts.sort_unstable();
        counts[counts.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rooms_have_increasing_wall_depth() {
        let a = Apartment::standard();
        let d0 = a.median_wall_depth(0);
        let d1 = a.median_wall_depth(1);
        let d2 = a.median_wall_depth(2);
        assert!(d0 <= d1 && d1 <= d2, "depths {} {} {}", d0, d1, d2);
        assert!(d2 >= 2, "far room should sit behind ≥ 2 walls from HAP1");
    }

    #[test]
    fn nine_targets_per_room_inside_bounds() {
        let a = Apartment::standard();
        for room in &a.rooms {
            assert_eq!(room.len(), 9);
            for t in room {
                assert!((0.0..=14.0).contains(&t.position.x));
                assert!((0.0..=8.0).contains(&t.position.y));
            }
        }
    }

    #[test]
    fn perimeter_ring_stays_inside_and_off_interior_walls() {
        for &n in &[8usize, 16, 32] {
            let aps = Apartment::perimeter_aps(n);
            assert_eq!(aps.len(), n);
            let mut names: Vec<&str> = aps.iter().map(|a| a.name.as_str()).collect();
            names.dedup();
            assert_eq!(names.len(), n, "names must be unique");
            for ap in &aps {
                let p = ap.array.position;
                assert!((0.5..=13.5).contains(&p.x) && (0.5..=7.5).contains(&p.y));
                // Interior walls sit at x = 5 and x = 10; an AP placed on
                // one would be embedded in concrete.
                assert!((p.x - 5.0).abs() > 1e-9 && (p.x - 10.0).abs() > 1e-9);
            }
            // Evenly spaced: consecutive APs are distinct positions.
            for w in aps.windows(2) {
                assert!(w[0].array.position.distance(w[1].array.position) > 0.1);
            }
        }
    }

    #[test]
    fn aps_inside_apartment() {
        let a = Apartment::standard();
        assert_eq!(a.aps.len(), 4);
        for ap in &a.aps {
            let p = ap.array.position;
            assert!((0.0..=14.0).contains(&p.x) && (0.0..=8.0).contains(&p.y));
        }
    }
}
