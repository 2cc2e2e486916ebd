//! The Fig. 6-style testbed.
//!
//! The paper deploys over one floor of a Stanford building: a dense office
//! region of roughly 16 m × 10 m ringed by six APs (the dashed red box of
//! Fig. 6), two corridors with APs along a side wall, and stress-test
//! locations where a target has at most two APs in line of sight. This
//! module builds an equivalent floorplan:
//!
//! ```text
//! y=20 ┌──────────────────────────────────────────┐ concrete shell
//!      │   OFFICE (6 APs)     ║corr│  NLoS rooms   │
//!      │ drywall partitions,  ║ B  │ concrete walls│
//! y=9  │ metal cabinet        ║    │ door gaps     │
//!      ├──────── corridor A (wall-mounted APs) ────┤
//! y=7  ├──────────────────────────────────────────┤
//! y=0  └──────────────────────────────────────────┘
//!      x=0                                      x=40
//! ```
//!
//! Office targets sit on a 5 × 5 grid inside the box; corridor targets run
//! along both corridors' centerlines; NLoS targets sit inside the concrete
//! rooms, reachable mostly through door gaps and reflections.

use spotfi_channel::constants::DEFAULT_CARRIER_HZ;
use spotfi_channel::floorplan::Floorplan;
use spotfi_channel::materials::Material;
use spotfi_channel::{AntennaArray, Point};

/// A named AP (array + label for reports).
#[derive(Clone, Debug)]
pub struct NamedAp {
    /// Report label, e.g. `"AP1"`.
    pub name: String,
    /// The antenna array.
    pub array: AntennaArray,
}

/// A named target location.
#[derive(Clone, Debug)]
pub struct Target {
    /// Report label, e.g. `"office-07"`.
    pub name: String,
    /// Ground-truth position.
    pub position: Point,
}

/// The full testbed: floorplan plus AP/target sets per deployment scenario.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Walls of the whole floor.
    pub floorplan: Floorplan,
    /// The six office APs (Sec. 4.3.1).
    pub office_aps: Vec<NamedAp>,
    /// Corridor wall APs (Sec. 4.3.3).
    pub corridor_aps: Vec<NamedAp>,
    /// Service-corridor APs over the NLoS rooms (used by the high-NLoS
    /// scenario only).
    pub service_aps: Vec<NamedAp>,
    /// Office-region targets.
    pub office_targets: Vec<Target>,
    /// Corridor targets (both corridors).
    pub corridor_targets: Vec<Target>,
    /// High-NLoS targets (≤ 2 LoS APs by construction).
    pub nlos_targets: Vec<Target>,
}

/// AP helper: an Intel-5300 array at `(x, y)` with its normal pointed at
/// `look`.
pub(crate) fn ap(name: &str, x: f64, y: f64, look: Point) -> NamedAp {
    let angle = (look - Point::new(x, y)).angle();
    NamedAp {
        name: name.to_string(),
        array: AntennaArray::intel5300(Point::new(x, y), angle, DEFAULT_CARRIER_HZ),
    }
}

fn target(prefix: &str, idx: usize, x: f64, y: f64) -> Target {
    Target {
        name: format!("{}-{:02}", prefix, idx),
        position: Point::new(x, y),
    }
}

impl Deployment {
    /// Builds the standard testbed.
    pub fn standard() -> Deployment {
        let mut plan = Floorplan::empty();
        let p = Point::new;

        // ── Building shell (concrete) ────────────────────────────────────
        plan.add_rect(0.0, 0.0, 40.0, 20.0, Material::CONCRETE);

        // ── Office region: x ∈ [2, 18], y ∈ [9, 19] ─────────────────────
        // North boundary is close to the shell; east/west/south walls are
        // drywall with a door gap in the south wall (x ∈ [8, 10]).
        plan.add_wall(p(2.0, 9.0), p(8.0, 9.0), Material::DRYWALL);
        plan.add_wall(p(10.0, 9.0), p(18.0, 9.0), Material::DRYWALL);
        plan.add_wall(p(2.0, 9.0), p(2.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(18.0, 9.0), p(18.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(2.0, 19.0), p(18.0, 19.0), Material::DRYWALL);
        // Internal partitions (cubicles / small rooms) — short runs with
        // wide openings: the paper's office is multipath-rich yet most
        // targets keep 4–5 APs with a usable direct path.
        plan.add_wall(p(7.0, 15.5), p(7.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(12.0, 9.0), p(12.0, 12.0), Material::DRYWALL);
        plan.add_wall(p(2.0, 14.0), p(4.5, 14.0), Material::DRYWALL);
        plan.add_wall(p(14.5, 16.0), p(18.0, 16.0), Material::GLASS);
        // Clutter: metal cabinets, a whiteboard, and a structural pillar —
        // the strong reflectors that make the paper's office "very
        // multipath rich" (6–8 significant paths per link).
        plan.add_wall(p(15.0, 11.0), p(16.5, 11.0), Material::METAL);
        plan.add_wall(p(4.0, 17.5), p(5.2, 17.5), Material::METAL);
        plan.add_wall(p(10.5, 16.8), p(11.8, 16.5), Material::METAL);
        plan.add_wall(p(8.0, 12.8), p(8.0, 13.8), Material::METAL);
        plan.add_rect(13.6, 13.2, 14.0, 13.6, Material::CONCRETE);

        // ── Corridor A: the horizontal hallway y ∈ [7, 9] ────────────────
        // Its south wall is concrete with door gaps; the north wall is the
        // office/rooms boundary built above plus concrete east of the
        // office.
        plan.add_wall(p(2.0, 7.0), p(14.0, 7.0), Material::CONCRETE);
        plan.add_wall(p(16.0, 7.0), p(30.0, 7.0), Material::CONCRETE);
        plan.add_wall(p(32.0, 7.0), p(38.0, 7.0), Material::CONCRETE);
        plan.add_wall(p(22.0, 9.0), p(26.0, 9.0), Material::CONCRETE);
        plan.add_wall(p(28.0, 9.0), p(33.0, 9.0), Material::CONCRETE);
        plan.add_wall(p(35.0, 9.0), p(38.0, 9.0), Material::CONCRETE);

        // ── Corridor B: the vertical hallway x ∈ [19, 21], y ∈ [9, 19] ───
        plan.add_wall(p(19.0, 9.0), p(19.0, 19.0), Material::CONCRETE);
        plan.add_wall(p(21.0, 9.0), p(21.0, 13.0), Material::CONCRETE);
        plan.add_wall(p(21.0, 15.0), p(21.0, 19.0), Material::CONCRETE);

        // ── NLoS rooms: x ∈ [21, 39], y ∈ [9, 19] ───────────────────────
        // Interior partitions are drywall (as in a real office): they break
        // line of sight — making these the paper's "strong blocking object"
        // scenario — while still letting a heavily attenuated direct
        // component exist for the nearest APs.
        plan.add_wall(p(27.0, 9.0), p(27.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(33.0, 9.0), p(33.0, 19.0), Material::DRYWALL);
        // North wall with one door per room, opening onto a service
        // corridor (y ∈ [19, 20]).
        plan.add_wall(p(21.0, 19.0), p(23.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(25.0, 19.0), p(29.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(31.0, 19.0), p(35.0, 19.0), Material::DRYWALL);
        plan.add_wall(p(37.0, 19.0), p(39.0, 19.0), Material::DRYWALL);
        // (Additional door gaps into corridor A at x ∈ [26,28] / [33,35]
        // and into corridor B at y ∈ [13,15].)

        // ── Office APs: six, ringing the office and looking inward ───────
        let office_center = Point::new(10.0, 14.0);
        let office_aps = vec![
            ap("AP1", 2.4, 18.6, office_center),
            ap("AP2", 10.0, 18.6, Point::new(10.0, 12.0)),
            ap("AP3", 17.6, 18.6, office_center),
            ap("AP4", 2.4, 9.4, office_center),
            ap("AP5", 9.0, 9.4, Point::new(10.0, 15.0)),
            ap("AP6", 17.6, 9.4, office_center),
        ];

        // ── Corridor APs: five along corridor A, one in corridor B ───────
        let corridor_aps = vec![
            ap("CAP1", 4.0, 7.3, Point::new(4.0, 8.5)),
            ap("CAP2", 12.0, 8.7, Point::new(12.0, 7.5)),
            ap("CAP3", 20.0, 7.3, Point::new(20.0, 8.5)),
            ap("CAP4", 28.0, 8.7, Point::new(28.0, 7.5)),
            ap("CAP5", 36.0, 7.3, Point::new(36.0, 8.5)),
            ap("CAP6", 20.0, 18.6, Point::new(20.0, 12.0)),
        ];

        // ── Service-corridor APs over the NLoS rooms: each sees one room
        // through its door, giving the NLoS targets the paper's "at most
        // two APs with a decent direct path" ────────────────────────────
        let service_aps = vec![
            ap("SAP1", 24.0, 19.5, Point::new(24.0, 14.0)),
            ap("SAP2", 30.0, 19.5, Point::new(30.0, 14.0)),
            ap("SAP3", 36.0, 19.5, Point::new(36.0, 14.0)),
        ];

        // ── Office targets: a 5 × 5 grid avoiding the partitions ─────────
        let mut office_targets = Vec::new();
        let xs = [3.5, 6.3, 9.5, 13.0, 16.2];
        let ys = [10.2, 12.3, 14.6, 16.4, 18.2];
        let mut idx = 0;
        for &y in &ys {
            for &x in &xs {
                idx += 1;
                office_targets.push(target("office", idx, x, y));
            }
        }

        // ── Corridor targets: 16 along A, 9 along B ──────────────────────
        let mut corridor_targets = Vec::new();
        for i in 0..16 {
            corridor_targets.push(target("corrA", i + 1, 3.0 + i as f64 * 2.2, 8.0));
        }
        for i in 0..9 {
            corridor_targets.push(target("corrB", i + 1, 20.0, 9.8 + i as f64 * 1.05));
        }

        // ── NLoS targets: 23 inside the concrete rooms ───────────────────
        let mut nlos_targets = Vec::new();
        let mut n = 0;
        for &(x0, x1) in &[(21.5f64, 26.5f64), (27.5, 32.5), (33.5, 38.5)] {
            for &y in &[10.5, 13.5, 16.5] {
                for &fx in &[0.25, 0.55, 0.85] {
                    if n >= 23 {
                        break;
                    }
                    n += 1;
                    nlos_targets.push(target("nlos", n, x0 + fx * (x1 - x0), y));
                }
            }
        }

        Deployment {
            floorplan: plan,
            office_aps,
            corridor_aps,
            service_aps,
            office_targets,
            corridor_targets,
            nlos_targets,
        }
    }

    /// All APs (office + corridor + service corridor).
    pub fn all_aps(&self) -> Vec<NamedAp> {
        self.office_aps
            .iter()
            .chain(self.corridor_aps.iter())
            .chain(self.service_aps.iter())
            .cloned()
            .collect()
    }

    /// `true` if `target` has geometric line of sight to `ap_pos`.
    pub fn is_los(&self, target: Point, ap_pos: Point) -> bool {
        self.floorplan.line_of_sight(target, ap_pos)
    }

    /// Number of office APs with line of sight to a target.
    pub fn los_ap_count(&self, target: Point, aps: &[NamedAp]) -> usize {
        aps.iter()
            .filter(|a| self.is_los(target, a.array.position))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_paper_scale() {
        let d = Deployment::standard();
        assert_eq!(d.office_aps.len(), 6, "paper: five-six APs in the office");
        assert_eq!(d.office_targets.len(), 25);
        assert_eq!(d.corridor_targets.len(), 25, "paper: 25 corridor points");
        assert_eq!(d.nlos_targets.len(), 23, "paper: 23 NLoS locations");
        // 55-ish total, like Fig. 6.
        let total = d.office_targets.len() + d.corridor_targets.len() + d.nlos_targets.len();
        assert!((50..=80).contains(&total));
    }

    #[test]
    fn office_targets_are_multipath_rich_but_mostly_los() {
        let d = Deployment::standard();
        // The paper: "typically has 4–5 APs with a sufficiently strong
        // direct path". Check the median LoS count is ≥ 3.
        let mut los_counts: Vec<usize> = d
            .office_targets
            .iter()
            .map(|t| d.los_ap_count(t.position, &d.office_aps))
            .collect();
        los_counts.sort_unstable();
        let median = los_counts[los_counts.len() / 2];
        assert!(median >= 3, "median office LoS count {}", median);
    }

    #[test]
    fn nlos_targets_have_at_most_two_los_aps() {
        let d = Deployment::standard();
        let aps = d.all_aps();
        for t in &d.nlos_targets {
            let n = d.los_ap_count(t.position, &aps);
            assert!(
                n <= 2,
                "{} at {:?} sees {} APs in LoS",
                t.name,
                t.position,
                n
            );
        }
    }

    #[test]
    fn corridor_targets_inside_corridors() {
        let d = Deployment::standard();
        for t in &d.corridor_targets {
            let p = t.position;
            let in_a = (2.0..=38.0).contains(&p.x) && (7.0..=9.0).contains(&p.y);
            let in_b = (19.0..=21.0).contains(&p.x) && (9.0..=19.0).contains(&p.y);
            assert!(in_a || in_b, "{} at {:?} outside corridors", t.name, p);
        }
    }

    #[test]
    fn aps_look_into_the_floor() {
        let d = Deployment::standard();
        for a in d.all_aps() {
            // Every AP normal should point into the building interior:
            // stepping 1 m along the normal stays inside the shell.
            let n = a.array.normal();
            let probe = a.array.position + n * 1.0;
            assert!(
                (0.0..=40.0).contains(&probe.x) && (0.0..=20.0).contains(&probe.y),
                "{} normal points outside",
                a.name
            );
        }
    }

    #[test]
    fn targets_do_not_coincide_with_aps() {
        let d = Deployment::standard();
        let aps = d.all_aps();
        for t in d
            .office_targets
            .iter()
            .chain(&d.corridor_targets)
            .chain(&d.nlos_targets)
        {
            for a in &aps {
                assert!(
                    t.position.distance(a.array.position) > 0.3,
                    "{} too close to {}",
                    t.name,
                    a.name
                );
            }
        }
    }
}
