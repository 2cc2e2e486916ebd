//! Packet trace generation: the end-to-end simulator entry point.
//!
//! A [`PacketTrace`] is what one AP's CSI-extraction software would ship to
//! the SpotFi server for one target: a sequence of [`CsiPacket`]s (quantized
//! CSI matrix + RSSI + timestamp). Ground truth (the traced paths) rides
//! along for evaluation only — the estimator must not look at it.

use crate::rng::Rng;

use crate::array::AntennaArray;
use crate::diffuse::DiffuseConfig;
use crate::floorplan::Floorplan;
use crate::geometry::Point;
use crate::impairments::Impairments;
use crate::ofdm::OfdmConfig;
use crate::raytrace::{Path, RaytraceConfig};
use crate::rssi::RssiModel;
use crate::trajectory::{generate_moving, Waypath};
use spotfi_math::CMat;

/// One received packet's measurements, exactly what commodity firmware
/// exposes.
#[derive(Clone, Debug)]
pub struct CsiPacket {
    /// CSI matrix, `num_antennas × num_subcarriers`.
    pub csi: CMat,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Receive timestamp, seconds since trace start.
    pub timestamp_s: f64,
    /// The STO injected into this packet (simulation oracle; hidden from
    /// the estimator, used by impairment tests).
    pub injected_sto_s: f64,
}

/// Configuration of a packet trace.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// OFDM grid.
    pub ofdm: OfdmConfig,
    /// Ray tracing parameters.
    pub raytrace: RaytraceConfig,
    /// Receiver impairments.
    pub impairments: Impairments,
    /// Diffuse scattering field, or `None` for a purely specular channel.
    pub diffuse: Option<DiffuseConfig>,
    /// RSSI model.
    pub rssi: RssiModel,
    /// Inter-packet interval, seconds (the paper's targets transmit every
    /// 100 ms).
    pub packet_interval_s: f64,
}

impl TraceConfig {
    /// The paper's deployment: Intel 5300 40 MHz grid, commodity
    /// impairments, typical RSSI model, 100 ms packet spacing.
    pub fn commodity() -> Self {
        let ofdm = OfdmConfig::intel5300_40mhz();
        TraceConfig {
            raytrace: RaytraceConfig::default_for_wavelength(ofdm.wavelength()),
            ofdm,
            impairments: Impairments::commodity(),
            diffuse: Some(DiffuseConfig::typical()),
            rssi: RssiModel::typical(),
            packet_interval_s: 0.1,
        }
    }

    /// Ideal measurements: no impairments, no diffuse field, no shadowing
    /// (tests/ablations).
    pub fn ideal() -> Self {
        let ofdm = OfdmConfig::intel5300_40mhz();
        TraceConfig {
            raytrace: RaytraceConfig::default_for_wavelength(ofdm.wavelength()),
            ofdm,
            impairments: Impairments::none(),
            diffuse: None,
            rssi: RssiModel::ideal(),
            packet_interval_s: 0.1,
        }
    }
}

/// A generated trace: packets plus the ground-truth paths they came from.
///
/// ```
/// use spotfi_channel::{AntennaArray, Floorplan, PacketTrace, Point, Rng, TraceConfig};
///
/// let plan = Floorplan::empty();
/// let ap = AntennaArray::intel5300(
///     Point::new(0.0, 0.0),
///     std::f64::consts::FRAC_PI_2,
///     spotfi_channel::constants::DEFAULT_CARRIER_HZ,
/// );
/// let mut rng = Rng::seed_from_u64(7);
/// let trace = PacketTrace::generate(
///     &plan, Point::new(2.0, 5.0), &ap, &TraceConfig::commodity(), 10, &mut rng,
/// ).unwrap();
/// assert_eq!(trace.packets.len(), 10);
/// assert_eq!(trace.packets[0].csi.shape(), (3, 30)); // Intel 5300 layout
/// ```
#[derive(Clone, Debug)]
pub struct PacketTrace {
    /// The packets, in transmission order.
    pub packets: Vec<CsiPacket>,
    /// Ground-truth propagation paths (strongest first). **Evaluation
    /// only.**
    pub ground_truth_paths: Vec<Path>,
}

impl PacketTrace {
    /// Simulates `num_packets` packets from `target` heard by `ap`.
    ///
    /// Returns `None` when no propagation path reaches the AP (deep NLoS) —
    /// the AP simply doesn't hear the target, as in a real deployment.
    pub fn generate(
        plan: &Floorplan,
        target: Point,
        ap: &AntennaArray,
        cfg: &TraceConfig,
        num_packets: usize,
        rng: &mut Rng,
    ) -> Option<PacketTrace> {
        // A target that never moves and is never re-traced.
        generate_moving(
            plan,
            &Waypath::stationary(target),
            ap,
            cfg,
            f64::INFINITY,
            num_packets,
            rng,
        )
    }

    /// Ground-truth direct path, if the ray tracer kept one.
    pub fn direct_path(&self) -> Option<&Path> {
        self.ground_truth_paths
            .iter()
            .find(|p| p.kind == crate::raytrace::PathKind::Direct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::Material;
    use crate::rng::Rng;

    fn ap() -> AntennaArray {
        AntennaArray::intel5300(
            Point::new(0.0, 0.0),
            std::f64::consts::FRAC_PI_2,
            crate::constants::DEFAULT_CARRIER_HZ,
        )
    }

    #[test]
    fn generates_requested_packets() {
        let plan = Floorplan::empty();
        let mut rng = Rng::seed_from_u64(1);
        let t = PacketTrace::generate(
            &plan,
            Point::new(2.0, 5.0),
            &ap(),
            &TraceConfig::commodity(),
            10,
            &mut rng,
        )
        .unwrap();
        assert_eq!(t.packets.len(), 10);
        for (i, p) in t.packets.iter().enumerate() {
            assert_eq!(p.csi.shape(), (3, 30));
            assert!((p.timestamp_s - i as f64 * 0.1).abs() < 1e-12);
            assert!(p.rssi_dbm.is_finite());
        }
        assert!(t.direct_path().is_some());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let plan = Floorplan::empty();
        let cfg = TraceConfig::commodity();
        let gen = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            PacketTrace::generate(&plan, Point::new(3.0, 4.0), &ap(), &cfg, 5, &mut rng).unwrap()
        };
        let a = gen(7);
        let b = gen(7);
        let c = gen(8);
        for (pa, pb) in a.packets.iter().zip(&b.packets) {
            assert!((&pa.csi - &pb.csi).max_abs() < 1e-15);
            assert_eq!(pa.rssi_dbm, pb.rssi_dbm);
        }
        // Different seed gives different impairments.
        let diff = (&a.packets[0].csi - &c.packets[0].csi).max_abs();
        assert!(diff > 0.0);
    }

    #[test]
    fn sto_varies_across_packets() {
        let plan = Floorplan::empty();
        let mut rng = Rng::seed_from_u64(2);
        let t = PacketTrace::generate(
            &plan,
            Point::new(2.0, 5.0),
            &ap(),
            &TraceConfig::commodity(),
            20,
            &mut rng,
        )
        .unwrap();
        let stos: Vec<f64> = t.packets.iter().map(|p| p.injected_sto_s).collect();
        let first = stos[0];
        assert!(
            stos.iter().any(|s| (s - first).abs() > 1e-10),
            "SFO/jitter must vary the STO"
        );
    }

    #[test]
    fn ideal_trace_has_identical_packets() {
        let plan = Floorplan::empty();
        let mut rng = Rng::seed_from_u64(3);
        let t = PacketTrace::generate(
            &plan,
            Point::new(2.0, 5.0),
            &ap(),
            &TraceConfig::ideal(),
            3,
            &mut rng,
        )
        .unwrap();
        let d = (&t.packets[0].csi - &t.packets[2].csi).max_abs();
        assert!(d < 1e-15, "ideal packets should be identical, diff {}", d);
    }

    #[test]
    fn fully_enclosed_metal_box_blocks_target() {
        // Target sealed inside a small metal box far from the AP: every
        // path is attenuated below the relative floor of the *strongest*
        // path, but relative flooring keeps ≥1 path. Check RSSI is tiny
        // instead.
        let mut plan = Floorplan::empty();
        plan.add_rect(9.0, 9.0, 11.0, 11.0, Material::METAL);
        let mut rng = Rng::seed_from_u64(4);
        let cfg = TraceConfig::commodity();
        let inside = PacketTrace::generate(&plan, Point::new(10.0, 10.0), &ap(), &cfg, 1, &mut rng);
        let mut rng2 = Rng::seed_from_u64(4);
        let open = PacketTrace::generate(
            &Floorplan::empty(),
            Point::new(10.0, 10.0),
            &ap(),
            &cfg,
            1,
            &mut rng2,
        );
        let (inside, open) = (inside.unwrap(), open.unwrap());
        assert!(
            inside.packets[0].rssi_dbm < open.packets[0].rssi_dbm - 20.0,
            "metal box should cost ≫20 dB: {} vs {}",
            inside.packets[0].rssi_dbm,
            open.packets[0].rssi_dbm
        );
    }
}
