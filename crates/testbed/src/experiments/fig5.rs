//! Figure 5: the mechanics of ToF sanitization and clustering.
//!
//! * **5(a)** — unwrapped CSI phase of two packets with different sampling
//!   time offsets: the raw curves are visibly displaced.
//! * **5(b)** — after Algorithm 1, the two packets' phase responses
//!   coincide.
//! * **5(c)** — (AoA, ToF) estimates from 170 packets cluster per path; the
//!   direct path's cluster is the tightest and SpotFi's likelihood picks it.

use spotfi_channel::Rng;

use spotfi_channel::{PacketTrace, Point};
use spotfi_core::likelihood::score_clusters;
use spotfi_core::sanitize::sanitize_csi;
use spotfi_core::{ApPackets, SpotFi};

use crate::deployment::Deployment;
use crate::experiments::ExperimentOptions;
use crate::scenario::Scenario;

/// Number of packets for the clustering panel (paper: 170).
pub const FIG5C_PACKETS: usize = 170;

/// Per-packet phase curves for panels (a)/(b): `phases[packet][subcarrier]`
/// at antenna 0.
#[derive(Clone, Debug)]
pub struct PhasePanel {
    /// Unwrapped raw phase, two packets.
    pub raw: [Vec<f64>; 2],
    /// Sanitized phase, two packets.
    pub sanitized: [Vec<f64>; 2],
    /// Injected STOs of the two packets, ns (ground truth).
    pub injected_sto_ns: [f64; 2],
}

/// One (AoA, ToF) point of panel (c) with its cluster assignment.
#[derive(Clone, Copy, Debug)]
pub struct ClusterPoint {
    /// Estimated AoA, degrees.
    pub aoa_deg: f64,
    /// Estimated relative ToF, nanoseconds.
    pub tof_ns: f64,
    /// Cluster index the point was assigned to.
    pub cluster: usize,
}

/// Panel (c): the scatter plus which cluster SpotFi declared direct.
#[derive(Clone, Debug)]
pub struct ClusterPanel {
    /// All per-packet estimates with cluster labels.
    pub points: Vec<ClusterPoint>,
    /// Index of the cluster SpotFi selected as the direct path.
    pub direct_cluster: usize,
    /// Ground-truth direct AoA at the AP, degrees.
    pub truth_aoa_deg: f64,
    /// Per-cluster (mean AoA, AoA std-norm, ToF std-norm, likelihood).
    pub cluster_stats: Vec<(f64, f64, f64, f64)>,
}

/// The complete Figure 5 result.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// Panels (a)/(b): phase before/after sanitization.
    pub phase: PhasePanel,
    /// Panel (c): the (AoA, ToF) scatter and selection.
    pub clusters: ClusterPanel,
}

/// Runs the Figure 5 experiment on an office link.
pub fn run(opts: &ExperimentOptions) -> Fig5Result {
    let deployment = Deployment::standard();
    let scenario = Scenario::office(&deployment);
    // A multipath-rich but LoS link: a central target heard broadside by
    // AP2 on the north wall — representative of the paper's Fig. 5 trace.
    let target = Point::new(9.5, 12.3);
    let ap = &scenario.aps[1];

    let packets_c = match opts.packets_override {
        Some(p) => p.max(20),
        None => FIG5C_PACKETS,
    };

    let mut rng = Rng::seed_from_u64(0xF1_6005);
    let trace = PacketTrace::generate(
        &scenario.floorplan,
        target,
        &ap.array,
        &scenario.trace,
        packets_c,
        &mut rng,
    )
    .expect("office link must be audible");

    // Panels (a)/(b): the first and last packets — SFO drift accumulates
    // across the trace, so their STOs differ the most (the paper's Fig. 5a
    // likewise shows two packets with visibly different offsets).
    let f_delta = scenario.trace.ofdm.subcarrier_spacing_hz;
    let unwrap_row = |csi: &spotfi_math::CMat| {
        let raw: Vec<f64> = (0..csi.cols()).map(|n| csi[(0, n)].arg()).collect();
        spotfi_math::unwrap::unwrapped(&raw)
    };
    let p0 = &trace.packets[0];
    let p1 = trace.packets.last().expect("at least one packet");
    let s0 = sanitize_csi(&p0.csi, f_delta).expect("sanitize p0");
    let s1 = sanitize_csi(&p1.csi, f_delta).expect("sanitize p1");
    let phase = PhasePanel {
        raw: [unwrap_row(&p0.csi), unwrap_row(&p1.csi)],
        sanitized: [unwrap_row(&s0.csi), unwrap_row(&s1.csi)],
        injected_sto_ns: [p0.injected_sto_s * 1e9, p1.injected_sto_s * 1e9],
    };

    // Panel (c): estimates over all packets, clustered.
    let spotfi = SpotFi::new(opts.runner.spotfi.clone());
    let analysis = spotfi
        .analyze_ap(&ApPackets {
            array: ap.array,
            packets: trace.packets.clone(),
        })
        .expect("analysis");
    let clustering = &analysis.clustering;
    let scored = score_clusters(clustering, &opts.runner.spotfi.likelihood);
    let direct_cluster = scored.first().map(|s| s.cluster_index).unwrap_or(0);

    let mut points = Vec::new();
    for (ci, c) in clustering.clusters.iter().enumerate() {
        for &m in &c.members {
            let e = analysis.path_estimates[m];
            points.push(ClusterPoint {
                aoa_deg: e.aoa_deg,
                tof_ns: e.tof_ns,
                cluster: ci,
            });
        }
    }
    let cluster_stats = clustering
        .clusters
        .iter()
        .enumerate()
        .map(|(ci, c)| {
            let lik = scored
                .iter()
                .find(|s| s.cluster_index == ci)
                .map(|s| s.likelihood)
                .unwrap_or(0.0);
            (
                c.mean_aoa_deg,
                c.aoa_variance_norm.sqrt(),
                c.tof_variance_norm.sqrt(),
                lik,
            )
        })
        .collect();

    Fig5Result {
        phase,
        clusters: ClusterPanel {
            points,
            direct_cluster,
            truth_aoa_deg: ap.array.aoa_from_deg(target),
            cluster_stats,
        },
    }
}

/// Renders the figure as text (summary + CSV panels).
pub fn render(r: &Fig5Result) -> String {
    let mut out = String::new();
    out.push_str("── Fig 5(a/b): CSI phase before/after sanitization ──\n");
    out.push_str(&format!(
        "injected STO: packet1={:.1} ns, packet2={:.1} ns\n",
        r.phase.injected_sto_ns[0], r.phase.injected_sto_ns[1]
    ));
    let max_raw_gap = max_gap(&r.phase.raw[0], &r.phase.raw[1]);
    let max_san_gap = max_gap(&r.phase.sanitized[0], &r.phase.sanitized[1]);
    out.push_str(&format!(
        "max inter-packet phase gap: raw={:.2} rad → sanitized={:.3} rad\n\n",
        max_raw_gap, max_san_gap
    ));
    out.push_str("subcarrier,raw_p1,raw_p2,sanitized_p1,sanitized_p2\n");
    for n in 0..r.phase.raw[0].len() {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4}\n",
            n,
            r.phase.raw[0][n],
            r.phase.raw[1][n],
            r.phase.sanitized[0][n],
            r.phase.sanitized[1][n]
        ));
    }

    out.push_str("\n── Fig 5(c): ToF-AoA clusters ──\n");
    out.push_str(&format!(
        "truth direct AoA = {:.1}°; SpotFi selected cluster {}\n",
        r.clusters.truth_aoa_deg, r.clusters.direct_cluster
    ));
    out.push_str("cluster,mean_aoa_deg,aoa_std_norm,tof_std_norm,likelihood\n");
    for (ci, (aoa, sa, st, lik)) in r.clusters.cluster_stats.iter().enumerate() {
        let mark = if ci == r.clusters.direct_cluster {
            " <- direct"
        } else {
            ""
        };
        out.push_str(&format!(
            "{},{:.2},{:.3},{:.3},{:.4}{}\n",
            ci, aoa, sa, st, lik, mark
        ));
    }
    out.push_str("\naoa_deg,tof_ns,cluster\n");
    for p in &r.clusters.points {
        out.push_str(&format!("{:.2},{:.2},{}\n", p.aoa_deg, p.tof_ns, p.cluster));
    }
    out
}

fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    // Compare shapes, ignoring any constant offset (carrier phase is
    // random per packet and irrelevant to ToF).
    let mean_a: f64 = a.iter().sum::<f64>() / a.len() as f64;
    let mean_b: f64 = b.iter().sum::<f64>() / b.len() as f64;
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - mean_a) - (y - mean_b)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitization_collapses_phase_gap() {
        let r = run(&ExperimentOptions::fast_test());
        let raw_gap = max_gap(&r.phase.raw[0], &r.phase.raw[1]);
        let san_gap = max_gap(&r.phase.sanitized[0], &r.phase.sanitized[1]);
        assert!(
            san_gap < raw_gap * 0.5 || san_gap < 0.3,
            "sanitization should collapse the gap: raw {} → {}",
            raw_gap,
            san_gap
        );
    }

    #[test]
    fn direct_cluster_is_near_truth() {
        let r = run(&ExperimentOptions::fast_test());
        let (aoa, ..) = r.clusters.cluster_stats[r.clusters.direct_cluster];
        assert!(
            (aoa - r.clusters.truth_aoa_deg).abs() < 15.0,
            "direct cluster at {} vs truth {}",
            aoa,
            r.clusters.truth_aoa_deg
        );
    }

    #[test]
    fn render_is_complete() {
        let r = run(&ExperimentOptions::fast_test());
        let text = render(&r);
        assert!(text.contains("Fig 5(a/b)"));
        assert!(text.contains("Fig 5(c)"));
        assert!(text.contains("<- direct"));
        // CSV rows for 30 subcarriers.
        assert!(text.lines().filter(|l| l.split(',').count() == 5).count() >= 30);
    }
}
