//! Clustering of per-packet (AoA, ToF) estimates (paper Sec. 3.2.3).
//!
//! Across packets, estimates from the same physical path cluster together in
//! the 2-D (AoA, ToF) plane, and the *direct* path's cluster is markedly
//! tighter (Fig. 5c). The paper uses "Gaussian Mean clustering with five
//! clusters"; we implement deterministic k-means — farthest-point seeding
//! followed by Lloyd iterations — on z-score-normalized coordinates, which
//! is the mean-field specialization of Gaussian-mixture EM and needs no
//! random initialization (so results are reproducible by construction).

use spotfi_math::stats::{mean_of, population_variance_of};

use crate::peaks::PathEstimate;

/// A cluster of path estimates: the per-path aggregate SpotFi scores.
#[derive(Clone, Debug)]
pub struct PathCluster {
    /// Mean AoA of member estimates, degrees.
    pub mean_aoa_deg: f64,
    /// Mean relative ToF, nanoseconds.
    pub mean_tof_ns: f64,
    /// Population standard deviation of member AoAs, degrees.
    pub aoa_std_deg: f64,
    /// Population standard deviation of member ToFs, nanoseconds.
    pub tof_std_ns: f64,
    /// Population variance of member AoAs (per-AP normalized units, used
    /// for reporting/debugging the clustering itself).
    pub aoa_variance_norm: f64,
    /// Population variance of member ToFs (normalized units).
    pub tof_variance_norm: f64,
    /// Mean ToF in normalized units (z-score of the cluster center).
    pub mean_tof_norm: f64,
    /// Number of member estimates.
    pub count: usize,
    /// Indices into the input estimate slice.
    pub members: Vec<usize>,
}

/// Normalization applied before clustering, kept so likelihoods and reports
/// can map between raw and normalized coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Normalization {
    /// Mean AoA of the input estimates, degrees.
    pub aoa_mean: f64,
    /// AoA standard deviation (≥ tiny floor), degrees.
    pub aoa_std: f64,
    /// Mean relative ToF, nanoseconds.
    pub tof_mean: f64,
    /// ToF standard deviation (≥ tiny floor), nanoseconds.
    pub tof_std: f64,
}

impl Normalization {
    /// Fits z-score normalization to the estimates. Degenerate spreads fall
    /// back to 1.0 so constant dimensions stay finite.
    pub fn fit(estimates: &[PathEstimate]) -> Self {
        let aoas = estimates.iter().map(|e| e.aoa_deg);
        let tofs = estimates.iter().map(|e| e.tof_ns);
        let aoa_std = population_variance_of(aoas.clone()).sqrt();
        let tof_std = population_variance_of(tofs.clone()).sqrt();
        Normalization {
            aoa_mean: mean_of(aoas),
            aoa_std: if aoa_std > 1e-9 { aoa_std } else { 1.0 },
            tof_mean: mean_of(tofs),
            tof_std: if tof_std > 1e-9 { tof_std } else { 1.0 },
        }
    }

    /// Maps an estimate to normalized coordinates.
    pub fn normalize(&self, e: &PathEstimate) -> (f64, f64) {
        (
            (e.aoa_deg - self.aoa_mean) / self.aoa_std,
            (e.tof_ns - self.tof_mean) / self.tof_std,
        )
    }
}

/// Result of clustering: clusters plus the normalization that was used.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// The clusters (non-empty only).
    pub clusters: Vec<PathCluster>,
    /// The normalization the clustering ran in.
    pub normalization: Normalization,
}

/// Clusters path estimates into (at most) `k` clusters.
///
/// Returns an empty clustering for an empty input. If there are fewer
/// distinct points than `k`, fewer clusters are returned.
pub fn cluster_estimates(
    estimates: &[PathEstimate],
    k: usize,
    max_iterations: usize,
) -> Clustering {
    let _span = spotfi_obs::span("stage.cluster");
    if spotfi_obs::enabled() {
        spotfi_obs::counter("cluster.runs", 1);
        spotfi_obs::counter("cluster.estimates_in", estimates.len() as u64);
    }
    let norm = Normalization::fit(estimates);
    if estimates.is_empty() || k == 0 {
        return Clustering {
            clusters: Vec::new(),
            normalization: norm,
        };
    }

    // Point `i` in normalized coordinates, computed where it is read: the
    // same bits every time, so no normalized copy of the estimates is kept.
    let pt = |i: usize| norm.normalize(&estimates[i]);
    let n = estimates.len();
    // Cluster indices are stored as `u32`; no input holds 2³² points.
    let k = k.min(n).min(u32::MAX as usize);

    // Farthest-point (k-means++-style but deterministic) seeding: start at
    // the point closest to the centroid, then repeatedly take the point
    // farthest from all chosen centers.
    let centroid = (
        mean_of((0..n).map(|i| pt(i).0)),
        mean_of((0..n).map(|i| pt(i).1)),
    );
    let mut centers: Vec<(f64, f64)> = Vec::with_capacity(k);
    let first = (0..n)
        .min_by(|&i, &j| {
            dist2(pt(i), centroid)
                .partial_cmp(&dist2(pt(j), centroid))
                .unwrap()
        })
        .unwrap();
    centers.push(pt(first));
    while centers.len() < k {
        let far = (0..n)
            .max_by(|&i, &j| {
                let (pi, pj) = (pt(i), pt(j));
                let di = centers
                    .iter()
                    .map(|&c| dist2(pi, c))
                    .fold(f64::MAX, f64::min);
                let dj = centers
                    .iter()
                    .map(|&c| dist2(pj, c))
                    .fold(f64::MAX, f64::min);
                di.partial_cmp(&dj).unwrap()
            })
            .unwrap();
        centers.push(pt(far));
    }

    // Lloyd iterations. `assignment[i]` is point `i`'s cluster index.
    let mut assignment = vec![0u32; n];
    let mut sums = vec![(0.0, 0.0, 0usize); k];
    let mut lloyd_iterations = 0u64;
    for _ in 0..max_iterations {
        lloyd_iterations += 1;
        let mut changed = false;
        for (i, p) in (0..n).map(pt).enumerate() {
            let best = (0..centers.len())
                .min_by(|&a, &b| {
                    dist2(p, centers[a])
                        .partial_cmp(&dist2(p, centers[b]))
                        .unwrap()
                })
                .unwrap() as u32;
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centers; reseed empty clusters at the farthest point.
        sums.fill((0.0, 0.0, 0));
        for (i, p) in (0..n).map(pt).enumerate() {
            let s = &mut sums[assignment[i] as usize];
            s.0 += p.0;
            s.1 += p.1;
            s.2 += 1;
        }
        for (c, s) in centers.iter_mut().zip(&sums) {
            if s.2 > 0 {
                *c = (s.0 / s.2 as f64, s.1 / s.2 as f64);
            }
        }
        for ci in 0..centers.len() {
            if sums[ci].2 == 0 {
                // Reseed at the point farthest from its current center.
                if let Some(far) = (0..n).max_by(|&i, &j| {
                    dist2(pt(i), centers[assignment[i] as usize])
                        .partial_cmp(&dist2(pt(j), centers[assignment[j] as usize]))
                        .unwrap()
                }) {
                    centers[ci] = pt(far);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    spotfi_obs::counter("cluster.lloyd_iterations", lloyd_iterations);

    // Build cluster summaries, each member list sized to its count.
    let mut clusters = Vec::with_capacity(k);
    for ci in 0..centers.len() as u32 {
        let in_cluster = || (0..n).filter(|&i| assignment[i] == ci);
        let count = in_cluster().count();
        if count == 0 {
            continue;
        }
        let mut members = Vec::with_capacity(count);
        members.extend(in_cluster());
        let aoas = members.iter().map(|&i| estimates[i].aoa_deg);
        let tofs = members.iter().map(|&i| estimates[i].tof_ns);
        let aoa_norm = members.iter().map(|&i| pt(i).0);
        let tof_norm = members.iter().map(|&i| pt(i).1);
        clusters.push(PathCluster {
            mean_aoa_deg: mean_of(aoas.clone()),
            mean_tof_ns: mean_of(tofs.clone()),
            aoa_std_deg: population_variance_of(aoas).sqrt(),
            tof_std_ns: population_variance_of(tofs).sqrt(),
            aoa_variance_norm: population_variance_of(aoa_norm),
            tof_variance_norm: population_variance_of(tof_norm.clone()),
            mean_tof_norm: mean_of(tof_norm),
            count,
            members,
        });
    }

    Clustering {
        clusters,
        normalization: norm,
    }
}

#[inline]
fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotfi_math::stats::{mean, population_std};

    fn est(aoa: f64, tof: f64) -> PathEstimate {
        PathEstimate {
            aoa_deg: aoa,
            tof_ns: tof,
            power: 1.0,
        }
    }

    /// Three well-separated blobs with distinct spreads.
    fn three_blobs() -> Vec<PathEstimate> {
        let mut v = Vec::new();
        // Tight blob at (-30, 20) — the "direct path".
        for i in 0..20 {
            let j = i as f64 * 0.05 - 0.5;
            v.push(est(-30.0 + j * 0.4, 20.0 + j));
        }
        // Loose blob at (10, 120).
        for i in 0..20 {
            let j = i as f64 * 0.5 - 5.0;
            v.push(est(10.0 + j, 120.0 + j * 3.0));
        }
        // Medium blob at (55, 240).
        for i in 0..15 {
            let j = i as f64 * 0.3 - 2.1;
            v.push(est(55.0 + j, 240.0 + j * 1.5));
        }
        v
    }

    #[test]
    fn recovers_three_blobs() {
        let c = cluster_estimates(&three_blobs(), 3, 100);
        assert_eq!(c.clusters.len(), 3);
        let mut means: Vec<f64> = c.clusters.iter().map(|cl| cl.mean_aoa_deg).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] + 30.0).abs() < 2.0, "{:?}", means);
        assert!((means[1] - 10.0).abs() < 2.0);
        assert!((means[2] - 55.0).abs() < 2.0);
        // Counts sum to total.
        let total: usize = c.clusters.iter().map(|cl| cl.count).sum();
        assert_eq!(total, 55);
    }

    #[test]
    fn tight_blob_has_smallest_variance() {
        let c = cluster_estimates(&three_blobs(), 3, 100);
        let tight = c
            .clusters
            .iter()
            .min_by(|a, b| {
                (a.mean_aoa_deg + 30.0)
                    .abs()
                    .partial_cmp(&(b.mean_aoa_deg + 30.0).abs())
                    .unwrap()
            })
            .unwrap();
        for cl in &c.clusters {
            if (cl.mean_aoa_deg - tight.mean_aoa_deg).abs() > 1.0 {
                assert!(
                    tight.aoa_variance_norm < cl.aoa_variance_norm,
                    "direct cluster should be tighter"
                );
            }
        }
    }

    #[test]
    fn k_larger_than_points() {
        let pts = vec![est(0.0, 0.0), est(10.0, 100.0)];
        let c = cluster_estimates(&pts, 5, 100);
        assert!(c.clusters.len() <= 2);
        assert_eq!(c.clusters.iter().map(|cl| cl.count).sum::<usize>(), 2);
    }

    #[test]
    fn empty_input() {
        let c = cluster_estimates(&[], 5, 100);
        assert!(c.clusters.is_empty());
    }

    #[test]
    fn identical_points_single_effective_cluster() {
        let pts = vec![est(5.0, 50.0); 10];
        let c = cluster_estimates(&pts, 3, 100);
        // All points identical: every nonempty cluster has zero variance and
        // the same mean.
        for cl in &c.clusters {
            assert!((cl.mean_aoa_deg - 5.0).abs() < 1e-9);
            assert!(cl.aoa_variance_norm < 1e-12);
        }
    }

    #[test]
    fn deterministic() {
        let a = cluster_estimates(&three_blobs(), 3, 100);
        let b = cluster_estimates(&three_blobs(), 3, 100);
        for (x, y) in a.clusters.iter().zip(&b.clusters) {
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn normalization_roundtrip() {
        let pts = three_blobs();
        let n = Normalization::fit(&pts);
        // Normalized data has ~zero mean, ~unit std.
        let normed: Vec<(f64, f64)> = pts.iter().map(|e| n.normalize(e)).collect();
        let ma = mean(&normed.iter().map(|p| p.0).collect::<Vec<_>>());
        let sa = population_std(&normed.iter().map(|p| p.0).collect::<Vec<_>>());
        assert!(ma.abs() < 1e-9);
        assert!((sa - 1.0).abs() < 1e-9);
    }

    /// The slice mean as it ran before it wrapped the iterator form.
    fn slice_mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// The slice population variance as it ran before it wrapped the
    /// iterator form.
    fn slice_variance(xs: &[f64]) -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let m = slice_mean(xs);
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
    }

    /// `cluster_estimates` as it ran on copied vectors: the normalized
    /// points collected once, every mean and variance over a collected
    /// `Vec`, `usize` assignments, growing cluster and member lists.
    fn copying_cluster_estimates(
        estimates: &[PathEstimate],
        k: usize,
        max_iterations: usize,
    ) -> Clustering {
        let aoas: Vec<f64> = estimates.iter().map(|e| e.aoa_deg).collect();
        let tofs: Vec<f64> = estimates.iter().map(|e| e.tof_ns).collect();
        let (aoa_std, tof_std) = (slice_variance(&aoas).sqrt(), slice_variance(&tofs).sqrt());
        let norm = Normalization {
            aoa_mean: slice_mean(&aoas),
            aoa_std: if aoa_std > 1e-9 { aoa_std } else { 1.0 },
            tof_mean: slice_mean(&tofs),
            tof_std: if tof_std > 1e-9 { tof_std } else { 1.0 },
        };
        if estimates.is_empty() || k == 0 {
            return Clustering {
                clusters: Vec::new(),
                normalization: norm,
            };
        }
        let pts: Vec<(f64, f64)> = estimates.iter().map(|e| norm.normalize(e)).collect();
        let k = k.min(pts.len());
        let centroid = (
            slice_mean(&pts.iter().map(|p| p.0).collect::<Vec<_>>()),
            slice_mean(&pts.iter().map(|p| p.1).collect::<Vec<_>>()),
        );
        let mut centers: Vec<(f64, f64)> = Vec::with_capacity(k);
        let first = (0..pts.len())
            .min_by(|&i, &j| {
                dist2(pts[i], centroid)
                    .partial_cmp(&dist2(pts[j], centroid))
                    .unwrap()
            })
            .unwrap();
        centers.push(pts[first]);
        while centers.len() < k {
            let far = (0..pts.len())
                .max_by(|&i, &j| {
                    let di = centers
                        .iter()
                        .map(|&c| dist2(pts[i], c))
                        .fold(f64::MAX, f64::min);
                    let dj = centers
                        .iter()
                        .map(|&c| dist2(pts[j], c))
                        .fold(f64::MAX, f64::min);
                    di.partial_cmp(&dj).unwrap()
                })
                .unwrap();
            centers.push(pts[far]);
        }
        let mut assignment = vec![0usize; pts.len()];
        for _ in 0..max_iterations {
            let mut changed = false;
            for (i, &p) in pts.iter().enumerate() {
                let best = (0..centers.len())
                    .min_by(|&a, &b| {
                        dist2(p, centers[a])
                            .partial_cmp(&dist2(p, centers[b]))
                            .unwrap()
                    })
                    .unwrap();
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            let mut sums = vec![(0.0, 0.0, 0usize); centers.len()];
            for (i, &p) in pts.iter().enumerate() {
                let s = &mut sums[assignment[i]];
                s.0 += p.0;
                s.1 += p.1;
                s.2 += 1;
            }
            for (c, s) in centers.iter_mut().zip(&sums) {
                if s.2 > 0 {
                    *c = (s.0 / s.2 as f64, s.1 / s.2 as f64);
                }
            }
            for ci in 0..centers.len() {
                if sums[ci].2 == 0 {
                    if let Some(far) = (0..pts.len()).max_by(|&i, &j| {
                        dist2(pts[i], centers[assignment[i]])
                            .partial_cmp(&dist2(pts[j], centers[assignment[j]]))
                            .unwrap()
                    }) {
                        centers[ci] = pts[far];
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let mut clusters = Vec::new();
        for ci in 0..centers.len() {
            let members: Vec<usize> = (0..pts.len()).filter(|&i| assignment[i] == ci).collect();
            if members.is_empty() {
                continue;
            }
            let aoas: Vec<f64> = members.iter().map(|&i| estimates[i].aoa_deg).collect();
            let tofs: Vec<f64> = members.iter().map(|&i| estimates[i].tof_ns).collect();
            let aoa_norm: Vec<f64> = members.iter().map(|&i| pts[i].0).collect();
            let tof_norm: Vec<f64> = members.iter().map(|&i| pts[i].1).collect();
            clusters.push(PathCluster {
                mean_aoa_deg: slice_mean(&aoas),
                mean_tof_ns: slice_mean(&tofs),
                aoa_std_deg: slice_variance(&aoas).sqrt(),
                tof_std_ns: slice_variance(&tofs).sqrt(),
                aoa_variance_norm: slice_variance(&aoa_norm),
                tof_variance_norm: slice_variance(&tof_norm),
                mean_tof_norm: slice_mean(&tof_norm),
                count: members.len(),
                members,
            });
        }
        Clustering {
            clusters,
            normalization: norm,
        }
    }

    #[test]
    fn copy_free_clustering_is_bitwise_the_copying_one() {
        // Seeded estimate sets (blobs with jitter, 1–80 estimates), sets of
        // repeated points whose farthest-point seeds coincide, so clusters
        // come up empty and are reseeded, a single estimate, and cluster
        // counts above the point count: every field, by `to_bits`, and
        // every member list.
        let mut rng = spotfi_channel::Rng::seed_from_u64(0xC1u64);
        let mut sets: Vec<Vec<PathEstimate>> = Vec::new();
        for n in [1usize, 2, 5, 13, 40, 80] {
            let blobs: Vec<(f64, f64)> = (0..3)
                .map(|_| (rng.gen_range(-80.0..80.0), rng.gen_range(-50.0..300.0)))
                .collect();
            sets.push(
                (0..n)
                    .map(|i| {
                        let (a, t) = blobs[i % 3];
                        est(a + rng.gen_range(-4.0..4.0), t + rng.gen_range(-20.0..20.0))
                    })
                    .collect(),
            );
        }
        sets.push(vec![est(5.0, 50.0); 10]);
        let mut two_spots = vec![est(-20.0, 40.0); 6];
        two_spots.extend(vec![est(35.0, 160.0); 4]);
        sets.push(two_spots);
        sets.push(Vec::new());
        let bits = |c: &Clustering| -> Vec<u64> {
            let n = &c.normalization;
            let mut v = vec![
                n.aoa_mean.to_bits(),
                n.aoa_std.to_bits(),
                n.tof_mean.to_bits(),
                n.tof_std.to_bits(),
            ];
            for cl in &c.clusters {
                v.extend([
                    cl.mean_aoa_deg.to_bits(),
                    cl.mean_tof_ns.to_bits(),
                    cl.aoa_std_deg.to_bits(),
                    cl.tof_std_ns.to_bits(),
                    cl.aoa_variance_norm.to_bits(),
                    cl.tof_variance_norm.to_bits(),
                    cl.mean_tof_norm.to_bits(),
                    cl.count as u64,
                ]);
            }
            v
        };
        let members = |c: &Clustering| -> Vec<Vec<usize>> {
            c.clusters.iter().map(|cl| cl.members.clone()).collect()
        };
        for (s, set) in sets.iter().enumerate() {
            for k in [1usize, 3, 6, 50] {
                for iterations in [1usize, 100] {
                    let got = cluster_estimates(set, k, iterations);
                    let want = copying_cluster_estimates(set, k, iterations);
                    let what = format!(
                        "set {s} ({} estimates), k {k}, {iterations} iterations",
                        set.len()
                    );
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    assert_eq!(members(&got), members(&want), "{what}");
                    assert!(got.clusters.capacity() <= k, "{what}");
                }
            }
        }
    }

    #[test]
    fn members_partition_input() {
        let pts = three_blobs();
        let c = cluster_estimates(&pts, 3, 100);
        let mut seen = vec![false; pts.len()];
        for cl in &c.clusters {
            for &m in &cl.members {
                assert!(!seen[m], "point {} in two clusters", m);
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
