//! Local optimization routines.
//!
//! SpotFi's localization objective (Eq. 9) is non-convex in the target
//! coordinates; the paper attacks it with sequential convex optimization. We
//! use the deterministic equivalent for a 2-D problem: a coarse grid for
//! global structure followed by a local polish. This module supplies the
//! local methods:
//!
//! * [`nelder_mead_2d`] — derivative-free 2-D simplex minimization.
//! * [`gauss_newton`] — damped Gauss–Newton for small least-squares systems
//!   with numerical Jacobians (Levenberg-style damping for robustness).

use crate::realmat::RMat;

/// Minimizes a 2-D function with the Nelder–Mead simplex method starting
/// from `x0` with initial simplex scale `scale`. Returns `(x_min, f_min)`.
pub fn nelder_mead_2d(
    mut f: impl FnMut([f64; 2]) -> f64,
    x0: [f64; 2],
    scale: f64,
    max_iter: usize,
    tol: f64,
) -> ([f64; 2], f64) {
    let mut pts = [x0, [x0[0] + scale, x0[1]], [x0[0], x0[1] + scale]];
    let mut vals = [f(pts[0]), f(pts[1]), f(pts[2])];

    for _ in 0..max_iter {
        // Order: best, middle, worst.
        let mut order = [0usize, 1, 2];
        order.sort_by(|&i, &j| vals[i].partial_cmp(&vals[j]).unwrap());
        let (b, m, w) = (order[0], order[1], order[2]);

        if (vals[w] - vals[b]).abs() < tol * (1.0 + vals[b].abs()) {
            break;
        }

        let centroid = [0.5 * (pts[b][0] + pts[m][0]), 0.5 * (pts[b][1] + pts[m][1])];
        let reflect = [
            centroid[0] + (centroid[0] - pts[w][0]),
            centroid[1] + (centroid[1] - pts[w][1]),
        ];
        let fr = f(reflect);

        if fr < vals[b] {
            // Try expansion.
            let expand = [
                centroid[0] + 2.0 * (centroid[0] - pts[w][0]),
                centroid[1] + 2.0 * (centroid[1] - pts[w][1]),
            ];
            let fe = f(expand);
            if fe < fr {
                pts[w] = expand;
                vals[w] = fe;
            } else {
                pts[w] = reflect;
                vals[w] = fr;
            }
        } else if fr < vals[m] {
            pts[w] = reflect;
            vals[w] = fr;
        } else {
            // Contract toward the better side.
            let contract = [
                centroid[0] + 0.5 * (pts[w][0] - centroid[0]),
                centroid[1] + 0.5 * (pts[w][1] - centroid[1]),
            ];
            let fc = f(contract);
            if fc < vals[w] {
                pts[w] = contract;
                vals[w] = fc;
            } else {
                // Shrink toward the best point.
                for i in 0..3 {
                    if i != b {
                        pts[i] = [
                            pts[b][0] + 0.5 * (pts[i][0] - pts[b][0]),
                            pts[b][1] + 0.5 * (pts[i][1] - pts[b][1]),
                        ];
                        vals[i] = f(pts[i]);
                    }
                }
            }
        }
    }

    let mut best = 0;
    for i in 1..3 {
        if vals[i] < vals[best] {
            best = i;
        }
    }
    (pts[best], vals[best])
}

/// Damped Gauss–Newton for `min ‖r(x)‖²` with numerical Jacobians.
///
/// `residuals(x, out)` writes the residual vector into `out`. The method
/// iterates `x ← x − (JᵀJ + λI)⁻¹ Jᵀ r` with Levenberg-style adaptation of
/// `λ`: successful steps shrink it, failed steps grow it. Returns the final
/// parameter vector and sum of squared residuals.
pub fn gauss_newton(
    mut residuals: impl FnMut(&[f64], &mut Vec<f64>),
    x0: &[f64],
    max_iter: usize,
    tol: f64,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut r = Vec::new();
    residuals(&x, &mut r);
    let m = r.len();
    let mut cost: f64 = r.iter().map(|v| v * v).sum();
    let mut lambda = 1e-3;

    let mut r_pert = Vec::with_capacity(m);
    for _ in 0..max_iter {
        // Numerical Jacobian, forward differences.
        let mut jac = RMat::zeros(m, n);
        for j in 0..n {
            let h = 1e-6 * (1.0 + x[j].abs());
            let saved = x[j];
            x[j] = saved + h;
            residuals(&x, &mut r_pert);
            x[j] = saved;
            for i in 0..m {
                jac[(i, j)] = (r_pert[i] - r[i]) / h;
            }
        }

        // Solve (JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr, retrying with larger λ.
        let jtj = jac.gram();
        let jtr = jac.t_mul_vec(&r);
        let mut improved = false;
        for _try in 0..8 {
            let mut a = jtj.clone();
            for d in 0..n {
                a[(d, d)] += lambda * jtj[(d, d)].max(1e-12);
            }
            let Some(delta) = a.solve(&jtr) else {
                lambda *= 10.0;
                continue;
            };
            let x_new: Vec<f64> = x.iter().zip(&delta).map(|(xi, di)| xi - di).collect();
            residuals(&x_new, &mut r_pert);
            let cost_new: f64 = r_pert.iter().map(|v| v * v).sum();
            if cost_new < cost {
                x = x_new;
                std::mem::swap(&mut r, &mut r_pert);
                let rel = (cost - cost_new) / cost.max(1e-300);
                cost = cost_new;
                lambda = (lambda * 0.3).max(1e-12);
                improved = true;
                if rel < tol {
                    return (x, cost);
                }
                break;
            }
            lambda *= 10.0;
        }
        if !improved {
            break;
        }
    }
    (x, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_quadratic_bowl() {
        let ([x, y], f) = nelder_mead_2d(
            |[x, y]| (x - 1.0).powi(2) + 2.0 * (y + 3.0).powi(2),
            [10.0, 10.0],
            1.0,
            500,
            1e-14,
        );
        assert!((x - 1.0).abs() < 1e-4, "x = {}", x);
        assert!((y + 3.0).abs() < 1e-4, "y = {}", y);
        assert!(f < 1e-7);
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let ([x, y], _) = nelder_mead_2d(
            |[x, y]| (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2),
            [-1.2, 1.0],
            0.5,
            5000,
            1e-16,
        );
        assert!((x - 1.0).abs() < 1e-3, "x = {}", x);
        assert!((y - 1.0).abs() < 1e-3, "y = {}", y);
    }

    #[test]
    fn gauss_newton_line_fit() {
        // Fit y = a·x + b to exact data; residuals are linear in params so GN
        // converges in one step.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let (p, cost) = gauss_newton(
            |p, out| {
                out.clear();
                for (x, y) in xs.iter().zip(&ys) {
                    out.push(p[0] * x + p[1] - y);
                }
            },
            &[0.0, 0.0],
            50,
            1e-14,
        );
        assert!((p[0] - 2.0).abs() < 1e-6, "a = {}", p[0]);
        assert!((p[1] - 1.0).abs() < 1e-6, "b = {}", p[1]);
        assert!(cost < 1e-10);
    }

    #[test]
    fn gauss_newton_nonlinear_range() {
        // Recover a 2-D point from noiseless range measurements to three
        // anchors — the same structure as localization.
        let anchors = [[0.0f64, 0.0], [10.0, 0.0], [0.0, 10.0]];
        let truth = [3.0f64, 4.0];
        let ranges: Vec<f64> = anchors
            .iter()
            .map(|a| ((truth[0] - a[0]).powi(2) + (truth[1] - a[1]).powi(2)).sqrt())
            .collect();
        let (p, cost) = gauss_newton(
            |p, out| {
                out.clear();
                for (a, r) in anchors.iter().zip(&ranges) {
                    let d = ((p[0] - a[0]).powi(2) + (p[1] - a[1]).powi(2)).sqrt();
                    out.push(d - r);
                }
            },
            &[5.0, 5.0],
            100,
            1e-15,
        );
        assert!((p[0] - 3.0).abs() < 1e-5);
        assert!((p[1] - 4.0).abs() < 1e-5);
        assert!(cost < 1e-8);
    }
}
