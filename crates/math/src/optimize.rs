//! Local optimization routines.
//!
//! SpotFi's localization objective (Eq. 9) is non-convex in the target
//! coordinates; the paper attacks it with sequential convex optimization. We
//! use the deterministic equivalent for a 2-D problem: a coarse grid for
//! global structure followed by a local polish. This module supplies the
//! polish: [`nelder_mead_2d`], a derivative-free 2-D simplex minimization.

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
}
