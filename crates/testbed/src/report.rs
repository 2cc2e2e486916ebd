//! Reporting: CDF series, summary statistics, and aligned text tables.
//!
//! Every figure in the paper's evaluation is a CDF of some error metric;
//! [`FigureSeries`] captures one labeled CDF curve, and [`render_figure`]
//! prints a set of curves the way the paper reports them (median and
//! 80th percentile called out, full curve available as CSV).

use spotfi_math::stats::Ecdf;

/// One labeled CDF curve of a figure.
#[derive(Clone, Debug)]
pub struct FigureSeries {
    /// Legend label, e.g. `"SpotFi"` or `"ArrayTrack"`.
    pub label: String,
    /// Raw error samples (meters or degrees).
    pub samples: Vec<f64>,
}

impl FigureSeries {
    /// Creates a series; drops non-finite samples.
    pub fn new(label: impl Into<String>, samples: impl IntoIterator<Item = f64>) -> Self {
        FigureSeries {
            label: label.into(),
            samples: samples.into_iter().filter(|s| s.is_finite()).collect(),
        }
    }

    /// `true` if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The empirical CDF (panics on empty series).
    pub fn ecdf(&self) -> Ecdf {
        Ecdf::new(&self.samples)
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        self.ecdf().median()
    }

    /// A given quantile (`q ∈ [0, 1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        self.ecdf().quantile(q)
    }
}

/// Renders a figure as text: a summary table (median / 80th / 95th
/// percentile per series) followed by a CSV of the CDF curves, `points`
/// rows.
pub fn render_figure(title: &str, unit: &str, series: &[FigureSeries], points: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("── {} ──\n", title));
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>8} {:>7}\n",
        "series",
        format!("med({})", unit),
        "p80",
        "p95",
        "n"
    ));
    for s in series {
        if s.is_empty() {
            out.push_str(&format!("{:<24} {:>8}\n", s.label, "(empty)"));
            continue;
        }
        let e = s.ecdf();
        out.push_str(&format!(
            "{:<24} {:>8.2} {:>8.2} {:>8.2} {:>7}\n",
            s.label,
            e.median(),
            e.quantile(0.8),
            e.quantile(0.95),
            e.len()
        ));
    }
    out.push_str("\ncdf_fraction");
    for s in series {
        out.push_str(&format!(",{}", s.label.replace(',', ";")));
    }
    out.push('\n');
    let fractions: Vec<f64> = (0..points)
        .map(|i| i as f64 / (points - 1) as f64)
        .collect();
    for &q in &fractions {
        out.push_str(&format!("{:.3}", q));
        for s in series {
            if s.is_empty() {
                out.push(',');
            } else {
                out.push_str(&format!(",{:.3}", s.ecdf().quantile(q)));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_drops_nonfinite() {
        let s = FigureSeries::new("x", vec![1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(s.samples.len(), 3);
        assert!((s.median() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_summary_and_csv() {
        let a = FigureSeries::new("SpotFi", (1..=100).map(|i| i as f64 / 100.0));
        let b = FigureSeries::new("ArrayTrack", (1..=100).map(|i| i as f64 / 25.0));
        let r = render_figure("Fig 7(a): office", "m", &[a, b], 11);
        assert!(r.contains("Fig 7(a): office"));
        assert!(r.contains("SpotFi"));
        assert!(r.contains("ArrayTrack"));
        assert!(r.contains("cdf_fraction,SpotFi,ArrayTrack"));
        // 11 CSV rows + headers.
        assert_eq!(
            r.lines()
                .filter(|l| l.starts_with("0.") || l.starts_with("1."))
                .count(),
            11
        );
    }

    #[test]
    fn empty_series_renders_gracefully() {
        let s = FigureSeries::new("empty", Vec::<f64>::new());
        let r = render_figure("t", "m", std::slice::from_ref(&s), 5);
        assert!(r.contains("(empty)"));
    }

    #[test]
    fn quantiles_match_paper_conventions() {
        let s = FigureSeries::new("x", (1..=10).map(|i| i as f64));
        assert!((s.quantile(0.8) - 8.2).abs() < 1e-9);
        assert!((s.median() - 5.5).abs() < 1e-9);
    }
}

/// Renders a 2-D field (row-major `values[row * cols + col]`) as an ASCII
/// heatmap using a log-scaled shade ramp. Used to visualize MUSIC
/// pseudospectra in examples and the CLI.
pub fn ascii_heatmap(
    values: &[f64],
    rows: usize,
    cols: usize,
    max_width: usize,
    max_height: usize,
) -> String {
    assert_eq!(values.len(), rows * cols, "heatmap shape mismatch");
    const RAMP: &[u8] = b" .:-=+*#%@";
    let out_h = rows.min(max_height).max(1);
    let out_w = cols.min(max_width).max(1);

    let lo = values
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min)
        .max(1e-300);
    let hi = values
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(lo * 1.0000001);
    let (llo, lhi) = (lo.ln(), hi.ln());

    let mut out = String::with_capacity((out_w + 1) * out_h);
    for r in 0..out_h {
        for c in 0..out_w {
            // Max-pool the source cells mapping into this output cell, so
            // sharp peaks survive downsampling.
            let r0 = r * rows / out_h;
            let r1 = ((r + 1) * rows / out_h).max(r0 + 1);
            let c0 = c * cols / out_w;
            let c1 = ((c + 1) * cols / out_w).max(c0 + 1);
            let mut v = f64::NEG_INFINITY;
            for rr in r0..r1 {
                for cc in c0..c1 {
                    v = v.max(values[rr * cols + cc]);
                }
            }
            let t = ((v.max(lo).ln() - llo) / (lhi - llo)).clamp(0.0, 1.0);
            let idx = (t * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[idx] as char);
        }
        out.push('\n');
    }
    out
}

/// Renders an observability snapshot as an aligned text table: one row per
/// pipeline stage span (total / mean time and share of the summed stage
/// time), followed by the recorded counters. Used by the CLI's
/// `--diagnostics` output and available to any experiment report.
pub fn render_stage_breakdown(snap: &spotfi_obs::Snapshot) -> String {
    let mut spans: Vec<(&str, &spotfi_obs::Metric)> = snap
        .metrics
        .iter()
        .filter(|(_, m)| m.kind == spotfi_obs::Kind::Time)
        .map(|(n, m)| (n.as_str(), m))
        .collect();
    spans.sort_by_key(|(_, m)| std::cmp::Reverse(m.total));
    let stage_sum: i128 = spans
        .iter()
        .filter(|(n, _)| n.starts_with("stage."))
        .map(|(_, m)| m.total)
        .sum();

    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total(ms)", "mean(µs)", "stage%"
    ));
    for (name, m) in &spans {
        let share = if name.starts_with("stage.") && stage_sum > 0 {
            format!("{:.1}", 100.0 * m.total as f64 / stage_sum as f64)
        } else {
            "—".to_string()
        };
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.3} {:>12.1} {:>7}\n",
            name,
            m.updates,
            m.total as f64 / 1e6,
            m.mean() / 1e3,
            share
        ));
    }

    let counters: Vec<(&str, &spotfi_obs::Metric)> = snap
        .metrics
        .iter()
        .filter(|(_, m)| m.kind == spotfi_obs::Kind::Counter)
        .map(|(n, m)| (n.as_str(), m))
        .collect();
    if !counters.is_empty() {
        out.push_str(&format!("\n{:<24} {:>12}\n", "counter", "total"));
        for (name, m) in counters {
            out.push_str(&format!("{:<24} {:>12}\n", name, m.total));
        }
    }
    out
}

#[cfg(test)]
mod stage_breakdown_tests {
    use super::render_stage_breakdown;

    #[test]
    fn breakdown_lists_spans_and_counters() {
        // Build a snapshot by hand through the recorder (serialized by
        // giving the metrics unique names, so parallel tests don't collide).
        spotfi_obs::set_enabled(true);
        spotfi_obs::time_ns("stage.report_test", 2_000_000);
        spotfi_obs::counter("report_test.events", 5);
        spotfi_obs::set_enabled(false);
        let snap = spotfi_obs::snapshot();
        let table = render_stage_breakdown(&snap);
        assert!(table.contains("stage.report_test"));
        assert!(table.contains("report_test.events"));
        assert!(table.contains("span"));
        assert!(table.contains("counter"));
    }
}

#[cfg(test)]
mod heatmap_tests {
    use super::ascii_heatmap;

    #[test]
    fn peak_is_brightest_cell() {
        let mut values = vec![1.0; 20 * 30];
        values[7 * 30 + 21] = 1e6;
        let map = ascii_heatmap(&values, 20, 30, 30, 20);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 20);
        assert_eq!(lines[7].as_bytes()[21], b'@');
        // Background is the dimmest shade.
        assert_eq!(lines[0].as_bytes()[0], b' ');
    }

    #[test]
    fn downsampling_preserves_peaks() {
        let mut values = vec![1.0; 100 * 200];
        values[50 * 200 + 100] = 1e9;
        let map = ascii_heatmap(&values, 100, 200, 40, 10);
        assert!(map.contains('@'), "peak lost in max-pooling");
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l.len() == 40));
    }

    #[test]
    fn constant_field_renders() {
        let values = vec![3.0; 4 * 4];
        let map = ascii_heatmap(&values, 4, 4, 4, 4);
        assert_eq!(map.lines().count(), 4);
    }
}
