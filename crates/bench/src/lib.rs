//! A small in-repo benchmark harness (no external deps).
//!
//! The crates-io registry is unreachable in this build environment, so the
//! workspace cannot use `criterion`. This harness covers what the perf
//! trajectory needs: warm up, run a measured batch of iterations, report
//! robust statistics (median of per-iteration wall times across batches),
//! and serialize everything to a JSON report (`BENCH_pipeline.json`).

use std::time::Instant;

/// One benchmark's timing summary. All times are nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name, e.g. `"music_spectrum_181x251"`.
    pub name: String,
    /// Median per-iteration time across batches, ns.
    pub median_ns: f64,
    /// Minimum per-iteration time across batches, ns.
    pub min_ns: f64,
    /// Mean per-iteration time across batches, ns.
    pub mean_ns: f64,
    /// Mean after dropping the fastest and slowest 20% of batches, ns.
    ///
    /// On shared/1-core CI hosts individual batches absorb scheduler noise
    /// (a preemption mid-batch inflates that batch by milliseconds); the
    /// trimmed mean discards those tails so run-to-run medians stay stable.
    pub trimmed_mean_ns: f64,
    /// Total iterations measured (across all batches).
    pub iterations: u64,
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Target wall time spent measuring one benchmark, seconds.
    pub measure_s: f64,
    /// Target wall time spent warming up, seconds.
    pub warmup_s: f64,
    /// Iteration floor for the warmup phase, applied on top of `warmup_s`.
    ///
    /// Purely time-based warmup under-warms slow end-to-end benchmarks: a
    /// 3 ms iteration can exit a 50 ms warmup after a dozen cold-cache runs
    /// and leave the first measured batch slower than the rest. The warmup
    /// loop runs until *both* the time budget and this floor are met, so
    /// every benchmark enters measurement with the same minimum number of
    /// fully-warm passes regardless of its per-iteration cost.
    pub min_warmup_iters: u64,
    /// Number of measured batches (the statistic is computed across them).
    pub batches: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            measure_s: 1.0,
            warmup_s: 0.2,
            min_warmup_iters: 10,
            batches: 10,
        }
    }
}

impl BenchConfig {
    /// A quicker profile (~5× faster than default) for smoke runs.
    pub fn fast() -> Self {
        BenchConfig {
            measure_s: 0.2,
            warmup_s: 0.05,
            min_warmup_iters: 5,
            batches: 5,
        }
    }
}

/// Times `f`, returning robust per-iteration statistics.
///
/// The function's return value is passed through [`std::hint::black_box`]
/// so the optimizer cannot delete the computation.
pub fn bench<T, F: FnMut() -> T>(cfg: &BenchConfig, name: &str, mut f: F) -> BenchResult {
    // Warmup: also estimates the per-iteration cost. Runs until both the
    // time budget and the iteration floor are satisfied (see
    // [`BenchConfig::min_warmup_iters`]).
    let min_warmup = cfg.min_warmup_iters.max(1);
    let warmup_start = Instant::now();
    let mut warmup_iters = 0u64;
    while warmup_start.elapsed().as_secs_f64() < cfg.warmup_s || warmup_iters < min_warmup {
        std::hint::black_box(f());
        warmup_iters += 1;
    }
    let est_ns = (warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64).max(1.0);

    // Split the measurement budget into batches of ≥ 1 iteration.
    let total_iters = ((cfg.measure_s * 1e9 / est_ns).ceil() as u64).max(cfg.batches as u64);
    let per_batch = (total_iters / cfg.batches as u64).max(1);

    let mut batch_ns: Vec<f64> = Vec::with_capacity(cfg.batches);
    let mut iterations = 0u64;
    for _ in 0..cfg.batches {
        let t = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(f());
        }
        batch_ns.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
        iterations += per_batch;
    }
    batch_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_ns = if batch_ns.len() % 2 == 1 {
        batch_ns[batch_ns.len() / 2]
    } else {
        0.5 * (batch_ns[batch_ns.len() / 2 - 1] + batch_ns[batch_ns.len() / 2])
    };
    BenchResult {
        name: name.to_string(),
        median_ns,
        min_ns: batch_ns[0],
        mean_ns: batch_ns.iter().sum::<f64>() / batch_ns.len() as f64,
        trimmed_mean_ns: trimmed_mean(&batch_ns),
        iterations,
    }
}

/// Mean of `sorted` after dropping the lowest and highest 20% of entries
/// (`floor(len / 5)` from each end; degenerates to the plain mean below
/// 5 entries). Input must be sorted ascending.
pub fn trimmed_mean(sorted: &[f64]) -> f64 {
    let trim = sorted.len() / 5;
    let kept = &sorted[trim..sorted.len() - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Serializes results plus free-form metadata to a JSON object:
/// `{"meta": {...}, "benchmarks": [{"name": ..., "median_ns": ...}, ...]}`.
///
/// Metadata values are emitted verbatim, so pass valid JSON fragments
/// (numbers, `"quoted strings"`, booleans).
pub fn to_json(meta: &[(&str, String)], results: &[BenchResult]) -> String {
    to_json_with_skipped(meta, results, &[])
}

/// [`to_json`] plus benchmarks that were deliberately not run. Each
/// `(name, reason)` pair is emitted into the same `benchmarks` array as
/// `{"name": ..., "status": "<reason>"}` — no timing fields, so
/// [`median_from_report`] returns `None` for it and downstream tooling can
/// tell "skipped on purpose" apart from "silently missing". Used when
/// thread-budget benches are pointless on the host (e.g. a `*_t8` run on a
/// 1-core box is recorded as `"skipped_oversubscribed"`).
pub fn to_json_with_skipped(
    meta: &[(&str, String)],
    results: &[BenchResult],
    skipped: &[(&str, &str)],
) -> String {
    let mut out = String::from("{\n  \"meta\": {\n");
    for (i, (k, v)) in meta.iter().enumerate() {
        let comma = if i + 1 == meta.len() { "" } else { "," };
        out.push_str(&format!("    {}: {}{}\n", json_string(k), v, comma));
    }
    out.push_str("  },\n  \"benchmarks\": [\n");
    let entries = results.len() + skipped.len();
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == entries { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": {}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"mean_ns\": {:.1}, \"trimmed_mean_ns\": {:.1}, \"iterations\": {}}}{}\n",
            json_string(&r.name),
            r.median_ns,
            r.min_ns,
            r.mean_ns,
            r.trimmed_mean_ns,
            r.iterations,
            comma
        ));
    }
    for (i, (name, reason)) in skipped.iter().enumerate() {
        let comma = if results.len() + i + 1 == entries {
            ""
        } else {
            ","
        };
        out.push_str(&format!(
            "    {{\"name\": {}, \"status\": {}}}{}\n",
            json_string(name),
            json_string(reason),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the `median_ns` of benchmark `name` from a report produced by
/// [`to_json`].
///
/// Line-oriented scan, not a general JSON parser — it understands exactly
/// the one-benchmark-per-line format this harness writes, which is all the
/// CI regression smoke check needs (and keeps the workspace dependency-free).
pub fn median_from_report(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": {}", json_string(name));
    for line in json.lines() {
        if !line.contains(&needle) {
            continue;
        }
        let key = "\"median_ns\": ";
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        return rest[..end].parse().ok();
    }
    None
}

/// Extracts a numeric `meta` value (e.g. a throughput figure) from a
/// report produced by [`to_json`].
///
/// Matches the `"key": value` line the harness writes into the `meta`
/// object; values written as quoted strings (`"12345.6"`) are accepted
/// too, since throughput metas are formatted that way. Same line-oriented
/// contract as [`median_from_report`].
pub fn meta_number_from_report(json: &str, key: &str) -> Option<f64> {
    let needle = format!("{}: ", json_string(key));
    for line in json.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix(&needle) else {
            continue;
        };
        let rest = rest.trim_end_matches(',').trim().trim_matches('"');
        return rest.parse().ok();
    }
    None
}

/// Escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let cfg = BenchConfig {
            measure_s: 0.02,
            warmup_s: 0.005,
            min_warmup_iters: 2,
            batches: 3,
        };
        let mut x = 0u64;
        let r = bench(&cfg, "spin", || {
            for i in 0..1000u64 {
                x = x.wrapping_add(i * i);
            }
            x
        });
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.trimmed_mean_ns > 0.0);
        assert!(r.iterations >= 3);
    }

    #[test]
    fn trimmed_mean_drops_outlier_tails() {
        // 10 batches: one scheduler spike at each end must not move the
        // trimmed mean, while the plain mean is dragged up.
        let mut batches = vec![100.0; 8];
        batches.insert(0, 1.0);
        batches.push(10_000.0);
        assert_eq!(trimmed_mean(&batches), 100.0);
        assert!(batches.iter().sum::<f64>() / 10.0 > 1000.0);
        // Below 5 entries there is nothing to trim.
        assert_eq!(trimmed_mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn median_extraction_round_trips() {
        let j = to_json(
            &[("profile", json_string("fast"))],
            &[
                BenchResult {
                    name: "alpha".into(),
                    median_ns: 1234.5,
                    min_ns: 1000.0,
                    mean_ns: 1300.0,
                    trimmed_mean_ns: 1250.0,
                    iterations: 10,
                },
                BenchResult {
                    name: "beta".into(),
                    median_ns: 42.0,
                    min_ns: 40.0,
                    mean_ns: 44.0,
                    trimmed_mean_ns: 43.0,
                    iterations: 7,
                },
            ],
        );
        assert_eq!(median_from_report(&j, "alpha"), Some(1234.5));
        assert_eq!(median_from_report(&j, "beta"), Some(42.0));
        assert_eq!(median_from_report(&j, "gamma"), None);
        assert_eq!(median_from_report("not json", "alpha"), None);
    }

    #[test]
    fn skipped_entries_serialize_without_timings() {
        let j = to_json_with_skipped(
            &[("profile", json_string("fast"))],
            &[BenchResult {
                name: "ran".into(),
                median_ns: 10.0,
                min_ns: 9.0,
                mean_ns: 11.0,
                trimmed_mean_ns: 10.5,
                iterations: 3,
            }],
            &[("skipped_t8", "skipped_oversubscribed")],
        );
        assert!(j.contains("{\"name\": \"skipped_t8\", \"status\": \"skipped_oversubscribed\"}"));
        // A skipped entry has no median, so the smoke check skips it.
        assert_eq!(median_from_report(&j, "skipped_t8"), None);
        assert_eq!(median_from_report(&j, "ran"), Some(10.0));
        // The benchmarks array stays valid JSON: the timed entry (not the
        // last element anymore) must carry the separating comma.
        assert!(j.contains("\"iterations\": 3},"));
    }

    #[test]
    fn meta_number_extraction() {
        let j = to_json(
            &[
                ("profile", json_string("fast")),
                ("stream_packets_per_s", "\"11724.3\"".to_string()),
                ("fleet_targets", "1024".to_string()),
            ],
            &[],
        );
        assert_eq!(
            meta_number_from_report(&j, "stream_packets_per_s"),
            Some(11724.3)
        );
        assert_eq!(meta_number_from_report(&j, "fleet_targets"), Some(1024.0));
        // Non-numeric and absent metas return None.
        assert_eq!(meta_number_from_report(&j, "profile"), None);
        assert_eq!(meta_number_from_report(&j, "missing"), None);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        let j = to_json(
            &[("threads", "8".to_string())],
            &[BenchResult {
                name: "x".into(),
                median_ns: 1.0,
                min_ns: 1.0,
                mean_ns: 1.0,
                trimmed_mean_ns: 1.0,
                iterations: 5,
            }],
        );
        assert!(j.contains("\"threads\": 8"));
        assert!(j.contains("\"name\": \"x\""));
    }
}
