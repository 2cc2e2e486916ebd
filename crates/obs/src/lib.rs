#![warn(missing_docs)]

//! # spotfi-obs
//!
//! Zero-dependency observability for the SpotFi pipeline.
//!
//! The recorder is a process-global aggregate fed by **per-thread shards**:
//! every instrumented call site updates a map owned by the calling thread
//! (no locks, no cross-thread traffic on the hot path), and a shard is
//! merged into the global aggregate at the fork/join boundary of each
//! parallel section — worker closures call [`flush_thread`] as their last
//! action, which is sequenced before the scope join completes. (A thread
//! that never flushes still merges via its shard's thread-local destructor
//! at exit, but `std::thread::scope` does not wait for thread-local
//! destructors, only for the closure itself — so runtimes must not rely on
//! the destructor alone.) Merging only ever *adds* integers
//! (event counts, fixed-point sums, log-linear bucket tallies) and takes
//! commutative `min`/`max` of floats, so the merged totals are independent
//! of how work was partitioned across workers: the same input produces
//! bit-identical [`Counter`](Kind::Counter) and [`Value`](Kind::Value)
//! metrics at any thread count. [`Time`](Kind::Time) metrics (spans) have
//! deterministic *counts* but wall-clock-dependent durations.
//!
//! Instrumentation is off by default. Every recording entry point starts
//! with a single relaxed atomic load ([`enabled`]); when the recorder is
//! disabled that load is the entire cost, and [`span`] never touches the
//! clock. Enabling the recorder only ever observes values the pipeline
//! already computed — it cannot perturb estimates.
//!
//! ```
//! spotfi_obs::reset();
//! spotfi_obs::set_enabled(true);
//! {
//!     let _span = spotfi_obs::span("stage.demo");
//!     spotfi_obs::counter("demo.events", 3);
//!     spotfi_obs::value("demo.residual", 0.125);
//! }
//! spotfi_obs::set_enabled(false);
//! let snap = spotfi_obs::snapshot();
//! assert_eq!(snap.counter_total("demo.events"), 3);
//! assert_eq!(snap.get("stage.demo").unwrap().updates, 1);
//! ```

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Log-linear (HDR-style) histogram layout: magnitudes below 32 get one
/// bucket each; above that, every power of two splits into 16 equal
/// sub-buckets, so a bucket is never wider than 1/16 of its lower bound.
/// Magnitudes saturate at `u64::MAX` (bucket 975): 584 years of
/// nanoseconds, or 2³² recorded units (71 minutes of µs) for value
/// metrics.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Fixed-point scale (2³²) used to accumulate [`Kind::Value`] sums in
/// integer arithmetic so that merges are exact and order-independent.
const VALUE_FP_SCALE: f64 = 4_294_967_296.0;

/// What a metric measures; determines how its integer `total` is interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic event count; `total` is the sum of increments.
    Counter,
    /// Distribution of an `f64` observable; `total` is a ×2³² fixed-point sum.
    Value,
    /// Distribution of span durations; `total` is a nanosecond sum.
    Time,
}

impl Kind {
    /// Stable lowercase name used in the diagnostics JSON.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Value => "value",
            Kind::Time => "time",
        }
    }
}

/// Aggregated state of one named metric.
///
/// All fields that participate in cross-thread merging are integers (or
/// commutative float `min`/`max`), which is what makes the merged result
/// independent of work partitioning.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric kind; a name must be used with one kind only.
    pub kind: Kind,
    /// Number of recording calls folded into this metric.
    pub updates: u64,
    /// Integer-domain sum; meaning depends on [`Kind`] (see its docs).
    pub total: i128,
    /// Smallest recorded observation (`+inf` when none; unused for counters).
    pub min: f64,
    /// Largest recorded observation (`-inf` when none; unused for counters).
    pub max: f64,
    /// Touched histogram buckets as `(key, count)`, ascending by key, so
    /// ascending by observation; empty for counters. See [`bucket_key`].
    buckets: Vec<(i16, u64)>,
}

impl Metric {
    fn new(kind: Kind) -> Self {
        Metric {
            kind,
            updates: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }

    #[inline]
    fn record(&mut self, fixed: i128, observed: f64) {
        self.updates += 1;
        self.total += fixed;
        self.min = self.min.min(observed);
        self.max = self.max.max(observed);
        self.add_to_bucket(bucket_key(fixed), 1);
    }

    fn add_to_bucket(&mut self, key: i16, n: u64) {
        match self.buckets.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.buckets[i].1 += n,
            Err(i) => self.buckets.insert(i, (key, n)),
        }
    }

    fn merge_from(&mut self, other: &Metric) {
        debug_assert_eq!(
            self.kind, other.kind,
            "metric merged across mismatched kinds"
        );
        self.updates += other.updates;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for &(key, n) in &other.buckets {
            self.add_to_bucket(key, n);
        }
    }

    /// The accumulated sum converted back to the recorded unit
    /// (event count, raw value, or nanoseconds).
    pub fn sum(&self) -> f64 {
        match self.kind {
            Kind::Value => self.total as f64 / VALUE_FP_SCALE,
            Kind::Counter | Kind::Time => self.total as f64,
        }
    }

    /// Mean recorded observation (0 when the metric has no updates).
    pub fn mean(&self) -> f64 {
        if self.updates == 0 {
            0.0
        } else {
            self.sum() / self.updates as f64
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) of the recorded observations, in the
    /// recorded unit: the nearest-rank observation's bucket midpoint,
    /// clamped to `[min, max]`, so within 1/32 relative error of the exact
    /// order statistic. 0 for counters and metrics with no updates.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q.clamp(0.0, 1.0) * self.updates as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let Some(&(key, _)) = self.buckets.iter().find(|&&(_, n)| {
            seen += n;
            seen >= rank
        }) else {
            return 0.0;
        };
        let (lo, width) = bucket_bounds(key.unsigned_abs() as u32);
        let mid = (lo + width / 2) as f64 * f64::from(key.signum());
        let mid = match self.kind {
            Kind::Value => mid / VALUE_FP_SCALE,
            Kind::Counter | Kind::Time => mid,
        };
        mid.max(self.min).min(self.max)
    }
}

/// Histogram key of an integer-domain observation: the log-linear bucket
/// index of its magnitude (see [`SUB_BITS`]), negated for negative
/// observations so that keys sort in observation order.
fn bucket_key(fixed: i128) -> i16 {
    let m = fixed.unsigned_abs().min(u64::MAX as u128) as u64;
    let index = if m < 2 * SUB {
        m
    } else {
        let shift = 63 - m.leading_zeros() - SUB_BITS;
        u64::from(shift) * SUB + (m >> shift)
    };
    if fixed < 0 {
        -(index as i16)
    } else {
        index as i16
    }
}

/// Lower bound and width of the magnitudes in bucket `index`.
fn bucket_bounds(index: u32) -> (u64, u64) {
    if u64::from(index) < 2 * SUB {
        return (u64::from(index), 1);
    }
    let shift = index / SUB as u32 - 1;
    ((SUB + u64::from(index) % SUB) << shift, 1 << shift)
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

#[derive(Default)]
struct Shard {
    metrics: BTreeMap<&'static str, Metric>,
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Safety net for threads that never flush explicitly: merge this
        // thread's locally aggregated metrics into the global map at exit.
        // Note that thread-local destructors run *after* the closure a
        // scoped thread was spawned with, so `std::thread::scope` alone
        // does not order this flush before the scope returns — runtimes
        // call [`flush_thread`] at the end of each worker closure instead.
        flush_map(&mut self.metrics);
    }
}

thread_local! {
    static SHARD: RefCell<Shard> = RefCell::new(Shard::default());
}

fn flush_map(metrics: &mut BTreeMap<&'static str, Metric>) {
    if metrics.is_empty() {
        return;
    }
    let mut global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for (name, metric) in std::mem::take(metrics) {
        match global.entry(name.to_string()) {
            Entry::Occupied(mut slot) => slot.get_mut().merge_from(&metric),
            Entry::Vacant(slot) => {
                slot.insert(metric);
            }
        }
    }
}

#[inline]
fn with_metric(name: &'static str, kind: Kind, f: impl FnOnce(&mut Metric)) {
    // try_with: recording during thread teardown (after the shard's own
    // destructor ran) silently drops the update instead of panicking.
    let _ = SHARD.try_with(|shard| {
        let mut shard = shard.borrow_mut();
        let metric = shard
            .metrics
            .entry(name)
            .or_insert_with(|| Metric::new(kind));
        debug_assert_eq!(
            metric.kind, kind,
            "metric {name} reused with a different kind"
        );
        f(metric);
    });
}

/// Whether the recorder is currently enabled. One relaxed atomic load —
/// this is the entire cost of every instrumented call site when disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the recorder on or off. Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Add `n` to the monotonic counter `name`.
#[inline]
pub fn counter(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with_metric(name, Kind::Counter, |m| {
        m.updates += 1;
        m.total += n as i128;
    });
}

/// Record one observation of the `f64` observable `name`.
///
/// The value is folded into the running sum in ×2³² fixed point so that
/// cross-thread merges are exact integer additions (order-independent).
/// Non-finite values are recorded as a zero contribution to the sum but
/// still show up in `min`/`max`.
#[inline]
pub fn value(name: &'static str, v: f64) {
    if !enabled() {
        return;
    }
    // `as i128` saturates and maps NaN to 0, so this stays deterministic
    // even for pathological inputs.
    let fixed = (v * VALUE_FP_SCALE).round() as i128;
    with_metric(name, Kind::Value, |m| m.record(fixed, v));
}

/// Record a duration in nanoseconds against the time metric `name`.
/// Usually called via [`span`] rather than directly.
#[inline]
pub fn time_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    with_metric(name, Kind::Time, |m| m.record(ns as i128, ns as f64));
}

/// RAII timer for a named region; records into a [`Kind::Time`] metric on
/// drop. When the recorder is disabled at creation the guard holds no
/// timestamp and drop is free — the clock is never read.
///
/// Spans nest lexically: an inner `span` simply records into its own
/// metric, so a span taxonomy like `total` ⊃ `stage.*` is expressed by
/// the call structure, not by the recorder.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Start a [`Span`] named `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_metric(self.name, Kind::Time, |m| m.record(ns as i128, ns as f64));
        }
    }
}

/// Merge the calling thread's shard into the global aggregate now.
///
/// Parallel runtimes call this as the **last statement of each worker
/// closure**: `std::thread::scope` only waits for worker closures to
/// return, not for thread-local destructors, so a shard left to its
/// destructor may still be unmerged when the scope (and a subsequent
/// [`snapshot`]) completes. The orchestrating thread's own shard is
/// flushed by [`snapshot`] itself.
pub fn flush_thread() {
    let _ = SHARD.try_with(|shard| flush_map(&mut shard.borrow_mut().metrics));
}

/// Clear all recorded metrics (global aggregate and the calling thread's
/// shard). Shards of other *live* threads are untouched, so call this from
/// the thread that orchestrates parallel sections — with the scoped-thread
/// runtime no worker outlives its section, so none exist between runs.
pub fn reset() {
    let _ = SHARD.try_with(|shard| shard.borrow_mut().metrics.clear());
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Flush the calling thread and return a copy of the global aggregate.
pub fn snapshot() -> Snapshot {
    flush_thread();
    let global = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    Snapshot {
        metrics: global.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
    }
}

/// An immutable copy of the recorder state, sorted by metric name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, metric)` pairs in ascending name order.
    pub metrics: Vec<(String, Metric)>,
}

impl Snapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Total of a counter (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |m| m.total.max(0) as u64)
    }

    /// Accumulated nanoseconds of a time metric (0 when absent).
    pub fn time_total_ns(&self, name: &str) -> u128 {
        self.get(name).map_or(0, |m| m.total.max(0) as u128)
    }

    /// Total number of recording calls across all metrics. Deterministic
    /// for a given input, which makes it usable as the event count `N` in
    /// the bench overhead bound (per-call disabled cost × `N`).
    pub fn total_updates(&self) -> u64 {
        self.metrics.iter().map(|(_, m)| m.updates).sum()
    }

    /// The metrics covered by the determinism contract: everything except
    /// span durations (wall-clock) and `runtime.*` metrics, which describe
    /// the execution itself (worker utilization, queue depths) and so
    /// legitimately vary with the thread count.
    pub fn deterministic_metrics(&self) -> Vec<(&str, &Metric)> {
        self.metrics
            .iter()
            .filter(|(name, m)| m.kind != Kind::Time && !name.starts_with("runtime."))
            .map(|(name, m)| (name.as_str(), m))
            .collect()
    }

    /// Bit-exact equality of the deterministic subset of two snapshots
    /// (same metric names, kinds, update counts, integer totals, buckets,
    /// and min/max bit patterns).
    pub fn deterministic_eq(&self, other: &Snapshot) -> bool {
        let a = self.deterministic_metrics();
        let b = other.deterministic_metrics();
        a.len() == b.len()
            && a.iter().zip(b.iter()).all(|((na, ma), (nb, mb))| {
                na == nb
                    && ma.kind == mb.kind
                    && ma.updates == mb.updates
                    && ma.total == mb.total
                    && ma.buckets == mb.buckets
                    && ma.min.to_bits() == mb.min.to_bits()
                    && ma.max.to_bits() == mb.max.to_bits()
            })
    }

    /// Render the snapshot as the `spotfi-diagnostics-v1` JSON document.
    ///
    /// `meta` entries are `(key, already-rendered JSON value)` pairs
    /// spliced into the top level, after the schema marker.
    /// Spans, counters, and values are emitted one per line so the
    /// document stays friendly to line-oriented tooling; span and value
    /// lines carry p50/p90/p99 from [`Metric::quantile`].
    pub fn to_diagnostics_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"spotfi-diagnostics-v1\"");
        for (key, value) in meta {
            out.push_str(&format!(",\n  \"{}\": {}", json_escape(key), value));
        }
        let section = |out: &mut String, title: &str, kind: Kind| {
            out.push_str(&format!(",\n  \"{title}\": ["));
            let mut first = true;
            for (name, m) in self.metrics.iter().filter(|(_, m)| m.kind == kind) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("\n    ");
                out.push_str(&match kind {
                    Kind::Time => format!(
                        "{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"mean_ns\": {:.1}, \"min_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                        json_escape(name), m.updates, m.total, m.mean(), m.min as i128,
                        m.quantile(0.5) as i128, m.quantile(0.9) as i128, m.quantile(0.99) as i128,
                        m.max as i128,
                    ),
                    Kind::Counter => format!(
                        "{{\"name\": \"{}\", \"updates\": {}, \"total\": {}}}",
                        json_escape(name), m.updates, m.total,
                    ),
                    Kind::Value => format!(
                        "{{\"name\": \"{}\", \"count\": {}, \"mean\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                        json_escape(name), m.updates, json_f64(m.mean()), json_f64(m.min),
                        json_f64(m.quantile(0.5)), json_f64(m.quantile(0.9)),
                        json_f64(m.quantile(0.99)), json_f64(m.max),
                    ),
                });
            }
            out.push_str("\n  ]");
        };
        section(&mut out, "spans", Kind::Time);
        section(&mut out, "counters", Kind::Counter);
        section(&mut out, "values", Kind::Value);
        out.push_str("\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Structural summary returned by [`validate_diagnostics`].
#[derive(Clone, Debug)]
pub struct DiagnosticsSummary {
    /// Duration of the `total` span in nanoseconds.
    pub total_ns: i128,
    /// Sum of all `stage.*` span durations in nanoseconds.
    pub stage_sum_ns: i128,
    /// Number of spans in the document.
    pub spans: usize,
    /// Number of counters in the document.
    pub counters: usize,
    /// The `threads` meta value, when present.
    pub threads: Option<usize>,
}

/// Sanity-check a `spotfi-diagnostics-v1` document (used by the CLI
/// `check-diagnostics` subcommand).
///
/// Checks performed:
/// - the schema marker and the `spans` / `counters` / `values` keys exist;
/// - a `total` span and at least one `stage.*` span and one counter exist;
/// - for serial runs (`threads` ≤ 1 or absent), the `stage.*` durations
///   sum to within 10% of the `total` span (90%–102%, the upper slack
///   covering clock-read granularity). For parallel runs stage spans
///   accumulate across workers, so the ratio check is skipped;
/// - when the streaming hot path ran (a `stream.packets` counter is
///   present), its counters satisfy the pipeline's accounting identities:
///   `stream.packets = stream.warmstart_hit + stream.warmstart_miss` and
///   `stream.warmstart_miss = stream.anchor + stream.tracker_fallback`,
///   and the retried warm packets are a subset of the fallbacks:
///   `stream.warm_retry ≤ stream.tracker_fallback`;
/// - when the fleet engine ran (a `fleet.ingested` counter is present),
///   its backpressure and fusion accounting balances:
///   `fleet.ingested = fleet.accepted + fleet.dropped` (no packet is
///   silently lost), `fleet.accepted = fleet.processed` (every accepted
///   packet was drained before shutdown), and
///   `fleet.fusions = fleet.updates + fleet.fusion_no_fix`, with
///   `fleet.fusion_degraded ≤ fleet.updates` (degraded fixes are a subset
///   of emitted fixes);
/// - when the wire-ingest path ran (an `ingest.received` counter is
///   present), every frame's fate is accounted:
///   `ingest.received = ingest.decoded + ingest.corrupt +
///   ingest.incomplete`, and the per-receiver `ingest.rx<id>.decoded`
///   breakdown sums to `ingest.decoded`;
/// - when a document has both `ingest.decoded` and `fleet.ingested`, every
///   decoded frame was routed: `ingest.decoded = fleet.ingested +
///   ingest.unknown_receiver + Σ ingest.rejected.*`.
///
/// The parser is line-oriented and matches the layout that
/// [`Snapshot::to_diagnostics_json`] emits — it is a schema sanity check,
/// not a general JSON validator.
pub fn validate_diagnostics(json: &str) -> Result<DiagnosticsSummary, String> {
    if !json.contains("\"schema\": \"spotfi-diagnostics-v1\"") {
        return Err("missing schema marker \"spotfi-diagnostics-v1\"".to_string());
    }
    for key in ["\"spans\": [", "\"counters\": [", "\"values\": ["] {
        if !json.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    let threads = json.lines().find_map(|line| {
        let rest = line.trim().strip_prefix("\"threads\": ")?;
        rest.trim_end_matches(',').trim().parse::<usize>().ok()
    });
    let mut total_ns: Option<i128> = None;
    let mut stage_sum_ns: i128 = 0;
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut stream_packets: Option<i128> = None;
    let mut stream_hit: i128 = 0;
    let mut stream_miss: i128 = 0;
    let mut stream_anchor: i128 = 0;
    let mut stream_fallback: i128 = 0;
    let mut stream_retry: i128 = 0;
    let mut fleet_ingested: Option<i128> = None;
    let mut fleet_accepted: i128 = 0;
    let mut fleet_dropped: i128 = 0;
    let mut fleet_processed: i128 = 0;
    let mut fleet_fusions: i128 = 0;
    let mut fleet_updates: i128 = 0;
    let mut fleet_no_fix: i128 = 0;
    let mut fleet_degraded: i128 = 0;
    let mut ingest_received: Option<i128> = None;
    let mut ingest_decoded: Option<i128> = None;
    let mut ingest_corrupt: i128 = 0;
    let mut ingest_incomplete: i128 = 0;
    let mut ingest_rx_decoded_sum: i128 = 0;
    let mut ingest_rx_counters = 0usize;
    let mut ingest_unknown: i128 = 0;
    let mut ingest_rejected: i128 = 0;
    for line in json.lines() {
        let line = line.trim();
        if let Some(name) = field_str(line, "name") {
            if field_int(line, "total_ns").is_some() {
                spans += 1;
                let ns = field_int(line, "total_ns").unwrap();
                if name == "total" {
                    total_ns = Some(ns);
                } else if name.starts_with("stage.") {
                    stage_sum_ns += ns;
                }
            } else if let Some(n) = field_int(line, "total") {
                counters += 1;
                match name {
                    "stream.packets" => stream_packets = Some(n),
                    "stream.warmstart_hit" => stream_hit = n,
                    "stream.warmstart_miss" => stream_miss = n,
                    "stream.anchor" => stream_anchor = n,
                    "stream.tracker_fallback" => stream_fallback = n,
                    "stream.warm_retry" => stream_retry = n,
                    "fleet.ingested" => fleet_ingested = Some(n),
                    "fleet.accepted" => fleet_accepted = n,
                    "fleet.dropped" => fleet_dropped = n,
                    "fleet.processed" => fleet_processed = n,
                    "fleet.fusions" => fleet_fusions = n,
                    "fleet.updates" => fleet_updates = n,
                    "fleet.fusion_no_fix" => fleet_no_fix = n,
                    "fleet.fusion_degraded" => fleet_degraded = n,
                    "ingest.received" => ingest_received = Some(n),
                    "ingest.decoded" => ingest_decoded = Some(n),
                    "ingest.corrupt" => ingest_corrupt = n,
                    "ingest.incomplete" => ingest_incomplete = n,
                    "ingest.unknown_receiver" => ingest_unknown = n,
                    _ => {
                        if name.starts_with("ingest.rejected.") {
                            ingest_rejected += n;
                        } else if name.starts_with("ingest.rx") && name.ends_with(".decoded") {
                            ingest_rx_decoded_sum += n;
                            ingest_rx_counters += 1;
                        }
                    }
                }
            }
        }
    }
    let total_ns = total_ns.ok_or("no span named \"total\"")?;
    if stage_sum_ns == 0 {
        return Err("no stage.* spans recorded".to_string());
    }
    if counters == 0 {
        return Err("no counters recorded".to_string());
    }
    if threads.unwrap_or(1) <= 1 {
        let ratio = stage_sum_ns as f64 / total_ns.max(1) as f64;
        if !(0.90..=1.02).contains(&ratio) {
            return Err(format!(
                "stage spans sum to {:.1}% of the total span (expected within 10%)",
                ratio * 100.0
            ));
        }
    }
    if let Some(packets) = stream_packets {
        if packets != stream_hit + stream_miss {
            return Err(format!(
                "stream counter mismatch: stream.packets = {packets} but \
                 warmstart_hit + warmstart_miss = {}",
                stream_hit + stream_miss
            ));
        }
        if stream_miss != stream_anchor + stream_fallback {
            return Err(format!(
                "stream counter mismatch: stream.warmstart_miss = {stream_miss} but \
                 anchor + tracker_fallback = {}",
                stream_anchor + stream_fallback
            ));
        }
        if stream_retry > stream_fallback {
            return Err(format!(
                "stream counter mismatch: stream.warm_retry = {stream_retry} exceeds \
                 stream.tracker_fallback = {stream_fallback}"
            ));
        }
    }
    if let Some(ingested) = fleet_ingested {
        if ingested != fleet_accepted + fleet_dropped {
            return Err(format!(
                "fleet counter mismatch: fleet.ingested = {ingested} but \
                 accepted + dropped = {} (a packet was silently lost)",
                fleet_accepted + fleet_dropped
            ));
        }
        if fleet_accepted != fleet_processed {
            return Err(format!(
                "fleet counter mismatch: fleet.accepted = {fleet_accepted} but \
                 fleet.processed = {fleet_processed} (a queue was abandoned \
                 before draining)"
            ));
        }
        if fleet_fusions != fleet_updates + fleet_no_fix {
            return Err(format!(
                "fleet counter mismatch: fleet.fusions = {fleet_fusions} but \
                 updates + fusion_no_fix = {}",
                fleet_updates + fleet_no_fix
            ));
        }
        if fleet_degraded > fleet_updates {
            return Err(format!(
                "fleet counter mismatch: fleet.fusion_degraded = {fleet_degraded} \
                 exceeds fleet.updates = {fleet_updates}"
            ));
        }
    }
    if let Some(received) = ingest_received {
        let ingest_decoded = ingest_decoded.unwrap_or(0);
        if received != ingest_decoded + ingest_corrupt + ingest_incomplete {
            return Err(format!(
                "ingest counter mismatch: ingest.received = {received} but \
                 decoded + corrupt + incomplete = {} (a frame's fate was \
                 silently unaccounted)",
                ingest_decoded + ingest_corrupt + ingest_incomplete
            ));
        }
        if ingest_rx_counters > 0 && ingest_rx_decoded_sum != ingest_decoded {
            return Err(format!(
                "ingest counter mismatch: per-receiver ingest.rx*.decoded sums \
                 to {ingest_rx_decoded_sum} but ingest.decoded = {ingest_decoded}"
            ));
        }
    }
    if let (Some(decoded), Some(ingested)) = (ingest_decoded, fleet_ingested) {
        let routed = ingested + ingest_unknown + ingest_rejected;
        if decoded != routed {
            return Err(format!(
                "ingest routing mismatch: ingest.decoded = {decoded} but \
                 fleet.ingested + ingest.unknown_receiver + ingest.rejected.* \
                 = {ingested} + {ingest_unknown} + {ingest_rejected} = {routed} \
                 (a decoded frame was neither fleet-ingested nor rejected)"
            ));
        }
    }
    Ok(DiagnosticsSummary {
        total_ns,
        stage_sum_ns,
        spans,
        counters,
        threads,
    })
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

fn field_int(line: &str, key: &str) -> Option<i128> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '-')
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock};

    /// The recorder is process-global; serialize tests that touch it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<StdMutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = lock();
        reset();
        set_enabled(false);
        counter("t.counter", 5);
        value("t.value", 1.5);
        let _span = span("t.span");
        drop(_span);
        assert!(snapshot().metrics.is_empty());
    }

    #[test]
    fn counter_value_and_span_aggregate() {
        let _g = lock();
        reset();
        set_enabled(true);
        counter("t.counter", 2);
        counter("t.counter", 3);
        value("t.value", 1.5);
        value("t.value", -0.5);
        {
            let _span = span("t.span");
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter_total("t.counter"), 5);
        let v = snap.get("t.value").unwrap();
        assert_eq!(v.updates, 2);
        assert!((v.sum() - 1.0).abs() < 1e-9);
        assert!((v.min - -0.5).abs() < 1e-12);
        assert!((v.max - 1.5).abs() < 1e-12);
        let s = snap.get("t.span").unwrap();
        assert_eq!(s.kind, Kind::Time);
        assert_eq!(s.updates, 1);
    }

    #[test]
    fn thread_shards_merge_into_global_on_exit() {
        let _g = lock();
        reset();
        set_enabled(true);
        // Explicit joins wait for full thread exit (including thread-local
        // destructors), so the destructor flush alone must suffice here.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    counter("t.shard", 1);
                    value("t.shard_v", 0.25);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter_total("t.shard"), 4);
        assert_eq!(snap.get("t.shard_v").unwrap().updates, 4);
        assert!((snap.get("t.shard_v").unwrap().sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fire_and_forget_scoped_workers_flush_at_closure_end() {
        // `std::thread::scope` does not wait for thread-local destructors,
        // so a worker that is never explicitly joined must flush as the
        // last statement of its closure for a post-scope snapshot to be
        // complete. This is the contract every runtime worker follows.
        let _g = lock();
        reset();
        set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    counter("t.scoped", 1);
                    flush_thread();
                });
            }
        });
        set_enabled(false);
        assert_eq!(snapshot().counter_total("t.scoped"), 4);
    }

    #[test]
    fn merge_is_partition_independent() {
        let _g = lock();
        let values = [0.125, 3.75, -2.5, 0.0625, 10.0, -0.875];
        let run = |threads: usize| {
            reset();
            set_enabled(true);
            std::thread::scope(|scope| {
                for chunk in values.chunks(values.len().div_ceil(threads)) {
                    scope.spawn(move || {
                        for &v in chunk {
                            value("t.part", v);
                            counter("t.part_n", 1);
                        }
                        flush_thread();
                    });
                }
            });
            set_enabled(false);
            snapshot()
        };
        let one = run(1);
        let three = run(3);
        assert!(one.deterministic_eq(&three));
        let (a, b) = (one.get("t.part").unwrap(), three.get("t.part").unwrap());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q).to_bits(), b.quantile(q).to_bits());
        }
    }

    #[test]
    fn runtime_and_time_metrics_excluded_from_determinism_contract() {
        let _g = lock();
        reset();
        set_enabled(true);
        counter("runtime.workers", 8);
        counter("algo.events", 1);
        {
            let _s = span("stage.x");
        }
        set_enabled(false);
        let snap = snapshot();
        let det = snap.deterministic_metrics();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].0, "algo.events");
    }

    #[test]
    fn diagnostics_json_round_trips_through_validator() {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.a", 600_000);
        time_ns("stage.b", 380_000);
        counter("c.events", 7);
        value("v.obs", 0.5);
        set_enabled(false);
        let snap = snapshot();
        let json = snap.to_diagnostics_json(&[("threads", "1".to_string())]);
        let summary = validate_diagnostics(&json).expect("valid document");
        assert_eq!(summary.total_ns, 1_000_000);
        assert_eq!(summary.stage_sum_ns, 980_000);
        assert_eq!(summary.threads, Some(1));
        assert_eq!(summary.counters, 1);
    }

    #[test]
    fn validator_rejects_unbalanced_stage_sums() {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.a", 200_000);
        counter("c.events", 1);
        value("v.obs", 0.5);
        set_enabled(false);
        let json = snapshot().to_diagnostics_json(&[("threads", "1".to_string())]);
        assert!(validate_diagnostics(&json).is_err());
    }

    #[test]
    fn validator_skips_ratio_check_for_parallel_runs() {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        // Parallel: stage time accumulates across workers and exceeds wall.
        time_ns("stage.a", 3_000_000);
        counter("c.events", 1);
        value("v.obs", 0.5);
        set_enabled(false);
        let json = snapshot().to_diagnostics_json(&[("threads", "8".to_string())]);
        assert!(validate_diagnostics(&json).is_ok());
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_diagnostics("{}").is_err());
        assert!(validate_diagnostics("not json at all").is_err());
    }

    /// Shared fixture for the stream-identity tests: a serial document with
    /// balanced stage spans and the given stream counter totals.
    fn stream_doc(
        packets: u64,
        hit: u64,
        miss: u64,
        anchor: u64,
        fallback: u64,
        retry: u64,
    ) -> String {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.track", 950_000);
        counter("stream.packets", packets);
        counter("stream.warmstart_hit", hit);
        counter("stream.warmstart_miss", miss);
        counter("stream.anchor", anchor);
        counter("stream.tracker_fallback", fallback);
        counter("stream.warm_retry", retry);
        set_enabled(false);
        snapshot().to_diagnostics_json(&[("threads", "1".to_string())])
    }

    #[test]
    fn validator_accepts_consistent_stream_counters() {
        let json = stream_doc(10, 7, 3, 2, 1, 0);
        assert!(validate_diagnostics(&json).is_ok());
        let json = stream_doc(10, 6, 4, 2, 2, 1);
        assert!(validate_diagnostics(&json).is_ok());
    }

    #[test]
    fn validator_rejects_inconsistent_stream_counters() {
        // packets ≠ hit + miss.
        let json = stream_doc(10, 7, 2, 1, 1, 0);
        let err = validate_diagnostics(&json).unwrap_err();
        assert!(err.contains("stream.packets"), "{err}");
        // miss ≠ anchor + fallback.
        let json = stream_doc(10, 7, 3, 3, 1, 0);
        let err = validate_diagnostics(&json).unwrap_err();
        assert!(err.contains("stream.warmstart_miss"), "{err}");
        // A retry not counted as a fallback.
        let json = stream_doc(10, 7, 3, 2, 1, 2);
        let err = validate_diagnostics(&json).unwrap_err();
        assert!(err.contains("stream.warm_retry"), "{err}");
    }

    /// Fleet-identity fixture: a parallel document (ratio check skipped)
    /// with the given fleet counter totals.
    fn fleet_doc(
        ingested: u64,
        accepted: u64,
        dropped: u64,
        processed: u64,
        fusions: u64,
        updates: u64,
        no_fix: u64,
    ) -> String {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.fuse", 100_000);
        counter("fleet.ingested", ingested);
        counter("fleet.accepted", accepted);
        counter("fleet.dropped", dropped);
        counter("fleet.processed", processed);
        counter("fleet.fusions", fusions);
        counter("fleet.updates", updates);
        counter("fleet.fusion_no_fix", no_fix);
        value("v.obs", 0.5);
        set_enabled(false);
        snapshot().to_diagnostics_json(&[("threads", "4".to_string())])
    }

    #[test]
    fn validator_accepts_consistent_fleet_counters() {
        let json = fleet_doc(100, 90, 10, 90, 5, 3, 2);
        assert!(validate_diagnostics(&json).is_ok());
    }

    #[test]
    fn validator_rejects_inconsistent_fleet_counters() {
        // ingested ≠ accepted + dropped: a packet vanished unaccounted.
        let err = validate_diagnostics(&fleet_doc(100, 90, 5, 90, 5, 3, 2)).unwrap_err();
        assert!(err.contains("fleet.ingested"), "{err}");
        // accepted ≠ processed: a queue was dropped before draining.
        let err = validate_diagnostics(&fleet_doc(100, 90, 10, 85, 5, 3, 2)).unwrap_err();
        assert!(err.contains("fleet.processed"), "{err}");
        // fusions ≠ updates + no_fix.
        let err = validate_diagnostics(&fleet_doc(100, 90, 10, 90, 5, 3, 1)).unwrap_err();
        assert!(err.contains("fleet.fusions"), "{err}");
    }

    #[test]
    fn validator_rejects_degraded_exceeding_updates() {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.fuse", 100_000);
        counter("fleet.ingested", 10);
        counter("fleet.accepted", 10);
        counter("fleet.processed", 10);
        counter("fleet.fusions", 5);
        counter("fleet.updates", 3);
        counter("fleet.fusion_no_fix", 2);
        counter("fleet.fusion_degraded", 4);
        set_enabled(false);
        let json = snapshot().to_diagnostics_json(&[("threads", "4".to_string())]);
        let err = validate_diagnostics(&json).unwrap_err();
        assert!(err.contains("fleet.fusion_degraded"), "{err}");
    }

    /// Wire-ingest fixture: a parallel document with the given frame-fate
    /// totals and a two-receiver `ingest.rx*.decoded` breakdown.
    fn ingest_doc(received: u64, decoded: u64, corrupt: u64, incomplete: u64, rx0: u64) -> String {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.fuse", 100_000);
        counter("ingest.received", received);
        counter("ingest.decoded", decoded);
        counter("ingest.corrupt", corrupt);
        counter("ingest.incomplete", incomplete);
        counter("ingest.rx0.decoded", rx0);
        counter(
            "ingest.rx1.decoded",
            decoded.saturating_sub(rx0.min(decoded)),
        );
        set_enabled(false);
        snapshot().to_diagnostics_json(&[("threads", "2".to_string())])
    }

    #[test]
    fn validator_accepts_consistent_ingest_counters() {
        let json = ingest_doc(20, 15, 3, 2, 6);
        assert!(validate_diagnostics(&json).is_ok(), "{json}");
    }

    #[test]
    fn validator_rejects_inconsistent_ingest_counters() {
        // received ≠ decoded + corrupt + incomplete: a frame's fate vanished.
        let err = validate_diagnostics(&ingest_doc(20, 15, 3, 1, 6)).unwrap_err();
        assert!(err.contains("ingest.received"), "{err}");
        // Per-receiver breakdown disagrees with the fleet-wide total.
        let err = validate_diagnostics(&ingest_doc(20, 15, 3, 2, 20)).unwrap_err();
        assert!(err.contains("ingest.rx"), "{err}");
    }

    /// Wire ingest into the fleet: 20 frames decoded, 3 from an unknown
    /// receiver, the given `ingest.rejected.*` counts, and 15
    /// fleet-ingested and processed.
    fn routed_doc(rejected: &[(&'static str, u64)]) -> String {
        let _g = lock();
        reset();
        set_enabled(true);
        time_ns("total", 1_000_000);
        time_ns("stage.fuse", 100_000);
        counter("ingest.received", 20);
        counter("ingest.decoded", 20);
        counter("ingest.unknown_receiver", 3);
        for &(name, n) in rejected {
            counter(name, n);
        }
        for name in ["fleet.ingested", "fleet.accepted", "fleet.processed"] {
            counter(name, 15);
        }
        counter("fleet.fusions", 4);
        counter("fleet.updates", 4);
        set_enabled(false);
        snapshot().to_diagnostics_json(&[("threads", "2".to_string())])
    }

    #[test]
    fn validator_checks_that_every_decoded_frame_was_routed() {
        let both = [
            ("ingest.rejected.shape_mismatch", 1),
            ("ingest.rejected.non_finite_csi", 1),
        ];
        assert!(validate_diagnostics(&routed_doc(&both)).is_ok());
        // One rejection was never counted: a decoded frame vanished
        // between the decoder and the fleet.
        let err = validate_diagnostics(&routed_doc(&both[..1])).unwrap_err();
        assert!(
            err.contains("ingest.decoded = 20") && err.contains("fleet.ingested"),
            "{err}"
        );
    }

    #[test]
    fn histogram_quantiles_are_within_a_thirty_second() {
        let _g = lock();
        // Nearest-rank order statistic of a sorted population.
        let exact = |sorted: &[f64], q: f64| {
            sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
        };
        let check = |m: &Metric, sorted: &[f64]| {
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                let (got, want) = (m.quantile(q), exact(sorted, q));
                assert!(
                    (got - want).abs() <= want.abs() / 32.0,
                    "q{q}: histogram {got} vs exact {want}"
                );
            }
        };

        // Uniform 1..=100 000 ns through the time path.
        reset();
        set_enabled(true);
        for ns in (1..=100_000u64).rev() {
            time_ns("t.uniform", ns);
        }
        set_enabled(false);
        let uniform: Vec<f64> = (1..=100_000).map(|ns| ns as f64).collect();
        check(snapshot().get("t.uniform").unwrap(), &uniform);

        // Two modes (a fast path near 80 µs, a slow tail near 9 ms) plus a
        // few negatives, through the fixed-point value path.
        reset();
        set_enabled(true);
        let mut mix: Vec<f64> = (0..10_000u32)
            .map(|i| match i % 10 {
                0 => 9_000.0 + f64::from(i % 997) * 1.5,
                1 if i % 1000 == 1 => -f64::from(i % 7 + 1),
                _ => 80.0 + f64::from(i % 101) * 0.25,
            })
            .collect();
        for &v in &mix {
            value("t.mix", v);
        }
        set_enabled(false);
        mix.sort_by(f64::total_cmp);
        let m = snapshot().get("t.mix").unwrap().clone();
        check(&m, &mix);
        assert!(m.quantile(0.5) < 100.0 && m.quantile(0.95) > 8_000.0);

        // µs values up to ten minutes stay resolved (a saturated bucket
        // would report the max for both); counters have no quantiles.
        reset();
        set_enabled(true);
        let long = [300e6, 599e6];
        for v in long {
            value("t.long", v);
        }
        counter("t.count", 3);
        set_enabled(false);
        let snap = snapshot();
        check(snap.get("t.long").unwrap(), &long);
        assert_eq!(snap.get("t.count").unwrap().quantile(0.5), 0.0);
    }
}
