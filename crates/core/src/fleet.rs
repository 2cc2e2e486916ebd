//! Fleet-scale sharded streaming scheduler.
//!
//! One box serving *many* targets at once: CSI packets from every
//! (target, AP) link arrive interleaved on one ingest call, and a pool of
//! long-lived workers runs the amortized streaming hot path
//! ([`SpotFi::analyze_packet_streaming_with`]) plus a per-target fusion
//! stage (cluster → likelihood → localize → Kalman smoother) continuously.
//!
//! ### Sharding
//!
//! Per-(target, AP) [`StreamState`] is owned by exactly one worker, chosen
//! by a splitmix64 hash of the target id (`shard_of`). All of a target's
//! state — every AP's rolling covariance and subspace tracker, the fusion
//! window, the track filter — lives on that one shard, so nothing is ever
//! locked or migrated, and the warm streaming path runs exactly as it does
//! single-threaded. One worker-owned [`PacketScratch`] serves every stream
//! on the shard (the scratch is fully overwritten per packet), so per-
//! stream memory is just the persistent [`StreamState`].
//!
//! ### Backpressure
//!
//! Each worker has one bounded FIFO queue. Ingest accounts for every
//! packet explicitly — `fleet.ingested = fleet.accepted + fleet.dropped`,
//! with `fleet.deferred` counting full-queue encounters — so overload is
//! never silent: [`OverflowPolicy::Block`] stalls the producer until the
//! worker drains space, [`OverflowPolicy::DropNewest`] sheds the incoming
//! packet and says so. Workers drain up to [`FleetConfig::batch_size`]
//! packets per wake-up, amortizing the queue lock and condvar wake.
//!
//! ### Determinism contract
//!
//! A target's emitted estimates depend only on *that target's own packet
//! order*: the shard queue is FIFO, per-target state is isolated, and the
//! shared scratch carries nothing across packets. Worker count and packet
//! interleaving across other targets are irrelevant — per-target outputs
//! are bit-identical to the serial reference ([`run_fleet_serial`]) at any
//! `workers` setting (pinned by `tests/fleet.rs`). Queue-depth and latency
//! observations are scheduling-dependent by nature and are published under
//! `runtime.fleet_*`, outside the deterministic-metrics contract.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use spotfi_channel::{AntennaArray, CsiPacket, Point};
use spotfi_math::stats::mean;

use crate::config::{FleetConfig, OverflowPolicy};
use crate::localize::{ApMeasurement, LocationEstimate};
use crate::peaks::PathEstimate;
use crate::pipeline::{PacketScratch, SpotFi, StreamState};
use crate::runtime::hardware_parallelism;
use crate::tracking::{Tracker, UpdateOutcome};

/// One CSI packet addressed to the fleet: which target's stream it belongs
/// to, which AP heard it, and the capture itself.
#[derive(Clone, Debug)]
pub struct FleetPacket {
    /// Opaque target identity; all state is keyed by it.
    pub target_id: u64,
    /// Which AP captured this packet (one stream per (target, AP) pair).
    pub ap_id: u32,
    /// That AP's array geometry (used at fusion time).
    pub array: AntennaArray,
    /// The capture (CSI + RSSI + timestamp).
    pub packet: CsiPacket,
}

/// What [`FleetEngine::ingest`] did with a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushResult {
    /// Enqueued immediately.
    Accepted,
    /// The shard queue was full; the producer blocked until space freed,
    /// then enqueued ([`OverflowPolicy::Block`]). Counted as deferred.
    AcceptedAfterWait,
    /// The shard queue was full and the packet was shed
    /// ([`OverflowPolicy::DropNewest`]), or the engine is shut down.
    Dropped,
}

/// One continuous position estimate for one target, as emitted by the
/// fusion stage.
#[derive(Clone, Copy, Debug)]
pub struct FleetUpdate {
    /// Which target this fix belongs to.
    pub target_id: u64,
    /// Capture timestamp of the packet that triggered the fusion, seconds.
    pub time_s: f64,
    /// The raw Eq. 9 fix from this fusion window.
    pub raw: LocationEstimate,
    /// The Kalman-smoothed track position after feeding `raw`.
    pub tracked: Point,
    /// The track's velocity estimate, m/s.
    pub tracked_velocity: (f64, f64),
    /// What the smoother did with the raw fix.
    pub outcome: UpdateOutcome,
    /// How many APs contributed a usable direct path.
    pub aps_used: usize,
    /// `true` if fewer APs contributed than the target has ever seen —
    /// the fix was produced under degraded coverage with a widened
    /// measurement covariance (see `FleetConfig::degraded_std_scale`).
    pub degraded: bool,
}

/// Backpressure and throughput accounting, aggregated across the run.
///
/// Invariants (also enforced as counter identities by
/// `spotfi_obs::validate_diagnostics` on fleet diagnostics):
/// `ingested = accepted + dropped`, and after shutdown
/// `accepted = processed` and `fusions = updates + fusion_no_fix`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Packets offered to [`FleetEngine::ingest`].
    pub ingested: u64,
    /// Packets enqueued (immediately or after blocking).
    pub accepted: u64,
    /// Full-queue encounters (blocked pushes + sheds) — the backpressure
    /// signal, informational.
    pub deferred: u64,
    /// Packets shed because a queue was full under
    /// [`OverflowPolicy::DropNewest`].
    pub dropped: u64,
    /// Packets a worker ran through the streaming path.
    pub processed: u64,
    /// Packets whose streaming analysis returned an error (state survives;
    /// the stream re-anchors).
    pub stream_errors: u64,
    /// Fusion attempts (every [`FleetConfig::fusion_interval`] processed
    /// packets per target).
    pub fusions: u64,
    /// Fusions that produced a position fix ([`FleetUpdate`]).
    pub updates: u64,
    /// Fusions with too few usable APs or a failed localize.
    pub fusion_no_fix: u64,
    /// Updates emitted from fewer APs than the target has ever seen
    /// (degraded coverage; a subset of `updates`).
    pub fusion_degraded: u64,
    /// Packets admitted with a timestamp older than one already released
    /// from the target's reorder window (processed anyway, out of ideal
    /// order).
    pub late_packets: u64,
    /// Deepest any shard queue got when a worker woke to drain it.
    pub max_queue_depth: u64,
}

/// Order statistics of a latency population, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Worst observed.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarizes a sample population (sorted in place).
    pub fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let q = |f: f64| samples[((samples.len() - 1) as f64 * f).round() as usize];
        LatencySummary {
            count: samples.len(),
            p50_ns: q(0.50),
            p90_ns: q(0.90),
            p99_ns: q(0.99),
            max_ns: *samples.last().expect("non-empty"),
        }
    }
}

/// Everything a finished fleet run reports: the final counters, the
/// enqueue→processed and enqueue→update latency distributions, and any
/// updates not yet drained through [`FleetEngine::try_updates`].
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Final aggregate counters.
    pub stats: FleetStats,
    /// Enqueue-to-processed latency per packet.
    pub packet_latency: LatencySummary,
    /// Enqueue-to-emitted latency per position update.
    pub update_latency: LatencySummary,
    /// Updates emitted after the last [`FleetEngine::try_updates`] drain.
    pub updates: Vec<FleetUpdate>,
}

/// Maps a target id to its shard: a splitmix64 finalizer over the id, so
/// adjacent ids spread evenly, reduced mod the worker count. Pure —
/// re-ingesting the same target always lands on the same worker.
pub(crate) fn shard_of(target_id: u64, shards: usize) -> usize {
    let mut z = target_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

// ── Bounded shard queue ─────────────────────────────────────────────────

struct Job {
    pkt: FleetPacket,
    enqueued: Instant,
}

struct QueueState {
    buf: VecDeque<Job>,
    closed: bool,
}

/// One worker's bounded FIFO ingest queue: a mutexed ring with separate
/// "work ready" and "space freed" condvars so producers and the consumer
/// never wake each other spuriously.
struct ShardQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    space: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(QueueState {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues under the overflow policy. Returns what happened; the
    /// caller does all counter accounting from the result.
    fn push(&self, job: Job, policy: OverflowPolicy) -> PushResult {
        let mut st = self.state.lock().expect("queue lock");
        if st.closed {
            return PushResult::Dropped;
        }
        if st.buf.len() >= self.capacity {
            match policy {
                OverflowPolicy::DropNewest => return PushResult::Dropped,
                OverflowPolicy::Block => {
                    while st.buf.len() >= self.capacity && !st.closed {
                        st = self.space.wait(st).expect("queue lock");
                    }
                    if st.closed {
                        return PushResult::Dropped;
                    }
                    st.buf.push_back(job);
                    drop(st);
                    self.ready.notify_one();
                    return PushResult::AcceptedAfterWait;
                }
            }
        }
        st.buf.push_back(job);
        drop(st);
        self.ready.notify_one();
        PushResult::Accepted
    }

    /// Blocks until work is available, then drains up to `max` jobs into
    /// `batch`, returning the queue depth seen at wake-up. Returns `None`
    /// only once the queue is closed *and* empty — a closed queue still
    /// drains everything already accepted, so `accepted = processed` holds
    /// after shutdown.
    fn pop_batch(&self, batch: &mut Vec<Job>, max: usize) -> Option<usize> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if !st.buf.is_empty() {
                let depth = st.buf.len();
                let n = max.max(1).min(depth);
                batch.extend(st.buf.drain(..n));
                drop(st);
                self.space.notify_all();
                return Some(depth);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).expect("queue lock");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.closed = true;
        drop(st);
        self.ready.notify_all();
        self.space.notify_all();
    }
}

// ── Shared stats ────────────────────────────────────────────────────────

#[derive(Default)]
struct StatsInner {
    ingested: AtomicU64,
    accepted: AtomicU64,
    deferred: AtomicU64,
    dropped: AtomicU64,
    processed: AtomicU64,
    stream_errors: AtomicU64,
    fusions: AtomicU64,
    updates: AtomicU64,
    fusion_no_fix: AtomicU64,
    fusion_degraded: AtomicU64,
    late_packets: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> FleetStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FleetStats {
            ingested: ld(&self.ingested),
            accepted: ld(&self.accepted),
            deferred: ld(&self.deferred),
            dropped: ld(&self.dropped),
            processed: ld(&self.processed),
            stream_errors: ld(&self.stream_errors),
            fusions: ld(&self.fusions),
            updates: ld(&self.updates),
            fusion_no_fix: ld(&self.fusion_no_fix),
            fusion_degraded: ld(&self.fusion_degraded),
            late_packets: ld(&self.late_packets),
            max_queue_depth: ld(&self.max_queue_depth),
        }
    }
}

// ── Per-shard processing ────────────────────────────────────────────────

struct WindowEntry {
    estimates: Vec<PathEstimate>,
    rssi_dbm: f64,
    time_s: f64,
}

/// One (target, AP) session on a shard: the persistent streaming state
/// plus the sliding window of recent packets' path estimates that each
/// fusion clusters over.
struct ApSlot {
    ap_id: u32,
    array: AntennaArray,
    stream: StreamState,
    window: VecDeque<WindowEntry>,
}

/// All of one target's state: its AP sessions (in first-seen order, which
/// depends only on the target's own packet sequence), the fusion cadence
/// counter, and the track filter.
struct TargetState {
    aps: Vec<ApSlot>,
    packets_since_fusion: usize,
    tracker: Tracker,
}

/// What one processed packet did, for the engine's atomic accounting.
#[derive(Default)]
struct ProcessDelta {
    error: bool,
    fused: bool,
    emitted: bool,
    no_fix: bool,
    degraded: bool,
}

/// A packet admitted to a shard but possibly still held in the reorder
/// window. `enqueued` is `None` on the serial reference path (no latency
/// accounting there).
struct PendingJob {
    pkt: FleetPacket,
    enqueued: Option<Instant>,
}

/// Per-target bounded reorder buffer: network delivery across receivers
/// is unsynchronized, so packets are admitted here and released in
/// timestamp order once the buffer holds `reorder_window` packets.
struct TargetReorder {
    /// Held packets, sorted ascending by timestamp (ties keep arrival
    /// order).
    buf: Vec<PendingJob>,
    /// Timestamp of the last released packet; arrivals older than this are
    /// late (counted, still processed).
    last_released_s: f64,
}

/// One worker's entire world: the shard's target map, the per-target
/// reorder windows, and the single shared scratch. Also runs inline as
/// the serial determinism reference ([`run_fleet_serial`]).
struct ShardWorker {
    cfg: FleetConfig,
    scratch: PacketScratch,
    targets: HashMap<u64, TargetState>,
    reorder: HashMap<u64, TargetReorder>,
}

impl ShardWorker {
    fn new(spotfi: &SpotFi, cfg: FleetConfig) -> Self {
        ShardWorker {
            cfg,
            scratch: PacketScratch::new(spotfi.config()),
            targets: HashMap::new(),
            reorder: HashMap::new(),
        }
    }

    /// Admits one packet: with `reorder_window ≤ 1` it is released
    /// immediately (the legacy bit-exact path); otherwise it is buffered
    /// and the oldest packet is released once the target's window is full.
    /// Returns how many admitted packets were late (older than an already
    /// released timestamp).
    fn admit(&mut self, job: PendingJob, released: &mut Vec<PendingJob>) -> u64 {
        let window = self.cfg.reorder_window;
        if window <= 1 {
            released.push(job);
            return 0;
        }
        let entry = self
            .reorder
            .entry(job.pkt.target_id)
            .or_insert_with(|| TargetReorder {
                buf: Vec::with_capacity(window),
                last_released_s: f64::NEG_INFINITY,
            });
        let ts = job.pkt.packet.timestamp_s;
        let late = (ts < entry.last_released_s) as u64;
        if late > 0 {
            spotfi_obs::counter("fleet.late_packets", 1);
        }
        // Insert after any equal timestamps so arrival order breaks ties.
        let at = entry
            .buf
            .partition_point(|j| j.pkt.packet.timestamp_s <= ts);
        entry.buf.insert(at, job);
        while entry.buf.len() >= window.max(1) {
            let next = entry.buf.remove(0);
            entry.last_released_s = next.pkt.packet.timestamp_s;
            released.push(next);
        }
        late
    }

    /// Drains every reorder buffer (stream end / shutdown). Release order
    /// is `(target_id, timestamp, arrival)` — independent of the hash
    /// map's iteration order, so serial and engine flushes agree.
    fn flush_reorder(&mut self, released: &mut Vec<PendingJob>) {
        let mut targets: Vec<u64> = self
            .reorder
            .iter()
            .filter(|(_, r)| !r.buf.is_empty())
            .map(|(&t, _)| t)
            .collect();
        targets.sort_unstable();
        for t in targets {
            let entry = self.reorder.get_mut(&t).expect("reorder entry");
            for job in entry.buf.drain(..) {
                entry.last_released_s = job.pkt.packet.timestamp_s;
                released.push(job);
            }
        }
    }

    /// Runs one packet through the streaming path and, on the target's
    /// fusion cadence, the fusion stage. Emitted updates are appended to
    /// `out`.
    fn process(
        &mut self,
        spotfi: &SpotFi,
        pkt: &FleetPacket,
        out: &mut Vec<FleetUpdate>,
    ) -> ProcessDelta {
        let mut delta = ProcessDelta::default();
        let cfg = self.cfg;
        let scratch = &mut self.scratch;
        let target = self
            .targets
            .entry(pkt.target_id)
            .or_insert_with(|| TargetState {
                aps: Vec::new(),
                packets_since_fusion: 0,
                tracker: Tracker::new(cfg.tracker),
            });
        let idx = match target.aps.iter().position(|s| s.ap_id == pkt.ap_id) {
            Some(i) => i,
            None => {
                target.aps.push(ApSlot {
                    ap_id: pkt.ap_id,
                    array: pkt.array,
                    stream: StreamState::new(spotfi.config()),
                    window: VecDeque::with_capacity(cfg.window_packets.max(1)),
                });
                target.aps.len() - 1
            }
        };

        spotfi_obs::counter("fleet.processed", 1);
        let slot = &mut target.aps[idx];
        match spotfi.analyze_packet_streaming_with(&pkt.packet, &mut slot.stream, scratch) {
            Ok(estimates) => {
                if slot.window.len() >= cfg.window_packets.max(1) {
                    slot.window.pop_front();
                }
                slot.window.push_back(WindowEntry {
                    estimates,
                    rssi_dbm: pkt.packet.rssi_dbm,
                    time_s: pkt.packet.timestamp_s,
                });
            }
            Err(_) => {
                // Stream state survives; the next packet re-anchors.
                spotfi_obs::counter("fleet.stream_errors", 1);
                delta.error = true;
            }
        }

        target.packets_since_fusion += 1;
        if target.packets_since_fusion < cfg.fusion_interval.max(1) {
            return delta;
        }
        target.packets_since_fusion = 0;
        delta.fused = true;
        spotfi_obs::counter("fleet.fusions", 1);
        let _fuse = spotfi_obs::span("stage.fuse");

        // Evict stale window entries first: an AP that went silent (late,
        // lost, offline) ages out of the fix instead of pinning the target
        // to its last heard bearing forever.
        let now = pkt.packet.timestamp_s;
        if cfg.ap_stale_s.is_finite() && cfg.ap_stale_s > 0.0 {
            for slot in &mut target.aps {
                while let Some(front) = slot.window.front() {
                    if now - front.time_s > cfg.ap_stale_s {
                        slot.window.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }

        // Per AP: cluster the window's estimates and pick the direct path,
        // exactly the Algorithm 2 tail the batch pipeline runs per AP.
        let mut measurements: Vec<ApMeasurement> = Vec::with_capacity(target.aps.len());
        let mut flat: Vec<PathEstimate> = Vec::new();
        let mut rssi: Vec<f64> = Vec::new();
        for slot in &target.aps {
            flat.clear();
            rssi.clear();
            for entry in &slot.window {
                flat.extend_from_slice(&entry.estimates);
                rssi.push(entry.rssi_dbm);
            }
            if flat.is_empty() {
                continue;
            }
            if let (_, Some(direct)) = spotfi.cluster_and_select(&flat) {
                measurements.push(ApMeasurement {
                    array: slot.array,
                    direct_aoa_deg: direct.aoa_deg,
                    likelihood: direct.likelihood,
                    rssi_dbm: mean(&rssi),
                });
            }
        }

        if measurements.len() < cfg.min_fusion_aps.max(2) {
            spotfi_obs::counter("fleet.fusion_no_fix", 1);
            delta.no_fix = true;
            return delta;
        }
        // Degraded coverage: fewer APs contributed than this target has
        // ever seen (missing, late, or stale-evicted). Still localize —
        // ≥ min_fusion_aps bearings fix a position — but widen the
        // smoother's measurement covariance in proportion to the missing
        // information, so a depleted fix pulls the track more gently.
        let deployed = target.aps.len();
        let usable = measurements.len();
        let degraded = usable < deployed;
        let std_override = if degraded && cfg.degraded_std_scale > 0.0 {
            Some(
                cfg.tracker.measurement_std_m
                    * (deployed as f64 / usable as f64).sqrt()
                    * cfg.degraded_std_scale,
            )
        } else {
            None
        };
        match spotfi.fuse(&measurements, cfg.bounds) {
            Ok(est) => {
                let time_s = pkt.packet.timestamp_s;
                let outcome = target.tracker.update(time_s, est.position, std_override);
                let tracked = target.tracker.position().unwrap_or(est.position);
                let tracked_velocity = target.tracker.velocity().unwrap_or((0.0, 0.0));
                spotfi_obs::counter("fleet.updates", 1);
                if degraded {
                    spotfi_obs::counter("fleet.fusion_degraded", 1);
                    delta.degraded = true;
                }
                out.push(FleetUpdate {
                    target_id: pkt.target_id,
                    time_s,
                    raw: est,
                    tracked,
                    tracked_velocity,
                    outcome,
                    aps_used: measurements.len(),
                    degraded,
                });
                delta.emitted = true;
            }
            Err(_) => {
                spotfi_obs::counter("fleet.fusion_no_fix", 1);
                delta.no_fix = true;
            }
        }
        delta
    }
}

// ── The engine ──────────────────────────────────────────────────────────

struct WorkerReport {
    packet_lat_ns: Vec<u64>,
    update_lat_ns: Vec<u64>,
}

/// The persistent worker pool: ingest interleaved [`FleetPacket`]s, drain
/// continuous [`FleetUpdate`]s, shut down for a [`FleetReport`].
///
/// ```no_run
/// use spotfi_core::{FleetConfig, FleetEngine, SpotFi, SpotFiConfig};
///
/// let engine = FleetEngine::new(SpotFi::new(SpotFiConfig::default()), FleetConfig::default());
/// // for pkt in capture { engine.ingest(pkt); for u in engine.try_updates() { … } }
/// let report = engine.shutdown();
/// assert_eq!(report.stats.ingested, report.stats.accepted + report.stats.dropped);
/// ```
pub struct FleetEngine {
    queues: Vec<Arc<ShardQueue>>,
    handles: Vec<JoinHandle<WorkerReport>>,
    updates_rx: Receiver<FleetUpdate>,
    stats: Arc<StatsInner>,
    policy: OverflowPolicy,
}

impl FleetEngine {
    /// Spawns the worker pool (`cfg.workers`, or one per hardware thread
    /// when 0) and returns the running engine.
    pub fn new(spotfi: SpotFi, cfg: FleetConfig) -> Self {
        let workers = if cfg.workers == 0 {
            hardware_parallelism()
        } else {
            cfg.workers
        };
        let spotfi = Arc::new(spotfi);
        let stats = Arc::new(StatsInner::default());
        let (tx, updates_rx) = channel::<FleetUpdate>();
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let queue = Arc::new(ShardQueue::new(cfg.queue_capacity));
            queues.push(Arc::clone(&queue));
            let spotfi = Arc::clone(&spotfi);
            let stats = Arc::clone(&stats);
            let tx = tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("fleet-{}", w))
                    .spawn(move || worker_loop(&spotfi, cfg, &queue, &tx, &stats))
                    .expect("spawn fleet worker"),
            );
        }
        FleetEngine {
            queues,
            handles,
            updates_rx,
            stats,
            policy: cfg.overflow,
        }
    }

    /// Routes one packet to its target's shard. Every call is accounted:
    /// the result (and the `fleet.ingested/accepted/deferred/dropped`
    /// counters) say exactly what happened — packets are never lost
    /// silently.
    pub fn ingest(&self, pkt: FleetPacket) -> PushResult {
        spotfi_obs::counter("fleet.ingested", 1);
        self.stats.ingested.fetch_add(1, Ordering::Relaxed);
        let shard = shard_of(pkt.target_id, self.queues.len());
        let result = self.queues[shard].push(
            Job {
                pkt,
                enqueued: Instant::now(),
            },
            self.policy,
        );
        match result {
            PushResult::Accepted => {
                spotfi_obs::counter("fleet.accepted", 1);
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            }
            PushResult::AcceptedAfterWait => {
                spotfi_obs::counter("fleet.accepted", 1);
                spotfi_obs::counter("fleet.deferred", 1);
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                self.stats.deferred.fetch_add(1, Ordering::Relaxed);
            }
            PushResult::Dropped => {
                spotfi_obs::counter("fleet.dropped", 1);
                spotfi_obs::counter("fleet.deferred", 1);
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                self.stats.deferred.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Drains every update emitted so far without blocking.
    pub fn try_updates(&self) -> Vec<FleetUpdate> {
        let mut out = Vec::new();
        while let Ok(u) = self.updates_rx.try_recv() {
            out.push(u);
        }
        out
    }

    /// Live counter snapshot (workers keep running).
    pub fn stats(&self) -> FleetStats {
        self.stats.snapshot()
    }

    /// Closes the queues, lets the workers drain everything already
    /// accepted, joins them, and reports. After this, every accepted
    /// packet has been processed (`accepted = processed`).
    pub fn shutdown(mut self) -> FleetReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> FleetReport {
        for q in &self.queues {
            q.close();
        }
        let mut packet_lat: Vec<u64> = Vec::new();
        let mut update_lat: Vec<u64> = Vec::new();
        for handle in self.handles.drain(..) {
            if let Ok(report) = handle.join() {
                packet_lat.extend(report.packet_lat_ns);
                update_lat.extend(report.update_lat_ns);
            }
        }
        let mut updates = Vec::new();
        while let Ok(u) = self.updates_rx.try_recv() {
            updates.push(u);
        }
        FleetReport {
            stats: self.stats.snapshot(),
            packet_latency: LatencySummary::from_samples(&mut packet_lat),
            update_latency: LatencySummary::from_samples(&mut update_lat),
            updates,
        }
    }
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

/// Runs one released packet through the worker and does all engine-side
/// accounting (atomics, latency samples, update forwarding).
#[allow(clippy::too_many_arguments)]
fn run_released(
    worker: &mut ShardWorker,
    spotfi: &SpotFi,
    job: PendingJob,
    tx: &Sender<FleetUpdate>,
    stats: &StatsInner,
    out: &mut Vec<FleetUpdate>,
    packet_lat_ns: &mut Vec<u64>,
    update_lat_ns: &mut Vec<u64>,
) {
    out.clear();
    let delta = worker.process(spotfi, &job.pkt, out);
    if let Some(enqueued) = job.enqueued {
        let lat = enqueued.elapsed().as_nanos() as u64;
        packet_lat_ns.push(lat);
        spotfi_obs::value("runtime.fleet_packet_latency_us", lat as f64 / 1e3);
    }
    stats.processed.fetch_add(1, Ordering::Relaxed);
    if delta.error {
        stats.stream_errors.fetch_add(1, Ordering::Relaxed);
    }
    if delta.fused {
        stats.fusions.fetch_add(1, Ordering::Relaxed);
    }
    if delta.no_fix {
        stats.fusion_no_fix.fetch_add(1, Ordering::Relaxed);
    }
    if delta.degraded {
        stats.fusion_degraded.fetch_add(1, Ordering::Relaxed);
    }
    if delta.emitted {
        if let Some(enqueued) = job.enqueued {
            let ulat = enqueued.elapsed().as_nanos() as u64;
            update_lat_ns.push(ulat);
            spotfi_obs::value("runtime.fleet_update_latency_us", ulat as f64 / 1e3);
        }
        stats.updates.fetch_add(1, Ordering::Relaxed);
        for u in out.drain(..) {
            // The receiver only disappears mid-run if the engine was
            // leaked; dropping the update is the only sane option.
            let _ = tx.send(u);
        }
    }
}

fn worker_loop(
    spotfi: &SpotFi,
    cfg: FleetConfig,
    queue: &ShardQueue,
    tx: &Sender<FleetUpdate>,
    stats: &StatsInner,
) -> WorkerReport {
    let mut worker = ShardWorker::new(spotfi, cfg);
    let batch_size = cfg.batch_size.max(1);
    let mut batch: Vec<Job> = Vec::with_capacity(batch_size);
    let mut released: Vec<PendingJob> = Vec::new();
    let mut out: Vec<FleetUpdate> = Vec::new();
    let mut packet_lat_ns: Vec<u64> = Vec::new();
    let mut update_lat_ns: Vec<u64> = Vec::new();
    while let Some(depth) = queue.pop_batch(&mut batch, batch_size) {
        stats
            .max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        spotfi_obs::value("runtime.fleet_queue_depth", depth as f64);
        spotfi_obs::value("runtime.fleet_batch_packets", batch.len() as f64);
        for job in batch.drain(..) {
            released.clear();
            let late = worker.admit(
                PendingJob {
                    pkt: job.pkt,
                    enqueued: Some(job.enqueued),
                },
                &mut released,
            );
            if late > 0 {
                stats.late_packets.fetch_add(late, Ordering::Relaxed);
            }
            for pj in released.drain(..) {
                run_released(
                    &mut worker,
                    spotfi,
                    pj,
                    tx,
                    stats,
                    &mut out,
                    &mut packet_lat_ns,
                    &mut update_lat_ns,
                );
            }
        }
    }
    // Queue closed: drain the reorder windows so every accepted packet is
    // processed (`accepted = processed` after shutdown).
    released.clear();
    worker.flush_reorder(&mut released);
    for pj in released.drain(..) {
        run_released(
            &mut worker,
            spotfi,
            pj,
            tx,
            stats,
            &mut out,
            &mut packet_lat_ns,
            &mut update_lat_ns,
        );
    }
    // Merge this worker's per-thread observability shard before the thread
    // exits — scoped joins don't run thread-local destructors.
    spotfi_obs::flush_thread();
    WorkerReport {
        packet_lat_ns,
        update_lat_ns,
    }
}

/// The single-threaded determinism reference: runs the exact per-packet
/// and fusion code the engine's workers run, inline, over `schedule` in
/// order. Per-target outputs from [`FleetEngine`] must match this at any
/// worker count (each target's packets stay in their `schedule` order).
pub fn run_fleet_serial(
    spotfi: &SpotFi,
    cfg: &FleetConfig,
    schedule: &[FleetPacket],
) -> (Vec<FleetUpdate>, FleetStats) {
    let mut worker = ShardWorker::new(spotfi, *cfg);
    let mut updates = Vec::new();
    let mut stats = FleetStats::default();
    let mut released: Vec<PendingJob> = Vec::new();
    let run = |worker: &mut ShardWorker,
               released: &mut Vec<PendingJob>,
               stats: &mut FleetStats,
               updates: &mut Vec<FleetUpdate>| {
        for pj in released.drain(..) {
            stats.processed += 1;
            let delta = worker.process(spotfi, &pj.pkt, updates);
            stats.stream_errors += delta.error as u64;
            stats.fusions += delta.fused as u64;
            stats.updates += delta.emitted as u64;
            stats.fusion_no_fix += delta.no_fix as u64;
            stats.fusion_degraded += delta.degraded as u64;
        }
    };
    for pkt in schedule {
        spotfi_obs::counter("fleet.ingested", 1);
        spotfi_obs::counter("fleet.accepted", 1);
        stats.ingested += 1;
        stats.accepted += 1;
        released.clear();
        stats.late_packets += worker.admit(
            PendingJob {
                pkt: pkt.clone(),
                enqueued: None,
            },
            &mut released,
        );
        run(&mut worker, &mut released, &mut stats, &mut updates);
    }
    released.clear();
    worker.flush_reorder(&mut released);
    run(&mut worker, &mut released, &mut stats, &mut updates);
    (updates, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 7, 16] {
            for id in 0..256u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "must be pure");
            }
        }
        // splitmix64 spreads consecutive ids: 256 ids over 4 shards should
        // not collapse onto one.
        let counts = (0..256u64).fold([0usize; 4], |mut acc, id| {
            acc[shard_of(id, 4)] += 1;
            acc
        });
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 32, "shard {} got {} of 256 ids", shard, c);
        }
    }

    #[test]
    fn latency_summary_orders_quantiles() {
        let mut samples: Vec<u64> = (1..=1000).rev().collect();
        let s = LatencySummary::from_samples(&mut samples);
        assert_eq!(s.count, 1000);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        assert_eq!(s.max_ns, 1000);
        let mut empty = Vec::new();
        assert_eq!(LatencySummary::from_samples(&mut empty).count, 0);
    }

    #[test]
    fn queue_drop_newest_sheds_when_full() {
        let q = ShardQueue::new(2);
        let job = || Job {
            pkt: FleetPacket {
                target_id: 0,
                ap_id: 0,
                array: spotfi_channel::AntennaArray::intel5300(
                    Point::new(0.0, 0.0),
                    0.0,
                    spotfi_channel::constants::DEFAULT_CARRIER_HZ,
                ),
                packet: CsiPacket {
                    csi: spotfi_math::CMat::zeros(3, 30),
                    rssi_dbm: -50.0,
                    timestamp_s: 0.0,
                    injected_sto_s: 0.0,
                },
            },
            enqueued: Instant::now(),
        };
        assert_eq!(
            q.push(job(), OverflowPolicy::DropNewest),
            PushResult::Accepted
        );
        assert_eq!(
            q.push(job(), OverflowPolicy::DropNewest),
            PushResult::Accepted
        );
        assert_eq!(
            q.push(job(), OverflowPolicy::DropNewest),
            PushResult::Dropped
        );
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch, 8), Some(2));
        assert_eq!(batch.len(), 2);
        q.close();
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch, 8), None);
        assert_eq!(q.push(job(), OverflowPolicy::Block), PushResult::Dropped);
    }
}
