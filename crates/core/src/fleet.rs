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
//! state — every AP's rolling covariance and tracked basis, the fusion
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
//! packet and says so. Workers drain up to `BATCH_SIZE` (32) packets per
//! wake-up, amortizing the queue lock and condvar wake.
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
//!
//! ### Accounting
//!
//! Each event is counted once, where it happens, in the run's one ledger
//! ([`FleetStats`] behind shared atomics). A finished run publishes that
//! ledger as the `fleet.*` counters exactly once; per-packet latency goes
//! only to the recorder's histograms, and the clock is read for it only
//! while the recorder is on.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use spotfi_channel::{AntennaArray, CsiPacket, Point};
use spotfi_math::stats::mean_of;

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

/// Backpressure and throughput accounting, aggregated across the run and
/// published once, at the run's end, as the `fleet.<field>` counters
/// (all fields but `max_queue_depth`).
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

/// Everything a finished fleet run reports: the final counters and any
/// updates not yet drained through [`FleetEngine::try_updates`]. Latency
/// distributions live in the recorder's `runtime.fleet_packet_latency_us`
/// and `runtime.fleet_update_latency_us` histograms.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Final aggregate counters.
    pub stats: FleetStats,
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

/// Packets a worker drains per wake-up.
const BATCH_SIZE: usize = 32;

/// A packet on its way through a shard. `enqueued` is stamped at ingest
/// only while the recorder is on (it feeds the latency histograms), and
/// is always `None` on the serial reference path.
struct Job {
    pkt: FleetPacket,
    enqueued: Option<Instant>,
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

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Publishes a finished run's ledger as the `fleet.*` counters — the only
/// place they are recorded, once per run (DESIGN §7: accumulate locally,
/// emit once).
fn publish(s: &FleetStats) {
    spotfi_obs::counter("fleet.ingested", s.ingested);
    spotfi_obs::counter("fleet.accepted", s.accepted);
    spotfi_obs::counter("fleet.deferred", s.deferred);
    spotfi_obs::counter("fleet.dropped", s.dropped);
    spotfi_obs::counter("fleet.processed", s.processed);
    spotfi_obs::counter("fleet.stream_errors", s.stream_errors);
    spotfi_obs::counter("fleet.fusions", s.fusions);
    spotfi_obs::counter("fleet.updates", s.updates);
    spotfi_obs::counter("fleet.fusion_no_fix", s.fusion_no_fix);
    spotfi_obs::counter("fleet.fusion_degraded", s.fusion_degraded);
    spotfi_obs::counter("fleet.late_packets", s.late_packets);
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

/// Per-target bounded reorder buffer: network delivery across receivers
/// is unsynchronized, so packets are admitted here and released in
/// timestamp order once the buffer holds `reorder_window` packets.
struct TargetReorder {
    /// Held packets, sorted ascending by timestamp (ties keep arrival
    /// order).
    buf: Vec<Job>,
    /// Timestamp of the last released packet; arrivals older than this are
    /// late (counted, still processed).
    last_released_s: f64,
}

/// One worker's entire world: the shard's target map, the per-target
/// reorder windows, the single shared scratch, and the run's ledger. Also
/// runs inline as the serial determinism reference ([`run_fleet_serial`]).
struct ShardWorker {
    cfg: FleetConfig,
    scratch: PacketScratch,
    targets: HashMap<u64, TargetState>,
    reorder: HashMap<u64, TargetReorder>,
    stats: Arc<StatsInner>,
}

impl ShardWorker {
    fn new(spotfi: &SpotFi, cfg: FleetConfig, stats: Arc<StatsInner>) -> Self {
        ShardWorker {
            cfg,
            scratch: PacketScratch::new(spotfi.config()),
            targets: HashMap::new(),
            reorder: HashMap::new(),
            stats,
        }
    }

    /// Admits one packet: with `reorder_window ≤ 1` it is released
    /// immediately (the legacy bit-exact path); otherwise it is buffered
    /// and the oldest packet is released once the target's window is full.
    /// Counts packets older than an already released timestamp as late.
    fn admit(&mut self, job: Job, released: &mut Vec<Job>) {
        let window = self.cfg.reorder_window;
        if window <= 1 {
            released.push(job);
            return;
        }
        let entry = self
            .reorder
            .entry(job.pkt.target_id)
            .or_insert_with(|| TargetReorder {
                buf: Vec::with_capacity(window),
                last_released_s: f64::NEG_INFINITY,
            });
        let ts = job.pkt.packet.timestamp_s;
        if ts < entry.last_released_s {
            bump(&self.stats.late_packets);
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
    }

    /// Drains every reorder buffer (stream end / shutdown). Release order
    /// is `(target_id, timestamp, arrival)` — independent of the hash
    /// map's iteration order, so serial and engine flushes agree.
    fn flush_reorder(&mut self, released: &mut Vec<Job>) {
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
    /// fusion cadence, the fusion stage, counting each outcome in the
    /// ledger; the packet counts as processed once all of that is done.
    /// Emitted updates are appended to `out`.
    fn process(&mut self, spotfi: &SpotFi, pkt: &FleetPacket, out: &mut Vec<FleetUpdate>) {
        let cfg = self.cfg;
        let stats = &*self.stats;
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
                bump(&stats.stream_errors);
            }
        }

        target.packets_since_fusion += 1;
        if target.packets_since_fusion >= cfg.fusion_interval.max(1) {
            target.packets_since_fusion = 0;
            target.fuse(spotfi, &cfg, stats, pkt, out);
        }
        bump(&stats.processed);
    }
}

impl TargetState {
    /// The fusion stage for the target `pkt` belongs to: Algorithm 2's tail
    /// (cluster → likelihood → Eq. 9 localize) over every AP's window, then
    /// the Kalman smoother. A fix is appended to `out`.
    fn fuse(
        &mut self,
        spotfi: &SpotFi,
        cfg: &FleetConfig,
        stats: &StatsInner,
        pkt: &FleetPacket,
        out: &mut Vec<FleetUpdate>,
    ) {
        bump(&stats.fusions);
        let _fuse = spotfi_obs::span("stage.fuse");

        // Evict stale window entries first: an AP that went silent (late,
        // lost, offline) ages out of the fix instead of pinning the target
        // to its last heard bearing forever.
        let now = pkt.packet.timestamp_s;
        if cfg.ap_stale_s.is_finite() && cfg.ap_stale_s > 0.0 {
            for slot in &mut self.aps {
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
        let mut measurements: Vec<ApMeasurement> = Vec::with_capacity(self.aps.len());
        let mut flat: Vec<PathEstimate> = Vec::new();
        for slot in &self.aps {
            flat.clear();
            for entry in &slot.window {
                flat.extend_from_slice(&entry.estimates);
            }
            if flat.is_empty() {
                continue;
            }
            if let (_, Some(direct)) = spotfi.cluster_and_select(&flat) {
                measurements.push(ApMeasurement {
                    array: slot.array,
                    direct_aoa_deg: direct.aoa_deg,
                    likelihood: direct.likelihood,
                    rssi_dbm: mean_of(slot.window.iter().map(|entry| entry.rssi_dbm)),
                });
            }
        }

        if measurements.len() < cfg.min_fusion_aps.max(2) {
            bump(&stats.fusion_no_fix);
            return;
        }
        // Degraded coverage: fewer APs contributed than this target has
        // ever seen (missing, late, or stale-evicted). Still localize —
        // ≥ min_fusion_aps bearings fix a position — but widen the
        // smoother's measurement covariance in proportion to the missing
        // information, so a depleted fix pulls the track more gently.
        let deployed = self.aps.len();
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
                let outcome = self.tracker.update(time_s, est.position, std_override);
                let tracked = self.tracker.position().unwrap_or(est.position);
                let tracked_velocity = self.tracker.velocity().unwrap_or((0.0, 0.0));
                bump(&stats.updates);
                if degraded {
                    bump(&stats.fusion_degraded);
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
            }
            Err(_) => bump(&stats.fusion_no_fix),
        }
    }
}

// ── The engine ──────────────────────────────────────────────────────────

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
    handles: Vec<JoinHandle<()>>,
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
            let worker = ShardWorker::new(&spotfi, cfg, Arc::clone(&stats));
            let tx = tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("fleet-{}", w))
                    .spawn(move || worker_loop(&spotfi, worker, &queue, &tx))
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
    /// the result (and the ledger's `ingested/accepted/deferred/dropped`)
    /// say exactly what happened — packets are never lost silently.
    pub fn ingest(&self, pkt: FleetPacket) -> PushResult {
        let stats = &*self.stats;
        bump(&stats.ingested);
        let shard = shard_of(pkt.target_id, self.queues.len());
        let enqueued = spotfi_obs::enabled().then(Instant::now);
        let result = self.queues[shard].push(Job { pkt, enqueued }, self.policy);
        match result {
            PushResult::Accepted => bump(&stats.accepted),
            PushResult::AcceptedAfterWait => {
                bump(&stats.accepted);
                bump(&stats.deferred);
            }
            PushResult::Dropped => {
                bump(&stats.dropped);
                bump(&stats.deferred);
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
    /// accepted, joins them, publishes the `fleet.*` counters, and reports.
    /// After this, every accepted packet has been processed
    /// (`accepted = processed`).
    pub fn shutdown(mut self) -> FleetReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> FleetReport {
        for q in &self.queues {
            q.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let stats = self.stats.snapshot();
        publish(&stats);
        FleetReport {
            stats,
            updates: self.try_updates(),
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

/// Runs one released packet through the worker, records its latency while
/// the recorder is on, and forwards its updates — after `process` has
/// counted them, so a reader that sees an update also sees its counters.
fn run_released(
    worker: &mut ShardWorker,
    spotfi: &SpotFi,
    job: Job,
    tx: &Sender<FleetUpdate>,
    out: &mut Vec<FleetUpdate>,
) {
    worker.process(spotfi, &job.pkt, out);
    if let Some(enqueued) = job.enqueued {
        let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;
        spotfi_obs::value("runtime.fleet_packet_latency_us", us(enqueued));
        if !out.is_empty() {
            spotfi_obs::value("runtime.fleet_update_latency_us", us(enqueued));
        }
    }
    for u in out.drain(..) {
        // The receiver only disappears mid-run if the engine was leaked;
        // dropping the update is the only sane option.
        let _ = tx.send(u);
    }
}

fn worker_loop(
    spotfi: &SpotFi,
    mut worker: ShardWorker,
    queue: &ShardQueue,
    tx: &Sender<FleetUpdate>,
) {
    let mut batch: Vec<Job> = Vec::with_capacity(BATCH_SIZE);
    let mut released: Vec<Job> = Vec::new();
    let mut out: Vec<FleetUpdate> = Vec::new();
    while let Some(depth) = queue.pop_batch(&mut batch, BATCH_SIZE) {
        worker
            .stats
            .max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        spotfi_obs::value("runtime.fleet_queue_depth", depth as f64);
        spotfi_obs::value("runtime.fleet_batch_packets", batch.len() as f64);
        for job in batch.drain(..) {
            worker.admit(job, &mut released);
            for job in released.drain(..) {
                run_released(&mut worker, spotfi, job, tx, &mut out);
            }
        }
    }
    // Queue closed: drain the reorder windows so every accepted packet is
    // processed (`accepted = processed` after shutdown).
    worker.flush_reorder(&mut released);
    for job in released.drain(..) {
        run_released(&mut worker, spotfi, job, tx, &mut out);
    }
    // Merge this worker's per-thread observability shard before the thread
    // exits — scoped joins don't run thread-local destructors.
    spotfi_obs::flush_thread();
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
    let mut worker = ShardWorker::new(spotfi, *cfg, Arc::default());
    let mut updates = Vec::new();
    let mut released: Vec<Job> = Vec::new();
    for pkt in schedule {
        bump(&worker.stats.ingested);
        bump(&worker.stats.accepted);
        let job = Job {
            pkt: pkt.clone(),
            enqueued: None,
        };
        worker.admit(job, &mut released);
        for job in released.drain(..) {
            worker.process(spotfi, &job.pkt, &mut updates);
        }
    }
    worker.flush_reorder(&mut released);
    for job in released.drain(..) {
        worker.process(spotfi, &job.pkt, &mut updates);
    }
    let stats = worker.stats.snapshot();
    publish(&stats);
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
            enqueued: None,
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
