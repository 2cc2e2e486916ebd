//! Scoped-thread parallel execution engine (zero dependencies).
//!
//! The SpotFi pipeline fans out over the APs of a fix (each AP's packets
//! run as one serial stream), and a testbed run over its targets and
//! links; every unit of work at each level is independent and pure. This
//! module provides the one primitive they share: [`parallel_map_with`], an
//! order-preserving indexed map over `std::thread::scope` workers with
//! per-worker scratch state. The calling thread is one of the workers: a
//! section of `w` workers spawns `w − 1` scoped threads and the caller
//! takes items alongside them instead of idling in the join: each spawn
//! and join costs tens of microseconds, and a set-up opens many sections.
//!
//! **Determinism:** workers pull indices from a shared atomic counter, so
//! *which* worker computes item `i` is racy — but item `i`'s result depends
//! only on `i`, and results are returned in index order. Combined with the
//! pipeline's purely-functional per-item closures this makes `threads > 1`
//! bit-identical to the serial path (`threads == 1`), which short-circuits
//! to a plain loop with no thread machinery at all.
//!
//! **Nesting:** one budget is never spent twice over. A call made on one of
//! a section's workers (the caller included, while it runs items) runs as
//! the plain serial loop, whatever its `threads` argument says, so a
//! parallel map over targets whose items reach another parallel map (over
//! a target's links, say) keeps one level of workers. Results are still
//! returned in index order, so running inline changes no output bit.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set on every worker thread [`parallel_map_with`] spawns, and on its
    /// calling thread while that runs items.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The host's available parallelism, queried once and cached.
///
/// `std::thread::available_parallelism()` can take a syscall (cgroup quota
/// inspection on Linux), so the pipeline's per-packet hot path must not call
/// it directly.
pub fn hardware_parallelism() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Execution-resource configuration for the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker-thread budget for one pipeline invocation. `1` means fully
    /// serial (the reference path); `0` is normalized to `1`.
    pub threads: usize,
}

impl Default for RuntimeConfig {
    /// Uses all available hardware parallelism.
    fn default() -> Self {
        RuntimeConfig {
            threads: hardware_parallelism(),
        }
    }
}

impl RuntimeConfig {
    /// The serial reference configuration.
    pub fn serial() -> Self {
        RuntimeConfig { threads: 1 }
    }

    /// A fixed thread budget.
    pub fn with_threads(threads: usize) -> Self {
        RuntimeConfig {
            threads: threads.max(1),
        }
    }

    /// Normalized thread budget (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The budget actually worth spending: `threads` capped at
    /// [`hardware_parallelism`]. The pipeline is CPU-bound, so running more
    /// workers than cores only adds context-switch and cache-thrash overhead
    /// (the recorded 0.883 "speedup" in an early bench was 8 requested
    /// threads on a 1-core host).
    pub fn effective_threads(&self) -> usize {
        self.threads().min(hardware_parallelism())
    }
}

/// Maps `f` over `0..n` with up to `threads` workers, each carrying
/// scratch state built once per worker by `init`: the calling thread and
/// `threads − 1` scoped threads. Results come back in index order. With
/// `threads <= 1` (or `n <= 1`), or when called on a worker of an
/// enclosing section, this degenerates to a plain serial loop — no
/// threads, no atomics.
pub fn parallel_map_with<T, S, I, F>(n: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 || IN_WORKER.get() {
        if spotfi_obs::enabled() {
            spotfi_obs::counter("runtime.serial_sections", 1);
            spotfi_obs::value("runtime.section_items", n as f64);
        }
        let mut scratch = init();
        return (0..n).map(|i| f(&mut scratch, i)).collect();
    }
    let workers = threads.min(n);
    if spotfi_obs::enabled() {
        spotfi_obs::counter("runtime.parallel_sections", 1);
        spotfi_obs::counter("runtime.workers_spawned", (workers - 1) as u64);
        spotfi_obs::value("runtime.section_items", n as f64);
    }
    let next = AtomicUsize::new(0);
    // One worker's share: items pulled from the shared counter until it
    // runs dry, each tagged with its index.
    let work = || {
        let mut scratch = init();
        let mut out: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if out.is_empty() && spotfi_obs::enabled() {
                // Queue depth seen by this worker as it starts.
                spotfi_obs::value("runtime.queue_depth_at_start", (n - i) as f64);
            }
            out.push((i, f(&mut scratch, i)));
        }
        if spotfi_obs::enabled() {
            // Per-worker utilization: items each worker processed.
            spotfi_obs::value("runtime.worker_items", out.len() as f64);
        }
        out
    };
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(move || {
                    IN_WORKER.set(true);
                    let out = work();
                    // Merge this worker's observability shard before the
                    // closure returns: the explicit join below does wait for
                    // thread-local destructors, but flushing here keeps the
                    // metrics contract independent of how the section is
                    // joined.
                    spotfi_obs::flush_thread();
                    out
                })
            })
            .collect();
        // The calling thread is a worker too, for the section's length.
        let caller = CallerAsWorker::enter();
        let own = work();
        drop(caller);
        for (i, v) in own {
            slots[i] = Some(v);
        }
        for h in handles {
            for (i, v) in h.join().expect("runtime worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index computed exactly once"))
        .collect()
}

/// Marks the calling thread as a section worker until dropped (also on
/// unwind), so that sections its items open run inline.
struct CallerAsWorker;

impl CallerAsWorker {
    fn enter() -> Self {
        IN_WORKER.set(true);
        CallerAsWorker
    }
}

impl Drop for CallerAsWorker {
    fn drop(&mut self) {
        IN_WORKER.set(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let serial = parallel_map_with(100, 1, || (), |_, i| i * i);
        let parallel = parallel_map_with(100, 8, || (), |_, i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn order_preserved_under_contention() {
        // Uneven work per item stresses the work-stealing order.
        let out = parallel_map_with(
            64,
            4,
            || (),
            |_, i| {
                let mut acc = i as u64;
                for k in 0..(i % 7) * 10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
                }
                (i, acc)
            },
        );
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(
            parallel_map_with(0, 4, || (), |_, i| i),
            Vec::<usize>::new()
        );
        assert_eq!(parallel_map_with(1, 4, || (), |_, i| i + 1), vec![1]);
    }

    #[test]
    fn scratch_reused_within_worker() {
        // Each worker's scratch counts its items; the sum must be n.
        let counts = parallel_map_with(
            50,
            4,
            || 0usize,
            |c, _i| {
                *c += 1;
                *c
            },
        );
        // Per-item values are each worker's running count — all ≥ 1.
        assert!(counts.iter().all(|&c| c >= 1));
        assert_eq!(counts.len(), 50);
    }

    #[test]
    fn nested_sections_run_inline_on_the_callers_thread() {
        use std::thread::{current, ThreadId};
        let inner = |i: usize| {
            let outer_id = current().id();
            let items = parallel_map_with(8, 2, || (), |_, j| (current().id(), i * 100 + j));
            assert!(
                items.iter().all(|(id, _)| *id == outer_id),
                "a nested item left its caller's thread"
            );
            items.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        };
        let nested = parallel_map_with(6, 2, || (), |_, i| inner(i));
        let serial: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..8).map(|j| i * 100 + j).collect())
            .collect();
        assert_eq!(nested, serial);

        // A top-level section still spreads over its workers: each item
        // waits (up to a deadline) until both have started, so one worker
        // cannot take both.
        let arrived = AtomicUsize::new(0);
        let ids: Vec<ThreadId> = parallel_map_with(
            2,
            2,
            || (),
            |_, _| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                current().id()
            },
        );
        assert_ne!(ids[0], ids[1], "a 2-thread section ran on one thread");
    }

    #[test]
    fn effective_threads_cap_at_hardware_parallelism() {
        // Requesting far more threads than the host has must degrade to the
        // host's actual core count, not oversubscribe.
        let hw = hardware_parallelism();
        assert_eq!(RuntimeConfig::with_threads(hw * 64).effective_threads(), hw);
        // Zero-thread configs normalize to serial.
        assert_eq!(RuntimeConfig { threads: 0 }.threads(), 1);
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert!(RuntimeConfig::default().threads() >= 1);
        assert_eq!(RuntimeConfig::default().threads(), hardware_parallelism());
    }
}
