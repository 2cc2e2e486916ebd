//! What the host contributes to a measurement: a fixed-kernel speed
//! witness, live heap bytes, and per-thread CPU time from
//! `/proc/self/task/*/schedstat`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use spotfi_math::{c64, hermitian_eigen_partial_into, CMat, TridiagWorkspace};

use crate::BenchError;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak.
///
/// Peak heap growth is exact and allocator-independent, where the RSS
/// mark moves only when freed pages run out and so reads a few hundred KB
/// of noise on a small serving footprint. The counters are statistics
/// that publish no other data, hence `Relaxed`.
///
/// The counters are process-wide: a peak covers every thread's
/// allocations, the benchmark's own included.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Highest live heap bytes since the last [`reset_heap_peak`].
pub fn heap_peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts the peak at the current live bytes, which it returns.
pub fn reset_heap_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Median nanoseconds per `hermitian_eigen_partial_into` call on a pinned
/// 30×30 covariance, timed for about `duration`.
///
/// The kernel and its input never change, so a shift in this number
/// between runs is the host (frequency, steal, noisy neighbours), not the
/// code under test. Runs measure it before and after each workload.
pub fn probe_ns(duration: Duration) -> f64 {
    let x = CMat::from_fn(30, 32, |r, c| {
        let a = (r * 7 + c * 3) as f64;
        c64::new((0.37 * a).sin(), (0.23 * a + 0.5 * r as f64).cos())
    });
    let mut cov = CMat::zeros(30, 30);
    x.mul_hermitian_self_into(&mut cov);
    let mut ws = TridiagWorkspace::default();
    const CALLS: usize = 16;
    let mut per_call = Vec::new();
    let start = Instant::now();
    while start.elapsed() < duration || per_call.len() < 3 {
        let t = Instant::now();
        for _ in 0..CALLS {
            hermitian_eigen_partial_into(std::hint::black_box(&cov), 8, &mut ws);
            std::hint::black_box(ws.values());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    crate::stats::median(&per_call).expect("at least three probe batches")
}

/// CPU time, nanoseconds, that the live thread named `name` has run for.
///
/// A just-spawned thread names itself once it starts running, so the
/// lookup retries for up to five seconds, which a host that is slow to
/// schedule the new thread may need.
pub fn thread_cpu_ns(name: &str) -> Result<u64, BenchError> {
    let started = Instant::now();
    loop {
        if let Some(ns) = find_thread_cpu_ns(name)? {
            return Ok(ns);
        }
        if started.elapsed() > Duration::from_secs(5) {
            return Err(BenchError::new(format!("no live thread named {name}")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn find_thread_cpu_ns(name: &str) -> Result<Option<u64>, BenchError> {
    let tasks = std::fs::read_dir("/proc/self/task")
        .map_err(|e| BenchError::new(format!("listing /proc/self/task: {e}")))?;
    for task in tasks.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end() != name {
            continue;
        }
        let sched = std::fs::read_to_string(path.join("schedstat"))
            .map_err(|e| BenchError::new(format!("reading schedstat of {name}: {e}")))?;
        return sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| BenchError::new(format!("unparsable schedstat for {name}")));
    }
    Ok(None)
}
