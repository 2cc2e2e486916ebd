//! Working-set guard for one batch localization request.
//!
//! A request runs every AP's packets on an exact stream (see
//! `exact_footprint.rs` for one AP's working set), then fuses the APs'
//! direct paths with Eq. 9. Each AP is reduced to its fusion input as
//! soon as it is analyzed, so a serial request holds one AP's packet
//! scratch and estimates at a time plus a measurement per AP; keeping
//! every AP's per-packet estimates until the last AP finishes would cost
//! about 1.2 KB per AP, more than this bound leaves room for. The scratch
//! is live through every phase of an AP (stage, sweep, clustering), so the
//! request peaks at whichever phase's own buffers are largest; the sweep
//! runs in the storage the eigensolve consumed, so it adds little of its
//! own. A central server pays this once per concurrent request.
//!
//! This binary installs a counting global allocator and bounds the peak
//! heap growth of one serial `localize_in_bounds` on the standard
//! deployment's largest request. The allocator counts only the thread that
//! runs the measured call, and only while it runs it, so the test
//! harness's own threads cannot land in the count; the binary still holds
//! a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

use spotfi::core::{ApPackets, RuntimeConfig, SearchBounds, SpotFi, SpotFiConfig};
use spotfi::testbed::deployment::Deployment;
use spotfi::testbed::runner::{audible_traces, RunnerConfig};
use spotfi::testbed::scenario::Scenario;

/// Net heap bytes allocated by the measured call so far (negative if it
/// frees more than it allocates).
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Highest `LIVE_BYTES` since the measured call started.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Set on the measuring thread for the duration of the measured call.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn add_live(bytes: isize) {
    if MEASURED.try_with(Cell::get).unwrap_or(false) {
        let now = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add_live(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add_live(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        add_live(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add_live(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The high-NLoS scenario's request that the most APs hear.
fn largest_request() -> Vec<ApPackets> {
    let scenario = Scenario::nlos(&Deployment::standard());
    let runner = RunnerConfig::default();
    (0..scenario.targets.len())
        .map(|t| {
            audible_traces(&scenario, &runner, t)
                .into_iter()
                .map(|(_, ap, trace)| ApPackets {
                    array: ap.array,
                    packets: trace.packets,
                })
                .collect::<Vec<_>>()
        })
        .max_by_key(Vec::len)
        .expect("the scenario has targets")
}

#[test]
fn batch_request_holds_one_aps_working_set() {
    let cfg = SpotFiConfig {
        runtime: RuntimeConfig::with_threads(1),
        ..SpotFiConfig::default()
    };
    let spotfi = SpotFi::new(cfg.clone());
    let aps = largest_request();
    assert_eq!(aps.len(), 15, "the standard deployment's largest request");
    let home = Deployment::standard().floorplan.bounding_box();
    let (min, max) = home.expect("the deployment has walls");
    let bounds = SearchBounds {
        min_x: min.x,
        max_x: max.x,
        min_y: min.y,
        max_y: max.y,
    };
    // One warm-up call, so one-time lazy statics are not billed below.
    spotfi
        .localize_in_bounds(&aps, bounds)
        .expect("warm-up request");

    MEASURED.with(|m| m.set(true));
    let fix = spotfi.localize_in_bounds(&aps, bounds);
    MEASURED.with(|m| m.set(false));
    fix.expect("the largest request fixes");
    let peak = PEAK_BYTES.load(Ordering::Relaxed) as usize;

    // One AP's exact budget, as `exact_footprint.rs` derives it: the
    // eigensolver's packed matrix (the search runs in it after the solve)
    // and its reflectors' first components and at most `max_paths`
    // eigenvectors (complex); the solver's real buffers and vectors, each
    // one `n` long; one `u16` per τ grid point; 2 KB for one AP's
    // estimates, its clustering and small vectors. On top, 256 B per AP
    // for its fusion input and Eq. 9's per-AP vectors. Every AP's
    // per-packet estimates held at once (≈ 1.2 KB each), or the τ-forms
    // memo and detection ring beside the spent matrix (4 KB), do not fit.
    let c64_bytes = std::mem::size_of::<spotfi_math::c64>();
    let f64_bytes = std::mem::size_of::<f64>();
    let u16_bytes = std::mem::size_of::<u16>();
    let n = cfg.smoothed_rows();
    let k = cfg.music.max_paths;
    let n_tof = cfg.music.tof_grid_ns.len();
    let complex = n * (n + 1) / 2 + n + n * k;
    let real = 16 * n;
    let one_ap = c64_bytes * complex + f64_bytes * real + u16_bytes * n_tof + 2 * 1024;
    let bound = one_ap + 256 * aps.len();
    println!(
        "peak heap of one serial {}-AP request: {peak} B (bound {bound} B)",
        aps.len()
    );
    assert!(
        peak <= bound,
        "one serial {}-AP request peaked at {peak} B of heap, over the {bound} B budget",
        aps.len()
    );
}
