//! Working-set guard for the exact per-packet path.
//!
//! A batch request analyzes every packet exactly: sanitize, smoothed
//! covariance, partial eigensolve, then the coarse-to-fine MUSIC search,
//! and then clusters the AP's pooled estimates. Its heap is what one
//! packet's scratch holds — one packed lower triangle of `n(n+1)/2`
//! complex entries (the eigensolver's matrix, which the covariance is
//! built and solved in), at most `max_paths` eigenvectors, the solver's
//! `n`-long vectors and a τ index one grid edge long — and on top whichever
//! phase's own buffers peak highest: the search's candidates or the
//! clustering. The search's buffers (the τ-forms memo, the stencil rows,
//! the detection ring) are carved from the matrix and real work the
//! eigensolve just consumed, and the ramp removal of sanitization is
//! applied as the smoothed columns are gathered, so neither the sanitized
//! CSI nor the smoothed matrix is stored. The MUSIC forms are built from
//! the signal eigenvectors, so no block of the noise projector is stored,
//! and the coarse detection level covers `n_rows × n_tof` cells but
//! streams through a window of three τ columns. Storing any of those, the
//! covariance as a mirrored `n × n` matrix or a second copy of it, or the
//! τ-forms memo beside the spent matrix would cost more than this bound
//! leaves room for, and a central server pays that once per concurrent
//! request.
//!
//! This binary installs a counting global allocator and bounds the peak
//! heap growth of one serial `analyze_ap` over 10 apartment packets, and
//! its count of allocation calls. The allocator counts only the thread
//! that runs the measured call, and only while it runs it, so the test
//! harness's own threads cannot land in the count; the binary still holds
//! a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use spotfi::core::{ApPackets, RuntimeConfig, SpotFi, SpotFiConfig};
use spotfi::testbed::apartment::Apartment;
use spotfi::{PacketTrace, TraceConfig};
use spotfi_channel::Rng;

/// Net heap bytes allocated by the measured call so far (negative if it
/// frees more than it allocates).
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Highest `LIVE_BYTES` since the measured call started.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) of the measured
/// call.
static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the measuring thread for the duration of the measured call.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn measured() -> bool {
    MEASURED.try_with(Cell::get).unwrap_or(false)
}

fn add_live(bytes: isize) {
    if measured() {
        let now = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    }
}

fn count_call() {
    if measured() {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        let p = System.alloc(layout);
        if !p.is_null() {
            add_live(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
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
        count_call();
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add_live(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PACKETS: usize = 10;

/// Allocation calls one serial `analyze_ap` over [`PACKETS`] packets makes
/// today: the scratch's buffers once, and per packet the MUSIC search's
/// candidate, peak and path vectors and the pooled estimates' exact
/// growth, plus the clustering. Lower it when a change removes some; it
/// may not rise.
const MAX_ALLOC_CALLS: usize = 80;

#[test]
fn exact_packet_working_set_excludes_a_stored_detection_grid() {
    let cfg = SpotFiConfig {
        runtime: RuntimeConfig::with_threads(1),
        ..SpotFiConfig::default()
    };
    let spotfi = SpotFi::new(cfg.clone());
    let home = Apartment::standard();
    let mut rng = Rng::seed_from_u64(11);
    let ap = &home.aps[0];
    let trace = PacketTrace::generate(
        &home.floorplan,
        home.rooms[0][0].position,
        &ap.array,
        &TraceConfig::commodity(),
        PACKETS,
        &mut rng,
    )
    .expect("living-room target audible at the first AP");
    let packets = ApPackets {
        array: ap.array,
        packets: trace.packets,
    };
    // One warm-up call, so one-time lazy statics are not billed below.
    spotfi.analyze_ap(&packets).expect("warm-up analysis");

    MEASURED.with(|m| m.set(true));
    let analysis = spotfi.analyze_ap(&packets);
    MEASURED.with(|m| m.set(false));
    let analysis = analysis.expect("analysis");
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let peak = PEAK_BYTES.load(Ordering::Relaxed) as usize;
    println!("allocation calls of one exact analyze_ap: {calls}");
    assert_eq!(analysis.dropped_packets, 0);

    // One packet's scratch: the eigensolver's packed matrix (the
    // covariance is built and decomposed in it, and the search runs in it
    // after the solve) and the first components of its `n` reflectors and
    // at most `max_paths` eigenvectors (complex); the solver's real buffers
    // and vectors, each one `n` long (the detection ring runs in them);
    // the τ index, one `u16` per τ grid point; and 2 KB for the estimates,
    // the clustering and small vectors. A stored detection level
    // (`n_rows × n_tof` reals, 92 KB at the default grid), a stored
    // smoothed matrix (`n × cols`, 15 KB), the projector's packed antenna
    // blocks (10.8 KB), a second packed matrix (7.4 KB), the mirrored
    // `n × n` matrix instead of the packed one (7 KB more) or the τ-forms
    // memo's reserved rows beside the spent matrix (2.9 KB) does not fit.
    let c64_bytes = std::mem::size_of::<spotfi_math::c64>();
    let f64_bytes = std::mem::size_of::<f64>();
    let u16_bytes = std::mem::size_of::<u16>();
    let n = cfg.smoothed_rows();
    let k = cfg.music.max_paths;
    let n_tof = cfg.music.tof_grid_ns.len();
    let complex = n * (n + 1) / 2 + n + n * k;
    let real = 16 * n;
    let bound = c64_bytes * complex + f64_bytes * real + u16_bytes * n_tof + 2 * 1024;
    println!("peak heap of one exact analyze_ap: {peak} B (bound {bound} B)");
    assert!(
        peak <= bound,
        "one serial analyze_ap peaked at {peak} B of heap, over the {bound} B budget"
    );
    assert!(
        calls <= MAX_ALLOC_CALLS,
        "one serial analyze_ap made {calls} allocation calls, over the {MAX_ALLOC_CALLS} recorded"
    );
}
