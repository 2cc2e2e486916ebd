//! Working-set guard for the exact per-packet path.
//!
//! A batch request analyzes every packet exactly: sanitize, smooth,
//! covariance, partial eigensolve, then the coarse-to-fine MUSIC search.
//! Its heap is what one packet's scratch holds — a few `n × n` complex
//! matrices, the smoothed matrix, the packed projector blocks and the
//! per-τ forms memo — plus buffers one grid edge long. The coarse
//! detection level covers `n_rows × n_tof` cells but streams through a
//! window of three τ columns; storing the whole level would cost more
//! than this bound leaves room for, and a central server pays that once
//! per concurrent request.
//!
//! This binary installs a counting global allocator and bounds the peak
//! heap growth of one serial `analyze_ap` over 10 apartment packets. It
//! holds a single test so no other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use spotfi::core::{ApPackets, RuntimeConfig, SpotFi, SpotFiConfig};
use spotfi::testbed::apartment::Apartment;
use spotfi::{PacketTrace, TraceConfig};
use spotfi_channel::Rng;

/// Live heap bytes, tracked across every allocation in the process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE_BYTES` since the last reset.
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counters only record sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PACKETS: usize = 10;

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

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let analysis = spotfi.analyze_ap(&packets).expect("analysis");
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(analysis.dropped_packets, 0);

    // One packet's scratch: the smoothed matrix, the covariance and the
    // solver's working copy of it, the top `max_paths` eigenvectors, the
    // packed projector blocks and one τ-forms row per fine τ (complex);
    // the solver's real buffers; two reals per AoA and τ grid point for
    // buffers one grid edge long; and 12 KB for the estimates, the
    // clustering and small vectors. A stored detection level
    // (`n_rows × n_tof` reals, 92 KB at the default grid) does not fit.
    let c64_bytes = std::mem::size_of::<spotfi_math::c64>();
    let f64_bytes = std::mem::size_of::<f64>();
    let n = cfg.smoothed_rows();
    let k = cfg.music.max_paths;
    let ms = cfg.smoothing.sub_antennas;
    let ns = cfg.smoothing.sub_subcarriers;
    let npairs = ms * (ms + 1) / 2;
    let n_aoa = cfg.music.aoa_grid_deg.len();
    let n_tof = cfg.music.tof_grid_ns.len();
    let complex = 2 * n * n + n * cfg.smoothed_cols() + n * k + npairs * (ns * ns + n_tof);
    let real = n * k + 16 * n + 2 * (n_aoa + n_tof);
    let bound = c64_bytes * complex + f64_bytes * real + 12 * 1024;
    println!("peak heap of one exact analyze_ap: {peak} B (bound {bound} B)");
    assert!(
        peak <= bound,
        "one serial analyze_ap peaked at {peak} B of heap, over the {bound} B budget"
    );
}
