//! Per-stream memory guard for the serving path.
//!
//! A fleet server keeps one [`StreamState`] per (target, AP) link it
//! hears, so the state's heap footprint multiplies by thousands. A stream
//! must hold only what the next packet reads: the packed Hermitian
//! covariance (`n(n+1)/2` complex entries) and the tracked basis (at most
//! `n × max_paths` complex entries), each entry a pair of `f32`, plus
//! small bookkeeping. Per-packet scratch, including the `f64` tracker a
//! warm packet widens the basis into, belongs to the worker's
//! [`PacketScratch`], not to the stream.
//!
//! This binary installs a counting global allocator, warms 64 streams on
//! apartment traces and bounds the live heap they hold. It holds a single
//! test so no other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use spotfi::core::{PacketScratch, SpotFi, SpotFiConfig, StreamState};
use spotfi::testbed::apartment::Apartment;
use spotfi::{PacketTrace, TraceConfig};
use spotfi_channel::{CsiPacket, Rng};

/// Live heap bytes, tracked across every allocation in the process.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the counter only records sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STREAMS: usize = 64;
const PACKETS: usize = 8;

/// One packet trace per audible (living-room target, home AP) link.
fn apartment_traces() -> Vec<Vec<CsiPacket>> {
    let home = Apartment::standard();
    let cfg = TraceConfig::commodity();
    let mut rng = Rng::seed_from_u64(7);
    let mut traces = Vec::new();
    for target in home.rooms[0].iter().take(2) {
        for ap in &home.aps {
            if let Some(t) = PacketTrace::generate(
                &home.floorplan,
                target.position,
                &ap.array,
                &cfg,
                PACKETS,
                &mut rng,
            ) {
                traces.push(t.packets);
            }
        }
    }
    traces
}

#[test]
fn warmed_stream_holds_only_packed_covariance_and_basis() {
    let cfg = SpotFiConfig::fast_test();
    let spotfi = SpotFi::new(cfg.clone());
    let traces = apartment_traces();
    assert!(traces.len() >= 4, "too few audible links: {}", traces.len());

    // Size the worker's scratch on every trace first, so lazily grown
    // scratch buffers are not billed to the streams below. The recorder
    // confirms these traces exercise the warm path; it is off (and its
    // buffers allocated) before counting starts.
    let mut scratch = PacketScratch::new(&cfg);
    spotfi::obs::reset();
    spotfi::obs::set_enabled(true);
    for trace in &traces {
        let mut throwaway = StreamState::new(&cfg);
        for packet in trace {
            let _ = spotfi.analyze_packet_streaming_with(packet, &mut throwaway, &mut scratch);
        }
    }
    spotfi::obs::set_enabled(false);
    let warm_hits = spotfi::obs::snapshot().counter_total("stream.warmstart_hit");
    spotfi::obs::reset();
    assert!(
        warm_hits as usize * 2 >= traces.len() * PACKETS,
        "only {warm_hits} warm packets in {} streamed",
        traces.len() * PACKETS
    );
    let mut streams: Vec<StreamState> = Vec::with_capacity(STREAMS);

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut warm_ok = 0usize;
    for i in 0..STREAMS {
        let mut stream = StreamState::new(&cfg);
        for packet in &traces[i % traces.len()] {
            warm_ok += usize::from(
                spotfi
                    .analyze_packet_streaming_with(packet, &mut stream, &mut scratch)
                    .is_ok(),
            );
        }
        streams.push(stream);
    }
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    assert!(
        warm_ok * 10 >= STREAMS * PACKETS * 9,
        "only {warm_ok} of {} warm-up packets succeeded",
        STREAMS * PACKETS
    );

    let n = cfg.smoothed_rows();
    let stored_bytes = 2 * std::mem::size_of::<f32>();
    let bound = stored_bytes * (n * (n + 1) / 2 + n * cfg.music.max_paths) + 1024;
    let per_stream = (after - before) as f64 / STREAMS as f64;
    println!("live heap per warmed stream: {per_stream:.0} B (bound {bound} B)");
    assert!(
        per_stream <= bound as f64,
        "a warmed stream holds {per_stream:.0} B of heap, over the {bound} B budget"
    );
    drop(streams);
}
