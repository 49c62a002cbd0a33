//! Proof that the hot tracing loop is allocation-free: a counting global
//! allocator watches a full `drain_gray` over a pre-warmed object graph
//! and must observe zero heap allocations.
//!
//! The first drain is a warm-up: it sizes the mark queue, the reusable
//! scan scratch buffer, and the simulated memory / VMM page structures.
//! The second drain traces the same graph again and must not allocate at
//! all — the per-object path reuses every buffer it needs.
//!
//! The same allocator also counts bytes, for one construction-cost bound:
//! a second `MsSpace` borrows the process-wide size-class table instead of
//! building its own 8.8 KB copy.
//!
//! This lives in its own test binary so the global allocator cannot
//! interfere with other tests. The harness runs tests on parallel threads
//! and allocates on its own (spawning the next test, reporting the last),
//! so the counters are per thread: a measurement sees exactly what its own
//! thread allocated, whatever runs beside it. (Process-wide counters behind
//! a lock still let the harness's allocations into a window: 1 run in 400
//! failed that way, and most runs of a full `cargo test --release`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` and without a destructor: reading these never allocates and
    // stays valid for the whole life of the thread, allocator calls during
    // thread start-up and tear-down included.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

struct CountingAlloc;

// SAFETY: delegates to `System` unchanged; only adds counter bumps.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use heap::gc::{drain_gray, forward_roots, Core, Forwarder};
use heap::object::field_addr;
use heap::{Address, HeapConfig, MemCtx, MsSpace, ObjectKind};
use simtime::{Clock, CostModel};
use vmm::{Vmm, VmmConfig};

/// A minimal marking collector: forward = mark + enqueue, no movement.
struct Marker {
    core: Core,
}

impl Forwarder for Marker {
    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    fn forward(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Address {
        if self.core.try_mark(ctx, obj) {
            self.core.queue.push(obj);
        }
        obj
    }
}

/// What [`measure_warm_trace`] roots before each trace.
#[derive(Clone, Copy)]
enum Roots {
    /// The tree's root object alone, pushed by hand: `drain_gray` is the
    /// only code measured.
    Direct,
    /// Every object, through handles in the core's `RootSet`:
    /// `forward_roots` walks all 512 slots before the drain.
    Handles,
}

/// One collection's trace: the root scan `roots` asks for, then the drain.
fn trace(marker: &mut Marker, ctx: &mut MemCtx<'_>, roots: Roots, tree_root: Address) {
    match roots {
        Roots::Direct => {
            marker.forward(ctx, tree_root);
        }
        Roots::Handles => forward_roots(marker, ctx),
    }
    drain_gray(marker, ctx);
}

/// Builds the tree, warms every buffer with one trace, then measures a
/// second identical trace under the counting allocator.
fn measure_warm_trace(gc_threads: usize, roots: Roots) -> (u64, usize) {
    const N: u32 = 512;
    let mut vmm = Vmm::new(
        VmmConfig::builder().frames(4096).build(),
        CostModel::default(),
    );
    let pid = vmm.register_process();
    let mut clock = Clock::new();
    let mut marker = Marker {
        core: Core::new(
            HeapConfig::builder()
                .heap_bytes(1 << 20)
                .gc_threads(gc_threads)
                .build(),
        ),
    };
    let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);

    // A binary tree of N scalar objects, two reference fields each.
    let kind = ObjectKind::scalar(4, 2);
    let objs: Vec<Address> = (0..N)
        .map(|i| Address(0x1040_0000 + i * kind.size_bytes()))
        .collect();
    for (i, &obj) in objs.iter().enumerate() {
        marker.core.init_object(&mut ctx, obj, kind);
        for (f, child) in [2 * i + 1, 2 * i + 2].into_iter().enumerate() {
            if child < objs.len() {
                marker
                    .core
                    .write_slot(&mut ctx, field_addr(obj, f as u32), objs[child]);
            }
        }
    }

    if let Roots::Handles = roots {
        for &obj in &objs {
            let _ = marker.core.roots.add(obj);
        }
    }

    // Warm-up trace: grows the mark queue, the packet pool, the per-worker
    // scratch buffers, and the simulated page structures to steady state.
    trace(&mut marker, &mut ctx, roots, objs[0]);
    assert_eq!(marker.core.stats.objects_traced, N as u64);
    for &obj in &objs {
        marker.core.clear_mark(&mut ctx, obj);
    }

    // The measured trace: identical, and every buffer is warm.
    ALLOCS.set(0);
    trace(&mut marker, &mut ctx, roots, objs[0]);
    let allocs = ALLOCS.get();
    assert_eq!(marker.core.stats.objects_traced, 2 * N as u64);
    assert_eq!(
        marker.core.roots.len(),
        match roots {
            Roots::Direct => 0,
            Roots::Handles => N as usize,
        }
    );
    (2 * N as u64, allocs)
}

#[test]
fn drain_gray_allocates_nothing_when_warm() {
    let (traced, allocs) = measure_warm_trace(1, Roots::Direct);
    assert_eq!(
        allocs, 0,
        "drain_gray allocated {allocs} times while tracing {traced} objects; \
         the hot loop must reuse the core's scratch buffers"
    );
}

/// Same proof for the parallel packet path: with four simulated workers,
/// packets recycle through the free pool and every per-worker scratch is
/// reused, so a warm drain still allocates nothing.
#[test]
fn packet_drain_allocates_nothing_when_warm_at_four_workers() {
    let (traced, allocs) = measure_warm_trace(4, Roots::Direct);
    assert_eq!(
        allocs, 0,
        "packet drain (4 workers) allocated {allocs} times while tracing \
         {traced} objects; packets must recycle through the free pool"
    );
}

/// The root scan forwards the root set's slots where they are: a warm
/// collection over 512 handles copies no root out and back.
#[test]
fn forward_roots_allocates_nothing_when_warm() {
    let (traced, allocs) = measure_warm_trace(1, Roots::Handles);
    assert_eq!(
        allocs, 0,
        "forward_roots + drain_gray allocated {allocs} times over 512 roots \
         ({traced} objects traced); roots must be forwarded in place"
    );
}

/// A fleet builds thousands of heaps. Each `MsSpace` owns its per-class
/// partial lists and run cache (4.5 KB for 52 classes x 2 kinds) but only
/// borrows the size-class table, which is a constant.
#[test]
fn a_second_ms_space_borrows_the_size_class_table() {
    let (base, limit) = (Address(0x1000_0000), Address(0x2000_0000));
    let first = MsSpace::new(base, limit);
    BYTES.set(0);
    let second = MsSpace::new(base, limit);
    let bytes = BYTES.get();
    assert!(
        bytes < 6 << 10,
        "a second MsSpace allocated {bytes} bytes; the 8.8 KB size-class \
         table must be shared, not rebuilt"
    );
    assert!(std::ptr::eq(first.classes(), second.classes()));
}
