//! A process that has exited owns no host memory: `Driver::run_turn` calls
//! `GcHeap::exit` once a program ends, and every collector drops its
//! simulated memory's 4 KiB page boxes there, keeping everything a result
//! reports (DESIGN.md §10.6).
//!
//! This lives in its own test binary so the counting global allocator sees
//! only this file's tests. The counters are per thread (as in
//! `heap/tests/page_maps.rs`): the harness runs tests on parallel threads,
//! and a measurement must see only what its own thread allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use heap::{
    AllocKind, GcHeap, Handle, HeapConfig, MemCtx, OutOfMemory, BYTES_PER_PAGE, PAGE_BOX_ALIGN,
};
use simtime::{Clock, CostModel, Nanos};
use simulate::experiments::{run_fleet, FleetConfig, TenantResult};
use simulate::{CollectorKind, Program, ProgramStatus};
use vmm::{Vmm, VmmConfig};

thread_local! {
    // `const` and without a destructor: touching these never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Whether an allocation is a `SimMemory` page box: 4 KiB at the layout
/// no other allocation has.
fn is_page_box(layout: Layout) -> bool {
    layout.size() == BYTES_PER_PAGE as usize && layout.align() == PAGE_BOX_ALIGN
}

/// Adds (`grow`) or takes away a page box's bytes on this thread.
fn track(layout: Layout, grow: bool) {
    if is_page_box(layout) {
        LIVE.with(|live| {
            let now = if grow {
                live.get() + layout.size()
            } else {
                // Allocated on another thread, freed on this one.
                live.get().saturating_sub(layout.size())
            };
            live.set(now);
            PEAK.with(|peak| peak.set(peak.get().max(now)));
        });
    }
}

struct CountingAlloc;

// SAFETY: delegates to `System` unchanged; only adds counter updates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout, true);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout, true);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(layout, false);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(layout, false);
        if let Ok(new) = Layout::from_size_align(new_size, layout.align()) {
            track(new, true);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Page-box bytes live on this thread now.
fn live() -> usize {
    LIVE.with(Cell::get)
}

/// Runs `f` and returns its value with the most page-box bytes live on this
/// thread at once while it ran, above what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live();
    PEAK.with(|peak| peak.set(base));
    let value = f();
    (value, PEAK.with(Cell::get) - base)
}

/// Allocates 40 000 small objects, keeping the last 2 000 alive, so a
/// 1 MiB heap collects several times.
struct Churn {
    left: usize,
    live: Vec<Handle>,
    cap: usize,
}

impl Churn {
    fn boxed() -> Box<dyn Program> {
        Box::new(Churn {
            left: 40_000,
            live: Vec::new(),
            cap: 2_000,
        })
    }
}

impl Program for Churn {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        for _ in 0..64 {
            if self.left == 0 {
                return Ok(ProgramStatus::Finished);
            }
            let work = ctx.vmm.costs().mutator_work;
            ctx.clock.advance(work);
            let h = gc.alloc(
                ctx,
                AllocKind::Scalar {
                    data_words: 8,
                    num_refs: 1,
                },
            )?;
            // Older objects point at newer ones: dropping the oldest
            // handle frees it, and the barrier sees old-to-young stores.
            if let Some(&prev) = self.live.last() {
                gc.write_ref(ctx, prev, 0, Some(h));
            }
            self.live.push(h);
            if self.live.len() > self.cap {
                let dead = self.live.remove(0);
                gc.drop_handle(dead);
            }
            self.left -= 1;
        }
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        "churn"
    }

    fn progress(&self) -> f64 {
        0.5
    }
}

const TENANT_HEAP: usize = 1 << 20;

/// A fleet of `tenants` churners with memory to spare and a quantum no
/// tenant's program outlasts: each runs from start to finish in its first
/// turn, so at most one heap is live at a time once exits drop memory.
fn fleet(collector: CollectorKind, tenants: usize) -> Vec<TenantResult> {
    let mut config = FleetConfig::new(collector, tenants, TENANT_HEAP, 256 << 20);
    config.quantum = Nanos::from_secs(3_600);
    let result = run_fleet(&config, &|_| Churn::boxed());
    assert_eq!(result.completed(), tenants, "{collector:?}");
    assert_eq!(result.slices, tenants as u64, "one turn per tenant");
    result.tenants
}

/// The fleet's page-box peak is one tenant's, not the whole fleet's: each
/// tenant's heap drops its pages the turn its program ends. A tenant that
/// kept them until the driver is dropped would make the peak grow with
/// the tenancy. Every tenant's results are those of a fleet of one.
#[test]
fn exited_tenants_own_no_page_boxes() {
    const TENANTS: usize = 24;
    for collector in [
        CollectorKind::GenMs,
        CollectorKind::SemiSpace,
        CollectorKind::Bc,
    ] {
        let (alone, one) = peak_during(|| fleet(collector, 1));
        let (many, peak) = peak_during(|| fleet(collector, TENANTS));
        assert!(one >= 16 * BYTES_PER_PAGE as usize, "{collector:?}: {one}");
        assert!(
            peak < 3 * one,
            "{collector:?}: {TENANTS} tenants peaked at {peak} page-box bytes, \
             one tenant at {one}"
        );
        for tenant in &many {
            assert_eq!(tenant.oom, alone[0].oom);
            assert_eq!(tenant.finish_time, alone[0].finish_time);
            assert_eq!(tenant.gc, alone[0].gc);
            assert_eq!(tenant.vm, alone[0].vm);
        }
    }
}

/// Every collector forwards `exit` and drops its page boxes there, and
/// everything a `RunResult` reads off the heap — counters, pause log,
/// metrics, page counts — reads the same after it.
#[test]
fn exit_drops_the_heap_and_keeps_its_results() {
    for collector in CollectorKind::ALL {
        let mut vmm = Vmm::new(
            VmmConfig::builder().memory_bytes(64 << 20).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        let mut clock = Clock::new();
        let base = live();
        let config = HeapConfig::builder().heap_bytes(TENANT_HEAP).build();
        let mut gc = collector.build(config, &mut vmm, pid);
        let mut program = Churn::boxed();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        while program.step(gc.as_mut(), &mut ctx).expect("fits") == ProgramStatus::Running {}
        assert!(gc.stats().total_gcs() > 0, "{collector:?} never collected");
        assert!(
            live() - base >= 16 * BYTES_PER_PAGE as usize,
            "{collector:?} holds too few pages"
        );

        let vm = *vmm.stats(pid);
        let before = (
            *gc.stats(),
            gc.pause_log().records().to_vec(),
            format!("{:?}", gc.metrics(&vm)),
            gc.heap_pages_used(),
            gc.heap_pages_peak(),
        );
        gc.exit();
        let kept = live() - base;
        assert_eq!(
            kept, 0,
            "{collector:?} kept {kept} page-box bytes past exit"
        );
        let after = (
            *gc.stats(),
            gc.pause_log().records().to_vec(),
            format!("{:?}", gc.metrics(&vm)),
            gc.heap_pages_used(),
            gc.heap_pages_peak(),
        );
        assert_eq!(before, after, "{collector:?}");
    }
}
