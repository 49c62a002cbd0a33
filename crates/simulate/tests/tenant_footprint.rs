//! What one `fleet_sched`-sized tenant costs the host: a 512 KiB heap's
//! live host bytes, split into `SimMemory` page boxes and everything else,
//! and the proof that a space builds its tables on first use (DESIGN.md
//! §10.6) — the mark-sweep class table when a cell first lands in the
//! mature space, BC's write-buffer page at the first barrier record.
//!
//! This lives in its own test binary so the counting global allocator sees
//! only this file's tests. The counters are per thread (as in
//! `process_exit.rs`): the harness runs tests on parallel threads, and a
//! measurement must see only what its own thread allocated. Page boxes are
//! told apart by their layout, which no other allocation has: 4 KiB at
//! `heap::PAGE_BOX_ALIGN`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use heap::{
    AllocKind, CollectKind, GcHeap, Handle, HeapConfig, MemCtx, OutOfMemory, BYTES_PER_PAGE,
    PAGE_BOX_ALIGN,
};
use simtime::Clock;
use simulate::experiments::{run_fleet, FleetConfig};
use simulate::{CollectorKind, Program, ProgramStatus};
use vmm::{ProcessId, Vmm, VmmConfig};

thread_local! {
    // `const` and without a destructor: touching these never allocates.
    static BOXES: Cell<usize> = const { Cell::new(0) };
    static OTHER: Cell<usize> = const { Cell::new(0) };
    /// `(BOXES, OTHER)` when their sum last peaked.
    static PEAK: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// The layout being watched, its live allocations and all it has made.
    static WATCH: Cell<Option<Layout>> = const { Cell::new(None) };
    static WATCHED_LIVE: Cell<usize> = const { Cell::new(0) };
    static WATCHED_MADE: Cell<usize> = const { Cell::new(0) };
}

/// Whether an allocation is a `SimMemory` page box.
fn is_page_box(layout: Layout) -> bool {
    layout.size() == BYTES_PER_PAGE as usize && layout.align() == PAGE_BOX_ALIGN
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>, by: usize, grow: bool) {
    counter.with(|c| {
        // `saturating_sub`: allocated on another thread, freed on this one.
        c.set(if grow {
            c.get() + by
        } else {
            c.get().saturating_sub(by)
        });
    });
}

/// Adds (`grow`) or takes away one allocation on this thread.
fn track(layout: Layout, grow: bool) {
    let counter = if is_page_box(layout) { &BOXES } else { &OTHER };
    bump(counter, layout.size(), grow);
    if WATCH.with(Cell::get) == Some(layout) {
        bump(&WATCHED_LIVE, 1, grow);
        bump(&WATCHED_MADE, usize::from(grow), true);
    }
    if grow {
        let now = live();
        PEAK.with(|peak| {
            let (b, o) = peak.get();
            if now.0 + now.1 > b + o {
                peak.set(now);
            }
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

/// `(page-box bytes, other bytes)` live on this thread now.
fn live() -> (usize, usize) {
    (BOXES.with(Cell::get), OTHER.with(Cell::get))
}

/// Runs `f` and returns its value with `(page-box bytes, other bytes)`
/// above what was live when it started, at the moment their sum peaked.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let base = live();
    PEAK.with(|peak| peak.set(base));
    let value = f();
    let (b, o) = PEAK.with(Cell::get);
    (value, (b - base.0, o - base.1))
}

/// Starts watching `layout`: [`watched`] then reports its live
/// allocations and how many were made, from now on.
fn watch(layout: Layout) {
    WATCH.with(|w| w.set(Some(layout)));
    WATCHED_LIVE.with(|n| n.set(0));
    WATCHED_MADE.with(|n| n.set(0));
}

/// `(live, made)` allocations of the watched layout.
fn watched() -> (usize, usize) {
    (WATCHED_LIVE.with(Cell::get), WATCHED_MADE.with(Cell::get))
}

/// `MsSpace`'s class table: 104 (class, kind) entries of 40 bytes.
fn class_table() -> Layout {
    Layout::from_size_align(104 * 40, 8).unwrap()
}

/// BC's write-buffer page: 1 024 four-byte slot addresses.
fn write_buffer() -> Layout {
    Layout::array::<u32>(1024).unwrap()
}

/// A `fleet_sched` tenant's heap.
const TENANT_HEAP: usize = 512 << 10;

const SMALL: AllocKind = AllocKind::Scalar {
    data_words: 2,
    num_refs: 1,
};

/// A VMM with room to spare and one registered process.
fn machine() -> (Vmm, ProcessId, Clock) {
    let mut vmm = Vmm::new(
        VmmConfig::builder().memory_bytes(64 << 20).build(),
        simtime::CostModel::default(),
    );
    let pid = vmm.register_process();
    (vmm, pid, Clock::new())
}

/// Builds a tenant's heap on `vmm` and allocates one small object.
fn one_object(
    collector: CollectorKind,
    vmm: &mut Vmm,
    pid: ProcessId,
    clock: &mut Clock,
) -> Box<dyn GcHeap> {
    let config = HeapConfig::builder().heap_bytes(TENANT_HEAP).build();
    let mut gc = collector.build(config, vmm, pid);
    let mut ctx = MemCtx::new(vmm, clock, pid);
    gc.alloc(&mut ctx, SMALL).expect("fits");
    gc
}

/// Builds every collector's tenant once, so the process-wide tables built
/// on first use (the shared size-class table) are not charged to whichever
/// measurement runs first.
fn warm_up() {
    for collector in CollectorKind::ALL {
        let (mut vmm, pid, mut clock) = machine();
        drop(one_object(collector, &mut vmm, pid, &mut clock));
    }
}

/// The exact host bytes one tenant holds after building its heap and
/// allocating one small object: `(collector, page-box bytes, other bytes)`.
/// The one page box is the page the object landed on. The other bytes are
/// the collector's structs and tables, the VMM's page table for that page
/// and `SimMemory`'s directory. A space that built its class table or
/// write buffer eagerly would add 4 160 or 4 096 bytes here.
const ONE_OBJECT: [(CollectorKind, usize, usize); 9] = [
    (CollectorKind::Bc, 4096, 5889),
    (CollectorKind::BcResizeOnly, 4096, 5889),
    (CollectorKind::MarkSweep, 4096, 9912),
    (CollectorKind::SemiSpace, 4096, 5392),
    (CollectorKind::GenCopy, 4096, 5448),
    (CollectorKind::GenMs, 4096, 5504),
    (CollectorKind::CopyMs, 4096, 5472),
    (CollectorKind::GenCopyFixed, 4096, 5448),
    (CollectorKind::GenMsFixed, 4096, 5504),
];

#[test]
fn one_object_tenant_footprint_is_pinned() {
    warm_up();
    let mut got = Vec::new();
    for (collector, _, _) in ONE_OBJECT {
        let (mut vmm, pid, mut clock) = machine();
        let base = live();
        let gc = one_object(collector, &mut vmm, pid, &mut clock);
        let now = live();
        got.push((collector, now.0 - base.0, now.1 - base.1));
        drop(gc);
    }
    assert_eq!(got, ONE_OBJECT);
}

/// No class table exists until a cell lands in a mark-sweep space: not in
/// BC, GenMS or CopyMS after a nursery allocation, nor in the collectors
/// without one. MarkSweep allocates straight into its space and holds
/// exactly one; GenMS and CopyMS build theirs at their first collection.
#[test]
fn class_table_is_built_by_the_first_mature_cell() {
    for collector in CollectorKind::ALL {
        let (mut vmm, pid, mut clock) = machine();
        watch(class_table());
        let mut gc = one_object(collector, &mut vmm, pid, &mut clock);
        let want = usize::from(collector == CollectorKind::MarkSweep);
        assert_eq!(watched().0, want, "{collector:?}");
        if matches!(collector, CollectorKind::GenMs | CollectorKind::CopyMs) {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            gc.collect(&mut ctx, CollectKind::Minor);
            assert_eq!(watched(), (1, 1), "{collector:?} promoted its object");
        }
    }
}

/// A BC heap holds no write buffer until its first barrier record, and
/// that record allocates the one page every later fill reuses: 3 000
/// old-to-young stores fill the buffer twice and make one allocation.
#[test]
fn write_buffer_is_allocated_by_the_first_barrier_record() {
    let (mut vmm, pid, mut clock) = machine();
    watch(write_buffer());
    let mut gc = one_object(CollectorKind::Bc, &mut vmm, pid, &mut clock);
    let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
    let old = gc.alloc(&mut ctx, AllocKind::RefArray { len: 64 }).unwrap();
    gc.collect(&mut ctx, CollectKind::Minor); // promotes `old`
    assert_eq!(watched(), (0, 0), "no store recorded yet");
    let young = gc.alloc(&mut ctx, SMALL).unwrap();
    gc.write_ref(&mut ctx, old, 0, Some(young));
    assert_eq!(gc.stats().barrier_records, 1);
    assert_eq!(watched(), (1, 1), "the first record allocates the page");
    for i in 0..3_000u32 {
        gc.write_ref(&mut ctx, old, i % 64, Some(young));
    }
    assert_eq!(gc.stats().barrier_records, 3_001);
    assert_eq!(watched(), (1, 1), "every fill reuses the page");
}

/// Allocates `left` small objects, eight per step, keeping each eighth one
/// and linking it to the previous one kept.
struct Grow {
    left: usize,
    kept: Option<Handle>,
}

impl Program for Grow {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        for i in 0..8 {
            if self.left == 0 {
                return Ok(ProgramStatus::Finished);
            }
            let work = ctx.vmm.costs().mutator_work;
            ctx.clock.advance(work);
            let h = gc.alloc(ctx, SMALL)?;
            if i == 0 {
                gc.write_ref(ctx, h, 0, self.kept);
                self.kept = Some(h);
            } else {
                gc.drop_handle(h);
            }
            self.left -= 1;
        }
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        "grow"
    }

    fn progress(&self) -> f64 {
        0.5
    }
}

const FLEET: usize = 64;

/// A `fleet_sched` slice: `FLEET` tenants of 512 KiB in ample memory, run
/// for one turn each, so none collects. Returns the fleet's peak host
/// bytes per tenant, `(page boxes, other)`.
fn one_turn_fleet(collector: CollectorKind) -> (usize, usize) {
    let mut config = FleetConfig::new(collector, FLEET, TENANT_HEAP, 256 << 20);
    config.max_slices = FLEET as u64;
    config.quantum = simtime::Nanos::from_millis(6);
    let (result, (boxes, other)) = peak_during(|| {
        run_fleet(&config, &|_| {
            Box::new(Grow {
                left: 1 << 20,
                kept: None,
            })
        })
    });
    assert_eq!(result.slices, FLEET as u64, "{collector:?}: one turn each");
    assert!(
        result.tenants.iter().all(|t| t.gc.total_gcs() == 0),
        "{collector:?}"
    );
    (boxes / FLEET, other / FLEET)
}

/// Per-tenant peak of the one-turn fleet, `(collector, page-box bytes,
/// other bytes)`. The page boxes are pinned exactly: they are the pages
/// each tenant wrote. The other bytes may drift by `OTHER_SLACK` with the
/// standard library's growth policies; the class table and write buffer
/// this fleet never uses would add 4 160 and 4 096 bytes.
const FLEET_PEAK: [(CollectorKind, usize, usize); 2] = [
    (CollectorKind::Bc, 32768, 7964),
    (CollectorKind::GenMs, 32768, 7579),
];

const OTHER_SLACK: usize = 512;

#[test]
fn one_turn_fleet_peak_per_tenant_is_pinned() {
    warm_up();
    for (collector, boxes, other) in FLEET_PEAK {
        let got = one_turn_fleet(collector);
        assert_eq!(got.0, boxes, "{collector:?} page-box bytes per tenant");
        assert!(
            got.1.abs_diff(other) <= OTHER_SLACK,
            "{collector:?}: {} other bytes per tenant, pinned at {other} ± {OTHER_SLACK}",
            got.1
        );
    }
}
