//! Criterion micro-benchmarks of the mechanisms gcbench's isolation suite
//! (`benchmark/src/isolate.rs`) does not measure: the charged object
//! primitives every collector path is made of (`Core::{header, try_mark,
//! scan_refs_into, init_object}`, DESIGN.md §10.2), the two per-event costs
//! of BC's cooperation path (an idle `discard_reserve`, a residency lookup;
//! DESIGN.md §10.7), and the two fixed costs outside the collectors: the
//! synthetic mutator's own work per allocation and the construction of an
//! empty `MsSpace` (DESIGN.md §10.8).
//!
//! Allocation, the write barrier, nursery and full collection and BC's
//! eviction-time bookmark scan are not here: gcbench reports them under
//! committed names (`collectors.alloc_ns.*` / `bookmarking.alloc_ns`,
//! `*.write_ref_ns.*`, `collectors.minor_gc_ns_per_obj`,
//! `*.full_gc_ns_per_obj*`, `bookmarking.evict_page_us`), and a second copy
//! under criterion names only invites the two to disagree.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bookmarking::{BcOptions, Bookmarking, ResidencyMap};
use heap::gc::Core;
use heap::object::field_addr;
use heap::{Address, AllocKind, CollectKind, GcHeap, HeapConfig, MemCtx, MsSpace, ObjectKind};
use simtime::{Clock, CostModel};
use simulate::{Program, ProgramStatus};
use vmm::{Vmm, VmmConfig};
use workloads::RecordingHeap;

/// The access path in isolation: one charged object primitive per step,
/// cycling over 1024 initialised 32-byte objects (eight pages, 128 objects
/// each, so 127 touches in 128 hit the last-touched page and one takes the
/// page-table lookup — no faults, no collector around them). The vendored
/// criterion shim times one call of the routine per sample, so each routine
/// is a batch of [`OPS`] steps: divide the reported time by 65 536.
fn bench_core_primitives(c: &mut Criterion) {
    const OBJECTS: u32 = 1024;
    const OPS: u32 = 1 << 16;
    // Four reference fields, all on the header's page.
    let kind = ObjectKind::scalar(6, 4);
    let obj_at = |i: u32| Address(0x1040_0000 + (i % OBJECTS) * kind.size_bytes());
    let setup = || {
        let mut vmm = Vmm::new(
            VmmConfig::builder().memory_bytes(64 << 20).build(),
            CostModel::default(),
        );
        let mut clock = Clock::new();
        let pid = vmm.register_process();
        let mut core = Core::new(HeapConfig::builder().heap_bytes(8 << 20).build());
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        for i in 0..OBJECTS {
            core.init_object(&mut ctx, obj_at(i), kind);
            for f in 0..4 {
                core.write_slot(&mut ctx, field_addr(obj_at(i), f), obj_at(i + 1 + f));
            }
        }
        (vmm, clock, pid, core)
    };
    let mut group = c.benchmark_group("core_primitives_x65536");

    group.bench_function("header", |b| {
        let (mut vmm, mut clock, pid, mut core) = setup();
        b.iter(|| {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            for i in 0..OPS {
                black_box(core.header(&mut ctx, obj_at(i)));
            }
        });
    });

    // The store path: every object is found unmarked (the `clear_mark`
    // that re-arms it is part of the measured step).
    group.bench_function("try_mark_newly_marked+clear_mark", |b| {
        let (mut vmm, mut clock, pid, mut core) = setup();
        b.iter(|| {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            for i in 0..OPS {
                black_box(core.try_mark(&mut ctx, obj_at(i)));
                core.clear_mark(&mut ctx, obj_at(i));
            }
        });
    });

    // The read-only path a trace takes on every edge after the first.
    group.bench_function("try_mark_already_marked", |b| {
        let (mut vmm, mut clock, pid, mut core) = setup();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        for i in 0..OBJECTS {
            core.try_mark(&mut ctx, obj_at(i));
        }
        b.iter(|| {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            for i in 0..OPS {
                black_box(core.try_mark(&mut ctx, obj_at(i)));
            }
        });
    });

    group.bench_function("scan_refs_into_4_refs_one_page", |b| {
        let (mut vmm, mut clock, pid, mut core) = setup();
        let mut refs = Vec::new();
        b.iter(|| {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            for i in 0..OPS {
                core.scan_refs_into(&mut ctx, obj_at(i), &mut refs);
                black_box(refs.len());
            }
        });
    });

    group.bench_function("init_object_32_bytes", |b| {
        let (mut vmm, mut clock, pid, mut core) = setup();
        b.iter(|| {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            for i in 0..OPS {
                core.init_object(&mut ctx, obj_at(i), kind);
            }
        });
    });
    group.finish();
}

/// What a collection pays for `discard_reserve` when there is nothing to
/// discard: BC under memory pressure, its nursery once ~1 500 pages long and
/// since released and drained of frames. The collector's root set, nursery
/// and remembered set are empty, so a minor collection is the under-pressure
/// `discard_reserve` scan plus a constant. One sample is [`CALLS`]
/// collections (the shim times one call of the routine per sample): divide
/// by 4 096.
fn bench_discard_reserve_idle(c: &mut Criterion) {
    const CALLS: u32 = 4096;
    let mut group = c.benchmark_group("bc_discard_reserve_idle_x4096");
    group.sample_size(20);
    group.bench_function("empty_minor_gc_under_pressure", |b| {
        let mut vmm = Vmm::new(
            VmmConfig::builder().memory_bytes(32 << 20).build(),
            CostModel::default(),
        );
        let mut clock = Clock::new();
        let pid = vmm.register_process();
        let hog = vmm.register_process();
        let mut bc = Bookmarking::new(
            HeapConfig::builder().heap_bytes(12 << 20).build(),
            BcOptions::default(),
        );
        bc.register(&mut vmm, pid);
        // Garbage up to the nursery limit: the high-water mark.
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        while bc.stats().nursery_gcs == 0 {
            let h = bc
                .alloc(&mut ctx, AllocKind::DataArray { len: 250 })
                .unwrap();
            bc.drop_handle(h);
        }
        bc.collect(&mut ctx, CollectKind::Full);
        // Signalmem: pin until free memory stays below the reclaim
        // watermark however many empty pages BC gives back.
        let low = vmm.config().low_watermark;
        let mut pinned = 0;
        for _ in 0..4_000 {
            while vmm.free_frames() >= low {
                vmm.mlock(hog, vmm::VirtPage::new(pinned), &mut clock);
                pinned += 1;
            }
            vmm.pump(&mut clock);
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            bc.handle_vm_events(&mut ctx);
        }
        assert!(vmm.free_frames() < low + 64 && bc.stats().pages_discarded > 1_000);
        b.iter(|| {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            for _ in 0..CALLS {
                bc.collect(&mut ctx, CollectKind::Minor);
            }
        });
    });
    group.finish();
}

/// BC's residency test (§3.3.1), asked once per traced edge while anything
/// is evicted: 1 300 evicted pages (what a `bc_pressure` cell relinquishes)
/// spread over the mature region, every seventh page. One sample is
/// [`OPS`] lookups: divide by 65 536.
fn bench_residency_lookup(c: &mut Criterion) {
    const OPS: u32 = 1 << 16;
    const EVICTED: u32 = 1300;
    let first = Address(0x1040_0000).page().number();
    let mut map = ResidencyMap::new();
    for i in 0..EVICTED {
        map.mark_evicted(vmm::VirtPage::new(first + 7 * i));
    }
    let mut group = c.benchmark_group("residency_lookup_x65536");
    group.bench_function("page_evicted", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(map.page_resident(vmm::VirtPage::new(first + 7 * (i % EVICTED))));
            }
        });
    });
    group.bench_function("page_resident", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(map.page_resident(vmm::VirtPage::new(first + 7 * (i % EVICTED) + 3)));
            }
        });
    });
    // An object reaching into its third page, none of them evicted.
    group.bench_function("range_3_pages_resident", |b| {
        b.iter(|| {
            for i in 0..OPS {
                let addr = Address((first + 7 * (i % EVICTED) + 2) * 4096 + 2048);
                black_box(map.range_resident(addr, 8192));
            }
        });
    });
    group.finish();
}

/// The generator alone: one `SyntheticProgram::step` (256 allocations with
/// their survivor routing, mutations and reads) against `RecordingHeap`,
/// which owns no memory and never collects. Set-up runs the program past
/// its immortal prelude (which draws no survivor, mutation or read trial)
/// and then [`WARM_STEPS`] more. Divide by 256 for ns per allocation.
fn bench_synthetic_step(c: &mut Criterion) {
    const WARM_STEPS: usize = 16;
    let mut group = c.benchmark_group("synthetic_step_x256");
    group.sample_size(50);
    for name in ["pseudoJBB", "_209_db"] {
        group.bench_function(name, |b| {
            let mut vmm = Vmm::new(
                VmmConfig::builder().frames(16).build(),
                CostModel::default(),
            );
            let mut clock = Clock::new();
            let pid = vmm.register_process();
            let mut gc = RecordingHeap::new();
            let mut program = workloads::spec(name).unwrap().program(0.05, 42);
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            let mut warm = 0;
            while warm < WARM_STEPS {
                let status = program.step(&mut gc, &mut ctx).unwrap();
                assert_eq!(status, ProgramStatus::Running);
                warm += usize::from(program.counts().survivors > 0);
            }
            b.iter(|| program.step(&mut gc, &mut ctx).unwrap());
            black_box(gc.digest());
        });
    }
    group.finish();
}

/// What every tenant of a fleet pays before its first allocation: one
/// empty `MsSpace`. One sample is [`SPACES`] constructions, each dropped
/// before the next: divide by 1 024. (Bytes per construction are pinned by
/// the counting allocator in `heap/tests/zero_alloc_trace.rs`.)
fn bench_msspace_new(c: &mut Criterion) {
    const SPACES: u32 = 1024;
    let mut group = c.benchmark_group("msspace_new_x1024");
    group.bench_function("empty", |b| {
        b.iter(|| {
            for _ in 0..SPACES {
                black_box(MsSpace::new(Address(0x1000_0000), Address(0x2000_0000)));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_core_primitives,
    bench_discard_reserve_idle,
    bench_residency_lookup,
    bench_synthetic_step,
    bench_msspace_new
);
criterion_main!(benches);
