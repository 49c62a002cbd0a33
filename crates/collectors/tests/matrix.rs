//! The baselines' algorithmic behaviour, table-driven over the five aliases
//! of the `Young` × `Mature` matrix: each case names the collectors it holds
//! for, and what only the matrix makes sayable (names, which requests run a
//! nursery collection, struct sizes) is asserted once per alias.

use std::mem::size_of;

use collectors::{names, CopyMs, GenCopy, GenMs, MarkSweep, SemiSpace};
use heap::{AllocKind, CollectKind, GcHeap, Handle, HeapConfig, MemCtx, NurseryPolicy};
use simtime::{Clock, CostModel};
use vmm::{Vmm, VmmConfig};

/// One cell of the matrix, as the tests see it.
#[derive(Clone, Copy)]
struct Row {
    name: &'static str,
    make: fn(HeapConfig) -> Box<dyn GcHeap>,
    /// `size_of` the alias, and of the hand-written struct it replaced
    /// (measured on the parent of the PR that introduced `Plan`).
    size: usize,
    parent_size: usize,
    /// Nursery collections, a write barrier and a remembered set exist.
    generational: bool,
    /// Small objects are moved by their first whole-heap collection.
    copies_young: bool,
    /// Survivors are moved again by every later whole-heap collection.
    copies_mature: bool,
}

const MARK_SWEEP: Row = Row {
    name: names::MARK_SWEEP,
    make: |c| Box::new(MarkSweep::new(c)),
    size: size_of::<MarkSweep>(),
    parent_size: 840,
    generational: false,
    copies_young: false,
    copies_mature: false,
};
const SEMI_SPACE: Row = Row {
    name: names::SEMI_SPACE,
    make: |c| Box::new(SemiSpace::new(c)),
    size: size_of::<SemiSpace>(),
    parent_size: 760,
    generational: false,
    copies_young: true,
    copies_mature: true,
};
const GEN_COPY: Row = Row {
    name: names::GEN_COPY,
    make: |c| Box::new(GenCopy::new(c)),
    size: size_of::<GenCopy>(),
    parent_size: 808,
    generational: true,
    copies_young: true,
    copies_mature: true,
};
const GEN_MS: Row = Row {
    name: names::GEN_MS,
    make: |c| Box::new(GenMs::new(c)),
    size: size_of::<GenMs>(),
    parent_size: 896,
    generational: true,
    copies_young: true,
    copies_mature: false,
};
const COPY_MS: Row = Row {
    name: names::COPY_MS,
    make: |c| Box::new(CopyMs::new(c)),
    size: size_of::<CopyMs>(),
    parent_size: 864,
    generational: false,
    copies_young: true,
    copies_mature: false,
};

const ALL: [Row; 5] = [MARK_SWEEP, SEMI_SPACE, GEN_COPY, GEN_MS, COPY_MS];
const GENERATIONAL: [Row; 2] = [GEN_COPY, GEN_MS];

/// A collector of `heap_bytes` in ample memory (paging does not perturb
/// algorithmic tests), driven through `body`.
fn with_heap(row: Row, config: HeapConfig, body: impl FnOnce(&mut dyn GcHeap, &mut MemCtx<'_>)) {
    let mut vmm = Vmm::new(
        VmmConfig::builder().memory_bytes(128 << 20).build(),
        CostModel::default(),
    );
    let pid = vmm.register_process();
    let mut clock = Clock::new();
    let mut gc = (row.make)(config);
    let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
    body(gc.as_mut(), &mut ctx);
}

fn heap(bytes: usize) -> HeapConfig {
    HeapConfig::builder().heap_bytes(bytes).build()
}

/// A 3-word scalar whose first field links to the next node.
fn node() -> AllocKind {
    AllocKind::Scalar {
        data_words: 3,
        num_refs: 1,
    }
}

/// Builds a singly linked list of `n` nodes, returning the rooted head.
fn make_list(gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>, n: usize) -> Handle {
    let head = gc.alloc(ctx, node()).expect("alloc list head");
    let mut cur = gc.dup_handle(head);
    for _ in 1..n {
        let next = gc.alloc(ctx, node()).expect("alloc list node");
        gc.write_ref(ctx, cur, 0, Some(next));
        gc.drop_handle(cur);
        cur = next;
    }
    gc.drop_handle(cur);
    head
}

/// Walks a list built by [`make_list`], returning its length.
fn list_len(gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>, head: Handle) -> usize {
    let mut len = 1;
    let mut cur = gc.dup_handle(head);
    while let Some(next) = gc.read_ref(ctx, cur, 0) {
        gc.drop_handle(cur);
        cur = next;
        len += 1;
    }
    gc.drop_handle(cur);
    len
}

// ----- what only the matrix makes sayable ----------------------------------

#[test]
fn every_alias_reports_its_paper_name() {
    for row in ALL {
        with_heap(row, heap(1 << 20), |gc, _| assert_eq!(gc.name(), row.name));
    }
}

#[test]
fn no_alias_is_larger_than_the_struct_it_replaced() {
    for row in ALL {
        assert!(
            row.size <= row.parent_size,
            "{}: {} bytes, the hand-written struct was {}",
            row.name,
            row.size,
            row.parent_size
        );
    }
}

/// `CollectKind::Minor` runs a nursery collection exactly where one exists;
/// everywhere else it is a hint and the whole heap is collected.
#[test]
fn minor_requests_run_nursery_collections_only_in_generational_plans() {
    for row in ALL {
        with_heap(row, heap(2 << 20), |gc, ctx| {
            let keep = make_list(gc, ctx, 80);
            gc.collect(ctx, CollectKind::Minor);
            let s = *gc.stats();
            let expected = if row.generational { (1, 0) } else { (0, 1) };
            assert_eq!((s.nursery_gcs, s.full_gcs), expected, "{}", row.name);
            assert_eq!(list_len(gc, ctx, keep), 80, "{}", row.name);
            if row.generational {
                assert!(
                    s.objects_moved >= 80,
                    "{}: survivors were copied out",
                    row.name
                );
            }
            gc.collect(ctx, CollectKind::Full);
            let s = *gc.stats();
            assert_eq!(s.nursery_gcs, expected.0, "{}", row.name);
            assert_eq!(s.full_gcs, expected.1 + 1, "{}", row.name);
        });
    }
}

// ----- survival and reclamation ---------------------------------------------

#[test]
fn a_full_collection_keeps_the_live_list_and_reclaims_the_dead_one() {
    for row in ALL {
        with_heap(row, heap(1 << 20), |gc, ctx| {
            let keep = make_list(gc, ctx, 100);
            let dead = make_list(gc, ctx, 100);
            gc.drop_handle(dead);
            let used_before = gc.heap_pages_used();
            gc.collect(ctx, CollectKind::Full);
            assert!(gc.heap_pages_used() <= used_before, "{}", row.name);
            assert_eq!(gc.stats().full_gcs, 1, "{}", row.name);
            assert_eq!(list_len(gc, ctx, keep), 100, "{}", row.name);
        });
    }
}

/// Two whole-heap collections straight from allocation: survivors are
/// evacuated (and, in a mark-sweep mature space, swept) in the same cycle,
/// then re-traced where they landed. A copying mature space moves them
/// again; a mark-sweep one marks them in place.
#[test]
fn survivors_outlive_repeated_full_collections_and_move_only_where_the_plan_copies() {
    for row in ALL {
        with_heap(row, heap(2 << 20), |gc, ctx| {
            let keep = make_list(gc, ctx, 200);
            gc.collect(ctx, CollectKind::Full);
            assert_eq!(list_len(gc, ctx, keep), 200, "{}", row.name);
            let moved_once = gc.stats().objects_moved;
            assert_eq!(moved_once >= 200, row.copies_young, "{}", row.name);
            gc.collect(ctx, CollectKind::Full);
            assert_eq!(list_len(gc, ctx, keep), 200, "{}", row.name);
            assert_eq!(gc.stats().full_gcs, 2, "{}", row.name);
            let moved_twice = gc.stats().objects_moved;
            if row.copies_mature {
                assert!(moved_twice >= 400, "{}: the flip copies again", row.name);
            } else {
                assert_eq!(moved_twice, moved_once, "{}: marked in place", row.name);
            }
        });
    }
}

#[test]
fn handles_and_fields_follow_moved_objects() {
    for row in ALL {
        with_heap(row, heap(1 << 20), |gc, ctx| {
            let kind = AllocKind::Scalar {
                data_words: 2,
                num_refs: 1,
            };
            let a = gc.alloc(ctx, kind).unwrap();
            let b = gc.alloc(ctx, kind).unwrap();
            gc.write_ref(ctx, a, 0, Some(b));
            gc.collect(ctx, CollectKind::Full);
            // a's field still reaches b after both (possibly) moved.
            let loaded = gc.read_ref(ctx, a, 0).expect("field survived");
            assert!(gc.same_object(loaded, b), "{}", row.name);
            // Both handles denote the same object: a store through one is
            // visible through the other.
            gc.write_ref(ctx, b, 0, Some(a));
            let via_loaded = gc.read_ref(ctx, loaded, 0);
            assert!(via_loaded.is_some(), "{}", row.name);
        });
    }
}

#[test]
fn cyclic_garbage_is_reclaimed() {
    for row in ALL {
        with_heap(row, heap(1 << 20), |gc, ctx| {
            let a = gc.alloc(ctx, node()).unwrap();
            let b = gc.alloc(ctx, node()).unwrap();
            gc.write_ref(ctx, a, 0, Some(b));
            gc.write_ref(ctx, b, 0, Some(a));
            let pages_before_drop = gc.heap_pages_used();
            gc.drop_handle(a);
            gc.drop_handle(b);
            gc.collect(ctx, CollectKind::Full);
            gc.collect(ctx, CollectKind::Full);
            // The cycle is gone; a fresh allocation reuses its space.
            let c = gc.alloc(ctx, node()).unwrap();
            assert!(gc.heap_pages_used() <= pages_before_drop, "{}", row.name);
            gc.drop_handle(c);
        });
    }
}

#[test]
fn mature_garbage_is_reclaimed_by_full_collections_only() {
    for row in GENERATIONAL {
        with_heap(row, heap(4 << 20), |gc, ctx| {
            let dead = make_list(gc, ctx, 500);
            gc.collect(ctx, CollectKind::Minor); // promotes the (still live) list
            let pages_promoted = gc.heap_pages_used();
            gc.drop_handle(dead);
            gc.collect(ctx, CollectKind::Minor); // cannot reclaim mature garbage
            assert_eq!(gc.heap_pages_used(), pages_promoted, "{}", row.name);
            gc.collect(ctx, CollectKind::Full); // reclaims it
            assert!(gc.heap_pages_used() < pages_promoted, "{}", row.name);
        });
    }
}

// ----- large objects ---------------------------------------------------------

#[test]
fn large_objects_go_to_the_los_and_are_collected() {
    for row in ALL {
        with_heap(row, heap(4 << 20), |gc, ctx| {
            let big = gc.alloc(ctx, AllocKind::DataArray { len: 10_000 }).unwrap();
            let pages_with_big = gc.heap_pages_used();
            gc.drop_handle(big);
            gc.collect(ctx, CollectKind::Full);
            assert!(gc.heap_pages_used() < pages_with_big, "{}", row.name);
        });
    }
}

#[test]
fn large_objects_are_marked_not_copied() {
    for row in ALL {
        with_heap(row, heap(4 << 20), |gc, ctx| {
            let big = gc.alloc(ctx, AllocKind::RefArray { len: 5_000 }).unwrap();
            let small = gc
                .alloc(
                    ctx,
                    AllocKind::Scalar {
                        data_words: 1,
                        num_refs: 0,
                    },
                )
                .unwrap();
            gc.write_ref(ctx, big, 4_999, Some(small));
            let moved_before = gc.stats().objects_moved;
            gc.collect(ctx, CollectKind::Full);
            // At most the small object moved; the array stayed put but kept
            // its (updated) reference.
            let moved = gc.stats().objects_moved - moved_before;
            assert_eq!(moved, u64::from(row.copies_young), "{}", row.name);
            assert!(gc.read_ref(ctx, big, 4_999).is_some(), "{}", row.name);
        });
    }
}

// ----- triggers, reserves and the allocation ladder ---------------------------

/// Garbage churn through a small heap must collect rather than fail:
/// MarkSweep when its free lists run dry, SemiSpace before from-space passes
/// half the heap (the copy reserve), the nursery plans at their limits.
#[test]
fn allocation_triggers_collection_before_the_heap_or_its_reserve_is_exhausted() {
    for (row, heap_bytes, count, len) in [
        (MARK_SWEEP, 256 << 10, 40, 2000), // 40 x 8 KiB through 256 KiB
        (SEMI_SPACE, 1 << 20, 150, 1000),  // ~600 KiB through a 512 KiB semispace
        (GEN_COPY, 1 << 20, 150, 1000),
        (GEN_MS, 1 << 20, 150, 1000),
        (COPY_MS, 1 << 20, 150, 1000),
    ] {
        with_heap(row, heap(heap_bytes), |gc, ctx| {
            for _ in 0..count {
                let h = gc
                    .alloc(ctx, AllocKind::DataArray { len })
                    .expect("allocation must succeed after GC");
                gc.drop_handle(h);
            }
            assert!(gc.stats().total_gcs() >= 1, "{}", row.name);
            if !row.generational {
                assert!(gc.stats().full_gcs >= 1, "{}", row.name);
            }
        });
    }
}

/// CopyMS is GenMS with nursery collections switched off: however long it
/// runs, every collection is whole-heap and no store is ever remembered.
#[test]
fn copyms_collects_only_the_whole_heap_and_has_no_barrier() {
    with_heap(COPY_MS, heap(1 << 20), |gc, ctx| {
        let keep = make_list(gc, ctx, 100);
        // ~1.2 MiB of garbage through a 1 MiB heap forces collection.
        for _ in 0..30_000 {
            let kind = AllocKind::Scalar {
                data_words: 8,
                num_refs: 0,
            };
            let h = gc.alloc(ctx, kind).unwrap();
            gc.drop_handle(h);
        }
        let s = *gc.stats();
        assert!(s.full_gcs >= 1);
        assert_eq!(s.nursery_gcs, 0, "CopyMS never does nursery-only GCs");
        assert_eq!(s.barrier_records, 0, "CopyMS has no write barrier");
        assert_eq!(list_len(gc, ctx, keep), 100);
    });
}

/// Hold ~400 KiB live in a 1 MiB heap (the 2× copy reserve makes GenCopy's
/// mature space tight) and push ~1.2 MiB of garbage through: minor
/// collections promote, the shrunken reserve forces full ones. GenMS has no
/// reserve to run out of at this size, so the case is GenCopy's alone.
#[test]
fn sustained_allocation_eventually_runs_full_collections() {
    with_heap(GEN_COPY, heap(1 << 20), |gc, ctx| {
        let keep = make_list(gc, ctx, 20_000);
        for _ in 0..60_000 {
            let h = gc.alloc(ctx, node()).unwrap();
            gc.drop_handle(h);
        }
        assert!(gc.stats().nursery_gcs >= 1);
        assert!(gc.stats().full_gcs >= 1);
        assert_eq!(list_len(gc, ctx, keep), 20_000);
    });
}

#[test]
fn fixed_nursery_variants_collect_at_4mb() {
    for row in GENERATIONAL {
        let mut config = heap(64 << 20);
        config.nursery = NurseryPolicy::FIXED_4MB;
        with_heap(row, config, |gc, ctx| {
            // 5 MB of garbage must trigger exactly one nursery GC (not zero —
            // the Appel policy would have given a ~30 MB nursery here).
            for _ in 0..656 {
                let h = gc.alloc(ctx, AllocKind::DataArray { len: 2000 }).unwrap();
                gc.drop_handle(h);
            }
            assert_eq!(gc.stats().nursery_gcs, 1, "{}", row.name);
        });
    }
}

#[test]
fn a_live_set_larger_than_the_heap_reports_out_of_memory() {
    let rows = ALL.map(|row| (row, 192 << 10, 1500)); // 384 KiB live, 192 KiB heap
    for (row, heap_bytes, len) in rows.into_iter().chain([(MARK_SWEEP, 64 << 10, 2000)]) {
        with_heap(row, heap(heap_bytes), |gc, ctx| {
            let mut held = Vec::new();
            let mut oom = false;
            for _ in 0..64 {
                match gc.alloc(ctx, AllocKind::DataArray { len }) {
                    Ok(h) => held.push(h),
                    Err(e) => {
                        assert_eq!(e.requested_bytes, 8 + 4 * len, "{}", row.name);
                        oom = true;
                        break;
                    }
                }
            }
            assert!(oom, "{}: 64 live arrays cannot fit the heap", row.name);
        });
    }
}

// ----- the boundary barrier and the remembered set ----------------------------

#[test]
fn the_write_barrier_remembers_exactly_the_stores_into_the_nursery_from_outside() {
    for row in ALL {
        with_heap(row, heap(2 << 20), |gc, ctx| {
            // Nursery-to-nursery (or, without a nursery, any) store: nothing
            // to remember.
            let a = gc.alloc(ctx, node()).unwrap();
            let b = gc.alloc(ctx, node()).unwrap();
            gc.write_ref(ctx, a, 0, Some(b));
            assert_eq!(gc.stats().barrier_records, 0, "{}", row.name);
            // Promote `a`, then store a fresh nursery object into it.
            gc.collect(ctx, CollectKind::Minor);
            assert_eq!(gc.stats().barrier_records, 0, "{}", row.name);
            let young = gc.alloc(ctx, node()).unwrap();
            gc.write_ref(ctx, a, 0, Some(young));
            let expected = u64::from(row.generational);
            assert_eq!(gc.stats().barrier_records, expected, "{}", row.name);
            // The young object survives only through that slot — in a
            // generational plan, only through the remembered set.
            gc.drop_handle(young);
            gc.collect(ctx, CollectKind::Minor);
            assert!(
                gc.read_ref(ctx, a, 0).is_some(),
                "{}: the mature-to-nursery referent must stay alive",
                row.name
            );
        });
    }
}
