//! Unit tests for the bookmarking collector.

use heap::{AllocKind, CollectKind, GcHeap, Handle, HeapConfig, MemCtx};
use simtime::{Clock, CostModel};
use vmm::{ProcessId, Vmm, VmmConfig};

use crate::{BcOptions, Bookmarking};

struct Env {
    vmm: Vmm,
    clock: Clock,
    pid: ProcessId,
    /// A memory hog whose mlocked pages squeeze the collector.
    hog: ProcessId,
}

fn env(memory_bytes: usize) -> Env {
    let mut config = VmmConfig::builder().memory_bytes(memory_bytes).build();
    // Small watermarks keep tests brisk and deterministic.
    config.low_watermark = 16;
    config.high_watermark = 32;
    let mut vmm = Vmm::new(config, CostModel::default());
    let pid = vmm.register_process();
    let hog = vmm.register_process();
    Env {
        vmm,
        clock: Clock::new(),
        pid,
        hog,
    }
}

fn bc(env: &mut Env, heap_bytes: usize, options: BcOptions) -> Bookmarking {
    let gc = Bookmarking::new(
        HeapConfig::builder().heap_bytes(heap_bytes).build(),
        options,
    );
    gc.register(&mut env.vmm, env.pid);
    gc
}

fn list_kind() -> AllocKind {
    AllocKind::Scalar {
        data_words: 3,
        num_refs: 1,
    }
}

fn make_list(gc: &mut Bookmarking, ctx: &mut MemCtx<'_>, n: usize) -> Handle {
    let head = gc.alloc(ctx, list_kind()).unwrap();
    let mut cur = gc.dup_handle(head);
    for _ in 1..n {
        let node = gc.alloc(ctx, list_kind()).unwrap();
        gc.write_ref(ctx, cur, 0, Some(node));
        gc.drop_handle(cur);
        cur = node;
    }
    gc.drop_handle(cur);
    head
}

fn list_len(gc: &mut Bookmarking, ctx: &mut MemCtx<'_>, head: Handle) -> usize {
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

/// Applies `pages` of mlocked pressure from the hog process *gradually*
/// (as the paper's `signalmem` does), pumping the VMM and letting the
/// collector react between increments so eviction notices flow.
fn apply_pressure(e: &mut Env, gc: &mut Bookmarking, pages: u32, base: u32) {
    for p in 0..pages {
        e.vmm
            .mlock(e.hog, vmm::VirtPage::new(base + p), &mut e.clock);
        if p % 4 == 3 {
            step(gc, &mut e.vmm, &mut e.clock, e.pid);
        }
    }
    step(gc, &mut e.vmm, &mut e.clock, e.pid);
}

/// Keeps pinning memory (4 pages at a time) until the collector has
/// relinquished at least `target_evicted` heap pages, or `max_pins` pages
/// are pinned. Models signalmem ratcheting up against BC's give-back.
fn squeeze_until_evicted(
    e: &mut Env,
    gc: &mut Bookmarking,
    target_evicted: usize,
    max_pins: u32,
) -> u32 {
    let mut pinned = 0;
    while gc.evicted_heap_pages() < target_evicted && pinned < max_pins {
        if e.vmm.free_frames() <= 8 {
            // Let the collector catch up rather than OOM the machine.
            step(gc, &mut e.vmm, &mut e.clock, e.pid);
            if e.vmm.free_frames() <= 8 {
                break;
            }
            continue;
        }
        e.vmm.mlock(e.hog, vmm::VirtPage::new(pinned), &mut e.clock);
        pinned += 1;
        if pinned % 4 == 0 {
            step(gc, &mut e.vmm, &mut e.clock, e.pid);
        }
    }
    step(gc, &mut e.vmm, &mut e.clock, e.pid);
    pinned
}

/// One engine step: pump reclaim, let the collector react.
fn step(gc: &mut Bookmarking, vmm: &mut Vmm, clock: &mut Clock, pid: ProcessId) {
    vmm.pump(clock);
    let mut ctx = MemCtx::new(vmm, clock, pid);
    gc.handle_vm_events(&mut ctx);
}

#[test]
fn behaves_like_genms_without_pressure() {
    let mut e = env(64 << 20);
    let mut gc = bc(&mut e, 2 << 20, BcOptions::default());
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    let keep = make_list(&mut gc, &mut ctx, 100);
    gc.collect(&mut ctx, CollectKind::Minor);
    assert_eq!(gc.stats().nursery_gcs, 1);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 100);
    gc.collect(&mut ctx, CollectKind::Full);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 100);
    // No pressure: no bookmarks, no discards, no shrinks.
    let s = gc.stats();
    assert_eq!(s.bookmarks_set, 0);
    assert_eq!(s.pages_relinquished, 0);
    assert_eq!(s.heap_shrinks, 0);
    assert_eq!(gc.evicted_heap_pages(), 0);
}

#[test]
fn write_barrier_uses_page_sized_buffer_and_cards() {
    let mut e = env(64 << 20);
    let mut gc = bc(&mut e, 8 << 20, BcOptions::default());
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    // Promote an object, then hammer stores into it so the 1024-slot
    // buffer fills and converts to card marks (§3.1).
    let old = gc
        .alloc(&mut ctx, AllocKind::RefArray { len: 1500 })
        .unwrap();
    gc.collect(&mut ctx, CollectKind::Minor);
    let young = gc.alloc(&mut ctx, list_kind()).unwrap();
    for i in 0..1500 {
        gc.write_ref(&mut ctx, old, i, Some(young));
    }
    assert!(gc.stats().barrier_records >= 1500);
    gc.drop_handle(young);
    // The young object survives via buffer + cards.
    gc.collect(&mut ctx, CollectKind::Minor);
    assert!(gc.read_ref(&mut ctx, old, 0).is_some());
    assert!(gc.read_ref(&mut ctx, old, 1499).is_some());
}

#[test]
fn compaction_defragments_superpages() {
    let mut e = env(64 << 20);
    let mut gc = bc(&mut e, 4 << 20, BcOptions::default());
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    // Allocate 5 KiB objects (3 per superpage) and drop two of every
    // three: after mark-sweep, each superpage is 1/3 full.
    let kind = AllocKind::DataArray { len: 1200 }; // 4808 B -> 5456 B class
    let mut all = Vec::new();
    for _ in 0..120 {
        all.push(gc.alloc(&mut ctx, kind).unwrap());
    }
    gc.collect(&mut ctx, CollectKind::Full); // promote all 120: ~40 packed superpages
                                             // Now drop two of every three and sweep: each superpage is 1/3 full.
    let mut keep = Vec::new();
    for (i, h) in all.into_iter().enumerate() {
        if i % 3 == 0 {
            keep.push(h);
        } else {
            gc.drop_handle(h);
        }
    }
    gc.collect(&mut ctx, CollectKind::Full);
    let pages_fragmented = gc.heap_pages_used();
    gc.compact_gc(&mut ctx);
    let pages_compacted = gc.heap_pages_used();
    assert!(
        pages_compacted + 8 < pages_fragmented,
        "compaction freed nothing: {pages_fragmented} -> {pages_compacted}"
    );
    assert_eq!(gc.stats().compacting_gcs, 1);
    // Every kept object survived the move.
    for &h in &keep {
        gc.read_data(&mut ctx, h);
    }
}

#[test]
fn pressure_discards_empty_pages_and_shrinks_heap() {
    let mut e = env(4 << 20); // 1024 frames
    let mut gc = bc(&mut e, 2 << 20, BcOptions::default());
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        // Build then drop a large structure so free superpages exist.
        let junk = make_list(&mut gc, &mut ctx, 20_000);
        gc.drop_handle(junk);
        gc.collect(&mut ctx, CollectKind::Full);
    }
    let budget_before = gc.current_heap_budget();
    // Pin all but ~10 frames: the collector must give memory back.
    let pin = 1024 - 10 - e.vmm.stats(e.pid).resident as u32;
    apply_pressure(&mut e, &mut gc, pin, 0);
    for _ in 0..50 {
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    let s = gc.stats();
    assert!(s.pages_discarded > 0, "no empty pages discarded: {s:?}");
    assert!(s.heap_shrinks > 0, "heap budget never shrunk");
    assert!(gc.current_heap_budget() < budget_before);
}

/// Under severe pressure with live data, BC must bookmark and relinquish
/// pages — and subsequent full collections must not fault.
#[test]
fn bookmarking_keeps_full_collections_in_memory() {
    let mut e = env(2 << 20); // 512 frames total
    let mut gc = bc(&mut e, 1 << 20, BcOptions::default());
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        make_list(&mut gc, &mut ctx, 15_000) // ~300 KiB live
    };
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        gc.collect(&mut ctx, CollectKind::Full); // promote everything to the mature space
    }
    // Ratchet pressure until live pages start leaving memory.
    squeeze_until_evicted(&mut e, &mut gc, 10, 480);
    assert!(
        gc.evicted_heap_pages() > 0,
        "pressure never forced evictions: {:?}",
        gc.stats()
    );
    assert!(gc.stats().bookmarks_set > 0, "no bookmarks were set");
    // A full collection now must not touch evicted pages.
    let faults_before = e.vmm.stats(e.pid).major_faults;
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        gc.collect(&mut ctx, CollectKind::Full);
    }
    let faults_after = e.vmm.stats(e.pid).major_faults;
    assert_eq!(
        faults_after, faults_before,
        "BC's full collection faulted on evicted pages"
    );
    assert!(
        gc.evicted_heap_pages() > 0,
        "collection reloaded evicted pages"
    );
    // The data is still structurally intact (walking it *will* fault —
    // that's mutator paging, which BC does not eliminate).
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 15_000);
}

#[test]
fn bookmarks_clear_when_pages_reload() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, BcOptions::default());
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 15_000);
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    let pin = squeeze_until_evicted(&mut e, &mut gc, 10, 480);
    assert!(gc.stats().bookmarks_set > 0);
    // Release the pressure and walk the whole list: every page reloads.
    for p in 0..pin {
        e.vmm.munlock(e.hog, vmm::VirtPage::new(p), &mut e.clock);
    }
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        assert_eq!(list_len(&mut gc, &mut ctx, keep), 15_000);
    }
    for _ in 0..20 {
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    assert_eq!(
        gc.evicted_heap_pages(),
        0,
        "every page reloaded, none should be tracked evicted"
    );
    assert!(
        gc.stats().bookmarks_cleared > 0,
        "reloads must clear bookmarks (§3.4.2)"
    );
}

#[test]
fn resizing_only_variant_discards_but_never_bookmarks() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, BcOptions::resizing_only());
    assert!(!gc.bookmarking_enabled());
    assert_eq!(gc.name(), "BC-resize");
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 15_000);
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    // Resizing-only never relinquishes: ratchet adaptively until the VMM
    // has no choice but to evict the collector's pages.
    let mut pinned = 0u32;
    for _ in 0..3000 {
        if e.vmm.stats(e.pid).evictions > 0 && pinned > 300 {
            break;
        }
        if e.vmm.free_frames() > 8 && pinned < 495 {
            e.vmm.mlock(e.hog, vmm::VirtPage::new(pinned), &mut e.clock);
            pinned += 1;
        }
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    let s = *gc.stats();
    assert_eq!(s.bookmarks_set, 0);
    assert_eq!(s.pages_relinquished, 0);
    // It still resizes/discards under pressure.
    assert!(s.heap_shrinks > 0 || s.pages_discarded > 0);
    // Its full collections fault on evicted pages (like the baselines).
    let evictions = e.vmm.stats(e.pid).evictions;
    assert!(evictions > 0, "VMM should have evicted collector pages");
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 15_000);
}

#[test]
fn failsafe_reclaims_bookmarked_garbage_when_heap_exhausted() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 512 << 10, BcOptions::default());
    // Live list fills much of the heap.
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 10_000); // ~200 KiB
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    // Squeeze hard so pages get bookmarked and evicted.
    squeeze_until_evicted(&mut e, &mut gc, 20, 480);
    // Now drop the list (it is garbage, but bookmarked/evicted objects
    // cannot be reclaimed without the fail-safe) and allocate a large
    // amount of fresh data.
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        gc.drop_handle(keep);
        let mut held = Vec::new();
        for _ in 0..40 {
            match gc.alloc(&mut ctx, AllocKind::DataArray { len: 2000 }) {
                Ok(h) => held.push(h),
                Err(_) => break,
            }
        }
        // Either the fail-safe ran (reclaiming the evicted garbage), or
        // the allocations all fit without it.
        assert!(
            gc.stats().failsafe_gcs > 0 || held.len() == 40,
            "neither fail-safe nor success: {:?}",
            gc.stats()
        );
    }
}

#[test]
fn deferred_gc_runs_at_safe_points_not_in_handlers() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, BcOptions::default());
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let junk = make_list(&mut gc, &mut ctx, 10_000);
        gc.drop_handle(junk);
    }
    let gcs_before = gc.stats().total_gcs();
    // Squeeze: the dropped junk means a collection will produce
    // discardable pages, so the GC must get requested and run.
    let mut pinned = 0u32;
    for _ in 0..3000 {
        if gc.stats().total_gcs() > gcs_before {
            break;
        }
        if e.vmm.free_frames() > 8 && pinned < 495 {
            e.vmm.mlock(e.hog, vmm::VirtPage::new(pinned), &mut e.clock);
            pinned += 1;
        }
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    assert!(
        gc.stats().total_gcs() > gcs_before,
        "pressure should have triggered a collection at a safe point"
    );
}

#[test]
fn survives_interleaved_pressure_and_mutation() {
    // A stress test: mutate continuously while pressure ratchets up.
    let mut e = env(4 << 20);
    let mut gc = bc(&mut e, 2 << 20, BcOptions::default());
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        make_list(&mut gc, &mut ctx, 20_000)
    };
    let mut pinned = 0u32;
    for round in 0..40 {
        {
            let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
            for _ in 0..500 {
                let h = gc.alloc(&mut ctx, list_kind()).unwrap();
                gc.drop_handle(h);
            }
        }
        if round % 4 == 0 && pinned < 600 {
            apply_pressure(&mut e, &mut gc, 20, pinned);
            pinned += 20;
        }
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 20_000);
}

#[test]
fn regrowth_restores_budget_after_transient_pressure() {
    let mut e = env(4 << 20); // 1024 frames
    let opts = BcOptions {
        regrow: true,
        ..Default::default()
    };
    let mut gc = bc(&mut e, 2 << 20, opts);
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let junk = make_list(&mut gc, &mut ctx, 20_000);
        gc.drop_handle(junk);
        gc.collect(&mut ctx, CollectKind::Full);
    }
    let configured = gc.current_heap_budget();
    // Transient spike: pin almost everything, let BC shrink...
    let pin = 1024 - 10 - e.vmm.stats(e.pid).resident as u32;
    apply_pressure(&mut e, &mut gc, pin, 0);
    assert!(gc.current_heap_budget() < configured, "never shrank");
    assert!(gc.stats().heap_shrinks > 0);
    // ...then the hog exits, returning its memory, and BC gets safe points.
    let pages: Vec<vmm::VirtPage> = (0..pin).map(vmm::VirtPage::new).collect();
    for &p in &pages {
        e.vmm.munlock(e.hog, p, &mut e.clock);
    }
    e.vmm.madvise_dontneed(e.hog, &pages, &mut e.clock);
    for _ in 0..200 {
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    assert!(
        gc.stats().heap_regrows > 0,
        "never regrew: {:?}",
        gc.stats()
    );
    assert_eq!(
        gc.current_heap_budget(),
        configured,
        "budget should recover fully"
    );
}

#[test]
fn default_options_never_regrow() {
    let mut e = env(4 << 20);
    let mut gc = bc(&mut e, 2 << 20, BcOptions::default());
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let junk = make_list(&mut gc, &mut ctx, 20_000);
        gc.drop_handle(junk);
        gc.collect(&mut ctx, CollectKind::Full);
    }
    let pin = 1024 - 10 - e.vmm.stats(e.pid).resident as u32;
    apply_pressure(&mut e, &mut gc, pin, 0);
    let shrunk = gc.current_heap_budget();
    let pages: Vec<vmm::VirtPage> = (0..pin).map(vmm::VirtPage::new).collect();
    for &p in &pages {
        e.vmm.munlock(e.hog, p, &mut e.clock);
    }
    e.vmm.madvise_dontneed(e.hog, &pages, &mut e.clock);
    for _ in 0..100 {
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
    }
    // The paper's evaluated collector only shrinks (§3.3.3).
    assert_eq!(gc.current_heap_budget(), shrunk);
    assert_eq!(gc.stats().heap_regrows, 0);
}

#[test]
fn pointer_free_victim_policy_vetoes_pointerful_pages() {
    use crate::VictimPolicy;
    let mut e = env(2 << 20);
    let opts = BcOptions {
        victim_policy: VictimPolicy::PreferPointerFree {
            max_pointers: 0,
            max_vetoes: 2,
        },
        ..Default::default()
    };
    let mut gc = bc(&mut e, 1 << 20, opts);
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 15_000); // pointer-rich pages
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    squeeze_until_evicted(&mut e, &mut gc, 10, 480);
    // With max_pointers = 0, every list page is pointer-rich: vetoes fire.
    assert!(
        gc.stats().victims_vetoed > 0,
        "policy never vetoed: {:?}",
        gc.stats()
    );
    // The veto cap keeps eviction making progress anyway.
    assert!(gc.evicted_heap_pages() > 0);
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 15_000);
}

/// §3.4.1 compaction with evicted pages: superpages holding bookmarked
/// objects or evicted pages are compaction targets and are never moved, so
/// evicted pointers to them stay valid.
#[test]
fn compaction_preserves_evicted_pages_and_their_referents() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, BcOptions::default());
    // Fragmented mature space with live data.
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 12_000);
        gc.collect(&mut ctx, CollectKind::Full);
        let junk = make_list(&mut gc, &mut ctx, 6_000);
        gc.collect(&mut ctx, CollectKind::Full);
        gc.drop_handle(junk);
        gc.collect(&mut ctx, CollectKind::Full); // sweep: fragmentation remains
        keep
    };
    // Evict some pages.
    squeeze_until_evicted(&mut e, &mut gc, 8, 480);
    let evicted_before = gc.evicted_heap_pages();
    assert!(evicted_before > 0);
    // Compact while pages are out.
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let faults_before = e_stats_faults(&ctx);
        gc.compact_gc(&mut ctx);
        let faults_after = e_stats_faults(&ctx);
        assert_eq!(
            faults_after, faults_before,
            "compaction touched evicted pages"
        );
    }
    assert_eq!(gc.stats().compacting_gcs, 1);
    assert!(
        gc.evicted_heap_pages() > 0,
        "compaction must not reload evicted pages"
    );
    // Everything still reachable (walking reloads pages — mutator faults).
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 12_000);
}

fn e_stats_faults(ctx: &MemCtx<'_>) -> u64 {
    ctx.vmm.stats(ctx.pid).major_faults
}

/// The fail-safe (§3.5) restores every page and clears all bookmark state;
/// the heap is fully collectable afterwards.
#[test]
fn failsafe_restores_residency_and_clears_bookmarks() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, BcOptions::default());
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 15_000);
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    squeeze_until_evicted(&mut e, &mut gc, 10, 480);
    assert!(gc.evicted_heap_pages() > 0);
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        gc.failsafe_restore(&mut ctx);
    }
    assert_eq!(
        gc.evicted_heap_pages(),
        0,
        "fail-safe must reload everything"
    );
    assert_eq!(gc.stats().failsafe_gcs, 1);
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    gc.collect(&mut ctx, CollectKind::Full);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 15_000);
}

/// Bookmarks can target large objects: their incoming counters live in the
/// LOS analogue of the superpage header (§3.4), and full collections treat
/// bookmarked large objects as roots.
#[test]
fn bookmarks_target_large_objects_and_keep_them_alive() {
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, BcOptions::default());
    let (_keep, big) = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        // A mature object pointing at a large object.
        let holder = gc.alloc(&mut ctx, list_kind()).unwrap();
        let big = gc
            .alloc(&mut ctx, AllocKind::DataArray { len: 3_000 })
            .unwrap();
        gc.write_ref(&mut ctx, holder, 0, Some(big)); // via ref field
                                                      // (list_kind has one ref field; store the big array there.)
        gc.collect(&mut ctx, CollectKind::Full);
        // Pad the heap so pressure has something to evict.
        let pad = make_list(&mut gc, &mut ctx, 12_000);
        gc.collect(&mut ctx, CollectKind::Full);
        ((holder, pad), big)
    };
    squeeze_until_evicted(&mut e, &mut gc, 10, 480);
    assert!(gc.evicted_heap_pages() > 0);
    // Whatever was evicted, a full collection must keep the large object
    // alive (either root-reachable or bookmark-rooted) without faulting.
    let faults = e.vmm.stats(e.pid).major_faults;
    {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        gc.collect(&mut ctx, CollectKind::Full);
    }
    assert_eq!(e.vmm.stats(e.pid).major_faults, faults);
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    gc.read_data(&mut ctx, big); // would panic if the array were collected
}

/// §3.1: the write buffer holds at most one page of entries; overflow
/// converts to card marks rather than growing without bound.
#[test]
fn write_buffer_is_bounded_by_one_page() {
    let mut e = env(64 << 20);
    let mut gc = bc(&mut e, 8 << 20, BcOptions::default());
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    let old = gc
        .alloc(&mut ctx, AllocKind::RefArray { len: 1024 })
        .unwrap();
    gc.collect(&mut ctx, CollectKind::Minor); // promote
                                              // 3000 mature→nursery stores: ~3x the buffer capacity.
    let young = gc.alloc(&mut ctx, list_kind()).unwrap();
    for i in 0..3_000u32 {
        gc.write_ref(&mut ctx, old, i % 1024, Some(young));
    }
    assert!(gc.stats().barrier_records >= 3_000);
    // The referent still survives a nursery collection through the cards.
    gc.drop_handle(young);
    gc.collect(&mut ctx, CollectKind::Minor);
    assert!(gc.read_ref(&mut ctx, old, 1023).is_some());
}

/// The §7 bundle (`with_future_work`) composes: pointer-aware victim
/// selection plus regrowth, with correctness intact under pressure.
#[test]
fn future_work_options_compose() {
    let opts = BcOptions::with_future_work();
    assert!(opts.bookmarking);
    assert!(opts.regrow);
    assert!(matches!(
        opts.victim_policy,
        crate::VictimPolicy::PreferPointerFree { .. }
    ));
    let mut e = env(2 << 20);
    let mut gc = bc(&mut e, 1 << 20, opts);
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 15_000);
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    squeeze_until_evicted(&mut e, &mut gc, 5, 480);
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 15_000);
}

// ----- the discard frontier (pressure.rs) -----------------------------------

fn nursery_base_page(gc: &Bookmarking) -> u32 {
    gc.nursery.base().page().number()
}

/// The frontier's life cycle in a machine with memory to spare, where
/// nothing but the calls below discards a page: raised by allocation, kept
/// across the nursery's release, held by a scan that stopped at its limit,
/// lowered by a complete one to just past the highest page it kept.
#[test]
fn discard_frontier_follows_the_highest_kept_page() {
    let mut e = env(64 << 20);
    let mut gc = bc(&mut e, 8 << 20, BcOptions::default());
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    let base = nursery_base_page(&gc);
    assert_eq!(gc.discard_frontier, base, "nothing allocated yet");

    // ~100 nursery pages of garbage.
    for _ in 0..20_000 {
        let h = gc.alloc(&mut ctx, list_kind()).unwrap();
        gc.drop_handle(h);
    }
    let extent_end = base + gc.nursery.extent_pages() as u32;
    assert_eq!(gc.discard_frontier, extent_end, "raised with the extent");
    let top_page = gc.nursery.top().page().number();
    assert!(top_page - base > 80);

    // The collection releases the nursery; its pages keep their frames and
    // the frontier keeps covering them.
    gc.collect(&mut ctx, CollectKind::Minor);
    assert_eq!(gc.nursery.extent_pages(), 0);
    assert_eq!(gc.discard_frontier, extent_end, "survives release_all");
    assert!(ctx.vmm.is_resident(ctx.pid, vmm::VirtPage::new(top_page)));

    // A scan that fills its quota stops early and learns nothing.
    assert_eq!(gc.discard_empties_inner(&mut ctx, 10, 0), 10);
    assert_eq!(
        gc.discard_frontier, extent_end,
        "early break must not lower"
    );
    assert_eq!(gc.discard_empties_inner(&mut ctx, 10, 5), 10);
    assert_eq!(gc.discard_frontier, extent_end);

    // A complete scan keeps the five highest resident pages back: the
    // frontier lands just past the highest of them.
    let resident = (base..extent_end)
        .filter(|&p| ctx.vmm.is_resident(ctx.pid, vmm::VirtPage::new(p)))
        .count();
    assert_eq!(gc.discard_empties_inner(&mut ctx, 1000, 5), resident - 5);
    assert_eq!(gc.discard_frontier, top_page + 1);
    assert!(
        gc.discard_frontier < extent_end,
        "the untouched tail is cut"
    );
    for p in top_page - 4..=top_page {
        assert!(ctx.vmm.is_resident(ctx.pid, vmm::VirtPage::new(p)));
    }

    // Nothing held back: everything goes, and the frontier falls to the
    // first free page.
    assert_eq!(gc.discard_empties_inner(&mut ctx, 1000, 0), 5);
    assert_eq!(gc.discard_frontier, base);
    assert_eq!(gc.discard_empties_inner(&mut ctx, 1000, 0), 0);

    // The next allocation raises it over the fresh extent.
    let h = gc.alloc(&mut ctx, list_kind()).unwrap();
    gc.drop_handle(h);
    assert_eq!(gc.discard_frontier, base + gc.nursery.extent_pages() as u32);
    assert!(gc.nursery.extent_pages() > 0);
}

/// Under `cfg(test)` every `discard_empties_inner` compares its candidate
/// pages with a scan up to the nursery's historical high-water mark (and,
/// as in any debug build, re-probes everything above the frontier). This
/// drives BC through random schedules of allocation bursts, collections,
/// signalmem-style pressure ramps (the shape `dynamic_pressure_config`
/// gives the simulator: pin a few pages, let the collector react, pin
/// more), releases and reloads, so that those checks meet every state the
/// frontier can be in.
#[test]
fn discard_frontier_matches_full_scan_on_random_schedules() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e = env(4 << 20); // 1024 frames
        let options = if seed % 3 == 2 {
            BcOptions::resizing_only()
        } else {
            BcOptions::default()
        };
        let mut gc = bc(&mut e, 2 << 20, options);
        let keep = {
            let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
            make_list(&mut gc, &mut ctx, 12_000)
        };
        let mut pinned = 0u32;
        let (mut lowered, mut raised) = (0u32, 0u32);
        for _ in 0..250 {
            let before = gc.discard_frontier;
            match rng.random_range(0..10u32) {
                0..=2 => {
                    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
                    for _ in 0..rng.random_range(20..6_000u32) {
                        let h = gc.alloc(&mut ctx, list_kind()).unwrap();
                        gc.drop_handle(h);
                    }
                }
                3 => {
                    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
                    gc.collect(&mut ctx, CollectKind::Minor);
                }
                4 => {
                    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
                    gc.collect(&mut ctx, CollectKind::Full);
                }
                5..=7 => {
                    // Ramp: pin while the machine has frames to give.
                    for _ in 0..rng.random_range(8..120u32) {
                        if e.vmm.free_frames() <= 8 || pinned >= 1000 {
                            break;
                        }
                        e.vmm.mlock(e.hog, vmm::VirtPage::new(pinned), &mut e.clock);
                        pinned += 1;
                        if pinned.is_multiple_of(4) {
                            step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
                        }
                    }
                }
                8 => {
                    // The hog lets some memory go.
                    for _ in 0..rng.random_range(0..60u32).min(pinned) {
                        pinned -= 1;
                        let page = vmm::VirtPage::new(pinned);
                        e.vmm.munlock(e.hog, page, &mut e.clock);
                        e.vmm.madvise_dontneed(e.hog, &[page], &mut e.clock);
                    }
                }
                _ => {
                    // Walking the list reloads whatever left.
                    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
                    assert_eq!(list_len(&mut gc, &mut ctx, keep), 12_000);
                }
            }
            step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
            lowered += u32::from(gc.discard_frontier < before);
            raised += u32::from(gc.discard_frontier > before);
        }
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        assert_eq!(list_len(&mut gc, &mut ctx, keep), 12_000);
        assert!(
            gc.stats().pages_discarded > 100 && lowered > 3 && raised > 3,
            "seed {seed} never exercised the frontier: {} discarded, \
             lowered {lowered}, raised {raised}",
            gc.stats().pages_discarded
        );
    }
}

/// Every page BC's simulated memory holds is one the VMM maps: resident,
/// or evicted with its contents on swap. BC gives pages back through
/// `MemCtx::madvise_dontneed`, which drops a discarded page from
/// `core.mem` along with its frame, so no `Unmapped` page keeps a host
/// page (DESIGN.md §10.6). This drives BC through the signalmem-style ramp
/// of `apply_pressure`, with bursts of garbage in between, and checks the
/// invariant after every step. The sanitizer is off: its canaries are
/// written without a touch and may land on unmapped pages.
#[test]
fn discarded_pages_own_no_host_memory() {
    use heap::SanitizeLevel;
    use vmm::{PageState, VirtPage};

    fn assert_mapped(gc: &Bookmarking, e: &Env, when: &str) {
        for page in gc.core.mem.materialized() {
            assert_ne!(
                e.vmm.page_state(e.pid, VirtPage::new(page)),
                PageState::Unmapped,
                "{when}: page {page} is unmapped but still held ({} discarded)",
                gc.stats().pages_discarded
            );
        }
    }

    let mut e = env(4 << 20); // 1024 frames
    let config = HeapConfig::builder()
        .heap_bytes(2 << 20)
        .sanitize(SanitizeLevel::Off)
        .build();
    let mut gc = Bookmarking::new(config, BcOptions::default());
    gc.register(&mut e.vmm, e.pid);
    let keep = {
        let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
        let keep = make_list(&mut gc, &mut ctx, 12_000);
        let junk = make_list(&mut gc, &mut ctx, 20_000);
        gc.drop_handle(junk);
        gc.collect(&mut ctx, CollectKind::Full);
        keep
    };
    assert_mapped(&gc, &e, "before pressure");
    let mut pinned = 0u32;
    for round in 0..300 {
        // Ramp: pin four pages while the machine has frames to give, and
        // let the collector react.
        for _ in 0..4 {
            if e.vmm.free_frames() <= 8 {
                break;
            }
            e.vmm.mlock(e.hog, VirtPage::new(pinned), &mut e.clock);
            pinned += 1;
        }
        step(&mut gc, &mut e.vmm, &mut e.clock, e.pid);
        assert_mapped(&gc, &e, &format!("round {round}, after the ramp"));
        // A burst of garbage refills the nursery BC just emptied.
        {
            let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
            for _ in 0..400 {
                let h = gc.alloc(&mut ctx, list_kind()).unwrap();
                gc.drop_handle(h);
            }
        }
        assert_mapped(&gc, &e, &format!("round {round}, after the burst"));
    }
    assert!(
        gc.stats().pages_discarded > 100,
        "the ramp discarded too little: {:?}",
        gc.stats()
    );
    let mut ctx = MemCtx::new(&mut e.vmm, &mut e.clock, e.pid);
    assert_eq!(list_len(&mut gc, &mut ctx, keep), 12_000);
}
