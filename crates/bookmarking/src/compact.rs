//! Compacting collection (§3.2, §3.4.1), the completeness fail-safe
//! (§3.5), and the allocation slow path that escalates through them.

use std::collections::BTreeMap;

use heap::gc::{drain_gray, forward_roots, is_large};
use heap::{
    Address, AllocKind, BlockKind, CollectKind, Header, MemCtx, OutOfMemory, SpIndex, WORD,
};
use simtime::PauseKind;
use telemetry::GcPhase;
use vmm::Access;

use crate::collector::{Bookmarking, Phase};

impl Bookmarking {
    /// The allocation slow path: nursery collection, full collection,
    /// compaction (§3.2), fail-safe (§3.5), and finally out-of-memory.
    #[cold]
    pub(crate) fn alloc_slow(
        &mut self,
        ctx: &mut MemCtx<'_>,
        kind: AllocKind,
    ) -> Result<Address, OutOfMemory> {
        use heap::GcHeap as _;
        let kind_hint = if is_large(kind) {
            CollectKind::Full
        } else {
            CollectKind::Minor
        };
        self.collect(ctx, kind_hint);
        if let Some(a) = self.alloc_raw_fresh(kind) {
            return Ok(a);
        }
        self.major_gc(ctx);
        if let Some(a) = self.alloc_raw_fresh(kind) {
            return Ok(a);
        }
        // "BC performs a two-pass compacting collection whenever a full
        // garbage collection does not free enough pages to satisfy the
        // current allocation request" (§3.2).
        self.compact_gc(ctx);
        if let Some(a) = self.alloc_raw_fresh(kind) {
            return Ok(a);
        }
        // "In the event that the heap is exhausted, BC preserves
        // completeness by performing a full heap garbage collection
        // (touching evicted pages)" (§3.5).
        if self.options.bookmarking && self.residency.any_evicted() {
            self.failsafe_restore(ctx);
            self.major_gc(ctx);
            if let Some(a) = self.alloc_raw_fresh(kind) {
                return Ok(a);
            }
            self.compact_gc(ctx);
            if let Some(a) = self.alloc_raw_fresh(kind) {
                return Ok(a);
            }
        }
        // A pressure-shrunk budget must not fail the program: "While BC
        // expands the heap and causes pages to be evicted when this is
        // necessary for program completion, it ordinarily limits the heap
        // to what can fit into available memory" (§3.3.3). Grow back toward
        // the configured size step by step, collecting between steps.
        let configured = self.configured_heap_bytes / heap::BYTES_PER_PAGE as usize;
        while self.core.pool.budget() < configured {
            let step = (kind.size_bytes() as usize / heap::BYTES_PER_PAGE as usize + 256)
                .min(configured - self.core.pool.budget());
            let grown = self.core.apply_decision(
                ctx,
                heap::SizingDecision {
                    limit_pages: self.core.pool.budget() + step,
                    reason: "failsafe-grow",
                },
            );
            debug_assert!(grown);
            self.recompute_nursery_limit();
            if let Some(a) = self.alloc_raw_fresh(kind) {
                return Ok(a);
            }
            self.major_gc(ctx);
            if let Some(a) = self.alloc_raw_fresh(kind) {
                return Ok(a);
            }
        }
        Err(OutOfMemory {
            requested_bytes: kind.size_bytes(),
        })
    }

    /// `alloc_raw` against a nursery limit recomputed from the heap as the
    /// last collection left it (large objects do not consult the limit).
    fn alloc_raw_fresh(&mut self, kind: AllocKind) -> Option<Address> {
        if !is_large(kind) {
            self.recompute_nursery_limit();
        }
        self.alloc_raw(kind)
    }

    // ----- compaction (§3.2 + §3.4.1) ------------------------------------

    /// The two-pass compacting collection.
    ///
    /// Pass 1 is an ordinary (residency-aware) marking phase. A sweep then
    /// frees unmarked resident cells while *keeping* marks, so per-class
    /// live counts — in which every cell on an evicted page conservatively
    /// counts as live ("BC updates the object counts for each size class to
    /// reserve space for every possible object on the evicted pages",
    /// §3.4.1) — can be read straight from the allocation bitmaps. Target
    /// superpages are then chosen: all superpages holding bookmarked
    /// objects or evicted pages, plus the fullest others until capacity
    /// suffices. Pass 2 Cheney-forwards live objects onto the targets;
    /// bookmarked objects already sit on targets and are never moved, so
    /// "BC does not need to update (evicted) pointers to bookmarked
    /// objects".
    pub(crate) fn compact_gc(&mut self, ctx: &mut MemCtx<'_>) {
        let pause = self.core.begin_pause(ctx, PauseKind::Compacting);
        // ---- Pass 1: mark.
        self.core.phase_begin(ctx, GcPhase::CompactPass1);
        self.phase = Phase::Major;
        if self.options.bookmarking && self.residency.any_evicted() {
            self.core.phase_begin(ctx, GcPhase::BookmarkScan);
            self.bookmark_root_scan(ctx);
            self.core.phase_end(ctx, GcPhase::BookmarkScan);
        }
        forward_roots(self, ctx);
        drain_gray(self, ctx);
        // Sweep garbage but keep marks for pass 2's in-place liveness.
        self.sweep_resident(ctx, true);
        // ---- Select targets.
        self.select_compact_targets();
        self.core.phase_end(ctx, GcPhase::CompactPass1);
        // ---- Pass 2: forward onto targets.
        self.core.phase_begin(ctx, GcPhase::CompactPass2);
        self.phase = Phase::Compact;
        self.visited.clear();
        // Bookmarked objects are pass-2 roots as well: their fields must be
        // re-pointed at moved objects even if no heap root reaches them.
        if self.options.bookmarking && self.residency.any_evicted() {
            self.compact_bookmark_roots(ctx);
        }
        forward_roots(self, ctx);
        drain_gray(self, ctx);
        // ---- Free every non-target superpage wholesale.
        for sp in self.ms.assigned_sps() {
            if !self.compact_targets.contains(&sp.0) {
                self.ms
                    .release_sp(&mut self.core.pool, &mut self.core.mem, sp);
            }
        }
        // ---- Clear marks on the survivors.
        for sp in self.ms.assigned_sps() {
            for cell in self.ms.allocated_cells_iter(sp) {
                if self.object_resident(cell) {
                    self.core.clear_mark(ctx, cell);
                }
            }
        }
        for (obj, _pages) in self.los.objects() {
            self.core.clear_mark(ctx, obj);
        }
        self.nursery
            .release_all(&mut self.core.pool, &mut self.core.mem);
        self.visited.clear();
        self.compact_targets.clear();
        self.target_alloc.clear();
        self.core.phase_end(ctx, GcPhase::CompactPass2);
        if self.core.sanitize_full() {
            self.sanitize_compacted();
        }
        self.core
            .sanitize_physical_checks(ctx, Some(&self.ms), &self.los, &[&self.nursery]);
        self.phase = Phase::Idle;
        self.core.stats.full_gcs += 1;
        self.core.stats.compacting_gcs += 1;
        self.recompute_nursery_limit();
        self.core.end_pause(ctx, pause);
    }

    /// Shadow re-trace after compaction: survivors sit on target superpages
    /// or the LOS; a reachable edge into a released superpage (or at a
    /// forwarding stub left by pass 2) is a compaction bug. Resident marks
    /// were cleared; evicted objects keep theirs, but the trace stops at
    /// them anyway.
    fn sanitize_compacted(&mut self) {
        use heap::{Classified, ShadowSpec};
        let (ms, los) = (&self.ms, &self.los);
        let residency = &self.residency;
        let bookmarking = self.options.bookmarking;
        let spec = ShadowSpec {
            collector: if bookmarking { "BC" } else { "BC-resize" },
            phase: "after-compaction",
            classify: &|a| {
                if ms.is_allocated_cell(a) || los.is_live_object(a) {
                    Classified::Live
                } else {
                    Classified::Condemned("compacted space")
                }
            },
            resident: &move |a, size| !bookmarking || residency.range_resident(a, size),
            expect_marked: &|_| false,
        };
        self.core.sanitize_shadow_trace(&spec);
    }

    /// Chooses the compaction targets (§3.2/§3.4.1).
    fn select_compact_targets(&mut self) {
        self.compact_targets.clear();
        self.target_alloc.clear();
        // Group assigned superpages by (class, kind). The map is ordered so
        // group processing (and therefore target selection) is
        // run-independent.
        // (allocated_cells, superpage, any_evicted) per (class, kind) group.
        type Group = Vec<(u32, SpIndex, bool)>;
        let mut groups: BTreeMap<(u8, BlockKind), Group> = BTreeMap::new();
        for sp in self.ms.assigned_sps() {
            let info = self.ms.info(sp);
            let Some((class, kind)) = info.assignment else {
                continue;
            };
            let forced = info.incoming_bookmarks > 0
                || self
                    .ms
                    .sp_pages(sp)
                    .iter()
                    .any(|&p| !self.residency.page_resident(p));
            groups
                .entry((class, kind))
                .or_default()
                .push((info.live_cells, sp, forced));
        }
        for ((class, kind), mut sps) in groups {
            let cells_per_sp = self.ms.classes().class(class).cells_per_superpage;
            let total_live: u64 = sps.iter().map(|&(live, _, _)| live as u64).sum();
            // Forced targets first, then fullest-first.
            sps.sort_by_key(|&(live, _, forced)| (!forced, std::cmp::Reverse(live)));
            let mut capacity = 0u64;
            let mut chosen = Vec::new();
            for (live, sp, forced) in sps {
                if !forced && capacity >= total_live {
                    break;
                }
                capacity += cells_per_sp as u64;
                chosen.push(sp);
                let _ = live;
            }
            for &sp in &chosen {
                self.compact_targets.insert(sp.0);
            }
            self.target_alloc.insert((class, kind), chosen);
        }
    }

    /// Allocates a pass-2 destination cell on a target superpage.
    fn alloc_on_target(&mut self, class: u8, kind: BlockKind) -> Address {
        if let Some(list) = self.target_alloc.get(&(class, kind)) {
            let list = list.clone();
            for sp in list {
                if let Some(addr) = self.ms.alloc_in_sp(sp, class) {
                    return addr;
                }
            }
        }
        // Capacity proof says this cannot happen; stay safe regardless.
        let addr = self
            .ms
            .alloc_forced(&mut self.core.pool, class, kind)
            .expect("mature region exhausted during compaction");
        let sp = self.ms.sp_of(addr);
        self.compact_targets.insert(sp.0);
        self.target_alloc.entry((class, kind)).or_default().push(sp);
        addr
    }

    /// Pass-2 roots: every resident bookmarked object (all on targets).
    fn compact_bookmark_roots(&mut self, ctx: &mut MemCtx<'_>) {
        for sp in self.ms.assigned_sps() {
            if self.ms.info(sp).incoming_bookmarks == 0 {
                continue;
            }
            for cell in self.ms.allocated_cells_iter(sp) {
                if !self.object_resident(cell) {
                    continue;
                }
                let h = self.core.header(ctx, cell);
                if h.bookmark && self.visited.insert(cell.0) {
                    self.core.queue.push(cell);
                }
            }
        }
        let bookmarked: Vec<u32> = self.los_incoming.keys().copied().collect();
        for addr in bookmarked {
            let obj = Address(addr);
            if self.los.is_live_object(obj) && self.visited.insert(obj.0) {
                self.core.queue.push(obj);
            }
        }
    }

    /// Pass-2 forwarding: move resident, marked, non-target objects onto
    /// target superpages; leave everything else in place.
    pub(crate) fn forward_compact(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Address {
        debug_assert!(
            !self.nursery.region_contains(obj),
            "nursery must be empty during compaction"
        );
        if self.los.region_contains(obj) {
            if self.visited.insert(obj.0) {
                self.core.queue.push(obj);
            }
            return obj;
        }
        if !self.ms.region_contains(obj) || !self.object_resident(obj) {
            return obj; // evicted objects are preserved in place
        }
        match self.core.header_or_forward(ctx, obj) {
            Err(new) => new,
            Ok(h) => {
                let sp = self.ms.sp_of(obj);
                if self.compact_targets.contains(&sp.0) {
                    if self.visited.insert(obj.0) {
                        self.core.queue.push(obj);
                    }
                    obj
                } else {
                    let (class, bk) = self.ms.placement(h.kind);
                    let new = self.alloc_on_target(class, bk);
                    self.core.copy_object(ctx, obj, new, h.kind.size_bytes());
                    self.core.queue.push(new);
                    new
                }
            }
        }
    }

    // ----- the fail-safe (§3.5) ------------------------------------------

    /// Faults every evicted page back in and discards all bookmark state,
    /// so that an ordinary (now unrestricted) collection can reclaim
    /// everything. "Note that this worst-case situation for bookmarking
    /// collection … is the common case for existing garbage collectors."
    pub(crate) fn failsafe_restore(&mut self, ctx: &mut MemCtx<'_>) {
        let pause = self.core.begin_pause(ctx, PauseKind::FailSafe);
        let evicted: Vec<vmm::VirtPage> = self.residency.evicted_pages().collect();
        for page in evicted {
            ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
        }
        self.residency.clear();
        // Clear every bookmark bit and counter.
        for sp in self.ms.assigned_sps() {
            self.ms.reset_incoming_bookmarks(sp);
            for cell in self.ms.allocated_cells_iter(sp) {
                ctx.touch(&mut self.core.mem, cell, WORD, Access::Read);
                self.core.mem.update_word(cell, |w0| {
                    Header::is_bookmarked(w0).then_some(Header::with_bookmark(w0, false))
                });
            }
        }
        let bookmarked: Vec<u32> = self.los_incoming.keys().copied().collect();
        self.los_incoming.clear();
        for addr in bookmarked {
            let obj = Address(addr);
            if self.los.is_live_object(obj) {
                self.set_bookmark_bit(ctx, obj, false);
            }
        }
        // The reload touches queued MadeResident notifications; they carry
        // no bookmark state anymore.
        ctx.vmm.discard_events(ctx.pid);
        self.core.stats.failsafe_gcs += 1;
        self.core.end_pause(ctx, pause);
    }
}
