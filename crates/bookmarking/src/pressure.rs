//! Cooperation with the virtual memory manager (§3.3–§3.4): eviction
//! notices, empty-page discarding, heap shrinking, bookmarking, and
//! bookmark clearing.

use heap::gc::push_refs;
use heap::object::HEADER_BYTES;
use heap::{Address, Header, InjectFault, MemCtx, SanitizeError, SimMemory, BYTES_PER_PAGE, WORD};
use telemetry::EventKind;
use vmm::{Access, VirtPage, VmEvent};

use crate::collector::{Bookmarking, GcRequest, VictimPolicy};
use crate::residency::ResidencyMap;

/// Pages discarded per eviction notice (§3.4.3: BC "discards all contiguous
/// empty pages recorded on the same word in its bit array" — aggressive
/// batching that limits notification traffic).
const DISCARD_BATCH: usize = 64;

/// Empty pages BC holds back as its reserve (§3.4.3: "it maintains a store
/// of empty pages and begins a collection when these are the only
/// discardable pages remaining. If pages are scheduled for eviction during
/// a collection, BC discards the pages held in reserve"). The reserve
/// absorbs the collector's own mid-collection frame demand, which would
/// otherwise force the kernel to run ahead and hard-evict unscanned pages.
const RESERVE_PAGES: usize = 64;

impl Bookmarking {
    /// In-collection notification servicing: only actions that cannot
    /// disturb the in-flight trace are taken — discarding empty pages
    /// (including the reserve), rescuing must-stay pages, and recording
    /// reloads. Completed evictions are queued for scanning after the
    /// pause ([`finish_deferred_evictions`](Bookmarking::finish_deferred_evictions)).
    pub(crate) fn pump_events_in_gc(&mut self, ctx: &mut MemCtx<'_>) {
        let mut events = std::mem::take(&mut self.event_scratch);
        events.clear();
        ctx.vmm.drain_events_into(ctx.pid, &mut events);
        for &ev in &events {
            let cost = ctx.vmm.costs().notification;
            ctx.clock.advance(cost);
            match ev {
                VmEvent::EvictionScheduled { page } => {
                    self.shrink_to_footprint(ctx);
                    if self.discard_if_empty(ctx, page) {
                        continue;
                    }
                    let _ = self.discard_empties_inner(ctx, DISCARD_BATCH, 0);
                    if self.options.bookmarking && self.must_stay_resident(page) {
                        ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
                    }
                }
                VmEvent::Evicted { page } => {
                    if self.options.bookmarking {
                        self.deferred_evicted.push(page);
                    }
                }
                VmEvent::MadeResident { page } | VmEvent::ProtectionFault { page } => {
                    self.on_page_resident(ctx, page);
                }
            }
        }
        self.event_scratch = events;
    }

    /// Scans pages whose eviction completed during the last pause (§3.4.3).
    pub(crate) fn finish_deferred_evictions(&mut self, ctx: &mut MemCtx<'_>) {
        if self.deferred_evicted.is_empty() {
            return;
        }
        let pages = std::mem::take(&mut self.deferred_evicted);
        for page in pages {
            if !ctx.vmm.is_resident(ctx.pid, page) {
                self.on_hard_eviction(ctx, page);
            }
        }
    }

    /// Drains and handles all queued paging notifications.
    pub(crate) fn process_vm_events(&mut self, ctx: &mut MemCtx<'_>) {
        let mut events = std::mem::take(&mut self.event_scratch);
        loop {
            events.clear();
            if ctx.vmm.drain_events_into(ctx.pid, &mut events) == 0 {
                break;
            }
            for &ev in &events {
                let cost = ctx.vmm.costs().notification;
                ctx.clock.advance(cost);
                match ev {
                    VmEvent::EvictionScheduled { page } => self.on_eviction_scheduled(ctx, page),
                    VmEvent::Evicted { page } => self.on_hard_eviction(ctx, page),
                    VmEvent::MadeResident { page } | VmEvent::ProtectionFault { page } => {
                        self.on_page_resident(ctx, page);
                    }
                }
            }
        }
        self.event_scratch = events;
    }

    /// §3.3.2/§3.4: the kernel warns that `page` is about to be evicted.
    fn on_eviction_scheduled(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) {
        // §3.3.3: the notice means the footprint exceeds available memory —
        // stop growing, pin the heap budget to the current footprint.
        self.shrink_to_footprint(ctx);
        // An empty victim can simply be given up.
        if self.discard_if_empty(ctx, page) {
            return;
        }
        // Prefer handing the VMM an empty page over losing a live one:
        // bookmarking happens only "when a discardable page cannot be
        // found" (§3.3.2).
        let discarded = self.discard_empty_pages(ctx, DISCARD_BATCH);
        if discarded > 0 {
            if !ctx.vmm.under_pressure() {
                self.pressure_gc_ran = false;
                self.pressure_escalate = false;
            }
            if self.options.bookmarking && self.must_stay_resident(page) {
                ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
            }
            return;
        }
        // No empty pages (or not enough): ask for a collection at the next
        // safe point to create some ("BC triggers a collection and then
        // directs the virtual memory manager to discard a newly-emptied
        // page", §3.3.2).
        if !self.pressure_gc_ran {
            let want = if self.pressure_escalate {
                GcRequest::Full
            } else {
                GcRequest::Minor
            };
            self.gc_requested = self.gc_requested.max(want);
            self.pressure_gc_ran = true;
        }
        if self.options.bookmarking {
            if self.must_stay_resident(page) {
                // Nursery pages, superpage headers, and large-object pages
                // are about to be used again: touching them makes the VMM
                // pick a different victim (§3.4).
                ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
            } else {
                // Until the requested collection frees memory, the victim
                // must still be evictable without faulting later: bookmark
                // it now and let it go (§3.4, including the preventive
                // bookmarking of §3.4.3).
                self.bookmark_and_relinquish(ctx, page);
            }
        }
    }

    /// §3.4.3: the kernel ran ahead and evicted a page before BC's handler
    /// was scheduled. The paper's kernel raises the notification "just
    /// before any page is scheduled for eviction … whenever its
    /// corresponding page table entry is unmapped" (§4.1), so the handler
    /// observes the page's final contents; this reproduction models that by
    /// scanning the just-evicted page's (still intact, swap-bound) contents
    /// without a fault. Pages that turn out to hold nursery pointers are
    /// the one case that must be faulted back (they would break the
    /// remembered set); they are rare because such pages are rescued when
    /// notices arrive in time.
    fn on_hard_eviction(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) {
        if !self.options.bookmarking {
            return; // resizing-only instances just take the later faults
        }
        // Nothing lives on an empty page: drop the swap copy too.
        if self.discard_if_empty(ctx, page) {
            return;
        }
        if self.must_stay_resident(page) {
            // Nursery/header/LOS page: bring it straight back.
            ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
            ctx.vmm.discard_events(ctx.pid);
            return;
        }
        self.bookmark_scan_evicted(ctx, page);
    }

    /// The §3.4 scan applied to a page whose eviction already completed:
    /// reads the page's final contents (on their way to swap) directly,
    /// bookmarks outgoing targets, reserves its free cells, and records it
    /// evicted. Faults the page back in only if it holds nursery pointers.
    fn bookmark_scan_evicted(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) {
        let addr = Address(page.base_addr());
        if !self.ms.region_contains(addr) || !self.residency.page_resident(page) {
            return;
        }
        let (sp, page_in_sp) = self.ms.page_within_sp(addr);
        if sp.0 >= self.ms.extent_superpages() {
            return;
        }
        // Nursery pointers force a reload (cannot leave a dangling
        // remembered-set source on swap).
        for cell in self.ms.cells_overlapping_page(sp, page_in_sp) {
            Self::readable_refs_raw(&self.core.mem, ctx, cell, &mut self.refs_scratch);
            if self.scratch_refs_reach_nursery() {
                ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
                ctx.vmm.discard_events(ctx.pid);
                return;
            }
        }
        let cells = self.take_page_cells(sp, page_in_sp);
        for &cell in &cells {
            Self::readable_refs_raw(&self.core.mem, ctx, cell, &mut self.refs_scratch);
            self.bookmark_scratch_targets(ctx);
        }
        // Conservative bookmarks: headers on still-resident neighbour pages
        // are written normally; headers on this page are edited in the
        // swap-bound image (the handler logically ran pre-unmap).
        for &cell in &cells {
            if cell.page() == page || self.residency.page_resident(cell.page()) {
                self.core
                    .mem
                    .update_word(cell, |w0| Some(Header::with_bookmark(w0, true)));
            }
        }
        let start = page_in_sp * BYTES_PER_PAGE;
        let reserved = self
            .ms
            .reserve_free_cells_in_bytes(sp, start, start + BYTES_PER_PAGE);
        for cell in reserved {
            self.core.mem.write_pair(cell, 0, 0);
        }
        self.cells_scratch = cells;
        self.core.stats.pages_bookmark_scanned += 1;
        self.core.trace_event(
            ctx,
            EventKind::BookmarkScanned {
                page: page.number(),
            },
        );
        self.residency.mark_evicted(page);
    }

    /// Like `readable_refs`, but reads the slots directly from the backing
    /// store (used for pages whose eviction just completed: the contents
    /// are exactly what the pre-unmap handler would have seen). Charges
    /// scan costs but performs no residency-dependent touches. Fills `out`
    /// (cleared first), like [`heap::gc::Core::scan_refs_into`]; an
    /// associated function over the fields it reads, so callers can pass
    /// `self.refs_scratch` without moving it out.
    fn readable_refs_raw(
        mem: &SimMemory,
        ctx: &mut MemCtx<'_>,
        cell: Address,
        out: &mut Vec<(Address, Address)>,
    ) {
        out.clear();
        let (w0, w1) = mem.read_pair(cell);
        let Ok(h) = Header::decode_forwarded(w0, w1) else {
            return;
        };
        let n = h.kind.num_ref_fields();
        let costs = ctx.vmm.costs();
        let (scan_object, scan_ref) = (costs.scan_object, costs.scan_ref);
        ctx.clock.advance(scan_object + scan_ref * n as u64);
        push_refs(mem, cell.offset(HEADER_BYTES), n, out);
    }

    /// Whether the last `readable_refs*` fill holds a pointer into the
    /// nursery.
    fn scratch_refs_reach_nursery(&self) -> bool {
        self.refs_scratch
            .iter()
            .any(|&(_, target)| self.nursery.region_contains(target))
    }

    /// Bookmarks the target of every reference of the last
    /// `readable_refs*` fill.
    fn bookmark_scratch_targets(&mut self, ctx: &mut MemCtx<'_>) {
        for i in 0..self.refs_scratch.len() {
            let (_slot, target) = self.refs_scratch[i];
            self.note_bookmark_target(ctx, target);
        }
    }

    /// Lists the allocated cells overlapping one page of a superpage into
    /// the reusable `cells_scratch`, moved out for the caller — the page
    /// scans bump bookmark counters in the space they walk, so they cannot
    /// hold its cell iterator. Hand the buffer back when done.
    fn take_page_cells(&mut self, sp: heap::SpIndex, page_in_sp: u32) -> Vec<Address> {
        let mut cells = std::mem::take(&mut self.cells_scratch);
        cells.clear();
        cells.extend(self.ms.cells_overlapping_page(sp, page_in_sp));
        cells
    }

    /// §3.4.2: a page came back (reload fault, or a touch beat the eviction
    /// of a relinquished page).
    fn on_page_resident(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) {
        if !self.options.bookmarking {
            return;
        }
        if self.residency.mark_resident(page) {
            self.clear_bookmarks_for(ctx, page);
        }
    }

    /// §3.3.3: an eviction notice means the footprint exceeds available
    /// memory. The sizing arithmetic lives in the shared policy layer
    /// ([`heap::policy`], [`heap::policy::BcFootprint`] by default); this
    /// collector only forwards the signal and refreshes its nursery limit
    /// when the budget moved.
    pub(crate) fn shrink_to_footprint(&mut self, ctx: &MemCtx<'_>) {
        if self.core.policy_pressure(ctx) {
            self.recompute_nursery_limit();
        }
    }

    /// Whether BC must keep this page resident: nursery pages, superpage
    /// header pages, and large-object pages ("BC will not select pages that
    /// it knows will soon be used, such as nursery pages or superpage
    /// headers", §3.4; this reproduction also pins large-object pages — see
    /// DESIGN.md).
    fn must_stay_resident(&self, page: VirtPage) -> bool {
        let addr = Address(page.base_addr());
        if self.nursery.region_contains(addr) {
            return true;
        }
        if self.los.region_contains(addr) {
            return true;
        }
        if self.ms.region_contains(addr)
            && ((addr.0 - self.ms.sp_base(heap::SpIndex(0)).0) / BYTES_PER_PAGE)
                .is_multiple_of(heap::PAGES_PER_SUPERPAGE)
        {
            return true; // a superpage header page
        }
        !self.ms.region_contains(addr) // anything outside the heap proper
    }

    /// Whether a page holds no live data and can be discarded outright.
    fn page_is_empty(&self, _ctx: &mut MemCtx<'_>, page: VirtPage) -> bool {
        let addr = Address(page.base_addr());
        if self.nursery.region_contains(addr) {
            // Nursery pages past the bump pointer are empty.
            return addr.0 >= self.nursery.top().0;
        }
        if self.ms.region_contains(addr) {
            let sp_base = self.ms.sp_base(heap::SpIndex(0)).0;
            let sp = (addr.0 - sp_base) / heap::BYTES_PER_SUPERPAGE;
            if sp >= self.ms.extent_superpages() {
                return true;
            }
            return self.ms.info(heap::SpIndex(sp)).assignment.is_none();
        }
        if self.los.region_contains(addr) {
            return self.los.object_containing(addr).is_none();
        }
        true // space_b and anything else is unused by BC
    }

    /// Gives `page` back to the VMM if nothing lives on it (§3.3.2), through
    /// [`MemCtx::madvise_dontneed`], which drops its host page too. Returns
    /// whether it did.
    fn discard_if_empty(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) -> bool {
        if !self.page_is_empty(ctx, page) {
            return false;
        }
        ctx.madvise_dontneed(&mut self.core.mem, &[page]);
        self.core.stats.pages_discarded += 1;
        true
    }

    /// Finds up to `max` empty resident pages *beyond the reserve* and
    /// discards them (§3.3.2/§3.4.3), returning how many were discarded.
    /// Returning 0 therefore means "only the reserve remains" — the signal
    /// to trigger a collection or start bookmarking.
    pub(crate) fn discard_empty_pages(&mut self, ctx: &mut MemCtx<'_>, max: usize) -> usize {
        self.discard_empties_inner(ctx, max, RESERVE_PAGES)
    }

    /// Dips into the reserve itself: called at the start of every
    /// collection while under pressure, so the collection's own page demand
    /// is served by empty pages rather than by the kernel evicting live
    /// (unscanned) ones.
    pub(crate) fn discard_reserve(&mut self, ctx: &mut MemCtx<'_>) {
        // Release when free frames could not absorb one collection's page
        // demand (promotions can force up to a reserve's worth of fresh
        // frames): waiting for the reclaim watermark itself would let the
        // kernel run ahead mid-pause and steal the very pages the
        // collection is scanning.
        let threshold = ctx.vmm.config().low_watermark + RESERVE_PAGES;
        if ctx.vmm.free_frames() < threshold {
            let _ = self.discard_empties_inner(ctx, RESERVE_PAGES, 0);
        }
    }

    /// Discards up to `max` empty resident pages beyond the first
    /// `hold_back` found, and lowers the discard frontier when the scan of
    /// the nursery's free tail ran to completion.
    pub(crate) fn discard_empties_inner(
        &mut self,
        ctx: &mut MemCtx<'_>,
        max: usize,
        hold_back: usize,
    ) -> usize {
        let limit = max + hold_back;
        let first_free = Address(self.nursery.top().0)
            .align_up(BYTES_PER_PAGE)
            .page()
            .number();
        debug_assert!(first_free <= self.discard_frontier);
        // Where the scan ended before the frontier: the reference bound.
        #[cfg(any(debug_assertions, test))]
        let peak_end = self.nursery.base().page().number() + self.nursery_peak_pages as u32;
        #[cfg(debug_assertions)]
        {
            for p in self.discard_frontier..peak_end {
                assert!(
                    !ctx.vmm.is_resident(ctx.pid, VirtPage::new(p)),
                    "nursery page {p} holds a frame above the discard frontier {}",
                    self.discard_frontier
                );
            }
        }
        // Entered on every notice and every 128th traced edge: the
        // candidate list lives in a reused buffer.
        let pages = &mut self.discard_scratch;
        let tail = Self::discardable_pages(
            &self.ms,
            ctx,
            first_free..self.discard_frontier,
            limit,
            pages,
        );
        #[cfg(test)]
        {
            // The reference: the same scan up to the historical high-water
            // mark, which never comes down.
            let mut reference = Vec::new();
            Self::discardable_pages(&self.ms, ctx, first_free..peak_end, limit, &mut reference);
            assert_eq!(*pages, reference, "frontier scan missed a resident page");
        }
        // Zero when at most the reserve remains.
        let discarded = pages.len().saturating_sub(hold_back).min(max);
        if discarded > 0 {
            ctx.madvise_dontneed(&mut self.core.mem, &pages[..discarded]);
            self.core.stats.pages_discarded += discarded as u64;
        }
        if let Some(tail_from) = tail {
            // Every page of the tail was probed: those above the highest one
            // still holding a frame need no second look until the nursery
            // grows back over them.
            let kept = &pages[discarded.max(tail_from)..];
            self.discard_frontier = kept.last().map_or(first_free, |p| p.number() + 1);
        }
        discarded
    }

    /// Fills `out` (cleared first) with up to roughly `limit` resident
    /// empty pages: those of free superpages first (wholly empty by
    /// construction), then nursery pages of `tail`, the stretch beyond the
    /// bump pointer. Returns the index in `out` where the tail's pages
    /// begin if every page of `tail` was probed, `None` if the scan
    /// stopped at `limit` first.
    fn discardable_pages(
        ms: &heap::MsSpace,
        ctx: &MemCtx<'_>,
        tail: std::ops::Range<u32>,
        limit: usize,
        out: &mut Vec<VirtPage>,
    ) -> Option<usize> {
        out.clear();
        for sp in ms.free_sps() {
            for p in ms.sp_pages(sp) {
                if ctx.vmm.is_resident(ctx.pid, p) {
                    out.push(p);
                }
            }
            if out.len() >= limit {
                break;
            }
        }
        if out.len() >= limit {
            return None;
        }
        let tail_from = out.len();
        for p in tail {
            let page = VirtPage::new(p);
            if ctx.vmm.is_resident(ctx.pid, page) {
                out.push(page);
                if out.len() >= limit {
                    return None;
                }
            }
        }
        Some(tail_from)
    }

    /// Runs after a pressure-triggered collection: hand freshly emptied
    /// pages to the VMM; reset the escalation ladder if that relieved the
    /// pressure, otherwise escalate the next request to a full collection.
    pub(crate) fn after_pressure_gc(&mut self, ctx: &mut MemCtx<'_>) {
        let discarded = self.discard_empty_pages(ctx, DISCARD_BATCH * 2);
        if discarded > 0 && !ctx.vmm.under_pressure() {
            // Success: pressure relieved; reset the escalation ladder.
            self.pressure_gc_ran = false;
            self.pressure_escalate = false;
        } else if discarded > 0 || !self.pressure_escalate {
            // Partial progress, or the cheap (minor) rung was tried:
            // escalate to a full collection on the next notice.
            self.pressure_escalate = true;
            self.pressure_gc_ran = false;
        } else {
            // Even a full collection produced nothing discardable: further
            // collections would only rescue scheduled victims by touching
            // them (a livelock). Go quiet and let eviction proceed —
            // bookmarking instances have already processed the victims;
            // resizing-only instances take the faults, as the paper's
            // ablation does (§5.3.2). The ladder resets once discarding
            // succeeds again.
            self.pressure_gc_ran = true;
        }
    }

    // ----- bookmarking (§3.4) -------------------------------------------

    /// The reference fields of `cell` whose slots lie on resident pages.
    ///
    /// The header may live on an evicted page (a multi-page object whose
    /// head left earlier): it is then read from the swap-bound image, which
    /// is exactly what the pre-unmap handler saw (§4.1) — mutators cannot
    /// have changed it without faulting the page back. Slots on evicted
    /// pages are skipped (they were processed at their own eviction), but
    /// slots on *resident* pages after an evicted gap are still scanned:
    /// stores through them need no fault, so they can hold pointers —
    /// including nursery pointers — the earlier evictions never saw.
    ///
    /// Fills `out` (cleared first); see
    /// [`readable_refs_raw`](Bookmarking::readable_refs_raw) for the shape.
    fn readable_refs(
        mem: &mut SimMemory,
        residency: &ResidencyMap,
        ctx: &mut MemCtx<'_>,
        cell: Address,
        out: &mut Vec<(Address, Address)>,
    ) {
        out.clear();
        let (w0, w1) = mem.read_pair(cell);
        let Ok(h) = Header::decode_forwarded(w0, w1) else {
            return;
        };
        let n = h.kind.num_ref_fields();
        if n == 0 {
            return;
        }
        let costs = ctx.vmm.costs();
        let (scan_object, scan_ref) = (costs.scan_object, costs.scan_ref);
        ctx.clock.advance(scan_object);
        // One page's run of slots at a time: a residency lookup per page, a
        // charged touch per slot, then one borrowed read of the run.
        let mut slot = cell.offset(HEADER_BYTES);
        let mut left = n;
        while left > 0 {
            let run = left.min((BYTES_PER_PAGE - slot.0 % BYTES_PER_PAGE) / WORD);
            if residency.page_resident(slot.page()) {
                for i in 0..run {
                    ctx.touch(mem, slot.offset(i * WORD), WORD, Access::Read);
                    ctx.clock.advance(scan_ref);
                }
                push_refs(mem, slot, run, out);
            }
            slot = slot.offset(run * WORD);
            left -= run;
        }
    }

    /// [`readable_refs`](Bookmarking::readable_refs) of `cell` into
    /// `self.refs_scratch`.
    fn readable_refs_of(&mut self, ctx: &mut MemCtx<'_>, cell: Address) {
        Self::readable_refs(
            &mut self.core.mem,
            &self.residency,
            ctx,
            cell,
            &mut self.refs_scratch,
        );
    }

    /// Scans a victim page, bookmarks the targets of its outgoing
    /// references, conservatively bookmarks its own objects, protects it,
    /// and surrenders it via `vm_relinquish` (§3.4).
    pub(crate) fn bookmark_and_relinquish(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) {
        debug_assert!(self.options.bookmarking);
        if !ctx.vmm.is_resident(ctx.pid, page) || !self.residency.page_resident(page) {
            return; // already gone or already processed
        }
        let addr = Address(page.base_addr());
        if !self.ms.region_contains(addr) {
            return;
        }
        let (sp, page_in_sp) = self.ms.page_within_sp(addr);
        if sp.0 >= self.ms.extent_superpages() {
            return;
        }
        // Pass 1: a page holding pointers into the nursery will be needed
        // at the very next nursery collection — rescue it instead. The §7
        // victim-selection extension also counts outgoing pointers here.
        let mut outgoing = 0u32;
        for cell in self.ms.cells_overlapping_page(sp, page_in_sp) {
            Self::readable_refs(
                &mut self.core.mem,
                &self.residency,
                ctx,
                cell,
                &mut self.refs_scratch,
            );
            if self.scratch_refs_reach_nursery() {
                ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
                return;
            }
            outgoing += self.refs_scratch.len() as u32;
        }
        if let VictimPolicy::PreferPointerFree {
            max_pointers,
            max_vetoes,
        } = self.options.victim_policy
        {
            if outgoing > max_pointers && self.victim_vetoes < max_vetoes {
                // Veto: touching the victim makes the VMM pick another.
                self.victim_vetoes += 1;
                self.core.stats.victims_vetoed += 1;
                ctx.vmm.touch(ctx.pid, page, Access::Read, ctx.clock);
                return;
            }
            self.victim_vetoes = 0;
        }
        let cells = self.take_page_cells(sp, page_in_sp);
        // Pass 2: bookmark every outgoing target (§3.4).
        if self.core.san_take_fault(InjectFault::DropBookmark) {
            // Seeded bug: skip the bookmark pass for this page.
        } else {
            for &cell in &cells {
                self.readable_refs_of(ctx, cell);
                self.bookmark_scratch_targets(ctx);
            }
        }
        // Conservatively bookmark the page's own objects — their incoming
        // references cannot all be found without a heap scan (§3.4: "BC
        // conservatively bookmarks all objects on a page before it is
        // evicted").
        for &cell in &cells {
            if self.residency.page_resident(cell.page()) {
                self.set_bookmark_bit(ctx, cell, true);
            }
        }
        self.core.stats.pages_bookmark_scanned += 1;
        self.core.trace_event(
            ctx,
            EventKind::BookmarkScanned {
                page: page.number(),
            },
        );
        // Take the page's free cells off the free list so the allocator
        // never writes into an evicted page; zero their headers so later
        // scans see inert cells rather than stale garbage.
        let start = page_in_sp * BYTES_PER_PAGE;
        let reserved = self
            .ms
            .reserve_free_cells_in_bytes(sp, start, start + BYTES_PER_PAGE);
        for cell in reserved {
            if self.residency.page_resident(cell.page()) {
                ctx.touch(&mut self.core.mem, cell, 2 * WORD, Access::Write);
                self.core.mem.write_pair(cell, 0, 0);
            }
        }
        self.cells_scratch = cells;
        // Guard the race window, then let the page go (§3.4).
        ctx.vmm.mprotect(ctx.pid, &[page], true, ctx.clock);
        ctx.vmm.vm_relinquish(ctx.pid, &[page], ctx.clock);
        self.residency.mark_evicted(page);
        self.core.stats.pages_relinquished += 1;
    }

    /// Sets or clears the bookmark bit in an object's header (charged).
    pub(crate) fn set_bookmark_bit(&mut self, ctx: &mut MemCtx<'_>, obj: Address, on: bool) {
        ctx.touch(&mut self.core.mem, obj, WORD, Access::Write);
        self.core
            .mem
            .update_word(obj, |w0| Some(Header::with_bookmark(w0, on)));
    }

    /// Bookmarks `target` and bumps its superpage's (or large object's)
    /// incoming counter.
    fn note_bookmark_target(&mut self, ctx: &mut MemCtx<'_>, target: Address) {
        if self.ms.region_contains(target) {
            let sp = self.ms.sp_of(target);
            if self.residency.page_resident(target.page()) {
                self.set_bookmark_bit(ctx, target, true);
            }
            // The superpage header is always resident (§3.4), so the
            // counter update never faults.
            self.ms.inc_incoming_bookmarks(sp);
            self.core.stats.bookmarks_set += 1;
            self.core.trace_event(
                ctx,
                EventKind::BookmarkSet {
                    page: target.page().number(),
                },
            );
        } else if self.los.region_contains(target) {
            if let Some((obj, _pages)) = self.los.object_containing(target) {
                self.set_bookmark_bit(ctx, obj, true);
                *self.los_incoming.entry(obj.0).or_insert(0) += 1;
                self.core.stats.bookmarks_set += 1;
                self.core.trace_event(
                    ctx,
                    EventKind::BookmarkSet {
                        page: obj.page().number(),
                    },
                );
            }
        }
        // Nursery targets were excluded by the rescue pass; anything else
        // (space_b) is unused by BC.
    }

    /// The BC-specific half of [`heap::SanitizeLevel::Full`]: every
    /// outgoing reference from an evicted mature page must be summarized by
    /// an incoming-bookmark counter on its target's superpage (or the LOS
    /// incoming map). Without the summary, a later reload would decrement a
    /// counter that was never incremented — or a major collection would
    /// sweep an object only the evicted page still references.
    ///
    /// Observation-only: reads the swap-bound page images raw, exactly as
    /// the eviction scan did. Runs at the end of every major collection.
    pub(crate) fn sanitize_bookmark_soundness(&mut self) {
        let mut pages: Vec<VirtPage> = self.residency.evicted_pages().collect();
        pages.sort_by_key(|p| p.number());
        for page in pages {
            let addr = Address(page.base_addr());
            if !self.ms.region_contains(addr) {
                continue;
            }
            let (sp, page_in_sp) = self.ms.page_within_sp(addr);
            if sp.0 >= self.ms.extent_superpages() {
                continue;
            }
            for cell in self.ms.cells_overlapping_page(sp, page_in_sp) {
                let (w0, w1) = self.core.mem.read_pair(cell);
                let Ok(h) = Header::decode_forwarded(w0, w1) else {
                    continue;
                };
                for i in 0..h.kind.num_ref_fields() {
                    let slot = heap::object::field_addr(cell, i);
                    if slot.page() != page {
                        continue; // processed at that page's own eviction
                    }
                    let target = Address(self.core.mem.read_word(slot));
                    if target.is_null() {
                        continue;
                    }
                    if self.ms.region_contains(target) {
                        let tsp = self.ms.sp_of(target);
                        if tsp.0 < self.ms.extent_superpages()
                            && self.ms.is_allocated_cell(target)
                            && self.ms.info(tsp).incoming_bookmarks == 0
                        {
                            SanitizeError::DroppedBookmark {
                                page: page.number(),
                                slot,
                                target,
                                detail: "target superpage incoming-bookmark counter is zero",
                            }
                            .report();
                        }
                    } else if self.los.region_contains(target) {
                        if let Some((obj, _)) = self.los.object_containing(target) {
                            if !self.los_incoming.contains_key(&obj.0) {
                                SanitizeError::DroppedBookmark {
                                    page: page.number(),
                                    slot,
                                    target,
                                    detail: "large object has no incoming-bookmark entry",
                                }
                                .report();
                            }
                        }
                    }
                }
            }
        }
    }

    // ----- bookmark clearing (§3.4.2) -----------------------------------

    /// A relinquished/evicted page is resident again: decrement the
    /// counters its pointers induced, clearing bookmarks wherever a counter
    /// reaches zero.
    pub(crate) fn clear_bookmarks_for(&mut self, ctx: &mut MemCtx<'_>, page: VirtPage) {
        let addr = Address(page.base_addr());
        if !self.ms.region_contains(addr) {
            return;
        }
        self.core.trace_event(
            ctx,
            EventKind::BookmarkCleared {
                page: page.number(),
            },
        );
        let (sp, page_in_sp) = self.ms.page_within_sp(addr);
        if sp.0 >= self.ms.extent_superpages() {
            return;
        }
        let cells = self.take_page_cells(sp, page_in_sp);
        for &cell in &cells {
            self.readable_refs_of(ctx, cell);
            for i in 0..self.refs_scratch.len() {
                let (_slot, target) = self.refs_scratch[i];
                if self.ms.region_contains(target) {
                    let tsp = self.ms.sp_of(target);
                    if self.ms.dec_incoming_bookmarks(tsp) == 0 {
                        self.clear_sp_bookmarks(ctx, tsp);
                    }
                } else if self.los.region_contains(target) {
                    if let Some((obj, _)) = self.los.object_containing(target) {
                        if let Some(c) = self.los_incoming.get_mut(&obj.0) {
                            *c = c.saturating_sub(1);
                            if *c == 0 {
                                self.los_incoming.remove(&obj.0);
                                self.set_bookmark_bit(ctx, obj, false);
                                self.core.stats.bookmarks_cleared += 1;
                            }
                        }
                    }
                }
            }
        }
        // "If the reloaded page's superpage also has an incoming bookmark
        // count of zero, then BC clears the bookmarks that it set
        // conservatively when the page was evicted" (§3.4.2).
        if self.ms.info(sp).incoming_bookmarks == 0 {
            for &cell in &cells {
                if self.residency.page_resident(cell.page()) {
                    self.set_bookmark_bit(ctx, cell, false);
                }
            }
        }
        self.cells_scratch = cells;
    }

    /// Clears every bookmark on a superpage whose incoming counter dropped
    /// to zero ("its objects are only referenced by objects in main
    /// memory", §3.4.2).
    fn clear_sp_bookmarks(&mut self, ctx: &mut MemCtx<'_>, sp: heap::SpIndex) {
        self.core.trace_event(
            ctx,
            EventKind::BookmarkCleared {
                page: self.ms.sp_base(sp).page().number(),
            },
        );
        for cell in self.ms.allocated_cells_iter(sp) {
            if !self.residency.page_resident(cell.page()) {
                continue;
            }
            ctx.touch(&mut self.core.mem, cell, WORD, Access::Read);
            let w0 = self.core.mem.update_word(cell, |w0| {
                Header::is_bookmarked(w0).then_some(Header::with_bookmark(w0, false))
            });
            if Header::is_bookmarked(w0) {
                self.core.stats.bookmarks_cleared += 1;
            }
        }
    }
}
