//! The collector proper: heap organization, nursery and full collections.

use std::collections::{BTreeMap, HashMap};

use heap::gc::{drain_gray, forward_roots, is_large, Core, Forwarder, NurserySizer};
use heap::object::HEADER_BYTES;
use heap::{
    Address, AllocKind, BlockKind, BumpSpace, CardTable, Classified, CollectKind, GcHeap, GcStats,
    Handle, Header, HeapConfig, LargeObjectSpace, MemCtx, MsSpace, OutOfMemory, ShadowSpec,
    SimMemory, WriteBuffer, WORD,
};
use simtime::{PauseKind, PauseLog};
use telemetry::{EventKind, GcPhase, Tracer};
use vmm::{Access, ProcessId, Vmm};

use crate::residency::ResidencyMap;

/// Victim-page selection policy — the paper's §7 future work: "we can
/// prefer to evict pages with no pointers, because these pages cannot
/// create false garbage. … We could also prefer to evict pages with as few
/// non-NULL pointers as possible."
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Accept whatever page the virtual memory manager nominates (the
    /// paper's evaluated configuration: the kernel's LRU choice is least
    /// likely to be used again soon).
    #[default]
    KernelChoice,
    /// Veto pointer-rich victims (by touching them, which makes the VMM
    /// nominate another page) until a page with at most `max_pointers`
    /// outgoing non-null references comes up, for up to `max_vetoes`
    /// consecutive notices. Pointer-poor pages set fewer bookmarks and
    /// retain less floating garbage, at the risk the paper names: "evicting
    /// a page that is not the last on the LRU queue may lead to more page
    /// faults in the application".
    PreferPointerFree {
        /// Outgoing-pointer budget under which a victim is accepted.
        max_pointers: u32,
        /// Consecutive vetoes allowed before accepting any victim.
        max_vetoes: u32,
    },
}

/// Construction options for the bookmarking collector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BcOptions {
    /// Whether bookmarking is enabled. When `false` the collector still
    /// discards empty pages and shrinks its heap under pressure, but never
    /// bookmarks or relinquishes pages — the paper's "BC w/ Resizing only"
    /// ablation (§5.3.2).
    pub bookmarking: bool,
    /// Victim-page selection (§7 future work; defaults to the paper's
    /// evaluated kernel-choice behaviour).
    pub victim_policy: VictimPolicy,
    /// Grow the heap budget back toward its configured size once memory
    /// pressure abates (§7: "It is important that a brief spike in memory
    /// pressure not limit throughput by restricting the size of the
    /// heap."). Off by default: the paper's evaluated collector only
    /// shrinks.
    pub regrow: bool,
}

impl BcOptions {
    /// The §5.3.2 ablation: heap resizing without bookmarks.
    pub fn resizing_only() -> BcOptions {
        BcOptions {
            bookmarking: false,
            ..BcOptions::default()
        }
    }

    /// The §7 extensions enabled: pointer-aware victim selection and
    /// post-pressure heap regrowth.
    pub fn with_future_work() -> BcOptions {
        BcOptions {
            bookmarking: true,
            victim_policy: VictimPolicy::PreferPointerFree {
                max_pointers: 8,
                max_vetoes: 4,
            },
            regrow: true,
        }
    }
}

impl Default for BcOptions {
    fn default() -> BcOptions {
        BcOptions {
            bookmarking: true,
            victim_policy: VictimPolicy::default(),
            regrow: false,
        }
    }
}

/// Which collection is in progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    Idle,
    Minor,
    Major,
    /// Second (Cheney) pass of a compacting collection (§3.2).
    Compact,
}

/// A collection deferred to the next safe point (§3.3.2: eviction notices
/// may require "triggering a collection", but notices can arrive in the
/// middle of a mutator operation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum GcRequest {
    None,
    Minor,
    Full,
}

/// The bookmarking collector. See the [crate docs](crate) for the
/// algorithm and [`BcOptions`] for the ablation switch.
#[derive(Debug)]
pub struct Bookmarking {
    pub(crate) core: Core,
    pub(crate) nursery: BumpSpace,
    pub(crate) ms: MsSpace,
    pub(crate) los: LargeObjectSpace,
    pub(crate) wbuf: WriteBuffer,
    pub(crate) cards: CardTable,
    pub(crate) sizer: NurserySizer,
    pub(crate) nursery_limit: u32,
    pub(crate) residency: ResidencyMap,
    /// Incoming-bookmark counters for large objects (the LOS analogue of
    /// the per-superpage counter). Ordered so bookmarked-LOS root
    /// enumeration is run-independent.
    pub(crate) los_incoming: BTreeMap<u32, u32>,
    pub(crate) options: BcOptions,
    pub(crate) phase: Phase,
    pub(crate) gc_requested: GcRequest,
    /// Pass-2 compaction visited set (in-place objects have no stub).
    pub(crate) visited: std::collections::HashSet<u32>,
    /// Target superpages of the in-progress compaction.
    pub(crate) compact_targets: std::collections::HashSet<u32>,
    /// Per-(class, kind) target allocation lists for compaction.
    pub(crate) target_alloc: HashMap<(u8, BlockKind), Vec<heap::SpIndex>>,
    /// The heap size the experiment configured (the budget may shrink
    /// below this under pressure, §3.3.3).
    pub(crate) configured_heap_bytes: usize,
    /// The discard frontier: no nursery page at or above this page number
    /// holds a frame, so discardable-page discovery stops here. Raised to
    /// the end of the nursery extent by every successful nursery
    /// allocation (the only thing that puts frames there); lowered only by
    /// a `discard_empties_inner` scan of the whole free tail, to just past
    /// the highest page it found resident and kept.
    pub(crate) discard_frontier: u32,
    /// High-water mark of nursery extent — the bound the frontier replaced,
    /// kept as the reference the frontier is checked against.
    #[cfg(any(debug_assertions, test))]
    pub(crate) nursery_peak_pages: usize,
    /// Set once a pressure-triggered collection has been requested and not
    /// yet evaluated; throttles repeated requests from one notice burst.
    pub(crate) pressure_gc_ran: bool,
    /// Set when a minor collection failed to relieve pressure: the next
    /// pressure-triggered collection will be a full one.
    pub(crate) pressure_escalate: bool,
    /// Edge counter driving the in-collection event pump.
    pub(crate) gc_tick: u32,
    /// Consecutive pointer-rich victims vetoed (see [`VictimPolicy`]).
    pub(crate) victim_vetoes: u32,
    /// Pages whose eviction completed mid-collection; their §3.4 scan is
    /// deferred to the end of the pause (setting bookmarks mid-trace could
    /// hide objects from the in-flight marking).
    pub(crate) deferred_evicted: Vec<vmm::VirtPage>,
    /// Reusable VM-event buffer: notification pumps drain into it so the
    /// signal-handling paths never allocate.
    pub(crate) event_scratch: Vec<vmm::VmEvent>,
    /// Reusable candidate list for `discard_empties_inner`, which runs on
    /// every eviction notice and every 128th traced edge.
    pub(crate) discard_scratch: Vec<vmm::VirtPage>,
    /// Reusable `(slot, target)` buffer for the eviction-time page scans
    /// (`readable_refs*`) and the card scan, one fill per cell.
    pub(crate) refs_scratch: Vec<(Address, Address)>,
    /// Reusable list of the cells on one victim page or dirty card, for
    /// the scans that change the mature space while they walk it.
    pub(crate) cells_scratch: Vec<Address>,
}

impl Bookmarking {
    /// Creates a bookmarking collector.
    ///
    /// Shrink-to-footprint is BC's *baseline* behaviour (§3.3.3), so the
    /// default [`heap::PolicyKind::Fixed`] selector is rewritten to
    /// [`heap::PolicyKind::BcFootprint`] (with the §7 regrow extension
    /// following `options.regrow`); an explicitly chosen policy is kept.
    pub fn new(mut config: HeapConfig, options: BcOptions) -> Bookmarking {
        if config.policy == heap::PolicyKind::Fixed {
            config.policy = heap::PolicyKind::BcFootprint {
                regrow: options.regrow,
            };
        }
        let l = config.layout;
        let sizer = NurserySizer::new(config.nursery);
        let configured_heap_bytes = config.heap_bytes;
        let mut bc = Bookmarking {
            core: Core::new(config),
            nursery: BumpSpace::new(l.nursery.0, l.nursery.1),
            ms: MsSpace::new(l.space_a.0, l.space_a.1),
            los: LargeObjectSpace::new(l.los.0, l.los.1),
            wbuf: WriteBuffer::new(),
            cards: CardTable::new(l.space_a.0, l.los.1),
            sizer,
            nursery_limit: 0,
            residency: ResidencyMap::new(),
            los_incoming: BTreeMap::new(),
            options,
            phase: Phase::Idle,
            gc_requested: GcRequest::None,
            visited: std::collections::HashSet::new(),
            compact_targets: std::collections::HashSet::new(),
            target_alloc: HashMap::new(),
            configured_heap_bytes,
            discard_frontier: l.nursery.0.page().number(),
            #[cfg(any(debug_assertions, test))]
            nursery_peak_pages: 0,
            pressure_gc_ran: false,
            pressure_escalate: false,
            gc_tick: 0,
            victim_vetoes: 0,
            deferred_evicted: Vec::new(),
            event_scratch: Vec::new(),
            discard_scratch: Vec::new(),
            refs_scratch: Vec::new(),
            cells_scratch: Vec::new(),
        };
        bc.recompute_nursery_limit();
        bc
    }

    /// Registers this collector's process for paging notifications — the
    /// cooperation channel of §4.1. Call once before the first allocation.
    pub fn register(&self, vmm: &mut Vmm, pid: ProcessId) {
        vmm.register_notifications(pid);
    }

    /// Whether this instance runs the full algorithm or the resizing-only
    /// ablation.
    pub fn bookmarking_enabled(&self) -> bool {
        self.options.bookmarking
    }

    /// BC's own count of evicted heap pages.
    pub fn evicted_heap_pages(&self) -> usize {
        self.residency.evicted_count()
    }

    /// The current heap budget in bytes (shrinks under pressure, §3.3.3).
    pub fn current_heap_budget(&self) -> usize {
        self.core.pool.budget_bytes()
    }

    // ----- residency helpers -------------------------------------------

    /// Whether the whole object at `addr` (header included) is resident
    /// according to BC's bit array. Resizing-only instances treat all pages
    /// as resident (their collections fault like any other collector's).
    #[inline]
    pub(crate) fn object_resident(&self, addr: Address) -> bool {
        object_resident_in(
            self.options.bookmarking,
            &self.residency,
            &self.core.mem,
            addr,
        )
    }

    // ----- charged access that pumps paging events ----------------------

    /// Touch + event pump: notifications raised by the touch (protection
    /// faults, reloads) are handled *before* the caller proceeds, so
    /// bookmark-clearing scans observe pristine page contents (§3.4.2).
    pub(crate) fn touch_pumped(
        &mut self,
        ctx: &mut MemCtx<'_>,
        addr: Address,
        len: u32,
        access: Access,
    ) {
        let o = ctx.touch(&mut self.core.mem, addr, len, access);
        if o.events_queued {
            self.process_vm_events(ctx);
        }
    }

    // ----- sizing --------------------------------------------------------

    /// GenMS's rule: what the budget leaves outside the nursery (no copy
    /// reserve — promotion fills swept cells).
    fn free_minus_reserve(&self) -> u32 {
        let free = self
            .core
            .pool
            .bytes_free_outside(self.nursery.extent_pages());
        free.min(u32::MAX as u64) as u32
    }

    pub(crate) fn recompute_nursery_limit(&mut self) {
        self.nursery_limit = self.sizer.limit(self.free_minus_reserve());
    }

    // ----- allocation ----------------------------------------------------

    // Eight call sites (seven on the slow path): the hint alone leaves a
    // call on the allocation fast path.
    #[inline(always)]
    pub(crate) fn alloc_raw(&mut self, kind: AllocKind) -> Option<Address> {
        let size = kind.size_bytes();
        if is_large(kind) {
            return self.los.alloc(&mut self.core.pool, size);
        }
        if self.nursery.used_bytes() + size > self.nursery_limit {
            return None;
        }
        let addr = self.nursery.alloc(&mut self.core.pool, size);
        if addr.is_some() {
            self.raise_discard_frontier();
        }
        addr
    }

    /// A nursery allocation succeeded: anything up to the end of the extent
    /// may now be touched, so the discard frontier must cover it.
    pub(crate) fn raise_discard_frontier(&mut self) {
        let extent = self.nursery.extent_pages();
        let end = self.nursery.base().page().number() + extent as u32;
        self.discard_frontier = self.discard_frontier.max(end);
        #[cfg(any(debug_assertions, test))]
        {
            self.nursery_peak_pages = self.nursery_peak_pages.max(extent);
        }
    }

    /// Copies a nursery survivor into a mature cell (promotion).
    pub(crate) fn promote(&mut self, ctx: &mut MemCtx<'_>, obj: Address, h: Header) -> Address {
        let new = self.ms.alloc_survivor(&mut self.core.pool, h.kind);
        self.core.copy_object(ctx, obj, new, h.kind.size_bytes());
        new
    }

    // ----- remembered set (§3.1) ----------------------------------------

    /// Converts a full write buffer into card marks: "it removes entries
    /// for pointers from the mature space and instead marks the card for
    /// the source object in the card table".
    pub(crate) fn process_write_buffer(&mut self, ctx: &mut MemCtx<'_>) {
        let ram_word = ctx.vmm.costs().ram_word;
        let entries = self.wbuf.drain();
        ctx.clock.advance(ram_word * entries.len() as u64);
        for &slot in &entries {
            self.cards.mark(slot);
        }
        self.wbuf.give_back(entries);
    }

    /// Scans the reference fields of `obj` whose slots fall in
    /// `[lo, hi)`, filling `out` (cleared first) with `(slot, target)`
    /// pairs (charged).
    pub(crate) fn scan_refs_in_range(
        &mut self,
        ctx: &mut MemCtx<'_>,
        obj: Address,
        lo: Address,
        hi: Address,
        out: &mut Vec<(Address, Address)>,
    ) {
        out.clear();
        let h = self.core.header(ctx, obj);
        let n = h.kind.num_ref_fields();
        if n == 0 {
            return;
        }
        let first_slot = obj.offset(HEADER_BYTES).0;
        let last_slot = first_slot + (n - 1) * WORD;
        let lo = lo.0.max(first_slot);
        let hi = hi.0.min(last_slot + WORD);
        if lo >= hi {
            return;
        }
        let costs = ctx.vmm.costs();
        let (scan_object, scan_ref) = (costs.scan_object, costs.scan_ref);
        let count = (hi - lo) / WORD;
        ctx.clock.advance(scan_object + scan_ref * count as u64);
        ctx.touch(&mut self.core.mem, Address(lo), hi - lo, Access::Read);
        let mut slot = lo - (lo - first_slot) % WORD;
        while slot < hi {
            let target = Address(self.core.mem.read_word(Address(slot)));
            if !target.is_null() {
                out.push((Address(slot), target));
            }
            slot += WORD;
        }
    }

    /// Forwards nursery targets reachable from one dirty card.
    fn scan_card(&mut self, ctx: &mut MemCtx<'_>, card_base: Address) {
        let (lo, hi) = CardTable::card_range(card_base);
        if self.ms.region_contains(card_base) {
            let sp_extent = self.ms.extent_superpages();
            let sp_of_card =
                (card_base.0 - self.ms.sp_base(heap::SpIndex(0)).0) / heap::BYTES_PER_SUPERPAGE;
            if sp_of_card >= sp_extent {
                return;
            }
            let sp = heap::SpIndex(sp_of_card);
            let sp_base = self.ms.sp_base(sp).0;
            // Forwarding promotes into the mature space, possibly into this
            // very superpage: the card's cells are listed before any is
            // scanned.
            let mut cells = std::mem::take(&mut self.cells_scratch);
            cells.clear();
            cells.extend(
                self.ms
                    .cells_overlapping_bytes(sp, lo.0 - sp_base, hi.0 - sp_base),
            );
            for &obj in &cells {
                self.scan_card_object(ctx, obj, lo, hi);
            }
            self.cells_scratch = cells;
        } else if self.los.region_contains(card_base) {
            if let Some((obj, _pages)) = self.los.object_containing(card_base) {
                self.scan_card_object(ctx, obj, lo, hi);
            }
        }
    }

    /// Forwards the nursery targets held in the slots of `obj` that lie in
    /// `[lo, hi)`.
    fn scan_card_object(&mut self, ctx: &mut MemCtx<'_>, obj: Address, lo: Address, hi: Address) {
        // `forward` pumps paging events, whose handlers fill
        // `refs_scratch` themselves: the buffer is moved out while its
        // contents are in use.
        let mut refs = std::mem::take(&mut self.refs_scratch);
        if self.object_resident(obj) {
            self.scan_refs_in_range(ctx, obj, lo, hi, &mut refs);
        } else {
            // A partially evicted object can still hold nursery
            // pointers in slots on its resident pages (stored after
            // the other pages left); scan exactly those. Wholly
            // evicted objects yield nothing — their pages were
            // rescued at eviction if they held nursery pointers.
            self.scan_resident_refs_in_range(ctx, obj, lo, hi, &mut refs);
        }
        for &(slot, target) in &refs {
            if self.nursery.region_contains(target) {
                let new = self.forward(ctx, target);
                self.core.mem.write_word(slot, new.0);
            }
        }
        self.refs_scratch = refs;
    }

    /// Like [`scan_refs_in_range`](Bookmarking::scan_refs_in_range), but
    /// touches only slots on pages BC's residency map calls resident; the
    /// header of a partially evicted object is read from the swap-bound
    /// image (exactly what the pre-unmap handler saw, §4.1).
    fn scan_resident_refs_in_range(
        &mut self,
        ctx: &mut MemCtx<'_>,
        obj: Address,
        lo: Address,
        hi: Address,
        out: &mut Vec<(Address, Address)>,
    ) {
        out.clear();
        let (w0, w1) = self.core.mem.read_pair(obj);
        let Ok(h) = Header::decode_forwarded(w0, w1) else {
            return;
        };
        let n = h.kind.num_ref_fields();
        if n == 0 {
            return;
        }
        let first_slot = obj.offset(HEADER_BYTES).0;
        let last_slot = first_slot + (n - 1) * WORD;
        let lo = lo.0.max(first_slot);
        let hi = hi.0.min(last_slot + WORD);
        if lo >= hi {
            return;
        }
        let costs = ctx.vmm.costs();
        let (scan_object, scan_ref) = (costs.scan_object, costs.scan_ref);
        ctx.clock.advance(scan_object);
        let mut slot = lo - (lo - first_slot) % WORD;
        while slot < hi {
            let a = Address(slot);
            if self.residency.page_resident(a.page()) {
                ctx.clock.advance(scan_ref);
                ctx.touch(&mut self.core.mem, a, WORD, Access::Read);
                let target = Address(self.core.mem.read_word(a));
                if !target.is_null() {
                    out.push((a, target));
                }
            }
            slot += WORD;
        }
    }

    // ----- sanitizer -----------------------------------------------------

    /// Shadow re-trace: live data lives in allocated mature cells and live
    /// large objects; the trace stops at evicted objects exactly as BC's
    /// own trace does (their edges are covered by the bookmark-soundness
    /// check instead).
    fn sanitize_shadow(&mut self, phase: &'static str, condemned: &'static str, marked: bool) {
        let (ms, los) = (&self.ms, &self.los);
        let residency = &self.residency;
        let bookmarking = self.options.bookmarking;
        let name: &'static str = if bookmarking { "BC" } else { "BC-resize" };
        let spec = ShadowSpec {
            collector: name,
            phase,
            classify: &|a| {
                if ms.is_allocated_cell(a) || los.is_live_object(a) {
                    Classified::Live
                } else {
                    Classified::Condemned(condemned)
                }
            },
            resident: &move |a, size| !bookmarking || residency.range_resident(a, size),
            expect_marked: &move |_| marked,
        };
        self.core.sanitize_shadow_trace(&spec);
    }

    // ----- collections ---------------------------------------------------

    pub(crate) fn minor_gc(&mut self, ctx: &mut MemCtx<'_>) {
        let pause = self.core.begin_pause(ctx, PauseKind::Nursery);
        // Serve this collection's page demand from the empty-page reserve
        // so the kernel does not run ahead mid-collection (§3.4.3).
        self.discard_reserve(ctx);
        self.phase = Phase::Minor;
        self.core.phase_begin(ctx, GcPhase::RootScan);
        forward_roots(self, ctx);
        self.core.phase_end(ctx, GcPhase::RootScan);
        self.core.phase_begin(ctx, GcPhase::CardScan);
        self.process_remembered_set(ctx);
        self.core.phase_end(ctx, GcPhase::CardScan);
        self.core.phase_begin(ctx, GcPhase::Trace);
        drain_gray(self, ctx);
        self.core.phase_end(ctx, GcPhase::Trace);
        if self.core.sanitize_full() {
            // Mature objects are unmarked during a minor collection; a
            // reachable nursery edge here means a write-barrier record or
            // remembered-set entry went missing.
            self.sanitize_shadow("after-trace", "collected nursery", false);
        }
        self.nursery
            .release_all(&mut self.core.pool, &mut self.core.mem);
        if self.core.sanitize_full() {
            self.sanitize_shadow("after-collection", "released nursery", false);
        }
        self.core
            .sanitize_physical_checks(ctx, Some(&self.ms), &self.los, &[&self.nursery]);
        self.phase = Phase::Idle;
        self.core.stats.nursery_gcs += 1;
        self.recompute_nursery_limit();
        self.core.end_pause(ctx, pause);
        if self.core.policy_after_gc(ctx) {
            self.recompute_nursery_limit();
        }
        self.finish_deferred_evictions(ctx);
    }

    /// Forwards every recorded mature→nursery slot (§3.1): unprocessed
    /// write-buffer entries first, then the objects named by dirty cards.
    /// Slots on evicted pages are skipped: a page holding a live nursery
    /// pointer is never evicted (the eviction scan rescues it), so a
    /// non-resident slot's store was overwritten before the page left.
    /// Skips are per *slot*, not per object — a spanning object with an
    /// evicted tail can still take stores into its resident head.
    pub(crate) fn process_remembered_set(&mut self, ctx: &mut MemCtx<'_>) {
        let entries = self.wbuf.drain();
        for &slot in &entries {
            if !self.residency.page_resident(slot.page()) {
                continue;
            }
            let target = self.core.read_slot(ctx, slot);
            if self.nursery.region_contains(target) {
                let new = self.forward(ctx, target);
                self.core.write_slot(ctx, slot, new);
            }
        }
        self.wbuf.give_back(entries);
        for card in self.cards.dirty_cards() {
            self.scan_card(ctx, card);
        }
        self.cards.clear();
    }

    /// The bookmark root scan of §3.4.1: treat every resident bookmarked
    /// object as root-referenced, visiting "only those superpages with a
    /// nonzero incoming bookmark count".
    pub(crate) fn bookmark_root_scan(&mut self, ctx: &mut MemCtx<'_>) {
        for sp in self.ms.assigned_sps() {
            if self.ms.info(sp).incoming_bookmarks == 0 {
                continue;
            }
            // Reading the superpage header (always resident, §3.4).
            let base = self.ms.sp_base(sp);
            ctx.touch(&mut self.core.mem, base, 12, Access::Read);
            for cell in self.ms.allocated_cells_iter(sp) {
                if !self.object_resident(cell) {
                    continue;
                }
                let h = self.core.header(ctx, cell);
                if h.bookmark && self.core.try_mark(ctx, cell) {
                    self.core.queue.push(cell);
                }
            }
        }
        // Large objects with incoming bookmarks are roots too.
        let bookmarked: Vec<u32> = self.los_incoming.keys().copied().collect();
        for addr in bookmarked {
            let obj = Address(addr);
            if self.los.is_live_object(obj) && self.core.try_mark(ctx, obj) {
                self.core.queue.push(obj);
            }
        }
    }

    /// Frees unmarked *resident* cells and large objects; evicted cells are
    /// preserved unexamined ("a sweep of the memory-resident pages completes
    /// the collection", §3.4.1). `keep_marks` is compaction's variant (see
    /// [`Core::sweep`]).
    pub(crate) fn sweep_resident(&mut self, ctx: &mut MemCtx<'_>, keep_marks: bool) {
        // A large object a full collection is about to free has no incoming
        // bookmark: the bookmark root scan marked every one that does.
        debug_assert!(
            keep_marks
                || self.los_incoming.keys().all(|&a| {
                    !self.los.is_live_object(Address(a))
                        || Header::is_marked(self.core.mem.read_word(Address(a)))
                }),
            "bookmarked LOS object was not rooted"
        );
        let (bookmarking, residency) = (self.options.bookmarking, &self.residency);
        self.core.sweep(
            ctx,
            Some(&mut self.ms),
            &mut self.los,
            |mem, cell| object_resident_in(bookmarking, residency, mem, cell),
            keep_marks,
        );
    }

    pub(crate) fn major_gc(&mut self, ctx: &mut MemCtx<'_>) {
        let pause = self.core.begin_pause(ctx, PauseKind::Full);
        self.discard_reserve(ctx);
        self.phase = Phase::Major;
        if self.options.bookmarking && self.residency.any_evicted() {
            self.core.phase_begin(ctx, GcPhase::BookmarkScan);
            self.bookmark_root_scan(ctx);
            self.core.phase_end(ctx, GcPhase::BookmarkScan);
        }
        self.core.phase_begin(ctx, GcPhase::RootScan);
        forward_roots(self, ctx);
        self.core.phase_end(ctx, GcPhase::RootScan);
        // The remembered set cannot simply be dropped: the trace skips
        // objects with evicted pages, so a recorded mature→nursery slot on
        // a *resident* page of such an object would otherwise keep its
        // (soon dangling) nursery address across the nursery release below.
        self.core.phase_begin(ctx, GcPhase::CardScan);
        self.process_remembered_set(ctx);
        self.core.phase_end(ctx, GcPhase::CardScan);
        self.core.phase_begin(ctx, GcPhase::Trace);
        drain_gray(self, ctx);
        self.core.phase_end(ctx, GcPhase::Trace);
        if self.core.sanitize_full() {
            // Every reachable resident object must be marked — whether the
            // trace reached it through the heap or the bookmark root scan.
            self.sanitize_shadow("after-trace", "collected nursery", true);
        }
        self.core.phase_begin(ctx, GcPhase::Sweep);
        self.sweep_resident(ctx, false);
        self.nursery
            .release_all(&mut self.core.pool, &mut self.core.mem);
        self.core.phase_end(ctx, GcPhase::Sweep);
        if self.core.sanitize_full() {
            self.sanitize_shadow("after-collection", "swept space", false);
        }
        self.core
            .sanitize_physical_checks(ctx, Some(&self.ms), &self.los, &[&self.nursery]);
        self.wbuf.clear();
        self.cards.clear();
        self.phase = Phase::Idle;
        self.core.stats.full_gcs += 1;
        self.recompute_nursery_limit();
        self.core.end_pause(ctx, pause);
        if self.core.policy_after_gc(ctx) {
            self.recompute_nursery_limit();
        }
        self.emit_residency_snapshots(ctx);
        self.finish_deferred_evictions(ctx);
        if self.core.sanitize_full() && self.options.bookmarking {
            self.sanitize_bookmark_soundness();
        }
    }

    /// Emits one [`EventKind::Residency`] event per assigned superpage after
    /// a full collection, so traces can reconstruct the footprint the
    /// collector actually kept resident. A no-op when tracing is disabled.
    fn emit_residency_snapshots(&mut self, ctx: &MemCtx<'_>) {
        if !self.core.config.tracer.enabled() {
            return;
        }
        for sp in self.ms.assigned_sps() {
            let pages = self.ms.sp_pages(sp);
            let resident = pages
                .iter()
                .filter(|&&p| self.residency.page_resident(p))
                .count() as u32;
            self.core.trace_event(
                ctx,
                EventKind::Residency {
                    superpage: pages[0].number(),
                    resident,
                    total: pages.len() as u32,
                },
            );
        }
    }

    /// §7 extension: once pressure has clearly abated, grow the heap budget
    /// back toward its configured size so a transient spike does not
    /// permanently constrain throughput. Runs at safe points; the step and
    /// slack rules live in the policy layer
    /// ([`heap::policy::BcFootprint`]'s idle hook).
    pub(crate) fn maybe_regrow(&mut self, ctx: &mut MemCtx<'_>) {
        if !self.core.policy.idle_active() {
            return;
        }
        if self.core.policy_idle(ctx) {
            self.recompute_nursery_limit();
        }
    }

    /// Runs any collection deferred from a notification handler.
    pub(crate) fn run_deferred_gc(&mut self, ctx: &mut MemCtx<'_>) {
        match std::mem::replace(&mut self.gc_requested, GcRequest::None) {
            GcRequest::None => {}
            GcRequest::Minor => {
                self.minor_gc(ctx);
                self.after_pressure_gc(ctx);
            }
            GcRequest::Full => {
                self.major_gc(ctx);
                self.after_pressure_gc(ctx);
            }
        }
    }
}

/// [`Bookmarking::object_resident`] over the residency state alone, so it
/// can filter a sweep that holds the core mutably.
#[inline]
fn object_resident_in(
    bookmarking: bool,
    residency: &ResidencyMap,
    mem: &SimMemory,
    addr: Address,
) -> bool {
    // Nothing evicted (every run without memory pressure): every object
    // is resident, and its header need not be read to learn its extent.
    if !bookmarking || !residency.any_evicted() {
        return true;
    }
    if !residency.page_resident(addr.page()) {
        return false;
    }
    // Header page is resident: the size can be read without faulting.
    let (w0, w1) = mem.read_pair(addr);
    let size = match Header::decode_forwarded(w0, w1) {
        Ok(h) => h.kind.size_bytes(),
        Err(_) => return true, // forwarding stubs are header-only
    };
    residency.range_resident(addr, size)
}

impl Forwarder for Bookmarking {
    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    fn forward(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Address {
        // The paper's signal handler keeps running during collections: every
        // few hundred edges, service pending notices and — before the
        // kernel is forced into direct reclaim — feed its free list from
        // the empty-page reserve (§3.4.3: "If pages are scheduled for
        // eviction during a collection, BC discards the pages held in
        // reserve").
        self.gc_tick = self.gc_tick.wrapping_add(1);
        if self.gc_tick.is_multiple_of(128) {
            self.discard_reserve(ctx);
            if ctx.vmm.has_events(ctx.pid) {
                self.pump_events_in_gc(ctx);
            }
        }
        match self.phase {
            Phase::Idle => unreachable!("forward outside a collection"),
            Phase::Minor => {
                if !self.nursery.region_contains(obj) {
                    return obj;
                }
                match self.core.header_or_forward(ctx, obj) {
                    Err(new) => new,
                    Ok(h) => {
                        let new = self.promote(ctx, obj, h);
                        self.core.queue.push(new);
                        new
                    }
                }
            }
            Phase::Major => {
                if self.nursery.region_contains(obj) {
                    match self.core.header_or_forward(ctx, obj) {
                        Err(new) => new,
                        Ok(h) => {
                            let new = self.promote(ctx, obj, h);
                            let marked = self.core.try_mark(ctx, new);
                            debug_assert!(marked);
                            self.core.queue.push(new);
                            new
                        }
                    }
                } else {
                    // The heart of BC: never follow references onto
                    // evicted pages ("BC ignores these during collection").
                    if !self.object_resident(obj) {
                        return obj;
                    }
                    if self.core.try_mark(ctx, obj) {
                        self.core.queue.push(obj);
                    }
                    obj
                }
            }
            Phase::Compact => self.forward_compact(ctx, obj),
        }
    }
}

impl GcHeap for Bookmarking {
    fn alloc(&mut self, ctx: &mut MemCtx<'_>, kind: AllocKind) -> Result<Handle, OutOfMemory> {
        self.run_deferred_gc(ctx);
        let addr = match self.alloc_raw(kind) {
            Some(a) => a,
            None => self.alloc_slow(ctx, kind)?,
        };
        self.core.init_object(ctx, addr, kind.object_kind());
        Ok(self.core.roots.add(addr))
    }

    fn write_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32, val: Option<Handle>) {
        let obj = self.core.roots.get(src);
        let target = val.map_or(Address::NULL, |h| self.core.roots.get(h));
        let slot = heap::object::field_addr(obj, field);
        if !self.nursery.region_contains(obj) && self.nursery.region_contains(target) {
            self.core.stats.barrier_records += 1;
            let barrier = ctx.vmm.costs().barrier;
            ctx.clock.advance(barrier);
            if self.wbuf.record(slot) {
                self.process_write_buffer(ctx);
            }
        }
        // Pump events raised by the touch *before* the store lands, so a
        // reload scan sees the page as it was when evicted.
        self.touch_pumped(ctx, slot, WORD, Access::Write);
        self.core.mem.write_word(slot, target.0);
    }

    fn read_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32) -> Option<Handle> {
        let obj = self.core.roots.get(src);
        let slot = heap::object::field_addr(obj, field);
        self.touch_pumped(ctx, slot, WORD, Access::Read);
        let target = Address(self.core.mem.read_word(slot));
        (!target.is_null()).then(|| self.core.roots.add(target))
    }

    fn read_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        let addr = self.core.roots.get(obj);
        self.touch_pumped(ctx, addr, HEADER_BYTES, Access::Read);
        let (w0, w1) = self.core.mem.read_pair(addr);
        let size = Header::decode(w0, w1).kind.size_bytes();
        self.touch_pumped(ctx, addr, size, Access::Read);
    }

    fn write_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        let addr = self.core.roots.get(obj);
        self.touch_pumped(ctx, addr, HEADER_BYTES, Access::Read);
        let (w0, w1) = self.core.mem.read_pair(addr);
        let size = Header::decode(w0, w1).kind.size_bytes();
        self.touch_pumped(
            ctx,
            addr.offset(HEADER_BYTES),
            size.saturating_sub(HEADER_BYTES).max(WORD),
            Access::Write,
        );
    }

    fn same_object(&self, a: Handle, b: Handle) -> bool {
        self.core.roots.get(a) == self.core.roots.get(b)
    }

    fn dup_handle(&mut self, h: Handle) -> Handle {
        let addr = self.core.roots.get(h);
        self.core.roots.add(addr)
    }

    fn drop_handle(&mut self, h: Handle) {
        self.core.roots.remove(h);
    }

    fn collect(&mut self, ctx: &mut MemCtx<'_>, kind: CollectKind) {
        match kind {
            CollectKind::Full => self.major_gc(ctx),
            CollectKind::Minor => {
                self.minor_gc(ctx);
                if self.sizer.full_gc_needed(self.free_minus_reserve()) {
                    self.major_gc(ctx);
                }
            }
        }
    }

    fn handle_vm_events(&mut self, ctx: &mut MemCtx<'_>) {
        self.process_vm_events(ctx);
        // The engine calls this between mutator steps: a safe point.
        self.run_deferred_gc(ctx);
        self.maybe_regrow(ctx);
    }

    fn stats(&self) -> &GcStats {
        &self.core.stats
    }

    fn pause_log(&self) -> &PauseLog {
        &self.core.pauses
    }

    fn exit(&mut self) {
        self.core.exit();
    }

    fn tracer(&self) -> &Tracer {
        &self.core.config.tracer
    }

    fn heap_pages_used(&self) -> usize {
        self.core.pool.used()
    }

    fn heap_pages_peak(&self) -> usize {
        self.core.pool.peak()
    }

    fn name(&self) -> &'static str {
        if self.options.bookmarking {
            "BC"
        } else {
            "BC-resize"
        }
    }
}
