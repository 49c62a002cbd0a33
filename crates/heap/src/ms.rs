//! The segregated-fit mark-sweep space over superpages (§3).
//!
//! The mature space is divided into **superpages**: page-aligned groups of
//! four contiguous 4 KiB pages. Objects of different size classes are
//! allocated onto different superpages; completely empty superpages can be
//! reassigned to any size class. Each superpage stores its metadata in a
//! small header at its base — "this placement permits constant-time access
//! by bit-masking … while storing the metadata in the superpage header
//! prevents BC from evicting one-fourth of the pages, it reduces memory
//! overhead and simplifies the memory layout" (§3.4).
//!
//! Superpages are additionally segregated by *block kind* (scalar vs.
//! array), mirroring §4's fix for Jikes RVM header placement: "we solve
//! this problem by further segmenting our allocation to allow superpages to
//! hold either only scalars or only arrays".

use std::num::NonZeroU32;

use vmm::VirtPage;

use crate::addr::{Address, BYTES_PER_PAGE, BYTES_PER_SUPERPAGE, PAGES_PER_SUPERPAGE};
use crate::mem::SimMemory;
use crate::object::ObjectKind;
use crate::pool::PagePool;
use crate::sizeclass::{SizeClasses, SUPERPAGE_METADATA_BYTES};

/// Index of a superpage within the mature region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpIndex(pub u32);

/// Whether a superpage holds scalars or arrays (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKind {
    /// Scalars only.
    Scalar,
    /// Arrays only.
    Array,
}

/// Public snapshot of one superpage's header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuperpageInfo {
    /// Assigned size class and block kind; `None` for a free superpage.
    pub assignment: Option<(u8, BlockKind)>,
    /// "The number of evicted pages pointing to objects on a given
    /// superpage" (§3.4).
    pub incoming_bookmarks: u32,
    /// Allocated (live-or-unswept) cells.
    pub live_cells: u32,
}

#[derive(Clone, Debug, Default)]
struct SpState {
    assignment: Option<(u8, BlockKind)>,
    incoming_bookmarks: u32,
    alloc_bits: Vec<u64>,
    live_cells: u32,
    /// First-free search hint.
    hint: u32,
}

impl SpState {
    fn is_allocated(&self, cell: u32) -> bool {
        self.alloc_bits
            .get((cell / 64) as usize)
            .is_some_and(|w| w & (1 << (cell % 64)) != 0)
    }

    fn set_allocated(&mut self, cell: u32, on: bool) {
        let w = &mut self.alloc_bits[(cell / 64) as usize];
        if on {
            *w |= 1 << (cell % 64);
        } else {
            *w &= !(1 << (cell % 64));
        }
    }

    /// First free cell at or after `from` (exclusive upper bound `limit`),
    /// found by whole-word bit scanning.
    fn first_free_from(&self, from: u32, limit: u32) -> Option<u32> {
        let mut word_idx = (from / 64) as usize;
        let last_word = limit.div_ceil(64) as usize;
        // Mask off bits below `from` in the first word.
        let mut mask = !0u64 << (from % 64);
        while word_idx < last_word {
            let free = !self.alloc_bits[word_idx] & mask;
            if free != 0 {
                let cell = word_idx as u32 * 64 + free.trailing_zeros();
                return (cell < limit).then_some(cell);
            }
            word_idx += 1;
            mask = !0;
        }
        None
    }

    /// One past the last cell of the contiguous free run starting at
    /// `from` (bounded by `limit`).
    fn free_run_end(&self, from: u32, limit: u32) -> u32 {
        let mut word_idx = (from / 64) as usize;
        let last_word = limit.div_ceil(64) as usize;
        // Ignore bits below `from` in the first word: the run end is the
        // first *allocated* cell at or after `from`.
        let mut mask = !0u64 << (from % 64);
        while word_idx < last_word {
            let used = self.alloc_bits[word_idx] & mask;
            if used != 0 {
                let end = word_idx as u32 * 64 + used.trailing_zeros();
                return end.min(limit);
            }
            word_idx += 1;
            mask = !0;
        }
        limit
    }
}

/// A cached **allocation run**: a contiguous range of free cells reserved
/// (by position, not by bits) from one superpage, in the spirit of Nofl's
/// bump regions. While a run is live, consecutive same-(class, kind)
/// allocations are served by bumping `next` — one bit-set and one counter
/// update, no partial-list walk and no bit scan.
///
/// # Invalidation invariants
///
/// A run may only be served while the state it summarized still holds:
///
/// * every cell in `[next, end)` is free in the superpage's `alloc_bits`;
/// * the superpage is still assigned to the run's (class, kind);
/// * the superpage is still the head of that (class, kind) partial list,
///   and its first-free hint still points into the run — so bump order is
///   *exactly* the order the bit-scan path would produce.
///
/// Every operation that can break one of these drops the affected runs:
/// [`MsSpace::free_cell`] (hint moves backwards), [`MsSpace::release_sp`]
/// (unassignment, e.g. compaction freeing source superpages), `assign`
/// (recycled superpage re-used, possibly for another class),
/// [`MsSpace::note_partial`] (sweep pushes a new partial-list head), and
/// [`MsSpace::reserve_free_cells_in_bytes`] (eviction reserves cells that
/// may sit inside the run).
#[derive(Clone, Copy, Debug)]
struct AllocRun {
    sp: u32,
    /// Next cell to hand out.
    next: u32,
    /// One past the last known-free cell of the run (never zero, which
    /// keeps `Option<AllocRun>` at 16 bytes).
    end: NonZeroU32,
    /// The class's cell size, cached for pure address arithmetic.
    cell_bytes: u32,
}

/// One (class, kind)'s entry in the class table: the superpages it can
/// allocate from, and its cached run.
#[derive(Clone, Debug, Default)]
struct ClassList {
    /// Superpages with at least one free cell, assigned to this (class,
    /// kind); the last is the head.
    partial: Vec<u32>,
    /// The cached allocation run, if any.
    run: Option<AllocRun>,
}

/// The segregated-fit mark-sweep space.
#[derive(Debug)]
pub struct MsSpace {
    base: Address,
    region_limit: Address,
    classes: &'static SizeClasses,
    sps: Vec<SpState>,
    /// Superpages carved out of the region so far.
    extent_sps: u32,
    /// Fully free superpages (still mapped by the VMM; budget released and
    /// host pages dropped).
    free_sps: Vec<u32>,
    /// The class table, one [`ClassList`] per (class, kind). Empty until
    /// the first superpage assignment builds it: a space that never held a
    /// cell owns none (DESIGN.md §10.6).
    lists: Box<[ClassList]>,
}

impl MsSpace {
    /// An empty space over `[base, region_limit)`.
    ///
    /// # Panics
    ///
    /// Panics unless the bounds are superpage-aligned.
    pub fn new(base: Address, region_limit: Address) -> MsSpace {
        assert_eq!(base.0 % BYTES_PER_SUPERPAGE, 0);
        assert_eq!(region_limit.0 % BYTES_PER_SUPERPAGE, 0);
        MsSpace {
            base,
            region_limit,
            classes: SizeClasses::shared(),
            sps: Vec::new(),
            extent_sps: 0,
            free_sps: Vec::new(),
            lists: Box::default(),
        }
    }

    /// The size-class table.
    pub fn classes(&self) -> &SizeClasses {
        self.classes
    }

    /// Where an object of shape `kind` is placed: its size class, and the
    /// scalar or array half of the superpage segregation (§4).
    ///
    /// # Panics
    ///
    /// Panics if the object is too large for a cell (it belongs in the
    /// large-object space).
    #[inline]
    pub fn placement(&self, kind: ObjectKind) -> (u8, BlockKind) {
        let class = self
            .classes
            .class_for(kind.size_bytes())
            .expect("object fits a cell")
            .index;
        let block = if kind.is_array() {
            BlockKind::Array
        } else {
            BlockKind::Scalar
        };
        (class, block)
    }

    /// Allocates the cell a surviving object of shape `kind` is copied into
    /// (promotion), overrunning the budget rather than failing: a collection
    /// cannot stop halfway.
    ///
    /// # Panics
    ///
    /// Panics if the object is too large for a cell or the address region
    /// (not the budget) is exhausted.
    #[inline]
    pub fn alloc_survivor(&mut self, pool: &mut PagePool, kind: ObjectKind) -> Address {
        let (class, block) = self.placement(kind);
        self.alloc_forced(pool, class, block)
            .expect("mature region exhausted")
    }

    fn list_idx(class: u8, kind: BlockKind) -> usize {
        class as usize * 2 + if kind == BlockKind::Array { 1 } else { 0 }
    }

    /// Allocates one cell of `class` for `kind`, drawing new superpages from
    /// `pool` as needed. Returns `None` when the pool (or region) is
    /// exhausted.
    pub fn alloc(&mut self, pool: &mut PagePool, class: u8, kind: BlockKind) -> Option<Address> {
        let idx = Self::list_idx(class, kind);
        // Fast path: bump the cached allocation run. Before the class
        // table is built there is no run and no partial list.
        if let Some(list) = self.lists.get_mut(idx) {
            if let Some(run) = list.run {
                if run.next < run.end.get() {
                    let st = &mut self.sps[run.sp as usize];
                    debug_assert_eq!(st.assignment, Some((class, kind)));
                    debug_assert!(!st.is_allocated(run.next), "stale allocation run");
                    st.set_allocated(run.next, true);
                    st.live_cells += 1;
                    st.hint = run.next + 1;
                    list.run = Some(AllocRun {
                        next: run.next + 1,
                        ..run
                    });
                    return Some(self.cell_addr(SpIndex(run.sp), run.next, run.cell_bytes));
                }
                list.run = None;
            }
        }
        while let Some(sp) = self.lists.get(idx).and_then(|l| l.partial.last().copied()) {
            if let Some(addr) = self.alloc_with_run(SpIndex(sp), idx, class) {
                return Some(addr);
            }
            self.lists[idx].partial.pop();
        }
        // Need a fresh superpage: reuse a free one or extend the region.
        let sp = self.take_free_superpage(pool)?;
        self.assign(sp, class, kind);
        self.alloc_with_run(sp, idx, class)
    }

    /// Slow-path allocation in `sp` that also (re)establishes the run
    /// cache for list `idx`: the allocated cell is found by bit scan, and
    /// the contiguous free cells right after it become the new run.
    fn alloc_with_run(&mut self, sp: SpIndex, idx: usize, class: u8) -> Option<Address> {
        let sc = self.classes.class(class);
        let (cell_bytes, cells) = (sc.cell_bytes, sc.cells_per_superpage);
        let cell = self.alloc_cell_in_sp(sp, class)?;
        let end = self.sps[sp.0 as usize].free_run_end(cell + 1, cells);
        self.lists[idx].run = NonZeroU32::new(end)
            .filter(|_| cell + 1 < end)
            .map(|end| AllocRun {
                sp: sp.0,
                next: cell + 1,
                end,
                cell_bytes,
            });
        Some(self.cell_addr(sp, cell, cell_bytes))
    }

    /// Drops a cached run pointing at `sp`, if any. A run for a superpage
    /// always lives in the class list of that superpage's assignment, so
    /// this is a single-slot check.
    fn invalidate_runs_for_sp(&mut self, sp: SpIndex) {
        if let Some((class, kind)) = self.sps[sp.0 as usize].assignment {
            let list = &mut self.lists[Self::list_idx(class, kind)];
            if list.run.is_some_and(|r| r.sp == sp.0) {
                list.run = None;
            }
        }
    }

    /// Drops every cached allocation run. Allocation falls back to the
    /// bit-scan slow path until runs are re-established. Safe at any time;
    /// tests use it to compare cached against uncached allocation order.
    pub fn invalidate_runs(&mut self) {
        self.lists.iter_mut().for_each(|l| l.run = None);
    }

    /// Like [`alloc`](MsSpace::alloc), but overruns the pool budget rather
    /// than failing (collectors copying survivors into this space must not
    /// fail mid-collection). Still fails when the region is exhausted.
    pub fn alloc_forced(
        &mut self,
        pool: &mut PagePool,
        class: u8,
        kind: BlockKind,
    ) -> Option<Address> {
        if let Some(addr) = self.alloc(pool, class, kind) {
            return Some(addr);
        }
        let sp = if let Some(sp) = self.free_sps.pop() {
            pool.force_acquire(PAGES_PER_SUPERPAGE as usize);
            SpIndex(sp)
        } else {
            let next_base = self.base.0 + self.extent_sps * BYTES_PER_SUPERPAGE;
            if next_base + BYTES_PER_SUPERPAGE > self.region_limit.0 {
                return None;
            }
            pool.force_acquire(PAGES_PER_SUPERPAGE as usize);
            let sp = self.extent_sps;
            self.extent_sps += 1;
            self.sps.push(SpState::default());
            SpIndex(sp)
        };
        self.assign(sp, class, kind);
        self.alloc_with_run(sp, Self::list_idx(class, kind), class)
    }

    /// Acquires a completely free superpage (budget charged to `pool`),
    /// without assigning it.
    pub fn take_free_superpage(&mut self, pool: &mut PagePool) -> Option<SpIndex> {
        if let Some(sp) = self.free_sps.last().copied() {
            if !pool.acquire(PAGES_PER_SUPERPAGE as usize) {
                return None;
            }
            self.free_sps.pop();
            return Some(SpIndex(sp));
        }
        // Extend the region.
        let next_base = self.base.0 + self.extent_sps * BYTES_PER_SUPERPAGE;
        if next_base + BYTES_PER_SUPERPAGE > self.region_limit.0 {
            return None;
        }
        if !pool.acquire(PAGES_PER_SUPERPAGE as usize) {
            return None;
        }
        let sp = self.extent_sps;
        self.extent_sps += 1;
        self.sps.push(SpState::default());
        Some(SpIndex(sp))
    }

    /// Assigns a free superpage to (`class`, `kind`) and lists it as
    /// partial. The first assignment builds the class table.
    fn assign(&mut self, sp: SpIndex, class: u8, kind: BlockKind) {
        if self.lists.is_empty() {
            self.lists = vec![ClassList::default(); self.classes.iter().count() * 2].into();
        }
        // A freshly (re)assigned superpage can have no cached run:
        // `release_sp` drops the run when the superpage is unassigned.
        debug_assert!(self
            .lists
            .iter()
            .filter_map(|l| l.run)
            .all(|r| r.sp != sp.0));
        let cells = self.classes.class(class).cells_per_superpage;
        let st = &mut self.sps[sp.0 as usize];
        debug_assert!(st.assignment.is_none() && st.live_cells == 0);
        st.assignment = Some((class, kind));
        st.alloc_bits = vec![0; cells.div_ceil(64) as usize];
        st.live_cells = 0;
        st.hint = 0;
        self.lists[Self::list_idx(class, kind)].partial.push(sp.0);
    }

    /// Allocates a cell within a specific superpage (used by compaction to
    /// fill target superpages). Returns `None` when the superpage is full.
    ///
    /// Drops any cached run on `sp` first: the caller bypasses the
    /// partial-list discipline the run relies on.
    pub fn alloc_in_sp(&mut self, sp: SpIndex, class: u8) -> Option<Address> {
        self.invalidate_runs_for_sp(sp);
        let cell_bytes = self.classes.class(class).cell_bytes;
        self.alloc_cell_in_sp(sp, class)
            .map(|cell| self.cell_addr(sp, cell, cell_bytes))
    }

    /// The bit-scan allocation path: first free cell at or after the hint,
    /// wrapping once in case earlier cells were freed (the hint is kept
    /// at-or-below the first free cell, so the wrap is defensive).
    fn alloc_cell_in_sp(&mut self, sp: SpIndex, class: u8) -> Option<u32> {
        let cells = self.classes.class(class).cells_per_superpage;
        let st = &mut self.sps[sp.0 as usize];
        debug_assert_eq!(st.assignment.map(|(c, _)| c), Some(class));
        let cell = st
            .first_free_from(st.hint, cells)
            .or_else(|| st.first_free_from(0, st.hint))?;
        st.set_allocated(cell, true);
        st.live_cells += 1;
        st.hint = cell + 1;
        Some(cell)
    }

    fn cell_addr(&self, sp: SpIndex, cell: u32, cell_bytes: u32) -> Address {
        Address(
            self.base.0 + sp.0 * BYTES_PER_SUPERPAGE + SUPERPAGE_METADATA_BYTES + cell * cell_bytes,
        )
    }

    /// The superpage containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the space's extent.
    pub fn sp_of(&self, addr: Address) -> SpIndex {
        assert!(self.region_contains(addr), "{addr} outside MS region");
        let sp = (addr.0 - self.base.0) / BYTES_PER_SUPERPAGE;
        assert!(sp < self.extent_sps, "{addr} beyond MS extent");
        SpIndex(sp)
    }

    /// Base address of a superpage (where its 12-byte header lives).
    pub fn sp_base(&self, sp: SpIndex) -> Address {
        Address(self.base.0 + sp.0 * BYTES_PER_SUPERPAGE)
    }

    /// The page holding a superpage's header ("superpage headers ... are
    /// always resident", §3.4 — BC rescues this page from eviction).
    pub fn header_page(&self, sp: SpIndex) -> VirtPage {
        self.sp_base(sp).page()
    }

    /// Whether `addr` is within the region managed by this space.
    pub fn region_contains(&self, addr: Address) -> bool {
        addr >= self.base && addr < self.region_limit
    }

    /// Frees the cell at `addr`. If the superpage becomes empty it is
    /// released as by [`release_sp`](MsSpace::release_sp).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not an allocated cell boundary.
    pub fn free_cell(&mut self, pool: &mut PagePool, mem: &mut SimMemory, addr: Address) {
        let sp = self.sp_of(addr);
        let (class, _) = self.sps[sp.0 as usize]
            .assignment
            .expect("free in unassigned sp");
        let cell_bytes = self.classes.class(class).cell_bytes;
        let off = addr.0 - self.sp_base(sp).0 - SUPERPAGE_METADATA_BYTES;
        assert_eq!(off % cell_bytes, 0, "{addr} is not a cell boundary");
        let cell = off / cell_bytes;
        // Freeing below the hint moves the hint backwards, which would make
        // a cached run's bump order diverge from the bit-scan order.
        self.invalidate_runs_for_sp(sp);
        let st = &mut self.sps[sp.0 as usize];
        assert!(st.is_allocated(cell), "double free of {addr}");
        st.set_allocated(cell, false);
        st.live_cells -= 1;
        if cell < st.hint {
            st.hint = cell;
        }
        if st.live_cells == 0 {
            self.release_sp(pool, mem, sp);
        }
    }

    /// Unassigns a superpage outright (compaction frees whole source
    /// superpages), returning budget to `pool` and dropping its four pages
    /// from `mem`: a released superpage owns no host memory and reads as
    /// zero until it is written again (DESIGN.md §10.6).
    pub fn release_sp(&mut self, pool: &mut PagePool, mem: &mut SimMemory, sp: SpIndex) {
        self.invalidate_runs_for_sp(sp);
        let st = &mut self.sps[sp.0 as usize];
        let assignment = st.assignment.take();
        debug_assert!(assignment.is_some());
        st.alloc_bits.clear();
        st.live_cells = 0;
        st.incoming_bookmarks = 0;
        st.hint = 0;
        self.free_sps.push(sp.0);
        // A superpage is listed only under its own (class, kind).
        if let Some((class, kind)) = assignment {
            self.lists[Self::list_idx(class, kind)]
                .partial
                .retain(|&s| s != sp.0);
        }
        pool.release(PAGES_PER_SUPERPAGE as usize);
        for page in self.sp_pages(sp) {
            mem.discard(page.number());
        }
    }

    /// Registers an assigned superpage as having free cells again (sweep
    /// re-lists partially filled superpages).
    pub fn note_partial(&mut self, sp: SpIndex) {
        if let Some((class, kind)) = self.sps[sp.0 as usize].assignment {
            let list = &mut self.lists[Self::list_idx(class, kind)];
            if !list.partial.contains(&sp.0) {
                list.partial.push(sp.0);
                // The partial-list head changed: a cached run for this
                // (class, kind) no longer tracks the head superpage.
                list.run = None;
            }
        }
    }

    /// The four pages of a superpage.
    pub fn sp_pages(&self, sp: SpIndex) -> [VirtPage; 4] {
        let base = self.sp_base(sp);
        [
            base.page(),
            base.offset(BYTES_PER_PAGE).page(),
            base.offset(2 * BYTES_PER_PAGE).page(),
            base.offset(3 * BYTES_PER_PAGE).page(),
        ]
    }

    /// Snapshot of a superpage's header.
    pub fn info(&self, sp: SpIndex) -> SuperpageInfo {
        let st = &self.sps[sp.0 as usize];
        SuperpageInfo {
            assignment: st.assignment,
            incoming_bookmarks: st.incoming_bookmarks,
            live_cells: st.live_cells,
        }
    }

    /// Increments the incoming-bookmark counter (§3.4).
    pub fn inc_incoming_bookmarks(&mut self, sp: SpIndex) {
        self.sps[sp.0 as usize].incoming_bookmarks += 1;
    }

    /// Decrements the incoming-bookmark counter, returning the new value
    /// (§3.4.2: when it drops to zero the superpage's bookmarks can be
    /// cleared). Saturating: the mutator may overwrite a reloaded page's
    /// pointers before the clearing scan runs, so decrements can be
    /// asymmetric; saturation errs toward keeping bookmarks (safe).
    pub fn dec_incoming_bookmarks(&mut self, sp: SpIndex) -> u32 {
        let c = &mut self.sps[sp.0 as usize].incoming_bookmarks;
        *c = c.saturating_sub(1);
        *c
    }

    /// Sets the counter directly (fail-safe collection resets state, §3.5).
    pub fn reset_incoming_bookmarks(&mut self, sp: SpIndex) {
        self.sps[sp.0 as usize].incoming_bookmarks = 0;
    }

    /// Whether `addr` lies in a superpage assigned to a size class.
    pub fn in_assigned_sp(&self, addr: Address) -> bool {
        self.region_contains(addr)
            && self
                .sps
                .get(((addr.0 - self.base.0) / BYTES_PER_SUPERPAGE) as usize)
                .is_some_and(|st| st.assignment.is_some())
    }

    /// Whether `addr` is an allocated cell start.
    pub fn is_allocated_cell(&self, addr: Address) -> bool {
        if !self.region_contains(addr) {
            return false;
        }
        let sp = (addr.0 - self.base.0) / BYTES_PER_SUPERPAGE;
        if sp >= self.extent_sps {
            return false;
        }
        let st = &self.sps[sp as usize];
        let Some((class, _)) = st.assignment else {
            return false;
        };
        let cell_bytes = self.classes.class(class).cell_bytes;
        let Some(off) =
            (addr.0 - self.base.0 - sp * BYTES_PER_SUPERPAGE).checked_sub(SUPERPAGE_METADATA_BYTES)
        else {
            return false;
        };
        off % cell_bytes == 0 && st.is_allocated(off / cell_bytes)
    }

    /// Indices of all assigned superpages.
    pub fn assigned_sps(&self) -> Vec<SpIndex> {
        (0..self.extent_sps)
            .filter(|&i| self.sps[i as usize].assignment.is_some())
            .map(SpIndex)
            .collect()
    }

    /// Indices of all free (unassigned, still mapped) superpages, in
    /// free-list order.
    pub fn free_sps(&self) -> impl Iterator<Item = SpIndex> + '_ {
        self.free_sps.iter().map(|&i| SpIndex(i))
    }

    /// Superpages carved from the region so far.
    pub fn extent_superpages(&self) -> u32 {
        self.extent_sps
    }

    /// Addresses of all allocated cells in a superpage, ascending.
    ///
    /// Prefer [`MsSpace::allocated_cells_iter`] in loops: it walks the
    /// allocation bitmap directly without building a `Vec`.
    pub fn allocated_cells(&self, sp: SpIndex) -> Vec<Address> {
        self.allocated_cells_iter(sp).collect()
    }

    /// Iterates the addresses of all allocated cells in a superpage,
    /// ascending, straight off `alloc_bits` — no per-superpage `Vec`.
    /// Yields nothing for an unassigned superpage.
    pub fn allocated_cells_iter(&self, sp: SpIndex) -> AllocatedCells<'_> {
        self.cells_overlapping_bytes(sp, 0, BYTES_PER_SUPERPAGE)
    }

    /// Iterates the allocated cells overlapping one page of a superpage
    /// (`page_in_sp` ∈ 0..4). Used by the eviction-time bookmark scan, which
    /// processes "each object on the victim page" (§3.4) — including cells
    /// that merely straddle into it.
    pub fn cells_overlapping_page(&self, sp: SpIndex, page_in_sp: u32) -> AllocatedCells<'_> {
        debug_assert!(page_in_sp < PAGES_PER_SUPERPAGE);
        self.cells_overlapping_bytes(
            sp,
            page_in_sp * BYTES_PER_PAGE,
            (page_in_sp + 1) * BYTES_PER_PAGE,
        )
    }

    /// Iterates the allocated cells overlapping the byte range
    /// `[start, end)` of a superpage (offsets relative to the superpage
    /// base), ascending, straight off `alloc_bits`; nothing for an
    /// unassigned superpage. Used by card scanning (§3.1) and the bookmark
    /// machinery.
    pub fn cells_overlapping_bytes(&self, sp: SpIndex, start: u32, end: u32) -> AllocatedCells<'_> {
        debug_assert!(start < end && end <= BYTES_PER_SUPERPAGE);
        let st = &self.sps[sp.0 as usize];
        let Some((class, _)) = st.assignment else {
            return AllocatedCells {
                words: &[],
                word_idx: 0,
                word: 0,
                end: 0,
                base: Address(0),
                cell_bytes: 0,
            };
        };
        let c = self.classes.class(class);
        // Cell i spans [12 + i*cell, 12 + (i+1)*cell).
        let first = start.saturating_sub(SUPERPAGE_METADATA_BYTES) / c.cell_bytes;
        let last = (end - 1).saturating_sub(SUPERPAGE_METADATA_BYTES) / c.cell_bytes;
        let end = (last + 1).min(c.cells_per_superpage);
        // The word scan stops with the slice: no word past `end` is read.
        let words = &st.alloc_bits[..end.div_ceil(64) as usize];
        let word_idx = (first / 64) as usize;
        let word = words.get(word_idx).copied().unwrap_or(0);
        AllocatedCells {
            words,
            word_idx,
            // Cells of the first word below `first` are not wanted.
            word: word & (u64::MAX << (first % 64)),
            end,
            base: self.cell_addr(sp, 0, 0),
            cell_bytes: c.cell_bytes,
        }
    }

    /// Marks every *free* cell overlapping the byte range `[start, end)` of
    /// a superpage as allocated, so the allocator never hands out a cell on
    /// an evicted page. Returns the reserved cell addresses.
    ///
    /// The reservation is undone naturally: the cells count as unmarked
    /// allocated cells, so the first sweep that sees their pages resident
    /// frees them. Meanwhile compaction counts them as live — exactly the
    /// paper's "reserve space for every possible object on the evicted
    /// pages" (§3.4.1).
    pub fn reserve_free_cells_in_bytes(
        &mut self,
        sp: SpIndex,
        start: u32,
        end: u32,
    ) -> Vec<Address> {
        debug_assert!(start < end && end <= BYTES_PER_SUPERPAGE);
        let Some((class, _)) = self.sps[sp.0 as usize].assignment else {
            return Vec::new();
        };
        // The reserved cells may sit inside a cached run's free range.
        self.invalidate_runs_for_sp(sp);
        let c = self.classes.class(class);
        let first = start.saturating_sub(SUPERPAGE_METADATA_BYTES) / c.cell_bytes;
        let last = (end - 1).saturating_sub(SUPERPAGE_METADATA_BYTES) / c.cell_bytes;
        let st = &mut self.sps[sp.0 as usize];
        let mut reserved = Vec::new();
        for i in first..=last.min(c.cells_per_superpage - 1) {
            if !st.is_allocated(i) {
                st.set_allocated(i, true);
                st.live_cells += 1;
                reserved.push(Address(
                    self.base.0
                        + sp.0 * BYTES_PER_SUPERPAGE
                        + SUPERPAGE_METADATA_BYTES
                        + i * c.cell_bytes,
                ));
            }
        }
        reserved
    }

    // ----- sanitizer support (`crate::sanitize`) ------------------------

    /// Calls `f` with `(address, cell_bytes)` for every *free* cell of
    /// every assigned superpage — the cells the sanitizer poisons with
    /// canary words after each collection.
    pub fn for_each_free_cell(&self, mut f: impl FnMut(Address, u32)) {
        for sp in 0..self.extent_sps {
            let st = &self.sps[sp as usize];
            let Some((class, _)) = st.assignment else {
                continue;
            };
            let c = self.classes.class(class);
            for cell in 0..c.cells_per_superpage {
                if !st.is_allocated(cell) {
                    f(
                        self.cell_addr(SpIndex(sp), cell, c.cell_bytes),
                        c.cell_bytes,
                    );
                }
            }
        }
    }

    /// Whether `addr` is still the start of a free cell of exactly `bytes`
    /// bytes. The sanitizer validates a poisoned cell's canaries only while
    /// this geometry holds: releasing or reassigning the superpage (or
    /// allocating the cell) makes the old poison stale, not clobbered.
    pub fn is_current_free_cell(&self, addr: Address, bytes: u32) -> bool {
        if !self.region_contains(addr) {
            return false;
        }
        let sp = (addr.0 - self.base.0) / BYTES_PER_SUPERPAGE;
        if sp >= self.extent_sps {
            return false;
        }
        let st = &self.sps[sp as usize];
        let Some((class, _)) = st.assignment else {
            return false;
        };
        let c = self.classes.class(class);
        if c.cell_bytes != bytes {
            return false;
        }
        let Some(off) =
            (addr.0 - self.base.0 - sp * BYTES_PER_SUPERPAGE).checked_sub(SUPERPAGE_METADATA_BYTES)
        else {
            return false;
        };
        off % c.cell_bytes == 0
            && off / c.cell_bytes < c.cells_per_superpage
            && !st.is_allocated(off / c.cell_bytes)
    }

    /// Validates the allocation-run cache against the bitmaps (the
    /// sanitizer's run-cache/bitmap agreement check): every cached run must
    /// point at a superpage still assigned to its `(class, kind)`, with a
    /// matching cell size, an in-bounds end, and only free cells in
    /// `[next, end)`. Returns a description of the first mismatch.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, human-readable.
    pub fn sanitize_check_runs(&self) -> Result<(), String> {
        for (idx, list) in self.lists.iter().enumerate() {
            let Some(run) = list.run else {
                continue;
            };
            let class = (idx / 2) as u8;
            let kind = if idx % 2 == 1 {
                BlockKind::Array
            } else {
                BlockKind::Scalar
            };
            let st = &self.sps[run.sp as usize];
            if st.assignment != Some((class, kind)) {
                return Err(format!(
                    "cached run for class {class} {kind:?} points at sp {} assigned {:?}",
                    run.sp, st.assignment
                ));
            }
            let c = self.classes.class(class);
            if c.cell_bytes != run.cell_bytes {
                return Err(format!(
                    "cached run cell size {} != class {class} cell size {}",
                    run.cell_bytes, c.cell_bytes
                ));
            }
            if run.end.get() > c.cells_per_superpage {
                return Err(format!(
                    "cached run end {} beyond superpage capacity {}",
                    run.end, c.cells_per_superpage
                ));
            }
            for cell in run.next..run.end.get() {
                if st.is_allocated(cell) {
                    return Err(format!(
                        "cached run covers cell {cell} of sp {} which the bitmap says is allocated",
                        run.sp
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decomposes a page-aligned address into (superpage, page-within-sp).
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the space's extent.
    pub fn page_within_sp(&self, page_base: Address) -> (SpIndex, u32) {
        let sp = self.sp_of(page_base);
        let off = (page_base.0 - self.sp_base(sp).0) / BYTES_PER_PAGE;
        (sp, off)
    }
}

/// Iterator over a superpage's allocated cell addresses, in ascending
/// order. See [`MsSpace::allocated_cells_iter`].
#[derive(Clone, Debug)]
pub struct AllocatedCells<'a> {
    words: &'a [u64],
    word_idx: usize,
    /// Remaining bits of the current word.
    word: u64,
    /// One past the last cell index to yield.
    end: u32,
    /// Address of cell 0 (superpage base plus metadata).
    base: Address,
    cell_bytes: u32,
}

impl Iterator for AllocatedCells<'_> {
    type Item = Address;

    fn next(&mut self) -> Option<Address> {
        while self.word == 0 {
            self.word_idx += 1;
            self.word = *self.words.get(self.word_idx)?;
        }
        let cell = self.word_idx as u32 * 64 + self.word.trailing_zeros();
        if cell >= self.end {
            return None;
        }
        self.word &= self.word - 1; // clear lowest set bit
        Some(Address(self.base.0 + cell * self.cell_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_alloc::allocations_during;

    fn space() -> (MsSpace, PagePool) {
        (
            MsSpace::new(Address(0x1040_0000), Address(0x1140_0000)),
            PagePool::new(4096),
        )
    }

    /// A space owns no class table until a superpage is assigned: `new`
    /// allocates nothing, and an allocation that finds no superpage (here,
    /// an exhausted pool) builds nothing either.
    #[test]
    fn the_class_table_is_built_by_the_first_assignment() {
        let (mut ms, allocations) =
            allocations_during(|| MsSpace::new(Address(0x1040_0000), Address(0x1140_0000)));
        assert_eq!(allocations, 0, "MsSpace::new allocates nothing");
        let class = ms.classes().class_for(64).unwrap().index;
        let mut empty = PagePool::new(0);
        assert_eq!(ms.alloc(&mut empty, class, BlockKind::Scalar), None);
        assert!(ms.lists.is_empty());
        let mut pool = PagePool::new(4096);
        ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(ms.lists.len(), 2 * ms.classes().iter().count());
    }

    /// A released superpage leaves its class list, and no list names it,
    /// whether it was the list's head or below it.
    #[test]
    fn release_sp_unlists_the_superpage() {
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let sc = ms.classes().class_for(8184).unwrap();
        assert_eq!(sc.cells_per_superpage, 2);
        // Three superpages, each left with one free cell and re-listed.
        let cells: Vec<Address> = (0..6)
            .map(|_| ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap())
            .collect();
        for pair in cells.chunks(2) {
            ms.free_cell(&mut pool, &mut mem, pair[1]);
            ms.note_partial(ms.sp_of(pair[0]));
        }
        let listed = |ms: &MsSpace, sp: SpIndex| {
            ms.lists
                .iter()
                .filter(|l| l.partial.contains(&sp.0))
                .count()
        };
        let sps: Vec<SpIndex> = cells.chunks(2).map(|p| ms.sp_of(p[0])).collect();
        assert!(sps.iter().all(|&sp| listed(&ms, sp) == 1));
        for (&sp, pair) in sps.iter().zip(cells.chunks(2)).rev() {
            ms.free_cell(&mut pool, &mut mem, pair[0]);
            assert_eq!(listed(&ms, sp), 0, "{sp:?} still listed");
        }
        assert!(ms.lists.iter().all(|l| l.partial.is_empty()));
    }

    #[test]
    fn alloc_fills_one_superpage_before_taking_another() {
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let b = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(ms.sp_of(a), ms.sp_of(b));
        assert_eq!(b.0 - a.0, 64);
        assert_eq!(pool.used(), 4);
        // First cell starts after the 12-byte header.
        assert_eq!(a.0 % BYTES_PER_SUPERPAGE, SUPERPAGE_METADATA_BYTES);
    }

    #[test]
    fn different_kinds_use_different_superpages() {
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(32).unwrap().index;
        let s = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let a = ms.alloc(&mut pool, class, BlockKind::Array).unwrap();
        assert_ne!(ms.sp_of(s), ms.sp_of(a), "scalar/array segregation (§4)");
    }

    #[test]
    fn superpage_exhaustion_extends_the_space() {
        let (mut ms, mut pool) = space();
        let sc = ms.classes().class_for(8184).unwrap();
        assert_eq!(sc.cells_per_superpage, 2);
        let mut addrs = Vec::new();
        for _ in 0..5 {
            addrs.push(ms.alloc(&mut pool, sc.index, BlockKind::Array).unwrap());
        }
        assert_eq!(ms.extent_superpages(), 3);
        assert_eq!(pool.used(), 12);
    }

    #[test]
    fn free_cell_empties_and_releases_superpage() {
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let sc = ms.classes().class_for(8184).unwrap();
        let a = ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap();
        let b = ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        for page in ms.sp_pages(sp) {
            mem.write_word(Address(page.number() * BYTES_PER_PAGE), 7);
        }
        ms.free_cell(&mut pool, &mut mem, a);
        assert!(ms.info(sp).assignment.is_some());
        assert_eq!(
            mem.materialized().count(),
            4,
            "a partial superpage keeps its pages"
        );
        ms.free_cell(&mut pool, &mut mem, b);
        assert!(ms.info(sp).assignment.is_none());
        assert_eq!(
            mem.materialized().count(),
            0,
            "an empty superpage is dropped"
        );
        assert_eq!(pool.used(), 0);
        assert_eq!(ms.free_sps().count(), 1);
        // The free superpage is reused for a different class, and its
        // first cell reads zero.
        let tiny = ms.classes().class_for(8).unwrap().index;
        let c = ms.alloc(&mut pool, tiny, BlockKind::Scalar).unwrap();
        assert_eq!(ms.sp_of(c), sp, "empty superpage reassigned");
        assert_eq!(mem.read_word(c), 0);
    }

    #[test]
    fn release_sp_drops_the_superpage() {
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let b = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        mem.write_word(a, 1);
        mem.write_word(b, 2);
        // A neighbouring superpage's page is not the released one's.
        let next = ms.sp_base(ms.sp_of(a)).offset(BYTES_PER_SUPERPAGE);
        mem.write_word(next, 3);
        ms.release_sp(&mut pool, &mut mem, ms.sp_of(a));
        assert_eq!(
            mem.materialized().collect::<Vec<_>>(),
            [next.page().number()]
        );
        assert_eq!(ms.alloc(&mut pool, class, BlockKind::Scalar), Some(a));
        assert_eq!(mem.read_word(a), 0);
        assert_eq!(mem.read_word(b), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let class = ms.classes().class_for(8).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        // Keep a second cell live so the superpage stays assigned.
        let _b = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        ms.free_cell(&mut pool, &mut mem, a);
        ms.free_cell(&mut pool, &mut mem, a);
    }

    #[test]
    fn allocated_cells_round_trip() {
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(100).unwrap().index;
        let mut addrs: Vec<Address> = (0..10)
            .map(|_| ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap())
            .collect();
        let sp = ms.sp_of(addrs[0]);
        addrs.sort();
        assert_eq!(ms.allocated_cells(sp), addrs);
        for &a in &addrs {
            assert!(ms.is_allocated_cell(a));
            assert!(!ms.is_allocated_cell(a.offset(4)));
        }
    }

    #[test]
    fn cells_overlapping_page_includes_straddlers() {
        let (mut ms, mut pool) = space();
        // 5456-byte cells: cell 0 at 12, cell 1 at 5468, cell 2 at 10924.
        let sc = ms.classes().class_for(5000).unwrap();
        assert_eq!(sc.cell_bytes, 5456);
        for _ in 0..3 {
            ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap();
        }
        let sp = SpIndex(0);
        // Page 1 covers [4096, 8192): overlaps cell 0 (ends 5468) and cell 1.
        let cells: Vec<Address> = ms.cells_overlapping_page(sp, 1).collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0 % BYTES_PER_SUPERPAGE, 12);
        // Page 3 covers [12288, 16384): overlaps cell 2 only.
        assert_eq!(ms.cells_overlapping_page(sp, 3).count(), 1);
    }

    /// The range iterator against the definition: an allocated cell is
    /// yielded exactly when its bytes intersect `[start, end)`.
    #[test]
    fn cells_overlapping_bytes_matches_interval_definition() {
        for size in [8u32, 24, 64, 200, 1000, 5000] {
            let (mut ms, mut pool) = space();
            let mut mem = SimMemory::new();
            let sc = ms.classes().class_for(size).unwrap();
            let cells: Vec<Address> = (0..sc.cells_per_superpage)
                .map(|_| ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap())
                .collect();
            let sp = ms.sp_of(cells[0]);
            assert!(cells.iter().all(|&c| ms.sp_of(c) == sp));
            // Punch holes, keeping a few cells either side of a word edge.
            for (i, &cell) in cells.iter().enumerate() {
                if i % 3 == 1 || (i % 64 > 2 && i % 64 < 61 && i % 5 != 0) {
                    ms.free_cell(&mut pool, &mut mem, cell);
                }
            }
            let base = ms.sp_base(sp).0;
            let edges = [0, 1, 11, 12, 13, 500, 4095, 4096, 4097, 8192, 12288, 16383];
            for (i, &start) in edges.iter().enumerate() {
                for &end in edges[i + 1..].iter().chain(&[BYTES_PER_SUPERPAGE]) {
                    if end <= SUPERPAGE_METADATA_BYTES {
                        continue; // no card or page lies inside the header
                    }
                    let want: Vec<Address> = ms
                        .allocated_cells(sp)
                        .into_iter()
                        .filter(|c| c.0 - base < end && c.0 - base + sc.cell_bytes > start)
                        .collect();
                    let got: Vec<Address> = ms.cells_overlapping_bytes(sp, start, end).collect();
                    assert_eq!(
                        got, want,
                        "cell {} bytes, range {start}..{end}",
                        sc.cell_bytes
                    );
                }
            }
        }
        // An unassigned superpage yields nothing.
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        ms.free_cell(&mut pool, &mut mem, a);
        assert_eq!(ms.cells_overlapping_page(sp, 0).count(), 0);
    }

    #[test]
    fn bookmark_counters_inc_dec() {
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(8).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        assert_eq!(ms.info(sp).incoming_bookmarks, 0);
        ms.inc_incoming_bookmarks(sp);
        ms.inc_incoming_bookmarks(sp);
        assert_eq!(ms.info(sp).incoming_bookmarks, 2);
        assert_eq!(ms.dec_incoming_bookmarks(sp), 1);
        assert_eq!(ms.dec_incoming_bookmarks(sp), 0);
    }

    #[test]
    fn hint_reuses_freed_cells() {
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let class = ms.classes().class_for(8).unwrap().index;
        let addrs: Vec<Address> = (0..5)
            .map(|_| ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap())
            .collect();
        ms.free_cell(&mut pool, &mut mem, addrs[1]);
        let again = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(again, addrs[1], "freed cell is reused first");
    }

    #[test]
    fn word_scan_helpers_cross_word_boundaries() {
        let mut st = SpState {
            alloc_bits: vec![0u64; 4],
            ..SpState::default()
        };
        st.set_allocated(0, true);
        st.set_allocated(70, true);
        assert_eq!(st.first_free_from(0, 256), Some(1));
        assert_eq!(st.first_free_from(70, 256), Some(71));
        assert_eq!(st.first_free_from(255, 256), Some(255));
        assert_eq!(st.first_free_from(256, 256), None);
        // The free run starting after cell 0 ends at the next allocated
        // cell (70), even across a word boundary.
        assert_eq!(st.free_run_end(1, 256), 70);
        assert_eq!(st.free_run_end(71, 256), 256);
        assert_eq!(st.free_run_end(1, 64), 64);
        // Starting on an allocated cell: the run is empty.
        assert_eq!(st.free_run_end(0, 256), 0);
        assert_eq!(st.free_run_end(70, 256), 70);
    }

    #[test]
    fn run_cache_invalidated_by_sweep_free() {
        // Sweep frees cells via free_cell and re-lists the superpage with
        // note_partial; a run cached past the freed cells must not survive,
        // or allocation order would diverge from the bit-scan order.
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let class = ms.classes().class_for(64).unwrap().index;
        let addrs: Vec<Address> = (0..8)
            .map(|_| ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap())
            .collect();
        ms.free_cell(&mut pool, &mut mem, addrs[2]);
        ms.free_cell(&mut pool, &mut mem, addrs[5]);
        ms.note_partial(ms.sp_of(addrs[0]));
        // Bit-scan order: lowest free cell first, then the next one.
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let b = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(a, addrs[2], "freed cell reused first");
        assert_eq!(b, addrs[5], "then the next freed cell");
        // After the holes are refilled, allocation resumes past the top.
        let c = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(c.0, addrs[7].0 + 64);
    }

    #[test]
    fn run_cache_invalidated_by_release_and_reassign() {
        // Compaction releases whole source superpages and they are later
        // reassigned, possibly to a different class. Allocating into a
        // stale run pointing at the released superpage must be impossible.
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let sc = ms.classes().class_for(8184).unwrap();
        assert_eq!(sc.cells_per_superpage, 2);
        let a = ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        // The cached run covers cell 1. Release the superpage outright.
        ms.release_sp(&mut pool, &mut mem, sp);
        assert!(ms.info(sp).assignment.is_none());
        // The next alloc must reassign from scratch and start at cell 0,
        // not bump into cell 1 of the released run.
        let b = ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap();
        assert_eq!(ms.sp_of(b), sp, "free superpage reused");
        assert_eq!(b, a, "allocation restarts at cell 0 after reassignment");
        // Reassignment to a different class and kind is equally safe.
        ms.release_sp(&mut pool, &mut mem, sp);
        let tiny = ms.classes().class_for(8).unwrap().index;
        let c = ms.alloc(&mut pool, tiny, BlockKind::Array).unwrap();
        assert_eq!(ms.sp_of(c), sp);
        assert!(ms.is_allocated_cell(c));
        assert_eq!(ms.info(sp).live_cells, 1);
    }

    #[test]
    fn run_cache_invalidated_by_alloc_in_sp() {
        // Compaction fills target superpages via alloc_in_sp, bypassing
        // the partial lists. A cached run must not hand out a cell the
        // direct path already allocated.
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        let b = ms.alloc_in_sp(sp, class).unwrap();
        let c = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(b.0, a.0 + 64);
        assert_eq!(c.0, b.0 + 64, "run rebuilt past the direct allocation");
        assert_eq!(ms.allocated_cells(sp).len(), 3);
    }

    #[test]
    fn run_cache_invalidated_by_reservation() {
        // Evicted-page reservations mark free cells allocated mid-run; the
        // next alloc must skip them exactly as a bit scan would.
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        // Reserve the byte range holding cells 1 and 2.
        let off = a.0 % BYTES_PER_SUPERPAGE;
        let reserved = ms.reserve_free_cells_in_bytes(sp, off + 64, off + 192);
        assert_eq!(reserved.len(), 2);
        let b = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        assert_eq!(b.0, a.0 + 3 * 64, "allocation skips reserved cells");
    }

    #[test]
    fn allocated_cells_iter_matches_bit_scan() {
        // The word-level iterator visits exactly the cells whose alloc
        // bits are set, in address order, across word boundaries.
        let (mut ms, mut pool) = space();
        let mut mem = SimMemory::new();
        let sc = ms.classes().class_for(8).unwrap();
        let addrs: Vec<Address> = (0..200)
            .map(|_| ms.alloc(&mut pool, sc.index, BlockKind::Scalar).unwrap())
            .collect();
        let sp = ms.sp_of(addrs[0]);
        for &a in addrs.iter().step_by(3) {
            ms.free_cell(&mut pool, &mut mem, a);
        }
        let manual: Vec<Address> = (0..sc.cells_per_superpage)
            .map(|i| Address(ms.sp_base(sp).0 + SUPERPAGE_METADATA_BYTES + i * sc.cell_bytes))
            .filter(|&a| ms.is_allocated_cell(a))
            .collect();
        let via_iter: Vec<Address> = ms.allocated_cells_iter(sp).collect();
        assert_eq!(via_iter, manual);
        // Unassigned superpages iterate as empty.
        ms.release_sp(&mut pool, &mut mem, sp);
        assert_eq!(ms.allocated_cells_iter(sp).count(), 0);
    }

    #[test]
    fn header_page_is_first_page_of_superpage() {
        let (mut ms, mut pool) = space();
        let class = ms.classes().class_for(8).unwrap().index;
        let a = ms.alloc(&mut pool, class, BlockKind::Scalar).unwrap();
        let sp = ms.sp_of(a);
        let pages = ms.sp_pages(sp);
        assert_eq!(ms.header_page(sp), pages[0]);
        assert_eq!(pages[3].number() - pages[0].number(), 3);
    }
}
