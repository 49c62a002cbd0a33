//! Charged memory access: every heap touch goes through the simulated VMM.

use simtime::Clock;
use vmm::{Access, PageState, ProcessId, TouchOutcome, VirtPage, Vmm};

use crate::addr::{Address, BYTES_PER_PAGE};
use crate::mem::SimMemory;

/// The access context threaded through all heap and collector operations:
/// the shared virtual memory manager, this process's clock, and its id.
///
/// `MemCtx` is the **only** path by which collectors and mutators read or
/// write heap memory, which is how the simulation guarantees that every
/// access pays for the pages it touches — including the major faults that
/// the paper's bookmarking collector is designed to avoid.
#[derive(Debug)]
pub struct MemCtx<'a> {
    /// The shared virtual memory manager.
    pub vmm: &'a mut Vmm,
    /// The clock of the process performing the access.
    pub clock: &'a mut Clock,
    /// The accessing process.
    pub pid: ProcessId,
}

impl<'a> MemCtx<'a> {
    /// Creates a context for `pid`.
    pub fn new(vmm: &'a mut Vmm, clock: &'a mut Clock, pid: ProcessId) -> MemCtx<'a> {
        MemCtx { vmm, clock, pid }
    }

    /// Touches every page of `[addr, addr+len)`, faulting as needed, and
    /// zero-fills any demand-zero pages in the backing store.
    ///
    /// Nearly every access lies within one page: that case is one inlined
    /// [`Vmm::touch`] whose outcome is returned as is. Ranges that cross a
    /// page boundary take the outlined span loop.
    ///
    /// `always`: under plain `#[inline]` LLVM keeps one local copy per
    /// codegen unit and *calls* it from most collector entry points, which
    /// puts a call back between a collector and every word it reads.
    #[inline(always)]
    pub fn touch(
        &mut self,
        mem: &mut SimMemory,
        addr: Address,
        len: u32,
        access: Access,
    ) -> TouchOutcome {
        debug_assert!(len > 0);
        let first = addr.page().number();
        let last = Address(addr.0 + len - 1).page().number();
        if first == last {
            return self.touch_page(mem, first, access);
        }
        self.touch_span(mem, first, last, access)
    }

    /// One charged page touch plus the demand-zero fill it may call for.
    /// A page discarded through [`madvise_dontneed`](MemCtx::madvise_dontneed)
    /// is already gone from `mem`, so its fill is a no-op; the fill wipes
    /// what else can be left under an unmapped page — a page a raw
    /// [`Vmm::madvise_dontneed`] discarded, or one written without a touch.
    #[inline(always)]
    fn touch_page(&mut self, mem: &mut SimMemory, page: u32, access: Access) -> TouchOutcome {
        let o = self
            .vmm
            .touch(self.pid, vmm::VirtPage::new(page), access, self.clock);
        if o.zero_filled {
            mem.zero(Address(page * BYTES_PER_PAGE), BYTES_PER_PAGE);
        }
        o
    }

    /// Touches pages `first..=last` in order and ORs the outcomes. The
    /// range is empty when `last < first`, which is what a zero `len` at a
    /// page boundary produces in a release build: no page is touched.
    #[inline(never)]
    fn touch_span(
        &mut self,
        mem: &mut SimMemory,
        first: u32,
        last: u32,
        access: Access,
    ) -> TouchOutcome {
        let mut combined = TouchOutcome::default();
        for p in first..=last {
            let o = self.touch_page(mem, p, access);
            combined.major_fault |= o.major_fault;
            combined.zero_filled |= o.zero_filled;
            combined.protection_fault |= o.protection_fault;
            combined.events_queued |= o.events_queued;
        }
        combined
    }

    /// Reads the word at `addr`, charging the touch.
    #[inline]
    pub fn read_word(&mut self, mem: &mut SimMemory, addr: Address) -> u32 {
        self.touch(mem, addr, 4, Access::Read);
        mem.read_word(addr)
    }

    /// Writes the word at `addr`, charging the touch.
    #[inline]
    pub fn write_word(&mut self, mem: &mut SimMemory, addr: Address, value: u32) {
        self.touch(mem, addr, 4, Access::Write);
        mem.write_word(addr, value);
    }

    /// `madvise(MADV_DONTNEED)` for this process: the VMM frees the frames
    /// and swap copies of `pages` ([`Vmm::madvise_dontneed`]), and every
    /// page it actually discarded — now [`PageState::Unmapped`] — is
    /// dropped from `mem` too, so a page the heap gives back owns no host
    /// memory (DESIGN.md §10.6). Locked pages are skipped by the VMM and
    /// keep their contents.
    pub fn madvise_dontneed(&mut self, mem: &mut SimMemory, pages: &[VirtPage]) {
        self.vmm.madvise_dontneed(self.pid, pages, self.clock);
        for &page in pages {
            if self.vmm.page_state(self.pid, page) == PageState::Unmapped {
                mem.discard(page.number());
            }
        }
    }

    /// Major faults this process has taken so far (for attribution).
    pub fn major_faults(&self) -> u64 {
        self.vmm.stats(self.pid).major_faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::CostModel;
    use vmm::VmmConfig;

    fn ctx_parts() -> (Vmm, Clock) {
        (
            Vmm::new(
                VmmConfig::builder().frames(64).build(),
                CostModel::default(),
            ),
            Clock::new(),
        )
    }

    #[test]
    fn read_write_charge_and_round_trip() {
        let (mut vmm, mut clock) = ctx_parts();
        let pid = vmm.register_process();
        let mut mem = SimMemory::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        ctx.write_word(&mut mem, Address(0x1000), 99);
        assert_eq!(ctx.read_word(&mut mem, Address(0x1000)), 99);
        assert!(ctx.clock.now().as_nanos() > 0);
        assert!(ctx.vmm.is_resident(pid, Address(0x1000).page()));
    }

    #[test]
    fn discarded_pages_reread_as_zero() {
        let (mut vmm, mut clock) = ctx_parts();
        let pid = vmm.register_process();
        let mut mem = SimMemory::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        ctx.write_word(&mut mem, Address(0x2000), 1234);
        // A second page, locked: the VMM skips it.
        ctx.write_word(&mut mem, Address(0x3000), 5678);
        ctx.vmm.mlock(pid, Address(0x3000).page(), ctx.clock);
        assert_eq!(mem.materialized_pages(), 2);
        let pages = [Address(0x2000).page(), Address(0x3000).page()];
        ctx.madvise_dontneed(&mut mem, &pages);
        // The discarded page is gone from the simulated memory before any
        // touch: a raw read sees zero and its host page is freed.
        assert_eq!(ctx.vmm.page_state(pid, pages[0]), PageState::Unmapped);
        assert_eq!(mem.read_word(Address(0x2000)), 0);
        assert_eq!(mem.materialized().collect::<Vec<_>>(), [pages[1].number()]);
        // The locked page keeps its frame, its contents and its host page.
        assert_eq!(ctx.vmm.page_state(pid, pages[1]), PageState::Resident);
        assert_eq!(mem.read_word(Address(0x3000)), 5678);
        // A charged read observes the demand-zero fill.
        assert_eq!(ctx.read_word(&mut mem, Address(0x2000)), 0);
        assert_eq!(ctx.read_word(&mut mem, Address(0x3000)), 5678);
        assert_eq!(mem.materialized_pages(), 1);
    }

    /// A raw `Vmm::madvise_dontneed` leaves the host page in place; the
    /// next charged touch wipes it.
    #[test]
    fn raw_vmm_discards_are_wiped_at_the_next_touch() {
        let (mut vmm, mut clock) = ctx_parts();
        let pid = vmm.register_process();
        let mut mem = SimMemory::new();
        MemCtx::new(&mut vmm, &mut clock, pid).write_word(&mut mem, Address(0x2000), 1234);
        vmm.madvise_dontneed(pid, &[Address(0x2000).page()], &mut clock);
        assert_eq!(mem.read_word(Address(0x2000)), 1234);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        assert_eq!(ctx.read_word(&mut mem, Address(0x2000)), 0);
    }

    #[test]
    fn touch_spans_multiple_pages() {
        let (mut vmm, mut clock) = ctx_parts();
        let pid = vmm.register_process();
        let mut mem = SimMemory::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        let o = ctx.touch(&mut mem, Address(4000), 8192, Access::Write);
        assert!(o.zero_filled);
        for p in 0..3 {
            assert!(ctx.vmm.is_resident(pid, vmm::VirtPage::new(p)));
        }
        assert!(!ctx.vmm.is_resident(pid, vmm::VirtPage::new(3)));
        // 100 bytes from 50 before the page 3 / page 4 boundary: those two
        // pages, and not page 5.
        let o = ctx.touch(&mut mem, Address(4 * 4096 - 50), 100, Access::Write);
        assert!(o.zero_filled);
        assert!(ctx.vmm.is_resident(pid, vmm::VirtPage::new(4)));
        assert!(!ctx.vmm.is_resident(pid, vmm::VirtPage::new(5)));
        // The outcomes are ORed: only the second page of this straddle is
        // new, and the range still reports the demand-zero fill.
        let o = ctx.touch(&mut mem, Address(5 * 4096 - 4), 8, Access::Read);
        assert!(o.zero_filled);
        assert!(ctx.vmm.is_resident(pid, vmm::VirtPage::new(5)));
    }

    /// One `Vmm::touch` per page of the range, whichever of `touch`'s two
    /// bodies serves it.
    #[test]
    fn touches_per_call_follow_the_pages_of_the_range() {
        let (mut vmm, mut clock) = ctx_parts();
        let pid = vmm.register_process();
        let mut mem = SimMemory::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        let ram_word = ctx.vmm.costs().ram_word;
        // (address, length, pages): inside one page, a whole page, the
        // last word of a page, an eight-byte header straddling two pages,
        // two bytes either side of a boundary, and three- and five-page
        // runs.
        let cases = [
            (0x1000, 4, 1),
            (0x1000, 4096, 1),
            (0x1ffc, 4, 1),
            (0x1ffc, 8, 2),
            (0x2fff, 2, 2),
            (4000, 8192, 3),
            (0x5000, 4 * 4096 + 1, 5),
        ];
        for (addr, len, pages) in cases {
            // Warm: the second pass takes no faults, so the clock moves by
            // exactly one RAM access per page too.
            ctx.touch(&mut mem, Address(addr), len, Access::Write);
            let (t0, now0) = (ctx.vmm.stats(pid).touches, ctx.clock.now());
            let o = ctx.touch(&mut mem, Address(addr), len, Access::Read);
            assert_eq!(
                ctx.vmm.stats(pid).touches - t0,
                pages,
                "touch({addr:#x}, {len})"
            );
            assert_eq!(ctx.clock.now() - now0, ram_word * pages);
            assert_eq!(o, TouchOutcome::default());
        }
    }

    /// A zero `len` is a caller bug (`debug_assert`), but release builds
    /// have always given it a meaning, which the single-page early return
    /// must not change: `addr + 0 - 1` lies on the previous page exactly
    /// when `addr` is page-aligned, so the range is empty there and one
    /// page everywhere else.
    #[cfg(not(debug_assertions))]
    #[test]
    fn zero_length_touch_keeps_its_release_meaning() {
        let (mut vmm, mut clock) = ctx_parts();
        let pid = vmm.register_process();
        let mut mem = SimMemory::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        ctx.touch(&mut mem, Address(0x3000), 0, Access::Read);
        assert_eq!(ctx.vmm.stats(pid).touches, 0);
        assert!(!ctx.vmm.is_resident(pid, Address(0x3000).page()));
        ctx.touch(&mut mem, Address(0x3004), 0, Access::Read);
        assert_eq!(ctx.vmm.stats(pid).touches, 1);
    }
}
