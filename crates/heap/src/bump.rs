//! A bump-pointer space: the nursery, and the semispaces of the copying
//! collectors.

use crate::addr::{Address, BYTES_PER_PAGE};
use crate::mem::SimMemory;
use crate::pool::PagePool;

/// Pages acquired from the pool per growth step.
const GROW_PAGES: u32 = 16;

/// A contiguous bump-allocated space within one address region.
///
/// The space grows its mapped extent page-wise from a shared [`PagePool`];
/// running out of pool budget (not out of region) is the allocation-failure
/// signal that triggers collection.
#[derive(Clone, Debug)]
pub struct BumpSpace {
    base: Address,
    region_limit: Address,
    top: Address,
    /// End of the currently mapped extent.
    extent: Address,
}

impl BumpSpace {
    /// An empty space over `[base, region_limit)`.
    ///
    /// # Panics
    ///
    /// Panics unless both bounds are page-aligned.
    pub fn new(base: Address, region_limit: Address) -> BumpSpace {
        assert_eq!(base.0 % BYTES_PER_PAGE, 0);
        assert_eq!(region_limit.0 % BYTES_PER_PAGE, 0);
        BumpSpace {
            base,
            region_limit,
            top: base,
            extent: base,
        }
    }

    /// Bump-allocates `bytes` (word multiple), growing the extent from
    /// `pool` as needed. Returns `None` when the pool budget (or the region)
    /// is exhausted — the caller should collect.
    #[inline]
    pub fn alloc(&mut self, pool: &mut PagePool, bytes: u32) -> Option<Address> {
        debug_assert!(bytes.is_multiple_of(4) && bytes > 0);
        let new_top = self.top.0.checked_add(bytes)?;
        if new_top > self.extent.0 {
            return self.grow_and_alloc(pool, new_top);
        }
        let obj = self.top;
        self.top = Address(new_top);
        Some(obj)
    }

    /// The out-of-line growth path of [`alloc`](BumpSpace::alloc): extends
    /// the mapped extent from `pool`, then bumps.
    #[cold]
    fn grow_and_alloc(&mut self, pool: &mut PagePool, new_top: u32) -> Option<Address> {
        let deficit = new_top - self.extent.0;
        let grow_pages = deficit.div_ceil(BYTES_PER_PAGE).max(GROW_PAGES);
        let grow_pages = grow_pages.min((self.region_limit.0 - self.extent.0) / BYTES_PER_PAGE);
        if self.extent.0 + grow_pages * BYTES_PER_PAGE < new_top {
            return None; // region exhausted
        }
        if !pool.acquire(grow_pages as usize) {
            // Try the exact deficit before giving up.
            let exact = deficit.div_ceil(BYTES_PER_PAGE);
            if exact == grow_pages || !pool.acquire(exact as usize) {
                return None;
            }
            self.extent = self.extent.offset(exact * BYTES_PER_PAGE);
        } else {
            self.extent = self.extent.offset(grow_pages * BYTES_PER_PAGE);
        }
        let obj = self.top;
        self.top = Address(new_top);
        Some(obj)
    }

    /// Like [`alloc`](BumpSpace::alloc), but overruns the pool budget rather
    /// than failing (copying collectors must not fail mid-collection; the
    /// overrun is reported as out-of-memory afterwards). Still fails when
    /// the address *region* is exhausted.
    pub fn alloc_forced(&mut self, pool: &mut PagePool, bytes: u32) -> Option<Address> {
        if let Some(addr) = self.alloc(pool, bytes) {
            return Some(addr);
        }
        let new_top = self.top.0.checked_add(bytes)?;
        if new_top > self.region_limit.0 {
            return None;
        }
        if new_top > self.extent.0 {
            let grow = (new_top - self.extent.0).div_ceil(BYTES_PER_PAGE);
            pool.force_acquire(grow as usize);
            self.extent = self.extent.offset(grow * BYTES_PER_PAGE);
        }
        let obj = self.top;
        self.top = Address(new_top);
        Some(obj)
    }

    /// Resets the bump pointer, keeping the mapped extent (nursery reuse).
    pub fn reset(&mut self) {
        self.top = self.base;
    }

    /// Releases the whole mapped extent back to `pool`, dropping each of its
    /// pages from `mem`: a released page owns no host memory and reads as
    /// zero until it is written again (DESIGN.md §10.6).
    pub fn release_all(&mut self, pool: &mut PagePool, mem: &mut SimMemory) {
        for page in self.base.page().number()..self.extent.page().number() {
            mem.discard(page);
        }
        pool.release(self.extent_pages());
        self.top = self.base;
        self.extent = self.base;
    }

    /// Whether `addr` lies in this space's *region* (not just the used part).
    pub fn region_contains(&self, addr: Address) -> bool {
        addr >= self.base && addr < self.region_limit
    }

    /// Whether `addr` lies in the mapped extent (allocated or not).
    pub fn extent_contains(&self, addr: Address) -> bool {
        addr >= self.base && addr < self.extent
    }

    /// Whether `addr` lies below the current bump pointer.
    pub fn contains_allocated(&self, addr: Address) -> bool {
        addr >= self.base && addr < self.top
    }

    /// The first address of the space.
    pub fn base(&self) -> Address {
        self.base
    }

    /// The current bump pointer.
    pub fn top(&self) -> Address {
        self.top
    }

    /// Bytes allocated since the last reset.
    pub fn used_bytes(&self) -> u32 {
        self.top.0 - self.base.0
    }

    /// Pages currently mapped.
    pub fn extent_pages(&self) -> usize {
        ((self.extent.0 - self.base.0) / BYTES_PER_PAGE) as usize
    }

    /// Remaining bytes before the region (not the pool) is exhausted.
    pub fn region_headroom(&self) -> u32 {
        self.region_limit.0 - self.top.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (BumpSpace, PagePool) {
        (
            BumpSpace::new(Address(0x10000), Address(0x20000)), // 16 pages
            PagePool::new(64),
        )
    }

    #[test]
    fn allocations_are_contiguous() {
        let (mut s, mut pool) = space();
        let a = s.alloc(&mut pool, 16).unwrap();
        let b = s.alloc(&mut pool, 24).unwrap();
        assert_eq!(a, Address(0x10000));
        assert_eq!(b, Address(0x10010));
        assert_eq!(s.used_bytes(), 40);
        assert!(s.contains_allocated(a));
        assert!(!s.contains_allocated(Address(0x10030)));
    }

    #[test]
    fn growth_draws_from_pool() {
        let (mut s, mut pool) = space();
        s.alloc(&mut pool, 8).unwrap();
        assert_eq!(pool.used(), 16); // one GROW_PAGES step
                                     // Fill the region (16 pages = 65536 bytes).
        assert!(s.alloc(&mut pool, 65536 - 8).is_some());
        assert!(s.alloc(&mut pool, 8).is_none(), "region exhausted");
    }

    #[test]
    fn pool_exhaustion_fails_allocation() {
        let mut s = BumpSpace::new(Address(0x10000), Address(0x110000));
        let mut pool = PagePool::new(4);
        // GROW_PAGES=16 won't fit; falls back to the exact deficit.
        assert!(s.alloc(&mut pool, BYTES_PER_PAGE * 4).is_some());
        assert!(s.alloc(&mut pool, 8).is_none());
    }

    #[test]
    fn reset_keeps_extent() {
        let (mut s, mut pool) = space();
        s.alloc(&mut pool, 4096 * 3).unwrap();
        let pages_before = s.extent_pages();
        s.reset();
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(s.extent_pages(), pages_before);
        assert_eq!(pool.used(), pages_before);
    }

    #[test]
    fn release_all_returns_pages_to_pool() {
        let (mut s, mut pool) = space();
        let mut mem = SimMemory::new();
        let a = s.alloc(&mut pool, 4096 * 3).unwrap();
        for page in 0..3 {
            mem.write_word(a.offset(page * BYTES_PER_PAGE), 7);
        }
        s.release_all(&mut pool, &mut mem);
        assert_eq!(pool.used(), 0);
        assert_eq!(s.extent_pages(), 0);
        assert_eq!(mem.materialized().count(), 0);
        // The re-grown space's first cell reads zero.
        let b = s.alloc(&mut pool, 16).unwrap();
        assert_eq!(b, a);
        assert_eq!(mem.read_word(b), 0);
    }
}
