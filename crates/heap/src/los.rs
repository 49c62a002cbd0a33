//! The page-based large object space (objects over 8180 bytes, §3).

use std::collections::BTreeMap;

use vmm::VirtPage;

use crate::addr::{Address, BYTES_PER_PAGE};
use crate::mem::SimMemory;
use crate::pool::PagePool;

/// A page-granular allocator for large objects.
///
/// Each object occupies a whole number of pages; freed runs are coalesced
/// with their neighbours. The object's header lives in its first page, so
/// liveness checks touch only that page.
#[derive(Debug)]
pub struct LargeObjectSpace {
    base: Address,
    region_limit: Address,
    /// Frontier of never-used space.
    cursor: Address,
    /// Free runs: start address → page count.
    free_runs: BTreeMap<u32, u32>,
    /// Live objects: start address → page count.
    objects: BTreeMap<u32, u32>,
}

impl LargeObjectSpace {
    /// An empty space over `[base, region_limit)` (page-aligned).
    ///
    /// # Panics
    ///
    /// Panics unless the bounds are page-aligned.
    pub fn new(base: Address, region_limit: Address) -> LargeObjectSpace {
        assert_eq!(base.0 % BYTES_PER_PAGE, 0);
        assert_eq!(region_limit.0 % BYTES_PER_PAGE, 0);
        LargeObjectSpace {
            base,
            region_limit,
            cursor: base,
            free_runs: BTreeMap::new(),
            objects: BTreeMap::new(),
        }
    }

    /// Allocates an object of `bytes`, rounded up to whole pages. Returns
    /// `None` when the pool (or region) is exhausted.
    pub fn alloc(&mut self, pool: &mut PagePool, bytes: u32) -> Option<Address> {
        let pages = bytes.div_ceil(BYTES_PER_PAGE);
        // First fit over the free runs.
        let fit = self
            .free_runs
            .iter()
            .find(|&(_, &len)| len >= pages)
            .map(|(&start, &len)| (start, len));
        let addr = if let Some((start, len)) = fit {
            if !pool.acquire(pages as usize) {
                return None;
            }
            self.free_runs.remove(&start);
            if len > pages {
                self.free_runs
                    .insert(start + pages * BYTES_PER_PAGE, len - pages);
            }
            Address(start)
        } else {
            let start = self.cursor;
            if start.0 + pages * BYTES_PER_PAGE > self.region_limit.0 {
                return None;
            }
            if !pool.acquire(pages as usize) {
                return None;
            }
            self.cursor = start.offset(pages * BYTES_PER_PAGE);
            start
        };
        self.objects.insert(addr.0, pages);
        Some(addr)
    }

    /// Frees the object at `addr`, releasing its budget to `pool` and
    /// dropping its pages from `mem`: a freed object's pages own no host
    /// memory and read as zero until they are written again (DESIGN.md
    /// §10.6).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live large object.
    pub fn free(&mut self, pool: &mut PagePool, mem: &mut SimMemory, addr: Address) {
        let pages = self
            .objects
            .remove(&addr.0)
            .expect("free of non-LOS object");
        pool.release(pages as usize);
        let first = addr.page().number();
        for page in first..first + pages {
            mem.discard(page);
        }
        // Insert and coalesce.
        let mut start = addr.0;
        let mut len = pages;
        if let Some((&pstart, &plen)) = self.free_runs.range(..start).next_back() {
            if pstart + plen * BYTES_PER_PAGE == start {
                self.free_runs.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        if let Some(&nlen) = self.free_runs.get(&(addr.0 + pages * BYTES_PER_PAGE)) {
            self.free_runs.remove(&(addr.0 + pages * BYTES_PER_PAGE));
            len += nlen;
        }
        self.free_runs.insert(start, len);
    }

    /// Whether `addr` is the start of a live large object.
    pub fn is_live_object(&self, addr: Address) -> bool {
        self.objects.contains_key(&addr.0)
    }

    /// Whether `addr` falls in this space's region.
    pub fn region_contains(&self, addr: Address) -> bool {
        addr >= self.base && addr < self.region_limit
    }

    /// All live objects (address, page count), ascending.
    pub fn objects(&self) -> Vec<(Address, u32)> {
        self.objects
            .iter()
            .map(|(&a, &p)| (Address(a), p))
            .collect()
    }

    /// The object containing `addr`, if any (addresses may point into the
    /// middle of a large object's pages during page scans).
    pub fn object_containing(&self, addr: Address) -> Option<(Address, u32)> {
        let (&start, &pages) = self.objects.range(..=addr.0).next_back()?;
        if addr.0 < start + pages * BYTES_PER_PAGE {
            Some((Address(start), pages))
        } else {
            None
        }
    }

    /// Pages of the object at `addr`.
    pub fn pages_of(&self, addr: Address) -> Vec<VirtPage> {
        let pages = self.objects[&addr.0];
        (0..pages)
            .map(|i| Address(addr.0 + i * BYTES_PER_PAGE).page())
            .collect()
    }

    /// Number of live large objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the space holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> (LargeObjectSpace, PagePool, SimMemory) {
        (
            LargeObjectSpace::new(Address(0x9040_0000), Address(0x9140_0000)),
            PagePool::new(4096),
            SimMemory::new(),
        )
    }

    #[test]
    fn alloc_rounds_to_pages() {
        let (mut los, mut pool, _) = space();
        let a = los.alloc(&mut pool, 9000).unwrap();
        assert_eq!(pool.used(), 3);
        assert!(los.is_live_object(a));
        assert_eq!(los.pages_of(a).len(), 3);
    }

    #[test]
    fn free_reuses_space_first_fit() {
        let (mut los, mut pool, mut mem) = space();
        let a = los.alloc(&mut pool, BYTES_PER_PAGE * 4).unwrap();
        let b = los.alloc(&mut pool, BYTES_PER_PAGE * 2).unwrap();
        los.free(&mut pool, &mut mem, a);
        assert!(!los.is_live_object(a));
        // A 3-page object fits in the 4-page hole.
        let c = los.alloc(&mut pool, BYTES_PER_PAGE * 3).unwrap();
        assert_eq!(c, a);
        // And a 1-page object fits in the remaining hole before b.
        let d = los.alloc(&mut pool, 100).unwrap();
        assert!(d < b);
        let _ = b;
    }

    #[test]
    fn free_drops_the_objects_pages() {
        let (mut los, mut pool, mut mem) = space();
        let a = los.alloc(&mut pool, BYTES_PER_PAGE * 3).unwrap();
        let b = los.alloc(&mut pool, BYTES_PER_PAGE).unwrap();
        for page in 0..3 {
            mem.write_word(a.offset(page * BYTES_PER_PAGE + 8), 7);
        }
        mem.write_word(b, 9);
        los.free(&mut pool, &mut mem, a);
        assert_eq!(mem.materialized().collect::<Vec<_>>(), [b.page().number()]);
        // A re-allocated object in the freed run reads zero.
        let c = los.alloc(&mut pool, BYTES_PER_PAGE * 2).unwrap();
        assert_eq!(c, a);
        assert_eq!(mem.read_word(c.offset(BYTES_PER_PAGE + 8)), 0);
        assert_eq!(mem.read_word(b), 9);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let (mut los, mut pool, mut mem) = space();
        let a = los.alloc(&mut pool, BYTES_PER_PAGE * 2).unwrap();
        let b = los.alloc(&mut pool, BYTES_PER_PAGE * 2).unwrap();
        let c = los.alloc(&mut pool, BYTES_PER_PAGE * 2).unwrap();
        let _guard = los.alloc(&mut pool, BYTES_PER_PAGE).unwrap();
        los.free(&mut pool, &mut mem, a);
        los.free(&mut pool, &mut mem, c);
        los.free(&mut pool, &mut mem, b); // merges with both neighbours
        let big = los.alloc(&mut pool, BYTES_PER_PAGE * 6).unwrap();
        assert_eq!(big, a, "coalesced run re-used");
    }

    #[test]
    fn object_containing_finds_interior_addresses() {
        let (mut los, mut pool, _) = space();
        let a = los.alloc(&mut pool, BYTES_PER_PAGE * 3).unwrap();
        assert_eq!(los.object_containing(a), Some((a, 3)));
        assert_eq!(
            los.object_containing(a.offset(2 * BYTES_PER_PAGE + 100)),
            Some((a, 3))
        );
        assert_eq!(los.object_containing(a.offset(3 * BYTES_PER_PAGE)), None);
    }

    #[test]
    #[should_panic(expected = "non-LOS object")]
    fn free_of_unknown_address_panics() {
        let (mut los, mut pool, mut mem) = space();
        los.free(&mut pool, &mut mem, Address(0x9040_0000));
    }

    #[test]
    fn pool_exhaustion_fails() {
        let mut los = LargeObjectSpace::new(Address(0x9040_0000), Address(0x9140_0000));
        let mut pool = PagePool::new(2);
        assert!(los.alloc(&mut pool, BYTES_PER_PAGE * 3).is_none());
        assert!(los.alloc(&mut pool, BYTES_PER_PAGE * 2).is_some());
        assert!(los.alloc(&mut pool, 1).is_none());
    }
}
