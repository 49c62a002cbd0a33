//! The one page-map shape of the simulator: a sparse radix tree over the
//! 20-bit page numbers of the 32-bit simulated address space.
//!
//! Three per-process tables are keyed by page number — the VMM's page table,
//! `heap::SimMemory`'s page directory and BC's residency bit array — and the
//! heap layout scatters its regions over ~3 GiB of that space, so none of
//! them may be dense in page number: a fleet holds thousands of each. A
//! [`PageMap`] resolves a page number in three fixed steps, each a masked
//! index (no bounds check, no search):
//!
//! ```text
//! page number  19 ........ 14 | 13 ........ 7 | 6 ........ 0
//!              root (64)        inner (128)     leaf slot (128 pages)
//! ```
//!
//! The root is the map itself; inner nodes (1 KiB) and leaves are boxed and
//! allocated on the first write under them, so a table costs what its
//! process touches: one inner node per 64 MiB region touched and one leaf
//! per 128 pages. Lookups never allocate. The leaf type is the caller's: an
//! array of per-page entries (`[T; LEAF_PAGES]`, with the element accessors
//! below) or any other per-128-page record, such as a bit array.

use core::fmt;

/// Page-number bits resolved by the root.
const ROOT_BITS: u32 = 6;
/// Page-number bits resolved by an inner node.
const INNER_BITS: u32 = 7;
/// Page-number bits resolved within a leaf.
const LEAF_BITS: u32 = 7;

/// Bits in a page number: 32-bit addresses over 4 KiB pages.
const PAGE_NUMBER_BITS: u32 = ROOT_BITS + INNER_BITS + LEAF_BITS;
const _: () = assert!(1 << (32 - PAGE_NUMBER_BITS) == crate::PAGE_BYTES);

/// Pages covered by one leaf.
pub const LEAF_PAGES: usize = 1 << LEAF_BITS;

const ROOT_LEN: usize = 1 << ROOT_BITS;
const INNER_LEN: usize = 1 << INNER_BITS;

type Inner<L> = [Option<Box<L>>; INNER_LEN];

/// The position of `page` within its leaf.
#[inline]
pub const fn leaf_slot(page: u32) -> usize {
    page as usize & (LEAF_PAGES - 1)
}

#[inline]
fn root_index(page: u32) -> usize {
    debug_assert!(page >> PAGE_NUMBER_BITS == 0, "page {page} out of range");
    (page >> (INNER_BITS + LEAF_BITS)) as usize & (ROOT_LEN - 1)
}

#[inline]
fn inner_index(page: u32) -> usize {
    (page >> LEAF_BITS) as usize & (INNER_LEN - 1)
}

/// A sparse map from page number to a leaf `L` covering [`LEAF_PAGES`]
/// consecutive pages (see the [module docs](self)).
#[derive(Clone)]
pub struct PageMap<L> {
    root: [Option<Box<Inner<L>>>; ROOT_LEN],
}

impl<L> Default for PageMap<L> {
    fn default() -> PageMap<L> {
        PageMap::new()
    }
}

impl<L> fmt::Debug for PageMap<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageMap")
            .field("leaves", &self.leaves().count())
            .finish()
    }
}

impl<L> PageMap<L> {
    /// An empty map: it owns no node.
    pub const fn new() -> PageMap<L> {
        PageMap {
            root: [const { None }; ROOT_LEN],
        }
    }

    /// The leaf covering `page`, if one was ever inserted.
    #[inline]
    pub fn leaf(&self, page: u32) -> Option<&L> {
        self.root[root_index(page)].as_deref()?[inner_index(page)].as_deref()
    }

    /// The leaf covering `page` for writing, if one was ever inserted.
    #[inline]
    pub fn leaf_mut(&mut self, page: u32) -> Option<&mut L> {
        self.root[root_index(page)].as_deref_mut()?[inner_index(page)].as_deref_mut()
    }

    /// The leaf covering `page`, inserting `make()` (and the inner node
    /// above it) if there is none. Where both exist this is the same walk
    /// as [`leaf_mut`](PageMap::leaf_mut).
    #[inline]
    pub fn leaf_or_insert_with(&mut self, page: u32, make: impl FnOnce() -> Box<L>) -> &mut L {
        let inner = self.root[root_index(page)].get_or_insert_with(empty_inner);
        inner[inner_index(page)].get_or_insert_with(make)
    }

    /// Every leaf with the number of its first page, in ascending page
    /// order.
    pub fn leaves(&self) -> impl Iterator<Item = (u32, &L)> + '_ {
        self.root
            .iter()
            .enumerate()
            .filter_map(|(r, inner)| Some((r, inner.as_deref()?)))
            .flat_map(|(r, inner)| {
                inner.iter().enumerate().filter_map(move |(i, leaf)| {
                    let first = (((r << INNER_BITS) | i) << LEAF_BITS) as u32;
                    Some((first, leaf.as_deref()?))
                })
            })
    }
}

/// Element access for the common leaf shape, one entry per page. An entry
/// in an allocated leaf starts as `T::default()`, which must read the same
/// as the page having no leaf at all.
impl<T> PageMap<[T; LEAF_PAGES]> {
    /// The entry for `page`, if its leaf exists.
    #[inline]
    pub fn get(&self, page: u32) -> Option<&T> {
        Some(&self.leaf(page)?[leaf_slot(page)])
    }

    /// The entry for `page` for writing, if its leaf exists.
    #[inline]
    pub fn get_mut(&mut self, page: u32) -> Option<&mut T> {
        Some(&mut self.leaf_mut(page)?[leaf_slot(page)])
    }

    /// The entry for `page`, materialising its leaf if needed.
    #[inline]
    pub fn get_or_default(&mut self, page: u32) -> &mut T
    where
        T: Default,
    {
        &mut self.leaf_or_insert_with(page, default_leaf)[leaf_slot(page)]
    }
}

/// A fresh inner node. Outlined and cold, like [`default_leaf`], so a walk
/// that materialises keeps the hot path of one that does not.
#[cold]
#[inline(never)]
fn empty_inner<L>() -> Box<Inner<L>> {
    Box::new([const { None }; INNER_LEN])
}

#[cold]
#[inline(never)]
fn default_leaf<T: Default>() -> Box<[T; LEAF_PAGES]> {
    Box::new(core::array::from_fn(|_| T::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_map_reads_absent_everywhere() {
        let m: PageMap<[u8; LEAF_PAGES]> = PageMap::new();
        for page in [0, 1, 127, 128, 1 << 14, (1 << 20) - 1] {
            assert!(m.get(page).is_none());
        }
        assert_eq!(m.leaves().count(), 0);
    }

    #[test]
    fn entries_round_trip_and_share_a_leaf_per_128_pages() {
        let mut m: PageMap<[u32; LEAF_PAGES]> = PageMap::new();
        *m.get_or_default(5) = 50;
        *m.get_or_default(127) = 1270;
        *m.get_or_default(128) = 1280;
        assert_eq!(m.get(5), Some(&50));
        assert_eq!(m.get(6), Some(&0), "a leaf's other entries read as default");
        assert_eq!(m.get(127), Some(&1270));
        assert_eq!(m.get(128), Some(&1280));
        assert!(m.get(256).is_none());
        assert_eq!(m.leaves().count(), 2);
    }

    #[test]
    fn leaves_come_in_ascending_order_with_their_first_page() {
        let mut m: PageMap<[u8; LEAF_PAGES]> = PageMap::new();
        for page in [(1 << 20) - 1, 590_848, 0, 66_560, 1_000, 16_384] {
            *m.get_or_default(page) = 1;
        }
        let firsts: Vec<u32> = m.leaves().map(|(first, _)| first).collect();
        assert_eq!(firsts, [0, 896, 16_384, 66_560, 590_848, (1 << 20) - 128]);
    }

    #[test]
    fn pages_one_bit_apart_never_share_an_entry() {
        for base in [0u32, 0x5_5555, 0xA_AAAA, (1 << 20) - 1] {
            let mut m: PageMap<[u32; LEAF_PAGES]> = PageMap::new();
            *m.get_or_default(base) = u32::MAX;
            for bit in 0..PAGE_NUMBER_BITS {
                let other = base ^ (1 << bit);
                assert_ne!(m.get(other), Some(&u32::MAX), "{base:#x} vs {other:#x}");
                *m.get_or_default(other) = other;
            }
            assert_eq!(m.get(base), Some(&u32::MAX));
        }
    }

    #[test]
    fn the_map_itself_is_only_its_root() {
        assert_eq!(
            core::mem::size_of::<PageMap<[u64; 2]>>(),
            ROOT_LEN * core::mem::size_of::<usize>()
        );
    }
}
