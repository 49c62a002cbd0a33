//! BC's private page-residency bookkeeping (§3.3.1).
//!
//! "To limit overhead due to communication with the virtual memory manager,
//! BC tracks page residency internally. … During garbage collection, the
//! collector uses this bit array to avoid following pointers into pages that
//! are not resident."

use heap::Address;
use vmm::pagemap::{leaf_slot, PageMap, LEAF_PAGES};
use vmm::VirtPage;

/// One leaf of the bit array, [`LEAF_PAGES`] pages in 64-page words: a set
/// bit is an evicted page.
type Bits = [u64; LEAF_PAGES / 64];

/// The collector-side view of which heap pages are non-resident.
///
/// Pages start (and, after reload, return to) the resident state; BC marks a
/// page non-resident exactly when it relinquishes it (or learns of a hard
/// eviction) and resident again on a `MadeResident` notification.
///
/// This is the paper's bit array: one bit per page, so the per-edge
/// residency test of a full collection is one page-map walk and a mask.
/// The heap's regions span 3 GiB of address space, so the bits are the
/// leaves of `vmm`'s radix [`PageMap`] (the map under the VMM's page table
/// and `SimMemory`'s page directory), 16 bytes per 128 pages: a leaf is
/// allocated when its first page is evicted and the map's root when the
/// heap's first page is, so a heap that never sees an eviction owns no
/// memory here at all. Iteration is in ascending page order, so bookmark
/// scans and fail-safe restores proceed in a fixed, run-independent order.
#[derive(Clone, Debug, Default)]
pub struct ResidencyMap {
    /// `None` until the first eviction.
    bits: Option<Box<PageMap<Bits>>>,
    /// Number of set bits.
    evicted: usize,
}

/// Splits a page number into (word-in-leaf, bit-in-word).
#[inline]
fn locate(page: u32) -> (usize, u64) {
    (leaf_slot(page) / 64, 1u64 << (page % 64))
}

impl ResidencyMap {
    /// A map with every page resident.
    pub fn new() -> ResidencyMap {
        ResidencyMap::default()
    }

    /// The 64-page word holding `page`'s bit (zero where no leaf exists).
    #[inline]
    fn word(&self, page: u32) -> u64 {
        match self.bits.as_deref().and_then(|m| m.leaf(page)) {
            Some(bits) => bits[locate(page).0],
            None => 0,
        }
    }

    /// Records a page as evicted.
    pub fn mark_evicted(&mut self, page: VirtPage) {
        let (w, bit) = locate(page.number());
        let bits = self.bits.get_or_insert_default();
        let word = &mut bits.leaf_or_insert_with(page.number(), Box::default)[w];
        self.evicted += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Records a page as resident again. Returns whether it had been
    /// tracked as evicted.
    pub fn mark_resident(&mut self, page: VirtPage) -> bool {
        let (w, bit) = locate(page.number());
        let leaf = self
            .bits
            .as_deref_mut()
            .and_then(|m| m.leaf_mut(page.number()));
        let Some(bits) = leaf else {
            return false;
        };
        let was_evicted = bits[w] & bit != 0;
        bits[w] &= !bit;
        self.evicted -= usize::from(was_evicted);
        was_evicted
    }

    /// Whether a page is resident according to BC's own bookkeeping.
    #[inline]
    pub fn page_resident(&self, page: VirtPage) -> bool {
        self.word(page.number()) >> (page.number() % 64) & 1 == 0
    }

    /// Whether every page of `[addr, addr + len)` is resident.
    pub fn range_resident(&self, addr: Address, len: u32) -> bool {
        if self.evicted == 0 {
            return true;
        }
        let mut page = addr.page().number();
        let last = Address(addr.0 + len.max(1) - 1).page().number();
        // One masked word per 64-page stretch of the range.
        while page <= last {
            let word_last = (page | 63).min(last);
            let mask = (u64::MAX << (page % 64)) & (u64::MAX >> (63 - word_last % 64));
            if self.word(page) & mask != 0 {
                return false;
            }
            page = word_last + 1;
        }
        true
    }

    /// Number of pages currently tracked as evicted.
    pub fn evicted_count(&self) -> usize {
        self.evicted
    }

    /// Whether any heap page is evicted (fast path: when false, full
    /// collections skip all bookmark machinery).
    #[inline]
    pub fn any_evicted(&self) -> bool {
        self.evicted != 0
    }

    /// The evicted pages, in ascending page order.
    pub fn evicted_pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        self.bits
            .iter()
            .flat_map(|m| m.leaves())
            .flat_map(|(first, bits)| {
                bits.iter().enumerate().flat_map(move |(w, &word)| {
                    let first = first + 64 * w as u32;
                    SetBits(word).map(move |bit| VirtPage::new(first + bit))
                })
            })
    }

    /// Forgets all evictions (the §3.5 fail-safe makes everything resident).
    pub fn clear(&mut self) {
        self.bits = None;
        self.evicted = 0;
    }
}

/// The positions of a word's set bits, ascending.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros();
        self.0 &= self.0 - 1; // clear lowest set bit
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_all_resident() {
        let m = ResidencyMap::new();
        assert!(m.page_resident(VirtPage::new(0)));
        assert!(m.range_resident(Address(0), 1 << 20));
        assert!(!m.any_evicted());
        assert_eq!(m.evicted_count(), 0);
    }

    #[test]
    fn evict_and_reload_round_trip() {
        let mut m = ResidencyMap::new();
        m.mark_evicted(VirtPage::new(5));
        assert!(!m.page_resident(VirtPage::new(5)));
        assert!(m.page_resident(VirtPage::new(6)));
        assert!(m.any_evicted());
        assert!(m.mark_resident(VirtPage::new(5)));
        assert!(
            !m.mark_resident(VirtPage::new(5)),
            "second reload is a no-op"
        );
        assert!(m.page_resident(VirtPage::new(5)));
    }

    #[test]
    fn range_residency_spans_pages() {
        let mut m = ResidencyMap::new();
        m.mark_evicted(VirtPage::new(2)); // bytes 8192..12288
        assert!(m.range_resident(Address(0), 8192));
        assert!(!m.range_resident(Address(8000), 400));
        assert!(!m.range_resident(Address(8192), 1));
        assert!(m.range_resident(Address(12288), 4096));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = ResidencyMap::new();
        m.mark_evicted(VirtPage::new(1));
        m.mark_evicted(VirtPage::new(2));
        m.clear();
        assert!(!m.any_evicted());
        assert!(m.page_resident(VirtPage::new(1)));
    }

    impl ResidencyMap {
        /// Leaves of the bit array that have been allocated.
        fn allocated_leaves(&self) -> usize {
            self.bits.iter().flat_map(|m| m.leaves()).count()
        }
    }

    #[test]
    fn range_residency_crosses_words_and_leaves() {
        let mut m = ResidencyMap::new();
        m.mark_evicted(VirtPage::new(64)); // first bit of word 1
        assert!(m.range_resident(Address(0), 64 * 4096));
        assert!(!m.range_resident(Address(0), 64 * 4096 + 1));
        assert!(!m.range_resident(Address(63 * 4096), 2 * 4096));
        m.mark_resident(VirtPage::new(64));
        m.mark_evicted(VirtPage::new(1024)); // first bit of leaf 8
        assert!(m.range_resident(Address(1000 * 4096), 24 * 4096));
        assert!(!m.range_resident(Address(1000 * 4096), 25 * 4096));
        // A range running through leaves that were never allocated.
        assert!(!m.range_resident(Address(1024 * 4096), 3000 * 4096));
        assert!(m.range_resident(Address(1025 * 4096), 3000 * 4096));
    }

    #[test]
    fn double_eviction_counts_once() {
        let mut m = ResidencyMap::new();
        m.mark_evicted(VirtPage::new(7));
        m.mark_evicted(VirtPage::new(7));
        assert_eq!(m.evicted_count(), 1);
        assert!(m.mark_resident(VirtPage::new(7)));
        assert_eq!(m.evicted_count(), 0);
        assert!(!m.any_evicted());
    }

    /// The regions span 3 GiB, but only the leaves an eviction lands in
    /// exist — and nothing before the first eviction, so the thousands of
    /// heaps of a fleet that never evict pay nothing.
    #[test]
    fn only_touched_leaves_are_allocated() {
        let mut m = ResidencyMap::new();
        assert!(m.page_resident(VirtPage::new(590_848)));
        assert!(!m.mark_resident(VirtPage::new(590_848)));
        assert!(m.range_resident(Address(0x9040_0000), 1 << 20));
        assert!(m.bits.is_none(), "a never-evicted map owns no memory");

        let nursery = Address(0x0040_0000).page();
        let los = Address(0x9040_0000).page();
        assert_eq!(los.number(), 590_848);
        m.mark_evicted(nursery);
        m.mark_evicted(los);
        assert_eq!(m.allocated_leaves(), 2);
        assert_eq!(m.evicted_count(), 2);
        assert_eq!(m.evicted_pages().collect::<Vec<_>>(), vec![nursery, los]);
        // Lookups anywhere else allocate nothing.
        assert!(m.page_resident(VirtPage::new(300_000)));
        assert!(m.range_resident(Address(0x1040_0000), 64 << 20));
        assert_eq!(m.allocated_leaves(), 2);

        m.clear();
        assert!(m.bits.is_none());
        assert_eq!(m.evicted_pages().count(), 0);
    }

    #[cfg(not(miri))]
    mod props {
        use std::collections::BTreeSet;

        use proptest::prelude::*;

        use super::*;

        /// A page near a word, leaf, inner-node or region boundary, or
        /// anywhere.
        fn page() -> impl Strategy<Value = u32> {
            prop_oneof![
                0u32..200,
                960u32..1100,
                16_370u32..16_400,
                66_500u32..66_700,
                590_840u32..590_860,
                0u32..1 << 20,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The bit array against the ordered set it replaced: every
            /// query agrees after every step of a random script.
            #[test]
            fn bit_array_matches_btreeset_model(
                script in proptest::collection::vec((0u8..16, page(), 0u32..4096, 0u32..40_000), 1..120)
            ) {
                let mut map = ResidencyMap::new();
                let mut model: BTreeSet<u32> = BTreeSet::new();
                for &(op, p, offset, len) in &script {
                    let vp = VirtPage::new(p);
                    match op {
                        0..=7 => {
                            map.mark_evicted(vp);
                            model.insert(p);
                        }
                        8..=14 => prop_assert_eq!(map.mark_resident(vp), model.remove(&p)),
                        _ => {
                            map.clear();
                            model.clear();
                        }
                    }
                    prop_assert_eq!(map.evicted_count(), model.len());
                    prop_assert_eq!(map.any_evicted(), !model.is_empty());
                    for q in [p.saturating_sub(1), p, p + 1, p ^ 64, p ^ 128, p ^ 1024, p ^ (1 << 14)] {
                        let q = q % (1 << 20);
                        prop_assert_eq!(
                            map.page_resident(VirtPage::new(q)),
                            !model.contains(&q)
                        );
                    }
                    // Ranges ending just before, on and past `p`, starting
                    // mid-page: `len` reaches across words and pages, and
                    // `len = 0` covers the page of `addr` alone.
                    let start = p.saturating_sub(len / 4096 / 2);
                    let addr = Address(start * 4096 + offset);
                    for len in [0, 1, 4096 - offset, 4097 - offset, len] {
                        let Some(end) = addr.0.checked_add(len.max(1) - 1) else {
                            continue;
                        };
                        let last = end / 4096;
                        let want = model.range(start..=last).next().is_none();
                        prop_assert_eq!(map.range_resident(addr, len), want,
                            "range {:?} + {}", addr, len);
                    }
                    let got: Vec<u32> = map.evicted_pages().map(VirtPage::number).collect();
                    let want: Vec<u32> = model.iter().copied().collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
    }
}
