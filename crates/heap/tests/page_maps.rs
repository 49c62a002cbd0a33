//! The two per-process page maps — the VMM's page table and `SimMemory`'s
//! page directory — under a counting global allocator: what a process's
//! first touches cost in host bytes, what a discard or a release gives
//! back, and what the maps answer against a `BTreeMap` model, reads
//! allocating nothing.
//!
//! This lives in its own test binary so the global allocator cannot
//! interfere with other tests. The counters are per thread (as in
//! `zero_alloc_trace.rs`): the harness runs tests on parallel threads and
//! allocates on its own, and a measurement must see only what its own
//! thread allocated.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

thread_local! {
    // `const` and without a destructor: reading these never allocates and
    // stays valid for the whole life of the thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static FREED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

fn count_free(bytes: usize) {
    FREED.with(|n| n.set(n.get() + bytes));
}

struct CountingAlloc;

// SAFETY: delegates to `System` unchanged; only adds counter bumps.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        count_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        count_free(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

use heap::{Address, BumpSpace, Layout, MemCtx, PagePool, SimMemory, BYTES_PER_PAGE};
use simtime::{Clock, CostModel};
use vmm::{Access, PageState, VirtPage, Vmm, VmmConfig};

/// The first page of each region of the standard heap layout.
fn region_bases() -> [u32; 4] {
    let l = Layout::standard();
    [l.nursery.0, l.space_a.0, l.space_b.0, l.los.0].map(|base| base.page().number())
}

/// A manager with frames to spare: no test here evicts.
fn roomy_vmm() -> Vmm {
    Vmm::new(
        VmmConfig::builder().frames(4096).build(),
        CostModel::default(),
    )
}

/// Host bytes the two page maps of a process request as it writes one page
/// in each of the four regions: one 1 KiB inner node and one 1 KiB leaf per
/// region in each map, `SimMemory`'s 512-byte boxed root, and 32 bytes of
/// LRU queue — 16 928 bytes. The 4 KiB page boxes themselves are not the
/// directory's and are subtracted. Maps of 8 KiB chunks under directory
/// vectors dense up to the LOS request 82 144 bytes here.
///
/// Discarding the four pages through `MemCtx::madvise_dontneed` then frees
/// exactly their four 4 KiB page boxes; the directory nodes stay.
#[test]
fn page_maps_cost_what_a_process_touches() {
    const BOUND: usize = 20 << 10;
    let mut mem = SimMemory::new();
    let mut vmm = roomy_vmm();
    let pid = vmm.register_process();
    let mut clock = Clock::new();

    BYTES.set(0);
    for page in region_bases() {
        mem.write_word(Address(page * BYTES_PER_PAGE), 1);
    }
    let directory = BYTES.get() - mem.materialized_pages() * BYTES_PER_PAGE as usize;
    BYTES.set(0);
    for page in region_bases() {
        vmm.touch(pid, VirtPage::new(page), Access::Write, &mut clock);
    }
    let page_table = BYTES.get();

    assert_eq!(mem.materialized_pages(), 4);
    assert!(
        directory + page_table <= BOUND,
        "one page in each of four regions cost {directory} bytes of SimMemory \
         directory and {page_table} of VMM page table; the bound is {BOUND}"
    );

    let pages = region_bases().map(VirtPage::new);
    FREED.set(0);
    MemCtx::new(&mut vmm, &mut clock, pid).madvise_dontneed(&mut mem, &pages);
    assert_eq!(FREED.get(), 4 * BYTES_PER_PAGE as usize);
    assert_eq!(mem.materialized_pages(), 0);
}

/// A space that gives its pages back to the pool drops their host pages
/// with them (DESIGN.md §10.6): releasing a written 16-page nursery extent
/// frees exactly its sixteen 4 KiB page boxes.
#[test]
fn release_all_frees_the_page_boxes() {
    let (base, limit) = Layout::standard().nursery;
    let mut space = BumpSpace::new(base, limit);
    let mut pool = PagePool::new(1024);
    let mut mem = SimMemory::new();
    space
        .alloc(&mut pool, 8)
        .expect("budget for one growth step");
    assert_eq!(space.extent_pages(), 16);
    for page in 0..16 {
        mem.write_word(base.offset(page * BYTES_PER_PAGE), 1);
    }

    FREED.set(0);
    space.release_all(&mut pool, &mut mem);
    assert_eq!(FREED.get(), 16 * BYTES_PER_PAGE as usize);
    assert_eq!(mem.materialized_pages(), 0);
    assert_eq!(pool.used(), 0);
}

#[cfg(not(miri))]
mod props {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    /// Page numbers: anywhere in the 20-bit range, or just around a region
    /// base or either end of it.
    fn page() -> impl Strategy<Value = u32> {
        let [nursery, space_a, space_b, los] = region_bases();
        prop_oneof![
            0u32..1 << 20,
            0u32..300,
            (1u32 << 20) - 300..1 << 20,
            nursery..nursery + 300,
            space_a..space_a + 300,
            space_b - 150..space_b + 150,
            los..los + 300,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Both maps against ordered-map models, after every step of a
        /// random script of writes, discards and `materialized()`
        /// calls that always starts by writing page 0, page 2^20 - 1 and
        /// the four region bases. Every step reads back the page it used
        /// and the twenty pages one bit away from it, so a page number bit
        /// dropped or duplicated by the split aliases two pages and shows;
        /// pages never written read as zero and unmapped, and no read
        /// allocates.
        #[test]
        fn page_maps_match_a_btreemap_model(
            script in proptest::collection::vec((0u8..8, page(), 0u32..1024, any::<u32>()), 1..60)
        ) {
            let mut mem = SimMemory::new();
            let mut vmm = roomy_vmm();
            let pid = vmm.register_process();
            let mut clock = Clock::new();
            // Simulated memory: address -> word; pages written and not
            // discarded since. VMM: pages mapped.
            let mut words: BTreeMap<u32, u32> = BTreeMap::new();
            let mut written: BTreeSet<u32> = BTreeSet::new();
            let mut mapped: BTreeSet<u32> = BTreeSet::new();

            let [nursery, space_a, space_b, los] = region_bases();
            let prefix = [0, (1 << 20) - 1, nursery, space_a, space_b, los].map(|p| (0, p, 7, p));
            for &(op, p, word, value) in prefix.iter().chain(&script) {
                let addr = p * BYTES_PER_PAGE + word * 4;
                match op {
                    0..=4 => {
                        mem.write_word(Address(addr), value);
                        vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
                        words.insert(addr, value);
                        written.insert(p);
                        mapped.insert(p);
                    }
                    5 | 6 => {
                        // A discard: the page's frame and its host page go,
                        // and its words read as zero.
                        MemCtx::new(&mut vmm, &mut clock, pid)
                            .madvise_dontneed(&mut mem, &[VirtPage::new(p)]);
                        let page_words = p * BYTES_PER_PAGE..=addr | (BYTES_PER_PAGE - 4);
                        let gone: Vec<u32> = words.range(page_words).map(|(&a, _)| a).collect();
                        for a in gone {
                            words.remove(&a);
                        }
                        written.remove(&p);
                        mapped.remove(&p);
                    }
                    _ => prop_assert!(mem.materialized().eq(written.iter().copied())),
                }

                ALLOCS.set(0);
                for q in (0..20).map(|bit| p ^ (1 << bit)).chain([p]) {
                    let a = q * BYTES_PER_PAGE + word * 4;
                    let want = words.get(&a).copied().unwrap_or(0);
                    prop_assert_eq!(mem.read_word(Address(a)), want, "word {:#x}", a);
                    prop_assert_eq!(mem.span(Address(a), 2)[0], want, "span at {:#x}", a);
                    let state = if mapped.contains(&q) {
                        PageState::Resident
                    } else {
                        PageState::Unmapped
                    };
                    prop_assert_eq!(vmm.page_state(pid, VirtPage::new(q)), state, "page {}", q);
                }
                prop_assert_eq!(ALLOCS.get(), 0, "a read allocated");
            }
            prop_assert_eq!(mem.materialized_pages(), written.len());
        }
    }
}
