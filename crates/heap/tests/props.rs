//! Property tests over the heap substrate: size-class soundness, mark-sweep
//! space invariants, large-object space invariants, and memory round-trips.

// Property suites run hundreds of cases; far too slow under Miri's
// interpreter. The Miri CI job covers the plain unit tests instead.
#![cfg(not(miri))]

use proptest::prelude::*;

use heap::{
    Address, BlockKind, LargeObjectSpace, MsSpace, PagePool, SimMemory, SizeClasses, BYTES_PER_PAGE,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every request up to the LOS threshold gets the *smallest* class
    /// that fits.
    #[test]
    fn size_class_is_minimal_and_fits(bytes in 1u32..=8180) {
        let t = SizeClasses::new();
        let c = t.class_for(bytes).unwrap();
        prop_assert!(c.cell_bytes >= bytes);
        if c.index > 0 {
            prop_assert!(t.class(c.index - 1).cell_bytes < bytes);
        }
        // A cell never overlaps the next one or the superpage end.
        let last_cell_end = 12 + c.cells_per_superpage * c.cell_bytes;
        prop_assert!(last_cell_end <= 16384);
    }

    /// Random alloc/free sequences on the mark-sweep space: returned cells
    /// are unique, aligned to their class geometry, and live counts match.
    #[test]
    fn ms_space_cells_never_overlap(sizes in proptest::collection::vec(8u32..=8180, 1..120),
                                    free_mask in proptest::collection::vec(any::<bool>(), 120)) {
        let mut ms = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let mut pool = PagePool::new(4096);
        let mut mem = SimMemory::new();
        let mut live: Vec<(Address, u32)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let class = ms.classes().class_for(size).unwrap();
            let kind = if i % 2 == 0 { BlockKind::Scalar } else { BlockKind::Array };
            let addr = ms.alloc(&mut pool, class.index, kind).unwrap();
            // No overlap with any live cell.
            for &(other, other_size) in &live {
                let sep = addr.0 + class.cell_bytes <= other.0
                    || other.0 + other_size <= addr.0;
                prop_assert!(sep, "cells overlap: {addr} and {other}");
            }
            live.push((addr, class.cell_bytes));
            prop_assert!(ms.is_allocated_cell(addr));
            // Maybe free one.
            if free_mask[i] && live.len() > 1 {
                let (victim, _) = live.swap_remove(0);
                ms.free_cell(&mut pool, &mut mem, victim);
                prop_assert!(!ms.is_allocated_cell(victim));
            }
        }
        // Per-superpage live counts agree with the allocated-cell lists.
        for sp in ms.assigned_sps() {
            prop_assert_eq!(
                ms.info(sp).live_cells as usize,
                ms.allocated_cells(sp).len()
            );
        }
        // Pool accounting: used pages = 4 per assigned superpage.
        prop_assert_eq!(pool.used(), ms.assigned_sps().len() * 4);
    }

    /// Run-cached allocation hands out the exact cell sequence the
    /// pre-cache bit-scan path produced: drive a cached space and an
    /// uncached twin (runs dropped before every alloc, forcing the slow
    /// path) through an identical alloc/free/relist/compact schedule and
    /// compare every returned address and the final bitmaps.
    #[test]
    fn run_cache_matches_bit_scan_order(
        ops in proptest::collection::vec((0u8..8, 8u32..=2048, 0u32..1_000_000), 1..250)
    ) {
        let mut cached = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let mut plain = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let mut pool_c = PagePool::new(4096);
        let mut pool_p = PagePool::new(4096);
        let mut mem = SimMemory::new();
        let mut live: Vec<Address> = Vec::new();
        for &(op, size, idx) in &ops {
            let pick = |live: &Vec<Address>| live[idx as usize % live.len()];
            match op {
                // Free a live cell (both spaces see the same address).
                0 if !live.is_empty() => {
                    let victim = live.swap_remove(idx as usize % live.len());
                    let sp = cached.sp_of(victim);
                    cached.free_cell(&mut pool_c, &mut mem, victim);
                    plain.free_cell(&mut pool_p, &mut mem, victim);
                    prop_assert_eq!(cached.info(sp), plain.info(sp));
                }
                // Re-list a superpage as partial, sweep-style.
                1 if !live.is_empty() => {
                    let sp = cached.sp_of(pick(&live));
                    if cached.info(sp).assignment.is_some() {
                        cached.note_partial(sp);
                        plain.note_partial(sp);
                    }
                }
                // Direct in-superpage allocation, compaction-style.
                2 if !live.is_empty() => {
                    let sp = cached.sp_of(pick(&live));
                    if let Some((class, _)) = cached.info(sp).assignment {
                        let a = cached.alloc_in_sp(sp, class);
                        let b = plain.alloc_in_sp(sp, class);
                        prop_assert_eq!(a, b);
                        if let Some(a) = a {
                            live.push(a);
                        }
                    }
                }
                // Allocate through the public path. The plain twin drops
                // its runs first, so it always takes the bit-scan path.
                _ => {
                    let class = cached.classes().class_for(size).unwrap().index;
                    let kind = if size % 2 == 0 { BlockKind::Scalar } else { BlockKind::Array };
                    plain.invalidate_runs();
                    let a = cached.alloc(&mut pool_c, class, kind);
                    let b = plain.alloc(&mut pool_p, class, kind);
                    prop_assert_eq!(a, b, "cached and bit-scan paths diverged");
                    if let Some(a) = a {
                        live.push(a);
                    }
                }
            }
        }
        // The spaces end in identical states, superpage by superpage.
        prop_assert_eq!(cached.assigned_sps(), plain.assigned_sps());
        for sp in cached.assigned_sps() {
            prop_assert_eq!(cached.allocated_cells(sp), plain.allocated_cells(sp));
            prop_assert_eq!(
                cached.info(sp).live_cells,
                cached.allocated_cells_iter(sp).count() as u32
            );
        }
    }

    /// LOS allocations are page-aligned, disjoint, and freeing coalesces
    /// (allocating the total after freeing everything succeeds in one run).
    #[test]
    fn los_alloc_free_coalesces(sizes in proptest::collection::vec(1u32..(64 << 10), 1..40)) {
        let mut los = LargeObjectSpace::new(Address(0x9040_0000), Address(0x9140_0000));
        let mut pool = PagePool::new(1 << 16);
        let mut mem = SimMemory::new();
        let mut objs = Vec::new();
        let mut total_pages = 0u32;
        for &s in &sizes {
            let a = los.alloc(&mut pool, s).unwrap();
            mem.write_word(a, 1);
            mem.write_word(Address(a.0 + (s - 1) / 4 * 4), 2);
            prop_assert_eq!(a.0 % BYTES_PER_PAGE, 0);
            for &b in &objs {
                prop_assert!(a != b);
            }
            total_pages += s.div_ceil(BYTES_PER_PAGE);
            objs.push(a);
        }
        prop_assert_eq!(pool.used(), total_pages as usize);
        for &a in &objs {
            los.free(&mut pool, &mut mem, a);
        }
        prop_assert_eq!(pool.used(), 0);
        prop_assert_eq!(mem.materialized_pages(), 0, "a freed object kept a page");
        prop_assert!(los.is_empty());
        // After freeing everything the space coalesced: one allocation of
        // the combined size fits at the region start.
        let big = los.alloc(&mut pool, total_pages * BYTES_PER_PAGE).unwrap();
        prop_assert_eq!(big, Address(0x9040_0000));
    }

    /// SimMemory: writes read back, zeroing zeroes, and neighbours are
    /// untouched.
    #[test]
    fn memory_round_trips(words in proptest::collection::vec((0u32..32768, any::<u32>()), 1..64)) {
        let mut mem = SimMemory::new();
        let mut model = std::collections::HashMap::new();
        for &(idx, val) in &words {
            mem.write_word(Address(idx * 4), val);
            model.insert(idx, val);
        }
        for (&idx, &val) in &model {
            prop_assert_eq!(mem.read_word(Address(idx * 4)), val);
        }
    }
}
