//! The `Young` axis of the plan matrix: where new small objects go before
//! their first collection.

use std::fmt::Debug;

use heap::gc::NurserySizer;
use heap::{Address, AllocKind, BumpSpace, CollectKind, HeapConfig, PagePool, SimMemory};

use crate::mature::Mature;

/// What a [`Plan`](crate::Plan) asks of its young generation.
///
/// An implementation says whether it has a nursery and how the nursery's
/// limit follows the rest of the heap; allocation and release are derived
/// from that. The provided methods are the answers of [`NoNursery`], and
/// from `full_gc_needed` on those of any young generation that is never
/// collected on its own: only [`GenNursery`] overrides them.
pub trait Young: Sized + Debug {
    /// Whether nursery-only collections exist, and with them the boundary
    /// write barrier, the remembered set and the second rung of the
    /// allocation ladder.
    const GENERATIONAL: bool = false;

    /// The young generation of a heap configured by `config`.
    fn new(config: &HeapConfig) -> Self;

    /// The nursery's bump space; `None` when objects are born mature.
    #[inline]
    fn space(&self) -> Option<&BumpSpace> {
        None
    }

    /// The same space, for allocation, and its current limit in bytes.
    #[inline]
    fn space_and_limit(&mut self) -> Option<(&mut BumpSpace, u32)> {
        None
    }

    /// Recomputes the nursery limit from what `mature` says the rest of the
    /// heap leaves free. Called after construction, after every collection
    /// and whenever the budget moves.
    fn resize<M: Mature>(&mut self, _pool: &PagePool, _mature: &M) {}

    /// Whether `addr` lies in the nursery region.
    #[inline]
    fn contains(&self, addr: Address) -> bool {
        self.space().is_some_and(|s| s.region_contains(addr))
    }

    /// Allocates a small object — in the nursery up to its limit, or, with
    /// no nursery, directly in `mature`. `None` asks for a collection.
    #[inline]
    fn alloc<M: Mature>(
        &mut self,
        pool: &mut PagePool,
        mature: &mut M,
        kind: AllocKind,
    ) -> Option<Address> {
        let Some((space, limit)) = self.space_and_limit() else {
            return mature.alloc(pool, kind);
        };
        let size = kind.size_bytes();
        if space.used_bytes() + size > limit {
            return None;
        }
        space.alloc(pool, size)
    }

    /// Gives the evacuated nursery's pages back to `pool`, dropping them
    /// from `mem`.
    fn release(&mut self, pool: &mut PagePool, mem: &mut SimMemory) {
        if let Some((space, _)) = self.space_and_limit() {
            space.release_all(pool, mem);
        }
    }

    /// Whether the nursery collection that just finished left too little
    /// room for the next nursery, so a whole-heap one must follow.
    fn full_gc_needed<M: Mature>(&self, _pool: &PagePool, _mature: &M) -> bool {
        false
    }

    /// The remembered slots (addresses outside the nursery holding nursery
    /// references); `None` without a barrier.
    fn remset(&mut self) -> Option<&mut Vec<Address>> {
        None
    }

    /// The collection in progress, if any. Without nursery collections every
    /// trace is whole-heap and there is nothing to record.
    #[inline]
    fn collecting(&self) -> Option<CollectKind> {
        Some(CollectKind::Full)
    }

    /// Records the collection in progress (see [`Young::collecting`]).
    fn set_collecting(&mut self, _kind: Option<CollectKind>) {}
}

/// Bytes as a `u32`, saturating (limits are compared with `u32` sizes).
fn clamp32(bytes: u64) -> u32 {
    bytes.min(u32::MAX as u64) as u32
}

/// No young generation: MarkSweep and SemiSpace allocate straight into
/// their mature space.
#[derive(Debug)]
pub struct NoNursery;

impl Young for NoNursery {
    fn new(_config: &HeapConfig) -> NoNursery {
        NoNursery
    }
}

/// CopyMS's copy space: a bump nursery that only whole-heap collections
/// evacuate — "a variant of GenMS which performs only whole-heap garbage
/// collections" (§5), so no write barrier and no remembered set.
#[derive(Debug)]
pub struct CopyNursery {
    space: BumpSpace,
    limit: u32,
}

impl Young for CopyNursery {
    fn new(config: &HeapConfig) -> CopyNursery {
        let (base, end) = config.layout.nursery;
        CopyNursery {
            space: BumpSpace::new(base, end),
            limit: 0,
        }
    }

    #[inline]
    fn space(&self) -> Option<&BumpSpace> {
        Some(&self.space)
    }

    #[inline]
    fn space_and_limit(&mut self) -> Option<(&mut BumpSpace, u32)> {
        Some((&mut self.space, self.limit))
    }

    fn resize<M: Mature>(&mut self, pool: &PagePool, mature: &M) {
        let free = mature.free_minus_reserve(pool, self.space.extent_pages());
        // Half of free space: the other half is the promotion reserve.
        self.limit = clamp32(free / 2);
    }
}

/// The Appel-style nursery of GenMS and GenCopy: collected on its own, so
/// stores from outside it into it are remembered in an (unbounded)
/// sequential store buffer, as in MMTk, and a [`NurserySizer`] sets its
/// limit (variable, or the fixed 4 MB of §5.3.2).
#[derive(Debug)]
pub struct GenNursery {
    space: BumpSpace,
    limit: u32,
    remset: Vec<Address>,
    sizer: NurserySizer,
    collecting: Option<CollectKind>,
}

impl GenNursery {
    fn free_minus_reserve<M: Mature>(&self, pool: &PagePool, mature: &M) -> u32 {
        clamp32(mature.free_minus_reserve(pool, self.space.extent_pages()))
    }
}

impl Young for GenNursery {
    const GENERATIONAL: bool = true;

    fn new(config: &HeapConfig) -> GenNursery {
        let (base, end) = config.layout.nursery;
        GenNursery {
            space: BumpSpace::new(base, end),
            limit: 0,
            remset: Vec::new(),
            sizer: NurserySizer::new(config.nursery),
            collecting: None,
        }
    }

    #[inline]
    fn space(&self) -> Option<&BumpSpace> {
        Some(&self.space)
    }

    #[inline]
    fn space_and_limit(&mut self) -> Option<(&mut BumpSpace, u32)> {
        Some((&mut self.space, self.limit))
    }

    fn resize<M: Mature>(&mut self, pool: &PagePool, mature: &M) {
        self.limit = self.sizer.limit(self.free_minus_reserve(pool, mature));
    }

    fn full_gc_needed<M: Mature>(&self, pool: &PagePool, mature: &M) -> bool {
        self.sizer
            .full_gc_needed(self.free_minus_reserve(pool, mature))
    }

    #[inline]
    fn remset(&mut self) -> Option<&mut Vec<Address>> {
        Some(&mut self.remset)
    }

    #[inline]
    fn collecting(&self) -> Option<CollectKind> {
        self.collecting
    }

    #[inline]
    fn set_collecting(&mut self, kind: Option<CollectKind>) {
        self.collecting = kind;
    }
}
