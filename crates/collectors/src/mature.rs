//! The `Mature` axis of the plan matrix: where objects live once they have
//! survived (or, without a nursery, from birth), and how a whole-heap
//! collection reclaims that space.

use std::fmt::Debug;

use heap::{
    Address, AllocKind, BumpSpace, HeapConfig, MsSpace, ObjectKind, PagePool, SimMemory,
    BYTES_PER_PAGE,
};

/// What a [`Plan`](crate::Plan) asks of its mature space. The space only
/// manages addresses; every charged access is the plan's.
pub trait Mature: Sized + Debug {
    /// Whether survivors stay where they are and carry a mark from the trace
    /// to the sweep. `false` for a copying space: its survivors move and
    /// only large objects are ever marked.
    const MARKS: bool;

    /// Whether [`alloc`](Mature::alloc) searches segregated free lists, and
    /// so costs `CostModel::alloc_freelist_extra` over a bump allocation.
    const FREE_LISTS: bool;

    /// The mature space of a heap configured by `config`.
    fn new(config: &HeapConfig) -> Self;

    /// Allocates a small object directly (plans without a nursery); `None`
    /// asks for a collection.
    fn alloc(&mut self, pool: &mut PagePool, kind: AllocKind) -> Option<Address>;

    /// Whether a whole-heap collection moves the object at `obj` out of this
    /// space (nursery objects always move; this is about the mature ones).
    fn condemns(&self, obj: Address) -> bool;

    /// Where a condemned object of shape `kind` is copied to, past the
    /// budget if need be. In a `full` collection that is somewhere the
    /// collection's own reclamation spares; in a nursery collection it is a
    /// plain promotion.
    fn survivor_cell(&mut self, pool: &mut PagePool, kind: ObjectKind, full: bool) -> Address;

    /// Ends a whole-heap collection: gives back whatever
    /// [`condemns`](Mature::condemns) named, dropping its pages from `mem`.
    fn release_condemned(&mut self, pool: &mut PagePool, mem: &mut SimMemory);

    /// The bytes a nursery holding `young_pages` could grow to if it were
    /// empty, after setting this space's copy reserve aside.
    fn free_minus_reserve(&self, pool: &PagePool, young_pages: usize) -> u64;

    /// The sanitizer's question: does this space's own bookkeeping say a
    /// live object starts at `addr`? `mid_full` is the window of a
    /// whole-heap collection after the trace and before
    /// [`release_condemned`](Mature::release_condemned).
    fn holds_live(&self, addr: Address, mid_full: bool) -> bool;

    /// The cell space a whole-heap collection sweeps, if any.
    fn ms(&mut self) -> Option<&mut MsSpace>;

    /// What the sanitizer's physical checks audit: the cell space's free
    /// cells and run cache, and the free tails of the bump spaces.
    fn audited(&self) -> (Option<&MsSpace>, Vec<&BumpSpace>);
}

/// The segregated-fit mark-sweep mature space of MarkSweep, GenMS and
/// CopyMS: nothing in it ever moves; a full collection marks its cells in
/// place and sweeps.
impl Mature for MsSpace {
    const MARKS: bool = true;
    const FREE_LISTS: bool = true;

    fn new(config: &HeapConfig) -> MsSpace {
        let (base, end) = config.layout.space_a;
        MsSpace::new(base, end)
    }

    #[inline]
    fn alloc(&mut self, pool: &mut PagePool, kind: AllocKind) -> Option<Address> {
        let (class, block) = self.placement(kind.object_kind());
        MsSpace::alloc(self, pool, class, block)
    }

    #[inline]
    fn condemns(&self, _obj: Address) -> bool {
        false
    }

    #[inline]
    fn survivor_cell(&mut self, pool: &mut PagePool, kind: ObjectKind, _full: bool) -> Address {
        self.alloc_survivor(pool, kind)
    }

    fn release_condemned(&mut self, _pool: &mut PagePool, _mem: &mut SimMemory) {}

    /// No copy reserve: promotion fills cells the sweep freed.
    fn free_minus_reserve(&self, pool: &PagePool, young_pages: usize) -> u64 {
        pool.bytes_free_outside(young_pages)
    }

    fn holds_live(&self, addr: Address, _mid_full: bool) -> bool {
        self.is_allocated_cell(addr)
    }

    #[inline]
    fn ms(&mut self) -> Option<&mut MsSpace> {
        Some(self)
    }

    fn audited(&self) -> (Option<&MsSpace>, Vec<&BumpSpace>) {
        (Some(self), Vec::new())
    }
}

/// The flipping pair of bump spaces of SemiSpace and GenCopy. Objects are
/// allocated or promoted into `from`; a full collection Cheney-copies every
/// survivor into `to`, releases `from` and swaps the two.
///
/// Because half the heap is reserve the footprint is large — but under
/// moderate pressure SemiSpace can transiently do well (§5.3.1: "Although
/// SemiSpace outperforms BC at the 80–95MB heap sizes, its execution time
/// goes off the chart soon after"), because LRU eviction takes the dead
/// half while it allocates in the other.
#[derive(Debug)]
pub struct CopyMature {
    from: BumpSpace,
    to: BumpSpace,
}

impl CopyMature {
    /// Pages charged to the large object space: everything the pool has
    /// handed out that no bump space holds.
    fn los_pages(&self, pool: &PagePool, young_pages: usize) -> usize {
        let held = young_pages + self.from.extent_pages() + self.to.extent_pages();
        pool.used().saturating_sub(held)
    }
}

impl Mature for CopyMature {
    const MARKS: bool = false;
    const FREE_LISTS: bool = false;

    fn new(config: &HeapConfig) -> CopyMature {
        let l = config.layout;
        CopyMature {
            from: BumpSpace::new(l.space_a.0, l.space_a.1),
            to: BumpSpace::new(l.space_b.0, l.space_b.1),
        }
    }

    #[inline]
    fn alloc(&mut self, pool: &mut PagePool, kind: AllocKind) -> Option<Address> {
        let size = kind.size_bytes();
        // Half of the non-LOS budget: the copy reserve bound on from-space.
        let pages = pool.budget().saturating_sub(self.los_pages(pool, 0));
        let copy_limit = (pages as u64 * BYTES_PER_PAGE as u64) / 2;
        if self.from.used_bytes() as u64 + size as u64 > copy_limit {
            return None; // trigger collection: preserve the copy reserve
        }
        self.from.alloc(pool, size)
    }

    #[inline]
    fn condemns(&self, obj: Address) -> bool {
        self.from.region_contains(obj)
    }

    #[inline]
    fn survivor_cell(&mut self, pool: &mut PagePool, kind: ObjectKind, full: bool) -> Address {
        let target = if full { &mut self.to } else { &mut self.from };
        target
            .alloc_forced(pool, kind.size_bytes())
            .expect("mature region exhausted")
    }

    fn release_condemned(&mut self, pool: &mut PagePool, mem: &mut SimMemory) {
        self.from.release_all(pool, mem);
        std::mem::swap(&mut self.from, &mut self.to);
    }

    /// Free bytes once the copy reserve (a full mature copy) is set aside.
    fn free_minus_reserve(&self, pool: &PagePool, young_pages: usize) -> u64 {
        let los = self.los_pages(pool, young_pages) as u64 * BYTES_PER_PAGE as u64;
        (pool.budget_bytes() as u64)
            .saturating_sub(los)
            .saturating_sub(2 * self.from.used_bytes() as u64)
    }

    fn holds_live(&self, addr: Address, mid_full: bool) -> bool {
        let survivors = if mid_full { &self.to } else { &self.from };
        survivors.contains_allocated(addr)
    }

    #[inline]
    fn ms(&mut self) -> Option<&mut MsSpace> {
        None
    }

    fn audited(&self) -> (Option<&MsSpace>, Vec<&BumpSpace>) {
        (None, vec![&self.from, &self.to])
    }
}
