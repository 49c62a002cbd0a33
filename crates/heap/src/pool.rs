//! The heap-size budget, accounted in pages.
//!
//! Experiments fix a *heap size* per run (e.g. "a 77 MB heap", Figure 7);
//! all spaces of one collector draw pages from a shared `PagePool` whose
//! budget is that heap size. Exhausting the pool is what triggers
//! collection, and — for BC under memory pressure — the pool budget is what
//! shrinks when the collector gives pages back to the operating system
//! (§3.3.3: "BC tries not to grow at the expense of paging, but instead
//! limits the heap to the current footprint").

/// A page-granular budget shared by a collector's spaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagePool {
    budget: usize,
    used: usize,
    peak: usize,
}

impl PagePool {
    /// A pool with a budget of `budget` pages.
    pub fn new(budget: usize) -> PagePool {
        PagePool {
            budget,
            used: 0,
            peak: 0,
        }
    }

    /// A pool sized in bytes (rounded down to whole pages).
    pub fn with_bytes(bytes: usize) -> PagePool {
        PagePool::new(bytes / crate::BYTES_PER_PAGE as usize)
    }

    /// Tries to reserve `pages`; returns whether the budget allowed it.
    #[must_use]
    pub fn acquire(&mut self, pages: usize) -> bool {
        if self.used + pages <= self.budget {
            self.used += pages;
            self.peak = self.peak.max(self.used);
            true
        } else {
            false
        }
    }

    /// Reserves `pages` unconditionally, allowing a temporary budget
    /// overrun. Collectors use this mid-collection when refusing would leave
    /// the heap inconsistent; callers should check
    /// [`over_budget`](PagePool::over_budget) afterwards and report
    /// out-of-memory if usage stays above budget.
    pub fn force_acquire(&mut self, pages: usize) {
        self.used += pages;
        self.peak = self.peak.max(self.used);
    }

    /// Returns `pages` to the pool. Crate-private: only the spaces call
    /// it, each as it drops the released pages' host memory (DESIGN.md
    /// §10.6), so no caller outside can give pages back and keep them.
    ///
    /// # Panics
    ///
    /// Panics if more pages are released than were acquired.
    pub(crate) fn release(&mut self, pages: usize) {
        assert!(
            pages <= self.used,
            "releasing {pages} of {} used",
            self.used
        );
        self.used -= pages;
    }

    /// Pages currently in use.
    pub fn used(&self) -> usize {
        self.used
    }

    /// High-water mark of pages ever in use at once.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Pages still available under the budget.
    pub fn available(&self) -> usize {
        self.budget - self.used
    }

    /// The budget, in pages.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget * crate::BYTES_PER_PAGE as usize
    }

    /// Budget bytes left once every page charged *outside* a space holding
    /// `exempt_pages` of the usage is paid for, saturating at zero: what a
    /// nursery of that extent could grow to if it were empty. The GenMS,
    /// CopyMS and BC nursery limits all start from this figure.
    pub fn bytes_free_outside(&self, exempt_pages: usize) -> u64 {
        let held = self.used.saturating_sub(exempt_pages) as u64 * crate::BYTES_PER_PAGE as u64;
        (self.budget_bytes() as u64).saturating_sub(held)
    }

    /// Shrinks (or grows) the budget. Shrinking below current usage is
    /// allowed: the pool simply refuses further acquisitions until usage
    /// falls back under budget (this is how BC pins its heap to the current
    /// footprint under pressure).
    pub fn set_budget(&mut self, pages: usize) {
        self.budget = pages;
    }

    /// Whether usage currently exceeds budget (possible after a shrink).
    pub fn over_budget(&self) -> bool {
        self.used > self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_within_budget() {
        let mut pool = PagePool::new(10);
        assert!(pool.acquire(4));
        assert!(pool.acquire(6));
        assert!(!pool.acquire(1));
        assert_eq!(pool.used(), 10);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn release_restores_budget() {
        let mut pool = PagePool::new(10);
        assert!(pool.acquire(10));
        pool.release(3);
        assert_eq!(pool.available(), 3);
        assert!(pool.acquire(3));
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut pool = PagePool::new(10);
        assert!(pool.acquire(2));
        pool.release(3);
    }

    #[test]
    fn shrink_below_usage_blocks_acquisition() {
        let mut pool = PagePool::new(10);
        assert!(pool.acquire(8));
        pool.set_budget(5);
        assert!(pool.over_budget());
        assert!(!pool.acquire(1));
        pool.release(4);
        assert!(!pool.over_budget());
        assert!(pool.acquire(1));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut pool = PagePool::new(10);
        assert!(pool.acquire(6));
        pool.release(4);
        assert!(pool.acquire(2));
        assert_eq!(pool.peak(), 6);
        pool.force_acquire(7);
        assert_eq!(pool.peak(), 11);
        pool.release(11);
        assert_eq!(pool.peak(), 11);
    }

    #[test]
    fn byte_constructor_rounds_down() {
        let pool = PagePool::with_bytes(10_000);
        assert_eq!(pool.budget(), 2);
        assert_eq!(pool.budget_bytes(), 8192);
    }
}
