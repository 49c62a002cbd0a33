//! Per-process paging statistics.

/// Counters for one process's interaction with the virtual memory manager.
///
/// The experiment harness diffs these around collector pauses to attribute
/// faults to the mutator or the collector, and reads `resident` /
/// `peak_resident` for footprint reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Major faults (page read back from swap).
    pub major_faults: u64,
    /// Minor faults (demand-zero fills and protection faults).
    pub minor_faults: u64,
    /// Pages of this process evicted to swap.
    pub evictions: u64,
    /// Pages evicted *without* the notification grace period (the kernel ran
    /// ahead of the collector, §3.4.3).
    pub hard_evictions: u64,
    /// Pages discarded via `madvise(MADV_DONTNEED)`.
    pub discards: u64,
    /// Pages surrendered via `vm_relinquish`.
    pub relinquished: u64,
    /// Eviction notices queued to this process.
    pub notices: u64,
    /// Currently resident pages.
    pub resident: u64,
    /// High-water mark of `resident`.
    pub peak_resident: u64,
    /// Currently mlocked pages (subset of `resident`).
    pub locked: u64,
    /// Total `touch` calls by this process (every simulated memory access,
    /// fast path or slow). The count behind gcbench's `touches_per_s`.
    pub touches: u64,
}

impl VmStats {
    /// Records a page becoming resident.
    pub(crate) fn note_resident(&mut self) {
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
    }

    /// Records a page leaving residency.
    pub(crate) fn note_nonresident(&mut self) {
        debug_assert!(self.resident > 0);
        self.resident -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = VmStats::default();
        s.note_resident();
        s.note_resident();
        s.note_nonresident();
        s.note_resident();
        assert_eq!(s.resident, 2);
        assert_eq!(s.peak_resident, 2);
        s.note_resident();
        s.note_resident();
        assert_eq!(s.peak_resident, 4);
    }
}
