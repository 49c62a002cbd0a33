//! Page identities and per-page state.

use core::fmt;

/// Size of one virtual-memory page, in bytes (4 KiB, as on the paper's
/// x86 testbed).
pub const PAGE_BYTES: usize = 4096;

/// Identifies one simulated process sharing the physical memory.
///
/// The paper's multi-JVM experiment (Figure 7) runs two JVM processes plus
/// the `signalmem` pressure driver against one [`Vmm`](crate::Vmm); the
/// `fig7_scale` extension multiplexes thousands. The field is private and
/// 32 bits wide so that tenant counts can grow without silent truncation:
/// construct ids with [`ProcessId::new`] (or receive them from
/// [`Vmm::register_process`](crate::Vmm::register_process)) and read them
/// back with [`ProcessId::as_u32`] / [`ProcessId::index`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Wraps a raw process number.
    pub const fn new(raw: u32) -> ProcessId {
        ProcessId(raw)
    }

    /// The raw process number.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The process number as a table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ProcessId {
    fn from(n: u32) -> ProcessId {
        ProcessId(n)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A virtual page number within one process's address space.
///
/// The field is private: construct pages with [`VirtPage::new`] /
/// [`VirtPage::containing`] (or `u32::into`) and read the page number back
/// with [`VirtPage::number`], so a future widening cannot silently truncate
/// at call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtPage(u32);

impl VirtPage {
    /// Wraps a raw virtual page number.
    pub const fn new(n: u32) -> VirtPage {
        VirtPage(n)
    }

    /// The raw virtual page number.
    pub const fn number(self) -> u32 {
        self.0
    }

    /// The page number as a page-table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The page containing byte address `addr`.
    pub const fn containing(addr: u32) -> VirtPage {
        VirtPage(addr / PAGE_BYTES as u32)
    }

    /// The first byte address of this page.
    pub const fn base_addr(self) -> u32 {
        self.0 * PAGE_BYTES as u32
    }
}

impl From<u32> for VirtPage {
    fn from(n: u32) -> VirtPage {
        VirtPage(n)
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Globally unique page identity: `(process, virtual page)`.
///
/// The simulated kernel carries the paper's reverse-mapping patch (§4.1,
/// "to maintain information about process ownership of pages"), so every
/// physical page knows its owner; `PageKey` is that mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageKey {
    /// Owning process.
    pub pid: ProcessId,
    /// Virtual page within the owner's address space.
    pub page: VirtPage,
}

impl fmt::Display for PageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.pid, self.page)
    }
}

/// Kind of memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load; leaves the page clean if it was clean.
    Read,
    /// A store; marks the page dirty (dirty pages cost more to evict).
    Write,
}

/// Residency state of a virtual page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Never touched (or discarded): the next touch is a demand-zero fill.
    #[default]
    Unmapped,
    /// Backed by a physical frame.
    Resident,
    /// Swapped out; contents preserved on the swap device. The next touch
    /// is a major fault.
    Evicted,
}

/// What happened during a [`Vmm::touch`](crate::Vmm::touch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// The page was read back from swap (a major fault was charged).
    pub major_fault: bool,
    /// The page was freshly demand-zero mapped: contents of a discarded page
    /// do not survive, so the caller's backing store for it must read as
    /// zero. The heap drops a page it discards from its store at the
    /// discard (`heap::MemCtx::madvise_dontneed`); its touch path zeroes
    /// whatever else is left under a page the VMM does not map.
    pub zero_filled: bool,
    /// The page was protected; a [`VmEvent::ProtectionFault`] was queued for
    /// the owner and the protection was removed.
    ///
    /// [`VmEvent::ProtectionFault`]: crate::VmEvent::ProtectionFault
    pub protection_fault: bool,
    /// Events were queued for the owning process during this touch (the
    /// caller should pump the runtime's signal handler).
    pub events_queued: bool,
}

/// Which LRU list a page currently believes it is on (lazy-deletion tag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum ListTag {
    #[default]
    None,
    Active,
    Inactive,
}

/// Full bookkeeping for one virtual page.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PageInfo {
    pub state: PageState,
    /// Clock-algorithm referenced bit.
    pub referenced: bool,
    /// Needs write-back if evicted.
    pub dirty: bool,
    /// `mlock`ed: never considered for eviction (signalmem uses this).
    pub locked: bool,
    /// `mprotect`ed: the next touch raises a protection fault upcall.
    pub protected: bool,
    /// Scheduled for eviction; a notice has been queued to the owner and the
    /// page will be evicted at the next reclaim pass unless rescued.
    pub pending_eviction: bool,
    /// Voluntarily surrendered via `vm_relinquish`: evict without notice.
    pub relinquished: bool,
    pub list: ListTag,
}

impl PageInfo {
    pub(crate) fn is_resident(&self) -> bool {
        self.state == PageState::Resident
    }

    /// Whether a touch needs no fault, trap, or list move: the invariant
    /// [`Vmm::touch`](crate::Vmm::touch)'s inlined fast path tests and its
    /// last-touched cache certifies.
    #[inline]
    pub(crate) fn fast_touchable(&self) -> bool {
        self.is_resident() && !self.protected && self.list == ListTag::Active
    }

    /// Whether the reclaim scan may evict this page right now.
    pub(crate) fn evictable(&self) -> bool {
        self.is_resident() && !self.locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_page_address_round_trip() {
        let p = VirtPage::containing(8192);
        assert_eq!(p, VirtPage::new(2));
        assert_eq!(p.base_addr(), 8192);
        assert_eq!(p.number(), 2);
        assert_eq!(VirtPage::containing(8191), VirtPage::new(1));
        assert_eq!(VirtPage::containing(0), VirtPage::new(0));
    }

    #[test]
    fn process_id_round_trips_past_the_old_u8_range() {
        let pid = ProcessId::new(70_000);
        assert_eq!(pid.as_u32(), 70_000);
        assert_eq!(pid.index(), 70_000usize);
    }

    #[test]
    fn display_formats_are_nonempty() {
        let key = PageKey {
            pid: ProcessId::new(1),
            page: VirtPage::new(42),
        };
        assert_eq!(key.to_string(), "pid1/p42");
    }

    #[test]
    fn default_page_is_unmapped_and_unlisted() {
        let info = PageInfo::default();
        assert_eq!(info.state, PageState::Unmapped);
        assert!(!info.is_resident());
        assert!(!info.evictable());
        assert_eq!(info.list, ListTag::None);
    }

    #[test]
    fn locked_pages_are_not_evictable() {
        let info = PageInfo {
            state: PageState::Resident,
            locked: true,
            ..PageInfo::default()
        };
        assert!(!info.evictable());
        let unlocked = PageInfo {
            locked: false,
            ..info
        };
        assert!(unlocked.evictable());
    }
}
