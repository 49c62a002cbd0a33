//! Page-sized write buffers (§3.1).
//!
//! "Like all generational collectors, BC must remember pointers from the
//! older to the younger generation. It normally stores these pointers in
//! page-sized write buffers that provide fast storage and processing but may
//! demand unbounded amounts of space. To limit space overhead, BC processes
//! buffers when they fill."
//!
//! A buffer owns no memory until the first store it records, so a BC heap
//! that never stores an old-to-young pointer pays nothing for it (DESIGN.md
//! §10.6). That store allocates the one [`BUFFER_SLOTS`]-slot page, and the
//! buffer keeps it across drains: whoever [`drain`](WriteBuffer::drain)s the
//! entries hands the emptied page back with
//! [`give_back`](WriteBuffer::give_back), and [`clear`](WriteBuffer::clear)
//! empties it in place.

use crate::addr::Address;

/// Slots per buffer: one 4 KiB page of 4-byte slot addresses.
pub const BUFFER_SLOTS: usize = 1024;

/// A sequential store buffer of pointer-store slot addresses.
#[derive(Clone, Debug, Default)]
pub struct WriteBuffer {
    slots: Vec<Address>,
}

impl WriteBuffer {
    /// An empty buffer, without its page.
    pub fn new() -> WriteBuffer {
        WriteBuffer::default()
    }

    /// Records a pointer store into `slot`. Returns `true` when the buffer
    /// has just filled and should be processed (§3.1 filtering).
    #[must_use]
    #[inline]
    pub fn record(&mut self, slot: Address) -> bool {
        if self.slots.capacity() == 0 {
            self.allocate_page();
        }
        self.slots.push(slot);
        self.slots.len() >= BUFFER_SLOTS
    }

    #[cold]
    #[inline(never)]
    fn allocate_page(&mut self) {
        self.slots.reserve_exact(BUFFER_SLOTS);
    }

    /// Takes every recorded slot, leaving the buffer empty. Hand the
    /// vector back with [`give_back`](WriteBuffer::give_back) once its
    /// entries are processed, so the next store reuses its page.
    pub fn drain(&mut self) -> Vec<Address> {
        std::mem::take(&mut self.slots)
    }

    /// Takes back the page [`drain`](WriteBuffer::drain) lent out,
    /// emptying it.
    pub fn give_back(&mut self, mut page: Vec<Address>) {
        debug_assert!(self.slots.is_empty(), "a store was recorded mid-drain");
        page.clear();
        self.slots = page;
    }

    /// Forgets every recorded slot, keeping the page.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Recorded entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no stores are recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates the recorded slots.
    pub fn iter(&self) -> impl Iterator<Item = Address> + '_ {
        self.slots.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_alloc::allocations_during;

    #[test]
    fn fills_at_page_capacity() {
        let mut buf = WriteBuffer::new();
        for i in 0..BUFFER_SLOTS - 1 {
            assert!(!buf.record(Address(i as u32 * 4)));
        }
        assert!(buf.record(Address(0xFFFC)), "1024th record signals full");
        assert_eq!(buf.len(), BUFFER_SLOTS);
    }

    #[test]
    fn drain_empties() {
        let mut buf = WriteBuffer::new();
        let _ = buf.record(Address(4));
        let _ = buf.record(Address(8));
        let drained = buf.drain();
        assert_eq!(drained, vec![Address(4), Address(8)]);
        assert!(buf.is_empty());
        buf.give_back(drained);
        assert!(buf.is_empty(), "the page comes back empty");
    }

    /// The page is allocated once, at the first store, and reused by every
    /// fill after it: ten fill / drain / give-back cycles and a clear make
    /// one allocation, and each fill still signals full at its 1 024th
    /// record.
    #[test]
    fn one_page_from_the_first_store_on() {
        let ((), allocations) = allocations_during(|| {
            let mut buf = WriteBuffer::new();
            assert!(buf.is_empty());
            for _ in 0..10 {
                for i in 0..BUFFER_SLOTS - 1 {
                    assert!(!buf.record(Address(i as u32 * 4)));
                }
                assert!(buf.record(Address(0xFFFC)), "1024th record signals full");
                let entries = buf.drain();
                assert_eq!(entries.len(), BUFFER_SLOTS);
                buf.give_back(entries);
            }
            let _ = buf.record(Address(4));
            buf.clear();
            assert!(buf.is_empty());
            let _ = buf.record(Address(8));
            assert_eq!(buf.iter().collect::<Vec<_>>(), [Address(8)]);
        });
        // The `collect` above is the second allocation.
        assert_eq!(allocations, 2);
    }

    #[test]
    fn a_new_buffer_owns_nothing() {
        let (buf, allocations) = allocations_during(WriteBuffer::new);
        assert_eq!(allocations, 0);
        let mut buf = buf;
        let (_, allocations) = allocations_during(|| buf.drain());
        assert_eq!(
            allocations, 0,
            "draining an unused buffer allocates nothing"
        );
    }
}
