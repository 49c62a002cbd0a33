//! Handle-based root set.
//!
//! The simulated mutator never holds raw heap addresses across a potential
//! collection point — copying collectors move objects. Instead it holds
//! [`Handle`]s: indices into a `RootSet` whose slots the collector treats as
//! roots and updates when objects move (the analogue of stack and global
//! scanning in a real VM).

use crate::addr::Address;

/// An opaque, stable reference to a rooted object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(u32);

impl Handle {
    /// The raw slot index (diagnostics only).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The mutator's root table.
#[derive(Clone, Debug, Default)]
pub struct RootSet {
    slots: Vec<Address>,
    free: Vec<u32>,
}

impl RootSet {
    /// An empty root set.
    pub fn new() -> RootSet {
        RootSet::default()
    }

    /// Roots `addr`, returning a stable handle.
    #[inline]
    pub fn add(&mut self, addr: Address) -> Handle {
        debug_assert!(!addr.is_null(), "rooting null");
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = addr;
                Handle(idx)
            }
            None => {
                self.slots.push(addr);
                Handle((self.slots.len() - 1) as u32)
            }
        }
    }

    /// The current address of a rooted object.
    ///
    /// # Panics
    ///
    /// Panics if the handle was removed.
    #[inline]
    pub fn get(&self, h: Handle) -> Address {
        let addr = self.slots[h.0 as usize];
        assert!(!addr.is_null(), "use of dropped handle {h:?}");
        addr
    }

    /// Re-points a handle (used by `read_ref`-style loads that reuse slots).
    #[inline]
    pub fn set(&mut self, h: Handle, addr: Address) {
        debug_assert!(!addr.is_null());
        self.slots[h.0 as usize] = addr;
    }

    /// Unroots a handle; the slot is recycled.
    #[inline]
    pub fn remove(&mut self, h: Handle) {
        debug_assert!(!self.slots[h.0 as usize].is_null(), "double drop of {h:?}");
        self.slots[h.0 as usize] = Address::NULL;
        self.free.push(h.0);
    }

    /// Number of live roots.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no roots are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the live root addresses.
    pub fn iter(&self) -> impl Iterator<Item = Address> + '_ {
        self.slots.iter().copied().filter(|a| !a.is_null())
    }

    /// Visits each live slot mutably (collectors update moved objects here).
    pub fn for_each_slot_mut(&mut self, mut f: impl FnMut(&mut Address)) {
        for slot in &mut self.slots {
            if !slot.is_null() {
                f(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_remove_cycle() {
        let mut roots = RootSet::new();
        let h1 = roots.add(Address(0x100));
        let h2 = roots.add(Address(0x200));
        assert_eq!(roots.get(h1), Address(0x100));
        assert_eq!(roots.get(h2), Address(0x200));
        assert_eq!(roots.len(), 2);
        roots.remove(h1);
        assert_eq!(roots.len(), 1);
        // Slot is recycled.
        let h3 = roots.add(Address(0x300));
        assert_eq!(h3.index(), h1.index());
        assert_eq!(roots.get(h3), Address(0x300));
    }

    #[test]
    #[should_panic(expected = "dropped handle")]
    fn use_after_remove_panics() {
        let mut roots = RootSet::new();
        let h = roots.add(Address(0x100));
        roots.remove(h);
        let _ = roots.get(h);
    }

    #[test]
    fn slot_update_moves_objects() {
        let mut roots = RootSet::new();
        let h1 = roots.add(Address(0x100));
        let h2 = roots.add(Address(0x200));
        roots.for_each_slot_mut(|slot| *slot = Address(slot.0 + 0x1000));
        assert_eq!(roots.get(h1), Address(0x1100));
        assert_eq!(roots.get(h2), Address(0x1200));
    }

    #[test]
    fn iter_skips_dropped() {
        let mut roots = RootSet::new();
        let h1 = roots.add(Address(0x100));
        let _h2 = roots.add(Address(0x200));
        roots.remove(h1);
        let live: Vec<_> = roots.iter().collect();
        assert_eq!(live, vec![Address(0x200)]);
        assert!(!roots.is_empty());
    }
}
