//! Segregated size classes (§3 of the paper).
//!
//! "BC uses size classes designed to minimize both internal and external
//! fragmentation (which we bound at 25%). Each allocation size up to 64
//! bytes has its own size class. Larger object sizes fall into a range of 37
//! size classes; for all but the largest five, these have a worst-case
//! internal fragmentation of 15%. The five largest classes have between 16%
//! and 33% worst-case internal fragmentation; BC could only do better by
//! violating the bound on page-internal or external fragmentation."
//!
//! The construction here follows that recipe exactly:
//!
//! * 15 *small* classes: every word-multiple size from 8 to 64 bytes;
//! * 33 *geometric* classes growing by ≈12 % per step from 64 bytes up to
//!   ⌊usable/6⌋, keeping worst-case internal fragmentation under 15 %;
//! * 4 *divisor* classes ⌊usable/5⌋ … ⌊usable/2⌋ that tile a superpage's
//!   usable space perfectly (zero page-internal waste), at the cost of
//!   16–33 % worst-case internal fragmentation — the paper's "largest five"
//!   (the ⌊usable/6⌋ class is shared with the geometric tail).
//!
//! where *usable* = 16384 − 12 bytes of superpage-header metadata.

use std::sync::OnceLock;

use crate::addr::{BYTES_PER_SUPERPAGE, WORD};

/// Bytes of metadata at the start of every superpage (the superpage header
/// of §3.4, kept small so that "objects larger than 8180 bytes (half the
/// size of a superpage minus metadata)" overflow to the large object space).
pub const SUPERPAGE_METADATA_BYTES: u32 = 12;

/// Usable payload bytes per superpage.
pub const USABLE_BYTES: u32 = BYTES_PER_SUPERPAGE - SUPERPAGE_METADATA_BYTES;

/// Number of small classes (8, 12, …, 64 bytes).
const SMALL_CLASSES: usize = 15;
/// Number of geometric classes between 64 bytes and ⌊usable/6⌋.
const GEOMETRIC_CLASSES: usize = 33;
/// Divisor classes ⌊usable/5⌋ … ⌊usable/2⌋.
const DIVISOR_CLASSES: usize = 4;
/// Total class count: 15 small + 37 larger (33 geometric + 4 divisor).
pub const CLASS_COUNT: usize = SMALL_CLASSES + GEOMETRIC_CLASSES + DIVISOR_CLASSES;

/// One segregated size class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeClass {
    /// Index into [`SizeClasses`].
    pub index: u8,
    /// Cell size in bytes (word multiple).
    pub cell_bytes: u32,
    /// Cells per superpage at this class.
    pub cells_per_superpage: u32,
}

/// The full size-class table plus an O(1) size→class lookup.
#[derive(Debug)]
pub struct SizeClasses {
    classes: Vec<SizeClass>,
    /// `lookup[size]` = class index for a request of `size` bytes.
    lookup: Vec<u8>,
}

impl SizeClasses {
    /// Builds the table described in the module docs.
    pub fn new() -> SizeClasses {
        let mut sizes: Vec<u32> = Vec::with_capacity(CLASS_COUNT);
        // Small classes: every word size 8..=64.
        for s in (8..=64).step_by(WORD as usize) {
            sizes.push(s);
        }
        // Divisor classes (computed first so the geometric run can target
        // the /6 divisor).
        let divisors: Vec<u32> = (2..=6)
            .rev()
            .map(|k| (USABLE_BYTES / k) & !(WORD - 1))
            .collect(); // [usable/6, /5, /4, /3, /2] word-aligned down
        let geo_target = divisors[0]; // ⌊usable/6⌋
                                      // Geometric classes from 64 to geo_target in GEOMETRIC_CLASSES steps.
        let ratio = (geo_target as f64 / 64.0).powf(1.0 / GEOMETRIC_CLASSES as f64);
        let mut prev = 64u32;
        for i in 1..=GEOMETRIC_CLASSES {
            let ideal = 64.0 * ratio.powi(i as i32);
            let mut s = ((ideal.round() as u32) + WORD - 1) & !(WORD - 1);
            if s <= prev {
                s = prev + WORD;
            }
            if i == GEOMETRIC_CLASSES {
                s = geo_target;
            }
            sizes.push(s);
            prev = s;
        }
        // Remaining divisor classes.
        sizes.extend_from_slice(&divisors[1..]);
        debug_assert_eq!(sizes.len(), CLASS_COUNT);
        debug_assert!(sizes.windows(2).all(|w| w[0] < w[1]));

        let classes: Vec<SizeClass> = sizes
            .iter()
            .enumerate()
            .map(|(i, &cell_bytes)| SizeClass {
                index: i as u8,
                cell_bytes,
                cells_per_superpage: USABLE_BYTES / cell_bytes,
            })
            .collect();

        let max = *sizes.last().unwrap();
        let mut lookup = vec![0u8; max as usize + 1];
        let mut class = 0usize;
        for size in 1..=max {
            while sizes[class] < size {
                class += 1;
            }
            lookup[size as usize] = class as u8;
        }
        SizeClasses { classes, lookup }
    }

    /// The one table every [`MsSpace`](crate::MsSpace) reads. The table is
    /// a pure function of two constants, so a process needs one copy, not
    /// one per heap; it is immutable and takes no input, so sharing it
    /// cannot couple two runs.
    pub fn shared() -> &'static SizeClasses {
        static TABLE: OnceLock<SizeClasses> = OnceLock::new();
        TABLE.get_or_init(SizeClasses::new)
    }

    /// The class for a request of `bytes` (header included).
    ///
    /// Returns `None` when the request exceeds the largest cell and must go
    /// to the large object space.
    #[inline]
    pub fn class_for(&self, bytes: u32) -> Option<SizeClass> {
        let idx = *self.lookup.get(bytes.max(1) as usize)?;
        Some(self.classes[idx as usize])
    }

    /// The class at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= CLASS_COUNT`.
    #[inline]
    pub fn class(&self, index: u8) -> SizeClass {
        self.classes[index as usize]
    }

    /// All classes, smallest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &SizeClass> + ExactSizeIterator {
        self.classes.iter()
    }

    /// The largest cell size (requests above this overflow to the LOS).
    pub fn largest_cell(&self) -> u32 {
        self.classes.last().unwrap().cell_bytes
    }
}

impl Default for SizeClasses {
    fn default() -> SizeClasses {
        SizeClasses::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::MAX_SMALL_OBJECT_BYTES;

    #[test]
    fn class_count_matches_the_paper() {
        let t = SizeClasses::new();
        // 15 classes at/below 64 bytes; 37 above (§3: "a range of 37 size
        // classes").
        let small = t.iter().filter(|c| c.cell_bytes <= 64).count();
        let large = t.iter().filter(|c| c.cell_bytes > 64).count();
        assert_eq!(small, 15);
        assert_eq!(large, 37);
    }

    #[test]
    fn every_word_size_up_to_64_has_its_own_class() {
        let t = SizeClasses::new();
        for s in (8..=64u32).step_by(4) {
            let c = t.class_for(s).unwrap();
            assert_eq!(c.cell_bytes, s, "size {s} must have an exact class");
        }
    }

    #[test]
    fn internal_fragmentation_bounds() {
        let t = SizeClasses::new();
        let classes: Vec<_> = t.iter().copied().collect();
        for (i, c) in classes.iter().enumerate().skip(1) {
            let prev = classes[i - 1].cell_bytes;
            // Worst-fitting request: one word above the previous class.
            let worst = prev + WORD;
            let frag = (c.cell_bytes - worst) as f64 / c.cell_bytes as f64;
            let last_five = i >= classes.len() - 5;
            let bound = if last_five { 1.0 / 3.0 + 1e-9 } else { 0.15 };
            assert!(
                frag <= bound,
                "class {} ({}B after {}B): frag {:.3} exceeds {:.3}",
                i,
                c.cell_bytes,
                prev,
                frag,
                bound
            );
        }
        // The five largest classes match the paper's 16–33% range at the top.
        let top = classes.last().unwrap();
        let prev = classes[classes.len() - 2].cell_bytes;
        let frag = (top.cell_bytes - prev - WORD) as f64 / top.cell_bytes as f64;
        assert!(frag > 0.30 && frag < 0.34, "top class frag {frag:.3}");
    }

    #[test]
    fn page_internal_fragmentation_bounded_at_25_percent() {
        // §3: external/page-internal fragmentation "which we bound at 25%".
        let t = SizeClasses::new();
        for c in t.iter() {
            let used = c.cells_per_superpage * c.cell_bytes;
            let waste = (USABLE_BYTES - used) as f64 / USABLE_BYTES as f64;
            assert!(
                waste <= 0.25,
                "class {}B wastes {:.3} of a superpage",
                c.cell_bytes,
                waste
            );
            assert!(c.cells_per_superpage >= 2, "class {}B", c.cell_bytes);
        }
    }

    #[test]
    fn divisor_classes_tile_perfectly() {
        let t = SizeClasses::new();
        let top4: Vec<_> = t.iter().rev().take(4).collect();
        for c in top4 {
            let used = c.cells_per_superpage * c.cell_bytes;
            // Word-aligned divisor classes waste less than one cell's
            // rounding (k * 3 bytes).
            assert!(USABLE_BYTES - used < c.cell_bytes.min(64));
        }
    }

    #[test]
    fn los_threshold_objects_fit_in_the_largest_class() {
        let t = SizeClasses::new();
        // §3: objects up to 8180 bytes are heap-allocated.
        assert!(t.largest_cell() >= MAX_SMALL_OBJECT_BYTES);
        assert!(t.class_for(MAX_SMALL_OBJECT_BYTES).is_some());
        assert!(t.class_for(t.largest_cell() + 1).is_none());
    }

    #[test]
    fn lookup_is_tight() {
        let t = SizeClasses::new();
        for bytes in [8u32, 9, 63, 64, 65, 100, 1000, 5000, 8180] {
            let c = t.class_for(bytes).unwrap();
            assert!(c.cell_bytes >= bytes);
            if c.index > 0 {
                let prev = t.class(c.index - 1);
                assert!(prev.cell_bytes < bytes, "class not minimal for {bytes}");
            }
        }
    }

    #[test]
    fn the_shared_table_is_one_fresh_table() {
        let (shared, fresh) = (SizeClasses::shared(), SizeClasses::new());
        assert!(shared.iter().eq(fresh.iter()), "class for class");
        for bytes in 0..=fresh.largest_cell() + 1 {
            assert_eq!(shared.class_for(bytes), fresh.class_for(bytes), "{bytes}");
        }
        assert_eq!(fresh.largest_cell(), 8184);
        assert!(std::ptr::eq(shared, SizeClasses::shared()));
    }

    #[test]
    fn classes_are_strictly_increasing_word_multiples() {
        let t = SizeClasses::new();
        let mut prev = 0;
        for c in t.iter() {
            assert!(c.cell_bytes > prev);
            assert_eq!(c.cell_bytes % WORD, 0);
            prev = c.cell_bytes;
        }
    }
}
