//! The byte-addressable simulated memory backing a process's heap.
//!
//! Pages are materialized lazily on first write. Contents survive simulated
//! eviction (as they would on a swap device). A page the heap no longer
//! uses owns no host memory (DESIGN.md §10.6); three paths drop pages:
//!
//! * **discard** — [`MemCtx::madvise_dontneed`](crate::MemCtx::madvise_dontneed)
//!   calls [`discard`](SimMemory::discard) for every page the VMM actually
//!   gave up under `madvise(MADV_DONTNEED)`;
//! * **release** — a space that gives pages back to its
//!   [`PagePool`](crate::PagePool) drops them as it does:
//!   [`BumpSpace::release_all`](crate::BumpSpace::release_all),
//!   [`MsSpace::release_sp`](crate::MsSpace::release_sp) (and
//!   [`free_cell`](crate::MsSpace::free_cell), which calls it) and
//!   [`LargeObjectSpace::free`](crate::LargeObjectSpace::free). The VMM is
//!   not told: the frames stay, as a VMM-oblivious collector's would;
//! * **exit** — [`Core::exit`](crate::gc::Core::exit) drops the whole
//!   memory when the process's program has ended.
//!
//! A dropped page reads as zero until the next write materializes it again;
//! nothing reads a released page's old bytes, since every new cell is
//! zeroed or overwritten whole. A page that holds bytes the VMM no longer
//! maps for some other reason (a raw `Vmm::madvise_dontneed`, a write that
//! never touched the VMM) is wiped by [`MemCtx`](crate::MemCtx) at its next
//! touch, when the VMM reports a demand-zero fill.
//!
//! `SimMemory` performs **no cost accounting**: it is raw storage. All
//! charged access goes through [`MemCtx`](crate::MemCtx).
//!
//! Two API levels. [`read_word`](SimMemory::read_word) and
//! [`write_word`](SimMemory::write_word) are the general word-at-a-time
//! interface — and the reference the rest is tested against. The
//! page-granular accessors ([`span`](SimMemory::span),
//! [`span_mut`](SimMemory::span_mut), [`read_pair`](SimMemory::read_pair),
//! [`write_pair`](SimMemory::write_pair),
//! [`update_word`](SimMemory::update_word)) walk the page directory **once
//! per page** and hand back the page's words, which is what the object
//! primitives in [`crate::gc`] are built on (DESIGN.md §10.2). Both levels
//! materialize exactly the same pages: reads never do, writes do.

use vmm::pagemap::{PageMap, LEAF_PAGES};

use crate::addr::{Address, BYTES_PER_PAGE, WORD};

const PAGE: usize = BYTES_PER_PAGE as usize;

/// Words per page.
const PAGE_WORDS: usize = PAGE / 4;

/// One page's words, the 4 KiB host box a materialized page owns. The
/// system allocator already aligns a 4 KiB block to 16 bytes, so the
/// alignment costs nothing; it gives page boxes a layout no other
/// allocation has ([`PAGE_BOX_ALIGN`]), unlike a `Vec<u32>` of 1 024 words.
#[repr(C, align(16))]
struct PageWords([u32; PAGE_WORDS]);

/// The alignment of a page box: an allocation of `BYTES_PER_PAGE` bytes at
/// this alignment is a `SimMemory` page and nothing else.
pub const PAGE_BOX_ALIGN: usize = align_of::<PageWords>();

type PageBox = Option<Box<PageWords>>;

/// The page directory: `vmm`'s radix [`PageMap`] with one page box per
/// page, so it costs one 1 KiB inner node per 64 MiB region written and one
/// 1 KiB leaf per 128 pages — what the heap uses, not the ~3 GiB the
/// layout spans.
type Directory = PageMap<[PageBox; LEAF_PAGES]>;

/// What every never-materialized page reads as: [`SimMemory::span`] lends
/// this instead of materializing, so a read costs no host memory.
static ZERO_PAGE: [u32; PAGE_WORDS] = [0; PAGE_WORDS];

#[cold]
#[inline(never)]
fn empty_directory() -> Box<Directory> {
    Box::default()
}

#[cold]
#[inline(never)]
fn zero_page() -> Box<PageWords> {
    Box::new(PageWords([0; PAGE_WORDS]))
}

/// A sparse, page-granular byte store over the 32-bit simulated space: a
/// radix page directory of lazily materialized 4 KiB pages. The directory's
/// root is boxed and allocated by the first write, so a memory that was
/// never written owns nothing and the struct is one pointer wide.
#[derive(Default)]
pub struct SimMemory {
    dir: Option<Box<Directory>>,
}

impl core::fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SimMemory")
            .field("materialized_pages", &self.materialized_pages())
            .finish()
    }
}

impl SimMemory {
    /// Creates an empty memory; every page reads as zero.
    pub fn new() -> SimMemory {
        SimMemory::default()
    }

    /// The materialized page at `idx`, or `None` (reads as zero).
    #[inline]
    fn page(&self, idx: u32) -> Option<&[u32; PAGE_WORDS]> {
        self.dir.as_deref()?.get(idx)?.as_deref().map(|p| &p.0)
    }

    /// The slot holding page `idx`, if its directory leaf exists.
    #[inline]
    fn slot_opt_mut(&mut self, idx: u32) -> Option<&mut PageBox> {
        self.dir.as_deref_mut()?.get_mut(idx)
    }

    /// The materialized page at `idx` for writing, without materializing.
    #[inline]
    fn page_opt_mut(&mut self, idx: u32) -> Option<&mut [u32; PAGE_WORDS]> {
        self.slot_opt_mut(idx)?.as_deref_mut().map(|p| &mut p.0)
    }

    /// Page `idx` for writing, materialized on first use. One walk: the
    /// loads a read makes, each level filled in by an outlined, cold
    /// constructor if it is missing.
    #[inline]
    fn page_mut(&mut self, idx: u32) -> &mut [u32; PAGE_WORDS] {
        &mut self
            .dir
            .get_or_insert_with(empty_directory)
            .get_or_default(idx)
            .get_or_insert_with(zero_page)
            .0
    }

    /// The page index and in-page word offset of a word-aligned address.
    #[inline]
    fn locate(addr: Address) -> (u32, usize) {
        (
            addr.0 / BYTES_PER_PAGE,
            (addr.0 % BYTES_PER_PAGE) as usize / 4,
        )
    }

    /// Borrows up to `words` words starting at `addr`, clipped at the end
    /// of `addr`'s page (so the slice is at least one word long for
    /// `words > 0`, and callers walking a longer range advance by its
    /// length). One directory walk; a never-materialized page lends zeroes
    /// without being materialized.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn span(&self, addr: Address, words: usize) -> &[u32] {
        assert!(addr.is_word_aligned(), "unaligned read at {addr}");
        let (idx, off) = Self::locate(addr);
        let end = (off + words).min(PAGE_WORDS);
        &self.page(idx).unwrap_or(&ZERO_PAGE)[off..end]
    }

    /// Mutably borrows up to `words` words starting at `addr`, clipped at
    /// the end of `addr`'s page, materializing the page (as any write
    /// does). One directory walk when the page already exists.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn span_mut(&mut self, addr: Address, words: usize) -> &mut [u32] {
        assert!(addr.is_word_aligned(), "unaligned write at {addr}");
        let (idx, off) = Self::locate(addr);
        let end = (off + words).min(PAGE_WORDS);
        &mut self.page_mut(idx)[off..end]
    }

    /// Reads the words at `addr` and `addr + 4` (an object header) with one
    /// walk unless the pair straddles a page boundary.
    #[inline]
    pub fn read_pair(&self, addr: Address) -> (u32, u32) {
        match *self.span(addr, 2) {
            [w0, w1] => (w0, w1),
            [w0] => (w0, self.read_word(addr.offset(WORD))),
            _ => unreachable!("span of two words is one or two long"),
        }
    }

    /// Writes the words at `addr` and `addr + 4` with one walk unless the
    /// pair straddles a page boundary.
    #[inline]
    pub fn write_pair(&mut self, addr: Address, w0: u32, w1: u32) {
        match self.span_mut(addr, 2) {
            [a, b] => (*a, *b) = (w0, w1),
            [a] => {
                *a = w0;
                self.write_word(addr.offset(WORD), w1);
            }
            _ => unreachable!("span of two words is one or two long"),
        }
    }

    /// Read-modify-write of the word at `addr` with one walk: `f` sees the
    /// current word and returns its replacement, or `None` to leave the
    /// word — and a never-materialized page — as it is. Returns the word
    /// `f` saw.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn update_word(&mut self, addr: Address, f: impl FnOnce(u32) -> Option<u32>) -> u32 {
        assert!(addr.is_word_aligned(), "unaligned write at {addr}");
        let (idx, off) = Self::locate(addr);
        if let Some(p) = self.page_opt_mut(idx) {
            let old = p[off];
            if let Some(new) = f(old) {
                p[off] = new;
            }
            return old;
        }
        if let Some(new) = f(0) {
            self.page_mut(idx)[off] = new;
        }
        0
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn read_word(&self, addr: Address) -> u32 {
        assert!(addr.is_word_aligned(), "unaligned read at {addr}");
        let (idx, off) = Self::locate(addr);
        match self.page(idx) {
            Some(p) => p[off],
            None => 0,
        }
    }

    /// Writes the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned.
    #[inline]
    pub fn write_word(&mut self, addr: Address, value: u32) {
        assert!(addr.is_word_aligned(), "unaligned write at {addr}");
        let (idx, off) = Self::locate(addr);
        self.page_mut(idx)[off] = value;
    }

    /// Zeroes `[addr, addr + bytes)` (word-aligned on both ends).
    ///
    /// Runs one `fill(0)` per page rather than a word loop. Pages never
    /// materialized are skipped — they already read as zero.
    pub fn zero(&mut self, addr: Address, bytes: u32) {
        assert!(addr.is_word_aligned() && bytes.is_multiple_of(4));
        let start = addr.0 as u64;
        let end = start + bytes as u64;
        let mut a = start;
        while a < end {
            let idx = (a / BYTES_PER_PAGE as u64) as u32;
            let off = (a % BYTES_PER_PAGE as u64) as usize / 4;
            let run = (((end - a) / 4) as usize).min(PAGE_WORDS - off);
            if let Some(p) = self.page_opt_mut(idx) {
                p[off..off + run].fill(0);
            }
            a += (run * 4) as u64;
        }
    }

    /// Copies `bytes` (word multiple) from `src` to `dst`. Ranges must not
    /// overlap.
    ///
    /// Copies page-sized slice runs instead of looping word-by-word; an
    /// unmaterialized source page reads as zeroes, so the destination run is
    /// zero-filled instead of copied.
    pub fn copy(&mut self, src: Address, dst: Address, bytes: u32) {
        assert!(src.is_word_aligned() && dst.is_word_aligned() && bytes.is_multiple_of(4));
        debug_assert!(
            src.0 + bytes <= dst.0 || dst.0 + bytes <= src.0,
            "overlapping copy {src}..+{bytes} -> {dst}"
        );
        let total = bytes as u64;
        let mut done: u64 = 0;
        while done < total {
            let s = src.0 as u64 + done;
            let d = dst.0 as u64 + done;
            let s_idx = (s / BYTES_PER_PAGE as u64) as u32;
            let s_off = (s % BYTES_PER_PAGE as u64) as usize / 4;
            let d_idx = (d / BYTES_PER_PAGE as u64) as u32;
            let d_off = (d % BYTES_PER_PAGE as u64) as usize / 4;
            let run = (((total - done) / 4) as usize)
                .min(PAGE_WORDS - s_off)
                .min(PAGE_WORDS - d_off);
            if s_idx == d_idx {
                // An absent page is all zeroes on both sides already.
                if let Some(p) = self.page_opt_mut(s_idx) {
                    p.copy_within(s_off..s_off + run, d_off);
                }
            } else if let Some(sp) = self.slot_opt_mut(s_idx).and_then(Option::take) {
                // Detach the source page so the destination can be borrowed
                // (and lazily materialized) at the same time.
                self.page_mut(d_idx)[d_off..d_off + run].copy_from_slice(&sp.0[s_off..s_off + run]);
                *self.slot_opt_mut(s_idx).expect("slot taken from above") = Some(sp);
            } else if let Some(p) = self.page_opt_mut(d_idx) {
                // Source reads as zero; only clear a materialized target.
                p[d_off..d_off + run].fill(0);
            }
            done += (run * 4) as u64;
        }
    }

    /// Drops page `page` and the 4 KiB it owns: it reads as zero until the
    /// next write materializes it again. The radix leaf above it stays, so
    /// a later write there allocates only the page. A no-op for a page that
    /// was never materialized.
    pub fn discard(&mut self, page: u32) {
        if let Some(slot) = self.slot_opt_mut(page) {
            *slot = None;
        }
    }

    /// The numbers of the pages this memory holds, in ascending order.
    pub fn materialized(&self) -> impl Iterator<Item = u32> + '_ {
        self.dir
            .iter()
            .flat_map(|d| d.leaves())
            .flat_map(|(first, leaf)| {
                (first..)
                    .zip(leaf.iter())
                    .filter_map(|(page, slot)| slot.as_ref().map(|_| page))
            })
    }

    /// Number of pages this memory holds: written and not discarded since
    /// (for diagnostics).
    pub fn materialized_pages(&self) -> usize {
        self.materialized().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SimMemory::new();
        assert_eq!(mem.read_word(Address(0)), 0);
        assert_eq!(mem.read_word(Address(0x4000_0000)), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut mem = SimMemory::new();
        mem.write_word(Address(4096), 0xDEAD_BEEF);
        mem.write_word(Address(4100), 42);
        assert_eq!(mem.read_word(Address(4096)), 0xDEAD_BEEF);
        assert_eq!(mem.read_word(Address(4100)), 42);
        assert_eq!(mem.read_word(Address(4104)), 0);
        assert_eq!(mem.materialized_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let mem = SimMemory::new();
        mem.read_word(Address(2));
    }

    #[test]
    fn zero_clears_partial_and_full_pages() {
        let mut mem = SimMemory::new();
        for off in (0..12288).step_by(4) {
            mem.write_word(Address(off), 7);
        }
        // Zero [2048, 10240): a partial page, a whole page, a partial page.
        mem.zero(Address(2048), 8192);
        assert_eq!(mem.read_word(Address(2044)), 7);
        assert_eq!(mem.read_word(Address(2048)), 0);
        assert_eq!(mem.read_word(Address(4096)), 0);
        assert_eq!(mem.read_word(Address(8192)), 0);
        assert_eq!(mem.read_word(Address(10236)), 0);
        assert_eq!(mem.read_word(Address(10240)), 7);
    }

    #[test]
    fn copy_from_unmaterialized_source_zeroes_destination() {
        let mut mem = SimMemory::new();
        for off in (0..64u32).step_by(4) {
            mem.write_word(Address(0x1000 + off), 9);
        }
        // Source range was never written: reads as zero, so the copy must
        // leave the destination reading as zero too.
        mem.copy(Address(0x8000), Address(0x1000), 64);
        for off in (0..64u32).step_by(4) {
            assert_eq!(mem.read_word(Address(0x1000 + off)), 0);
        }
    }

    #[test]
    fn copy_spans_page_boundaries() {
        let mut mem = SimMemory::new();
        // Source straddles the page 0 / page 1 boundary.
        for i in 0..64u32 {
            mem.write_word(Address(4096 - 128 + i * 4), i + 1);
        }
        // Destination straddles the page 4 / page 5 boundary at a
        // different offset, so runs are re-chunked on both sides.
        mem.copy(Address(4096 - 128), Address(5 * 4096 - 60), 256);
        for i in 0..64u32 {
            assert_eq!(mem.read_word(Address(5 * 4096 - 60 + i * 4)), i + 1);
        }
    }

    #[test]
    fn same_page_copy_uses_copy_within() {
        let mut mem = SimMemory::new();
        for i in 0..8u32 {
            mem.write_word(Address(i * 4), i + 50);
        }
        mem.copy(Address(0), Address(512), 32);
        for i in 0..8u32 {
            assert_eq!(mem.read_word(Address(512 + i * 4)), i + 50);
        }
        assert_eq!(mem.materialized_pages(), 1);
    }

    #[test]
    fn zero_partial_run_within_one_page() {
        let mut mem = SimMemory::new();
        for i in 0..32u32 {
            mem.write_word(Address(i * 4), 3);
        }
        mem.zero(Address(16), 48);
        assert_eq!(mem.read_word(Address(12)), 3);
        for off in (16..64u32).step_by(4) {
            assert_eq!(mem.read_word(Address(off)), 0);
        }
        assert_eq!(mem.read_word(Address(64)), 3);
    }

    #[test]
    fn discard_drops_the_page_and_reads_zero() {
        let mut mem = SimMemory::new();
        for page in [1u32, 2, 200] {
            mem.write_word(Address(page * BYTES_PER_PAGE + 8), page);
        }
        assert_eq!(mem.materialized().collect::<Vec<_>>(), [1, 2, 200]);
        mem.discard(2);
        // Never materialized, or in a leaf that does not exist: no-ops.
        mem.discard(3);
        mem.discard(0x8_0000);
        assert_eq!(mem.materialized().collect::<Vec<_>>(), [1, 200]);
        assert_eq!(mem.materialized_pages(), 2);
        assert_eq!(mem.read_word(Address(2 * BYTES_PER_PAGE + 8)), 0);
        assert_eq!(mem.read_word(Address(BYTES_PER_PAGE + 8)), 1);
        mem.write_word(Address(2 * BYTES_PER_PAGE + 4), 5);
        assert_eq!(mem.read_word(Address(2 * BYTES_PER_PAGE + 4)), 5);
        assert_eq!(mem.read_word(Address(2 * BYTES_PER_PAGE + 8)), 0);
        assert_eq!(mem.materialized_pages(), 3);
    }

    #[test]
    fn copy_moves_words() {
        let mut mem = SimMemory::new();
        for i in 0..16u32 {
            mem.write_word(Address(i * 4), i + 100);
        }
        mem.copy(Address(0), Address(0x1000), 64);
        for i in 0..16u32 {
            assert_eq!(mem.read_word(Address(0x1000 + i * 4)), i + 100);
        }
    }
}
