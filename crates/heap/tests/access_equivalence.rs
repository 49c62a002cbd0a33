//! The charged object primitives on [`Core`] are built on `SimMemory`'s
//! page-granular accessors (one directory walk per page, DESIGN.md §10.2).
//! This suite holds them to a word-at-a-time reference that uses nothing
//! but [`MemCtx::touch`] and `SimMemory::{read_word, write_word}`: after
//! every step of a random script the two worlds must agree on the value
//! returned, the VMM's touch and minor-fault counts and the simulated
//! clock; the fast world holds no more pages than the reference, and none
//! the VMM does not map.
//!
//! The fixed slots below put a header across a page boundary (offset
//! 4092), a reference span across one, an object over three pages, and a
//! slot that is only ever read (reads must not materialize its page).
//! `Discard` ops drop pages the two ways a page can be discarded: the fast
//! world through `MemCtx::madvise_dontneed`, which drops the host page at
//! once, the reference through a raw `Vmm::madvise_dontneed`, whose stale
//! page the next touch's demand-zero fill wipes. Both must read alike.

// Property suites run hundreds of cases; far too slow under Miri's
// interpreter. The Miri CI job covers the plain unit tests instead.
#![cfg(not(miri))]

use std::collections::BTreeSet;

use proptest::prelude::*;

use heap::gc::Core;
use heap::object::{field_addr, HEADER_BYTES};
use heap::{Address, Header, HeapConfig, MemCtx, ObjectKind, SimMemory, BYTES_PER_PAGE, WORD};
use simtime::{Clock, CostModel};
use vmm::{Access, PageState, ProcessId, VirtPage, Vmm, VmmConfig};

const BASE: u32 = 0x1040_0000;

/// Small-object slots, 64 bytes apart at least (scalars here are at most
/// 56 bytes), so copies between them never overlap.
const SMALL: [Address; 6] = [
    Address(BASE + 0x40),
    Address(BASE + 0x80),
    // Header word 0 on page 0, word 1 on page 1.
    Address(BASE + 4092),
    // Header ends at the boundary of pages 1 and 2; with three or more
    // reference fields the scanned span crosses into page 2.
    Address(BASE + 2 * 4096 - 16),
    Address(BASE + 3 * 4096),
    Address(BASE + 5 * 4096 + 4092),
];
/// A 6008-byte reference array over pages 16, 17 and 18.
const BIG: Address = Address(BASE + 16 * 4096 + 3000);
const BIG_LEN: u32 = 1500;
/// Only ever read: its page must never materialize.
const READ_ONLY: Address = Address(BASE + 8 * 4096 + 128);

const BIG_SLOT: usize = SMALL.len();
const READ_ONLY_SLOT: usize = SMALL.len() + 1;
const SLOTS: usize = SMALL.len() + 2;

fn slot_addr(slot: usize) -> Address {
    match slot {
        BIG_SLOT => BIG,
        READ_ONLY_SLOT => READ_ONLY,
        s => SMALL[s],
    }
}

/// What a step returned, for comparison between the worlds.
#[derive(Debug, PartialEq)]
enum Out {
    Unit,
    Header(Header),
    MaybeForwarded(Result<Header, Address>),
    Bool(bool),
    Refs(Vec<(Address, Address)>),
    Addr(Address),
}

/// One world's VMM and clock (the memory differs per world).
struct Machine {
    vmm: Vmm,
    clock: Clock,
    pid: ProcessId,
}

impl Machine {
    fn new() -> Machine {
        let mut vmm = Vmm::new(
            VmmConfig::builder().frames(4096).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        Machine {
            vmm,
            clock: Clock::new(),
            pid,
        }
    }

    fn ctx(&mut self) -> MemCtx<'_> {
        MemCtx::new(&mut self.vmm, &mut self.clock, self.pid)
    }

    /// (touches, minor faults, now).
    fn observed(&self) -> (u64, u64, u64) {
        let s = self.vmm.stats(self.pid);
        (s.touches, s.minor_faults, self.clock.now().as_nanos())
    }

    fn state(&self, page: u32) -> PageState {
        self.vmm.page_state(self.pid, VirtPage::new(page))
    }
}

/// The word-at-a-time reference: every body is the pre-fusion one, spelled
/// with `touch`, `read_word` and `write_word` only. `written` shadows which
/// pages a write has materialized, which is all `zero` and `copy` need to
/// know to skip or fill exactly the pages `SimMemory`'s bulk operations do.
struct Reference {
    mem: SimMemory,
    written: BTreeSet<u32>,
}

impl Reference {
    fn write(&mut self, a: Address, v: u32) {
        self.written.insert(a.page().number());
        self.mem.write_word(a, v);
    }

    fn materialized(&self, a: Address) -> bool {
        self.written.contains(&a.page().number())
    }

    fn header_words(&mut self, ctx: &mut MemCtx<'_>, obj: Address, access: Access) -> (u32, u32) {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, access);
        (
            self.mem.read_word(obj),
            self.mem.read_word(obj.offset(WORD)),
        )
    }

    fn header(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Header {
        let (w0, w1) = self.header_words(ctx, obj, Access::Read);
        Header::decode(w0, w1)
    }

    fn header_or_forward(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Result<Header, Address> {
        let (w0, w1) = self.header_words(ctx, obj, Access::Read);
        Header::decode_forwarded(w0, w1)
    }

    fn write_header(&mut self, ctx: &mut MemCtx<'_>, obj: Address, h: Header) {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Write);
        let (w0, w1) = h.encode();
        self.write(obj, w0);
        self.write(obj.offset(WORD), w1);
    }

    fn try_mark(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> bool {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Write);
        let w0 = self.mem.read_word(obj);
        if Header::is_marked(w0) {
            false
        } else {
            self.write(obj, Header::with_mark(w0, true));
            true
        }
    }

    fn is_marked(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> bool {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Read);
        Header::is_marked(self.mem.read_word(obj))
    }

    fn clear_mark(&mut self, ctx: &mut MemCtx<'_>, obj: Address) {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Write);
        let w0 = self.mem.read_word(obj);
        self.write(obj, Header::with_mark(w0, false));
    }

    fn init_object(&mut self, ctx: &mut MemCtx<'_>, obj: Address, kind: ObjectKind) {
        let size = kind.size_bytes();
        ctx.touch(&mut self.mem, obj, size, Access::Write);
        for off in (0..size).step_by(WORD as usize) {
            // `SimMemory::zero` leaves never-written pages alone.
            if self.materialized(obj.offset(off)) {
                self.write(obj.offset(off), 0);
            }
        }
        let (w0, w1) = Header::new(kind).encode();
        self.write(obj, w0);
        self.write(obj.offset(WORD), w1);
        let costs = ctx.vmm.costs();
        let charge = costs.alloc_object + costs.ram_word * (size / WORD) as u64;
        ctx.clock.advance(charge);
    }

    fn scan_refs(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Vec<(Address, Address)> {
        let h = self.header(ctx, obj);
        let n = h.kind.num_ref_fields();
        let costs = ctx.vmm.costs();
        let charge = costs.scan_object + costs.scan_ref * n as u64;
        ctx.clock.advance(charge);
        let mut out = Vec::new();
        if n == 0 {
            return out;
        }
        ctx.touch(
            &mut self.mem,
            obj.offset(HEADER_BYTES),
            n * WORD,
            Access::Read,
        );
        for i in 0..n {
            let slot = field_addr(obj, i);
            let target = Address(self.mem.read_word(slot));
            if !target.is_null() {
                out.push((slot, target));
            }
        }
        out
    }

    fn copy_object(&mut self, ctx: &mut MemCtx<'_>, from: Address, to: Address, size: u32) {
        ctx.touch(&mut self.mem, from, size, Access::Read);
        ctx.touch(&mut self.mem, to, size, Access::Write);
        for off in (0..size).step_by(WORD as usize) {
            let (s, d) = (from.offset(off), to.offset(off));
            // `SimMemory::copy`: a never-written source page reads as zero
            // and only clears a destination page that exists.
            if self.materialized(s) {
                let w = self.mem.read_word(s);
                self.write(d, w);
            } else if self.materialized(d) {
                self.write(d, 0);
            }
        }
        let (w0, w1) = Header::forwarding_stub(to);
        self.write(from, w0);
        self.write(from.offset(WORD), w1);
        let charge = ctx.vmm.costs().copy_byte * size as u64;
        ctx.clock.advance(charge);
    }
}

/// Both worlds plus what the driver knows about each slot, which keeps the
/// script away from the one documented panic (`header` on a forwarding
/// stub) and from overlapping copies.
struct Worlds {
    fast_machine: Machine,
    fast: Core,
    ref_machine: Machine,
    reference: Reference,
    kind: [Option<ObjectKind>; SLOTS],
    forwarded: [bool; SLOTS],
}

impl Worlds {
    fn new() -> Worlds {
        Worlds {
            fast_machine: Machine::new(),
            fast: Core::new(HeapConfig::builder().heap_bytes(4 << 20).build()),
            ref_machine: Machine::new(),
            reference: Reference {
                mem: SimMemory::new(),
                written: BTreeSet::new(),
            },
            kind: [None; SLOTS],
            forwarded: [false; SLOTS],
        }
    }

    /// Runs one scripted step in both worlds; returns what each returned.
    fn step(&mut self, op: u8, slot: usize, a: u16, b: u16) -> (Out, Out) {
        let obj = slot_addr(slot);
        let fc = &mut self.fast_machine.ctx();
        let rc = &mut self.ref_machine.ctx();
        let (fast, reference) = (&mut self.fast, &mut self.reference);
        // The read-only slot sees only the reading primitives.
        let op = if slot == READ_ONLY_SLOT {
            [1, 2, 5, 7][op as usize % 4]
        } else {
            op % 12
        };
        match op {
            0 => {
                let kind = if slot == BIG_SLOT {
                    ObjectKind::Array {
                        len: BIG_LEN,
                        refs: a.is_multiple_of(2),
                    }
                } else {
                    let data_words = a % 13;
                    ObjectKind::scalar(data_words, b % (data_words + 1))
                };
                self.kind[slot] = Some(kind);
                self.forwarded[slot] = false;
                fast.init_object(fc, obj, kind);
                reference.init_object(rc, obj, kind);
                (Out::Unit, Out::Unit)
            }
            1 | 7 if self.forwarded[slot] => (
                Out::MaybeForwarded(fast.header_or_forward(fc, obj)),
                Out::MaybeForwarded(reference.header_or_forward(rc, obj)),
            ),
            1 => (
                Out::Header(fast.header(fc, obj)),
                Out::Header(reference.header(rc, obj)),
            ),
            2 => (
                Out::MaybeForwarded(fast.header_or_forward(fc, obj)),
                Out::MaybeForwarded(reference.header_or_forward(rc, obj)),
            ),
            3 => {
                let h = Header {
                    mark: a & 1 != 0,
                    bookmark: a & 2 != 0,
                    kind: self.kind[slot].unwrap_or(ObjectKind::scalar(2, 1)),
                };
                self.kind[slot] = Some(h.kind);
                self.forwarded[slot] = false;
                fast.write_header(fc, obj, h);
                reference.write_header(rc, obj, h);
                (Out::Unit, Out::Unit)
            }
            4 => (
                Out::Bool(fast.try_mark(fc, obj)),
                Out::Bool(reference.try_mark(rc, obj)),
            ),
            5 => (
                Out::Bool(fast.is_marked(fc, obj)),
                Out::Bool(reference.is_marked(rc, obj)),
            ),
            6 => {
                fast.clear_mark(fc, obj);
                reference.clear_mark(rc, obj);
                (Out::Unit, Out::Unit)
            }
            7 => {
                let mut refs = Vec::new();
                fast.scan_refs_into(fc, obj, &mut refs);
                (Out::Refs(refs), Out::Refs(reference.scan_refs(rc, obj)))
            }
            8 => {
                let to_slot = (slot + 1 + a as usize % (SMALL.len() - 1)) % SMALL.len();
                let Some(kind) = self.kind[slot] else {
                    return (Out::Unit, Out::Unit);
                };
                if slot >= SMALL.len() || self.forwarded[slot] {
                    return (Out::Unit, Out::Unit);
                }
                let to = slot_addr(to_slot);
                self.kind[to_slot] = Some(kind);
                self.forwarded[to_slot] = false;
                self.forwarded[slot] = true;
                fast.copy_object(fc, obj, to, kind.size_bytes());
                reference.copy_object(rc, obj, to, kind.size_bytes());
                (Out::Unit, Out::Unit)
            }
            9 | 11 => {
                let fields = self.kind[slot].map_or(1, |k| k.num_ref_fields().max(1));
                let field = field_addr(obj, a as u32 % fields);
                if op == 11 {
                    return (
                        Out::Addr(fast.read_slot(fc, field)),
                        Out::Addr(Address(rc.read_word(&mut reference.mem, field))),
                    );
                }
                let value = Address(b as u32 * WORD);
                fast.write_slot(fc, field, value);
                rc.touch(&mut reference.mem, field, WORD, Access::Write);
                reference.write(field, value.0);
                (Out::Unit, Out::Unit)
            }
            10 => {
                let page = VirtPage::new(obj.page().number() + (a % 2) as u32);
                fc.madvise_dontneed(&mut fast.mem, &[page]);
                rc.vmm.madvise_dontneed(rc.pid, &[page], rc.clock);
                (Out::Unit, Out::Unit)
            }
            _ => unreachable!(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_primitives_match_the_word_at_a_time_reference(
        ops in proptest::collection::vec(
            (0u8..12, 0usize..SLOTS, any::<u16>(), any::<u16>()), 1..160)
    ) {
        let mut w = Worlds::new();
        for (i, &(op, slot, a, b)) in ops.iter().enumerate() {
            let (fast_out, ref_out) = w.step(op, slot, a, b);
            prop_assert_eq!(&fast_out, &ref_out, "step {}: {:?}", i, (op, slot, a, b));
            prop_assert_eq!(
                w.fast_machine.observed(),
                w.ref_machine.observed(),
                "touches / minor faults / clock after step {}: {:?}", i, (op, slot, a, b)
            );
            // A discard drops the fast world's page at once; the
            // reference keeps its stale one until a touch wipes it (and a
            // copy from it then materializes zeroes the fast world skips).
            prop_assert!(
                w.fast.mem.materialized_pages() <= w.reference.mem.materialized_pages(),
                "materialized pages after step {}: {:?}", i, (op, slot, a, b)
            );
            for page in w.fast.mem.materialized() {
                prop_assert_ne!(
                    w.fast_machine.state(page), PageState::Unmapped,
                    "page {:#x} held unmapped after step {}: {:?}", page, i, (op, slot, a, b)
                );
            }
        }
        // The reference's own shadow agrees with its memory, the read-only
        // slot's page never materialized, and every word of every page the
        // script can reach is equal — except where the reference still
        // holds a discarded page no touch has wiped yet, which the fast
        // world reads as zero.
        prop_assert_eq!(w.reference.written.len(), w.reference.mem.materialized_pages());
        prop_assert!(!w.reference.written.contains(&READ_ONLY.page().number()));
        for page in 0..20 {
            let number = BASE / BYTES_PER_PAGE + page;
            let unmapped = w.ref_machine.state(number) == PageState::Unmapped;
            prop_assert_eq!(w.fast_machine.state(number), w.ref_machine.state(number));
            for off in (0..BYTES_PER_PAGE).step_by(WORD as usize) {
                let a = Address(BASE + page * BYTES_PER_PAGE + off);
                let want = if unmapped { 0 } else { w.reference.mem.read_word(a) };
                prop_assert_eq!(w.fast.mem.read_word(a), want, "{}", a);
            }
        }
    }
}

/// The accessors against `read_word`/`write_word` directly, on the cases
/// the script reaches only by chance.
#[test]
fn accessors_agree_with_word_access_at_page_edges() {
    let mut mem = SimMemory::new();
    let edge = Address(BASE + 4092);
    // Reads of never-written memory lend zeroes and materialize nothing.
    assert_eq!(mem.read_pair(edge), (0, 0));
    assert_eq!(mem.span(edge, 8), &[0]);
    assert_eq!(mem.span(Address(BASE), 2048).len(), 1024);
    assert_eq!(mem.update_word(edge, |_| None), 0);
    assert_eq!(mem.materialized_pages(), 0);
    // A straddling pair lands one word on each page.
    mem.write_pair(edge, 7, 9);
    assert_eq!(mem.materialized_pages(), 2);
    assert_eq!((mem.read_word(edge), mem.read_word(edge.offset(4))), (7, 9));
    assert_eq!(mem.read_pair(edge), (7, 9));
    // update_word returns what it saw and stores what it is told to.
    assert_eq!(mem.update_word(edge, |w| Some(w + 1)), 7);
    assert_eq!(mem.update_word(edge, |_| None), 8);
    assert_eq!(mem.read_word(edge), 8);
    // span_mut clips at the page end and materializes only its own page.
    let run = mem.span_mut(Address(BASE + 3 * 4096 - 8), 5);
    assert_eq!(run.len(), 2);
    run.copy_from_slice(&[1, 2]);
    assert_eq!(mem.materialized_pages(), 3);
    assert_eq!(mem.span(Address(BASE + 3 * 4096 - 8), 5), &[1, 2]);
    assert_eq!(mem.read_word(Address(BASE + 3 * 4096 - 4)), 2);
}
