//! The opt-in GC sanitizer: an independent verification layer hooked into
//! every collector at phase boundaries.
//!
//! The bookmarking collector is exactly the kind of design that fails
//! silently — a missed write barrier, a stale bookmark after an eviction,
//! or a dangling forwarding pointer shows up as wrong figure data, not as
//! a crash. Following MMTk's "sanity GC", this module re-derives the
//! collector's invariants from first principles and diffs them against the
//! collector's own state:
//!
//! * [`SanitizeLevel::Checks`] — cheap physical validation after every
//!   collection: free-cell poisoning with canary words in [`MsSpace`] and
//!   [`BumpSpace`] (validated on reuse and at the hook), allocation-run /
//!   bitmap agreement, the host-page audit (every page
//!   [`SimMemory`](crate::SimMemory) holds lies in a bump extent, an
//!   assigned superpage or a live large object), and VMM frame
//!   conservation.
//! * [`SanitizeLevel::Full`] — everything in `Checks`, plus an independent
//!   **shadow re-trace** from the roots after each collection, using only
//!   raw memory reads. Every reachable object is checked against the
//!   collector's verdict: reachable objects must not lie in condemned
//!   space (a missed write barrier or remembered-set entry), must not
//!   decode as forwarding stubs (a dangling forward), and must carry the
//!   mark bit wherever the collector's phase promises one. For BC it also
//!   proves bookmark soundness: every outgoing reference from an evicted
//!   page must be summarized by an incoming-bookmark counter.
//!
//! The layer is **observation-only**: it reads and writes simulated memory
//! only through raw (uncharged) [`SimMemory`](crate::SimMemory) accesses,
//! never touches the VMM or the clock, and poisons only cells no collector
//! path reads. Figure outputs are byte-identical with the sanitizer on —
//! `tests/sanitize_transparency.rs` and a CI golden diff pin that.
//!
//! Violations are reported by panicking with a distinct, actionable
//! `sanitize:` message per [`SanitizeError`] variant; fault-injection tests
//! (`tests/sanitize_faults.rs`) prove each detector actually fires.

use core::fmt;
use std::collections::{BTreeMap, HashMap, HashSet};

use crate::addr::{Address, BYTES_PER_PAGE, WORD};
use crate::bump::BumpSpace;
use crate::ctx::MemCtx;
use crate::gc::Core;
use crate::los::LargeObjectSpace;
use crate::ms::MsSpace;
use crate::object::{field_addr, Header};

/// How much verification runs ([`off`](SanitizeLevel::Off) costs nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SanitizeLevel {
    /// No verification (the default; zero overhead).
    #[default]
    Off,
    /// Cheap physical checks: canary poisoning, run-cache agreement, the
    /// host-page audit, frame conservation.
    Checks,
    /// `Checks` plus the shadow re-trace and bookmark soundness.
    Full,
}

impl SanitizeLevel {
    /// Parses a `--sanitize` argument value.
    pub fn parse(s: &str) -> Option<SanitizeLevel> {
        match s {
            "off" => Some(SanitizeLevel::Off),
            "checks" => Some(SanitizeLevel::Checks),
            "full" => Some(SanitizeLevel::Full),
            _ => None,
        }
    }
}

impl fmt::Display for SanitizeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SanitizeLevel::Off => "off",
            SanitizeLevel::Checks => "checks",
            SanitizeLevel::Full => "full",
        })
    }
}

/// A collector bug seeded on purpose (test-only): each fault is consumed
/// once at its injection site and must trip a distinct [`SanitizeError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectFault {
    /// The boundary write barrier skips one remembered-set record.
    SkipBarrier,
    /// The mark bit of one reachable object is cleared after tracing.
    ClearMark,
    /// BC skips the bookmark pass for one evicted page.
    DropBookmark,
    /// One evacuation returns the stale address the object was copied from.
    DanglingForward,
}

/// One violated invariant. Reported via [`SanitizeError::report`], which
/// panics with a distinct `sanitize:` message per variant — the messages
/// are the sanitizer's user interface, so they name the collector, the
/// phase, and the addresses involved.
#[derive(Clone, Debug)]
pub enum SanitizeError {
    /// A reachable object lies in space the collector condemned: some
    /// write barrier or remembered-set entry failed to record the edge.
    MissedBarrier {
        /// The collector that just finished a phase.
        collector: &'static str,
        /// The hook point ("after-trace", "after-collection").
        phase: &'static str,
        /// The slot holding the edge (`None` for a root).
        slot: Option<Address>,
        /// The condemned object.
        target: Address,
        /// What the condemned space was.
        condemned: &'static str,
    },
    /// A reachable, resident object the phase promises is marked isn't.
    UnmarkedReachable {
        /// The collector.
        collector: &'static str,
        /// The hook point.
        phase: &'static str,
        /// The unmarked object.
        obj: Address,
    },
    /// A reachable slot still points at a forwarding stub (or at condemned
    /// space whose header already became one): the forwarder returned a
    /// stale address.
    DanglingForward {
        /// The collector.
        collector: &'static str,
        /// The hook point.
        phase: &'static str,
        /// The slot holding the stale edge (`None` for a root).
        slot: Option<Address>,
        /// The stale address.
        target: Address,
        /// Where the stub says the object went.
        forwarded_to: Address,
    },
    /// An outgoing reference from an evicted page has no incoming-bookmark
    /// summary: after a reload the collector would never find the edge.
    DroppedBookmark {
        /// The evicted page number holding the reference.
        page: u32,
        /// The slot on the evicted page.
        slot: Address,
        /// The unsummarized target.
        target: Address,
        /// Which counter is missing.
        detail: &'static str,
    },
    /// A free cell's canary words were overwritten: something wrote through
    /// a dangling pointer into freed (or never-allocated) space.
    CanaryClobbered {
        /// Where the check ran ("allocation reuse", "post-collection scan").
        context: &'static str,
        /// The free cell (or bump-tail address) holding the canary.
        cell: Address,
        /// The clobbered word's address.
        addr: Address,
        /// What the word held instead of the canary.
        found: u32,
    },
    /// The allocation-run cache disagrees with the allocation bitmaps.
    RunCacheMismatch {
        /// The specific disagreement, from [`MsSpace::sanitize_check_runs`].
        detail: String,
    },
    /// Simulated memory holds a page no space charges: one outside every
    /// bump extent, assigned superpage and live large object. Something
    /// wrote through a dangling pointer into memory the heap had released
    /// (which dropped the page), or a release path kept the page.
    UnchargedHostPage {
        /// The page number.
        page: u32,
    },
    /// VMM frame conservation failed: free + resident != total frames.
    FrameAccounting {
        /// Free frames across all shards.
        free: usize,
        /// Resident pages across all processes.
        resident: usize,
        /// Configured physical frames.
        frames: usize,
    },
}

impl fmt::Display for SanitizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizeError::MissedBarrier {
                collector,
                phase,
                slot,
                target,
                condemned,
            } => write!(
                f,
                "missed barrier: {collector} {phase}: reachable edge {} -> {target} points into \
                 {condemned}; a write barrier or remembered-set entry failed to record it",
                SlotOrRoot(*slot)
            ),
            SanitizeError::UnmarkedReachable {
                collector,
                phase,
                obj,
            } => write!(
                f,
                "unmarked reachable: {collector} {phase}: object {obj} is reachable from the \
                 roots but its mark bit is clear; the trace missed it"
            ),
            SanitizeError::DanglingForward {
                collector,
                phase,
                slot,
                target,
                forwarded_to,
            } => write!(
                f,
                "dangling forward: {collector} {phase}: reachable edge {} -> {target} decodes as \
                 a forwarding stub to {forwarded_to}; the forwarder returned a stale address",
                SlotOrRoot(*slot)
            ),
            SanitizeError::DroppedBookmark {
                page,
                slot,
                target,
                detail,
            } => write!(
                f,
                "dropped bookmark: evicted page {page}: outgoing reference {slot} -> {target} \
                 has no incoming-bookmark summary ({detail}); a reload would lose the edge"
            ),
            SanitizeError::CanaryClobbered {
                context,
                cell,
                addr,
                found,
            } => write!(
                f,
                "canary clobbered: {context}: free cell {cell} word {addr} holds {found:#010x} \
                 instead of the canary; something wrote through a dangling pointer"
            ),
            SanitizeError::RunCacheMismatch { detail } => {
                write!(f, "run-cache mismatch: {detail}")
            }
            SanitizeError::UnchargedHostPage { page } => write!(
                f,
                "uncharged host page: page {page} ({}) holds host memory but lies in no bump \
                 extent, assigned superpage or live large object; a write reached memory the \
                 heap had released, or a release kept its page",
                Address(page * BYTES_PER_PAGE)
            ),
            SanitizeError::FrameAccounting {
                free,
                resident,
                frames,
            } => write!(
                f,
                "frame accounting: {free} free + {resident} resident != {frames} physical \
                 frames; the VMM leaked or double-counted a frame"
            ),
        }
    }
}

impl SanitizeError {
    /// Reports the violation by panicking with a `sanitize:` message.
    pub fn report(self) -> ! {
        panic!("sanitize: {self}");
    }
}

/// Displays an optional slot address, or `roots` for a root edge.
struct SlotOrRoot(Option<Address>);

impl fmt::Display for SlotOrRoot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(slot) => write!(f, "{slot}"),
            None => f.write_str("roots"),
        }
    }
}

/// The canary word poisoning free cells at [`SanitizeLevel::Checks`] and
/// above. Distinctive and pointer-unlike (unaligned as an address).
pub const CANARY: u32 = 0xDEAD_BEEF;

/// How a collector classifies an address for the shadow re-trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classified {
    /// A live object the collector retained.
    Live,
    /// Space the collection condemned (a released nursery, the old
    /// semispace, a freed cell…) — no reachable edge may point here.
    Condemned(&'static str),
}

/// A collector's description of its own post-phase state, consumed by
/// [`Core::sanitize_shadow_trace`]. The closures capture the collector's
/// spaces immutably while the core runs the trace (disjoint borrows).
pub struct ShadowSpec<'a> {
    /// Collector name for error messages.
    pub collector: &'static str,
    /// Hook point for error messages ("after-trace", "after-collection").
    pub phase: &'static str,
    /// Classifies an address as live or condemned.
    pub classify: &'a dyn Fn(Address) -> Classified,
    /// Whether the object of the given size (header included, in bytes) is
    /// wholly resident (BC does not trace through evicted objects; everyone
    /// else returns `true`). The trace decodes the size from the raw header
    /// so the closure need not read heap memory itself.
    pub resident: &'a dyn Fn(Address, u32) -> bool,
    /// Whether this phase promises the object's mark bit is set.
    pub expect_marked: &'a dyn Fn(Address) -> bool,
}

/// Per-core sanitizer state: the configured level, the pending injected
/// fault, the poison ledger, and reusable trace scratch.
#[derive(Debug, Default)]
pub struct Sanitizer {
    level: SanitizeLevel,
    pending_fault: Option<InjectFault>,
    /// Poisoned free cells: start address -> cell size in bytes. A
    /// `BTreeMap` so validation visits cells in address order and the
    /// first error is deterministic.
    poisoned_cells: BTreeMap<u32, u32>,
    /// Poisoned bump-space tails: space base -> poisoned `[start, end)`.
    poisoned_tails: HashMap<u32, (u32, u32)>,
    /// Shadow-trace visited set (reused across collections).
    visited: HashSet<u32>,
    /// Shadow-trace worklist (reused across collections).
    worklist: Vec<Address>,
}

impl Sanitizer {
    /// A sanitizer at `level` with an optional pending fault to inject.
    pub fn new(level: SanitizeLevel, fault: Option<InjectFault>) -> Sanitizer {
        Sanitizer {
            level,
            pending_fault: fault,
            ..Sanitizer::default()
        }
    }

    /// The configured level.
    pub fn level(&self) -> SanitizeLevel {
        self.level
    }
}

impl Core {
    /// Whether any sanitizer hooks should run.
    #[inline]
    pub fn sanitize_active(&self) -> bool {
        self.san.level != SanitizeLevel::Off
    }

    /// Whether physical checks (canaries, run cache, frames) run.
    #[inline]
    pub fn sanitize_checks(&self) -> bool {
        self.san.level >= SanitizeLevel::Checks
    }

    /// Whether the shadow re-trace runs.
    #[inline]
    pub fn sanitize_full(&self) -> bool {
        self.san.level == SanitizeLevel::Full
    }

    /// Consumes the pending injected fault if it equals `fault`; the
    /// injection sites in the collectors are exercised once each.
    #[inline]
    pub fn san_take_fault(&mut self, fault: InjectFault) -> bool {
        if self.san.pending_fault == Some(fault) {
            self.san.pending_fault = None;
            true
        } else {
            false
        }
    }

    /// The independent shadow re-trace: BFS from the roots over raw memory
    /// only, diffing every reachable edge against the collector's verdict
    /// in `spec`. Reads no charged memory and advances no clock — the
    /// simulation is byte-identical with this on.
    ///
    /// # Panics
    ///
    /// Panics with a [`SanitizeError`] on the first violated invariant.
    pub fn sanitize_shadow_trace(&mut self, spec: &ShadowSpec<'_>) {
        let mut visited = std::mem::take(&mut self.san.visited);
        let mut work = std::mem::take(&mut self.san.worklist);
        visited.clear();
        work.clear();
        for root in self.roots.iter() {
            self.san_shadow_edge(spec, None, root, &mut visited, &mut work);
        }
        while let Some(obj) = work.pop() {
            let h = match Header::decode_forwarded(
                self.mem.read_word(obj),
                self.mem.read_word(obj.offset(WORD)),
            ) {
                Ok(h) => h,
                Err(forwarded_to) => SanitizeError::DanglingForward {
                    collector: spec.collector,
                    phase: spec.phase,
                    slot: None,
                    target: obj,
                    forwarded_to,
                }
                .report(),
            };
            for i in 0..h.kind.num_ref_fields() {
                let slot = field_addr(obj, i);
                let target = Address(self.mem.read_word(slot));
                if !target.is_null() {
                    self.san_shadow_edge(spec, Some(slot), target, &mut visited, &mut work);
                }
            }
        }
        self.san.visited = visited;
        self.san.worklist = work;
    }

    /// Validates one shadow-trace edge and enqueues live resident targets.
    fn san_shadow_edge(
        &self,
        spec: &ShadowSpec<'_>,
        slot: Option<Address>,
        target: Address,
        visited: &mut HashSet<u32>,
        work: &mut Vec<Address>,
    ) {
        if target.is_null() {
            return;
        }
        match (spec.classify)(target) {
            Classified::Condemned(condemned) => {
                // Disambiguate: a condemned target whose header already
                // became a forwarding stub is a stale (dangling) forward;
                // an intact header means the edge was never recorded.
                let decoded = Header::decode_forwarded(
                    self.mem.read_word(target),
                    self.mem.read_word(target.offset(WORD)),
                );
                match decoded {
                    Err(forwarded_to) => SanitizeError::DanglingForward {
                        collector: spec.collector,
                        phase: spec.phase,
                        slot,
                        target,
                        forwarded_to,
                    }
                    .report(),
                    Ok(_) => SanitizeError::MissedBarrier {
                        collector: spec.collector,
                        phase: spec.phase,
                        slot,
                        target,
                        condemned,
                    }
                    .report(),
                }
            }
            Classified::Live => {
                let h = match Header::decode_forwarded(
                    self.mem.read_word(target),
                    self.mem.read_word(target.offset(WORD)),
                ) {
                    Ok(h) => h,
                    Err(forwarded_to) => SanitizeError::DanglingForward {
                        collector: spec.collector,
                        phase: spec.phase,
                        slot,
                        target,
                        forwarded_to,
                    }
                    .report(),
                };
                if !(spec.resident)(target, h.kind.size_bytes()) {
                    // BC: evicted objects are summarized by bookmarks, not
                    // traced; their soundness has its own check.
                    return;
                }
                if (spec.expect_marked)(target) && !Header::is_marked(self.mem.read_word(target)) {
                    SanitizeError::UnmarkedReachable {
                        collector: spec.collector,
                        phase: spec.phase,
                        obj: target,
                    }
                    .report();
                }
                if visited.insert(target.0) {
                    work.push(target);
                }
            }
        }
    }

    /// The post-collection physical checks ([`SanitizeLevel::Checks`] and
    /// up): run-cache agreement, canary validation and re-poisoning over
    /// `ms` free cells and the `bumps` free tails, the host-page audit over
    /// `ms`, `los` and `bumps`, and VMM frame conservation. Raw memory
    /// only; nothing is charged.
    ///
    /// # Panics
    ///
    /// Panics with a [`SanitizeError`] on the first violated invariant.
    pub fn sanitize_physical_checks(
        &mut self,
        ctx: &MemCtx<'_>,
        ms: Option<&MsSpace>,
        los: &LargeObjectSpace,
        bumps: &[&BumpSpace],
    ) {
        if !self.sanitize_checks() {
            return;
        }
        // Allocation-run cache vs. bitmaps.
        if let Some(ms) = ms {
            if let Err(detail) = ms.sanitize_check_runs() {
                SanitizeError::RunCacheMismatch { detail }.report();
            }
        }
        // Validate surviving canaries from the previous poison pass. A
        // poisoned cell is only checkable while its geometry held: stale
        // entries (cell allocated, superpage released or reassigned) are
        // dropped silently.
        let poisoned = std::mem::take(&mut self.san.poisoned_cells);
        for (&addr, &bytes) in &poisoned {
            if ms.is_some_and(|ms| ms.is_current_free_cell(Address(addr), bytes)) {
                self.san_check_canary_words(Address(addr), bytes, "post-collection scan");
            }
        }
        // Bump tails: the still-free intersection of the previous poison
        // range must be intact.
        for bump in bumps {
            let key = bump.base().0;
            let top = bump.top().0;
            let extent_end = bump.base().0 + bump.extent_pages() as u32 * BYTES_PER_PAGE;
            if let Some(&(start, end)) = self.san.poisoned_tails.get(&key) {
                let lo = start.max(top);
                let hi = end.min(extent_end);
                if lo < hi {
                    self.san_check_canary_words(Address(lo), hi - lo, "post-collection scan");
                }
            }
            // Re-poison the current free tail.
            if top < extent_end {
                for a in (top..extent_end).step_by(WORD as usize) {
                    self.mem.write_word(Address(a), CANARY);
                }
                self.san.poisoned_tails.insert(key, (top, extent_end));
            } else {
                self.san.poisoned_tails.remove(&key);
            }
        }
        // Re-poison every currently free cell.
        let mut repoisoned = poisoned;
        repoisoned.clear();
        if let Some(ms) = ms {
            ms.for_each_free_cell(|cell, bytes| {
                for a in (cell.0..cell.0 + bytes).step_by(WORD as usize) {
                    self.mem.write_word(Address(a), CANARY);
                }
                repoisoned.insert(cell.0, bytes);
            });
        }
        self.san.poisoned_cells = repoisoned;
        // Every held host page is charged to a space: a released page was
        // dropped (DESIGN.md §10.6), so one held outside them all is a
        // write through a dangling pointer, or a release that kept it.
        for page in self.mem.materialized() {
            let addr = Address(page * BYTES_PER_PAGE);
            let charged = bumps.iter().any(|b| b.extent_contains(addr))
                || ms.is_some_and(|ms| ms.in_assigned_sp(addr))
                || los.object_containing(addr).is_some();
            if !charged {
                SanitizeError::UnchargedHostPage { page }.report();
            }
        }
        // VMM frame conservation (the invariant the vmm proptests pin,
        // re-checked live on every collection).
        let free = ctx.vmm.free_frames();
        let resident = ctx.vmm.total_resident();
        let frames = ctx.vmm.config().frames;
        if free + resident != frames {
            SanitizeError::FrameAccounting {
                free,
                resident,
                frames,
            }
            .report();
        }
    }

    /// Called from the allocation paths before a cell or bump range is
    /// zeroed/copied over: its poison (if tracked) must be intact.
    ///
    /// Only the intersection of the tracked extent with the allocation
    /// itself is checked. The ledger's geometry can go stale between
    /// collections — an empty superpage is recycled for a different size
    /// class, or taken over as a copy target — and then the tracked extent
    /// overlaps *neighbouring* live allocations, which legitimately hold
    /// non-canary data. The allocation's own bytes were free until this
    /// moment under either geometry, so they must still read canary (or
    /// zero, after a demand-zero reload); full-extent validation is the
    /// post-collection scan's job, where [`MsSpace::is_current_free_cell`]
    /// guards against exactly this staleness.
    pub(crate) fn san_check_alloc_target(&mut self, obj: Address, size: u32) {
        if let Some(bytes) = self.san.poisoned_cells.remove(&obj.0) {
            self.san_check_canary_words(obj, bytes.min(size), "allocation reuse");
            return;
        }
        let tail = self
            .san
            .poisoned_tails
            .values()
            .find(|&&(start, end)| obj.0 >= start && obj.0 < end)
            .copied();
        if let Some((_, end)) = tail {
            let hi = (obj.0 + size).min(end);
            if obj.0 < hi {
                self.san_check_canary_words(obj, hi - obj.0, "allocation reuse");
            }
        }
    }

    /// Requires every word of `[addr, addr + bytes)` to hold the canary or
    /// zero (a discarded page demand-zeroes; BC zeroes reserved cells).
    fn san_check_canary_words(&self, addr: Address, bytes: u32, context: &'static str) {
        for a in (addr.0..addr.0 + bytes).step_by(WORD as usize) {
            let found = self.mem.read_word(Address(a));
            if found != CANARY && found != 0 {
                SanitizeError::CanaryClobbered {
                    context,
                    cell: addr,
                    addr: Address(a),
                    found,
                }
                .report();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Layout;
    use crate::api::HeapConfig;
    use crate::object::ObjectKind;
    use crate::pool::PagePool;
    use simtime::{Clock, CostModel};
    use vmm::{Vmm, VmmConfig};

    fn setup(level: SanitizeLevel) -> (Core, Vmm, Clock) {
        let mut vmm = Vmm::new(
            VmmConfig::builder().frames(1024).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        assert_eq!(pid.as_u32(), 0);
        let config = HeapConfig::builder()
            .heap_bytes(1 << 20)
            .sanitize(level)
            .build();
        (Core::new(config), vmm, Clock::new())
    }

    /// An empty large object space over the standard layout's LOS region.
    fn los() -> LargeObjectSpace {
        let (base, limit) = Layout::standard().los;
        LargeObjectSpace::new(base, limit)
    }

    #[test]
    fn level_parse_round_trips() {
        for level in [
            SanitizeLevel::Off,
            SanitizeLevel::Checks,
            SanitizeLevel::Full,
        ] {
            assert_eq!(SanitizeLevel::parse(&level.to_string()), Some(level));
        }
        assert_eq!(SanitizeLevel::parse("bogus"), None);
        assert!(SanitizeLevel::Checks < SanitizeLevel::Full);
    }

    #[test]
    fn shadow_trace_accepts_a_consistent_heap() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Full);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let a = Address(0x1040_0000);
        let b = Address(0x1040_0040);
        core.init_object(&mut ctx, a, ObjectKind::scalar(4, 1));
        core.init_object(&mut ctx, b, ObjectKind::scalar(4, 0));
        core.write_slot(&mut ctx, field_addr(a, 0), b);
        core.roots.add(a);
        assert!(core.try_mark(&mut ctx, a));
        assert!(core.try_mark(&mut ctx, b));
        let spec = ShadowSpec {
            collector: "test",
            phase: "after-trace",
            classify: &|_| Classified::Live,
            resident: &|_, _| true,
            expect_marked: &|_| true,
        };
        core.sanitize_shadow_trace(&spec);
    }

    #[test]
    #[should_panic(expected = "sanitize: unmarked reachable")]
    fn shadow_trace_detects_unmarked_reachable() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Full);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let a = Address(0x1040_0000);
        let b = Address(0x1040_0040);
        core.init_object(&mut ctx, a, ObjectKind::scalar(4, 1));
        core.init_object(&mut ctx, b, ObjectKind::scalar(4, 0));
        core.write_slot(&mut ctx, field_addr(a, 0), b);
        core.roots.add(a);
        assert!(core.try_mark(&mut ctx, a)); // b stays unmarked
        let spec = ShadowSpec {
            collector: "test",
            phase: "after-trace",
            classify: &|_| Classified::Live,
            resident: &|_, _| true,
            expect_marked: &|_| true,
        };
        core.sanitize_shadow_trace(&spec);
    }

    #[test]
    #[should_panic(expected = "sanitize: missed barrier")]
    fn shadow_trace_detects_condemned_edge() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Full);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let a = Address(0x1040_0000);
        let dead = Address(0x2040_0000);
        core.init_object(&mut ctx, a, ObjectKind::scalar(4, 1));
        core.init_object(&mut ctx, dead, ObjectKind::scalar(4, 0));
        core.write_slot(&mut ctx, field_addr(a, 0), dead);
        core.roots.add(a);
        let spec = ShadowSpec {
            collector: "test",
            phase: "after-collection",
            classify: &|t| {
                if t.0 >= 0x2000_0000 {
                    Classified::Condemned("released nursery")
                } else {
                    Classified::Live
                }
            },
            resident: &|_, _| true,
            expect_marked: &|_| false,
        };
        core.sanitize_shadow_trace(&spec);
    }

    #[test]
    #[should_panic(expected = "sanitize: dangling forward")]
    fn shadow_trace_detects_forwarding_stub() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Full);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let a = Address(0x1040_0000);
        let from = Address(0x2040_0000);
        let to = Address(0x3040_0000);
        core.init_object(&mut ctx, a, ObjectKind::scalar(4, 1));
        core.init_object(&mut ctx, from, ObjectKind::scalar(4, 0));
        core.copy_object(&mut ctx, from, to, 24);
        core.write_slot(&mut ctx, field_addr(a, 0), from); // stale edge
        core.roots.add(a);
        let spec = ShadowSpec {
            collector: "test",
            phase: "after-collection",
            classify: &|t| {
                if t.0 >= 0x2000_0000 && t.0 < 0x3000_0000 {
                    Classified::Condemned("old semispace")
                } else {
                    Classified::Live
                }
            },
            resident: &|_, _| true,
            expect_marked: &|_| false,
        };
        core.sanitize_shadow_trace(&spec);
    }

    #[test]
    fn canary_poison_and_validate_round_trip() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Checks);
        let mut pool = PagePool::new(1024);
        let mut ms = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        let _b = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        ms.free_cell(&mut pool, &mut core.mem, a);
        {
            let clock_ref = &mut clock;
            let ctx = MemCtx::new(&mut vmm, clock_ref, vmm::ProcessId::new(0));
            core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
        }
        assert_eq!(core.mem.read_word(a), CANARY);
        // A second pass validates what the first wrote.
        {
            let clock_ref = &mut clock;
            let ctx = MemCtx::new(&mut vmm, clock_ref, vmm::ProcessId::new(0));
            core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
        }
    }

    #[test]
    #[should_panic(expected = "sanitize: canary clobbered")]
    fn clobbered_canary_is_detected() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Checks);
        let mut pool = PagePool::new(1024);
        let mut ms = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        let _b = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        ms.free_cell(&mut pool, &mut core.mem, a);
        {
            let clock_ref = &mut clock;
            let ctx = MemCtx::new(&mut vmm, clock_ref, vmm::ProcessId::new(0));
            core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
        }
        // A stray write through a dangling pointer.
        core.mem.write_word(a.offset(8), 0x1234_5678);
        let clock_ref = &mut clock;
        let ctx = MemCtx::new(&mut vmm, clock_ref, vmm::ProcessId::new(0));
        core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
    }

    #[test]
    #[should_panic(expected = "sanitize: canary clobbered")]
    fn clobbered_cell_is_detected_on_reuse() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Checks);
        let mut pool = PagePool::new(1024);
        let mut ms = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        let b = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        {
            // Charged initialization makes the pages resident: later raw
            // writes (poison, clobber) survive the next charged touch.
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
            core.init_object(&mut ctx, a, ObjectKind::scalar(4, 0));
            core.init_object(&mut ctx, b, ObjectKind::scalar(4, 0));
        }
        ms.free_cell(&mut pool, &mut core.mem, a);
        {
            let clock_ref = &mut clock;
            let ctx = MemCtx::new(&mut vmm, clock_ref, vmm::ProcessId::new(0));
            core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
        }
        core.mem.write_word(a.offset(16), 0xBAD);
        // Reallocate the cell: init_object's reuse check must fire.
        let again = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        assert_eq!(again, a);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        core.init_object(&mut ctx, again, ObjectKind::scalar(4, 0));
    }

    #[test]
    #[should_panic(expected = "sanitize: uncharged host page")]
    fn write_into_a_freed_superpage_is_detected() {
        let (mut core, mut vmm, mut clock) = setup(SanitizeLevel::Checks);
        let mut pool = PagePool::new(1024);
        let mut ms = MsSpace::new(Address(0x1040_0000), Address(0x1140_0000));
        let class = ms.classes().class_for(64).unwrap().index;
        let a = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        let b = ms
            .alloc(&mut pool, class, crate::ms::BlockKind::Scalar)
            .unwrap();
        {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
            core.init_object(&mut ctx, a, ObjectKind::scalar(4, 0));
            core.init_object(&mut ctx, b, ObjectKind::scalar(4, 0));
        }
        // Both cells die: the superpage is released and its pages dropped.
        ms.free_cell(&mut pool, &mut core.mem, a);
        ms.free_cell(&mut pool, &mut core.mem, b);
        let ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
        // A stray write through the dangling pointer brings a page back.
        core.mem.write_word(b.offset(8), 0x1234_5678);
        core.sanitize_physical_checks(&ctx, Some(&ms), &los(), &[]);
    }
}
