//! Machinery shared by every collector: charged object access, the tracing
//! driver, nursery bookkeeping, and pause accounting.
//!
//! Both the baseline collectors (the `collectors` crate) and the bookmarking
//! collector (the `bookmarking` crate) are built on this module: a [`Core`]
//! bundles the per-collector state (simulated memory, page budget, roots,
//! statistics, pause log, gray queue), and the [`Forwarder`] trait plus
//! [`forward_roots`]/[`drain_gray`] implement the generic tracing loop over
//! whatever forwarding policy a collector supplies (mark, copy, or BC's
//! residency-aware mark).

use crate::addr::{Address, BYTES_PER_PAGE, WORD};
use crate::api::{AllocKind, HeapConfig, NurseryPolicy};
use crate::ctx::MemCtx;
use crate::los::LargeObjectSpace;
use crate::mem::SimMemory;
use crate::ms::MsSpace;
use crate::object::{Header, ObjectKind, HEADER_BYTES};
use crate::packet::{Acquired, PacketQueue, PACKET_CAP};
use crate::policy::{HeapSizePolicy, SizingDecision, SizingInput};
use crate::pool::PagePool;
use crate::roots::RootSet;
use crate::sanitize::Sanitizer;
use crate::stats::GcStats;
use crate::tracer::MarkQueue;
use simtime::{Nanos, PauseKind, PauseLog};
use telemetry::{CollectionKind, EventKind, GcPhase};
use vmm::Access;
use zero_alloc::zero_alloc;

/// Minimum Appel nursery before a full collection is forced (256 KiB).
pub const MIN_NURSERY_BYTES: u32 = 256 * 1024;

/// State common to all collectors.
#[derive(Debug)]
pub struct Core {
    /// The collector's static configuration.
    pub config: HeapConfig,
    /// The simulated backing memory.
    pub mem: SimMemory,
    /// The heap budget, in pages.
    pub pool: PagePool,
    /// The mutator's root table.
    pub roots: RootSet,
    /// Collector counters.
    pub stats: GcStats,
    /// Stop-the-world pause log.
    pub pauses: PauseLog,
    /// The gray-object worklist.
    pub queue: MarkQueue,
    /// Set when a collection could not reclaim enough memory.
    pub oom: bool,
    /// The heap-sizing policy (built from `config.policy`); every budget
    /// move goes through [`Core::apply_decision`].
    pub policy: Box<dyn HeapSizePolicy>,
    /// The work-packet tracing scheduler (see [`crate::packet`]): per-worker
    /// packet stacks plus each worker's reusable scan/sweep scratch.
    /// [`drain_gray`] takes it for the duration of a drain; after warm-up
    /// the packet path performs no heap allocations per traced object.
    pub packets: PacketQueue,
    /// Reusable VM-event buffer for [`Core::pump_policy_events`]: queued
    /// notifications drain into it without a per-pump allocation.
    event_scratch: Vec<vmm::VmEvent>,
    /// Sanitizer state (level, poison ledger, shadow-trace scratch); see
    /// [`crate::sanitize`]. Inert at [`SanitizeLevel::Off`](crate::SanitizeLevel::Off).
    pub(crate) san: Sanitizer,
}

impl Core {
    /// Creates the shared state for a fresh collector instance.
    pub fn new(config: HeapConfig) -> Core {
        Core {
            mem: SimMemory::new(),
            pool: PagePool::with_bytes(config.heap_bytes),
            roots: RootSet::new(),
            stats: GcStats::default(),
            pauses: PauseLog::new(),
            queue: MarkQueue::new(),
            oom: false,
            policy: config.policy.build(),
            packets: PacketQueue::new(config.gc_threads),
            event_scratch: Vec::new(),
            san: Sanitizer::new(config.sanitize, config.sanitize_fault),
            config,
        }
    }

    /// Ends the process ([`GcHeap::exit`](crate::GcHeap::exit)): drops
    /// every host page of the simulated memory at once. Nothing reads the
    /// heap after its program has ended.
    pub fn exit(&mut self) {
        self.mem = SimMemory::new();
    }

    /// Reads an object's header (charged).
    #[inline]
    pub fn header(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Header {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Read);
        let (w0, w1) = self.mem.read_pair(obj);
        Header::decode(w0, w1)
    }

    /// Reads a header that may be a forwarding stub (charged).
    #[inline]
    pub fn header_or_forward(
        &mut self,
        ctx: &mut MemCtx<'_>,
        obj: Address,
    ) -> Result<Header, Address> {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Read);
        let (w0, w1) = self.mem.read_pair(obj);
        Header::decode_forwarded(w0, w1)
    }

    /// Writes an object's header (charged).
    #[inline]
    pub fn write_header(&mut self, ctx: &mut MemCtx<'_>, obj: Address, h: Header) {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Write);
        let (w0, w1) = h.encode();
        self.mem.write_pair(obj, w0, w1);
    }

    /// Atomically tests and sets the mark bit; `true` if newly marked.
    #[inline]
    pub fn try_mark(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> bool {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Write);
        let w0 = self.mem.update_word(obj, |w0| {
            (!Header::is_marked(w0)).then_some(Header::with_mark(w0, true))
        });
        !Header::is_marked(w0)
    }

    /// Whether the object is marked (charged header read).
    #[inline]
    pub fn is_marked(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> bool {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Read);
        Header::is_marked(self.mem.read_word(obj))
    }

    /// Clears the mark bit (charged).
    #[inline]
    pub fn clear_mark(&mut self, ctx: &mut MemCtx<'_>, obj: Address) {
        ctx.touch(&mut self.mem, obj, HEADER_BYTES, Access::Write);
        self.mem
            .update_word(obj, |w0| Some(Header::with_mark(w0, false)));
    }

    /// Initializes a fresh object: zeroes its cell, writes the header, and
    /// charges allocation cost.
    ///
    /// Always inlined: every collector's `alloc` ends here, and once several
    /// of them are instantiated in one codegen unit (the five `Plan` aliases
    /// are) the body no longer has the single caller that made a plain
    /// `#[inline]` hint enough.
    #[inline(always)]
    pub fn init_object(&mut self, ctx: &mut MemCtx<'_>, obj: Address, kind: ObjectKind) {
        let size = kind.size_bytes();
        ctx.touch(&mut self.mem, obj, size, Access::Write);
        if self.sanitize_checks() {
            self.san_check_alloc_target(obj, size);
        }
        let (w0, w1) = Header::new(kind).encode();
        let words = (size / WORD) as usize;
        let cell = self.mem.span_mut(obj, words);
        if cell.len() == words {
            // The whole object lies on one page (which its header write
            // materializes in any case): clear and stamp it in one walk.
            cell.fill(0);
            cell[0] = w0;
            cell[1] = w1;
        } else {
            // It crosses a page boundary: `zero` skips the pages nothing
            // was ever written to instead of materializing them.
            self.mem.zero(obj, size);
            self.mem.write_pair(obj, w0, w1);
        }
        let costs = ctx.vmm.costs();
        let (alloc_object, ram_word) = (costs.alloc_object, costs.ram_word);
        ctx.clock
            .advance(alloc_object + ram_word * (size / WORD) as u64);
        self.stats.objects_allocated += 1;
        self.stats.bytes_allocated += size as u64;
    }

    /// Reads the reference fields of `obj` into `out` (cleared first) as
    /// `(slot, target)` for each non-null one, charging the scan. Performs
    /// no heap allocation once `out` has grown to the largest ref count
    /// seen, and copies no cost table: only the two cost fields the scan
    /// charges are read.
    #[inline]
    #[zero_alloc]
    pub fn scan_refs_into(
        &mut self,
        ctx: &mut MemCtx<'_>,
        obj: Address,
        out: &mut Vec<(Address, Address)>,
    ) {
        out.clear();
        let h = self.header(ctx, obj);
        let n = h.kind.num_ref_fields();
        let costs = ctx.vmm.costs();
        let (scan_object, scan_ref) = (costs.scan_object, costs.scan_ref);
        ctx.clock.advance(scan_object + scan_ref * n as u64);
        if n == 0 {
            return;
        }
        // One touch for the whole referenced span, then raw reads.
        let first = obj.offset(HEADER_BYTES);
        ctx.touch(&mut self.mem, first, n * WORD, Access::Read);
        out.reserve(n as usize);
        push_refs(&self.mem, first, n, out);
    }

    /// Copies an object's `size` bytes from `from` to `to` and leaves a
    /// forwarding stub at `from` (charged).
    #[inline]
    pub fn copy_object(&mut self, ctx: &mut MemCtx<'_>, from: Address, to: Address, size: u32) {
        ctx.touch(&mut self.mem, from, size, Access::Read);
        ctx.touch(&mut self.mem, to, size, Access::Write);
        if self.sanitize_checks() {
            self.san_check_alloc_target(to, size);
        }
        self.mem.copy(from, to, size);
        let (w0, w1) = Header::forwarding_stub(to);
        self.mem.write_pair(from, w0, w1);
        let copy_byte = ctx.vmm.costs().copy_byte;
        ctx.clock.advance(copy_byte * size as u64);
        self.stats.objects_moved += 1;
        self.stats.bytes_moved += size as u64;
    }

    /// Writes a reference slot (charged raw word write, no barrier).
    #[inline]
    pub fn write_slot(&mut self, ctx: &mut MemCtx<'_>, slot: Address, val: Address) {
        ctx.write_word(&mut self.mem, slot, val.0);
    }

    /// Reads a reference slot (charged).
    #[inline]
    pub fn read_slot(&mut self, ctx: &mut MemCtx<'_>, slot: Address) -> Address {
        Address(ctx.read_word(&mut self.mem, slot))
    }

    /// The mark-sweep reclamation pass over a cell space (when the collector
    /// has one) and the large object space: unmarked objects are freed,
    /// marked ones survive.
    ///
    /// `examine(mem, cell)` selects the cells that are looked at; a cell it
    /// rejects stays allocated, untouched. BC passes its residency test ("a
    /// sweep of the memory-resident pages completes the collection",
    /// §3.4.1), everyone else `|_, _| true`. Large objects are always
    /// examined: a liveness check touches only their header page.
    ///
    /// `keep_marks` leaves the survivors marked and the partial lists alone —
    /// BC's compaction sweeps between its two passes, reads liveness off the
    /// marks in the second and chooses its own target superpages. Otherwise
    /// the marks are cleared and every superpage that lost a cell is listed
    /// as partial again.
    pub fn sweep(
        &mut self,
        ctx: &mut MemCtx<'_>,
        ms: Option<&mut MsSpace>,
        los: &mut LargeObjectSpace,
        examine: impl Fn(&SimMemory, Address) -> bool,
        keep_marks: bool,
    ) {
        if let Some(ms) = ms {
            // The mark checks run against an iterator borrow of `ms`, so a
            // superpage's dead cells are gathered first and freed after.
            let mut dead = std::mem::take(self.packets.sweep_scratch());
            for sp in ms.assigned_sps() {
                dead.clear();
                for cell in ms.allocated_cells_iter(sp) {
                    if !examine(&self.mem, cell) {
                        continue;
                    }
                    if !self.is_marked(ctx, cell) {
                        dead.push(cell);
                    } else if !keep_marks {
                        self.clear_mark(ctx, cell);
                    }
                }
                for &cell in &dead {
                    // The superpage may become empty and be released here.
                    ms.free_cell(&mut self.pool, &mut self.mem, cell);
                }
                if !keep_marks && !dead.is_empty() && ms.info(sp).assignment.is_some() {
                    ms.note_partial(sp);
                }
            }
            *self.packets.sweep_scratch() = dead;
        }
        for (obj, _pages) in los.objects() {
            if !self.is_marked(ctx, obj) {
                los.free(&mut self.pool, &mut self.mem, obj);
            } else if !keep_marks {
                self.clear_mark(ctx, obj);
            }
        }
    }

    /// Starts a stop-the-world pause of the given kind; pair with
    /// [`Core::end_pause`]. Emits a [`EventKind::CollectionBegin`] span
    /// opener when tracing is enabled.
    pub fn begin_pause(&mut self, ctx: &mut MemCtx<'_>, kind: PauseKind) -> PauseToken {
        let gc_setup = ctx.vmm.costs().gc_setup;
        ctx.clock.advance(gc_setup);
        self.trace_event(
            ctx,
            EventKind::CollectionBegin {
                kind: collection_kind(kind),
            },
        );
        PauseToken {
            start: ctx.clock.now(),
            faults: ctx.major_faults(),
            kind,
        }
    }

    /// Finishes the pause opened by [`Core::begin_pause`], logs it, and
    /// closes the telemetry span.
    pub fn end_pause(&mut self, ctx: &mut MemCtx<'_>, token: PauseToken) {
        let duration = ctx.clock.now() - token.start;
        let faults = ctx.major_faults() - token.faults;
        self.pauses
            .record(token.start, duration, token.kind, faults);
        self.trace_event(
            ctx,
            EventKind::CollectionEnd {
                kind: collection_kind(token.kind),
            },
        );
    }

    /// Opens a telemetry phase span (root scan, trace, sweep, …); a no-op
    /// when tracing is disabled.
    #[inline]
    pub fn phase_begin(&self, ctx: &MemCtx<'_>, phase: GcPhase) {
        self.trace_event(ctx, EventKind::PhaseBegin { phase });
    }

    /// Closes a telemetry phase span.
    #[inline]
    pub fn phase_end(&self, ctx: &MemCtx<'_>, phase: GcPhase) {
        self.trace_event(ctx, EventKind::PhaseEnd { phase });
    }

    /// Emits one structured event stamped with this process and the current
    /// simulated time; a single branch when tracing is disabled.
    #[inline]
    pub fn trace_event(&self, ctx: &MemCtx<'_>, kind: EventKind) {
        self.config
            .tracer
            .emit(ctx.pid.as_u32(), ctx.clock.now(), kind);
    }

    // ----- heap sizing (crate::policy) ----------------------------------

    /// The policy's O(1) observation of current collector and VMM state.
    pub fn sizing_input(&self, ctx: &MemCtx<'_>) -> SizingInput {
        let last_pause = self
            .pauses
            .records()
            .last()
            .map_or(Nanos::ZERO, |r| r.duration);
        SizingInput {
            now: ctx.clock.now(),
            used_pages: self.pool.used(),
            limit_pages: self.pool.budget(),
            configured_pages: self.config.heap_bytes / BYTES_PER_PAGE as usize,
            bytes_allocated: self.stats.bytes_allocated,
            objects_allocated: self.stats.objects_allocated,
            objects_traced: self.stats.objects_traced,
            last_pause,
            under_pressure: ctx.vmm.under_pressure(),
            free_frames: ctx.vmm.free_frames(),
            high_watermark: ctx.vmm.config().high_watermark,
        }
    }

    /// Applies a sizing decision: moves the budget, bumps the shrink/grow
    /// counter, and emits the [`EventKind::HeapShrink`]/[`EventKind::HeapGrow`]
    /// event carrying the policy's reasoning. Returns whether the budget
    /// actually moved (callers recompute nursery limits on `true`).
    pub fn apply_decision(&mut self, ctx: &MemCtx<'_>, decision: SizingDecision) -> bool {
        let current = self.pool.budget();
        if decision.limit_pages == current {
            return false;
        }
        self.pool.set_budget(decision.limit_pages);
        if decision.limit_pages < current {
            self.stats.heap_shrinks += 1;
            self.trace_event(
                ctx,
                EventKind::HeapShrink {
                    budget_pages: decision.limit_pages as u32,
                    reason: decision.reason.into(),
                },
            );
        } else {
            self.stats.heap_regrows += 1;
            self.trace_event(
                ctx,
                EventKind::HeapGrow {
                    budget_pages: decision.limit_pages as u32,
                    reason: decision.reason.into(),
                },
            );
        }
        true
    }

    /// Runs the policy's end-of-collection hook; returns whether the budget
    /// moved.
    pub fn policy_after_gc(&mut self, ctx: &MemCtx<'_>) -> bool {
        let input = self.sizing_input(ctx);
        match self.policy.after_collection(&input) {
            Some(d) => self.apply_decision(ctx, d),
            None => false,
        }
    }

    /// Runs the policy's pressure hook (an eviction was scheduled); returns
    /// whether the budget moved.
    pub fn policy_pressure(&mut self, ctx: &MemCtx<'_>) -> bool {
        let input = self.sizing_input(ctx);
        match self.policy.on_pressure(&input) {
            Some(d) => self.apply_decision(ctx, d),
            None => false,
        }
    }

    /// Runs the policy's idle hook (a mutator safe point); returns whether
    /// the budget moved. Call only when `policy.idle_active()` — this sits
    /// on the per-step path.
    pub fn policy_idle(&mut self, ctx: &MemCtx<'_>) -> bool {
        let input = self.sizing_input(ctx);
        match self.policy.on_idle(&input) {
            Some(d) => self.apply_decision(ctx, d),
            None => false,
        }
    }

    /// The shared `handle_vm_events` body for collectors without bespoke
    /// VMM cooperation: drain queued notifications (charging the
    /// notification cost), let the policy react to eviction notices, then
    /// run the idle hook if the policy wants it. Returns whether the budget
    /// moved. Under [`crate::policy::PolicyKind::Fixed`] the process never
    /// registers for notifications, so the queue is empty and this is
    /// byte-for-byte today's defensive drain.
    pub fn pump_policy_events(&mut self, ctx: &mut MemCtx<'_>) -> bool {
        let mut changed = false;
        let mut events = std::mem::take(&mut self.event_scratch);
        events.clear();
        ctx.vmm.drain_events_into(ctx.pid, &mut events);
        for ev in &events {
            let cost = ctx.vmm.costs().notification;
            ctx.clock.advance(cost);
            if let vmm::VmEvent::EvictionScheduled { .. } = ev {
                changed |= self.policy_pressure(ctx);
            }
        }
        self.event_scratch = events;
        if self.policy.idle_active() {
            changed |= self.policy_idle(ctx);
        }
        changed
    }
}

/// Appends `(slot, target)` for every non-null word of the `n` reference
/// slots starting at `first` (uncharged: the caller has touched them). One
/// borrowed run of words per page the slots cover.
#[inline]
pub fn push_refs(mem: &SimMemory, first: Address, n: u32, out: &mut Vec<(Address, Address)>) {
    let mut slot = first;
    let mut left = n as usize;
    while left > 0 {
        let run = mem.span(slot, left);
        for &w in run {
            if w != 0 {
                out.push((slot, Address(w)));
            }
            slot = slot.offset(WORD);
        }
        left -= run.len();
    }
}

/// An open stop-the-world pause (returned by [`Core::begin_pause`], consumed
/// by [`Core::end_pause`]).
#[derive(Clone, Copy, Debug)]
#[must_use = "an open pause must be closed with Core::end_pause"]
pub struct PauseToken {
    start: Nanos,
    faults: u64,
    kind: PauseKind,
}

impl PauseToken {
    /// The instant the pause began.
    pub fn start(&self) -> Nanos {
        self.start
    }

    /// The pause kind declared at [`Core::begin_pause`].
    pub fn kind(&self) -> PauseKind {
        self.kind
    }
}

/// The telemetry span kind for a pause.
fn collection_kind(kind: PauseKind) -> CollectionKind {
    match kind {
        PauseKind::Nursery => CollectionKind::Minor,
        PauseKind::Full => CollectionKind::Full,
        PauseKind::Compacting => CollectionKind::Compacting,
        PauseKind::FailSafe => CollectionKind::Failsafe,
    }
}

/// A collector that can forward (mark or copy) one object reference.
pub trait Forwarder {
    /// Shared state.
    fn core_mut(&mut self) -> &mut Core;

    /// Processes one edge: marks or copies `obj` as the collection requires,
    /// enqueues it for scanning on first visit, and returns its (possibly
    /// new) address.
    fn forward(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Address;
}

/// Forwards every live root slot in place, in slot order. The root set is
/// moved out of the core for the duration (the forwarder borrows the core
/// mutably), so a collection allocates nothing per root.
#[zero_alloc]
pub fn forward_roots<F: Forwarder>(f: &mut F, ctx: &mut MemCtx<'_>) {
    let mut roots = std::mem::take(&mut f.core_mut().roots);
    roots.for_each_slot_mut(|slot| *slot = f.forward(ctx, *slot));
    debug_assert!(
        f.core_mut().roots.is_empty(),
        "a root was added during the trace"
    );
    f.core_mut().roots = roots;
}

/// Drains the gray queue through the work-packet scheduler: the pending
/// queue is partitioned into packets, N simulated workers drain them with
/// deterministic work-stealing, and the clock is rewound so the elapsed
/// pause equals the critical path (`max` over per-worker busy time) rather
/// than the sum. See [`crate::packet`] for the scheduling rules.
///
/// At `gc_threads = 1` this reproduces the old sequential loop exactly:
/// one worker, no steals, zero rewind, identical pop order and charges.
///
/// The loop is allocation-free per traced object: `(slot, target)` pairs
/// land in the active worker's reusable scan buffer, and packets recycle
/// through the scheduler's free pool.
#[zero_alloc]
pub fn drain_gray<F: Forwarder>(f: &mut F, ctx: &mut MemCtx<'_>) {
    // The scheduler must be borrowed alongside `Core` (scan scratch on one
    // side, charged heap access on the other), so it is moved out of the
    // core for the duration of the drain.
    let mut pq = std::mem::take(&mut f.core_mut().packets);
    {
        let core = f.core_mut();
        pq.begin(core.queue.as_slice());
        core.queue.clear();
    }
    let steal_cost = ctx.vmm.costs().steal_packet;
    while let Some(w) = pq.select() {
        let quantum_start = ctx.clock.now();
        match pq.acquire(w) {
            Acquired::Nothing => break,
            Acquired::Steal => ctx.clock.advance(steal_cost),
            Acquired::Local | Acquired::Injector => {}
        }
        // One scheduling quantum: up to a packet's worth of objects, so the
        // least-busy-worker pick amortizes over PACKET_CAP scans.
        let mut quantum = 0;
        while quantum < PACKET_CAP {
            let Some(obj) = pq.pop_obj(w) else { break };
            quantum += 1;
            f.core_mut().stats.objects_traced += 1;
            f.core_mut()
                .scan_refs_into(ctx, obj, &mut pq.worker_mut(w).scan);
            for i in 0..pq.workers()[w].scan.len() {
                let (slot, target) = pq.workers()[w].scan[i];
                let new = f.forward(ctx, target);
                if new != target {
                    // Page already touched by the scan.
                    f.core_mut().mem.write_word(slot, new.0);
                }
            }
            // Children the forwarder just enqueued move onto this worker's
            // local stack, newest on top — the sequential LIFO order.
            let core = f.core_mut();
            for &child in core.queue.as_slice() {
                pq.push_obj(w, child);
            }
            core.queue.clear();
        }
        let spent = ctx.clock.now() - quantum_start;
        pq.worker_mut(w).busy += spent;
    }
    let (total, critical) = pq.busy_totals();
    ctx.clock.rewind(total - critical);
    finish_drain(f, ctx, &pq);
    f.core_mut().packets = pq;
}

/// End-of-drain bookkeeping: folds per-worker packet/steal counters into
/// [`GcStats`] and emits one [`EventKind::TraceWorker`] summary per worker
/// (timestamps are post-rewind, like the pause end).
fn finish_drain<F: Forwarder>(f: &mut F, ctx: &MemCtx<'_>, pq: &PacketQueue) {
    let (_, critical) = pq.busy_totals();
    let core = f.core_mut();
    let mut traced_any = false;
    for w in pq.workers() {
        core.stats.trace_packets += w.packets;
        core.stats.trace_steals += w.steals;
        traced_any |= w.objects > 0;
    }
    if traced_any && core.config.tracer.enabled() {
        for (i, w) in pq.workers().iter().enumerate() {
            core.trace_event(
                ctx,
                EventKind::TraceWorker {
                    worker: i as u32,
                    packets: w.packets,
                    steals: w.steals,
                    objects: w.objects,
                    busy_ns: w.busy.as_nanos(),
                    idle_ns: critical.saturating_sub(w.busy).as_nanos(),
                },
            );
        }
    }
}

/// Appel-style nursery sizing shared by the generational collectors.
#[derive(Clone, Copy, Debug)]
pub struct NurserySizer {
    policy: NurseryPolicy,
}

impl NurserySizer {
    /// A sizer following `policy`.
    pub fn new(policy: NurseryPolicy) -> NurserySizer {
        NurserySizer { policy }
    }

    /// The nursery budget given the bytes that would be free if the nursery
    /// were empty, after subtracting the collector's copy reserve.
    pub fn limit(&self, free_minus_reserve_bytes: u32) -> u32 {
        match self.policy {
            NurseryPolicy::Appel => (free_minus_reserve_bytes / 2).max(MIN_NURSERY_BYTES),
            NurseryPolicy::Fixed { bytes } => bytes,
        }
    }

    /// Whether a full collection should be forced because the nursery has
    /// shrunk to its minimum (Appel) or the reserve is exhausted (fixed).
    pub fn full_gc_needed(&self, free_minus_reserve_bytes: u32) -> bool {
        match self.policy {
            NurseryPolicy::Appel => free_minus_reserve_bytes / 2 < MIN_NURSERY_BYTES,
            NurseryPolicy::Fixed { bytes } => free_minus_reserve_bytes < bytes,
        }
    }
}

/// Decides cell-vs-LOS placement for an allocation request.
pub fn is_large(kind: AllocKind) -> bool {
    kind.size_bytes() > crate::object::MAX_SMALL_OBJECT_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::field_addr;
    use simtime::{Clock, CostModel};
    use vmm::{Vmm, VmmConfig};

    fn setup() -> (Core, Vmm, Clock) {
        let mut vmm = Vmm::new(
            VmmConfig::builder().frames(1024).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        assert_eq!(pid.as_u32(), 0);
        (
            Core::new(HeapConfig::builder().heap_bytes(1 << 20).build()),
            vmm,
            Clock::new(),
        )
    }

    #[test]
    fn init_and_header_round_trip() {
        let (mut core, mut vmm, mut clock) = setup();
        let pid = vmm::ProcessId::new(0);
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        let kind = ObjectKind::scalar(4, 2);
        let obj = Address(0x1040_0000);
        core.init_object(&mut ctx, obj, kind);
        let h = core.header(&mut ctx, obj);
        assert_eq!(h.kind, kind);
        assert!(!h.mark && !h.bookmark);
        assert_eq!(core.stats.objects_allocated, 1);
        assert_eq!(core.stats.bytes_allocated, 24);
    }

    #[test]
    fn try_mark_marks_once() {
        let (mut core, mut vmm, mut clock) = setup();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let obj = Address(0x1040_0000);
        core.init_object(&mut ctx, obj, ObjectKind::scalar(1, 0));
        assert!(core.try_mark(&mut ctx, obj));
        assert!(!core.try_mark(&mut ctx, obj));
        assert!(core.is_marked(&mut ctx, obj));
        core.clear_mark(&mut ctx, obj);
        assert!(!core.is_marked(&mut ctx, obj));
    }

    #[test]
    fn scan_refs_into_returns_nonnull_slots() {
        let (mut core, mut vmm, mut clock) = setup();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let obj = Address(0x1040_0000);
        core.init_object(&mut ctx, obj, ObjectKind::scalar(4, 3));
        // Set fields 0 and 2.
        core.write_slot(&mut ctx, field_addr(obj, 0), Address(0x2000));
        core.write_slot(&mut ctx, field_addr(obj, 2), Address(0x3000));
        // Stale contents are cleared, not appended to.
        let mut refs = vec![(Address(4), Address(8))];
        core.scan_refs_into(&mut ctx, obj, &mut refs);
        assert_eq!(
            refs,
            vec![
                (field_addr(obj, 0), Address(0x2000)),
                (field_addr(obj, 2), Address(0x3000)),
            ]
        );
    }

    #[test]
    fn copy_object_leaves_forwarding_stub() {
        let (mut core, mut vmm, mut clock) = setup();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, vmm::ProcessId::new(0));
        let from = Address(0x1040_0000);
        let to = Address(0x5040_0000);
        let kind = ObjectKind::scalar(2, 1);
        core.init_object(&mut ctx, from, kind);
        core.write_slot(&mut ctx, field_addr(from, 0), Address(0xABCD_0000));
        core.copy_object(&mut ctx, from, to, kind.size_bytes());
        assert_eq!(core.header_or_forward(&mut ctx, from), Err(to));
        let h = core.header(&mut ctx, to);
        assert_eq!(h.kind, kind);
        assert_eq!(
            core.read_slot(&mut ctx, field_addr(to, 0)),
            Address(0xABCD_0000)
        );
        assert_eq!(core.stats.objects_moved, 1);
    }

    #[test]
    fn nursery_sizer_appel_halves_free_space() {
        let s = NurserySizer::new(NurseryPolicy::Appel);
        assert_eq!(s.limit(40 << 20), 20 << 20);
        assert_eq!(s.limit(100), MIN_NURSERY_BYTES);
        assert!(s.full_gc_needed(100));
        assert!(!s.full_gc_needed(10 << 20));
    }

    #[test]
    fn nursery_sizer_fixed_is_constant() {
        let s = NurserySizer::new(NurseryPolicy::FIXED_4MB);
        assert_eq!(s.limit(100 << 20), 4 << 20);
        assert_eq!(s.limit(0), 4 << 20);
        assert!(s.full_gc_needed(3 << 20));
        assert!(!s.full_gc_needed(5 << 20));
    }

    #[test]
    fn is_large_matches_paper_threshold() {
        assert!(!is_large(AllocKind::DataArray { len: 2043 })); // 8180 bytes
        assert!(is_large(AllocKind::DataArray { len: 2044 })); // 8184 bytes
    }
}
