//! The one collector behind the five baselines: a [`Plan`] composes a
//! [`Young`] generation, a [`Mature`] space and the large object space
//! under a single allocation ladder, write barrier, forwarding rule and
//! collection driver.

use heap::gc::{drain_gray, forward_roots, is_large, Core, Forwarder};
use heap::object::{field_addr, HEADER_BYTES};
use heap::{
    Address, AllocKind, Classified, CollectKind, GcHeap, GcStats, Handle, Header, HeapConfig,
    InjectFault, LargeObjectSpace, MemCtx, OutOfMemory, ShadowSpec,
};
use simtime::{PauseKind, PauseLog};
use telemetry::{GcPhase, Tracer};
use vmm::Access;

use crate::mature::Mature;
use crate::young::Young;

/// What one cell of the `Young` × `Mature` matrix pins that neither axis
/// determines alone — all of it reporting, none of it mechanism. A
/// combination without an entry here does not compile as a collector.
pub trait Cell {
    /// The paper's name for the collector (see [`crate::names`]).
    const NAME: &'static str;
    /// How a whole-heap collection is logged. Only SemiSpace's counts as
    /// [`PauseKind::Compacting`] (and bumps `compacting_gcs`); GenCopy's
    /// full collection copies just as much and has always been
    /// [`PauseKind::Full`].
    const FULL_PAUSE: PauseKind;
    /// What the sanitizer calls the space a reachable edge must not point
    /// into, after the trace and after the release of a whole-heap
    /// collection.
    const FULL_CONDEMNED: [&'static str; 2];
}

/// The same two labels for a nursery collection, whatever the cell.
const MINOR_CONDEMNED: [&str; 2] = ["collected nursery", "released nursery"];

/// A baseline collector: `Y` receives new objects (or is absent), `M` holds
/// the survivors, large objects live in the shared [`LargeObjectSpace`].
///
/// Every behaviour is chosen statically from `Y` and `M` — no `dyn`, no
/// run-time plan tag — so each alias in the crate root compiles to the code
/// a hand-written collector would.
#[derive(Debug)]
pub struct Plan<Y, M> {
    core: Core,
    young: Y,
    mature: M,
    los: LargeObjectSpace,
}

impl<Y: Young, M: Mature> Plan<Y, M>
where
    (Y, M): Cell,
{
    /// Creates a heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        let l = config.layout;
        let mut plan = Plan {
            young: Y::new(&config),
            mature: M::new(&config),
            los: LargeObjectSpace::new(l.los.0, l.los.1),
            core: Core::new(config),
        };
        plan.resize_young();
        plan
    }

    fn resize_young(&mut self) {
        self.young.resize(&self.core.pool, &self.mature);
    }

    // Three call sites per plan, so the hint alone leaves a call on the
    // allocation fast path.
    #[inline(always)]
    fn alloc_raw(&mut self, kind: AllocKind) -> Option<Address> {
        if is_large(kind) {
            return self.los.alloc(&mut self.core.pool, kind.size_bytes());
        }
        self.young
            .alloc(&mut self.core.pool, &mut self.mature, kind)
    }

    /// The retry ladder: generational plans collect what the request hints
    /// at, then the whole heap, then give up; whole-heap plans have only the
    /// one collection to try.
    #[cold]
    fn alloc_slow(&mut self, ctx: &mut MemCtx<'_>, kind: AllocKind) -> Option<Address> {
        let hint = if is_large(kind) {
            CollectKind::Full
        } else {
            CollectKind::Minor
        };
        self.collect(ctx, hint);
        let retry = self.alloc_raw(kind);
        if retry.is_none() && Y::GENERATIONAL {
            self.run_collection(ctx, CollectKind::Full);
            return self.alloc_raw(kind);
        }
        retry
    }

    /// Whether the spaces' own bookkeeping says `addr` holds a live object.
    /// `mid_full` is the window of a whole-heap collection between the end
    /// of the trace and the release of the condemned space.
    fn holds_live(mature: &M, los: &LargeObjectSpace, addr: Address, mid_full: bool) -> bool {
        mature.holds_live(addr, mid_full) || los.is_live_object(addr)
    }

    /// Whether a reachable object at `addr` is promised to carry a mark:
    /// only in the `mid_full` window (a minor collection marks nothing, and
    /// the sweep clears what a full one set), and only where survivors are
    /// marked in place — copied ones never are.
    fn expects_mark(los: &LargeObjectSpace, addr: Address, mid_full: bool) -> bool {
        mid_full && (M::MARKS || los.region_contains(addr))
    }

    /// Shadow re-trace at a phase boundary, against the two verdicts above:
    /// a reachable edge into anything not live is a missed remembered-set
    /// record or a stale forward.
    fn sanitize_shadow(&mut self, phase: &'static str, condemned: &'static str, mid_full: bool) {
        let (mature, los) = (&self.mature, &self.los);
        let spec = ShadowSpec {
            collector: <(Y, M)>::NAME,
            phase,
            classify: &|a| {
                if Self::holds_live(mature, los, a, mid_full) {
                    Classified::Live
                } else {
                    Classified::Condemned(condemned)
                }
            },
            resident: &|_, _| true,
            expect_marked: &|a| Self::expects_mark(los, a, mid_full),
        };
        self.core.sanitize_shadow_trace(&spec);
    }

    /// The collection driver. `kind` is [`CollectKind::Minor`] (generational
    /// plans only: roots and remembered slots into the nursery, survivors
    /// promoted, nothing swept) or [`CollectKind::Full`].
    fn run_collection(&mut self, ctx: &mut MemCtx<'_>, kind: CollectKind) {
        let full = kind == CollectKind::Full;
        let (pause_kind, condemned) = if full {
            (<(Y, M)>::FULL_PAUSE, <(Y, M)>::FULL_CONDEMNED)
        } else {
            (PauseKind::Nursery, MINOR_CONDEMNED)
        };
        let pause = self.core.begin_pause(ctx, pause_kind);
        self.young.set_collecting(Some(kind));
        self.core.phase_begin(ctx, GcPhase::RootScan);
        forward_roots(self, ctx);
        self.core.phase_end(ctx, GcPhase::RootScan);
        if !full {
            // Process the remembered set: update slots whose targets moved.
            self.core.phase_begin(ctx, GcPhase::CardScan);
            let slots = self.young.remset().map(std::mem::take).unwrap_or_default();
            for slot in slots {
                let target = self.core.read_slot(ctx, slot);
                if self.young.contains(target) {
                    let new = self.forward(ctx, target);
                    self.core.write_slot(ctx, slot, new);
                }
            }
            self.core.phase_end(ctx, GcPhase::CardScan);
        }
        self.core.phase_begin(ctx, GcPhase::Trace);
        drain_gray(self, ctx);
        self.core.phase_end(ctx, GcPhase::Trace);
        if self.core.sanitize_full() {
            if full && self.core.san_take_fault(InjectFault::ClearMark) {
                // Seeded bug: un-mark one reachable object post-trace.
                if let Some(obj) = self.core.roots.iter().next() {
                    let w0 = self.core.mem.read_word(obj);
                    self.core.mem.write_word(obj, Header::with_mark(w0, false));
                }
            }
            // After a minor trace a reachable nursery edge means a skipped
            // write barrier; after a full one every survivor that can carry
            // a mark must.
            self.sanitize_shadow("after-trace", condemned[0], full);
        }
        if full {
            self.core.phase_begin(ctx, GcPhase::Sweep);
            self.core
                .sweep(ctx, self.mature.ms(), &mut self.los, |_, _| true, false);
        }
        // Everything live has left the nursery — and, in a full collection,
        // whatever the mature space condemned.
        self.young.release(&mut self.core.pool, &mut self.core.mem);
        if full {
            self.mature
                .release_condemned(&mut self.core.pool, &mut self.core.mem);
            if let Some(remset) = self.young.remset() {
                remset.clear();
            }
            self.core.phase_end(ctx, GcPhase::Sweep);
        }
        if self.core.sanitize_full() {
            self.sanitize_shadow("after-collection", condemned[1], false);
        }
        if self.core.sanitize_checks() {
            // Every bump space, every time: a released space's collapsed
            // extent clears its tail-poison ledger entry, so the next
            // flip's copy targets are not checked against stale geometry.
            let (ms, mut bumps) = self.mature.audited();
            bumps.extend(self.young.space());
            self.core
                .sanitize_physical_checks(ctx, ms, &self.los, &bumps);
        }
        self.young.set_collecting(None);
        if full {
            self.core.stats.full_gcs += 1;
            if pause_kind == PauseKind::Compacting {
                self.core.stats.compacting_gcs += 1;
            }
        } else {
            self.core.stats.nursery_gcs += 1;
        }
        self.resize_young();
        self.core.end_pause(ctx, pause);
        if self.core.policy_after_gc(ctx) {
            self.resize_young();
        }
    }
}

impl<Y: Young, M: Mature> Forwarder for Plan<Y, M>
where
    (Y, M): Cell,
{
    fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    // The inner loop of `drain_gray`: one call per traced edge otherwise.
    #[inline]
    fn forward(&mut self, ctx: &mut MemCtx<'_>, obj: Address) -> Address {
        let full = match self.young.collecting() {
            None => unreachable!("forward outside a collection"),
            Some(kind) => kind == CollectKind::Full,
        };
        if self.young.contains(obj) || (full && self.mature.condemns(obj)) {
            // Condemned: the object moves, once.
            match self.core.header_or_forward(ctx, obj) {
                Err(new) => new,
                Ok(h) => {
                    let new = self.mature.survivor_cell(&mut self.core.pool, h.kind, full);
                    self.core.copy_object(ctx, obj, new, h.kind.size_bytes());
                    if full && M::MARKS {
                        // Survivors carry a mark or the sweep would free them.
                        let marked = self.core.try_mark(ctx, new);
                        debug_assert!(marked);
                    }
                    self.core.queue.push(new);
                    if self.core.san_take_fault(InjectFault::DanglingForward) {
                        // Seeded bug: return the stale address.
                        return obj;
                    }
                    new
                }
            }
        } else {
            // It stays. A full collection marks it in place if it sits where
            // marks are kept (a survivor already copied this cycle does
            // not); a minor collection does not trace outside the nursery.
            if full && (M::MARKS || self.los.region_contains(obj)) && self.core.try_mark(ctx, obj) {
                self.core.queue.push(obj);
            }
            obj
        }
    }
}

impl<Y: Young, M: Mature> GcHeap for Plan<Y, M>
where
    (Y, M): Cell,
{
    fn alloc(&mut self, ctx: &mut MemCtx<'_>, kind: AllocKind) -> Result<Handle, OutOfMemory> {
        let addr = match self.alloc_raw(kind) {
            Some(a) => a,
            None => self.alloc_slow(ctx, kind).ok_or(OutOfMemory {
                requested_bytes: kind.size_bytes(),
            })?,
        };
        self.core.init_object(ctx, addr, kind.object_kind());
        if M::FREE_LISTS && self.young.space().is_none() {
            // Allocated straight from the segregated free lists: charge the
            // bump-vs-freelist gap (see CostModel).
            let extra = ctx.vmm.costs().alloc_freelist_extra;
            ctx.clock.advance(extra);
        }
        Ok(self.core.roots.add(addr))
    }

    fn write_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32, val: Option<Handle>) {
        let obj = self.core.roots.get(src);
        let target = val.map_or(Address::NULL, |h| self.core.roots.get(h));
        let slot = field_addr(obj, field);
        // Boundary write barrier: remember pointers into the nursery from
        // outside it.
        if Y::GENERATIONAL && !self.young.contains(obj) && self.young.contains(target) {
            if self.core.san_take_fault(InjectFault::SkipBarrier) {
                // Seeded bug: drop this remembered-set record.
            } else if let Some(remset) = self.young.remset() {
                remset.push(slot);
                self.core.stats.barrier_records += 1;
                let barrier = ctx.vmm.costs().barrier;
                ctx.clock.advance(barrier);
            }
        }
        self.core.write_slot(ctx, slot, target);
    }

    fn read_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32) -> Option<Handle> {
        let obj = self.core.roots.get(src);
        let target = self.core.read_slot(ctx, field_addr(obj, field));
        (!target.is_null()).then(|| self.core.roots.add(target))
    }

    fn read_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        let addr = self.core.roots.get(obj);
        let size = self.core.header(ctx, addr).kind.size_bytes();
        ctx.touch(&mut self.core.mem, addr, size, Access::Read);
    }

    fn write_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        let addr = self.core.roots.get(obj);
        let size = self.core.header(ctx, addr).kind.size_bytes();
        ctx.touch(
            &mut self.core.mem,
            addr.offset(HEADER_BYTES),
            size.saturating_sub(HEADER_BYTES).max(4),
            Access::Write,
        );
    }

    fn same_object(&self, a: Handle, b: Handle) -> bool {
        self.core.roots.get(a) == self.core.roots.get(b)
    }

    fn dup_handle(&mut self, h: Handle) -> Handle {
        let addr = self.core.roots.get(h);
        self.core.roots.add(addr)
    }

    fn drop_handle(&mut self, h: Handle) {
        self.core.roots.remove(h);
    }

    fn collect(&mut self, ctx: &mut MemCtx<'_>, kind: CollectKind) {
        if Y::GENERATIONAL && kind == CollectKind::Minor {
            self.run_collection(ctx, CollectKind::Minor);
            if self.young.full_gc_needed(&self.core.pool, &self.mature) {
                self.run_collection(ctx, CollectKind::Full);
            }
        } else {
            // Whole-heap plans have nothing smaller to run: the kind is a
            // hint they ignore.
            self.run_collection(ctx, CollectKind::Full);
        }
    }

    fn handle_vm_events(&mut self, ctx: &mut MemCtx<'_>) {
        // Under `Fixed` the queue is always empty (never registered); a
        // sizing policy may consume pressure events here.
        if self.core.pump_policy_events(ctx) {
            self.resize_young();
        }
    }

    fn stats(&self) -> &GcStats {
        &self.core.stats
    }

    fn pause_log(&self) -> &PauseLog {
        &self.core.pauses
    }

    fn exit(&mut self) {
        self.core.exit();
    }

    fn tracer(&self) -> &Tracer {
        &self.core.config.tracer
    }

    fn heap_pages_used(&self) -> usize {
        self.core.pool.used()
    }

    fn heap_pages_peak(&self) -> usize {
        self.core.pool.peak()
    }

    fn name(&self) -> &'static str {
        <(Y, M)>::NAME
    }
}

#[cfg(test)]
mod tests {
    //! The derived shadow spec against the five hand-written ones it
    //! replaced: for every plan, the same verdict on every probe address at
    //! every audit point of two consecutive whole-heap collections.

    use super::*;
    use crate::mature::CopyMature;
    use crate::young::{CopyNursery, GenNursery, NoNursery};
    use heap::MsSpace;
    use heap::{Layout, BYTES_PER_PAGE};
    use simtime::{Clock, CostModel};
    use vmm::{Vmm, VmmConfig};

    /// What a deleted collector's closures said of one address: whether
    /// `classify` called it live, and whether `expect_marked` held. `a_live`
    /// is the copying collectors' `from_is_a`/`mature_is_a` selection (is
    /// the live semispace the one in `layout.space_a`?), which the test
    /// tracks on its own, flipping it at every release as they did.
    type Reference<Y, M> = fn(&Plan<Y, M>, Address, bool, bool) -> (bool, bool);

    /// MarkSweep's, GenMS's and CopyMS's closures, verbatim.
    fn ms_reference<Y: Young>(
        p: &Plan<Y, MsSpace>,
        a: Address,
        _a_live: bool,
        marked: bool,
    ) -> (bool, bool) {
        let ms = &p.mature;
        (ms.is_allocated_cell(a) || p.los.is_live_object(a), marked)
    }

    /// SemiSpace's and GenCopy's: one semispace holds every live small
    /// object; only traced large objects are marked.
    fn copy_reference<Y: Young>(
        p: &Plan<Y, CopyMature>,
        a: Address,
        a_live: bool,
        marked: bool,
    ) -> (bool, bool) {
        let space_a = Layout::standard().space_a.0;
        let live = p
            .mature
            .audited()
            .1
            .into_iter()
            .find(|s| (s.base() == space_a) == a_live)
            .expect("two semispaces");
        (
            live.contains_allocated(a) || p.los.is_live_object(a),
            marked && p.los.region_contains(a),
        )
    }

    /// Region boundaries, every root, its neighbours, interiors of large
    /// objects, and every address already probed (so freed cells, dead large
    /// objects and both semispaces stay under watch across flips).
    fn probes<Y: Young, M: Mature>(p: &Plan<Y, M>, seen: &mut Vec<Address>) {
        let l = Layout::standard();
        for (lo, hi) in [l.nursery, l.space_a, l.space_b, l.los] {
            seen.extend([lo, lo.offset(4), lo.offset(12), Address(hi.0 - 4)]);
        }
        for root in p.core.roots.iter() {
            seen.extend([root, root.offset(4), root.offset(BYTES_PER_PAGE)]);
            seen.push(Address(root.0 - 4));
        }
        seen.sort_unstable();
        seen.dedup();
    }

    /// `from_is_a` is the deleted collectors' flag as of this audit point;
    /// in the `mid_full` window they looked at the *other* space.
    fn agrees<Y: Young, M: Mature>(
        p: &Plan<Y, M>,
        reference: Reference<Y, M>,
        seen: &mut Vec<Address>,
        (from_is_a, mid_full): (bool, bool),
        at: &str,
    ) where
        (Y, M): Cell,
    {
        probes(p, seen);
        for &a in seen.iter() {
            // The hand-written specs promised marks exactly when the derived
            // one is `mid_full`: after the trace of a whole-heap collection.
            let (live, marked) = reference(p, a, from_is_a != mid_full, mid_full);
            let name = <(Y, M)>::NAME;
            assert_eq!(
                Plan::<Y, M>::holds_live(&p.mature, &p.los, a, mid_full),
                live,
                "{name} {at}: liveness of {a}"
            );
            assert_eq!(
                Plan::<Y, M>::expects_mark(&p.los, a, mid_full),
                marked,
                "{name} {at}: mark promise at {a}"
            );
        }
    }

    fn derived_spec_matches<Y: Young, M: Mature>(reference: Reference<Y, M>)
    where
        (Y, M): Cell,
    {
        let mut vmm = Vmm::new(
            VmmConfig::builder().memory_bytes(64 << 20).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        let mut clock = Clock::new();
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        let mut p = Plan::<Y, M>::new(HeapConfig::builder().heap_bytes(4 << 20).build());
        let small = AllocKind::Scalar {
            data_words: 5,
            num_refs: 1,
        };
        let mut seen = Vec::new();
        let mut from_is_a = true;
        for round in 0..2 {
            // Live and dead cells of two size classes, a live and a dead
            // large object, all probed while their handles exist.
            let mut dead = Vec::new();
            for i in 0..40 {
                let h = p.alloc(&mut ctx, small).unwrap();
                let d = p.alloc(&mut ctx, AllocKind::DataArray { len: 30 }).unwrap();
                if i % 2 == 0 {
                    dead.push(h);
                }
                dead.push(d);
            }
            let _big = p
                .alloc(&mut ctx, AllocKind::RefArray { len: 3_000 })
                .unwrap();
            dead.push(
                p.alloc(&mut ctx, AllocKind::DataArray { len: 4_000 })
                    .unwrap(),
            );
            agrees(&p, reference, &mut seen, (from_is_a, false), "at rest");
            for h in dead {
                p.drop_handle(h);
            }
            if Y::GENERATIONAL && round == 0 {
                // Both audit points of a nursery collection use the verdicts
                // of a heap at rest.
                p.collect(&mut ctx, CollectKind::Minor);
                agrees(
                    &p,
                    reference,
                    &mut seen,
                    (from_is_a, false),
                    "after a minor",
                );
            }
            // The first half of `run_collection`, up to the after-trace audit…
            p.young.set_collecting(Some(CollectKind::Full));
            forward_roots(&mut p, &mut ctx);
            drain_gray(&mut p, &mut ctx);
            agrees(
                &p,
                reference,
                &mut seen,
                (from_is_a, true),
                "after the trace",
            );
            // …and the second, up to the after-collection one.
            p.core
                .sweep(&mut ctx, p.mature.ms(), &mut p.los, |_, _| true, false);
            p.young.release(&mut p.core.pool, &mut p.core.mem);
            p.mature
                .release_condemned(&mut p.core.pool, &mut p.core.mem);
            p.young.set_collecting(None);
            p.resize_young();
            from_is_a = !from_is_a;
            agrees(
                &p,
                reference,
                &mut seen,
                (from_is_a, false),
                "after the flip",
            );
        }
    }

    #[test]
    fn marksweep_spec_matches_the_hand_written_one() {
        derived_spec_matches::<NoNursery, MsSpace>(ms_reference);
    }

    #[test]
    fn semispace_spec_matches_the_hand_written_one() {
        derived_spec_matches::<NoNursery, CopyMature>(copy_reference);
    }

    #[test]
    fn gencopy_spec_matches_the_hand_written_one() {
        derived_spec_matches::<GenNursery, CopyMature>(copy_reference);
    }

    #[test]
    fn genms_spec_matches_the_hand_written_one() {
        derived_spec_matches::<GenNursery, MsSpace>(ms_reference);
    }

    #[test]
    fn copyms_spec_matches_the_hand_written_one() {
        derived_spec_matches::<CopyNursery, MsSpace>(ms_reference);
    }
}
