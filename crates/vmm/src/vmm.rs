//! The virtual memory manager proper.
//!
//! Since the multi-tenant redesign the manager is a façade over
//! [`Shard`]s: the frame pool, both LRU lists, and the reclaim queues are
//! partitioned, processes are assigned to shards round-robin by id, and
//! each shard runs the Linux 2.4 reclaim state machine over its own
//! partition. With one shard (the default) the behaviour is bit-for-bit
//! identical to the historical unsharded manager — pinned by the
//! `shard_equivalence` integration test — while `N` shards bound every
//! reclaim scan to `1/N` of the tenants. Under global pressure a shard
//! that runs dry steals frames from its siblings (free frames first, then
//! direct reclaim on their lists), so over-committed tenants can still
//! make progress; stolen frames migrate between shards permanently, like
//! pages migrating between NUMA zones.

use std::collections::VecDeque;
use std::fmt;

use simtime::{Clock, CostModel};
use telemetry::{EventKind, Tracer};

use crate::config::VmmConfig;
use crate::events::VmEvent;
use crate::lists::LazyQueue;
use crate::page::{
    Access, ListTag, PageInfo, PageKey, PageState, ProcessId, TouchOutcome, VirtPage,
};
use crate::pagemap::{PageMap, LEAF_PAGES};
use crate::stats::VmStats;

/// Sentinel for [`Process::last_touched`]: no page is cached.
const NO_TOUCH_CACHE: u32 = u32::MAX;

/// Hard capacity of the process table ([`ProcessId`] is a `u32` index).
pub const MAX_PROCESSES: usize = u32::MAX as usize;

/// Error returned by [`Vmm::try_register_process`] when the process table
/// is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessTableFull;

impl fmt::Display for ProcessTableFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process table full ({MAX_PROCESSES} processes)")
    }
}

impl std::error::Error for ProcessTableFull {}

/// A process's page table: one [`PageInfo`] per virtual page, in a
/// [`PageMap`] whose root lives inline in the [`Process`], so a lookup is
/// three masked loads with no pointer to the root in between. Leaves are
/// allocated on a page's first touch (or first state change); an entry in
/// an allocated leaf defaults to an unmapped page, which is
/// indistinguishable from the page being absent altogether.
type PageTable = PageMap<[PageInfo; LEAF_PAGES]>;

/// One simulated process known to the manager.
#[derive(Debug)]
struct Process {
    /// The page table, indexed by virtual page number.
    pages: PageTable,
    /// Whether this process registered for paging notifications (§4.1:
    /// "When the application begins, it registers itself with the operating
    /// system so that it will receive notification of paging events").
    notify: bool,
    /// The queued real-time-signal mailbox.
    events: VecDeque<VmEvent>,
    /// Whether this process currently sits on its shard's notification
    /// queue. Set when the first event is queued, cleared on drain, so the
    /// queue holds each process at most once and event delivery stays
    /// O(processes-with-events), not O(processes).
    queued_notify: bool,
    stats: VmStats,
    /// The page number of the most recent fast-path touch, or
    /// [`NO_TOUCH_CACHE`]. While set, the page is guaranteed resident,
    /// unprotected, and on the active list, so consecutive touches to the
    /// same page skip every state check. Any operation that could break
    /// that invariant must call [`Process::forget_touch_cache`].
    last_touched: u32,
}

impl Default for Process {
    fn default() -> Process {
        Process {
            pages: PageTable::default(),
            notify: false,
            events: VecDeque::new(),
            queued_notify: false,
            stats: VmStats::default(),
            last_touched: NO_TOUCH_CACHE,
        }
    }
}

impl Process {
    fn page(&mut self, page: VirtPage) -> &mut PageInfo {
        self.pages.get_or_default(page.number())
    }

    fn page_ref(&self, page: VirtPage) -> Option<&PageInfo> {
        self.pages.get(page.number())
    }

    /// Drops the consecutive-touch cache if it refers to `page`.
    fn forget_touch_cache(&mut self, page: VirtPage) {
        if self.last_touched == page.number() {
            self.last_touched = NO_TOUCH_CACHE;
        }
    }
}

/// Queues `event` for `proc`, enqueuing the process on its shard's
/// notification queue the first time its mailbox goes non-empty.
fn queue_event(
    notified: &mut VecDeque<ProcessId>,
    pid: ProcessId,
    proc: &mut Process,
    event: VmEvent,
) {
    proc.events.push_back(event);
    if !proc.queued_notify {
        proc.queued_notify = true;
        notified.push_back(pid);
    }
}

/// One partition of the physical frame pool with its own reclaim state:
/// active/inactive lists, pending-notice and relinquish queues, watermarks,
/// and the notification queue of its resident processes.
#[derive(Debug)]
struct Shard {
    free_frames: usize,
    active: LazyQueue,
    inactive: LazyQueue,
    /// Live-entry counts (the lazy queues may hold stale duplicates).
    active_count: usize,
    inactive_count: usize,
    /// Pages awaiting eviction after a notice, with the pump sequence number
    /// at which the notice was sent; they get one full pump of grace.
    pending: VecDeque<(PageKey, u64)>,
    /// Pages surrendered via `vm_relinquish`: first in line for eviction.
    relinquish_queue: VecDeque<PageKey>,
    pump_seq: u64,
    /// Processes of this shard with queued events (lazy-deleted FIFO).
    notified: VecDeque<ProcessId>,
    low_watermark: usize,
    high_watermark: usize,
    batch: usize,
    clock_scan_limit: usize,
}

impl Shard {
    /// The `index`-th of `count` partitions of `config`: frames split as
    /// evenly as possible, watermarks divided (rounding up so every shard
    /// keeps a reclaim reserve). With `count == 1` every parameter equals
    /// the global configuration.
    fn new(config: &VmmConfig, index: usize, count: usize) -> Shard {
        let frames = config.frames / count + usize::from(index < config.frames % count);
        Shard {
            free_frames: frames,
            active: LazyQueue::new(),
            inactive: LazyQueue::new(),
            active_count: 0,
            inactive_count: 0,
            pending: VecDeque::new(),
            relinquish_queue: VecDeque::new(),
            pump_seq: 0,
            notified: VecDeque::new(),
            low_watermark: config.low_watermark.div_ceil(count),
            high_watermark: config.high_watermark.div_ceil(count),
            batch: config.batch,
            clock_scan_limit: config.clock_scan_limit,
        }
    }

    /// One background-reclaim pass over this shard (see [`Vmm::pump`]).
    fn pump(
        &mut self,
        procs: &mut [Process],
        costs: &CostModel,
        tracer: &Tracer,
        clock: &mut Clock,
    ) {
        self.pump_seq += 1;
        if self.free_frames >= self.low_watermark {
            self.cancel_pending(procs);
            return;
        }
        let target = self.high_watermark;
        // Phase 1: relinquished pages are first in line.
        while self.free_frames < target {
            let Some(key) = self.relinquish_queue.pop_front() else {
                break;
            };
            if page_flag(procs, key, |p| p.relinquished && p.evictable()) {
                self.evict(key, procs, costs, tracer, clock, false);
            }
        }
        // Phase 2: pending evictions past their grace period.
        let seq = self.pump_seq;
        while self.free_frames < target {
            match self.pending.front() {
                Some(&(_, noticed_at)) if noticed_at < seq => {}
                _ => break,
            }
            let (key, _) = self.pending.pop_front().unwrap();
            if page_flag(procs, key, |p| p.pending_eviction && p.evictable()) {
                self.evict(key, procs, costs, tracer, clock, false);
            }
        }
        // Phase 3 + 4: refill inactive, then scan it.
        let mut scheduled = 0usize;
        let mut scan_budget = self.batch * 4;
        while self.free_frames + scheduled < target && scan_budget > 0 {
            scan_budget -= 1;
            self.refill_inactive(procs);
            let Some(key) = self.pop_inactive(procs) else {
                break;
            };
            if !procs[key.pid.index()].notify {
                self.evict(key, procs, costs, tracer, clock, false);
                continue;
            }
            // Notifying process: queue a notice, give one pump of grace.
            {
                let info = procs[key.pid.index()].page(key.page);
                info.pending_eviction = true;
                // Keep an inactive tag so a rescue-touch repromotes cleanly.
                info.list = ListTag::Inactive;
            }
            self.inactive_count += 1;
            self.pending.push_back((key, seq));
            let proc = &mut procs[key.pid.index()];
            proc.stats.notices += 1;
            queue_event(
                &mut self.notified,
                key.pid,
                proc,
                VmEvent::EvictionScheduled { page: key.page },
            );
            clock.advance(costs.notification);
            tracer.emit(
                key.pid.as_u32(),
                clock.now(),
                EventKind::EvictionScheduled {
                    page: key.page.number(),
                },
            );
            scheduled += 1;
        }
    }

    /// Takes one frame from this shard, running direct reclaim over its own
    /// lists if none is free. Returns `false` if the shard cannot supply a
    /// frame (the caller may then steal from sibling shards).
    fn try_acquire(
        &mut self,
        procs: &mut [Process],
        costs: &CostModel,
        tracer: &Tracer,
        clock: &mut Clock,
    ) -> bool {
        if self.free_frames == 0 {
            self.direct_reclaim(procs, costs, tracer, clock);
        }
        if self.free_frames == 0 {
            return false;
        }
        self.free_frames -= 1;
        true
    }

    /// Direct reclaim: synchronously frees one frame when allocation finds
    /// none free. Preference order: relinquished pages, pages past their
    /// notice grace, then the inactive tail — where even a notifying
    /// process's page may be *hard-evicted* (notice delivered after the
    /// fact), modelling the kernel running ahead of the collector (§3.4.3).
    fn direct_reclaim(
        &mut self,
        procs: &mut [Process],
        costs: &CostModel,
        tracer: &Tracer,
        clock: &mut Clock,
    ) {
        // Relinquished pages first.
        while self.free_frames == 0 {
            let Some(key) = self.relinquish_queue.pop_front() else {
                break;
            };
            if page_flag(procs, key, |p| p.relinquished && p.evictable()) {
                self.evict(key, procs, costs, tracer, clock, false);
            }
        }
        // Then pages whose notice has been delivered (even this pump: the
        // kernel cannot wait under direct reclaim).
        while self.free_frames == 0 {
            let Some((key, _)) = self.pending.pop_front() else {
                break;
            };
            if page_flag(procs, key, |p| p.pending_eviction && p.evictable()) {
                self.evict(key, procs, costs, tracer, clock, false);
            }
        }
        // Finally the inactive tail, hard-evicting if necessary. Several
        // clock passes may be needed: the first pass over a hot working
        // set only clears referenced bits (second chance), so allow enough
        // scans to age every resident page before giving up (the façade
        // then tries the sibling shards).
        let mut empty_scans = 0usize;
        while self.free_frames == 0 && empty_scans < 256 {
            self.refill_inactive(procs);
            let Some(key) = self.pop_inactive(procs) else {
                empty_scans += 1;
                continue;
            };
            let hard = procs[key.pid.index()].notify;
            self.evict(key, procs, costs, tracer, clock, hard);
        }
    }

    /// Moves unreferenced active pages to the inactive list (clock pass).
    fn refill_inactive(&mut self, procs: &mut [Process]) {
        let want = (self.batch * 2).max(self.high_watermark);
        if self.inactive_count >= want {
            return;
        }
        let mut scanned = 0;
        while self.inactive_count < want && scanned < self.clock_scan_limit {
            scanned += 1;
            let key = {
                match self.active.pop_front_valid(|k| {
                    procs[k.pid.index()]
                        .page_ref(k.page)
                        .is_some_and(|p| p.list == ListTag::Active)
                }) {
                    Some(k) => k,
                    None => break,
                }
            };
            let (evictable, referenced) = {
                let info = procs[key.pid.index()].page(key.page);
                (info.evictable(), info.referenced)
            };
            if !evictable {
                let proc = &mut procs[key.pid.index()];
                proc.forget_touch_cache(key.page);
                proc.page(key.page).list = ListTag::None;
                self.active_count -= 1;
                continue;
            }
            if referenced {
                // Second chance. (The touch cache stays valid: the page
                // remains on the active list, and a cached touch re-sets
                // the referenced bit just as the fast path does.)
                procs[key.pid.index()].page(key.page).referenced = false;
                self.active.rotate_to_back(key);
            } else {
                let proc = &mut procs[key.pid.index()];
                proc.forget_touch_cache(key.page);
                proc.page(key.page).list = ListTag::Inactive;
                self.active_count -= 1;
                self.inactive_count += 1;
                self.inactive.push_back(key);
            }
        }
    }

    /// Pops the oldest valid entry of the inactive FIFO and untags it.
    /// Pages already pending eviction are skipped (their queue entry is
    /// dropped; the `pending` queue owns them now).
    fn pop_inactive(&mut self, procs: &mut [Process]) -> Option<PageKey> {
        let key = self.inactive.pop_front_valid(|k| {
            procs[k.pid.index()].page_ref(k.page).is_some_and(|p| {
                p.list == ListTag::Inactive
                    && p.evictable()
                    && !p.pending_eviction
                    && !p.relinquished
            })
        })?;
        procs[key.pid.index()].page(key.page).list = ListTag::None;
        self.inactive_count -= 1;
        Some(key)
    }

    /// Evicts a resident page to swap.
    fn evict(
        &mut self,
        key: PageKey,
        procs: &mut [Process],
        costs: &CostModel,
        tracer: &Tracer,
        clock: &mut Clock,
        hard: bool,
    ) {
        let (dirty, list) = {
            let proc = &mut procs[key.pid.index()];
            proc.forget_touch_cache(key.page);
            let info = proc.page(key.page);
            debug_assert!(info.evictable());
            let dirty = info.dirty;
            let list = info.list;
            *info = PageInfo {
                state: PageState::Evicted,
                dirty,
                ..PageInfo::default()
            };
            (dirty, list)
        };
        match list {
            ListTag::Active => self.active_count -= 1,
            ListTag::Inactive => self.inactive_count -= 1,
            ListTag::None => {}
        }
        self.free_frames += 1;
        clock.advance(if dirty {
            costs.evict_dirty
        } else {
            costs.evict_clean
        });
        let proc = &mut procs[key.pid.index()];
        proc.stats.evictions += 1;
        proc.stats.note_nonresident();
        if hard {
            proc.stats.hard_evictions += 1;
        }
        // §4.1: registered processes are notified of every eviction of
        // their pages ("whenever its corresponding page table entry is
        // unmapped") — including evictions that followed a granted grace
        // period, and direct-reclaim evictions where the kernel ran ahead.
        if proc.notify {
            queue_event(
                &mut self.notified,
                key.pid,
                proc,
                VmEvent::Evicted { page: key.page },
            );
        }
        tracer.emit(
            key.pid.as_u32(),
            clock.now(),
            EventKind::Evicted {
                page: key.page.number(),
                hard,
            },
        );
    }

    /// Clears stale pending flags when pressure abates, returning pages to
    /// normal inactive-list standing.
    fn cancel_pending(&mut self, procs: &mut [Process]) {
        while let Some((key, _)) = self.pending.pop_front() {
            let still_pending = {
                let info = procs[key.pid.index()].page(key.page);
                let was = info.pending_eviction;
                info.pending_eviction = false;
                was && info.list == ListTag::Inactive
            };
            if still_pending {
                // Its original queue entry may have been dropped; re-add.
                self.inactive.push_back(key);
            }
        }
    }
}

fn page_flag(procs: &[Process], key: PageKey, test: impl Fn(&PageInfo) -> bool) -> bool {
    procs[key.pid.index()].page_ref(key.page).is_some_and(test)
}

/// The simulated virtual memory manager.
///
/// See the [crate docs](crate) for the model. All state mutation goes through
/// a small set of entry points — [`touch`](Vmm::touch), [`pump`](Vmm::pump),
/// and the cooperation system calls — each of which charges simulated time to
/// the caller's [`Clock`].
#[derive(Debug)]
pub struct Vmm {
    config: VmmConfig,
    costs: CostModel,
    processes: Vec<Process>,
    shards: Vec<Shard>,
    /// Structured-event sink shared with the collectors (disabled by
    /// default: emitting is then a single branch).
    tracer: Tracer,
}

impl Vmm {
    /// Creates a manager with `config.frames` physical frames, all free,
    /// partitioned into `config.shards` shards.
    pub fn new(config: VmmConfig, costs: CostModel) -> Vmm {
        let count = config.shards.max(1);
        let shards = (0..count).map(|i| Shard::new(&config, i, count)).collect();
        Vmm {
            config,
            costs,
            processes: Vec::new(),
            shards,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the telemetry tracer; VMM-side events (faults, evictions,
    /// discards, relinquishments, protection traps) are stamped with the
    /// owning process's id and the acting clock's simulated time.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The shard a process's pages live on (round-robin by id).
    fn shard_of(&self, pid: ProcessId) -> usize {
        pid.index() % self.shards.len()
    }

    /// Registers a new process and returns its id, or
    /// [`ProcessTableFull`] once [`MAX_PROCESSES`] ids are in use.
    pub fn try_register_process(&mut self) -> Result<ProcessId, ProcessTableFull> {
        if self.processes.len() >= MAX_PROCESSES {
            return Err(ProcessTableFull);
        }
        self.processes.push(Process::default());
        Ok(ProcessId::new((self.processes.len() - 1) as u32))
    }

    /// Registers a new process and returns its id.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the process table is full
    /// ([`MAX_PROCESSES`] processes); use
    /// [`try_register_process`](Vmm::try_register_process) to handle that
    /// case gracefully.
    pub fn register_process(&mut self) -> ProcessId {
        match self.try_register_process() {
            Ok(pid) => pid,
            Err(e) => panic!("register_process: {e}"),
        }
    }

    /// Opts `pid` into paging-event notifications (eviction notices,
    /// residency notices, protection faults). The bookmarking collector
    /// registers; the oblivious baseline collectors do not.
    pub fn register_notifications(&mut self, pid: ProcessId) {
        self.processes[pid.index()].notify = true;
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The configuration in force.
    pub fn config(&self) -> &VmmConfig {
        &self.config
    }

    /// Currently free physical frames, across all shards.
    pub fn free_frames(&self) -> usize {
        self.shards.iter().map(|s| s.free_frames).sum()
    }

    /// Whether background reclaim would run at the next [`pump`](Vmm::pump)
    /// (on any shard).
    pub fn under_pressure(&self) -> bool {
        self.shards.iter().any(|s| s.free_frames < s.low_watermark)
    }

    /// Paging statistics for `pid`.
    pub fn stats(&self, pid: ProcessId) -> &VmStats {
        &self.processes[pid.index()].stats
    }

    /// Residency state of a page.
    pub fn page_state(&self, pid: ProcessId, page: VirtPage) -> PageState {
        self.processes[pid.index()]
            .page_ref(page)
            .map_or(PageState::Unmapped, |p| p.state)
    }

    /// Whether a page is backed by a physical frame (the `mincore` analogue).
    pub fn is_resident(&self, pid: ProcessId, page: VirtPage) -> bool {
        self.page_state(pid, page) == PageState::Resident
    }

    /// Appends `pid`'s queued notifications to `out` (which is *not*
    /// cleared) and returns how many were drained. The per-delivery cost is
    /// O(events): no allocation, and a process with an empty mailbox costs
    /// one index.
    pub fn drain_events_into(&mut self, pid: ProcessId, out: &mut Vec<VmEvent>) -> usize {
        let proc = &mut self.processes[pid.index()];
        proc.queued_notify = false;
        let n = proc.events.len();
        out.extend(proc.events.drain(..));
        n
    }

    /// Drops all queued notifications for `pid` without reading them.
    /// Collectors use this after a deliberate reload touch whose
    /// `MadeResident` notice carries no information they need.
    pub fn discard_events(&mut self, pid: ProcessId) {
        let proc = &mut self.processes[pid.index()];
        proc.queued_notify = false;
        proc.events.clear();
    }

    /// Pops the id of the next process with undelivered events, or `None`
    /// if every mailbox is empty. Processes appear at most once and in the
    /// order their first event was queued (per shard; shards are visited
    /// in index order), so a delivery loop
    /// `while let Some(pid) = vmm.next_notified() { ... }` is O(events)
    /// regardless of how many idle tenants are registered.
    pub fn next_notified(&mut self) -> Option<ProcessId> {
        for shard in &mut self.shards {
            while let Some(pid) = shard.notified.pop_front() {
                // Lazy deletion: a direct `drain_events_into` call may
                // already have emptied this mailbox.
                if self.processes[pid.index()].queued_notify {
                    return Some(pid);
                }
            }
        }
        None
    }

    /// Whether `pid` has notifications waiting.
    pub fn has_events(&self, pid: ProcessId) -> bool {
        !self.processes[pid.index()].events.is_empty()
    }

    /// Upper bound on the processes [`next_notified`](Vmm::next_notified)
    /// would visit right now (lazily-deleted entries inflate the count but
    /// pop in O(1)). Delivery loops use this as a batch budget so that
    /// events queued *while* delivering — e.g. evictions forced by a
    /// collector's own response — wait for the next batch instead of
    /// extending the current one forever.
    pub fn notified_backlog(&self) -> usize {
        self.shards.iter().map(|s| s.notified.len()).sum()
    }

    /// Touches one page, simulating the MMU and fault paths.
    ///
    /// * Unmapped page: demand-zero fill (minor fault; the caller must zero
    ///   its backing store — see [`TouchOutcome::zero_filled`]).
    /// * Evicted page: major fault, ~5 ms by default; queues
    ///   [`VmEvent::MadeResident`] for notifying owners.
    /// * Protected page: queues [`VmEvent::ProtectionFault`], removes the
    ///   protection, and proceeds.
    /// * Pending-eviction page: the touch rescues it ("BC touches the page
    ///   that has been scheduled in order to prevent its eviction", §3.4).
    ///
    /// The touch sets the referenced bit and, for writes, the dirty bit, and
    /// promotes inactive pages to the active list.
    /// The overwhelmingly common case — the page is resident, unprotected,
    /// and already on the active list — is a single non-materialising
    /// page-info lookup, one clock advance, and an early return, inlined
    /// into the caller; every other case takes the outlined
    /// [`touch_slow`](Vmm::touch_slow) path.
    #[inline]
    #[zero_alloc::zero_alloc]
    pub fn touch(
        &mut self,
        pid: ProcessId,
        page: VirtPage,
        access: Access,
        clock: &mut Clock,
    ) -> TouchOutcome {
        let ram_word = self.costs.ram_word;
        let proc = &mut self.processes[pid.index()];
        proc.stats.touches += 1;
        if let Some(info) = proc.pages.get_mut(page.number()) {
            // Consecutive touches to the same page: the cache certifies the
            // fast-path invariant, so skip the state checks. The cached
            // page always has `pending_eviction`/`relinquished` clear (both
            // setters move the page to the inactive list and drop the cache).
            let cached = proc.last_touched == page.number();
            debug_assert!(
                !cached || info.fast_touchable(),
                "stale touch cache for {page}"
            );
            if cached || info.fast_touchable() {
                info.referenced = true;
                if access == Access::Write {
                    info.dirty = true;
                }
                if !cached {
                    // A touch rescues a page from any scheduled eviction.
                    info.pending_eviction = false;
                    info.relinquished = false;
                    proc.last_touched = page.number();
                }
                clock.advance(ram_word);
                return TouchOutcome {
                    events_queued: !proc.events.is_empty(),
                    ..TouchOutcome::default()
                };
            }
        }
        self.touch_slow(pid, page, access, clock)
    }

    /// The uncommon touch cases: faults (demand-zero, major), protection
    /// traps, and list promotion. Outlined so the `#[inline]` fast path
    /// above carries one call instruction for all of them.
    #[cold]
    #[inline(never)]
    fn touch_slow(
        &mut self,
        pid: ProcessId,
        page: VirtPage,
        access: Access,
        clock: &mut Clock,
    ) -> TouchOutcome {
        let home = self.shard_of(pid);
        let mut outcome = TouchOutcome::default();
        let state = self.processes[pid.index()].page(page).state;
        match state {
            PageState::Resident => {}
            PageState::Unmapped => {
                self.acquire_frame(home, clock);
                let proc = &mut self.processes[pid.index()];
                proc.page(page).state = PageState::Resident;
                proc.stats.minor_faults += 1;
                proc.stats.note_resident();
                clock.advance(self.costs.minor_fault);
                outcome.zero_filled = true;
                self.tracer.emit(
                    pid.as_u32(),
                    clock.now(),
                    EventKind::Fault {
                        page: page.number(),
                        major: false,
                    },
                );
            }
            PageState::Evicted => {
                self.acquire_frame(home, clock);
                let (shard, proc) = (&mut self.shards[home], &mut self.processes[pid.index()]);
                let info = proc.page(page);
                info.state = PageState::Resident;
                info.dirty = false;
                proc.stats.major_faults += 1;
                proc.stats.note_resident();
                clock.advance(self.costs.major_fault);
                outcome.major_fault = true;
                if proc.notify {
                    queue_event(
                        &mut shard.notified,
                        pid,
                        proc,
                        VmEvent::MadeResident { page },
                    );
                }
                self.tracer.emit(
                    pid.as_u32(),
                    clock.now(),
                    EventKind::Fault {
                        page: page.number(),
                        major: true,
                    },
                );
                self.tracer.emit(
                    pid.as_u32(),
                    clock.now(),
                    EventKind::MadeResident {
                        page: page.number(),
                    },
                );
            }
        }
        {
            let (shard, proc) = (&mut self.shards[home], &mut self.processes[pid.index()]);
            if proc.page(page).protected {
                proc.page(page).protected = false;
                proc.stats.minor_faults += 1;
                clock.advance(self.costs.minor_fault);
                outcome.protection_fault = true;
                if proc.notify {
                    queue_event(
                        &mut shard.notified,
                        pid,
                        proc,
                        VmEvent::ProtectionFault { page },
                    );
                }
                self.tracer.emit(
                    pid.as_u32(),
                    clock.now(),
                    EventKind::ProtectionTrap {
                        page: page.number(),
                    },
                );
            }
        }
        let key = PageKey { pid, page };
        let ram_word = self.costs.ram_word;
        let (shard, proc) = (&mut self.shards[home], &mut self.processes[pid.index()]);
        let info = proc.page(page);
        info.referenced = true;
        if access == Access::Write {
            info.dirty = true;
        }
        // A touch rescues a page from any scheduled eviction.
        info.pending_eviction = false;
        info.relinquished = false;
        let locked = info.locked;
        // The page ends up resident and unprotected; if it also ends up on
        // the active list the fast-path invariant holds and the touch cache
        // may certify it. (Locked pages live on no list and stay uncached.)
        let on_active_list = match info.list {
            ListTag::Active => true,
            ListTag::Inactive => {
                info.list = ListTag::Active;
                shard.inactive_count -= 1;
                shard.active_count += 1;
                shard.active.push_back(key);
                true
            }
            ListTag::None => {
                if !locked {
                    info.list = ListTag::Active;
                    shard.active_count += 1;
                    shard.active.push_back(key);
                    true
                } else {
                    false
                }
            }
        };
        proc.last_touched = if on_active_list {
            page.number()
        } else {
            NO_TOUCH_CACHE
        };
        clock.advance(ram_word);
        outcome.events_queued = !proc.events.is_empty();
        outcome
    }

    /// Takes one frame on behalf of shard `home`, stealing from sibling
    /// shards under global pressure: the home shard's free pool and direct
    /// reclaim first, then the richest sibling's free pool, then direct
    /// reclaim on each sibling in index order (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if no shard can supply a frame (every resident page locked).
    fn acquire_frame(&mut self, home: usize, clock: &mut Clock) {
        if self.shards[home].try_acquire(&mut self.processes, &self.costs, &self.tracer, clock) {
            return;
        }
        if self.shards.len() > 1 {
            // Steal the richest sibling's free frame (ties: lowest index).
            let mut best: Option<(usize, usize)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                if i != home
                    && shard.free_frames > 0
                    && best.is_none_or(|(free, _)| shard.free_frames > free)
                {
                    best = Some((shard.free_frames, i));
                }
            }
            if let Some((_, i)) = best {
                self.shards[i].free_frames -= 1;
                return;
            }
            // No free frame anywhere: direct-reclaim the siblings.
            for i in 0..self.shards.len() {
                if i == home {
                    continue;
                }
                if self.shards[i].try_acquire(&mut self.processes, &self.costs, &self.tracer, clock)
                {
                    return;
                }
            }
        }
        panic!("out of physical memory: no evictable pages remain");
    }

    /// `madvise(MADV_DONTNEED)`: discards pages without write-back.
    ///
    /// Resident frames are freed immediately; evicted copies are dropped.
    /// The contents do not survive — the page is [`PageState::Unmapped`]
    /// and its next touch is a demand-zero fill. This is how collectors
    /// return empty heap pages to the system (§3.3.2). Locked pages are
    /// skipped. The VMM holds no page contents: the heap calls this through
    /// `heap::MemCtx::madvise_dontneed`, which then drops the discarded
    /// pages from its simulated memory too.
    pub fn madvise_dontneed(&mut self, pid: ProcessId, pages: &[VirtPage], clock: &mut Clock) {
        clock.advance(self.costs.syscall);
        let home = self.shard_of(pid);
        for &page in pages {
            let (was_resident, was_locked, list) = {
                let info = self.processes[pid.index()].page(page);
                (info.is_resident(), info.locked, info.list)
            };
            if was_locked {
                continue;
            }
            let shard = &mut self.shards[home];
            match list {
                ListTag::Active => shard.active_count -= 1,
                ListTag::Inactive => shard.inactive_count -= 1,
                ListTag::None => {}
            }
            let proc = &mut self.processes[pid.index()];
            proc.forget_touch_cache(page);
            *proc.page(page) = PageInfo::default();
            proc.stats.discards += 1;
            if was_resident {
                proc.stats.note_nonresident();
                shard.free_frames += 1;
            }
            self.tracer.emit(
                pid.as_u32(),
                clock.now(),
                EventKind::Discard {
                    page: page.number(),
                },
            );
        }
    }

    /// `mlock`: makes a page resident and pins it (never evicted).
    ///
    /// Used by the `signalmem` pressure driver (§5.1: it maps a large array,
    /// touches the pages, "and then pins them in memory with mlock").
    pub fn mlock(&mut self, pid: ProcessId, page: VirtPage, clock: &mut Clock) {
        clock.advance(self.costs.syscall);
        self.touch(pid, page, Access::Write, clock);
        let home = self.shard_of(pid);
        self.processes[pid.index()].forget_touch_cache(page);
        let info = self.processes[pid.index()].page(page);
        if !info.locked {
            info.locked = true;
            // Locked pages live on neither LRU list.
            let list = info.list;
            info.list = ListTag::None;
            let shard = &mut self.shards[home];
            match list {
                ListTag::Active => shard.active_count -= 1,
                ListTag::Inactive => shard.inactive_count -= 1,
                ListTag::None => {}
            }
            self.processes[pid.index()].stats.locked += 1;
        }
    }

    /// `munlock`: unpins a page, returning it to the active list.
    pub fn munlock(&mut self, pid: ProcessId, page: VirtPage, clock: &mut Clock) {
        clock.advance(self.costs.syscall);
        let home = self.shard_of(pid);
        self.processes[pid.index()].forget_touch_cache(page);
        let info = self.processes[pid.index()].page(page);
        if info.locked {
            info.locked = false;
            let resident = info.is_resident();
            if resident {
                info.list = ListTag::Active;
                let shard = &mut self.shards[home];
                shard.active_count += 1;
                shard.active.push_back(PageKey { pid, page });
            }
            self.processes[pid.index()].stats.locked -= 1;
        }
    }

    /// `mprotect(PROT_NONE)` / restore: when `protect` is true, the next
    /// touch of each page raises a [`VmEvent::ProtectionFault`].
    ///
    /// BC protects pages after bookmark-scanning them so that a touch before
    /// the eviction completes cannot go unnoticed (§3.4).
    pub fn mprotect(
        &mut self,
        pid: ProcessId,
        pages: &[VirtPage],
        protect: bool,
        clock: &mut Clock,
    ) {
        clock.advance(self.costs.syscall);
        let proc = &mut self.processes[pid.index()];
        for &page in pages {
            proc.forget_touch_cache(page);
            proc.page(page).protected = protect;
        }
    }

    /// The paper's new system call: voluntarily surrenders pages.
    ///
    /// "This call allows user processes to voluntarily surrender a list of
    /// pages. The virtual memory manager places these relinquished pages at
    /// the end of the inactive queue from which they are quickly swapped
    /// out" (§3.4). Relinquished pages are evicted at the next reclaim pass
    /// (or immediately under direct reclaim) without a further notice.
    pub fn vm_relinquish(&mut self, pid: ProcessId, pages: &[VirtPage], clock: &mut Clock) {
        clock.advance(self.costs.syscall);
        let home = self.shard_of(pid);
        for &page in pages {
            let skip = {
                let info = self.processes[pid.index()].page(page);
                !info.is_resident() || info.locked
            };
            if skip {
                continue;
            }
            let list = {
                let proc = &mut self.processes[pid.index()];
                proc.forget_touch_cache(page);
                let info = proc.page(page);
                let list = info.list;
                info.relinquished = true;
                info.pending_eviction = false;
                info.referenced = false;
                info.list = ListTag::Inactive;
                list
            };
            let shard = &mut self.shards[home];
            match list {
                ListTag::Active => shard.active_count -= 1,
                ListTag::Inactive => shard.inactive_count -= 1,
                ListTag::None => {}
            }
            shard.inactive_count += 1;
            shard.relinquish_queue.push_back(PageKey { pid, page });
            self.processes[pid.index()].stats.relinquished += 1;
            self.tracer.emit(
                pid.as_u32(),
                clock.now(),
                EventKind::Relinquish {
                    page: page.number(),
                },
            );
        }
    }

    /// One background-reclaim pass (the `kswapd` analogue) over every
    /// shard, in index order.
    ///
    /// The driving engine calls this between mutator steps. For each shard
    /// whose free frames are below its low watermark the pass:
    ///
    /// 1. evicts relinquished pages,
    /// 2. evicts pages whose eviction notice was delivered at an *earlier*
    ///    pump (they had a grace period to be rescued or surrendered),
    /// 3. refills the inactive list from the active list via the clock
    ///    algorithm, and
    /// 4. walks the inactive FIFO: pages of non-notifying processes are
    ///    evicted on the spot; pages of notifying processes get an
    ///    [`VmEvent::EvictionScheduled`] notice and one pump of grace,
    ///
    /// stopping once free-plus-scheduled frames reach the shard's high
    /// watermark. If pressure has abated, leftover scheduled evictions are
    /// cancelled — the discarded pages substituted for the scheduled
    /// victims (§3.3.2).
    pub fn pump(&mut self, clock: &mut Clock) {
        for i in 0..self.shards.len() {
            self.shards[i].pump(&mut self.processes, &self.costs, &self.tracer, clock);
        }
    }

    /// Total resident pages across all processes (for invariant checks).
    pub fn total_resident(&self) -> usize {
        self.processes
            .iter()
            .map(|p| p.stats.resident as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Nanos;

    fn small_vmm(frames: usize) -> (Vmm, Clock) {
        let config = VmmConfig::builder()
            .frames(frames)
            .low_watermark(4)
            .high_watermark(8)
            .batch(4)
            .build();
        (Vmm::new(config, CostModel::default()), Clock::new())
    }

    /// Drains a process's mailbox into a fresh vector (test convenience).
    fn take(vmm: &mut Vmm, pid: ProcessId) -> Vec<VmEvent> {
        let mut out = Vec::new();
        vmm.drain_events_into(pid, &mut out);
        out
    }

    #[test]
    fn first_touch_is_demand_zero() {
        let (mut vmm, mut clock) = small_vmm(32);
        let pid = vmm.register_process();
        let o = vmm.touch(pid, VirtPage::new(3), Access::Read, &mut clock);
        assert!(o.zero_filled && !o.major_fault);
        assert!(vmm.is_resident(pid, VirtPage::new(3)));
        assert_eq!(vmm.stats(pid).minor_faults, 1);
        assert_eq!(vmm.free_frames(), 31);
        // Second touch: no fault.
        let before = clock.now();
        let o = vmm.touch(pid, VirtPage::new(3), Access::Read, &mut clock);
        assert!(!o.zero_filled && !o.major_fault);
        assert_eq!(clock.now() - before, CostModel::default().ram_word);
    }

    #[test]
    fn frame_exhaustion_triggers_direct_reclaim_and_major_fault_on_return() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        for p in 0..20 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        // 20 pages touched with 16 frames: at least 4 evictions.
        assert!(vmm.stats(pid).evictions >= 4);
        // Find an evicted page and fault it back.
        let evicted = (0..20)
            .map(VirtPage::new)
            .find(|&p| vmm.page_state(pid, p) == PageState::Evicted)
            .expect("an evicted page");
        let before = vmm.stats(pid).major_faults;
        let o = vmm.touch(pid, evicted, Access::Read, &mut clock);
        assert!(o.major_fault);
        assert_eq!(vmm.stats(pid).major_faults, before + 1);
    }

    #[test]
    fn clock_algorithm_gives_second_chance_to_referenced_pages() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        for p in 0..16 {
            vmm.touch(pid, VirtPage::new(p), Access::Read, &mut clock);
        }
        // Keep page 0 hot while allocating new pages.
        for p in 16..32 {
            vmm.touch(pid, VirtPage::new(0), Access::Read, &mut clock);
            vmm.touch(pid, VirtPage::new(p), Access::Read, &mut clock);
        }
        assert!(
            vmm.is_resident(pid, VirtPage::new(0)),
            "hot page was evicted despite its referenced bit"
        );
    }

    #[test]
    fn mlocked_pages_are_never_evicted() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pin = vmm.register_process();
        let app = vmm.register_process();
        for p in 0..8 {
            vmm.mlock(pin, VirtPage::new(p), &mut clock);
        }
        for p in 0..32 {
            vmm.touch(app, VirtPage::new(p), Access::Write, &mut clock);
        }
        for p in 0..8 {
            assert!(
                vmm.is_resident(pin, VirtPage::new(p)),
                "locked page evicted"
            );
        }
        assert_eq!(vmm.stats(pin).evictions, 0);
        assert!(vmm.stats(app).evictions >= 24);
    }

    #[test]
    fn notifying_process_receives_notice_with_grace() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        // free = 2 < low watermark 4: pump schedules evictions with notices.
        vmm.pump(&mut clock);
        let events = take(&mut vmm, pid);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, VmEvent::EvictionScheduled { .. })),
            "expected eviction notices, got {events:?}"
        );
        assert!(vmm.stats(pid).notices > 0);
        // Nothing evicted yet (grace period).
        assert_eq!(vmm.stats(pid).evictions, 0);
        // Next pump follows through.
        vmm.pump(&mut clock);
        assert!(vmm.stats(pid).evictions > 0, "grace period never ended");
    }

    #[test]
    fn touch_rescues_page_from_scheduled_eviction() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.pump(&mut clock);
        let noticed: Vec<VirtPage> = take(&mut vmm, pid).into_iter().map(|e| e.page()).collect();
        assert!(!noticed.is_empty());
        for &p in &noticed {
            vmm.touch(pid, p, Access::Read, &mut clock);
        }
        vmm.pump(&mut clock);
        for &p in &noticed {
            assert!(
                vmm.is_resident(pid, p),
                "rescued page {p} was evicted anyway"
            );
        }
    }

    #[test]
    fn relinquished_pages_evict_first_without_notice() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.vm_relinquish(pid, &[VirtPage::new(2), VirtPage::new(5)], &mut clock);
        assert_eq!(vmm.stats(pid).relinquished, 2);
        vmm.pump(&mut clock);
        assert_eq!(vmm.page_state(pid, VirtPage::new(2)), PageState::Evicted);
        assert_eq!(vmm.page_state(pid, VirtPage::new(5)), PageState::Evicted);
        let events = take(&mut vmm, pid);
        assert!(!events
            .iter()
            .any(|e| matches!(e, VmEvent::EvictionScheduled { page } if *page == VirtPage::new(2) || *page == VirtPage::new(5))));
    }

    #[test]
    fn madvise_dontneed_frees_frames_and_zero_fills_on_return() {
        let (mut vmm, mut clock) = small_vmm(32);
        let pid = vmm.register_process();
        vmm.touch(pid, VirtPage::new(1), Access::Write, &mut clock);
        let free_before = vmm.free_frames();
        vmm.madvise_dontneed(pid, &[VirtPage::new(1)], &mut clock);
        assert_eq!(vmm.free_frames(), free_before + 1);
        assert_eq!(vmm.page_state(pid, VirtPage::new(1)), PageState::Unmapped);
        let o = vmm.touch(pid, VirtPage::new(1), Access::Read, &mut clock);
        assert!(o.zero_filled, "discarded page must zero-fill on next touch");
        assert!(!o.major_fault, "discard must not write to swap");
    }

    #[test]
    fn mprotect_raises_fault_event_once() {
        let (mut vmm, mut clock) = small_vmm(32);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        vmm.touch(pid, VirtPage::new(4), Access::Write, &mut clock);
        vmm.mprotect(pid, &[VirtPage::new(4)], true, &mut clock);
        let o = vmm.touch(pid, VirtPage::new(4), Access::Read, &mut clock);
        assert!(o.protection_fault);
        assert!(matches!(
            take(&mut vmm, pid).as_slice(),
            [VmEvent::ProtectionFault { page }] if *page == VirtPage::new(4)
        ));
        let o = vmm.touch(pid, VirtPage::new(4), Access::Read, &mut clock);
        assert!(!o.protection_fault);
    }

    #[test]
    fn reload_of_evicted_page_notifies_owner() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.vm_relinquish(pid, &[VirtPage::new(0)], &mut clock);
        vmm.pump(&mut clock);
        assert_eq!(vmm.page_state(pid, VirtPage::new(0)), PageState::Evicted);
        take(&mut vmm, pid);
        vmm.touch(pid, VirtPage::new(0), Access::Read, &mut clock);
        let events = take(&mut vmm, pid);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, VmEvent::MadeResident { page } if *page == VirtPage::new(0))),
            "expected MadeResident, got {events:?}"
        );
    }

    #[test]
    fn major_fault_charges_milliseconds() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        for p in 0..20 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        let evicted = (0..20)
            .map(VirtPage::new)
            .find(|&p| vmm.page_state(pid, p) == PageState::Evicted)
            .unwrap();
        let before = clock.now();
        vmm.touch(pid, evicted, Access::Read, &mut clock);
        assert!(clock.now() - before >= Nanos::from_millis(5));
    }

    #[test]
    fn pressure_relief_cancels_scheduled_evictions() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.pump(&mut clock);
        let noticed: Vec<VirtPage> = take(&mut vmm, pid)
            .iter()
            .map(super::super::events::VmEvent::page)
            .collect();
        assert!(!noticed.is_empty());
        let discard: Vec<VirtPage> = (0..14)
            .map(VirtPage::new)
            .filter(|p| !noticed.contains(p))
            .take(8)
            .collect();
        vmm.madvise_dontneed(pid, &discard, &mut clock);
        vmm.pump(&mut clock);
        vmm.pump(&mut clock);
        for &p in &noticed {
            assert!(
                vmm.is_resident(pid, p),
                "page {p} evicted even though pressure was relieved"
            );
        }
    }

    #[test]
    fn non_notifying_process_gets_no_events() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        for p in 0..20 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.pump(&mut clock);
        vmm.pump(&mut clock);
        assert!(take(&mut vmm, pid).is_empty());
        assert_eq!(vmm.stats(pid).notices, 0);
        assert!(vmm.stats(pid).evictions > 0);
    }

    #[test]
    fn repeat_touch_fast_path_charges_one_ram_word_and_no_list_churn() {
        let (mut vmm, mut clock) = small_vmm(32);
        let pid = vmm.register_process();
        vmm.touch(pid, VirtPage::new(7), Access::Write, &mut clock);
        // The page is now resident, unprotected, and on the active list.
        let raw_len = vmm.shards[0].active.raw_len();
        let active = vmm.shards[0].active_count;
        let inactive = vmm.shards[0].inactive_count;
        let before = clock.now();
        let o = vmm.touch(pid, VirtPage::new(7), Access::Read, &mut clock);
        assert_eq!(clock.now() - before, CostModel::default().ram_word);
        assert!(!o.zero_filled && !o.major_fault && !o.protection_fault);
        assert_eq!(
            vmm.shards[0].active.raw_len(),
            raw_len,
            "fast path re-queued the page"
        );
        assert_eq!(vmm.shards[0].active_count, active);
        assert_eq!(vmm.shards[0].inactive_count, inactive);
        // And again via the last-touched cache: same cost, same lists.
        let before = clock.now();
        vmm.touch(pid, VirtPage::new(7), Access::Read, &mut clock);
        assert_eq!(clock.now() - before, CostModel::default().ram_word);
        assert_eq!(vmm.shards[0].active.raw_len(), raw_len);
    }

    #[test]
    fn touch_counter_counts_every_access() {
        let (mut vmm, mut clock) = small_vmm(32);
        let pid = vmm.register_process();
        for _ in 0..5 {
            vmm.touch(pid, VirtPage::new(0), Access::Read, &mut clock);
        }
        vmm.touch(pid, VirtPage::new(1), Access::Write, &mut clock);
        assert_eq!(vmm.stats(pid).touches, 6);
    }

    #[test]
    fn mprotect_invalidates_touch_cache() {
        let (mut vmm, mut clock) = small_vmm(32);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        // Prime the last-touched cache on page 4, then protect it.
        vmm.touch(pid, VirtPage::new(4), Access::Write, &mut clock);
        vmm.touch(pid, VirtPage::new(4), Access::Read, &mut clock);
        vmm.mprotect(pid, &[VirtPage::new(4)], true, &mut clock);
        let o = vmm.touch(pid, VirtPage::new(4), Access::Read, &mut clock);
        assert!(
            o.protection_fault,
            "cached fast path skipped the protection check"
        );
    }

    #[test]
    fn relinquish_invalidates_touch_cache() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        // Prime the cache on page 3, relinquish it, then touch it again:
        // the slow path must run so the rescue clears `relinquished`.
        vmm.touch(pid, VirtPage::new(3), Access::Read, &mut clock);
        vmm.touch(pid, VirtPage::new(3), Access::Read, &mut clock);
        vmm.vm_relinquish(pid, &[VirtPage::new(3)], &mut clock);
        vmm.touch(pid, VirtPage::new(3), Access::Read, &mut clock);
        vmm.pump(&mut clock);
        assert!(
            vmm.is_resident(pid, VirtPage::new(3)),
            "relinquished page evicted despite the rescuing touch"
        );
        assert_eq!(vmm.stats(pid).evictions, 0);
    }

    #[test]
    fn eviction_invalidates_touch_cache() {
        let (mut vmm, mut clock) = small_vmm(16);
        let pid = vmm.register_process();
        // Prime the cache on the page most likely to be evicted (page 0,
        // coldest), then overflow memory so it gets swapped out.
        vmm.touch(pid, VirtPage::new(0), Access::Write, &mut clock);
        vmm.touch(pid, VirtPage::new(0), Access::Read, &mut clock);
        for p in 1..32 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        let evicted = (0..32)
            .map(VirtPage::new)
            .find(|&p| vmm.page_state(pid, p) == PageState::Evicted)
            .expect("an evicted page");
        let before = vmm.stats(pid).major_faults;
        let o = vmm.touch(pid, evicted, Access::Read, &mut clock);
        assert!(o.major_fault, "evicted page must fault on touch");
        assert_eq!(vmm.stats(pid).major_faults, before + 1);
    }

    #[test]
    fn registration_survives_the_old_u8_boundary() {
        // Before the u32 widening the process table wrapped (silently
        // truncating ids) at 256 entries; registering past that boundary
        // must now hand out distinct, working ids.
        let config = VmmConfig::builder().frames(4096).build();
        let mut vmm = Vmm::new(config, CostModel::default());
        let mut clock = Clock::new();
        let pids: Vec<ProcessId> = (0..300).map(|_| vmm.register_process()).collect();
        for (i, &pid) in pids.iter().enumerate() {
            assert_eq!(pid.index(), i, "ids must be dense and distinct");
        }
        // The tenants past the boundary are fully functional.
        for &pid in &pids[250..] {
            let o = vmm.touch(pid, VirtPage::new(0), Access::Write, &mut clock);
            assert!(o.zero_filled);
            assert_eq!(vmm.stats(pid).touches, 1);
        }
        assert_eq!(
            vmm.stats(pids[299]).resident,
            1,
            "per-process stats must not alias across the old boundary"
        );
    }

    #[test]
    fn notification_queue_visits_only_processes_with_events() {
        let (mut vmm, mut clock) = small_vmm(64);
        // Many idle tenants around one busy notifying tenant.
        let pids: Vec<ProcessId> = (0..32).map(|_| vmm.register_process()).collect();
        let busy = pids[5];
        vmm.register_notifications(busy);
        for p in 0..62 {
            vmm.touch(busy, VirtPage::new(p), Access::Write, &mut clock);
        }
        // Push the busy tenant's pages out: pump under pressure until a
        // notice lands.
        for _ in 0..4 {
            vmm.pump(&mut clock);
        }
        assert!(vmm.has_events(busy), "pressure never produced a notice");
        let mut visited = Vec::new();
        let mut scratch = Vec::new();
        while let Some(pid) = vmm.next_notified() {
            visited.push(pid);
            vmm.drain_events_into(pid, &mut scratch);
        }
        assert_eq!(
            visited,
            vec![busy],
            "delivery must visit only the process with events, once"
        );
        assert!(!scratch.is_empty());
        // Draining directly leaves a stale queue entry; it must be skipped.
        for p in 62..80 {
            vmm.touch(busy, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.pump(&mut clock);
        if vmm.has_events(busy) {
            scratch.clear();
            vmm.drain_events_into(busy, &mut scratch);
            assert_eq!(vmm.next_notified(), None, "stale entry must be skipped");
        }
    }

    #[test]
    fn sharded_vmm_steals_frames_under_global_pressure() {
        // Two shards, 32 frames each. The shard-0 tenant's working set
        // (56 pages, all locked so shard 0 can never reclaim locally)
        // exceeds its partition: the overflow must be satisfied by
        // stealing shard 1's free frames rather than panicking.
        let config = VmmConfig::builder()
            .frames(64)
            .low_watermark(2)
            .high_watermark(4)
            .batch(4)
            .shards(2)
            .build();
        let mut vmm = Vmm::new(config, CostModel::default());
        let mut clock = Clock::new();
        let a = vmm.register_process(); // shard 0
        let _b = vmm.register_process(); // shard 1 (idle)
        for p in 0..56 {
            vmm.mlock(a, VirtPage::new(p), &mut clock);
        }
        assert_eq!(vmm.stats(a).resident, 56);
        assert_eq!(vmm.stats(a).evictions, 0, "locked pages must not evict");
        assert_eq!(vmm.free_frames(), 8);
    }

    #[test]
    fn sharded_vmm_reclaims_sibling_shards_when_no_free_frames_remain() {
        // Shard 0's tenant locks most of its partition; shard 1's tenant
        // fills the rest of physical memory with evictable pages. Further
        // shard-0 allocations must direct-reclaim shard 1's pages.
        let config = VmmConfig::builder()
            .frames(64)
            .low_watermark(2)
            .high_watermark(4)
            .batch(4)
            .shards(2)
            .build();
        let mut vmm = Vmm::new(config, CostModel::default());
        let mut clock = Clock::new();
        let a = vmm.register_process(); // shard 0
        let b = vmm.register_process(); // shard 1
        for p in 0..60 {
            vmm.touch(b, VirtPage::new(p), Access::Write, &mut clock);
        }
        for p in 0..16 {
            vmm.touch(a, VirtPage::new(p), Access::Write, &mut clock);
        }
        assert_eq!(vmm.stats(a).resident, 16, "shard 0 tenant must progress");
        assert!(
            vmm.stats(b).evictions > 0,
            "overflow must be served by reclaiming the sibling shard"
        );
        assert_eq!(vmm.stats(a).evictions, 0);
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;
    use crate::page::{Access, PageState, VirtPage};
    use simtime::CostModel;

    fn vmm16() -> (Vmm, Clock) {
        let config = VmmConfig::builder()
            .frames(16)
            .low_watermark(4)
            .high_watermark(8)
            .build();
        (Vmm::new(config, CostModel::default()), Clock::new())
    }

    fn take(vmm: &mut Vmm, pid: ProcessId) -> Vec<VmEvent> {
        let mut out = Vec::new();
        vmm.drain_events_into(pid, &mut out);
        out
    }

    /// The §3.4 race guard: a relinquished-and-protected page touched
    /// before its eviction raises a protection fault, is rescued, and is
    /// never evicted behind the toucher's back.
    #[test]
    fn protected_relinquished_page_touched_before_eviction_is_rescued() {
        let (mut vmm, mut clock) = vmm16();
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..10 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        // BC's sequence: protect, then relinquish.
        vmm.mprotect(pid, &[VirtPage::new(3)], true, &mut clock);
        vmm.vm_relinquish(pid, &[VirtPage::new(3)], &mut clock);
        // The mutator wins the race: it touches before any reclaim pass.
        let o = vmm.touch(pid, VirtPage::new(3), Access::Read, &mut clock);
        assert!(o.protection_fault, "the guard must fire");
        assert!(!o.major_fault, "the page never left memory");
        // Even under subsequent pressure the rescued page stays put until
        // the LRU genuinely ages it out again.
        vmm.pump(&mut clock);
        assert_eq!(vmm.page_state(pid, VirtPage::new(3)), PageState::Resident);
    }

    /// Eviction clears the protection: a reload is a plain major fault plus
    /// a MadeResident notification, not a protection fault.
    #[test]
    fn protection_does_not_survive_eviction() {
        let (mut vmm, mut clock) = vmm16();
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..10 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.mprotect(pid, &[VirtPage::new(5)], true, &mut clock);
        vmm.vm_relinquish(pid, &[VirtPage::new(5)], &mut clock);
        // Create pressure so the reclaim pass actually runs.
        for p in 10..14 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
        }
        vmm.pump(&mut clock);
        assert_eq!(vmm.page_state(pid, VirtPage::new(5)), PageState::Evicted);
        take(&mut vmm, pid);
        let o = vmm.touch(pid, VirtPage::new(5), Access::Read, &mut clock);
        assert!(o.major_fault);
        assert!(!o.protection_fault);
        let events = take(&mut vmm, pid);
        assert!(events
            .iter()
            .any(|e| matches!(e, VmEvent::MadeResident { page } if *page == VirtPage::new(5))));
    }

    /// Every eviction of a registered process's page produces an event
    /// (§4.1): nothing leaves memory silently.
    #[test]
    fn no_silent_evictions_for_registered_processes() {
        let (mut vmm, mut clock) = vmm16();
        let pid = vmm.register_process();
        vmm.register_notifications(pid);
        for p in 0..24 {
            vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
            vmm.pump(&mut clock);
        }
        for _ in 0..4 {
            vmm.pump(&mut clock);
        }
        let evictions = vmm.stats(pid).evictions;
        assert!(evictions > 0);
        let evicted_events = take(&mut vmm, pid)
            .iter()
            .filter(|e| matches!(e, VmEvent::Evicted { .. }))
            .count() as u64;
        assert_eq!(
            evicted_events, evictions,
            "every eviction must be announced"
        );
    }
}
