//! Work-packet tracing scheduler: deterministic simulated parallel marking.
//!
//! Gray objects are batched into fixed-capacity [`Packet`]s. A
//! [`PacketQueue`] holds one [`TraceScratch`] per simulated GC worker (a
//! local LIFO stack of packets plus the worker's reusable scan/sweep
//! scratch) and a shared LIFO injector seeded from the collector's
//! [`MarkQueue`](crate::tracer::MarkQueue) at the start of each drain.
//!
//! The scheduler in [`drain_gray`](crate::gc::drain_gray) executes the
//! drain *sequentially* on the process clock but attributes each scheduling
//! quantum's simulated cost to the worker that ran it, then rewinds the
//! clock so the pause reflects the **critical path** (`max` over workers)
//! rather than the sum. Everything here is deterministic: the next worker
//! is the least-busy one (ties broken by index), steal victims are probed
//! in fixed round-robin order from the thief's index, and no host clock or
//! RNG is consulted — so `--gc-threads N` output is byte-identical across
//! runs, and `N = 1` reproduces the sequential tracer exactly.
//!
//! Packets are recycled through a free pool, and every per-worker buffer is
//! reused across drains, so the packet path performs no heap allocation
//! after warm-up (proven by `crates/heap/tests/zero_alloc_trace.rs`).

use crate::addr::Address;
use simtime::Nanos;
use zero_alloc::zero_alloc;

/// Objects per work packet. Also the scheduling quantum: a worker scans at
/// most this many objects before the scheduler re-picks the least-busy
/// worker.
pub const PACKET_CAP: usize = 64;

/// A fixed-capacity batch of gray objects.
#[derive(Debug, Default)]
pub struct Packet {
    objs: Vec<Address>,
}

impl Packet {
    fn fresh() -> Packet {
        Packet {
            objs: Vec::with_capacity(PACKET_CAP),
        }
    }

    /// Entries currently in the packet.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// Whether the packet holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }
}

/// Per-worker state: the local packet stack, reusable scratch buffers, and
/// this drain's accounting.
///
/// Folding the scratch buffers in here (instead of loose fields on
/// [`Core`](crate::gc::Core)) keeps all worker-local state in one place:
/// the drain indexes a worker and has its packets, scan scratch, and
/// counters together.
#[derive(Debug, Default)]
pub struct TraceScratch {
    /// Local LIFO stack of packets; the top packet is the active one.
    local: Vec<Packet>,
    /// Reusable `(slot, target)` buffer for
    /// [`Core::scan_refs_into`](crate::gc::Core::scan_refs_into).
    pub scan: Vec<(Address, Address)>,
    /// Reusable dead-cell buffer for sweep loops (worker 0's is the one
    /// [`Core::sweep`](crate::gc::Core::sweep) borrows).
    pub sweep: Vec<Address>,
    /// Simulated time this worker spent tracing during the current drain.
    pub busy: Nanos,
    /// Packets this worker fully drained during the current drain.
    pub packets: u64,
    /// Packets this worker stole during the current drain.
    pub steals: u64,
    /// Objects this worker scanned during the current drain.
    pub objects: u64,
}

impl TraceScratch {
    fn reset_accounting(&mut self) {
        self.busy = Nanos::ZERO;
        self.packets = 0;
        self.steals = 0;
        self.objects = 0;
    }

    fn has_work(&self) -> bool {
        // Packets are recycled as soon as they drain, so any packet on the
        // stack is non-empty.
        !self.local.is_empty()
    }
}

/// How [`PacketQueue::acquire`] found work for a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquired {
    /// The worker already had a non-empty local stack.
    Local,
    /// The worker popped the newest injector packet.
    Injector,
    /// The worker stole the oldest packet of a round-robin victim. The
    /// caller charges [`CostModel::steal_packet`](simtime::CostModel::steal_packet).
    Steal,
    /// No work is reachable for this worker.
    Nothing,
}

/// The work-packet scheduler state shared by all collectors of one heap.
#[derive(Debug)]
pub struct PacketQueue {
    workers: Vec<TraceScratch>,
    /// Shared LIFO stack of packets, seeded from the root queue in order so
    /// the newest packet holds the newest queue entries.
    injector: Vec<Packet>,
    /// Drained packets, recycled to keep the path allocation-free.
    free: Vec<Packet>,
    threads: usize,
}

impl Default for PacketQueue {
    fn default() -> PacketQueue {
        PacketQueue::new(1)
    }
}

impl PacketQueue {
    /// A scheduler for `threads` simulated workers (clamped to at least 1).
    pub fn new(threads: usize) -> PacketQueue {
        PacketQueue {
            workers: Vec::new(),
            injector: Vec::new(),
            free: Vec::new(),
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The per-worker states (for end-of-drain reporting).
    pub fn workers(&self) -> &[TraceScratch] {
        &self.workers
    }

    /// Worker `w`'s state.
    pub fn worker_mut(&mut self, w: usize) -> &mut TraceScratch {
        &mut self.workers[w]
    }

    /// Worker 0's reusable sweep buffer (collectors' dead-cell scratch).
    pub fn sweep_scratch(&mut self) -> &mut Vec<Address> {
        self.ensure_workers();
        &mut self.workers[0].sweep
    }

    /// Grows the worker table to `threads` entries (warm-up only).
    fn ensure_workers(&mut self) {
        if self.workers.len() < self.threads {
            self.workers.resize_with(self.threads, Default::default);
        }
    }

    /// A recycled or fresh packet (the only allocation site, warm-up only).
    #[cold]
    fn fresh_packet(&mut self) -> Packet {
        Packet::fresh()
    }

    fn grab_packet(&mut self) -> Packet {
        match self.free.pop() {
            Some(p) => p,
            None => self.fresh_packet(),
        }
    }

    /// Starts a drain: resets per-worker accounting and partitions `roots`
    /// (the pending gray queue, oldest first) into injector packets so that
    /// popping the newest packet and scanning it top-down reproduces the
    /// sequential LIFO order.
    pub fn begin(&mut self, roots: &[Address]) {
        self.ensure_workers();
        for w in &mut self.workers {
            w.reset_accounting();
            debug_assert!(w.local.is_empty(), "drain left local packets behind");
        }
        debug_assert!(self.injector.is_empty(), "drain left injector packets");
        let mut i = 0;
        while i < roots.len() {
            let mut p = self.grab_packet();
            let end = (i + PACKET_CAP).min(roots.len());
            p.objs.extend_from_slice(&roots[i..end]);
            self.injector.push(p);
            i = end;
        }
    }

    /// Picks the next worker: the least-busy eligible one (ties go to the
    /// lowest index). A worker is eligible if it has local work or can get
    /// some (injector non-empty, or any victim has a spare packet).
    pub fn select(&self) -> Option<usize> {
        let idle_can_work =
            !self.injector.is_empty() || self.workers.iter().any(|w| w.local.len() >= 2);
        let mut best: Option<usize> = None;
        for (i, w) in self.workers.iter().enumerate() {
            let eligible = w.has_work() || idle_can_work;
            if !eligible {
                continue;
            }
            // Strict < keeps ties on the lowest index.
            let better = match best {
                None => true,
                Some(b) => w.busy < self.workers[b].busy,
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// Ensures worker `w` has a local packet to drain, pulling from the
    /// injector first and then stealing the *oldest* packet of the first
    /// round-robin victim (probed `w+1, w+2, …` modulo the worker count)
    /// that has at least two packets. Victims keep their newest packet —
    /// it is their active working set.
    #[zero_alloc]
    pub fn acquire(&mut self, w: usize) -> Acquired {
        if self.workers[w].has_work() {
            return Acquired::Local;
        }
        if let Some(p) = self.injector.pop() {
            self.workers[w].local.push(p);
            return Acquired::Injector;
        }
        let n = self.workers.len();
        for d in 1..n {
            let v = (w + d) % n;
            if self.workers[v].local.len() >= 2 {
                let p = self.workers[v].local.remove(0);
                self.workers[w].local.push(p);
                self.workers[w].steals += 1;
                return Acquired::Steal;
            }
        }
        Acquired::Nothing
    }

    /// Pops the next gray object from worker `w`'s top packet, recycling
    /// drained packets into the free pool.
    #[zero_alloc]
    pub fn pop_obj(&mut self, w: usize) -> Option<Address> {
        let wk = &mut self.workers[w];
        let top = wk.local.last_mut()?;
        let obj = top.objs.pop()?;
        wk.objects += 1;
        if top.is_empty() {
            let p = wk.local.pop().expect("top packet vanished");
            wk.packets += 1;
            self.free.push(p);
        }
        Some(obj)
    }

    /// Pushes a newly grayed object onto worker `w`'s top packet, opening a
    /// new packet when the top one is full.
    #[zero_alloc]
    pub fn push_obj(&mut self, w: usize, obj: Address) {
        let needs_packet = match self.workers[w].local.last() {
            Some(p) => p.len() >= PACKET_CAP,
            None => true,
        };
        if needs_packet {
            let p = self.grab_packet();
            self.workers[w].local.push(p);
        }
        let wk = &mut self.workers[w];
        wk.local.last_mut().expect("just pushed").objs.push(obj);
    }

    /// Whether any packet remains anywhere.
    pub fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.workers.iter().any(TraceScratch::has_work)
    }

    /// `(sum, max)` of per-worker busy time for this drain; the clock is
    /// rewound by `sum - max` so the pause equals the critical path.
    pub fn busy_totals(&self) -> (Nanos, Nanos) {
        let mut sum = Nanos::ZERO;
        let mut max = Nanos::ZERO;
        for w in &self.workers {
            sum += w.busy;
            max = max.max(w.busy);
        }
        (sum, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::MarkQueue;

    fn addrs(n: u32) -> Vec<Address> {
        (1..=n).map(|i| Address(i * 8)).collect()
    }

    #[test]
    fn single_worker_reproduces_sequential_lifo_order() {
        // Seed both a MarkQueue and a PacketQueue with the same 150 roots
        // (crossing packet boundaries), then interleave child pushes the
        // way drain_gray does; pop order must match exactly.
        let roots = addrs(150);
        let mut q = MarkQueue::new();
        for &a in &roots {
            q.push(a);
        }
        let mut pq = PacketQueue::new(1);
        pq.begin(q.as_slice());
        let mut seq = MarkQueue::new();
        for &a in &roots {
            seq.push(a);
        }
        let mut step = 0u32;
        loop {
            assert_eq!(pq.select(), if seq.is_empty() { None } else { Some(0) });
            if pq.acquire(0) == Acquired::Nothing {
                break;
            }
            let got = pq.pop_obj(0);
            let want = seq.pop();
            assert_eq!(got, want, "divergence at step {step}");
            // Every third object "discovers" two children.
            if step.is_multiple_of(3) {
                for c in [
                    Address(0x9000_0000 + step * 8),
                    Address(0xA000_0000 + step * 8),
                ] {
                    pq.push_obj(0, c);
                    seq.push(c);
                }
            }
            step += 1;
            if step > 10_000 {
                panic!("runaway");
            }
        }
        assert!(seq.is_empty());
        assert!(!pq.has_work());
    }

    #[test]
    fn steal_takes_oldest_packet_from_round_robin_victim() {
        let mut pq = PacketQueue::new(4);
        // Three packets' worth of roots -> injector holds 3 packets.
        pq.begin(&addrs(3 * PACKET_CAP as u32));
        // Worker 2 ends up holding all three injector packets.
        assert_eq!(pq.acquire(2), Acquired::Injector);
        while let Some(p) = pq.injector.pop() {
            pq.workers[2].local.push(p);
        }
        assert_eq!(pq.workers[2].local.len(), 3);
        // Worker 0 probes victims 1, 2, 3 in order; 1 has nothing, 2 has
        // three packets -> steals worker 2's oldest.
        assert_eq!(pq.acquire(0), Acquired::Steal);
        assert_eq!(pq.workers[0].steals, 1);
        assert_eq!(pq.workers[2].local.len(), 2);
        // With only packet-poor victims left (len < 2 each after more
        // steals), acquire eventually reports Nothing for a fresh worker.
        assert_eq!(pq.acquire(3), Acquired::Steal);
        assert_eq!(pq.workers[2].local.len(), 1);
        assert_eq!(pq.acquire(1), Acquired::Nothing);
    }

    #[test]
    fn packets_recycle_through_free_pool() {
        let mut pq = PacketQueue::new(1);
        pq.begin(&addrs(PACKET_CAP as u32));
        assert_eq!(pq.acquire(0), Acquired::Injector);
        while pq.pop_obj(0).is_some() {}
        assert_eq!(pq.workers[0].packets, 1);
        assert_eq!(pq.workers[0].objects, PACKET_CAP as u64);
        assert_eq!(pq.free.len(), 1);
        // The next drain reuses the freed packet: free pool drains back.
        pq.begin(&addrs(10));
        assert!(pq.free.is_empty());
        assert_eq!(pq.injector.len(), 1);
    }

    #[test]
    fn select_prefers_least_busy_then_lowest_index() {
        let mut pq = PacketQueue::new(3);
        pq.begin(&addrs(4 * PACKET_CAP as u32));
        pq.workers[0].busy = Nanos(100);
        pq.workers[1].busy = Nanos(7);
        pq.workers[2].busy = Nanos(7);
        assert_eq!(pq.select(), Some(1));
        pq.workers[1].busy = Nanos(8);
        assert_eq!(pq.select(), Some(2));
        let (sum, max) = pq.busy_totals();
        assert_eq!(sum, Nanos(115));
        assert_eq!(max, Nanos(100));
    }
}
