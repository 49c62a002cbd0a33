//! The driver: one deterministic event loop for one JVM, the paper's two
//! (§5.3.3), or a fleet of thousands, all over one shared [`Vmm`].
//!
//! As everywhere in the simulator, each process owns a virtual CPU (its own
//! [`Clock`]); the machine is shared only through the [`Vmm`]. A *turn* is
//! the unit of interleaving: the picked process steps its program, kswapd is
//! pumped, and whatever paging notifications that raised are delivered to
//! their owners before anyone else runs.

use std::collections::VecDeque;

use heap::{GcHeap, MemCtx, OutOfMemory};
use simtime::{Clock, Nanos};
use vmm::{ProcessId, Vmm};

use crate::program::{Program, ProgramStatus};
use crate::signalmem::Signalmem;

/// One simulated JVM: a collector plus the program driving it.
pub struct JvmProcess {
    /// The process id in the shared VMM.
    pub pid: ProcessId,
    /// The collector under test.
    pub gc: Box<dyn GcHeap>,
    /// The benchmark program.
    pub program: Box<dyn Program>,
    /// This process's clock.
    pub clock: Clock,
    /// Set when the program finished (successfully or not).
    pub finished: bool,
    /// Set when the heap was exhausted.
    pub failed: Option<OutOfMemory>,
    /// Completion instant, if finished successfully.
    pub finish_time: Option<Nanos>,
}

impl core::fmt::Debug for JvmProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("JvmProcess")
            .field("pid", &self.pid)
            .field("collector", &self.gc.name())
            .field("program", &self.program.name())
            .field("now", &self.clock.now())
            .field("finished", &self.finished)
            .finish()
    }
}

impl JvmProcess {
    /// Assembles a JVM process.
    pub fn new(pid: ProcessId, gc: Box<dyn GcHeap>, program: Box<dyn Program>) -> JvmProcess {
        JvmProcess {
            pid,
            gc,
            program,
            clock: Clock::new(),
            finished: false,
            failed: None,
            finish_time: None,
        }
    }
}

/// The order in which runnable processes take turns. The entry point picks
/// it — there is no user-facing option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Turns {
    /// The process with the least local time runs one program step (ties go
    /// to the lowest index): faithful interleaving at O(processes) per
    /// pick, which is what [`run`](crate::run) and
    /// [`run_multi`](crate::run_multi) want for the paper's one or two JVMs.
    LeastClock,
    /// Processes run in registration order, each until its clock has
    /// advanced by the quantum: an O(1) pick for
    /// [`run_fleet`](crate::experiments::run_fleet)'s thousands of tenants.
    /// The quantum bounds how much simulated time a tenant may advance
    /// before the reclaim pump and notification delivery run again, which
    /// keeps eviction pressure and collector responses interleaved fairly
    /// across the fleet.
    RoundRobin(Nanos),
}

/// The event loop over one shared [`Vmm`].
#[derive(Debug)]
pub struct Driver {
    /// The shared virtual memory manager.
    pub vmm: Vmm,
    /// The JVM processes, in registration order.
    pub jvms: Vec<JvmProcess>,
    /// The optional pressure driver.
    pub signalmem: Option<Signalmem>,
    /// Abort knob: a run exceeding this many turns is reported as timed out
    /// (pathological thrashing would otherwise run unboundedly).
    pub max_turns: u64,
    /// Who goes next; [`Driver::new`] starts least-clock-first.
    pub(crate) order: Turns,
    turns: u64,
    timed_out: bool,
    /// Notification deliveries per process (indexed like `jvms`).
    deliveries: Vec<u64>,
    /// Maps `ProcessId::index()` to a `jvms` index.
    pid_to_jvm: Vec<usize>,
}

impl Driver {
    /// A driver over `vmm`, least-clock-first, with no processes yet.
    pub fn new(vmm: Vmm) -> Driver {
        Driver {
            vmm,
            jvms: Vec::new(),
            signalmem: None,
            max_turns: 200_000_000,
            order: Turns::LeastClock,
            turns: 0,
            timed_out: false,
            deliveries: Vec::new(),
            pid_to_jvm: Vec::new(),
        }
    }

    /// Whether the run hit the turn limit.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Turns taken (signalmem's included).
    pub fn turns(&self) -> u64 {
        self.turns
    }

    /// Notification deliveries per process, indexed like
    /// [`jvms`](Driver::jvms). A process whose mailbox never receives an
    /// event is never visited — the O(events) guarantee the `fig7_scale`
    /// experiment depends on.
    pub fn deliveries(&self) -> &[u64] {
        &self.deliveries
    }

    /// Total notification deliveries across all processes.
    pub fn total_deliveries(&self) -> u64 {
        self.deliveries.iter().sum()
    }

    /// Takes turns until every JVM finishes (or the turn limit is hit).
    pub fn run_to_completion(&mut self) {
        self.deliveries = vec![0; self.jvms.len()];
        self.pid_to_jvm.clear();
        for (i, jvm) in self.jvms.iter().enumerate() {
            let idx = jvm.pid.index();
            if idx >= self.pid_to_jvm.len() {
                self.pid_to_jvm.resize(idx + 1, usize::MAX);
            }
            self.pid_to_jvm[idx] = i;
        }
        // Round-robin's run queue; stays empty under least-clock-first.
        let mut queue = VecDeque::new();
        if let Turns::RoundRobin(_) = self.order {
            queue.extend((0..self.jvms.len()).filter(|&i| !self.jvms[i].finished));
        }
        loop {
            let picked = match self.order {
                Turns::LeastClock => self
                    .jvms
                    .iter()
                    .enumerate()
                    .filter(|(_, j)| !j.finished)
                    .min_by_key(|(_, j)| j.clock.now())
                    .map(|(i, _)| (i, Nanos::ZERO)),
                Turns::RoundRobin(quantum) => queue.front().map(|&i| (i, quantum)),
            };
            // Every JVM done: any remaining pressure is ignored.
            let Some((i, quantum)) = picked else { break };
            if self.turns >= self.max_turns {
                self.timed_out = true;
                break;
            }
            self.turns += 1;
            // Signalmem goes first while its clock is not ahead of the
            // picked process's: it pins its next increment, the signals
            // that raises are delivered, and the pick is redone.
            let now = self.jvms[i].clock.now();
            if let Some(sm) = self.signalmem.as_mut() {
                if !sm.done() && sm.now() <= now {
                    sm.step(&mut self.vmm);
                    self.deliver();
                    continue;
                }
            }
            self.run_turn(i, quantum);
            if queue.pop_front().is_some() && !self.jvms[i].finished {
                queue.push_back(i);
            }
        }
    }

    /// Steps process `i` until its clock has advanced by `quantum` or it
    /// finishes — at least once — then lets kswapd work and delivers any
    /// notifications it (or this turn's faults) raised.
    fn run_turn(&mut self, i: usize, quantum: Nanos) {
        let jvm = &mut self.jvms[i];
        let turn_end = jvm.clock.now() + quantum;
        loop {
            let mut ctx = MemCtx::new(&mut self.vmm, &mut jvm.clock, jvm.pid);
            match jvm.program.step(jvm.gc.as_mut(), &mut ctx) {
                Ok(ProgramStatus::Running) => {}
                Ok(ProgramStatus::Finished) => {
                    jvm.finished = true;
                    jvm.finish_time = Some(jvm.clock.now());
                }
                Err(oom) => {
                    jvm.finished = true;
                    jvm.failed = Some(oom);
                }
            }
            if jvm.finished {
                // The process has exited: its heap's host pages go now, not
                // when the driver is dropped (DESIGN.md §10.6).
                jvm.gc.exit();
                break;
            }
            if jvm.clock.now() >= turn_end {
                break;
            }
        }
        self.vmm.pump(&mut jvm.clock);
        self.deliver();
    }

    /// Hands each pending mailbox to its owner immediately — the paper's
    /// real-time signals preempt the application (§4.1: "these signals
    /// cannot be lost"), so handlers run as soon as the kernel raises them,
    /// not at the owner's next turn. Cost is O(queued events): processes
    /// without events are never touched, however many are registered.
    ///
    /// Delivery is bounded to the backlog present at entry. A collector's
    /// response can itself force evictions (a deferred GC touches pages,
    /// direct reclaim victimises other tenants, fresh notices appear), and
    /// under heavy overcommit that cascade is self-sustaining — draining
    /// to quiescence would livelock the driver with no mutator ever
    /// running again. Capping at the entry backlog interleaves the storm
    /// with turns, so tenants keep finishing and the cascade dies out.
    fn deliver(&mut self) {
        let mut budget = self.vmm.notified_backlog();
        while budget > 0 {
            budget -= 1;
            let Some(pid) = self.vmm.next_notified() else {
                break;
            };
            let ji = self
                .pid_to_jvm
                .get(pid.index())
                .copied()
                .unwrap_or(usize::MAX);
            if ji == usize::MAX || self.jvms[ji].finished {
                // Not one of ours (or already exited): drop the mailbox so
                // the queue keeps moving.
                self.vmm.discard_events(pid);
                continue;
            }
            self.deliveries[ji] += 1;
            let jvm = &mut self.jvms[ji];
            let mut ctx = MemCtx::new(&mut self.vmm, &mut jvm.clock, jvm.pid);
            jvm.gc.handle_vm_events(&mut ctx);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{drive, RunConfig};
    use crate::signalmem::SignalmemConfig;
    use crate::CollectorKind;
    use heap::{AllocKind, Handle};

    /// The crate's one test program: allocates `total` list nodes in
    /// batches of 100, keeping the last `live` alive. With `total == 0` it
    /// finishes on its first step without allocating a byte.
    pub(crate) struct Churn {
        total: usize,
        live: usize,
        done: usize,
        held: VecDeque<Handle>,
    }

    impl Churn {
        pub(crate) fn new(total: usize, live: usize) -> Churn {
            Churn {
                total,
                live,
                done: 0,
                held: VecDeque::new(),
            }
        }
    }

    impl Program for Churn {
        fn step(
            &mut self,
            gc: &mut dyn GcHeap,
            ctx: &mut MemCtx<'_>,
        ) -> Result<ProgramStatus, OutOfMemory> {
            for _ in 0..100 {
                if self.done >= self.total {
                    return Ok(ProgramStatus::Finished);
                }
                let h = gc.alloc(
                    ctx,
                    AllocKind::Scalar {
                        data_words: 6,
                        num_refs: 1,
                    },
                )?;
                self.held.push_back(h);
                if self.held.len() > self.live {
                    gc.drop_handle(self.held.pop_front().unwrap());
                }
                self.done += 1;
            }
            Ok(ProgramStatus::Running)
        }

        fn name(&self) -> &str {
            "churn"
        }

        fn progress(&self) -> f64 {
            self.done as f64 / self.total.max(1) as f64
        }
    }

    const ORDERS: [Turns; 2] = [
        Turns::LeastClock,
        Turns::RoundRobin(Nanos::from_micros(100)),
    ];

    /// `n` BC heaps of `config.heap_bytes`, process `i` running `make(i)`,
    /// driven to completion.
    fn driven(config: &RunConfig, order: Turns, n: usize, make: impl Fn(usize) -> Churn) -> Driver {
        drive(
            config,
            1,
            order,
            (0..n).map(|i| Box::new(make(i)) as Box<dyn Program>),
        )
    }

    #[test]
    fn every_process_completes_and_identical_programs_finish_together() {
        let config = RunConfig::new(CollectorKind::Bc, 1 << 20, 64 << 20);
        for order in ORDERS {
            for n in [1, 2, 32] {
                let d = driven(&config, order, n, |_| Churn::new(2_000, 100));
                assert!(!d.timed_out(), "{order:?} x{n}");
                assert!(d.jvms.iter().all(|j| j.finished && j.failed.is_none()));
                // Identical workloads on a calm machine finish at identical
                // times, whatever the order of turns.
                let first = d.jvms[0].finish_time;
                assert!(first.is_some());
                assert!(d.jvms.iter().all(|j| j.finish_time == first));
                // Least-clock-first takes one program step per turn.
                let least = match order {
                    Turns::LeastClock => 2_000 / 100,
                    Turns::RoundRobin(_) => 1,
                };
                assert!(d.turns() >= n as u64 * least, "{order:?} x{n}");
            }
        }
    }

    #[test]
    fn turn_limit_reports_timeout_after_exactly_max_turns() {
        let mut config = RunConfig::new(CollectorKind::Bc, 1 << 20, 64 << 20);
        config.max_steps = 8;
        for order in ORDERS {
            let d = driven(&config, order, 4, |_| Churn::new(1_000_000, 100));
            assert!(d.timed_out(), "{order:?}");
            assert_eq!(d.turns(), 8, "{order:?}");
            assert!(d.jvms.iter().all(|j| !j.finished));
        }
    }

    #[test]
    fn signalmem_pins_pages_between_turns() {
        let mut config = RunConfig::new(CollectorKind::Bc, 4 << 20, 16 << 20);
        config.pressure = Some(SignalmemConfig {
            initial_pages: 64,
            step_pages: 16,
            interval: Nanos::from_micros(50),
            total_pages: 512,
            start_at: Nanos::ZERO,
        });
        for order in ORDERS {
            let d = driven(&config, order, 2, |_| Churn::new(20_000, 100));
            assert!(d.jvms.iter().all(|j| j.finished), "{order:?}");
            let pinned = d.signalmem.as_ref().unwrap().pinned_pages();
            // More than the initial batch: it ran again between JVM turns.
            assert!(pinned > 64, "{order:?}: signalmem pinned {pinned} pages");
        }
    }

    /// Delivery cost is O(events), not O(processes). A fleet dominated by
    /// idle tenants (no pages, so never any eviction notices) must never
    /// have those tenants visited by `deliver`, while the one thrashing
    /// tenant still hears about its evictions — and the VMM's notification
    /// FIFO is drained as it goes, not left to grow for the whole run.
    #[test]
    fn delivery_cost_is_proportional_to_events_not_processes() {
        // 1 MB of RAM = 256 frames against a 2 MB heap: the busy tenant's
        // working set cannot fit, so kswapd constantly schedules its pages.
        let config = RunConfig::new(CollectorKind::Bc, 2 << 20, 1 << 20);
        for order in ORDERS {
            let d = driven(&config, order, 256, |i| {
                if i == 0 {
                    Churn::new(40_000, 8_000)
                } else {
                    Churn::new(0, 0)
                }
            });
            assert!(!d.timed_out(), "{order:?}");
            assert!(d.jvms.iter().all(|j| j.finished));
            assert!(
                d.deliveries()[0] > 0,
                "{order:?}: the thrashing tenant should have received eviction notices"
            );
            assert!(
                d.deliveries()[1..].iter().all(|&n| n == 0),
                "{order:?}: idle tenants must never be visited by the delivery loop"
            );
            // The total is bounded by the events that actually fired, not
            // by processes × turns.
            assert!(
                d.total_deliveries() < d.turns(),
                "{order:?}: deliveries ({}) should not scale with turns ({})",
                d.total_deliveries(),
                d.turns()
            );
            // Idle tenants never enter the VMM's notification FIFO and the
            // busy one's entries are popped as they are delivered, so at
            // most its last refill is left — far under the general bound of
            // one entry per process.
            let backlog = d.vmm.notified_backlog();
            assert!(backlog <= 1, "{order:?}: {backlog} stale FIFO entries");
        }
    }
}
