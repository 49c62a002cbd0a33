//! Every call into the program under measurement lives in this file.
//!
//! The rest of `gcbench` sees cells, outcomes, counts and plain numbers;
//! only this module names the repository's crates. The surface it may use
//! is the allow-list in the README: the three run entry points with their
//! config and result types, `workloads::spec`, the `GcHeap` trait with its
//! argument and return types, `SimMemory`, `Vmm`, the clock and cost model,
//! and `Tracer` with its sinks — nothing a later restructuring of the
//! engine, scheduler or collectors is expected to remove.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use heap::{
    Address, AllocKind, CollectKind, GcHeap, GcStats, Handle, MemCtx, MetricsSnapshot, OutOfMemory,
    SimMemory,
};
use simtime::{Clock, CostModel, Nanos, PauseLog};
use simulate::experiments::{
    dynamic_pressure_config, run_fleet, steady_pressure_config, FleetConfig,
};
use simulate::{run, run_multi, Program, ProgramStatus, RunConfig, RunResult};
use telemetry::{EventKind, JsonlSink, Tracer};
use vmm::{Access, ProcessId, VirtPage, VmStats, Vmm, VmmConfig};
use workloads::spec;

pub use simulate::{CollectorKind, PolicyKind, SanitizeLevel};

use crate::span::{Recorder, SpanName};

// ----- cells ---------------------------------------------------------------

/// The crate that implements a cell's collector: the layer its `gc.*`
/// spans are reported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcLayer {
    /// The five baseline collectors.
    Collectors,
    /// BC and its resizing-only ablation.
    Bookmarking,
}

impl GcLayer {
    /// The layer's metric-name prefix.
    pub fn label(self) -> &'static str {
        match self {
            GcLayer::Collectors => "collectors",
            GcLayer::Bookmarking => "bookmarking",
        }
    }
}

/// One `simulate::run` (or, with `jvms > 1`, `run_multi`) call.
#[derive(Clone, Debug)]
pub struct JvmCell {
    /// The collector under test.
    pub collector: CollectorKind,
    /// Table 1 benchmark name, or [`TREES`] or [`FRAGMENTS`].
    pub benchmark: &'static str,
    /// Workload volume relative to the paper.
    pub scale: f64,
    /// Simultaneous JVM instances.
    pub jvms: usize,
    /// Heap per JVM, in bytes.
    pub heap_bytes: usize,
    /// Physical memory, in bytes.
    pub memory_bytes: usize,
    /// Dynamic signalmem pressure down to this many available bytes.
    pub squeeze_to: Option<usize>,
    /// Heap-sizing policy override.
    pub policy: Option<PolicyKind>,
    /// Simulated GC workers.
    pub gc_threads: usize,
}

/// One `run_fleet` call: `tenants` pseudoJBB mutators at `tenant_scale`.
#[derive(Clone, Debug)]
pub struct FleetCell {
    /// The collector every tenant runs.
    pub collector: CollectorKind,
    /// Simulated processes.
    pub tenants: usize,
    /// Each tenant's workload volume relative to the paper.
    pub tenant_scale: f64,
    /// Heap per tenant, in bytes.
    pub tenant_heap_bytes: usize,
    /// Physical memory shared by the fleet, in bytes.
    pub memory_bytes: usize,
}

/// One experiment cell: the unit `wall_s` sums over.
#[derive(Clone, Debug)]
pub enum CellSpec {
    /// A single- or two-JVM run through the engine.
    Jvm(JvmCell),
    /// A fleet run through the scheduler.
    Fleet(FleetCell),
}

impl CellSpec {
    /// The collector the cell runs.
    pub fn collector(&self) -> CollectorKind {
        match self {
            CellSpec::Jvm(c) => c.collector,
            CellSpec::Fleet(c) => c.collector,
        }
    }

    /// The program the cell's processes run.
    pub fn benchmark(&self) -> &'static str {
        match self {
            CellSpec::Jvm(c) => c.benchmark,
            CellSpec::Fleet(_) => "pseudoJBB",
        }
    }

    /// Which crate implements the cell's collector.
    pub fn layer(&self) -> GcLayer {
        match self.collector() {
            CollectorKind::Bc | CollectorKind::BcResizeOnly => GcLayer::Bookmarking,
            _ => GcLayer::Collectors,
        }
    }

    /// Simulated JVM processes the cell starts.
    pub fn processes(&self) -> u64 {
        match self {
            CellSpec::Jvm(c) => c.jvms as u64,
            CellSpec::Fleet(c) => c.tenants as u64,
        }
    }

    /// Simulated GC workers (1 for fleets).
    pub fn gc_threads(&self) -> usize {
        match self {
            CellSpec::Jvm(c) => c.gc_threads,
            CellSpec::Fleet(_) => 1,
        }
    }

    /// A short human-readable description.
    pub fn label(&self) -> String {
        match self {
            CellSpec::Jvm(c) => {
                let mut s = format!(
                    "{} {} heap={}K mem={}K",
                    c.collector.label(),
                    c.benchmark,
                    c.heap_bytes >> 10,
                    c.memory_bytes >> 10
                );
                if c.jvms > 1 {
                    s += &format!(" x{}", c.jvms);
                }
                if let Some(avail) = c.squeeze_to {
                    s += &format!(" squeeze={}K", avail >> 10);
                }
                if let Some(policy) = c.policy {
                    s += &format!(" policy={}", policy.label());
                }
                if c.gc_threads > 1 {
                    s += &format!(" gc_threads={}", c.gc_threads);
                }
                s
            }
            CellSpec::Fleet(c) => format!(
                "{} fleet x{} heap={}K mem={}K",
                c.collector.label(),
                c.tenants,
                c.tenant_heap_bytes >> 10,
                c.memory_bytes >> 10
            ),
        }
    }
}

/// Name of the benchmark-owned tree-churning program (see [`TreeChurn`]),
/// usable wherever a Table 1 benchmark name is.
pub const TREES: &str = "gcbench-trees";

/// Name of the benchmark-owned fragmenting program (see [`FragChurn`]).
pub const FRAGMENTS: &str = "gcbench-fragments";

/// Scales a paper-sized byte count the way the figures do.
pub fn scaled(paper_bytes: usize, scale: f64) -> usize {
    ((paper_bytes as f64 * scale) as usize).max(1 << 20)
}

/// The benchmark's steady-state live bytes (immortal set plus window) at
/// `scale`.
pub fn live_bytes(benchmark: &str, scale: f64) -> usize {
    if benchmark == TREES {
        return TreeChurn::new(scale, 0).live_bytes();
    }
    if benchmark == FRAGMENTS {
        return FragChurn::new(scale, 0).live_bytes();
    }
    let b = spec(benchmark).expect("Table 1 benchmark");
    ((b.immortal_bytes + b.live_window_bytes) as f64 * scale) as usize
}

fn program(benchmark: &str, scale: f64, seed: u64) -> Box<dyn Program> {
    if benchmark == TREES {
        return Box::new(TreeChurn::new(scale, seed));
    }
    if benchmark == FRAGMENTS {
        return Box::new(FragChurn::new(scale, seed));
    }
    let b = spec(benchmark).expect("Table 1 benchmark");
    Box::new(b.program(scale, seed))
}

/// Keeps a set of wide, shallow trees alive under one root handle each
/// and replaces a random one per step. The Table 1 analogues root every
/// live object directly, so their traces never leave a worker holding a
/// second packet to steal; here a trace starts from a few roots whose
/// 48-way arrays overflow the finder's packet, and the idle simulated
/// workers must steal.
struct TreeChurn {
    rng: u64,
    live: Vec<Handle>,
    live_trees: usize,
    trees_left: u64,
    trees_total: u64,
}

impl TreeChurn {
    /// Children per array: two levels of these overflow a 64-entry packet.
    const FANOUT: u32 = 48;
    const ARRAY: AllocKind = AllocKind::RefArray { len: Self::FANOUT };
    const LEAF: AllocKind = AllocKind::Scalar {
        data_words: 4,
        num_refs: 0,
    };
    /// pseudoJBB's allocation volume and live size at scale 1, so that a
    /// tree cell and a pseudoJBB cell at one scale are of one size.
    const PAPER_ALLOC_BYTES: f64 = 233e6;
    const PAPER_LIVE_BYTES: f64 = 22e6;

    /// Bytes of one unpruned tree: a root array of arrays of leaves.
    fn tree_bytes() -> u64 {
        let (f, array, leaf) = (
            Self::FANOUT as u64,
            Self::ARRAY.size_bytes() as u64,
            Self::LEAF.size_bytes() as u64,
        );
        array + f * array + f * f * leaf
    }

    fn new(scale: f64, seed: u64) -> TreeChurn {
        let tree = Self::tree_bytes() as f64;
        let trees = ((Self::PAPER_ALLOC_BYTES * scale / tree) as u64).max(64);
        TreeChurn {
            rng: seed,
            live: Vec::new(),
            live_trees: ((Self::PAPER_LIVE_BYTES * scale / tree) as usize).max(8),
            trees_left: trees,
            trees_total: trees,
        }
    }

    fn live_bytes(&self) -> usize {
        self.live_trees * Self::tree_bytes() as usize
    }

    /// Builds one tree, leaving out a random quarter of the leaves so that
    /// shapes differ with the seed.
    fn build(&mut self, gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>) -> Result<Handle, OutOfMemory> {
        let root = gc.alloc(ctx, Self::ARRAY)?;
        for i in 0..Self::FANOUT {
            let mid = gc.alloc(ctx, Self::ARRAY)?;
            gc.write_ref(ctx, root, i, Some(mid));
            for j in 0..Self::FANOUT {
                self.rng = mix(self.rng, 1);
                if self.rng.is_multiple_of(4) {
                    continue;
                }
                let leaf = gc.alloc(ctx, Self::LEAF)?;
                gc.write_ref(ctx, mid, j, Some(leaf));
                gc.drop_handle(leaf);
            }
            gc.drop_handle(mid);
        }
        Ok(root)
    }
}

impl Program for TreeChurn {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        if self.trees_left == 0 {
            return Ok(ProgramStatus::Finished);
        }
        let work = ctx.vmm.costs().mutator_work;
        ctx.clock.advance(work * 16);
        let tree = self.build(gc, ctx)?;
        if self.live.len() < self.live_trees {
            self.live.push(tree);
        } else {
            self.rng = mix(self.rng, 0);
            let slot = (self.rng % self.live_trees as u64) as usize;
            gc.drop_handle(std::mem::replace(&mut self.live[slot], tree));
        }
        self.trees_left -= 1;
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        TREES
    }

    fn progress(&self) -> f64 {
        1.0 - self.trees_left as f64 / self.trees_total as f64
    }
}

/// Keeps a fixed number of objects alive, replaces them at random, and
/// moves from one size class to the next every so often. Objects of the
/// earlier classes then die scattered over all their superpages, which
/// empty out but never become free, while the current class needs fresh
/// superpages: the fragmentation a full collection cannot cure and BC's
/// two-pass compaction (§3.2) exists for. The Table 1 analogues retire
/// their survivors first-in first-out, so their superpages empty whole
/// and BC compacts on them only on the very edge of exhaustion.
struct FragChurn {
    rng: u64,
    live: Vec<Handle>,
    live_target: usize,
    class: usize,
    survivors_in_phase: usize,
    bytes_left: u64,
    bytes_total: u64,
}

impl FragChurn {
    /// Payload words of the size classes cycled through.
    const CLASS_WORDS: [u16; 3] = [4, 9, 16];
    /// One allocation in this many replaces a live object.
    const SURVIVE_ONE_IN: u64 = 2;
    /// Half of pseudoJBB's allocation volume over the whole of its live
    /// size: the collections this provokes are many and long.
    const PAPER_ALLOC_BYTES: f64 = 116e6;
    const PAPER_LIVE_BYTES: f64 = 22e6;

    fn kind(class: usize) -> AllocKind {
        AllocKind::Scalar {
            data_words: Self::CLASS_WORDS[class],
            num_refs: 1,
        }
    }

    /// Mean object size over the classes, in bytes.
    fn mean_bytes() -> usize {
        let n = Self::CLASS_WORDS.len();
        (0..n)
            .map(|c| Self::kind(c).size_bytes() as usize)
            .sum::<usize>()
            / n
    }

    fn new(scale: f64, seed: u64) -> FragChurn {
        let total = (Self::PAPER_ALLOC_BYTES * scale) as u64;
        FragChurn {
            rng: seed,
            live: Vec::new(),
            live_target: ((Self::PAPER_LIVE_BYTES * scale) as usize / Self::mean_bytes())
                .max(1_024),
            class: 0,
            survivors_in_phase: 0,
            bytes_left: total,
            bytes_total: total,
        }
    }

    fn live_bytes(&self) -> usize {
        self.live_target * Self::mean_bytes()
    }
}

impl Program for FragChurn {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        let work = ctx.vmm.costs().mutator_work;
        for _ in 0..256 {
            if self.bytes_left == 0 {
                return Ok(ProgramStatus::Finished);
            }
            ctx.clock.advance(work);
            let kind = Self::kind(self.class);
            let h = gc.alloc(ctx, kind)?;
            self.bytes_left = self.bytes_left.saturating_sub(kind.size_bytes() as u64);
            self.rng = mix(self.rng, 2);
            if self.live.len() < self.live_target {
                self.live.push(h);
            } else if self.rng.is_multiple_of(Self::SURVIVE_ONE_IN) {
                let slot = ((self.rng >> 8) % self.live_target as u64) as usize;
                gc.drop_handle(std::mem::replace(&mut self.live[slot], h));
            } else {
                gc.drop_handle(h);
                continue;
            }
            // Two fifths of the live set turn over per phase.
            self.survivors_in_phase += 1;
            if self.survivors_in_phase >= self.live_target / 2 {
                self.survivors_in_phase = 0;
                self.class = (self.class + 1) % Self::CLASS_WORDS.len();
            }
        }
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        FRAGMENTS
    }

    fn progress(&self) -> f64 {
        1.0 - self.bytes_left as f64 / self.bytes_total as f64
    }
}

// ----- counts --------------------------------------------------------------

/// The exact per-layer counts, summed over a cell's processes. The
/// discriminant indexes [`Counts`] and [`COUNT_NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Count {
    VmmTouches,
    VmmMajorFaults,
    VmmMinorFaults,
    VmmEvictions,
    VmmHardEvictions,
    VmmNotices,
    VmmDiscards,
    VmmRelinquished,
    HeapAllocs,
    HeapBytesAllocated,
    HeapCollections,
    HeapFullGcs,
    HeapObjectsTraced,
    HeapObjectsMoved,
    HeapBytesMoved,
    HeapBarrierRecords,
    HeapTracePackets,
    HeapTraceSteals,
    HeapPolicyResizes,
    HeapPagesPeak,
    BcPagesScanned,
    BcBookmarksSet,
    BcBookmarksCleared,
    BcPagesDiscarded,
    BcPagesRelinquished,
    BcCompactingGcs,
    BcFailsafeGcs,
    SimProcesses,
    SimSlices,
    SimDeliveries,
}

/// Metric names of the counts, indexed by [`Count`].
pub const COUNT_NAMES: [&str; 30] = [
    "vmm.touches",
    "vmm.major_faults",
    "vmm.minor_faults",
    "vmm.evictions",
    "vmm.hard_evictions",
    "vmm.notices",
    "vmm.discards",
    "vmm.relinquished",
    "heap.allocs",
    "heap.bytes_allocated",
    "heap.collections",
    "heap.full_gcs",
    "heap.objects_traced",
    "heap.objects_moved",
    "heap.bytes_moved",
    "heap.barrier_records",
    "heap.trace_packets",
    "heap.trace_steals",
    "heap.policy_resizes",
    "heap.pages_peak",
    "bookmarking.pages_scanned",
    "bookmarking.bookmarks_set",
    "bookmarking.bookmarks_cleared",
    "bookmarking.pages_discarded",
    "bookmarking.pages_relinquished",
    "bookmarking.compacting_gcs",
    "bookmarking.failsafe_gcs",
    "simulate.processes",
    "simulate.slices",
    "simulate.deliveries",
];

/// A vector of exact counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts(pub [u64; COUNT_NAMES.len()]);

impl core::ops::Index<Count> for Counts {
    type Output = u64;
    fn index(&self, c: Count) -> &u64 {
        &self.0[c as usize]
    }
}

impl core::ops::IndexMut<Count> for Counts {
    fn index_mut(&mut self, c: Count) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl Counts {
    /// Adds `other` field by field.
    pub fn add(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    fn absorb(&mut self, gc: &GcStats, vm: &VmStats) {
        use Count::*;
        self[VmmTouches] += vm.touches;
        self[VmmMajorFaults] += vm.major_faults;
        self[VmmMinorFaults] += vm.minor_faults;
        self[VmmEvictions] += vm.evictions;
        self[VmmHardEvictions] += vm.hard_evictions;
        self[VmmNotices] += vm.notices;
        self[VmmDiscards] += vm.discards;
        self[VmmRelinquished] += vm.relinquished;
        self[HeapAllocs] += gc.objects_allocated;
        self[HeapBytesAllocated] += gc.bytes_allocated;
        self[HeapCollections] += gc.total_gcs();
        self[HeapFullGcs] += gc.full_gcs;
        self[HeapObjectsTraced] += gc.objects_traced;
        self[HeapObjectsMoved] += gc.objects_moved;
        self[HeapBytesMoved] += gc.bytes_moved;
        self[HeapBarrierRecords] += gc.barrier_records;
        self[HeapTracePackets] += gc.trace_packets;
        self[HeapTraceSteals] += gc.trace_steals;
        self[HeapPolicyResizes] += gc.heap_shrinks + gc.heap_regrows;
        self[BcPagesScanned] += gc.pages_bookmark_scanned;
        self[BcBookmarksSet] += gc.bookmarks_set;
        self[BcBookmarksCleared] += gc.bookmarks_cleared;
        self[BcPagesDiscarded] += gc.pages_discarded;
        self[BcPagesRelinquished] += gc.pages_relinquished;
        self[BcCompactingGcs] += gc.compacting_gcs;
        self[BcFailsafeGcs] += gc.failsafe_gcs;
        self[SimProcesses] += 1;
    }
}

// ----- running a cell ------------------------------------------------------

/// What one cell did in one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellOutcome {
    /// Host seconds inside `run` / `run_multi` / `run_fleet`.
    pub wall_s: f64,
    /// Processes that hit OOM, timed out, or were lost to a panic.
    pub failed: u64,
    /// Hash of every simulated statistic the cell produced.
    pub digest: u64,
    /// Simulated nanoseconds to completion, summed over processes (each on
    /// its own virtual CPU).
    pub sim_exec_ns: u64,
    /// Simulated nanoseconds of stop-the-world pause, summed over
    /// processes.
    pub sim_pause_ns: u64,
    /// The exact counts.
    pub counts: Counts,
}

/// FNV-1a over the bytes of `text`, continuing from `state`.
fn fnv1a(mut state: u64, text: &str) -> u64 {
    for b in text.bytes() {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Start value of the cell and workload digests.
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds a cell digest into a workload digest.
pub fn fold_digest(state: u64, cell_digest: u64) -> u64 {
    fnv1a(state, &format!("{cell_digest:016x}"))
}

/// SplitMix64: derives independent program seeds from the run's seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn absorb_run(out: &mut CellOutcome, r: &RunResult) {
    if !r.ok() {
        out.failed += 1;
    }
    out.sim_exec_ns += r.exec_time.as_nanos();
    out.sim_pause_ns += r.pauses.total.as_nanos();
    out.counts.absorb(&r.gc, &r.vm);
    out.counts[Count::HeapPagesPeak] += r.metrics.heap_pages_peak as u64;
    // Debug formatting covers every field, so a counter added later joins
    // the digest without an edit here.
    out.digest = fnv1a(
        out.digest,
        &format!("{:?}{:?}{:?}{:?}", r.exec_time, r.gc, r.vm, r.pauses),
    );
}

/// Runs one cell once. `index` and `seed` fix the programs' inputs; with a
/// recorder the pass is traced (every program wrapped in a
/// [`TimedProgram`]). A panic inside the program under test is caught and
/// reported as every process of the cell failing.
pub fn run_cell(
    cell: &CellSpec,
    index: usize,
    seed: u64,
    sanitize: SanitizeLevel,
    recorder: Option<&Rc<RefCell<Recorder>>>,
) -> CellOutcome {
    let cell_seed = mix(seed, index as u64);
    let result = catch_unwind(AssertUnwindSafe(|| match cell {
        CellSpec::Jvm(c) => run_jvm_cell(c, index, cell_seed, sanitize, recorder),
        CellSpec::Fleet(c) => run_fleet_cell(c, index, cell_seed, sanitize, recorder),
    }));
    let mut out = result.unwrap_or_else(|_| {
        if let Some(rec) = recorder {
            rec.borrow_mut().end_cell();
        }
        CellOutcome {
            failed: cell.processes(),
            ..CellOutcome::default()
        }
    });
    // `GcStats::compacting_gcs` also counts SemiSpace's copying
    // collections; under the `bookmarking.` name it is BC's compactions.
    if cell.layer() != GcLayer::Bookmarking {
        out.counts[Count::BcCompactingGcs] = 0;
    }
    out
}

/// Times `body` as one cell: the `cell` span when traced, and the wall
/// clock either way.
fn timed_cell<T>(
    index: usize,
    recorder: Option<&Rc<RefCell<Recorder>>>,
    body: impl FnOnce() -> T,
) -> (T, f64) {
    if let Some(rec) = recorder {
        rec.borrow_mut().begin_cell(index);
    }
    let start = Instant::now();
    let value = body();
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(rec) = recorder {
        rec.borrow_mut().end_cell();
    }
    (value, wall_s)
}

fn wrap(program: Box<dyn Program>, recorder: Option<&Rc<RefCell<Recorder>>>) -> Box<dyn Program> {
    match recorder {
        Some(rec) => Box::new(TimedProgram {
            inner: program,
            rec: Rc::clone(rec),
        }),
        None => program,
    }
}

fn run_jvm_cell(
    c: &JvmCell,
    index: usize,
    cell_seed: u64,
    sanitize: SanitizeLevel,
    recorder: Option<&Rc<RefCell<Recorder>>>,
) -> CellOutcome {
    let mut config = match c.squeeze_to {
        Some(avail) => {
            dynamic_pressure_config(c.collector, c.heap_bytes, c.memory_bytes, avail, c.scale)
        }
        None => RunConfig::new(c.collector, c.heap_bytes, c.memory_bytes),
    };
    config.policy = c.policy;
    config.gc_threads = c.gc_threads;
    config.sanitize = sanitize;
    let mut programs: Vec<Box<dyn Program>> = (0..c.jvms)
        .map(|j| {
            wrap(
                program(c.benchmark, c.scale, mix(cell_seed, j as u64)),
                recorder,
            )
        })
        .collect();
    let (results, wall_s) = timed_cell(index, recorder, || {
        if c.jvms == 1 {
            vec![run(&config, programs.pop().expect("one program"))]
        } else {
            run_multi(&config, programs).jvms
        }
    });
    let mut out = CellOutcome {
        wall_s,
        digest: DIGEST_SEED,
        ..CellOutcome::default()
    };
    for r in &results {
        absorb_run(&mut out, r);
    }
    out
}

fn run_fleet_cell(
    c: &FleetCell,
    index: usize,
    cell_seed: u64,
    sanitize: SanitizeLevel,
    recorder: Option<&Rc<RefCell<Recorder>>>,
) -> CellOutcome {
    let mut config = FleetConfig::new(c.collector, c.tenants, c.tenant_heap_bytes, c.memory_bytes);
    config.sanitize = sanitize;
    // `TenantResult` carries no pause log, so each tenant's program is
    // wrapped in a probe that reads its heap's pause total as it finishes.
    let pauses = Rc::new(RefCell::new(0u64));
    let make = |i: usize| -> Box<dyn Program> {
        let inner = wrap(
            program("pseudoJBB", c.tenant_scale, mix(cell_seed, i as u64)),
            recorder,
        );
        Box::new(PauseProbe {
            inner,
            total_ns: Rc::clone(&pauses),
        })
    };
    let (f, wall_s) = timed_cell(index, recorder, || run_fleet(&config, &make));
    let mut out = CellOutcome {
        wall_s,
        digest: DIGEST_SEED,
        sim_pause_ns: *pauses.borrow(),
        ..CellOutcome::default()
    };
    out.failed = (f.tenants.len() - f.completed()) as u64;
    for t in &f.tenants {
        out.sim_exec_ns += t.finish_time.map_or(0, Nanos::as_nanos);
        out.counts.absorb(&t.gc, &t.vm);
        out.digest = fnv1a(
            out.digest,
            &format!("{:?}{:?}{:?}{:?}", t.oom, t.finish_time, t.gc, t.vm),
        );
    }
    out.counts[Count::SimSlices] = f.slices;
    out.counts[Count::SimDeliveries] = f.deliveries;
    out.digest = fnv1a(
        out.digest,
        &format!(
            "{:?}{}{}{}{}",
            f.total_elapsed, f.slices, f.deliveries, f.timed_out, out.sim_pause_ns
        ),
    );
    out
}

/// Reads a tenant heap's pause total when its program finishes.
struct PauseProbe {
    inner: Box<dyn Program>,
    total_ns: Rc<RefCell<u64>>,
}

impl Program for PauseProbe {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        let status = self.inner.step(gc, ctx)?;
        if status == ProgramStatus::Finished {
            *self.total_ns.borrow_mut() += gc.pause_log().stats().total.as_nanos();
        }
        Ok(status)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn progress(&self) -> f64 {
        self.inner.progress()
    }
}

// ----- the traced pass's wrappers ------------------------------------------

/// Wraps a program so each `step` is a span and the heap it sees is a
/// [`TimedHeap`]. Forwards everything; the simulation cannot tell.
struct TimedProgram {
    inner: Box<dyn Program>,
    rec: Rc<RefCell<Recorder>>,
}

impl Program for TimedProgram {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        self.rec.borrow_mut().open(SpanName::Step);
        let mut timed = TimedHeap {
            inner: gc,
            rec: &self.rec,
        };
        let status = self.inner.step(&mut timed, ctx);
        self.rec.borrow_mut().close();
        status
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn progress(&self) -> f64 {
        self.inner.progress()
    }
}

/// A `&mut dyn GcHeap` decorator timing the calls that do simulated work.
/// Handle bookkeeping (`dup_handle`, `drop_handle`, `same_object`) and the
/// accessors pass through untimed.
struct TimedHeap<'a> {
    inner: &'a mut dyn GcHeap,
    rec: &'a RefCell<Recorder>,
}

impl TimedHeap<'_> {
    fn leaf<T>(&mut self, name: SpanName, f: impl FnOnce(&mut dyn GcHeap) -> T) -> T {
        let start = Instant::now();
        let value = f(self.inner);
        let end = Instant::now();
        self.rec.borrow_mut().leaf(name, start, end);
        value
    }
}

impl GcHeap for TimedHeap<'_> {
    fn alloc(&mut self, ctx: &mut MemCtx<'_>, kind: AllocKind) -> Result<Handle, OutOfMemory> {
        let gcs = self.inner.stats().total_gcs();
        let start = Instant::now();
        let value = self.inner.alloc(ctx, kind);
        let end = Instant::now();
        let name = if self.inner.stats().total_gcs() > gcs {
            SpanName::AllocCollect
        } else {
            SpanName::AllocFast
        };
        self.rec.borrow_mut().leaf(name, start, end);
        value
    }

    fn write_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32, val: Option<Handle>) {
        self.leaf(SpanName::WriteRef, |gc| gc.write_ref(ctx, src, field, val));
    }

    fn read_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32) -> Option<Handle> {
        self.leaf(SpanName::Read, |gc| gc.read_ref(ctx, src, field))
    }

    fn read_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        self.leaf(SpanName::Read, |gc| gc.read_data(ctx, obj));
    }

    fn write_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle) {
        self.leaf(SpanName::Read, |gc| gc.write_data(ctx, obj));
    }

    fn same_object(&self, a: Handle, b: Handle) -> bool {
        self.inner.same_object(a, b)
    }

    fn dup_handle(&mut self, h: Handle) -> Handle {
        self.inner.dup_handle(h)
    }

    fn drop_handle(&mut self, h: Handle) {
        self.inner.drop_handle(h);
    }

    fn collect(&mut self, ctx: &mut MemCtx<'_>, kind: CollectKind) {
        self.leaf(SpanName::Collect, |gc| gc.collect(ctx, kind));
    }

    fn handle_vm_events(&mut self, ctx: &mut MemCtx<'_>) {
        self.inner.handle_vm_events(ctx);
    }

    fn stats(&self) -> &GcStats {
        self.inner.stats()
    }

    fn pause_log(&self) -> &PauseLog {
        self.inner.pause_log()
    }

    fn heap_pages_used(&self) -> usize {
        self.inner.heap_pages_used()
    }

    fn heap_pages_peak(&self) -> usize {
        self.inner.heap_pages_peak()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tracer(&self) -> &Tracer {
        self.inner.tracer()
    }

    fn metrics(&self, vm: &VmStats) -> MetricsSnapshot {
        self.inner.metrics(vm)
    }
}

// ----- isolation: the VMM, SimMemory and the tracer, called directly -------

/// Nanoseconds per operation of `ops` operations done by `body`.
fn ns_per_op(ops: u64, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_nanos() as f64 / ops as f64
}

fn fresh_vmm(frames: usize, shards: usize) -> (Vmm, ProcessId, Clock) {
    let mut vmm = Vmm::new(
        VmmConfig::builder().frames(frames).shards(shards).build(),
        CostModel::default(),
    );
    let pid = vmm.register_process();
    (vmm, pid, Clock::new())
}

/// `Vmm::touch` of one resident page, again and again (the last-page
/// cache hits), in a VMM of `shards` shards.
pub fn vmm_touch_hit(ops: u64, shards: usize) -> f64 {
    let (mut vmm, pid, mut clock) = fresh_vmm(1 << 16, shards);
    let page = VirtPage::new(7);
    vmm.touch(pid, page, Access::Write, &mut clock);
    ns_per_op(ops, || {
        for _ in 0..ops {
            std::hint::black_box(vmm.touch(pid, page, Access::Read, &mut clock));
        }
    })
}

/// `Vmm::touch` alternating between two resident pages (the last-page
/// cache misses; the page table answers).
pub fn vmm_touch_miss(ops: u64) -> f64 {
    let (mut vmm, pid, mut clock) = fresh_vmm(1 << 16, 1);
    let pages = [VirtPage::new(7), VirtPage::new(4_000)];
    for p in pages {
        vmm.touch(pid, p, Access::Write, &mut clock);
    }
    ns_per_op(ops, || {
        for i in 0..ops {
            std::hint::black_box(vmm.touch(pid, pages[(i & 1) as usize], Access::Read, &mut clock));
        }
    })
}

/// First touches of fresh pages with free frames to spare: demand-zero
/// minor faults.
pub fn vmm_touch_zero_fill(ops: u64) -> f64 {
    let (mut vmm, pid, mut clock) = fresh_vmm(ops as usize + 1_024, 1);
    let ns = ns_per_op(ops, || {
        for p in 0..ops as u32 {
            std::hint::black_box(vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock));
        }
    });
    assert_eq!(vmm.stats(pid).minor_faults, ops, "every touch zero-fills");
    ns
}

/// Touches cycling over twice as many dirty pages as there are frames:
/// every one is a major fault that evicts another page.
pub fn vmm_fault_evict(ops: u64) -> f64 {
    const FRAMES: u32 = 2_048;
    let (mut vmm, pid, mut clock) = fresh_vmm(FRAMES as usize, 1);
    let span = FRAMES * 2;
    for p in 0..span {
        vmm.touch(pid, VirtPage::new(p), Access::Write, &mut clock);
    }
    let before = *vmm.stats(pid);
    let ns = ns_per_op(ops, || {
        for i in 0..ops as u32 {
            std::hint::black_box(vmm.touch(
                pid,
                VirtPage::new(i % span),
                Access::Write,
                &mut clock,
            ));
            vmm.pump(&mut clock);
        }
    });
    let after = vmm.stats(pid);
    assert!(
        (after.major_faults - before.major_faults) * 10 >= ops * 9,
        "the cyclic sweep must fault: {} of {ops}",
        after.major_faults - before.major_faults
    );
    ns
}

/// `Vmm::pump` with nothing to reclaim.
pub fn vmm_pump_idle(ops: u64) -> f64 {
    let (mut vmm, pid, mut clock) = fresh_vmm(1 << 16, 1);
    vmm.touch(pid, VirtPage::new(1), Access::Write, &mut clock);
    ns_per_op(ops, || {
        for _ in 0..ops {
            vmm.pump(&mut clock);
        }
    })
}

fn resident_pages(vmm: &mut Vmm, pid: ProcessId, clock: &mut Clock, n: u32) -> Vec<VirtPage> {
    let pages: Vec<VirtPage> = (0..n).map(VirtPage::new).collect();
    for &p in &pages {
        vmm.touch(pid, p, Access::Write, clock);
    }
    pages
}

/// `madvise_dontneed` over `pages` resident pages, per page.
pub fn vmm_madvise(pages: u64) -> f64 {
    let (mut vmm, pid, mut clock) = fresh_vmm(pages as usize + 1_024, 1);
    let list = resident_pages(&mut vmm, pid, &mut clock, pages as u32);
    let ns = ns_per_op(pages, || vmm.madvise_dontneed(pid, &list, &mut clock));
    assert_eq!(vmm.stats(pid).discards, pages);
    ns
}

/// `vm_relinquish` over `pages` resident pages, per page.
pub fn vmm_relinquish(pages: u64) -> f64 {
    let (mut vmm, pid, mut clock) = fresh_vmm(pages as usize + 1_024, 1);
    let list = resident_pages(&mut vmm, pid, &mut clock, pages as u32);
    let ns = ns_per_op(pages, || vmm.vm_relinquish(pid, &list, &mut clock));
    assert_eq!(vmm.stats(pid).relinquished, pages);
    ns
}

/// One `write_word` and one `read_word` over a 1 MiB span, per pair.
pub fn simmem_rw(ops: u64) -> f64 {
    let mut mem = SimMemory::new();
    let base = 0x0100_0000u32;
    mem.zero(Address(base), 1 << 20);
    ns_per_op(ops, || {
        let mut sum = 0u32;
        for i in 0..ops as u32 {
            let a = Address(base + (i.wrapping_mul(2_654_435_761) & 0x000F_FFFC));
            mem.write_word(a, i);
            sum = sum.wrapping_add(mem.read_word(a));
        }
        std::hint::black_box(sum);
    })
}

/// `SimMemory::copy` of 1 KiB blocks, per KiB.
pub fn simmem_copy(ops: u64) -> f64 {
    let mut mem = SimMemory::new();
    let (src, dst) = (0x0100_0000u32, 0x0200_0000u32);
    for w in 0..(1 << 18) {
        mem.write_word(Address(src + w * 4), w);
    }
    ns_per_op(ops, || {
        for i in 0..ops as u32 {
            let off = (i & 1_023) << 10;
            mem.copy(Address(src + off), Address(dst + off), 1_024);
        }
    })
}

/// `SimMemory::zero` of 1 KiB blocks of materialized pages, per KiB.
pub fn simmem_zero(ops: u64) -> f64 {
    let mut mem = SimMemory::new();
    let base = 0x0100_0000u32;
    for w in 0..(1 << 18) {
        mem.write_word(Address(base + w * 4), w);
    }
    ns_per_op(ops, || {
        for i in 0..ops as u32 {
            mem.zero(Address(base + ((i & 1_023) << 10)), 1_024);
        }
    })
}

/// Which sink `Tracer::emit` feeds.
#[derive(Clone, Copy, Debug)]
pub enum EmitSink {
    /// `Tracer::disabled()`: the one-branch path every event site pays.
    Off,
    /// `Tracer::ring`.
    Ring,
    /// A JSONL sink writing to `std::io::sink()`.
    Jsonl,
}

/// `Tracer::emit` of a fault event, per call.
pub fn telemetry_emit(ops: u64, sink: EmitSink) -> f64 {
    let tracer = match sink {
        EmitSink::Off => Tracer::disabled(),
        EmitSink::Ring => Tracer::ring(65_536),
        EmitSink::Jsonl => Tracer::new(Box::new(JsonlSink::new(std::io::sink()))),
    };
    ns_per_op(ops, || {
        for i in 0..ops {
            // Opaque per call: a disabled tracer would otherwise let the
            // compiler delete the loop.
            std::hint::black_box(&tracer).emit(
                1,
                Nanos(i),
                EventKind::Fault {
                    page: i as u32,
                    major: false,
                },
            );
        }
    })
}

/// Host seconds of one GenMS pseudoJBB run at a roomy heap, with a ring
/// tracer attached or with tracing disabled.
pub fn traced_run_wall(scale: f64, seed: u64, ring: bool) -> f64 {
    let b = spec("pseudoJBB").expect("pseudoJBB spec");
    let mut config = RunConfig::new(CollectorKind::GenMs, scaled(100 << 20, scale), 512 << 20);
    if ring {
        config.tracer = Tracer::ring(65_536);
    }
    let start = Instant::now();
    let r = run(&config, Box::new(b.program(scale, seed)));
    let wall = start.elapsed().as_secs_f64();
    assert!(r.ok());
    wall
}

// ----- isolation: collectors, through the GcHeap trait only ----------------

/// What an [`IsoProgram`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsoOp {
    /// `alloc` of a small scalar, dropped at once, in a heap that never
    /// fills: the allocation fast path.
    Alloc,
    /// `write_ref` storing a young object into an old one: the barrier is
    /// taken.
    WriteRef,
    /// `collect(Minor)` promoting a batch of linked young objects.
    MinorGc,
    /// `collect(Full)` over a prebuilt linked graph.
    FullGc,
}

/// A program that times batches of one `GcHeap` operation itself and
/// leaves nanoseconds per operation in `samples`.
struct IsoProgram {
    op: IsoOp,
    batches: usize,
    ops: u64,
    graph: Vec<Handle>,
    samples: Rc<RefCell<Vec<f64>>>,
}

const NODE: AllocKind = AllocKind::Scalar {
    data_words: 6,
    num_refs: 2,
};

impl IsoProgram {
    /// Allocates `n` nodes, each linked from the one before, all rooted.
    fn grow_graph(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
        n: u64,
    ) -> Result<(), OutOfMemory> {
        for _ in 0..n {
            let h = gc.alloc(ctx, NODE)?;
            if let Some(&prev) = self.graph.last() {
                gc.write_ref(ctx, prev, 0, Some(h));
            }
            self.graph.push(h);
        }
        Ok(())
    }
}

impl Program for IsoProgram {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        let ops = self.ops;
        let ns = match self.op {
            IsoOp::Alloc => {
                let start = Instant::now();
                for _ in 0..ops {
                    let h = gc.alloc(ctx, NODE)?;
                    gc.drop_handle(h);
                }
                start.elapsed().as_nanos() as f64 / ops as f64
            }
            IsoOp::WriteRef => {
                if self.graph.is_empty() {
                    self.grow_graph(gc, ctx, 1_024)?;
                    gc.collect(ctx, CollectKind::Minor);
                }
                let young = gc.alloc(ctx, NODE)?;
                let start = Instant::now();
                for i in 0..ops as usize {
                    gc.write_ref(ctx, self.graph[i & 1_023], 1, Some(young));
                }
                let ns = start.elapsed().as_nanos() as f64 / ops as f64;
                gc.drop_handle(young);
                ns
            }
            IsoOp::MinorGc => {
                let traced = gc.stats().objects_traced;
                self.grow_graph(gc, ctx, ops)?;
                let start = Instant::now();
                gc.collect(ctx, CollectKind::Minor);
                let elapsed = start.elapsed().as_nanos() as f64;
                elapsed / (gc.stats().objects_traced - traced).max(1) as f64
            }
            IsoOp::FullGc => {
                if self.graph.is_empty() {
                    self.grow_graph(gc, ctx, ops)?;
                }
                let traced = gc.stats().objects_traced;
                let start = Instant::now();
                gc.collect(ctx, CollectKind::Full);
                let elapsed = start.elapsed().as_nanos() as f64;
                elapsed / (gc.stats().objects_traced - traced).max(1) as f64
            }
        };
        self.samples.borrow_mut().push(ns);
        self.batches -= 1;
        Ok(if self.batches == 0 {
            ProgramStatus::Finished
        } else {
            ProgramStatus::Running
        })
    }

    fn name(&self) -> &str {
        "gcbench-iso"
    }

    fn progress(&self) -> f64 {
        0.0
    }
}

/// Runs `batches` batches of `ops` operations of `op` on `collector`
/// through `simulate::run`, and returns each batch's nanoseconds per
/// operation (per object traced, for the collections).
pub fn gcheap_op(
    collector: CollectorKind,
    op: IsoOp,
    gc_threads: usize,
    batches: usize,
    ops: u64,
) -> Vec<f64> {
    let samples = Rc::new(RefCell::new(Vec::new()));
    let mut config = RunConfig::new(collector, 256 << 20, 1 << 30);
    config.gc_threads = gc_threads;
    let r = run(
        &config,
        Box::new(IsoProgram {
            op,
            batches,
            ops,
            graph: Vec::new(),
            samples: Rc::clone(&samples),
        }),
    );
    assert!(r.ok(), "isolation run of {op:?} on {collector} failed");
    let out = samples.borrow().clone();
    out
}

/// Keeps a live set larger than the memory signalmem leaves, pumps the
/// VMM itself, and times the `handle_vm_events` calls that answer.
struct EvictProgram {
    live: Vec<Handle>,
    steps_left: usize,
    handler_ns: Rc<RefCell<(u64, u64)>>,
}

impl Program for EvictProgram {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        for _ in 0..256 {
            let h = gc.alloc(ctx, NODE)?;
            if let Some(&prev) = self.live.last() {
                gc.write_ref(ctx, prev, 0, Some(h));
            }
            self.live.push(h);
        }
        ctx.vmm.pump(ctx.clock);
        let given_up = |gc: &dyn GcHeap| gc.stats().pages_relinquished;
        let before = given_up(gc);
        let start = Instant::now();
        gc.handle_vm_events(ctx);
        let elapsed = start.elapsed().as_nanos() as u64;
        let pages = given_up(gc) - before;
        if pages > 0 {
            let mut acc = self.handler_ns.borrow_mut();
            acc.0 += elapsed;
            acc.1 += pages;
        }
        self.steps_left -= 1;
        Ok(if self.steps_left == 0 {
            ProgramStatus::Finished
        } else {
            ProgramStatus::Running
        })
    }

    fn name(&self) -> &str {
        "gcbench-evict"
    }

    fn progress(&self) -> f64 {
        0.0
    }
}

/// Microseconds of `handle_vm_events` per page BC bookmark-scans and
/// relinquishes under steady pressure (handler calls that surrender no
/// page are left out), and the pages it was measured over.
pub fn bc_evict_page_us() -> (f64, u64) {
    let acc = Rc::new(RefCell::new((0u64, 0u64)));
    // 4 MiB of 32-byte nodes against 7 MiB of memory of which signalmem
    // pins 60 % of the heap size: about 2 MiB stays available, so BC must
    // give up pages that hold live data. Under MemBalancer, because BC's
    // default shrink-to-footprint policy fails a `debug_assert` in
    // `MemCtx::touch` on this program (a promoted nursery object with a
    // zeroed header), which a benchmark must not paper over.
    let mut config = steady_pressure_config(CollectorKind::Bc, 8 << 20, 7 << 20, 0.6);
    config.policy = Some(PolicyKind::MemBalancer);
    let r = run(
        &config,
        Box::new(EvictProgram {
            live: Vec::new(),
            steps_left: (4 << 20) / 32 / 256,
            handler_ns: Rc::clone(&acc),
        }),
    );
    assert!(r.ok(), "eviction-handling run failed");
    let (ns, pages) = *acc.borrow();
    (ns as f64 / 1e3 / pages.max(1) as f64, pages)
}

/// A program that does nothing for `steps` steps, advancing its clock by
/// `tick` each time.
struct Spin {
    steps: u64,
    tick: Nanos,
}

impl Program for Spin {
    fn step(
        &mut self,
        _gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        ctx.clock.advance(self.tick);
        self.steps = self.steps.saturating_sub(1);
        Ok(if self.steps == 0 {
            ProgramStatus::Finished
        } else {
            ProgramStatus::Running
        })
    }

    fn name(&self) -> &str {
        "gcbench-spin"
    }

    fn progress(&self) -> f64 {
        0.0
    }
}

/// Nanoseconds per engine step of `jvms` no-op programs.
pub fn engine_step_ns(jvms: usize, steps: u64) -> f64 {
    let config = RunConfig::new(CollectorKind::MarkSweep, 1 << 20, 64 << 20);
    let programs: Vec<Box<dyn Program>> = (0..jvms)
        .map(|_| {
            Box::new(Spin {
                steps,
                tick: Nanos(1_000),
            }) as Box<dyn Program>
        })
        .collect();
    let start = Instant::now();
    let m = run_multi(&config, programs);
    let ns = start.elapsed().as_nanos() as f64;
    assert!(m.jvms.iter().all(RunResult::ok));
    ns / (steps * jvms as u64) as f64
}

/// Host seconds and scheduler slices of a fleet of `tenants` no-op
/// tenants that each run `steps` one-quantum steps.
pub fn fleet_spin(tenants: usize, steps: u64) -> (f64, u64) {
    let config = FleetConfig::new(CollectorKind::GenMs, tenants, 512 << 10, tenants << 20);
    let tick = config.quantum;
    let start = Instant::now();
    let f = run_fleet(&config, &|_| Box::new(Spin { steps, tick }));
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(f.completed(), tenants);
    (wall, f.slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(collector: CollectorKind) -> CellSpec {
        let scale = 0.01;
        CellSpec::Jvm(JvmCell {
            collector,
            benchmark: "pseudoJBB",
            scale,
            jvms: 1,
            heap_bytes: (live_bytes("pseudoJBB", scale) * 3).max(1 << 20),
            memory_bytes: 64 << 20,
            squeeze_to: None,
            policy: None,
            gc_threads: 1,
        })
    }

    #[test]
    fn wrapping_is_transparent_for_every_collector() {
        for kind in CollectorKind::ALL {
            let cell = tiny(kind);
            let plain = run_cell(&cell, 0, 7, SanitizeLevel::Off, None);
            let rec = Rc::new(RefCell::new(Recorder::new(1)));
            rec.borrow_mut().open(SpanName::Run);
            let traced = run_cell(&cell, 0, 7, SanitizeLevel::Off, Some(&rec));
            rec.borrow_mut().close();
            assert_eq!(plain.failed, 0, "{kind}");
            assert_eq!(
                plain.digest, traced.digest,
                "{kind}: wrapped digest differs"
            );
            assert_eq!(plain.counts, traced.counts, "{kind}");
            assert!(
                plain.counts[Count::HeapCollections] > 0,
                "{kind} never collected"
            );
            let rec = rec.borrow();
            assert_eq!(rec.self_sum_ns(), rec.root_ns(), "{kind}");
            let allocs = rec.sum(SpanName::AllocFast, |_| true).count
                + rec.sum(SpanName::AllocCollect, |_| true).count;
            assert_eq!(allocs, plain.counts[Count::HeapAllocs], "{kind}");
        }
    }

    #[test]
    fn fleet_cells_report_pauses_and_wrap_transparently() {
        let cell = CellSpec::Fleet(FleetCell {
            collector: CollectorKind::GenMs,
            tenants: 8,
            tenant_scale: 0.002,
            tenant_heap_bytes: 512 << 10,
            memory_bytes: 8 << 20,
        });
        let plain = run_cell(&cell, 3, 11, SanitizeLevel::Off, None);
        let rec = Rc::new(RefCell::new(Recorder::new(4)));
        let traced = run_cell(&cell, 3, 11, SanitizeLevel::Off, Some(&rec));
        assert_eq!(plain.failed, 0);
        assert_eq!(plain.digest, traced.digest);
        assert_eq!(plain.counts[Count::SimProcesses], 8);
        assert!(plain.counts[Count::SimSlices] > 0);
        assert!(plain.sim_pause_ns > 0, "tenants collect at this heap size");
    }

    #[test]
    fn seeds_and_cell_indices_change_the_inputs() {
        let cell = tiny(CollectorKind::GenMs);
        let a = run_cell(&cell, 0, 7, SanitizeLevel::Off, None);
        assert_eq!(
            a.digest,
            run_cell(&cell, 0, 7, SanitizeLevel::Off, None).digest
        );
        assert_ne!(
            a.digest,
            run_cell(&cell, 0, 8, SanitizeLevel::Off, None).digest
        );
        assert_ne!(
            a.digest,
            run_cell(&cell, 1, 7, SanitizeLevel::Off, None).digest
        );
    }

    #[test]
    fn a_failing_cell_is_counted_not_propagated() {
        let mut cell = tiny(CollectorKind::MarkSweep);
        if let CellSpec::Jvm(c) = &mut cell {
            c.heap_bytes = 64 << 10;
        }
        let out = run_cell(&cell, 0, 7, SanitizeLevel::Off, None);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn count_names_match_the_enum() {
        assert_eq!(
            COUNT_NAMES[Count::SimDeliveries as usize],
            "simulate.deliveries"
        );
        assert_eq!(
            COUNT_NAMES[Count::HeapPagesPeak as usize],
            "heap.pages_peak"
        );
        assert_eq!(
            COUNT_NAMES[Count::BcPagesScanned as usize],
            "bookmarking.pages_scanned"
        );
        assert_eq!(
            COUNT_NAMES[Count::VmmRelinquished as usize],
            "vmm.relinquished"
        );
    }

    #[test]
    fn isolation_primitives_run() {
        assert!(vmm_touch_hit(1_000, 1) > 0.0);
        assert!(vmm_touch_hit(1_000, 8) > 0.0);
        assert!(vmm_touch_miss(1_000) > 0.0);
        assert!(vmm_touch_zero_fill(1_000) > 0.0);
        assert!(vmm_fault_evict(1_000) > 0.0);
        assert!(vmm_pump_idle(1_000) > 0.0);
        assert!(vmm_madvise(512) > 0.0);
        assert!(vmm_relinquish(512) > 0.0);
        assert!(simmem_rw(1_000) > 0.0);
        assert!(simmem_copy(1_000) > 0.0);
        assert!(simmem_zero(1_000) > 0.0);
        for sink in [EmitSink::Off, EmitSink::Ring, EmitSink::Jsonl] {
            assert!(telemetry_emit(1_000, sink) >= 0.0);
        }
        for op in [IsoOp::Alloc, IsoOp::WriteRef, IsoOp::MinorGc, IsoOp::FullGc] {
            let samples = gcheap_op(CollectorKind::GenMs, op, 1, 2, 2_000);
            assert_eq!(samples.len(), 2, "{op:?}");
            assert!(samples.iter().all(|&ns| ns > 0.0), "{op:?}");
        }
        assert!(engine_step_ns(2, 1_000) > 0.0);
        let (wall, slices) = fleet_spin(16, 3);
        assert!(wall > 0.0);
        assert_eq!(slices, 48);
        let (us, pages) = bc_evict_page_us();
        assert!(pages > 0 && us > 0.0, "BC gave up no pages under pressure");
    }
}
