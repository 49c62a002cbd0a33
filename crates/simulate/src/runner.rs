//! Single- and multi-JVM benchmark runs, and the minimum-heap search.

use heap::{GcStats, HeapConfig, MetricsSnapshot, PolicyKind, SanitizeLevel};
use simtime::{CostModel, Nanos, PauseRecord, PauseStats};
use telemetry::Tracer;
use vmm::{VmStats, Vmm, VmmConfig};

use crate::collector_kind::CollectorKind;
use crate::driver::{Driver, JvmProcess, Turns};
use crate::program::Program;
use crate::signalmem::{Signalmem, SignalmemConfig};

/// Configuration for one benchmark execution.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The collector under test.
    pub collector: CollectorKind,
    /// Heap size (the experiments' x-axis in Figures 2–3).
    pub heap_bytes: usize,
    /// Physical memory available to the machine.
    pub memory_bytes: usize,
    /// Optional memory pressure.
    pub pressure: Option<SignalmemConfig>,
    /// Cost model (defaults to the paper's testbed).
    pub costs: CostModel,
    /// Turn limit (thrashing abort).
    pub max_steps: u64,
    /// Structured-event sink shared by every JVM and the VMM. Disabled by
    /// default; emitting is then a single branch per event site.
    pub tracer: Tracer,
    /// Heap-sizing policy override. `None` keeps each collector's default
    /// (`Fixed` for the baselines; BC's shrink-to-footprint for BC).
    pub policy: Option<PolicyKind>,
    /// Sanitizer level for every JVM in the run (`Off` by default; `Full`
    /// shadow-re-traces after each collection without changing results).
    pub sanitize: SanitizeLevel,
    /// A seeded collector bug, armed once per JVM, for sanitizer
    /// self-tests; `None` (the default) outside `tests/sanitize_faults.rs`.
    pub sanitize_fault: Option<heap::InjectFault>,
    /// Simulated GC worker count for every JVM's packet tracer; 1 (the
    /// default) reproduces the sequential tracer byte-for-byte.
    pub gc_threads: usize,
}

impl RunConfig {
    /// A run with the given collector and heap over `memory_bytes` of RAM.
    pub fn new(collector: CollectorKind, heap_bytes: usize, memory_bytes: usize) -> RunConfig {
        RunConfig {
            collector,
            heap_bytes,
            memory_bytes,
            pressure: None,
            costs: CostModel::default(),
            max_steps: 200_000_000,
            tracer: Tracer::disabled(),
            policy: None,
            sanitize: SanitizeLevel::Off,
            sanitize_fault: None,
            gc_threads: 1,
        }
    }
}

/// Metrics from one JVM's run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The collector that ran.
    pub collector: CollectorKind,
    /// Benchmark name.
    pub benchmark: String,
    /// Total execution time (simulated).
    pub exec_time: Nanos,
    /// Whether the heap was exhausted.
    pub oom: bool,
    /// Whether the driver aborted the run (thrashing beyond the turn cap).
    pub timed_out: bool,
    /// Pause summary.
    pub pauses: PauseStats,
    /// Full pause log (input to BMU curves).
    pub pause_records: Vec<PauseRecord>,
    /// Collector counters.
    pub gc: GcStats,
    /// Paging counters.
    pub vm: VmStats,
    /// Unified GC + VM metrics (satellite of the telemetry subsystem); the
    /// `gc`, `vm`, and `pauses` fields above are views of the same data.
    pub metrics: MetricsSnapshot,
}

impl RunResult {
    /// Whether the run completed normally.
    pub fn ok(&self) -> bool {
        !self.oom && !self.timed_out
    }
}

/// Results of a multi-JVM run (Figure 7).
#[derive(Clone, Debug)]
pub struct MultiRunResult {
    /// Per-JVM results.
    pub jvms: Vec<RunResult>,
    /// Wall-clock elapsed: the latest finish time.
    pub total_elapsed: Nanos,
}

/// The metrics of one of `driver`'s JVMs, which ran as `collector`.
pub fn run_result(driver: &Driver, jvm: &JvmProcess, collector: CollectorKind) -> RunResult {
    let vm = driver.vmm.stats(jvm.pid);
    RunResult {
        collector,
        benchmark: jvm.program.name().to_string(),
        exec_time: jvm.finish_time.unwrap_or(jvm.clock.now()),
        oom: jvm.failed.is_some(),
        timed_out: driver.timed_out(),
        pauses: jvm.gc.pause_log().stats(),
        pause_records: jvm.gc.pause_log().records().to_vec(),
        gc: *jvm.gc.stats(),
        vm: *vm,
        metrics: jvm.gc.metrics(vm),
    }
}

/// The one way a machine is assembled and run: builds the [`Vmm`] (`shards`
/// partitions), registers a process and builds a `config.collector` heap for
/// every program, attaches signalmem if `config.pressure` asks for it, and
/// takes turns in the given order until every program is done.
pub(crate) fn drive(
    config: &RunConfig,
    shards: usize,
    order: Turns,
    programs: impl Iterator<Item = Box<dyn Program>>,
) -> Driver {
    let mut vmm = Vmm::new(
        VmmConfig::builder()
            .memory_bytes(config.memory_bytes)
            .shards(shards)
            .build(),
        config.costs.clone(),
    );
    vmm.set_tracer(config.tracer.clone());
    let mut jvms = Vec::with_capacity(programs.size_hint().0);
    for program in programs {
        let pid = vmm.register_process();
        let mut heap = HeapConfig::builder()
            .heap_bytes(config.heap_bytes)
            .tracer(config.tracer.clone())
            .sanitize(config.sanitize)
            .gc_threads(config.gc_threads)
            .build();
        heap.sanitize_fault = config.sanitize_fault;
        if let Some(policy) = config.policy {
            heap.policy = policy;
        }
        let gc = config.collector.build(heap, &mut vmm, pid);
        jvms.push(JvmProcess::new(pid, gc, program));
    }
    let signalmem = config
        .pressure
        .map(|pressure| Signalmem::new(pressure, vmm.register_process()));
    let mut driver = Driver::new(vmm);
    driver.jvms = jvms;
    driver.signalmem = signalmem;
    driver.max_turns = config.max_steps;
    driver.order = order;
    driver.run_to_completion();
    driver
}

/// Runs one benchmark on one collector.
pub fn run(config: &RunConfig, program: Box<dyn Program>) -> RunResult {
    run_multi(config, vec![program]).jvms.remove(0)
}

/// Runs `programs.len()` JVM instances simultaneously (each with its own
/// `config.heap_bytes` heap), as in the paper's multiple-JVM experiment.
pub fn run_multi(config: &RunConfig, programs: Vec<Box<dyn Program>>) -> MultiRunResult {
    let driver = drive(config, 1, Turns::LeastClock, programs.into_iter());
    let jvms: Vec<RunResult> = driver
        .jvms
        .iter()
        .map(|jvm| run_result(&driver, jvm, config.collector))
        .collect();
    let total_elapsed = jvms
        .iter()
        .map(|r| r.exec_time)
        .max()
        .unwrap_or(Nanos::ZERO);
    MultiRunResult {
        jvms,
        total_elapsed,
    }
}

/// Binary-searches the minimum heap (in bytes, `granularity`-aligned) in
/// which `make_program()` completes without exhausting the heap — the
/// "Min. Heap" column of Table 1.
pub fn min_heap_search(
    collector: CollectorKind,
    memory_bytes: usize,
    make_program: &dyn Fn() -> Box<dyn Program>,
    lo_bytes: usize,
    hi_bytes: usize,
    granularity: usize,
) -> Option<usize> {
    let fits = |heap: usize| -> bool {
        let config = RunConfig::new(collector, heap, memory_bytes);
        let result = run(&config, make_program());
        result.ok()
    };
    let mut lo = lo_bytes / granularity; // lo: may or may not fit
    let mut hi = hi_bytes / granularity; // hi: must fit
    if !fits(hi * granularity) {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid * granularity) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi * granularity)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::Churn;

    #[test]
    fn run_completes_and_reports_metrics() {
        let config = RunConfig::new(CollectorKind::GenMs, 2 << 20, 64 << 20);
        let result = run(&config, Box::new(Churn::new(50_000, 5_000)));
        assert!(result.ok(), "{result:?}");
        assert_eq!(result.benchmark, "churn");
        assert!(result.exec_time > Nanos::ZERO);
        assert_eq!(result.gc.objects_allocated, 50_000);
        assert!(result.gc.total_gcs() >= 1);
        assert!(result.pauses.count >= 1);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        // 5_000 live 32-byte objects (~160 KiB + churn) cannot fit 128 KiB.
        let config = RunConfig::new(CollectorKind::MarkSweep, 128 << 10, 64 << 20);
        let result = run(&config, Box::new(Churn::new(50_000, 5_000)));
        assert!(result.oom);
        assert!(!result.ok());
    }

    #[test]
    fn min_heap_search_brackets_the_live_set() {
        let make = || Box::new(Churn::new(20_000, 2_000)) as Box<dyn Program>;
        let min = min_heap_search(
            CollectorKind::MarkSweep,
            64 << 20,
            &make,
            64 << 10,
            16 << 20,
            64 << 10,
        )
        .expect("16 MB must fit");
        // Live set is ~64 KiB; the minimum heap must be between that and
        // a couple of MB.
        assert!(min >= 64 << 10, "min heap {min} absurdly small");
        assert!(min <= 4 << 20, "min heap {min} absurdly large");
        // And it must actually fit while min - granularity must not.
        let at_min = run(
            &RunConfig::new(CollectorKind::MarkSweep, min, 64 << 20),
            make(),
        );
        assert!(at_min.ok());
    }

    #[test]
    fn every_collector_finishes_the_churn() {
        for kind in CollectorKind::ALL {
            let config = RunConfig::new(kind, 8 << 20, 64 << 20);
            let result = run(&config, Box::new(Churn::new(30_000, 3_000)));
            assert!(
                result.ok(),
                "{kind} failed: oom={} timeout={}",
                result.oom,
                result.timed_out
            );
            assert_eq!(result.collector, kind);
        }
    }

    #[test]
    fn two_jvms_share_the_machine() {
        let config = RunConfig::new(CollectorKind::Bc, 4 << 20, 64 << 20);
        let result = run_multi(
            &config,
            vec![
                Box::new(Churn::new(20_000, 2_000)),
                Box::new(Churn::new(20_000, 2_000)),
            ],
        );
        assert_eq!(result.jvms.len(), 2);
        assert!(result.jvms.iter().all(super::RunResult::ok));
        assert!(result.total_elapsed >= result.jvms[0].exec_time.min(result.jvms[1].exec_time));
    }

    #[test]
    fn pressure_slows_oblivious_collectors() {
        // Same workload, with and without signalmem squeezing the machine.
        let memory = 8 << 20; // 2048 frames
        let mut base = RunConfig::new(CollectorKind::GenMs, 4 << 20, memory);
        base.max_steps = 10_000_000;
        let calm = run(&base, Box::new(Churn::new(100_000, 30_000)));
        assert!(calm.ok());
        let mut squeezed = base.clone();
        squeezed.pressure = Some(SignalmemConfig::dynamic(6 << 20, Nanos::ZERO));
        let hot = run(&squeezed, Box::new(Churn::new(100_000, 30_000)));
        assert!(
            hot.exec_time > calm.exec_time,
            "pressure should cost time: {} vs {}",
            hot.exec_time,
            calm.exec_time
        );
        assert!(hot.vm.major_faults > calm.vm.major_faults);
    }
}
