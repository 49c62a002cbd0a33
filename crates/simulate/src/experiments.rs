//! Parameter sweeps reproducing the paper's experiments (§5).
//!
//! Each function runs one experimental condition and returns raw
//! [`RunResult`]s; the `bench` crate's `figures` binary formats them into
//! the tables and series the paper plots. Workload construction is left to
//! a caller-supplied factory so these harnesses work with any benchmark
//! from the `workloads` crate.

use heap::{GcStats, SanitizeLevel};
use simtime::Nanos;
use vmm::VmStats;

use crate::driver::Turns;
use crate::program::Program;
use crate::runner::{drive, run, run_multi, MultiRunResult, RunConfig, RunResult};
use crate::signalmem::SignalmemConfig;
use crate::CollectorKind;

/// A workload factory: builds a fresh instance of the benchmark program.
pub type MakeProgram<'a> = &'a dyn Fn() -> Box<dyn Program>;

/// One point of a heap-size sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The heap size of this run.
    pub heap_bytes: usize,
    /// The run's metrics.
    pub result: RunResult,
}

/// Figure 2: execution time as a function of heap size, without memory
/// pressure (physical memory is ample).
pub fn no_pressure_sweep(
    collector: CollectorKind,
    heaps: &[usize],
    memory_bytes: usize,
    make: MakeProgram<'_>,
) -> Vec<SweepPoint> {
    heaps
        .iter()
        .map(|&heap_bytes| {
            let config = RunConfig::new(collector, heap_bytes, memory_bytes);
            SweepPoint {
                heap_bytes,
                result: run(&config, make()),
            }
        })
        .collect()
}

/// Figure 3: steady memory pressure. Signalmem immediately pins
/// `pin_fraction` of the heap size (the paper pins 60 %), simulating
/// another process's working set.
pub fn steady_pressure(
    collector: CollectorKind,
    heap_bytes: usize,
    memory_bytes: usize,
    pin_fraction: f64,
    make: MakeProgram<'_>,
) -> RunResult {
    let config = steady_pressure_config(collector, heap_bytes, memory_bytes, pin_fraction);
    run(&config, make())
}

/// The [`RunConfig`] behind [`steady_pressure`], for callers that want to
/// adjust it (e.g. attach a [`telemetry::Tracer`]) before running.
pub fn steady_pressure_config(
    collector: CollectorKind,
    heap_bytes: usize,
    memory_bytes: usize,
    pin_fraction: f64,
) -> RunConfig {
    let pinned = (heap_bytes as f64 * pin_fraction) as usize;
    let mut config = RunConfig::new(collector, heap_bytes, memory_bytes);
    config.pressure = Some(SignalmemConfig::steady(pinned, Nanos::from_millis(1)));
    config
}

/// Figures 4–6: dynamic memory pressure. Signalmem pins 30 MB (scaled by
/// `scale`), then 1 MB (scaled) per 100 ms, until available memory falls to
/// `target_available_bytes`.
pub fn dynamic_pressure(
    collector: CollectorKind,
    heap_bytes: usize,
    memory_bytes: usize,
    target_available_bytes: usize,
    scale: f64,
    make: MakeProgram<'_>,
) -> RunResult {
    let config = dynamic_pressure_config(
        collector,
        heap_bytes,
        memory_bytes,
        target_available_bytes,
        scale,
    );
    run(&config, make())
}

/// The [`RunConfig`] behind [`dynamic_pressure`], for callers that want to
/// adjust it (e.g. attach a [`telemetry::Tracer`]) before running.
pub fn dynamic_pressure_config(
    collector: CollectorKind,
    heap_bytes: usize,
    memory_bytes: usize,
    target_available_bytes: usize,
    scale: f64,
) -> RunConfig {
    let total = memory_bytes.saturating_sub(target_available_bytes);
    let mut pressure = SignalmemConfig::dynamic(total, Nanos::from_millis(1));
    // The ramp scales with the workload: at `scale` volume the run is
    // `scale` times shorter, so the 30 MB + 1 MB/100 ms shape shrinks by
    // the same factor to hit the same phase of execution.
    pressure.initial_pages = ((pressure.initial_pages as f64) * scale) as usize;
    pressure.step_pages = ((pressure.step_pages as f64) * scale).max(1.0) as usize;
    // (The extra 0.2 matches the simulator's shorter calm-run times: the
    // ramp completes in the first half of a calm-speed run, as in the
    // paper, so every collector faces the same end-state pressure for a
    // substantial fraction of its execution.)
    pressure.interval = Nanos((pressure.interval.as_nanos() as f64 * scale * 0.2) as u64);
    let mut config = RunConfig::new(collector, heap_bytes, memory_bytes);
    config.pressure = Some(pressure);
    config
}

/// Figure 7: two JVM instances running simultaneously, each with its own
/// heap of `heap_bytes`, with physical memory restricted to
/// `memory_bytes`.
pub fn multi_jvm(
    collector: CollectorKind,
    heap_bytes: usize,
    memory_bytes: usize,
    make: MakeProgram<'_>,
) -> MultiRunResult {
    let config = RunConfig::new(collector, heap_bytes, memory_bytes);
    run_multi(&config, vec![make(), make()])
}

/// Configuration for a scaled multi-tenant run (the `fig7_scale`
/// experiment): `tenants` simulated mutators sharing one sharded VMM under
/// the driver's round-robin time slices.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The collector every tenant runs.
    pub collector: CollectorKind,
    /// Number of simulated mutator processes.
    pub tenants: usize,
    /// Per-tenant heap size.
    pub tenant_heap_bytes: usize,
    /// Physical memory shared by the whole fleet.
    pub memory_bytes: usize,
    /// VMM shard count (frame pool and page-table partitions).
    pub shards: usize,
    /// Round-robin time slice.
    pub quantum: Nanos,
    /// Abort knob: the slice limit.
    pub max_slices: u64,
    /// Sanitizer level for every tenant heap (`Off` by default).
    pub sanitize: SanitizeLevel,
}

impl FleetConfig {
    /// A fleet of `tenants` processes of `collector`, with shard count
    /// scaled to the tenancy (one shard per 256 tenants, capped at 8).
    pub fn new(
        collector: CollectorKind,
        tenants: usize,
        tenant_heap_bytes: usize,
        memory_bytes: usize,
    ) -> FleetConfig {
        FleetConfig {
            collector,
            tenants,
            tenant_heap_bytes,
            memory_bytes,
            shards: (tenants / 256).clamp(1, 8),
            quantum: Nanos::from_micros(100),
            max_slices: 50_000_000,
            sanitize: SanitizeLevel::Off,
        }
    }
}

/// One tenant's outcome in a fleet run.
#[derive(Clone, Copy, Debug)]
pub struct TenantResult {
    /// Whether this tenant's heap was exhausted.
    pub oom: bool,
    /// Completion instant (this tenant's virtual CPU), if it finished.
    pub finish_time: Option<Nanos>,
    /// Paging counters.
    pub vm: VmStats,
    /// Collector counters.
    pub gc: GcStats,
}

impl TenantResult {
    /// Whether the tenant completed normally.
    pub fn ok(&self) -> bool {
        !self.oom && self.finish_time.is_some()
    }
}

/// Results of a fleet run, including the per-tenant counters the fairness
/// statistics are computed from.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Per-tenant outcomes, in registration order.
    pub tenants: Vec<TenantResult>,
    /// Wall-clock elapsed: the latest tenant finish time.
    pub total_elapsed: Nanos,
    /// Notification deliveries across the fleet (the pump-cost counter;
    /// stays proportional to events however many tenants idle).
    pub deliveries: u64,
    /// Time slices executed.
    pub slices: u64,
    /// Whether the run hit its slice limit.
    pub timed_out: bool,
}

impl FleetResult {
    /// How many tenants completed normally.
    pub fn completed(&self) -> usize {
        self.tenants.iter().filter(|t| t.ok()).count()
    }
}

/// Scaled Figure 7: `config.tenants` simultaneous mutators (hundreds to
/// thousands) time-sliced over one sharded VMM. `make` builds tenant `i`'s
/// program; callers split a constant total workload across the fleet so
/// runs are comparable along the tenancy axis.
pub fn run_fleet(config: &FleetConfig, make: &dyn Fn(usize) -> Box<dyn Program>) -> FleetResult {
    let mut run_config = RunConfig::new(
        config.collector,
        config.tenant_heap_bytes,
        config.memory_bytes,
    );
    run_config.sanitize = config.sanitize;
    run_config.max_steps = config.max_slices;
    let driver = drive(
        &run_config,
        config.shards,
        Turns::RoundRobin(config.quantum),
        (0..config.tenants).map(make),
    );
    let tenants: Vec<TenantResult> = driver
        .jvms
        .iter()
        .map(|t| TenantResult {
            oom: t.failed.is_some(),
            finish_time: t.finish_time,
            vm: *driver.vmm.stats(t.pid),
            gc: *t.gc.stats(),
        })
        .collect();
    let total_elapsed = tenants
        .iter()
        .filter_map(|t| t.finish_time)
        .max()
        .unwrap_or(Nanos::ZERO);
    FleetResult {
        tenants,
        total_elapsed,
        deliveries: driver.total_deliveries(),
        slices: driver.turns(),
        timed_out: driver.timed_out(),
    }
}
