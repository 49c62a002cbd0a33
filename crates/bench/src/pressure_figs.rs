//! The memory-pressure experiments: Figures 3–7.
//!
//! All of these run the pseudoJBB analogue (the paper: "This benchmark is
//! widely considered to be the most representative of a server workload and
//! is the only one of our benchmarks with a significant memory footprint").

use simtime::{bmu_curve, Nanos};
use simulate::experiments::{
    dynamic_pressure_config, run_fleet, steady_pressure_config, FleetConfig, FleetResult,
};
use simulate::{run, run_multi, CollectorKind, PolicyKind, Program, RunConfig, RunResult};
use workloads::spec;

use crate::pool::parallel_map;
use crate::report::Table;
use crate::{scaled, Params};

fn pseudo_jbb(params: &Params) -> impl Fn() -> Box<dyn Program> + '_ {
    let b = spec("pseudoJBB").expect("pseudoJBB spec");
    let scale = params.scale;
    let seed = params.seed;
    move || Box::new(b.program(scale, seed))
}

fn cell_time(r: &RunResult) -> String {
    if r.ok() {
        r.exec_time.to_string()
    } else if r.oom {
        "OOM".into()
    } else {
        "timeout".into()
    }
}

fn cell_pause(r: &RunResult) -> String {
    if r.pauses.count == 0 {
        "-".into()
    } else {
        r.pauses.mean.to_string()
    }
}

/// **Figure 3**: steady memory pressure. For each heap size, signalmem
/// immediately pins memory "equal to 60 % of the heap size"; physical
/// memory is sized so the run would otherwise just fit (§5.3.1).
///
/// Returns (a) execution-time and (b) average-pause tables, heap sizes in
/// columns (paper-equivalent sizes shown), collectors in rows.
pub fn fig3_report(params: &Params) -> (Table, Table) {
    // The paper sweeps pseudoJBB heaps from ~60 MB to ~180 MB.
    let paper_heaps = params.thin(&[60 << 20, 90 << 20, 120 << 20, 150 << 20, 180 << 20]);
    let headers: Vec<String> = std::iter::once("Collector".to_string())
        .chain(paper_heaps.iter().map(|h| format!("{}MB heap", h >> 20)))
        .collect();
    let mut ta = Table::new(headers.clone());
    ta.caption = "Figure 3a: execution time under steady pressure (60% of heap pinned)".into();
    let mut tb = Table::new(headers);
    tb.caption = "Figure 3b: average GC pause under steady pressure".into();
    let make = pseudo_jbb(params);
    let kinds = CollectorKind::PRESSURE;
    let cells: Vec<(CollectorKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| paper_heaps.iter().map(move |&h| (kind, h)))
        .collect();
    let results = parallel_map(params.jobs, &cells, |_, &(kind, paper_heap)| {
        let heap = scaled(params, paper_heap);
        // Figure 3's caption: "available memory is sufficient to hold
        // only 40% of the heap" — signalmem pins 60% of the heap out of
        // a machine sized just above the heap itself.
        let memory = heap + scaled(params, 8 << 20);
        let mut config = steady_pressure_config(kind, heap, memory, 0.6);
        config.sanitize = params.sanitize;
        config.gc_threads = params.gc_threads;
        run(&config, make())
    });
    for (ki, &kind) in kinds.iter().enumerate() {
        let row = &results[ki * paper_heaps.len()..(ki + 1) * paper_heaps.len()];
        let mut ra = vec![kind.label().to_string()];
        let mut rb = vec![kind.label().to_string()];
        for r in row {
            ra.push(cell_time(r));
            rb.push(cell_pause(r));
        }
        ta.row(ra);
        tb.row(rb);
    }
    (ta, tb)
}

/// The available-memory x-axis of the dynamic-pressure figures
/// (paper-equivalent bytes; the paper's plots span roughly 93–160 MB of
/// available memory).
pub const DYNAMIC_AVAILABLE: [usize; 9] = [
    160 << 20,
    143 << 20,
    125 << 20,
    109 << 20,
    93 << 20,
    77 << 20,
    60 << 20,
    44 << 20,
    36 << 20,
];

/// Paper-equivalent heap for the dynamic-pressure runs (Figure 7 uses
/// 77 MB heaps; Figures 4–6 are reported at a comparable fixed heap).
const DYNAMIC_PAPER_HEAP: usize = 100 << 20;
/// Paper-equivalent physical memory for the dynamic-pressure runs.
const DYNAMIC_PAPER_MEMORY: usize = 224 << 20;

fn dynamic_run(params: &Params, kind: CollectorKind, paper_available: usize) -> RunResult {
    let heap = scaled(params, DYNAMIC_PAPER_HEAP);
    let memory = scaled(params, DYNAMIC_PAPER_MEMORY);
    let target = scaled(params, paper_available);
    let make = pseudo_jbb(params);
    let mut config = dynamic_pressure_config(kind, heap, memory, target, params.scale);
    config.sanitize = params.sanitize;
    config.gc_threads = params.gc_threads;
    run(&config, make())
}

fn dynamic_table(
    params: &Params,
    kinds: &[CollectorKind],
    caption: &str,
    cell: impl Fn(&RunResult) -> String,
) -> Table {
    let sweep = params.thin(&DYNAMIC_AVAILABLE);
    let headers: Vec<String> = std::iter::once("Collector".to_string())
        .chain(sweep.iter().map(|a| format!("{}MB avail", a >> 20)))
        .collect();
    let mut t = Table::new(headers);
    t.caption = caption.into();
    let cells: Vec<(CollectorKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| sweep.iter().map(move |&avail| (kind, avail)))
        .collect();
    let results = parallel_map(params.jobs, &cells, |_, &(kind, avail)| {
        dynamic_run(params, kind, avail)
    });
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut row = vec![kind.label().to_string()];
        for r in &results[ki * sweep.len()..(ki + 1) * sweep.len()] {
            row.push(cell(r));
        }
        t.row(row);
    }
    t
}

/// **Figure 4**: average GC pause time under dynamically increasing memory
/// pressure (signalmem: 30 MB, then 1 MB/100 ms).
pub fn fig4_report(params: &Params) -> Table {
    dynamic_table(
        params,
        &CollectorKind::PRESSURE,
        "Figure 4: average GC pause under dynamic pressure (paper-equivalent available memory)",
        cell_pause,
    )
}

/// **Figure 5a**: execution time under dynamic pressure, including the
/// resizing-only BC ablation ("BC w/Resizing only").
pub fn fig5a_report(params: &Params) -> Table {
    let kinds = [
        CollectorKind::Bc,
        CollectorKind::BcResizeOnly,
        CollectorKind::SemiSpace,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
    ];
    dynamic_table(
        params,
        &kinds,
        "Figure 5a: execution time under dynamic pressure",
        cell_time,
    )
}

/// **Figure 5b**: execution time for the fixed-size-nursery (4 MB)
/// generational variants.
pub fn fig5b_report(params: &Params) -> Table {
    let kinds = [
        CollectorKind::Bc,
        CollectorKind::GenCopyFixed,
        CollectorKind::GenMsFixed,
    ];
    dynamic_table(
        params,
        &kinds,
        "Figure 5b: execution time, fixed-size (4MB) nursery variants",
        cell_time,
    )
}

/// **Figure 6**: bounded mutator utilization under dynamic pressure, at
/// moderate (paper: 143 MB) and heavy (paper: 93 MB) available memory.
///
/// Returns one table per availability level: collectors in rows, window
/// sizes in columns, utilization in cells.
pub fn fig6_report(params: &Params) -> Vec<Table> {
    let kinds = [
        CollectorKind::Bc,
        CollectorKind::BcResizeOnly,
        CollectorKind::MarkSweep,
        CollectorKind::SemiSpace,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
    ];
    let mut out = Vec::new();
    let levels: &[(usize, &str)] = if params.sweep == crate::SweepDepth::Quick {
        &[(36 << 20, "93MB-equivalent (heavy)")]
    } else {
        &[
            (60 << 20, "143MB-equivalent (moderate)"),
            (36 << 20, "93MB-equivalent (heavy)"),
        ]
    };
    for &(avail, label) in levels {
        // Evaluate BMU at fixed fractions of each run's length so rows are
        // comparable; report the absolute windows of the BC run.
        let results = parallel_map(params.jobs, &kinds, |_, &kind| {
            dynamic_run(params, kind, avail)
        });
        let rows: Vec<(CollectorKind, RunResult)> = kinds.iter().copied().zip(results).collect();
        let windows: Vec<Nanos> = {
            // Span from sub-pause windows up to the slowest run's length,
            // as the paper's log-scale x-axis does (its windows reach
            // 10-minute scales for the thrashing collectors).
            let max_exec = rows
                .iter()
                .map(|(_, r)| r.exec_time)
                .max()
                .unwrap_or(Nanos::from_secs(1));
            [0.00001, 0.0001, 0.001, 0.01, 0.1, 0.3, 1.0]
                .iter()
                .map(|f| Nanos((max_exec.as_nanos() as f64 * f) as u64))
                .collect()
        };
        let headers: Vec<String> = std::iter::once("Collector".to_string())
            .chain(windows.iter().map(|w| format!("w={w}")))
            .collect();
        let mut t = Table::new(headers);
        t.caption =
            format!("Figure 6 ({label} paper-equivalent available): bounded mutator utilization");
        for (kind, r) in rows {
            let curve = bmu_curve(&r.pause_records, r.exec_time, 64);
            let mut row = vec![kind.label().to_string()];
            for &w in &windows {
                // Utilization at the smallest evaluated window >= w.
                let u = curve
                    .iter()
                    .find(|p| p.window >= w)
                    .or(curve.last())
                    .map_or(0.0, |p| p.utilization);
                row.push(format!("{u:.3}"));
            }
            t.row(row);
        }
        out.push(t);
    }
    out
}

/// The sizing policies the policy figure compares, in reporting order.
pub const POLICY_MATRIX: [PolicyKind; 3] = [
    PolicyKind::Fixed,
    PolicyKind::BcFootprint { regrow: false },
    PolicyKind::MemBalancer,
];

/// **Policy figure**: every pressure collector × heap-sizing policy under
/// Figure 5's dynamic pressure, as a total-memory × end-to-end-time Pareto
/// table.
///
/// Each collector's rows are its three policies; `pareto` marks rows no
/// other same-collector policy dominates (≤ on both the execution-time and
/// peak-heap axes, < on at least one). Failed runs (OOM/timeout) never earn
/// the marker and cannot dominate.
pub fn fig_policy_report(params: &Params) -> Table {
    let mut t = Table::new(vec![
        "Collector",
        "Policy",
        "Time",
        "Peak heap (pages)",
        "Major faults",
        "GCs",
        "Shrinks",
        "Grows",
        "Pareto",
    ]);
    t.caption =
        "Policy figure: total memory x end-to-end time under dynamic pressure (fig5 setup)".into();
    let runs = fig_policy_runs(params);
    for group in runs.chunks(POLICY_MATRIX.len()) {
        for (pi, (kind, policy, r)) in group.iter().enumerate() {
            let dominated = r.ok()
                && group
                    .iter()
                    .enumerate()
                    .any(|(oi, (_, _, o))| oi != pi && o.ok() && dominates(o, r));
            t.row(vec![
                kind.label().to_string(),
                policy.label().to_string(),
                cell_time(r),
                format!("{}", r.metrics.heap_pages_peak),
                format!("{}", r.vm.major_faults),
                format!("{}", r.gc.total_gcs()),
                format!("{}", r.gc.heap_shrinks),
                format!("{}", r.gc.heap_regrows),
                if !r.ok() {
                    "-".into()
                } else if dominated {
                    "".into()
                } else {
                    "*".into()
                },
            ]);
        }
    }
    t
}

/// The raw runs behind [`fig_policy_report`]: the policy matrix for every
/// Figure 5a collector, grouped collector-major in [`POLICY_MATRIX`]
/// order.
pub fn fig_policy_runs(params: &Params) -> Vec<(CollectorKind, PolicyKind, RunResult)> {
    let kinds = [
        CollectorKind::Bc,
        CollectorKind::BcResizeOnly,
        CollectorKind::SemiSpace,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
    ];
    let make = pseudo_jbb(params);
    let cells: Vec<(CollectorKind, PolicyKind)> = kinds
        .iter()
        .flat_map(|&kind| POLICY_MATRIX.iter().map(move |&p| (kind, p)))
        .collect();
    let results = parallel_map(params.jobs, &cells, |_, &(kind, policy)| {
        let heap = scaled(params, DYNAMIC_PAPER_HEAP);
        let memory = scaled(params, DYNAMIC_PAPER_MEMORY);
        let target = scaled(params, 36 << 20);
        let mut config = dynamic_pressure_config(kind, heap, memory, target, params.scale);
        config.policy = Some(policy);
        config.sanitize = params.sanitize;
        config.gc_threads = params.gc_threads;
        simulate::run(&config, make())
    });
    cells
        .into_iter()
        .zip(results)
        .map(|((kind, policy), r)| (kind, policy, r))
        .collect()
}

/// Whether run `a` Pareto-dominates run `b` on (execution time, peak heap):
/// no worse on both axes and strictly better on at least one.
pub fn dominates(a: &RunResult, b: &RunResult) -> bool {
    let (ta, tb) = (a.exec_time, b.exec_time);
    let (pa, pb) = (a.metrics.heap_pages_peak, b.metrics.heap_pages_peak);
    ta <= tb && pa <= pb && (ta < tb || pa < pb)
}

/// **Figure 7**: two simultaneous pseudoJBB JVMs, 77 MB heaps each, as
/// physical memory shrinks. Reports (a) total elapsed time and (b) average
/// GC pause across both instances.
pub fn fig7_report(params: &Params) -> (Table, Table) {
    let paper_memory = params.thin(&[256 << 20, 224 << 20, 192 << 20, 160 << 20]);
    let headers: Vec<String> = std::iter::once("Collector".to_string())
        .chain(paper_memory.iter().map(|m| format!("{}MB RAM", m >> 20)))
        .collect();
    let mut ta = Table::new(headers.clone());
    ta.caption = "Figure 7a: total elapsed time, two pseudoJBB instances (77MB heaps)".into();
    let mut tb = Table::new(headers);
    tb.caption = "Figure 7b: average GC pause, two pseudoJBB instances".into();
    let make = pseudo_jbb(params);
    let kinds = CollectorKind::PRESSURE;
    let cells: Vec<(CollectorKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| paper_memory.iter().map(move |&m| (kind, m)))
        .collect();
    let results = parallel_map(params.jobs, &cells, |_, &(kind, mem)| {
        let heap = scaled(params, 77 << 20);
        let memory = scaled(params, mem);
        let mut config = RunConfig::new(kind, heap, memory);
        config.sanitize = params.sanitize;
        config.gc_threads = params.gc_threads;
        run_multi(&config, vec![make(), make()])
    });
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut ra = vec![kind.label().to_string()];
        let mut rb = vec![kind.label().to_string()];
        for result in &results[ki * paper_memory.len()..(ki + 1) * paper_memory.len()] {
            ra.push(result.total_elapsed.to_string());
            let total_pause: u64 = result.jvms.iter().map(|r| r.pauses.total.as_nanos()).sum();
            let count: u64 = result.jvms.iter().map(|r| r.pauses.count).sum();
            rb.push(match total_pause.checked_div(count) {
                None => "-".into(),
                Some(mean) => Nanos(mean).to_string(),
            });
        }
        ta.row(ra);
        tb.row(rb);
    }
    (ta, tb)
}

/// The GC-worker axis of the parallel-tracing figure.
pub const PARALLEL_THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// The raw runs behind [`fig_parallel_report`]: every Figure 5a collector
/// × GC-worker count in [`PARALLEL_THREADS`], under Figure 4/5's dynamic
/// pressure at the heavy (93 MB paper-equivalent) availability, grouped
/// collector-major.
///
/// The worker axis is never thinned: it *is* the figure's x-axis, and the
/// golden test pins the whole pause-vs-workers curve.
pub fn fig_parallel_runs(params: &Params) -> Vec<(CollectorKind, usize, RunResult)> {
    let kinds = [
        CollectorKind::Bc,
        CollectorKind::BcResizeOnly,
        CollectorKind::SemiSpace,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
    ];
    let make = pseudo_jbb(params);
    let cells: Vec<(CollectorKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| PARALLEL_THREADS.iter().map(move |&n| (kind, n)))
        .collect();
    let results = parallel_map(params.jobs, &cells, |_, &(kind, threads)| {
        let heap = scaled(params, DYNAMIC_PAPER_HEAP);
        let memory = scaled(params, DYNAMIC_PAPER_MEMORY);
        let target = scaled(params, 93 << 20);
        let mut config = dynamic_pressure_config(kind, heap, memory, target, params.scale);
        config.sanitize = params.sanitize;
        config.gc_threads = threads;
        run(&config, make())
    });
    cells
        .into_iter()
        .zip(results)
        .map(|((kind, threads), r)| (kind, threads, r))
        .collect()
}

/// **Parallel-tracing figure**: average GC pause as a function of the
/// simulated GC-worker count, for every Figure 5a collector under dynamic
/// memory pressure. The pause a collection charges is the *critical path*
/// over workers (the longest per-worker trace time), so trace-heavy pauses
/// shrink as workers are added while fault-dominated pauses do not — the
/// same distinction the paper draws between CPU work and paging stalls.
///
/// A second block of rows reports the packet-scheduler counters (packets
/// drained / packets stolen) at each worker count: steals are zero at one
/// worker by construction and grow with the worker count as the
/// work-stealing scheduler balances the packet queue.
pub fn fig_parallel_report(params: &Params) -> Table {
    let headers: Vec<String> = std::iter::once("Collector".to_string())
        .chain(PARALLEL_THREADS.iter().map(|n| format!("{n} workers")))
        .collect();
    let mut t = Table::new(headers);
    t.caption =
        "Parallel tracing: average GC pause vs simulated GC workers (fig4 dynamic pressure)".into();
    let runs = fig_parallel_runs(params);
    for group in runs.chunks(PARALLEL_THREADS.len()) {
        let mut pauses = vec![group[0].0.label().to_string()];
        let mut packets = vec![format!("{} packets/steals", group[0].0.label())];
        for (_, _, r) in group {
            pauses.push(cell_pause(r));
            packets.push(format!("{}/{}", r.gc.trace_packets, r.gc.trace_steals));
        }
        t.row(pauses);
        t.row(packets);
    }
    t
}

/// The tenancy axis of the scaled multiple-JVM experiment: from the
/// paper's handful of simultaneous JVMs up to thousands of mutators.
const FLEET_PROCS: [usize; 4] = [4, 64, 512, 2048];

/// One `fig7_scale` cell: `n` tenants of `kind` splitting a constant
/// aggregate pseudoJBB workload over a fixed machine, time-sliced
/// round-robin by [`simulate::Driver`] over a sharded VMM (one shard per
/// 256 tenants).
///
/// At `n = 4` every tenant is a paper-sized Figure 7 instance; the sweep
/// holds total allocation volume, total heap, and physical memory constant
/// while splitting the traffic ever finer, so differences along the axis
/// are scheduling and paging effects, not workload growth.
pub fn fleet_run(params: &Params, kind: CollectorKind, n: usize) -> FleetResult {
    let b = spec("pseudoJBB").expect("pseudoJBB spec");
    let per_scale = (params.scale * FLEET_PROCS[0] as f64 / n as f64).min(1.0);
    let heap_total = scaled(params, 4 * (77 << 20));
    let tenant_heap = (heap_total / n).max(512 << 10);
    let memory = scaled(params, 256 << 20);
    let mut config = FleetConfig::new(kind, n, tenant_heap, memory);
    config.sanitize = params.sanitize;
    let seed = params.seed;
    run_fleet(&config, &move |i| {
        Box::new(b.program(
            per_scale,
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    })
}

/// Per-tenant fairness statistics of one fleet run: (min, median, max)
/// touches per tenant, and the largest single tenant's share of all
/// evictions ("-" when nothing was evicted).
fn fleet_fairness(r: &FleetResult) -> (u64, u64, u64, String) {
    let mut touches: Vec<u64> = r.tenants.iter().map(|t| t.vm.touches).collect();
    touches.sort_unstable();
    let min = touches.first().copied().unwrap_or(0);
    let median = touches.get(touches.len() / 2).copied().unwrap_or(0);
    let max = touches.last().copied().unwrap_or(0);
    let total_evictions: u64 = r.tenants.iter().map(|t| t.vm.evictions).sum();
    let share = if total_evictions == 0 {
        "-".into()
    } else {
        let top = r.tenants.iter().map(|t| t.vm.evictions).max().unwrap_or(0);
        format!("{:.3}", top as f64 / total_evictions as f64)
    };
    (min, median, max, share)
}

/// **Figure 7 (scaled)**: the multiple-JVM experiment pushed from the
/// paper's simultaneous JVMs to thousands of time-sliced mutators over
/// one sharded VMM. Rows are collector × tenancy; cells report elapsed
/// time, completions, the per-tenant touch spread (fairness), the largest
/// tenant's eviction share, and how many notification deliveries the pump
/// made (O(events), however many tenants idle).
pub fn fig7_scale_report(params: &Params) -> Table {
    let procs = params.thin(&FLEET_PROCS);
    let kinds = CollectorKind::PRESSURE;
    let mut t = Table::new(vec![
        "Collector",
        "Procs",
        "Elapsed",
        "Done",
        "Touch min",
        "Touch med",
        "Touch max",
        "Evict share",
        "Deliveries",
    ]);
    t.caption =
        "Figure 7 (scaled): N simultaneous mutators, constant total workload, sharded VMM".into();
    let cells: Vec<(CollectorKind, usize)> = kinds
        .iter()
        .flat_map(|&kind| procs.iter().map(move |&n| (kind, n)))
        .collect();
    let results = parallel_map(params.jobs, &cells, |_, &(kind, n)| {
        fleet_run(params, kind, n)
    });
    for ((kind, n), r) in cells.iter().zip(&results) {
        let (min, median, max, share) = fleet_fairness(r);
        t.row(vec![
            kind.label().to_string(),
            format!("{n}"),
            if r.timed_out {
                "timeout".into()
            } else {
                r.total_elapsed.to_string()
            },
            format!("{}/{}", r.completed(), n),
            format!("{min}"),
            format!("{median}"),
            format!("{max}"),
            share,
            format!("{}", r.deliveries),
        ]);
    }
    t
}
