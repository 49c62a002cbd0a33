//! Reproduction harness for every table and figure in *Garbage Collection
//! Without Paging* (§5).
//!
//! Each `figN_*` function runs one experiment at a configurable workload
//! [`Params::scale`] and renders a plain-text table mirroring the paper's
//! plot. Absolute numbers differ from the paper (the substrate is a
//! simulator, not a 2005 Pentium M — see DESIGN.md); the claims under test
//! are the *shapes*: who wins, by roughly what factor, and where the
//! crossovers fall.
//!
//! The `figures` binary is the command-line front end:
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig4 --scale 0.25
//! ```

#![warn(missing_docs)]

pub mod pool;
pub mod pressure_figs;
pub mod report;

use simulate::{min_heap_search, CollectorKind, SanitizeLevel};
use workloads::{table1, BenchmarkSpec};

pub use pool::{default_jobs, parallel_map};
pub use report::{fmt_time, geomean, Table};

/// How many sweep points each figure evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepDepth {
    /// Every point the paper plots (the `figures` binary default).
    Full,
    /// A thinned sweep — endpoints plus the interesting middle — for
    /// `figures --quick`, the goldens and smoke tests.
    Quick,
}

/// Experiment sizing.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Workload volume relative to the paper (1.0 = Table 1 volumes).
    /// Heaps, live sets, and memory sizes scale alongside, so the
    /// heap-to-live and memory-to-heap geometry is preserved.
    pub scale: f64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Sweep thinning.
    pub sweep: SweepDepth,
    /// Worker threads for the experiment matrix (`figures --jobs N`).
    /// Results are assembled by cell index, so any value produces output
    /// byte-identical to `jobs: 1`.
    pub jobs: usize,
    /// Sanitizer level applied to every figure run (`figures --sanitize`).
    /// Verification only: any level produces output byte-identical to
    /// `Off`, or aborts with a `sanitize:` panic on an invariant breach.
    pub sanitize: SanitizeLevel,
    /// Simulated GC workers for the packet tracer (`figures
    /// --gc-threads N`). 1 (the default) reproduces the sequential tracer
    /// byte-for-byte; the `fig_parallel` figure sweeps its own axis and
    /// ignores this knob.
    pub gc_threads: usize,
}

impl Params {
    /// Tiny runs for tests and `figures --quick` (~1 % volume, thinned
    /// sweeps).
    pub fn quick() -> Params {
        Params {
            scale: 0.01,
            seed: 42,
            sweep: SweepDepth::Quick,
            jobs: pool::default_jobs(),
            sanitize: SanitizeLevel::Off,
            gc_threads: 1,
        }
    }

    /// The default for figure generation (10 % volume, full sweeps —
    /// minutes, not hours, with the same qualitative shapes).
    pub fn standard() -> Params {
        Params {
            scale: 0.1,
            seed: 42,
            sweep: SweepDepth::Full,
            jobs: pool::default_jobs(),
            sanitize: SanitizeLevel::Off,
            gc_threads: 1,
        }
    }

    /// Thins a sweep according to [`Params::sweep`]: keeps the first, an
    /// early-middle, and the last point in Quick mode.
    pub fn thin<T: Copy>(&self, points: &[T]) -> Vec<T> {
        match self.sweep {
            SweepDepth::Full => points.to_vec(),
            SweepDepth::Quick => {
                let n = points.len();
                if n <= 3 {
                    points.to_vec()
                } else {
                    vec![points[0], points[n / 2], points[n - 1]]
                }
            }
        }
    }
}

/// Scales a paper-sized byte count.
pub fn scaled(params: &Params, paper_bytes: usize) -> usize {
    ((paper_bytes as f64 * params.scale) as usize).max(1 << 20)
}

/// Reproduces **Table 1**: per-benchmark total allocation and minimum heap.
///
/// Total bytes allocated match the paper by construction (scaled);
/// minimum heaps are *measured* by binary search with the bookmarking
/// collector, then rescaled for comparison against the paper's column.
pub fn table1_report(params: &Params) -> Table {
    let mut t = Table::new(vec![
        "Benchmark",
        "Paper bytes alloc",
        "Measured (rescaled)",
        "Paper min heap",
        "Measured min heap (rescaled)",
    ]);
    let benchmarks = table1();
    let scale = params.scale;
    let seed = params.seed;
    let sanitize = params.sanitize;
    let gc_threads = params.gc_threads;
    // One worker per benchmark: the search and the confirming run are a
    // self-contained deterministic cell. (The min-heap binary search stays
    // unsanitized — it is a probe, and its result feeds the sanitized runs.)
    let cells = pool::parallel_map(params.jobs, &benchmarks, |_, b| {
        let spec = *b;
        let mk = move || -> Box<dyn simulate::Program> { Box::new(spec.program(scale, seed)) };
        let lo =
            (((b.immortal_bytes + b.live_window_bytes) as f64 * scale) as usize).max(256 << 10);
        let hi = ((b.paper_min_heap as f64 * scale) as usize * 8).max(8 << 20);
        let min = min_heap_search(CollectorKind::Bc, 512 << 20, &mk, lo, hi, 256 << 10);
        // Run once at a comfortable heap to confirm the allocation volume.
        let mut config = simulate::RunConfig::new(CollectorKind::Bc, hi, 512 << 20);
        config.sanitize = sanitize;
        config.gc_threads = gc_threads;
        let run = simulate::run(&config, mk());
        (run.gc.bytes_allocated, min)
    });
    for (b, (bytes_allocated, min)) in benchmarks.iter().zip(cells) {
        t.row(vec![
            b.name.to_string(),
            format!("{}", b.paper_total_alloc),
            format!("{:.0}", bytes_allocated as f64 / scale),
            format!("{}", b.paper_min_heap),
            min.map_or_else(|| "-".into(), |m| format!("{:.0}", m as f64 / scale)),
        ]);
    }
    t
}

/// Reproduces **Figure 2**: geometric mean of execution time relative to
/// BC, across all benchmarks, as a function of heap size (no memory
/// pressure).
///
/// Heap sizes are multiples of each benchmark's *measured* GenMS minimum
/// heap (the paper plots relative heap sizes). Collectors that exhaust a
/// heap report "-" and drop out of that column's mean, as in the paper's
/// plot where curves only span the heaps their collector can run in.
pub fn fig2_report(params: &Params) -> Table {
    let multipliers = params.thin(&[1.25, 1.5, 2.0, 2.5, 3.0]);
    let multipliers: &[f64] = &multipliers;
    let benchmarks = table1();
    let scale = params.scale;
    let seed = params.seed;
    // Per-benchmark base heaps (GenMS minimum): one search per benchmark.
    let bases = pool::parallel_map(params.jobs, &benchmarks, |_, b| {
        let spec = *b;
        let mk = move || -> Box<dyn simulate::Program> { Box::new(spec.program(scale, seed)) };
        let lo =
            (((b.immortal_bytes + b.live_window_bytes) as f64 * scale) as usize).max(256 << 10);
        let hi = ((b.paper_min_heap as f64 * scale) as usize * 8).max(8 << 20);
        min_heap_search(CollectorKind::GenMs, 512 << 20, &mk, lo, hi, 256 << 10).unwrap_or(hi / 2)
    });
    // The full (collector × multiplier × benchmark) matrix as a flat cell
    // list; every cell runs exactly once, and the BC row doubles as the
    // denominator for every other collector's ratio.
    let kinds = CollectorKind::FIGURE2;
    let mut cells: Vec<(CollectorKind, usize, usize)> = Vec::new();
    for &kind in &kinds {
        for mi in 0..multipliers.len() {
            for bi in 0..benchmarks.len() {
                cells.push((kind, mi, bi));
            }
        }
    }
    let times = pool::parallel_map(params.jobs, &cells, |_, &(kind, mi, bi)| {
        let heap = (bases[bi] as f64 * multipliers[mi]) as usize;
        let r = run_bench(kind, &benchmarks[bi], heap, 512 << 20, params);
        if r.ok() {
            r.exec_time.as_nanos() as f64
        } else {
            f64::NAN
        }
    });
    let cell_time = |kind: CollectorKind, mi: usize, bi: usize| -> f64 {
        let ki = kinds.iter().position(|&k| k == kind).expect("known kind");
        times[(ki * multipliers.len() + mi) * benchmarks.len() + bi]
    };
    let mut t = Table::new(
        std::iter::once("Collector".to_string())
            .chain(multipliers.iter().map(|m| format!("{m}x min heap")))
            .collect(),
    );
    for kind in kinds {
        let mut row = vec![kind.label().to_string()];
        for mi in 0..multipliers.len() {
            let mut ratios = Vec::new();
            for bi in 0..benchmarks.len() {
                let ratio = cell_time(kind, mi, bi) / cell_time(CollectorKind::Bc, mi, bi);
                if ratio.is_finite() {
                    ratios.push(ratio);
                }
            }
            row.push(if ratios.is_empty() {
                "-".into()
            } else {
                format!("{:.3}", geomean(&ratios))
            });
        }
        t.row(row);
    }
    t
}

/// Per-phase GC pause histograms, derived from the telemetry subsystem.
///
/// Runs each pressure-figure collector once on pseudoJBB under dynamic
/// memory pressure with an unbounded trace sink, then aggregates the
/// phase spans (root scan, trace, sweep, compaction passes, bookmark
/// scan) into one histogram row per collector and phase. This is the
/// paper's pause story at sub-collection granularity: BC's phases stay
/// short under pressure because they never touch evicted pages.
pub fn phases_report(params: &Params) -> Table {
    let mut t = Table::new(vec![
        "Collector",
        "Phase",
        "Count",
        "Mean",
        "p50",
        "p90",
        "Max",
        "Total",
    ]);
    let benchmarks = table1();
    let b = *benchmarks
        .iter()
        .find(|b| b.name == "pseudoJBB")
        .unwrap_or(&benchmarks[0]);
    let heap = scaled(params, 100 << 20);
    let memory = scaled(params, 224 << 20);
    let available = scaled(params, 93 << 20);
    let scale = params.scale;
    let seed = params.seed;
    // One traced run per collector. The tracer is thread-local state
    // (`Rc`-based), so each worker builds its own and reduces the trace to
    // finished rows before returning.
    let kinds = CollectorKind::PRESSURE;
    let rows = pool::parallel_map(params.jobs, &kinds, |_, &kind| {
        let tracer = telemetry::Tracer::unbounded();
        let mut config =
            simulate::experiments::dynamic_pressure_config(kind, heap, memory, available, scale);
        config.tracer = tracer.clone();
        config.sanitize = params.sanitize;
        config.gc_threads = params.gc_threads;
        let result = simulate::run(&config, Box::new(b.program(scale, seed)));
        let _ = result; // the table reports the trace, not the run summary
        let agg = telemetry::aggregate(&tracer.snapshot(), simtime::Nanos::ZERO);
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (phase, hist) in &agg.phases {
            rows.push(vec![
                kind.label().to_string(),
                phase.name().to_string(),
                format!("{}", hist.count()),
                fmt_time(hist.mean()),
                fmt_time(hist.percentile(50.0)),
                fmt_time(hist.percentile(90.0)),
                fmt_time(hist.max()),
                fmt_time(hist.total()),
            ]);
        }
        // Heap-sizing decisions (count-only rows): how often this run's
        // sizing policy shrank and regrew the budget. Packet-tracer
        // counters ride along so `--gc-threads N` runs show their work
        // distribution in the same table.
        for (label, count) in [
            ("heap-shrinks", agg.counts.heap_shrinks),
            ("heap-grows", agg.counts.heap_grows),
            ("trace-packets", agg.counts.trace_packets),
            ("trace-steals", agg.counts.trace_steals),
        ] {
            rows.push(vec![
                kind.label().to_string(),
                label.to_string(),
                format!("{count}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        rows
    });
    for row in rows.into_iter().flatten() {
        t.row(row);
    }
    t
}

/// Runs one benchmark once.
pub fn run_bench(
    kind: CollectorKind,
    b: &BenchmarkSpec,
    heap_bytes: usize,
    memory_bytes: usize,
    params: &Params,
) -> simulate::RunResult {
    let mut config = simulate::RunConfig::new(kind, heap_bytes, memory_bytes);
    config.sanitize = params.sanitize;
    config.gc_threads = params.gc_threads;
    simulate::run(&config, Box::new(b.program(params.scale, params.seed)))
}
