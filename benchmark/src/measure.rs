//! One workload in one process: what `--workload NAME` runs.
//!
//! With tracing off the process sets up (input generation plus one cold
//! warm-up pass), runs timed passes for the requested seconds, reads its
//! own peak RSS, and reports the end-to-end metrics as medians over the
//! passes. With tracing on it alternates untraced and traced passes — the
//! traced ones through [`TimedProgram`](crate::adapter) wrappers — and
//! reports the per-layer metrics: exact counts, attribution of the traced
//! wall clock, and the isolation suite (run in a child of its own).
//!
//! Everything runs on one thread, cells one after another, so the numbers
//! measure the program and not the scheduler of a small shared host.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::Instant;

use crate::adapter::{
    fold_digest, run_cell, CellOutcome, CellSpec, Count, Counts, GcLayer, SanitizeLevel,
    COUNT_NAMES, DIGEST_SEED,
};
use crate::json::Json;
use crate::metrics::{median, per_layer, END_TO_END};
use crate::span::{Fold, Recorder, SpanName};
use crate::suite::Workload;

/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;
/// Set-up is measured this many times per run (this process plus fresh
/// children), and the median reported.
const SETUP_SAMPLES: usize = 3;

/// One pass over every cell of a workload.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Per-cell outcomes, in cell order.
    pub cells: Vec<CellOutcome>,
}

impl Pass {
    /// Runs every cell once, sequentially. With a recorder the pass is a
    /// `run` span and every program is wrapped.
    pub fn run(
        cells: &[CellSpec],
        seed: u64,
        sanitize: SanitizeLevel,
        recorder: Option<&Rc<RefCell<Recorder>>>,
    ) -> Pass {
        if let Some(rec) = recorder {
            rec.borrow_mut().open(SpanName::Run);
        }
        let outcomes = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| run_cell(cell, i, seed, sanitize, recorder))
            .collect();
        if let Some(rec) = recorder {
            rec.borrow_mut().close();
        }
        Pass { cells: outcomes }
    }

    /// Host seconds inside the run entry points, summed over cells.
    pub fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    /// The exact counts, summed over cells.
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for c in &self.cells {
            total.add(&c.counts);
        }
        total
    }

    /// Hash of every cell's simulated statistics.
    pub fn digest(&self) -> u64 {
        self.cells
            .iter()
            .fold(DIGEST_SEED, |state, c| fold_digest(state, c.digest))
    }

    /// Processes that failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.failed).sum()
    }

    /// Simulated seconds to completion, summed over cells.
    pub fn sim_exec_s(&self) -> f64 {
        self.cells.iter().map(|c| c.sim_exec_ns).sum::<u64>() as f64 / 1e9
    }

    /// Simulated seconds of GC pause, summed over cells.
    pub fn sim_pause_s(&self) -> f64 {
        self.cells.iter().map(|c| c.sim_pause_ns).sum::<u64>() as f64 / 1e9
    }
}

/// Simulated processes one pass of `cells` starts.
fn ops_per_pass(cells: &[CellSpec]) -> u64 {
    cells.iter().map(CellSpec::processes).sum()
}

/// Set-up as a user of a fresh process pays it: the cells are generated
/// and one cold pass runs, so that lazy first-use initialisation, cold
/// allocator arenas and page faults on fresh memory all land here and not
/// in the timed passes.
pub fn setup(workload: &Workload, seed: u64) -> (Vec<CellSpec>, Pass, f64) {
    let start = Instant::now();
    let cells = (workload.cells)(1.0);
    let pass = Pass::run(&cells, seed, SanitizeLevel::Off, None);
    let seconds = start.elapsed().as_secs_f64();
    (cells, pass, seconds)
}

/// Output checks accumulated over a run's passes.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Counts `pass`'s failures, and every process of a cell whose digest
    /// differs from the reference pass's.
    fn absorb(&mut self, what: &str, cells: &[CellSpec], reference: &Pass, pass: &Pass) {
        self.attempted += ops_per_pass(cells);
        self.failed += pass.failed();
        for ((cell, want), got) in cells.iter().zip(&reference.cells).zip(&pass.cells) {
            if got.failed > 0 {
                self.problems.push(format!(
                    "{what}: {} of {} processes failed in `{}`",
                    got.failed,
                    cell.processes(),
                    cell.label()
                ));
            } else if got.digest != want.digest {
                self.failed += cell.processes();
                self.problems.push(format!(
                    "{what}: digest {:016x} differs from the warm-up's {:016x} in `{}`",
                    got.digest,
                    want.digest,
                    cell.label()
                ));
            }
        }
    }
}

/// What a one-workload run reports.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Simulated processes started, over every pass of the run.
    pub attempted: u64,
    /// Processes that failed, plus those of cells whose digest moved.
    pub failed: u64,
    /// `(name, value, unit)` of every metric of the run's mode.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: digest, spreads, cells, problems.
    pub detail: Json,
}

impl Report {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
        .to_line()
    }
}

fn spread(values: &[f64]) -> Json {
    Json::obj([
        ("median", Json::Num(median(values))),
        (
            "min",
            Json::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        (
            "max",
            Json::Num(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        ),
        ("n", Json::Num(values.len() as f64)),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

fn cells_json(cells: &[CellSpec], passes: &[Pass]) -> Json {
    Json::Arr(
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let walls: Vec<f64> = passes.iter().map(|p| p.cells[i].wall_s).collect();
                let c = &passes[0].cells[i];
                Json::obj([
                    ("label", Json::str(cell.label())),
                    ("wall_s", Json::Num(median(&walls))),
                    ("sim_exec_s", Json::Num(c.sim_exec_ns as f64 / 1e9)),
                    ("sim_gc_pause_s", Json::Num(c.sim_pause_ns as f64 / 1e9)),
                    ("touches", Json::Num(c.counts[Count::VmmTouches] as f64)),
                    (
                        "major_faults",
                        Json::Num(c.counts[Count::VmmMajorFaults] as f64),
                    ),
                    (
                        "collections",
                        Json::Num(c.counts[Count::HeapCollections] as f64),
                    ),
                    ("digest", Json::str(format!("{:016x}", c.digest))),
                ])
            })
            .collect(),
    )
}

fn detail(
    workload: &Workload,
    seed: u64,
    cells: &[CellSpec],
    reference: &Pass,
    passes: &[Pass],
    checks: &Checks,
    extra: Vec<(&'static str, Json)>,
) -> Json {
    let mut pairs = vec![
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("ops", Json::Num(ops_per_pass(cells) as f64)),
        (
            "sim_digest",
            Json::str(format!("{:016x}", reference.digest())),
        ),
        (
            "problems",
            Json::Arr(checks.problems.iter().map(Json::str).collect()),
        ),
    ];
    pairs.extend(extra);
    pairs.push(("cells", cells_json(cells, passes)));
    Json::obj(pairs)
}

/// The sanitized pass `--verify` adds, outside all timing: every
/// collection shadow-re-traced, and the digest must not move.
fn verify(cells: &[CellSpec], seed: u64, reference: &Pass, checks: &mut Checks) {
    let pass = Pass::run(cells, seed, SanitizeLevel::Full, None);
    checks.absorb("sanitized pass", cells, reference, &pass);
}

/// Runs this executable again with `args`, waits for it, and returns
/// whether it exited with code 0 and the lines it printed.
///
/// # Errors
///
/// Fails when the child cannot be started or was killed by a signal.
pub fn run_child(args: &[&str]) -> Result<(bool, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {args:?}: {e}"))?;
    if out.status.code().is_none() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    Ok((out.status.success(), lines))
}

/// The last line a child that must succeed printed.
fn child_last_line(args: &[&str]) -> Result<String, String> {
    let (ok, mut lines) = run_child(args)?;
    if !ok {
        return Err(format!("child {args:?} failed"));
    }
    lines
        .pop()
        .ok_or_else(|| format!("child {args:?} printed nothing"))
}

/// This process's peak resident set so far, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced run: the end-to-end metrics.
///
/// # Errors
///
/// Fails when a set-up child cannot be run or the peak RSS cannot be read.
pub fn run_untraced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    with_verify: bool,
) -> Result<Report, String> {
    // Fresh processes first, so that each sample is a cold start and none
    // of them competes with the timed passes below.
    let seed_arg = seed.to_string();
    let mut setups = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let line = child_last_line(&["setup-probe", workload.name, &seed_arg])?;
        setups.push(
            line.trim()
                .parse::<f64>()
                .map_err(|_| format!("setup-probe printed {line:?}"))?,
        );
    }
    let (cells, warm, own_setup) = setup(workload, seed);
    setups.push(own_setup);

    let mut checks = Checks::default();
    checks.absorb("warm-up pass", &cells, &warm, &warm);
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let pass = Pass::run(&cells, seed, SanitizeLevel::Off, None);
        checks.absorb("timed pass", &cells, &warm, &pass);
        passes.push(pass);
        // Stop when the next pass would end further past the budget than
        // stopping now falls short of it.
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_TIMED_PASSES && elapsed + per_pass / 2.0 >= seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;
    checks
        .problems
        .extend((workload.guards)(&cells, &warm.cells, 1.0));
    if with_verify {
        verify(&cells, seed, &warm, &mut checks);
    }

    let walls: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let touches = warm.counts()[Count::VmmTouches] as f64;
    let rates: Vec<f64> = walls.iter().map(|w| touches / w).collect();
    // In `END_TO_END`'s order.
    let values = [
        median(&walls),
        median(&rates),
        peak_rss,
        median(&setups),
        warm.sim_exec_s(),
        warm.sim_pause_s(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    let extra = vec![
        ("trace", Json::Num(0.0)),
        ("timed_passes", Json::Num(passes.len() as f64)),
        (
            "spread",
            Json::obj([
                ("wall_s", spread(&walls)),
                ("touches_per_s", spread(&rates)),
                ("setup_s", spread(&setups)),
            ]),
        ),
        (
            "counts",
            Json::obj(
                COUNT_NAMES
                    .iter()
                    .zip(warm.counts().0)
                    .map(|(&name, v)| (name, Json::Num(v as f64))),
            ),
        ),
    ];
    Ok(Report {
        correct: checks.problems.is_empty() && checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        detail: detail(workload, seed, &cells, &warm, &passes, &checks, extra),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Untraced and traced passes of one workload, alternating, with the
/// recorder the traced ones fed.
pub struct TracedPasses {
    /// The untraced passes, in order.
    pub untraced: Vec<Pass>,
    /// The traced passes, in order.
    pub traced: Vec<Pass>,
    /// Every traced pass's spans.
    pub recorder: Rc<RefCell<Recorder>>,
}

impl TracedPasses {
    /// Alternates untraced and traced passes until `seconds` have gone by
    /// (at least one pair).
    pub fn run(cells: &[CellSpec], seed: u64, seconds: f64) -> TracedPasses {
        let recorder = Rc::new(RefCell::new(Recorder::new(cells.len())));
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            untraced.push(Pass::run(cells, seed, SanitizeLevel::Off, None));
            traced.push(Pass::run(cells, seed, SanitizeLevel::Off, Some(&recorder)));
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / traced.len() as f64 / 2.0 >= seconds {
                break;
            }
        }
        TracedPasses {
            untraced,
            traced,
            recorder,
        }
    }
}

/// Every per-layer metric of a traced run: the exact counts and what is
/// derived from them, the attribution of the traced passes' wall clock,
/// and the isolation suite's numbers `iso`, copied in.
pub fn per_layer_values(
    cells: &[CellSpec],
    reference: &Pass,
    passes: &TracedPasses,
    iso: BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    let rec = passes.recorder.borrow();
    let traced_passes = passes.traced.len() as f64;
    let walls = |set: &[Pass]| median(&set.iter().map(Pass::wall_s).collect::<Vec<_>>());
    let (untraced_wall_s, traced_wall_s) = (walls(&passes.untraced), walls(&passes.traced));
    let counts = reference.counts();
    let mut out: BTreeMap<String, f64> = COUNT_NAMES
        .iter()
        .zip(counts.0)
        .map(|(&name, v)| (name.to_string(), v as f64))
        .collect();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    let faults = counts[Count::VmmMinorFaults] + counts[Count::VmmMajorFaults];
    put(
        "vmm.fault_ratio",
        ratio(faults as f64, counts[Count::VmmTouches] as f64),
    );
    put(
        "heap.steal_ratio",
        ratio(
            counts[Count::HeapTraceSteals] as f64,
            counts[Count::HeapTracePackets] as f64,
        ),
    );
    put("bench.cells", cells.len() as f64);
    // The slowest cell: the critical path of a figure run at high `--jobs`.
    let slowest = (0..cells.len())
        .map(|i| {
            median(
                &passes
                    .untraced
                    .iter()
                    .map(|p| p.cells[i].wall_s)
                    .collect::<Vec<_>>(),
            )
        })
        .fold(0.0, f64::max);
    put("bench.cell_wall_max_s", slowest);

    let all = |_: usize| true;
    let cell_total = rec.sum(SpanName::Cell, all).total_ns as f64;
    for layer in [GcLayer::Collectors, GcLayer::Bookmarking] {
        let pick = |i: usize| cells[i].layer() == layer;
        let fold = |name| rec.sum(name, pick);
        let (fast, slow, forced, write, read) = (
            fold(SpanName::AllocFast),
            fold(SpanName::AllocCollect),
            fold(SpanName::Collect),
            fold(SpanName::WriteRef),
            fold(SpanName::Read),
        );
        let traced_objects: u64 = (0..cells.len())
            .filter(|&i| pick(i))
            .map(|i| reference.cells[i].counts[Count::HeapObjectsTraced])
            .sum();
        let l = layer.label();
        let per_op = |f: Fold| ratio(f.total_ns as f64, f.count as f64);
        put(&format!("{l}.alloc_fast_ns"), per_op(fast));
        put(
            &format!("{l}.alloc_collect_s"),
            slow.total_ns as f64 / 1e9 / traced_passes,
        );
        put(
            &format!("{l}.collect_ns_per_traced"),
            ratio(
                (slow.total_ns + forced.total_ns) as f64 / traced_passes,
                traced_objects as f64,
            ),
        );
        put(&format!("{l}.write_ref_ns"), per_op(write));
        put(&format!("{l}.read_ns"), per_op(read));
        let gc_ns =
            fast.total_ns + slow.total_ns + forced.total_ns + write.total_ns + read.total_ns;
        put(&format!("{l}.share"), ratio(gc_ns as f64, cell_total));
    }
    let step = rec.sum(SpanName::Step, all);
    put(
        "workloads.step_self_s",
        step.self_ns as f64 / 1e9 / traced_passes,
    );
    put(
        "workloads.step_self_share",
        ratio(step.self_ns as f64, cell_total),
    );
    put(
        "workloads.self_ns_per_alloc",
        ratio(
            step.self_ns as f64 / traced_passes,
            counts[Count::HeapAllocs] as f64,
        ),
    );
    // Inside a cell but outside every step: construction, the driver's
    // pick, `Vmm::pump`, signal delivery and `handle_vm_events`, result
    // collection.
    let outside = cell_total - step.total_ns as f64;
    put("simulate.outside_step_s", outside / 1e9 / traced_passes);
    put("simulate.outside_step_share", ratio(outside, cell_total));

    // The VMM is a concrete struct and cannot be wrapped, so its share is
    // estimated: each kind of event at its isolated cost.
    let cost = |name: &str| iso.get(name).copied().unwrap_or(0.0);
    let vmm_ns = counts[Count::VmmTouches].saturating_sub(faults) as f64 * cost("vmm.touch_hit_ns")
        + counts[Count::VmmMinorFaults] as f64 * cost("vmm.touch_zero_fill_ns")
        + counts[Count::VmmMajorFaults] as f64 * cost("vmm.fault_evict_ns")
        + counts[Count::VmmDiscards] as f64 * cost("vmm.madvise_ns_per_page")
        + counts[Count::VmmRelinquished] as f64 * cost("vmm.relinquish_ns_per_page");
    let untraced_ns = untraced_wall_s * 1e9;
    put("vmm.est_share", ratio(vmm_ns, untraced_ns));
    put(
        "bookmarking.vm_events_est_share",
        ratio(
            counts[Count::BcPagesRelinquished] as f64 * cost("bookmarking.evict_page_us") * 1e3,
            untraced_ns,
        ),
    );
    put(
        "trace.overhead_ratio",
        ratio(traced_wall_s, untraced_wall_s),
    );
    put(
        "trace.self_sum_ratio",
        ratio(rec.self_sum_ns() as f64, rec.root_ns() as f64),
    );
    out.extend(iso);
    out
}

/// Writes the traced passes' folds and coarse spans to `path`.
fn write_trace(
    path: &Path,
    workload: &Workload,
    seed: u64,
    cells: &[CellSpec],
    rec: &Recorder,
    traced_passes: usize,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut folds = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        for name in SpanName::ALL {
            let f = rec.cell_folds(i)[name as usize];
            if f.count > 0 {
                folds.push(Json::obj([
                    ("cell", Json::Num(i as f64)),
                    ("label", Json::str(cell.label())),
                    ("name", Json::str(name.label())),
                    ("count", Json::Num(f.count as f64)),
                    ("total_ns", Json::Num(f.total_ns as f64)),
                    ("self_ns", Json::Num(f.self_ns as f64)),
                ]));
            }
        }
    }
    let head = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(seed as f64)),
        ("traced_passes", Json::Num(traced_passes as f64)),
        ("root_ns", Json::Num(rec.root_ns() as f64)),
        ("self_sum_ns", Json::Num(rec.self_sum_ns() as f64)),
        (
            "coarse_spans_dropped",
            Json::Num(rec.coarse_dropped() as f64),
        ),
        ("folds", Json::Arr(folds)),
        (
            "span_columns",
            Json::Arr(
                ["id", "parent", "name", "cell", "start_ns", "end_ns"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
    ])
    .to_line();
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    // The spans go out by hand: there can be hundreds of thousands.
    write!(file, "{}, \"spans\": [", &head[..head.len() - 1])?;
    for (i, s) in rec.coarse().iter().enumerate() {
        let cell = s.cell.map_or(-1, |c| c as i64);
        write!(
            file,
            "{}\n[{}, {}, \"{}\", {cell}, {}, {}]",
            if i > 0 { "," } else { "" },
            s.id,
            s.parent,
            s.name.label(),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(file, "\n]}}")?;
    file.flush()
}

/// Runs the isolation suite in a child and parses what it prints.
fn isolation_child() -> Result<BTreeMap<String, f64>, String> {
    let line = child_last_line(&["isolation"])?;
    let parsed =
        Json::parse(&line).map_err(|e| format!("isolation child printed bad JSON: {e}"))?;
    let pairs = parsed.as_obj().ok_or("isolation child printed no object")?;
    Ok(pairs
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect())
}

/// The traced run: the per-layer metrics.
///
/// # Errors
///
/// Fails when the isolation child cannot be run or the trace file cannot
/// be written.
pub fn run_traced(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    with_verify: bool,
    out_dir: &Path,
) -> Result<Report, String> {
    let (cells, warm, _) = setup(workload, seed);
    let mut checks = Checks::default();
    checks.absorb("warm-up pass", &cells, &warm, &warm);
    let passes = TracedPasses::run(&cells, seed, seconds);
    for (what, set) in [
        ("untraced pass", &passes.untraced),
        ("traced pass", &passes.traced),
    ] {
        for pass in set {
            checks.absorb(what, &cells, &warm, pass);
        }
    }
    checks
        .problems
        .extend((workload.guards)(&cells, &warm.cells, 1.0));
    if with_verify {
        verify(&cells, seed, &warm, &mut checks);
    }
    let values = per_layer_values(&cells, &warm, &passes, isolation_child()?);

    let self_sum = values["trace.self_sum_ratio"];
    if (self_sum - 1.0).abs() > 0.02 {
        checks.problems.push(format!(
            "trace.self_sum_ratio is {self_sum}: span self times do not sum to the root"
        ));
    }
    let rec = passes.recorder.borrow();
    let (untraced, traced) = (&passes.untraced, &passes.traced);
    let wall_list = |set: &[Pass]| set.iter().map(Pass::wall_s).collect::<Vec<f64>>();
    let (untraced_walls, traced_walls) = (wall_list(untraced), wall_list(traced));
    let trace_path = out_dir.join(format!("trace-{}.json", workload.name));
    write_trace(&trace_path, workload, seed, &cells, &rec, traced.len())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let mut metrics = Vec::new();
    for m in per_layer() {
        match values.get(m.name) {
            Some(&v) => metrics.push((m.name, v, m.unit)),
            None => checks
                .problems
                .push(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    let extra = vec![
        ("trace", Json::Num(1.0)),
        ("traced_passes", Json::Num(traced.len() as f64)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        (
            "spread",
            Json::obj([
                ("untraced_wall_s", spread(&untraced_walls)),
                ("traced_wall_s", spread(&traced_walls)),
            ]),
        ),
    ];
    Ok(Report {
        correct: checks.problems.is_empty() && checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        detail: detail(workload, seed, &cells, &warm, untraced, &checks, extra),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolate::{self, Effort};
    use crate::suite::workload;
    use std::collections::BTreeSet;

    #[test]
    fn a_traced_run_measures_exactly_the_declared_per_layer_metrics() {
        let w = workload("bc_pressure").unwrap();
        let cells = (w.cells)(0.05);
        let warm = Pass::run(&cells, 3, SanitizeLevel::Off, None);
        let passes = TracedPasses::run(&cells, 3, 0.0);
        assert_eq!((passes.untraced.len(), passes.traced.len()), (1, 1));
        let mut checks = Checks::default();
        checks.absorb("untraced", &cells, &warm, &passes.untraced[0]);
        checks.absorb("traced", &cells, &warm, &passes.traced[0]);
        assert_eq!((checks.failed, &checks.problems), (0, &Vec::new()));
        assert_eq!(checks.attempted, 2 * ops_per_pass(&cells));

        let smoke = Effort {
            batches: 1,
            ops: 2_000,
            run_scale: 0.002,
        };
        let iso: BTreeMap<String, f64> = isolate::run(&smoke)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let measured_iso: BTreeSet<&str> = iso.keys().map(String::as_str).collect();
        assert_eq!(
            measured_iso,
            crate::metrics::isolation_names().collect::<BTreeSet<_>>()
        );
        let values = per_layer_values(&cells, &warm, &passes, iso);
        let measured: BTreeSet<&str> = values.keys().map(String::as_str).collect();
        let declared: BTreeSet<&str> = per_layer().iter().map(|m| m.name).collect();
        assert_eq!(measured, declared);
        assert!(values.values().all(|v| v.is_finite()));
        assert!((values["trace.self_sum_ratio"] - 1.0).abs() <= 0.02);
        let shares = values["bookmarking.share"]
            + values["collectors.share"]
            + values["workloads.step_self_share"]
            + values["simulate.outside_step_share"];
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
        assert_eq!(
            values["collectors.share"], 0.0,
            "bc_pressure has only BC cells"
        );
    }

    #[test]
    fn a_moved_digest_fails_every_process_of_its_cell() {
        let w = workload("calm_alloc").unwrap();
        let cells = (w.cells)(0.02);
        let warm = Pass::run(&cells, 3, SanitizeLevel::Off, None);
        let mut moved = warm.clone();
        moved.cells[1].digest ^= 1;
        let mut checks = Checks::default();
        checks.absorb("timed pass", &cells, &warm, &moved);
        assert_eq!(checks.failed, cells[1].processes());
        assert_eq!(checks.problems.len(), 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 8,
            failed: 0,
            metrics: vec![("wall_s", 2.5, "s")],
            detail: Json::Null,
        };
        let parsed = Json::parse(&report.result_line()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = parsed.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(2.5));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().unwrap() > 1.0);
    }
}
