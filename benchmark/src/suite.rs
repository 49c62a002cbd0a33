//! The five workloads: which cells each runs, why, and the intent guards
//! that keep a workload from silently ceasing to exercise its layer.
//!
//! Every size is paper-equivalent and multiplied by the workload's frozen
//! scale constant, chosen so one pass takes about two seconds on the
//! reference host (Xeon 2.6 GHz, `nproc` = 2). Tests pass a `shrink`
//! below 1 to run the same shapes in a fraction of the time.

use crate::adapter::{
    live_bytes, scaled, CellOutcome, CellSpec, CollectorKind, Count, FleetCell, JvmCell,
    PolicyKind, FRAGMENTS, TREES,
};

/// One workload of the benchmark.
pub struct Workload {
    /// Name, as `--workload` and `BENCHMARK.json` spell it.
    pub name: &'static str,
    /// Why the workload exists: the layer it isolates.
    pub why: &'static str,
    /// The cells, at `shrink` times the frozen scale.
    pub cells: fn(f64) -> Vec<CellSpec>,
    /// The intent guards: one message per violated guard.
    pub guards: fn(&[CellSpec], &[CellOutcome], f64) -> Vec<String>,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "calm_alloc",
        why: "roomy heaps, ample memory: mutator, allocation fast paths, write barrier and the Vmm::touch hit path do the work; tracing and paging do almost none",
        cells: calm_alloc_cells,
        guards: calm_alloc_guards,
    },
    Workload {
        name: "tight_trace",
        why: "heaps 1.3-3.5x the live set, ample memory: drain_gray/packets at 1, 4 and 16 workers with and without stealing, sweep, copy and BC compaction dominate; no paging",
        cells: tight_trace_cells,
        guards: tight_trace_guards,
    },
    Workload {
        name: "vmm_thrash",
        why: "VMM-oblivious collectors squeezed to a twentieth of their footprint: one touch in seven is a major fault with an eviction; nobody registers for notifications",
        cells: vmm_thrash_cells,
        guards: vmm_thrash_guards,
    },
    Workload {
        name: "bc_pressure",
        why: "BC under dynamic pressure: eviction notices, handle_vm_events, bookmark scans, madvise, vm_relinquish and heap::policy resizes, with almost no major faults",
        cells: bc_pressure_cells,
        guards: bc_pressure_guards,
    },
    Workload {
        name: "fleet_sched",
        why: "run_fleet with 2048 and 512 tenants: the only user of Scheduler, VMM shards, next_notified and thousand-heap construction; the host-memory workload",
        cells: fleet_sched_cells,
        guards: fleet_sched_guards,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Ample physical memory: no cell given it ever pages.
const AMPLE: usize = 512 << 20;

fn jvm(collector: CollectorKind, benchmark: &'static str, scale: f64) -> JvmCell {
    JvmCell {
        collector,
        benchmark,
        scale,
        jvms: 1,
        heap_bytes: scaled(100 << 20, scale),
        memory_bytes: AMPLE,
        squeeze_to: None,
        policy: None,
        gc_threads: 1,
    }
}

fn sum(outcomes: &[CellOutcome], count: Count) -> u64 {
    outcomes.iter().map(|o| o.counts[count]).sum()
}

/// Adds `message` unless `holds`.
fn require(failures: &mut Vec<String>, holds: bool, message: impl FnOnce() -> String) {
    if !holds {
        failures.push(message());
    }
}

// ----- calm_alloc ----------------------------------------------------------

/// The workload's frozen scale (also the size of the isolation suite's
/// ring-tracer comparison run).
pub const CALM_ALLOC_SCALE: f64 = 0.45;

fn calm_alloc_cells(shrink: f64) -> Vec<CellSpec> {
    let scale = CALM_ALLOC_SCALE * shrink;
    let mut cells: Vec<CellSpec> = CollectorKind::FIGURE2
        .iter()
        .map(|&kind| CellSpec::Jvm(jvm(kind, "pseudoJBB", scale)))
        .collect();
    // Large arrays (LOS, zero/copy) and a read-heavy resident database.
    for benchmark in ["_201_compress", "_209_db"] {
        cells.push(CellSpec::Jvm(jvm(CollectorKind::GenMs, benchmark, scale)));
    }
    cells
}

fn calm_alloc_guards(_: &[CellSpec], outcomes: &[CellOutcome], _: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let majors = sum(outcomes, Count::VmmMajorFaults);
    require(&mut failures, majors == 0, || {
        format!("calm_alloc took {majors} major faults; it must take none")
    });
    failures
}

// ----- tight_trace ---------------------------------------------------------

const TIGHT_TRACE_SCALE: f64 = 0.15;

fn tight_trace_cells(shrink: f64) -> Vec<CellSpec> {
    let scale = TIGHT_TRACE_SCALE * shrink;
    let tight = |kind, benchmark, factor: f64, gc_threads| {
        // pseudoJBB's large objects (up to 24 KiB) do not shrink with the
        // scale; below a few MiB a non-moving heap cannot place them.
        let floor = if benchmark == "pseudoJBB" {
            3 << 20
        } else {
            768 << 10
        };
        CellSpec::Jvm(JvmCell {
            heap_bytes: ((live_bytes(benchmark, scale) as f64 * factor) as usize).max(floor),
            gc_threads,
            ..jvm(kind, benchmark, scale)
        })
    };
    vec![
        // What `fig_parallel` runs: every live object is a root, so the
        // packet layer picks workers but nothing is ever stolen.
        tight(CollectorKind::MarkSweep, "pseudoJBB", 2.5, 1),
        tight(CollectorKind::MarkSweep, "pseudoJBB", 2.5, 4),
        tight(CollectorKind::MarkSweep, "pseudoJBB", 2.5, 16),
        // The same layer with stealing: few roots over wide trees.
        tight(CollectorKind::MarkSweep, TREES, 1.5, 1),
        tight(CollectorKind::MarkSweep, TREES, 1.5, 4),
        tight(CollectorKind::MarkSweep, TREES, 1.5, 16),
        tight(CollectorKind::GenMs, "pseudoJBB", 2.5, 1),
        // A semispace needs its copy reserve on top.
        tight(CollectorKind::SemiSpace, "pseudoJBB", 3.5, 1),
        // BC on a program that fragments its superpages, in a heap tight
        // enough that a full collection does not free the pages the next
        // allocation needs: the two-pass compaction (§3.2) runs a few
        // times per pass, and nothing else exercises `compact.rs`. (On
        // pseudoJBB, whose survivors die first-in first-out, BC compacts
        // only within 1 % of the heap size at which it runs out of
        // memory; no fixed factor makes it compact at every seed.)
        tight(CollectorKind::Bc, FRAGMENTS, 1.3, 1),
    ]
}

fn tight_trace_guards(cells: &[CellSpec], outcomes: &[CellOutcome], _: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (cell, out) in cells.iter().zip(outcomes) {
        let label = cell.label();
        // A generational collector in a heap this size may get by on
        // nursery collections alone; the others have only full ones.
        let collections = if cell.collector() == CollectorKind::GenMs {
            Count::HeapCollections
        } else {
            Count::HeapFullGcs
        };
        require(&mut failures, out.counts[collections] >= 2, || {
            format!("tight_trace cell `{label}` collected fewer than twice")
        });
        let steals = out.counts[Count::HeapTraceSteals];
        if cell.gc_threads() == 1 {
            require(&mut failures, steals == 0, || {
                format!("tight_trace cell `{label}` stole {steals} packets with one worker")
            });
        } else if cell.benchmark() == TREES {
            require(&mut failures, steals > 0, || {
                format!("tight_trace cell `{label}` stole no packets")
            });
        }
        if cell.collector() == CollectorKind::Bc {
            require(
                &mut failures,
                out.counts[Count::BcCompactingGcs] > 0,
                || format!("tight_trace cell `{label}` never compacted"),
            );
        }
    }
    failures
}

// ----- vmm_thrash ----------------------------------------------------------

const VMM_THRASH_SCALE: f64 = 0.35;

/// Paper-equivalent heap and memory of the dynamic-pressure figures.
const PRESSURE_HEAP: usize = 100 << 20;
const PRESSURE_MEMORY: usize = 224 << 20;

fn squeezed(kind: CollectorKind, scale: f64, paper_available: usize) -> JvmCell {
    JvmCell {
        heap_bytes: scaled(PRESSURE_HEAP, scale),
        memory_bytes: scaled(PRESSURE_MEMORY, scale),
        squeeze_to: Some(scaled(paper_available, scale)),
        ..jvm(kind, "pseudoJBB", scale)
    }
}

fn vmm_thrash_cells(shrink: f64) -> Vec<CellSpec> {
    let scale = VMM_THRASH_SCALE * shrink;
    let mut cells: Vec<CellSpec> = [
        CollectorKind::SemiSpace,
        CollectorKind::MarkSweep,
        CollectorKind::GenMs,
        CollectorKind::GenCopy,
        CollectorKind::CopyMs,
    ]
    .iter()
    .map(|&kind| CellSpec::Jvm(squeezed(kind, scale, 5 << 20)))
    .collect();
    // Two JVMs in a machine a quarter the size of their heaps.
    cells.push(CellSpec::Jvm(JvmCell {
        jvms: 2,
        heap_bytes: scaled(77 << 20, scale),
        memory_bytes: scaled(40 << 20, scale),
        ..jvm(CollectorKind::GenMs, "pseudoJBB", scale)
    }));
    cells
}

/// Major faults a full-scale `vmm_thrash` pass must exceed (it takes over
/// three times as many).
const THRASH_MIN_MAJOR_FAULTS: f64 = 1e6;

fn vmm_thrash_guards(_: &[CellSpec], outcomes: &[CellOutcome], shrink: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let majors = sum(outcomes, Count::VmmMajorFaults);
    let floor = (THRASH_MIN_MAJOR_FAULTS * shrink) as u64;
    require(&mut failures, majors > floor, || {
        format!("vmm_thrash took {majors} major faults; it must take more than {floor}")
    });
    let notices = sum(outcomes, Count::VmmNotices);
    require(&mut failures, notices == 0, || {
        format!("vmm_thrash delivered {notices} eviction notices; nobody should be registered")
    });
    failures
}

// ----- bc_pressure ---------------------------------------------------------

const BC_PRESSURE_SCALE: f64 = 0.3;

fn bc_pressure_cells(shrink: f64) -> Vec<CellSpec> {
    let scale = BC_PRESSURE_SCALE * shrink;
    let bc = |kind, paper_available, policy| {
        CellSpec::Jvm(JvmCell {
            policy,
            ..squeezed(kind, scale, paper_available)
        })
    };
    let balancer = Some(PolicyKind::MemBalancer);
    vec![
        bc(CollectorKind::Bc, 93 << 20, None),
        bc(CollectorKind::Bc, 76 << 20, None),
        bc(CollectorKind::BcResizeOnly, 76 << 20, None),
        bc(CollectorKind::Bc, 76 << 20, balancer),
        bc(CollectorKind::Bc, 64 << 20, balancer),
        bc(CollectorKind::Bc, 56 << 20, balancer),
        bc(CollectorKind::Bc, 52 << 20, balancer),
    ]
}

fn bc_pressure_guards(_: &[CellSpec], outcomes: &[CellOutcome], shrink: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (count, name) in [
        (Count::VmmNotices, "vmm.notices"),
        (Count::BcBookmarksSet, "bookmarking.bookmarks_set"),
        (Count::BcPagesRelinquished, "bookmarking.pages_relinquished"),
        (Count::HeapPolicyResizes, "heap.policy_resizes"),
    ] {
        require(&mut failures, sum(outcomes, count) > 0, || {
            format!("bc_pressure saw no {name}")
        });
    }
    // Under 1 % of the floor `vmm_thrash` must exceed, so under 1 % of
    // what it takes; the full run also compares the two directly.
    let majors = sum(outcomes, Count::VmmMajorFaults);
    let ceiling = (THRASH_MIN_MAJOR_FAULTS * shrink / 100.0) as u64;
    require(&mut failures, majors < ceiling.max(1), || {
        format!("bc_pressure took {majors} major faults; it must stay under {ceiling}")
    });
    failures
}

// ----- fleet_sched ---------------------------------------------------------

const FLEET_SCHED_SCALE: f64 = 0.2;

fn fleet_sched_cells(shrink: f64) -> Vec<CellSpec> {
    let scale = FLEET_SCHED_SCALE * shrink;
    // As in the `fig7_scale` figure, four paper-sized workloads' worth of
    // allocation is split evenly over the tenants.
    let fleet = |collector, tenants: usize, memory_bytes| {
        CellSpec::Fleet(FleetCell {
            collector,
            tenants,
            tenant_scale: 4.0 * scale / tenants as f64,
            tenant_heap_bytes: 512 << 10,
            memory_bytes,
        })
    };
    let mut cells = Vec::new();
    // Split so thinly that no tenant collects: pure construction, slices
    // and allocation, in ample memory.
    for kind in [CollectorKind::Bc, CollectorKind::GenMs] {
        cells.push(fleet(kind, 2_048, 2_048 << 20));
    }
    // Fewer, bigger tenants in memory that holds half of their heaps:
    // collections, faults, O(events) notification delivery, shard
    // stealing. Not tighter: at three quarters of this BC fails the
    // sanitizer's bookmark check, and at half of it the BC fleet falls off
    // a cliff (a thousand times the faults; a pass takes minutes).
    for kind in [CollectorKind::Bc, CollectorKind::GenMs] {
        cells.push(fleet(kind, 512, scaled(640 << 20, scale)));
    }
    cells
}

fn fleet_sched_guards(cells: &[CellSpec], outcomes: &[CellOutcome], _: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for (cell, out) in cells.iter().zip(outcomes) {
        let label = cell.label();
        require(&mut failures, out.failed == 0, || {
            format!(
                "fleet_sched cell `{label}`: {} tenants did not complete",
                out.failed
            )
        });
        if cell.processes() == 512 && cell.collector() == CollectorKind::Bc {
            require(&mut failures, out.counts[Count::SimDeliveries] > 0, || {
                format!("fleet_sched cell `{label}` delivered no notifications")
            });
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::SanitizeLevel;
    use crate::measure::Pass;

    /// The workloads at a fifth of their size: half a second per pass.
    /// (Much smaller and the shapes break down: heaps hit their floors and
    /// a tight cell runs out of memory or never collects.)
    const TINY: f64 = 0.2;

    #[test]
    fn names_are_well_formed_and_reasons_fit_the_manifest() {
        for w in &WORKLOADS {
            assert!(
                w.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                w.name
            );
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(workload(w.name).is_some());
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn tiny_runs_repeat_pass_their_guards_and_follow_the_seed() {
        for w in &WORKLOADS {
            let cells = (w.cells)(TINY);
            let run = |seed| Pass::run(&cells, seed, SanitizeLevel::Off, None);
            let (a, again, other) = (run(5), run(5), run(6));
            assert_eq!(a.digest(), again.digest(), "{}: not repeatable", w.name);
            assert_ne!(a.digest(), other.digest(), "{}: seed ignored", w.name);
            for pass in [&a, &other] {
                for (cell, out) in cells.iter().zip(&pass.cells) {
                    assert_eq!(out.failed, 0, "{}: `{}`", w.name, cell.label());
                }
                assert_eq!((w.guards)(&cells, &pass.cells, TINY), Vec::<String>::new());
            }
        }
    }

    #[test]
    fn guards_notice_a_workload_that_stopped_exercising_its_layer() {
        let w = workload("vmm_thrash").unwrap();
        let cells = (w.cells)(TINY);
        let mut pass = Pass::run(&cells, 5, SanitizeLevel::Off, None);
        for c in &mut pass.cells {
            c.counts[Count::VmmMajorFaults] = 0;
            c.counts[Count::VmmNotices] = 1;
        }
        assert_eq!((w.guards)(&cells, &pass.cells, TINY).len(), 2);
    }
}
