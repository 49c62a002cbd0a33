//! Ablation benchmarks for the design choices DESIGN.md calls out and the
//! paper's §7 future-work extensions:
//!
//! * victim-page selection: kernel choice (evaluated in the paper) vs. the
//!   §7 pointer-free preference;
//! * heap regrowth after transient pressure (§7);
//! * swap-device speed: the paper's disk (~5 ms faults) vs. an SSD-like
//!   device (~100 µs) — how much of BC's advantage survives when faults
//!   are only ~50x (not ~10⁶x) a RAM access.
//!
//! Each bench prints a small comparison table alongside its timing.

use criterion::{criterion_group, criterion_main, Criterion};

use bookmarking::{BcOptions, VictimPolicy};
use simtime::Nanos;
use simulate::experiments::dynamic_pressure_config;
use simulate::{run, CollectorKind, Program, RunResult};
use workloads::spec;

const SCALE: f64 = 0.02;

fn pseudo_jbb() -> impl Fn() -> Box<dyn Program> {
    let b = spec("pseudoJBB").unwrap();
    move || Box::new(b.program(SCALE, 42))
}

fn eq(paper: usize) -> usize {
    (paper as f64 * SCALE) as usize
}

fn describe(label: &str, r: &RunResult) {
    println!(
        "  {label:<28} exec {:>9}  mean pause {:>9}  faults {:>6}  bookmarks {:>7}  vetoes {:>4}  regrows {:>3}",
        r.exec_time.to_string(),
        r.pauses.mean.to_string(),
        r.vm.major_faults,
        r.gc.bookmarks_set,
        r.gc.victims_vetoed,
        r.gc.heap_regrows,
    );
}

/// Runs BC under dynamic pressure with explicit options (bypassing
/// `CollectorKind` to reach the §7 knobs): `dynamic_pressure_config`'s
/// machine and ramp, on a `Driver` assembled by hand.
fn run_bc_with(options: BcOptions, target_avail: usize) -> RunResult {
    use bookmarking::Bookmarking;
    use heap::HeapConfig;
    use simulate::{run_result, Driver, JvmProcess, Signalmem};
    use vmm::{Vmm, VmmConfig};

    let config = dynamic_pressure_config(
        CollectorKind::Bc,
        eq(100 << 20),
        eq(224 << 20),
        target_avail,
        SCALE,
    );
    let mut vmm = Vmm::new(
        VmmConfig::builder()
            .memory_bytes(config.memory_bytes)
            .build(),
        config.costs.clone(),
    );
    let pid = vmm.register_process();
    let bc = Bookmarking::new(
        HeapConfig::builder().heap_bytes(config.heap_bytes).build(),
        options,
    );
    bc.register(&mut vmm, pid);
    let sm_pid = vmm.register_process();
    let mut driver = Driver::new(vmm);
    let make = pseudo_jbb();
    driver.jvms.push(JvmProcess::new(pid, Box::new(bc), make()));
    driver.signalmem = config.pressure.map(|p| Signalmem::new(p, sm_pid));
    driver.run_to_completion();
    run_result(&driver, &driver.jvms[0], config.collector)
}

fn bench_victim_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_victim_policy");
    group.sample_size(10);
    group.bench_function("kernel_choice_vs_pointer_free", |b| {
        b.iter(|| {
            println!("== ablation: victim selection (paper-equivalent 44MB available) ==");
            let kernel = run_bc_with(BcOptions::default(), eq(44 << 20));
            describe("kernel choice (paper)", &kernel);
            let opts = BcOptions {
                victim_policy: VictimPolicy::PreferPointerFree {
                    max_pointers: 8,
                    max_vetoes: 4,
                },
                ..Default::default()
            };
            let ptr_free = run_bc_with(opts, eq(44 << 20));
            describe("prefer pointer-free (§7)", &ptr_free);
            (kernel.exec_time, ptr_free.exec_time)
        });
    });
    group.finish();
}

fn bench_regrowth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_regrowth");
    group.sample_size(10);
    group.bench_function("shrink_only_vs_regrow", |b| {
        b.iter(|| {
            println!("== ablation: heap regrowth after a transient spike ==");
            let fixed = run_bc_with(BcOptions::default(), eq(80 << 20));
            describe("shrink-only (paper)", &fixed);
            let opts = BcOptions {
                regrow: true,
                ..Default::default()
            };
            let regrow = run_bc_with(opts, eq(80 << 20));
            describe("regrow enabled (§7)", &regrow);
            (fixed.gc.total_gcs(), regrow.gc.total_gcs())
        });
    });
    group.finish();
}

fn bench_swap_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_swap_device");
    group.sample_size(10);
    group.bench_function("disk_vs_ssd", |b| {
        b.iter(|| {
            println!("== ablation: swap-device speed (GenMS, heavy pressure) ==");
            let make = pseudo_jbb();
            let heap = eq(100 << 20);
            let memory = eq(224 << 20);
            // The 2x2 (device x collector) grid fans out across workers;
            // results come back in grid order, so the printout is stable.
            let mut grid: Vec<(&str, Nanos, CollectorKind)> = Vec::new();
            for (label, fault) in [
                ("disk (5ms, paper)", Nanos::from_millis(5)),
                ("ssd (100us)", Nanos::from_micros(100)),
            ] {
                for kind in [CollectorKind::Bc, CollectorKind::GenMs] {
                    grid.push((label, fault, kind));
                }
            }
            let results =
                bench::parallel_map(bench::default_jobs(), &grid, |_, &(_, fault, kind)| {
                    let mut config =
                        dynamic_pressure_config(kind, heap, memory, eq(60 << 20), SCALE);
                    config.costs.major_fault = fault;
                    run(&config, make())
                });
            let mut out = Vec::new();
            for ((label, _, kind), r) in grid.iter().zip(&results) {
                println!(
                    "  {label:<20} {:<8} exec {:>9}  mean pause {:>9}  faults {:>6}",
                    kind.label(),
                    r.exec_time.to_string(),
                    r.pauses.mean.to_string(),
                    r.vm.major_faults
                );
                out.push(r.exec_time);
            }
            out
        });
    });
    group.finish();
}

criterion_group!(
    ablations,
    bench_victim_policy,
    bench_regrowth,
    bench_swap_device
);
criterion_main!(ablations);
