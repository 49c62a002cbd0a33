//! Cross-collector invariant tests over full benchmark runs.

use simulate::experiments::dynamic_pressure;
use simulate::{CollectorKind, Program};
use workloads::spec;

fn jess(scale: f64, seed: u64) -> Box<dyn Program> {
    Box::new(spec("_202_jess").unwrap().program(scale, seed))
}

/// The heap budget is respected at completion for every collector: the
/// transient force-acquire overruns used mid-collection must have been
/// paid back by the time the run ends.
#[test]
fn heap_budget_is_respected_at_completion() {
    use heap::{CollectKind, MemCtx};
    for kind in CollectorKind::ALL {
        let heap_bytes = 4 << 20;
        let mut vmm = vmm::Vmm::new(
            vmm::VmmConfig::builder().memory_bytes(256 << 20).build(),
            simtime::CostModel::default(),
        );
        let mut clock = simtime::Clock::new();
        let pid = vmm.register_process();
        let mut gc = kind.build(
            heap::HeapConfig::builder().heap_bytes(heap_bytes).build(),
            &mut vmm,
            pid,
        );
        let mut program = spec("_202_jess").unwrap().program(0.02, 1);
        loop {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            match simulate::Program::step(&mut program, gc.as_mut(), &mut ctx) {
                Ok(simulate::ProgramStatus::Running) => {}
                Ok(simulate::ProgramStatus::Finished) => break,
                Err(e) => panic!("{kind}: {e}"),
            }
        }
        // Collect once so transient overruns are settled, then check.
        let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
        gc.collect(&mut ctx, CollectKind::Full);
        let budget_pages = heap_bytes / 4096;
        assert!(
            gc.heap_pages_used() <= budget_pages,
            "{kind}: {} pages used of a {budget_pages}-page budget",
            gc.heap_pages_used()
        );
    }
}

/// The collector never reports more pause time than wall time, never
/// reports pauses out of order, and its fault attribution never exceeds
/// the process's total faults.
#[test]
fn accounting_is_internally_consistent() {
    for kind in CollectorKind::ALL {
        let r = dynamic_pressure(
            kind,
            (100 << 20) / 50,
            (224 << 20) / 50,
            (60 << 20) / 50,
            0.02,
            &|| jess(0.02, 2),
        );
        assert!(r.pauses.total <= r.exec_time, "{kind}");
        assert!(
            r.pauses.major_faults <= r.vm.major_faults,
            "{kind}: attributed more faults than occurred"
        );
        assert!(
            r.vm.hard_evictions <= r.vm.evictions,
            "{kind}: hard evictions exceed evictions"
        );
        let mut prev_end = simtime::Nanos::ZERO;
        for rec in &r.pause_records {
            assert!(rec.start >= prev_end, "{kind}: pauses overlap");
            prev_end = rec.end();
        }
    }
}

/// BC's in-pause fault count stays negligible across seeds and pressure
/// levels — the reproduction's statement of "garbage collection without
/// paging". (Allowance: nursery-page reloads after kernel-ran-ahead
/// evictions, a handful per run at most.)
#[test]
fn bc_pause_faults_negligible_across_seeds() {
    for seed in [3u64, 17, 91] {
        for paper_avail in [93usize << 20, 60 << 20] {
            let make = move || -> Box<dyn Program> {
                Box::new(spec("pseudoJBB").unwrap().program(0.02, seed))
            };
            let r = dynamic_pressure(
                CollectorKind::Bc,
                (100 << 20) / 50,
                (224 << 20) / 50,
                paper_avail / 50,
                0.02,
                &make,
            );
            assert!(r.ok(), "seed {seed}");
            assert!(
                r.pauses.major_faults <= 4,
                "seed {seed}, avail {}MB: BC faulted {} times inside pauses",
                paper_avail >> 20,
                r.pauses.major_faults
            );
        }
    }
}

/// Determinism extends to the pressure experiments: identical configs give
/// identical paging behaviour, not just identical mutator behaviour.
#[test]
fn pressure_runs_are_deterministic() {
    let once = || {
        let r = dynamic_pressure(
            CollectorKind::GenMs,
            (100 << 20) / 50,
            (224 << 20) / 50,
            (60 << 20) / 50,
            0.02,
            &|| jess(0.02, 5),
        );
        (
            r.exec_time,
            r.vm.major_faults,
            r.vm.evictions,
            r.pauses.count,
            r.pauses.total,
        )
    };
    assert_eq!(once(), once());
}

/// More pressure never helps an oblivious collector: execution time is
/// monotone (within tolerance) as available memory shrinks.
#[test]
fn pressure_monotonically_hurts_genms() {
    let time_at = |paper_avail: usize| {
        let make = || -> Box<dyn Program> { Box::new(spec("pseudoJBB").unwrap().program(0.02, 7)) };
        dynamic_pressure(
            CollectorKind::GenMs,
            (100 << 20) / 50,
            (224 << 20) / 50,
            paper_avail / 50,
            0.02,
            &make,
        )
        .exec_time
        .as_nanos() as f64
    };
    let loose = time_at(160 << 20);
    let medium = time_at(77 << 20);
    let tight = time_at(44 << 20);
    assert!(medium >= loose * 0.95, "medium {medium} vs loose {loose}");
    assert!(tight >= medium * 0.95, "tight {tight} vs medium {medium}");
    assert!(
        tight > loose * 1.5,
        "pressure never bit: {loose} -> {tight}"
    );
}
