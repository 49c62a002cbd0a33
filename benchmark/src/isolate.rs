//! The isolation suite: what each layer's operations cost on their own,
//! independent of any workload. Every number is the minimum over
//! [`Effort::FULL`]'s five batches of 10^5 operations, so a noisy batch
//! cannot raise it (the ring-tracer comparison, two whole runs a side,
//! takes the minimum of two). It runs in a child process of its own, so that no
//! workload's heap state colours it.

use crate::adapter::{
    bc_evict_page_us, engine_step_ns, fleet_spin, gcheap_op, simmem_copy, simmem_rw, simmem_zero,
    telemetry_emit, traced_run_wall, vmm_fault_evict, vmm_madvise, vmm_pump_idle, vmm_relinquish,
    vmm_touch_hit, vmm_touch_miss, vmm_touch_zero_fill, CollectorKind, EmitSink, IsoOp,
};
use crate::suite::CALM_ALLOC_SCALE;

/// How much work the suite does.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Batches per measurement.
    pub batches: usize,
    /// Operations per batch.
    pub ops: u64,
    /// Scale of the ring-tracer comparison's pseudoJBB runs.
    pub run_scale: f64,
}

impl Effort {
    /// What the benchmark runs.
    pub const FULL: Effort = Effort {
        batches: 5,
        ops: 100_000,
        run_scale: CALM_ALLOC_SCALE,
    };
}

fn min_of(batches: usize, mut sample: impl FnMut() -> f64) -> f64 {
    (0..batches).map(|_| sample()).fold(f64::INFINITY, f64::min)
}

fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs the whole suite; returns `(metric name, value)` in reporting order.
pub fn run(effort: &Effort) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let (b, ops) = (effort.batches, effort.ops);

    out.push(("vmm.touch_hit_ns", min_of(b, || vmm_touch_hit(ops, 1))));
    out.push(("vmm.touch_miss_ns", min_of(b, || vmm_touch_miss(ops))));
    out.push((
        "vmm.touch_zero_fill_ns",
        min_of(b, || vmm_touch_zero_fill(ops)),
    ));
    out.push(("vmm.fault_evict_ns", min_of(b, || vmm_fault_evict(ops))));
    out.push((
        "vmm.touch_hit_sharded_ns",
        min_of(b, || vmm_touch_hit(ops, 8)),
    ));
    out.push(("vmm.pump_idle_ns", min_of(b, || vmm_pump_idle(ops))));
    out.push(("vmm.madvise_ns_per_page", min_of(b, || vmm_madvise(ops))));
    out.push((
        "vmm.relinquish_ns_per_page",
        min_of(b, || vmm_relinquish(ops)),
    ));

    out.push(("heap.simmem_rw_ns", min_of(b, || simmem_rw(ops))));
    out.push(("heap.simmem_copy_ns_per_kb", min_of(b, || simmem_copy(ops))));
    out.push(("heap.simmem_zero_ns_per_kb", min_of(b, || simmem_zero(ops))));

    let gc = |kind, op, threads| min(&gcheap_op(kind, op, threads, b, ops));
    for (name, kind) in [
        ("collectors.alloc_ns.marksweep", CollectorKind::MarkSweep),
        ("collectors.alloc_ns.semispace", CollectorKind::SemiSpace),
        ("collectors.alloc_ns.genms", CollectorKind::GenMs),
        ("collectors.alloc_ns.gencopy", CollectorKind::GenCopy),
        ("collectors.alloc_ns.copyms", CollectorKind::CopyMs),
        ("bookmarking.alloc_ns", CollectorKind::Bc),
    ] {
        out.push((name, gc(kind, IsoOp::Alloc, 1)));
    }
    out.push((
        "collectors.write_ref_ns.genms",
        gc(CollectorKind::GenMs, IsoOp::WriteRef, 1),
    ));
    out.push((
        "bookmarking.write_ref_ns.bc",
        gc(CollectorKind::Bc, IsoOp::WriteRef, 1),
    ));
    out.push((
        "collectors.minor_gc_ns_per_obj",
        gc(CollectorKind::GenMs, IsoOp::MinorGc, 1),
    ));
    for (name, threads) in [
        ("collectors.full_gc_ns_per_obj.g1", 1),
        ("collectors.full_gc_ns_per_obj.g4", 4),
        ("collectors.full_gc_ns_per_obj.g16", 16),
    ] {
        out.push((name, gc(CollectorKind::MarkSweep, IsoOp::FullGc, threads)));
    }
    out.push((
        "collectors.copy_gc_ns_per_obj",
        gc(CollectorKind::SemiSpace, IsoOp::FullGc, 1),
    ));
    out.push((
        "bookmarking.full_gc_ns_per_obj",
        gc(CollectorKind::Bc, IsoOp::FullGc, 1),
    ));
    out.push((
        "bookmarking.evict_page_us",
        min_of(b, || bc_evict_page_us().0),
    ));

    out.push((
        "simulate.engine_step_ns.p1",
        min_of(b, || engine_step_ns(1, ops)),
    ));
    out.push((
        "simulate.engine_step_ns.p2",
        min_of(b, || engine_step_ns(2, ops / 2)),
    ));
    // 2048 tenants that finish on their first step: construction plus one
    // slice each. The same fleet spinning 50 slices each gives the cost of
    // a slice once the construction is taken off.
    let tenants = 2_048;
    let build_s = min_of(b, || fleet_spin(tenants, 1).0);
    out.push((
        "simulate.fleet_build_us_per_tenant",
        build_s * 1e6 / tenants as f64,
    ));
    let mut slices = 0;
    let spin_s = min_of(b, || {
        let (wall, n) = fleet_spin(tenants, 50);
        slices = n;
        wall
    });
    out.push((
        "simulate.slice_ns",
        ((spin_s - build_s).max(0.0) * 1e9) / (slices - tenants as u64).max(1) as f64,
    ));

    let emit = |sink| min_of(b, || telemetry_emit(ops, sink));
    out.push(("telemetry.emit_off_ns", emit(EmitSink::Off)));
    out.push(("telemetry.emit_ring_ns", emit(EmitSink::Ring)));
    out.push(("telemetry.emit_jsonl_ns", emit(EmitSink::Jsonl)));
    let off = min_of(2, || traced_run_wall(effort.run_scale, 42, false));
    let ring = min_of(2, || traced_run_wall(effort.run_scale, 42, true));
    out.push(("telemetry.ring_overhead_ratio", ring / off));
    out
}
