//! Sanitizer self-tests: four seeded collector bugs, each tripping its
//! own distinct `sanitize:` error, plus clean-run controls proving the
//! detectors stay silent on correct collectors.
//!
//! Every faulted run arms exactly one [`InjectFault`] through
//! `RunConfig::sanitize_fault`; the collector consumes it once at its
//! injection site (a dropped remembered-set record, a cleared mark bit, a
//! skipped bookmark pass, a stale forwarding address). The sanitizer at
//! [`SanitizeLevel::Full`] must then abort with the matching message —
//! these tests pin the messages as the sanitizer's user interface. The
//! baselines share one barrier, one mark site and one evacuation site, so
//! each of those faults is armed on every kind of plan that has the
//! mechanism, not on one collector standing for the rest.

use heap::{AllocKind, CollectKind, GcHeap, Handle, MemCtx, OutOfMemory};
use simulate::experiments::dynamic_pressure_config;
use simulate::{
    run, CollectorKind, InjectFault, Program, ProgramStatus, RunConfig, RunResult, SanitizeLevel,
};
use workloads::spec;

fn program(scale: f64, seed: u64) -> Box<dyn Program> {
    Box::new(spec("pseudoJBB").unwrap().program(scale, seed))
}

/// One benchmark run at full sanitization with a single armed fault.
fn faulted(kind: CollectorKind, fault: InjectFault) -> RunResult {
    let mut config = RunConfig::new(kind, 2 << 20, 512 << 20);
    config.sanitize = SanitizeLevel::Full;
    config.sanitize_fault = Some(fault);
    run(&config, program(0.02, 42))
}

/// A mutator whose only path to one young object is a mature-space slot:
/// step 1 promotes `old` out of the nursery, step 2 stores a fresh nursery
/// object into `old`'s field and drops every other reference to it. With
/// the write-barrier record dropped by [`InjectFault::SkipBarrier`], the
/// next minor collection condemns the young object while `old` still
/// points at it — the exact bug class remembered sets exist to prevent.
struct OldToYoung {
    step: u32,
    old: Option<Handle>,
}

impl Program for OldToYoung {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        let kind = AllocKind::Scalar {
            data_words: 4,
            num_refs: 1,
        };
        self.step += 1;
        match self.step {
            1 => {
                self.old = Some(gc.alloc(ctx, kind)?);
                gc.collect(ctx, CollectKind::Minor); // promote `old`
                Ok(ProgramStatus::Running)
            }
            2 => {
                let young = gc.alloc(ctx, kind)?;
                gc.write_ref(ctx, self.old.expect("step 1 ran"), 0, Some(young));
                gc.drop_handle(young);
                gc.collect(ctx, CollectKind::Minor); // shadow trace trips here
                Ok(ProgramStatus::Running)
            }
            _ => Ok(ProgramStatus::Finished),
        }
    }

    fn name(&self) -> &str {
        "old-to-young"
    }

    fn progress(&self) -> f64 {
        f64::from(self.step.min(3)) / 3.0
    }
}

/// [`OldToYoung`] on `kind` with the one write-barrier record it depends on
/// dropped.
fn skipped_barrier(kind: CollectorKind) -> RunResult {
    let mut config = RunConfig::new(kind, 8 << 20, 512 << 20);
    config.sanitize = SanitizeLevel::Full;
    config.sanitize_fault = Some(InjectFault::SkipBarrier);
    run(&config, Box::new(OldToYoung { step: 0, old: None }))
}

/// GenMS drops one remembered-set record in its write barrier: the mature
/// slot keeps pointing at an uncopied nursery object after the trace, and
/// the shadow pass reports the unrecorded edge.
#[test]
#[should_panic(expected = "sanitize: missed barrier")]
fn genms_skipped_barrier_is_caught() {
    let _ = skipped_barrier(CollectorKind::GenMs);
}

/// The barrier is the plan's, not GenMS's: the same dropped record is
/// caught under a copying mature space…
#[test]
#[should_panic(expected = "sanitize: missed barrier")]
fn gencopy_skipped_barrier_is_caught() {
    let _ = skipped_barrier(CollectorKind::GenCopy);
}

/// …and under a fixed-size nursery.
#[test]
#[should_panic(expected = "sanitize: missed barrier")]
fn genms_fixed_skipped_barrier_is_caught() {
    let _ = skipped_barrier(CollectorKind::GenMsFixed);
}

/// MarkSweep clears the mark bit of one reachable object after tracing:
/// the after-trace shadow pass promises every reachable resident object is
/// marked and reports the cleared bit before the sweep frees the object.
#[test]
#[should_panic(expected = "sanitize: unmarked reachable")]
fn marksweep_cleared_mark_is_caught() {
    let _ = faulted(CollectorKind::MarkSweep, InjectFault::ClearMark);
}

/// The same cleared bit in GenMS's mark-sweep mature space, where the
/// object carrying it was promoted (and marked) by the collection itself.
#[test]
#[should_panic(expected = "sanitize: unmarked reachable")]
fn genms_cleared_mark_is_caught() {
    let _ = faulted(CollectorKind::GenMs, InjectFault::ClearMark);
}

/// And in CopyMS, whose every collection is such a full one.
#[test]
#[should_panic(expected = "sanitize: unmarked reachable")]
fn copyms_cleared_mark_is_caught() {
    let _ = faulted(CollectorKind::CopyMs, InjectFault::ClearMark);
}

/// SemiSpace returns the stale from-space address after copying one
/// object: some slot keeps referring to condemned space whose header is a
/// forwarding stub, and the shadow trace reports where the object went.
#[test]
#[should_panic(expected = "sanitize: dangling forward")]
fn semispace_dangling_forward_is_caught() {
    let _ = faulted(CollectorKind::SemiSpace, InjectFault::DanglingForward);
}

/// GenCopy's first evacuation — a nursery survivor promoted by a minor
/// collection — returns the stale nursery address the same way.
#[test]
#[should_panic(expected = "sanitize: dangling forward")]
fn gencopy_dangling_forward_is_caught() {
    let _ = faulted(CollectorKind::GenCopy, InjectFault::DanglingForward);
}

/// BC skips the bookmark pass for one evicted page: an outgoing reference
/// from that page has no incoming-bookmark summary, so after a reload the
/// collector would never find the edge. The bookmark-soundness scan after
/// the next full collection reports the missing summary.
#[test]
#[should_panic(expected = "sanitize: dropped bookmark")]
fn bc_dropped_bookmark_is_caught() {
    // The fault site sits on the eviction path, so the run needs real
    // memory pressure (the accounting tests' 1/50-paper geometry).
    let mut config = dynamic_pressure_config(
        CollectorKind::Bc,
        (100 << 20) / 50,
        (224 << 20) / 50,
        (60 << 20) / 50,
        0.02,
    );
    config.sanitize = SanitizeLevel::Full;
    config.sanitize_fault = Some(InjectFault::DropBookmark);
    let _ = run(&config, program(0.02, 42));
}

/// Control: with no fault armed, every Figure-2 collector completes a full
/// benchmark run under `SanitizeLevel::Full` without tripping anything.
#[test]
fn clean_runs_do_not_trip_the_sanitizer() {
    for kind in CollectorKind::FIGURE2 {
        let mut config = RunConfig::new(kind, 4 << 20, 512 << 20);
        config.sanitize = SanitizeLevel::Full;
        let r = run(&config, program(0.02, 42));
        assert!(r.ok(), "{kind}: sanitized clean run failed");
    }
}

/// Control: BC under the same memory pressure as the dropped-bookmark
/// test, with no fault armed — eviction, bookmarking, and reload all pass
/// the soundness scan.
#[test]
fn clean_bc_pressure_run_does_not_trip_the_sanitizer() {
    let mut config = dynamic_pressure_config(
        CollectorKind::Bc,
        (100 << 20) / 50,
        (224 << 20) / 50,
        (60 << 20) / 50,
        0.02,
    );
    config.sanitize = SanitizeLevel::Full;
    let r = run(&config, program(0.02, 42));
    assert!(r.ok(), "sanitized BC pressure run failed");
}
