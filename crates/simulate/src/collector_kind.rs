//! The collector registry: every configuration the paper evaluates.

use core::fmt;

use bookmarking::{BcOptions, Bookmarking};
use collectors::{CopyMs, GenCopy, GenMs, MarkSweep, SemiSpace};
use heap::{GcHeap, HeapConfig, NurseryPolicy};
use vmm::{ProcessId, Vmm};

/// One of the collectors evaluated in §5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// The bookmarking collector (the paper's contribution).
    Bc,
    /// BC with bookmarking disabled: "BC w/Resizing only" (§5.3.2).
    BcResizeOnly,
    /// Whole-heap mark-sweep.
    MarkSweep,
    /// Whole-heap semispace copying.
    SemiSpace,
    /// Appel generational, copying mature space.
    GenCopy,
    /// Appel generational, mark-sweep mature space.
    GenMs,
    /// Whole-heap copy-into-mark-sweep.
    CopyMs,
    /// GenCopy with a fixed 4 MB nursery (§5.3.2).
    GenCopyFixed,
    /// GenMS with a fixed 4 MB nursery (§5.3.2).
    GenMsFixed,
}

impl CollectorKind {
    /// Every collector, in the paper's reporting order.
    pub const ALL: [CollectorKind; 9] = [
        CollectorKind::Bc,
        CollectorKind::BcResizeOnly,
        CollectorKind::MarkSweep,
        CollectorKind::SemiSpace,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
        CollectorKind::GenCopyFixed,
        CollectorKind::GenMsFixed,
    ];

    /// The collectors of the no-pressure comparison (Figure 2).
    pub const FIGURE2: [CollectorKind; 6] = [
        CollectorKind::Bc,
        CollectorKind::MarkSweep,
        CollectorKind::SemiSpace,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
    ];

    /// The collectors of the memory-pressure figures (3–5a; MarkSweep is
    /// excluded there because "runs with this collector can take hours").
    pub const PRESSURE: [CollectorKind; 5] = [
        CollectorKind::Bc,
        CollectorKind::SemiSpace,
        CollectorKind::GenCopy,
        CollectorKind::GenMs,
        CollectorKind::CopyMs,
    ];

    /// Builds a fresh collector instance over `config`, registering it with
    /// the VMM if it is VM-cooperative. The kind overrides two things in
    /// `config`: the tracer's per-pid label becomes the paper's collector
    /// label, and the nursery becomes the kind's own (fixed 4 MB for the
    /// §5.3.2 variants, Appel otherwise).
    ///
    /// `config.policy` defaults to `Fixed`, each baseline's historical
    /// sizing, which BC treats as its built-in shrink-to-footprint. When the
    /// chosen policy wants VMM pressure notifications, the process is
    /// registered for them even for the otherwise VM-oblivious baselines,
    /// so the policy can observe eviction pressure.
    pub fn build(self, mut config: HeapConfig, vmm: &mut Vmm, pid: ProcessId) -> Box<dyn GcHeap> {
        config.tracer.set_label(pid.as_u32(), self.label());
        config.nursery = self.nursery();
        // BC always cooperates with the VMM. A baseline's process is
        // registered only when its sizing policy wants pressure
        // notifications: under `Fixed` baselines stay VM-oblivious, so their
        // event queues remain empty and behaviour is byte-identical to the
        // policy-free code.
        if self.cooperative() || config.policy.wants_notifications() {
            vmm.register_notifications(pid);
        }
        match self {
            // BC variants differ only in their cooperation options; heap
            // sizing is the shared policy layer's job.
            CollectorKind::Bc => Box::new(Bookmarking::new(config, BcOptions::default())),
            CollectorKind::BcResizeOnly => {
                Box::new(Bookmarking::new(config, BcOptions::resizing_only()))
            }
            CollectorKind::MarkSweep => Box::new(MarkSweep::new(config)),
            CollectorKind::SemiSpace => Box::new(SemiSpace::new(config)),
            CollectorKind::GenCopy | CollectorKind::GenCopyFixed => Box::new(GenCopy::new(config)),
            CollectorKind::GenMs | CollectorKind::GenMsFixed => Box::new(GenMs::new(config)),
            CollectorKind::CopyMs => Box::new(CopyMs::new(config)),
        }
    }

    /// Whether the collector registers for paging notifications on its own
    /// account (§4.1's cooperation channel).
    fn cooperative(self) -> bool {
        matches!(self, CollectorKind::Bc | CollectorKind::BcResizeOnly)
    }

    /// The nursery sizing this kind runs with: the §5.3.2 variants fix it at
    /// 4 MB, everything generational else is Appel-style.
    fn nursery(self) -> NurseryPolicy {
        match self {
            CollectorKind::GenCopyFixed | CollectorKind::GenMsFixed => NurseryPolicy::FIXED_4MB,
            _ => NurseryPolicy::Appel,
        }
    }

    /// The paper's label for this collector.
    pub fn label(self) -> &'static str {
        match self {
            CollectorKind::Bc => "BC",
            CollectorKind::BcResizeOnly => "BC w/Resizing only",
            CollectorKind::MarkSweep => "MarkSweep",
            CollectorKind::SemiSpace => "SemiSpace",
            CollectorKind::GenCopy => "GenCopy",
            CollectorKind::GenMs => "GenMS",
            CollectorKind::CopyMs => "CopyMS",
            CollectorKind::GenCopyFixed => "GenCopy (4MB nursery)",
            CollectorKind::GenMsFixed => "GenMS (4MB nursery)",
        }
    }
}

impl fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap::PolicyKind;
    use simtime::{Clock, CostModel};
    use vmm::VmmConfig;

    #[test]
    fn every_kind_builds_and_allocates() {
        for kind in CollectorKind::ALL {
            let mut vmm = Vmm::new(
                VmmConfig::builder().memory_bytes(64 << 20).build(),
                CostModel::default(),
            );
            let mut clock = Clock::new();
            let pid = vmm.register_process();
            let mut gc = kind.build(
                HeapConfig::builder().heap_bytes(8 << 20).build(),
                &mut vmm,
                pid,
            );
            let mut ctx = heap::MemCtx::new(&mut vmm, &mut clock, pid);
            let h = gc
                .alloc(
                    &mut ctx,
                    heap::AllocKind::Scalar {
                        data_words: 4,
                        num_refs: 1,
                    },
                )
                .expect("fresh heap allocates");
            gc.drop_handle(h);
            assert!(!kind.label().is_empty());
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn cooperative_kinds_register_for_notifications() {
        for (kind, expect) in [
            (CollectorKind::Bc, true),
            (CollectorKind::BcResizeOnly, true),
            (CollectorKind::GenMs, false),
        ] {
            let mut vmm = Vmm::new(
                VmmConfig::builder().memory_bytes(4 << 20).build(),
                CostModel::default(),
            );
            let mut clock = Clock::new();
            let pid = vmm.register_process();
            let _gc = kind.build(
                HeapConfig::builder().heap_bytes(1 << 20).build(),
                &mut vmm,
                pid,
            );
            // Force pressure so notices would be queued for registrants.
            let hog = vmm.register_process();
            let mut probe = Clock::new();
            // Touch collector pages first so it owns evictable pages.
            let ctx = heap::MemCtx::new(&mut vmm, &mut clock, pid);
            let _ = ctx;
            for p in 0..300 {
                vmm.touch(pid, vmm::VirtPage::new(p), vmm::Access::Write, &mut probe);
            }
            for p in 0..712 {
                vmm.mlock(hog, vmm::VirtPage::new(p), &mut probe);
            }
            // Several pumps: the first clock pass only clears referenced
            // bits; later passes move pages to the inactive list and
            // schedule evictions.
            for _ in 0..4 {
                vmm.pump(&mut probe);
            }
            assert_eq!(
                vmm.has_events(pid),
                expect,
                "{kind}: notification registration mismatch"
            );
        }
    }

    #[test]
    fn pressure_policies_register_baselines_for_notifications() {
        for (policy, expect) in [
            (PolicyKind::Fixed, false),
            (PolicyKind::BcFootprint { regrow: false }, true),
            (PolicyKind::MemBalancer, true),
        ] {
            let mut vmm = Vmm::new(
                VmmConfig::builder().memory_bytes(4 << 20).build(),
                CostModel::default(),
            );
            let mut clock = Clock::new();
            let pid = vmm.register_process();
            let config = HeapConfig::builder()
                .heap_bytes(1 << 20)
                .policy(policy)
                .build();
            let _gc = CollectorKind::GenMs.build(config, &mut vmm, pid);
            let hog = vmm.register_process();
            let mut probe = Clock::new();
            let ctx = heap::MemCtx::new(&mut vmm, &mut clock, pid);
            let _ = ctx;
            for p in 0..300 {
                vmm.touch(pid, vmm::VirtPage::new(p), vmm::Access::Write, &mut probe);
            }
            for p in 0..712 {
                vmm.mlock(hog, vmm::VirtPage::new(p), &mut probe);
            }
            for _ in 0..4 {
                vmm.pump(&mut probe);
            }
            assert_eq!(
                vmm.has_events(pid),
                expect,
                "GenMs under {policy:?}: notification registration mismatch"
            );
        }
    }
}
