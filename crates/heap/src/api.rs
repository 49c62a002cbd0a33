//! The mutator-facing collector interface.
//!
//! Workload programs drive any collector through [`GcHeap`]: they hold
//! [`Handle`]s (never raw addresses), allocate with [`GcHeap::alloc`], and
//! read/write reference fields through the collector so that write barriers
//! fire and paging costs are charged.

use core::fmt;
use std::error::Error;

use simtime::{Nanos, PauseLog, PauseStats};
use telemetry::Tracer;

use crate::addr::Layout;
use crate::ctx::MemCtx;
use crate::object::ObjectKind;
use crate::policy::PolicyKind;
use crate::roots::Handle;
use crate::sanitize::{InjectFault, SanitizeLevel};
use crate::stats::GcStats;

/// What the mutator asks to allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// A fixed-shape object with `data_words` payload words, the first
    /// `num_refs` of which are reference fields.
    Scalar {
        /// Payload words (header excluded).
        data_words: u16,
        /// Leading reference fields.
        num_refs: u16,
    },
    /// An array of `len` reference elements.
    RefArray {
        /// Element count.
        len: u32,
    },
    /// An array of `len` non-reference words.
    DataArray {
        /// Element count.
        len: u32,
    },
}

impl AllocKind {
    /// The object-model shape for this request.
    #[inline]
    pub fn object_kind(&self) -> ObjectKind {
        match *self {
            AllocKind::Scalar {
                data_words,
                num_refs,
            } => ObjectKind::scalar(data_words, num_refs),
            AllocKind::RefArray { len } => ObjectKind::Array { len, refs: true },
            AllocKind::DataArray { len } => ObjectKind::Array { len, refs: false },
        }
    }

    /// Total size in bytes, header included.
    #[inline]
    pub fn size_bytes(&self) -> u32 {
        self.object_kind().size_bytes()
    }
}

/// The heap is exhausted: even after full collection (and, for BC, the
/// completeness fail-safe) the allocation cannot be satisfied within the
/// configured heap size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The request that failed, in bytes.
    pub requested_bytes: u32,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "heap exhausted allocating {} bytes",
            self.requested_bytes
        )
    }
}

impl Error for OutOfMemory {}

/// Nursery sizing policy (§5.3.2 compares Appel-style variable nurseries
/// against 4 MB fixed nurseries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NurseryPolicy {
    /// Appel-style: the nursery gets half of the currently free heap.
    Appel,
    /// A fixed-size nursery (the paper's fixed variants use 4 MB).
    Fixed {
        /// Nursery size in bytes.
        bytes: u32,
    },
}

impl NurseryPolicy {
    /// The paper's fixed-nursery configuration (4 MB).
    pub const FIXED_4MB: NurseryPolicy = NurseryPolicy::Fixed {
        bytes: 4 * 1024 * 1024,
    };
}

/// What kind of collection is requested of [`GcHeap::collect`].
///
/// Single-generation collectors treat [`CollectKind::Minor`] as a full
/// collection (they have nothing smaller to run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollectKind {
    /// A nursery collection (generational collectors only).
    Minor,
    /// A full-heap collection.
    Full,
}

/// Static configuration for one collector instance.
///
/// Build with [`HeapConfig::builder`]:
///
/// ```
/// use heap::{HeapConfig, NurseryPolicy};
///
/// let config = HeapConfig::builder()
///     .heap_bytes(32 << 20)
///     .nursery(NurseryPolicy::FIXED_4MB)
///     .build();
/// assert_eq!(config.heap_bytes, 32 << 20);
/// ```
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Total heap budget in bytes (the experiments' "heap size").
    pub heap_bytes: usize,
    /// Nursery sizing (ignored by the single-generation collectors).
    pub nursery: NurseryPolicy,
    /// Address-space layout.
    pub layout: Layout,
    /// Heap-sizing policy (see [`crate::policy`]); [`PolicyKind::Fixed`]
    /// (the default) reproduces each collector's historical behaviour.
    pub policy: PolicyKind,
    /// Structured-event sink; [`Tracer::disabled`] (the default) records
    /// nothing and costs one branch per would-be event.
    pub tracer: Tracer,
    /// Sanitizer level (see [`crate::sanitize`]); [`SanitizeLevel::Off`]
    /// (the default) costs nothing.
    pub sanitize: SanitizeLevel,
    /// A collector fault to inject once, for sanitizer self-tests; `None`
    /// (the default) outside `tests/sanitize_faults.rs`.
    pub sanitize_fault: Option<InjectFault>,
    /// Simulated GC worker count for the packet-drain tracer (see
    /// [`crate::packet`]). The default, 1, reproduces the sequential tracer
    /// byte-for-byte; larger counts model parallel tracing with the pause
    /// charged as the critical path over workers.
    pub gc_threads: usize,
}

impl HeapConfig {
    /// Starts building a configuration (32 MB heap, Appel nursery,
    /// standard layout, tracing disabled until overridden).
    pub fn builder() -> HeapConfigBuilder {
        HeapConfigBuilder {
            config: HeapConfig {
                heap_bytes: 32 << 20,
                nursery: NurseryPolicy::Appel,
                layout: Layout::standard(),
                policy: PolicyKind::Fixed,
                tracer: Tracer::disabled(),
                sanitize: SanitizeLevel::Off,
                sanitize_fault: None,
                gc_threads: 1,
            },
        }
    }
}

/// Builder for [`HeapConfig`]; see [`HeapConfig::builder`].
#[derive(Clone, Debug)]
pub struct HeapConfigBuilder {
    config: HeapConfig,
}

impl HeapConfigBuilder {
    /// Sets the total heap budget in bytes.
    pub fn heap_bytes(mut self, heap_bytes: usize) -> HeapConfigBuilder {
        self.config.heap_bytes = heap_bytes;
        self
    }

    /// Sets the nursery sizing policy.
    pub fn nursery(mut self, nursery: NurseryPolicy) -> HeapConfigBuilder {
        self.config.nursery = nursery;
        self
    }

    /// Sets the address-space layout.
    pub fn layout(mut self, layout: Layout) -> HeapConfigBuilder {
        self.config.layout = layout;
        self
    }

    /// Sets the heap-sizing policy.
    pub fn policy(mut self, policy: PolicyKind) -> HeapConfigBuilder {
        self.config.policy = policy;
        self
    }

    /// Attaches a telemetry tracer; the collector emits collection/phase
    /// spans and cooperation events through it.
    pub fn tracer(mut self, tracer: Tracer) -> HeapConfigBuilder {
        self.config.tracer = tracer;
        self
    }

    /// Sets the sanitizer level.
    pub fn sanitize(mut self, level: SanitizeLevel) -> HeapConfigBuilder {
        self.config.sanitize = level;
        self
    }

    /// Arms a one-shot collector fault for sanitizer self-tests.
    pub fn sanitize_fault(mut self, fault: InjectFault) -> HeapConfigBuilder {
        self.config.sanitize_fault = Some(fault);
        self
    }

    /// Sets the simulated GC worker count (clamped to `1..=64`).
    pub fn gc_threads(mut self, threads: usize) -> HeapConfigBuilder {
        self.config.gc_threads = threads.clamp(1, 64);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> HeapConfig {
        self.config
    }
}

/// Time-series bucket width used when [`GcHeap::metrics`] aggregates a
/// trace (100 simulated milliseconds).
pub const METRICS_SERIES_BUCKET: Nanos = Nanos(100_000_000);

/// A unified end-of-run metrics view: collector counters, paging counters,
/// pause summary, and (when tracing was enabled with an in-memory sink)
/// the aggregated event stream with per-phase pause histograms.
///
/// The `gc` and `vm` fields are the same [`GcStats`] and [`vmm::VmStats`]
/// values callers previously read separately — kept as documented views so
/// their field names remain the vocabulary of reports.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Collector name ("BC", "GenMS", …).
    pub collector: &'static str,
    /// Collector counters (view of [`GcHeap::stats`]).
    pub gc: GcStats,
    /// Paging counters for this process (view of [`vmm::Vmm::stats`]).
    pub vm: vmm::VmStats,
    /// Stop-the-world pause summary (view of [`GcHeap::pause_log`]).
    pub pauses: PauseStats,
    /// Heap pages currently charged against the budget.
    pub heap_pages_used: usize,
    /// High-water mark of heap pages ever charged at once — the run's
    /// total-memory axis in the `fig_policy` Pareto tables.
    pub heap_pages_peak: usize,
    /// Aggregated telemetry — per-phase/per-kind histograms and a
    /// time-bucketed series — when the tracer retains events in memory;
    /// `None` for disabled tracers and streaming (JSONL) sinks.
    pub trace: Option<telemetry::Aggregate>,
}

impl MetricsSnapshot {
    /// Total collections of any kind (view of `gc.total_gcs()`).
    pub fn total_gcs(&self) -> u64 {
        self.gc.total_gcs()
    }

    /// Major faults taken by this process (view of `vm.major_faults`).
    pub fn major_faults(&self) -> u64 {
        self.vm.major_faults
    }

    /// The per-phase duration histogram, when a trace captured it.
    pub fn phase_histogram(
        &self,
        phase: telemetry::GcPhase,
    ) -> Option<&telemetry::DurationHistogram> {
        self.trace.as_ref().and_then(|t| t.phase(phase))
    }
}

/// The interface every collector implements; the mutator's only view of
/// the heap.
///
/// Handles remain valid across collections (moving collectors update the
/// root table); raw addresses must never be held across a call that may
/// collect.
pub trait GcHeap {
    /// Allocates an object, collecting as needed.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] when the heap budget cannot satisfy the
    /// request even after full collection.
    fn alloc(&mut self, ctx: &mut MemCtx<'_>, kind: AllocKind) -> Result<Handle, OutOfMemory>;

    /// Stores `val` (or null) into reference field `field` of `src`,
    /// through the write barrier.
    fn write_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32, val: Option<Handle>);

    /// Loads reference field `field` of `src`, returning a fresh handle (or
    /// `None` for null). The caller owns the handle and must
    /// [`drop_handle`](GcHeap::drop_handle) it.
    fn read_ref(&mut self, ctx: &mut MemCtx<'_>, src: Handle, field: u32) -> Option<Handle>;

    /// Touches the whole object (a read of its payload) — models mutator
    /// data accesses for locality/paging purposes.
    fn read_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle);

    /// Touches the whole object with a write.
    fn write_data(&mut self, ctx: &mut MemCtx<'_>, obj: Handle);

    /// Whether two handles currently denote the same object (reference
    /// equality, stable across moving collections).
    fn same_object(&self, a: Handle, b: Handle) -> bool;

    /// Duplicates a handle (a second independent root to the same object).
    fn dup_handle(&mut self, h: Handle) -> Handle;

    /// Releases a handle; the object may become unreachable.
    fn drop_handle(&mut self, h: Handle);

    /// Forces a collection of the requested [`CollectKind`].
    fn collect(&mut self, ctx: &mut MemCtx<'_>, kind: CollectKind);

    /// Processes queued virtual-memory notifications (eviction notices,
    /// residency changes, protection faults). Called by the engine after
    /// every mutator step; only the bookmarking collector reacts.
    fn handle_vm_events(&mut self, ctx: &mut MemCtx<'_>);

    /// Collector counters.
    fn stats(&self) -> &GcStats;

    /// Stop-the-world pause log.
    fn pause_log(&self) -> &PauseLog;

    /// Ends the heap's process: the program driving it has finished or run
    /// out of memory, so its simulated memory's host pages are dropped.
    /// Counters, the pause log, the tracer and the page counts stay
    /// readable; the VMM is not told. Called once, by the driver.
    fn exit(&mut self) {}

    /// Heap pages currently charged against the budget.
    fn heap_pages_used(&self) -> usize;

    /// High-water mark of heap pages ever charged at once.
    fn heap_pages_peak(&self) -> usize {
        self.heap_pages_used()
    }

    /// Short collector name ("BC", "GenMS", …) for reports.
    fn name(&self) -> &'static str;

    /// The tracer this collector emits telemetry through (disabled unless
    /// one was configured).
    fn tracer(&self) -> &Tracer;

    /// One unified metrics view: collector counters, the caller-supplied
    /// paging counters, the pause summary, and — when the tracer retains
    /// events in memory — aggregated per-phase histograms.
    ///
    /// Paging counters live in the shared [`vmm::Vmm`], which the collector
    /// does not own; pass `vmm.stats(pid)` for this collector's process.
    fn metrics(&self, vm: &vmm::VmStats) -> MetricsSnapshot {
        let events = self.tracer().snapshot();
        let trace =
            (!events.is_empty()).then(|| telemetry::aggregate(&events, METRICS_SERIES_BUCKET));
        MetricsSnapshot {
            collector: self.name(),
            gc: *self.stats(),
            vm: *vm,
            pauses: self.pause_log().stats(),
            heap_pages_used: self.heap_pages_used(),
            heap_pages_peak: self.heap_pages_peak(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_kind_sizes() {
        assert_eq!(
            AllocKind::Scalar {
                data_words: 4,
                num_refs: 2
            }
            .size_bytes(),
            8 + 16
        );
        assert_eq!(AllocKind::RefArray { len: 10 }.size_bytes(), 8 + 40);
        assert_eq!(AllocKind::DataArray { len: 0 }.size_bytes(), 8);
    }

    #[test]
    fn out_of_memory_displays_request() {
        let e = OutOfMemory {
            requested_bytes: 64,
        };
        assert_eq!(e.to_string(), "heap exhausted allocating 64 bytes");
    }

    #[test]
    fn fixed_nursery_constant_is_4mb() {
        match NurseryPolicy::FIXED_4MB {
            NurseryPolicy::Fixed { bytes } => assert_eq!(bytes, 4 << 20),
            _ => panic!("wrong variant"),
        }
    }
}
