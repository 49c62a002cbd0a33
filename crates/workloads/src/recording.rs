//! A [`GcHeap`] that records instead of allocating.
//!
//! [`RecordingHeap`] owns no simulated memory and never collects: it hands
//! out handles from a counter and folds every call a program makes into
//! one FNV-1a hash. That hash is the program's *op stream* — what it asked
//! of the heap, in order — independent of any collector, so a generator
//! change that would move a figure golden shows up here in milliseconds
//! (`tests/op_stream.rs`), and a micro-benchmark can time the generator
//! alone (`mechanisms.rs`, group `synthetic_step_x256`).

use heap::{
    Address, AllocKind, CollectKind, GcHeap, GcStats, Handle, MemCtx, OutOfMemory, RootSet, WORD,
};
use simtime::PauseLog;
use telemetry::Tracer;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`GcHeap`] with no memory behind it: handles come from a counter and
/// every call is folded into one FNV-1a hash, the program's op stream.
#[derive(Debug)]
pub struct RecordingHeap {
    /// Mints handles: nothing is ever removed, so handle `n` is the `n`-th
    /// allocation and the stream does not depend on slot recycling.
    roots: RootSet,
    hash: u64,
    ops: u64,
    stats: GcStats,
    pauses: PauseLog,
    tracer: Tracer,
}

impl RecordingHeap {
    /// An empty recorder.
    pub fn new() -> RecordingHeap {
        RecordingHeap {
            roots: RootSet::new(),
            hash: FNV_OFFSET,
            ops: 0,
            stats: GcStats::default(),
            pauses: PauseLog::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The FNV-1a hash of every call recorded so far.
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Calls recorded so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Folds one call: its tag and up to three operands.
    #[inline]
    fn fold(&mut self, tag: u64, a: u64, b: u64, c: u64) {
        for word in [tag, a, b, c] {
            self.hash = (self.hash ^ word).wrapping_mul(FNV_PRIME);
        }
        self.ops += 1;
    }
}

impl Default for RecordingHeap {
    fn default() -> RecordingHeap {
        RecordingHeap::new()
    }
}

/// A handle as an operand; `None` (a null store) is 0.
fn operand(h: Option<Handle>) -> u64 {
    h.map_or(0, |h| h.index() as u64 + 1)
}

impl GcHeap for RecordingHeap {
    fn alloc(&mut self, _ctx: &mut MemCtx<'_>, kind: AllocKind) -> Result<Handle, OutOfMemory> {
        let (shape, a, b) = match kind {
            AllocKind::Scalar {
                data_words,
                num_refs,
            } => (0, data_words as u64, num_refs as u64),
            AllocKind::RefArray { len } => (1, len as u64, 0),
            AllocKind::DataArray { len } => (2, len as u64, 0),
        };
        self.fold(1, shape, a, b);
        Ok(self.roots.add(Address(WORD)))
    }

    fn write_ref(&mut self, _ctx: &mut MemCtx<'_>, src: Handle, field: u32, val: Option<Handle>) {
        self.fold(2, operand(Some(src)), field as u64, operand(val));
    }

    fn read_ref(&mut self, _ctx: &mut MemCtx<'_>, src: Handle, field: u32) -> Option<Handle> {
        self.fold(3, operand(Some(src)), field as u64, 0);
        None
    }

    fn read_data(&mut self, _ctx: &mut MemCtx<'_>, obj: Handle) {
        self.fold(4, operand(Some(obj)), 0, 0);
    }

    fn write_data(&mut self, _ctx: &mut MemCtx<'_>, obj: Handle) {
        self.fold(5, operand(Some(obj)), 0, 0);
    }

    fn same_object(&self, a: Handle, b: Handle) -> bool {
        a == b
    }

    fn dup_handle(&mut self, h: Handle) -> Handle {
        self.fold(6, operand(Some(h)), 0, 0);
        self.roots.add(Address(WORD))
    }

    fn drop_handle(&mut self, h: Handle) {
        self.fold(7, operand(Some(h)), 0, 0);
    }

    fn collect(&mut self, _ctx: &mut MemCtx<'_>, kind: CollectKind) {
        self.fold(8, kind as u64, 0, 0);
    }

    fn handle_vm_events(&mut self, _ctx: &mut MemCtx<'_>) {}

    fn stats(&self) -> &GcStats {
        &self.stats
    }

    fn pause_log(&self) -> &PauseLog {
        &self.pauses
    }

    fn heap_pages_used(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "Recording"
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}
