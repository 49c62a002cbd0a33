//! Heap substrate for the bookmarking-collector reproduction.
//!
//! The paper's collectors are built from a small set of shared pieces, all of
//! which live here:
//!
//! * [`SimMemory`] — a byte-addressable simulated address space backed by
//!   lazily allocated 4 KiB pages (contents survive simulated eviction, as a
//!   swap device's would).
//! * The **object model** ([`object`]): two-word headers carrying mark bit,
//!   bookmark bit, kind, size class and reference counts, exactly the
//!   information the paper stores in the Jikes RVM status word.
//! * **Segregated size classes** ([`SizeClasses`]): every allocation size up
//!   to 64 bytes has its own class, 37 larger classes bound internal
//!   fragmentation at 15 % (33 % for the largest five) and page-internal
//!   fragmentation at 25 % (§3).
//! * **Spaces**: a [`BumpSpace`] (nursery / semispaces), an [`MsSpace`] of
//!   16 KiB *superpages* with per-superpage headers (size class, block kind,
//!   incoming-bookmark count), and a page-granular [`LargeObjectSpace`] for
//!   objects over 8180 bytes.
//! * [`RootSet`] — handle-based roots so that moving collectors can update
//!   the mutator's references.
//! * [`WriteBuffer`] and [`CardTable`] — the hybrid remembered set of §3.1.
//! * The [`GcHeap`] trait — the mutator-facing interface every collector
//!   (the five baselines and BC) implements.
//!
//! Every access to heap memory is charged to the simulated [`vmm::Vmm`]
//! through a [`MemCtx`], so collectors pay for the pages they touch — the
//! property at the heart of the paper.

#![warn(missing_docs)]

mod addr;
mod api;
mod bump;
mod card;
mod ctx;
pub mod gc;
mod los;
mod mem;
mod ms;
pub mod object;
pub mod packet;
pub mod policy;
mod pool;
mod roots;
pub mod sanitize;
mod sizeclass;
mod stats;
#[cfg(test)]
mod test_alloc;
mod tracer;
mod wbuf;

pub use addr::{Address, Layout, BYTES_PER_PAGE, BYTES_PER_SUPERPAGE, PAGES_PER_SUPERPAGE, WORD};
pub use api::{
    AllocKind, CollectKind, GcHeap, HeapConfig, HeapConfigBuilder, MetricsSnapshot, NurseryPolicy,
    OutOfMemory, METRICS_SERIES_BUCKET,
};
pub use bump::BumpSpace;
pub use card::CardTable;
pub use ctx::MemCtx;
pub use los::LargeObjectSpace;
pub use mem::{SimMemory, PAGE_BOX_ALIGN};
pub use ms::{AllocatedCells, BlockKind, MsSpace, SpIndex, SuperpageInfo};
pub use object::{Header, ObjectKind, LARGEST_CELL_BYTES, MAX_SMALL_OBJECT_BYTES};
pub use packet::{PacketQueue, TraceScratch, PACKET_CAP};
pub use policy::{HeapSizePolicy, PolicyKind, SizingDecision, SizingInput};
pub use pool::PagePool;
pub use roots::{Handle, RootSet};
pub use sanitize::{Classified, InjectFault, SanitizeError, SanitizeLevel, ShadowSpec};
pub use sizeclass::{SizeClass, SizeClasses};
pub use stats::GcStats;
pub use tracer::MarkQueue;
pub use wbuf::WriteBuffer;
