//! The baseline garbage collectors of *Garbage Collection Without Paging*.
//!
//! The paper evaluates the bookmarking collector against five collectors
//! shipped with Jikes RVM / MMTk (§5). In MMTk they are compositions of the
//! same few spaces, and so they are here: one generic [`Plan`] — a single
//! allocation ladder, write barrier, forwarding rule and collection driver —
//! over a [`Young`] generation and a [`Mature`] space, with the large
//! object space common to all. The five are the cells of a 2 × 2 matrix
//! plus one switch:
//!
//! | | [`MsSpace`] (mark in place, sweep) | [`CopyMature`] (evacuate, flip) |
//! |---|---|---|
//! | [`NoNursery`] | [`MarkSweep`]: whole-heap, segregated-fit free lists | [`SemiSpace`]: whole-heap copying, 2× copy reserve |
//! | [`GenNursery`] | [`GenMs`]: Appel generational, mark-sweep mature | [`GenCopy`]: Appel generational, copying mature |
//! | [`CopyNursery`] | [`CopyMs`]: "a variant of GenMS which performs only whole-heap garbage collections" | — |
//!
//! [`CopyNursery`] is [`GenNursery`] with nursery collections switched off:
//! no barrier, no remembered set, half of free space as its limit. What a
//! cell pins beyond its two axes (its name, how its full pause is logged,
//! the sanitizer's labels) is its [`Cell`] entry below; a new collector is a
//! `Young` or `Mature` implementation, a `Cell` entry and an alias.
//!
//! The generational collectors also come in the fixed-size-nursery variants
//! of §5.3.2 (4 MB nurseries) via
//! [`NurseryPolicy::FIXED_4MB`](heap::NurseryPolicy::FIXED_4MB).
//!
//! All five are **VM-oblivious**: they never register for paging
//! notifications and touch heap pages without regard to residency — the
//! behaviour whose consequences the paper measures. They share the
//! [`heap`] substrate (object model, spaces, roots, the tracing loop, the
//! sweep) and implement the mutator-facing [`GcHeap`](heap::GcHeap) trait.

#![warn(missing_docs)]

mod mature;
mod plan;
mod young;

pub use mature::{CopyMature, Mature};
pub use plan::{Cell, Plan};
pub use young::{CopyNursery, GenNursery, NoNursery, Young};

use heap::MsSpace;
use simtime::PauseKind;

/// The paper's **MarkSweep** baseline: a single-generation, non-moving,
/// free-list collector. Collection marks from the roots and then sweeps
/// every allocated cell — touching every superpage in the heap, which is why
/// MarkSweep "can take hours to complete" under paging (§5.3.1).
pub type MarkSweep = Plan<NoNursery, MsSpace>;

/// The paper's **SemiSpace** baseline: a single-generation copying
/// collector with a 2× copy reserve. Large objects are mark-swept in the
/// shared large object space.
pub type SemiSpace = Plan<NoNursery, CopyMature>;

/// The paper's **GenCopy** baseline: an Appel-style generational collector
/// with a bump-pointer nursery and a semispace-copying mature space.
/// Nursery collections copy survivors into the mature from-space; full
/// collections copy both generations into the mature to-space and flip.
pub type GenCopy = Plan<GenNursery, CopyMature>;

/// The paper's **GenMS** baseline: bump-pointer nursery, segregated-fit
/// mark-sweep mature space (§5: "Appel-style generational collectors using
/// bump-pointer and mark-sweep mature spaces").
///
/// GenMS "consistently provides high throughput" (§1) and is the collector
/// BC is calibrated against in the no-pressure experiments; under pressure
/// its full-heap collections touch every mature superpage and it suffers
/// the paper's headline pathologies (pauses of seconds to minutes).
pub type GenMs = Plan<GenNursery, MsSpace>;

/// The paper's **CopyMS** baseline: allocation bumps through a copy space;
/// every collection is a full-heap trace that evacuates copy-space survivors
/// into the mark-sweep mature space and sweeps it.
pub type CopyMs = Plan<CopyNursery, MsSpace>;

impl Cell for (NoNursery, MsSpace) {
    const NAME: &'static str = names::MARK_SWEEP;
    const FULL_PAUSE: PauseKind = PauseKind::Full;
    const FULL_CONDEMNED: [&'static str; 2] = ["free space", "free space"];
}

impl Cell for (NoNursery, CopyMature) {
    const NAME: &'static str = names::SEMI_SPACE;
    const FULL_PAUSE: PauseKind = PauseKind::Compacting;
    const FULL_CONDEMNED: [&'static str; 2] = ["unforwarded from-space ref", "released semispace"];
}

impl Cell for (GenNursery, CopyMature) {
    const NAME: &'static str = names::GEN_COPY;
    const FULL_PAUSE: PauseKind = PauseKind::Full;
    const FULL_CONDEMNED: [&'static str; 2] = ["condemned space", "released space"];
}

impl Cell for (GenNursery, MsSpace) {
    const NAME: &'static str = names::GEN_MS;
    const FULL_PAUSE: PauseKind = PauseKind::Full;
    const FULL_CONDEMNED: [&'static str; 2] = ["collected nursery", "swept space"];
}

impl Cell for (CopyNursery, MsSpace) {
    const NAME: &'static str = names::COPY_MS;
    const FULL_PAUSE: PauseKind = PauseKind::Full;
    const FULL_CONDEMNED: [&'static str; 2] = ["collected copy space", "swept space"];
}

/// Convenience aliases matching the paper's collector names.
pub mod names {
    /// The paper calls [`crate::MarkSweep`] "MarkSweep".
    pub const MARK_SWEEP: &str = "MarkSweep";
    /// The paper calls [`crate::SemiSpace`] "SemiSpace".
    pub const SEMI_SPACE: &str = "SemiSpace";
    /// The paper calls [`crate::GenCopy`] "GenCopy".
    pub const GEN_COPY: &str = "GenCopy";
    /// The paper calls [`crate::GenMs`] `GenMS`.
    pub const GEN_MS: &str = "GenMS";
    /// The paper calls [`crate::CopyMs`] `CopyMS`.
    pub const COPY_MS: &str = "CopyMS";
}
