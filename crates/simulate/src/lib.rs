//! The execution engine and experiment harnesses for *Garbage Collection
//! Without Paging*.
//!
//! This crate ties the pieces together:
//!
//! * [`Program`] — the mutator interface workload generators implement;
//! * [`CollectorKind`] — a registry of every collector the paper evaluates
//!   (the five baselines, their fixed-nursery variants, BC, and the
//!   resizing-only BC ablation);
//! * [`Signalmem`] — the paper's memory-pressure driver (§5.1): it maps,
//!   touches and `mlock`s memory at a configurable initial size, rate, and
//!   target;
//! * [`Driver`] — the one deterministic event loop: any number of
//!   [`JvmProcess`]es and an optional pressure driver take turns over one
//!   shared [`vmm::Vmm`], with O(events) notification delivery. The entry
//!   point picks the order of turns: least simulated time first for
//!   [`run`]/[`run_multi`], round-robin time slices (an O(1) pick) for
//!   [`experiments::run_fleet`]'s hundreds to thousands of tenants;
//! * [`run`]/[`RunConfig`]/[`RunResult`] — one benchmark execution with
//!   full metrics (execution time, pause statistics, paging counters, GC
//!   counters, BMU inputs);
//! * [`min_heap_search`] — the Table 1 minimum-heap measurement;
//! * [`experiments`] — parameter sweeps reproducing each figure.

#![warn(missing_docs)]

mod collector_kind;
mod driver;
pub mod experiments;
mod program;
mod runner;
mod signalmem;

pub use collector_kind::CollectorKind;
pub use driver::{Driver, JvmProcess};
pub use heap::{InjectFault, PolicyKind, SanitizeLevel};
pub use program::{Program, ProgramStatus};
pub use runner::{
    min_heap_search, run, run_multi, run_result, MultiRunResult, RunConfig, RunResult,
};
pub use signalmem::{Signalmem, SignalmemConfig};
