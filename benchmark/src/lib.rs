//! `gcbench`: the repository's benchmark — five layer-isolating workloads,
//! six end-to-end metrics and an outside-in per-layer ledger. See
//! `benchmark/README.md` for what is measured and why.

#![warn(missing_docs)]

pub mod adapter;
pub mod compare;
pub mod driver;
pub mod isolate;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod span;
pub mod suite;
