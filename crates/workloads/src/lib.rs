//! Synthetic benchmark programs calibrated to Table 1 of *Garbage
//! Collection Without Paging*.
//!
//! The paper evaluates on SPECjvm98 (`_201_compress`, `_202_jess`,
//! `_205_raytrace`, `_209_db`, `_213_javac`, `_228_jack`), two DaCapo
//! benchmarks (`ipsixql`, `jython`), and pseudoJBB — "a fixed-workload
//! variant of SPECjbb". Those Java programs (and the Jikes RVM that ran
//! them) are not reproducible inside a deterministic simulator, so this
//! crate provides **synthetic analogues**: seeded allocation-and-mutation
//! programs whose
//!
//! * total allocation volume matches Table 1 exactly (scaled by a runtime
//!   factor for quick runs),
//! * steady-state live size, object-size mix, and lifetime shape are tuned
//!   to the benchmark's published character (e.g. pseudoJBB "initially
//!   allocates a few immortal objects and then allocates only short-lived
//!   objects", §5.3.2; `_201_compress` works through large buffers;
//!   `_209_db` keeps a resident database it reads intensively).
//!
//! What the experiments measure — collector/VMM interaction under
//! allocation load, live-set pressure, and reference locality — survives
//! this substitution; absolute throughput numbers do not (see DESIGN.md).
//!
//! [`RecordingHeap`] is a [`heap::GcHeap`] with no memory behind it, for
//! pinning and timing a program's calls apart from any collector.
//!
//! # Example
//!
//! ```
//! use workloads::{spec, table1};
//!
//! let pj = spec("pseudoJBB").unwrap();
//! assert_eq!(pj.paper_total_alloc, 233_172_290);
//! assert_eq!(table1().len(), 9);
//! let mut program = pj.program(0.01, 42); // 1% scale, seeded
//! ```

#![warn(missing_docs)]

pub mod programs;
mod recording;
mod spec;
mod synthetic;

pub use programs::{CompressLike, DbLike, TreeBuilder};
pub use recording::RecordingHeap;
pub use spec::{spec, table1, BenchmarkSpec};
pub use synthetic::{AllocCounts, SyntheticProgram};
