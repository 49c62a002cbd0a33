//! A virtual memory manager simulator for *Garbage Collection Without
//! Paging* (PLDI 2005).
//!
//! The paper extends the Linux 2.4.20 kernel (~600 lines, §4.1) so that the
//! garbage collector and the virtual memory manager can cooperate:
//!
//! * the kernel **notifies** a registered runtime (via queued, lossless
//!   real-time signals) just before any of its pages is scheduled for
//!   eviction from the inactive list, and when pages become resident again;
//! * the runtime can **discard** empty pages (`madvise(MADV_DONTNEED)`);
//! * a new **`vm_relinquish`** system call lets the runtime voluntarily
//!   surrender a list of pages, which are placed at the end of the inactive
//!   queue "from which they are quickly swapped out";
//! * `mprotect` guards relinquished pages against the touched-before-evicted
//!   race (§3.4).
//!
//! Reproducing that on a present-day host would need kernel patches or
//! `userfaultfd`/`mincore` plumbing that is host-fragile and
//! non-deterministic. This crate instead **simulates** the same manager: a
//! global approximate-LRU replacement policy — an *active list* managed by a
//! clock algorithm and an *inactive list* that is a FIFO queue, exactly the
//! structure of the Linux 2.4 VM the paper describes — over a fixed number of
//! physical frames shared by any number of simulated processes, with the full
//! cooperation API above. Every touch charges simulated time through
//! [`simtime`], so paging costs are modelled faithfully (major fault ≈ 5 ms
//! vs RAM word ≈ 2 ns).
//!
//! # Example
//!
//! ```
//! use simtime::{Clock, CostModel};
//! use vmm::{Access, Vmm, VmmConfig};
//!
//! let config = VmmConfig::builder().frames(64).build();
//! let mut vmm = Vmm::new(config, CostModel::default());
//! let mut clock = Clock::new();
//! let pid = vmm.register_process();
//! // First touch demand-zero-maps the page.
//! let outcome = vmm.touch(pid, 7.into(), Access::Write, &mut clock);
//! assert!(outcome.zero_filled);
//! assert!(vmm.is_resident(pid, 7.into()));
//! ```

#![warn(missing_docs)]

mod config;
mod events;
mod lists;
mod page;
pub mod pagemap;
mod stats;
#[allow(clippy::module_inception)]
mod vmm;

pub use config::{VmmConfig, VmmConfigBuilder};
pub use events::VmEvent;
pub use page::{Access, PageKey, PageState, ProcessId, TouchOutcome, VirtPage, PAGE_BYTES};
pub use stats::VmStats;
pub use vmm::{ProcessTableFull, Vmm, MAX_PROCESSES};
