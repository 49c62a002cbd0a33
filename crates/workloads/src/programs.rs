//! Structurally faithful mini-workloads.
//!
//! The statistical generator in [`crate::SyntheticProgram`] matches Table 1's
//! aggregate shapes; the programs here model the *structure* of three of the
//! paper's benchmarks instead — real object graphs with phase behaviour —
//! and double as API-usage examples for writing custom [`Program`]s.

use std::collections::VecDeque;

use heap::{AllocKind, GcHeap, Handle, MemCtx, OutOfMemory};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simulate::{Program, ProgramStatus};

/// `_201_compress`-like: cycles a ring of large buffers (the LZW
/// input/output blocks) over a small immortal dictionary. Allocation is
/// dominated by short-lived large arrays — the pattern that exercises the
/// large object space and produces wholly empty pages when buffers retire.
#[derive(Debug)]
pub struct CompressLike {
    dictionary: Vec<Handle>,
    ring: VecDeque<Handle>,
    rng: StdRng,
    blocks_left: usize,
    total_blocks: usize,
}

impl CompressLike {
    /// A run compressing `blocks` buffers (each a 16–64 KiB array).
    pub fn new(blocks: usize, seed: u64) -> CompressLike {
        CompressLike {
            dictionary: Vec::new(),
            ring: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            blocks_left: blocks,
            total_blocks: blocks.max(1),
        }
    }
}

impl Program for CompressLike {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        // Build the dictionary once: 512 small nodes.
        if self.dictionary.is_empty() {
            for _ in 0..512 {
                self.dictionary.push(gc.alloc(
                    ctx,
                    AllocKind::Scalar {
                        data_words: 6,
                        num_refs: 1,
                    },
                )?);
            }
        }
        for _ in 0..4 {
            if self.blocks_left == 0 {
                return Ok(ProgramStatus::Finished);
            }
            let work = ctx.vmm.costs().mutator_work;
            ctx.clock.advance(work * 64); // "compressing" a block
            let words = self.rng.random_range(4_096..16_384u32);
            let block = gc.alloc(ctx, AllocKind::DataArray { len: words })?;
            gc.write_data(ctx, block); // fill the buffer
                                       // Dictionary lookups: touch random entries.
            for _ in 0..32 {
                let i = self.rng.random_range(0..self.dictionary.len());
                gc.read_data(ctx, self.dictionary[i]);
            }
            self.ring.push_back(block);
            if self.ring.len() > 3 {
                gc.drop_handle(self.ring.pop_front().unwrap());
            }
            self.blocks_left -= 1;
        }
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        "compress-like"
    }

    fn progress(&self) -> f64 {
        1.0 - self.blocks_left as f64 / self.total_blocks as f64
    }
}

/// `_209_db`-like: an immortal database of records read intensively, with
/// occasional updates that swap record payloads — a resident working set
/// the LRU must keep in memory while the transaction garbage churns.
#[derive(Debug)]
pub struct DbLike {
    /// The database: record nodes (immortal).
    records: Vec<Handle>,
    rng: StdRng,
    transactions_left: usize,
    total: usize,
    record_target: usize,
}

impl DbLike {
    /// A database of `records` records serving `transactions` lookups.
    pub fn new(records: usize, transactions: usize, seed: u64) -> DbLike {
        DbLike {
            records: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            transactions_left: transactions,
            total: transactions.max(1),
            record_target: records.max(1),
        }
    }
}

impl Program for DbLike {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        // Load phase: build the database.
        if self.records.len() < self.record_target {
            for _ in 0..256 {
                if self.records.len() >= self.record_target {
                    break;
                }
                let rec = gc.alloc(
                    ctx,
                    AllocKind::Scalar {
                        data_words: 16,
                        num_refs: 2,
                    },
                )?;
                // Link each record to its predecessor (index chains).
                if let Some(&prev) = self.records.last() {
                    gc.write_ref(ctx, rec, 0, Some(prev));
                }
                self.records.push(rec);
            }
            return Ok(ProgramStatus::Running);
        }
        // Transaction phase.
        for _ in 0..128 {
            if self.transactions_left == 0 {
                return Ok(ProgramStatus::Finished);
            }
            let work = ctx.vmm.costs().mutator_work;
            ctx.clock.advance(work);
            // A lookup reads a handful of random records (a scan).
            for _ in 0..4 {
                let i = self.rng.random_range(0..self.records.len());
                gc.read_data(ctx, self.records[i]);
            }
            // A result set: short-lived.
            let result = gc.alloc(
                ctx,
                AllocKind::RefArray {
                    len: self.rng.random_range(4..16),
                },
            )?;
            let i = self.rng.random_range(0..self.records.len());
            gc.write_ref(ctx, result, 0, Some(self.records[i]));
            gc.drop_handle(result);
            // Rarely, an update: re-point a record's payload field.
            if self.rng.random::<f64>() < 0.05 {
                let payload = gc.alloc(
                    ctx,
                    AllocKind::Scalar {
                        data_words: 8,
                        num_refs: 0,
                    },
                )?;
                let i = self.rng.random_range(0..self.records.len());
                gc.write_ref(ctx, self.records[i], 1, Some(payload));
                gc.drop_handle(payload);
            }
            self.transactions_left -= 1;
        }
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        "db-like"
    }

    fn progress(&self) -> f64 {
        1.0 - self.transactions_left as f64 / self.total as f64
    }
}

/// GCBench-style tree builder (javac-like linked structures): repeatedly
/// builds complete binary trees top-down, holds a few long-lived ones, and
/// drops the rest — deep object graphs with bulk deaths, the classic
/// stress for tracing collectors.
#[derive(Debug)]
pub struct TreeBuilder {
    long_lived: Vec<Handle>,
    iterations_left: usize,
    total: usize,
    depth: u32,
}

impl TreeBuilder {
    /// Builds `iterations` trees of `depth` levels (depth 10 ≈ 1023 nodes).
    pub fn new(iterations: usize, depth: u32, seed: u64) -> TreeBuilder {
        let _ = seed; // tree shape is deterministic; kept for signature parity
        TreeBuilder {
            long_lived: Vec::new(),
            iterations_left: iterations,
            total: iterations.max(1),
            depth: depth.clamp(2, 16),
        }
    }

    fn build_tree(
        &self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
        depth: u32,
    ) -> Result<Handle, OutOfMemory> {
        let node = gc.alloc(
            ctx,
            AllocKind::Scalar {
                data_words: 4,
                num_refs: 2,
            },
        )?;
        if depth > 1 {
            let left = self.build_tree(gc, ctx, depth - 1)?;
            let right = self.build_tree(gc, ctx, depth - 1)?;
            gc.write_ref(ctx, node, 0, Some(left));
            gc.write_ref(ctx, node, 1, Some(right));
            gc.drop_handle(left);
            gc.drop_handle(right);
        }
        Ok(node)
    }

    /// Counts nodes by walking a tree (verification helper).
    pub fn count_nodes(gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>, root: Handle) -> usize {
        let mut count = 1;
        for field in 0..2 {
            if let Some(child) = gc.read_ref(ctx, root, field) {
                count += Self::count_nodes(gc, ctx, child);
                gc.drop_handle(child);
            }
        }
        count
    }
}

impl Program for TreeBuilder {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        if self.iterations_left == 0 {
            return Ok(ProgramStatus::Finished);
        }
        let work = ctx.vmm.costs().mutator_work;
        ctx.clock.advance(work * 16);
        let tree = self.build_tree(gc, ctx, self.depth)?;
        // Every 8th tree becomes long-lived; cap the long-lived set.
        if self.iterations_left.is_multiple_of(8) && self.long_lived.len() < 8 {
            self.long_lived.push(tree);
        } else {
            gc.drop_handle(tree);
        }
        self.iterations_left -= 1;
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        "tree-builder"
    }

    fn progress(&self) -> f64 {
        1.0 - self.iterations_left as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heap::CollectKind;
    use simulate::{run, CollectorKind, RunConfig};

    fn run_program(p: Box<dyn Program>, heap: usize) -> simulate::RunResult {
        run(&RunConfig::new(CollectorKind::Bc, heap, 256 << 20), p)
    }

    #[test]
    fn compress_like_is_los_heavy() {
        let r = run_program(Box::new(CompressLike::new(200, 1)), 8 << 20);
        assert!(r.ok(), "oom={} timeout={}", r.oom, r.timed_out);
        // 200 blocks of 16-64 KiB dominate the allocation volume.
        assert!(r.gc.bytes_allocated > 200 * 16_384);
        assert!(r.gc.total_gcs() >= 1);
    }

    #[test]
    fn db_like_completes_with_resident_database() {
        let r = run_program(Box::new(DbLike::new(5_000, 50_000, 2)), 8 << 20);
        assert!(r.ok());
        // Database (5k x 72B) + transaction churn.
        assert!(r.gc.objects_allocated > 55_000);
    }

    #[test]
    fn tree_builder_reclaims_dropped_trees() {
        let r = run_program(Box::new(TreeBuilder::new(400, 10, 3)), 4 << 20);
        assert!(r.ok());
        // 400 trees x 1023 nodes (~10 MiB) but only ~8 trees stay live:
        // collections must have happened in a 4 MiB heap.
        assert!(r.gc.objects_allocated > 400_000);
        assert!(r.gc.total_gcs() >= 2);
    }

    #[test]
    fn tree_structure_survives_collection_on_every_collector() {
        for kind in [
            CollectorKind::Bc,
            CollectorKind::SemiSpace,
            CollectorKind::GenMs,
        ] {
            let mut vmm = vmm::Vmm::new(
                vmm::VmmConfig::builder().memory_bytes(64 << 20).build(),
                simtime::CostModel::default(),
            );
            let mut clock = simtime::Clock::new();
            let pid = vmm.register_process();
            let mut gc = kind.build(
                heap::HeapConfig::builder().heap_bytes(8 << 20).build(),
                &mut vmm,
                pid,
            );
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            let builder = TreeBuilder::new(1, 8, 0);
            let root = builder.build_tree(gc.as_mut(), &mut ctx, 8).unwrap();
            gc.collect(&mut ctx, CollectKind::Full);
            let nodes = TreeBuilder::count_nodes(gc.as_mut(), &mut ctx, root);
            assert_eq!(nodes, 255, "{kind}: tree mangled by collection");
        }
    }
}
