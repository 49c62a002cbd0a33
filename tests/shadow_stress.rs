//! Shadow-heap stress test: every collector is driven through a long,
//! seeded stream of allocations, pointer mutations, root drops, forced
//! collections, and (for the VM-cooperative collectors) memory pressure —
//! while a *shadow model* of the object graph tracks what every reference
//! field must contain. Any lost object, stale pointer, missed remembered
//! set entry, bad forwarding, or bookmark-related resurrection shows up as
//! a divergence between the real heap and the shadow.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use heap::{AllocKind, CollectKind, GcHeap, Handle, MemCtx};
use simtime::{Clock, CostModel};
use simulate::CollectorKind;
use vmm::{ProcessId, Vmm, VmmConfig};

const FIELDS: u16 = 4;

/// One shadow node: what each reference field must point at.
#[derive(Clone, Debug, Default)]
struct ShadowObj {
    fields: [Option<usize>; FIELDS as usize],
}

struct Driver {
    vmm: Vmm,
    clock: Clock,
    pid: ProcessId,
    hog: ProcessId,
    gc: Box<dyn GcHeap>,
    shadow: Vec<ShadowObj>,
    /// A rooted handle per shadow node (the mutator's stable view).
    handles: Vec<Handle>,
    rng: StdRng,
    pinned: u32,
}

impl Driver {
    fn new(kind: CollectorKind, memory_bytes: usize, heap_bytes: usize, seed: u64) -> Driver {
        let mut vmm = Vmm::new(
            VmmConfig::builder().memory_bytes(memory_bytes).build(),
            CostModel::default(),
        );
        let pid = vmm.register_process();
        let hog = vmm.register_process();
        let gc = kind.build(
            heap::HeapConfig::builder().heap_bytes(heap_bytes).build(),
            &mut vmm,
            pid,
        );
        Driver {
            vmm,
            clock: Clock::new(),
            pid,
            hog,
            gc,
            shadow: Vec::new(),
            handles: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            pinned: 0,
        }
    }

    fn alloc_node(&mut self) {
        let mut ctx = MemCtx::new(&mut self.vmm, &mut self.clock, self.pid);
        let h = self
            .gc
            .alloc(
                &mut ctx,
                AllocKind::Scalar {
                    data_words: FIELDS + 2,
                    num_refs: FIELDS,
                },
            )
            .expect("stress heap sized generously");
        self.shadow.push(ShadowObj::default());
        self.handles.push(h);
    }

    fn mutate(&mut self) {
        if self.shadow.len() < 2 {
            return;
        }
        let src = self.rng.random_range(0..self.shadow.len());
        let field = self.rng.random_range(0..FIELDS as u32);
        let target = if self.rng.random::<f64>() < 0.15 {
            None
        } else {
            Some(self.rng.random_range(0..self.shadow.len()))
        };
        let mut ctx = MemCtx::new(&mut self.vmm, &mut self.clock, self.pid);
        self.gc.write_ref(
            &mut ctx,
            self.handles[src],
            field,
            target.map(|t| self.handles[t]),
        );
        self.shadow[src].fields[field as usize] = target;
    }

    fn verify_one(&mut self) {
        if self.shadow.is_empty() {
            return;
        }
        let src = self.rng.random_range(0..self.shadow.len());
        let field = self.rng.random_range(0..FIELDS as u32);
        let mut ctx = MemCtx::new(&mut self.vmm, &mut self.clock, self.pid);
        let got = self.gc.read_ref(&mut ctx, self.handles[src], field);
        match (got, self.shadow[src].fields[field as usize]) {
            (None, None) => {}
            (Some(h), Some(want)) => {
                assert!(
                    self.gc.same_object(h, self.handles[want]),
                    "node {src}.{field}: wrong referent"
                );
                self.gc.drop_handle(h);
            }
            (got, want) => panic!(
                "node {src}.{field}: field null-ness diverged (got {:?}, want {:?})",
                got.is_some(),
                want.is_some()
            ),
        }
    }

    fn verify_all(&mut self) {
        for src in 0..self.shadow.len() {
            for field in 0..FIELDS as u32 {
                let mut ctx = MemCtx::new(&mut self.vmm, &mut self.clock, self.pid);
                let got = self.gc.read_ref(&mut ctx, self.handles[src], field);
                match (got, self.shadow[src].fields[field as usize]) {
                    (None, None) => {}
                    (Some(h), Some(want)) => {
                        assert!(
                            self.gc.same_object(h, self.handles[want]),
                            "final check: node {src}.{field} wrong referent"
                        );
                        self.gc.drop_handle(h);
                    }
                    (got, want) => panic!(
                        "final check: node {src}.{field} diverged (got {:?}, want {:?})",
                        got.is_some(),
                        want.is_some()
                    ),
                }
            }
        }
    }

    fn squeeze(&mut self) {
        // Pin a few pages if the machine still has slack.
        for _ in 0..8 {
            if self.vmm.free_frames() > 16 {
                self.vmm
                    .mlock(self.hog, vmm::VirtPage::new(self.pinned), &mut self.clock);
                self.pinned += 1;
            }
        }
        self.pump();
    }

    fn pump(&mut self) {
        self.vmm.pump(&mut self.clock);
        let mut ctx = MemCtx::new(&mut self.vmm, &mut self.clock, self.pid);
        self.gc.handle_vm_events(&mut ctx);
    }

    fn collect(&mut self, kind: CollectKind) {
        let mut ctx = MemCtx::new(&mut self.vmm, &mut self.clock, self.pid);
        self.gc.collect(&mut ctx, kind);
    }

    fn run(&mut self, ops: usize, with_pressure: bool) {
        for i in 0..ops {
            match self.rng.random_range(0..100) {
                0..=24 => self.alloc_node(),
                25..=69 => self.mutate(),
                70..=89 => self.verify_one(),
                90..=95 => {
                    if with_pressure {
                        self.squeeze();
                    } else {
                        self.pump();
                    }
                }
                96..=97 => self.collect(CollectKind::Minor),
                _ => self.collect(CollectKind::Full),
            }
            if i % 256 == 0 {
                self.pump();
            }
        }
        self.verify_all();
    }
}

#[test]
fn shadow_stress_every_collector_without_pressure() {
    for kind in CollectorKind::ALL {
        let mut d = Driver::new(kind, 128 << 20, 16 << 20, 0xBEEF);
        d.run(4_000, false);
    }
}

#[test]
fn shadow_stress_bc_under_ratcheting_pressure() {
    for seed in [1u64, 2, 3] {
        let mut d = Driver::new(CollectorKind::Bc, 8 << 20, 4 << 20, seed);
        d.run(6_000, true);
        assert!(
            d.vmm.stats(d.pid).notices > 0,
            "seed {seed}: pressure never reached the collector"
        );
    }
}

#[test]
fn shadow_stress_resize_only_under_pressure() {
    let mut d = Driver::new(CollectorKind::BcResizeOnly, 8 << 20, 4 << 20, 77);
    d.run(6_000, true);
}

#[test]
fn shadow_stress_oblivious_collectors_under_pressure() {
    for kind in [
        CollectorKind::GenMs,
        CollectorKind::SemiSpace,
        CollectorKind::CopyMs,
    ] {
        let mut d = Driver::new(kind, 8 << 20, 4 << 20, 5);
        d.run(4_000, true);
    }
}
