//! The synthetic mutator: a seeded allocation/mutation/read loop shaped by
//! a [`BenchmarkSpec`].

use std::collections::VecDeque;
use std::ops::Range;

use heap::{AllocKind, GcHeap, Handle, MemCtx, OutOfMemory};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use simulate::{Program, ProgramStatus};

use crate::spec::BenchmarkSpec;

/// Allocations per engine step (bounded so the engine can interleave
/// processes and pump the VMM).
const BATCH: usize = 256;

/// `random::<f64>()` is `k * 2^-53` for the uniform integer
/// `k = next_u64() >> 11`, so it takes exactly this many values.
const F64_DRAWS: f64 = (1u64 << 53) as f64;

/// The threshold `t` for which `(next_u64() >> 11) < t` is exactly
/// `random::<f64>() < p`.
///
/// `k * 2^-53` and `p * 2^53` are both exact (a power-of-two scaling of a
/// value with at most 53 significant bits), so `k * 2^-53 < p` iff
/// `k < p * 2^53` iff, `k` being an integer, `k < ceil(p * 2^53)`. The
/// saturating cast covers the edges: `p <= 0` and NaN give 0 (never),
/// `p >= 1` gives at least `2^53` (always).
fn chance(p: f64) -> u64 {
    (p * F64_DRAWS).ceil() as u64
}

/// One Bernoulli trial against a [`chance`] threshold. Consumes exactly the
/// one `next_u64` that `random::<f64>()` would.
#[inline]
fn hit(rng: &mut StdRng, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// A per-allocation activity rate `r` (mutations, reads): with probability
/// `fract(r)` — always, once `r >= 1` — do `min(trunc(r) + 1, 4)` of them.
/// The trial is drawn even when its outcome is certain.
#[derive(Clone, Copy, Debug)]
struct Rate {
    threshold: u64,
    count: usize,
}

impl Rate {
    fn new(per_alloc: f64) -> Rate {
        Rate {
            threshold: chance(if per_alloc >= 1.0 {
                1.0
            } else {
                per_alloc.fract()
            }),
            count: (per_alloc as usize + 1).min(4),
        }
    }
}

/// Everything [`SyntheticProgram`] needs from its [`BenchmarkSpec`], worked
/// out once: each probability as an integer threshold, each size range with
/// its clamps applied. Nothing here changes which random draws are made or
/// in what order; it only removes the per-allocation arithmetic on
/// constants.
#[derive(Clone, Debug)]
struct Plan {
    /// `None` when the spec has no large objects: that trial is then not
    /// drawn at all.
    large: Option<u64>,
    array: u64,
    /// Array lengths; the range starts at 1 or above.
    array_len: Range<u32>,
    /// Of arrays, the share holding references.
    ref_array: u64,
    scalar_words: Range<u16>,
    survivor: u64,
    mutations: Rate,
    /// Of mutations, the share storing null.
    clear: u64,
    reads: Rate,
    /// Reads favour the immortal working set 2:1.
    read_immortal: u64,
}

impl Plan {
    fn new(spec: &BenchmarkSpec) -> Plan {
        let array_mean = spec.mean_array_len.max(2);
        let scalar_mean = spec.mean_scalar_words.max(3);
        Plan {
            large: (spec.large_fraction > 0.0).then(|| chance(spec.large_fraction)),
            array: chance(spec.array_fraction),
            array_len: array_mean / 2..array_mean * 2,
            ref_array: chance(0.3),
            scalar_words: scalar_mean / 2..scalar_mean * 2,
            survivor: chance(spec.survivor_fraction),
            mutations: Rate::new(spec.mutations_per_alloc),
            clear: chance(0.2),
            reads: Rate::new(spec.reads_per_alloc),
            read_immortal: chance(0.67),
        }
    }
}

/// One live object the program is holding.
#[derive(Clone, Copy, Debug)]
struct Held {
    handle: Handle,
    /// Reference slots available for linking.
    ref_slots: u32,
    bytes: u32,
}

/// A deterministic synthetic benchmark program. See the
/// [crate docs](crate) for the modelling rationale.
#[derive(Debug)]
pub struct SyntheticProgram {
    plan: Plan,
    name: &'static str,
    rng: StdRng,
    /// Bytes left to allocate.
    remaining: u64,
    total: u64,
    /// The immortal set (allocated during the prelude, never dropped).
    immortal: Vec<Held>,
    immortal_target: u64,
    immortal_bytes: u64,
    /// The FIFO live window.
    window: VecDeque<Held>,
    window_bytes: u64,
    window_target: u64,
    /// Observability counters (distribution tests, reports).
    counts: AllocCounts,
}

/// How the generator's allocations were distributed (for calibration
/// checks and reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Total objects allocated.
    pub total: u64,
    /// Arrays (reference or data).
    pub arrays: u64,
    /// Large objects (> 8180 bytes).
    pub large: u64,
    /// Allocations routed to the live window (survivors).
    pub survivors: u64,
    /// Allocations dropped immediately (short-lived).
    pub short_lived: u64,
}

impl SyntheticProgram {
    /// Builds the program at `scale` of the paper's allocation volume.
    pub fn new(spec: BenchmarkSpec, scale: f64, seed: u64) -> SyntheticProgram {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let total = (spec.paper_total_alloc as f64 * scale) as u64;
        SyntheticProgram {
            plan: Plan::new(&spec),
            name: spec.name,
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            remaining: total,
            total,
            immortal: Vec::new(),
            immortal_target: (spec.immortal_bytes as f64 * scale) as u64,
            immortal_bytes: 0,
            window: VecDeque::new(),
            window_bytes: 0,
            window_target: (spec.live_window_bytes as f64 * scale) as u64,
            counts: AllocCounts::default(),
        }
    }

    /// Draws an allocation kind from the spec's distributions.
    fn draw_kind(&mut self) -> AllocKind {
        if self.plan.large.is_some_and(|t| hit(&mut self.rng, t)) {
            // A large object: 2–6 pages.
            let len = self.rng.random_range(2_100..6_000);
            return AllocKind::DataArray { len };
        }
        if hit(&mut self.rng, self.plan.array) {
            let len = self.rng.random_range(self.plan.array_len.clone());
            if hit(&mut self.rng, self.plan.ref_array) {
                AllocKind::RefArray { len }
            } else {
                AllocKind::DataArray { len }
            }
        } else {
            let words = self.rng.random_range(self.plan.scalar_words.clone()).max(2);
            let refs = self.rng.random_range(1..=words.min(4));
            AllocKind::Scalar {
                data_words: words,
                num_refs: refs,
            }
        }
    }

    /// Links `new` from a random holder in the window (builds the old→young
    /// edges the write barrier exists for).
    fn link_from_window(&mut self, gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>, new: &Held) {
        if self.window.is_empty() {
            return;
        }
        let i = self.rng.random_range(0..self.window.len());
        let src = self.window[i];
        if src.ref_slots > 0 {
            let field = self.rng.random_range(0..src.ref_slots);
            gc.write_ref(ctx, src.handle, field, Some(new.handle));
        }
    }

    fn random_mutation(&mut self, gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>) {
        let pool_len = self.window.len() + self.immortal.len();
        if pool_len < 2 {
            return;
        }
        let pick = |rng: &mut StdRng, w: &VecDeque<Held>, im: &Vec<Held>| {
            let i = rng.random_range(0..w.len() + im.len());
            if i < w.len() {
                w[i]
            } else {
                im[i - w.len()]
            }
        };
        let src = pick(&mut self.rng, &self.window, &self.immortal);
        let dst = pick(&mut self.rng, &self.window, &self.immortal);
        if src.ref_slots > 0 {
            let field = self.rng.random_range(0..src.ref_slots);
            let clear = hit(&mut self.rng, self.plan.clear);
            gc.write_ref(ctx, src.handle, field, (!clear).then_some(dst.handle));
        }
    }

    fn random_read(&mut self, gc: &mut dyn GcHeap, ctx: &mut MemCtx<'_>) {
        // Reads favour the immortal working set (2:1), as a real
        // application's hot data would.
        let use_immortal = !self.immortal.is_empty()
            && (self.window.is_empty() || hit(&mut self.rng, self.plan.read_immortal));
        let held = if use_immortal {
            self.immortal[self.rng.random_range(0..self.immortal.len())]
        } else if !self.window.is_empty() {
            self.window[self.rng.random_range(0..self.window.len())]
        } else {
            return;
        };
        gc.read_data(ctx, held.handle);
    }

    /// Allocates one object and routes it to the immortal set, the live
    /// window, or immediate death.
    fn allocate_one(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<(), OutOfMemory> {
        let kind = self.draw_kind();
        let shape = kind.object_kind();
        let bytes = shape.size_bytes();
        self.counts.total += 1;
        if shape.is_array() {
            self.counts.arrays += 1;
        }
        if bytes > heap::MAX_SMALL_OBJECT_BYTES {
            self.counts.large += 1;
        }
        // The application's own compute between allocations.
        let work = ctx.vmm.costs().mutator_work;
        ctx.clock.advance(work);
        let handle = gc.alloc(ctx, kind)?;
        let held = Held {
            handle,
            ref_slots: shape.num_ref_fields(),
            bytes,
        };
        self.remaining = self.remaining.saturating_sub(bytes as u64);
        // Prelude: build the immortal set first.
        if self.immortal_bytes < self.immortal_target {
            self.immortal_bytes += bytes as u64;
            self.immortal.push(held);
            return Ok(());
        }
        if hit(&mut self.rng, self.plan.survivor) {
            self.counts.survivors += 1;
            self.link_from_window(gc, ctx, &held);
            self.window.push_back(held);
            self.window_bytes += bytes as u64;
            while self.window_bytes > self.window_target {
                let dead = self.window.pop_front().expect("window non-empty");
                self.window_bytes -= dead.bytes as u64;
                gc.drop_handle(dead.handle);
            }
        } else {
            // Short-lived: dies at once (nursery fodder).
            self.counts.short_lived += 1;
            gc.drop_handle(held.handle);
        }
        // Mutations and reads, per the spec's rates.
        if hit(&mut self.rng, self.plan.mutations.threshold) {
            for _ in 0..self.plan.mutations.count {
                self.random_mutation(gc, ctx);
            }
        }
        if hit(&mut self.rng, self.plan.reads.threshold) {
            for _ in 0..self.plan.reads.count {
                self.random_read(gc, ctx);
            }
        }
        Ok(())
    }

    /// Current live bytes the program itself is holding (window + immortal).
    pub fn held_bytes(&self) -> u64 {
        self.window_bytes + self.immortal_bytes
    }

    /// The allocation-mix counters accumulated so far.
    pub fn counts(&self) -> AllocCounts {
        self.counts
    }
}

impl Program for SyntheticProgram {
    fn step(
        &mut self,
        gc: &mut dyn GcHeap,
        ctx: &mut MemCtx<'_>,
    ) -> Result<ProgramStatus, OutOfMemory> {
        for _ in 0..BATCH {
            if self.remaining == 0 {
                return Ok(ProgramStatus::Finished);
            }
            self.allocate_one(gc, ctx)?;
        }
        Ok(ProgramStatus::Running)
    }

    fn name(&self) -> &str {
        self.name
    }

    fn progress(&self) -> f64 {
        1.0 - self.remaining as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{spec, table1};
    use simulate::{run, CollectorKind, RunConfig};

    #[test]
    fn program_is_deterministic() {
        let b = spec("_202_jess").unwrap();
        let run_once = |seed| {
            let config = RunConfig::new(CollectorKind::GenMs, 4 << 20, 64 << 20);
            let r = run(&config, Box::new(b.program(0.02, seed)));
            (r.exec_time, r.gc.objects_allocated, r.gc.total_gcs())
        };
        assert_eq!(run_once(7), run_once(7), "same seed, same run");
        assert_ne!(
            run_once(7).1,
            run_once(8).1,
            "different seeds should differ"
        );
    }

    #[test]
    fn allocation_volume_matches_scale() {
        let b = spec("_209_db").unwrap();
        let config = RunConfig::new(CollectorKind::GenMs, 8 << 20, 64 << 20);
        let r = run(&config, Box::new(b.program(0.05, 1)));
        assert!(r.ok());
        let want = (b.paper_total_alloc as f64 * 0.05) as u64;
        let got = r.gc.bytes_allocated;
        let err = (got as f64 - want as f64).abs() / want as f64;
        assert!(err < 0.01, "allocated {got}, wanted ~{want}");
    }

    #[test]
    fn every_benchmark_completes_on_every_collector_at_small_scale() {
        for b in table1() {
            for kind in [
                CollectorKind::Bc,
                CollectorKind::GenMs,
                CollectorKind::SemiSpace,
            ] {
                // Heap: 2x the scaled min heap estimate.
                let heap = (b.scaled_min_heap(0.02) * 4).max(2 << 20);
                let config = RunConfig::new(kind, heap, 256 << 20);
                let r = run(&config, Box::new(b.program(0.02, 11)));
                assert!(
                    r.ok(),
                    "{} on {kind}: oom={} timeout={}",
                    b.name,
                    r.oom,
                    r.timed_out
                );
                assert!(r.gc.objects_allocated > 100);
            }
        }
    }

    #[test]
    fn live_window_respects_target() {
        let b = spec("pseudoJBB").unwrap();
        let p = b.program(0.05, 3);
        // Window target scales: 2 MB * 0.05 = ~105 KB.
        let config = RunConfig::new(CollectorKind::GenMs, 8 << 20, 128 << 20);
        let _ = run(&config, Box::new(b.program(0.05, 3)));
        // held_bytes is only visible pre-run here; construct and step a bit
        // through a raw engine instead.
        assert_eq!(p.held_bytes(), 0);
        assert!(p.progress() < 1e-9);
    }
}

/// [`chance`]/[`hit`] against the float trial they replace, which is
/// `rand`'s own `random::<f64>() < p`, not a copy of it.
#[cfg(test)]
mod chance_tests {
    use super::*;
    use crate::spec::table1;
    use proptest::prelude::*;

    /// An RNG whose next word is fixed, to put `random::<f64>()` on a chosen
    /// `k = word >> 11`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    const LAST_K: u64 = (1 << 53) - 1;

    /// Both forms agree at the threshold's neighbours and the ends of the
    /// range, and on 10^4 draws of a real generator, each consuming one
    /// word.
    fn agrees_with_the_float_trial(p: f64) {
        let t = chance(p);
        for k in [0, t.saturating_sub(1), t, t.saturating_add(1), LAST_K] {
            let k = k.min(LAST_K);
            assert_eq!(
                k < t,
                Fixed(k << 11).random::<f64>() < p,
                "p = {p:e} (threshold {t}) at k = {k}"
            );
        }
        let mut ints = StdRng::seed_from_u64(p.to_bits());
        let mut floats = ints.clone();
        for _ in 0..10_000 {
            assert_eq!(hit(&mut ints, t), floats.random::<f64>() < p, "p = {p:e}");
        }
        assert_eq!(ints.next_u64(), floats.next_u64(), "one word per trial");
    }

    #[test]
    fn every_probability_the_generator_uses() {
        let mut ps = vec![
            0.0,
            1.0,
            0.2,
            0.3,
            0.67,
            f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            f64::NAN,
            -1.0,
            2.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for b in table1() {
            ps.extend([
                b.survivor_fraction,
                b.array_fraction,
                b.large_fraction,
                b.mutations_per_alloc.fract(),
                b.reads_per_alloc.fract(),
            ]);
        }
        for p in ps {
            agrees_with_the_float_trial(p);
        }
    }

    #[test]
    fn the_edges_are_never_and_always() {
        for never in [0.0, -0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(chance(never), 0, "{never}");
        }
        for always in [1.0, 2.0, f64::INFINITY] {
            assert!(chance(always) > LAST_K, "{always}");
        }
        assert_eq!(chance(f64::EPSILON), 2);
        assert_eq!(chance(1.0 - f64::EPSILON / 2.0), LAST_K);
    }

    #[test]
    fn a_rate_is_the_fract_trial_or_certain() {
        for (per_alloc, threshold, count) in [
            (0.0, 0, 1),
            (0.2, chance(0.2), 1),
            (1.0, 1 << 53, 2),
            (1.5, 1 << 53, 2),
            (3.0, 1 << 53, 4),
            (7.25, 1 << 53, 4),
        ] {
            let r = Rate::new(per_alloc);
            assert_eq!((r.threshold, r.count), (threshold, count), "{per_alloc}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Uniform `p` in `[0, 1)` on the generator's own grid, and raw bit
        /// patterns (subnormals, huge values, NaNs, negatives).
        #[test]
        fn random_probabilities(bits in any::<u64>()) {
            agrees_with_the_float_trial((bits >> 11) as f64 / F64_DRAWS);
            agrees_with_the_float_trial(f64::from_bits(bits));
        }
    }
}

#[cfg(test)]
mod distribution_tests {
    use super::*;
    use crate::spec::table1;
    use simtime::{Clock, CostModel};
    use simulate::CollectorKind;
    use vmm::{Vmm, VmmConfig};

    /// Drives a program to completion against a generously sized heap and
    /// returns its counters.
    fn run_and_count(spec: crate::BenchmarkSpec, scale: f64) -> AllocCounts {
        let mut vmm = Vmm::new(
            VmmConfig::builder().memory_bytes(512 << 20).build(),
            CostModel::default(),
        );
        let mut clock = Clock::new();
        let pid = vmm.register_process();
        let mut gc = CollectorKind::GenMs.build(
            heap::HeapConfig::builder().heap_bytes(64 << 20).build(),
            &mut vmm,
            pid,
        );
        let mut p = spec.program(scale, 99);
        loop {
            let mut ctx = MemCtx::new(&mut vmm, &mut clock, pid);
            match p.step(gc.as_mut(), &mut ctx).unwrap() {
                ProgramStatus::Running => {}
                ProgramStatus::Finished => break,
            }
        }
        p.counts()
    }

    #[test]
    fn allocation_mix_tracks_the_spec() {
        for spec in table1() {
            let c = run_and_count(spec, 0.01);
            assert!(c.total > 1_000, "{}: too few allocations", spec.name);
            let array_rate = c.arrays as f64 / c.total as f64;
            assert!(
                (array_rate - spec.array_fraction).abs() < 0.05,
                "{}: array rate {array_rate:.3} vs spec {:.3}",
                spec.name,
                spec.array_fraction
            );
            let large_rate = c.large as f64 / c.total as f64;
            assert!(
                (large_rate - spec.large_fraction).abs() < 0.01,
                "{}: large rate {large_rate:.4} vs spec {:.4}",
                spec.name,
                spec.large_fraction
            );
            // Survivor routing only applies after the immortal prelude.
            let routed = c.survivors + c.short_lived;
            if routed > 1_000 {
                let survivor_rate = c.survivors as f64 / routed as f64;
                assert!(
                    (survivor_rate - spec.survivor_fraction).abs() < 0.05,
                    "{}: survivor rate {survivor_rate:.3} vs spec {:.3}",
                    spec.name,
                    spec.survivor_fraction
                );
            }
        }
    }
}
