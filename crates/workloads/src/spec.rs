//! The benchmark catalogue (Table 1) and per-benchmark behaviour knobs.

use crate::synthetic::SyntheticProgram;

/// The shape of one benchmark: Table 1 statistics plus the behavioural
/// parameters of its synthetic analogue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name as the paper prints it.
    pub name: &'static str,
    /// Table 1 "Total Bytes Alloc".
    pub paper_total_alloc: u64,
    /// Table 1 "Min. Heap" (bytes).
    pub paper_min_heap: u64,
    /// Bytes of immortal data allocated up front and kept live throughout
    /// (pseudoJBB's warehouses, db's database, compress's dictionaries).
    pub immortal_bytes: u64,
    /// Steady-state live window, in bytes (objects die FIFO past this).
    pub live_window_bytes: u64,
    /// Fraction of allocations that enter the live window (the rest die
    /// immediately — nursery fodder).
    pub survivor_fraction: f64,
    /// Mean scalar payload, in words.
    pub mean_scalar_words: u16,
    /// Fraction of allocations that are arrays.
    pub array_fraction: f64,
    /// Mean array length, in words.
    pub mean_array_len: u32,
    /// Fraction of allocations that are large objects (> 8180 B).
    pub large_fraction: f64,
    /// Pointer stores per allocation (drives the write barrier).
    pub mutations_per_alloc: f64,
    /// Whole-object reads per allocation (drives the mutator working set).
    pub reads_per_alloc: f64,
}

impl BenchmarkSpec {
    /// Builds the runnable program at `scale` (1.0 = the paper's full
    /// allocation volume; experiments use smaller scales for quick runs —
    /// live sizes and immortal data scale alongside so heap-to-live
    /// geometry is preserved).
    pub fn program(&self, scale: f64, seed: u64) -> SyntheticProgram {
        SyntheticProgram::new(*self, scale, seed)
    }

    /// The paper's minimum heap scaled by the same factor as
    /// [`program`](BenchmarkSpec::program) scales the workload.
    pub fn scaled_min_heap(&self, scale: f64) -> usize {
        (self.paper_min_heap as f64 * scale) as usize
    }
}

/// Table 1 with each analogue's behavioural parameters.
const TABLE1: [BenchmarkSpec; 9] = [
    // SPECjvm98 _201_compress: LZW compression over large buffers —
    // dominated by big byte arrays with a small, hot dictionary.
    BenchmarkSpec {
        name: "_201_compress",
        paper_total_alloc: 109_190_172,
        paper_min_heap: 16_777_216,
        immortal_bytes: 3 << 20,
        live_window_bytes: 5 << 20,
        survivor_fraction: 0.10,
        mean_scalar_words: 8,
        array_fraction: 0.30,
        mean_array_len: 512,
        large_fraction: 0.004,
        mutations_per_alloc: 0.2,
        reads_per_alloc: 1.5,
    },
    // _202_jess: expert system — torrents of small, short-lived facts.
    BenchmarkSpec {
        name: "_202_jess",
        paper_total_alloc: 267_602_628,
        paper_min_heap: 12_582_912,
        immortal_bytes: 2 << 20,
        live_window_bytes: 3 << 20,
        survivor_fraction: 0.05,
        mean_scalar_words: 8,
        array_fraction: 0.10,
        mean_array_len: 24,
        large_fraction: 0.0,
        mutations_per_alloc: 0.5,
        reads_per_alloc: 0.8,
    },
    // _205_raytrace: scene graph + per-ray vectors.
    BenchmarkSpec {
        name: "_205_raytrace",
        paper_total_alloc: 92_381_448,
        paper_min_heap: 14_680_064,
        immortal_bytes: 4 << 20,
        live_window_bytes: 3 << 20,
        survivor_fraction: 0.06,
        mean_scalar_words: 6,
        array_fraction: 0.08,
        mean_array_len: 16,
        large_fraction: 0.0,
        mutations_per_alloc: 0.3,
        reads_per_alloc: 1.2,
    },
    // _209_db: an in-memory database read and shuffled intensively.
    BenchmarkSpec {
        name: "_209_db",
        paper_total_alloc: 61_216_580,
        paper_min_heap: 19_922_944,
        immortal_bytes: 9 << 20,
        live_window_bytes: 1 << 20,
        survivor_fraction: 0.04,
        mean_scalar_words: 10,
        array_fraction: 0.15,
        mean_array_len: 32,
        large_fraction: 0.0,
        mutations_per_alloc: 0.4,
        reads_per_alloc: 3.0,
    },
    // _213_javac: compiler — linked ASTs with real medium lifetimes.
    BenchmarkSpec {
        name: "_213_javac",
        paper_total_alloc: 181_468_984,
        paper_min_heap: 19_922_944,
        immortal_bytes: 3 << 20,
        live_window_bytes: 7 << 20,
        survivor_fraction: 0.15,
        mean_scalar_words: 9,
        array_fraction: 0.12,
        mean_array_len: 24,
        large_fraction: 0.001,
        mutations_per_alloc: 0.8,
        reads_per_alloc: 1.0,
    },
    // _228_jack: parser generator — short-lived token objects.
    BenchmarkSpec {
        name: "_228_jack",
        paper_total_alloc: 250_486_124,
        paper_min_heap: 11_534_336,
        immortal_bytes: 2 << 20,
        live_window_bytes: 5 << 20 >> 1, // 2.5 MB
        survivor_fraction: 0.04,
        mean_scalar_words: 7,
        array_fraction: 0.10,
        mean_array_len: 20,
        large_fraction: 0.0,
        mutations_per_alloc: 0.4,
        reads_per_alloc: 0.7,
    },
    // DaCapo ipsixql: XML queries — allocation-heavy, short-lived.
    BenchmarkSpec {
        name: "ipsixql",
        paper_total_alloc: 350_889_840,
        paper_min_heap: 11_534_336,
        immortal_bytes: 2 << 20,
        live_window_bytes: 5 << 20 >> 1,
        survivor_fraction: 0.03,
        mean_scalar_words: 8,
        array_fraction: 0.15,
        mean_array_len: 28,
        large_fraction: 0.0005,
        mutations_per_alloc: 0.4,
        reads_per_alloc: 0.8,
    },
    // DaCapo jython: interpreter — the heaviest allocator of the suite.
    BenchmarkSpec {
        name: "jython",
        paper_total_alloc: 770_632_824,
        paper_min_heap: 11_534_336,
        immortal_bytes: 2 << 20,
        live_window_bytes: 5 << 20 >> 1,
        survivor_fraction: 0.02,
        mean_scalar_words: 7,
        array_fraction: 0.12,
        mean_array_len: 16,
        large_fraction: 0.0,
        mutations_per_alloc: 0.6,
        reads_per_alloc: 0.6,
    },
    // pseudoJBB: "initially allocates a few immortal objects and then
    // allocates only short-lived objects" (§5.3.2) — warehouse data
    // plus transaction churn. The only benchmark with a significant
    // footprint (§5).
    BenchmarkSpec {
        name: "pseudoJBB",
        paper_total_alloc: 233_172_290,
        paper_min_heap: 35_651_584,
        immortal_bytes: 16 << 20,
        live_window_bytes: 6 << 20,
        survivor_fraction: 0.15,
        mean_scalar_words: 10,
        array_fraction: 0.20,
        mean_array_len: 48,
        large_fraction: 0.0008,
        mutations_per_alloc: 0.6,
        reads_per_alloc: 0.4,
    },
];

/// The nine benchmarks of Table 1, in the paper's order.
pub fn table1() -> Vec<BenchmarkSpec> {
    TABLE1.to_vec()
}

/// Looks a benchmark up by name.
pub fn spec(name: &str) -> Option<BenchmarkSpec> {
    TABLE1.iter().find(|b| b.name == name).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let t = table1();
        assert_eq!(t.len(), 9);
        let total: u64 = t.iter().map(|b| b.paper_total_alloc).sum();
        assert_eq!(total, 2_317_040_890, "Table 1 allocation volumes changed");
        // Paper values spot-checked.
        assert_eq!(spec("_209_db").unwrap().paper_total_alloc, 61_216_580);
        assert_eq!(spec("pseudoJBB").unwrap().paper_min_heap, 35_651_584);
        assert_eq!(spec("jython").unwrap().paper_total_alloc, 770_632_824);
        assert!(spec("_999_nope").is_none());
    }

    #[test]
    fn knobs_are_sane() {
        for b in table1() {
            assert!(
                b.survivor_fraction > 0.0 && b.survivor_fraction < 0.5,
                "{}",
                b.name
            );
            assert!(b.array_fraction >= 0.0 && b.array_fraction < 1.0);
            assert!(
                b.large_fraction < 0.01,
                "{}: too many large objects",
                b.name
            );
            assert!(
                b.immortal_bytes + b.live_window_bytes < b.paper_min_heap,
                "{}: live exceeds the paper's min heap",
                b.name
            );
            assert!(b.mean_scalar_words >= 3);
        }
    }

    #[test]
    fn pseudo_jbb_is_immortal_plus_short_lived() {
        // §5.3.2's description constrains the shape.
        let pj = spec("pseudoJBB").unwrap();
        assert!(pj.immortal_bytes >= 8 << 20);
        assert!(
            pj.live_window_bytes < pj.immortal_bytes / 2,
            "transactions must be small next to the warehouses"
        );
        assert!(pj.survivor_fraction <= 0.2);
    }

    #[test]
    fn scaled_min_heap_scales() {
        let pj = spec("pseudoJBB").unwrap();
        assert_eq!(pj.scaled_min_heap(0.5), 17_825_792);
        assert_eq!(pj.scaled_min_heap(1.0), 35_651_584);
    }
}
