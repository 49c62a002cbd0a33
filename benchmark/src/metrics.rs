//! The metrics the benchmark declares: names, units, directions and — for
//! the end-to-end ones — the bound by which a metric may worsen before a
//! change counts as a regression. `BENCHMARK.json` repeats these tables; a
//! test holds the two equal.

use crate::adapter::COUNT_NAMES;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`label`](Better::label)'s output.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// An end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Whether the value is simulated, and so repeats exactly at one seed.
    pub exact: bool,
}

/// The end-to-end metrics, in reporting order. Host time (`wall_s`,
/// `touches_per_s`, `setup_s`) and simulated time (`sim_*`) are separate
/// metrics and never mixed.
///
/// The bounds are what the reference host can resolve, not what one would
/// wish for: the benchmark driver draws a new seed for every run and takes
/// the inter-quartile spread of ten runs, and each bound is about three
/// times the widest such spread seen while the benchmark was written
/// (README, "How steady the numbers are"). `compare`, which sees two runs
/// at one seed, holds the simulated metrics to equality instead.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
    },
    EndToEnd {
        name: "touches_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_exec_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        exact: true,
    },
    EndToEnd {
        name: "sim_gc_pause_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: no bound, reported by the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerLayer {
    /// Metric name, prefixed with the module it measures.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// Ratios and timings derived from the counts, per workload.
const DERIVED: [PerLayer; 4] = [
    lower("vmm.fault_ratio", "ratio"),
    lower("heap.steal_ratio", "ratio"),
    lower("bench.cells", "count"),
    lower("bench.cell_wall_max_s", "s"),
];

/// Attribution: where the traced pass's wall clock went.
const ATTRIBUTION: [PerLayer; 21] = [
    lower("collectors.alloc_fast_ns", "ns"),
    lower("collectors.alloc_collect_s", "s"),
    lower("collectors.collect_ns_per_traced", "ns"),
    lower("collectors.write_ref_ns", "ns"),
    lower("collectors.read_ns", "ns"),
    lower("collectors.share", "ratio"),
    lower("bookmarking.alloc_fast_ns", "ns"),
    lower("bookmarking.alloc_collect_s", "s"),
    lower("bookmarking.collect_ns_per_traced", "ns"),
    lower("bookmarking.write_ref_ns", "ns"),
    lower("bookmarking.read_ns", "ns"),
    lower("bookmarking.share", "ratio"),
    lower("workloads.step_self_s", "s"),
    lower("workloads.step_self_share", "ratio"),
    lower("workloads.self_ns_per_alloc", "ns"),
    lower("simulate.outside_step_s", "s"),
    lower("simulate.outside_step_share", "ratio"),
    lower("vmm.est_share", "ratio"),
    lower("bookmarking.vm_events_est_share", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.self_sum_ratio", "ratio"),
];

/// Isolation: each layer's operations on their own (see `isolate`).
const ISOLATION: [PerLayer; 34] = [
    lower("vmm.touch_hit_ns", "ns"),
    lower("vmm.touch_miss_ns", "ns"),
    lower("vmm.touch_zero_fill_ns", "ns"),
    lower("vmm.fault_evict_ns", "ns"),
    lower("vmm.touch_hit_sharded_ns", "ns"),
    lower("vmm.pump_idle_ns", "ns"),
    lower("vmm.madvise_ns_per_page", "ns/page"),
    lower("vmm.relinquish_ns_per_page", "ns/page"),
    lower("heap.simmem_rw_ns", "ns"),
    lower("heap.simmem_copy_ns_per_kb", "ns/KiB"),
    lower("heap.simmem_zero_ns_per_kb", "ns/KiB"),
    lower("collectors.alloc_ns.marksweep", "ns"),
    lower("collectors.alloc_ns.semispace", "ns"),
    lower("collectors.alloc_ns.genms", "ns"),
    lower("collectors.alloc_ns.gencopy", "ns"),
    lower("collectors.alloc_ns.copyms", "ns"),
    lower("bookmarking.alloc_ns", "ns"),
    lower("collectors.write_ref_ns.genms", "ns"),
    lower("bookmarking.write_ref_ns.bc", "ns"),
    lower("collectors.minor_gc_ns_per_obj", "ns"),
    lower("collectors.full_gc_ns_per_obj.g1", "ns"),
    lower("collectors.full_gc_ns_per_obj.g4", "ns"),
    lower("collectors.full_gc_ns_per_obj.g16", "ns"),
    lower("collectors.copy_gc_ns_per_obj", "ns"),
    lower("bookmarking.full_gc_ns_per_obj", "ns"),
    lower("bookmarking.evict_page_us", "us"),
    lower("simulate.engine_step_ns.p1", "ns"),
    lower("simulate.engine_step_ns.p2", "ns"),
    lower("simulate.fleet_build_us_per_tenant", "us"),
    lower("simulate.slice_ns", "ns"),
    lower("telemetry.emit_off_ns", "ns"),
    lower("telemetry.emit_ring_ns", "ns"),
    lower("telemetry.emit_jsonl_ns", "ns"),
    lower("telemetry.ring_overhead_ratio", "ratio"),
];

/// Every per-layer metric, in reporting order: the exact counts, what is
/// derived from them, the attribution, and the isolation suite.
pub fn per_layer() -> Vec<PerLayer> {
    COUNT_NAMES
        .iter()
        .map(|&name| lower(name, "count"))
        .chain(DERIVED)
        .chain(ATTRIBUTION)
        .chain(ISOLATION)
        .collect()
}

/// Names of the isolation metrics, in reporting order.
#[cfg(test)]
pub(crate) fn isolation_names() -> impl Iterator<Item = &'static str> {
    ISOLATION.iter().map(|m| m.name)
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = per_layer().iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for name in &names {
            assert!(ok(name, "_.-") && name.len() <= 64, "{name}");
        }
        for m in per_layer() {
            assert!(ok(m.unit, "_/%.-") && m.unit.len() <= 16, "{}", m.unit);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn medians_and_worsening() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
