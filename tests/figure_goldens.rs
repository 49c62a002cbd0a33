//! Figure outputs are pinned byte-for-byte against checked-in goldens:
//! performance work on the simulator hot paths (allocation-run caches,
//! zero-allocation tracing, sweep restructuring) must never change
//! simulated behaviour, only wall-clock time.
//!
//! The goldens mirror exactly what the `figures` binary writes for
//! `figures fig2 --quick --csv <dir>` / `figures fig5a --quick --csv <dir>`
//! at the default seed. After an *intentional* model change, regenerate
//! them with:
//!
//! ```text
//! cargo run --release -p bench --bin figures -- fig2 --quick --csv tests/golden > tests/golden/fig2_quick.txt
//! mv tests/golden/fig2.csv tests/golden/fig2_quick.csv
//! cargo run --release -p bench --bin figures -- fig5a --quick --csv tests/golden > tests/golden/fig5a_quick.txt
//! mv tests/golden/fig5a.csv tests/golden/fig5a_quick.csv
//! cargo run --release -p bench --bin figures -- fig_policy --quick --csv tests/golden > tests/golden/fig_policy_quick.txt
//! mv tests/golden/fig_policy.csv tests/golden/fig_policy_quick.csv
//! cargo run --release -p bench --bin figures -- fig7 --quick --csv tests/golden > tests/golden/fig7_quick.txt
//! mv tests/golden/fig7_a.csv tests/golden/fig7_quick_a.csv
//! mv tests/golden/fig7_b.csv tests/golden/fig7_quick_b.csv
//! cargo run --release -p bench --bin figures -- fig7_scale --quick --csv tests/golden > tests/golden/fig7_scale_quick.txt
//! mv tests/golden/fig7_scale.csv tests/golden/fig7_scale_quick.csv
//! cargo run --release -p bench --bin figures -- fig_parallel --quick --csv tests/golden > tests/golden/fig_parallel_quick.txt
//! mv tests/golden/fig_parallel.csv tests/golden/fig_parallel_quick.csv
//! ```

use bench::pressure_figs::{
    dominates, fig5a_report, fig7_report, fig7_scale_report, fig_parallel_report,
    fig_parallel_runs, fig_policy_report, fig_policy_runs, PARALLEL_THREADS,
};
use bench::{fig2_report, Params};
use simulate::{PolicyKind, SanitizeLevel};

#[test]
fn fig2_matches_golden() {
    let t = fig2_report(&Params::quick());
    let txt = format!("== Figure 2: geomean execution time relative to BC (no pressure) ==\n{t}\n");
    assert_eq!(
        txt,
        include_str!("golden/fig2_quick.txt"),
        "fig2 text output drifted from tests/golden/fig2_quick.txt"
    );
    assert_eq!(
        t.to_csv(),
        include_str!("golden/fig2_quick.csv"),
        "fig2 CSV output drifted from tests/golden/fig2_quick.csv"
    );
}

#[test]
fn fig5a_matches_golden() {
    let t = fig5a_report(&Params::quick());
    assert_eq!(
        format!("{t}\n"),
        include_str!("golden/fig5a_quick.txt"),
        "fig5a text output drifted from tests/golden/fig5a_quick.txt"
    );
    assert_eq!(
        t.to_csv(),
        include_str!("golden/fig5a_quick.csv"),
        "fig5a CSV output drifted from tests/golden/fig5a_quick.csv"
    );
}

/// The sanitizer is observation-only: the same figures at
/// `--sanitize full` — shadow re-traces after every collection, canary
/// poisoning, frame audits — must match the sanitize-off goldens byte for
/// byte. Figure 2 exercises all six collectors without pressure; fig5a
/// runs the pressure collectors (BC's eviction/bookmark path included)
/// under dynamic pressure.
#[test]
fn figures_match_goldens_with_sanitize_full() {
    let mut params = Params::quick();
    params.sanitize = SanitizeLevel::Full;
    let fig2 = fig2_report(&params);
    assert_eq!(
        fig2.to_csv(),
        include_str!("golden/fig2_quick.csv"),
        "fig2 output changed under --sanitize full: the sanitizer leaked into simulation state"
    );
    let fig5a = fig5a_report(&params);
    assert_eq!(
        fig5a.to_csv(),
        include_str!("golden/fig5a_quick.csv"),
        "fig5a output changed under --sanitize full: the sanitizer leaked into simulation state"
    );
}

/// Figure 7 is the only figure whose cells put two VM-cooperative JVMs on
/// one `Vmm`, so the only one where the order in which signals reach
/// *different* processes could show.
#[test]
fn fig7_matches_golden() {
    let (a, b) = fig7_report(&Params::quick());
    assert_eq!(
        format!("{a}\n{b}\n"),
        include_str!("golden/fig7_quick.txt"),
        "fig7 text output drifted from tests/golden/fig7_quick.txt"
    );
    assert_eq!(
        a.to_csv(),
        include_str!("golden/fig7_quick_a.csv"),
        "fig7a CSV output drifted from tests/golden/fig7_quick_a.csv"
    );
    assert_eq!(
        b.to_csv(),
        include_str!("golden/fig7_quick_b.csv"),
        "fig7b CSV output drifted from tests/golden/fig7_quick_b.csv"
    );
}

/// The scaled multi-tenant sweep — hundreds to thousands of mutators over
/// the sharded VMM in round-robin time slices — must be exactly as
/// deterministic as the two-JVM figures, at every `--jobs` (each cell is
/// one independent simulation, assembled by index).
#[test]
fn fig7_scale_matches_golden() {
    let t = fig7_scale_report(&Params::quick());
    assert_eq!(
        format!("{t}\n"),
        include_str!("golden/fig7_scale_quick.txt"),
        "fig7_scale text output drifted from tests/golden/fig7_scale_quick.txt"
    );
    assert_eq!(
        t.to_csv(),
        include_str!("golden/fig7_scale_quick.csv"),
        "fig7_scale CSV output drifted from tests/golden/fig7_scale_quick.csv"
    );
}

#[test]
fn fig_policy_matches_golden_and_membalancer_dominates() {
    let t = fig_policy_report(&Params::quick());
    assert_eq!(
        format!("{t}\n"),
        include_str!("golden/fig_policy_quick.txt"),
        "fig_policy text output drifted from tests/golden/fig_policy_quick.txt"
    );
    assert_eq!(
        t.to_csv(),
        include_str!("golden/fig_policy_quick.csv"),
        "fig_policy CSV output drifted from tests/golden/fig_policy_quick.csv"
    );
    // The policy layer's headline claim: on at least one collector,
    // MemBalancer strictly Pareto-dominates Fixed (no worse on both the
    // time and peak-heap axes, better on at least one).
    let runs = fig_policy_runs(&Params::quick());
    let fixed: Vec<_> = runs
        .iter()
        .filter(|(_, p, _)| *p == PolicyKind::Fixed)
        .collect();
    let membalancer: Vec<_> = runs
        .iter()
        .filter(|(_, p, _)| *p == PolicyKind::MemBalancer)
        .collect();
    let won = fixed
        .iter()
        .zip(&membalancer)
        .any(|((k1, _, f), (k2, _, m))| {
            assert_eq!(k1, k2, "policy groups must align by collector");
            f.ok() && m.ok() && dominates(m, f)
        });
    assert!(
        won,
        "MemBalancer should strictly dominate Fixed on at least one collector:\n{t}"
    );
}

/// The parallel-tracing figure is pinned byte-for-byte (its 1-worker
/// column doubles as the N=1 ≡ sequential proof at figure scale), and the
/// headline claim is asserted directly on the raw runs: for every
/// collector, the mean pause at 8 workers is shorter than at 1 worker —
/// the critical-path pause model actually shortens trace-bound pauses.
#[test]
fn fig_parallel_matches_golden_and_workers_shorten_pauses() {
    let t = fig_parallel_report(&Params::quick());
    assert_eq!(
        format!("{t}\n"),
        include_str!("golden/fig_parallel_quick.txt"),
        "fig_parallel text output drifted from tests/golden/fig_parallel_quick.txt"
    );
    assert_eq!(
        t.to_csv(),
        include_str!("golden/fig_parallel_quick.csv"),
        "fig_parallel CSV output drifted from tests/golden/fig_parallel_quick.csv"
    );
    let runs = fig_parallel_runs(&Params::quick());
    for group in runs.chunks(PARALLEL_THREADS.len()) {
        let kind = group[0].0;
        let pause_at = |threads: usize| {
            let (_, _, r) = group
                .iter()
                .find(|(_, t, _)| *t == threads)
                .expect("worker count in sweep");
            assert!(r.pauses.count > 0, "{kind}: no pauses at {threads} workers");
            r.pauses.mean
        };
        assert!(
            pause_at(8) < pause_at(1),
            "{kind}: 8 workers should shorten the mean pause ({} vs {})",
            pause_at(8),
            pause_at(1)
        );
    }
}
