//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures <table1|fig2|fig3|fig4|fig5a|fig5b|fig6|fig7|fig7_scale|fig_policy|fig_parallel|phases|all>
//!         [--scale F] [--seed N] [--jobs N] [--quick] [--csv DIR]
//!         [--sanitize off|checks|full] [--gc-threads N]
//! ```
//!
//! Flags may come in any order. `--quick` is a sizing preset (scale 0.01,
//! thinned sweeps); an explicit `--scale` overrides its scale.
//!
//! `--jobs N` fans the run matrix across N worker threads (default: all
//! cores). Output is byte-identical for every N — each figure cell is an
//! independent deterministic simulation, assembled by cell index.
//!
//! `--sanitize full` shadow-verifies every collection of every run; output
//! stays byte-identical to `off` unless a collector invariant is broken,
//! which aborts with a `sanitize:` panic.
//!
//! `--gc-threads N` traces every run with N simulated GC workers (work
//! packets with deterministic stealing; pauses charge the critical path).
//! The default 1 is byte-identical to the sequential tracer. `fig_parallel`
//! sweeps its own worker axis and ignores the flag.

use bench::pressure_figs::{
    fig3_report, fig4_report, fig5a_report, fig5b_report, fig6_report, fig7_report,
    fig7_scale_report, fig_parallel_report, fig_policy_report,
};
use bench::{fig2_report, phases_report, table1_report, Params, Table};
use simulate::SanitizeLevel;

/// Writes a figure's table(s) as CSV into the chosen directory.
fn emit_csv(dir: &Option<String>, name: &str, tables: &[&Table]) {
    let Some(dir) = dir else { return };
    std::fs::create_dir_all(dir).expect("create csv dir");
    for (i, t) in tables.iter().enumerate() {
        let suffix = if tables.len() > 1 {
            format!("_{}", (b'a' + i as u8) as char)
        } else {
            String::new()
        };
        let path = format!("{dir}/{name}{suffix}.csv");
        std::fs::write(&path, t.to_csv()).expect("write csv");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = String::from("all");
    let mut params = Params::standard();
    let mut csv_dir: Option<String> = None;
    let mut quick = false;
    let mut scale: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Some(args[i].parse().expect("--scale takes a float"));
            }
            "--seed" => {
                i += 1;
                params.seed = args[i].parse().expect("--seed takes an integer");
            }
            "--jobs" => {
                i += 1;
                params.jobs = args[i].parse().expect("--jobs takes an integer");
            }
            "--quick" => quick = true,
            "--sanitize" => {
                i += 1;
                params.sanitize = SanitizeLevel::parse(&args[i]).unwrap_or_else(|| {
                    eprintln!(
                        "unknown sanitize level '{}' (try off, checks, full)",
                        args[i]
                    );
                    std::process::exit(2);
                });
            }
            "--gc-threads" => {
                i += 1;
                params.gc_threads = args[i].parse().expect("--gc-threads takes an integer");
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args[i].clone());
            }
            other if !other.starts_with('-') => which = other.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // `--quick` is only the sizing preset, applied after parsing so that no
    // flag depends on its position; an explicit `--scale` wins over it.
    if quick {
        let preset = Params::quick();
        (params.scale, params.sweep) = (preset.scale, preset.sweep);
    }
    params.scale = scale.unwrap_or(params.scale);
    eprintln!(
        "# workload scale {} (1.0 = the paper's volumes), seed {}, jobs {}, sanitize {}, gc-threads {}",
        params.scale, params.seed, params.jobs, params.sanitize, params.gc_threads
    );
    let run = |name: &str| which == "all" || which == name;
    if run("table1") {
        println!("== Table 1: benchmark memory statistics ==");
        let t = table1_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "table1", &[&t]);
    }
    if run("fig2") {
        println!("== Figure 2: geomean execution time relative to BC (no pressure) ==");
        let t = fig2_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig2", &[&t]);
    }
    if run("fig3") {
        let (a, b) = fig3_report(&params);
        println!("{a}");
        println!("{b}");
        emit_csv(&csv_dir, "fig3", &[&a, &b]);
    }
    if run("fig4") {
        let t = fig4_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig4", &[&t]);
    }
    if run("fig5a") {
        let t = fig5a_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig5a", &[&t]);
    }
    if run("fig5b") {
        let t = fig5b_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig5b", &[&t]);
    }
    if run("fig6") {
        let ts = fig6_report(&params);
        for t in &ts {
            println!("{t}");
        }
        let refs: Vec<&Table> = ts.iter().collect();
        emit_csv(&csv_dir, "fig6", &refs);
    }
    if run("fig7") {
        let (a, b) = fig7_report(&params);
        println!("{a}");
        println!("{b}");
        emit_csv(&csv_dir, "fig7", &[&a, &b]);
    }
    if run("fig7_scale") {
        let t = fig7_scale_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig7_scale", &[&t]);
    }
    if run("fig_policy") {
        let t = fig_policy_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig_policy", &[&t]);
    }
    if run("fig_parallel") {
        let t = fig_parallel_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "fig_parallel", &[&t]);
    }
    if run("phases") {
        println!("== Per-phase GC pause histograms (dynamic pressure, from telemetry) ==");
        let t = phases_report(&params);
        println!("{t}");
        emit_csv(&csv_dir, "phases", &[&t]);
    }
    if ![
        "table1",
        "fig2",
        "fig3",
        "fig4",
        "fig5a",
        "fig5b",
        "fig6",
        "fig7",
        "fig7_scale",
        "fig_policy",
        "fig_parallel",
        "phases",
        "all",
    ]
    .contains(&which.as_str())
    {
        eprintln!("unknown figure '{which}'");
        std::process::exit(2);
    }
}
