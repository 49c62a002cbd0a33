//! The full run: every workload, one child process at a time, into one
//! result file.
//!
//! The driver itself measures nothing. Per workload it starts one child
//! with tracing off (so `peak_rss_mb` is that workload's own `VmHWM`) and
//! one with tracing on, reads the two lines each prints, and records the
//! host's load average around them so that a noisy set can be recognised
//! rather than normalised away.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::measure::run_child;
use crate::metrics::{end_to_end, END_TO_END};
use crate::suite::WORKLOADS;

/// Seconds of timed passes per child; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

/// Schema tag of the result file.
pub const SCHEMA: &str = "gcbench-v1";

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// What the results depend on besides the program: recorded in every
/// result file.
fn host_info() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Parses a child's last two lines: the detail object and the result.
fn child_report(lines: &[String]) -> Result<(Json, Json), String> {
    let [.., detail, result] = lines else {
        return Err("child printed fewer than two lines".into());
    };
    let detail = Json::parse(detail).map_err(|e| format!("bad detail line: {e}"))?;
    let result = Json::parse(result).map_err(|e| format!("bad result line: {e}"))?;
    Ok((detail, result))
}

/// Copies `result.metrics` into `{name: {value, unit, ...}}`, adding the
/// declared direction and bound and the per-pass spread where known.
fn metrics_entry(detail: &Json, result: &Json) -> Json {
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    Json::obj(metrics.iter().map(|(name, m)| {
        let mut pairs: Vec<(String, Json)> = m.as_obj().unwrap_or(&[]).to_vec();
        if let Some(spread) = detail.get("spread").and_then(|s| s.get(name)) {
            for key in ["min", "max", "n"] {
                if let Some(v) = spread.get(key) {
                    pairs.push((key.into(), v.clone()));
                }
            }
        }
        if let Some(decl) = end_to_end(name) {
            pairs.push(("better".into(), Json::str(decl.better.label())));
            pairs.push(("bound".into(), Json::Num(decl.bound)));
        }
        (name.clone(), Json::Obj(pairs))
    }))
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn metric_value(entry: &Json, section: &str, name: &str) -> Option<f64> {
    entry.get(section)?.get(name)?.get("value")?.as_f64()
}

/// Runs one workload's two children and assembles its entry.
fn run_workload(
    name: &str,
    seed: u64,
    with_verify: bool,
    out: &Path,
) -> Result<(Json, bool), String> {
    let load_before = loadavg();
    let seed_arg = seed.to_string();
    let seconds = RUN_SECONDS.to_string();
    let out_arg = out.display().to_string();
    let mut reports = Vec::new();
    let mut all_ok = true;
    for trace in ["0", "1"] {
        let mut args = vec![
            "--workload",
            name,
            "--seed",
            &seed_arg,
            "--seconds",
            &seconds,
            "--trace",
            trace,
            "--out",
            &out_arg,
        ];
        // One sanitized pass per workload is enough: the untraced child's.
        if with_verify && trace == "0" {
            args.push("--verify");
        }
        let (ok, lines) = run_child(&args)?;
        all_ok &= ok;
        reports.push(child_report(&lines).map_err(|e| format!("{name} --trace {trace}: {e}"))?);
    }
    let [(detail0, result0), (detail1, result1)] = &reports[..] else {
        unreachable!("two children were run");
    };
    let correct = [result0, result1]
        .iter()
        .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
    let mut problems: Vec<Json> = Vec::new();
    for d in [detail0, detail1] {
        problems.extend(
            d.get("problems")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .to_vec(),
        );
    }
    if detail0.get("sim_digest") != detail1.get("sim_digest") {
        problems.push(Json::str(
            "the traced run's sim_digest differs from the untraced run's",
        ));
    }
    let clean = correct && all_ok && problems.is_empty();
    let entry = Json::obj([
        ("name", Json::str(name)),
        ("correct", Json::Bool(clean)),
        ("ops", detail0.get("ops").cloned().unwrap_or(Json::Null)),
        (
            "failed_ops",
            Json::Num(num(result0, "failed") + num(result1, "failed")),
        ),
        (
            "timed_passes",
            detail0.get("timed_passes").cloned().unwrap_or(Json::Null),
        ),
        (
            "traced_passes",
            detail1.get("traced_passes").cloned().unwrap_or(Json::Null),
        ),
        (
            "sim_digest",
            detail0.get("sim_digest").cloned().unwrap_or(Json::Null),
        ),
        ("loadavg_before", Json::str(load_before)),
        ("loadavg_after", Json::str(loadavg())),
        ("problems", Json::Arr(problems)),
        ("end_to_end", metrics_entry(detail0, result0)),
        ("per_layer", metrics_entry(detail1, result1)),
        (
            "trace_file",
            detail1.get("trace_file").cloned().unwrap_or(Json::Null),
        ),
        ("cells", detail0.get("cells").cloned().unwrap_or(Json::Null)),
    ]);
    Ok((entry, clean))
}

fn print_entry(entry: &Json) {
    let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
    println!(
        "\n== {name}: ops {} failed_ops {} sim_digest {} {}",
        num(entry, "ops"),
        num(entry, "failed_ops"),
        entry
            .get("sim_digest")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        if entry.get("correct").and_then(Json::as_bool) == Some(true) {
            "ok"
        } else {
            "FAILED"
        }
    );
    for problem in entry.get("problems").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("   problem: {}", problem.as_str().unwrap_or("?"));
    }
    for section in ["end_to_end", "per_layer"] {
        for (metric, m) in entry.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            let mut line = format!("   {metric:<40} {:>16.6} {unit}", num(m, "value"));
            if m.get("n").is_some() {
                line += &format!(
                    "  [min {:.6} max {:.6} n {}]",
                    num(m, "min"),
                    num(m, "max"),
                    num(m, "n")
                );
            }
            println!("{line}");
        }
    }
}

/// Runs every workload and writes the result file to `out`. Returns
/// whether every check passed.
///
/// # Errors
///
/// Fails when a child cannot be run or the result cannot be written.
pub fn full_run(seed: u64, with_verify: bool, out: &Path) -> Result<bool, String> {
    let mut entries = Vec::new();
    let mut all_clean = true;
    for w in &WORKLOADS {
        eprintln!("gcbench: running {} ...", w.name);
        let (entry, clean) = run_workload(w.name, seed, with_verify, out)?;
        print_entry(&entry);
        all_clean &= clean;
        entries.push(entry);
    }
    // The cooperative side of the pressure path must not page: the one
    // guard that needs two workloads' numbers.
    let majors = |name: &str| {
        entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|e| metric_value(e, "per_layer", "vmm.major_faults"))
            .unwrap_or(0.0)
    };
    let mut problems = Vec::new();
    let (bc, thrash) = (majors("bc_pressure"), majors("vmm_thrash"));
    if bc * 100.0 >= thrash {
        problems.push(Json::str(format!(
            "bc_pressure took {bc} major faults, not under 1 % of vmm_thrash's {thrash}"
        )));
        all_clean = false;
    }
    let result = Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("host", host_info()),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("verified", Json::Bool(with_verify)),
        ("correct", Json::Bool(all_clean)),
        ("problems", Json::Arr(problems)),
        (
            "end_to_end_declared",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("workloads", Json::Arr(entries)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, result.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "\ngcbench: wrote {} ({})",
        out.display(),
        if all_clean {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_clean)
}
