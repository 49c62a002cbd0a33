//! Command-line front end of `gcbench`.
//!
//! ```text
//! gcbench [--seed N] [--out PATH] [--verify]
//!     every workload, one child process each; writes PATH
//!     (default benchmark/out/result.json); exits 1 on any failed check
//! gcbench --workload NAME --seed N --seconds S --trace 0|1 [--verify] [--out PATH]
//!     one workload in this process; the last line printed is the result
//! gcbench compare A.json B.json
//!     is B worse than A by more than the bounds? exits 1 if so
//! ```
//!
//! `setup-probe NAME SEED` and `isolation` are the children the runs above
//! start; they are not meant to be typed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gcbench::compare::compare;
use gcbench::driver::full_run;
use gcbench::json::Json;
use gcbench::measure::{run_traced, run_untraced, setup};
use gcbench::suite::{workload, WORKLOADS};
use gcbench::{driver, isolate};

const USAGE: &str = "usage: gcbench [--seed N] [--out PATH] [--verify]
       gcbench --workload NAME --seed N --seconds S --trace 0|1 [--verify] [--out PATH]
       gcbench compare A.json B.json";

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    verify: bool,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: driver::RUN_SECONDS as f64,
        trace: false,
        verify: false,
        out: PathBuf::from("benchmark/out/result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number\n{USAGE}"))?;
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds takes a number in (0, 3600]\n{USAGE}"))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}")),
                };
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--verify" => o.verify = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn find_workload(name: &str) -> Result<&'static gcbench::suite::Workload, String> {
    workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(USAGE.into());
            };
            let comparison = compare(&read_json(a)?, &read_json(b)?);
            print!("{}", comparison.render());
            Ok(comparison.ok())
        }
        Some("setup-probe") => {
            let [_, name, seed] = args else {
                return Err(USAGE.into());
            };
            let seed = seed.parse().map_err(|_| USAGE.to_string())?;
            // Only the clock matters here: the parent checks the outputs of
            // its own, identical, set-up pass.
            let (_, _, seconds) = setup(find_workload(name)?, seed);
            println!("{seconds}");
            Ok(true)
        }
        Some("isolation") => {
            let pairs = isolate::run(&isolate::Effort::FULL);
            println!(
                "{}",
                Json::obj(pairs.into_iter().map(|(k, v)| (k, Json::Num(v)))).to_line()
            );
            Ok(true)
        }
        _ => {
            let o = parse_options(args)?;
            let Some(name) = &o.workload else {
                return full_run(o.seed, o.verify, &o.out);
            };
            let w = find_workload(name)?;
            let report = if o.trace {
                let dir = o.out.parent().unwrap_or(Path::new("."));
                run_traced(w, o.seed, o.seconds, o.verify, dir)?
            } else {
                run_untraced(w, o.seed, o.seconds, o.verify)?
            };
            for problem in report
                .detail
                .get("problems")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                eprintln!("gcbench: {}: {}", w.name, problem.as_str().unwrap_or("?"));
            }
            println!("{}", report.detail.to_line());
            println!("{}", report.result_line());
            Ok(report.correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gcbench: {message}");
            ExitCode::from(2)
        }
    }
}
