//! `gcbench compare A.json B.json`: is B worse than A by more than the
//! benchmark's own bounds?
//!
//! One row per (workload, end-to-end metric): both medians, the relative
//! difference, the bound and a verdict. Host-time metrics pass when B's
//! median is not worse than A's by more than the bound; they are
//! *unresolved*, not passed, when either file's own spread is wider than
//! the bound — unless every pass of B reads better than every pass of A.
//! Simulated metrics, the exact counts and `sim_digest` must be equal:
//! for a deterministic simulator two sets of runs of one commit repeat
//! them bit for bit.

use crate::adapter::COUNT_NAMES;
use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// How one comparison came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for exact values, equal).
    Pass,
    /// Within the bound, but a file's own spread exceeds the bound.
    Unresolved,
    /// Worse by more than the bound (or, for exact values, different).
    Fail,
}

impl Verdict {
    /// As the table prints it.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Unresolved => "unresolved",
            Verdict::Fail => "FAIL",
        }
    }
}

/// One (workload, end-to-end metric) comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's median.
    pub a: f64,
    /// B's median.
    pub b: f64,
    /// `(b - a) / a`.
    pub diff: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The outcome.
    pub verdict: Verdict,
}

/// Everything `compare` found.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// The table.
    pub rows: Vec<Row>,
    /// Exact values (counts, digests) that differ, and structural problems.
    pub mismatches: Vec<String>,
}

impl Comparison {
    /// Whether nothing failed (unresolved rows do not fail).
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Fail)
    }

    /// The table and the mismatches, as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<12} {:<16} {:>16} {:>16} {:>9} {:>7}  verdict\n",
            "workload", "metric", "A", "B", "diff", "bound"
        );
        for r in &self.rows {
            out += &format!(
                "{:<12} {:<16} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}%  {}\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.diff * 100.0,
                r.bound * 100.0,
                r.verdict.label()
            );
        }
        for m in &self.mismatches {
            out += &format!("MISMATCH: {m}\n");
        }
        out
    }
}

fn workloads(result: &Json) -> &[Json] {
    result
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

fn name(entry: &Json) -> &str {
    entry.get("name").and_then(Json::as_str).unwrap_or("?")
}

struct Sample {
    value: f64,
    min: f64,
    max: f64,
}

fn sample(entry: &Json, metric: &str) -> Option<Sample> {
    let m = entry.get("end_to_end")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let or_value = |key| m.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Sample {
        value,
        min: or_value("min"),
        max: or_value("max"),
    })
}

fn host_verdict(better: Better, bound: f64, a: &Sample, b: &Sample) -> Verdict {
    if better.worsening(a.value, b.value) > bound {
        return Verdict::Fail;
    }
    let wide = |s: &Sample| (s.max - s.min) / s.value > bound;
    let b_always_better = match better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if (wide(a) || wide(b)) && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

/// Compares two result files' contents.
pub fn compare(a: &Json, b: &Json) -> Comparison {
    let mut out = Comparison::default();
    for ea in workloads(a) {
        let workload = name(ea);
        let Some(eb) = workloads(b).iter().find(|e| name(e) == workload) else {
            out.mismatches.push(format!("{workload}: missing from B"));
            continue;
        };
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (sample(ea, m.name), sample(eb, m.name)) else {
                out.mismatches
                    .push(format!("{workload}: {} missing from a file", m.name));
                continue;
            };
            let verdict = if m.exact {
                if sa.value == sb.value {
                    Verdict::Pass
                } else {
                    Verdict::Fail
                }
            } else {
                host_verdict(m.better, m.bound, &sa, &sb)
            };
            out.rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                a: sa.value,
                b: sb.value,
                diff: (sb.value - sa.value) / sa.value,
                bound: m.bound,
                verdict,
            });
        }
        if ea.get("sim_digest") != eb.get("sim_digest") {
            out.mismatches.push(format!(
                "{workload}: sim_digest {} vs {}",
                ea.get("sim_digest").map_or("?".into(), Json::to_line),
                eb.get("sim_digest").map_or("?".into(), Json::to_line)
            ));
        }
        for count in COUNT_NAMES {
            let value = |e: &Json| {
                e.get("per_layer")
                    .and_then(|p| p.get(count))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            if value(ea) != value(eb) {
                out.mismatches.push(format!(
                    "{workload}: {count} {:?} vs {:?}",
                    value(ea),
                    value(eb)
                ));
            }
        }
    }
    for eb in workloads(b) {
        if !workloads(a).iter().any(|e| name(e) == name(eb)) {
            out.mismatches.push(format!("{}: missing from A", name(eb)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(wall: f64, spread: f64, digest: &str, touches: f64) -> Json {
        let metric = |v: f64, s: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("min", Json::Num(v * (1.0 - s / 2.0))),
                ("max", Json::Num(v * (1.0 + s / 2.0))),
            ])
        };
        Json::obj([
            ("name", Json::str("calm_alloc")),
            ("sim_digest", Json::str(digest)),
            (
                "end_to_end",
                Json::obj([
                    ("wall_s", metric(wall, spread)),
                    ("touches_per_s", metric(1e7 / wall, spread)),
                    ("peak_rss_mb", metric(60.0, 0.0)),
                    ("setup_s", metric(2.0, 0.0)),
                    ("sim_exec_s", metric(21.25, 0.0)),
                    ("sim_gc_pause_s", metric(1.5, 0.0)),
                ]),
            ),
            (
                "per_layer",
                Json::obj(COUNT_NAMES.iter().map(|&n| {
                    let v = if n == "vmm.touches" { touches } else { 1.0 };
                    (n, Json::obj([("value", Json::Num(v))]))
                })),
            ),
        ])
    }

    fn file(e: Json) -> Json {
        Json::obj([("workloads", Json::Arr(vec![e]))])
    }

    fn verdict_of(c: &Comparison, metric: &str) -> Verdict {
        c.rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn flags_a_point_over_the_bound_and_passes_a_point_under() {
        let bound = crate::metrics::end_to_end("wall_s").unwrap().bound;
        let base = file(entry(2.0, 0.02, "abc", 5.0));
        let slower = compare(&base, &file(entry(2.0 * (1.01 + bound), 0.02, "abc", 5.0)));
        assert_eq!(verdict_of(&slower, "wall_s"), Verdict::Fail);
        assert!(!slower.ok());
        assert!(slower.render().contains("FAIL"));
        let close = compare(&base, &file(entry(2.0 * (0.99 + bound), 0.02, "abc", 5.0)));
        assert_eq!(verdict_of(&close, "wall_s"), Verdict::Pass);
        assert_eq!(verdict_of(&close, "touches_per_s"), Verdict::Pass);
        assert!(close.ok(), "{}", close.render());
        // Faster is never a failure, for either direction of metric.
        let faster = compare(&base, &file(entry(1.5, 0.02, "abc", 5.0)));
        assert!(faster.ok(), "{}", faster.render());
    }

    #[test]
    fn wide_spreads_are_unresolved_unless_b_always_wins() {
        let noisy = file(entry(2.0, 0.5, "abc", 5.0));
        let c = compare(&noisy, &file(entry(2.05, 0.02, "abc", 5.0)));
        assert_eq!(verdict_of(&c, "wall_s"), Verdict::Unresolved);
        assert!(c.ok(), "unresolved does not fail");
        let c = compare(&noisy, &file(entry(1.0, 0.02, "abc", 5.0)));
        assert_eq!(verdict_of(&c, "wall_s"), Verdict::Pass);
    }

    #[test]
    fn simulated_values_counts_and_digests_must_be_equal() {
        let base = file(entry(2.0, 0.02, "abc", 5.0));
        assert!(compare(&base, &base).ok());
        let c = compare(&base, &file(entry(2.0, 0.02, "abd", 5.0)));
        assert!(!c.ok() && c.render().contains("sim_digest"));
        let c = compare(&base, &file(entry(2.0, 0.02, "abc", 6.0)));
        assert!(!c.ok() && c.render().contains("vmm.touches"));
        let mut moved = entry(2.0, 0.02, "abc", 5.0);
        if let Json::Obj(pairs) = &mut moved {
            let e2e = &mut pairs.iter_mut().find(|(k, _)| k == "end_to_end").unwrap().1;
            if let Json::Obj(ms) = e2e {
                ms.iter_mut().find(|(k, _)| k == "sim_exec_s").unwrap().1 =
                    Json::obj([("value", Json::Num(21.250001))]);
            }
        }
        let c = compare(&base, &file(moved));
        assert_eq!(verdict_of(&c, "sim_exec_s"), Verdict::Fail);
        assert!(!compare(&base, &Json::obj([("workloads", Json::Arr(vec![]))])).ok());
    }
}
