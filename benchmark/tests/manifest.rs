//! `BENCHMARK.json` at the repository root and the tables in the source
//! must say the same thing.

use gcbench::driver::RUN_SECONDS;
use gcbench::json::Json;
use gcbench::metrics::{per_layer, Better, END_TO_END};
use gcbench::suite::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn has_exactly_the_contract_keys() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        m.get("run_seconds").unwrap().as_f64(),
        Some(RUN_SECONDS as f64)
    );
    let paths = m.get("paths").unwrap().as_arr().unwrap();
    assert_eq!(paths, [Json::str("benchmark")]);
    let command: Vec<&str> = m
        .get("command")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|a| a.as_str().unwrap())
        .collect();
    assert_eq!(command[0], "cargo");
    assert!(command.contains(&"benchmark/Cargo.toml"));
}

#[test]
fn workloads_match_the_source() {
    let m = manifest();
    let declared: Vec<(&str, &str)> = m
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let source: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, source);
}

#[test]
fn metrics_match_the_source() {
    let m = manifest();
    let end_to_end = m.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (declared, source) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(declared, "name"), source.name);
        assert_eq!(text(declared, "unit"), source.unit);
        assert_eq!(Better::parse(text(declared, "better")), Some(source.better));
        assert_eq!(declared.get("bound").unwrap().as_f64(), Some(source.bound));
        assert!(source.bound > 0.0 && source.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(
        gcbench::metrics::end_to_end("setup_s").unwrap().bound,
        largest
    );

    let layers = m.get("per_layer").unwrap().as_arr().unwrap();
    let source = per_layer();
    assert_eq!(layers.len(), source.len());
    for (declared, source) in layers.iter().zip(&source) {
        assert_eq!(text(declared, "name"), source.name);
        assert_eq!(text(declared, "unit"), source.unit);
        assert_eq!(Better::parse(text(declared, "better")), Some(source.better));
        assert_eq!(declared.as_obj().unwrap().len(), 3);
    }
}
