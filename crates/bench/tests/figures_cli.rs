//! The `figures` command line: flags mean the same in any order.
//!
//! An unknown figure name prints the parameter header, runs nothing and
//! exits 2, so these checks cost milliseconds.

use std::process::Command;

/// Runs `figures` on an unknown figure name and returns its stderr header.
fn header(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("nosuch")
        .args(args)
        .output()
        .expect("run figures");
    assert_eq!(out.status.code(), Some(2), "unknown figure exits 2");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    stderr.lines().next().expect("header line").to_string()
}

#[test]
fn quick_keeps_flags_given_before_it() {
    let before = header(&["--seed", "7", "--gc-threads", "4", "--quick"]);
    let after = header(&["--quick", "--seed", "7", "--gc-threads", "4"]);
    assert_eq!(before, after);
    for want in ["scale 0.01", "seed 7", "gc-threads 4"] {
        assert!(before.contains(want), "{want:?} missing from {before:?}");
    }
}

#[test]
fn explicit_scale_wins_over_quick_in_either_order() {
    let before = header(&["--scale", "0.05", "--quick"]);
    let after = header(&["--quick", "--scale", "0.05"]);
    assert_eq!(before, after);
    assert!(before.contains("scale 0.05"), "{before:?}");
}
