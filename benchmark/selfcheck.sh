#!/usr/bin/env bash
# Runs the whole benchmark twice at one commit and compares the two sets
# with the benchmark's own bounds: host-time metrics must agree within
# them; simulated metrics, counts and digests must be bit-identical.
# Run from the repository root. Takes about seven minutes.
set -euo pipefail

manifest=benchmark/Cargo.toml
out=benchmark/out
seed="${1:-42}"

cargo build --release --manifest-path "$manifest"
for set in a b; do
    cargo run --release --quiet --manifest-path "$manifest" -- \
        --seed "$seed" --out "$out/$set.json"
done
cargo run --release --quiet --manifest-path "$manifest" -- \
    compare "$out/a.json" "$out/b.json"
