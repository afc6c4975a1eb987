#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument goes to the
# binary (see README.md). Run from anywhere inside a checkout.
#
# The root manifest is passed as a --config file so that the root
# [profile.release] governs this build too: a later change to the
# repo's build settings is then measured like any other change.
# CARGO_TARGET_DIR, when set, is relative to the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark: needs the repository around it (no ./Cargo.toml and ./crates here)" >&2
    exit 2
fi
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --config ./Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark" "$@"
