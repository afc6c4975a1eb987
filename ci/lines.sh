#!/usr/bin/env bash
# Aim 2's line count (ROADMAP.md), the way its ledger records it: every
# Rust line under crates, src, tests and examples, then each crate's
# non-test lines — each file of its `src` cut at its first
# `#[cfg(test)]` line, as `ci/gates.sh` cuts them. Run from anywhere
# inside a checkout: `bash ci/lines.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() { find "$1" -name '*.rs' -exec sed -s '/^#\[cfg(test)\]/,$d' {} + | wc -l; }

printf '%-12s %6d\n' "all" "$(find crates src tests examples -name '*.rs' -exec cat {} + | wc -l)"
echo "non-test, by crate:"
for src in crates/*/src src; do
    name=${src%/src}
    printf '  %-10s %6d\n' "${name#crates/}" "$(non_test "$src")"
done
