#!/usr/bin/env bash
# Aim 2's line count (ROADMAP.md), the way its ledger records it: every
# Rust line under crates, src, tests and examples, then each crate's
# non-test lines — each file of its `src` cut at its first
# `#[cfg(test)]` line, as `ci/gates.sh` cuts them — and, by the same
# cut, every line of non-test code (each crate's `src`, the root `src`
# and `examples`) that reads an environment variable, aim 2's knob
# count. Run from anywhere inside a checkout: `bash ci/lines.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() { find "$1" -name '*.rs' -exec sed -s '/^#\[cfg(test)\]/,$d' {} + | wc -l; }

printf '%-12s %6d\n' "all" "$(find crates src tests examples -name '*.rs' -exec cat {} + | wc -l)"
echo "non-test, by crate:"
for src in crates/*/src src; do
    name=${src%/src}
    printf '  %-10s %6d\n' "${name#crates/}" "$(non_test "$src")"
done

reads=$(find crates/*/src src examples -name '*.rs' | sort | while read -r f; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -n 'env::var' | sed "s|^|  $f:|" || true
done)
printf '%-12s %6d\n' "env reads" "$(grep -c . <<<"$reads" || true)"
[ -z "$reads" ] || echo "$reads"
