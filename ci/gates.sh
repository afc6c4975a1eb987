#!/usr/bin/env bash
# The harness gates, as CI's `gates` job runs them: the experiment
# tables (every cell held against the sequential program by
# `harness::oracle`), the traced `analyze` runs and their identity
# gates (each run checks the documents it writes before writing them),
# and the release suites that belong to them — `cri_equivalence`,
# `inspector_equivalence` and `protocol_equivalence` hold the recorded
# message and round-trip bounds at 8 nodes, scale 0.08, and
# `race_detection` is the race gate; `alloc_budget` re-measures in
# release the per-unit allocation figures its budgets' documentation
# quotes (tier-1 runs it in debug only). The committed BENCH_sweep.json —
# the reduced-scale SPF grid, hinted and message-passing cells, and the
# paper's cells at `bench_sweep::PAPER_SCALE` — is held by the tier-1
# golden tests (`bench_sweep`, `cri_golden`, `mp_equivalence`), in
# debug; `cri_golden` and `bench_sweep` run here in release too, and
# `experiment_shape` asserts the paper's claims over its paper rows,
# not here. Run from anywhere inside a checkout:
# `bash ci/gates.sh`. Leaves trace_smoke.json and analyze_*.json
# (git-ignored) in the root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p harness
dsm="${CARGO_TARGET_DIR:-target}/release/dsm"
step() { printf '\n== %s\n' "$*"; }

step "cri: SPF vs SPF+CRI vs PVMe, every cell against Seq"
"$dsm" compiler_opt 0.08 8

step "irregular: inspector equivalence (hinted IGrid bound), the goldens in release"
cargo test -q --release --test inspector_equivalence
# Tier-1 runs the goldens in debug only; the cluster's schedule table
# must serve the same walks, and charge the same time, in release.
cargo test -q --release --test cri_golden --test bench_sweep

step "hlrc: LRC vs HLRC, protocol and hint equivalence suites (HLRC Jacobi and hinted Jacobi bounds)"
"$dsm" protocol_compare 0.08 8
cargo test -q --release --test protocol_equivalence --test cri_equivalence --test service_robustness

step "race: the seeded race is flagged, the six applications are race-free"
cargo test -q --release --test race_detection

step "alloc: the allocation budgets in release, the profile their documentation quotes"
cargo test -q --release --test alloc_budget -- --nocapture

step "analyze: traced runs, their checked Perfetto and analyze/v1 documents, identity gates; trace and critical-path suites"
"$dsm" analyze 0.08 8 --app igrid --version cri --json analyze_igrid_cri.json --gate-identity
"$dsm" analyze 0.08 8 --app jacobi --protocol hlrc --out trace_smoke.json \
    --json analyze_jacobi_hlrc.json --gate-identity
cargo test -q --release --test trace_invariants --test critical_path

step "seam: no protocol comparison outside lrc.rs, hlrc.rs and the dispatchers in coherence.rs"
# Non-test code only: each file is cut at its `#[cfg(test)]` line.
leaks=$(for f in crates/treadmarks/src/{dsm,state,service,protocol,page,diff,interval}.rs \
    crates/cri/src/*.rs crates/spf/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\.hlrc\(\)|ProtocolMode::(Lrc|Hlrc)' | sed "s|^|$f:|" || true
done)
if [ -n "$leaks" ]; then
    printf '%s\n' "$leaks"
    echo "gates: a protocol branch outside the seam: move it into lrc.rs / hlrc.rs" >&2
    exit 1
fi

step "footprints: the applications leave privacy to Spf"
# Non-test code only, each file cut at its `#[cfg(test)]` line and its
# whitespace dropped, so a name rustfmt splits over two lines is caught
# too. A loop is described once through `Spf` (the hint engine that reads
# its loop table is private to `spf`, so the compiler refuses any other
# way), and no application names a page private: privacy is `Spf`'s
# derivation from the same footprints (`Tmk::privatize`).
named=$(for f in crates/apps/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | tr -d ' \n' | grep -o '\.privatize(' | sed "s|^|$f: |" || true
done)
if [ -n "$named" ]; then
    printf '%s\n' "$named"
    echo "gates: an application privatizes pages: let Spf derive privacy from the footprints" >&2
    exit 1
fi

step "all gates passed"
