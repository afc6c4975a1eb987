#!/usr/bin/env bash
# The harness gates, as CI's `gates` job runs them: the experiment
# tables (every cell held against the sequential program by
# `harness::oracle`), a traced run, the `analyze` identity gates, and
# the release suites that belong to them — `cri_equivalence`,
# `inspector_equivalence` and `protocol_equivalence` hold the recorded
# message and round-trip bounds at 8 nodes, scale 0.08, and
# `race_detection` is the race gate. The committed BENCH_sweep.json is
# held by the tier-1 golden tests (`bench_sweep`, `cri_golden`,
# `mp_equivalence`), not here. Run from
# anywhere inside a checkout: `bash ci/gates.sh`. Leaves
# trace_smoke.json and analyze_*.json (git-ignored) in the root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p harness
dsm="${CARGO_TARGET_DIR:-target}/release/dsm"
step() { printf '\n== %s\n' "$*"; }

step "cri: SPF vs SPF+CRI vs PVMe, every cell against Seq"
"$dsm" compiler_opt 0.08 8

step "irregular: inspector equivalence (hinted IGrid bound)"
cargo test -q --release --test inspector_equivalence

step "hlrc: LRC vs HLRC, protocol and hint equivalence suites (HLRC Jacobi and hinted Jacobi bounds)"
"$dsm" protocol_compare 0.08 8
cargo test -q --release --test protocol_equivalence --test cri_equivalence --test service_robustness

step "race: the seeded race is flagged, the six applications are race-free"
cargo test -q --release --test race_detection

step "trace: record a traced run, validate the export, trace invariant suite"
"$dsm" trace 0.08 8 --app jacobi --protocol hlrc --out trace_smoke.json --breakdown
"$dsm" trace --validate trace_smoke.json
cargo test -q --release --test trace_invariants

step "analyze: identity gates, schema validation of the reports, critical-path suite"
"$dsm" analyze 0.08 8 --app igrid --version cri --json analyze_igrid_cri.json --gate-identity
"$dsm" analyze 0.08 8 --app jacobi --protocol hlrc --json analyze_jacobi_hlrc.json --gate-identity
"$dsm" analyze --check analyze_igrid_cri.json
"$dsm" analyze --check analyze_jacobi_hlrc.json
cargo test -q --release --test critical_path

step "seam: no protocol comparison outside lrc.rs, hlrc.rs and the dispatchers in coherence.rs"
# Non-test code only: each file is cut at its `#[cfg(test)]` line.
leaks=$(for f in crates/treadmarks/src/{dsm,state,service,protocol,page,diff,interval}.rs \
    crates/cri/src/*.rs crates/spf/src/lib.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\.hlrc\(\)|ProtocolMode::(Lrc|Hlrc)' | sed "s|^|$f:|" || true
done)
if [ -n "$leaks" ]; then
    printf '%s\n' "$leaks"
    echo "gates: a protocol branch outside the seam: move it into lrc.rs / hlrc.rs" >&2
    exit 1
fi

step "footprints: the applications' static descriptors derive from their loops' footprints"
# Non-test code only, each file cut at its `#[cfg(test)]` line and its
# whitespace dropped, so a call rustfmt splits over two lines is caught
# too. A static descriptor is attached by `Spf::describe`; an inspector
# by `register_dynamic`.
sets=$(for f in crates/apps/src/*.rs; do
    sed '/^#\[cfg(test)\]/,$d' "$f" | tr -d ' \n' | grep -o '\.hints()\.set(' | sed "s|^|$f: |" || true
done)
if [ -n "$sets" ]; then
    printf '%s\n' "$sets"
    echo "gates: a hand-written descriptor: derive it from the loop's footprint with Spf::describe" >&2
    exit 1
fi

step "all gates passed"
