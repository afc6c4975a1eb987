#!/usr/bin/env bash
# The historic protocol bugs as mutants: every patch under ci/mutants/
# re-breaks one fix, and says which in the text before its diff, whose
# first line is printed under the mutant's banner (a patch without one
# fails this script). Each is applied in turn to a scratch copy of the
# tree, and the schedule-exploration suite, in release at CI's seed
# budget, must fail on it and name the seed that did it — or the FIFO
# schedule, `sequential`, which a run without `--engine` replays. A
# patch whose text has a `Suite: <cargo test arguments>` line is held
# to that suite instead, on the same terms: a golden suite, which runs
# the FIFO schedule alone, names the recorded cell that moved instead,
# and a unit property test, which runs no schedule, the step of its
# random program (`at step N of [...]`). A mutant that survives means
# the explorer lacks a preemption point or an input; a patch that no
# longer applies exactly (`patch -F0`: no fuzz, so its context lines
# are the code as it stands) means the code it re-breaks moved — both
# fail this script, which ends "N of N killed".
#
# The copy lives in $MUTANTS_DIR (default .bench_build/mutants,
# git-ignored) and is reused from mutant to mutant with one
# CARGO_TARGET_DIR beside it, so each mutant rebuilds `treadmarks` and
# what depends on it, nothing else. Run from anywhere inside a checkout:
# `bash ci/mutants.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
work="${MUTANTS_DIR:-.bench_build/mutants}"
mkdir -p "$work"
work=$(cd "$work" && pwd)
tree="$work/tree"
export CARGO_TARGET_DIR="$work/target"

rm -rf "$tree"
mkdir -p "$tree"
git ls-files -co --exclude-standard -z |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    xargs -0 cp --parents -t "$tree"

patches=(ci/mutants/*.patch)
survivors=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    text=$(sed -n '/^diff \|^--- /q; p' "$patch")
    what=$(grep -v '^Suite: ' <<<"$text" | grep -m 1 . || true)
    if [ -z "$what" ]; then
        echo "mutants: $patch does not say what it re-breaks before its diff" >&2
        exit 2
    fi
    printf '\n== mutant %s\n%s\n' "$name" "$what"
    if ! (cd "$tree" && patch -p1 -F0 --forward --silent <"$root/$patch"); then
        echo "mutants: $patch no longer applies: re-derive it from the fix it reverts" >&2
        exit 2
    fi
    suite=$(sed -n 's/^Suite: //p' <<<"$text")
    read -r -a args <<<"${suite:---test schedule_exploration -- --include-ignored}"
    if out=$(cd "$tree" && cargo test -q --release --offline "${args[@]}" 2>&1); then
        echo "SURVIVED: ${suite:-the exploration suite} passed on $name"
        survivors=$((survivors + 1))
    else
        # The lines that name a cell and a schedule: an assertion of the
        # suite, or an engine diagnostic it re-raised with the cell; or
        # a golden cell that moved; or a property test's program step.
        where=$(grep -E 'seeded:[0-9]+|on sequential|^cell [0-9]+ \(| at step [0-9]+ of ' <<<"$out" | grep -v '^simulated cluster' |
            cut -c1-150 | sort -u | head -n 4 || true)
        if [ -z "$where" ]; then
            printf '%s\n' "$out" | tail -n 40
            echo "mutants: $name failed the suite without naming a schedule" >&2
            exit 1
        fi
        printf 'killed:\n%s\n' "$where"
    fi
    (cd "$tree" && patch -p1 -F0 --reverse --silent <"$root/$patch")
done

total=${#patches[@]}
if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors of $total historic bugs went unnoticed" >&2
    exit 1
fi
printf '\n== %d of %d killed\n' "$total" "$total"
