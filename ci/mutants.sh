#!/usr/bin/env bash
# The historic protocol bugs as mutants: each patch under ci/mutants/
# re-breaks one fix (the stale twin, the publish window, the lock send
# order, and the three rules that order LRC's diffs: a range stamped at
# its last interval, an open range that spans a foreign notice, a push
# applied ahead of an older diff, the windowed reduction's fold order,
# a superseding push installed over what it does not dominate), one
# declaration (a write-all touch whose body reads first) or one of two
# derivations (dispatch fusion across a write-after-read, privatization
# that counts no read) in a
# scratch copy of the tree, and the schedule-exploration suite, in
# release at CI's seed budget, must fail on it and name the seed that
# did it — or the FIFO schedule, `sequential`, which a run without
# `--engine` replays. A patch whose text before its diff has a `Suite: <cargo test
# arguments>` line is held to that suite instead, on the same terms (the
# write-all mutant's turns debug assertions on, which its check needs). A
# mutant that survives means the explorer lacks a preemption point or an
# input; a patch that no longer applies means the code it re-breaks
# moved — both fail this script.
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

survivors=0
for patch in ci/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    printf '\n== mutant %s\n' "$name"
    if ! (cd "$tree" && patch -p1 --forward --silent <"$root/$patch"); then
        echo "mutants: $patch no longer applies: re-derive it from the fix it reverts" >&2
        exit 2
    fi
    suite=$(sed -n '/^diff /q; s/^Suite: //p' "$patch")
    read -r -a args <<<"${suite:---test schedule_exploration -- --include-ignored}"
    if out=$(cd "$tree" && cargo test -q --release --offline "${args[@]}" 2>&1); then
        echo "SURVIVED: ${suite:-the exploration suite} passed on $name"
        survivors=$((survivors + 1))
    else
        # The lines that name a cell and a schedule: an assertion of the
        # suite, or an engine diagnostic it re-raised with the cell.
        where=$(grep -E 'seeded:[0-9]+|on sequential' <<<"$out" | grep -v '^simulated cluster' |
            cut -c1-150 | sort -u | head -n 4 || true)
        if [ -z "$where" ]; then
            printf '%s\n' "$out" | tail -n 40
            echo "mutants: $name failed the suite without naming a schedule" >&2
            exit 1
        fi
        printf 'killed:\n%s\n' "$where"
    fi
    (cd "$tree" && patch -p1 --reverse --silent <"$root/$patch")
done

if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors of the historic bugs went unnoticed" >&2
    exit 1
fi
printf '\n== all mutants killed\n'
