#!/usr/bin/env bash
# The historic protocol bugs as mutants, every patch under ci/mutants/
# (counted as it runs them: it ends "N of N killed"). Each re-breaks
# one fix (the stale twin, the publish window, the lock send order, and
# the three rules that order LRC's diffs: a range stamped at its last
# interval, an open range that spans a foreign notice, a push applied
# ahead of an older diff, the windowed reduction's fold order, a superseding push installed over what it
# does not dominate, a join's early pushes left out of the next fork's
# counts, a chained body started before its link push, a validated
# write's arming that survives its body's release, a fork's departures
# built from the master's live clock instead of the clock its fork
# carries, which makes the hinted cells' virtual clock depend on the
# schedule), one of two
# declarations (a write-all touch whose body reads first, a touch its
# body writes declared read), one of three derivations
# (dispatch fusion across a write-after-read, privatization that counts
# no read, a closed-form meet of touches that ignores a cyclic residue),
# the rule that a node walks its own share of an inspector loop (one
# served from the cluster's table moves IGrid's first map fault out of
# the inspection and into the body, and the hinted golden cells with it)
# or the page table's refill after a merge (the absorbed extents' pages
# left naming their old slots), a push's meet (one word short, it
# leaves a hole a timed view faults on) or a validated write's charge
# (its twin waived with its fault) in a scratch copy of the tree, and
# the schedule-exploration suite, in release at CI's seed budget, must
# fail on it and name the seed that did it — or the FIFO schedule,
# `sequential`, which a run without `--engine` replays. A patch whose
# text before its diff has a `Suite: <cargo test arguments>` line is
# held to that suite instead, on the same terms (the write-all,
# privatization, early-push, residue, write-mode and surviving-arming
# mutants' turn debug assertions on, which their checks need); a golden
# suite, which runs the FIFO
# schedule alone, names the recorded cell that moved instead, and a
# unit property test, which runs no schedule, the step of its random
# program (`at step N of [...]`). A
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

patches=(ci/mutants/*.patch)
survivors=0
for patch in "${patches[@]}"; do
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
    (cd "$tree" && patch -p1 --reverse --silent <"$root/$patch")
done

total=${#patches[@]}
if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors of $total historic bugs went unnoticed" >&2
    exit 1
fi
printf '\n== %d of %d killed\n' "$total" "$total"
