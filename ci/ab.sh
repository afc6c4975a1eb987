#!/usr/bin/env bash
# A/B a host-time claim the way every perf change here has measured
# one (the box drifts 10-25 % between phases, benchmark/baseline/
# noise.md): build the benchmark of a parent revision and of the
# working tree, run them alternately on one workload, and print every
# pair, the wins, both sides' medians and quartiles, whether the three
# simulated columns (which must not move) did, the two memory columns
# as parent -> tree (a change to what is allocated moves them on
# purpose) and, from one traced run per side at the end, each side's
# host.allocs (an exactly repeatable count). A gain counts when the
# tree wins at least nine pairs in ten and the medians differ by more
# than the distance between the parent's quartiles.
#
#   bash ci/ab.sh <parent-rev> <workload> [pairs=10] [seconds=10] [seed=1]
#   bash ci/ab.sh <parent-rev> all [pairs=10] [seconds=10] [seed=1]
#   e.g. bash ci/ab.sh HEAD~1 dense-hlrc
#
# `all` runs every workload of BENCHMARK.json in turn, printing each
# one's summary, and ends with the no-regression table: per workload and
# end-to-end metric, both medians over the pairs and the change, flagged
# WORSE where the tree's median is worse than the parent's by more than
# the metric's `bound` (the script then exits 1).
#
# The parent is checked out with `git archive` into $AB_DIR/<sha>
# (default .bench_build/ab, git-ignored; nothing is registered in .git)
# and each side builds into a target directory of its own beside it, so
# a second call with the same revision only rebuilds the working tree.
# Each run is `--seed N --seconds S --trace 0` from its own checkout
# root; which side goes first flips every pair.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
    sed -n '2,29p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
target=$2
pairs=${3:-10}
seconds=${4:-10}
seed=${5:-1}
ab=${AB_DIR:-.bench_build/ab}
mkdir -p "$ab"
ab=$(cd "$ab" && pwd)
here=$(pwd)

parent="$ab/$rev"
if [ ! -d "$parent/benchmark" ]; then
    mkdir -p "$parent"
    git archive "$rev" | tar -x -C "$parent"
fi
build() { # <checkout root> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --config ./Cargo.toml >&2)
}
build "$parent" "$ab/target-$rev"
# Building rewrites benchmark/Cargo.lock (cargo drops stale shim
# entries); the working tree's copy is put back as it was, also when
# the build fails.
cp benchmark/Cargo.lock "$ab/tree-Cargo.lock"
built=0
build "$here" "$ab/target-tree" || built=$?
cp "$ab/tree-Cargo.lock" benchmark/Cargo.lock
[ "$built" -eq 0 ] || exit "$built"

run() { # <checkout root> <target dir> [seconds] [trace] -> the report's JSON line
    (cd "$1" && "$2/release/benchmark" --workload "$workload" --seed "$seed" \
        --seconds "${3:-$seconds}" --trace "${4:-0}" 2>/dev/null | tail -n 1)
}
metric() { # <json line> <name> -> value
    printf '%s' "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}
exact="sim_time_s sim_messages sim_mbytes"
memory="alloc_mb peak_live_mb"
# BENCHMARK.json's end-to-end metrics, one `name better bound` line each.
end_to_end=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p')

quartiles() { # values... -> "q1 median q3" (linear interpolation)
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR] = $1 }
        function q(f,  x, lo) { x = 1 + f * (NR - 1); lo = int(x); return v[lo] + (x - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
        END { printf "%.3f %.3f %.3f", q(0.25), q(0.5), q(0.75) }'
}
median() { # values... -> the median, unrounded
    printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
signed() { # <name> <parent value> <tree value>
    awk -v m="$1" -v p="$2" -v c="$3" 'BEGIN {
        printf "%-13s %s -> %s (%+.2f %%)\n", m, p, c, p ? 100 * (c - p) / p : 0 }'
}

# One workload: the pairs and their summary. In `all` mode each end-to-end
# metric's two medians also go to $table, one `workload metric parent tree
# better bound` line each.
compare() { # <workload>
    workload=$1
    local slow_p=() slow_c=() wins=0 ties=0 i p c order sp sc verdict m vp vc
    local -A moved=() e2e_p=() e2e_c=()
    printf '%s (seed %s): parent %s vs working tree, %s pairs of %s s\n' \
        "$workload" "$seed" "${rev:0:7}" "$pairs" "$seconds"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            p=$(run "$parent" "$ab/target-$rev")
            c=$(run "$here" "$ab/target-tree")
            order="parent first"
        else
            c=$(run "$here" "$ab/target-tree")
            p=$(run "$parent" "$ab/target-$rev")
            order="tree first"
        fi
        sp=$(metric "$p" slowdown_x)
        sc=$(metric "$c" slowdown_x)
        if [ -z "$sp" ] || [ -z "$sc" ]; then
            echo "pair $i: a run printed no slowdown_x" >&2
            exit 1
        fi
        slow_p+=("$sp")
        slow_c+=("$sc")
        verdict=$(awk -v p="$sp" -v c="$sc" 'BEGIN { print (c < p) ? "win" : (c > p) ? "loss" : "tie" }')
        [ "$verdict" = win ] && wins=$((wins + 1))
        [ "$verdict" = tie ] && ties=$((ties + 1))
        printf 'pair %2d  parent %.3f  tree %.3f  %+6.1f %%  %-4s  (%s)\n' "$i" "$sp" "$sc" \
            "$(awk -v p="$sp" -v c="$sc" 'BEGIN { print 100 * (c - p) / p }')" "$verdict" "$order"
        for m in $exact; do
            vp=$(metric "$p" "$m")
            vc=$(metric "$c" "$m")
            [ "$vp" = "$vc" ] || moved[$m]="$vp -> $vc"
        done
        while read -r m _ _; do
            e2e_p[$m]+=" $(metric "$p" "$m")"
            e2e_c[$m]+=" $(metric "$c" "$m")"
        done <<<"$end_to_end"
    done
    local last_p=$p last_c=$c p1 p2 p3 c1 c2 c3
    read -r p1 p2 p3 <<<"$(quartiles "${slow_p[@]}")"
    read -r c1 c2 c3 <<<"$(quartiles "${slow_c[@]}")"
    printf 'slowdown_x  parent median %s (quartiles %s .. %s)   tree median %s (quartiles %s .. %s)\n' \
        "$p2" "$p1" "$p3" "$c2" "$c1" "$c3"
    awk -v w="$wins" -v t="$ties" -v n="$pairs" -v pm="$p2" -v cm="$c2" -v iqr="$(awk -v a="$p1" -v b="$p3" 'BEGIN { print b - a }')" 'BEGIN {
        printf "tree wins %d of %d pairs (%d ties); medians differ by %+.3f (%+.1f %%), parent interquartile distance %.3f\n",
            w, n, t, cm - pm, 100 * (cm - pm) / pm, iqr
        gain = (w >= 0.9 * n) && (pm - cm > iqr)
        print (gain ? "gain: wins >= 9/10 and the medians differ by more than the parent'"'"'s spread" \
                    : "no gain by the 9/10-and-spread rule")
    }'
    for m in $exact; do
        if [ -n "${moved[$m]:-}" ]; then
            printf '%-13s MOVED  %s\n' "$m" "${moved[$m]}"
        else
            printf '%-13s equal in every pair\n' "$m"
        fi
    done
    for m in $memory; do
        signed "$m" "$(metric "$last_p" "$m")" "$(metric "$last_c" "$m")"
    done
    signed host.allocs "$(metric "$(run "$parent" "$ab/target-$rev" 3 1)" host.allocs)" \
        "$(metric "$(run "$here" "$ab/target-tree" 3 1)" host.allocs)"
    if [ -n "${table:-}" ]; then
        local better bound
        while read -r m better bound; do
            # shellcheck disable=SC2086 # one value per pair
            printf '%s %s %s %s %s %s\n' "$workload" "$m" "$(median ${e2e_p[$m]})" \
                "$(median ${e2e_c[$m]})" "$better" "$bound" >>"$table"
        done <<<"$end_to_end"
    fi
}

if [ "$target" != all ]; then
    compare "$target"
    exit 0
fi

table=$(mktemp)
trap 'rm -f "$table"' EXIT
workloads=$(sed -n '/"workloads"/,/\]/p' BENCHMARK.json | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')
for w in $workloads; do
    compare "$w"
    echo
done
echo "no regression beyond BENCHMARK.json's bounds (medians over $pairs pairs, parent ${rev:0:7} -> working tree):"
awk '
    BEGIN { printf "%-12s %-13s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "tree", "change", "bound", "verdict" }
    {
        change = ($3 != 0) ? ($4 - $3) / $3 : ($4 != 0)
        worse = ($5 == "lower") ? change : -change
        flag = (worse > $6) ? "WORSE" : "ok"
        if (flag == "WORSE") bad++
        printf "%-12s %-13s %12.4g %12.4g %+8.2f%% %6.0f%%  %s\n", $1, $2, $3, $4, 100 * change, 100 * $6, flag
    }
    END {
        if (bad) { printf "%d end-to-end medians worse than their bound\n", bad; exit 1 }
        print "every end-to-end median within its bound"
    }' "$table"
