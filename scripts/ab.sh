#!/bin/sh
# ab.sh — same-host A/B of two revisions: alternate runs of BASE and HEAD
# on this machine, so host speed and drift hit both sides alike.
#
#   scripts/ab.sh [options] BASE [HEAD]
#
# BASE and HEAD are git revisions; HEAD defaults to the working tree,
# uncommitted changes included. Each revision other than the working tree
# is exported with `git archive` into a temporary directory (under
# $TMPDIR), which leaves nothing registered in the repository, and each
# tree is built once:
#
#   default        `go test -c` of the root package; every run executes
#                  the benchmarks matching -bench and compares ns/op, B/op
#                  and allocs/op.
#   -workload W    perfbench/run.sh's binary; every run is one perfbench
#                  window of W, compared on its end-to-end metrics.
#
# Each run uses the tool's own budget: go test's default benchtime, or
# perfbench's default window. It runs -n pairs and swaps the order inside
# every other pair. Both sides of a pair get the same fresh random seed
# (perfbench only), printed so a run can be repeated by hand. Then, for
# each metric, it prints each side's median and quartiles and how many
# pairs HEAD won, and exits 1 when HEAD loses at least 9 of 10 pairs
# (ceil(0.9 n) of n) by more than -margin, as a fraction of BASE's value.
# A metric that lacks a value on either side in some pair (a benchmark only
# one revision has) is printed but not compared, and never fails the run.
#
# Options:
#   -n N            pairs (default 10)
#   -margin M       loss margin, a fraction (default 0.05)
#   -bench RE       benchmark regexp (default the CharacterizeAll,
#                   Whatif, RunFluid, Solver and PlaceRequest hot paths)
#   -workload W     perfbench workload instead of microbenchmarks
set -eu
cd "$(dirname "$0")/.."
repo=$(pwd)

pairs=10
margin=0.05
bench='^(BenchmarkCharacterizeAll|BenchmarkWhatif|BenchmarkRunFluid|BenchmarkSolver|BenchmarkPlaceRequest)$'
workload=""
usage() {
    sed -n '2,/^set -eu/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
}
while [ $# -gt 0 ]; do
    case $1 in
    -n) pairs=$2; shift 2 ;;
    -margin) margin=$2; shift 2 ;;
    -bench) bench=$2; shift 2 ;;
    -workload) workload=$2; shift 2 ;;
    -h | -help | --help) usage ;;
    -*) echo "ab.sh: unknown option $1" >&2; usage ;;
    *) break ;;
    esac
done
[ $# -ge 1 ] && [ $# -le 2 ] || usage
base_rev=$1
head_rev=${2:-}
seed=$(od -An -N2 -tu2 /dev/urandom | tr -d ' ')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# export REV DIR: a clean copy of REV's files in DIR.
export_rev() {
    mkdir -p "$2"
    git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$1^{commit}")" | tar -x -C "$2"
}

# build SIDE TREE: build TREE once; the run commands below use $tmp/SIDE.bin.
build() {
    if [ -z "$workload" ]; then
        (cd "$2" && go test -c -o "$tmp/$1.bin" .)
    else
        # run.sh builds .bench_build/perfbench and then execs it; -h makes
        # the binary print its usage and exit, which leaves the build.
        rm -f "$2/.bench_build/perfbench"
        sh "$2/perfbench/run.sh" -h >/dev/null 2>&1 || true
        if [ ! -x "$2/.bench_build/perfbench" ]; then
            echo "ab.sh: building perfbench in $2 failed:" >&2
            sh "$2/perfbench/run.sh" -h >&2 || true
            exit 1
        fi
        cp "$2/.bench_build/perfbench" "$tmp/$1.bin"
    fi
}

export_rev "$base_rev" "$tmp/base"
base_tree=$tmp/base
if [ -n "$head_rev" ]; then
    export_rev "$head_rev" "$tmp/head"
    head_tree=$tmp/head
else
    head_rev="working tree"
    head_tree=$repo
fi
echo "ab.sh: BASE $base_rev vs HEAD $head_rev, $pairs pairs, margin $margin, seeds from $((seed + 1))"
build base "$base_tree"
build head "$head_tree"

# run SIDE TREE PAIR SEED: one run, appending "pair side metric value
# better" lines to $tmp/data.
run() {
    out=$tmp/run.out
    if [ -z "$workload" ]; then
        (cd "$2" && "$tmp/$1.bin" -test.run '^$' -test.bench "$bench" \
            -test.benchmem -test.timeout 30m) >"$out" 2>&1 || {
            cat "$out" >&2
            echo "ab.sh: pair $3 $1 failed" >&2
            exit 1
        }
        awk -v pair="$3" -v side="$1" '/^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 3; i < NF; i += 2)
                if ($(i + 1) == "ns/op" || $(i + 1) == "B/op" || $(i + 1) == "allocs/op")
                    print pair, side, name "|" $(i + 1), $i, "lower"
        }' "$out" >>"$tmp/data"
    else
        mkdir -p "$tmp/$1.out"
        (cd "$2" && "$tmp/$1.bin" -out "$tmp/$1.out" -workload "$workload" \
            -seed "$4" -trace 0) >"$out" 2>&1 || {
            cat "$out" >&2
            echo "ab.sh: pair $3 $1 failed" >&2
            exit 1
        }
        # The last line is the JSON result: one flat "name":{"value":v}
        # object per metric, then the operation counts.
        tail -n 1 "$out" | tr '{,' '\n\n' | awk -v pair="$3" -v side="$1" '
            /"value":/ { v = $0; sub(/.*:/, "", v); print pair, side, name, v, better }
            /^"[a-z0-9_.]+":$/ {
                name = $0; gsub(/[":]/, "", name)
                better = (name ~ /_rps$/) ? "higher" : "lower"
            }
            /^"(attempted|failed)":/ {
                k = $0; v = $0; sub(/:.*/, "", k); gsub(/"/, "", k); sub(/.*:/, "", v)
                print pair, side, k, v, (k == "failed" ? "lower" : "none")
            }' >>"$tmp/data"
    fi
    printf 'pair %d %s:' "$3" "$1"
    awk -v pair="$3" -v side="$1" '$1 == pair && $2 == side { printf " %s=%s", $3, $4 }' "$tmp/data"
    echo
}

: >"$tmp/data"
k=1
while [ "$k" -le "$pairs" ]; do
    s=$((seed + k))
    if [ $((k % 2)) -eq 1 ]; then
        run base "$base_tree" "$k" "$s"
        run head "$head_tree" "$k" "$s"
    else
        run head "$head_tree" "$k" "$s"
        run base "$base_tree" "$k" "$s"
    fi
    k=$((k + 1))
done

awk -v margin="$margin" -v pairs="$pairs" '
function quant(arr, n, p,    h, lo) {
    # Linear interpolation between order statistics (arr sorted, 1-based).
    h = (n - 1) * p + 1
    lo = int(h)
    return (lo >= n) ? arr[n] : arr[lo] + (h - lo) * (arr[lo + 1] - arr[lo])
}
function num(v) {
    return (v >= 1000 || v == int(v)) ? sprintf("%.0f", v) : sprintf("%.4g", v)
}
function spread(arr, n) {
    if (n == 0) return "-"
    return sprintf("%s [%s, %s]", num(quant(arr, n, 0.5)), num(quant(arr, n, 0.25)), num(quant(arr, n, 0.75)))
}
function sortn(arr, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && arr[j - 1] > arr[j]; j--) {
            t = arr[j]; arr[j] = arr[j - 1]; arr[j - 1] = t
        }
}
{
    if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
    val[$3, $2, $1] = $4; better[$3] = $5
}
END {
    need = int((9 * pairs + 9) / 10) # ceil(0.9 pairs), in integers
    printf "%-48s %-34s %-34s %-9s %s\n", "metric", "BASE median [q1, q3]", "HEAD median [q1, q3]", "HEAD won", "verdict"
    bad = 0
    for (m = 1; m <= nm; m++) {
        name = order[m]
        nb = nh = won = lost = gained = 0
        for (p = 1; p <= pairs; p++) {
            if ((name, "base", p) in val) bs[++nb] = val[name, "base", p]
            if ((name, "head", p) in val) hs[++nh] = val[name, "head", p]
            if (!((name, "base", p) in val) || !((name, "head", p) in val)) continue
            b = val[name, "base", p]; h = val[name, "head", p]
            if (better[name] == "higher") {
                if (h > b) won++
                if (h < b * (1 - margin)) lost++
                if (h > b * (1 + margin)) gained++
            } else if (better[name] == "lower") {
                if (h < b) won++
                if (h > b * (1 + margin)) lost++
                if (h < b * (1 - margin)) gained++
            }
        }
        sortn(bs, nb); sortn(hs, nh)
        compared = better[name] != "none" && nb == pairs && nh == pairs
        verdict = "within noise"
        if (better[name] == "none") verdict = "not compared"
        else if (nb == 0) verdict = "only in HEAD"
        else if (nh == 0) verdict = "only in BASE"
        else if (!compared) verdict = "not compared (missing pairs)"
        else if (lost >= need) { verdict = "REGRESSION"; bad = 1 }
        else if (gained >= need) verdict = "better"
        label = name; sub(/\|/, " ", label)
        printf "%-48s %-34s %-34s %-9s %s\n", label, spread(bs, nb), spread(hs, nh),
            (compared ? won "/" pairs : "-"), verdict
    }
    if (bad)
        printf "ab.sh: HEAD lost at least %d of %d pairs by more than %s on a metric above\n", need, pairs, margin > "/dev/stderr"
    exit bad
}' "$tmp/data"
