#!/bin/sh
# bench.sh — run the hot-path microbenchmarks with a fixed -benchtime and
# record the results for the speedup trajectory (docs/PERFORMANCE.md):
#
#   BENCH_<rev>.txt   raw `go test -bench` output, benchstat input
#   BENCH_<rev>.json  the same numbers as structured JSON
#
# Compare two revisions with: benchstat BENCH_<old>.txt BENCH_<new>.txt
#
# With -check the script instead runs the CharacterizeAll/RunFluid/Solver
# and PredictRequest/PlaceRequest hot paths once (with the respelled-body
# and response-cache-miss predict cases beside them) and compares their
# B/op and allocs/op against the most recent recorded BENCH_*.json,
# failing on an allocation regression beyond TOLERANCE, plus absolute
# gates on the sweep hot path (CharacterizeAll <= 512000
# B/op, RunFluid <= 6 allocs/op, Solver/reused at 0 allocs/op) and on the
# exact-bytes hit (PredictRequest <= 30 allocs/op), a same-run gate on the
# what-if path (Whatif/reuse faster than Whatif/fresh at no more than half
# its allocs/op) and on the telemetry tax (flight recorder
# on/off request ratio <= RECORDER_TOLERANCE, FlightRecorderRecord at 0
# allocs/op) — the CI bench-regression guard. Both gate passes always run
# and print every verdict; the script fails if either does. Nothing is
# recorded in this mode. When GITHUB_STEP_SUMMARY is set, an old/new
# allocation table is appended to it. ns/op is not compared against the
# record, which may come from another host: timing is gated by
# scripts/ab.sh, which runs both revisions on one host.
#
# Environment knobs:
#   REV        label for the output files (default: git short hash)
#   BENCHTIME  per-benchmark budget (default 2s; use e.g. 10x for CI)
#   COUNT      repetitions per benchmark (default 1; benchstat wants >= 6)
#   TOLERANCE  -check B/op and allocs/op growth limit as a ratio
#              (default 1.25 = +25%)
#   RECORDER_TOLERANCE  -check ceiling on the flight-recorder on/off
#              request-latency ratio (default 1.05 = +5%)
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "-check" ]; then
    # Latest record by commit date (checkout mtimes are meaningless); an
    # uncommitted record counts as newest.
    baseline=""
    newest=-1
    for f in BENCH_*.json; do
        [ -e "$f" ] || continue
        t=$(git log -1 --format=%ct -- "$f" 2>/dev/null)
        [ -n "$t" ] || t=$(date +%s)
        if [ "$t" -ge "$newest" ]; then
            newest=$t
            baseline=$f
        fi
    done
    if [ -z "$baseline" ]; then
        echo "bench.sh -check: no BENCH_*.json baseline recorded" >&2
        exit 1
    fi
    tolerance=${TOLERANCE:-1.25}
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    echo "bench.sh -check: comparing against $baseline (limit ${tolerance}x)"
    go test -run '^$' \
        -bench '^(BenchmarkCharacterizeAll|BenchmarkWhatif|BenchmarkRunFluid|BenchmarkSolver|BenchmarkPredictRequest|BenchmarkPredictRequestRespelled|BenchmarkPredictRequestMiss|BenchmarkPlaceRequest|BenchmarkRecorderOverhead|BenchmarkFlightRecorderRecord)$' \
        -benchmem -benchtime "${BENCHTIME:-1s}" . | tee "$tmp/bench.txt"
    # The recorder on/off ratio compares two ~16us request paths, so its
    # signal (~0.4us) is the same size as scheduler noise in one sample.
    # Take extra repetitions and gate on per-mode minima: the best-case
    # run of each mode is the measurement least polluted by interference.
    go test -run '^$' -bench '^BenchmarkRecorderOverhead$' \
        -benchmem -benchtime "${BENCHTIME:-1s}" -count 2 . | tee -a "$tmp/bench.txt"
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            echo "### Bench regression guard (vs $baseline)"
            echo ""
            echo "| benchmark | old B/op | new B/op | old allocs | new allocs |"
            echo "|---|---|---|---|---|"
        } >> "$GITHUB_STEP_SUMMARY"
    fi
    # Each gate pass records its verdict instead of exiting under set -e, so
    # a failed baseline comparison never hides the host-independent gates.
    status=0
    awk -v limit="$tolerance" -v summary="${GITHUB_STEP_SUMMARY:-}" '
    # extract pulls one numeric JSON field out of a baseline line; returns
    # -1 when the field is absent (older records without -benchmem data).
    function extract(line, field,    v) {
        if (line !~ ("\"" field "\": "))
            return -1
        v = line
        sub(".*\"" field "\": ", "", v)
        sub(/[,}].*/, "", v)
        return v + 0
    }
    # gate compares one metric against its baseline with the tolerance
    # ratio; a zero baseline (e.g. a 0 allocs/op benchmark) must stay zero.
    function gate(name, metric, b, now,    ratio, verdict) {
        if (b < 0)
            return 0
        if (b == 0) {
            verdict = (now > 0) ? "REGRESSION" : "ok"
            printf "%-34s %-13s baseline %12.0f, now %12.0f            %s\n",
                name, metric, b, now, verdict
            return now > 0
        }
        ratio = now / b
        verdict = (ratio > limit) ? "REGRESSION" : "ok"
        printf "%-34s %-13s baseline %12.0f, now %12.0f (%+6.1f%%)  %s\n",
            name, metric, b, now, (ratio - 1) * 100, verdict
        return ratio > limit
    }
    FNR == NR {
        # Baseline JSON: one benchmark object per line.
        if ($0 ~ /"name"/ && $0 ~ /"ns_per_op"/) {
            name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
            base_b[name] = extract($0, "B_per_op")
            base_allocs[name] = extract($0, "allocs_per_op")
        }
        next
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (!(name in base_b))
            next
        bop = $5 + 0; allocs = $7 + 0
        bad += gate(name, "B/op", base_b[name], bop)
        bad += gate(name, "allocs/op", base_allocs[name], allocs)
        if (summary != "") {
            printf "| %s | %.0f | %.0f | %.0f | %.0f |\n", name,
                (base_b[name] < 0 ? 0 : base_b[name]), bop,
                (base_allocs[name] < 0 ? 0 : base_allocs[name]), allocs >> summary
        }
        checked++
    }
    END {
        if (!checked) {
            print "bench.sh -check: no benchmark matched the baseline" > "/dev/stderr"
            exit 1
        }
        exit bad > 0
    }
    ' "$baseline" "$tmp/bench.txt" || status=1
    # Structural gates beyond per-benchmark regression: the parallel sweep
    # must actually scale, but only where the host has cores to scale onto
    # (the p1 and p8 sub-benchmarks run the same work on a 1-core box, so
    # the ratio is noise there).
    # Structural gates also cover the sweep's absolute allocation budget:
    # a zero-alloc hot path is the PR-9 contract, and a ratio-only gate
    # would let it erode a few percent at a time.
    cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
    recorder_limit=${RECORDER_TOLERANCE:-1.05}
    awk -v cores="$cores" -v reclimit="$recorder_limit" '
    /^BenchmarkRecorderOverhead\/off/  { if (!recoff || $3 + 0 < recoff) recoff = $3 + 0 }
    /^BenchmarkRecorderOverhead\/on/   { if (!recon || $3 + 0 < recon) recon = $3 + 0 }
    /^BenchmarkFlightRecorderRecord/   { recallocs = $7 + 0; seenrec = 1 }
    /^BenchmarkCharacterizeAll\/p1-/           { p1 = $3 + 0 }
    /^BenchmarkCharacterizeAll\/p8-/           { p8 = $3 + 0 }
    /^BenchmarkCharacterizeAll\// {
        if (($5 + 0) > maxsweepb) { maxsweepb = $5 + 0; maxsweepname = $1 }
    }
    /^BenchmarkRunFluid/ { fluidallocs = $7 + 0; seenfluid = 1 }
    /^BenchmarkSolver\/reused/ { reusedallocs = $7 + 0; seenreused = 1 }
    $1 ~ /^BenchmarkPredictRequest(-[0-9]+)?$/ { predictallocs = $7 + 0; seenpredict = 1 }
    /^BenchmarkWhatif\/fresh/ { wfresh = $3 + 0; wfreshallocs = $7 + 0 }
    /^BenchmarkWhatif\/reuse/ { wreuse = $3 + 0; wreuseallocs = $7 + 0 }
    END {
        bad = 0
        if (cores + 0 >= 4) {
            if (p1 && p8) {
                ratio = p1 / p8
                printf "CharacterizeAll p8 speedup over p1: %.2fx (floor 3.0x)\n", ratio
                if (ratio < 3.0) {
                    print "bench.sh -check: parallel sweep scaling below the 3.0x floor" > "/dev/stderr"
                    bad = 1
                }
            } else {
                print "bench.sh -check: CharacterizeAll p1/p8 results missing" > "/dev/stderr"
                bad = 1
            }
        } else {
            printf "skipping p8/p1 scaling gate: only %d core(s) online\n", cores
        }
        if (maxsweepname != "") {
            printf "CharacterizeAll peak heap: %.0f B/op at %s (ceiling 512000)\n", maxsweepb, maxsweepname
            if (maxsweepb > 512000) {
                print "bench.sh -check: CharacterizeAll B/op above the 512000 B ceiling" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: CharacterizeAll results missing" > "/dev/stderr"
            bad = 1
        }
        # Both what-if sweeps run in this process, so the comparison
        # holds on any host.
        if (wfresh && wreuse) {
            printf "what-if reuse %.0f ns/op, %.0f allocs/op vs fresh %.0f ns/op, %.0f allocs/op (%.2fx faster)\n",
                wreuse, wreuseallocs, wfresh, wfreshallocs, wfresh / wreuse
            if (wreuse >= wfresh) {
                print "bench.sh -check: what-if reuse is not faster than the fresh sweep" > "/dev/stderr"
                bad = 1
            }
            if (wreuseallocs * 2 > wfreshallocs) {
                print "bench.sh -check: what-if reuse allocates more than half of the fresh sweep" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: Whatif fresh/reuse results missing" > "/dev/stderr"
            bad = 1
        }
        if (seenfluid) {
            printf "RunFluid allocations: %.0f allocs/op (ceiling 6)\n", fluidallocs
            if (fluidallocs > 6) {
                print "bench.sh -check: RunFluid above the 6 allocs/op ceiling" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: RunFluid results missing" > "/dev/stderr"
            bad = 1
        }
        # A reused solver keeps its buffers across rounds; its solve result
        # is a view, so a warm round allocates nothing.
        if (seenreused) {
            printf "Solver/reused allocations: %.0f allocs/op (ceiling 0)\n", reusedallocs
            if (reusedallocs > 0) {
                print "bench.sh -check: Solver/reused must stay allocation-free" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: Solver/reused results missing" > "/dev/stderr"
            bad = 1
        }
        if (seenpredict) {
            printf "PredictRequest allocations: %.0f allocs/op (ceiling 30)\n", predictallocs
            if (predictallocs > 30) {
                print "bench.sh -check: PredictRequest above the 30 allocs/op ceiling" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: PredictRequest results missing" > "/dev/stderr"
            bad = 1
        }
        if (recoff && recon) {
            ratio = recon / recoff
            printf "flight recorder request tax: off %.0f ns/op, on %.0f ns/op (%.3fx, ceiling %.2fx)\n",
                recoff, recon, ratio, reclimit
            if (ratio > reclimit) {
                print "bench.sh -check: flight recorder overhead above the on/off ceiling" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: RecorderOverhead off/on results missing" > "/dev/stderr"
            bad = 1
        }
        if (seenrec) {
            printf "FlightRecorderRecord allocations: %.0f allocs/op (ceiling 0)\n", recallocs
            if (recallocs > 0) {
                print "bench.sh -check: FlightRecorderRecord must stay allocation-free" > "/dev/stderr"
                bad = 1
            }
        } else {
            print "bench.sh -check: FlightRecorderRecord results missing" > "/dev/stderr"
            bad = 1
        }
        exit bad
    }' "$tmp/bench.txt" || status=1
    if [ "$status" -ne 0 ]; then
        echo "bench.sh -check: FAILED (see the verdicts above)" >&2
        exit 1
    fi
    echo "bench.sh -check: no regression beyond ${tolerance}x"
    exit 0
fi

rev=${REV:-$(git rev-parse --short HEAD 2>/dev/null || echo dev)}
benchtime=${BENCHTIME:-2s}
count=${COUNT:-1}
txt="BENCH_${rev}.txt"
json="BENCH_${rev}.json"

go test -run '^$' \
    -bench '^(BenchmarkCharacterize|BenchmarkCharacterizeAll|BenchmarkWhatif|BenchmarkRunFluid|BenchmarkSolver|BenchmarkPredictRequest|BenchmarkPredictRequestRespelled|BenchmarkPredictRequestMiss|BenchmarkPlaceRequest|BenchmarkRecorderOverhead|BenchmarkFlightRecorderRecord)$' \
    -benchmem -benchtime "$benchtime" -count "$count" . | tee "$txt"

awk -v rev="$rev" -v benchtime="$benchtime" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, $2)
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_]/, "_", unit)
        line = line sprintf(", \"%s\": %s", unit, $i)
    }
    lines[++cnt] = line "}"
}
END {
    printf "{\n  \"rev\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", rev, benchtime
    for (i = 1; i <= cnt; i++)
        printf "%s%s\n", lines[i], (i < cnt ? "," : "")
    print "  ]"
    print "}"
}
' "$txt" > "$json"

echo "wrote $txt and $json"
