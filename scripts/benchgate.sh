#!/bin/sh
# benchgate.sh — hot-path benchmark regression gate.
#
#   go test -bench 'ServeUDP$|ServeUDPBatch$|ServeStream|ServeHit|DoHBurst' -benchmem ./internal/... > bench.out
#   scripts/benchgate.sh BENCH_pr10.json bench.out
#
# Reads the committed baseline artifact (a benchjson.sh array containing a
# BenchmarkServeUDP row) and a fresh `go test -bench` text output, then
# enforces the invariants the wire-template and run-to-completion PRs
# established:
#
#   1. BenchmarkServeUDP ns/op must not regress more than GATE_PCT percent
#      (default 15) over the committed baseline. CI runners are noisy, so
#      the tolerance is generous; a real regression (reintroducing a pack
#      or an alloc on the hit path) blows well past it.
#   2. BenchmarkServeHitTemplate must stay at least 2x faster than
#      BenchmarkServeHitMaterialized — the PR's acceptance floor. This
#      compares two numbers from the SAME run, so it is immune to runner
#      speed and catches the fast path silently degrading to a repack.
#   3. BenchmarkServeUDPBatch (cache hits answered inline in the UDP
#      receive loop, ns per packet) must stay at least 1.3x faster than
#      BenchmarkServeUDP (the miss/fallback path, one packet at a time) —
#      again two numbers from the same run. It catches a hit picking up
#      per-packet pool traffic, locking or allocation again. The ratio
#      measures 1.5-1.65x where it was set; the floor leaves the margin
#      the two figures need there, each moving +-10 % between runs even as
#      best of five (EXPERIMENTS.md, "Run-to-completion cache hits").
#   4. BenchmarkServeStreamPipelined (32 queries a round over loopback
#      TCP+TLS, ns per query) must stay at least 6x faster than
#      BenchmarkServeStream (one query a round) in the same run. It
#      catches the stream loop going back to a write, a TLS record and a
#      syscall per answer: that loop measures 2.5-3.1x, the burst loop
#      9.7-15.8x over twenty runs at one and two CPUs (EXPERIMENTS.md,
#      "Run-to-completion stream bursts"), so the floor sits clear of both.
#   5. BenchmarkDoHBurst (16 POSTs a round over loopback TLS through the
#      HTTP/2 burst loop, ns per request) must stay at least 2x faster than
#      BenchmarkDoHBurstNetHTTP (the same traffic through net/http's HTTP/2
#      server) in the same run. The loop is a second HTTP/2 implementation
#      and stays only while it pays for its lines: it measures 15-17x here
#      (EXPERIMENTS.md, "Run-to-completion DoH"), and a loop that went back
#      to a goroutine per stream or a write per frame would fall under 2x.
#
# Any check failing exits non-zero; a missing benchmark in the fresh
# output fails too (a gate that cannot find its subject must not pass).
# Missing baseline rows only warn: the artifact predating a new benchmark
# is expected during bring-up, and check 2 still guards the hit path.
set -eu

baseline=${1:?usage: benchgate.sh BASELINE.json [bench.out]}
bench=${2:--}

# current <name> -> ns/op from the go test text output, strictly matched;
# the lowest figure when the benchmark ran several times (-count N):
# whatever disturbs a run only ever makes it slower.
current() {
    awk -v want="$1" '
    $1 ~ /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        if (name != want) next
        for (i = 2; i < NF; i++) if ($(i + 1) == "ns/op" && (best == "" || $i + 0 < best + 0)) best = $i
    }
    END { if (best != "") print best }
    ' "$tmp"
}

# base <name> -> ns_per_op from the committed benchjson array.
base() {
    jq -r --arg n "$1" '[.[] | select(.name == $n)][0].ns_per_op // empty' \
        "$baseline"
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
if [ "$bench" = "-" ]; then cat > "$tmp"; else cat "$bench" > "$tmp"; fi

fail=0
pct=${GATE_PCT:-15}

# Check 1: ServeUDP against the committed baseline.
cur=$(current BenchmarkServeUDP)
if [ -z "$cur" ]; then
    echo "benchgate: BenchmarkServeUDP missing from bench output" >&2
    fail=1
else
    ref=$(base BenchmarkServeUDP)
    if [ -z "$ref" ]; then
        echo "benchgate: warn: no BenchmarkServeUDP row in $baseline (skipping)" >&2
    else
        limit=$(awk -v r="$ref" -v p="$pct" 'BEGIN { printf "%.1f", r * (1 + p / 100) }')
        over=$(awk -v c="$cur" -v l="$limit" 'BEGIN { print (c > l) ? 1 : 0 }')
        if [ "$over" = 1 ]; then
            echo "benchgate: FAIL ServeUDP ${cur} ns/op > ${limit} ns/op (baseline ${ref} +${pct}%)" >&2
            fail=1
        else
            echo "benchgate: ok ServeUDP ${cur} ns/op <= ${limit} ns/op (baseline ${ref} +${pct}%)"
        fi
    fi
fi

# Check 2: template hit path >= 2x faster than materialize, same run.
t=$(current BenchmarkServeHitTemplate)
m=$(current BenchmarkServeHitMaterialized)
if [ -z "$t" ] || [ -z "$m" ]; then
    echo "benchgate: FAIL ServeHit benchmarks missing from bench output" >&2
    fail=1
else
    ok=$(awk -v t="$t" -v m="$m" 'BEGIN { print (m >= 2 * t) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "benchgate: ok template hit ${t} ns/op vs materialized ${m} ns/op ($(awk -v t="$t" -v m="$m" 'BEGIN { printf "%.1f", m / t }')x)"
    else
        echo "benchgate: FAIL template hit ${t} ns/op not 2x faster than materialized ${m} ns/op" >&2
        fail=1
    fi
fi

# Check 3: inline batched hits >= 1.3x faster per packet than the
# fallback path, same run ($cur is check 1's BenchmarkServeUDP figure).
b=$(current BenchmarkServeUDPBatch)
if [ -z "$b" ] || [ -z "$cur" ]; then
    echo "benchgate: FAIL ServeUDPBatch or ServeUDP missing from bench output" >&2
    fail=1
else
    ok=$(awk -v b="$b" -v u="$cur" 'BEGIN { print (u >= 1.3 * b) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "benchgate: ok inline hit ${b} ns/packet vs fallback ${cur} ns/op ($(awk -v b="$b" -v u="$cur" 'BEGIN { printf "%.1f", u / b }')x)"
    else
        echo "benchgate: FAIL inline hit ${b} ns/packet not 1.3x faster than fallback ${cur} ns/op" >&2
        fail=1
    fi
fi

# Check 4: pipelined stream queries >= 6x faster per query than window 1,
# same run.
p=$(current BenchmarkServeStreamPipelined)
w=$(current BenchmarkServeStream)
if [ -z "$p" ] || [ -z "$w" ]; then
    echo "benchgate: FAIL ServeStream benchmarks missing from bench output" >&2
    fail=1
else
    ok=$(awk -v p="$p" -v w="$w" 'BEGIN { print (w >= 6 * p) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "benchgate: ok pipelined stream ${p} ns/query vs window 1 ${w} ns/query ($(awk -v p="$p" -v w="$w" 'BEGIN { printf "%.1f", w / p }')x)"
    else
        echo "benchgate: FAIL pipelined stream ${p} ns/query not 6x faster than window 1 ${w} ns/query" >&2
        fail=1
    fi
fi

# Check 5: the DoH burst loop >= 2x faster per request than net/http's
# HTTP/2 server on the same traffic, same run.
l=$(current BenchmarkDoHBurst)
n=$(current BenchmarkDoHBurstNetHTTP)
if [ -z "$l" ] || [ -z "$n" ]; then
    echo "benchgate: FAIL DoHBurst benchmarks missing from bench output" >&2
    fail=1
else
    ok=$(awk -v l="$l" -v n="$n" 'BEGIN { print (n >= 2 * l) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "benchgate: ok DoH burst loop ${l} ns/request vs net/http ${n} ns/request ($(awk -v l="$l" -v n="$n" 'BEGIN { printf "%.1f", n / l }')x)"
    else
        echo "benchgate: FAIL DoH burst loop ${l} ns/request not 2x faster than net/http ${n} ns/request" >&2
        fail=1
    fi
fi

exit $fail
