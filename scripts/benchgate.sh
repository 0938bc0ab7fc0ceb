#!/bin/sh
# benchgate.sh — hot-path benchmark regression gate.
#
#   go test -bench 'ServeUDP$|ServeUDPBatch$|ServeStream|ServeHit|DoHBurst' -benchmem ./internal/... > bench.out
#   scripts/benchgate.sh bench.out
#
# Reads a fresh `go test -bench` text output (a file, or stdin when absent
# or "-") and enforces the invariants the wire-template and
# run-to-completion PRs established. Every check compares two numbers from
# the SAME run, so it is immune to runner speed:
#
#   1. BenchmarkServeHitTemplate must stay at least 2x faster than
#      BenchmarkServeHitMaterialized — the PR's acceptance floor. It
#      catches the fast path silently degrading to a repack.
#   2. BenchmarkServeUDPBatch (cache hits answered inline in the UDP
#      receive loop, ns per packet) must stay at least 1.3x faster than
#      BenchmarkServeUDP (the miss/fallback path, one packet at a time).
#      It catches a hit picking up per-packet pool traffic, locking or
#      allocation again. The ratio measures 1.5-1.65x where it was set;
#      the floor leaves the margin the two figures need there, each moving
#      +-10 % between runs even as best of five (EXPERIMENTS.md,
#      "Run-to-completion cache hits").
#   3. BenchmarkServeStreamPipelined (32 queries a round over loopback
#      TCP+TLS, ns per query) must stay at least 6x faster than
#      BenchmarkServeStream (one query a round) in the same run. It
#      catches the stream loop going back to a write, a TLS record and a
#      syscall per answer: that loop measures 2.5-3.1x, the burst loop
#      9.7-15.8x over twenty runs at one and two CPUs (EXPERIMENTS.md,
#      "Run-to-completion stream bursts"), so the floor sits clear of both.
#   4. BenchmarkDoHBurst (16 POSTs a round over loopback TLS through the
#      HTTP/2 burst loop, ns per request) must stay at least 2x faster than
#      BenchmarkDoHBurstNetHTTP (the same traffic through net/http's HTTP/2
#      server) in the same run. The loop is a second HTTP/2 implementation
#      and stays only while it pays for its lines: it measures 15-17x here
#      (EXPERIMENTS.md, "Run-to-completion DoH"), and a loop that went back
#      to a goroutine per stream or a write per frame would fall under 2x.
#
# There is no check against an absolute ns/op: a figure committed from
# one machine says nothing about another. Any check failing exits
# non-zero; a missing benchmark in the output fails too (a gate that
# cannot find its subject must not pass).
set -eu

bench=${1:--}

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

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
if [ "$bench" = "-" ]; then cat > "$tmp"; else cat "$bench" > "$tmp"; fi

fail=0

# Check 1: template hit path >= 2x faster than materialize, same run.
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

# Check 2: inline batched hits >= 1.3x faster per packet than the
# fallback path, same run.
b=$(current BenchmarkServeUDPBatch)
cur=$(current BenchmarkServeUDP)
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

# Check 3: pipelined stream queries >= 6x faster per query than window 1,
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

# Check 4: the DoH burst loop >= 2x faster per request than net/http's
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
