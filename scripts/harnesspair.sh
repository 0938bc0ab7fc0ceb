#!/bin/sh
# harnesspair.sh — the end-to-end harness at two commits, run in
# alternating pairs.
#
#   scripts/harnesspair.sh PARENT CHANGE -- WORKLOAD... N
#   scripts/harnesspair.sh HEAD~1 HEAD -- udp-hit doh-hit 5
#   scripts/harnesspair.sh HEAD . -- udp-hit udp-miss dot-hit doh-hit probe-fresh campaign-sim 1
#
# Exports each commit with `git archive` into a temporary directory (a
# CHANGE or PARENT of "." is the working tree as it stands, uncommitted
# edits included, run in place) and runs
#
#   bash benchmark/run.sh --workload W --seed S --trace 0
#
# in each, N pairs per workload. Both sides of a pair get the same seed,
# a fresh one per pair (HARNESSPAIR_SEED sets the first; the seeds used
# are printed), and the side that goes first alternates from pair to
# pair, so a drift of the machine lands on both sides alike. Before pair
# 1 each side makes one run of the first workload whose result is thrown
# away: a session's first runs read slow, and pair 1 would give them to
# the parent. The harness pins itself to one CPU: keep the box otherwise
# idle. Each run builds under its checkout's .bench_build/, so the
# warm-up run of a side also compiles it; a run takes about 40 s.
#
# Prints each pair's throughput_ops_s, latency_p50_us, setup_s and failed
# operations as the pair finishes, then per workload and metric the
# median and min-max of
# each side and "better in k/N" for the change (higher throughput, lower
# p50 and set-up are better). Read a gain only when the change is better
# in at least nine of ten pairs; rows whose ranges overlap have not
# moved. Needs only git, go, bash, tar and awk.
set -eu

usage() {
	echo "usage: $0 PARENT CHANGE -- WORKLOAD... N" >&2
	exit 2
}
[ $# -ge 5 ] && [ "$3" = -- ] || usage
parent=$1 change=$2
shift 3
for n; do :; done
case $n in '' | *[!0-9]*) usage ;; esac
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/harnesspair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

# export REV SIDE: the checkout SIDE runs, in $tmp/SIDE.dir.
export_rev() {
	if [ "$1" = . ]; then
		echo "$root" >"$tmp/$2.dir"
		return
	fi
	mkdir -p "$tmp/src-$2"
	git -C "$root" archive "$1" | tar -x -C "$tmp/src-$2"
	echo "$tmp/src-$2" >"$tmp/$2.dir"
}

# run SIDE W S: one harness run; prints "throughput p50 setup failed".
run() {
	if ! (cd "$(cat "$tmp/$1.dir")" && bash benchmark/run.sh --workload "$2" --seed "$3" --trace 0 >"$tmp/$1.out" 2>"$tmp/$1.log"); then
		echo "harnesspair: side $1, $2, seed $3 failed:" >&2
		tail -n 20 "$tmp/$1.log" >&2
		exit 1
	fi
	tail -n 1 "$tmp/$1.out" | awk '
		function metric(k,   s) {
			if (!match($0, "\"" k "\":\\{\"value\":[-+0-9.eE]+")) return "nan"
			s = substr($0, RSTART, RLENGTH); sub(/.*:/, "", s); return s
		}
		{
			if (!match($0, "\"failed\":[0-9]+")) { print "harnesspair: no result line" > "/dev/stderr"; exit 1 }
			failed = substr($0, RSTART + 9, RLENGTH - 9)
			print metric("throughput_ops_s"), metric("latency_p50_us"), metric("setup_s"), failed
		}'
}

export_rev "$parent" a
export_rev "$change" b
seed=${HARNESSPAIR_SEED:-$(($(date +%s) % 100000 * 10))}
echo "parent $parent, change $change: $n pairs per workload, seeds from $seed"
: >"$tmp/pairs"
warm=1
for w; do
	[ "$w" = "$n" ] && break
	if [ -n "$warm" ]; then
		run a "$w" "$seed" >/dev/null
		run b "$w" "$seed" >/dev/null
		echo "warm-up: one $w run per side at seed $seed, discarded"
		warm=
	fi
	i=1
	while [ "$i" -le "$n" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			a=$(run a "$w" "$seed")
			b=$(run b "$w" "$seed")
		else
			b=$(run b "$w" "$seed")
			a=$(run a "$w" "$seed")
		fi
		echo "$w $i $seed $a $b" >>"$tmp/pairs"
		# $a and $b stay unquoted: four fields each.
		printf '%-12s pair %2d seed %d: parent %10.6g ops/s %9.6g us %7.4g s %d failed | change %10.6g ops/s %9.6g us %7.4g s %d failed\n' \
			"$w" "$i" "$seed" $a $b
		seed=$((seed + 1))
		i=$((i + 1))
	done
done
awk '
	BEGIN { split("throughput_ops_s latency_p50_us setup_s", name); split("1 -1 -1", sense) }
	{
		w = $1
		if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
		k = ++np[w]
		for (m = 1; m <= 3; m++) {
			pa[w, m, k] = $(3 + m); ch[w, m, k] = $(7 + m)
			if (sense[m] * ($(7 + m) - $(3 + m)) > 0) better[w, m]++
		}
		fa[w] += $7; fc[w] += $11
	}
	function median(v, w, m, n,   i, j, t, s) {
		for (i = 1; i <= n; i++) s[i] = v[w, m, i]
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
		lo = s[1]; hi = s[n]
		return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
	}
	END {
		for (i = 1; i <= nw; i++) {
			w = order[i]; n = np[w]
			printf "\n%s: %d pairs, failed operations parent %d, change %d\n", w, n, fa[w], fc[w]
			for (m = 1; m <= 3; m++) {
				mp = median(pa, w, m, n); lp = lo; hp = hi
				mc = median(ch, w, m, n)
				printf "  %-16s parent %.6g [%.6g-%.6g]  change %.6g [%.6g-%.6g]  better in %d/%d\n", name[m], mp, lp, hp, mc, lo, hi, better[w, m], n
			}
		}
	}' "$tmp/pairs"
