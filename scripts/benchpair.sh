#!/bin/sh
# benchpair.sh — one Go benchmark at two commits, run in alternating pairs.
#
#   scripts/benchpair.sh PARENT CHANGE PKG BENCH N
#   scripts/benchpair.sh HEAD~1 HEAD ./internal/cluster/ 'PeerHop$' 10
#   scripts/benchpair.sh HEAD . ./internal/cluster/ 'PeerHop$' 10
#
# Exports each commit with `git archive` into a temporary directory (a
# CHANGE of "." is the working tree as it stands, uncommitted edits
# included), builds PKG's test binary there with `go test -c`, and runs
# the two binaries N times each, one after the other with
# `-test.count 1`, the side that goes first alternating from pair to
# pair, so a drift of the machine lands on both sides alike. BENCH is the
# -test.bench pattern; it should match one benchmark (the first result
# line is the one read).
#
# Prints each pair's ns/op and allocs/op and the change/parent ns/op
# ratio, then the median ratio, "better in k/N" (pairs whose ratio is
# below 1: lower ns/op is better), the parent's median and quartiles of
# ns/op and the change's median. Read a gain only when the change is better in at least nine
# of ten pairs and its median moved by more than the distance between the
# parent's quartiles. An A/A run (the same
# commit on both sides) shows the noise: no consistent direction.
# Needs only git, go, tar and awk.
set -eu

if [ $# -ne 5 ]; then
	echo "usage: $0 PARENT CHANGE PKG BENCH N" >&2
	exit 2
fi
parent=$1 change=$2 pkg=$3 bench=$4 n=$5
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

# build REV SIDE: the test binary of PKG at REV, run from its package
# directory so testdata paths resolve as under go test.
build() {
	if [ "$1" = . ]; then
		src=$root
	else
		src=$tmp/src-$2
		mkdir -p "$src"
		git -C "$root" archive "$1" | tar -x -C "$src"
	fi
	(cd "$src" && go test -c -o "$tmp/$2.test" "$pkg")
	echo "$src/$pkg" >"$tmp/$2.dir"
}

# run SIDE: one benchmark run; prints "ns/op allocs/op".
run() {
	(cd "$(cat "$tmp/$1.dir")" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchmem -test.count 1) |
		awk '/^Benchmark/ && !done {
			for (i = 2; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i-1)
				if ($i == "allocs/op") al = $(i-1)
			}
			done = 1
		}
		END {
			if (ns == "") { print "benchpair: no benchmark result line" > "/dev/stderr"; exit 1 }
			print ns, (al == "" ? "-" : al)
		}'
}

build "$parent" a
build "$change" b
echo "parent $parent, change $change: $pkg -test.bench '$bench', $n pairs"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		a=$(run a)
		b=$(run b)
	else
		b=$(run b)
		a=$(run a)
	fi
	echo "$i $a $b"
	i=$((i + 1))
done | awk '
	{
		ratio = $4 / $2
		printf "pair %2d: parent %12.1f ns/op %6s allocs/op  change %12.1f ns/op %6s allocs/op  ratio %.4f\n", $1, $2, $3, $4, $5, ratio
		r[NR] = ratio; p[NR] = $2; c[NR] = $4
		if (ratio < 1) better++
	}
	function sort(v, m,   i, j, t) {
		for (i = 2; i <= m; i++)
			for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	}
	# q: the q-quantile of sorted v[1..m], linear between order statistics.
	function q(v, m, f,   h, lo) {
		h = 1 + (m - 1) * f; lo = int(h)
		return lo >= m ? v[m] : v[lo] + (h - lo) * (v[lo+1] - v[lo])
	}
	END {
		if (NR == 0) exit 1
		sort(r, NR); sort(p, NR); sort(c, NR)
		printf "median ratio %.4f (change/parent ns/op), better in %d/%d\n", q(r, NR, 0.5), better, NR
		printf "parent ns/op median %.1f, quartiles %.1f-%.1f; change ns/op median %.1f\n", q(p, NR, 0.5), q(p, NR, 0.25), q(p, NR, 0.75), q(c, NR, 0.5)
	}'
