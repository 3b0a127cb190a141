#!/bin/sh
# A/B comparison of two commits on one ntcbench workload, on this host.
#
#   sh scripts/ab.sh BASE HEAD WORKLOAD SEED PAIRS
#
#   sh scripts/ab.sh main HEAD serve-mixed 2018 8
#
# Checks out BASE and HEAD into temporary git worktrees, builds and
# warms up ntcbench in each through ntcbench/run.sh, then runs PAIRS
# pairs of the workload. Pairs strictly alternate which side runs
# first (odd pairs base first, even pairs head first), so drift on the
# host falls on both sides alike. Each run measures for the
# run_seconds that BENCHMARK.json names (25 when it names none).
#
# For every end-to-end metric it prints each side's q1/median/q3, how
# many pairs HEAD won, the median gap against the base IQR, and the
# two-sided Mann-Whitney U p-value (cmd/benchjson -ab-base/-ab-head).
# It exits non-zero when any run fails or is not correct. Raw outputs
# stay in .bench_build/ab/WORKLOAD-seedSEED/; worktrees live under
# $TMPDIR and are removed on exit.
set -eu

if [ $# -ne 5 ]; then
	echo "usage: sh scripts/ab.sh BASE HEAD WORKLOAD SEED PAIRS" >&2
	exit 2
fi
workload=$3 seed=$4 pairs=$5
case $pairs in
'' | *[!0-9]* | 0)
	echo "ab: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
base_sha=$(git rev-parse --verify "$1^{commit}")
head_sha=$(git rev-parse --verify "$2^{commit}")
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json 2>/dev/null | head -n 1)
seconds=${seconds:-25}

out="$root/.bench_build/ab/$workload-seed$seed"
rm -rf "$out"
mkdir -p "$out"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ntc-ab.XXXXXX")
cleanup() {
	for side in base head; do
		[ -d "$tmp/$side" ] && git -C "$root" worktree remove --force "$tmp/$side" 2>/dev/null
	done
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --quiet --detach "$tmp/base" "$base_sha"
git worktree add --quiet --detach "$tmp/head" "$head_sha"
go build -o "$tmp/benchjson" ./cmd/benchjson

# bench SIDE SHA TAG SECONDS: one ntcbench run in SIDE's worktree.
# Standard output appends to SIDE.out; progress goes to SIDE-TAG.log.
bench() {
	log="$out/$1-$3.log"
	if ! (cd "$tmp/$1" && NTCBENCH_COMMIT=$2 bash ntcbench/run.sh \
		--workload "$workload" --seed "$seed" --seconds "$4" --trace 0) >>"$out/$1.out" 2>"$log"; then
		echo "ab: $1 run $3 failed; last lines of $log:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
}

echo "ab: $workload seed $seed, $pairs pairs of ${seconds}s runs; base $base_sha, head $head_sha" >&2
# The warm-up builds each side and fills its caches; its output is
# not compared.
bench base "$base_sha" warmup 1
bench head "$head_sha" warmup 1
rm -f "$out/base.out" "$out/head.out"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		bench base "$base_sha" "$i" "$seconds"
		bench head "$head_sha" "$i" "$seconds"
	else
		bench head "$head_sha" "$i" "$seconds"
		bench base "$base_sha" "$i" "$seconds"
	fi
	echo "ab: pair $i/$pairs done" >&2
	i=$((i + 1))
done

echo "A/B $workload, seed $seed, $pairs alternating pairs, ${seconds}s runs"
"$tmp/benchjson" -ab-base "$out/base.out" -ab-head "$out/head.out"
