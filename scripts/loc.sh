#!/bin/sh
# loc: print the non-test Go lines of each package directory and their
# total, outside bench/ (the benchmark's own module) and .bench_build/
# (its build output). The total is the size a simplification is judged
# by: moving code into _test.go files lowers it without removing code,
# so a change that moves code says how many lines it moved.
set -eu

cd "$(dirname "$0")/.."
find . \( -path ./.git -o -path ./bench -o -path ./.bench_build \) -prune -o \
	-name '*.go' ! -name '*_test.go' -print |
	xargs wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\//, "", dir)
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total\n", total
	}'
