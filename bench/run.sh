#!/usr/bin/env bash
# Builds the benchmark and the skyrand daemon from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload ctrl-5ue --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --seed 1            # every workload, timed then traced
#   bash bench/run.sh compare A.json B.json
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory, the Go build cache included, and it never fetches
# anything: the benchmark and the repository use only the standard
# library.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/skyrand ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run it from the repository root (go.mod, cmd/skyrand and bench/go.mod must exist)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/go-cache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp" TMPDIR="$PWD/$out/tmp"
# The go command keeps telemetry counters under the user's config
# directory; point that inside too.
export XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/skyrand" ./cmd/skyrand
(cd bench && go build -o "../$out/skyranbench" .)
exec "$out/skyranbench" "$@"
