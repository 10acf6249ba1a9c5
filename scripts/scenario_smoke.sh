#!/bin/sh
# scenario-smoke: prove the declarative scenario path end to end.
# Validates every file in scenarios/, runs the quickstart scenario
# from its file, and byte-diffs the result against the equivalent
# all-flags run — a file-loaded scenario must be indistinguishable
# from the flags it replaces. Also checks that combining -spec with a
# scenario flag is the documented usage error (exit 2), and that a
# recorded traffic trace replays byte-identically on a single UAV and
# on a mobile fleet.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
cleanup() {
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "scenario-smoke: building skyranctl"
go build -o "$tmp/skyranctl" ./cmd/skyranctl

echo "scenario-smoke: validating scenario library"
"$tmp/skyranctl" scenario validate scenarios/*.yaml

echo "scenario-smoke: file-vs-flags byte diff (quickstart)"
"$tmp/skyranctl" -spec scenarios/quickstart.yaml -json >"$tmp/file.json"
"$tmp/skyranctl" -terrain FLAT -ues 3 -budget 200 -epochs 1 -seed 1 -serve 1 -json >"$tmp/flags.json"
if ! diff -u "$tmp/flags.json" "$tmp/file.json"; then
	echo "scenario-smoke: file run differs from flag run" >&2
	exit 1
fi
echo "scenario-smoke: file run is byte-identical to the flag run"

echo "scenario-smoke: -spec + scenario flag must be a usage error"
set +e
"$tmp/skyranctl" -spec scenarios/quickstart.yaml -ues 5 -json >/dev/null 2>"$tmp/conflict.err"
status=$?
set -e
[ "$status" -eq 2 ] || { echo "scenario-smoke: conflict exited $status, want 2" >&2; exit 1; }
grep -q "cannot be combined" "$tmp/conflict.err" ||
	{ echo "scenario-smoke: conflict error message missing" >&2; cat "$tmp/conflict.err" >&2; exit 1; }

# The replayed run's embedded spec names the trace file instead of the
# workload it replaces, so the diff covers the KPI payload: every
# epoch row must come back byte-identical, on a single UAV and on a
# mobile fleet.
for leg in single fleet; do
	if [ "$leg" = fleet ]; then
		set -- -cells 2 -mobility 15
	else
		set --
	fi
	echo "scenario-smoke: capture/replay KPI byte diff ($leg)"
	"$tmp/skyranctl" -terrain FLAT -ues 3 -budget 200 -epochs 1 -seed 9 -serve 2 "$@" \
		-traffic poisson -record-trace "$tmp/$leg.trace" -json >"$tmp/capture.json"
	"$tmp/skyranctl" -terrain FLAT -ues 3 -budget 200 -epochs 1 -seed 9 -serve 2 "$@" \
		-traffic-replay "$tmp/$leg.trace" -json >"$tmp/replay.json"
	jq .epochs "$tmp/capture.json" >"$tmp/capture.epochs"
	jq .epochs "$tmp/replay.json" >"$tmp/replay.epochs"
	if ! diff -u "$tmp/capture.epochs" "$tmp/replay.epochs"; then
		echo "scenario-smoke: replayed epochs differ from capturing run ($leg)" >&2
		exit 1
	fi
	echo "scenario-smoke: replayed epochs are byte-identical to the capturing run ($leg)"
done

echo "scenario-smoke: OK"
