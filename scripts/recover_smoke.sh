#!/bin/sh
# recover-smoke: end-to-end proof that the skyrand daemon survives a
# hard crash. Starts skyrand with a checkpoint dir, submits a
# multi-epoch single-UAV job and a 2-cell mobile fleet job, SIGKILLs
# the daemon once both have checkpointed, restarts it on the same dir,
# and checks that each recovered job resumes from its checkpoint and
# completes with bytes identical to `skyranctl -json` — plus that
# /metrics reports the recoveries and no failed resume, and
# `skyranctl checkpoints` verifies the files the crash left behind.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "recover-smoke: building skyrand and skyranctl"
go build -o "$tmp/skyrand" ./cmd/skyrand
go build -o "$tmp/skyranctl" ./cmd/skyranctl

# Two jobs run side by side: a single UAV and a 2-cell mobile fleet
# that hands over, sized so both are still running when their first
# checkpoints land. The uninterrupted references are what each job
# must produce in the end.
uav_spec='{"terrain":"FLAT","ues":3,"budget_m":200,"epochs":6,"seed":7,"serve_s":1}'
"$tmp/skyranctl" -terrain FLAT -ues 3 -budget 200 -epochs 6 -seed 7 -serve 1 -json >"$tmp/ref-uav.json"
fleet_spec='{"terrain":"FLAT","ues":6,"cells":2,"mobility_ms":20,"handover_hysteresis_db":1,"handover_ttt_s":0.1,"traffic":{"model":"cbr","rate_bps":400000},"serve_s":60,"epochs":20,"seed":9}'
"$tmp/skyranctl" -terrain FLAT -ues 6 -cells 2 -mobility 20 -handover-hysteresis 1 -handover-ttt 0.1 \
	-traffic cbr -traffic-rate 4e5 -serve 60 -epochs 20 -seed 9 -json >"$tmp/ref-fleet.json"

start_daemon() {
	: >"$tmp/skyrand.log"
	"$tmp/skyrand" -addr 127.0.0.1:0 -workers 2 -queue 4 \
		-checkpoint-dir "$tmp/ckpt" >"$tmp/skyrand.log" 2>&1 &
	pid=$!
	addr=""
	i=0
	while [ $i -lt 100 ]; do
		addr=$(sed -n 's#^skyrand: listening on http://\([^ ]*\).*#\1#p' "$tmp/skyrand.log")
		[ -n "$addr" ] && break
		kill -0 "$pid" 2>/dev/null || { cat "$tmp/skyrand.log"; exit 1; }
		sleep 0.1
		i=$((i + 1))
	done
	[ -n "$addr" ] || { echo "recover-smoke: daemon never reported its address" >&2; exit 1; }
}

start_daemon
echo "recover-smoke: daemon up at $addr (checkpoints in $tmp/ckpt)"

submit() {
	id=$(curl -fsS -d "$1" "http://$addr/v1/jobs" | sed -n 's/.*"id": "\(j[0-9]*\)".*/\1/p')
	[ -n "$id" ] || { echo "recover-smoke: submission returned no job id" >&2; exit 1; }
	echo "$id"
}
uav=$(submit "$uav_spec")
fleet=$(submit "$fleet_spec")
echo "recover-smoke: submitted single-UAV job $uav and fleet job $fleet"

# Wait until both jobs have persisted at least one checkpoint, then
# kill the daemon the hard way — no drain, no journal finalization.
checkpointed() {
	ls "$tmp/ckpt/jobs/$uav/"epoch-*.ckpt >/dev/null 2>&1 &&
		ls "$tmp/ckpt/jobs/$fleet/"epoch-*.ckpt >/dev/null 2>&1
}
i=0
while [ $i -lt 300 ]; do
	checkpointed && break
	kill -0 "$pid" 2>/dev/null || { cat "$tmp/skyrand.log"; exit 1; }
	sleep 0.1
	i=$((i + 1))
done
checkpointed || { echo "recover-smoke: a job never checkpointed" >&2; exit 1; }
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "recover-smoke: SIGKILLed the daemon mid-run"

# The crash leftovers must verify cleanly.
"$tmp/skyranctl" checkpoints "$tmp/ckpt/jobs/$uav" "$tmp/ckpt/jobs/$fleet" ||
	{ echo "recover-smoke: leftover checkpoints failed verification" >&2; exit 1; }

start_daemon
echo "recover-smoke: daemon restarted at $addr"

# check_recovered ID REF RUN_SERVES waits for a recovered job to
# succeed and checks its result bytes against REF. A job that reran
# from scratch would give the same bytes, so its event log must also
# hold fewer serve records than the RUN_SERVES (epochs x UEs) of a
# whole run: it resumed from a checkpoint.
check_recovered() {
	status=""
	i=0
	while [ $i -lt 600 ]; do
		status=$(curl -fsS "http://$addr/v1/jobs/$1" | sed -n 's/^  "status": "\([a-z]*\)".*/\1/p')
		case "$status" in
		succeeded) break ;;
		failed | canceled)
			echo "recover-smoke: recovered job $1 ended $status" >&2
			curl -fsS "http://$addr/v1/jobs/$1" >&2
			exit 1
			;;
		"")
			echo "recover-smoke: job $1 unknown after restart" >&2
			exit 1
			;;
		esac
		sleep 0.5
		i=$((i + 1))
	done
	[ "$status" = succeeded ] || { echo "recover-smoke: recovered job $1 stuck ($status)" >&2; exit 1; }

	curl -fsS "http://$addr/v1/jobs/$1" >"$tmp/job.json"
	grep -q '"recovered": true' "$tmp/job.json" ||
		{ echo "recover-smoke: job $1 not marked recovered" >&2; exit 1; }

	curl -fsS "http://$addr/v1/jobs/$1/result" >"$tmp/recovered.json"
	if ! diff -u "$2" "$tmp/recovered.json"; then
		echo "recover-smoke: recovered result of job $1 differs from skyranctl -json" >&2
		exit 1
	fi
	serves=$(curl -fsS "http://$addr/v1/jobs/$1/events" | grep -c '"kind":"serve"' || true)
	[ "$serves" -lt "$3" ] ||
		{ echo "recover-smoke: job $1 logged $serves serve records, a whole run's $3: it reran instead of resuming" >&2; exit 1; }
	echo "recover-smoke: recovered job $1 resumed ($serves of $3 serve records) and is byte-identical to skyranctl -json"
}
check_recovered "$uav" "$tmp/ref-uav.json" 18
check_recovered "$fleet" "$tmp/ref-fleet.json" 120

recoveries=$(curl -fsS "http://$addr/metrics" | sed -n 's/^skyran_checkpoint_recoveries_total \([0-9]*\).*/\1/p')
[ -n "$recoveries" ] && [ "$recoveries" -ge 2 ] ||
	{ echo "recover-smoke: skyran_checkpoint_recoveries_total=$recoveries, want >= 2" >&2; exit 1; }
# Every checkpoint the crash left behind must resume: a failed resume
# falls back to an older checkpoint or a rerun with the same bytes, so
# only this counter shows it.
resume_failures=$(curl -fsS "http://$addr/metrics" | sed -n 's/^skyran_checkpoint_resume_failures_total \([0-9]*\).*/\1/p')
[ "$resume_failures" = 0 ] ||
	{ echo "recover-smoke: skyran_checkpoint_resume_failures_total=$resume_failures, want 0" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "recover-smoke: daemon exited non-zero after SIGTERM" >&2; exit 1; }
pid=""

echo "recover-smoke: OK"
