# Test tiers for the SkyRAN reproduction.
#
#   make tier1   build + full test suite (the acceptance gate)
#   make race    vet + race-detector suite (concurrency gate)
#   make short        quick signal while iterating
#   make bench        one bench per paper figure + hot-path micro-benches
#   make bench-smoke    vet + compile-and-run every benchmark once (CI tier)
#   make fmt          fail if gofmt -l . lists any file (CI tier)
#   make bench-module   vet + test the benchmark module under bench/ (its own
#                       Go module, invisible to the root ./...): a smoke run
#                       of all four workloads with per-seed byte checks
#   make serve-smoke  end-to-end skyrand daemon vs skyranctl -json diff
#   make recover-smoke  SIGKILL the daemon mid-job, restart, byte-identical finish
#   make chaos-smoke  aggressive fault schedule + daemon chaos under -race, byte-identical
#   make handover-smoke  mobile-UE multi-cell handovers under -race, byte-identical
#   make cluster-smoke  coordinator + 2 workers, SIGKILL one mid-campaign,
#                       merged result byte-identical to a single-node run
#   make chaosnet-smoke  race-built coordinator under seeded network chaos:
#                        partition one worker mid-campaign (breaker opens,
#                        shards resteal), then SIGKILL the coordinator and
#                        recover from its journal — bytes identical throughout
#   make fuzz-smoke  short native-fuzz pass over the specfile decoder, the
#                    checkpoint container reader, the job and campaign
#                    journal record readers, the GTP-U and S1AP-lite
#                    decoders at the EPC boundary, the traffic trace
#                    reader through one replayed phase, the ESRI and
#                    XYZ terrain importers, the telemetry trace
#                    reader traceview runs, and the REM store decoder
#                    every resumed controller checkpoint reaches
#                    (seeds + corpora)
#   make scenario-smoke  validate scenarios/, file-vs-flags byte diff,
#                        -spec conflict usage error, capture/replay diff
#   make loc          non-test Go lines per package and their total
#                     outside bench/ and .bench_build/

GO ?= go

.PHONY: tier1 race short bench bench-smoke bench-module fmt serve-smoke recover-smoke chaos-smoke handover-smoke cluster-smoke chaosnet-smoke fuzz-smoke scenario-smoke loc

tier1:
	$(GO) build ./... && $(GO) test -timeout 60m ./...

race:
	$(GO) vet ./... && $(GO) test -race -timeout 120m ./...

short:
	$(GO) build ./... && $(GO) test -short ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-smoke:
	$(GO) vet ./... && $(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: these files need gofmt -w:"; echo "$$out"; exit 1; fi

serve-smoke:
	sh scripts/serve_smoke.sh

recover-smoke:
	sh scripts/recover_smoke.sh

chaos-smoke:
	sh scripts/chaos_smoke.sh

handover-smoke:
	sh scripts/handover_smoke.sh

cluster-smoke:
	sh scripts/cluster_smoke.sh

chaosnet-smoke:
	sh scripts/chaosnet_smoke.sh

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/specfile
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzJobJournal$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignJournal$$' -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeGTPU$$' -fuzztime 10s ./internal/epc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeS1$$' -fuzztime 10s ./internal/epc
	$(GO) test -run '^$$' -fuzz '^FuzzReplayTrace$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzReadESRI$$' -fuzztime 10s ./internal/terrain
	$(GO) test -run '^$$' -fuzz '^FuzzReadXYZ$$' -fuzztime 10s ./internal/terrain
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeStore$$' -fuzztime 10s ./internal/rem

scenario-smoke:
	sh scripts/scenario_smoke.sh

loc:
	sh scripts/loc.sh
