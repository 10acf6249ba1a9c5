// Command skyrand is the SkyRAN control-plane daemon: it serves
// scenarios as managed jobs over HTTP. Submit the same knobs skyranctl
// takes as flags, poll the job, stream its telemetry, and download the
// REM store the flight built — results are byte-identical to the
// equivalent `skyranctl -json` run.
//
// Usage:
//
//	skyrand -addr :7643 -queue 16 -workers 4 -job-timeout 10m
//
//	curl -s localhost:7643/v1/jobs -d '{"terrain":"FLAT","ues":3,"serve_s":1,"seed":7}'
//	curl -s localhost:7643/v1/jobs/j1
//	curl -s localhost:7643/v1/jobs/j1/events        # live JSONL telemetry
//	curl -s localhost:7643/v1/jobs/j1/result        # skyranctl -json bytes
//	curl -s localhost:7643/v1/jobs/j1/rem -o j1.rem.gz
//	curl -s 'localhost:7643/v1/jobs/j1/rem/query?x=120&y=85'
//	curl -s localhost:7643/metrics
//
// SIGINT/SIGTERM starts a graceful drain: readiness flips to 503, new
// submissions are rejected, queued and running jobs finish, then the
// process exits. A second signal (or -drain-grace expiring) cancels
// in-flight jobs instead of waiting for them.
//
// With -checkpoint-dir the daemon is crash-recoverable: jobs
// checkpoint their simulation state at epoch boundaries and journal
// their lifecycle under that dir, and a restarted daemon re-enqueues
// interrupted jobs and resumes them from their newest intact
// checkpoint — completing with bytes identical to an uninterrupted
// run, even after kill -9:
//
//	skyrand -addr :7643 -checkpoint-dir /var/lib/skyrand
//
// With -coordinator the same binary fronts a fleet of worker daemons
// as a cluster coordinator: POST a campaign (a spec template swept
// over Monte-Carlo seeds) to /v1/campaigns, and the coordinator shards
// the seeds across the workers, rides out worker failures by
// restealing their shards, and serves a merged result byte-identical
// to a single-node run at any worker count:
//
//	skyrand -coordinator -addr :7650 \
//	    -worker-addrs http://127.0.0.1:7643,http://127.0.0.1:7644 \
//	    -route least-loaded -cluster-ckpt-dir /var/lib/skyran-cluster
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7643", "listen address (use :0 for an ephemeral port)")
		queueCap   = flag.Int("queue", 16, "job queue capacity; submissions beyond it get 429")
		workers    = flag.Int("workers", 0, "concurrent scenario runners (0 = CPU count)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "per-job run-time cap")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "how long a drain waits before canceling in-flight jobs")
		ckptDir    = flag.String("checkpoint-dir", "", "enable crash recovery: checkpoint jobs and journal their state here")
		ckptEvery  = flag.Int("checkpoint-every", 1, "epochs between checkpoints")
		ckptRetain = flag.Int("checkpoint-retain", 0, "checkpoint files kept per job (0 = all)")

		readTimeout = flag.Duration("read-timeout", 30*time.Second, "HTTP request read timeout (header + body)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator fronting -worker-addrs instead of a worker daemon")
		workerAddrs = flag.String("worker-addrs", "", "comma-separated worker base URLs (coordinator mode)")
		route       = flag.String("route", "round-robin", "coordinator routing policy: round-robin, least-loaded, scenario-affinity")
		admitRate   = flag.Float64("admit-rate", 0, "coordinator admission: seeds admitted per second (0 = unlimited)")
		admitBurst  = flag.Int("admit-burst", 0, "coordinator admission burst in seeds")
		probeEvery  = flag.Duration("probe-every", 500*time.Millisecond, "coordinator health-probe interval")
		probeFails  = flag.Int("probe-fails", 3, "consecutive probe failures before a worker is evicted")
		shardSeeds  = flag.Int("shard-seeds", 4, "max seeds per dispatched shard")
		clusterCkpt = flag.String("cluster-ckpt-dir", "", "shared checkpoint root for shard sub-jobs (enables cross-worker resume after eviction)")

		journalRetain = flag.Int("journal-retain", 0, "terminal journal records kept across restarts (0 = all; worker and coordinator)")
		journalMaxAge = flag.Duration("journal-max-age", 0, "terminal journal records older than this are collected at restart (0 = all)")
		journalDir    = flag.String("journal-dir", "", "coordinator campaign journal dir (enables coordinator crash recovery)")

		breakerFails    = flag.Int("breaker-fails", 0, "consecutive dispatch failures before a worker's circuit breaker opens (0 = default)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0, "how long an open breaker biases routing away from a worker (0 = default)")
		hedgeAfter      = flag.Duration("hedge-after", 0, "hedge a slow shard to a second worker after this long (0 = off)")
		timingSeed      = flag.Int64("timing-seed", 0, "seed for coordinator timing jitter (probe interval, Retry-After)")

		quarantineAfter = flag.Int("quarantine-after", 0, "consecutive panics before a spec fingerprint is quarantined (0 = default)")

		chaosSeed    = flag.Int64("chaos-seed", 0, "chaos RNG seed (0 = fixed default)")
		chaosSlow    = flag.Float64("chaos-slow-rate", 0, "probability an HTTP request is artificially delayed [0,1]")
		chaosSlowMax = flag.Duration("chaos-slow-max", 0, "max injected handler delay (0 = default)")
		chaosCrash   = flag.Float64("chaos-crash-rate", 0, "probability a worker simulates a crash mid-job [0,1]")
		chaosAfter   = flag.Duration("chaos-crash-after", 0, "how long a doomed job runs before the simulated crash (0 = default)")
		chaosMax     = flag.Int("chaos-max-crashes", 0, "total simulated crashes allowed (0 = default)")
		chaosPoison  = flag.String("chaos-poison-seeds", "", "comma-separated scenario seeds whose jobs panic mid-run (quarantine drill)")

		chaosNetLatency    = flag.Float64("chaos-net-latency", 0, "coordinator->worker chaos: probability a request is delayed [0,1]")
		chaosNetLatencyMax = flag.Duration("chaos-net-latency-max", 0, "max injected request latency (0 = default)")
		chaosNetReset      = flag.Float64("chaos-net-reset", 0, "probability a request fails like a connection reset [0,1]")
		chaosNetTruncate   = flag.Float64("chaos-net-truncate", 0, "probability a response body is truncated mid-transfer [0,1]")
		chaosNetPartition  = flag.Float64("chaos-net-partition", 0, "probability a request is black-holed [0,1]")
		chaosNetPartHosts  = flag.String("chaos-net-partition-hosts", "", "comma-separated host:port endpoints to partition entirely")
		chaosNetPartAfter  = flag.Duration("chaos-net-partition-after", 0, "delay before -chaos-net-partition-hosts takes effect")

		chaosDiskTorn    = flag.Float64("chaos-disk-torn", 0, "probability a checkpoint/journal write commits only a prefix [0,1]")
		chaosDiskENOSPC  = flag.Float64("chaos-disk-enospc", 0, "probability a checkpoint/journal write fails with ENOSPC [0,1]")
		chaosDiskBitFlip = flag.Float64("chaos-disk-bitflip", 0, "probability one payload bit of a write is inverted [0,1]")
	)
	flag.Parse()

	reg := metrics.NewRegistry()
	disk := chaos.DiskConfig{
		Seed:        *chaosSeed,
		TornRate:    *chaosDiskTorn,
		ENOSPCRate:  *chaosDiskENOSPC,
		BitFlipRate: *chaosDiskBitFlip,
	}
	if err := disk.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "skyrand:", err)
		os.Exit(1)
	}
	if inj := chaos.NewDiskInjector(disk, reg); inj != nil {
		// One process-wide hook: every durable write (simulation
		// checkpoints, job journals, campaign journals) funnels through
		// checkpoint.WriteFileAtomic.
		checkpoint.SetWriteFault(inj.Mutate)
		fmt.Println("skyrand: disk chaos enabled (torn/enospc/bitflip)")
	}

	if *coordinator {
		netChaos := &chaos.NetConfig{
			Seed:           *chaosSeed,
			LatencyRate:    *chaosNetLatency,
			LatencyMax:     *chaosNetLatencyMax,
			ResetRate:      *chaosNetReset,
			TruncateRate:   *chaosNetTruncate,
			PartitionRate:  *chaosNetPartition,
			PartitionHosts: splitAddrs(*chaosNetPartHosts),
			PartitionAfter: *chaosNetPartAfter,
		}
		err := coordinatorMain(*addr, *readTimeout, cluster.Config{
			WorkerAddrs:     splitAddrs(*workerAddrs),
			Route:           *route,
			AdmitRate:       *admitRate,
			AdmitBurst:      *admitBurst,
			ProbeEvery:      *probeEvery,
			FailAfter:       *probeFails,
			ShardSeeds:      *shardSeeds,
			CheckpointRoot:  *clusterCkpt,
			JournalDir:      *journalDir,
			JournalRetain:   *journalRetain,
			JournalMaxAge:   *journalMaxAge,
			BreakerFails:    *breakerFails,
			BreakerCooldown: *breakerCooldown,
			HedgeAfter:      *hedgeAfter,
			TimingSeed:      *timingSeed,
			NetChaos:        netChaos,
			Registry:        reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "skyrand:", err)
			os.Exit(1)
		}
		return
	}
	poisonSeeds, err := parseSeeds(*chaosPoison)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skyrand:", err)
		os.Exit(1)
	}
	cfg := server.Config{
		QueueCap:         *queueCap,
		Workers:          *workers,
		JobTimeout:       *jobTimeout,
		CheckpointDir:    *ckptDir,
		CheckpointEvery:  *ckptEvery,
		CheckpointRetain: *ckptRetain,
		JournalRetain:    *journalRetain,
		JournalMaxAge:    *journalMaxAge,
		QuarantineAfter:  *quarantineAfter,
		Registry:         reg,
	}
	if *chaosSlow > 0 || *chaosCrash > 0 || len(poisonSeeds) > 0 {
		cfg.Chaos = &server.ChaosConfig{
			Seed:            *chaosSeed,
			SlowHandlerRate: *chaosSlow,
			SlowHandlerMax:  *chaosSlowMax,
			WorkerCrashRate: *chaosCrash,
			CrashAfter:      *chaosAfter,
			MaxCrashes:      *chaosMax,
			PoisonSeeds:     poisonSeeds,
		}
	}
	if err := run(*addr, cfg, *drainGrace, *readTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "skyrand:", err)
		os.Exit(1)
	}
}

// parseSeeds parses a comma-separated list of int64 seeds.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q in -chaos-poison-seeds", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(addr string, cfg server.Config, drainGrace, readTimeout time.Duration) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	srv.Start()
	err = serve(addr, srv.Handler(), readTimeout, func(a net.Addr) {
		fmt.Printf("skyrand: listening on http://%s (queue %d, %s per job)\n",
			a, cfg.QueueCap, cfg.JobTimeout)
		if cfg.CheckpointDir != "" {
			fmt.Printf("skyrand: checkpointing to %s (every %d epochs)\n",
				cfg.CheckpointDir, cfg.CheckpointEvery)
		}
	}, func() {
		fmt.Println("skyrand: draining (queued and running jobs will finish)")
		drainCtx, cancel := context.WithTimeout(context.Background(), drainGrace)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintln(os.Stderr, "skyrand: drain grace expired; in-flight jobs canceled")
		}
	})
	if err != nil {
		return err
	}
	fmt.Println("skyrand: drained, exiting")
	return nil
}

// serve listens on addr, calls announce with the bound address, and
// serves h until SIGINT or SIGTERM. Then it runs drain and gives open
// requests 5 s to finish; a second signal kills the process the
// default way. Read timeouts bound how long a slow or stalled client
// can hold a connection open mid-request; submission bodies are
// additionally size-capped in the handlers. The events endpoint
// streams responses, so no WriteTimeout.
func serve(addr string, h http.Handler, readTimeout time.Duration, announce func(net.Addr), drain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       readTimeout,
	}
	announce(ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	drain()
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(httpCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}
