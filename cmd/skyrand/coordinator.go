package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// coordinatorMain runs skyrand as a cluster coordinator instead of a
// worker daemon: it fronts the given worker addresses, accepts
// campaigns on /v1/campaigns, shards them across the fleet and serves
// the deterministically merged results.
func coordinatorMain(addr string, cfg cluster.Config) error {
	if len(cfg.WorkerAddrs) == 0 {
		return fmt.Errorf("-coordinator requires -worker-addrs (comma-separated worker base URLs)")
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
	}
	fmt.Printf("skyrand: coordinating %d worker(s) on http://%s (route %s)\n",
		len(cfg.WorkerAddrs), ln.Addr(), c.Route())
	if cfg.CheckpointRoot != "" {
		fmt.Printf("skyrand: shard checkpoints under %s (shared with workers)\n", cfg.CheckpointRoot)
	}
	if cfg.JournalDir != "" {
		fmt.Printf("skyrand: campaign journal under %s (crash-recoverable)\n", cfg.JournalDir)
	}
	if cfg.NetChaos.Active() {
		fmt.Println("skyrand: network chaos enabled on worker dispatch")
	}

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
	fmt.Println("skyrand: coordinator shutting down")
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return hs.Shutdown(httpCtx)
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
