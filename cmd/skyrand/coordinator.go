package main

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
)

// coordinatorMain runs skyrand as a cluster coordinator instead of a
// worker daemon: it fronts the given worker addresses, accepts
// campaigns on /v1/campaigns, shards them across the fleet and serves
// the deterministically merged results.
func coordinatorMain(addr string, readTimeout time.Duration, cfg cluster.Config) error {
	if len(cfg.WorkerAddrs) == 0 {
		return fmt.Errorf("-coordinator requires -worker-addrs (comma-separated worker base URLs)")
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	return serve(addr, c.Handler(), readTimeout, func(a net.Addr) {
		fmt.Printf("skyrand: coordinating %d worker(s) on http://%s (route %s)\n",
			len(cfg.WorkerAddrs), a, c.Route())
		if cfg.CheckpointRoot != "" {
			fmt.Printf("skyrand: shard checkpoints under %s (shared with workers)\n", cfg.CheckpointRoot)
		}
		if cfg.JournalDir != "" {
			fmt.Printf("skyrand: campaign journal under %s (crash-recoverable)\n", cfg.JournalDir)
		}
		if cfg.NetChaos.Active() {
			fmt.Println("skyrand: network chaos enabled on worker dispatch")
		}
	}, func() { fmt.Println("skyrand: coordinator shutting down") })
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
