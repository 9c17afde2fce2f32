// Command worker computes leased units for a coordinator (see
// internal/distrib): it pulls one rack's unit — a dataset shard, or a sweep
// lane through every pending grid point — simulates it, and uploads the
// digest-stamped result, heartbeating its lease throughout.
// Workers are stateless — run as many as there are machines, kill them
// freely; every result is verified and committed exactly once by the
// coordinator. SIGTERM drains gracefully: the in-flight unit is abandoned
// between rack-hours and its lease released so a peer picks it up at once.
//
// Usage:
//
//	worker -coordinator http://host:9009
//	worker -coordinator http://host:9009 -name rack42
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/distrib"
)

func main() {
	coordURL := flag.String("coordinator", "http://127.0.0.1:9009", "coordinator base URL")
	name := flag.String("name", "", "worker identity in leases and logs (default host:pid)")
	flag.Parse()

	id := *name
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	w := &distrib.Worker{
		Client: &distrib.Client{BaseURL: *coordURL, Worker: id},
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker %s: %s\n", id, fmt.Sprintf(format, args...))
		},
	}
	if err := w.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "worker %s: drained\n", id)
			return
		}
		fmt.Fprintf(os.Stderr, "worker %s: %v\n", id, err)
		os.Exit(1)
	}
}
