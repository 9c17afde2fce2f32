// Command queryd serves completed datasets and sweep stores read-only over
// HTTP: catalog listings, streaming NDJSON queries over rack shards, and
// cached figure/table renders (see internal/queryd).
//
// It is the read side of the pipeline — fleetgen/coordinator/worker write
// stores, queryd serves them to many clients with per-request memory
// bounded by one rack shard. SIGTERM drains gracefully: in-flight streams
// and renders finish, new requests stop being accepted.
//
// Usage:
//
//	queryd -root results/ -addr :9010
//	curl -s localhost:9010/v1/catalog
//	curl -s localhost:9010/v1/datasets/fleet/runs?region=A | head
//	curl -s localhost:9010/v1/datasets/fleet/renders/tab1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpserve"
	"repro/internal/queryd"
)

func main() {
	root := flag.String("root", ".", "directory scanned for datasets and sweep stores")
	addr := flag.String("addr", ":9010", "address to serve on")
	concurrency := flag.Int("concurrency", 16, "max simultaneous data requests before 429 backpressure")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request budget for streams and renders")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "render cache budget in bytes (negative disables the render cache and the decoded-shard cache)")
	quiet := flag.Bool("quiet", false, "suppress per-request logging")
	flag.Parse()

	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "queryd: ", log.LstdFlags)
	}
	srv := queryd.New(queryd.Config{
		Root:           *root,
		MaxConcurrent:  *concurrency,
		RequestTimeout: *timeout,
		CacheBytes:     *cacheBytes,
		Logger:         logger,
	})

	// Fail fast on an unusable root, and tell the operator what was found.
	dss, sws, err := srv.Catalog().Refresh()
	if err != nil {
		fmt.Fprintln(os.Stderr, "queryd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "queryd: serving %s on %s (%d datasets, %d sweeps)\n",
		*root, *addr, len(dss), len(sws))

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	err = httpserve.Graceful(ctx, httpSrv, 15*time.Second, func() {
		fmt.Fprintln(os.Stderr, "queryd: draining")
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "queryd:", err)
		os.Exit(1)
	}
}
