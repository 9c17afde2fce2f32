// Command experiments regenerates the paper's tables and figures from a
// simulated fleet dataset.
//
// Usage:
//
//	experiments [-preset small|default|paper] [-run fig7,tab2|all] [-data fleet.ds]
//
// -data names a sharded dataset directory as written by cmd/fleetgen (runs
// stream shard by shard, memory stays bounded). An existing dataset is
// loaded; otherwise the preset is generated there exactly as fleetgen would —
// shard by shard, so an interrupted generation keeps its committed shards and
// `fleetgen -o` with the same flags resumes it. Without -data the store is a
// throwaway experiments-* directory under $TMPDIR, removed on exit.
//
// -sweep appends the what-if counterfactual tables (§9) from a completed
// cmd/sweep result directory to the report.
//
// -server switches to client mode: instead of loading or generating a
// dataset locally, renders are fetched from a running cmd/queryd instance.
// There -data and -sweep name entries in the server's catalog (as listed by
// GET /v1/catalog) rather than local paths. Fetches revalidate with ETags
// (a repeated render costs a 304, not a recomputation) and retry transient
// failures on the shared backoff policy. Without -server the command
// renders locally, exactly as before.
//
//	experiments -server http://localhost:9010 -data fleet.ds -run tab1
//	experiments -server http://localhost:9010 -sweep sweeps/default -md out.md
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/queryd"
	"repro/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "experiments:") {
			msg = "experiments: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

func run() error {
	preset := flag.String("preset", "small", "dataset preset: small, default, or paper")
	runIDs := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	data := flag.String("data", "", "dataset directory to load from / save to")
	seed := flag.Uint64("seed", 0, "override dataset seed")
	racks := flag.Int("racks", 0, "override racks per region")
	sweepDir := flag.String("sweep", "", "completed cmd/sweep result directory: append its what-if tables")
	server := flag.String("server", "", "queryd base URL: fetch renders remotely; -data/-sweep become catalog names")
	md := flag.String("md", "", "also write results as markdown to this file")
	plot := flag.Bool("plot", false, "render ASCII plots for figures that carry curves")
	hostStack := flag.Bool("hoststack", false, "generate with the host-stack latency instrument armed (populates the hoststack table)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	if *server != "" {
		return runRemote(*server, *data, *sweepDir, *runIDs, *md)
	}

	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	// Ctrl-C / SIGTERM end the run between rack-hours or experiments by
	// returning, so the deferred removal below still happens.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	dir := *data
	if dir == "" {
		tmp, err := os.MkdirTemp("", "experiments-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	rd, err := loadOrGenerate(ctx, dir, *preset, *seed, seedSet, *racks, *hostStack)
	if err != nil {
		return err
	}
	src := experiments.WithContext(ctx, rd)

	// "all" is the report queryd serves, refusals included as notes; a named
	// experiment must succeed.
	var results []*experiments.Result
	if *runIDs == "all" {
		if results, err = experiments.RunAll(src); err != nil {
			return err
		}
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			if err := ctx.Err(); err != nil {
				return err
			}
			r, err := experiments.Run(strings.TrimSpace(id), src)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	}
	if *sweepDir != "" {
		res, err := sweep.Open(*sweepDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded sweep: %d points from %s\n", len(res.Points), *sweepDir)
		results = append(results, sweep.Report(res)...)
	}
	for _, r := range results {
		r.Render(os.Stdout)
		if *plot {
			r.RenderPlot(os.Stdout)
			fmt.Println()
		}
	}
	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			return err
		}
		for _, r := range results {
			r.RenderMarkdown(f)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote markdown to %s\n", *md)
	}
	return nil
}

// runRemote is client mode: fetch the requested renders from a queryd
// server instead of computing them locally. The server's cache means a
// fleet-wide render is computed once no matter how many clients ask.
func runRemote(server, data, sweepName, runIDs, md string) error {
	if data == "" && sweepName == "" {
		return fmt.Errorf("-server needs -data and/or -sweep naming catalog entries (see %s/v1/catalog)", server)
	}
	c := &queryd.Client{BaseURL: server}
	ctx := context.Background()

	// fetch grabs one catalog entry's renders in the given format.
	fetch := func(format string) ([][]byte, error) {
		var bodies [][]byte
		if data != "" {
			ids := []string{"all"}
			if runIDs != "all" {
				ids = strings.Split(runIDs, ",")
			}
			for _, id := range ids {
				b, err := c.RenderDataset(ctx, data, strings.TrimSpace(id), format)
				if err != nil {
					return nil, err
				}
				bodies = append(bodies, b)
			}
		}
		if sweepName != "" {
			b, err := c.RenderSweep(ctx, sweepName, "all", format)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		return bodies, nil
	}

	bodies, err := fetch("text")
	if err != nil {
		return err
	}
	for _, b := range bodies {
		os.Stdout.Write(b)
	}
	if md != "" {
		mdBodies, err := fetch("md")
		if err != nil {
			return err
		}
		f, err := os.Create(md)
		if err != nil {
			return err
		}
		for _, b := range mdBodies {
			if _, err := f.Write(b); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote markdown to %s\n", md)
	}
	if reval, filled := c.Stats(); reval > 0 {
		fmt.Fprintf(os.Stderr, "fetched %d renders (%d revalidated via ETag)\n", reval+filled, reval)
	}
	return nil
}

// loadOrGenerate resolves the experiments' dataset source: the finished
// store at dir, or — when there is none — the preset generated into it.
func loadOrGenerate(ctx context.Context, dir, preset string, seed uint64, seedSet bool, racks int, hostStack bool) (*dataset.Reader, error) {
	r, err := dataset.Open(dir)
	switch {
	case err == nil:
		done, total := r.Progress()
		if !r.Complete() {
			return nil, fmt.Errorf("%w: %s has %d of %d shards; resume it with cmd/fleetgen first",
				dataset.ErrIncomplete, dir, done, total)
		}
		fmt.Fprintf(os.Stderr, "loaded sharded dataset: %d shards, %d racks\n", done, len(r.RackMetas()))
		return r, nil
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	cfg, ok := fleet.Preset(preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	if seedSet {
		cfg.Seed = seed
	}
	if racks > 0 {
		cfg.RacksPerRegion = racks
	}
	cfg.HostStack = hostStack
	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating %s dataset (%d racks/region x %d hours)...\n",
		preset, cfg.RacksPerRegion, len(cfg.Hours))
	if r, err = dataset.GenerateDir(ctx, dir, cfg, nil); err != nil {
		return nil, err
	}
	runs := 0
	for _, s := range r.Shards() {
		runs += s.Runs
	}
	fmt.Fprintf(os.Stderr, "generated %d runs into %s in %v\n", runs, dir, time.Since(start).Round(time.Second))
	return r, nil
}
