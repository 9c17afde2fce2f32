// Command fleetgen generates a fleet dataset — a full simulated collection
// day over both regions — and stores it on disk for later analysis with
// cmd/experiments.
//
// The output is a sharded dataset directory (see internal/dataset): each rack
// streams to its own shard as it completes, so a long paper-scale generation
// can be killed and re-invoked with the same flags to resume where it left
// off.
//
// The -policy/-alpha/-ecn flags generate the fleet under a counterfactual
// ToR configuration instead of the baseline (dynamic thresholds, alpha 1) —
// a single what-if dataset; for full grids see cmd/sweep.
//
// Usage:
//
//	fleetgen -preset paper -o fleet.ds      # sharded, resumable
//	fleetgen -preset small -policy dt -alpha 4 -o whatif.ds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/distrib"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/switchsim"
)

func main() {
	out := flag.String("o", "fleet.ds", "output dataset directory (resumable)")
	preset := flag.String("preset", "default", "preset: small, default, or paper")
	seed := flag.Uint64("seed", 0, "override seed")
	racks := flag.Int("racks", 0, "override racks per region")
	servers := flag.Int("servers", 0, "override servers per rack")
	buckets := flag.Int("buckets", 0, "override sampler buckets per run")
	hours := flag.String("hours", "", "override sampled hours, e.g. 0,6,12,18")
	workers := flag.Int("workers", 0, "override generation parallelism")
	policy := flag.String("policy", "", "counterfactual sharing policy: dt, static, complete, bshare, or abm")
	alpha := flag.Float64("alpha", 0, "counterfactual DT/ABM alpha (requires -policy)")
	ecn := flag.Int("ecn", 0, "counterfactual ECN marking threshold in bytes, -1 disables marking (requires -policy)")
	bshareDelay := flag.Duration("bshare-delay", 0, "counterfactual BShare delay budget, e.g. 100us (requires -policy bshare)")
	distributed := flag.String("distributed", "", "coordinator URL: submit the generation as a distributed job instead of running locally")
	fidelity := flag.String("fidelity", "", "simulation fidelity: full (default, byte-exact) or hybrid (fluid fast path)")
	hostStack := flag.Bool("hoststack", false, "arm the host-stack latency instrument beside Millisampler (forces full fidelity)")
	profFlags := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	profSession, err := profFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
	defer profSession.Stop()

	cfg, ok := fleet.Preset(*preset)
	if !ok {
		fmt.Fprintf(os.Stderr, "fleetgen: unknown preset %q\n", *preset)
		os.Exit(1)
	}
	// flag.Visit only sees flags present on the command line, so -seed 0 is
	// an explicit choice rather than an impossible one.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.Seed = *seed
		}
	})
	if *racks > 0 {
		cfg.RacksPerRegion = *racks
	}
	if *servers > 0 {
		cfg.ServersPerRack = *servers
	}
	if *buckets > 0 {
		cfg.Buckets = *buckets
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *hours != "" {
		cfg.Hours = nil
		for _, part := range strings.Split(*hours, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || h < 0 || h > 23 {
				fmt.Fprintf(os.Stderr, "fleetgen: bad hour %q\n", part)
				os.Exit(1)
			}
			cfg.Hours = append(cfg.Hours, h)
		}
	}
	if *fidelity != "" {
		fid, err := fleet.ParseFidelity(*fidelity)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetgen:", err)
			os.Exit(1)
		}
		cfg.Fidelity = fid
	}
	cfg.HostStack = *hostStack
	if *policy == "" && (*alpha != 0 || *ecn != 0 || *bshareDelay != 0) {
		fmt.Fprintln(os.Stderr, "fleetgen: -alpha/-ecn/-bshare-delay need -policy (use -policy dt for baseline-style sharing)")
		os.Exit(1)
	}
	if *policy != "" {
		p, err := switchsim.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetgen:", err)
			os.Exit(1)
		}
		cfg.Switch = fleet.SwitchOverride{
			Policy: p, Alpha: *alpha, ECNThreshold: *ecn,
			BShareDelay: sim.Time(*bshareDelay),
		}
		fmt.Fprintf(os.Stderr, "fleetgen: counterfactual switch config: %s\n", cfg.Switch)
	}
	if err := cfg.WithDefaults().Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "fleetgen: %s\n", cfg.Describe())

	// Ctrl-C / SIGTERM abort cleanly between rack-hours: committed shards
	// stay, no temp files leak, and re-running the same flags resumes.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *distributed != "" {
		generateDistributed(ctx, *distributed, *out, cfg)
		return
	}
	generateSharded(ctx, *out, cfg)
}

// generateDistributed submits the generation to a coordinator and waits
// until it completes. The dataset lands in dir on the coordinator's
// filesystem; when that path is visible locally (same machine or shared
// storage) a summary is printed from it.
func generateDistributed(ctx context.Context, coordURL, dir string, cfg fleet.Config) {
	c := &distrib.Client{BaseURL: coordURL, Worker: "fleetgen-submit"}
	if err := c.Submit(ctx, &distrib.JobRequest{Kind: distrib.KindShard, Dir: dir, Config: &cfg}); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fleetgen: job submitted to %s (dir %s); waiting for workers\n", coordURL, dir)
	st, err := c.WaitComplete(ctx, func(done, total int) {
		fmt.Fprintf(os.Stderr, "fleetgen: %d/%d units committed\n", done, total)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fleetgen: distributed generation complete: %d shards, fingerprint %s\n",
		st.Total, st.Fingerprint)
	if dataset.IsDir(dir) {
		if r, err := dataset.Open(dir); err == nil {
			var runs int
			for _, s := range r.Shards() {
				runs += s.Runs
			}
			fmt.Fprintf(os.Stderr, "fleetgen: %d runs -> %s\n", runs, dir)
		}
	}
}

// generateSharded runs (or resumes) a sharded generation with per-shard
// progress and ETA reporting.
func generateSharded(ctx context.Context, dir string, cfg fleet.Config) {
	start := time.Now()
	doneAtStart := 0
	if dataset.IsDir(dir) {
		if r, err := dataset.Open(dir); err == nil {
			done, total := r.Progress()
			doneAtStart = done
			if done > 0 {
				fmt.Fprintf(os.Stderr, "fleetgen: resuming %s: %d/%d shards already complete\n",
					dir, done, total)
			}
		}
	}
	progress := func(p dataset.Progress) {
		elapsed := time.Since(start)
		eta := "-"
		if fresh := p.Done - doneAtStart; fresh > 0 && p.Done < p.Total {
			remaining := time.Duration(float64(elapsed) / float64(fresh) * float64(p.Total-p.Done))
			eta = remaining.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "fleetgen: shard %s/%05d done (%d runs) — %d/%d, eta %s\n",
			p.Region, p.ID, p.Runs, p.Done, p.Total, eta)
	}
	r, err := dataset.GenerateDir(ctx, dir, cfg, progress)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintln(os.Stderr, "fleetgen: interrupted; committed shards kept, re-run the same flags to resume")
		case errors.Is(err, dataset.ErrConfigMismatch):
			fmt.Fprintln(os.Stderr, "fleetgen:", err)
			fmt.Fprintln(os.Stderr, "fleetgen: use a fresh -o directory for a different config or seed")
		default:
			fmt.Fprintln(os.Stderr, "fleetgen:", err)
		}
		os.Exit(1)
	}
	var runs, bursts int
	for _, s := range r.Shards() {
		runs += s.Runs
	}
	if _, err := r.EachRun(func(run *fleet.RunSummary, _ fleet.Class) error {
		bursts += len(run.Bursts)
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fleetgen: %d runs, %d bursts -> %s in %v\n",
		runs, bursts, dir, time.Since(start).Round(time.Second))
}
