// Command millisampler demonstrates a single host's Millisampler: it builds
// a one-rack testbed, drives a service workload at one server, runs periodic
// collections exactly like the production user-space component, and prints
// the resulting timeseries as a text plot.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

func main() {
	profileName := flag.String("profile", "web", "workload profile: web, cache, storage, batch, quiet, mltrain")
	intervalMs := flag.Float64("interval", 1, "sampling interval in milliseconds")
	buckets := flag.Int("buckets", 2000, "number of time buckets")
	runs := flag.Int("runs", 2, "number of periodic runs")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	prof, ok := profileByName(*profileName)
	if !ok {
		fmt.Fprintf(os.Stderr, "millisampler: unknown profile %q\n", *profileName)
		os.Exit(1)
	}

	rack := testbed.NewRack(testbed.RackConfig{Servers: 4, Seed: *seed})
	workload.Install(rack, 0, prof, rack.RNG.Fork(1))

	cfg := core.Config{
		Interval:   sim.Time(*intervalMs * float64(sim.Millisecond)),
		Buckets:    *buckets,
		CountFlows: true,
	}
	sampler := core.NewSampler(rack.Servers[0], cfg)

	collected := 0
	periodic := &core.Periodic{
		Samplers: []*core.Sampler{sampler},
		Period:   50 * sim.Millisecond,
		Store: func(r *core.Run) {
			collected++
			printRun(r, collected)
		},
	}
	if err := periodic.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "millisampler:", err)
		os.Exit(1)
	}

	runSpan := cfg.Window() + 60*sim.Millisecond
	rack.Eng.RunUntil(sim.Time(*runs) * runSpan * 2)
	if collected == 0 {
		fmt.Fprintln(os.Stderr, "millisampler: no runs completed; increase -runs or simulation span")
		os.Exit(1)
	}
}

func profileByName(name string) (workload.Profile, bool) {
	for _, p := range []workload.Profile{
		workload.Web, workload.Cache, workload.Storage,
		workload.Batch, workload.Quiet, workload.MLTrain,
	} {
		if p.Name == name {
			return p, true
		}
	}
	return workload.Profile{}, false
}

func printRun(r *core.Run, n int) {
	fmt.Printf("run %d: host %d, interval %v, %d buckets, started=%v\n",
		n, r.Host, r.Interval, r.Buckets, r.Started)
	if !r.Started {
		return
	}
	fmt.Printf("  ingress %.2f MB (retx %.1f KB, ECN-marked %.1f KB), egress %.2f MB\n",
		float64(r.TotalBytes(core.CtrIn))/1e6,
		float64(r.TotalBytes(core.CtrInRetx))/1e3,
		float64(r.TotalBytes(core.CtrInECN))/1e3,
		float64(r.TotalBytes(core.CtrOut))/1e6)

	// Text sparkline of ingress utilization, 100 columns.
	cols := 100
	per := r.Buckets / cols
	if per < 1 {
		per = 1
		cols = r.Buckets
	}
	marks := " .:-=+*#%@"
	var sb strings.Builder
	peak := 0.0
	for c := 0; c < cols; c++ {
		u := 0.0
		for i := c * per; i < (c+1)*per && i < r.Buckets; i++ {
			if v := r.Utilization(i); v > u {
				u = v
			}
		}
		if u > peak {
			peak = u
		}
		idx := int(u * float64(len(marks)-1))
		if idx >= len(marks) {
			idx = len(marks) - 1
		}
		if idx < 0 {
			idx = 0
		}
		sb.WriteByte(marks[idx])
	}
	fmt.Printf("  util |%s| peak %.0f%%\n", sb.String(), peak*100)
}
