package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/switchsim"
	"repro/internal/testbed"
	"repro/internal/txtplot"
	"repro/internal/workload"
)

func init() {
	registerConst("fig1", Fig01QueueShare)
	registerConst("fig3", Fig03MulticastSync)
	registerConst("fig4", Fig04BurstIdent)
	register("fig5", Fig05DeepDive) // the dataset's seed and exemplar picks decide its racks
}

// Fig01QueueShare reproduces Figure 1: the maximum fraction of the shared
// buffer each queue may take for different alpha and active-queue counts.
// This is analytic — T = alpha*B/(1+alpha*S) — and needs no dataset.
func Fig01QueueShare(Source) (*Result, error) {
	alphas := []float64{0.25, 0.5, 1, 2, 4}
	r := &Result{
		ID:    "fig1",
		Title: "Queue share T vs active queues S for varying alpha",
		Header: []string{"S", "a=0.25", "a=0.5", "a=1", "a=2",
			"a=4"},
	}
	for s := 0; s <= 10; s++ {
		row := []string{fmt.Sprintf("%d", s)}
		for _, a := range alphas {
			row = append(row, fmtF(switchsim.SteadyShare(a, s)))
		}
		r.AddRow(row...)
	}
	for _, a := range alphas {
		srs := txtplot.Series{Name: fmt.Sprintf("alpha=%v", a)}
		for s := 0; s <= 10; s++ {
			srs.Points = append(srs.Points, txtplot.Point{X: float64(s), Y: switchsim.SteadyShare(a, s)})
		}
		r.Plots = append(r.Plots, srs)
	}
	r.PlotOpts.XLabel = "# of active queues (S)"
	r.PlotOpts.YLabel = "queue share T (frac. of buffer)"
	r.PlotOpts.YMax = 1
	r.Notef("paper: alpha=1 gives B/2 for one queue, B/3 each for two; measured: %s and %s",
		fmtF(switchsim.SteadyShare(1, 1)), fmtF(switchsim.SteadyShare(1, 2)))
	return r, nil
}

// Fig03MulticastSync reproduces the §4.5 time-synchronization validation: a
// rack-local multicast beacon must appear in the same SyncMillisampler
// sample on all eight subscribed servers.
func Fig03MulticastSync(Source) (*Result, error) {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 8, Seed: 40304})
	subs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	beacon := workload.NewMulticastBeacon(rack, subs, 100*sim.Millisecond, 256<<10, 2_000_000_000)
	beacon.Start()

	ctrl := core.NewController(rack, core.Config{Interval: sim.Millisecond, Buckets: 1800, CountFlows: false})
	if err := ctrl.Schedule(20 * sim.Millisecond); err != nil {
		return nil, err
	}
	rack.Eng.RunUntil(ctrl.HarvestAt(20*sim.Millisecond) + sim.Millisecond)
	sr, err := ctrl.Result()
	if err != nil {
		return nil, err
	}

	r := &Result{
		ID:     "fig3",
		Title:  "SyncMillisampler capture of multicast bursts on 8 servers",
		Header: []string{"server", "bursts seen", "total KB"},
	}
	aligned, total := 0, 0
	for i := 1; i < sr.Samples-1; i++ {
		if sr.Servers[0].In[i] < 1000 {
			continue
		}
		total++
		ok := true
		for s := 1; s < 8; s++ {
			if sr.Servers[s].In[i-1]+sr.Servers[s].In[i]+sr.Servers[s].In[i+1] < 1000 {
				ok = false
			}
		}
		if ok {
			aligned++
		}
	}
	for s := 0; s < 8; s++ {
		seen, totalB := 0, 0.0
		for i := 0; i < sr.Samples; i++ {
			if sr.Servers[s].In[i] >= 1000 {
				seen++
			}
			totalB += sr.Servers[s].In[i]
		}
		r.AddRow(fmt.Sprintf("%d", s), fmt.Sprintf("%d", seen), fmtF(totalB/1024))
	}
	r.Notef("paper: lines for all servers overlap (collection synchronized); measured: %d/%d beacon samples aligned across all 8 servers (clock model max offset 200µs < 1ms sampling)",
		aligned, total)
	return r, nil
}

// Fig04BurstIdent reproduces the §4.5 burst-identification validation: five
// clients receive periodic 1.8 MB bursts; post-analysis must identify five
// simultaneously bursty servers.
func Fig04BurstIdent(Source) (*Result, error) {
	rack := testbed.NewRack(testbed.RackConfig{Servers: 8, Seed: 40405})
	clients := []int{0, 1, 2, 3, 4}
	gen := workload.NewBurstGen(rack, clients, 100*sim.Millisecond, 1_800_000)
	gen.Start()

	ctrl := core.NewController(rack, core.DefaultConfig())
	if err := ctrl.Schedule(20 * sim.Millisecond); err != nil {
		return nil, err
	}
	rack.Eng.RunUntil(ctrl.HarvestAt(20*sim.Millisecond) + sim.Millisecond)
	sr, err := ctrl.Result()
	if err != nil {
		return nil, err
	}
	ra := analysis.Analyze(sr, analysis.DefaultOptions())

	hist := map[int]int{}
	for _, c := range ra.Contention {
		hist[c]++
	}
	r := &Result{
		ID:     "fig4",
		Title:  "Simultaneously bursty servers identified during burst-generator run",
		Header: []string{"contention level", "samples"},
	}
	max := 0
	for c := range hist {
		if c > max {
			max = c
		}
	}
	for c := 0; c <= max; c++ {
		r.AddRow(fmt.Sprintf("%d", c), fmt.Sprintf("%d", hist[c]))
	}
	r.Notef("paper: 5 bursty clients identified over the same interval; measured max simultaneous bursty servers: %d", max)
	return r, nil
}

// Fig05DeepDive reproduces Figure 5: two example runs, one low-contention
// and one high-contention, summarized as burst rasters and contention
// ranges. The raw runs are regenerated deterministically from the dataset
// seed rather than stored.
func Fig05DeepDive(src Source) (*Result, error) {
	r := &Result{
		ID:     "fig5",
		Title:  "Deep dive into a low- and a high-contention run",
		Header: []string{"run", "bursty servers", "bursts", "contention min/mean/max"},
	}
	// One streaming pass picks the busiest run of each class as its
	// exemplar. The callback's run is only valid during the call, so the
	// retained pick is a copy.
	type exemplar struct {
		run fleet.RunSummary
		ok  bool
	}
	best := map[fleet.Class]*exemplar{
		fleet.ClassATypical: {},
		fleet.ClassAHigh:    {},
	}
	err := eachRun(src, func(run *fleet.RunSummary, c fleet.Class) error {
		e, want := best[c]
		if !want {
			return nil
		}
		if !e.ok || run.AvgContention > e.run.AvgContention {
			e.run = *run
			e.ok = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg := src.Config()
	for _, pick := range []struct {
		label string
		class fleet.Class
	}{
		{"low (RegA-Typical)", fleet.ClassATypical},
		{"high (RegA-High)", fleet.ClassAHigh},
	} {
		e := best[pick.class]
		if !e.ok {
			r.Notef("no %s runs in dataset", pick.label)
			continue
		}
		spec, ok := fleet.FindRack(cfg, e.run.Region, e.run.RackID)
		if !ok {
			return nil, fmt.Errorf("rack %s/%d not reconstructible", e.run.Region, e.run.RackID)
		}
		sr, _, err := fleet.SimulateRunFull(cfg, spec, e.run.Hour)
		if err != nil {
			return nil, err
		}
		ra := analysis.Analyze(sr, analysis.DefaultOptions())
		min, mean, max := 0, ra.AvgContention(), 0
		if m, ok := ra.MinActiveContention(); ok {
			min = m
		}
		for _, c := range ra.Contention {
			if c > max {
				max = c
			}
		}
		bursty := 0
		for _, s := range ra.Servers {
			if s.Bursty {
				bursty++
			}
		}
		r.AddRow(pick.label,
			fmt.Sprintf("%d/%d", bursty, len(ra.Servers)),
			fmt.Sprintf("%d", len(ra.Bursts)),
			fmt.Sprintf("%d/%.2f/%d", min, mean, max))
	}
	r.Notef("paper: example low run varies 0-3, high run varies 3-12; shapes should match qualitatively")
	return r, nil
}
